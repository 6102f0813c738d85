"""One differentially private SGD step with adaptive clip-bound selection.

Each step Poisson-samples a batch, asks the model for per-example loss
gradients, selects a clip bound privately from the gradient norms of
exactly that batch, clips, and releases the noisy sum divided by the
constant expected batch size L (never the realized |S|, which would leak
it).  The update is plain descent: theta - eta * noisy_mean_gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Batch, BinaryDataset, sample_batch
from .dpnorm import clip_scales, dp_norm


@dataclass(frozen=True)
class SgdConfig:
    """Step hyperparameters.  batch_size is L, both sampling target and divisor."""

    sigma_c: float
    sigma_g: float
    batch_size: int
    eta: float
    c_max: float = 10.0
    bins: int = 100

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # eta = 0 is degenerate but well defined (parameters never move)
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.sigma_c < 0 or self.sigma_g < 0:
            raise ValueError("noise scales must be >= 0 (0 only in unsafe test mode)")
        if self.c_max <= 0 or self.bins < 1:
            raise ValueError(f"need c_max > 0 and bins >= 1, got {self.c_max}, {self.bins}")


@dataclass(frozen=True)
class StepInfo:
    """Diagnostics of one step; clip_bound feeds the next empty-batch fallback."""

    batch_size: int
    clip_bound: float
    grad_norm_mean: float
    grad_norm_max: float
    clipped_fraction: float


class DenseGradients:
    """Adapter giving a plain (B, P) gradient array the factored interface."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)
        self.shape = self.rows.shape

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.rows, axis=1)

    def clipped_sum(self, scales) -> np.ndarray:
        return np.asarray(scales, dtype=np.float64) @ self.rows


def dp_sgd_step(
    params: np.ndarray,
    grad_fn: Callable[[Batch], object],
    cluster: BinaryDataset,
    cfg: SgdConfig,
    sample_rng: np.random.Generator,
    noise_rng: np.random.Generator,
    prev_clip: float | None = None,
) -> tuple[np.ndarray, StepInfo]:
    """Run one step against ``cluster`` and return (new params, diagnostics).

    ``grad_fn`` maps a Batch to its |S| per-example descent gradients:
    an object with ``shape`` (|S|, P), ``norms()`` (the |S| row norms)
    and ``clipped_sum(scales)`` (the scaled row sum, a P-vector), such as
    rbm.FactoredGradients, or a plain (|S|, P) array, which is wrapped in
    DenseGradients.  The clip bound is voted on the norms alone, so no
    (|S|, P) matrix has to exist.  ``noise_rng`` draws ``bins`` normals
    for the vote, then P for the released sum.

    Clusters smaller than L clamp the sampling probability to 1; the
    per-record inclusion probability stays bounded by the accounted
    L / |dataset|.  An empty batch skips threshold selection and releases
    pure noise at the previous clip bound (c_max / 2 before any non-empty
    batch was seen).
    """
    if len(cluster) == 0:
        raise ValueError("cannot step against an empty cluster")
    params = np.asarray(params, dtype=np.float64)
    q = min(1.0, cfg.batch_size / len(cluster))
    batch = sample_batch(cluster, q, sample_rng)

    if len(batch) == 0:
        c_s = prev_clip if prev_clip is not None else cfg.c_max / 2.0
        noise = noise_rng.normal(0.0, math.sqrt(2.0) * cfg.sigma_g * c_s, size=params.shape)
        new_params = params - cfg.eta * noise / cfg.batch_size
        info = StepInfo(
            batch_size=0,
            clip_bound=float(c_s),
            grad_norm_mean=math.nan,
            grad_norm_max=math.nan,
            clipped_fraction=0.0,
        )
        return new_params, info

    grads = grad_fn(batch)
    if not hasattr(grads, "clipped_sum"):
        grads = DenseGradients(grads)
    if tuple(grads.shape) != (len(batch), params.size):
        raise ValueError(
            f"grad_fn must return ({len(batch)}, {params.size}), got {grads.shape}"
        )
    norms = grads.norms()
    c_s = dp_norm(norms, cfg.sigma_c, c_max=cfg.c_max, bins=cfg.bins, rng=noise_rng)
    total = grads.clipped_sum(clip_scales(norms, c_s))
    noise = noise_rng.normal(0.0, math.sqrt(2.0) * cfg.sigma_g * c_s, size=params.shape)
    new_params = params - cfg.eta * (total + noise) / cfg.batch_size
    info = StepInfo(
        batch_size=len(batch),
        clip_bound=float(c_s),
        grad_norm_mean=float(norms.mean()),
        grad_norm_max=float(norms.max()),
        clipped_fraction=float((norms > c_s).mean()),
    )
    return new_params, info
