"""One differentially private SGD step with adaptive clip-bound selection.

Each step Poisson-samples a batch of row ids from a cluster's members,
asks the model for the per-example loss gradients of those dataset rows,
selects a clip bound privately from the gradient norms of exactly that
batch (an empty one included), clips, and releases the noisy sum
divided by the constant expected batch size L (never the realized |S|,
which would leak it).
The update is plain descent: theta - eta * noisy_mean_gradient.
Its options come from the validated TrainConfig, its gradients through
the factored interface of rbm.FactoredGradients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .accountant import gaussian_release
from .config import TrainConfig
from .data import sample_batch
from .dpnorm import clip_scales, dp_norm


@dataclass(frozen=True)
class StepInfo:
    """Diagnostics of one step; an empty batch has NaN norm statistics and none clipped."""

    batch_size: int
    clip_bound: float
    grad_norm_mean: float
    grad_norm_max: float
    clipped_fraction: float


def dp_sgd_step(
    params: np.ndarray,
    grad_fn: Callable[[np.ndarray], object],
    members: np.ndarray,
    cfg: TrainConfig,
    sample_rng: np.random.Generator,
    noise_rng: np.random.Generator,
) -> tuple[np.ndarray, StepInfo]:
    """Run one step against the cluster ``members`` (row ids); return (params, info).

    ``grad_fn`` maps the sampled ids (kept entries of ``members``, in
    their order) to their |S| per-example descent gradients in the
    factored interface of rbm.FactoredGradients: ``shape`` (|S|, P),
    ``norms()`` (the |S| row norms) and ``clipped_sum(scales)`` (the
    scaled row sum, a P-vector).  The clip bound is voted on the norms
    alone, so no (|S|, P) matrix has to exist.  Of ``cfg`` the step reads
    sigma_c, sigma_g, batch_size (L, both sampling target and divisor),
    eta, c_max and bins.

    Each member is included with probability L / |members|, clamped to 1
    for clusters smaller than L.  That is above the q = L / |dataset| the
    accountant charges: 0.0150 against 0.005 at acceptance criterion 9.
    The ROADMAP item "Make DP-SGD run the mechanism the accountant
    charges" tracks the fix.  Every step, an empty batch included, runs
    the one mechanism the accountant charges: the vote on the batch's
    norms (an empty batch votes on all-zero counts), then the Gaussian
    at the voted bound.  So ``noise_rng`` draws ``bins`` normals, then P,
    on every step, and the step keeps no state between calls.
    ``grad_fn`` is called on every step too, so a model's persistent
    chains advance the same way whichever batches were empty.
    """
    if len(members) == 0:
        raise ValueError("cannot step against an empty cluster")
    params = np.asarray(params, dtype=np.float64)
    q = min(1.0, cfg.batch_size / len(members))
    batch = sample_batch(members, q, sample_rng)
    grads = grad_fn(batch)
    if tuple(grads.shape) != (len(batch), params.size):
        raise ValueError(f"grad_fn must return ({len(batch)}, {params.size}), got {grads.shape}")

    norms = grads.norms()
    c_s = dp_norm(norms, cfg.sigma_c, c_max=cfg.c_max, bins=cfg.bins, rng=noise_rng)
    total = grads.clipped_sum(clip_scales(norms, c_s))
    released = gaussian_release(total, cfg.sigma_g, c_s, noise_rng)
    new_params = params - cfg.eta * released / cfg.batch_size
    if len(batch) == 0:
        norm_stats = (math.nan, math.nan, 0.0)  # no norms, none clipped
    else:
        norm_stats = (float(norms.mean()), float(norms.max()), float((norms > c_s).mean()))
    return new_params, StepInfo(len(batch), float(c_s), *norm_stats)
