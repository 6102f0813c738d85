"""One differentially private SGD step with adaptive clip-bound selection.

The step is the private mechanism alone: given one batch's per-example
loss gradients, it selects a clip bound privately from their norms (an
empty batch included), clips, and releases the noisy sum divided by the
constant expected batch size L (never the realized |S|, which would
leak it).  The update is plain descent: theta - eta * noisy_mean_gradient.
Sampling the batch and computing its gradients are the caller's
(mixture.train).  Its options come from the validated TrainConfig, its
gradients through the factored interface of rbm.FactoredGradients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accountant import gaussian_release
from .config import TrainConfig
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
    grads,
    cfg: TrainConfig,
    noise_rng: np.random.Generator,
) -> tuple[np.ndarray, StepInfo]:
    """Run one step on a batch's gradients ``grads``; return (params, info).

    ``grads`` holds the |S| per-example loss gradients of the batch in
    the factored interface of rbm.FactoredGradients: ``norms()`` (the
    |S| row norms) and ``clipped_sum(scales)`` (the scaled row sum, a
    P-vector).  The clip bound is voted on the norms alone, so no
    (|S|, P) matrix has to exist.  Of ``cfg`` the step reads sigma_c,
    sigma_g, batch_size (L, the divisor), eta, c_max and bins.

    Every step, an empty batch included, runs the one mechanism the
    accountant charges: the vote on the batch's norms (an empty batch
    votes on all-zero counts), then the Gaussian at the voted bound.  So
    ``noise_rng`` draws ``bins`` normals, then P, on every step, and the
    step keeps no state between calls.
    """
    params = np.asarray(params, dtype=np.float64)
    norms = grads.norms()
    c_s = dp_norm(norms, cfg.sigma_c, c_max=cfg.c_max, bins=cfg.bins, rng=noise_rng)
    total = grads.clipped_sum(clip_scales(norms, c_s))
    released = gaussian_release(total, cfg.sigma_g, c_s, noise_rng)
    new_params = params - cfg.eta * released / cfg.batch_size
    if len(norms) == 0:
        norm_stats = (math.nan, math.nan, 0.0)  # no norms, none clipped
    else:
        norm_stats = (float(norms.mean()), float(norms.max()), float((norms > c_s).mean()))
    return new_params, StepInfo(len(norms), float(c_s), *norm_stats)
