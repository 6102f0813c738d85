"""Private selection of a clipping threshold: the noisy mode of a norm histogram.

The L2 norms of the input vectors are binned into w buckets
(C_{j-1}, C_j] with C_j = j * c_max / w, independent Gaussian noise of
standard deviation sqrt(2) * sigma_c is added to every count, and the
upper edge of the noisiest bucket is returned.  Adding or removing one
record changes one count by 1 (or none, above c_max), so the counts
have L2 sensitivity 1: the noisy counts are one gaussian_release at
sigma_c.
The caller passes the 1-D array of norms, never the vectors: DP-SGD
knows the norms without building the vectors.
"""
from __future__ import annotations

import numpy as np

from .accountant import gaussian_release


def clip_scales(norms, c_s: float) -> np.ndarray:
    """Factors 1 / max(1, ||v|| / c_s) that move each vector onto the c_s ball."""
    if c_s <= 0:
        raise ValueError(f"clip bound must be positive, got {c_s}")
    return 1.0 / np.maximum(1.0, np.asarray(norms, dtype=np.float64) / c_s)


def norm_histogram(norms, c_max: float, bins: int) -> np.ndarray:
    """Bucket counts of the norms: counts[j-1] = #{C_{j-1} < norm <= C_j}.

    Zero norms count in bucket 1; norms above c_max are dropped, and no
    norms give all-zero counts.  ValueError unless ``norms`` is a 1-D
    array of finite, non-negative values.
    """
    if c_max <= 0 or bins < 1:
        raise ValueError(f"need c_max > 0 and bins >= 1, got {c_max}, {bins}")
    norms = np.asarray(norms, dtype=np.float64)
    if norms.ndim != 1:
        raise ValueError(f"need a 1-D array of norms, got shape {norms.shape}")
    if not (np.isfinite(norms) & (norms >= 0)).all():
        raise ValueError("norms must be finite and non-negative")
    edges = np.arange(bins + 1) * (c_max / bins)
    idx = np.searchsorted(edges, norms, side="left")
    idx[norms == 0.0] = 1  # zero norms count in the first bucket
    idx = idx[idx <= bins]
    return np.bincount(idx, minlength=bins + 1)[1:]


def dp_norm(
    norms,
    sigma_c: float,
    *,
    c_max: float,
    bins: int,
    rng: np.random.Generator,
) -> float:
    """Noisy-argmax clip bound in {C_1, ..., C_w} for the 1-D array ``norms``.

    Ties resolve toward the smaller bucket.
    """
    counts = norm_histogram(norms, c_max, bins)
    noisy = gaussian_release(counts, sigma_c, 1.0, rng)
    j = int(np.argmax(noisy)) + 1  # argmax takes the first (smallest) maximiser
    return j * float(c_max) / int(bins)
