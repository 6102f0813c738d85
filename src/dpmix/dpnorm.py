"""Private selection of a clipping threshold: the noisy mode of a norm histogram.

The L2 norms of the input vectors are binned into w buckets
(C_{j-1}, C_j] with C_j = j * c_max / w, independent Gaussian noise of
standard deviation sqrt(2) * sigma_c is added to every count, and the
upper edge of the noisiest bucket is returned.  One record moves at most
one unit of count between two buckets, hence the sqrt(2) L2 sensitivity.
A 1-D input is taken as the norms themselves, so callers that know the
norms in closed form never build the vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NormHistogram:
    """counts[j-1] = #{v : C_{j-1} < ||v|| <= C_j}; zero norms land in bucket 1."""

    c_max: float
    bins: int
    counts: np.ndarray

    def edge(self, j: int) -> float:
        """Upper edge C_j of bucket j (1-indexed)."""
        return j * self.c_max / self.bins


def _norms(vectors) -> np.ndarray:
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one vector")
    if arr.ndim == 1:
        norms = np.abs(arr)
    elif arr.ndim == 2:
        norms = np.linalg.norm(arr, axis=1)
    else:
        raise ValueError(f"vectors must be 1-D or 2-D, got shape {arr.shape}")
    if not np.isfinite(norms).all():
        raise ValueError("non-finite norm encountered")
    return norms


def clip_scales(norms, c_s: float) -> np.ndarray:
    """Factors 1 / max(1, ||v|| / c_s) that move each vector onto the c_s ball."""
    if c_s <= 0:
        raise ValueError(f"clip bound must be positive, got {c_s}")
    return 1.0 / np.maximum(1.0, np.asarray(norms, dtype=np.float64) / c_s)


def norm_histogram(vectors, c_max: float = 10.0, bins: int = 100) -> NormHistogram:
    """Bin the vector norms; norms above c_max are dropped."""
    if c_max <= 0 or bins < 1:
        raise ValueError(f"need c_max > 0 and bins >= 1, got {c_max}, {bins}")
    norms = _norms(vectors)
    edges = np.arange(bins + 1) * (c_max / bins)
    idx = np.searchsorted(edges, norms, side="left")
    idx[norms == 0.0] = 1  # zero norms count in the first bucket
    idx = idx[idx <= bins]
    counts = np.bincount(idx, minlength=bins + 1)[1:]
    return NormHistogram(c_max=float(c_max), bins=int(bins), counts=counts)


def dp_norm(
    vectors,
    sigma_c: float,
    *,
    c_max: float = 10.0,
    bins: int = 100,
    rng: np.random.Generator,
) -> float:
    """Noisy-argmax clip bound in {C_1, ..., C_w}.

    sigma_c = 0 is a test-only mode that returns the exact modal edge;
    ties resolve toward the smaller bucket.
    """
    if sigma_c < 0:
        raise ValueError(f"sigma_c must be >= 0, got {sigma_c}")
    hist = norm_histogram(vectors, c_max, bins)
    noisy = hist.counts + rng.normal(0.0, np.sqrt(2.0) * sigma_c, size=bins)
    j = int(np.argmax(noisy)) + 1  # argmax takes the first (smallest) maximiser
    return hist.edge(j)
