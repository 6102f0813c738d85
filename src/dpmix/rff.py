"""Random Fourier feature embedding for the Gaussian RBF kernel.

z(x) = sqrt(2/d) * cos(W x + b) with the rows of W drawn from the
kernel's spectral density N(0, 2*gamma*I) and phases b uniform on
[0, 2*pi) approximates kernel evaluations by inner products:

    <z(x), z(y)>  ~=  exp(-gamma * ||x - y||^2)

with error O(1/sqrt(d)).  The embedding satisfies E[||z(x)||] <= 1, so
clustering in feature space can use the fixed clip bound 1 without
spending privacy budget on threshold selection.

The embedding is float32: at d = 200 the kernel error is about 7%, some
10^6 times float32's rounding of ``W x + b`` and of the cosine, and
float32 halves the bytes of the (n, d) array that clustering holds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .threads import _run_tasks

EMBED_BLOCK_ROWS = 512


@dataclass(frozen=True)
class FeatureMap:
    """Frozen random projection, ``w`` and ``b`` alone; the same map must embed every record."""

    w: np.ndarray  # (d, m) frequency matrix, rows ~ N(0, 2*gamma*I)
    b: np.ndarray  # (d,) phases in [0, 2*pi)

    @property
    def d(self) -> int:
        return int(self.w.shape[0])

    @property
    def m(self) -> int:
        return int(self.w.shape[1])


def sample_feature_map(m: int, d: int, gamma: float, rng: np.random.Generator) -> FeatureMap:
    """Draw a d-dimensional feature map for m-dimensional inputs."""
    if m < 1 or d < 1:
        raise ValueError(f"dimensions must be >= 1, got m={m}, d={d}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    w = rng.normal(0.0, np.sqrt(2.0 * gamma), size=(d, m))
    b = rng.uniform(0.0, 2.0 * np.pi, size=d)
    w.flags.writeable = False
    b.flags.writeable = False
    return FeatureMap(w=w, b=b)


def feature_map_from_seed(m: int, d: int, gamma: float, seed: int) -> FeatureMap:
    """Rebuildable map: (m, d, gamma, seed) determine it, so a caller can embed
    public prototypes with the map that a run will draw from its seed."""
    return sample_feature_map(m, d, gamma, np.random.default_rng(seed))


def embed(fmap: FeatureMap, x: np.ndarray) -> np.ndarray:
    """Embed one record (1-D) or a stack of records (2-D, one per row).

    The result is float32, and so is the arithmetic: W and b are cast
    once per call, and records are cast EMBED_BLOCK_ROWS at a time, so
    the only full-size array is the (n, d) result.  The blocks are
    independent, so one thread per usable CPU embeds them
    (``threads._run_tasks``), each block by the same calls whichever
    thread takes it.
    """
    x = np.asarray(x)
    if x.shape[-1] != fmap.m:
        raise ValueError(f"record dimension {x.shape[-1]} does not match map m={fmap.m}")
    records = x.reshape(-1, fmap.m)
    w = fmap.w.astype(np.float32)
    b = fmap.b.astype(np.float32)
    out = np.empty((records.shape[0], fmap.d), dtype=np.float32)
    scale = np.float32(np.sqrt(2.0 / fmap.d))

    def embed_block(start):
        rows = slice(start, start + EMBED_BLOCK_ROWS)
        block = out[rows]
        np.matmul(records[rows].astype(np.float32), w.T, out=block)
        block += b
        np.cos(block, out=block)
        block *= scale

    _run_tasks(embed_block, range(0, records.shape[0], EMBED_BLOCK_ROWS))
    return out.reshape(*x.shape[:-1], fmap.d)
