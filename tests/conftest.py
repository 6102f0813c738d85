"""Shared fixtures: synthetic block-structured Bernoulli mixture corpora."""
from __future__ import annotations

import numpy as np

from dpmix.data import make_dataset


def mixture_corpus(
    n: int,
    m: int,
    k: int,
    rng: np.random.Generator,
    block_p: float = 0.6,
    background_p: float = 0.03,
    weights=None,
):
    """k-component corpus: component c lights up its own block of items.

    Returns a BinaryDataset with component ids attached as labels.
    """
    if weights is None:
        weights = np.full(k, 1.0 / k)
    weights = np.asarray(weights, dtype=np.float64)
    comp = rng.choice(k, size=n, p=weights / weights.sum())
    block = m // k
    probs = np.full((n, m), background_p)
    for c in range(k):
        rows = comp == c
        lo, hi = c * block, (c + 1) * block if c < k - 1 else m
        probs[np.ix_(rows, np.arange(lo, hi))] = block_p
    records = (rng.random((n, m)) < probs).astype(np.uint8)
    empty = records.sum(axis=1) == 0
    records[empty, (comp[empty] * block) % m] = 1  # keep every record non-empty
    return make_dataset(records, labels=comp)


def kernel_rbf(x, y, gamma: float) -> float:
    """exp(-gamma * ||x - y||^2), the kernel the random Fourier features approximate."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-gamma * np.dot(diff, diff)))
