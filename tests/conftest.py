"""Shared fixtures: synthetic block-structured Bernoulli mixture corpora."""
from __future__ import annotations

import numpy as np

from dpmix.data import make_dataset
from dpmix.rbm import conditional_hidden


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


def dense_positive_statistics(model, records):
    """Per-record statistics (p(h|x) x', x, p(h|x)) as a materialized (B, P) matrix.

    Rows align with flatten_parameters; ``rbm.positive_statistics`` returns
    their weighted row sum without building this matrix.
    """
    x = np.atleast_2d(np.asarray(records, dtype=np.float64))
    p_h = conditional_hidden(model, x)
    grad_w = np.einsum("bi,bj->bij", p_h, x).reshape(x.shape[0], -1)
    return np.concatenate([grad_w, x, p_h], axis=1)
