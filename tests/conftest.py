"""Shared fixtures: the checked dataset constructor, synthetic
block-structured Bernoulli mixture corpora, the one-call clip of embedded
records, dense references for the factored RBM gradients, DP-SGD step
helpers, a zero-noise stream for noise-free oracles and an empty memo of
accountant series values."""
from __future__ import annotations

import numpy as np
import pytest

from dpmix import accountant
from dpmix.accountant import PrivacyConfig, epsilon_for_delta
from dpmix.config import TrainConfig
from dpmix.data import BinaryDataset
from dpmix.dpnorm import clip_scales
from dpmix.errors import DataError
from dpmix.kmeans import CLIP_BOUND, CLIP_TARGET
from dpmix.rbm import RbmModel, _logistic, conditional_hidden


def make_dataset(records: np.ndarray, *, allow_empty: bool = False) -> BinaryDataset:
    """Validate, copy and freeze a (n, m) 0/1 array into a BinaryDataset.

    ``allow_empty`` admits all-zero rows, as the loaders' option does.
    """
    arr = np.asarray(records)
    if arr.ndim != 2:
        raise DataError(f"records must be 2-D, got shape {arr.shape}")
    if arr.shape[1] < 1:
        raise DataError("records must have at least one column")
    # unsigned entries cannot be negative, so the maximum decides without temporaries
    unsigned = arr.dtype.kind in "bu"
    if not (arr.max(initial=0) <= 1 if unsigned else ((arr == 0) | (arr == 1)).all()):
        raise DataError("records must contain only 0/1 entries")
    arr = arr.astype(np.uint8, copy=True)
    if not allow_empty and not arr.any(axis=1).all():
        first = int(np.flatnonzero(~arr.any(axis=1))[0])
        raise DataError(f"record {first} is empty (all zeros)")
    arr.flags.writeable = False
    return BinaryDataset(records=arr)


def labelled_mixture_corpus(
    n: int,
    m: int,
    k: int,
    rng: np.random.Generator,
    block_p: float = 0.6,
    background_p: float = 0.03,
    weights=None,
):
    """k-component corpus: component c lights up its own block of items.

    Returns (BinaryDataset, component id of each record).
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
    return make_dataset(records), comp


def mixture_corpus(*args, **kwargs):
    """The records of labelled_mixture_corpus, without their component ids."""
    return labelled_mixture_corpus(*args, **kwargs)[0]


def one_call_clip(features):
    """The out-of-place, one-call clip that kmeans.clip_embedding must match bit for bit.

    Norms and scales are float64, a row beyond CLIP_BOUND moves onto the
    CLIP_TARGET ball, and the rows come back as float32.
    """
    wide = features.astype(np.float64)
    norms = np.linalg.norm(wide, axis=1)
    scales = np.where(norms > CLIP_BOUND, clip_scales(norms, CLIP_TARGET), 1.0)
    return (wide * scales[:, None]).astype(np.float32)


def kernel_rbf(x, y, gamma: float) -> float:
    """exp(-gamma * ||x - y||^2), the kernel the random Fourier features approximate."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-gamma * np.dot(diff, diff)))


def dense_positive_statistics(model, records):
    """Per-record statistics (p(h|x) x', x, p(h|x)) as a materialized (B, P) matrix.

    Rows align with ``RbmModel.params``; ``rbm.positive_statistics`` returns
    their weighted row sum without building this matrix.
    """
    x = np.atleast_2d(np.asarray(records, dtype=np.float64))
    p_h = conditional_hidden(model, x)
    grad_w = np.einsum("bi,bj->bij", p_h, x).reshape(x.shape[0], -1)
    return np.concatenate([grad_w, x, p_h], axis=1)


def conditional_visible(model: RbmModel, h) -> np.ndarray:
    """p(v_j = 1 | h) for one state (1-D) or a stack (2-D)."""
    h = np.asarray(h, dtype=np.float64)
    return _logistic(model.visible_bias + h @ model.weights)


class DenseGradients:
    """A plain (B, P) gradient array in the factored interface ``dp_sgd_step`` reads."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.rows, axis=1)

    def clipped_sum(self, scales) -> np.ndarray:
        return np.asarray(scales, dtype=np.float64) @ self.rows


def step_config(sigma_c, sigma_g, batch_size, eta, **kw) -> TrainConfig:
    """TrainConfig for a direct ``dp_sgd_step`` call; fields a step does not read are fixed."""
    return TrainConfig(
        k=1, epochs=1, batch_size=batch_size, sigma_c=sigma_c, sigma_k=1.0,
        sigma_g=sigma_g, eta=eta, **kw,
    )


def privacy_claim() -> dict:
    """The ``privacy``, ``epsilon`` and ``argmin_lambda`` of a MixtureModel
    built by hand: a small run's block and the epsilon the accountant gives it."""
    privacy = PrivacyConfig(sigma_c=4.0, sigma_k=40.0, sigma_g=1.0, q=0.25, t_kmeans=2,
                            t_sgd=4, delta=0.01)
    epsilon, argmin_lambda = epsilon_for_delta(privacy)
    return {"privacy": privacy, "epsilon": epsilon, "argmin_lambda": argmin_lambda}


@pytest.fixture
def fresh_series():
    """accountant._log_e2, its memo cleared before and after the test.

    A test that patches the series' internals then runs the series, and
    leaves no value computed under the patch behind; a test that compares
    a recomputation clears it again between the compared passes.
    """
    accountant._log_e2.cache_clear()
    yield accountant._log_e2
    accountant._log_e2.cache_clear()


class ZeroNoise:
    """A noise stream whose releases add nothing: the test double of zero noise.

    No noise scale of 0 is accepted anywhere in dpmix, so a noise-free
    oracle passes a positive one and this double as the noise ``rng``.
    ``normal`` draws from the wrapped Generator exactly as a real release
    would, so the stream stays where it would be, then returns zeros of
    the drawn shape.  With ``size``, only draws of that many values (a
    clip-bound vote over ``size`` bins, say) are zeroed; the others are
    returned as drawn.
    """

    def __init__(self, rng: np.random.Generator, size: int | None = None):
        self.rng = rng
        self.size = size

    def normal(self, loc=0.0, scale=1.0, size=None):
        drawn = self.rng.normal(loc, scale, size)
        if self.size is not None and np.size(drawn) != self.size:
            return drawn
        return np.zeros(np.shape(drawn))
