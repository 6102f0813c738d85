"""Bernoulli restricted Boltzmann machine with persistent-chain gradients.

Energy of a joint state (v, h) with visible v in {0,1}^m and hidden h in
{0,1}^n:

    E(v, h) = -h' W v - b' v - c' h

where W is the (n, m) weight matrix, b the visible bias and c the hidden
bias.  Both conditionals factorize into logistic units.  Training
statistics follow persistent contrastive divergence: the model
expectation is estimated from Gibbs chains that persist across updates
and never see the current batch, so per-example gradients share one
negative term and differ only in their positive term.

The per-example gradients are therefore kept factored: p(h|x) (B x n),
the batch x (B x m) and the shared negative statistic N (one P-vector).
Their norms and any weighted row sum have closed forms in those factors,
so a DP-SGD step costs O(B (n + m)) memory instead of the O(B P) of the
materialized (B, P) gradient matrix, with P = n m + m + n.

Block Gibbs sampling (persistent-chain advances and ``sample_batch``)
runs in float32: parameters are cast once per call, conditionals and
uniform draws are float32, and states are 0/1 throughout, so only the
probabilities carry float32 rounding.  Training statistics stay float64.
The logistic is numpy's 1/(1 + exp(-x)), evaluated in place.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass
class RbmModel:
    """Mutable parameter container; updates happen in place during training."""

    weights: np.ndarray  # (n_hidden, m)
    visible_bias: np.ndarray  # (m,)
    hidden_bias: np.ndarray  # (n_hidden,)

    @property
    def m(self) -> int:
        return int(self.weights.shape[1])

    @property
    def n_hidden(self) -> int:
        return int(self.weights.shape[0])

    @property
    def n_params(self) -> int:
        return self.weights.size + self.visible_bias.size + self.hidden_bias.size

    def __post_init__(self):
        n, m = self.weights.shape
        if self.visible_bias.shape != (m,) or self.hidden_bias.shape != (n,):
            raise ValueError("bias shapes do not match the weight matrix")


def init_model(
    m: int, n_hidden: int, rng: np.random.Generator, weight_std: float = 0.01
) -> RbmModel:
    """Small random weights, zero biases."""
    if m < 1 or n_hidden < 1:
        raise ValueError(f"dimensions must be >= 1, got m={m}, n_hidden={n_hidden}")
    return RbmModel(
        weights=rng.normal(0.0, weight_std, size=(n_hidden, m)),
        visible_bias=np.zeros(m),
        hidden_bias=np.zeros(n_hidden),
    )


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in place, in x's dtype.

    exp overflows to inf for very negative x, which gives exactly 0; the
    overflow is expected and not warned about.
    """
    with np.errstate(over="ignore"):
        np.negative(x, out=x)
        np.exp(x, out=x)
        x += 1
        np.reciprocal(x, out=x)
    return x


def conditional_hidden(model: RbmModel, v: np.ndarray) -> np.ndarray:
    """p(h_i = 1 | v) for one record (1-D) or a stack (2-D)."""
    v = np.asarray(v, dtype=np.float64)
    return _logistic(model.hidden_bias + v @ model.weights.T)


def conditional_visible(model: RbmModel, h: np.ndarray) -> np.ndarray:
    """p(v_j = 1 | h) for one state (1-D) or a stack (2-D)."""
    h = np.asarray(h, dtype=np.float64)
    return _logistic(model.visible_bias + h @ model.weights)


def flatten_parameters(model: RbmModel) -> np.ndarray:
    """Parameter vector in declared order: W row-major, then b, then c."""
    return np.concatenate(
        [model.weights.ravel(), model.visible_bias, model.hidden_bias]
    )


def set_flat_parameters(model: RbmModel, vec: np.ndarray) -> None:
    """Inverse of flatten_parameters; writes the model in place."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (model.n_params,):
        raise ValueError(f"expected {model.n_params} parameters, got {vec.shape}")
    n, m = model.weights.shape
    model.weights = vec[: n * m].reshape(n, m).copy()
    model.visible_bias = vec[n * m : n * m + m].copy()
    model.hidden_bias = vec[n * m + m :].copy()


def positive_statistics(
    model: RbmModel, records: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Per-record sufficient statistics (p(h|x) x', x, p(h|x)), flattened.

    Rows align with flatten_parameters, so statistic differences are
    log-likelihood gradients.  With ``weights`` (one per record) the
    weighted row sum is returned as one P-vector instead, computed
    without the (B, P) matrix.
    """
    x = np.asarray(records, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    p_h = conditional_hidden(model, x)  # (B, n)
    if weights is not None:
        return _weighted_statistic(p_h, x, np.asarray(weights, dtype=np.float64))
    grad_w = np.einsum("bi,bj->bij", p_h, x).reshape(x.shape[0], -1)
    return np.concatenate([grad_w, x, p_h], axis=1)


def _weighted_statistic(p_h: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_b w_b (p_b x_b', x_b, p_b), flattened like flatten_parameters."""
    return np.concatenate([((w[:, None] * p_h).T @ x).ravel(), w @ x, w @ p_h])


@dataclass(frozen=True, eq=False)
class FactoredGradients:
    """Per-example gradients sign * (pos(x_b) - N) without the (B, P) matrix.

    Row b has weight block p_b x_b' - N_W, visible block x_b - N_b and
    hidden block p_b - N_c.  ``norms`` and ``clipped_sum`` are the two
    operations DP-SGD needs; negation flips ``sign`` and leaves norms
    unchanged.
    """

    hidden: np.ndarray  # (B, n) p(h | x_b)
    records: np.ndarray  # (B, m) float
    negative: np.ndarray  # (P,) shared negative statistic N
    sign: float = 1.0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.records.shape[0], self.negative.size)

    def __len__(self) -> int:
        return self.records.shape[0]

    def __neg__(self) -> "FactoredGradients":
        return replace(self, sign=-self.sign)

    def norms(self) -> np.ndarray:
        """Row L2 norms from the expanded square of each block, clamped at 0.

        ||p x' - N_W||^2 = ||p||^2 ||x||^2 - 2 p' N_W x + ||N_W||^2; the bias
        blocks are plain differences.
        """
        p, x = self.hidden, self.records
        n, m = p.shape[1], x.shape[1]
        neg_w = self.negative[: n * m]
        neg_b, neg_c = self.negative[n * m : n * m + m], self.negative[n * m + m :]
        sq = (
            np.einsum("bi,bi->b", p, p) * np.einsum("bj,bj->b", x, x)
            - 2.0 * np.einsum("bj,bj->b", p @ neg_w.reshape(n, m), x)
            + neg_w @ neg_w
            + np.einsum("bj,bj->b", x - neg_b, x - neg_b)
            + np.einsum("bi,bi->b", p - neg_c, p - neg_c)
        )
        return np.sqrt(np.maximum(sq, 0.0))

    def clipped_sum(self, scales) -> np.ndarray:
        """sum_b scales_b * row_b = (s o P)' X - (sum s) N, flattened."""
        s = np.asarray(scales, dtype=np.float64)
        total = _weighted_statistic(self.hidden, self.records, s) - s.sum() * self.negative
        return self.sign * total


@dataclass
class PersistentChains:
    """Gibbs chain states plus their private random stream.

    The states are a function of the parameter history and the chain
    seed only; batches never touch them.
    """

    states: np.ndarray  # (count, m) uint8
    rng: np.random.Generator

    @classmethod
    def initialize(cls, count: int, m: int, seed: int) -> "PersistentChains":
        if count < 1:
            raise ValueError(f"need at least one chain, got {count}")
        rng = np.random.default_rng(seed)
        states = (rng.random((count, m)) < 0.5).astype(np.uint8)
        return cls(states=states, rng=rng)

    def __len__(self) -> int:
        return int(self.states.shape[0])


def _gibbs_sweeps(
    model: RbmModel, states: np.ndarray, sweeps: int, rng: np.random.Generator
) -> np.ndarray:
    """Block Gibbs in float32: h ~ p(h | v), then v ~ p(v | h), ``sweeps`` times."""
    w = model.weights.astype(np.float32)
    b = model.visible_bias.astype(np.float32)
    c = model.hidden_bias.astype(np.float32)
    v = states.astype(np.float32)
    h = np.empty((v.shape[0], c.size), dtype=np.float32)
    p_h, u_h = np.empty_like(h), np.empty_like(h)
    p_v, u_v = np.empty_like(v), np.empty_like(v)
    for _ in range(sweeps):
        np.matmul(v, w.T, out=p_h)
        p_h += c
        _logistic(p_h)
        rng.random(out=u_h, dtype=np.float32)
        np.less(u_h, p_h, out=h)
        np.matmul(h, w, out=p_v)
        p_v += b
        _logistic(p_v)
        rng.random(out=u_v, dtype=np.float32)
        np.less(u_v, p_v, out=v)
    return v.astype(np.uint8)


def advance_chains(model: RbmModel, chains: PersistentChains, sweeps: int) -> None:
    """Run block Gibbs on every chain, in place."""
    chains.states = _gibbs_sweeps(model, chains.states, sweeps, chains.rng)


def negative_statistic(model: RbmModel, chains: PersistentChains) -> np.ndarray:
    """Model-side statistic: mean of positive_statistics over chain states."""
    count = len(chains)
    return positive_statistics(model, chains.states, np.full(count, 1.0 / count))


def pcd_per_example_gradients(
    model: RbmModel, batch, chains: PersistentChains, gibbs_steps: int = 1
) -> FactoredGradients:
    """Log-likelihood ascent gradients, one row per batch record, factored.

    Advances the persistent chains by ``gibbs_steps`` sweeps, then
    returns rows positive(x) - N with the shared negative statistic N as
    a FactoredGradients (no (B, P) matrix is built).  An empty batch
    returns zero rows and leaves the chains untouched.
    """
    records = batch.records if hasattr(batch, "records") else batch
    x = np.atleast_2d(np.asarray(records, dtype=np.float64))
    if x.shape[0] == 0:
        return FactoredGradients(
            np.zeros((0, model.n_hidden)), x, np.zeros(model.n_params)
        )
    advance_chains(model, chains, gibbs_steps)
    neg = negative_statistic(model, chains)
    return FactoredGradients(conditional_hidden(model, x), x, neg)


def sample_batch(
    model: RbmModel, count: int, gibbs_steps: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` records: fair-coin start, then block Gibbs burn-in."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if gibbs_steps < 1:
        raise ValueError(f"gibbs_steps must be >= 1, got {gibbs_steps}")
    start = (rng.random((count, model.m), dtype=np.float32) < 0.5).astype(np.uint8)
    return _gibbs_sweeps(model, start, gibbs_steps, rng)
