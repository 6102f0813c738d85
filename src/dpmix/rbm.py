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
runs in float32: parameters are cast once per call, conditionals are
float32, and states are 0/1 throughout, so only the probabilities carry
float32 rounding.  Training statistics stay float64.  The logistic is
numpy's 1/(1 + exp(-x)), evaluated in place.

A sweep holds two state buffers, v and h.  Each product writes into the
other buffer, and the bias, the logistic and the comparison run in
place, so a chain of B rows needs B (m + n) float32 values beside the
parameters.  One kernel samples both chain advances and generation.

Each unit's uniform is a 16-bit integer k from the raw 64-bit words of
the stream's bit generator (PCG64 throughout dpmix): four per word,
lowest quarter first, in stream order.  The unit is 1 iff k < 2**16 p,
where p is the float32 logistic.  The sweep computes 2**16 p as
2**16 / (1 + exp(t)) from the negated activation t; scaling by a power
of two is exact, and where p is subnormal both values lie in (0, 1), so
the same k fire.  So P(1) = ceil(2**16 p) / 2**16: p is rounded up to a
multiple of 2**-16, and a unit with 0 < p < 2**-16 fires at 2**-16.

A draw of s units takes ceil(s / 4) words and drops the quarters it
does not use.  The words are drawn and compared in blocks of
UNIFORM_BLOCK values, a multiple of 4, so no buffer of a draw's full
size exists and a blocked draw gives the values of one whole draw.
When every draw has a multiple of 4 units, the uniforms are those of
``Generator.integers(0, 2**16, dtype=np.uint16)``, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError

# 16-bit uniforms drawn and compared per block of a Gibbs half-sweep; a
# multiple of 4, so each block takes whole 64-bit words.
UNIFORM_BLOCK = 1 << 16
# 2**16 in float32: a sweep compares each 16-bit uniform with 2**16 p.
_SCALE = np.float32(1 << 16)


@dataclass
class RbmModel:
    """Parameters held in one float64 vector, updated in place during training.

    ``params`` is W row-major, then b, then c, the order of every
    statistic below.  Construction copies the three arrays into a new
    ``params``, and ``weights``, ``visible_bias`` and ``hidden_bias``
    become views of it, so a write through either name shows in the other.
    """

    weights: np.ndarray  # (n_hidden, m)
    visible_bias: np.ndarray  # (m,)
    hidden_bias: np.ndarray  # (n_hidden,)
    params: np.ndarray = field(init=False, repr=False)  # (n_hidden * m + m + n_hidden,)

    @property
    def m(self) -> int:
        return int(self.weights.shape[1])

    @property
    def n_hidden(self) -> int:
        return int(self.weights.shape[0])

    @property
    def n_params(self) -> int:
        return self.params.size

    def __post_init__(self):
        n, m = self.weights.shape
        if self.visible_bias.shape != (m,) or self.hidden_bias.shape != (n,):
            raise ValueError("bias shapes do not match the weight matrix")
        self.params = np.concatenate(
            [self.weights.ravel(), self.visible_bias, self.hidden_bias], dtype=np.float64
        )
        self.weights = self.params[: n * m].reshape(n, m)
        self.visible_bias = self.params[n * m : n * m + m]
        self.hidden_bias = self.params[n * m + m :]


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

    exp overflows to inf for large -x, which gives exactly 0; the overflow
    is expected and not warned about.
    """
    with np.errstate(over="ignore"):
        return _scaled_logistic_of_negated(np.negative(x, out=x), 1)


def _scaled_logistic_of_negated(t: np.ndarray, scale) -> np.ndarray:
    """scale / (1 + exp(t)), ``scale`` times the logistic of -t, in place, in t's dtype.

    For a power-of-two ``scale`` this is ``scale`` times the rounded
    logistic, bit for bit, wherever that logistic is a normal number.
    exp overflows to inf for large t, which gives exactly 0; the caller
    silences that overflow.
    """
    np.exp(t, out=t)
    t += 1
    return np.divide(scale, t, out=t)


def conditional_hidden(model: RbmModel, v: np.ndarray) -> np.ndarray:
    """p(h_i = 1 | v) for one record (1-D) or a stack (2-D)."""
    v = np.asarray(v, dtype=np.float64)
    return _logistic(model.hidden_bias + v @ model.weights.T)


def positive_statistics(model: RbmModel, records: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_b w_b (p(h|x_b) x_b', x_b, p(h|x_b)), in the order of RbmModel.params.

    Statistic differences are log-likelihood gradients.  The weighted sum
    is computed without the (B, P) matrix of per-record statistics.
    """
    x = np.asarray(records, dtype=np.float64)
    return _weighted_statistic(
        conditional_hidden(model, x), x, np.asarray(weights, dtype=np.float64)
    )


def _weighted_statistic(p_h: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_b w_b (p_b x_b', x_b, p_b), in the order of RbmModel.params."""
    return np.concatenate([((w[:, None] * p_h).T @ x).ravel(), w @ x, w @ p_h])


@dataclass(frozen=True, eq=False)
class FactoredGradients:
    """Per-example loss gradients N - pos(x_b) without the (B, P) matrix.

    Row b is the descent direction on the negative log-likelihood of
    x_b: weight block N_W - p_b x_b', visible block N_b - x_b and hidden
    block N_c - p_b.  ``norms`` and ``clipped_sum`` are the two
    operations DP-SGD needs.
    """

    hidden: np.ndarray  # (B, n) p(h | x_b)
    records: np.ndarray  # (B, m) float
    negative: np.ndarray  # (P,) shared negative statistic N

    def norms(self) -> np.ndarray:
        """Row L2 norms from the expanded square of each block, clamped at 0.

        ||N_W - p x'||^2 = ||p||^2 ||x||^2 - 2 p' N_W x + ||N_W||^2; the bias
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
        """sum_b scales_b * row_b = (sum s) N - (s o P)' X, flattened."""
        s = np.asarray(scales, dtype=np.float64)
        return s.sum() * self.negative - _weighted_statistic(self.hidden, self.records, s)


@dataclass
class PersistentChains:
    """Gibbs chain states plus their private random stream.

    Batch records never enter the states, and every gradient call
    advances them, an empty batch included, so the states depend only on
    the parameter history, the number of steps and the chain seed.
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


def _sample_below(rng: np.random.Generator, x: np.ndarray) -> None:
    """Replace ``x`` = 2**16 p by the 0/1 outcomes ``k < x``, in place.

    Each k is a 16-bit quarter of the stream's raw 64-bit words, in
    stream order, lowest quarter first, so P(1) = ceil(2**16 p) / 2**16.
    The words are drawn UNIFORM_BLOCK values at a time.
    """
    flat = x.reshape(-1)
    for start in range(0, flat.size, UNIFORM_BLOCK):
        part = flat[start : start + UNIFORM_BLOCK]
        words = rng.bit_generator.random_raw((part.size + 3) // 4).view(np.uint16)
        np.less(words[: part.size], part, out=part)


def _gibbs_sweeps(
    model: RbmModel, v: np.ndarray, sweeps: int, rng: np.random.Generator
) -> np.ndarray:
    """Block Gibbs in float32: h ~ p(h | v), then v ~ p(v | h), ``sweeps`` times.

    ``v`` is a (B, m) float32 array of 0/1 states, updated in place and
    returned.  The parameters are negated once, so each product gives
    the negated activation t, and 2**16 p is 2**16 / (1 + exp(t)) with
    no negation or scaling pass.
    NumericsError where an activation could overflow float32 and the
    chains would run on NaN: a hidden activation is at most
    sum_j |W_ij| + |c_i| in size and a visible one sum_i |W_ij| + |b_j|,
    and each of these must fit in float32.
    """
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise ValueError("Gibbs sampling needs a 64-bit bit generator, not MT19937")
    limit = np.finfo(np.float32).max
    # neg_w holds |W| in float32 for the check, then -W; a weight beyond
    # float32's range becomes infinite, and a sum beyond float64's too
    with np.errstate(over="ignore"):
        neg_w = np.abs(model.weights, dtype=np.float32)
        hidden = neg_w.sum(axis=1, dtype=np.float64) + np.abs(model.hidden_bias)
        visible = neg_w.sum(axis=0, dtype=np.float64) + np.abs(model.visible_bias)
    if not (hidden.max() <= limit and visible.max() <= limit):  # NaN fails too
        raise NumericsError("an RBM activation can lie outside float32's range, where sampling runs")
    np.negative(model.weights, out=neg_w, casting="same_kind")
    neg_b = np.negative(model.visible_bias, dtype=np.float32)
    neg_c = np.negative(model.hidden_bias, dtype=np.float32)
    h = np.empty((v.shape[0], neg_c.size), dtype=np.float32)
    # exp overflows to inf for a large negated activation, which gives p = 0
    with np.errstate(over="ignore"):
        for _ in range(sweeps):
            np.matmul(v, neg_w.T, out=h)
            h += neg_c
            _sample_below(rng, _scaled_logistic_of_negated(h, _SCALE))
            np.matmul(h, neg_w, out=v)
            v += neg_b
            _sample_below(rng, _scaled_logistic_of_negated(v, _SCALE))
    return v


def advance_chains(model: RbmModel, chains: PersistentChains, sweeps: int) -> None:
    """Run block Gibbs on every chain, in place."""
    v = chains.states.astype(np.float32)
    chains.states = _gibbs_sweeps(model, v, sweeps, chains.rng).astype(np.uint8)


def negative_statistic(model: RbmModel, chains: PersistentChains) -> np.ndarray:
    """Model-side statistic: mean of positive_statistics over chain states."""
    count = len(chains)
    return positive_statistics(model, chains.states, np.full(count, 1.0 / count))


def pcd_per_example_gradients(
    model: RbmModel, batch, chains: PersistentChains, gibbs_steps: int = 1
) -> FactoredGradients:
    """Loss (negative log-likelihood) gradients, one row per record of ``batch``, factored.

    ``batch`` is a (B, m) record array.  Advances the persistent chains
    by ``gibbs_steps`` sweeps, then returns rows N - positive(x) with the
    shared negative statistic N as a FactoredGradients (no (B, P) matrix
    is built).  An empty batch gives zero rows, and still advances the chains.
    """
    x = np.asarray(batch, dtype=np.float64)
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
    v = rng.random((count, model.m), dtype=np.float32)
    np.less(v, np.float32(0.5), out=v)
    return _gibbs_sweeps(model, v, gibbs_steps, rng).astype(np.uint8)
