"""Moments accountant for Gaussian and subsampled-Gaussian mechanisms.

Tracks alpha(lam) = log E[exp(lam * privacy_loss)] per mechanism,
composes across iterations additively, and converts the composite to an
(epsilon, delta) guarantee via the Chernoff bound

    epsilon = min over integer lam in [1, lambda_max] of
              (alpha_total(lam) - log(delta)) / lam.

Neighbouring datasets differ by adding or removing one record, which is
the adjacency the subsampled analysis assumes and the one every term is
charged under.  Every noisy release goes through gaussian_release, whose
docstring says why alpha_gaussian is its exact charge.

For the Poisson-subsampled Gaussian, mu0 = N(0, sigma^2) and mu1 = (1 - q)
mu0 + q N(1, sigma^2); alpha(lam) is log max(E1, E2) with E1 = E_mu0[(mu0 /
mu1)^lam] and E2 = E_mu1[(mu1 / mu0)^lam].  Mironov, Talwar and Zhang,
"Renyi Differential Privacy of the Sampled Gaussian Mechanism" (2019),
prove that for this mechanism the divergence of mu1 from mu0 is at least
the divergence in the other direction, that is E2 >= E1, so alpha(lam) =
log E2 (the tests check it against a quadrature of both, at every order
of acceptance criteria 3 and 9).  Their section 3.3 gives an exact series
for E2 = A_a at any real order a = lam + 1.  Split the integral at z0 =
sigma^2 log((1 - q) / q) + 1/2, where the two components of mu1 are equal,
and expand each side binomially:

    A_a = sum over i >= 0 of t_i + u_i,
    t_i = C(a, i) q^i (1 - q)^(a-i) exp((i^2 - i) / (2 sigma^2)) Phi((z0 - i) / sigma),
    u_i = C(a, i) q^(a-i) (1 - q)^i exp((j^2 - j) / (2 sigma^2)) Phi((j - z0) / sigma),

with j = a - i.  For integer a the terms past i = a vanish and the sum
is the binomial expansion.  Written with the Mills ratio R(x) = Phi(-x) /
phi(x), |t_i| = |C(a, i)| (1 - q)^a c R((i - z0) / sigma) and |u_i| =
|C(a, i)| (1 - q)^a c R((z0 - a + i) / sigma), for c = exp(-z0^2 / (2
sigma^2)) / sqrt(2 pi); R decreases, so both factors shrink as i grows.
That bounds what the first K terms of the two sums leave out:

  - for K > a, C(a, i) alternates in sign from i = K on and |C(a, i)|
    shrinks, so the rest of each sum is at most its first omitted term,
    and the tail is T_K <= |t_K| + |u_K|;
  - for K <= a, T_K <= (|t_K| + |u_K|) * B / |C(a, K)|, with
    B = 2^(floor(a) + 1) + 1 >= the sum over i of |C(a, i)|.

The series takes K = 32 terms, then 64, and so on up to 1024, until the
partial sum S_K meets T_K / S_K <= 1e-10 log S_K + 1e-16, which keeps the
truncation's error in alpha below 1e-10 relative.  Of the 3518 orders of
criteria 3 and 9, all but 7 take 32 terms and none more than 64.  A sum
that does not meet the bound within 1024 terms, or is not finite and
positive, raises NumericsError.  log |C(a, i)| is a running sum and its
sign a running product, both over the factors (a - m + 1) / m, with
a - m + 1 built as (floor(a) - m + 1) + (a - floor(a)): that stays exact
at near-integer orders such as 1 / 0.1 + 1 = 11.000000000000002, where
lgamma of a - m + 1 would fail.  Phi comes from math.erfc; above 26,
where erfc underflows, from its asymptotic series.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, NumericsError

DEFAULT_LAMBDA_MAX = 32

# Weight splits (j1, 1 - j1) searched when two mechanisms observe the same
# batch inside one iteration.  Small j1 shifts budget toward the second
# mechanism; the lone 0.9 entry covers the opposite regime.
J1_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.90)

# The series' term counts, tried in turn, and its truncation tolerance.
_SERIES_TERMS = (32, 64, 128, 256, 512, 1024)
_SERIES_RTOL = 1e-10
_SERIES_ATOL = 1e-16
_SERIES_BLOCK = 64  # orders per array pass
# math.erfc is accurate up to here and underflows just above 26.5.
_ERFC_ASYMPTOTIC_FROM = 26.0
_erfc = np.frompyfunc(math.erfc, 1, 1)


def check_noise_scale(name: str, sigma: float) -> None:
    """The rule for every noise scale: finite and > 0 (ConfigError naming ``name``
    otherwise), with a square that does not overflow (NumericsError otherwise)."""
    if not 0 < sigma < math.inf:  # NaN fails too
        raise ConfigError(f"{name} must be finite and > 0, got {sigma}; zero noise has no"
                          " finite epsilon")
    if sigma * sigma == math.inf:  # every charge divides by sigma^2
        raise NumericsError(f"{name} = {sigma!r} is too large: its square overflows")


@dataclass(frozen=True)
class PrivacyConfig:
    """Noise scales and iteration counts of one full training run.

    Noise scales are multipliers on sensitivity: a mechanism with L2
    sensitivity s adds Gaussian noise of standard deviation s * sigma.
    ``q`` is the per-record batch inclusion probability of one SGD
    iteration.  ``sigma_c`` is the noise of DP-SGD's clip-bound vote;
    clustering clips at a public bound and votes on nothing.
    """

    sigma_c: float
    sigma_k: float
    sigma_g: float
    q: float
    t_kmeans: int
    t_sgd: int
    delta: float
    lambda_max: int = DEFAULT_LAMBDA_MAX

    def __post_init__(self):
        for name in ("sigma_c", "sigma_k", "sigma_g"):
            check_noise_scale(name, getattr(self, name))
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {self.q}")
        if self.t_kmeans < 0 or self.t_sgd < 0:
            raise ValueError("iteration counts must be non-negative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.lambda_max < 1:
            raise ValueError("lambda_max must be >= 1")


def _check_order_and_noise(lam, sigma: float) -> None:
    check_noise_scale("sigma", sigma)
    lam = np.asarray(lam)  # NaN fails the comparisons below too
    if lam.size and not 0 < lam.min() <= lam.max() < math.inf:
        raise ValueError(f"lambda must be finite and positive, got {lam}")


def gaussian_release(value, sigma: float, sensitivity: float, rng: np.random.Generator):
    """``value`` plus Gaussian noise of standard deviation sqrt(2) * sigma * sensitivity.

    Every noisy release goes through here, and alpha_gaussian(lam, sigma)
    is its charge.  Adding or removing one record moves ``value`` by at
    most ``sensitivity`` in L2 norm.  The noise is then sqrt(2) * sigma
    per unit of sensitivity, and the Gaussian mechanism of scale s at
    sensitivity 1 has privacy-loss log-MGF lam (lam + 1) / (2 s^2), which
    is (lam^2 + lam) / (4 sigma^2) exactly.  ``value`` is a scalar or an
    array; one ``rng.normal`` call draws noise of its shape.  No release
    goes out at a sigma that check_noise_scale refuses.
    """
    check_noise_scale("sigma", sigma)
    return value + rng.normal(0.0, math.sqrt(2.0) * sigma * sensitivity, size=np.shape(value))


def alpha_gaussian(lam, sigma: float):
    """(lam^2 + lam) / (4 sigma^2), the charge of gaussian_release, at one order or an array."""
    _check_order_and_noise(lam, sigma)
    lams = np.array(lam, dtype=np.float64)
    with np.errstate(divide="ignore"):  # sigma**2 underflows to 0: alpha is inf
        out = (lams**2 + lams) / (4.0 * sigma**2)
    return float(out) if out.ndim == 0 else out


def alpha_subsampled_gaussian(lam, sigma: float, q: float):
    """log max(E1, E2) for the Poisson-subsampled Gaussian mechanism.

    ``lam`` is one order or an array of them, not necessarily integers;
    the result is a float or an array of the same shape.  Each order's
    value depends on that order alone, not on the others in the array.
    ValueError for an order below 1, where the series' tail can shrink
    too slowly to meet its bound; NumericsError if the series does not
    converge.
    """
    _check_order_and_noise(lam, sigma)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    lams = np.array(lam, dtype=np.float64)
    if lams.size and lams.min() < 1.0:
        raise ValueError(f"lambda must be >= 1, got {float(lams.min())!r}")
    if q == 0.0:
        out = np.zeros_like(lams)
    elif q == 1.0:  # the shifted Gaussian's log-MGF; z0 is infinite
        out = lams * (lams + 1.0) / (2.0 * sigma**2)
    else:
        out = np.maximum(_log_e2_series(lams.ravel(), sigma, q), 0.0).reshape(lams.shape)
    return float(out) if out.ndim == 0 else out


def _log_e2_series(lams: np.ndarray, sigma: float, q: float) -> np.ndarray:
    """log E2 at each order, from the fewest terms of _SERIES_TERMS that meet the tail bound.

    The orders go _SERIES_BLOCK at a time, which bounds the temporaries.
    """
    out = np.empty_like(lams)
    for start in range(0, lams.size, _SERIES_BLOCK):
        pending = np.arange(start, min(start + _SERIES_BLOCK, lams.size))
        for terms in _SERIES_TERMS:
            log_sum, log_tail = _log_partial_sums(lams[pending] + 1.0, sigma, q, terms)
            bad = ~np.isfinite(log_sum)
            if bad.any():
                raise NumericsError(
                    f"subsampled-Gaussian series is not finite and positive for "
                    f"lam={lams[pending][bad][0]}, sigma={sigma}, q={q}"
                )
            done = np.exp(log_tail - log_sum) <= _SERIES_RTOL * log_sum + _SERIES_ATOL
            out[pending[done]] = log_sum[done]
            pending = pending[~done]
            if not pending.size:
                break
        else:
            raise NumericsError(
                f"subsampled-Gaussian series did not converge for lam={lams[pending[0]]}, "
                f"sigma={sigma}, q={q} within {_SERIES_TERMS[-1]} terms"
            )
    return out


def _log_partial_sums(
    a: np.ndarray, sigma: float, q: float, terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """log S_K and log T_K at each order a = lam + 1, for K = terms (module docstring)."""
    a = a[:, None]
    floor = np.floor(a)
    i = np.arange(terms + 1.0)
    factors = (floor + 1.0 - i[1:]) + (a - floor)  # a - i + 1, for i = 1..K
    log_c = np.zeros((a.size, terms + 1))
    sign = np.ones_like(log_c)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.cumsum(np.log(np.abs(factors)) - np.log(i[1:]), axis=1, out=log_c[:, 1:])
        np.cumprod(np.sign(factors), axis=1, out=sign[:, 1:])
        z0 = sigma**2 * (math.log1p(-q) - math.log(q)) + 0.5
        j = a - i
        scale = math.sqrt(2.0) * sigma
        log_t = (log_c + i * math.log(q) + j * math.log1p(-q) + (i * i - i) / (2.0 * sigma**2)
                 + _log_erfc((i - z0) / scale) - math.log(2.0))
        log_u = (log_c + j * math.log(q) + i * math.log1p(-q) + (j * j - j) / (2.0 * sigma**2)
                 + _log_erfc((z0 - j) / scale) - math.log(2.0))
        head = np.concatenate((log_t[:, :-1], log_u[:, :-1]), axis=1)
        top = head.max(axis=1)
        total = (np.tile(sign[:, :-1], 2) * np.exp(head - top[:, None])).sum(axis=1)
        log_sum = np.log(total) + top
        log_next = np.logaddexp(log_t[:, -1], log_u[:, -1])  # log(|t_K| + |u_K|)
        log_bound = np.logaddexp((floor[:, 0] + 1.0) * math.log(2.0), 0.0) - log_c[:, -1]
        log_tail = np.where(terms > a[:, 0], log_next, log_next + log_bound)
    return log_sum, log_tail


def _log_erfc(x: np.ndarray) -> np.ndarray:
    """log erfc(x) by math.erfc, and by its asymptotic series where erfc underflows."""
    out = np.empty_like(x)
    near = x <= _ERFC_ASYMPTOTIC_FROM
    out[near] = np.log(_erfc(x[near]).astype(np.float64))
    far = x[~near]
    u = 0.5 / (far * far)
    # erfc(x) = exp(-x^2) / (x sqrt(pi)) * (1 - u + 3u^2 - 15u^3 + 105u^4 - ...)
    out[~near] = (np.log(1.0 - u * (1.0 - 3.0 * u * (1.0 - 5.0 * u * (1.0 - 7.0 * u))))
                  - far * far - np.log(far * math.sqrt(math.pi)))
    return out


def alpha_kmeans(lam, cfg: PrivacyConfig):
    """Total clustering log-MGF after t_kmeans noisy iterations; ``lam`` as for alpha_gaussian.

    Each iteration releases the k noisy cluster sizes (gaussian_release
    at sigma_k, sensitivity 1) and the k noisy feature sums (sigma_k,
    sensitivity C_s).  One record moves one size by 1 and one sum by at
    most C_s, so each of the two sets is one release, charged
    alpha_gaussian(lam, sigma_k).  C_s is a public constant, so nothing
    else is charged.
    """
    return cfg.t_kmeans * (2.0 * alpha_gaussian(lam, cfg.sigma_k))


def sgd_step_alpha(lam, cfg: PrivacyConfig):
    """Per-iteration SGD log-MGF, minimised over budget splits.

    One iteration runs two subsampled mechanisms on the same batch:
    threshold selection at scale sigma_c and the noisy gradient at scale
    sigma_g.  Their joint moment is bounded by
    j1 * alpha(lam / j1, sigma_c) + j2 * alpha(lam / j2, sigma_g) for any
    split j1 + j2 = 1, and the splits (j1, 1 - j1) of J1_GRID are searched
    for the tightest.  ``lam`` is one order or an array of them; the
    search over every order is one array call per noise scale.
    """
    j1 = np.array(J1_GRID)
    j2 = 1.0 - j1
    orders = np.array(lam, dtype=np.float64)[..., None]
    split = j1 * alpha_subsampled_gaussian(orders / j1, cfg.sigma_c, cfg.q)
    split += j2 * alpha_subsampled_gaussian(orders / j2, cfg.sigma_g, cfg.q)
    best = split.min(axis=-1)
    return float(best) if best.ndim == 0 else best


def alpha_terms(cfg: PrivacyConfig) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The integer orders 1..lambda_max, the k-means alpha and the per-step SGD alpha at each.

    The total log-MGF after t SGD steps is ``kmeans + t * sgd_step``;
    epsilon_for_delta, epsilon_schedule and the accountant report all
    read it from these two arrays.  cfg.t_sgd is not used.
    """
    lams = tuple(range(1, cfg.lambda_max + 1))
    return lams, alpha_kmeans(lams, cfg), sgd_step_alpha(lams, cfg)


def _minimise_epsilon(
    lambdas: Sequence[int], alphas: np.ndarray, delta: float
) -> tuple[float, int]:
    """The least (alpha - log delta) / lam and its order; the first minimiser wins.

    NumericsError if that epsilon is not finite.
    """
    eps = (alphas - math.log(delta)) / np.asarray(lambdas)
    best = int(np.argmin(eps))
    if not math.isfinite(eps[best]):
        raise NumericsError("epsilon is not finite for this configuration")
    return float(eps[best]), int(lambdas[best])


def epsilon_for_delta(cfg: PrivacyConfig) -> tuple[float, int]:
    """Tightest (epsilon, argmin lambda) for the configured run."""
    lams, kmeans, sgd_step = alpha_terms(cfg)
    return _minimise_epsilon(lams, kmeans + cfg.t_sgd * sgd_step, cfg.delta)


def epoch_iterations(q: float) -> int:
    """Iterations per epoch: ceil(1/q), so one epoch touches each record once in expectation."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    if 1.0 / q == math.inf:
        raise NumericsError(f"q = {q!r} is too small: 1/q overflows")
    return math.ceil(1.0 / q)


@dataclass(frozen=True)
class EpochEpsilon:
    epoch: int
    t_sgd: int
    epsilon: float
    argmin_lambda: int


def epsilon_schedule(cfg: PrivacyConfig, epochs: Iterable[int], terms=None) -> list[EpochEpsilon]:
    """Epsilon after each epoch count; cfg.t_sgd is ignored.

    The per-iteration SGD alpha does not depend on the iteration count,
    so the whole schedule costs one alpha_terms call.  A caller that
    already holds alpha_terms(cfg) passes it as ``terms`` and pays none.
    """
    lams, kmeans, sgd_step = terms if terms is not None else alpha_terms(cfg)
    per_epoch = epoch_iterations(cfg.q)
    out = []
    for e in epochs:
        if e < 0:
            raise ValueError("epoch counts must be non-negative")
        t_sgd = e * per_epoch
        eps, lam = _minimise_epsilon(lams, kmeans + t_sgd * sgd_step, cfg.delta)
        out.append(EpochEpsilon(epoch=e, t_sgd=t_sgd, epsilon=eps, argmin_lambda=lam))
    return out
