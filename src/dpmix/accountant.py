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
where erfc underflows, from its asymptotic series.  Each order's sum is
a loop over its terms in the math module, the signed terms added by
math.fsum, so the accountant needs only the standard library.  Each
(order, sigma, q) is summed once per process and kept: at lambda_max 32
the split search asks for 640 orders of which 500 are distinct, and a
configuration asked for again costs under a millisecond.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ConfigError, NumericsError

if TYPE_CHECKING:
    import numpy as np

DEFAULT_LAMBDA_MAX = 32

# Weight splits (j1, 1 - j1) searched when two mechanisms observe the same
# batch inside one iteration.  Small j1 shifts budget toward the second
# mechanism; the lone 0.9 entry covers the opposite regime.
J1_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.90)

# The series' term counts, tried in turn, and its truncation tolerance.
_SERIES_TERMS = (32, 64, 128, 256, 512, 1024)
_SERIES_RTOL = 1e-10
_SERIES_ATOL = 1e-16
# math.erfc is accurate up to here and underflows just above 26.5.
_ERFC_ASYMPTOTIC_FROM = 26.0


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


def _check_order_and_noise(lam: float, sigma: float) -> None:
    check_noise_scale("sigma", sigma)
    if not 0 < lam < math.inf:  # NaN fails too
        raise ValueError(f"lambda must be finite and positive, got {lam}")


def gaussian_release(value: np.ndarray, sigma: float, sensitivity: float,
                     rng: np.random.Generator) -> np.ndarray:
    """``value`` plus Gaussian noise of standard deviation sqrt(2) * sigma * sensitivity.

    Every noisy release goes through here, and alpha_gaussian(lam, sigma)
    is its charge.  Adding or removing one record moves ``value`` by at
    most ``sensitivity`` in L2 norm.  The noise is then sqrt(2) * sigma
    per unit of sensitivity, and the Gaussian mechanism of scale s at
    sensitivity 1 has privacy-loss log-MGF lam (lam + 1) / (2 s^2), which
    is (lam^2 + lam) / (4 sigma^2) exactly.  ``value`` is an array; one
    ``rng.normal`` call draws noise of its shape.  No release goes out at
    a sigma that check_noise_scale refuses.
    """
    check_noise_scale("sigma", sigma)
    return value + rng.normal(0.0, math.sqrt(2.0) * sigma * sensitivity, size=value.shape)


def _over(numerator: float, denominator: float) -> float:
    """numerator / denominator, or inf where the denominator, a square, underflowed to 0."""
    return numerator / denominator if denominator else math.inf


def alpha_gaussian(lam: float, sigma: float) -> float:
    """(lam^2 + lam) / (4 sigma^2), the charge of gaussian_release at the order lam."""
    _check_order_and_noise(lam, sigma)
    return _over(lam * lam + lam, 4.0 * sigma**2)


def alpha_subsampled_gaussian(lam: float, sigma: float, q: float) -> float:
    """log max(E1, E2) for the Poisson-subsampled Gaussian mechanism at the order lam.

    ``lam`` need not be an integer.  log E2 comes from the fewest terms of
    _SERIES_TERMS that meet the tail bound.  ValueError for an order
    below 1, where the series' tail can shrink too slowly to meet its
    bound; NumericsError if the series does not converge.
    """
    _check_order_and_noise(lam, sigma)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    lam = float(lam)
    if lam < 1.0:
        raise ValueError(f"lambda must be >= 1, got {lam!r}")
    if q == 0.0:
        return 0.0
    if q == 1.0:  # the shifted Gaussian's log-MGF; z0 is infinite
        return _over(lam * (lam + 1.0), 2.0 * sigma**2)
    return _log_e2(lam, float(sigma), float(q))


@lru_cache(maxsize=1 << 14)
def _log_e2(lam: float, sigma: float, q: float) -> float:
    """max(log E2, 0) at the order lam for 0 < q < 1, by the series' term ladder;
    each (lam, sigma, q) is summed once per process (module docstring)."""
    for terms in _SERIES_TERMS:
        log_sum, log_tail = _log_partial_sums(lam + 1.0, sigma, q, terms)
        if not math.isfinite(log_sum):
            raise NumericsError(f"subsampled-Gaussian series is not finite and positive for "
                                f"lam={lam}, sigma={sigma}, q={q}")
        # a ratio above e^700 misses the bound, and math.exp overflows near 710
        gap = log_tail - log_sum
        if gap <= 700.0 and math.exp(gap) <= _SERIES_RTOL * log_sum + _SERIES_ATOL:
            return max(log_sum, 0.0)
    raise NumericsError(f"subsampled-Gaussian series did not converge for lam={lam}, "
                        f"sigma={sigma}, q={q} within {_SERIES_TERMS[-1]} terms")


def _log_partial_sums(a: float, sigma: float, q: float, terms: int) -> tuple[float, float]:
    """log S_K and log T_K at the order a = lam + 1, for K = terms (module docstring).

    log S_K is NaN where S_K is not finite and positive.
    """
    two_var = 2.0 * sigma**2
    if not two_var:  # sigma**2 underflows to 0: the terms are 0/0 and x/0
        return math.nan, math.nan
    log_q, log_1mq = math.log(q), math.log1p(-q)
    z0 = sigma**2 * (log_1mq - log_q) + 0.5
    scale = math.sqrt(2.0) * sigma
    floor = float(math.floor(a))
    log, exp, log_erfc, log_2 = math.log, math.exp, _log_erfc, math.log(2.0)
    log_c, sign = 0.0, 1.0
    log_ts, log_us, signs = [], [], []
    for i in range(terms + 1):
        if i:
            factor = (floor + 1.0 - i) + (a - floor)  # a - i + 1
            if factor:
                log_c += log(abs(factor)) - log(i)
                if factor < 0.0:
                    sign = -sign
            else:  # a = i - 1 is an integer: this and every later C(a, i) is 0
                log_c, sign = -math.inf, 0.0
        j = a - i
        log_ts.append(log_c + i * log_q + j * log_1mq + (i * i - i) / two_var
                      + log_erfc((i - z0) / scale) - log_2)
        log_us.append(log_c + j * log_q + i * log_1mq + (j * j - j) / two_var
                      + log_erfc((z0 - j) / scale) - log_2)
        signs.append(sign)
    log_next = _logaddexp(log_ts.pop(), log_us.pop())  # log(|t_K| + |u_K|)
    signs.pop()
    top = max(max(log_ts), max(log_us))
    total = math.fsum([s * exp(x - top) for s, x in zip(signs + signs, log_ts + log_us)])
    log_sum = math.log(total) + top if total > 0.0 else math.nan
    if terms > a:
        return log_sum, log_next
    log_bound = _logaddexp((floor + 1.0) * log_2, 0.0) - log_c
    return log_sum, log_next + log_bound


def _logaddexp(x: float, y: float) -> float:
    """log(e^x + e^y), -inf when both are."""
    top = max(x, y)
    if top == -math.inf:
        return top
    return top + math.log1p(math.exp(-abs(x - y)))


def _log_erfc(x: float) -> float:
    """log erfc(x) by math.erfc, and by its asymptotic series where erfc underflows."""
    if x <= _ERFC_ASYMPTOTIC_FROM:
        return math.log(math.erfc(x))
    u = 0.5 / (x * x)
    # erfc(x) = exp(-x^2) / (x sqrt(pi)) * (1 - u + 3u^2 - 15u^3 + 105u^4 - ...)
    return (math.log(1.0 - u * (1.0 - 3.0 * u * (1.0 - 5.0 * u * (1.0 - 7.0 * u))))
            - x * x - math.log(x * math.sqrt(math.pi)))


def alpha_kmeans(lam: float, cfg: PrivacyConfig) -> float:
    """Total clustering log-MGF after t_kmeans noisy iterations, at the order lam.

    Each iteration releases the k noisy cluster sizes (gaussian_release
    at sigma_k, sensitivity 1) and the k noisy feature sums (sigma_k,
    sensitivity C_s).  One record moves one size by 1 and one sum by at
    most C_s, so each of the two sets is one release, charged
    alpha_gaussian(lam, sigma_k).  C_s is a public constant, so nothing
    else is charged.
    """
    return cfg.t_kmeans * (2.0 * alpha_gaussian(lam, cfg.sigma_k))


def sgd_step_alpha(lam: float, cfg: PrivacyConfig) -> float:
    """Per-iteration SGD log-MGF at the order lam, minimised over budget splits.

    One iteration runs two subsampled mechanisms on the same batch:
    threshold selection at scale sigma_c and the noisy gradient at scale
    sigma_g.  Their joint moment is bounded by
    j1 * alpha(lam / j1, sigma_c) + j2 * alpha(lam / j2, sigma_g) for any
    split j1 + j2 = 1, and the splits (j1, 1 - j1) of J1_GRID are searched
    for the tightest.
    """
    return min(
        j1 * alpha_subsampled_gaussian(lam / j1, cfg.sigma_c, cfg.q)
        + (1.0 - j1) * alpha_subsampled_gaussian(lam / (1.0 - j1), cfg.sigma_g, cfg.q)
        for j1 in J1_GRID
    )


def alpha_terms(cfg: PrivacyConfig) -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    """The integer orders 1..lambda_max, the k-means alpha and the per-step SGD alpha at each.

    The total log-MGF after t SGD steps is ``kmeans + t * sgd_step`` at
    each order; epsilon_for_delta, epsilon_schedule and the accountant
    report all read it from these two tuples.  cfg.t_sgd is not used.
    """
    lams = tuple(range(1, cfg.lambda_max + 1))
    return (lams, tuple(alpha_kmeans(lam, cfg) for lam in lams),
            tuple(sgd_step_alpha(lam, cfg) for lam in lams))


def total_alpha(terms, t_sgd: int) -> list[float]:
    """The total log-MGF at each order of ``terms`` (alpha_terms) after t_sgd SGD steps."""
    _, kmeans, sgd_step = terms
    return [a_kmeans + t_sgd * a_step for a_kmeans, a_step in zip(kmeans, sgd_step)]


def _minimise_epsilon(
    lambdas: Sequence[int], alphas: Sequence[float], delta: float
) -> tuple[float, int]:
    """The least (alpha - log delta) / lam and its order; the first minimiser wins.

    NumericsError if that epsilon is not finite.
    """
    log_delta = math.log(delta)
    eps = [(alpha - log_delta) / lam for lam, alpha in zip(lambdas, alphas)]
    best = min(range(len(eps)), key=eps.__getitem__)
    if not math.isfinite(eps[best]):
        raise NumericsError("epsilon is not finite for this configuration")
    return float(eps[best]), int(lambdas[best])


def epsilon_for_delta(cfg: PrivacyConfig) -> tuple[float, int]:
    """Tightest (epsilon, argmin lambda) for the configured run."""
    terms = alpha_terms(cfg)
    return _minimise_epsilon(terms[0], total_alpha(terms, cfg.t_sgd), cfg.delta)


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


def epsilon_schedule(cfg: PrivacyConfig, epochs: Iterable[int]) -> list[EpochEpsilon]:
    """Epsilon after each epoch count; cfg.t_sgd is ignored.

    The per-iteration SGD alpha does not depend on the iteration count,
    so the whole schedule costs one alpha_terms call.
    """
    terms = alpha_terms(cfg)
    per_epoch = epoch_iterations(cfg.q)
    out = []
    for e in epochs:
        if e < 0:
            raise ValueError("epoch counts must be non-negative")
        t_sgd = e * per_epoch
        eps, lam = _minimise_epsilon(terms[0], total_alpha(terms, t_sgd), cfg.delta)
        out.append(EpochEpsilon(epoch=e, t_sgd=t_sgd, epsilon=eps, argmin_lambda=lam))
    return out
