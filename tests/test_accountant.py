"""Moments accountant: closed forms, the series against oracles, composition, epsilon search."""
import math
import os
import re
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp, xlog1py, xlogy

from conftest import DenseGradients, step_config
from dpmix import accountant
from dpmix.accountant import (
    DEFAULT_LAMBDA_MAX,
    J1_GRID,
    PrivacyConfig,
    alpha_gaussian,
    alpha_kmeans,
    alpha_subsampled_gaussian,
    alpha_terms,
    epoch_iterations,
    epsilon_for_delta,
    epsilon_schedule,
    sgd_step_alpha,
)
from dpmix.cli import main
from dpmix.data import make_dataset
from dpmix.dpnorm import dp_norm
from dpmix.dpsgd import dp_sgd_step
from dpmix.errors import NumericsError
from dpmix.kmeans import dp_kernel_kmeans
from dpmix.rff import feature_map_from_seed

# Monte Carlo oracle for log max(E1, E2) at q=0.01, lam=8, sigma=4,
# computed from 4e7 direct draws per integral (seed 20250814) before the
# quadrature existed.  Standard error of the log is about 3.2e-6.
MC_ALPHA_Q001_L8_S4 = 0.00023191


def _cfg(**kw):
    base = dict(
        sigma_c=4.0,
        sigma_k=40.0,
        sigma_g=1.0,
        q=0.0017,
        t_kmeans=20,
        t_sgd=100,
        delta=1e-5,
    )
    base.update(kw)
    return PrivacyConfig(**base)


class TestGaussianClosedForm:
    def test_default_convention(self):
        assert alpha_gaussian(1, 1.0) == pytest.approx(0.5)
        assert alpha_gaussian(2, 2.0) == pytest.approx(0.375)

    def test_is_exact_log_mgf_of_noise_sqrt2_sigma(self):
        # the Gaussian privacy loss at sensitivity 1 and noise s has log-MGF
        # lam (lam + 1) / (2 s^2); k-means adds s = sqrt(2) sigma
        for lam in (1, 3, 9, 2.5):
            for sigma in (0.5, 2.0, 40.0):
                exact = lam * (lam + 1) / (2 * (math.sqrt(2) * sigma) ** 2)
                assert alpha_gaussian(lam, sigma) == pytest.approx(exact, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alpha_gaussian(1, 0.0)
        with pytest.raises(ValueError):
            alpha_gaussian(0, 1.0)


class TestSubsampledQuadrature:
    def test_q_zero_is_free(self):
        assert alpha_subsampled_gaussian(4, 1.0, 0.0) == 0.0

    def test_q_one_matches_shifted_gaussian_mgf(self):
        # With q = 1 both integrals reduce to the Gaussian log-MGF
        # lam * (lam + 1) / (2 sigma^2); spot value 2 * 3 / 2 = 3.
        assert alpha_subsampled_gaussian(2, 1.0, 1.0) == pytest.approx(3.0, abs=1e-3)
        for sigma in (0.5, 1.0, 2.0, 4.0):
            for lam in range(1, 17):
                want = lam * (lam + 1) / (2 * sigma**2)
                got = alpha_subsampled_gaussian(lam, sigma, 1.0)
                assert got == pytest.approx(want, abs=1e-3)

    def test_matches_monte_carlo_oracle(self):
        got = alpha_subsampled_gaussian(8, 4.0, 0.01)
        assert got == pytest.approx(MC_ALPHA_Q001_L8_S4, abs=2e-3)
        # and within 5 standard errors of the frozen mean
        assert got == pytest.approx(MC_ALPHA_Q001_L8_S4, abs=1.6e-5)

    def test_subsampling_never_hurts(self):
        for lam in (1, 4, 16):
            for sigma in (0.7, 2.0):
                for q in (0.001, 0.1, 0.6):
                    assert alpha_subsampled_gaussian(lam, sigma, q) <= (
                        alpha_subsampled_gaussian(lam, sigma, 1.0) + 1e-12
                    )

    def test_non_negative_and_monotone_in_lam(self):
        vals = [alpha_subsampled_gaussian(lam, 1.0, 0.01) for lam in range(1, 33)]
        assert all(v >= 0 for v in vals)
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_resolution_doubling_is_stable(self):
        # The series stops at the first term count whose tail bound is met;
        # a fixed 1024 terms, more than where it stops, must agree to far
        # better than 1e-6 relative.
        for lam, sigma, q in ((8, 4.0, 0.01), (31.58, 1.0, 0.0017), (640.0, 4.0, 0.0017)):
            a = alpha_subsampled_gaussian(lam, sigma, q)
            log_sum, _ = accountant._log_partial_sums(np.array([lam + 1.0]), sigma, q, 1024)
            b = max(float(log_sum[0]), 0.0)
            assert abs(a - b) <= 1e-6 * max(abs(a), 1e-9)

    def test_fractional_lambda_accepted(self):
        lo = alpha_subsampled_gaussian(3.0, 1.0, 0.05)
        mid = alpha_subsampled_gaussian(3.5, 1.0, 0.05)
        hi = alpha_subsampled_gaussian(4.0, 1.0, 0.05)
        assert lo <= mid <= hi

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alpha_subsampled_gaussian(1, -1.0, 0.5)
        with pytest.raises(ValueError):
            alpha_subsampled_gaussian(1, 1.0, 1.5)

    @pytest.mark.parametrize("lam,lowest", [(0.1, 0.1), (0.5, 0.5), (0.99, 0.99),
                                            ([3.0, 0.5], 0.5)])
    def test_orders_below_one_are_refused(self, lam, lowest):
        # below 1 the series' tail can shrink too slowly to meet its bound:
        # at sigma = 10, q = 0.5, lambda = 0.1 and 0.5 ran 1024 terms and
        # ended in NumericsError; the refusal names the lowest order
        with pytest.raises(ValueError, match=f"^lambda must be >= 1, got {lowest}$"):
            alpha_subsampled_gaussian(np.array(lam), 10.0, 0.5)
        assert alpha_subsampled_gaussian(1.0, 10.0, 0.5) > 0.0

    @pytest.mark.parametrize("lam,sigma", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
    ])
    def test_non_finite_order_or_noise_rejected_up_front(self, lam, sigma):
        # Before the check NaN ran all ten refinement levels (about 1 s)
        # and ended in NumericsError, and alpha_gaussian returned nan.
        refusal = ("sigma must be finite and > 0" if sigma != 1.0
                   else "lambda must be finite and positive")
        start = time.perf_counter()
        with pytest.raises(ValueError, match=refusal):
            alpha_subsampled_gaussian(lam, sigma, 0.01)
        with pytest.raises(ValueError, match=refusal):
            alpha_gaussian(lam, sigma)
        assert time.perf_counter() - start < 0.1


def _binomial_log_e2(lam: int, sigma: float, q: float) -> float:
    """Exact log E2 at integer lam (Mironov, Talwar & Zhang 2019):
    log sum_{k=0}^{lam+1} C(lam+1, k) (1-q)^(lam+1-k) q^k e^((k^2-k) / 2 sigma^2).
    """
    n = lam + 1
    k = np.arange(n + 1, dtype=np.float64)
    log_terms = (
        gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        + xlog1py(n - k, -q) + xlogy(k, q)
        + (k * k - k) / (2.0 * sigma**2)
    )
    return float(logsumexp(log_terms))


# The quadrature oracle: adaptive composite Simpson on log-space integrands,
# the accountant's method before the series.  Independent of the series.
_QUAD_START_INTERVALS = 2**12
_QUAD_MAX_INTERVALS = 2**22
_QUAD_RTOL = 1e-8
_QUAD_ATOL = 1e-12


def _logsumexp(a: np.ndarray, b: np.ndarray) -> float:
    """log(sum(b * exp(a))) for weights b > 0, equal to scipy.special.logsumexp(a, b=b).

    scipy's steps in scipy's order, with three temporaries where scipy
    builds about a dozen, which makes the oracle several times faster.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        at_max = a == a_max
        m = np.where(at_max, b, 0.0).sum()
        terms = a - a_max
        terms[at_max] = -np.inf
        np.exp(terms, out=terms)
        terms *= b
        s = terms.sum()
        out = np.log1p(s / m if s != 0 else s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log((b * np.exp(a)).sum())
    return float(out)


def _oracle_integrands(lam, sigma, q, n_intervals):
    """log of the E1 and E2 integrands on the n-interval grid, and the Simpson weights.

    E1 integrates mu0 * (mu0 / mu1)^lam, E2 integrates mu1 * (mu1 / mu0)^lam.
    The window widens with lam, because the E2 integrand peaks near x = lam + 1.
    """
    pad = max(20.0 * sigma, 20.0)
    lo = -(lam + pad)
    hi = 1.0 + lam + pad
    x = np.linspace(lo, hi, n_intervals + 1)
    step = (hi - lo) / n_intervals
    norm = -math.log(sigma * math.sqrt(2.0 * math.pi))
    log_g0 = -(x**2) / (2.0 * sigma**2) + norm
    log_g1 = -((x - 1.0) ** 2) / (2.0 * sigma**2) + norm
    log_q = math.log(q) if q > 0 else -math.inf
    log_1mq = math.log1p(-q) if q < 1 else -math.inf
    log_mu0 = log_g0
    log_mu1 = np.logaddexp(log_1mq + log_g0, log_q + log_g1)
    log_ratio = log_mu0 - log_mu1
    w = np.full(n_intervals + 1, 2.0)
    w[1::2] = 4.0
    w[0] = 1.0
    w[-1] = 1.0
    return log_mu0 + lam * log_ratio, log_mu1 - lam * log_ratio, w * (step / 3.0)


def _reference_log_e1_e2(lam, sigma, q, n_intervals):
    """Composite-Simpson estimates of log E1 and log E2 on one n-interval grid."""
    log_f1, log_f2, weights = _oracle_integrands(lam, sigma, q, n_intervals)
    return _logsumexp(log_f1, weights), _logsumexp(log_f2, weights)


@lru_cache(maxsize=None)
def _reference_log_moments(lam, sigma, q):
    """log E1 and log E2 from the grid that doubles until max(log E1, log E2) settles."""
    n = _QUAD_START_INTERVALS
    prev = None
    while n <= _QUAD_MAX_INTERVALS:
        moments = _reference_log_e1_e2(lam, sigma, q, n)
        value = max(moments)
        if prev is not None and abs(value - prev) <= _QUAD_RTOL * abs(value) + _QUAD_ATOL:
            return moments
        prev = value
        n *= 2
    raise NumericsError("no convergence")


def _reference_alpha(lam, sigma, q):
    return max(*_reference_log_moments(lam, sigma, q), 0.0)


def _split_orders(q, sigma_g):
    """(lam', sigma, q) of every order the split search asks for at one configuration."""
    return {
        (lam / j, sigma, q)
        for lam in range(1, DEFAULT_LAMBDA_MAX + 1)
        for j1 in J1_GRID
        for j, sigma in ((j1, 4.0), (1.0 - j1, sigma_g))
    }


def _plan_lattice_points():
    """The orders of the nine plan-lattice accountant runs and of criterion 9's run."""
    points = _split_orders(0.005, 1.0)
    for q in (0.001, 0.0017, 0.003):
        for sigma_g in (1.0, 2.0, 4.0):
            points |= _split_orders(q, sigma_g)
    return sorted(points)


def _series_by_point(points):
    """alpha_subsampled_gaussian at each (lam, sigma, q), one array call per (sigma, q)."""
    groups = {}
    for lam, sigma, q in points:
        groups.setdefault((sigma, q), []).append(lam)
    out = {}
    for (sigma, q), lams in groups.items():
        for lam, value in zip(lams, alpha_subsampled_gaussian(np.array(lams), sigma, q)):
            out[lam, sigma, q] = float(value)
    return out


def _assert_matches_oracle(points, atol=0.0):
    for point, got in _series_by_point(points).items():
        want = _reference_alpha(*point)
        assert abs(got - want) <= atol + 1e-8 * abs(want), (point, got, want)


class TestOneGridPerLevel:
    """The series against the quadrature oracle, which builds one grid per level."""

    def test_equals_reference_on_plan_lattice(self):
        points = _plan_lattice_points()
        assert len(points) > 3000
        _assert_matches_oracle(points)

    def test_equals_reference_on_test_grids(self):
        lams = [1.0, 3.5, 8.0, 31.58, 110.0, 640.0, *map(float, range(1, 33))]
        _assert_matches_oracle([
            (lam, sigma, q)
            for lam in lams
            for sigma in (0.8, 1.0, 2.0, 4.0, 8.0)
            for q in (0.001, 0.0017, 0.01, 0.1, 0.5, 0.6, 1.0)
        ], atol=1e-12)  # the oracle's own absolute tolerance, for alphas near 1e-8

    def test_e1_never_exceeds_e2_on_plan_lattice(self):
        # Mironov, Talwar & Zhang 2019: E2 >= E1 for the sampled Gaussian,
        # so the series computes E2 alone.
        for point, got in _series_by_point(_plan_lattice_points()).items():
            log_e1, _ = _reference_log_moments(*point)
            assert log_e1 <= got, (point, log_e1, got)


class TestLogSumExp:
    """The oracle's log-sum-exp against scipy.special.logsumexp, compared with ==."""

    def test_equals_scipy_on_quadrature_integrands(self):
        pairs = []
        for lam in (1.0, 8.0, 31.58, 110.0, 640.0):
            for sigma in (0.8, 1.0, 4.0):
                for q in (0.001, 0.0017, 0.01, 0.5, 1.0):
                    for n in (2**12, 2**13):
                        log_f1, log_f2, weights = _oracle_integrands(lam, sigma, q, n)
                        for a in (log_f1, log_f2):
                            pairs.append((_logsumexp(a, weights), float(logsumexp(a, b=weights))))
        assert len(pairs) == 2 * 5 * 3 * 5 * 2
        assert all(got == want for got, want in pairs)

    def test_non_finite_inputs(self):
        b = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 6.0
        for a in (np.full(5, -np.inf), np.array([0.0, 1.0, np.inf, 2.0, -3.0])):
            assert _logsumexp(a, b) == float(logsumexp(a, b=b))


class TestBinomialOracle:
    def test_quadrature_matches_binomial_expansion(self):
        # independent of the series: a finite sum over lgamma coefficients
        for q in (0.001, 0.0017, 0.01, 0.1, 0.5, 1.0):
            for sigma in (0.8, 1.0, 2.0, 4.0, 8.0):
                for lam in range(1, 33):
                    want = _binomial_log_e2(lam, sigma, q)
                    got = alpha_subsampled_gaussian(lam, sigma, q)
                    assert abs(got - want) <= 1e-12 + 1e-8 * abs(want), (lam, sigma, q)

    def test_near_integer_split_orders_match_binomial_expansion(self):
        # lam / j for j in J1_GRID and 1 - j lands on or next to an integer
        # (1 / 0.1 = 10.000000000000002); the series must not break there.
        inexact = 0
        for j1 in J1_GRID:
            for j in (j1, 1.0 - j1):
                for lam in range(1, DEFAULT_LAMBDA_MAX + 1):
                    order = lam / j
                    near = round(order)
                    if abs(order - near) > 1e-9:
                        continue
                    inexact += order != near
                    for sigma, q in ((4.0, 0.001), (1.0, 0.005), (2.0, 0.0017)):
                        want = _binomial_log_e2(near, sigma, q)
                        got = alpha_subsampled_gaussian(order, sigma, q)
                        assert abs(got - want) <= 1e-15 + 1e-10 * abs(want), (order, sigma, q)
        assert inexact >= 10


class TestSeries:
    def test_array_call_equals_one_call_per_order(self):
        orders = np.array(sorted({lam for lam, _, _ in _split_orders(0.005, 1.0)}))
        for sigma in (1.0, 4.0):
            batch = alpha_subsampled_gaussian(orders, sigma, 0.005)
            assert batch.shape == orders.shape
            singles = [alpha_subsampled_gaussian(lam, sigma, 0.005) for lam in orders]
            assert batch.tolist() == singles
            grid = alpha_subsampled_gaussian(orders[::-1].reshape(-1, 2), sigma, 0.005)
            assert grid.ravel().tolist() == singles[::-1]

    @pytest.mark.parametrize("lam,sigma,q,terms", [
        (19.5, 2.0, 0.1, 8), (8.0, 1.0, 0.05, 4),  # K <= a = lam + 1
        (3.5, 1.0, 0.5, 8), (1.1, 4.0, 0.5, 32),   # K > a: alternating tail
    ])
    def test_tail_bound_covers_what_the_first_terms_leave_out(self, lam, sigma, q, terms):
        a = np.array([lam + 1.0])
        log_sum, log_tail = accountant._log_partial_sums(a, sigma, q, terms)
        log_ref, _ = accountant._log_partial_sums(a, sigma, q, 1024)
        left_out = abs(math.expm1(log_ref[0] - log_sum[0]))
        assert 1e-9 < left_out <= math.exp(log_tail[0] - log_sum[0])

    def test_term_cap_that_cannot_meet_the_bound_raises(self, monkeypatch):
        monkeypatch.setattr(accountant, "_SERIES_TERMS", (2,))
        with pytest.raises(NumericsError, match="did not converge for lam=3.5, .* within 2 terms"):
            alpha_subsampled_gaussian(np.array([3.5, 8.0]), 1.0, 0.05)

    def test_sum_that_is_not_finite_raises(self, monkeypatch):
        monkeypatch.setattr(accountant, "_log_erfc", lambda x: np.full_like(x, np.nan))
        with pytest.raises(NumericsError, match="not finite and positive for lam=8.0"):
            alpha_subsampled_gaussian(8.0, 1.0, 0.05)

    def test_log_erfc_is_continuous_where_the_asymptotic_series_takes_over(self):
        edge = accountant._ERFC_ASYMPTOTIC_FROM
        x = np.array([edge, np.nextafter(edge, np.inf)])
        below, above = accountant._log_erfc(x)
        assert abs(above - below) <= 1e-12 * abs(below)
        assert accountant._log_erfc(np.array([0.0, -30.0])).tolist() == [0.0, math.log(2.0)]


class TestKmeansAlpha:
    def test_zero_iterations(self):
        assert alpha_kmeans(3, _cfg(t_kmeans=0)) == 0.0

    def test_clustering_charges_counts_and_sums_only(self):
        # the clip bound is public, so sigma_c is never charged
        cfg = _cfg(t_kmeans=20, sigma_k=40.0)
        assert alpha_kmeans(2, cfg) == pytest.approx(20 * 6 / 3200)
        assert alpha_kmeans(2, replace(cfg, sigma_c=1e-3)) == alpha_kmeans(2, cfg)

    def test_composition_is_exactly_linear(self):
        # each iteration adds the same charge
        one = alpha_kmeans(5, _cfg(t_kmeans=1))
        many = alpha_kmeans(5, _cfg(t_kmeans=17))
        assert many == pytest.approx(17 * one, rel=1e-15)

    @pytest.mark.parametrize("q,t_sgd,delta,want", [
        (0.0017, 20 * 589, 1e-5, (1.7616018098053687, 10)),
        (0.005, 2000, 1 / 20_000, (1.980523809022984, 8)),
    ], ids=["criterion-2", "criterion-9"])
    def test_acceptance_configurations(self, q, t_sgd, delta, want):
        cfg = _cfg(q=q, t_sgd=t_sgd, delta=delta)
        assert epsilon_for_delta(cfg) == pytest.approx(want, rel=1e-12)

    def test_array_call_equals_one_call_per_order(self):
        orders = np.array([1, 2, 3, 7.5, 32])
        for cfg in (_cfg(), _cfg(t_kmeans=0)):
            for alpha in (lambda lam: alpha_kmeans(lam, cfg),
                          lambda lam: alpha_gaussian(lam, cfg.sigma_k)):
                batch = alpha(orders)
                singles = [alpha(lam) for lam in orders]
                assert all(type(value) is float for value in singles)
                assert batch.shape == orders.shape and batch.tolist() == singles
                assert alpha(orders.reshape(1, -1)).ravel().tolist() == singles
                assert alpha(tuple(orders)).tolist() == singles


class TestSgdAlpha:
    def test_zero_iterations(self):
        cfg = _cfg(t_sgd=0)
        lams, kmeans, _ = alpha_terms(cfg)
        eps = min((a - math.log(cfg.delta)) / lam for lam, a in zip(lams, kmeans))
        assert epsilon_for_delta(cfg)[0] == eps

    def test_zero_q(self):
        assert sgd_step_alpha(3, _cfg(q=0.0, t_sgd=50)) == 0.0

    def test_first_minimiser_wins(self):
        # log(1) = 0, so epsilon is alpha / lam
        lams = (1, 2, 3)
        assert accountant._minimise_epsilon(lams, np.array([2.0, 4.0, 6.0]), 1.0) == (2.0, 1)
        assert accountant._minimise_epsilon(lams, np.array([3.0, 4.0, 6.0]), 1.0) == (2.0, 2)

    def test_grid_minimum_never_above_any_member(self):
        cfg = _cfg(t_sgd=1)
        members = [
            j1 * alpha_subsampled_gaussian(8 / j1, cfg.sigma_c, cfg.q)
            + (1.0 - j1) * alpha_subsampled_gaussian(8 / (1.0 - j1), cfg.sigma_g, cfg.q)
            for j1 in J1_GRID
        ]
        assert sgd_step_alpha(8, cfg) == min(members)


class TestEpsilonSearch:
    def test_pure_delta_term(self):
        # alpha identically zero: epsilon = -ln(delta) / lambda_max.
        cfg = _cfg(q=0.0, t_kmeans=0, t_sgd=0, delta=math.exp(-10), lambda_max=32)
        eps, lam = epsilon_for_delta(cfg)
        assert eps == pytest.approx(10 / 32)
        assert lam == 32

    def test_profile_matches_component_sums(self):
        cfg = _cfg(t_sgd=25)
        lams, kmeans, sgd_step = alpha_terms(cfg)
        assert lams == tuple(range(1, 33))
        for lam, a_kmeans, a_step in zip(lams, kmeans, sgd_step):
            assert a_kmeans == alpha_kmeans(lam, cfg)
            assert a_step == sgd_step_alpha(lam, cfg)

    def test_profile_finite_nonnegative_monotone(self):
        _, kmeans, sgd_step = alpha_terms(_cfg())
        vals = kmeans + 500 * sgd_step
        assert all(np.isfinite(v) and v >= 0 for v in vals)
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_more_iterations_cost_more(self):
        eps_small, _ = epsilon_for_delta(_cfg(t_sgd=100))
        eps_large, _ = epsilon_for_delta(_cfg(t_sgd=2000))
        assert eps_small < eps_large

    def test_schedule_matches_pointwise_evaluation(self):
        cfg = _cfg(t_sgd=0)
        rows = epsilon_schedule(cfg, (1, 3))
        per_epoch = epoch_iterations(cfg.q)
        for row in rows:
            assert row.t_sgd == row.epoch * per_epoch
            direct, lam = epsilon_for_delta(_cfg(t_sgd=row.t_sgd))
            assert row.epsilon == pytest.approx(direct, rel=1e-12)
            assert row.argmin_lambda == lam

    @pytest.mark.filterwarnings("error")  # and no numpy RuntimeWarning on the way
    def test_no_finite_epsilon_raises(self):
        # sigma_k**2 underflows to 0, so the k-means alpha is inf at every order
        cfg = _cfg(sigma_k=1e-200)
        with pytest.raises(NumericsError, match="^epsilon is not finite for this configuration$"):
            epsilon_for_delta(cfg)
        with pytest.raises(NumericsError, match="^epsilon is not finite for this configuration$"):
            epsilon_schedule(cfg, (1, 2))

    def test_epoch_iterations(self):
        assert epoch_iterations(0.0017) == 589
        assert epoch_iterations(1.0) == 1
        with pytest.raises(ValueError):
            epoch_iterations(0.0)


# A plan-lattice point and criterion 9's run (q = 100 / 20000, 2000 steps).
_PLAN_CFG = _cfg(q=0.0017, sigma_g=2.0, t_sgd=0)
_CRITERION_9_CFG = _cfg(q=0.005, sigma_g=1.0, t_sgd=2000, delta=1 / 20_000)


def _accountant_args(cfg, epochs):
    return [
        "accountant", "--q", repr(cfg.q), "--sigma-c", repr(cfg.sigma_c),
        "--sigma-k", repr(cfg.sigma_k), "--sigma-g", repr(cfg.sigma_g),
        "--t-kmeans", str(cfg.t_kmeans), "--delta", repr(cfg.delta), "--epochs", str(epochs),
    ]


class TestWorkerProcesses:
    """The accountant runs in one process and takes no --workers."""

    @pytest.mark.parametrize("cfg", [_PLAN_CFG, _CRITERION_9_CFG], ids=["plan", "criterion-9"])
    def test_repeated_runs_are_bitwise_equal(self, cfg, capsys):
        epochs = cfg.t_sgd // epoch_iterations(cfg.q) if cfg.t_sgd else 20
        outputs = []
        for _ in range(3):
            assert main(_accountant_args(cfg, epochs)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        if cfg is _CRITERION_9_CFG:
            eps, lam = epsilon_for_delta(cfg)
            assert outputs[0].splitlines()[-1] == f"{epochs},{cfg.t_sgd},{eps!r},{lam}"
            assert (round(eps, 6), lam) == (1.980524, 8)

    def test_refused_fork_computes_in_process(self, monkeypatch):
        want = alpha_terms(_PLAN_CFG)

        def refuse():
            raise AssertionError("the accountant forked")

        monkeypatch.setattr(os, "fork", refuse)
        got = alpha_terms(_PLAN_CFG)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes() and got[2].tobytes() == want[2].tobytes()

    def test_failure_names_the_same_order_on_every_run(self, monkeypatch, capsys):
        monkeypatch.setattr(accountant, "_SERIES_TERMS", (2,))
        errors = []
        for _ in range(3):
            assert main(_accountant_args(_PLAN_CFG, 1)) == 4
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == errors[2]
        assert errors[0].startswith("numerical error: subsampled-Gaussian series did not converge")

    def test_zero_workers_rejected(self, capsys):
        assert main(_accountant_args(_PLAN_CFG, 1) + ["--workers", "0"]) == 2
        assert capsys.readouterr().err == "usage error: unrecognized arguments: --workers 0\n"


def _release_at(sigma):
    return accountant.gaussian_release(np.ones(3), sigma, 1.0, np.random.default_rng(0))


def _vote_at(sigma):
    return dp_norm(np.ones(4), sigma, c_max=10.0, bins=10, rng=np.random.default_rng(0))


def _cluster_at(sigma):
    data = make_dataset(np.eye(4, dtype=np.uint8))
    fmap = feature_map_from_seed(m=4, d=6, gamma=1.0, seed=0)
    return dp_kernel_kmeans(data, fmap, 2, 1, sigma, np.random.default_rng(0),
                            init_rng=np.random.default_rng(1))


def _sgd_step_at(sigma):
    cfg = step_config(sigma_c=1.0, sigma_g=sigma, batch_size=4, eta=0.1)
    return dp_sgd_step(np.zeros(2), DenseGradients(np.ones((4, 2))), cfg,
                       np.random.default_rng(1))


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("run,name", [
    (_release_at, "sigma"),
    (_vote_at, "sigma"),
    (_cluster_at, "sigma"),
    (_sgd_step_at, "sigma_g"),
    (lambda sigma: _cfg(sigma_k=sigma), "sigma_k"),
])
def test_every_release_refuses_a_noise_scale_with_one_message(run, name, sigma):
    # no release goes out without noise, and the refusal reads the same everywhere
    message = f"{name} must be finite and > 0, got {sigma}; zero noise has no finite epsilon"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(sigma)


class TestPrivacyConfigValidation:
    @pytest.mark.parametrize("name", ["sigma_c", "sigma_k", "sigma_g"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_sigma(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            _cfg(**{name: value})

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            _cfg(sigma_g=0.0)
        with pytest.raises(ValueError):
            _cfg(q=1.5)
        with pytest.raises(ValueError):
            _cfg(delta=0.0)
        with pytest.raises(ValueError):
            _cfg(t_sgd=-1)
