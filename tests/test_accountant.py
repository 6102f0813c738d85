"""Moments accountant: closed forms, quadrature, composition, epsilon search."""
import math
import os
import time

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp, xlog1py, xlogy

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
from dpmix.errors import NumericsError

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

    def test_strict_is_exact_log_mgf(self):
        assert alpha_gaussian(1, 1.0, strict=True) == pytest.approx(1.0)
        for lam in (1, 3, 9):
            for sigma in (0.5, 2.0):
                assert alpha_gaussian(lam, sigma, strict=True) == pytest.approx(
                    2 * alpha_gaussian(lam, sigma)
                )

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
        # The adaptive rule converges at 1e-8 relative; one fixed grid of
        # 2^16 intervals, finer than where it stops, must agree to far
        # better than 1e-6 relative.
        for lam, sigma, q in ((8, 4.0, 0.01), (31.58, 1.0, 0.0017), (640.0, 4.0, 0.0017)):
            a = alpha_subsampled_gaussian(lam, sigma, q)
            b = max(*_log_e1_e2(lam, sigma, q, 2**16), 0.0)
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

    @pytest.mark.parametrize("lam,sigma", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
    ])
    def test_non_finite_order_or_noise_rejected_up_front(self, lam, sigma):
        # Before the check NaN ran all ten refinement levels (about 1 s)
        # and ended in NumericsError, and alpha_gaussian returned nan.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="must be finite and positive"):
            alpha_subsampled_gaussian(lam, sigma, 0.01)
        with pytest.raises(ValueError, match="must be finite and positive"):
            alpha_gaussian(lam, sigma)
        assert time.perf_counter() - start < 0.1


def _log_e1_e2(lam, sigma, q, n_intervals):
    """Composite-Simpson estimates of log E1 and log E2 on the n-interval grid."""
    return accountant._log_simpson(*accountant._log_integrands(lam, sigma, q, n_intervals))


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


class TestLogSumExp:
    """The private log-sum-exp against scipy.special.logsumexp, compared with ==."""

    def test_equals_scipy_on_quadrature_integrands(self, monkeypatch):
        own = accountant._logsumexp
        pairs = []

        def both(a, b):
            pairs.append((own(a, b), float(logsumexp(a, b=b))))
            return pairs[-1][0]

        monkeypatch.setattr(accountant, "_logsumexp", both)
        for lam in (1.0, 8.0, 31.58, 110.0, 640.0):
            for sigma in (0.8, 1.0, 4.0):
                for q in (0.001, 0.0017, 0.01, 0.5, 1.0):
                    for n in (2**12, 2**13):
                        _log_e1_e2(lam, sigma, q, n)
        assert len(pairs) == 2 * 5 * 3 * 5 * 2
        assert all(got == want for got, want in pairs)

    def test_non_finite_inputs(self):
        b = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 6.0
        for a in (np.full(5, -np.inf), np.array([0.0, 1.0, np.inf, 2.0, -3.0])):
            assert accountant._logsumexp(a, b) == float(logsumexp(a, b=b))


def _reference_log_e1_e2(lam, sigma, q, n_intervals):
    """The quadrature as it was before one grid served two levels: one grid per level."""
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
    weights = w * (step / 3.0)
    log_e1 = accountant._logsumexp(log_mu0 + lam * log_ratio, weights)
    log_e2 = accountant._logsumexp(log_mu1 - lam * log_ratio, weights)
    return log_e1, log_e2


def _reference_alpha(lam, sigma, q):
    """The two-level doubling loop on separately built grids, reading the module's tolerances."""
    n = accountant._QUAD_START_INTERVALS
    prev = None
    while n <= accountant._QUAD_MAX_INTERVALS:
        value = max(_reference_log_e1_e2(lam, sigma, q, n))
        if prev is not None and (
            abs(value - prev) <= accountant._QUAD_RTOL * abs(value) + accountant._QUAD_ATOL
        ):
            return max(value, 0.0)
        prev = value
        n *= 2
    raise NumericsError("no convergence")


def _plan_lattice_points():
    """(lam', sigma, q) of every quadrature the nine plan-lattice accountant runs make."""
    points = set()
    for q in (0.001, 0.0017, 0.003):
        for sigma_g in (1.0, 2.0, 4.0):
            for lam in range(1, DEFAULT_LAMBDA_MAX + 1):
                for j1 in J1_GRID:
                    points.add((lam / j1, 4.0, q))
                    points.add((lam / (1.0 - j1), sigma_g, q))
    return sorted(points)


@pytest.fixture
def empty_quadrature_cache():
    accountant._QUADRATURE_CACHE.clear()
    yield
    accountant._QUADRATURE_CACHE.clear()


class TestOneGridPerLevel:
    """The fine-grid quadrature against a copy of the grid-per-level loop, compared with ==."""

    def test_equals_reference_on_plan_lattice(self, empty_quadrature_cache):
        points = _plan_lattice_points()
        assert len(points) > 1000
        for point in points:
            assert alpha_subsampled_gaussian(*point) == _reference_alpha(*point), point

    def test_equals_reference_on_test_grids(self, empty_quadrature_cache):
        lams = [1.0, 3.5, 8.0, 31.58, 110.0, 640.0, *map(float, range(1, 33))]
        for lam in lams:
            for sigma in (0.8, 1.0, 2.0, 4.0, 8.0):
                for q in (0.001, 0.0017, 0.01, 0.1, 0.5, 0.6, 1.0):
                    want = _reference_alpha(lam, sigma, q)
                    assert alpha_subsampled_gaussian(lam, sigma, q) == want, (lam, sigma, q)

    @pytest.mark.parametrize("max_intervals", [2**13, 2**16])
    def test_deeper_levels_and_failure_match_reference(
        self, monkeypatch, empty_quadrature_cache, max_intervals
    ):
        # With zero tolerance a level passes only when its two estimates are
        # equal: within 2^16 intervals these points stop at the second,
        # third or fourth grid, and within 2^13 some never stop.
        monkeypatch.setattr(accountant, "_QUAD_RTOL", 0.0)
        monkeypatch.setattr(accountant, "_QUAD_ATOL", 0.0)
        monkeypatch.setattr(accountant, "_QUAD_MAX_INTERVALS", max_intervals)
        outcomes = set()
        for point in ((1.0, 0.8, 0.5), (8.0, 1.0, 0.01), (31.58, 1.0, 0.0017),
                      (640.0, 4.0, 0.0017), (3.5, 2.0, 0.1)):
            try:
                want = _reference_alpha(*point)
            except NumericsError:
                with pytest.raises(NumericsError):
                    alpha_subsampled_gaussian(*point)
                outcomes.add("raises")
            else:
                assert alpha_subsampled_gaussian(*point) == want, point
                outcomes.add("value")
        assert outcomes == ({"raises", "value"} if max_intervals == 2**13 else {"value"})


class TestBinomialOracle:
    def test_quadrature_matches_binomial_expansion(self):
        # independent of the quadrature: a finite sum, no integration
        for q in (0.001, 0.0017, 0.01, 0.1, 0.5, 1.0):
            for sigma in (0.8, 1.0, 2.0, 4.0, 8.0):
                for lam in range(1, 33):
                    want = _binomial_log_e2(lam, sigma, q)
                    got = alpha_subsampled_gaussian(lam, sigma, q)
                    assert abs(got - want) <= 1e-12 + 1e-8 * abs(want), (lam, sigma, q)


class TestKmeansAlpha:
    def test_zero_iterations(self):
        assert alpha_kmeans(3, _cfg(t_kmeans=0)) == 0.0

    def test_rbf_mode_charges_counts_and_sums_only(self):
        cfg = _cfg(t_kmeans=20, sigma_k=40.0, rbf_mode=True)
        assert alpha_kmeans(2, cfg) == pytest.approx(20 * 6 / 3200)

    def test_full_mode_adds_threshold_selection(self):
        cfg = _cfg(t_kmeans=1, sigma_c=2.0, sigma_k=2.0, rbf_mode=False)
        assert alpha_kmeans(1, cfg) == pytest.approx(2 * (1 / 16 + 1 / 8))

    def test_composition_is_exactly_linear(self):
        one = alpha_kmeans(5, _cfg(t_kmeans=1, rbf_mode=False))
        many = alpha_kmeans(5, _cfg(t_kmeans=17, rbf_mode=False))
        assert many == pytest.approx(17 * one, rel=1e-15)

    def test_strict_doubles_each_term(self):
        for rbf in (True, False):
            base = alpha_kmeans(4, _cfg(rbf_mode=rbf))
            strict = alpha_kmeans(4, _cfg(rbf_mode=rbf, strict_gaussian=True))
            assert strict == pytest.approx(2 * base)


class TestSgdAlpha:
    def test_zero_iterations(self):
        cfg = _cfg(t_sgd=0)
        lams, kmeans, _ = alpha_terms(cfg)
        eps = min((a - math.log(cfg.delta)) / lam for lam, a in zip(lams, kmeans))
        assert epsilon_for_delta(cfg)[0] == eps

    def test_zero_q(self):
        assert sgd_step_alpha(3, _cfg(q=0.0, t_sgd=50)) == 0.0

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

    def test_epoch_iterations(self):
        assert epoch_iterations(0.0017) == 589
        assert epoch_iterations(1.0) == 1
        with pytest.raises(ValueError):
            epoch_iterations(0.0)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cold_alpha_terms(cfg, workers):
    accountant._QUADRATURE_CACHE.clear()
    lams, kmeans, sgd_step = alpha_terms(cfg, workers)
    return lams, kmeans.tobytes(), sgd_step.tobytes()


# A plan-lattice point and criterion 9's run (q = 100 / 20000, 2000 steps).
_PLAN_CFG = _cfg(q=0.0017, sigma_g=2.0, t_sgd=0)
_CRITERION_9_CFG = _cfg(q=0.005, sigma_g=1.0, t_sgd=2000, delta=1 / 20_000)


class TestWorkerProcesses:
    """alpha_terms' forked workers change no bit of the result and leave no process."""

    @pytest.mark.parametrize("cfg", [_PLAN_CFG, _CRITERION_9_CFG], ids=["plan", "criterion-9"])
    def test_bitwise_equal_for_any_worker_count(self, cfg, empty_quadrature_cache):
        results = []
        for workers in (1, 2, 3):
            terms = _cold_alpha_terms(cfg, workers)
            accountant._QUADRATURE_CACHE.clear()
            schedule = epsilon_schedule(cfg, range(1, 21), workers)
            accountant._QUADRATURE_CACHE.clear()
            results.append((terms, schedule, epsilon_for_delta(cfg, workers)))
            _assert_no_child_left()
        assert results[0] == results[1] == results[2]
        if cfg is _CRITERION_9_CFG:
            eps, lam = results[0][2]
            assert (round(eps, 6), lam) == (1.980524, 8)

    def test_a_failing_child_share_is_computed_here(self, monkeypatch, empty_quadrature_cache):
        cfg = _cfg(lambda_max=4)
        want = _cold_alpha_terms(cfg, 1)
        parent, real = os.getpid(), accountant.alpha_subsampled_gaussian

        def fails_in_children(lam, sigma, q):
            if os.getpid() != parent:
                raise NumericsError("worker failed")
            return real(lam, sigma, q)

        monkeypatch.setattr(accountant, "alpha_subsampled_gaussian", fails_in_children)
        assert _cold_alpha_terms(cfg, 3) == want
        _assert_no_child_left()

    def test_a_child_that_writes_nothing_falls_back(self, monkeypatch, empty_quadrature_cache):
        cfg = _cfg(lambda_max=4)
        want = _cold_alpha_terms(cfg, 1)
        monkeypatch.setattr(accountant, "_write_all", lambda fd, data: None)
        assert _cold_alpha_terms(cfg, 3) == want
        _assert_no_child_left()

    def test_refused_fork_computes_in_process(self, monkeypatch, empty_quadrature_cache):
        cfg = _cfg(lambda_max=4)
        want = _cold_alpha_terms(cfg, 1)

        def refuse():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refuse)
        assert _cold_alpha_terms(cfg, 3) == want

    def test_parent_exception_kills_and_reaps_children(self, monkeypatch, empty_quadrature_cache):
        parent, real = os.getpid(), accountant.alpha_subsampled_gaussian

        def fails_in_parent(lam, sigma, q):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(lam, sigma, q)

        monkeypatch.setattr(accountant, "alpha_subsampled_gaussian", fails_in_parent)
        with pytest.raises(KeyboardInterrupt):
            alpha_terms(_cfg(), 3)
        _assert_no_child_left()

    def test_failure_names_the_same_order_for_any_worker_count(
        self, monkeypatch, empty_quadrature_cache
    ):
        # Orders above 25 fail: the split search meets (40.0, sigma_c) first,
        # at lambda 2, whichever process's share holds it.
        real = accountant._quadrature

        def fails_above_25(lam, sigma, q):
            if lam > 25:
                raise NumericsError(f"no convergence at lam={lam}, sigma={sigma}")
            return real(lam, sigma, q)

        monkeypatch.setattr(accountant, "_quadrature", fails_above_25)
        for workers in (1, 2, 3):
            accountant._QUADRATURE_CACHE.clear()
            with pytest.raises(NumericsError) as failure:
                alpha_terms(_cfg(lambda_max=4), workers)
            assert str(failure.value) == "no convergence at lam=40.0, sigma=4.0"
            _assert_no_child_left()

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            alpha_terms(_cfg(), 0)


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
