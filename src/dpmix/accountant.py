"""Moments accountant for Gaussian and subsampled-Gaussian mechanisms.

Tracks alpha(lam) = log E[exp(lam * privacy_loss)] per mechanism,
composes across iterations additively, and converts the composite to an
(epsilon, delta) guarantee via the Chernoff bound

    epsilon = min over integer lam in [1, lambda_max] of
              (alpha_total(lam) - log(delta)) / lam.

Two closed-form conventions exist for the plain Gaussian mechanism.  The
default, (lam^2 + lam) / (4 sigma^2), reproduces the operating points the
shipped defaults were calibrated against; ``strict_gaussian`` selects
lam * (lam + 1) / (2 sigma^2), the exact log-MGF of the Gaussian privacy
loss at sensitivity-to-noise ratio 1/sigma.  The subsampled mechanism is
always evaluated by numerical quadrature of the two likelihood-ratio
integrals and is unaffected by the flag.

The quadrature is composite Simpson on a grid that doubles until two
successive estimates agree.  Each level evaluates the integrands once,
on the fine grid of 2n intervals, and takes the n-interval estimate from
its even nodes: those are exactly the nodes of the n-interval grid, so
the coarse estimate is the one a separate n-interval grid would give.

The quadrature sums its integrands with a private log-sum-exp rather than
``scipy.special.logsumexp``.  It performs scipy's operations in scipy's
order, so the two agree bit for bit on this module's inputs, but it builds
three full-grid temporaries where scipy builds about a dozen (scipy also
evaluates its direct-sum fallback and sign bookkeeping on every call).
With scipy's version, the speed of every cold quadrature depended on the
heap layout left behind by earlier imports.

alpha_terms can share the split search's distinct quadratures (500 for
the plan lattice's configurations) among ``workers`` processes made with
os.fork.  Processes, not threads: a quadrature is a few dozen short
numpy calls that hold the GIL much of the time, and 500 of them took
0.27-0.33 s on one thread or on two, but 0.17-0.23 s on two forked
processes (one measurement on 2 vCPUs).  Each child computes its share through
alpha_subsampled_gaussian, as this process does, and sends every value
back as its raw float64 bytes, which go into the quadrature cache
unchanged; a quadrature depends on nothing but its (lam, sigma, q), so
alpha, epsilon and the argmin lambda are bit-identical for any worker
count.  The children call no BLAS routine (whose thread pool does not
survive a fork) and no logging, only numpy ufuncs and reductions, and
leave through os._exit, so no atexit handler or buffered stream runs in
them.  Python 3.12 and later warn when a process that runs other
threads (an OpenBLAS pool, say) forks, because a child that takes a
lock another thread held at the fork hangs; these children take no
such lock.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericsError

DEFAULT_LAMBDA_MAX = 32

# Weight splits (j1, 1 - j1) searched when two mechanisms observe the same
# batch inside one iteration.  Small j1 shifts budget toward the second
# mechanism; the lone 0.9 entry covers the opposite regime.
J1_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.90)

_QUAD_START_INTERVALS = 2**12
_QUAD_MAX_INTERVALS = 2**22
_QUAD_RTOL = 1e-8
_QUAD_ATOL = 1e-12

# alpha_subsampled_gaussian's values by (lam, sigma, q): each quadrature
# this process computed or received from a worker process.
_QUADRATURE_CACHE: dict[tuple[float, float, float], float] = {}

_SIGKILL = 9  # its POSIX number; os does not name it, and signal is not imported


@dataclass(frozen=True)
class PrivacyConfig:
    """Noise scales and iteration counts of one full training run.

    Noise scales are multipliers on sensitivity: a mechanism with L2
    sensitivity s adds Gaussian noise of standard deviation s * sigma.
    ``q`` is the per-record batch inclusion probability of one SGD
    iteration.  ``rbf_mode`` marks feature embeddings with a known a
    priori norm bound, in which case clustering spends no budget on
    threshold selection.
    """

    sigma_c: float
    sigma_k: float
    sigma_g: float
    q: float
    t_kmeans: int
    t_sgd: int
    delta: float
    rbf_mode: bool = True
    lambda_max: int = DEFAULT_LAMBDA_MAX
    strict_gaussian: bool = False

    def __post_init__(self):
        for name in ("sigma_c", "sigma_k", "sigma_g"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and > 0; zero noise has no finite"
                                 " epsilon")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {self.q}")
        if self.t_kmeans < 0 or self.t_sgd < 0:
            raise ValueError("iteration counts must be non-negative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.lambda_max < 1:
            raise ValueError("lambda_max must be >= 1")


def _check_order_and_noise(lam: float, sigma: float) -> None:
    # NaN fails these comparisons too
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and positive, got {lam}")


def alpha_gaussian(lam: float, sigma: float, strict: bool = False) -> float:
    """Per-invocation log-MGF bound for the Gaussian mechanism."""
    _check_order_and_noise(lam, sigma)
    value = (lam**2 + lam) / (4.0 * sigma**2)
    return 2.0 * value if strict else value


@lru_cache(maxsize=None)
def _simpson_pattern(n_intervals: int) -> np.ndarray:
    """The composite-Simpson weights 1, 4, 2, 4, ..., 2, 4, 1 before scaling (read-only)."""
    w = np.full(n_intervals + 1, 2.0)
    w[1::2] = 4.0
    w[0] = 1.0
    w[-1] = 1.0
    w.flags.writeable = False
    return w


def _logsumexp(a: np.ndarray, b: np.ndarray) -> float:
    """log(sum(b * exp(a))) for weights b > 0, equal to scipy.special.logsumexp(a, b=b).

    scipy's steps in scipy's order: the weights at the maximum are summed
    apart as m, the other terms are shifted by the maximum and summed as s,
    and log1p(s / m) + log(m) + max is taken with numpy's log1p and log.
    A result that is not finite falls back to the direct sum, as scipy's does.
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


def _log_integrands(
    lam: float, sigma: float, q: float, n_intervals: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """log of the E1 and E2 integrands on the n-interval grid, and the grid's width.

    E1 integrates mu0 * (mu0 / mu1)^lam, E2 integrates mu1 * (mu1 / mu0)^lam,
    where mu0 is the N(0, sigma) density and mu1 the q-mixture of mu0 with
    its unit shift.  Everything stays in log space: the E2 integrand peaks
    near x = lam + 1 with height exp(lam * (lam + 1) / (2 sigma^2)), far
    beyond float range for moderate lam.  The window is widened with lam
    for the same reason; a fixed window would silently truncate that peak.
    """
    pad = max(20.0 * sigma, 20.0)
    lo = -(lam + pad)
    hi = 1.0 + lam + pad
    x = np.linspace(lo, hi, n_intervals + 1)
    norm = -math.log(sigma * math.sqrt(2.0 * math.pi))
    log_g0 = -(x**2) / (2.0 * sigma**2) + norm
    log_g1 = -((x - 1.0) ** 2) / (2.0 * sigma**2) + norm
    log_q = math.log(q) if q > 0 else -math.inf
    log_1mq = math.log1p(-q) if q < 1 else -math.inf
    log_mu0 = log_g0
    log_mu1 = np.logaddexp(log_1mq + log_g0, log_q + log_g1)
    lam_log_ratio = lam * (log_mu0 - log_mu1)
    return log_mu0 + lam_log_ratio, log_mu1 - lam_log_ratio, hi - lo


def _log_simpson(log_f1: np.ndarray, log_f2: np.ndarray, width: float) -> tuple[float, float]:
    """Composite-Simpson log-integrals of two log-integrands on one grid of the given width."""
    n_intervals = log_f1.size - 1
    weights = _simpson_pattern(n_intervals) * (width / n_intervals / 3.0)
    return _logsumexp(log_f1, weights), _logsumexp(log_f2, weights)


def alpha_subsampled_gaussian(lam: float, sigma: float, q: float) -> float:
    """log max(E1, E2) for the Poisson-subsampled Gaussian mechanism.

    The node count doubles until successive Simpson estimates agree to a
    relative 1e-8; failure to converge raises NumericsError rather than
    returning a truncated value.  ``lam`` may be non-integer.
    """
    _check_order_and_noise(lam, sigma)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if q == 0.0:
        return 0.0
    key = (float(lam), float(sigma), float(q))
    value = _QUADRATURE_CACHE.get(key)
    if value is None:
        value = _QUADRATURE_CACHE[key] = _quadrature(*key)
    return value


def _quadrature(lam: float, sigma: float, q: float) -> float:
    n = _QUAD_START_INTERVALS
    while 2 * n <= _QUAD_MAX_INTERVALS:
        log_f1, log_f2, width = _log_integrands(lam, sigma, q, 2 * n)
        coarse = max(_log_simpson(log_f1[::2], log_f2[::2], width))
        fine = max(_log_simpson(log_f1, log_f2, width))
        if abs(fine - coarse) <= _QUAD_RTOL * abs(fine) + _QUAD_ATOL:
            return max(fine, 0.0)
        n *= 2
    raise NumericsError(
        f"subsampled-Gaussian quadrature did not converge for "
        f"lam={lam}, sigma={sigma}, q={q} within {_QUAD_MAX_INTERVALS} intervals"
    )


def alpha_kmeans(lam: float, cfg: PrivacyConfig) -> float:
    """Total clustering log-MGF after t_kmeans noisy iterations.

    Each iteration releases the noisy cluster sizes (noise scale
    sqrt(2) * sigma_k) and the noisy feature sums (scale
    sqrt(2) * C_s * sigma_k), and each release is charged
    alpha_gaussian(lam, sigma_k).  Under add/remove adjacency, which the
    subsampled-Gaussian analysis assumes, one record moves one size by 1
    and one sum by at most C_s, so the default convention is the exact
    log-MGF of noise sqrt(2) * sigma_k.  Under replace-one adjacency the
    sensitivities are sqrt(2) and sqrt(2) * C_s, and ``strict_gaussian``
    is the exact charge.  Outside rbf_mode one threshold selection at
    scale sigma_c is charged per iteration as well.
    """
    if cfg.t_kmeans == 0:
        return 0.0
    per_iter = 2.0 * alpha_gaussian(lam, cfg.sigma_k, cfg.strict_gaussian)
    if not cfg.rbf_mode:
        per_iter += alpha_gaussian(lam, cfg.sigma_c, cfg.strict_gaussian)
    return cfg.t_kmeans * per_iter


def sgd_step_alpha(lam: float, cfg: PrivacyConfig) -> float:
    """Per-iteration SGD log-MGF, minimised over budget splits.

    One iteration runs two subsampled mechanisms on the same batch:
    threshold selection at scale sigma_c and the noisy gradient at scale
    sigma_g.  Their joint moment is bounded by
    j1 * alpha(lam / j1, sigma_c) + j2 * alpha(lam / j2, sigma_g) for any
    split j1 + j2 = 1, and the splits (j1, 1 - j1) of J1_GRID are searched
    for the tightest.
    """
    if cfg.q == 0.0:
        return 0.0
    best = math.inf
    for j1 in J1_GRID:
        j2 = 1.0 - j1
        a = j1 * alpha_subsampled_gaussian(lam / j1, cfg.sigma_c, cfg.q)
        a += j2 * alpha_subsampled_gaussian(lam / j2, cfg.sigma_g, cfg.q)
        best = min(best, a)
    return best


def alpha_terms(
    cfg: PrivacyConfig, workers: int | None = 1
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The integer orders 1..lambda_max, the k-means alpha and the per-step SGD alpha at each.

    The total log-MGF after t SGD steps is ``kmeans + t * sgd_step``;
    epsilon_for_delta, epsilon_schedule and the accountant report all
    read it from these two arrays.  cfg.t_sgd is not used.  ``workers``
    processes share the split search's distinct quadratures (None: every
    usable CPU); the arrays are the same for any count.
    """
    if workers is None:
        workers = _usable_cpus()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    lams = tuple(range(1, cfg.lambda_max + 1))
    if workers > 1 and cfg.q > 0.0:
        # the orders sgd_step_alpha asks for, computed as it computes them
        orders = dict.fromkeys(
            (lam / j, sigma)
            for lam in lams
            for j1 in J1_GRID
            for j, sigma in ((j1, cfg.sigma_c), (1.0 - j1, cfg.sigma_g))
        )
        _fill_quadrature_cache(list(orders), cfg.q, workers)
    kmeans = np.array([alpha_kmeans(l, cfg) for l in lams])
    sgd_step = np.array([sgd_step_alpha(l, cfg) for l in lams])
    return lams, kmeans, sgd_step


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_quadrature_cache(orders: list[tuple[float, float]], q: float, workers: int) -> None:
    """Cache alpha_subsampled_gaussian(lam, sigma, q) for each (lam, sigma) not cached yet.

    The uncached orders are dealt round-robin to this process and to
    ``workers - 1`` forked children, and each child's values are merged
    into the cache.  Whatever is still missing (the share of a child that
    could not be forked, failed or returned short, or the rest of this
    process's share after a NumericsError) the split search computes here
    in its own order, so it raises the error the in-process loop raises.
    Every child is reaped before this returns or raises; on an exception
    here the children still running are killed first.
    """
    missing = [(lam, sigma) for lam, sigma in orders if (lam, sigma, q) not in _QUADRATURE_CACHE]
    if len(missing) < 2:
        return
    shares = [missing[i::workers] for i in range(min(workers, len(missing)))]
    children = []  # (pid, read end of its pipe, its share)
    try:
        for share in shares[1:]:
            child = _fork_share(share, q)
            if child is not None:
                children.append((*child, share))
        try:
            for lam, sigma in shares[0]:
                alpha_subsampled_gaussian(lam, sigma, q)
        except NumericsError:
            pass  # the split search meets the first failing order again, in its own order
        for _, fd, share in children:
            raw = _read_to_end(fd)
            if len(raw) == 8 * len(share):
                for (lam, sigma), value in zip(share, np.frombuffer(raw, np.float64).tolist()):
                    _QUADRATURE_CACHE[lam, sigma, q] = value
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, _SIGKILL)
        raise
    finally:
        for pid, fd, _ in children:
            os.close(fd)
            os.waitpid(pid, 0)


def _fork_share(share: list[tuple[float, float]], q: float) -> tuple[int, int] | None:
    """Fork a child that writes the share's alphas to a pipe as raw float64.

    Returns the child's pid and the pipe's read end, or None when the
    system refuses a pipe or a process.  The child leaves only through
    os._exit: status 0 once every value is written, 1 on any exception.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            values = [alpha_subsampled_gaussian(lam, sigma, q) for lam, sigma in share]
            _write_all(write_fd, np.array(values, np.float64).tobytes())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _minimise_epsilon(
    lambdas: Sequence[int], alphas: Sequence[float], delta: float
) -> tuple[float, int]:
    log_delta = math.log(delta)
    best_eps = math.inf
    best_lam = lambdas[0]
    for lam, alpha in zip(lambdas, alphas):
        eps = (alpha - log_delta) / lam
        if eps < best_eps:
            best_eps = eps
            best_lam = lam
    return float(best_eps), int(best_lam)


def epsilon_for_delta(cfg: PrivacyConfig, workers: int | None = 1) -> tuple[float, int]:
    """Tightest (epsilon, argmin lambda) for the configured run; ``workers`` as in alpha_terms."""
    lams, kmeans, sgd_step = alpha_terms(cfg, workers)
    return _minimise_epsilon(lams, kmeans + cfg.t_sgd * sgd_step, cfg.delta)


def epoch_iterations(q: float) -> int:
    """Iterations per epoch: ceil(1/q), so one epoch touches each record once in expectation."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    return math.ceil(1.0 / q)


@dataclass(frozen=True)
class EpochEpsilon:
    epoch: int
    t_sgd: int
    epsilon: float
    argmin_lambda: int


def epsilon_schedule(
    cfg: PrivacyConfig, epochs: Iterable[int], workers: int | None = 1
) -> list[EpochEpsilon]:
    """Epsilon after each epoch count; cfg.t_sgd is ignored.

    The per-iteration SGD alpha does not depend on the iteration count,
    so the whole schedule costs one quadrature sweep, shared by
    ``workers`` processes as in alpha_terms.
    """
    lams, kmeans, sgd_step = alpha_terms(cfg, workers)
    per_epoch = epoch_iterations(cfg.q)
    out = []
    for e in epochs:
        if e < 0:
            raise ValueError("epoch counts must be non-negative")
        t_sgd = e * per_epoch
        eps, lam = _minimise_epsilon(lams, kmeans + t_sgd * sgd_step, cfg.delta)
        out.append(EpochEpsilon(epoch=e, t_sgd=t_sgd, epsilon=eps, argmin_lambda=lam))
    return out
