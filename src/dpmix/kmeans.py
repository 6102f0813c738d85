"""Differentially private k-means over clipped random Fourier features.

Noisy Lloyd iterations: records are embedded once, clipped to the
public bound CLIP_BOUND, and each iteration makes two Gaussian releases,
the (k,) vector of noisy counts and the (k, d) matrix of noisy feature
sums, from which the next centers are formed.
Only noisy quantities leave the routine; the final assignment pass is
against noisy centers.

Clustering holds one (n, d) float32 array, 4 * n * d bytes: the
embedding, clipped in place by the one pass that takes its squared row
norms.  float32 rounds 10^6 times finer than the features' kernel error
(see ``rff``), while every quantity that decides an assignment or leaves
the routine is float64: row norms, centers, the near-tie recheck and the
per-cluster sums.  Every other array holds at most ``BLOCK_ROWS`` rows
of d values per thread, or a few values per row and center: the
``AssignmentBuffers`` that one run makes once and every iteration
reuses.  Assignment never builds the n x k x d difference (see
``assign_to_centers``) and per-cluster sums add rows in index order, so
both match the direct float64 form and ``np.add.at`` bit for bit.

One thread per usable CPU embeds, clips, assigns and sums
(``threads._run_tasks``), each writing its own rows or clusters by the
calls one thread would make, so the result is the same for any thread
count.  The noise is drawn on the calling thread, in the order above.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accountant import gaussian_release
from .data import BinaryDataset
from .rff import FeatureMap, embed, feature_map_from_seed
from .streams import child_rng, child_seed
from .threads import _ranges, _run_tasks

# Every embedded record has ||z(x)||^2 = (2/d) * sum of cos^2 <= 2
# (rff.py) whatever the data, so a fixed clip bound of that order is
# public: choosing it spends no privacy budget.
CLIP_BOUND = 1.0

# A clipped row is scaled to this norm, just inside CLIP_BOUND: rounding
# its entries to float32 moves each by at most 2^-24 of itself, and the
# float64 norm and scale add about d * 2^-53, so for any d below 2^28 the
# rounded row's float64 norm stays at most CLIP_BOUND.
CLIP_TARGET = CLIP_BOUND * (1.0 - 2.0**-22)

# Rows per block of the clip and squared norms, the per-cluster gather and
# the near-tie recheck (which takes BLOCK_ROWS // k rows against all k centers).
BLOCK_ROWS = 256
# Fewest rows per thread of the assignment, which splits its rows evenly
# among the threads: fewer, longer numpy calls hold the GIL for less.
ASSIGN_ROWS = 2048


@dataclass(frozen=True)
class Clustering:
    """Result of one clustering run.

    ``size_history`` stacks the noisy counts of every iteration
    (iterations x k) for run logs.
    """

    assignments: np.ndarray
    noisy_centers: np.ndarray
    size_history: np.ndarray

    @property
    def k(self) -> int:
        return len(self.noisy_centers)

    @property
    def iterations(self) -> int:
        return len(self.size_history)

    @property
    def noisy_sizes(self) -> np.ndarray:
        """The last iteration's noisy counts: the only size estimates safe to release."""
        return self.size_history[-1]


def clip_embedding(features: np.ndarray) -> np.ndarray:
    """Clip the rows of a float32 array to CLIP_BOUND in place; return their squared norms.

    One pass, BLOCK_ROWS rows at a time, in float64: a row within the
    bound is left as it is, a row beyond it is scaled to CLIP_TARGET and
    rounded to float32, so its float64 norm is at most CLIP_BOUND, the
    sensitivity that the "kmeans-sums" charge assumes.  The squares are float64
    sums over the stored float32 rows.  Each row's reductions depend on
    that row alone, so rows and squares are bit for bit the one-call
    forms', whichever thread clips a block.
    """
    f_sq = np.empty(len(features))

    def clip_block(start):
        rows = features[start:start + BLOCK_ROWS]
        block = rows.astype(np.float64)
        norms = np.linalg.norm(block, axis=1)
        # dpnorm.clip_scales' factors; helper threads call no public dpmix function
        block *= np.where(norms > CLIP_BOUND, 1.0 / np.maximum(1.0, norms / CLIP_TARGET),
                          1.0)[:, None]
        rows[...] = block
        block[...] = rows
        np.einsum("ij,ij->i", block, block, out=f_sq[start:start + BLOCK_ROWS])

    _run_tasks(clip_block, range(0, len(features), BLOCK_ROWS))
    return f_sq


@dataclass(frozen=True)
class AssignmentBuffers:
    """The arrays that ``assign_to_centers`` writes for n rows and k centers.

    A caller that assigns the same rows to several sets of centers makes
    them once, with the rows' float64 squared norms ``f_sq`` and their
    roots; each call overwrites ``product`` (n x k float32), ``row`` (one
    center's float64 values), ``best``, ``second`` and ``assign``, the
    array it returns.
    """

    f_sq: np.ndarray
    f_norm: np.ndarray
    product: np.ndarray
    row: np.ndarray
    best: np.ndarray
    second: np.ndarray
    assign: np.ndarray

    @classmethod
    def for_rows(cls, features: np.ndarray, k: int, f_sq: np.ndarray | None = None):
        if f_sq is None:
            f_sq = np.einsum("ij,ij->i", features, features, dtype=np.float64)
        n = len(features)
        return cls(f_sq, np.sqrt(f_sq), np.empty((n, k), dtype=np.float32),
                   *(np.empty(n) for _ in range(3)), np.empty(n, dtype=np.intp))


def assign_to_centers(
    features: np.ndarray, centers: np.ndarray, buffers: AssignmentBuffers | None = None
) -> np.ndarray:
    """Index of the nearest center per float32 row; ties break toward the lower index.

    The result is the argmin of the direct float64 squared distances
    ``((f - c) ** 2).sum()`` from each row, upcast exactly, to the float64
    centers, but the n x k x d difference is never built.  Distances are
    taken in expanded form, ||f||^2 - 2 f.c + ||c||^2: a float32 matrix
    product against the centers rounded to float32, the rest in float64.

    With u = 2^-24 and gamma_n(x) = n x / (1 - n x), rounding c to float32
    moves f.c by at most u ||f|| ||c||, and the float32 product adds at
    most gamma_d(u) ||f|| ||c|| in any order of summation, together at
    most gamma_{d+1}(u) ||f|| ||c||.
    The float64 terms, and the direct value, each lie within
    g (||f|| + ||c||)^2 of the exact distance, g = gamma_{d+2}(eps64).
    A float32 underflow adds at most half the smallest subnormal s per
    rounded entry and per product.  As 2 ||f|| ||c|| <= (||f|| + ||c||)^2,
    a row whose best and second-best expanded values are more than
    2 (gamma_{d+1}(u) + 2 g) (||f|| + max ||c||)^2 + 4 d (1 + ||f||) s
    apart has the same argmin in both forms.  Every other row is
    recomputed in the direct form: a near tie, or a row with a value that
    is not finite, which is how an overflow in float32 shows.  Each
    direct value is a sum over the contiguous last axis, so it does not
    depend on which rows are recomputed, and exact ties still go to the
    lower index.  The recheck runs BLOCK_ROWS // k rows at a time, so
    when every row is a near tie, as with duplicate centers, it costs the
    direct form's time but not its n x k x d memory.

    Each row's result depends on that row alone, so the rows are split
    into one contiguous range per usable CPU, of at least ASSIGN_ROWS
    rows, and each thread writes its own rows of ``buffers``
    (``threads._run_tasks``), which are made here when not given.
    """
    centers = np.asarray(centers, dtype=np.float64)
    k = len(centers)
    if k == 1:
        return np.zeros(len(features), dtype=np.intp)
    if buffers is None:
        buffers = AssignmentBuffers.for_rows(features, k)
    c_sq = np.einsum("ij,ij->i", centers, centers)
    with np.errstate(over="ignore"):  # a center beyond float32's range becomes infinite
        narrow = centers.astype(np.float32)
    d = features.shape[1]
    u, eps64 = 2.0**-24, np.finfo(np.float64).eps
    g32 = (d + 1) * u / (1.0 - (d + 1) * u)
    g64 = (d + 2) * eps64 / (1.0 - (d + 2) * eps64)
    c_norm = np.sqrt(c_sq.max())
    step = max(1, BLOCK_ROWS // k)

    def assign_rows(rows):
        product, row = buffers.product[rows], buffers.row[rows]
        best, second, assign = buffers.best[rows], buffers.second[rows], buffers.assign[rows]
        f_sq, f_norm = buffers.f_sq[rows], buffers.f_norm[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(features[rows], narrow.T, out=product)
            # one center's expanded values at a time, so the best two per
            # record come from k passes over one row
            best[...] = second[...] = np.inf
            assign[...] = 0
            finite = np.ones(len(row), dtype=bool)
            for i in range(k):
                np.multiply(product[:, i], -2.0, dtype=np.float64, out=row)
                row += f_sq
                row += c_sq[i]
                finite &= np.isfinite(row)
                np.minimum(second, np.maximum(best, row), out=second)
                assign[row < best] = i
                np.minimum(best, row, out=best)
            bound = 2.0 * (g32 + 2.0 * g64) * (f_norm + c_norm) ** 2
            bound += 4.0 * d * (1.0 + f_norm) * np.finfo(np.float32).smallest_subnormal
            # written as "not above" so that NaN gaps and bounds are rechecked too
            near = np.flatnonzero(~(second - best > bound) | ~finite)
        for first in range(0, len(near), step):
            recheck = near[first:first + step] + rows.start
            direct = ((features[recheck, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            buffers.assign[recheck] = np.argmin(direct, axis=1)

    _run_tasks(assign_rows, _ranges(len(features), ASSIGN_ROWS))
    return buffers.assign


def _cluster_sums(clipped: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster float64 sums of float32 rows, adding each cluster's rows in index order.

    An axis-0 sum adds rows one after another, as ``np.add.at`` does.
    Each cluster's rows are gathered BLOCK_ROWS - 1 at a time and upcast
    below a first row that carries the running sum (zero at the start),
    so the additions are the same left fold as ``np.add.at`` into float64
    zeros, bit for bit.  Clusters are independent, so one thread per
    usable CPU sums them, each cluster on one thread (``threads._run_tasks``).
    A single column is the exception: numpy sums it pairwise, so it goes
    through ``bincount``, which also adds in index order.
    """
    if clipped.shape[1] == 1:
        return np.bincount(assign, weights=clipped[:, 0], minlength=k)[:, None]
    sums = np.zeros((k, clipped.shape[1]))
    step = BLOCK_ROWS - 1

    def sum_cluster(i):
        members = np.flatnonzero(assign == i)
        chunk = np.empty((min(step, len(members)) + 1, clipped.shape[1]))
        for start in range(0, len(members), step):
            take = members[start:start + step]
            rows = chunk[:len(take) + 1]
            rows[0] = sums[i]
            rows[1:] = clipped[take]
            rows.sum(axis=0, out=sums[i])

    _run_tasks(sum_cluster, range(k))
    return sums


def default_initial_centers(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """k pseudo-random unit vectors scaled to CLIP_BOUND.  Data-independent."""
    raw = rng.normal(0.0, 1.0, size=(k, d))
    return CLIP_BOUND * raw / np.linalg.norm(raw, axis=1)[:, None]


def dp_kernel_kmeans(
    dataset: BinaryDataset,
    fmap: FeatureMap,
    k: int,
    iterations: int,
    sigma_k: float,
    rng: np.random.Generator,
    *,
    init: np.ndarray | None = None,
    init_rng: np.random.Generator,
) -> Clustering:
    """Cluster the embedded records, clipped in one pass, with per-iteration Gaussian noise.

    Centers start at ``init``, or else at default_initial_centers drawn
    from ``init_rng``.

    Each iteration releases the k counts as one vector and the k sums as
    one matrix, the "kmeans-sizes" and "kmeans-sums" charges, so ``rng``
    draws k normals, then k * d; an empty cluster's sum is zero.  The
    next centers come from those released values only: a cluster whose
    noisy count is below 1 keeps its previous center and is never divided
    by, any other gets its noisy mean.  Nothing is reseeded from data.
    """
    n = len(dataset)
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    if iterations < 1:
        raise ValueError(f"need at least one iteration, got {iterations}")

    clipped = embed(fmap, dataset.records)
    # clipped in place: the embedding is the one (n, d) array
    buffers = AssignmentBuffers.for_rows(clipped, k, clip_embedding(clipped))

    if init is not None:
        centers = np.array(init, dtype=np.float64, copy=True)
        if centers.shape != (k, fmap.d):
            raise ValueError(
                f"init centers must have shape ({k}, {fmap.d}), got {centers.shape}"
            )
    else:
        centers = default_initial_centers(k, fmap.d, init_rng)

    history = np.empty((iterations, k))
    for t in range(iterations):
        assign = assign_to_centers(clipped, centers, buffers)
        history[t] = gaussian_release(np.bincount(assign, minlength=k), sigma_k, 1.0, rng)
        noisy_sums = gaussian_release(_cluster_sums(clipped, assign, k), sigma_k, CLIP_BOUND, rng)
        moved = history[t] >= 1
        centers[moved] = noisy_sums[moved] / history[t, moved][:, None]

    final_assign = assign_to_centers(clipped, centers, buffers)
    return Clustering(assignments=final_assign, noisy_centers=centers, size_history=history)


def clustering_stage(
    dataset: BinaryDataset, seed: int, *, k: int, d: int, gamma: float, t_kmeans: int,
    sigma_k: float, init: np.ndarray | None = None,
) -> Clustering:
    """The clustering that ``seed`` gives; train and cluster run this.

    The map is built from the seed of the child stream "feature-map", the
    noise from "kmeans-noise" and default initial centers from "kmeans-init".
    """
    fmap = feature_map_from_seed(dataset.m, d, gamma, child_seed(seed, "feature-map"))
    return dp_kernel_kmeans(
        dataset, fmap, k, t_kmeans, sigma_k, child_rng(seed, "kmeans-noise"),
        init=init, init_rng=child_rng(seed, "kmeans-init"),
    )
