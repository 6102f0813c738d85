"""Differentially private k-means over clipped random Fourier features.

Noisy Lloyd iterations: records are embedded once, clipped to the
public bound CLIP_BOUND, and each iteration makes two Gaussian releases,
the (k,) vector of noisy counts and the (k, d) matrix of noisy feature
sums, from which the next centers are formed.
Only noisy quantities leave the routine; the final assignment pass is
against noisy centers.

Clustering holds one (n, d) float64 array, 8 * n * d bytes: the
embedding, which is clipped in place.  Every other temporary holds at
most ``BLOCK_ROWS`` rows of d values, or is n x k.  Assignment never
builds the n x k x d difference (see ``assign_to_centers``) and
per-cluster sums add rows in index order, so both match the direct form
and ``np.add.at`` bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accountant import gaussian_release
from .data import BinaryDataset
from .dpnorm import clip_scales
from .rff import FeatureMap, embed, feature_map_from_seed
from .streams import child_rng, child_seed

# Every embedded record has ||z(x)||^2 = (2/d) * sum of cos^2 <= 2
# (rff.py) whatever the data, so a fixed clip bound of that order is
# public: choosing it spends no privacy budget.
CLIP_BOUND = 1.0

# Rows per block of the clip norms, the per-cluster gather and the
# near-tie recheck (which takes BLOCK_ROWS // k rows against all k centers).
BLOCK_ROWS = 256


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


def _row_norms(features: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(features, axis=1)``, BLOCK_ROWS rows at a time.

    Each row's reduction does not depend on the other rows, so the norms
    are bit for bit those of the one-call form.
    """
    norms = np.empty(len(features))
    for start in range(0, len(features), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        norms[rows] = np.linalg.norm(features[rows], axis=1)
    return norms


def clip_features(features: np.ndarray) -> np.ndarray:
    """Scale rows with norm above CLIP_BOUND back onto the CLIP_BOUND sphere.

    A float64 array is clipped in place and returned; other input is
    cast to a new float64 array first.
    """
    features = np.asarray(features, dtype=np.float64)
    features *= clip_scales(_row_norms(features), CLIP_BOUND)[:, None]
    return features


def assign_to_centers(
    features: np.ndarray, centers: np.ndarray, f_sq: np.ndarray | None = None
) -> np.ndarray:
    """Index of the nearest center per row; ties break toward the lower index.

    The result is the argmin of the direct squared distances
    ``((f - c) ** 2).sum()``, but the n x k x d difference is never built.
    Distances are taken in expanded form, ||f||^2 - 2 f.c + ||c||^2, with
    one matrix product.  The expanded and the direct value each lie within
    g * (||f|| + max ||c||)^2 of the exact distance, with
    g = gamma_{d+2} = (d+2) eps / (1 - (d+2) eps).  A row whose best and
    second-best expanded values are more than 4 g (||f|| + max ||c||)^2
    apart has the same argmin in both forms.  Every other row (a near
    tie, or a non-finite value) is recomputed in the direct form.  Each
    direct value is a sum over the contiguous last axis, so it does not
    depend on which rows are recomputed, and exact ties still go to the
    lower index.  The recheck runs BLOCK_ROWS // k rows at a time, so
    when every row is a near tie, as with duplicate centers, it costs the
    direct form's time but not its n x k x d memory.

    ``f_sq`` holds the squared row norms of ``features``; a caller that
    assigns the same features to several sets of centers passes them in.
    """
    features = np.asarray(features, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if len(centers) == 1:
        return np.zeros(len(features), dtype=np.intp)
    if f_sq is None:
        f_sq = np.einsum("ij,ij->i", features, features)
    c_sq = np.einsum("ij,ij->i", centers, centers)
    d2 = features @ centers.T
    d2 *= -2.0
    d2 += f_sq[:, None]
    d2 += c_sq
    assign = np.argmin(d2, axis=1)

    best_two = np.partition(d2, 1, axis=1)
    n_eps = (features.shape[1] + 2) * np.finfo(np.float64).eps
    bound = 4.0 * n_eps / (1.0 - n_eps) * (np.sqrt(f_sq) + np.sqrt(c_sq.max())) ** 2
    # written as "not above" so that NaN gaps and bounds are rechecked too
    near = np.flatnonzero(~(best_two[:, 1] - best_two[:, 0] > bound))
    step = max(1, BLOCK_ROWS // len(centers))
    for start in range(0, len(near), step):
        rows = near[start:start + step]
        direct = ((features[rows, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign[rows] = np.argmin(direct, axis=1)
    return assign


def _cluster_sums(clipped: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster row sums, adding each cluster's rows in index order.

    An axis-0 sum adds rows one after another, as ``np.add.at`` does.
    Each cluster's rows are gathered BLOCK_ROWS - 1 at a time below a
    first row that carries the running sum (zero at the start), so the
    additions are the same left fold as ``np.add.at``, bit for bit.  A
    single column is the exception: numpy sums it pairwise, so it goes
    through ``bincount``, which also adds in index order.
    """
    if clipped.shape[1] == 1:
        return np.bincount(assign, weights=clipped[:, 0], minlength=k)[:, None]
    sums = np.zeros((k, clipped.shape[1]))
    chunk = np.empty((min(BLOCK_ROWS, len(clipped) + 1), clipped.shape[1]))
    step = len(chunk) - 1
    for i in range(k):
        members = np.flatnonzero(assign == i)
        for start in range(0, len(members), step):
            take = members[start:start + step]
            rows = chunk[:len(take) + 1]
            rows[0] = sums[i]
            np.take(clipped, take, axis=0, out=rows[1:])
            rows.sum(axis=0, out=sums[i])
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
    """Cluster the embedded records with per-iteration Gaussian noise.

    Centers start at ``init``, or else at default_initial_centers drawn
    from ``init_rng``.

    Each iteration releases the k counts as one vector and the k sums as
    one matrix, the two mechanisms ``alpha_kmeans`` charges, so ``rng``
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
    clip_features(clipped)  # in place: the embedding is the one (n, d) array
    f_sq = np.einsum("ij,ij->i", clipped, clipped)

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
        assign = assign_to_centers(clipped, centers, f_sq)
        history[t] = gaussian_release(np.bincount(assign, minlength=k), sigma_k, 1.0, rng)
        noisy_sums = gaussian_release(_cluster_sums(clipped, assign, k), sigma_k, CLIP_BOUND, rng)
        moved = history[t] >= 1
        centers[moved] = noisy_sums[moved] / history[t, moved][:, None]
        del noisy_sums  # alive across the next assignment, it fragments the heap: +1 MB RSS

    final_assign = assign_to_centers(clipped, centers, f_sq)
    return Clustering(assignments=final_assign, noisy_centers=centers, size_history=history)


def clustering_stage(
    dataset: BinaryDataset, seed: int, *, k: int, d: int, gamma: float, t_kmeans: int,
    sigma_k: float, init: np.ndarray | None = None,
) -> tuple[int, Clustering]:
    """The clustering that ``seed`` gives and its feature-map seed; train and cluster run this.

    The map is built from the seed of the child stream "feature-map", the
    noise from "kmeans-noise" and default initial centers from "kmeans-init".
    """
    map_seed = child_seed(seed, "feature-map")
    fmap = feature_map_from_seed(dataset.m, d, gamma, map_seed)
    clustering = dp_kernel_kmeans(
        dataset, fmap, k, t_kmeans, sigma_k, child_rng(seed, "kmeans-noise"),
        init=init, init_rng=child_rng(seed, "kmeans-init"),
    )
    return map_seed, clustering
