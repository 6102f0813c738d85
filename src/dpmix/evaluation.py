"""Utility evaluation: clustering accuracy and counting-query workloads.

Clustering accuracy matches cluster ids to class labels through the
best one-to-one mapping (Hungarian assignment on the contingency table)
and reports the matched fraction.  A counting-query workload is a few
flat arrays, which counting, the baseline and the scoring each read in
whole-workload numpy calls.  Its queries fall in five subsets of
increasing maximum length; errors are relative to the true count with a
small-count floor so near-zero counts do not blow up the ratio.  The
independent-marginals baseline predicts counts from the real per-item
frequencies as if items were independent.  It is not differentially
private; it only calibrates how much of the workload a
correlation-blind model could already answer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ALL, ANY, N_SUBSETS, SEMANTICS  # ALL only for callers of this module
from .data import BinaryDataset

# Bytes of item bitmaps gathered per block of counting queries.
QUERY_BLOCK_BYTES = 1 << 19
# Set bits of each byte value; np.bitwise_count needs numpy 2.
_BIT_COUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class QueryWorkload:
    """Counting queries as flat arrays: query j is ``items[starts[j]:starts[j + 1]]``.

    ``items`` is int64 and sorted within each query; ``subset_ids[j]`` is
    query j's length subset (1..5); all queries share one ``semantics``.
    """

    items: np.ndarray
    starts: np.ndarray
    subset_ids: np.ndarray
    semantics: str

    def __len__(self) -> int:
        return len(self.starts) - 1


@dataclass(frozen=True)
class EvalReport:
    subset_mean_errors: tuple[float, ...]
    baseline_mean_errors: tuple[float, ...]
    query_count: int
    sanity_bound: float
    semantics: str
    acc: float | None = None

    def to_dict(self) -> dict:
        d = {
            "semantics": self.semantics,
            "query_count": self.query_count,
            "sanity_bound": self.sanity_bound,
            "subset_mean_errors": list(self.subset_mean_errors),
            "baseline_mean_errors": list(self.baseline_mean_errors),
        }
        if self.acc is not None:
            d["acc"] = self.acc
        return d

    def csv_rows(self) -> list[str]:
        per_subset = self.query_count // N_SUBSETS
        rows = ["subset,mean_rel_err,n_queries"]
        for i, err in enumerate(self.subset_mean_errors, start=1):
            rows.append(f"{i},{err!r},{per_subset}")
        return rows


def clustering_accuracy(assignments: np.ndarray, labels: np.ndarray) -> float:
    """Best one-to-one cluster-to-label matching, as a fraction of records.

    The matching maximises the matched record count on the k x L
    contingency table (k clusters, L labels); ``_max_matching_total``
    finds it exactly in O(r^2 c) time with r = min(k, L), c = max(k, L).
    """
    assignments = np.asarray(assignments)
    labels = np.asarray(labels)
    if assignments.shape != labels.shape or assignments.ndim != 1:
        raise ValueError("assignments and labels must be 1-D of equal length")
    if assignments.size == 0:
        raise ValueError("need at least one record")
    _, a = np.unique(assignments, return_inverse=True)
    _, b = np.unique(labels, return_inverse=True)
    na, nb = a.max() + 1, b.max() + 1
    table = np.bincount(a * nb + b, minlength=na * nb).reshape(na, nb)
    return _max_matching_total(table) / assignments.size


def _max_matching_total(table: np.ndarray) -> int:
    """Largest sum of ``table`` entries over a one-to-one row-column matching.

    The Hungarian method by shortest augmenting paths (Kuhn 1955; Jonker
    and Volgenant 1987), in the rectangular form of Crouse (2016), on the
    negated table with rows <= columns.  Each row joins the matching
    through a Dijkstra search over reduced costs, which row and column
    potentials keep non-negative; among columns at the least distance a
    free one ends the search first.  A search step scans every column at
    once, so the cost is O(r^2 c) for r rows and c columns.  Entries are
    integers below 2**53, so all distances and potentials are exact and
    the total equals that of any other exact solver.
    """
    if table.shape[0] > table.shape[1]:
        table = table.T
    r, c = table.shape
    cost = -table.astype(np.float64)
    u, v = np.zeros(r), np.zeros(c)
    row_of, col_of = np.full(c, -1), np.full(r, -1)  # the matching; -1 is free
    prev = np.zeros(c, dtype=np.intp)  # row before each column on its shortest path
    for start in range(r):
        dist = np.full(c, np.inf)  # tentative distances; inf once settled
        settled = np.zeros(c, dtype=bool)
        final = np.zeros(c)  # distances of settled columns
        row, lowest = start, 0.0
        while True:
            reduced = lowest + cost[row] - u[row] - v
            reduced[settled] = np.inf
            prev[reduced < dist] = row
            np.minimum(dist, reduced, out=dist)
            lowest = dist.min()
            near = np.flatnonzero(dist == lowest)
            free = near[row_of[near] < 0]
            j = free[0] if free.size else near[0]
            settled[j], final[j], dist[j] = True, lowest, np.inf
            if row_of[j] < 0:
                break
            row = row_of[j]
        reached = row_of[settled & (row_of >= 0)]
        u[reached] += lowest - final[col_of[reached]]
        u[start] += lowest
        v[settled] -= lowest - final[settled]
        while col_of[start] < 0:  # flip the matching along the path back from j
            row = prev[j]
            row_of[j] = row
            col_of[row], j = j, col_of[row]
    return int(table[np.arange(r), col_of].sum())


def generate_workload(
    m: int,
    max_l1: int,
    total: int,
    rng: np.random.Generator,
    semantics: str = ANY,
) -> QueryWorkload:
    """total/5 queries per subset i, lengths uniform on [1, ceil(i*max_l1/5)].

    Lengths are additionally capped at m so queries stay item subsets.
    """
    if semantics not in SEMANTICS:
        raise ValueError(f"semantics must be one of {SEMANTICS}, got {semantics!r}")
    if total % N_SUBSETS != 0 or total < N_SUBSETS:
        raise ValueError(f"total must be a positive multiple of {N_SUBSETS}, got {total}")
    if max_l1 < N_SUBSETS:
        raise ValueError(f"max_l1 must be >= {N_SUBSETS}, got {max_l1}")
    queries = []
    per_subset = total // N_SUBSETS
    for i in range(1, N_SUBSETS + 1):
        hi = min(math.ceil(i * max_l1 / N_SUBSETS), m)
        for _ in range(per_subset):
            length = int(rng.integers(1, hi + 1))
            queries.append(np.sort(rng.choice(m, size=length, replace=False)))
    return QueryWorkload(
        items=np.concatenate(queries, dtype=np.int64),
        starts=np.cumsum([0, *map(len, queries)]),
        subset_ids=np.repeat(np.arange(1, N_SUBSETS + 1), per_subset),
        semantics=semantics,
    )


def counting_query(dataset: BinaryDataset, workload: QueryWorkload) -> np.ndarray:
    """Answer every query of ``workload`` on ``dataset``.

    Entry j of the returned int64 array is the number of records holding
    any (or all, by ``workload.semantics``) of the items of query j; an
    item repeated within a query counts once.  Each item's column is
    packed once into a bitmap over the records.  A query ORs (any) or
    ANDs (all) the bitmaps of its items and counts the set bits with a
    byte table.  Queries go in blocks whose gathered bitmaps take about
    QUERY_BLOCK_BYTES; the table lookup's index copy, 8 bytes per byte
    of a block's combined bitmaps, is the largest temporary, so they
    stay under about 5 MB.
    """
    items, starts, semantics = workload.items, workload.starts, workload.semantics
    if semantics not in SEMANTICS:
        raise ValueError(f"semantics must be one of {SEMANTICS}, got {semantics!r}")
    if (np.diff(starts) < 1).any():
        raise ValueError("query must contain at least one item")
    if (items < 0).any() or (items >= dataset.m).any():
        raise ValueError(f"query items must lie in [0, {dataset.m})")
    n_words = -(-len(dataset) // 64)
    packed = np.packbits(dataset.records, axis=0)  # (ceil(n / 8), m); padding bits are 0
    bitmaps = np.zeros((dataset.m, 8 * n_words), dtype=np.uint8)
    bitmaps[:, : len(packed)] = packed.T
    bitmaps = bitmaps.view(np.uint64)  # row i: the records that hold item i
    combine = np.bitwise_or if semantics == ANY else np.bitwise_and
    block_rows = max(1, QUERY_BLOCK_BYTES // max(1, 8 * n_words))
    counts = np.empty(len(workload), dtype=np.int64)
    first = 0
    while first < len(workload):  # queries first..last-1, at least one
        last = int(np.searchsorted(starts, starts[first] + block_rows, side="right")) - 1
        last = max(last, first + 1)
        lo, hi = starts[first], starts[last]
        held = combine.reduceat(bitmaps[items[lo:hi]], starts[first:last] - lo, axis=0)
        counts[first:last] = np.take(_BIT_COUNT, held.view(np.uint8)).sum(axis=1)
        first = last
    return counts


def independent_estimate(marginals, workload: QueryWorkload, size: int) -> np.ndarray:
    """Each query's expected count if items occurred independently with the
    given marginals: size * (1 - prod(1 - p)) for any, size * prod(p) for all."""
    p = np.asarray(marginals, dtype=np.float64)[workload.items]
    if workload.semantics == ANY:
        return size * (1.0 - np.multiply.reduceat(1.0 - p, workload.starts[:-1]))
    return size * np.multiply.reduceat(p, workload.starts[:-1])


def relative_error(true_counts, synth_counts, dataset_size: int) -> np.ndarray:
    """|synth - true| / max(true, s) per query, with the small-count floor s = 0.001 * |D|."""
    floor = 0.001 * dataset_size
    return np.abs(synth_counts - true_counts) / np.maximum(true_counts, floor)


def evaluate_workload(
    real: BinaryDataset,
    synth: BinaryDataset,
    workload: QueryWorkload,
    acc: float | None = None,
) -> EvalReport:
    """Mean relative error per length subset, for the synthetic data (its
    counts scaled by |real| / |synth|) and for the independent-marginals
    baseline computed from the real data; ``np.bincount`` sums each
    subset's errors in query order."""
    if real.m != synth.m:
        raise ValueError(f"dimension mismatch: real m={real.m}, synthetic m={synth.m}")
    n = len(real)
    scale = n / max(len(synth), 1)  # an empty synthetic set counts 0 at any scale
    true_counts = counting_query(real, workload)
    synth_counts = counting_query(synth, workload) * scale
    subset = workload.subset_ids - 1
    counts = np.bincount(subset, minlength=N_SUBSETS)
    if len(counts) != N_SUBSETS or (counts == 0).any():
        raise ValueError("workload must cover all five subsets")
    est = independent_estimate(real.records.mean(axis=0), workload, n)
    synth_errors = np.bincount(subset, relative_error(true_counts, synth_counts, n))
    base_errors = np.bincount(subset, relative_error(true_counts, est, n))
    return EvalReport(
        subset_mean_errors=tuple(float(v) for v in synth_errors / counts),
        baseline_mean_errors=tuple(float(v) for v in base_errors / counts),
        query_count=len(workload),
        sanity_bound=0.001 * n,
        semantics=workload.semantics,
        acc=acc,
    )
