"""Utility evaluation: clustering accuracy and counting-query workloads.

Clustering accuracy matches cluster ids to class labels through the
best one-to-one mapping (Hungarian assignment on the contingency table)
and reports the matched fraction.  Counting-query workloads are split
into five subsets of increasing maximum query length; errors are
relative to the true count with a small-count floor so near-zero counts
do not blow up the ratio.  As a reference point the evaluator also
reports an independent-marginals baseline: counts predicted from the
real per-item frequencies under an item-independence assumption.  That
baseline is not differentially private; it only calibrates how much of
the workload a correlation-blind model could already answer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .config import ALL, ANY, N_SUBSETS, SEMANTICS  # ALL only for callers of this module
from .data import BinaryDataset


@dataclass(frozen=True)
class QueryWorkload:
    """Item-subset counting queries, tagged with their length-subset id (1..5)."""

    queries: tuple[tuple[int, ...], ...]
    subset_ids: np.ndarray
    semantics: str

    def __len__(self) -> int:
        return len(self.queries)


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
    subset_ids = []
    per_subset = total // N_SUBSETS
    for i in range(1, N_SUBSETS + 1):
        hi = min(math.ceil(i * max_l1 / N_SUBSETS), m)
        for _ in range(per_subset):
            length = int(rng.integers(1, hi + 1))
            items = rng.choice(m, size=length, replace=False)
            queries.append(tuple(sorted(int(v) for v in items)))
            subset_ids.append(i)
    return QueryWorkload(
        queries=tuple(queries),
        subset_ids=np.array(subset_ids),
        semantics=semantics,
    )


def counting_query(dataset: BinaryDataset, queries, semantics: str = ANY) -> np.ndarray:
    """Answer a batch of counting queries in one call.

    ``queries`` is a sequence of item collections.  Entry j of the
    returned int64 array is the number of records holding any (or all)
    of the items of query j; an item repeated within a query counts
    once.  The records are packed once into 64-bit words, so each query
    reads only the words that hold its items.
    """
    if semantics not in SEMANTICS:
        raise ValueError(f"semantics must be one of {SEMANTICS}, got {semantics!r}")
    sizes = [len(query) for query in queries]
    if 0 in sizes:
        raise ValueError("query must contain at least one item")
    items = np.fromiter(chain.from_iterable(queries), dtype=np.int64, count=sum(sizes))
    if (items < 0).any() or (items >= dataset.m).any():
        raise ValueError(f"query items must lie in [0, {dataset.m})")
    n_words = -(-dataset.m // 64)
    padded = np.zeros((len(dataset), n_words * 8), dtype=np.uint8)
    packed = np.packbits(dataset.records, axis=1, bitorder="little")
    padded[:, : packed.shape[1]] = packed
    # (n_words, n): bit i of word w of a record is its item 64 w + i
    words = np.ascontiguousarray(padded.view("<u8").T)
    # one (query, word) key per word a query touches, with the OR of its item bits
    keys, slot = np.unique(
        np.repeat(np.arange(len(sizes)), sizes) * n_words + (items >> 6), return_inverse=True
    )
    bits = np.left_shift(np.uint64(1), (items & 63).astype(np.uint64))
    masks = np.zeros((keys.size, 1), dtype=np.uint64)
    np.bitwise_or.at(masks[:, 0], slot, bits)
    word_of = (keys % n_words).tolist()
    bounds = np.searchsorted(keys // n_words, np.arange(len(sizes) + 1)).tolist()
    counts = np.empty(len(sizes), dtype=np.int64)
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        hit = words[word_of[lo:hi]] & masks[lo:hi]
        held = hit.any(axis=0) if semantics == ANY else (hit == masks[lo:hi]).all(axis=0)
        counts[j] = np.count_nonzero(held)
    return counts


def independent_estimate(
    marginals: np.ndarray, query, semantics: str, size: int
) -> float:
    """Expected count if items occurred independently with the given marginals."""
    p = np.asarray(marginals, dtype=np.float64)[list(query)]
    if semantics == ANY:
        return float(size * (1.0 - np.prod(1.0 - p)))
    return float(size * np.prod(p))


def relative_error(true_count: float, synth_count: float, dataset_size: int) -> float:
    """|synth - true| / max(true, s) with the small-count floor s = 0.001 * |D|."""
    floor = 0.001 * dataset_size
    return abs(synth_count - true_count) / max(true_count, floor)


def evaluate_workload(
    real: BinaryDataset,
    synth: BinaryDataset,
    workload: QueryWorkload,
    acc: float | None = None,
) -> EvalReport:
    """Mean relative error per length subset, for the synthetic data (its
    counts scaled by |real| / |synth|) and for the independent-marginals
    baseline computed from the real data."""
    if real.m != synth.m:
        raise ValueError(f"dimension mismatch: real m={real.m}, synthetic m={synth.m}")
    marginals = real.records.mean(axis=0)
    n = len(real)
    scale = n / max(len(synth), 1)  # an empty synthetic set counts 0 at any scale
    synth_errors = np.zeros(N_SUBSETS)
    base_errors = np.zeros(N_SUBSETS)
    counts = np.zeros(N_SUBSETS, dtype=np.int64)
    true_counts = counting_query(real, workload.queries, workload.semantics).tolist()
    synth_counts = counting_query(synth, workload.queries, workload.semantics).tolist()
    for query, sid, true, got in zip(
        workload.queries, workload.subset_ids, true_counts, synth_counts
    ):
        est = independent_estimate(marginals, query, workload.semantics, n)
        synth_errors[sid - 1] += relative_error(true, got * scale, n)
        base_errors[sid - 1] += relative_error(true, est, n)
        counts[sid - 1] += 1
    if (counts == 0).any():
        raise ValueError("workload must cover all five subsets")
    return EvalReport(
        subset_mean_errors=tuple(float(v) for v in synth_errors / counts),
        baseline_mean_errors=tuple(float(v) for v in base_errors / counts),
        query_count=len(workload),
        sanity_bound=0.001 * n,
        semantics=workload.semantics,
        acc=acc,
    )
