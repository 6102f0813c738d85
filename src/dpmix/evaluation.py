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

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import BinaryDataset

ANY = "any"
ALL = "all"
SEMANTICS = (ANY, ALL)
N_SUBSETS = 5


@dataclass(frozen=True)
class QueryWorkload:
    """Item-subset counting queries, tagged with their length-subset id (1..5)."""

    queries: tuple[tuple[int, ...], ...]
    subset_ids: np.ndarray
    semantics: str
    max_l1: int

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
    """Best one-to-one cluster-to-label matching, as a fraction of records."""
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
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].sum() / assignments.size)


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
        max_l1=int(max_l1),
    )


def counting_query(dataset: BinaryDataset, query, semantics: str = ANY) -> int:
    """Number of records holding any (or all) of the queried items."""
    if semantics not in SEMANTICS:
        raise ValueError(f"semantics must be one of {SEMANTICS}, got {semantics!r}")
    items = np.asarray(sorted(set(int(i) for i in query)), dtype=np.int64)
    if items.size == 0:
        raise ValueError("query must contain at least one item")
    if (items < 0).any() or (items >= dataset.m).any():
        raise ValueError(f"query items must lie in [0, {dataset.m})")
    cols = dataset.records[:, items]
    hit = cols.any(axis=1) if semantics == ANY else cols.all(axis=1)
    return int(hit.sum())


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
    """Mean relative error per length subset, for the synthetic data and
    for the independent-marginals baseline computed from the real data."""
    if real.m != synth.m:
        raise ValueError(f"dimension mismatch: real m={real.m}, synthetic m={synth.m}")
    marginals = real.records.mean(axis=0)
    n = len(real)
    synth_errors = np.zeros(N_SUBSETS)
    base_errors = np.zeros(N_SUBSETS)
    counts = np.zeros(N_SUBSETS, dtype=np.int64)
    for query, sid in zip(workload.queries, workload.subset_ids):
        true = counting_query(real, query, workload.semantics)
        got = counting_query(synth, query, workload.semantics)
        est = independent_estimate(marginals, query, workload.semantics, n)
        synth_errors[sid - 1] += relative_error(true, got, n)
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
