"""Cluster-label matching accuracy and counting-query workloads."""
import itertools
import math

import numpy as np
import pytest

from conftest import make_dataset
from dpmix import evaluation
from dpmix.evaluation import (
    ALL,
    ANY,
    QueryWorkload,
    _max_matching_total,
    clustering_accuracy,
    counting_query,
    evaluate_workload,
    generate_workload,
    independent_estimate,
    relative_error,
)


def _brute_force_accuracy(assignments, labels):
    """Max matched fraction over injective cluster-to-label maps."""
    _, a = np.unique(assignments, return_inverse=True)
    _, b = np.unique(labels, return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    rows, cols = table.shape
    best = 0
    if rows <= cols:
        for perm in itertools.permutations(range(cols), rows):
            best = max(best, sum(table[i, perm[i]] for i in range(rows)))
    else:
        for perm in itertools.permutations(range(rows), cols):
            best = max(best, sum(table[perm[j], j] for j in range(cols)))
    return best / len(assignments)


def test_accuracy_worked_examples():
    labels = np.array([0] * 5 + [1] * 5)
    assert clustering_accuracy(labels, labels) == pytest.approx(1.0)
    # any relabeling of cluster ids is free
    assert clustering_accuracy(1 - labels, labels) == pytest.approx(1.0)
    flipped = labels.copy()
    flipped[:3] = 1
    assert clustering_accuracy(flipped, labels) == pytest.approx(0.7)


def test_accuracy_with_unequal_cluster_and_label_counts():
    labels = np.array([0, 0, 1, 1, 2, 2])
    assignments = np.array([5, 5, 9, 9, 9, 9])  # two clusters, three classes
    assert clustering_accuracy(assignments, labels) == pytest.approx(4 / 6)


def test_accuracy_matches_brute_force_on_random_tables():
    rng = np.random.default_rng(314)
    for trial in range(200):
        n = int(rng.integers(10, 80))
        ka = int(rng.integers(1, 6))
        kb = int(rng.integers(1, 6))
        assignments = rng.integers(0, ka, size=n)
        labels = rng.integers(0, kb, size=n)
        got = clustering_accuracy(assignments, labels)
        want = _brute_force_accuracy(assignments, labels)
        assert got == pytest.approx(want), f"trial {trial}"


def _scipy_total(table):
    # scipy is the oracle here only; dpmix itself does not import it
    optimize = pytest.importorskip("scipy.optimize")
    rows, cols = optimize.linear_sum_assignment(table, maximize=True)
    return int(table[rows, cols].sum())


def _tables(rng):
    """Integer tables up to 40 x 40 of every shape family, with ties."""
    for trial in range(300):
        r, c = (int(v) for v in rng.integers(1, 41, size=2))
        r, c = [(r, c), (max(r, c), max(r, c)), (1, c), (r, 1)][trial % 4]
        hi = (2, 5, 1000)[trial % 3]
        table = rng.integers(0, hi, size=(r, c))
        yield table
        yield table[rng.integers(0, r, size=r)]  # duplicate rows
    for shape in [(1, 1), (7, 7), (3, 40), (40, 3), (40, 40)]:
        yield np.zeros(shape, dtype=np.int64)
        yield np.full(shape, 17)


def test_matching_total_equals_scipy():
    rng = np.random.default_rng(2016)
    for table in _tables(rng):
        assert _max_matching_total(table) == _scipy_total(table), table.shape


def test_accuracy_is_the_scipy_float():
    rng = np.random.default_rng(1955)
    for trial in range(100):
        n = int(rng.integers(1, 3000))
        assignments = rng.integers(0, int(rng.integers(1, 25)), size=n)
        labels = rng.integers(0, int(rng.integers(1, 25)), size=n)
        _, a = np.unique(assignments, return_inverse=True)
        _, b = np.unique(labels, return_inverse=True)
        table = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
        np.add.at(table, (a, b), 1)
        assert clustering_accuracy(assignments, labels) == _scipy_total(table) / n


def test_accuracy_invariant_to_cluster_relabeling():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 4, size=100)
    assignments = rng.integers(0, 4, size=100)
    relabel = np.array([3, 0, 2, 1])
    assert clustering_accuracy(assignments, labels) == pytest.approx(
        clustering_accuracy(relabel[assignments], labels)
    )


def test_accuracy_input_validation():
    with pytest.raises(ValueError):
        clustering_accuracy(np.array([0, 1]), np.array([0]))
    with pytest.raises(ValueError):
        clustering_accuracy(np.array([]), np.array([]))


def _workload(queries, semantics=ANY, subset_ids=None):
    """A QueryWorkload of item tuples, each stored sorted (repeats kept)."""
    queries = [sorted(int(i) for i in query) for query in queries]
    return QueryWorkload(
        items=np.array([i for query in queries for i in query], dtype=np.int64),
        starts=np.cumsum([0] + [len(query) for query in queries]),
        subset_ids=np.ones(len(queries), dtype=np.int64) if subset_ids is None
        else np.asarray(subset_ids),
        semantics=semantics,
    )


def _queries(workload):
    """The workload's queries as tuples of ints."""
    bounds = workload.starts.tolist()
    return [tuple(workload.items[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]


def _reference_workload(m, max_l1, total, rng):
    """The tuple-per-query generator that the array form replaced."""
    queries, subset_ids = [], []
    for i in range(1, 6):
        hi = min(math.ceil(i * max_l1 / 5), m)
        for _ in range(total // 5):
            length = int(rng.integers(1, hi + 1))
            items = rng.choice(m, size=length, replace=False)
            queries.append(tuple(sorted(int(v) for v in items)))
            subset_ids.append(i)
    return queries, subset_ids


def _reference_estimate(marginals, query, semantics, size):
    """One query's expected count if items occurred independently."""
    p = np.asarray(marginals, dtype=np.float64)[list(query)]
    if semantics == ANY:
        return float(size * (1.0 - np.prod(1.0 - p)))
    return float(size * np.prod(p))


def _reference_error(true_count, synth_count, dataset_size):
    """One query's |synth - true| / max(true, 0.001 * |D|)."""
    floor = 0.001 * dataset_size
    return abs(synth_count - true_count) / max(true_count, floor)


def test_workload_shape_and_length_caps():
    rng = np.random.default_rng(12)
    wl = generate_workload(m=30, max_l1=20, total=1000, rng=rng)
    assert len(wl) == 1000
    assert wl.semantics == ANY
    assert wl.items.dtype == np.int64 and wl.starts.dtype == np.int64
    assert wl.starts[0] == 0 and wl.starts[-1] == len(wl.items)
    caps = {1: 4, 2: 8, 3: 12, 4: 16, 5: 20}
    for query, sid in zip(_queries(wl), wl.subset_ids):
        assert 1 <= len(query) <= caps[sid]
        assert len(set(query)) == len(query)
        assert list(query) == sorted(query)
        assert min(query) >= 0 and max(query) < 30
    assert np.bincount(wl.subset_ids, minlength=6)[1:].tolist() == [200] * 5


def test_workload_lengths_capped_at_dimension():
    wl = generate_workload(m=6, max_l1=40, total=50, rng=np.random.default_rng(0))
    assert np.diff(wl.starts).max() <= 6


@pytest.mark.parametrize("m,max_l1", [(30, 20), (6, 40), (1, 5), (50, 7), (784, 300)])
@pytest.mark.parametrize("semantics", [ANY, ALL])
def test_workload_draws_the_tuple_generators_queries(m, max_l1, semantics):
    # the same rng calls in the same order: the queries do not change
    wl = generate_workload(m, max_l1, 100, np.random.default_rng(m), semantics=semantics)
    queries, subset_ids = _reference_workload(m, max_l1, 100, np.random.default_rng(m))
    assert _queries(wl) == queries
    assert wl.subset_ids.tolist() == subset_ids
    assert wl.semantics == semantics


def test_workload_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_workload(m=10, max_l1=8, total=7, rng=rng)
    with pytest.raises(ValueError):
        generate_workload(m=10, max_l1=3, total=10, rng=rng)
    with pytest.raises(ValueError):
        generate_workload(m=10, max_l1=8, total=10, rng=rng, semantics="sum")


def _reference_count(dataset, query, semantics):
    """Per-query loop: records holding any (or all) of the queried items."""
    cols = dataset.records[:, sorted(set(int(i) for i in query))]
    hit = cols.any(axis=1) if semantics == ANY else cols.all(axis=1)
    return int(hit.sum())


def test_counting_query_examples():
    data = make_dataset(np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8))
    counts = counting_query(data, _workload([(0,), (0, 1), (2,), (0, 0, 1)]))
    assert counts.dtype == np.int64
    assert counts.tolist() == [2, 2, 1, 2]
    assert counting_query(data, _workload([(0, 1), (1, 2)], ALL)).tolist() == [1, 0]
    assert counting_query(data, _workload([])).tolist() == []
    with pytest.raises(ValueError, match="semantics must be one of"):
        counting_query(data, _workload([(0,)], "most"))


@pytest.mark.parametrize("items,starts,message", [
    ([0, 1], [0, 2, 2], "at least one item"),
    ([0], [0, 0, 1], "at least one item"),
    ([0, 3], [0, 1, 2], r"must lie in \[0, 3\)"),
    ([-1], [0, 1], r"must lie in \[0, 3\)"),
], ids=["empty-last", "empty-first", "item-too-large", "item-negative"])
def test_counting_query_refuses_a_bad_hand_built_workload(items, starts, message):
    data = make_dataset(np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8))
    wl = QueryWorkload(
        items=np.array(items, dtype=np.int64), starts=np.array(starts),
        subset_ids=np.ones(len(starts) - 1, dtype=np.int64), semantics=ANY,
    )
    with pytest.raises(ValueError, match=message):
        counting_query(data, wl)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("semantics", [ANY, ALL])
def test_counting_query_matches_per_query_loop(m, semantics):
    rng = np.random.default_rng(m)
    data = make_dataset((rng.random((300, m)) < 0.6).astype(np.uint8), allow_empty=True)
    queries = [tuple(rng.integers(0, m, size=rng.integers(1, 9))) for _ in range(200)]
    # items in the last bit of a word and the first of the next, and repeats
    edges = [i for i in (0, 62, 63, 64, 65, 127, 128, m - 1) if i < m]
    queries += [(i,) for i in edges] + [tuple(edges), tuple(edges) * 2, (m - 1, 0, m - 1)]
    want = [_reference_count(data, q, semantics) for q in queries]
    assert counting_query(data, _workload(queries, semantics)).tolist() == want


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
@pytest.mark.parametrize("semantics", [ANY, ALL])
def test_counting_query_in_blocks_matches_per_query_loop(monkeypatch, n, semantics):
    # each item's bitmap fills its last 64-bit word partly or exactly; blocks
    # of two bitmap rows split the queries, and a longer query is a block alone
    n_words = -(-n // 64)
    monkeypatch.setattr(evaluation, "QUERY_BLOCK_BYTES", 2 * max(1, 8 * n_words))
    rng = np.random.default_rng(n)
    data = make_dataset((rng.random((n, 7)) < 0.6).astype(np.uint8), allow_empty=True)
    queries = [tuple(rng.integers(0, 7, size=rng.integers(1, 5))) for _ in range(60)]
    queries += [(6,), tuple(range(7)), (3, 3), (0,)]
    want = [_reference_count(data, q, semantics) for q in queries]
    assert counting_query(data, _workload(queries, semantics)).tolist() == want


def test_independent_estimate_examples():
    marg = np.array([0.5, 0.5, 0.2])
    queries = [(0, 1), (2,)]
    assert independent_estimate(marg, _workload(queries, ANY), 100) == pytest.approx([75, 20])
    assert independent_estimate(marg, _workload(queries, ALL), 100) == pytest.approx([25, 20])


@pytest.mark.parametrize("semantics", [ANY, ALL])
def test_independent_estimate_is_the_per_query_product(semantics):
    # reduceat multiplies each query's factors in the order np.prod does
    rng = np.random.default_rng(8)
    marginals = rng.random(90)
    wl = generate_workload(m=90, max_l1=60, total=300, rng=rng, semantics=semantics)
    want = [_reference_estimate(marginals, q, semantics, 777) for q in _queries(wl)]
    assert independent_estimate(marginals, wl, 777).tolist() == want


def test_relative_error_examples():
    true = np.array([50, 50, 0, 5])
    synth = np.array([50.0, 55.0, 1.0, 10.0])
    got = relative_error(true, synth, 10_000)
    # small-count floor: denominators never drop below 0.001 * |D| = 10
    assert got == pytest.approx([0.0, 0.1, 0.1, 0.5])
    assert got.tolist() == [_reference_error(t, s, 10_000) for t, s in zip(true, synth)]


def test_evaluate_workload_perfect_copy_scores_zero():
    rng = np.random.default_rng(7)
    records = rng.integers(0, 2, size=(400, 12)).astype(np.uint8)
    records[records.sum(axis=1) == 0, 0] = 1
    real = make_dataset(records)
    wl = generate_workload(m=12, max_l1=10, total=100, rng=rng)
    report = evaluate_workload(real, real, wl, acc=0.9)
    assert report.query_count == 100
    assert report.subset_mean_errors == (0.0,) * 5
    assert all(e >= 0 for e in report.baseline_mean_errors)
    assert report.acc == 0.9
    assert report.sanity_bound == pytest.approx(0.4)

    d = report.to_dict()
    assert d["acc"] == 0.9
    assert len(d["subset_mean_errors"]) == 5
    rows = report.csv_rows()
    assert rows[0] == "subset,mean_rel_err,n_queries"
    assert len(rows) == 6
    assert rows[1].startswith("1,0.0,")


def test_evaluate_workload_flags_dimension_mismatch():
    real = make_dataset(np.array([[1, 0]], dtype=np.uint8))
    synth = make_dataset(np.array([[1, 0, 1]], dtype=np.uint8))
    wl = generate_workload(m=2, max_l1=5, total=5, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        evaluate_workload(real, synth, wl)


def test_evaluate_workload_requires_all_subsets():
    real = make_dataset(np.array([[1, 0], [0, 1]], dtype=np.uint8))
    wl = _workload([(0,), (1,)], subset_ids=[1, 2])
    with pytest.raises(ValueError, match="all five subsets"):
        evaluate_workload(real, real, wl)


def test_baseline_detects_correlation_structure():
    # two perfectly correlated items: the independence baseline misses the
    # joint behavior while the faithful copy nails it
    n = 1000
    rng = np.random.default_rng(3)
    bit = rng.integers(0, 2, size=n).astype(np.uint8)
    records = np.stack([bit, bit, np.ones(n, dtype=np.uint8)], axis=1)
    real = make_dataset(records)
    marginals = real.records.mean(axis=0)
    wl = _workload([(0, 1)], ANY)
    true = counting_query(real, wl)
    est = independent_estimate(marginals, wl, n)
    assert relative_error(true, est, n)[0] > 0.2


def test_evaluate_workload_matches_per_query_loop():
    # the array form gives the sums of one counting call, one estimate and
    # two errors per query, added per subset in query order, synthetic
    # counts scaled to |real|
    rng = np.random.default_rng(11)
    real = make_dataset((rng.random((500, 70)) < 0.2).astype(np.uint8), allow_empty=True)
    synth = make_dataset((rng.random((400, 70)) < 0.25).astype(np.uint8), allow_empty=True)
    for semantics in (ANY, ALL):
        wl = generate_workload(m=70, max_l1=12, total=200, rng=rng, semantics=semantics)
        marginals = real.records.mean(axis=0)
        synth_sums, base_sums = np.zeros(5), np.zeros(5)
        for query, sid in zip(_queries(wl), wl.subset_ids):
            true = _reference_count(real, query, semantics)
            got = _reference_count(synth, query, semantics) * (len(real) / len(synth))
            est = _reference_estimate(marginals, query, semantics, len(real))
            synth_sums[sid - 1] += _reference_error(true, got, len(real))
            base_sums[sid - 1] += _reference_error(true, est, len(real))
        report = evaluate_workload(real, synth, wl)
        assert report.subset_mean_errors == tuple((synth_sums / 40).tolist())
        assert report.baseline_mean_errors == tuple((base_sums / 40).tolist())


@pytest.mark.parametrize("copies", [0, 1, 2])
def test_synthetic_counts_are_scaled_to_the_real_size(copies):
    # a synthetic set that holds every real record once or twice answers
    # each query in the real data's proportions, so every error is 0; an
    # empty one counts 0 on every query, which scaling cannot change
    rng = np.random.default_rng(4)
    real = make_dataset((rng.random((300, 40)) < 0.2).astype(np.uint8), allow_empty=True)
    synth = make_dataset(np.tile(real.records, (copies, 1)), allow_empty=True)
    for semantics in (ANY, ALL):
        wl = generate_workload(m=40, max_l1=10, total=100, rng=rng, semantics=semantics)
        errors = evaluate_workload(real, synth, wl).subset_mean_errors
        if copies:
            assert errors == (0.0,) * 5
        else:
            want = relative_error(counting_query(real, wl), np.zeros(len(wl)), len(real))
            ids = wl.subset_ids
            assert errors == pytest.approx([want[ids == s].mean() for s in range(1, 6)])
