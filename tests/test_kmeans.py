"""Noisy Lloyd clustering over clipped feature embeddings."""
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import mixture_corpus
from dpmix.data import make_dataset
from dpmix.kmeans import (
    _cluster_sums,
    assign_to_centers,
    clip_features,
    default_initial_centers,
    dp_kernel_kmeans,
)
from dpmix.rff import embed, feature_map_from_seed


def _direct_assign(features, centers):
    """The n x k x d direct form that assign_to_centers must match exactly."""
    d2 = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def _lloyd_reference(clipped, init, iterations):
    """Plain Lloyd on precomputed rows; empty clusters keep their center."""
    centers = init.copy()
    k = len(centers)
    for _ in range(iterations):
        assign = assign_to_centers(clipped, centers)
        for i in range(k):
            members = clipped[assign == i]
            if len(members):
                centers[i] = members.mean(axis=0)
    return centers, assign_to_centers(clipped, centers)


def test_clip_worked_examples():
    out = clip_features(np.array([[3.0, 4.0], [0.3, 0.4]]), 1.0)
    assert_allclose(out, [[0.6, 0.8], [0.3, 0.4]])
    # exactly on the bound: untouched
    assert_allclose(clip_features(np.array([[1.0, 0.0]]), 1.0), [[1.0, 0.0]])
    with pytest.raises(ValueError):
        clip_features(np.ones((2, 2)), 0.0)


def test_assignment_ties_take_lower_index():
    centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert assign_to_centers(np.array([[0.0, 0.0]]), centers)[0] == 0
    assert assign_to_centers(np.array([[-0.4, 0.0]]), centers)[0] == 1


def _unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


@pytest.mark.parametrize("n,k,d", [(500, 7, 40), (300, 3, 1), (40, 1, 9), (60, 60, 5)],
                         ids=["random", "one-column", "k=1", "k=n"])
def test_assignment_matches_direct_form(n, k, d):
    rng = np.random.default_rng(n + k + d)
    features = _unit_rows(rng, n, d)
    for centers in (rng.normal(size=(k, d)), 30.0 * rng.normal(size=(k, d)),
                    features[rng.choice(n, size=k, replace=False)]):
        assert np.array_equal(assign_to_centers(features, centers),
                              _direct_assign(features, centers))


def test_assignment_exact_ties_match_direct_form():
    rng = np.random.default_rng(5)
    centers = rng.normal(size=(6, 3))
    centers[4] = centers[1]  # a duplicate center ties on every row
    centers[5] = centers[0][[1, 0, 2]]  # mirror image of center 0
    features = rng.normal(size=(400, 3))
    features[:, 1] = features[:, 0]  # on the mirror plane
    direct = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(direct[:, 0], direct[:, 5])
    got = assign_to_centers(features, centers)
    assert np.array_equal(got, _direct_assign(features, centers))
    assert not np.isin(got, [4, 5]).any()


def test_assignment_near_ties_match_direct_form():
    rng = np.random.default_rng(6)
    k, d = 5, 30
    centers = _unit_rows(rng, k, d)
    a, b = centers[0], centers[3]
    normal = (a - b) / np.linalg.norm(a - b)
    along = rng.normal(size=(400, d))
    along -= np.outer(along @ normal, normal)  # stay on the bisector plane
    features = 0.5 * (a + b) + 0.1 * along
    # move one coordinate of each point by one ulp, toward either side
    cols = rng.integers(d, size=len(features))
    rows = np.arange(len(features))
    toward = np.where(rng.random(len(features)) < 0.5, np.inf, -np.inf)
    features[rows, cols] = np.nextafter(features[rows, cols], toward)
    got = assign_to_centers(features, centers)
    assert np.array_equal(got, _direct_assign(features, centers))
    assert set(got) <= {0, 3}
    f_sq = np.einsum("ij,ij->i", features, features)
    assert np.array_equal(assign_to_centers(features, centers, f_sq), got)


def test_assignment_peak_memory_is_n_by_k():
    # the direct form's n x k x d difference alone would be 320 MB here
    rng = np.random.default_rng(7)
    features = _unit_rows(rng, 20_000, 200)
    centers = 0.1 * rng.normal(size=(10, 200))
    tracemalloc.start()
    try:
        assign_to_centers(features, centers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("d", [1, 2, 200])
def test_cluster_sums_match_add_at(d):
    rng = np.random.default_rng(d)
    rows = rng.normal(size=(3000, d)) * rng.uniform(0, 1e3, size=(3000, 1))
    assign = rng.integers(0, 6, size=3000)
    assign[assign == 4] = 5  # one empty cluster
    want = np.zeros((6, d))
    np.add.at(want, assign, rows)
    assert np.array_equal(_cluster_sums(rows, assign, 6), want)


def test_default_centers_sit_on_clip_sphere():
    rng = np.random.default_rng(8)
    centers = default_initial_centers(5, 30, 0.7, rng)
    assert centers.shape == (5, 30)
    assert_allclose(np.linalg.norm(centers, axis=1), np.full(5, 0.7), rtol=1e-12)


def test_zero_noise_reproduces_exact_lloyd():
    rng = np.random.default_rng(31)
    data = mixture_corpus(300, 12, 3, rng)
    fmap = feature_map_from_seed(m=12, d=24, gamma=0.3, seed=5)
    clipped = clip_features(embed(fmap, data.records), 1.0)
    init = default_initial_centers(3, 24, 1.0, np.random.default_rng(2))

    result = dp_kernel_kmeans(
        data, fmap, k=3, iterations=6, sigma_c=0.0, sigma_k=0.0,
        rng=np.random.default_rng(0), init=init,
    )
    want_centers, want_assign = _lloyd_reference(clipped, init, 6)
    assert_allclose(result.noisy_centers, want_centers, atol=1e-12)
    assert np.array_equal(result.assignments, want_assign)
    assert result.clip_bound == 1.0
    # noiseless counts are exact and cover every record
    assert result.size_history.shape == (6, 3)
    assert_allclose(result.size_history.sum(axis=1), np.full(6, 300.0))
    assert_allclose(result.noisy_sizes, result.size_history[-1])


def test_single_cluster_center_is_clipped_mean():
    rng = np.random.default_rng(4)
    data = mixture_corpus(80, 10, 2, rng)
    fmap = feature_map_from_seed(m=10, d=16, gamma=0.5, seed=9)
    result = dp_kernel_kmeans(
        data, fmap, k=1, iterations=3, sigma_c=0.0, sigma_k=0.0,
        rng=np.random.default_rng(0), init=np.zeros((1, 16)),
    )
    clipped = clip_features(embed(fmap, data.records), 1.0)
    assert_allclose(result.noisy_centers[0], clipped.mean(axis=0), atol=1e-12)
    assert np.all(result.assignments == 0)


def test_rbf_mode_never_consumes_threshold_noise():
    rng = np.random.default_rng(12)
    data = mixture_corpus(150, 8, 2, rng)
    fmap = feature_map_from_seed(m=8, d=20, gamma=0.4, seed=1)
    runs = []
    for sigma_c in (0.0, 57.0):
        out = dp_kernel_kmeans(
            data, fmap, k=2, iterations=4, sigma_c=sigma_c, sigma_k=3.0,
            rng=np.random.default_rng(2024), init_rng=np.random.default_rng(6),
        )
        runs.append(out)
    assert_allclose(runs[0].noisy_centers, runs[1].noisy_centers)
    assert np.array_equal(runs[0].assignments, runs[1].assignments)
    assert runs[0].clip_bound == runs[1].clip_bound == 1.0


def test_full_mode_bound_comes_from_histogram_edges():
    rng = np.random.default_rng(3)
    data = mixture_corpus(200, 10, 2, rng)
    fmap = feature_map_from_seed(m=10, d=16, gamma=0.5, seed=2)
    out = dp_kernel_kmeans(
        data, fmap, k=2, iterations=2, sigma_c=2.0, sigma_k=2.0,
        rng=np.random.default_rng(10), init_rng=np.random.default_rng(1),
        rbf_mode=False, c_max=10.0, bins=100,
    )
    scaled = out.clip_bound * 100 / 10.0
    assert scaled == pytest.approx(round(scaled))
    assert 0 < out.clip_bound <= 10.0


def test_noiseless_objective_never_increases():
    rng = np.random.default_rng(77)
    data = mixture_corpus(240, 12, 3, rng)
    fmap = feature_map_from_seed(m=12, d=18, gamma=0.3, seed=7)
    clipped = clip_features(embed(fmap, data.records), 1.0)
    init = default_initial_centers(3, 18, 1.0, np.random.default_rng(5))
    objectives = []
    for t in range(1, 7):
        out = dp_kernel_kmeans(
            data, fmap, k=3, iterations=t, sigma_c=0.0, sigma_k=0.0,
            rng=np.random.default_rng(0), init=init,
        )
        d2 = ((clipped[:, None, :] - out.noisy_centers[None, :, :]) ** 2).sum(axis=2)
        objectives.append(d2.min(axis=1).sum())
    assert all(a >= b - 1e-9 for a, b in zip(objectives, objectives[1:]))


def test_empty_cluster_keeps_center_when_noiseless():
    records = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
    data = make_dataset(records)
    fmap = feature_map_from_seed(m=2, d=6, gamma=1.0, seed=4)
    far = np.full(6, 50.0)
    init = np.vstack([np.zeros(6), far])
    out = dp_kernel_kmeans(
        data, fmap, k=2, iterations=3, sigma_c=0.0, sigma_k=0.0,
        rng=np.random.default_rng(0), init=init,
    )
    assert_allclose(out.noisy_centers[1], far)
    assert np.all(out.assignments == 0)


def test_single_record_change_touches_at_most_two_clusters():
    # the per-iteration release is (count, sum) per cluster; replacing one
    # record must change at most two clusters' aggregates, counts by at
    # most one each, sums by at most 2 * clip bound in total
    rng = np.random.default_rng(55)
    fmap = feature_map_from_seed(m=9, d=14, gamma=0.4, seed=11)
    centers = default_initial_centers(4, 14, 1.0, np.random.default_rng(3))
    for trial in range(25):
        records = rng.integers(0, 2, size=(60, 9)).astype(np.uint8)
        records[records.sum(axis=1) == 0, 0] = 1
        swapped = records.copy()
        row = int(rng.integers(60))
        swapped[row] = 1 - swapped[row]
        if swapped[row].sum() == 0:
            swapped[row, 0] = 1

        stats = []
        for recs in (records, swapped):
            clipped = clip_features(embed(fmap, recs), 1.0)
            assign = assign_to_centers(clipped, centers)
            counts = np.bincount(assign, minlength=4).astype(float)
            sums = _cluster_sums(clipped, assign, 4)
            stats.append((counts, sums))
        (c0, s0), (c1, s1) = stats
        changed = np.flatnonzero(
            (c0 != c1) | (np.linalg.norm(s0 - s1, axis=1) > 1e-12)
        )
        assert len(changed) <= 2, f"trial {trial}"
        assert np.abs(c0 - c1).max() <= 1.0
        assert np.linalg.norm(s0 - s1, axis=1).sum() <= 2.0 + 1e-9


def test_argument_validation():
    rng = np.random.default_rng(0)
    data = make_dataset(np.array([[1, 0], [0, 1]], dtype=np.uint8))
    fmap = feature_map_from_seed(m=2, d=4, gamma=1.0, seed=0)
    with pytest.raises(ValueError):
        dp_kernel_kmeans(data, fmap, k=3, iterations=1, sigma_c=1.0,
                         sigma_k=1.0, rng=rng)
    with pytest.raises(ValueError):
        dp_kernel_kmeans(data, fmap, k=1, iterations=0, sigma_c=1.0,
                         sigma_k=1.0, rng=rng)
    with pytest.raises(ValueError):
        dp_kernel_kmeans(data, fmap, k=1, iterations=1, sigma_c=1.0,
                         sigma_k=-2.0, rng=rng)
    with pytest.raises(ValueError):
        dp_kernel_kmeans(data, fmap, k=2, iterations=1, sigma_c=0.0,
                         sigma_k=0.0, rng=rng, init=np.zeros((2, 3)))
    # checked in rbf_mode too, where no threshold vote uses them
    for bad in ({"bins": 0}, {"c_max": 0.0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            dp_kernel_kmeans(data, fmap, k=1, iterations=1, sigma_c=1.0,
                             sigma_k=1.0, rng=rng, **bad)
