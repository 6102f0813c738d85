"""Noisy Lloyd clustering over clipped feature embeddings."""
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import ZeroNoise, make_dataset, mixture_corpus, one_call_clip
from dpmix import kmeans, threads
from dpmix.kmeans import (
    ASSIGN_ROWS,
    BLOCK_ROWS,
    CLIP_BOUND,
    CLIP_TARGET,
    AssignmentBuffers,
    _cluster_sums,
    assign_to_centers,
    clip_embedding,
    clustering_stage,
    default_initial_centers,
    dp_kernel_kmeans,
)
from dpmix.rff import EMBED_BLOCK_ROWS, embed, feature_map_from_seed


def _direct_assign(features, centers):
    """The n x k x d direct float64 form that assign_to_centers must match exactly."""
    features = np.asarray(features, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
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
                centers[i] = members.mean(axis=0, dtype=np.float64)
    return centers, assign_to_centers(clipped, centers)


def test_clip_worked_examples():
    # the bound is the public CLIP_BOUND = 1; the squares are of the clipped
    # float32 rows, and a clipped row lands just inside the bound
    squares = clip_embedding(np.array([[3.0, 4.0], [0.3, 0.4]], dtype=np.float32))
    assert_allclose(squares, [1.0, 0.25], rtol=1e-6)
    assert squares[0] <= CLIP_BOUND**2
    # exactly on the bound: untouched
    rows = np.array([[1.0, 0.0]], dtype=np.float32)
    assert np.array_equal(clip_embedding(rows), [1.0])
    assert np.array_equal(rows, [[1.0, 0.0]])


def test_clip_is_in_place():
    rows = np.array([[3.0, 4.0], [0.3, 0.4]], dtype=np.float32)
    inside = rows[1].copy()
    clip_embedding(rows)
    assert rows.dtype == np.float32
    assert_allclose(rows, [[0.6, 0.8], [0.3, 0.4]], rtol=1e-6)
    assert np.array_equal(rows[1], inside)


def _adversarial_rows(d):
    """float32 rows at and around CLIP_BOUND that rounding could push past it."""
    rng = np.random.default_rng(d)
    equal = np.full(d, CLIP_BOUND / np.sqrt(d), dtype=np.float32)  # equal components
    units = rng.normal(size=(50, d))
    units /= np.linalg.norm(units, axis=1)[:, None]
    units = units.astype(np.float32)
    rows = [equal, *units, np.zeros(d, dtype=np.float32)]
    for row in [equal, *units]:
        # the row one float32 step above and one below itself, each entry moved
        rows += [np.nextafter(row, 2 * row), np.nextafter(row, row / 2), 2.0 * row, 1e6 * row]
    exact = np.zeros((2, d), dtype=np.float32)  # float64 norms exactly CLIP_BOUND
    exact[0, 0] = CLIP_BOUND
    if d >= 4:
        exact[1, :4] = CLIP_BOUND / 2
    scaled = rng.normal(size=(200, d)) * rng.uniform(0, 3, size=(200, 1))
    return np.vstack([np.array(rows, dtype=np.float32), exact, scaled.astype(np.float32)])


@pytest.mark.parametrize("d", [1, 2, 3, 7, 200, 1000])
def test_every_clipped_row_lies_within_the_bound(d):
    # the charged sensitivity C_s is CLIP_BOUND: no row may leave the clip
    # with a float64 norm above it, and a row inside it is left as it is
    rows = _adversarial_rows(d)
    before = rows.copy()
    wide = np.linalg.norm(before.astype(np.float64), axis=1)
    assert (wide > CLIP_BOUND).any() and (wide == CLIP_BOUND).any()
    assert (np.abs(wide - CLIP_BOUND) < 1e-6).any()  # rows right at the bound
    f_sq = clip_embedding(rows)
    after = np.linalg.norm(rows.astype(np.float64), axis=1)
    assert np.all(after <= CLIP_BOUND)
    assert np.all(f_sq <= CLIP_BOUND**2)
    inside = wide <= CLIP_BOUND
    assert np.array_equal(rows[inside], before[inside])
    assert np.all(after[~inside] >= CLIP_TARGET * (1 - 1e-6))


def test_clustering_clips_like_the_one_call_form(monkeypatch):
    # several blocks and rows on both sides of the bound: the rows that
    # clustering clips and the squares it keeps are bit for bit those of
    # the one-call forms
    rng = np.random.default_rng(21)
    data = mixture_corpus(3 * BLOCK_ROWS + 7, 30, 3, rng)
    fmap = feature_map_from_seed(m=30, d=40, gamma=0.2, seed=8)
    seen = []

    def recording_clip(features):
        f_sq = clip_embedding(features)
        seen.append((features.copy(), f_sq.copy()))
        return f_sq

    monkeypatch.setattr(kmeans, "clip_embedding", recording_clip)
    dp_kernel_kmeans(
        data, fmap, k=3, iterations=1, sigma_k=1.0,
        rng=np.random.default_rng(40), init_rng=np.random.default_rng(1),
    )
    features = embed(fmap, data.records)
    want = one_call_clip(features)
    assert len(seen) == 1
    clipped, f_sq = seen[0]
    assert np.array_equal(clipped, want)
    wide = want.astype(np.float64)
    assert np.array_equal(f_sq, np.einsum("ij,ij->i", wide, wide))
    norms = np.linalg.norm(features, axis=1)
    assert (norms > CLIP_BOUND).any() and (norms < CLIP_BOUND).any()


def test_clustering_holds_one_feature_matrix():
    # the float32 embedding is the only (n, d) array; every other temporary
    # is BLOCK_ROWS rows or n x k
    n, d = 20_000, 100
    data = mixture_corpus(n, 20, 3, np.random.default_rng(9))
    fmap = feature_map_from_seed(m=20, d=d, gamma=0.3, seed=4)
    tracemalloc.start()
    try:
        dp_kernel_kmeans(data, fmap, k=3, iterations=2, sigma_k=1.0,
                         rng=np.random.default_rng(0), init_rng=np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * 4 * n * d


def test_assignment_ties_take_lower_index():
    centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert assign_to_centers(np.array([[0.0, 0.0]]), centers)[0] == 0
    assert assign_to_centers(np.array([[-0.4, 0.0]]), centers)[0] == 1


def _unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return (rows / np.linalg.norm(rows, axis=1)[:, None]).astype(np.float32)


@pytest.mark.parametrize("n,k,d", [(500, 7, 40), (300, 3, 1), (40, 1, 9), (60, 60, 5)],
                         ids=["random", "one-column", "k=1", "k=n"])
def test_assignment_matches_direct_form(n, k, d):
    rng = np.random.default_rng(n + k + d)
    features = _unit_rows(rng, n, d)
    # the last set has one center beyond float32's range: its float32 product
    # is infinite, or NaN, while the other centers' are finite
    for centers in (rng.normal(size=(k, d)), 30.0 * rng.normal(size=(k, d)),
                    features[rng.choice(n, size=k, replace=False)],
                    np.vstack([rng.normal(size=(k - 1, d)), 1e50 * rng.normal(size=(1, d))])):
        assert np.array_equal(assign_to_centers(features, centers),
                              _direct_assign(features, centers))


def test_assignment_exact_ties_match_direct_form():
    rng = np.random.default_rng(5)
    centers = rng.normal(size=(6, 3))
    centers[4] = centers[1]  # a duplicate center ties on every row
    centers[5] = centers[0][[1, 0, 2]]  # mirror image of center 0
    features = rng.normal(size=(400, 3)).astype(np.float32)
    features[:, 1] = features[:, 0]  # on the mirror plane
    direct = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(direct[:, 0], direct[:, 5])
    got = assign_to_centers(features, centers)
    assert np.array_equal(got, _direct_assign(features, centers))
    assert not np.isin(got, [4, 5]).any()


@pytest.mark.parametrize("n,cpus,spread", [(400, 2, 0.1), (3 * ASSIGN_ROWS + 5, 3, 0.05)])
def test_assignment_near_ties_match_direct_form(monkeypatch, n, cpus, spread):
    # every row is a near tie, in one row range or in each of three
    monkeypatch.setattr(threads, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(6)
    k, d = 5, 30
    centers = _unit_rows(rng, k, d).astype(np.float64)
    a, b = centers[0], centers[3]
    normal = (a - b) / np.linalg.norm(a - b)
    along = rng.normal(size=(n, d))
    along -= np.outer(along @ normal, normal)  # stay on the bisector plane
    features = (0.5 * (a + b) + spread * along).astype(np.float32)
    # move one coordinate of each point by one float32 ulp, toward either side
    cols = rng.integers(d, size=len(features))
    rows = np.arange(len(features))
    toward = np.where(rng.random(len(features)) < 0.5, np.inf, -np.inf)
    features[rows, cols] = np.nextafter(features[rows, cols], toward.astype(np.float32))
    got = assign_to_centers(features, centers)
    assert np.array_equal(got, _direct_assign(features, centers))
    assert set(got) <= {0, 3}
    # the squared norms a caller passes in, and buffers used for a second call
    wide = features.astype(np.float64)
    buffers = AssignmentBuffers.for_rows(features, k, np.einsum("ij,ij->i", wide, wide))
    assert np.array_equal(assign_to_centers(features, centers[::-1], buffers), 4 - got)
    assert np.array_equal(assign_to_centers(features, centers, buffers), got)


def _assign_with_peak(features, centers):
    tracemalloc.start()
    try:
        got = assign_to_centers(features, centers)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assignment_peak_memory_is_n_by_k():
    # the direct form's n x k x d difference alone would be 320 MB here
    rng = np.random.default_rng(7)
    features = _unit_rows(rng, 20_000, 200)
    centers = 0.1 * rng.normal(size=(10, 200))
    assert _assign_with_peak(features, centers)[1] < 16e6


def test_assignment_peak_memory_with_duplicate_centers():
    # every row is a near tie and is rechecked in the direct form, in row blocks
    rng = np.random.default_rng(7)
    features = _unit_rows(rng, 20_000, 200)
    centers = 0.1 * rng.normal(size=(10, 200))
    centers[5:] = centers[:5]
    got, peak = _assign_with_peak(features, centers)
    assert peak < 16e6
    assert np.array_equal(got[:500], _direct_assign(features[:500], centers))
    assert got.max() < 5


def _check_sums_match_add_at(rows, assign, k):
    want = np.zeros((k, rows.shape[1]))
    np.add.at(want, assign, rows.astype(np.float64))
    assert np.array_equal(_cluster_sums(rows, assign, k), want)


@pytest.mark.parametrize("d", [1, 2, 200])
def test_cluster_sums_match_add_at(d):
    rng = np.random.default_rng(d)
    rows = (rng.normal(size=(3000, d)) * rng.uniform(0, 1e3, size=(3000, 1))).astype(np.float32)
    assign = rng.integers(0, 6, size=3000)
    assign[assign == 4] = 5  # one empty cluster
    _check_sums_match_add_at(rows, assign, 6)


@pytest.mark.parametrize("d", [2, 200])
def test_cluster_sums_match_add_at_across_gather_chunks(d):
    rng = np.random.default_rng(d)
    rows = (rng.normal(size=(3000, d)) * rng.uniform(0, 1e3, size=(3000, 1))).astype(np.float32)
    assign = np.where(rng.random(3000) < 0.95, 2, rng.integers(0, 6, size=3000))
    assert (assign == 2).sum() > 8 * BLOCK_ROWS  # one cluster spans many chunks
    _check_sums_match_add_at(rows, assign, 6)


def test_default_centers_sit_on_clip_sphere():
    rng = np.random.default_rng(8)
    centers = default_initial_centers(5, 30, rng)
    assert centers.shape == (5, 30)
    assert_allclose(np.linalg.norm(centers, axis=1), np.full(5, CLIP_BOUND), rtol=1e-12)


def test_zero_noise_reproduces_exact_lloyd():
    rng = np.random.default_rng(31)
    data = mixture_corpus(300, 12, 3, rng)
    fmap = feature_map_from_seed(m=12, d=24, gamma=0.3, seed=5)
    clipped = one_call_clip(embed(fmap, data.records))
    init = default_initial_centers(3, 24, np.random.default_rng(2))

    result = dp_kernel_kmeans(
        data, fmap, k=3, iterations=6, sigma_k=1.0,
        rng=ZeroNoise(np.random.default_rng(0)), init=init, init_rng=np.random.default_rng(1),
    )
    want_centers, want_assign = _lloyd_reference(clipped, init, 6)
    assert_allclose(result.noisy_centers, want_centers, atol=1e-12)
    assert np.array_equal(result.assignments, want_assign)
    # noiseless counts are exact and cover every record
    assert result.size_history.shape == (6, 3)
    assert_allclose(result.size_history.sum(axis=1), np.full(6, 300.0))
    assert_allclose(result.noisy_sizes, result.size_history[-1])


def test_single_cluster_center_is_clipped_mean():
    rng = np.random.default_rng(4)
    data = mixture_corpus(80, 10, 2, rng)
    fmap = feature_map_from_seed(m=10, d=16, gamma=0.5, seed=9)
    result = dp_kernel_kmeans(
        data, fmap, k=1, iterations=3, sigma_k=1.0,
        rng=ZeroNoise(np.random.default_rng(0)), init=np.zeros((1, 16)),
        init_rng=np.random.default_rng(1),
    )
    clipped = one_call_clip(embed(fmap, data.records))
    assert_allclose(result.noisy_centers[0], clipped.mean(axis=0, dtype=np.float64), atol=1e-12)
    assert np.all(result.assignments == 0)


class _DrawLog:
    """A noise stream that records the shape of every ``normal`` draw."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.shapes = []

    def normal(self, loc=0.0, scale=1.0, size=None):
        drawn = self.rng.normal(loc, scale, size)
        self.shapes.append(np.shape(drawn))
        return drawn


def test_clustering_draws_only_counts_and_sums():
    # the clip bound is public, so the noise stream holds the released
    # counts and sums and nothing else: per iteration, k normals for the
    # counts, then k * d for the sums
    rng = np.random.default_rng(12)
    data = mixture_corpus(150, 8, 2, rng)
    fmap = feature_map_from_seed(m=8, d=20, gamma=0.4, seed=1)
    noise = _DrawLog(np.random.default_rng(2024))
    dp_kernel_kmeans(data, fmap, k=2, iterations=4, sigma_k=3.0, rng=noise,
                     init_rng=np.random.default_rng(6))
    assert noise.shapes == [(2,), (2, 20)] * 4
    want = np.random.default_rng(2024)
    for _ in range(4):
        want.normal(size=2)
        want.normal(size=(2, 20))
    assert noise.rng.bit_generator.state == want.bit_generator.state


def test_one_iteration_replays_from_a_copy_of_the_noise_stream():
    # rebuild one iteration by hand: direct assignment, np.add.at sums,
    # then k count draws and k * d sum draws from a copy of the stream.
    # Center 1 lies far from every record, so its noisy count is below 1
    # and it keeps its place; center 0 moves to its noisy mean.
    fmap = feature_map_from_seed(m=8, d=12, gamma=0.5, seed=21)
    data = mixture_corpus(90, 8, 2, np.random.default_rng(8))
    init = np.vstack([np.zeros(12), np.full(12, 40.0)])
    sigma = 0.3
    out = dp_kernel_kmeans(data, fmap, k=2, iterations=1, sigma_k=sigma,
                           rng=np.random.default_rng(31), init=init,
                           init_rng=np.random.default_rng(1))

    clipped = one_call_clip(embed(fmap, data.records))
    assign = _direct_assign(clipped, init)
    sums = np.zeros((2, 12))
    np.add.at(sums, assign, clipped)
    copy = np.random.default_rng(31)
    noisy_counts = np.bincount(assign, minlength=2) + copy.normal(
        0.0, np.sqrt(2.0) * sigma * 1.0, size=2)
    noisy_sums = sums + copy.normal(0.0, np.sqrt(2.0) * sigma * CLIP_BOUND, size=(2, 12))
    assert noisy_counts[0] >= 1 > noisy_counts[1]
    want = np.vstack([noisy_sums[0] / noisy_counts[0], init[1]])

    assert np.array_equal(out.size_history, noisy_counts[None, :])
    assert np.array_equal(out.noisy_centers, want)
    assert np.array_equal(out.assignments, _direct_assign(clipped, want))


def test_noiseless_objective_never_increases():
    rng = np.random.default_rng(77)
    data = mixture_corpus(240, 12, 3, rng)
    fmap = feature_map_from_seed(m=12, d=18, gamma=0.3, seed=7)
    clipped = one_call_clip(embed(fmap, data.records))
    init = default_initial_centers(3, 18, np.random.default_rng(5))
    objectives = []
    for t in range(1, 7):
        out = dp_kernel_kmeans(
            data, fmap, k=3, iterations=t, sigma_k=1.0,
            rng=ZeroNoise(np.random.default_rng(0)), init=init, init_rng=np.random.default_rng(1),
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
        data, fmap, k=2, iterations=3, sigma_k=1.0,
        rng=ZeroNoise(np.random.default_rng(0)), init=init, init_rng=np.random.default_rng(1),
    )
    assert_allclose(out.noisy_centers[1], far)
    assert np.all(out.assignments == 0)


def test_released_noisy_sums_move_by_at_most_the_clip_bound():
    # one iteration on D and on D plus a canary, with the same noise stream:
    # the canary joins cluster 1, which is empty without it and whose
    # previous center lies far outside the clip ball.  Wherever both noisy
    # counts are at least 1, the released noisy sums (center times noisy
    # count) may differ by at most C_s = 1, the sensitivity that
    # the "kmeans-sums" charge assumes.
    fmap = feature_map_from_seed(m=8, d=16, gamma=0.5, seed=13)
    a = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
    canary = 1 - a
    phi = one_call_clip(embed(fmap, np.vstack([a, canary])))
    units = phi / np.linalg.norm(phi, axis=1)[:, None]
    e = (units[1] - units[0]) / np.linalg.norm(units[1] - units[0])
    init = np.vstack([-10.0 * e, 10.0 * e])  # a goes to center 0, the canary to 1
    base = make_dataset(np.tile(a, (40, 1)))
    plus = make_dataset(np.vstack([np.tile(a, (40, 1)), canary]))
    compared = 0
    for seed in range(40):
        released = []
        for data in (base, plus):
            out = dp_kernel_kmeans(data, fmap, k=2, iterations=1, sigma_k=2.0,
                                   rng=np.random.default_rng(seed), init=init,
                                   init_rng=np.random.default_rng(1))
            released.append((out.noisy_sizes, out.noisy_centers * out.noisy_sizes[:, None]))
        (size0, sums0), (size1, sums1) = released
        both = (size0 >= 1) & (size1 >= 1)
        gaps = np.linalg.norm(sums0 - sums1, axis=1)[both]
        assert np.all(gaps <= 1.0 + 1e-9), (seed, gaps)
        compared += int(both[1])
    assert compared >= 5  # the canary's cluster was compared often enough


def test_single_record_change_touches_at_most_two_clusters():
    # the per-iteration release is (count, sum) per cluster; replacing one
    # record must change at most two clusters' aggregates, counts by at
    # most one each, sums by at most 2 * clip bound in total
    rng = np.random.default_rng(55)
    fmap = feature_map_from_seed(m=9, d=14, gamma=0.4, seed=11)
    centers = default_initial_centers(4, 14, np.random.default_rng(3))
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
            clipped = one_call_clip(embed(fmap, recs))
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
    fixed = dict(rng=rng, init_rng=np.random.default_rng(1))
    with pytest.raises(ValueError):
        dp_kernel_kmeans(data, fmap, k=3, iterations=1, sigma_k=1.0, **fixed)
    with pytest.raises(ValueError):
        dp_kernel_kmeans(data, fmap, k=1, iterations=0, sigma_k=1.0, **fixed)
    with pytest.raises(ValueError):
        dp_kernel_kmeans(data, fmap, k=1, iterations=1, sigma_k=-2.0, **fixed)
    with pytest.raises(ValueError):
        dp_kernel_kmeans(data, fmap, k=2, iterations=1, sigma_k=1.0, init=np.zeros((2, 3)),
                         **fixed)


def test_clustering_does_not_depend_on_the_thread_count(monkeypatch):
    # n is a multiple of no block size, so every split has a short last
    # block; the threads switch as often as the interpreter can
    n = 3 * ASSIGN_ROWS + 37
    assert all(n % size for size in (EMBED_BLOCK_ROWS, BLOCK_ROWS, ASSIGN_ROWS))
    data = mixture_corpus(n, 30, 4, np.random.default_rng(12))
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(threads, "_usable_cpus", lambda n=cpus: n)
            out = clustering_stage(data, 77, k=4, d=40, gamma=0.2, t_kmeans=3, sigma_k=5.0)
            runs.append([out.assignments.tobytes(), out.noisy_centers.tobytes(),
                         out.size_history.tobytes()])
    finally:
        sys.setswitchinterval(interval)
    assert all(run == runs[0] for run in runs)


def test_clustering_raises_a_helper_threads_error(monkeypatch):
    # the third search for a cluster's rows, or an assignment's near ties,
    # fails on whichever thread runs it
    data = mixture_corpus(2 * ASSIGN_ROWS, 12, 4, np.random.default_rng(13))
    nonzero, calls, lock = np.flatnonzero, [0], threading.Lock()

    def fail_on_third_call(*args):
        with lock:
            calls[0] += 1
            if calls[0] == 3:
                raise RuntimeError("task failed")
        return nonzero(*args)

    monkeypatch.setattr(threads, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(np, "flatnonzero", fail_on_third_call)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="task failed"):
        clustering_stage(data, 3, k=4, d=16, gamma=0.2, t_kmeans=2, sigma_k=5.0)
    assert threading.active_count() == before  # every helper was joined
