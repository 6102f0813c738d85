"""Noisy-histogram norm bound selection."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import ZeroNoise
from dpmix.dpnorm import clip_scales, dp_norm, norm_histogram


def test_clip_scales_move_long_vectors_onto_the_bound():
    # DP-SGD clips at a voted bound, so the bound is an argument here
    vecs = np.random.default_rng(8).normal(size=(5, 30))
    clipped = vecs * clip_scales(np.linalg.norm(vecs, axis=1), 0.7)[:, None]
    assert_allclose(np.linalg.norm(clipped, axis=1), np.full(5, 0.7), rtol=1e-12)
    # norms at or below the bound keep their length
    assert clip_scales(np.array([0.3, 0.7]), 0.7).tolist() == [1.0, 1.0]
    for c_s in (0.0, -1.0):
        with pytest.raises(ValueError, match="clip bound must be positive"):
            clip_scales(np.ones(3), c_s)


def test_histogram_bins_and_edges():
    vecs = np.array([[0.3, 0.0], [0.0, 0.59], [2.35, 0.0], [0.0, 0.0]])
    counts = norm_histogram(np.linalg.norm(vecs, axis=1), c_max=10.0, bins=100)
    # edges at multiples of 0.1; (0.2, 0.3] -> bucket 3, (0.5, 0.6] -> 6,
    # (2.3, 2.4] -> 24, zero norms -> bucket 1; counts[j-1] holds bucket j
    assert counts.shape == (100,)
    assert counts[2] == 1
    assert counts[5] == 1
    assert counts[23] == 1
    assert counts[0] == 1
    assert counts.sum() == 4


def test_norms_beyond_cap_are_dropped():
    counts = norm_histogram(np.array([10.5, 3.0]), c_max=10.0, bins=100)
    assert counts.sum() == 1


def test_boundary_falls_in_lower_bin():
    # a norm exactly on an edge belongs to the bucket it closes
    counts = norm_histogram(np.array([0.2]), c_max=1.0, bins=5)
    assert counts[0] == 1
    assert counts.sum() == 1


def test_noiseless_choice_examples():
    # three worked cases without noise: answer is the modal bin's edge
    rng = ZeroNoise(np.random.default_rng(0))
    a = np.array([0.55, 0.52, 0.58, 1.7])
    assert dp_norm(a, 1.0, c_max=10.0, bins=100, rng=rng) == pytest.approx(0.6)
    b = np.array([2.31, 2.33, 0.4])
    assert dp_norm(b, 1.0, c_max=10.0, bins=100, rng=rng) == pytest.approx(2.4)
    c = np.zeros(5)
    assert dp_norm(c, 1.0, c_max=10.0, bins=100, rng=rng) == pytest.approx(0.1)


def test_noiseless_matches_independent_histogram():
    # cross-check the modal-edge rule against numpy histogramming on random
    # multisets; ties break toward the smaller edge in both paths
    rng = np.random.default_rng(42)
    edges = np.linspace(0.0, 10.0, 101)
    for trial in range(50):
        n = int(rng.integers(1, 40))
        vecs = rng.uniform(0, 9.9, size=(n, 3))
        norms = np.linalg.norm(vecs, axis=1)
        got = dp_norm(norms, 1.0, c_max=10.0, bins=100, rng=ZeroNoise(rng))
        idx = np.searchsorted(edges, norms, side="left")
        idx[norms == 0.0] = 1
        idx = idx[idx <= 100]  # norms above the cap carry no vote
        counts = np.bincount(idx, minlength=101)
        want = edges[np.argmax(counts[1:]) + 1]
        assert got == pytest.approx(want), f"trial {trial}"


def test_noisy_output_is_always_an_edge():
    rng = np.random.default_rng(7)
    norms = np.linalg.norm(rng.uniform(0, 5, size=(30, 4)), axis=1)
    for _ in range(20):
        out = dp_norm(norms, 4.0, c_max=10.0, bins=100, rng=rng)
        assert out == pytest.approx(round(out * 10) / 10)
        assert 0.1 <= out <= 10.0


def test_noise_shifts_choice():
    # a large sigma_c must eventually pick a different bin than the mode
    norms = np.full(50, 3.05)
    rng = np.random.default_rng(1)
    seen = {dp_norm(norms, 100.0, c_max=10.0, bins=100, rng=rng) for _ in range(40)}
    assert len(seen) > 1


def test_rejects_bad_input():
    rng = np.random.default_rng(0)
    for norms in (np.array([np.nan, 1.0]), np.array([np.inf]),
                  np.array([-0.75, 0.72]), np.ones((2, 2))):
        with pytest.raises(ValueError):
            dp_norm(norms, 1.0, c_max=10.0, bins=100, rng=rng)
    with pytest.raises(ValueError):
        norm_histogram(np.ones(2), c_max=-1.0, bins=100)
    with pytest.raises(ValueError):
        norm_histogram(np.ones(2), c_max=1.0, bins=0)
    # no norms are an ordinary input: an empty batch votes on all-zero counts
    counts = norm_histogram(np.zeros(0), c_max=10.0, bins=100)
    assert counts.shape == (100,) and not counts.any()
