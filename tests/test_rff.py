"""Random cosine feature maps and the kernel they approximate."""
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import kernel_rbf
from dpmix.rff import embed, feature_map_from_seed, sample_feature_map


def test_frequency_scale_matches_kernel_width():
    rng = np.random.default_rng(11)
    fmap = sample_feature_map(m=4, d=25_000, gamma=3.0, rng=rng)
    # w entries are N(0, sqrt(2 gamma)): sample std of 1e5 draws lands close.
    assert fmap.w.shape == (25_000, 4)
    assert np.std(fmap.w) == pytest.approx(np.sqrt(6.0), abs=0.02)
    assert fmap.b.shape == (25_000,)
    assert fmap.b.min() >= 0.0
    assert fmap.b.max() < 2 * np.pi


def test_map_arrays_are_frozen():
    fmap = sample_feature_map(m=3, d=8, gamma=1.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        fmap.w[0, 0] = 9.0
    with pytest.raises(ValueError):
        fmap.b[0] = 9.0


def test_seeded_map_reproducible():
    a = feature_map_from_seed(m=5, d=32, gamma=0.5, seed=777)
    b = feature_map_from_seed(m=5, d=32, gamma=0.5, seed=777)
    assert_allclose(a.w, b.w)
    assert_allclose(a.b, b.b)
    assert a.seed == 777
    c = feature_map_from_seed(m=5, d=32, gamma=0.5, seed=778)
    assert not np.allclose(a.w, c.w)


def test_embed_shapes_and_scale():
    fmap = feature_map_from_seed(m=6, d=40, gamma=1.0, seed=3)
    one = embed(fmap, np.zeros(6))
    many = embed(fmap, np.zeros((7, 6)))
    assert one.shape == (40,)
    assert many.shape == (7, 40)
    assert_allclose(many, np.tile(one, (7, 1)))
    # cos is bounded by 1, so each coordinate is at most sqrt(2/d)
    assert np.max(np.abs(one)) <= np.sqrt(2 / 40) + 1e-12


def test_embed_rejects_wrong_width():
    fmap = feature_map_from_seed(m=6, d=40, gamma=1.0, seed=3)
    with pytest.raises(ValueError):
        embed(fmap, np.zeros(5))
    with pytest.raises(ValueError):
        embed(fmap, np.zeros((4, 7)))


def test_embed_casts_in_row_blocks():
    # 20k x 784 uint8 records at d = 200: casting all records to float64 at
    # once peaked at 189.5 MB; the (n, d) float64 result itself is 32 MB
    rng = np.random.default_rng(4)
    records = (rng.random((20_000, 784)) < 0.1).astype(np.uint8)
    fmap = feature_map_from_seed(m=784, d=200, gamma=0.1, seed=6)
    tracemalloc.start()
    try:
        out = embed(fmap, records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (20_000, 200)
    assert peak < 64e6
    direct = np.sqrt(2.0 / 200) * np.cos(records[:5].astype(np.float64) @ fmap.w.T + fmap.b)
    assert_allclose(out[:5], direct, rtol=0.0, atol=1e-12)


def test_kernel_values():
    x = np.array([1.0, 0.0, 1.0])
    assert kernel_rbf(x, x, gamma=2.0) == pytest.approx(1.0)
    y = np.array([0.0, 0.0, 1.0])
    assert kernel_rbf(x, y, gamma=2.0) == pytest.approx(np.exp(-2.0))
    assert kernel_rbf(x, y, gamma=0.25) == pytest.approx(np.exp(-0.25))


def test_inner_products_approximate_kernel():
    # Averaged over many independent maps the embedding inner product is an
    # unbiased kernel estimate; with d=4096 a single map is already close.
    rng = np.random.default_rng(99)
    x = rng.integers(0, 2, 12).astype(float)
    y = rng.integers(0, 2, 12).astype(float)
    gamma = 0.3
    fmap = sample_feature_map(m=12, d=4096, gamma=gamma, rng=rng)
    approx = float(embed(fmap, x) @ embed(fmap, y))
    assert approx == pytest.approx(kernel_rbf(x, y, gamma), abs=0.05)


def test_embedding_norm_concentrates_below_one():
    # ||z(x)||^2 = (2/d) sum cos^2 has mean at most 1; check the sample mean
    # over fresh maps stays there for a spread of kernel widths.
    rng = np.random.default_rng(5)
    x = rng.integers(0, 2, 10).astype(float)
    for gamma in (0.1, 1.0, 10.0):
        norms = []
        for _ in range(300):
            fmap = sample_feature_map(m=10, d=64, gamma=gamma, rng=rng)
            norms.append(np.linalg.norm(embed(fmap, x)))
        assert np.mean(norms) <= 1.01
