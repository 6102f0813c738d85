"""Private SGD steps: clipping, adaptive bound, noise calibration."""
import copy
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import DenseGradients, ZeroNoise, dense_positive_statistics, step_config
from dpmix import rbm
from dpmix.data import sample_batch
from dpmix.dpnorm import clip_scales, dp_norm
from dpmix.dpsgd import dp_sgd_step
from dpmix.errors import ConfigError


def _toy_records(n, m, seed):
    rng = np.random.default_rng(seed)
    records = rng.integers(0, 2, size=(n, m)).astype(np.uint8)
    records[records.sum(axis=1) == 0, 0] = 1
    return records


def _clip(vec, c_s):
    vec = np.asarray(vec, dtype=np.float64)
    return vec * clip_scales(np.linalg.norm(vec), c_s)


def test_clip_worked_examples():
    assert_allclose(_clip([3.0, 4.0], 1.0), [0.6, 0.8])
    assert_allclose(_clip([0.3, 0.4], 1.0), [0.3, 0.4])
    assert_allclose(_clip([0.0, 0.0], 2.0), [0.0, 0.0])
    with pytest.raises(ValueError):
        clip_scales(np.ones(3), 0.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        step_config(sigma_c=1.0, sigma_g=1.0, batch_size=0, eta=0.1)
    with pytest.raises(ConfigError):
        step_config(sigma_c=1.0, sigma_g=1.0, batch_size=5, eta=-0.1)
    with pytest.raises(ConfigError):
        step_config(sigma_c=-1.0, sigma_g=1.0, batch_size=5, eta=0.1)
    # eta = 0 is allowed: the step still consumes randomness but never moves
    step_config(sigma_c=1.0, sigma_g=1.0, batch_size=5, eta=0.0)


def test_zero_noise_full_batch_equals_plain_gradient_descent():
    # no noise, the whole set in the batch, norms below every edge: the step
    # reduces to exact mean-gradient descent on a quadratic, checked against
    # the closed form
    n, p = 16, 3
    rng = np.random.default_rng(6)
    # keep every gradient norm below the first histogram edge (0.1) so the
    # adaptive bound never bites and the update is the exact mean gradient
    targets = rng.normal(0, 0.003, size=(n, p))
    cfg = step_config(sigma_c=1.0, sigma_g=1.0, batch_size=n, eta=0.3)

    theta = np.full(p, 0.01)
    for _ in range(5):
        new_theta, info = dp_sgd_step(
            theta, DenseGradients(theta[None, :] - targets), cfg,
            noise_rng=ZeroNoise(np.random.default_rng(0)),
        )
        want = theta - cfg.eta * (theta - targets.mean(axis=0))
        assert_allclose(new_theta, want, atol=1e-12)
        assert info.batch_size == n
        assert info.clipped_fraction == 0.0
        theta = new_theta


def test_zero_eta_never_moves():
    cfg = step_config(sigma_c=1.0, sigma_g=1.0, batch_size=10, eta=0.0)
    theta = np.arange(5, dtype=np.float64)
    new_theta, _ = dp_sgd_step(
        theta, DenseGradients(np.ones((10, 5))), cfg, noise_rng=np.random.default_rng(4)
    )
    assert_allclose(new_theta, theta)


def test_clip_bound_matches_standalone_selection():
    # the bound chosen inside the step equals dp_norm run on the same
    # gradients with a cloned noise stream
    cfg = step_config(sigma_c=2.0, sigma_g=1.0, batch_size=40, eta=0.1)
    per_example = np.random.default_rng(12).normal(0, 1.2, size=(40, 6))
    _, info = dp_sgd_step(
        np.zeros(6), DenseGradients(per_example), cfg, noise_rng=np.random.default_rng(77)
    )
    want = dp_norm(
        np.linalg.norm(per_example, axis=1), 2.0, c_max=10.0, bins=100,
        rng=np.random.default_rng(77),
    )
    assert info.clip_bound == pytest.approx(want)


def test_noise_is_centered_and_scaled():
    # eta = 1, zero gradients: the update is -noise / L with per-coordinate
    # std sqrt(2) sigma_g c_s / L; check mean and std over many trials.
    # The clip-bound vote over cfg.bins counts is noise-free, the release is not.
    sigma_g, L = 2.0, 8
    cfg = step_config(sigma_c=1.0, sigma_g=sigma_g, batch_size=L, eta=1.0)
    theta = np.zeros(4)
    grads = DenseGradients(np.zeros((L, 4)))
    noise_rng = ZeroNoise(np.random.default_rng(2024), size=cfg.bins)
    draws = []
    for _ in range(4000):
        new_theta, info = dp_sgd_step(theta, grads, cfg, noise_rng=noise_rng)
        draws.append(new_theta)
    draws = np.asarray(draws)
    c_s = info.clip_bound  # zero-gradient norms all land on the first edge
    assert c_s == pytest.approx(0.1)
    want_std = math.sqrt(2.0) * sigma_g * c_s / L
    assert_allclose(draws.mean(axis=0), np.zeros(4), atol=4 * want_std / math.sqrt(4000))
    assert_allclose(draws.std(axis=0), np.full(4, want_std), rtol=0.08)


def test_divisor_is_expected_batch_size_not_realized():
    # batches of different realized sizes with identical gradients per
    # example: the scale of the update tracks |S| / L, never 1
    for size, L in ((30, 40), (50, 40), (50, 80)):
        cfg = step_config(sigma_c=1.0, sigma_g=1.0, batch_size=L, eta=1.0)
        new_theta, info = dp_sgd_step(
            np.zeros(2), DenseGradients(np.tile([1.0, 0.0], (size, 1))), cfg,
            noise_rng=ZeroNoise(np.random.default_rng(0)),
        )
        assert info.batch_size == size
        assert new_theta[0] == pytest.approx(-size / L)
        assert new_theta[1] == 0.0


def test_empty_batch_votes_and_releases_at_the_voted_bound():
    # an empty batch runs the same mechanism as any other: a vote on its
    # (all-zero) norm histogram, then the Gaussian at the voted bound / L
    cfg = step_config(sigma_c=1.0, sigma_g=3.0, batch_size=2, eta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no empty-slice warning from the diagnostics
        new_theta, info = dp_sgd_step(
            np.zeros(6), DenseGradients(np.zeros((0, 6))), cfg,
            noise_rng=np.random.default_rng(99),
        )
    assert info.batch_size == 0 and info.clipped_fraction == 0.0
    assert math.isnan(info.grad_norm_mean) and math.isnan(info.grad_norm_max)

    replay = np.random.default_rng(99)
    c_s = dp_norm(np.zeros(0), cfg.sigma_c, c_max=cfg.c_max, bins=cfg.bins, rng=replay)
    assert info.clip_bound == c_s
    want = -replay.normal(0, math.sqrt(2) * cfg.sigma_g * c_s, size=6) / cfg.batch_size
    assert_allclose(new_theta, want)


def test_noise_draws_do_not_depend_on_the_batch_size():
    # one step moves noise_rng by bins + P normals whatever the batch holds,
    # the empty batch included, so the stream's position gives no batch away
    cfg = step_config(sigma_c=1.0, sigma_g=1.0, batch_size=2, eta=0.1, c_max=4.0, bins=8)
    rows = np.random.default_rng(5).normal(0.0, 1.0, size=(4, 3))
    want = np.random.default_rng(2024)
    want.normal(size=cfg.bins)
    want.normal(size=3)
    for size in range(5):
        noise = np.random.default_rng(2024)
        dp_sgd_step(np.zeros(3), DenseGradients(rows[:size]), cfg, noise)
        assert noise.bit_generator.state == want.bit_generator.state, size


def test_chain_states_do_not_depend_on_empty_batches():
    # eta = 0 keeps the model fixed, so the chains must end in the same
    # states whether some batches were empty (q = 1/200) or none (q = 1)
    m, steps = 6, 12
    records = _toy_records(200, m, seed=3)
    model = rbm.init_model(m, 3, np.random.default_rng(0))
    finals, empties = [], []
    for q, members in ((1 / 200, np.arange(200)), (1.0, np.arange(4))):
        chains = rbm.PersistentChains.initialize(5, m, seed=8)
        cfg = step_config(sigma_c=1.0, sigma_g=1.0, batch_size=1, eta=0.0)
        sample_rng, noise_rng = np.random.default_rng(1), np.random.default_rng(2)
        sizes = []
        for _ in range(steps):
            batch = sample_batch(members, q, sample_rng)
            grads = rbm.pcd_per_example_gradients(model, records[batch], chains)
            params, info = dp_sgd_step(model.params, grads, cfg, noise_rng)
            assert np.array_equal(params, model.params)
            sizes.append(info.batch_size)
        finals.append(chains.states)
        empties.append(sizes.count(0))
    assert empties[0] >= steps // 4 and empties[1] == 0
    assert np.array_equal(finals[0], finals[1])


def test_released_sum_respects_clip_bound():
    # adversarial gradients with huge norms: without noise the update
    # norm is capped by |S| * c_s / L regardless of raw magnitudes
    cfg = step_config(sigma_c=1.0, sigma_g=1.0, batch_size=30, eta=1.0)
    raw = np.random.default_rng(0).normal(0, 200.0, size=(30, 5))
    new_theta, info = dp_sgd_step(
        np.zeros(5), DenseGradients(raw), cfg, noise_rng=ZeroNoise(np.random.default_rng(3)),
    )
    assert info.clipped_fraction == 1.0
    assert np.linalg.norm(new_theta) <= info.batch_size * info.clip_bound / 30 + 1e-9
    assert info.grad_norm_max > 100.0


def _rbm_step_inputs(m, n_hidden, records, seed):
    model = rbm.init_model(m, n_hidden, np.random.default_rng(seed), weight_std=0.3)
    chains = rbm.PersistentChains.initialize(records, m, seed=seed + 1)
    return model, chains, _toy_records(records, m, seed=seed + 2)


def test_factored_and_dense_gradients_give_the_same_step():
    # one RBM step fed the factored object, then the (B, P) array built from
    # the materialized statistics: same parameters, same stream states
    model, chains, records = _rbm_step_inputs(50, 32, 40, seed=3)
    dense_chains = copy.deepcopy(chains)
    cfg = step_config(sigma_c=1.0, sigma_g=1.0, batch_size=20, eta=0.1, c_max=20.0, bins=40)
    batch = records[sample_batch(np.arange(40), 0.5, np.random.default_rng(8))]

    factored = rbm.pcd_per_example_gradients(model, batch, chains)
    rbm.advance_chains(model, dense_chains, 1)
    neg = dense_positive_statistics(model, dense_chains.states).mean(axis=0)
    dense = DenseGradients(neg - dense_positive_statistics(model, batch))

    results = []
    for grads in (factored, dense):
        noise_rng = np.random.default_rng(9)
        new_params, info = dp_sgd_step(model.params, grads, cfg, noise_rng)
        results.append((new_params, info, noise_rng.bit_generator.state))
    (p_f, info_f, n_f), (p_d, info_d, n_d) = results
    assert info_f.batch_size > 0 and 0.0 < info_f.clipped_fraction < 1.0
    assert info_f.clip_bound == info_d.clip_bound
    assert_allclose(p_f, p_d, rtol=0.0, atol=1e-12)
    assert n_f == n_d
    assert np.array_equal(chains.states, dense_chains.states)
    assert chains.rng.bit_generator.state == dense_chains.rng.bit_generator.state


def test_rbm_step_memory_stays_below_the_gradient_matrix():
    # MNIST-shaped step: m = 784, n_hidden = 200, B = 100.  The (B, P)
    # gradient matrix alone would be B * P * 8 = 126 MB.
    model, chains, records = _rbm_step_inputs(784, 200, 100, seed=5)
    cfg = step_config(sigma_c=1.0, sigma_g=1.0, batch_size=100, eta=0.01)

    tracemalloc.start()
    try:
        grads = rbm.pcd_per_example_gradients(model, records, chains)
        _, info = dp_sgd_step(model.params, grads, cfg, noise_rng=np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.batch_size == 100
    assert peak < 20e6
