"""Bernoulli RBM energies, conditionals, and persistent-chain gradients."""
import copy
import itertools
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit, logsumexp

from dpmix.rbm import (
    FactoredGradients,
    PersistentChains,
    RbmModel,
    _logistic,
    advance_chains,
    conditional_hidden,
    conditional_visible,
    flatten_parameters,
    init_model,
    negative_statistic,
    pcd_per_example_gradients,
    positive_statistics,
    sample_batch,
    set_flat_parameters,
)


def _random_model(m, n, seed, scale=0.8):
    rng = np.random.default_rng(seed)
    return RbmModel(
        weights=rng.normal(0, scale, size=(n, m)),
        visible_bias=rng.normal(0, scale, size=m),
        hidden_bias=rng.normal(0, scale, size=n),
    )


def energy(model, v, h):
    """E(v, h) = -h' W v - b' v - c' h."""
    v = np.asarray(v, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    return float(-h @ model.weights @ v - model.visible_bias @ v - model.hidden_bias @ h)


def _rows(grads):
    """Materialize factored gradients row by row via one-hot clipped sums."""
    return np.array([grads.clipped_sum(e) for e in np.eye(len(grads))])


def _all_states(bits):
    return np.array(list(itertools.product([0, 1], repeat=bits)), dtype=np.float64)


def _exact_log_prob(model, v):
    """log p(v) by full enumeration of hidden and visible states."""
    vs = _all_states(model.m)
    hs = _all_states(model.n_hidden)
    log_joint = np.array([[-energy(model, vv, hh) for hh in hs] for vv in vs])
    log_z = logsumexp(log_joint)
    row = np.array([-energy(model, np.asarray(v, float), hh) for hh in hs])
    return logsumexp(row) - log_z


def test_energy_worked_examples():
    model = RbmModel(
        weights=np.array([[1.0, 2.0]]),
        visible_bias=np.zeros(2),
        hidden_bias=np.zeros(1),
    )
    assert energy(model, np.array([1, 1]), np.array([1])) == pytest.approx(-3.0)
    assert energy(model, np.array([1, 1]), np.array([0])) == pytest.approx(0.0)

    biased = RbmModel(
        weights=np.zeros((1, 3)),
        visible_bias=np.ones(3),
        hidden_bias=np.zeros(1),
    )
    assert energy(biased, np.array([0, 1, 0]), np.array([0])) == pytest.approx(-1.0)


def test_hidden_marginalization_identity():
    # summing exp(-E) over h must equal the closed-form product
    # exp(b'v) * prod_i (1 + exp(c_i + W_i v))
    model = _random_model(4, 3, seed=13)
    hs = _all_states(3)
    for v in _all_states(4)[[0, 5, 9, 15]]:
        direct = logsumexp([-energy(model, v, h) for h in hs])
        closed = model.visible_bias @ v + np.sum(
            np.logaddexp(0.0, model.hidden_bias + model.weights @ v)
        )
        assert direct == pytest.approx(closed, abs=1e-10)


def test_conditionals_at_zero_and_saturation():
    model = RbmModel(
        weights=np.zeros((2, 3)), visible_bias=np.zeros(3), hidden_bias=np.zeros(2)
    )
    assert_allclose(conditional_hidden(model, np.ones(3)), [0.5, 0.5])
    assert_allclose(conditional_visible(model, np.ones(2)), [0.5, 0.5, 0.5])

    model.hidden_bias = np.full(2, 30.0)
    assert np.all(conditional_hidden(model, np.zeros(3)) >= 1 - 1e-9)
    model.visible_bias = np.full(3, -30.0)
    assert np.all(conditional_visible(model, np.zeros(2)) <= 1e-9)


@pytest.mark.parametrize("dtype,limit,rtol", [(np.float32, 80.0, 1e-6), (np.float64, 700.0, 1e-15)])
def test_logistic_matches_expit_and_saturates_silently(dtype, limit, rtol):
    # scipy's expit is the oracle here only; dpmix itself does not import it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = _logistic(np.array([-1000.0, 1000.0], dtype=dtype))
    assert ends.dtype == dtype
    assert ends[0] == 0.0 and ends[1] == 1.0
    x = np.concatenate([
        np.linspace(-limit, limit, 20001, dtype=dtype),
        np.random.default_rng(3).normal(0.0, 10.0, 20000).astype(dtype),
    ])
    got = _logistic(x.copy())
    assert got.dtype == dtype
    assert_allclose(got, expit(x), rtol=rtol, atol=0.0)


def test_float32_gibbs_draws_match_exact_marginal():
    # 4 visible x 3 hidden: p(v) ~ exp(b'v) prod_i (1 + exp(c_i + W_i v)) over
    # all 16 visible states, against 100k independent float32 chains
    model = _random_model(4, 3, seed=21, scale=1.0)
    vs = _all_states(4)
    log_p = vs @ model.visible_bias + np.logaddexp(
        0.0, model.hidden_bias + vs @ model.weights.T
    ).sum(axis=1)
    exact = np.exp(log_p - logsumexp(log_p))
    draws = sample_batch(model, 100_000, 30, np.random.default_rng(2024))
    index = draws.astype(np.int64) @ (2 ** np.arange(3, -1, -1))  # itertools.product order
    empirical = np.bincount(index, minlength=16) / len(draws)
    assert 0.5 * np.abs(empirical - exact).sum() < 0.02


def test_conditionals_batch_agree_with_rows():
    model = _random_model(5, 4, seed=3)
    batch = np.random.default_rng(0).integers(0, 2, size=(6, 5)).astype(float)
    stacked = conditional_hidden(model, batch)
    for i in range(6):
        assert_allclose(stacked[i], conditional_hidden(model, batch[i]))


def test_flatten_round_trip_and_order():
    model = _random_model(3, 2, seed=7)
    vec = flatten_parameters(model)
    assert vec.shape == (2 * 3 + 3 + 2,)
    assert_allclose(vec[:6], model.weights.ravel())
    assert_allclose(vec[6:9], model.visible_bias)
    assert_allclose(vec[9:], model.hidden_bias)

    other = init_model(3, 2, np.random.default_rng(0))
    set_flat_parameters(other, vec)
    assert_allclose(other.weights, model.weights)
    assert_allclose(other.visible_bias, model.visible_bias)
    assert_allclose(other.hidden_bias, model.hidden_bias)
    with pytest.raises(ValueError):
        set_flat_parameters(other, vec[:-1])


def test_init_model_shapes():
    model = init_model(7, 4, np.random.default_rng(1), weight_std=0.01)
    assert model.weights.shape == (4, 7)
    assert_allclose(model.visible_bias, np.zeros(7))
    assert_allclose(model.hidden_bias, np.zeros(4))
    assert np.std(model.weights) < 0.05
    with pytest.raises(ValueError):
        init_model(0, 4, np.random.default_rng(1))


def test_joint_distribution_normalizes():
    model = _random_model(3, 2, seed=21)
    vs = _all_states(3)
    hs = _all_states(2)
    log_joint = np.array([[-energy(model, v, h) for h in hs] for v in vs])
    probs = np.exp(log_joint - logsumexp(log_joint))
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_statistic_gap_is_likelihood_gradient():
    # finite differences of the enumerated log-likelihood against
    # positive_statistics(x) minus the exact model expectation
    model = _random_model(3, 2, seed=5, scale=0.6)
    x = np.array([1.0, 0.0, 1.0])

    vs = _all_states(3)
    log_pv = np.array([_exact_log_prob(model, v) for v in vs])
    weights = np.exp(log_pv)
    exact_neg = weights @ positive_statistics(model, vs)
    grad = positive_statistics(model, x)[0] - exact_neg

    vec = flatten_parameters(model)
    rng = np.random.default_rng(2)
    eps = 1e-6
    for idx in rng.choice(vec.size, size=5, replace=False):
        probe = init_model(3, 2, np.random.default_rng(0))
        bumped = vec.copy()
        bumped[idx] += eps
        set_flat_parameters(probe, bumped)
        hi = _exact_log_prob(probe, x)
        bumped[idx] -= 2 * eps
        set_flat_parameters(probe, bumped)
        lo = _exact_log_prob(probe, x)
        assert (hi - lo) / (2 * eps) == pytest.approx(grad[idx], abs=1e-5)


def test_identical_records_get_identical_gradients():
    model = _random_model(4, 3, seed=9)
    chains = PersistentChains.initialize(8, 4, seed=10)
    batch = np.array([[1, 0, 1, 0], [1, 0, 1, 0], [0, 1, 1, 0]], dtype=np.uint8)
    factored = pcd_per_example_gradients(model, batch, chains)
    assert factored.shape == (3, model.n_params)
    grads = _rows(factored)
    assert_allclose(grads[0], grads[1])
    assert not np.allclose(grads[0], grads[2])


def test_negative_statistic_ignores_the_batch():
    # with identical chain state and stream, swapping the batch only moves
    # the positive term: pos(x) - grad(x) is the same shared negative
    model = _random_model(5, 3, seed=17)
    chains_a = PersistentChains.initialize(6, 5, seed=4)
    chains_b = PersistentChains(
        states=chains_a.states.copy(), rng=copy.deepcopy(chains_a.rng)
    )
    batch_a = np.array([[1, 1, 0, 0, 1]], dtype=np.uint8)
    batch_b = np.array([[0, 0, 1, 1, 0], [1, 0, 1, 0, 1]], dtype=np.uint8)
    neg_a = positive_statistics(model, batch_a) - _rows(
        pcd_per_example_gradients(model, batch_a, chains_a)
    )
    neg_b = positive_statistics(model, batch_b) - _rows(
        pcd_per_example_gradients(model, batch_b, chains_b)
    )
    assert_allclose(neg_a[0], neg_b[0], atol=1e-12)
    assert_allclose(neg_b[0], neg_b[1], atol=1e-12)
    assert np.array_equal(chains_a.states, chains_b.states)


def test_empty_batch_is_a_no_op():
    model = _random_model(4, 2, seed=1)
    chains = PersistentChains.initialize(5, 4, seed=2)
    before_states = chains.states.copy()
    before_rng = chains.rng.bit_generator.state
    grads = pcd_per_example_gradients(model, np.zeros((0, 4), dtype=np.uint8), chains)
    assert isinstance(grads, FactoredGradients)
    assert grads.shape == (0, model.n_params)
    assert grads.norms().shape == (0,)
    assert_allclose(grads.clipped_sum(np.zeros(0)), np.zeros(model.n_params))
    assert np.array_equal(chains.states, before_states)
    assert chains.rng.bit_generator.state == before_rng


def _dense_oracle(model, records, chain_states):
    """Materialized (B, P) gradients: positive(x) minus the chain mean."""
    return positive_statistics(model, records) - positive_statistics(
        model, chain_states
    ).mean(axis=0)


def _close(got, want, rtol=1e-10):
    """Relative agreement of two vectors in L2; exact when ``want`` is 0."""
    return np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@pytest.mark.parametrize("m,n", [(5, 3), (50, 32), (784, 200)])
def test_factored_gradients_match_dense_oracle(m, n):
    model = _random_model(m, n, seed=m + n, scale=2.0 / np.sqrt(m))
    rng = np.random.default_rng(n)
    batches = {
        "random": rng.integers(0, 2, size=(6, m)).astype(np.uint8),
        "one record": rng.integers(0, 2, size=(1, m)).astype(np.uint8),
        "all zero": np.zeros((3, m), dtype=np.uint8),
        "all one": np.ones((3, m), dtype=np.uint8),
    }
    for name, batch in batches.items():
        chains = PersistentChains.initialize(7, m, seed=m)
        factored = pcd_per_example_gradients(model, batch, chains)
        dense = _dense_oracle(model, batch, chains.states)
        assert factored.shape == dense.shape, name

        assert_allclose(
            negative_statistic(model, chains),
            positive_statistics(model, chains.states).mean(axis=0),
            rtol=1e-10, err_msg=name,
        )
        assert_allclose(
            factored.norms(), np.linalg.norm(dense, axis=1), rtol=1e-10, err_msg=name
        )
        scales = rng.uniform(0.0, 1.0, size=len(batch))
        scales[::2] = 0.0  # clip scales that include zeros
        for s in (scales, np.ones(len(batch))):
            assert _close(factored.clipped_sum(s), s @ dense), name
        descent = -factored
        assert_allclose(descent.norms(), factored.norms())
        assert _close(descent.clipped_sum(scales), -(scales @ dense)), name


def test_negative_statistic_is_weighted_chain_sum():
    # the weighted form of positive_statistics equals w @ (B, P) matrix
    model = _random_model(6, 4, seed=31)
    states = np.random.default_rng(3).integers(0, 2, size=(9, 6)).astype(np.uint8)
    w = np.random.default_rng(4).uniform(-1.0, 1.0, size=9)
    assert_allclose(
        positive_statistics(model, states, w),
        w @ positive_statistics(model, states),
        rtol=1e-12,
    )


def test_advance_chains_moves_states():
    model = _random_model(6, 4, seed=8)
    chains = PersistentChains.initialize(10, 6, seed=3)
    before = chains.states.copy()
    advance_chains(model, chains, sweeps=2)
    assert chains.states.shape == before.shape
    assert chains.states.dtype == np.uint8
    assert not np.array_equal(chains.states, before)


def test_zero_model_samples_fair_coins():
    model = RbmModel(
        weights=np.zeros((3, 4)), visible_bias=np.zeros(4), hidden_bias=np.zeros(3)
    )
    draws = sample_batch(model, 10_000, 2, np.random.default_rng(44))
    assert draws.shape == (10_000, 4)
    assert_allclose(draws.mean(axis=0), np.full(4, 0.5), atol=0.02)


def test_saturated_bias_forces_units_on():
    model = RbmModel(
        weights=np.zeros((2, 3)),
        visible_bias=np.full(3, 30.0),
        hidden_bias=np.zeros(2),
    )
    draws = sample_batch(model, 200, 3, np.random.default_rng(0))
    assert np.all(draws == 1)
    one = sample_batch(model, 1, 3, np.random.default_rng(1))[0]
    assert one.shape == (3,)
    assert np.all(one == 1)


def test_sampling_argument_validation():
    model = _random_model(3, 2, seed=0)
    with pytest.raises(ValueError):
        sample_batch(model, 0, 5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_batch(model, 5, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        PersistentChains.initialize(0, 3, seed=1)


def test_persistent_gradient_ascent_learns_two_modes():
    # non-private sanity run: full-batch ascent on a two-mode corpus; the
    # trained sampler should emit mostly pure modes, a fair-coin model
    # would manage about 3 percent
    rng = np.random.default_rng(101)
    mode_a = np.array([1, 1, 1, 0, 0, 0], dtype=np.uint8)
    mode_b = np.array([0, 0, 0, 1, 1, 1], dtype=np.uint8)
    batch = np.vstack([np.tile(mode_a, (20, 1)), np.tile(mode_b, (20, 1))])

    model = init_model(6, 4, rng)
    chains = PersistentChains.initialize(30, 6, seed=7)
    eta = 0.05
    for _ in range(1500):
        grads = pcd_per_example_gradients(model, batch, chains)
        step = grads.clipped_sum(np.full(len(batch), 1.0 / len(batch)))
        set_flat_parameters(model, flatten_parameters(model) + eta * step)

    draws = sample_batch(model, 2000, 50, np.random.default_rng(55))
    pure = np.mean(
        [np.array_equal(d, mode_a) or np.array_equal(d, mode_b) for d in draws]
    )
    assert pure >= 0.6
    assert abs(np.mean([np.array_equal(d, mode_a) for d in draws]) - pure / 2) < 0.2
