"""Bernoulli RBM energies, conditionals, and persistent-chain gradients."""
import copy
import itertools
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit, logsumexp

from conftest import conditional_visible, dense_positive_statistics
from dpmix.errors import NumericsError
from dpmix.rbm import (
    UNIFORM_BLOCK,
    FactoredGradients,
    PersistentChains,
    RbmModel,
    _gibbs_sweeps,
    _logistic,
    advance_chains,
    conditional_hidden,
    init_model,
    negative_statistic,
    pcd_per_example_gradients,
    positive_statistics,
    sample_batch,
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
    return np.array([grads.clipped_sum(e) for e in np.eye(len(grads.records))])


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

    model.hidden_bias[:] = 30.0
    assert np.all(conditional_hidden(model, np.zeros(3)) >= 1 - 1e-9)
    model.visible_bias[:] = -30.0
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


def _reference_gibbs_sweeps(model, states, sweeps, rng):
    """Float32 block Gibbs with uniforms from Generator.random, one call per draw."""
    w = model.weights.astype(np.float32)
    b = model.visible_bias.astype(np.float32)
    c = model.hidden_bias.astype(np.float32)
    v = states.astype(np.float32)
    h = np.empty((v.shape[0], c.size), dtype=np.float32)
    p_h, u_h = np.empty_like(h), np.empty_like(h)
    p_v, u_v = np.empty_like(v), np.empty_like(v)
    for _ in range(sweeps):
        np.matmul(v, w.T, out=p_h)
        p_h += c
        _logistic(p_h)
        rng.random(out=u_h, dtype=np.float32)
        np.less(u_h, p_h, out=h)
        np.matmul(h, w, out=p_v)
        p_v += b
        _logistic(p_v)
        rng.random(out=u_v, dtype=np.float32)
        np.less(u_v, p_v, out=v)
    return v.astype(np.uint8)


@pytest.mark.parametrize("count,m,n", [(1024, 50, 32), (6, 5, 3), (3, 4, 2), (100, 784, 20)])
def test_gibbs_sweeps_equal_reference_on_even_draws(count, m, n):
    # every draw has count * m or count * n elements, all even here
    model = _random_model(m, n, seed=count + m, scale=1.0)
    states = (np.random.default_rng(1).random((count, m)) < 0.5).astype(np.uint8)
    rng, ref_rng = np.random.default_rng(77), np.random.default_rng(77)
    got = _gibbs_sweeps(model, states.astype(np.float32), 4, rng).astype(np.uint8)
    want = _reference_gibbs_sweeps(model, states, 4, ref_rng)
    assert got.dtype == want.dtype == np.uint8
    assert np.array_equal(got, want)
    # the same words were consumed, so the streams continue alike
    assert rng.bit_generator.state["state"] == ref_rng.bit_generator.state["state"]
    assert np.array_equal(rng.random(5), ref_rng.random(5))


def _whole_draw_reference_gibbs_sweeps(model, states, sweeps, rng):
    """Float32 block Gibbs with each draw's uniforms from one ``random_raw`` call."""

    def uniforms(like):
        words = rng.bit_generator.random_raw((like.size + 1) // 2).view(np.uint32)
        top = (words[: like.size] >> 8).astype(np.float32)
        return (top * np.float32(2.0**-24)).reshape(like.shape)

    w = model.weights.astype(np.float32)
    b = model.visible_bias.astype(np.float32)
    c = model.hidden_bias.astype(np.float32)
    v = states.astype(np.float32)
    for _ in range(sweeps):
        p_h = _logistic(v @ w.T + c)
        h = (uniforms(p_h) < p_h).astype(np.float32)
        p_v = _logistic(h @ w + b)
        v = (uniforms(p_v) < p_v).astype(np.float32)
    return v.astype(np.uint8)


@pytest.mark.parametrize(
    "count,m,n",
    [
        (2, UNIFORM_BLOCK // 2 + 1, 3),  # visible draws of UNIFORM_BLOCK + 2, even
        (1, 2, UNIFORM_BLOCK + 2),  # hidden draws of UNIFORM_BLOCK + 2, even
        (3, UNIFORM_BLOCK // 3 + 2, 3),  # visible draws of UNIFORM_BLOCK + 5, odd
        (1, 3, UNIFORM_BLOCK + 3),  # hidden draws odd and over one block
    ],
)
def test_blocked_uniforms_equal_one_whole_draw(count, m, n):
    # activations of unit scale, so no probability saturates at 0 or 1
    model = _random_model(m, n, seed=count + n, scale=(2 / max(m, n)) ** 0.5)
    states = (np.random.default_rng(2).random((count, m)) < 0.5).astype(np.uint8)
    rng, ref_rng = np.random.default_rng(78), np.random.default_rng(78)
    got = _gibbs_sweeps(model, states.astype(np.float32), 3, rng).astype(np.uint8)
    want = _whole_draw_reference_gibbs_sweeps(model, states, 3, ref_rng)
    assert max(count * m, count * n) > UNIFORM_BLOCK
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_gibbs_sweeps_reject_32_bit_streams():
    model = _random_model(4, 2, seed=1)
    mt = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(ValueError, match="64-bit"):
        _gibbs_sweeps(model, np.zeros((2, 4), dtype=np.float32), 1, mt)


@pytest.mark.parametrize("value", [1e39, -1e39, np.inf, np.nan])
@pytest.mark.parametrize("block", ["weights", "visible_bias", "hidden_bias"])
def test_gibbs_sweeps_refuse_parameters_beyond_float32(block, value):
    # the float32 cast would make the parameter infinite (or keep it NaN),
    # and the chains would run on NaN probabilities
    model = _random_model(4, 2, seed=1)
    getattr(model, block).flat[0] = value
    with pytest.raises(NumericsError, match="outside float32's range"):
        sample_batch(model, 3, 1, np.random.default_rng(0))
    chains = PersistentChains.initialize(3, 4, seed=2)
    with pytest.raises(NumericsError, match="outside float32's range"):
        advance_chains(model, chains, 1)


def test_gibbs_sweeps_accept_the_float32_extremes():
    limit = float(np.finfo(np.float32).max)
    model = RbmModel(np.zeros((2, 3)), np.array([limit, -limit, 0.0]), np.zeros(2))
    draws = sample_batch(model, 50, 2, np.random.default_rng(0))
    assert np.all(draws[:, 0] == 1) and np.all(draws[:, 1] == 0)


def _marginal_distance(count):
    """Total variation between ``count`` float32 Gibbs draws and the exact p(v).

    4 visible x 3 hidden: p(v) ~ exp(b'v) prod_i (1 + exp(c_i + W_i v)) over
    all 16 visible states, against ``count`` independent chains.
    """
    model = _random_model(4, 3, seed=21, scale=1.0)
    vs = _all_states(4)
    log_p = vs @ model.visible_bias + np.logaddexp(
        0.0, model.hidden_bias + vs @ model.weights.T
    ).sum(axis=1)
    exact = np.exp(log_p - logsumexp(log_p))
    draws = sample_batch(model, count, 30, np.random.default_rng(2024))
    index = draws.astype(np.int64) @ (2 ** np.arange(3, -1, -1))  # itertools.product order
    empirical = np.bincount(index, minlength=16) / len(draws)
    return 0.5 * np.abs(empirical - exact).sum()


def test_float32_gibbs_draws_match_exact_marginal():
    assert _marginal_distance(100_000) < 0.02


def test_float32_gibbs_draws_match_exact_marginal_with_odd_draws():
    # 99,999 chains x 3 hidden units make every hidden draw odd-sized
    assert _marginal_distance(99_999) < 0.02


def test_conditionals_batch_agree_with_rows():
    model = _random_model(5, 4, seed=3)
    batch = np.random.default_rng(0).integers(0, 2, size=(6, 5)).astype(float)
    stacked = conditional_hidden(model, batch)
    for i in range(6):
        assert_allclose(stacked[i], conditional_hidden(model, batch[i]))


def test_params_is_the_one_vector_behind_weights_and_biases():
    # W row-major, then b, then c; construction copies its arrays, and a
    # write through params shows in the views and in the conditionals
    w = np.arange(6.0).reshape(2, 3) / 10
    b, c = np.array([0.1, 0.2, 0.3]), np.array([-0.1, -0.2])
    model = RbmModel(weights=w, visible_bias=b, hidden_bias=c)
    assert model.params.dtype == np.float64 and model.n_params == 11
    assert_allclose(model.params, np.concatenate([w.ravel(), b, c]))
    w[0, 0] = 5.0
    assert model.weights[0, 0] == 0.0

    v = np.array([1.0, 0.0, 1.0])
    model.params[:] = np.arange(11.0) / 100
    assert_allclose(model.weights, [[0.0, 0.01, 0.02], [0.03, 0.04, 0.05]])
    assert_allclose(model.visible_bias, [0.06, 0.07, 0.08])
    assert_allclose(model.hidden_bias, [0.09, 0.10])
    assert_allclose(conditional_hidden(model, v), expit([0.09 + 0.02, 0.10 + 0.08]))
    model.params[-1] = -40.0
    assert model.hidden_bias[-1] == -40.0
    assert conditional_hidden(model, v)[-1] < 1e-15
    with pytest.raises(ValueError):
        RbmModel(weights=w, visible_bias=b, hidden_bias=b)


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
    # the statistics of x minus the exact model expectation
    model = _random_model(3, 2, seed=5, scale=0.6)
    x = np.array([1.0, 0.0, 1.0])

    vs = _all_states(3)
    log_pv = np.array([_exact_log_prob(model, v) for v in vs])
    weights = np.exp(log_pv)
    exact_neg = weights @ dense_positive_statistics(model, vs)
    grad = dense_positive_statistics(model, x)[0] - exact_neg

    rng = np.random.default_rng(2)
    eps = 1e-6
    for idx in rng.choice(model.n_params, size=5, replace=False):
        probe = init_model(3, 2, np.random.default_rng(0))
        probe.params[:] = model.params
        probe.params[idx] += eps
        hi = _exact_log_prob(probe, x)
        probe.params[idx] -= 2 * eps
        lo = _exact_log_prob(probe, x)
        assert (hi - lo) / (2 * eps) == pytest.approx(grad[idx], abs=1e-5)


def test_identical_records_get_identical_gradients():
    model = _random_model(4, 3, seed=9)
    chains = PersistentChains.initialize(8, 4, seed=10)
    batch = np.array([[1, 0, 1, 0], [1, 0, 1, 0], [0, 1, 1, 0]], dtype=np.uint8)
    grads = _rows(pcd_per_example_gradients(model, batch, chains))
    assert grads.shape == (3, model.n_params)
    assert_allclose(grads[0], grads[1])
    assert not np.allclose(grads[0], grads[2])


def test_negative_statistic_ignores_the_batch():
    # with identical chain state and stream, swapping the batch only moves
    # the positive term: pos(x) + grad(x) is the same shared negative
    model = _random_model(5, 3, seed=17)
    chains_a = PersistentChains.initialize(6, 5, seed=4)
    chains_b = PersistentChains(
        states=chains_a.states.copy(), rng=copy.deepcopy(chains_a.rng)
    )
    batch_a = np.array([[1, 1, 0, 0, 1]], dtype=np.uint8)
    batch_b = np.array([[0, 0, 1, 1, 0], [1, 0, 1, 0, 1]], dtype=np.uint8)
    neg_a = dense_positive_statistics(model, batch_a) + _rows(
        pcd_per_example_gradients(model, batch_a, chains_a)
    )
    neg_b = dense_positive_statistics(model, batch_b) + _rows(
        pcd_per_example_gradients(model, batch_b, chains_b)
    )
    assert_allclose(neg_a[0], neg_b[0], atol=1e-12)
    assert_allclose(neg_b[0], neg_b[1], atol=1e-12)
    assert np.array_equal(chains_a.states, chains_b.states)


def test_empty_batch_gives_zero_rows_and_advances_the_chains():
    model = _random_model(4, 2, seed=1)
    chains = PersistentChains.initialize(5, 4, seed=2)
    twin = PersistentChains.initialize(5, 4, seed=2)
    grads = pcd_per_example_gradients(model, np.zeros((0, 4), dtype=np.uint8), chains, 3)
    assert isinstance(grads, FactoredGradients)
    assert grads.norms().shape == (0,)
    assert_allclose(grads.clipped_sum(np.zeros(0)), np.zeros(model.n_params))
    advance_chains(model, twin, 3)
    assert np.array_equal(chains.states, twin.states)
    assert chains.rng.bit_generator.state == twin.rng.bit_generator.state


def _dense_oracle(model, records, chain_states):
    """Materialized (B, P) loss gradients: the chain mean minus positive(x)."""
    return dense_positive_statistics(model, chain_states).mean(axis=0) - (
        dense_positive_statistics(model, records)
    )


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

        assert_allclose(
            negative_statistic(model, chains),
            dense_positive_statistics(model, chains.states).mean(axis=0),
            rtol=1e-10, err_msg=name,
        )
        assert_allclose(
            factored.norms(), np.linalg.norm(dense, axis=1), rtol=1e-10, err_msg=name
        )
        scales = rng.uniform(0.0, 1.0, size=len(batch))
        scales[::2] = 0.0  # clip scales that include zeros
        for s in (scales, np.ones(len(batch))):
            assert _close(factored.clipped_sum(s), s @ dense), name


def test_negative_statistic_is_weighted_chain_sum():
    # the weighted form of positive_statistics equals w @ (B, P) matrix
    model = _random_model(6, 4, seed=31)
    states = np.random.default_rng(3).integers(0, 2, size=(9, 6)).astype(np.uint8)
    w = np.random.default_rng(4).uniform(-1.0, 1.0, size=9)
    assert_allclose(
        positive_statistics(model, states, w),
        w @ dense_positive_statistics(model, states),
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
    # non-private sanity run: full-batch likelihood ascent (descent on the
    # loss gradients) on a two-mode corpus; the trained sampler should emit
    # mostly pure modes, a fair-coin model would manage about 3 percent
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
        model.params -= eta * step

    draws = sample_batch(model, 2000, 50, np.random.default_rng(55))
    pure = np.mean(
        [np.array_equal(d, mode_a) or np.array_equal(d, mode_b) for d in draws]
    )
    assert pure >= 0.6
    assert abs(np.mean([np.array_equal(d, mode_a) for d in draws]) - pure / 2) < 0.2
