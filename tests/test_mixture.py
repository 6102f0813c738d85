"""Training pipeline wiring, mixture sampling, and model serialization."""
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import mixture_corpus
from dpmix import rbm
from dpmix.accountant import epsilon_for_delta
from dpmix.data import subset
from dpmix.dpsgd import SgdConfig, dp_sgd_step
from dpmix.errors import ConfigError, DataError
from dpmix.kmeans import dp_kernel_kmeans
from dpmix.mixture import (
    GENERATION_CHUNK_ROWS,
    MixtureModel,
    TrainConfig,
    generate,
    load_model,
    save_model,
    train,
)
from dpmix.rff import feature_map_from_seed
from dpmix.streams import child_rng, child_seed


def _tiny_config(**kw):
    base = dict(
        k=1, epochs=1, batch_size=30, sigma_c=4.0, sigma_k=40.0, sigma_g=1.0,
        t_kmeans=2, d=10, gamma=0.5, n_hidden=4, eta=0.05, chain_count=6,
    )
    base.update(kw)
    return TrainConfig(**base)


def _saturated_mixture(weights, biases, m=4):
    """Hand-built mixture whose components emit constant records."""
    models = [
        rbm.RbmModel(
            weights=np.zeros((2, m)),
            visible_bias=np.full(m, b),
            hidden_bias=np.zeros(2),
        )
        for b in biases
    ]
    fmap = feature_map_from_seed(m=m, d=4, gamma=1.0, seed=1)
    return MixtureModel(
        m=m, k=len(models), models=models,
        weights=np.asarray(weights, dtype=np.float64),
        feature_map=fmap, centers=np.zeros((len(models), 4)),
        privacy=None, epsilon=math.inf, argmin_lambda=None,
    )


def test_training_replays_from_named_streams():
    # rebuild every stage of a k = 1 run from the master seed by hand and
    # demand bit-identical parameters
    seed = 905
    data = mixture_corpus(60, 8, 2, np.random.default_rng(17))
    cfg = _tiny_config()
    result = train(data, cfg, master_seed=seed)
    assert result.t_sgd == 2  # one epoch at q = 0.5
    assert len(result.steps) == 2

    fmap = feature_map_from_seed(8, 10, 0.5, child_seed(seed, "feature-map"))
    clustering = dp_kernel_kmeans(
        data, fmap, 1, 2, 4.0, 40.0, child_rng(seed, "kmeans-noise"),
        init_rng=child_rng(seed, "kmeans-init"),
    )
    assert np.array_equal(result.clustering.assignments, clustering.assignments)
    assert_allclose(result.mixture.centers, clustering.noisy_centers)
    assert_allclose(
        result.mixture.weights, np.clip(clustering.noisy_sizes, 0.0, None)
    )

    cluster = subset(data, np.flatnonzero(clustering.assignments == 0))
    model = rbm.init_model(8, 4, child_rng(seed, "model-init"))
    chains = rbm.PersistentChains.initialize(6, 8, child_seed(seed, "chains-0"))
    selection = child_rng(seed, "selection")
    sample_rng = child_rng(seed, "sgd-sampling")
    noise_rng = child_rng(seed, "sgd-noise")
    sgd_cfg = SgdConfig(sigma_c=4.0, sigma_g=1.0, batch_size=30, eta=0.05)

    def grad_fn(batch):
        return -rbm.pcd_per_example_gradients(model, batch, chains, 1)

    prev = None
    for _ in range(2):
        assert int(selection.choice(1, p=[1.0])) == 0
        params = rbm.flatten_parameters(model)
        new_params, info = dp_sgd_step(
            params, grad_fn, cluster, sgd_cfg, sample_rng, noise_rng,
            prev_clip=prev,
        )
        rbm.set_flat_parameters(model, new_params)
        prev = info.clip_bound

    assert_allclose(
        rbm.flatten_parameters(result.mixture.models[0]),
        rbm.flatten_parameters(model),
    )
    assert [s.info.clip_bound for s in result.steps][-1] == prev


def test_zero_epochs_leaves_models_at_initialization():
    seed = 44
    data = mixture_corpus(90, 8, 3, np.random.default_rng(3))
    cfg = _tiny_config(k=3, epochs=0, batch_size=10)
    result = train(data, cfg, master_seed=seed)
    assert result.t_sgd == 0
    assert result.steps == []

    init_rng = child_rng(seed, "model-init")
    for model in result.mixture.models:
        want = rbm.init_model(8, cfg.n_hidden, init_rng)
        assert_allclose(model.weights, want.weights)
        assert_allclose(model.visible_bias, want.visible_bias)


def test_epsilon_matches_recomputation_from_stored_privacy():
    data = mixture_corpus(120, 8, 2, np.random.default_rng(9))
    result = train(data, _tiny_config(k=2, epochs=2), master_seed=7)
    mix = result.mixture
    assert mix.privacy is not None
    assert mix.privacy.q == pytest.approx(30 / 120)
    assert mix.privacy.t_sgd == result.t_sgd
    eps, lam = epsilon_for_delta(mix.privacy)
    assert mix.epsilon == pytest.approx(eps, rel=1e-12)
    assert mix.argmin_lambda == lam
    # default delta is one over the dataset size
    assert mix.privacy.delta == pytest.approx(1 / 120)


def test_step_selection_tracks_true_cluster_sizes():
    data = mixture_corpus(300, 8, 3, np.random.default_rng(23))
    cfg = _tiny_config(
        k=3, epochs=10, batch_size=5, n_hidden=3, d=8, chain_count=4
    )
    result = train(data, cfg, master_seed=61)
    t = result.t_sgd
    assert t == 10 * 60  # q = 1/60

    sizes = np.bincount(result.clustering.assignments, minlength=3)
    probs = sizes / sizes.sum()
    picks = np.bincount([s.cluster for s in result.steps], minlength=3)
    for i in range(3):
        margin = 4 * math.sqrt(t * probs[i] * (1 - probs[i])) + 1
        assert abs(picks[i] - t * probs[i]) <= margin, (i, picks, probs)


def test_unsafe_zero_noise_disables_accounting():
    data = mixture_corpus(60, 8, 2, np.random.default_rng(4))
    result = train(data, _tiny_config(sigma_c=0.0), master_seed=5)
    assert result.mixture.privacy is None
    assert result.mixture.epsilon == math.inf
    assert result.mixture.argmin_lambda is None


def test_config_validation():
    data = mixture_corpus(20, 6, 2, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        TrainConfig(k=0, epochs=1, batch_size=5, sigma_c=1, sigma_k=1, sigma_g=1)
    with pytest.raises(ConfigError):
        TrainConfig(k=2, epochs=-1, batch_size=5, sigma_c=1, sigma_k=1, sigma_g=1)
    with pytest.raises(ConfigError):
        TrainConfig(k=2, epochs=1, batch_size=5, sigma_c=-1, sigma_k=1, sigma_g=1)
    with pytest.raises(ConfigError):
        train(data, _tiny_config(batch_size=21), master_seed=0)


def test_generate_single_component():
    mix = _saturated_mixture([7.0], biases=[30.0])
    out = generate(mix, 25, np.random.default_rng(0), gibbs_steps=2)
    assert len(out) == 25
    assert np.all(out.records == 1)


def test_generate_zero_weight_component_never_fires():
    mix = _saturated_mixture([100.0, 0.0], biases=[30.0, -30.0])
    out = generate(mix, 200, np.random.default_rng(1), gibbs_steps=2)
    assert np.all(out.records == 1)


def test_generate_allocates_by_weight():
    mix = _saturated_mixture([600.0, 400.0], biases=[30.0, -30.0])
    out = generate(mix, 500, np.random.default_rng(3), gibbs_steps=2)
    ones = int((out.records.sum(axis=1) == mix.m).sum())
    zeros = int((out.records.sum(axis=1) == 0).sum())
    assert ones + zeros == 500
    # Binomial(500, 0.6) within 3 sigma of its mean
    assert abs(ones - 300) <= 3 * math.sqrt(500 * 0.6 * 0.4)


def test_generate_tolerates_all_zero_records():
    mix = _saturated_mixture([1.0], biases=[-30.0])
    out = generate(mix, 10, np.random.default_rng(0), gibbs_steps=2)
    assert np.all(out.records == 0)


def _random_mixture(weights, m=6, n_hidden=3, seed=12):
    rng = np.random.default_rng(seed)
    mix = _saturated_mixture(weights, biases=[0.0] * len(weights), m=m)
    mix.models = [
        rbm.RbmModel(
            rng.normal(0, 1, (n_hidden, m)), rng.normal(0, 1, m), rng.normal(0, 1, n_hidden)
        )
        for _ in weights
    ]
    return mix


def test_generate_replays_from_chunk_streams():
    # rebuild the output by hand: component draw, one seed, then one spawned
    # stream per chunk of GENERATION_CHUNK_ROWS rows, components in order
    mix = _random_mixture([1.0, 0.0, 3.0])
    count = 2 * GENERATION_CHUNK_ROWS + 77
    out = generate(mix, count, np.random.default_rng(6), gibbs_steps=2)

    rng = np.random.default_rng(6)
    assignment = rng.choice(3, size=count, p=[0.25, 0.0, 0.75])
    seed = int(rng.integers(2**63))
    chunks = []
    for i in (0, 2):
        rows = np.flatnonzero(assignment == i)
        chunks += [
            (i, rows[start : start + GENERATION_CHUNK_ROWS])
            for start in range(0, rows.size, GENERATION_CHUNK_ROWS)
        ]
    assert len(chunks) == 3  # about 531 rows, then about 1594 in two chunks
    expected = np.zeros((count, mix.m), dtype=np.uint8)
    for (i, rows), stream in zip(chunks, np.random.SeedSequence(seed).spawn(len(chunks))):
        stream_rng = np.random.default_rng(stream)
        expected[rows] = rbm.sample_batch(mix.models[i], rows.size, 2, stream_rng)
    assert np.array_equal(out.records, expected)


def test_generate_rejects_degenerate_weights():
    mix = _saturated_mixture([0.0, 0.0], biases=[30.0, -30.0])
    with pytest.raises(DataError):
        generate(mix, 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        generate(_saturated_mixture([1.0], biases=[0.0]), 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        generate(_saturated_mixture([1.0], biases=[0.0]), 5, np.random.default_rng(0), workers=0)


def test_save_is_byte_deterministic(tmp_path):
    data = mixture_corpus(60, 8, 2, np.random.default_rng(2))
    result = train(data, _tiny_config(k=2), master_seed=11)
    echo = {"command": "train", "k": 2}
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_model(result.mixture, path_a, config_echo=echo)
    save_model(result.mixture, path_b, config_echo=echo)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_failed_save_leaves_no_partial_model(tmp_path, monkeypatch):
    data = mixture_corpus(60, 8, 2, np.random.default_rng(2))
    result = train(data, _tiny_config(k=2), master_seed=11)

    def dump_then_fail(payload, fh, **kw):
        fh.write(json.dumps(payload, **kw)[:200])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    path = tmp_path / "model.json"
    with pytest.raises(OSError):
        save_model(result.mixture, path)
    assert list(tmp_path.iterdir()) == []
    # an earlier model at the same path is kept whole
    path.write_text("earlier model\n")
    with pytest.raises(OSError):
        save_model(result.mixture, path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "earlier model\n"


def test_save_load_round_trip(tmp_path):
    data = mixture_corpus(60, 8, 2, np.random.default_rng(2))
    result = train(data, _tiny_config(k=2), master_seed=11)
    path = tmp_path / "model.json"
    save_model(result.mixture, path)
    back = load_model(path)

    assert back.m == result.mixture.m
    assert back.k == 2
    assert_allclose(back.weights, result.mixture.weights)
    assert_allclose(back.centers, result.mixture.centers)
    assert_allclose(back.feature_map.w, result.mixture.feature_map.w)
    for got, want in zip(back.models, result.mixture.models):
        assert_allclose(got.weights, want.weights)
        assert_allclose(got.visible_bias, want.visible_bias)
        assert_allclose(got.hidden_bias, want.hidden_bias)
    assert back.privacy == result.mixture.privacy
    assert back.epsilon == pytest.approx(result.mixture.epsilon)
    assert back.argmin_lambda == result.mixture.argmin_lambda

    # sampling from the reloaded model reproduces the original stream
    a = generate(result.mixture, 20, np.random.default_rng(8), gibbs_steps=3)
    b = generate(back, 20, np.random.default_rng(8), gibbs_steps=3)
    assert np.array_equal(a.records, b.records)


def test_save_load_unsafe_model(tmp_path):
    data = mixture_corpus(60, 8, 2, np.random.default_rng(6))
    result = train(data, _tiny_config(sigma_c=0.0), master_seed=3)
    path = tmp_path / "unsafe.json"
    save_model(result.mixture, path)
    payload = json.loads(path.read_text())
    assert payload["privacy"] == {"epsilon": None, "unsafe_no_privacy": True}
    back = load_model(path)
    assert back.privacy is None
    assert back.epsilon == math.inf


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 99}))
    with pytest.raises(DataError):
        load_model(path)
