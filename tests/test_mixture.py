"""Training pipeline wiring, mixture sampling, and model serialization."""
import base64
import errno
import json
import math
import struct
import sys
import threading
import tracemalloc
from dataclasses import asdict, fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_dataset, mixture_corpus, privacy_claim
from dpmix import accountant, mixture, rbm, rff
from dpmix.accountant import epsilon_for_delta
from dpmix.data import BinaryDataset, sample_batch
from dpmix.dpsgd import StepInfo, dp_sgd_step
from dpmix.errors import ConfigError, DataError
from dpmix.kmeans import CLIP_BOUND, dp_kernel_kmeans
from dpmix.mixture import (
    GENERATION_CHUNK_ROWS,
    MixtureModel,
    StepLog,
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
    return MixtureModel(
        models=models,
        weights=np.asarray(weights, dtype=np.float64), **privacy_claim(),
    )


def test_sizes_are_read_from_the_arrays():
    # no record stores a size beside the array that holds it, so none can
    # state one that its arrays contradict
    assert [f.name for f in fields(BinaryDataset)] == ["records"]
    assert not {"m", "k"} & {f.name for f in fields(MixtureModel)}
    assert "gamma" not in {f.name for f in fields(rff.FeatureMap)}
    assert make_dataset(np.eye(7, dtype=np.uint8)[:3]).m == 7
    mix = _saturated_mixture([1.0, 2.0, 3.0], biases=[0.0] * 3, m=5)
    assert (mix.m, mix.k) == (5, 3)


def test_every_release_is_a_charged_gaussian(monkeypatch):
    # wrap the release helper wherever src/ bound it and list the (sigma,
    # sensitivity, shape) of each release of a small run: exactly the
    # mechanisms the accountant charges, one call each, in the order they ran
    released, real = [], accountant.gaussian_release

    def recorded(value, sigma, sensitivity, rng):
        released.append((sigma, sensitivity, np.shape(value)))
        return real(value, sigma, sensitivity, rng)

    patched = [name for name, module in list(sys.modules.items())
               if name.startswith("dpmix") and getattr(module, "gaussian_release", None) is real]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "gaussian_release", recorded)
    assert {"dpmix.kmeans", "dpmix.dpnorm", "dpmix.dpsgd"} <= set(patched)

    data = mixture_corpus(60, 8, 2, np.random.default_rng(17))
    cfg = _tiny_config(k=2, t_kmeans=3, batch_size=1)
    result = train(data, cfg, master_seed=7)

    # per k-means iteration, the k counts then the (k, d) sums: the two
    # Gaussians alpha_kmeans charges; per step, the (bins,) vote then the
    # (P,) gradient
    k, d, n_params = cfg.k, cfg.d, result.mixture.models[0].n_params
    want = [(cfg.sigma_k, 1.0, (k,)), (cfg.sigma_k, CLIP_BOUND, (k, d))] * cfg.t_kmeans
    for step in result.steps:  # an empty batch votes and releases like any other
        want += [(cfg.sigma_c, 1.0, (cfg.bins,)), (cfg.sigma_g, step.info.clip_bound, (n_params,))]
    assert released == want
    sizes = [step.info.batch_size for step in result.steps]
    assert len(sizes) == result.mixture.privacy.t_sgd and 0 in sizes and max(sizes) > 0


def test_training_replays_from_named_streams():
    # rebuild every stage of a k = 1 run from the master seed by hand and
    # demand bit-identical parameters
    seed = 905
    data = mixture_corpus(60, 8, 2, np.random.default_rng(17))
    cfg = _tiny_config()
    result = train(data, cfg, master_seed=seed)
    assert result.mixture.privacy.t_sgd == 2  # one epoch at q = 0.5
    assert len(result.steps) == 2

    fmap = feature_map_from_seed(8, 10, 0.5, child_seed(seed, "feature-map"))
    clustering = dp_kernel_kmeans(
        data, fmap, 1, 2, 40.0, child_rng(seed, "kmeans-noise"),
        init_rng=child_rng(seed, "kmeans-init"),
    )
    assert np.array_equal(result.clustering.assignments, clustering.assignments)
    assert_allclose(result.clustering.noisy_centers, clustering.noisy_centers)
    assert_allclose(
        result.mixture.weights, np.clip(clustering.noisy_sizes, 0.0, None)
    )

    members = np.flatnonzero(clustering.assignments == 0)
    model = rbm.init_model(8, 4, child_rng(seed, "model-init"))
    chains = rbm.PersistentChains.initialize(6, 8, child_seed(seed, "chains-0"))
    selection = child_rng(seed, "selection")
    sample_rng = child_rng(seed, "sgd-sampling")
    noise_rng = child_rng(seed, "sgd-noise")

    bounds = []
    for _ in range(2):
        assert int(selection.choice(1, p=[1.0])) == 0
        batch = sample_batch(members, cfg.batch_size / len(members), sample_rng)
        grads = rbm.pcd_per_example_gradients(model, data.records[batch], chains, 1)
        new_params, info = dp_sgd_step(model.params, grads, cfg, noise_rng)
        model.params[:] = new_params
        bounds.append(info.clip_bound)

    assert_allclose(result.mixture.models[0].params, model.params)
    assert [s.info.clip_bound for s in result.steps] == bounds


def test_every_step_advances_the_chains(monkeypatch):
    # the chains advance on every step, an empty batch included, so their
    # states depend on the number of steps and not on which batches were empty
    sizes, real = [], rbm.pcd_per_example_gradients

    def counted(model, batch, chains, gibbs_steps=1):
        sizes.append(len(batch))
        return real(model, batch, chains, gibbs_steps)

    monkeypatch.setattr(rbm, "pcd_per_example_gradients", counted)
    data = mixture_corpus(60, 8, 2, np.random.default_rng(17))
    result = train(data, _tiny_config(k=2, t_kmeans=3, batch_size=1), master_seed=7)
    assert len(sizes) == result.mixture.privacy.t_sgd == 60
    assert 0 in sizes
    assert sizes == [step.info.batch_size for step in result.steps]


def test_oversized_batch_clamps_sampling_probability():
    # L = 40 exceeds both clusters of 60 records: q clamps to 1, so every
    # step's batch is its whole cluster
    data = mixture_corpus(60, 8, 2, np.random.default_rng(17))
    cfg = _tiny_config(k=2, epochs=3, batch_size=40, sigma_k=1.0)
    result = train(data, cfg, master_seed=7)
    sizes = np.bincount(result.clustering.assignments, minlength=2)
    assert sizes.max() < 40 and len(result.steps) == 6
    assert [step.info.batch_size for step in result.steps] == [
        sizes[step.cluster] for step in result.steps
    ]


def test_zero_epochs_leaves_models_at_initialization():
    seed = 44
    data = mixture_corpus(90, 8, 3, np.random.default_rng(3))
    cfg = _tiny_config(k=3, epochs=0, batch_size=10)
    result = train(data, cfg, master_seed=seed)
    assert result.mixture.privacy.t_sgd == 0
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
    assert mix.privacy.q == pytest.approx(30 / 120)
    assert mix.privacy.t_sgd == len(result.steps) == 2 * 4
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
    t = result.mixture.privacy.t_sgd
    assert t == 10 * 60  # q = 1/60

    sizes = np.bincount(result.clustering.assignments, minlength=3)
    probs = sizes / sizes.sum()
    picks = np.bincount([s.cluster for s in result.steps], minlength=3)
    for i in range(3):
        margin = 4 * math.sqrt(t * probs[i] * (1 - probs[i])) + 1
        assert abs(picks[i] - t * probs[i]) <= margin, (i, picks, probs)


@pytest.mark.parametrize("name", ["sigma_c", "sigma_k", "sigma_g"])
def test_zero_noise_is_refused_before_clustering(monkeypatch, name):
    # zero noise has no finite epsilon, so no model could carry a claim;
    # TrainConfig refuses it, so train never reaches clustering
    def clustering_ran(*args, **kwargs):
        raise AssertionError("clustering ran")

    monkeypatch.setattr(mixture, "clustering_stage", clustering_ran)
    data = mixture_corpus(60, 8, 2, np.random.default_rng(4))
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
        train(data, _tiny_config(**{name: 0.0}), master_seed=5)


def test_empty_step_log_line():
    # an empty batch has no norm statistics: None in StepInfo, null in the log
    line = json.dumps(StepLog(step=3, cluster=1, info=StepInfo(0, 0.5, None, None, 0.0)).to_dict())
    assert line == ('{"step": 3, "cluster": 1, "batch_size": 0, "clip_bound": 0.5, '
                    '"grad_norm_mean": null, "grad_norm_max": null, "clipped_fraction": 0.0}')


def test_equal_configs_compare_and_hash_equal():
    # every field is a scalar, so a frozen config is a value
    assert {f.type for f in fields(TrainConfig)} <= {"int", "float", "int | None", "float | None"}
    a, b = _tiny_config(k=2), _tiny_config(k=2)
    assert a == b and hash(a) == hash(b)
    assert a != _tiny_config(k=3)


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


@pytest.mark.parametrize("name", [
    "epochs", "batch_size", "sigma_c", "sigma_k", "sigma_g", "gamma", "eta", "c_max", "delta",
])
def test_config_validation_rejects_nan(name):
    # every range check is written so that NaN, which compares false both ways, fails it
    with pytest.raises(ConfigError):
        _tiny_config(**{name: math.nan})


@pytest.mark.parametrize("name", ["sigma_c", "sigma_k", "sigma_g", "gamma", "eta", "c_max"])
def test_config_validation_rejects_inf(name):
    # an infinite step size or noise scale would only fail later, inside DP-SGD
    with pytest.raises(ConfigError):
        _tiny_config(**{name: math.inf})


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


def test_generate_keeps_one_copy_of_its_output(monkeypatch):
    # the sampled array is the dataset's, frozen as it is: a second copy of
    # the 5 MB output would take the peak past twice its size.  Each thread
    # holds one chunk's temporaries, so the thread count is fixed.
    monkeypatch.setattr(mixture, "_usable_cpus", lambda: 2)
    mix = _random_mixture([1.0, 2.0], m=100, n_hidden=8)
    out, peak = _traced_peak(generate, mix, 50_000, np.random.default_rng(0), 2)
    assert peak < 2 * out.records.nbytes
    assert not out.records.flags.writeable


def test_generate_threads_share_chunks_without_losing_one(monkeypatch):
    # more threads than cores, switching as often as the interpreter can:
    # a chunk taken twice or never would change rows of the output
    mix = _random_mixture([1.0, 2.0, 1.0], m=4, n_hidden=2)
    count = 16 * GENERATION_CHUNK_ROWS + 5
    monkeypatch.setattr(mixture, "_usable_cpus", lambda: 1)
    want = generate(mix, count, np.random.default_rng(8), gibbs_steps=1)
    monkeypatch.setattr(mixture, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = generate(mix, count, np.random.default_rng(8), gibbs_steps=1)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got.records, want.records)


def test_generate_raises_a_helper_threads_error(monkeypatch):
    mix = _random_mixture([1.0, 1.0], m=4, n_hidden=2)
    sample, calls, lock = rbm.sample_batch, [0], threading.Lock()

    def fail_on_third_chunk(*args):
        with lock:
            calls[0] += 1
            if calls[0] == 3:
                raise RuntimeError("chunk failed")
        return sample(*args)

    monkeypatch.setattr(rbm, "sample_batch", fail_on_third_chunk)
    monkeypatch.setattr(mixture, "_usable_cpus", lambda: 3)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk failed"):
        generate(mix, 8 * GENERATION_CHUNK_ROWS, np.random.default_rng(1), gibbs_steps=1)
    assert threading.active_count() == before  # every helper was joined


def test_generate_rejects_degenerate_weights():
    mix = _saturated_mixture([0.0, 0.0], biases=[30.0, -30.0])
    with pytest.raises(DataError):
        generate(mix, 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        generate(_saturated_mixture([1.0], biases=[0.0]), 0, np.random.default_rng(0))


def test_save_is_byte_deterministic(tmp_path):
    data = mixture_corpus(60, 8, 2, np.random.default_rng(2))
    result = train(data, _tiny_config(k=2), master_seed=11)
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_model(result.mixture, path_a)
    save_model(result.mixture, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_failed_save_leaves_no_partial_model(tmp_path, monkeypatch):
    data = mixture_corpus(60, 8, 2, np.random.default_rng(2))
    result = train(data, _tiny_config(k=2), master_seed=11)

    def open_then_fail(path, *args, **kw):
        # the file takes 200 characters, then the disk is full
        fh = open(path, *args, **kw)
        write, written = fh.write, [0]

        def write_until_full(text):
            written[0] += len(text)
            if written[0] > 200:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(text)

        fh.write = write_until_full
        return fh

    # save_model writes through config.atomic_write
    monkeypatch.setattr("dpmix.config.open", open_then_fail, raising=False)
    path = tmp_path / "model.json"
    with pytest.raises(OSError, match="No space"):
        save_model(result.mixture, path)
    assert list(tmp_path.iterdir()) == []
    # an earlier model at the same path is kept whole
    path.write_text("earlier model\n")
    with pytest.raises(OSError, match="No space"):
        save_model(result.mixture, path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "earlier model\n"


def _struct_base64(array):
    """An array in the base64 layout, packed value by value with struct."""
    values = array.ravel().tolist()
    raw = struct.pack(f"<{len(values)}d", *values)
    return {"dtype": "<f8", "shape": list(array.shape),
            "base64": base64.b64encode(raw).decode("ascii")}


def _reference_model_json(mix):
    """The model file as json.dump(indent=1) writes it from a payload of
    struct-packed base64 objects."""
    privacy = {**asdict(mix.privacy), "epsilon": mix.epsilon, "argmin_lambda": mix.argmin_lambda}
    payload = {
        "version": 3,
        "m": mix.m,
        "k": mix.k,
        "weights": _struct_base64(mix.weights),
        "models": [
            {
                "weights": _struct_base64(model.weights),
                "visible_bias": _struct_base64(model.visible_bias),
                "hidden_bias": _struct_base64(model.hidden_bias),
            }
            for model in mix.models
        ],
        "privacy": privacy,
    }
    return json.dumps(payload, indent=1) + "\n"


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_same_model(back, mix):
    assert (back.m, back.k) == (mix.m, mix.k)
    _assert_same_bits(back.weights, mix.weights)
    assert len(back.models) == len(mix.models)
    for got, want in zip(back.models, mix.models):
        _assert_same_bits(got.weights, want.weights)
        _assert_same_bits(got.visible_bias, want.visible_bias)
        _assert_same_bits(got.hidden_bias, want.hidden_bias)
    assert back.privacy == mix.privacy
    assert back.epsilon == mix.epsilon
    assert back.argmin_lambda == mix.argmin_lambda


@pytest.mark.parametrize("config", [dict(k=2), dict()], ids=["k2", "k1"])
def test_saved_bytes_equal_json_dump_of_lists(tmp_path, config):
    # every float array is a base64 object, not a list, since version 2
    data = mixture_corpus(60, 8, 2, np.random.default_rng(2))
    mix = train(data, _tiny_config(**config), master_seed=11).mixture
    path = tmp_path / "model.json"
    save_model(mix, path)
    assert path.read_text(encoding="utf-8") == _reference_model_json(mix)


def _traced_peak(call, *args):
    """``call(*args)`` and the peak of its traced memory, in bytes."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_model_saves_the_reference_bytes_one_block_at_a_time(tmp_path):
    # each RBM's weights span several base64 blocks, the last one short; the
    # bytes are still json.dump's, and no array's whole base64 text is held
    mix = _random_mixture([1.0, 2.0], m=1000, n_hidden=500)
    largest = 4 * math.ceil(mix.models[0].weights.nbytes / 3)
    assert mix.models[0].weights.nbytes % mixture.BASE64_BLOCK_BYTES != 0
    path = tmp_path / "model.json"
    _, peak = _traced_peak(save_model, mix, path)
    assert peak < largest
    assert path.read_text(encoding="utf-8") == _reference_model_json(mix)


def test_load_holds_the_text_and_one_copy_of_the_parameters(tmp_path, monkeypatch):
    # Past reading the file, whose bytes and text coexist for a moment,
    # load_model holds the text, the arrays decoded so far and one array's
    # base64 text and its ASCII copy (0.35 MB each here).  Keeping every
    # array's base64 text until the whole file is parsed would add a third
    # of the parameters, 2.6 MB.
    mix = _random_mixture([1.0] * 30, m=1000, n_hidden=32)
    path = tmp_path / "model.json"
    save_model(mix, path)
    real_loads = json.loads

    def loads_after_the_read(text, **kw):
        tracemalloc.reset_peak()
        return real_loads(text, **kw)

    monkeypatch.setattr(json, "loads", loads_after_the_read)
    back, peak = _traced_peak(load_model, path)
    params = sum(model.params.nbytes for model in back.models)
    assert params > 7e6
    assert peak < path.stat().st_size + params + 1e6
    _assert_same_model(back, mix)


def test_save_load_round_trip(tmp_path):
    data = mixture_corpus(60, 8, 2, np.random.default_rng(2))
    result = train(data, _tiny_config(k=2), master_seed=11)
    path = tmp_path / "model.json"
    save_model(result.mixture, path)
    back = load_model(path)
    assert back.k == 2
    _assert_same_model(back, result.mixture)

    # sampling from the reloaded model reproduces the original stream
    a = generate(result.mixture, 20, np.random.default_rng(8), gibbs_steps=3)
    b = generate(back, 20, np.random.default_rng(8), gibbs_steps=3)
    assert np.array_equal(a.records, b.records)


# The class of every key a model file holds.  A key that holds an object or
# a list is a public shape; its leaves carry the class of what they store.
# No charged release is stored as drawn: each stored array is post-processing
# of one.
PUBLIC, POST = "public shape", "post-processing of charged releases"
# q = L / n, t_sgd = epochs * ceil(n / L), the default delta = 1 / n and the
# epsilon they give are functions of the exact record count, which the
# add/remove adjacency does not make public (ROADMAP item 4).
RECORD_COUNT = "function of the record count"
_ARRAY = {"": PUBLIC, ".dtype": PUBLIC, ".shape": PUBLIC}
MANIFEST = {
    "version": PUBLIC,
    "m": PUBLIC,
    "k": PUBLIC,
    # the last k-means iteration's noisy counts, clamped at 0
    **{f"weights{key}": cls for key, cls in {**_ARRAY, ".base64": POST}.items()},
    "models": PUBLIC,
    # DP-SGD's iterates: sums of noisy clipped gradients at noisily voted clip bounds
    **{f"models[].{name}{key}": cls
       for name in ("weights", "visible_bias", "hidden_bias")
       for key, cls in {**_ARRAY, ".base64": POST}.items()},
    "privacy": PUBLIC,
    **{f"privacy.{name}": PUBLIC
       for name in ("sigma_c", "sigma_k", "sigma_g", "t_kmeans", "lambda_max")},
    **{f"privacy.{name}": RECORD_COUNT
       for name in ("q", "t_sgd", "delta", "epsilon", "argmin_lambda")},
}


def _key_paths(value, path=""):
    """The path of every key under ``value``, a list's items as ``[]``."""
    if isinstance(value, dict):
        for key, item in value.items():
            name = f"{path}.{key}" if path else key
            yield name
            yield from _key_paths(item, name)
    elif isinstance(value, list):
        for item in value:
            yield from _key_paths(item, f"{path}[]")


def test_every_key_of_the_file_is_classed(tmp_path):
    # Each key of a saved model is a public shape, a charged release or
    # post-processing of one (or a named gap); the file names no seed, and
    # load_model gives back every field bit for bit.
    seed = 2**40 + 424242
    data = mixture_corpus(60, 8, 2, np.random.default_rng(2))
    mix = train(data, _tiny_config(k=2, t_kmeans=3), master_seed=seed).mixture
    path = tmp_path / "model.json"
    save_model(mix, path)
    payload = json.loads(path.read_text())
    assert list(payload) == ["version", "m", "k", "weights", "models", "privacy"]
    paths = set(_key_paths(payload))
    assert paths - MANIFEST.keys() == set()
    assert MANIFEST.keys() - paths == set()  # the table names no key the file lacks

    raw = path.read_bytes()
    for secret in (seed, child_seed(seed, "feature-map")):
        assert str(secret).encode() not in raw
    _assert_same_model(load_model(path), mix)


def test_int_gamma_saves_the_bytes_of_float_gamma(tmp_path):
    # the file stores no gamma, and an int gamma trains the model a float one does
    data = mixture_corpus(60, 8, 2, np.random.default_rng(2))
    saved = []
    for gamma in (1, 1.0):
        path = tmp_path / f"model-{gamma!r}.json"
        save_model(train(data, _tiny_config(gamma=gamma), master_seed=11).mixture, path)
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]


def test_load_draws_no_feature_map(tmp_path, monkeypatch):
    # the file holds no feature map; generate never embeds, so loading
    # draws none
    data = mixture_corpus(60, 8, 2, np.random.default_rng(2))
    mix = train(data, _tiny_config(k=2), master_seed=11).mixture
    path = tmp_path / "model.json"
    save_model(mix, path)

    def drawn(*args, **kwargs):
        raise AssertionError("a feature map was drawn")

    monkeypatch.setattr(rff, "sample_feature_map", drawn)
    _assert_same_model(load_model(path), mix)


@pytest.mark.parametrize("factor,accepted", [
    (1 - 1e-8, False), (0.5, False), (1 - 1e-10, True), (1.5, True),
], ids=["lowered-1e-8", "halved", "lowered-1e-10", "raised"])
def test_load_rechecks_the_stored_epsilon(tmp_path, factor, accepted):
    # The claim may be looser than the accountant's, not tighter; 1e-9
    # relative slack admits last-bit differences in exp, log and erfc.
    data = mixture_corpus(60, 8, 2, np.random.default_rng(2))
    mix = train(data, _tiny_config(k=2), master_seed=11).mixture
    path = tmp_path / "model.json"
    save_model(mix, path)
    payload = json.loads(path.read_text())
    claimed = payload["privacy"]["epsilon"] * factor
    payload["privacy"]["epsilon"] = claimed
    path.write_text(json.dumps(payload))
    if accepted:
        assert load_model(path).epsilon == claimed
    else:
        with pytest.raises(DataError, match=f"privacy.epsilon is {claimed!r}, expected at least "
                                            f"{mix.epsilon!r}"):
            load_model(path)


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    for version in (99, 0, 4, None, True, 1.0, 2.0, 3.0, "2", "3"):
        path.write_text(json.dumps({"version": version}))
        with pytest.raises(DataError, match="unsupported model format version"):
            load_model(path)


@pytest.mark.parametrize("text,message", [
    ('{"version": 1, "m": 1, "k": 1, "d": 1, "weights": [1.0]}',
     "model format version 1 is no longer read: its file names the seed of its noise; "
     "train again to write version 3$"),
    ('{"version": 2, "m": 1, "k": 1, "d": 1, "feature_map_seed": 5}',
     "model format version 2 is no longer read: its file names the seed of its noise; "
     "train again to write version 3$"),
    ("{", "malformed model file .*: Expecting property name"),
    ('{"version": 3, "m": 3, "k": 1, "models": 5}',
     "malformed model: models is not a list"),
    ('{"version": 3, "m": 3, "k": 1, "models": [5]}',
     r"malformed model: models\[0\] is not a JSON object"),
    ('{"version": 3, "m": 3, "k": 1, "models": [{"weights": '
     '{"dtype": "<f8", "shape": [], "base64": "AAAAAAAA8D8="}, "visible_bias": '
     '{"dtype": "<f8", "shape": [0], "base64": ""}, "hidden_bias": '
     '{"dtype": "<f8", "shape": [0], "base64": ""}}]}',
     r"malformed model: models\[0\]\.weights has shape \(\), expected 2 axes"),
], ids=["version-1", "version-2", "truncated-json", "models-not-a-list",
        "rbm-not-an-object", "scalar-rbm-weights"])
def test_load_raises_data_error_for_a_bad_file(tmp_path, text, message):
    # a library caller gets the same DataError that generate reports
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{message}"):
        load_model(path)
