"""End-to-end pipeline: private clustering, one RBM per cluster, sampling.

Everything written into the released model is a function of noisy,
differentially private quantities: noisy cluster sizes (clamped to be
non-negative) become the mixture weights, and the stored epsilon is
recomputed from the exact iteration counts and noise scales that were
executed.  Training still picks the cluster of each SGD step, and that
cluster's sampling rate, from the true partition sizes.  Those choices
depend on private data and the accountant does not charge them; keeping
the sizes out of the model file does not make them free.  The ROADMAP
item "Make DP-SGD run the mechanism the accountant charges" tracks the
fix.
"""
from __future__ import annotations

import base64
import json
import math
import os
import sys
import threading
from collections import deque
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import rbm
from .accountant import PrivacyConfig, epoch_iterations, epsilon_for_delta
from .config import DEFAULT_GENERATION_SWEEPS, TrainConfig
from .data import BinaryDataset, atomic_write, make_dataset
from .dpsgd import StepInfo, dp_sgd_step
from .errors import ConfigError, DataError
from .kmeans import Clustering, dp_kernel_kmeans
from .rff import FeatureMap, feature_map_from_seed
from .streams import child_rng, child_seed

MODEL_FORMAT_VERSION = 2
# Rows per independently seeded sampling chunk.  Fixed, so the output
# does not depend on how many workers sample the chunks.
GENERATION_CHUNK_ROWS = 1024


@dataclass
class MixtureModel:
    """The released artifact: k generative models plus DP mixture weights."""

    m: int
    k: int
    models: list[rbm.RbmModel]
    weights: np.ndarray
    feature_map: FeatureMap
    centers: np.ndarray
    privacy: PrivacyConfig | None
    epsilon: float
    argmin_lambda: int | None


@dataclass(frozen=True)
class StepLog:
    step: int
    cluster: int
    info: StepInfo

    def to_dict(self) -> dict:
        d = {"step": self.step, "cluster": self.cluster}
        d.update(asdict(self.info))
        return d


@dataclass
class TrainResult:
    mixture: MixtureModel
    clustering: Clustering
    steps: list[StepLog]
    t_sgd: int
    q: float


def train(dataset: BinaryDataset, cfg: TrainConfig, master_seed: int) -> TrainResult:
    """Full private training run, deterministic in (dataset, cfg, master_seed).

    Child random streams, by name: "feature-map", "kmeans-init",
    "kmeans-noise", "model-init", "chains-<i>", "selection",
    "sgd-sampling", "sgd-noise".  Any stage can be replayed by rebuilding
    its stream from the master seed.
    """
    n = len(dataset)
    if cfg.batch_size > n:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    if cfg.k > n:
        raise ConfigError(f"k {cfg.k} exceeds dataset size {n}")
    q = cfg.batch_size / n
    t_sgd = cfg.epochs * epoch_iterations(q)
    delta = cfg.delta if cfg.delta is not None else 1.0 / n

    unsafe = min(cfg.sigma_c, cfg.sigma_k, cfg.sigma_g) == 0
    privacy = None
    epsilon = math.inf
    argmin_lambda = None
    if not unsafe:
        shared = {
            f.name: getattr(cfg, f.name) for f in fields(PrivacyConfig) if hasattr(cfg, f.name)
        }
        privacy = PrivacyConfig(**{**shared, "q": q, "t_sgd": t_sgd, "delta": delta})
        epsilon, argmin_lambda = epsilon_for_delta(privacy)

    fmap = feature_map_from_seed(
        dataset.m, cfg.d, cfg.gamma, child_seed(master_seed, "feature-map")
    )
    clustering = dp_kernel_kmeans(
        dataset,
        fmap,
        cfg.k,
        cfg.t_kmeans,
        cfg.sigma_c,
        cfg.sigma_k,
        child_rng(master_seed, "kmeans-noise"),
        init=cfg.init_centers,
        init_rng=child_rng(master_seed, "kmeans-init"),
        rbf_mode=cfg.rbf_mode,
        c_max=cfg.c_max,
        bins=cfg.bins,
    )

    # True partition, as row ids: training-internal only, never released.
    members = [np.flatnonzero(clustering.assignments == i) for i in range(cfg.k)]
    true_sizes = np.array([len(rows) for rows in members], dtype=np.float64)
    selection_probs = true_sizes / true_sizes.sum()

    init_rng = child_rng(master_seed, "model-init")
    models = [rbm.init_model(dataset.m, cfg.n_hidden, init_rng) for _ in range(cfg.k)]
    chain_count = cfg.chain_count if cfg.chain_count is not None else cfg.batch_size
    chains = [
        rbm.PersistentChains.initialize(
            chain_count, dataset.m, child_seed(master_seed, f"chains-{i}")
        )
        for i in range(cfg.k)
    ]

    selection_rng = child_rng(master_seed, "selection")
    sample_rng = child_rng(master_seed, "sgd-sampling")
    noise_rng = child_rng(master_seed, "sgd-noise")

    def grad_fn(rows):
        # descent on the negative log-likelihood of the current step's cluster s
        return -rbm.pcd_per_example_gradients(
            models[s], dataset.records[rows], chains[s], cfg.pcd_sweeps
        )

    prev_clip: list[float | None] = [None] * cfg.k
    steps: list[StepLog] = []
    for t in range(t_sgd):
        s = int(selection_rng.choice(cfg.k, p=selection_probs))
        new_params, info = dp_sgd_step(
            models[s].params,
            grad_fn,
            members[s],
            cfg,
            sample_rng,
            noise_rng,
            prev_clip=prev_clip[s],
        )
        models[s].params[:] = new_params
        prev_clip[s] = info.clip_bound
        steps.append(StepLog(step=t, cluster=s, info=info))

    weights = np.clip(clustering.noisy_sizes, 0.0, None)
    mixture = MixtureModel(
        m=dataset.m,
        k=cfg.k,
        models=models,
        weights=weights,
        feature_map=fmap,
        centers=clustering.noisy_centers,
        privacy=privacy,
        epsilon=epsilon,
        argmin_lambda=argmin_lambda,
    )
    return TrainResult(
        mixture=mixture, clustering=clustering, steps=steps, t_sgd=t_sgd, q=q
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def generate(
    mixture: MixtureModel,
    count: int,
    rng: np.random.Generator,
    gibbs_steps: int = DEFAULT_GENERATION_SWEEPS,
    workers: int | None = None,
) -> BinaryDataset:
    """Sample ``count`` records; component choice follows the DP weights.

    Each component's rows are split into chunks of GENERATION_CHUNK_ROWS.
    Every chunk samples from its own child stream, spawned in chunk order
    from one seed drawn from ``rng`` after the component assignment, so
    the output is the same for any worker count.  ``workers`` threads
    sample the chunks (None: ``_usable_cpus()``, and never more threads
    than chunks): the calling thread and ``workers - 1`` helpers, each
    writing its chunks straight into the output rows.  Generated records
    may be all-zero; consumers must tolerate that.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if workers is None:
        workers = _usable_cpus()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    total = mixture.weights.sum()
    if total <= 0:
        raise DataError(
            "all mixture weights are zero; the model is degenerate and cannot "
            "be sampled (noisy cluster sizes were all non-positive)"
        )
    probs = mixture.weights / total
    assignment = rng.choice(mixture.k, size=count, p=probs)
    chunks, step = [], GENERATION_CHUNK_ROWS
    for i in range(mixture.k):
        rows = np.flatnonzero(assignment == i)
        chunks += [(i, rows[start : start + step]) for start in range(0, rows.size, step)]
    streams = np.random.SeedSequence(int(rng.integers(2**63))).spawn(len(chunks))
    # Largest chunks first, so the threads finish close together; popleft
    # is atomic, so the threads share the queue without a lock.
    pending = deque(sorted(zip(chunks, streams), key=lambda task: -task[0][1].size))
    out = np.zeros((count, mixture.m), dtype=np.uint8)
    errors = []

    def sample_chunks():
        try:
            while True:
                try:
                    (i, rows), stream = pending.popleft()
                except IndexError:
                    return
                out[rows] = rbm.sample_batch(
                    mixture.models[i], rows.size, gibbs_steps, np.random.default_rng(stream)
                )
        except BaseException as exc:
            pending.clear()  # the other threads stop after their current chunk
            errors.append(exc)

    # The calling thread samples too: only its malloc arena can reuse the
    # memory that loading the model freed.
    helpers = [
        threading.Thread(target=sample_chunks) for _ in range(min(workers, len(chunks)) - 1)
    ]
    for thread in helpers:
        thread.start()
    sample_chunks()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return make_dataset(out, allow_empty=True)


def _privacy_dict(mix: MixtureModel) -> dict:
    if mix.privacy is None:
        return {"epsilon": None, "unsafe_no_privacy": True}
    d = asdict(mix.privacy)
    d["epsilon"] = mix.epsilon
    d["argmin_lambda"] = mix.argmin_lambda
    return d


def save_model(mix: MixtureModel, path, config_echo: dict | None = None) -> None:
    """Serialize to JSON.  The feature map is stored as seed plus shape.

    Every float array is stored as ``{"dtype": "<f8", "shape": [...],
    "base64": ...}``: the base64 of its little-endian float64 bytes in C
    order, which is exact and less than half the size of one decimal
    per value.  ``json`` encodes one array at a time through the
    ``default`` hook, so only one array's text exists at once.  The
    scalars, the privacy block and the config echo stay plain JSON.

    The file is written through ``data.atomic_write``, so a failed write
    leaves no partial model behind.
    """
    if mix.feature_map.seed is None:
        raise ValueError("only seed-built feature maps can be serialized")
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "m": mix.m,
        "k": mix.k,
        "d": mix.feature_map.d,
        "gamma": mix.feature_map.gamma,
        "feature_map_seed": mix.feature_map.seed,
        "centers": mix.centers,
        "weights": mix.weights,
        "models": [
            {
                "weights": model.weights,
                "visible_bias": model.visible_bias,
                "hidden_bias": model.hidden_bias,
            }
            for model in mix.models
        ],
        "privacy": _privacy_dict(mix),
    }
    if config_echo is not None:
        payload["config_echo"] = config_echo
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=1, default=_encode_array)
        fh.write("\n")


def _encode_array(value) -> dict:
    """``json``'s ``default`` hook: an ndarray as dtype, shape and base64."""
    if not isinstance(value, np.ndarray):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    data = np.ascontiguousarray(value, dtype="<f8")
    return {
        "dtype": "<f8",
        "shape": list(data.shape),
        "base64": base64.b64encode(data).decode("ascii"),
    }


def _decode_array(what: str, value) -> np.ndarray:
    """A stored float array: a list of numbers (version 1) or an object
    written by ``_encode_array`` (version 2).  DataError unless every
    value is finite.  A version-2 array is a read-only view of the
    decoded bytes, not a copy."""
    if isinstance(value, list):
        array = np.array(value, dtype=np.float64)
    elif isinstance(value, dict):
        dtype = value.get("dtype")
        if dtype != "<f8":
            raise DataError(f"malformed model: {what} has dtype {dtype!r}, expected '<f8'")
        shape = value.get("shape")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise DataError(f"malformed model: {what} has shape {shape!r}")
        try:
            raw = base64.b64decode(value.get("base64"), validate=True)
        except (TypeError, ValueError):
            raise DataError(f"malformed model: {what} does not hold valid base64") from None
        if len(raw) != 8 * math.prod(shape):
            raise DataError(
                f"malformed model: {what} holds {len(raw)} bytes, "
                f"expected 8 per value of shape {shape}"
            )
        array = np.frombuffer(raw, dtype="<f8").reshape(shape)
    else:
        raise DataError(f"malformed model: {what} is not an array")
    if not np.isfinite(array).all():
        raise DataError(f"malformed model: {what} holds a value that is not finite")
    return array


def _check_shape(what: str, array: np.ndarray, shape: tuple) -> None:
    if array.shape != shape:
        raise DataError(f"malformed model: {what} has shape {array.shape}, expected {shape}")


def _malformed(name: str, value, expected: str) -> DataError:
    return DataError(f"malformed model: {name} is {value!r}, expected {expected}")


def _positive_int(payload: dict, name: str) -> int:
    value = payload[name]
    if type(value) is not int or value < 1:
        raise _malformed(name, value, "a positive integer")
    return value


def _is_number(value) -> bool:
    """A JSON number that is finite as a float64; bool is not a number here."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# PrivacyConfig's field annotations, each with a test of the stored value.
_PRIVACY_KINDS = {
    "int": (lambda value: type(value) is int, "an integer"),
    "bool": (lambda value: type(value) is bool, "true or false"),
    "float": (_is_number, "a finite number"),
}


def _privacy_config(priv: dict) -> PrivacyConfig:
    """The stored privacy block, each field of its annotated JSON type."""
    for f in fields(PrivacyConfig):
        ok, expected = _PRIVACY_KINDS[f.type]
        if not ok(priv[f.name]):
            raise _malformed(f"privacy.{f.name}", priv[f.name], expected)
    return PrivacyConfig(**{f.name: priv[f.name] for f in fields(PrivacyConfig)})


def load_model(path) -> MixtureModel:
    """Read a model written by save_model, in format version 1 or 2.

    Version 1 stored each float array as a list of decimals; released
    models cannot be retrained without spending more privacy budget, so
    those files still load, to the same bits.  DataError if a key is
    missing or a value is outside its domain: the version, an array
    (malformed, not finite or of the wrong shape), a negative mixture
    weight, m, k, d, gamma, feature_map_seed, the type of a privacy-block
    field, or the privacy block's epsilon and argmin_lambda.  The epsilon
    is recomputed from the privacy block, and DataError if the stored one
    is lower by more than 1e-9 relative.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise DataError("malformed model: the file does not hold a JSON object")
    version = payload.get("version")
    if type(version) is not int or version not in (1, MODEL_FORMAT_VERSION):
        raise DataError(f"unsupported model format version {version!r}")
    try:
        mix = _model_from_payload(payload)
    except KeyError as exc:
        raise DataError(f"malformed model: missing key {exc.args[0]!r}") from None
    del payload  # the accountant's temporaries reuse the memory of the file's text
    if mix.privacy is not None:
        # the slack admits epsilons stored by earlier versions of the accountant
        recomputed, _ = epsilon_for_delta(mix.privacy)
        if mix.epsilon < recomputed * (1.0 - 1e-9):
            raise _malformed(
                "privacy.epsilon", mix.epsilon,
                f"at least {recomputed!r}, which its privacy block gives",
            )
    return mix


def _decode_rbm(what: str, entry: dict, m: int) -> rbm.RbmModel:
    """One stored RBM; its decoded arrays are freed when the model has copied them."""
    w, b, c = (
        _decode_array(f"{what}.{key}", entry[key])
        for key in ("weights", "visible_bias", "hidden_bias")
    )
    n_hidden = len(w)
    _check_shape(f"{what}.weights", w, (n_hidden, m))
    _check_shape(f"{what}.visible_bias", b, (m,))
    _check_shape(f"{what}.hidden_bias", c, (n_hidden,))
    return rbm.RbmModel(weights=w, visible_bias=b, hidden_bias=c)


def _model_from_payload(payload: dict) -> MixtureModel:
    m, k, d = (_positive_int(payload, name) for name in ("m", "k", "d"))
    if len(payload["models"]) != k:
        raise DataError(f"malformed model: {len(payload['models'])} RBMs for k = {k}")
    models = [_decode_rbm(f"models[{i}]", entry, m) for i, entry in enumerate(payload["models"])]
    weights = _decode_array("weights", payload["weights"])
    _check_shape("weights", weights, (k,))
    if (weights < 0).any():
        raise DataError("malformed model: a mixture weight is negative")
    centers = _decode_array("centers", payload["centers"])
    _check_shape("centers", centers, (k, d))
    gamma, seed = payload["gamma"], payload["feature_map_seed"]
    if not (_is_number(gamma) and gamma > 0):
        raise _malformed("gamma", gamma, "a finite number > 0")
    if type(seed) is not int or seed < 0:
        raise _malformed("feature_map_seed", seed, "a non-negative integer")
    fmap = feature_map_from_seed(m, d, gamma, seed)
    priv = payload["privacy"]
    if not isinstance(priv, dict):
        raise DataError("malformed model: privacy is not a JSON object")
    privacy = None
    epsilon = math.inf
    argmin_lambda = None
    if not priv.get("unsafe_no_privacy"):
        privacy = _privacy_config(priv)
        epsilon, argmin_lambda = priv["epsilon"], priv["argmin_lambda"]
        if not (_is_number(epsilon) and epsilon >= 0):
            raise _malformed("privacy.epsilon", epsilon, "a finite number >= 0")
        top = privacy.lambda_max
        if type(argmin_lambda) is not int or not 1 <= argmin_lambda <= top:
            raise _malformed("privacy.argmin_lambda", argmin_lambda, f"an integer in [1, {top}]")
    return MixtureModel(
        m=m,
        k=k,
        models=models,
        weights=weights,
        feature_map=fmap,
        centers=centers,
        privacy=privacy,
        epsilon=epsilon,
        argmin_lambda=argmin_lambda,
    )
