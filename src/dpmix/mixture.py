"""End-to-end pipeline: private clustering, one RBM per cluster, sampling.

Everything written into the released model is a function of noisy,
differentially private quantities: noisy cluster sizes (clamped to be
non-negative) become the mixture weights, and the stored epsilon is
recomputed from the exact iteration counts and noise scales that were
executed.

Each SGD step picks a cluster, Poisson-samples a batch of its members,
computes that batch's per-example loss gradients (advancing the
cluster's persistent chains) and hands them to dpsgd.dp_sgd_step, the
private mechanism.  The cluster and its sampling rate come from the true
partition sizes.  Those choices depend on private data and the
accountant does not charge them; keeping the sizes out of the model file
does not make them free.  The ROADMAP item "Make DP-SGD run the
mechanism the accountant charges" tracks the fix.
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
from .data import BinaryDataset, atomic_write, make_dataset, sample_batch
from .dpsgd import StepInfo, dp_sgd_step
from .errors import ConfigError, DataError
from .kmeans import Clustering, clustering_stage
from .streams import child_rng, child_seed

MODEL_FORMAT_VERSION = 2
# Rows per independently seeded sampling chunk.  Fixed, so the output
# does not depend on how many threads sample the chunks.
GENERATION_CHUNK_ROWS = 1024


@dataclass
class MixtureModel:
    """The released artifact: k generative models plus DP mixture weights.

    k is ``len(models)``, m their visible width and d ``centers.shape[1]``;
    the feature map is kept as the file stores it, by ``gamma`` and
    ``feature_map_seed``.  ``privacy`` holds the noise scales and iteration
    counts that ran, and ``epsilon`` at order ``argmin_lambda`` is the
    (epsilon, privacy.delta) claim the accountant gives for them; every model carries one.
    """

    models: list[rbm.RbmModel]
    weights: np.ndarray
    gamma: float
    feature_map_seed: int
    centers: np.ndarray
    privacy: PrivacyConfig
    epsilon: float
    argmin_lambda: int

    @property
    def m(self) -> int:
        return self.models[0].m

    @property
    def k(self) -> int:
        return len(self.models)


@dataclass(frozen=True)
class StepLog:
    step: int
    cluster: int
    info: StepInfo

    def to_dict(self) -> dict:
        """The step as a JSON object; an empty batch's gradient norms are null."""
        return {"step": self.step, "cluster": self.cluster, **asdict(self.info)}


@dataclass
class TrainResult:
    """The released mixture, with the clustering and step log behind it.

    The SGD iteration count and sampling rate are
    ``mixture.privacy.t_sgd`` and ``mixture.privacy.q``.
    """

    mixture: MixtureModel
    clustering: Clustering
    steps: list[StepLog]


def train(dataset: BinaryDataset, cfg: TrainConfig, master_seed: int,
          init_centers: np.ndarray | None = None) -> TrainResult:
    """Full private training run, deterministic in its arguments.

    ``init_centers``, k rows of d features, replaces k-means' drawn start.

    Child random streams, by name: those of kmeans.clustering_stage,
    "model-init", "chains-<i>", "selection", "sgd-sampling", "sgd-noise".
    Any stage can be replayed by rebuilding its stream from the master
    seed.  The privacy claim is computed first, so a noise scale with no
    finite epsilon (zero among them) raises before any stage runs.

    A step samples each member of its cluster with probability
    L / |members|, clamped to 1 for clusters smaller than L.  That is
    above the q = L / |dataset| the accountant charges: 0.0150 against
    0.005 at acceptance criterion 9.  The step computes the gradients
    even of an empty batch, so a model's persistent chains advance the
    same way whichever batches were empty.
    """
    n = len(dataset)
    if cfg.batch_size > n:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    if cfg.k > n:
        raise ConfigError(f"k {cfg.k} exceeds dataset size {n}")
    q = cfg.batch_size / n
    t_sgd = cfg.epochs * epoch_iterations(q)
    delta = cfg.delta if cfg.delta is not None else 1.0 / n

    shared = {f.name: getattr(cfg, f.name) for f in fields(PrivacyConfig) if hasattr(cfg, f.name)}
    privacy = PrivacyConfig(**{**shared, "q": q, "t_sgd": t_sgd, "delta": delta})
    epsilon, argmin_lambda = epsilon_for_delta(privacy)

    map_seed, clustering = clustering_stage(
        dataset, master_seed, k=cfg.k, d=cfg.d, gamma=cfg.gamma, t_kmeans=cfg.t_kmeans,
        sigma_k=cfg.sigma_k, init=init_centers,
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

    steps: list[StepLog] = []
    for t in range(t_sgd):
        s = int(selection_rng.choice(cfg.k, p=selection_probs))
        batch = sample_batch(members[s], min(1.0, cfg.batch_size / len(members[s])), sample_rng)
        grads = rbm.pcd_per_example_gradients(
            models[s], dataset.records[batch], chains[s], cfg.pcd_sweeps
        )
        new_params, info = dp_sgd_step(models[s].params, grads, cfg, noise_rng)
        models[s].params[:] = new_params
        steps.append(StepLog(step=t, cluster=s, info=info))

    weights = np.clip(clustering.noisy_sizes, 0.0, None)
    mixture = MixtureModel(
        models=models,
        weights=weights,
        gamma=cfg.gamma,
        feature_map_seed=map_seed,
        centers=clustering.noisy_centers,
        privacy=privacy,
        epsilon=epsilon,
        argmin_lambda=argmin_lambda,
    )
    return TrainResult(mixture=mixture, clustering=clustering, steps=steps)


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
) -> BinaryDataset:
    """Sample ``count`` records; component choice follows the DP weights.

    Each component's rows are split into chunks of GENERATION_CHUNK_ROWS.
    Every chunk samples from its own child stream, spawned in chunk order
    from one seed drawn from ``rng`` after the component assignment, so
    the output is the same for any thread count.  ``min(_usable_cpus(),
    chunks)`` threads sample the chunks: the calling thread and the
    helpers, each writing its chunks straight into the output rows.
    Generated records may be all-zero; consumers must tolerate that.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
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
    threads = min(_usable_cpus(), len(chunks))
    helpers = [threading.Thread(target=sample_chunks) for _ in range(threads - 1)]
    for thread in helpers:
        thread.start()
    sample_chunks()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return make_dataset(out, allow_empty=True)


def save_model(mix: MixtureModel, path, config_echo: dict | None = None) -> None:
    """Serialize to JSON.  The feature map is stored as seed, gamma and d.

    Every float array is stored as ``{"dtype": "<f8", "shape": [...],
    "base64": ...}``: the base64 of its little-endian float64 bytes in C
    order, which is exact and less than half the size of one decimal
    per value.  ``json`` encodes one array at a time through the
    ``default`` hook, so only one array's text exists at once.  The
    scalars, the privacy block and the config echo stay plain JSON.

    The file is written through ``data.atomic_write``, so a failed write
    leaves no partial model behind.
    """
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "m": mix.m,
        "k": mix.k,
        "d": mix.centers.shape[1],
        "gamma": float(mix.gamma),
        "feature_map_seed": int(mix.feature_map_seed),
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
        "privacy": {**asdict(mix.privacy), "epsilon": mix.epsilon,
                    "argmin_lambda": mix.argmin_lambda},
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
    """A stored float array, an object written by ``_encode_array``, as a
    read-only view of the decoded bytes, not a copy.  DataError unless
    the object is well formed and every value is finite."""
    if not isinstance(value, dict):
        raise DataError(f"malformed model: {what} is not an array")
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
    """Read a model written by save_model; format version 2 is the only one read.

    A version-1 file is refused: its privacy claim predates the checks
    made here, and some predate the k-means fix for empty clusters,
    which no check of the file can see.  DataError for any malformed
    file: not JSON, a missing key, or a value of the wrong type or
    outside its domain (the version, an array that is malformed, not
    finite or of the wrong shape, a negative mixture weight, m, k, d,
    gamma, feature_map_seed, a privacy-block field, epsilon or
    argmin_lambda).  So the zero-noise block of earlier versions, a null
    epsilon without PrivacyConfig's fields, is refused as a missing key.
    The epsilon is recomputed from the privacy block: DataError if the
    stored one is lower by more than 1e-9 relative, NumericsError if
    the block gives no finite epsilon.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        mix = _model_from_payload(payload)
    except KeyError as exc:
        raise DataError(f"malformed model: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:  # bad JSON or UTF-8, a wrong type, or PrivacyConfig
        raise DataError(f"malformed model file {path}: {exc}") from None
    del payload  # the accountant's temporaries reuse the memory of the file's text
    # the slack admits epsilons stored by earlier versions of the accountant
    recomputed, _ = epsilon_for_delta(mix.privacy)
    if mix.epsilon < recomputed * (1.0 - 1e-9):
        raise _malformed(
            "privacy.epsilon", mix.epsilon,
            f"at least {recomputed!r}, which its privacy block gives",
        )
    return mix


def _decode_rbm(what: str, entry, m: int) -> rbm.RbmModel:
    """One stored RBM; its decoded arrays are freed when the model has copied them."""
    if not isinstance(entry, dict):
        raise DataError(f"malformed model: {what} is not a JSON object")
    w, b, c = (
        _decode_array(f"{what}.{key}", entry[key])
        for key in ("weights", "visible_bias", "hidden_bias")
    )
    if w.ndim != 2:
        raise DataError(f"malformed model: {what}.weights has shape {w.shape}, expected 2 axes")
    n_hidden = len(w)
    _check_shape(f"{what}.weights", w, (n_hidden, m))
    _check_shape(f"{what}.visible_bias", b, (m,))
    _check_shape(f"{what}.hidden_bias", c, (n_hidden,))
    return rbm.RbmModel(weights=w, visible_bias=b, hidden_bias=c)


def _model_from_payload(payload) -> MixtureModel:
    if not isinstance(payload, dict):
        raise DataError("malformed model: the file does not hold a JSON object")
    version = payload.get("version")
    if version == 1 and type(version) is int:
        raise DataError("model format version 1 is no longer read: its privacy claim predates "
                        "the checks that load_model makes")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version!r}")
    m, k, d = (_positive_int(payload, name) for name in ("m", "k", "d"))
    stored = payload["models"]
    if not isinstance(stored, list):
        raise DataError("malformed model: models is not a list")
    if len(stored) != k:
        raise DataError(f"malformed model: {len(stored)} RBMs for k = {k}")
    models = [_decode_rbm(f"models[{i}]", entry, m) for i, entry in enumerate(stored)]
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
    priv = payload["privacy"]
    if not isinstance(priv, dict):
        raise DataError("malformed model: privacy is not a JSON object")
    privacy = _privacy_config(priv)
    epsilon, argmin_lambda = priv["epsilon"], priv["argmin_lambda"]
    if not (_is_number(epsilon) and epsilon >= 0):
        raise _malformed("privacy.epsilon", epsilon, "a finite number >= 0")
    top = privacy.lambda_max
    if type(argmin_lambda) is not int or not 1 <= argmin_lambda <= top:
        raise _malformed("privacy.argmin_lambda", argmin_lambda, f"an integer in [1, {top}]")
    return MixtureModel(
        models=models,
        weights=weights,
        gamma=float(gamma),
        feature_map_seed=seed,
        centers=centers,
        privacy=privacy,
        epsilon=epsilon,
        argmin_lambda=argmin_lambda,
    )
