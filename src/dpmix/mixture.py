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
from .config import DEFAULT_GENERATION_SWEEPS, TrainConfig, atomic_write
from .data import BinaryDataset, sample_batch
from .dpsgd import StepInfo, dp_sgd_step
from .errors import ConfigError, DataError
from .kmeans import Clustering, clustering_stage
from .streams import child_rng, child_seed

MODEL_FORMAT_VERSION = 3
# Rows per independently seeded sampling chunk.  Fixed, so the output
# does not depend on how many threads sample the chunks.
GENERATION_CHUNK_ROWS = 1024
# Array bytes base64-encoded per write when a model is saved; a multiple
# of 3, so no block but the last is padded.
BASE64_BLOCK_BYTES = 3 << 18


@dataclass
class MixtureModel:
    """The released artifact: k generative models plus DP mixture weights.

    k is ``len(models)`` and m their visible width.  ``privacy`` holds the
    noise scales and iteration counts that ran, and ``epsilon`` at order
    ``argmin_lambda`` is the (epsilon, privacy.delta) claim the accountant
    gives for them; every model carries one.  The clustering behind the
    weights, its noisy centers included, is ``TrainResult.clustering``.
    """

    models: list[rbm.RbmModel]
    weights: np.ndarray
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

    clustering = clustering_stage(
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
    # every entry was sampled as 0 or 1
    out.flags.writeable = False
    return BinaryDataset(records=out)


def save_model(mix: MixtureModel, path) -> None:
    """Serialize to JSON: ``version``, ``m``, ``k``, ``weights``, ``models``, ``privacy``.

    The file holds what ``generate`` reads and what the privacy claim
    needs, and nothing else: no feature map, centers, seed or options.
    Every float array is stored as ``{"dtype": "<f8", "shape": [...],
    "base64": ...}``: the base64 of its little-endian float64 bytes in C
    order, which is exact and less than half the size of one decimal
    per value.  The bytes are those of ``json.dump(indent=1)`` of that
    payload, but ``json`` encodes only the skeleton, each array with an
    empty base64 field.  Each array's base64 is written straight into
    its field, BASE64_BLOCK_BYTES of the array at a time, so no array's
    whole text is ever held.  The scalars and the privacy block stay
    plain JSON.

    The file is written through ``config.atomic_write``, so a failed write
    leaves no partial model behind.
    """
    arrays = []

    def slot(value) -> dict:
        data = np.ascontiguousarray(value, dtype="<f8")
        arrays.append(data)
        return {"dtype": "<f8", "shape": list(data.shape), "base64": ""}

    payload = {
        "version": MODEL_FORMAT_VERSION,
        "m": mix.m,
        "k": mix.k,
        "weights": slot(mix.weights),
        "models": [
            {
                "weights": slot(model.weights),
                "visible_bias": slot(model.visible_bias),
                "hidden_bias": slot(model.hidden_bias),
            }
            for model in mix.models
        ],
        "privacy": {**asdict(mix.privacy), "epsilon": mix.epsilon,
                    "argmin_lambda": mix.argmin_lambda},
    }
    # Only numbers and fixed keys precede the last array, so the first
    # len(arrays) empty base64 fields are the arrays', in order.
    pieces = json.dumps(payload, indent=1).split('"base64": ""', len(arrays))
    with atomic_write(path) as fh:
        for piece, data in zip(pieces, arrays):
            fh.write(piece + '"base64": "')
            raw = data.reshape(-1).view(np.uint8)
            for start in range(0, raw.size, BASE64_BLOCK_BYTES):
                fh.write(base64.b64encode(raw[start : start + BASE64_BLOCK_BYTES]).decode("ascii"))
            fh.write('"')
        fh.write(pieces[-1] + "\n")


def _decode_base64(obj: dict) -> dict:
    """``json``'s ``object_hook``: an array object's base64 text becomes its
    bytes as soon as ``json`` has parsed the object, so the text is freed
    before the next array is read.  Text that is not valid base64 is kept,
    for ``_decode_array`` to refuse by the array's name."""
    text = obj.get("base64")
    if obj.get("dtype") == "<f8" and type(text) is str:
        try:
            obj["base64"] = base64.b64decode(text, validate=True)
        except ValueError:
            pass
    return obj


def _decode_array(what: str, value) -> np.ndarray:
    """A stored float array, an object whose base64 ``_decode_base64`` has
    decoded, as a read-only view of those bytes, not a copy.  DataError
    unless the object is well formed and every value is finite."""
    if not isinstance(value, dict):
        raise DataError(f"malformed model: {what} is not an array")
    dtype = value.get("dtype")
    if dtype != "<f8":
        raise DataError(f"malformed model: {what} has dtype {dtype!r}, expected '<f8'")
    shape = value.get("shape")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise DataError(f"malformed model: {what} has shape {shape!r}")
    raw = value.get("base64")
    if not isinstance(raw, bytes):
        raise DataError(f"malformed model: {what} does not hold valid base64")
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
    """Read a model written by save_model; format version 3 is the only one read.

    Versions 1 and 2 are refused: their files name the seed of their
    noise.  DataError for any malformed file: not JSON, a missing key,
    or a value of the wrong type or outside its domain (the version, an
    array that is malformed, not finite or of the wrong shape, a
    negative mixture weight, m, k, a privacy-block field, epsilon or
    argmin_lambda).  The epsilon is recomputed from the privacy block:
    DataError if the stored one is lower by more than 1e-9 relative,
    NumericsError if the block gives no finite epsilon.

    Each array's base64 is decoded as soon as ``json`` has parsed its
    object, and its text is freed then.  So past reading the file, whose
    bytes and text coexist for a moment, the call holds at most the
    text, the arrays decoded so far and one array's base64 text with the
    ASCII copy that ``base64.b64decode`` makes of it.  Each
    RBM's decoded bytes are freed once its ``params`` copies them, so
    ``params`` is the one copy of its parameters that outlives the call.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, object_hook=_decode_base64)
        mix = _model_from_payload(payload)
    except KeyError as exc:
        raise DataError(f"malformed model: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:  # bad JSON or UTF-8, a wrong type, or PrivacyConfig
        raise DataError(f"malformed model file {path}: {exc}") from None
    # the slack admits an epsilon stored on a host whose C library rounds
    # exp, log or erfc differently in the last bits, or by an earlier dpmix,
    # whose numpy series rounded the same sum differently
    recomputed, _ = epsilon_for_delta(mix.privacy)
    if mix.epsilon < recomputed * (1.0 - 1e-9):
        raise _malformed(
            "privacy.epsilon", mix.epsilon,
            f"at least {recomputed!r}, which its privacy block gives",
        )
    return mix


def _decode_rbm(what: str, entry, m: int) -> rbm.RbmModel:
    """One stored RBM, its ``params`` a copy of the entry's decoded arrays."""
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
    if type(version) is int and version in (1, 2):
        raise DataError(f"model format version {version} is no longer read: its file names the "
                        f"seed of its noise; train again to write version {MODEL_FORMAT_VERSION}")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version!r}")
    m, k = (_positive_int(payload, name) for name in ("m", "k"))
    stored = payload["models"]
    if not isinstance(stored, list):
        raise DataError("malformed model: models is not a list")
    if len(stored) != k:
        raise DataError(f"malformed model: {len(stored)} RBMs for k = {k}")
    models = []
    for i in range(k):  # each RBM's decoded bytes are freed once its params copy them
        models.append(_decode_rbm(f"models[{i}]", stored[i], m))
        stored[i] = None
    weights = _decode_array("weights", payload["weights"])
    _check_shape("weights", weights, (k,))
    if (weights < 0).any():
        raise DataError("malformed model: a mixture weight is negative")
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
        privacy=privacy,
        epsilon=epsilon,
        argmin_lambda=argmin_lambda,
    )
