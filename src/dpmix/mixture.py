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

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import rbm
from .accountant import PrivacyConfig, epoch_iterations, epsilon_for_delta
from .config import DEFAULT_GENERATION_SWEEPS, TrainConfig
from .data import BinaryDataset, make_dataset, subset
from .dpsgd import StepInfo, dp_sgd_step
from .errors import ConfigError, DataError, StageError
from .kmeans import Clustering, dp_kernel_kmeans
from .rff import FeatureMap, feature_map_from_seed
from .streams import child_rng, child_seed

MODEL_FORMAT_VERSION = 1
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
        try:
            shared = {
                f.name: getattr(cfg, f.name) for f in fields(PrivacyConfig) if hasattr(cfg, f.name)
            }
            privacy = PrivacyConfig(**{**shared, "q": q, "t_sgd": t_sgd, "delta": delta})
            epsilon, argmin_lambda = epsilon_for_delta(privacy)
        except (ValueError, ArithmeticError) as exc:
            raise StageError("accounting", str(exc)) from exc
        if not math.isfinite(epsilon):
            raise StageError("accounting", "epsilon is not finite for this configuration")

    try:
        fmap = feature_map_from_seed(
            dataset.m, cfg.d, cfg.gamma, child_seed(master_seed, "feature-map")
        )
    except ValueError as exc:
        raise StageError("feature-map", str(exc)) from exc

    try:
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
    except ValueError as exc:
        raise StageError("clustering", str(exc)) from exc

    # True partition: training-internal only, never released.
    clusters = [
        subset(dataset, np.flatnonzero(clustering.assignments == i))
        for i in range(cfg.k)
    ]
    true_sizes = np.array([len(c) for c in clusters], dtype=np.float64)
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

    def grad_fn(batch):
        # descent on the negative log-likelihood of the current step's cluster s
        return -rbm.pcd_per_example_gradients(models[s], batch, chains[s], cfg.pcd_sweeps)

    prev_clip: list[float | None] = [None] * cfg.k
    steps: list[StepLog] = []
    try:
        for t in range(t_sgd):
            s = int(selection_rng.choice(cfg.k, p=selection_probs))
            params = rbm.flatten_parameters(models[s])
            new_params, info = dp_sgd_step(
                params,
                grad_fn,
                clusters[s],
                cfg,
                sample_rng,
                noise_rng,
                prev_clip=prev_clip[s],
            )
            rbm.set_flat_parameters(models[s], new_params)
            prev_clip[s] = info.clip_bound
            steps.append(StepLog(step=t, cluster=s, info=info))
    except ValueError as exc:
        raise StageError("sgd", str(exc)) from exc

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


def generate(
    mixture: MixtureModel,
    count: int,
    rng: np.random.Generator,
    gibbs_steps: int = DEFAULT_GENERATION_SWEEPS,
    workers: int = 1,
) -> BinaryDataset:
    """Sample ``count`` records; component choice follows the DP weights.

    Each component's rows are split into chunks of GENERATION_CHUNK_ROWS.
    Every chunk samples from its own child stream, spawned in chunk order
    from one seed drawn from ``rng`` after the component assignment, so
    the chunks can run on ``workers`` threads and the output is the same
    for any worker count.  Generated records may be all-zero; consumers
    must tolerate that.
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

    def sample_chunk(chunk, stream):
        i, rows = chunk
        return rbm.sample_batch(
            mixture.models[i], rows.size, gibbs_steps, np.random.default_rng(stream)
        )

    out = np.zeros((count, mixture.m), dtype=np.uint8)
    with ThreadPoolExecutor(workers) as pool:
        run = pool.map if workers > 1 else map
        for (_, rows), records in zip(chunks, run(sample_chunk, chunks, streams)):
            out[rows] = records
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

    The file is written beside ``path`` and then renamed onto it, so a
    failed write leaves no partial model behind.
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
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            _write_json(fh, payload)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != tmp:
            raise
        # name the path the caller gave, not the temporary beside it
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_json(fh, value, indent: str = "") -> None:
    """Write ``value`` as ``json.dump(value, fh, indent=1)`` writes it,
    with numpy arrays as (nested) lists.

    The pure-Python encoder that ``indent`` selects is slow on long float
    arrays, so each 1-D array is encoded by the C encoder on one line,
    with the same float repr, and then broken into one number per line.
    """
    inner = indent + " "
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.size:
        flat = json.dumps(value.tolist())[1:-1].replace(", ", ",\n" + inner)
        fh.write(f"[\n{inner}{flat}\n{indent}]")
    elif isinstance(value, dict) and value:
        for i, (key, item) in enumerate(value.items()):
            fh.write(("," if i else "{") + f"\n{inner}{json.dumps(key)}: ")
            _write_json(fh, item, inner)
        fh.write(f"\n{indent}}}")
    elif isinstance(value, (list, np.ndarray)) and len(value):
        for i, item in enumerate(value):
            fh.write(("," if i else "[") + f"\n{inner}")
            _write_json(fh, item, inner)
        fh.write(f"\n{indent}]")
    else:
        if isinstance(value, np.ndarray):
            value = value.tolist()
        fh.write(json.dumps(value, indent=1).replace("\n", "\n" + indent))


def _check_shape(what: str, array: np.ndarray, shape: tuple) -> None:
    if array.shape != shape:
        raise DataError(f"malformed model: {what} has shape {array.shape}, expected {shape}")


def load_model(path) -> MixtureModel:
    """Read a model written by save_model; DataError if its shapes disagree."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise DataError("malformed model: the file does not hold a JSON object")
    if payload.get("version") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {payload.get('version')!r}")
    m, k = payload["m"], payload["k"]
    models = [
        rbm.RbmModel(
            weights=np.array(entry["weights"], dtype=np.float64),
            visible_bias=np.array(entry["visible_bias"], dtype=np.float64),
            hidden_bias=np.array(entry["hidden_bias"], dtype=np.float64),
        )
        for entry in payload["models"]
    ]
    if len(models) != k:
        raise DataError(f"malformed model: {len(models)} RBMs for k = {k}")
    for i, model in enumerate(models):
        n_hidden = len(model.weights)
        _check_shape(f"models[{i}].weights", model.weights, (n_hidden, m))
        _check_shape(f"models[{i}].visible_bias", model.visible_bias, (m,))
        _check_shape(f"models[{i}].hidden_bias", model.hidden_bias, (n_hidden,))
    weights = np.array(payload["weights"], dtype=np.float64)
    _check_shape("weights", weights, (k,))
    centers = np.array(payload["centers"], dtype=np.float64)
    _check_shape("centers", centers, (k, payload["d"]))
    fmap = feature_map_from_seed(m, payload["d"], payload["gamma"], payload["feature_map_seed"])
    priv = payload["privacy"]
    if not isinstance(priv, dict):
        raise DataError("malformed model: privacy is not a JSON object")
    privacy = None
    epsilon = math.inf
    argmin_lambda = None
    if not priv.get("unsafe_no_privacy"):
        epsilon = priv["epsilon"]
        argmin_lambda = priv["argmin_lambda"]
        privacy = PrivacyConfig(**{f.name: priv[f.name] for f in fields(PrivacyConfig)})
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
