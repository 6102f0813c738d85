"""Command-line interface.

Subcommands: accountant, cluster, train, generate, evaluate.  Option
precedence is command-line flag, then --config JSON file, then built-in
default.  Every artifact embeds the fully resolved configuration, so a
run can be reproduced from any of its outputs.  Exit codes: 0 success,
2 usage or configuration error, 3 data error, 4 numerical error.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__, evaluation, mixture
from .accountant import (
    DEFAULT_LAMBDA_MAX,
    PrivacyConfig,
    epsilon_schedule,
    total_alpha_profile,
)
from .data import (
    DEFAULT_BINARIZE_THRESHOLD,
    FORMATS,
    SPARSE_ITEMS,
    load_labels,
    load_records,
    with_labels,
    write_records,
)
from .errors import ConfigError, DataError, NumericsError, StageError
from .evaluation import clustering_accuracy, evaluate_workload, generate_workload
from .kmeans import dp_kernel_kmeans
from .mixture import TrainConfig, load_model, save_model, train
from .rff import feature_map_from_seed
from .streams import child_rng, child_seed

log = logging.getLogger("dpmix")

_COMMON_DEFAULTS = {"seed": 0, "workers": 1}

_DEFAULTS = {
    "accountant": {
        **_COMMON_DEFAULTS,
        "q": None,
        "sigma_c": None,
        "sigma_k": None,
        "sigma_g": None,
        "t_kmeans": 20,
        "epochs": None,
        "delta": None,
        "data_size": None,
        "rbf_mode": True,
        "strict_gaussian": False,
        "lambda_max": DEFAULT_LAMBDA_MAX,
        "output": None,
    },
    "cluster": {
        **_COMMON_DEFAULTS,
        "data": None,
        "format": SPARSE_ITEMS,
        "threshold": DEFAULT_BINARIZE_THRESHOLD,
        "labels": None,
        "k": None,
        "d": 200,
        "gamma": 1.0,
        "t_kmeans": 20,
        "sigma_c": None,
        "sigma_k": None,
        "rbf_mode": True,
        "c_max": 10.0,
        "bins": 100,
        "init_centers": None,
        "output": None,
        "assignments_out": None,
    },
    "train": {
        **_COMMON_DEFAULTS,
        "data": None,
        "format": SPARSE_ITEMS,
        "threshold": DEFAULT_BINARIZE_THRESHOLD,
        "k": None,
        "epochs": None,
        "batch_size": None,
        "sigma_c": None,
        "sigma_k": None,
        "sigma_g": None,
        "t_kmeans": 20,
        "d": 200,
        "gamma": 1.0,
        "n_hidden": 200,
        "eta": 0.01,
        "pcd_sweeps": 1,
        "chain_count": None,
        "c_max": 10.0,
        "bins": 100,
        "delta": None,
        "rbf_mode": True,
        "strict_gaussian": False,
        "lambda_max": DEFAULT_LAMBDA_MAX,
        "init_centers": None,
        "model": None,
        "log": None,
    },
    "generate": {
        **_COMMON_DEFAULTS,
        "model": None,
        "count": None,
        "gibbs_steps": mixture.DEFAULT_GENERATION_SWEEPS,
        "output": None,
    },
    "evaluate": {
        **_COMMON_DEFAULTS,
        "data": None,
        "format": SPARSE_ITEMS,
        "threshold": DEFAULT_BINARIZE_THRESHOLD,
        "synthetic": None,
        "queries": 1000,
        "max_l1": None,
        "semantics": evaluation.ANY,
        "labels": None,
        "assignments": None,
        "output": None,
        "csv": None,
    },
}

_REQUIRED = {
    "accountant": ("q", "sigma_c", "sigma_k", "sigma_g", "epochs"),
    "cluster": ("data", "k", "sigma_c", "sigma_k"),
    "train": ("data", "k", "epochs", "batch_size", "sigma_c", "sigma_k", "sigma_g", "model"),
    "generate": ("model", "count", "output"),
    "evaluate": ("data", "synthetic"),
}


def _bool_opt(parser, name, help_text):
    parser.add_argument(name, action=argparse.BooleanOptionalAction, default=None, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpmix",
        description="Differentially private mixture of generative models for binary data.",
    )
    parser.add_argument("--version", action="version", version=f"dpmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with option defaults")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--workers", type=int, help="worker count (default 1)")
        p.add_argument(
            "--unsafe-no-privacy",
            action="store_true",
            help="allow zero noise scales (test only, output is NOT private)",
        )

    p = sub.add_parser("accountant", help="print the epsilon schedule for a configuration")
    common(p)
    p.add_argument("--q", type=float, help="batch inclusion probability per iteration")
    p.add_argument("--sigma-c", type=float)
    p.add_argument("--sigma-k", type=float)
    p.add_argument("--sigma-g", type=float)
    p.add_argument("--t-kmeans", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--data-size", type=int, help="derive delta = 1/size when --delta absent")
    _bool_opt(p, "--rbf-mode", "clustering uses the a priori feature norm bound")
    _bool_opt(p, "--strict-gaussian", "exact Gaussian log-MGF instead of the default convention")
    p.add_argument("--lambda-max", type=int)
    p.add_argument("--output", help="write a JSON report here")

    p = sub.add_parser("cluster", help="run private clustering and report a summary")
    common(p)
    p.add_argument("--data")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--threshold", type=int)
    p.add_argument("--labels")
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--t-kmeans", type=int)
    p.add_argument("--sigma-c", type=float)
    p.add_argument("--sigma-k", type=float)
    _bool_opt(p, "--rbf-mode", "clustering uses the a priori feature norm bound")
    p.add_argument("--c-max", type=float)
    p.add_argument("--bins", type=int)
    p.add_argument("--init-centers", help="CSV file with k rows of d initial centers")
    p.add_argument("--output", help="write the JSON summary here")
    p.add_argument("--assignments-out", help="write one cluster id per record here")

    p = sub.add_parser("train", help="train a private mixture model")
    common(p)
    p.add_argument("--data")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--threshold", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--sigma-c", type=float)
    p.add_argument("--sigma-k", type=float)
    p.add_argument("--sigma-g", type=float)
    p.add_argument("--t-kmeans", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--n-hidden", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--pcd-sweeps", type=int)
    p.add_argument("--chain-count", type=int)
    p.add_argument("--c-max", type=float)
    p.add_argument("--bins", type=int)
    p.add_argument("--delta", type=float)
    _bool_opt(p, "--rbf-mode", "clustering uses the a priori feature norm bound")
    _bool_opt(p, "--strict-gaussian", "exact Gaussian log-MGF instead of the default convention")
    p.add_argument("--lambda-max", type=int)
    p.add_argument("--init-centers", help="CSV file with k rows of d initial centers")
    p.add_argument("--model", help="output path for the model JSON")
    p.add_argument("--log", help="output path for the per-step JSON-lines training log")

    p = sub.add_parser("generate", help="sample synthetic records from a trained model")
    common(p)
    p.add_argument("--model")
    p.add_argument("--count", type=int)
    p.add_argument("--gibbs-steps", type=int)
    p.add_argument("--output")

    p = sub.add_parser("evaluate", help="score synthetic data against the real dataset")
    common(p)
    p.add_argument("--data")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--threshold", type=int)
    p.add_argument("--synthetic")
    p.add_argument("--queries", type=int)
    p.add_argument("--max-l1", type=int)
    p.add_argument("--semantics", choices=evaluation.SEMANTICS)
    p.add_argument("--labels")
    p.add_argument("--assignments")
    p.add_argument("--output", help="write the JSON report here")
    p.add_argument("--csv", help="write the per-subset CSV here")
    return parser


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge flags over the config file over defaults for one command."""
    defaults = _DEFAULTS[args.command]
    file_values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(file_values, dict):
            raise ConfigError("config file must contain a JSON object")
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ConfigError(
                f"unknown config key(s) for {args.command}: {', '.join(sorted(unknown))}"
            )
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_values:
            resolved[key] = file_values[key]
        else:
            resolved[key] = default
    for key in _REQUIRED[args.command]:
        if resolved[key] is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    if resolved["workers"] < 1:
        raise ConfigError("--workers must be >= 1")
    resolved["command"] = args.command
    resolved["unsafe_no_privacy"] = bool(args.unsafe_no_privacy)
    return resolved


def _check_sigmas(opts: dict, names: tuple[str, ...]) -> None:
    zero = [n for n in names if opts[n] == 0]
    negative = [n for n in names if opts[n] < 0]
    if negative:
        raise ConfigError(f"noise scales must be >= 0: {', '.join(negative)}")
    if zero and not opts["unsafe_no_privacy"]:
        raise ConfigError(
            f"zero noise scale ({', '.join(zero)}) disables privacy; "
            "pass --unsafe-no-privacy to run anyway"
        )


def _echo(opts: dict) -> dict:
    return {k: v for k, v in opts.items()}


class _Outputs:
    """Track written artifacts so failures leave no partial files behind."""

    def __init__(self):
        self.paths = []

    def write_text(self, path, text: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.paths.append(path)

    def mark(self, path) -> None:
        self.paths.append(path)

    def discard_all(self) -> None:
        for path in self.paths:
            try:
                os.unlink(path)
            except OSError:
                pass


def _load_dataset(opts: dict, *, allow_empty: bool = False):
    try:
        return load_records(
            opts["data"],
            opts["format"],
            binarize_threshold=opts["threshold"],
            allow_empty=allow_empty,
        )
    except FileNotFoundError:
        raise DataError(f"dataset not found: {opts['data']}")


def _json_dumps(payload: dict) -> str:
    return json.dumps(payload, indent=1) + "\n"


def cmd_accountant(opts: dict, out: _Outputs) -> int:
    for name in ("sigma_c", "sigma_k", "sigma_g"):
        if opts[name] is not None and opts[name] <= 0:
            raise ConfigError(f"the accountant needs {name} > 0; zero noise has no finite epsilon")
    if opts["epochs"] < 1:
        raise ConfigError("--epochs must be >= 1")
    delta = opts["delta"]
    if delta is None:
        if opts["data_size"] is None:
            raise ConfigError("pass --delta or --data-size (for delta = 1/size)")
        delta = 1.0 / opts["data_size"]
    cfg = PrivacyConfig(
        sigma_c=opts["sigma_c"],
        sigma_k=opts["sigma_k"],
        sigma_g=opts["sigma_g"],
        q=opts["q"],
        t_kmeans=opts["t_kmeans"],
        t_sgd=0,
        delta=delta,
        rbf_mode=opts["rbf_mode"],
        lambda_max=opts["lambda_max"],
        strict_gaussian=opts["strict_gaussian"],
    )
    schedule = epsilon_schedule(cfg, range(1, opts["epochs"] + 1))
    print("epoch,t_sgd,epsilon,lambda")
    for row in schedule:
        print(f"{row.epoch},{row.t_sgd},{row.epsilon!r},{row.argmin_lambda}")
    final = schedule[-1]
    if opts["output"]:
        final_cfg = PrivacyConfig(
            sigma_c=cfg.sigma_c,
            sigma_k=cfg.sigma_k,
            sigma_g=cfg.sigma_g,
            q=cfg.q,
            t_kmeans=cfg.t_kmeans,
            t_sgd=final.t_sgd,
            delta=delta,
            rbf_mode=cfg.rbf_mode,
            lambda_max=cfg.lambda_max,
            strict_gaussian=cfg.strict_gaussian,
        )
        report = {
            "config_echo": {**_echo(opts), "delta": delta},
            "schedule": [
                {
                    "epoch": r.epoch,
                    "t_sgd": r.t_sgd,
                    "epsilon": r.epsilon,
                    "lambda": r.argmin_lambda,
                }
                for r in schedule
            ],
            "epsilon": final.epsilon,
            "argmin_lambda": final.argmin_lambda,
            "alpha_profile": total_alpha_profile(final_cfg).to_dict(),
        }
        out.write_text(opts["output"], _json_dumps(report))
    return 0


def _load_init_centers(path, k: int, d: int) -> np.ndarray:
    try:
        centers = np.loadtxt(path, delimiter=",", ndmin=2)
    except FileNotFoundError:
        raise DataError(f"init centers file not found: {path}")
    except ValueError as exc:
        raise DataError(f"malformed init centers file: {exc}")
    if centers.shape != (k, d):
        raise DataError(f"init centers must be ({k}, {d}), got {centers.shape}")
    return centers


def cmd_cluster(opts: dict, out: _Outputs) -> int:
    _check_sigmas(opts, ("sigma_c", "sigma_k"))
    dataset = _load_dataset(opts)
    labels = None
    if opts["labels"]:
        labels = load_labels(opts["labels"])
        dataset = with_labels(dataset, labels)
    seed = opts["seed"]
    fmap = feature_map_from_seed(
        dataset.m, opts["d"], opts["gamma"], child_seed(seed, "feature-map")
    )
    init = None
    if opts["init_centers"]:
        init = _load_init_centers(opts["init_centers"], opts["k"], opts["d"])
    try:
        clustering = dp_kernel_kmeans(
            dataset,
            fmap,
            opts["k"],
            opts["t_kmeans"],
            opts["sigma_c"],
            opts["sigma_k"],
            child_rng(seed, "kmeans-noise"),
            init=init,
            init_rng=child_rng(seed, "kmeans-init"),
            rbf_mode=opts["rbf_mode"],
            c_max=opts["c_max"],
            bins=opts["bins"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    summary = {
        "config_echo": _echo(opts),
        "k": clustering.k,
        "iterations": clustering.iterations,
        "sigma_k": opts["sigma_k"],
        "clip_bound": clustering.clip_bound,
        "noisy_sizes": clustering.noisy_sizes.tolist(),
        "size_history": clustering.size_history.tolist(),
    }
    if labels is not None:
        summary["acc"] = clustering_accuracy(clustering.assignments, labels)
    print(_json_dumps(summary), end="")
    if opts["output"]:
        out.write_text(opts["output"], _json_dumps(summary))
    if opts["assignments_out"]:
        text = "\n".join(str(int(a)) for a in clustering.assignments) + "\n"
        out.write_text(opts["assignments_out"], text)
    return 0


def cmd_train(opts: dict, out: _Outputs) -> int:
    _check_sigmas(opts, ("sigma_c", "sigma_k", "sigma_g"))
    init = None
    if opts["init_centers"]:
        init = _load_init_centers(opts["init_centers"], opts["k"], opts["d"])
    cfg = TrainConfig(
        k=opts["k"],
        epochs=opts["epochs"],
        batch_size=opts["batch_size"],
        sigma_c=opts["sigma_c"],
        sigma_k=opts["sigma_k"],
        sigma_g=opts["sigma_g"],
        t_kmeans=opts["t_kmeans"],
        d=opts["d"],
        gamma=opts["gamma"],
        n_hidden=opts["n_hidden"],
        eta=opts["eta"],
        pcd_sweeps=opts["pcd_sweeps"],
        chain_count=opts["chain_count"],
        c_max=opts["c_max"],
        bins=opts["bins"],
        delta=opts["delta"],
        rbf_mode=opts["rbf_mode"],
        strict_gaussian=opts["strict_gaussian"],
        lambda_max=opts["lambda_max"],
        init_centers=init,
    )
    dataset = _load_dataset(opts)
    result = train(dataset, cfg, opts["seed"])
    echo = _echo(opts)
    echo["delta"] = (
        result.mixture.privacy.delta if result.mixture.privacy is not None else None
    )
    save_model(result.mixture, opts["model"], config_echo=echo)
    out.mark(opts["model"])
    if opts["log"]:
        lines = [json.dumps(step.to_dict()) for step in result.steps]
        out.write_text(opts["log"], "\n".join(lines) + ("\n" if lines else ""))
    print(
        json.dumps(
            {
                "model": opts["model"],
                "epsilon": result.mixture.epsilon if math.isfinite(result.mixture.epsilon) else None,
                "argmin_lambda": result.mixture.argmin_lambda,
                "t_sgd": result.t_sgd,
                "q": result.q,
            }
        )
    )
    return 0


def cmd_generate(opts: dict, out: _Outputs) -> int:
    if opts["count"] < 1:
        raise ConfigError("--count must be >= 1")
    if opts["gibbs_steps"] < 1:
        raise ConfigError("--gibbs-steps must be >= 1")
    try:
        mix = load_model(opts["model"])
    except FileNotFoundError:
        raise DataError(f"model not found: {opts['model']}")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"malformed model file {opts['model']}: {exc}")
    synth = mixture.generate(
        mix,
        opts["count"],
        child_rng(opts["seed"], "generation"),
        gibbs_steps=opts["gibbs_steps"],
    )
    write_records(synth, opts["output"])
    out.mark(opts["output"])
    print(json.dumps({"output": opts["output"], "count": len(synth)}))
    return 0


def cmd_evaluate(opts: dict, out: _Outputs) -> int:
    if opts["queries"] < 5 or opts["queries"] % 5 != 0:
        raise ConfigError("--queries must be a positive multiple of 5")
    real = _load_dataset(opts)
    try:
        synth = load_records(opts["synthetic"], SPARSE_ITEMS, allow_empty=True)
    except FileNotFoundError:
        raise DataError(f"synthetic dataset not found: {opts['synthetic']}")
    acc = None
    if opts["labels"] and opts["assignments"]:
        labels = load_labels(opts["labels"])
        assignments = load_labels(opts["assignments"])
        if len(labels) != len(real) or len(assignments) != len(real):
            raise DataError("labels/assignments length does not match the dataset")
        acc = clustering_accuracy(assignments, labels)
    max_l1 = opts["max_l1"]
    if max_l1 is None:
        max_l1 = int(real.records.sum(axis=1).max())
    try:
        workload = generate_workload(
            real.m,
            max_l1,
            opts["queries"],
            child_rng(opts["seed"], "workload"),
            semantics=opts["semantics"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    try:
        report = evaluate_workload(real, synth, workload, acc=acc)
    except ValueError as exc:
        raise DataError(str(exc))
    payload = {"config_echo": {**_echo(opts), "max_l1": max_l1}, **report.to_dict()}
    print(_json_dumps(payload), end="")
    if opts["output"]:
        out.write_text(opts["output"], _json_dumps(payload))
    if opts["csv"]:
        out.write_text(opts["csv"], "\n".join(report.csv_rows()) + "\n")
    return 0


_COMMANDS = {
    "accountant": cmd_accountant,
    "cluster": cmd_cluster,
    "train": cmd_train,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("DPMIX_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = _Outputs()
    try:
        opts = resolve_options(args)
        return _COMMANDS[args.command](opts, out)
    except ConfigError as exc:
        out.discard_all()
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, StageError) as exc:
        out.discard_all()
        if isinstance(getattr(exc, "__cause__", None), NumericsError):
            print(f"numerical error: {exc}", file=sys.stderr)
            return 4
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        out.discard_all()
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        out.discard_all()
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
