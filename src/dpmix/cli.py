"""Command-line interface.

Subcommands: accountant, cluster, train, generate, evaluate.  Option
precedence is command-line flag, then --config JSON file, then built-in
default.  Every artifact embeds the fully resolved configuration, so a
run can be reproduced from any of its outputs.  Exit codes: 0 success, 2
usage or configuration error (a ValueError, ConfigError included, by
which a library refused an argument), 3 data error (DataError or
OSError), 4 numerical error (an ArithmeticError, NumericsError
included), 5 out of memory (a MemoryError).  ``main`` alone maps an
exception to its code, and prints it as one line on stderr.
Each command imports the modules that only it runs, so ``accountant``
starts without the clustering, training and evaluation stacks.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import __version__
from .accountant import PrivacyConfig, alpha_terms, check_noise_scale, epsilon_schedule
from .config import ANY, DEFAULT_GENERATION_SWEEPS, N_SUBSETS, SEMANTICS, TrainConfig
from .data import (
    DEFAULT_BINARIZE_THRESHOLD,
    FORMATS,
    SPARSE_ITEMS,
    atomic_write,
    load_labels,
    load_records,
    write_records,
)
from .errors import ConfigError, DataError

REQUIRED = MISSING  # the dataclass marker for "no default"


@dataclass(frozen=True)
class Option:
    """One option: its type, its default (or REQUIRED), its help text and its bound.

    ``kind`` is int, float, str (a file path) or a tuple of the allowed
    strings.  It sets the flag's parser and the JSON type that a
    config-file value must have.  ``least`` is the smallest value allowed,
    set where the check must run before any input is read.
    """

    kind: type | tuple[str, ...]
    default: object = None
    help: str = ""
    least: int | None = None


def _with_train_defaults(**options: Option) -> dict[str, Option]:
    """Give each option named after a TrainConfig field that field's default."""
    return {
        f.name: replace(options[f.name], default=f.default) for f in fields(TrainConfig)
    }


_OPTIONS = {
    "seed": Option(int, 0, "master seed", least=0),
    "data": Option(str, REQUIRED, "dataset file"),
    "format": Option(FORMATS, SPARSE_ITEMS, "dataset file format"),
    "threshold": Option(int, DEFAULT_BINARIZE_THRESHOLD, "dense-csv cells above this are 1"),
    "labels": Option(str, None, "true labels, one integer per line (cluster: its acc is "
                     "computed from raw data and is not private)"),
    "q": Option(float, REQUIRED, "batch inclusion probability per iteration"),
    "data_size": Option(int, None, "derive delta = 1/size instead of passing --delta",
                        least=1),
    "output": Option(str, None, "write the report or summary here"),
    "assignments_out": Option(str, None, "write one cluster id per record here (computed "
                              "from raw data: not private)"),
    "model": Option(str, REQUIRED, "model JSON path"),
    "log": Option(str, None, "output path for the per-step JSON-lines training log"),
    "count": Option(int, REQUIRED, "number of records to generate", least=1),
    "gibbs_steps": Option(int, DEFAULT_GENERATION_SWEEPS, "Gibbs sweeps per sample", least=1),
    "synthetic": Option(str, REQUIRED, "synthetic dataset (sparse-items)"),
    "queries": Option(int, 1000, "number of counting queries, a multiple of 5", least=N_SUBSETS),
    "max_l1": Option(int, None, "longest query (default: longest real record)", least=N_SUBSETS),
    "semantics": Option(SEMANTICS, ANY, "counting-query semantics"),
    "assignments": Option(str, None, "cluster ids, one per record, scored against --labels "
                          "(give both or neither)"),
    "csv": Option(str, None, "write the per-subset CSV here"),
    "init_centers": Option(str, None, "CSV file with k rows of d initial centers"),
    **_with_train_defaults(
        k=Option(int, help="number of clusters", least=1),
        epochs=Option(int, help="SGD epochs"),
        batch_size=Option(int, help="expected batch size L; q = L / n"),
        sigma_c=Option(float, help="noise of the clip-bound histogram votes"),
        sigma_k=Option(float, help="noise of the k-means counts and sums"),
        sigma_g=Option(float, help="noise of the clipped gradient sums"),
        t_kmeans=Option(int, help="k-means iterations", least=1),
        d=Option(int, help="random Fourier feature width", least=1),
        gamma=Option(float, help="RBF kernel width"),
        n_hidden=Option(int, help="hidden units per RBM"),
        eta=Option(float, help="learning rate"),
        pcd_sweeps=Option(int, help="Gibbs sweeps per persistent-chain update"),
        chain_count=Option(int, help="persistent chains per RBM (default: batch size)"),
        c_max=Option(float, help="largest selectable clip bound"),
        bins=Option(int, help="histogram bins of the clip-bound vote"),
        delta=Option(float, help="target delta (train default: 1/|dataset|)"),
        lambda_max=Option(int, help="largest moment order searched"),
    ),
}

_DATA = ("data", "format", "threshold")

# Each command's options, in the order the config echo lists them.
_COMMAND_OPTIONS = {
    "accountant": ("q", "sigma_c", "sigma_k", "sigma_g", "t_kmeans",
                   "epochs", "delta", "data_size", "lambda_max", "output"),
    "cluster": ("seed", *_DATA, "labels", "k", "d", "gamma", "t_kmeans", "sigma_c",
                "sigma_k", "init_centers", "output", "assignments_out"),
    "train": ("seed", *_DATA, *(f.name for f in fields(TrainConfig)), "init_centers", "model",
              "log"),
    "generate": ("seed", "model", "count", "gibbs_steps", "output"),
    "evaluate": ("seed", *_DATA, "synthetic", "queries", "max_l1", "semantics",
                 "labels", "assignments", "output", "csv"),
}

# The options that one command defines its own way.  cluster reads no
# sigma_c, but still takes it, optional, so that command lines written for
# the clip-bound vote it no longer runs keep working.
_COMMAND_VARIANTS = {
    ("cluster", "sigma_c"): Option(float, None, "ignored: clustering votes on no clip bound"),
    ("generate", "output"): Option(str, REQUIRED, "write the synthetic records here"),
    ("accountant", "epochs"): replace(_OPTIONS["epochs"], least=1),
}

_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}
_JSON_TYPES = {int: int, float: (int, float), str: str}


def _option(command: str, name: str) -> Option:
    return _COMMAND_VARIANTS.get((command, name), _OPTIONS[name])


def _add_flag(parser: argparse.ArgumentParser, name: str, opt: Option) -> None:
    flag = "--" + name.replace("_", "-")
    help_text = opt.help
    if opt.default is REQUIRED:
        help_text += " (required)"
    elif opt.default is not None:
        help_text += f" (default {opt.default})"
    if isinstance(opt.kind, tuple):
        parser.add_argument(flag, choices=opt.kind, help=help_text)
    else:
        parser.add_argument(flag, type=opt.kind, help=help_text)


class _Parser(argparse.ArgumentParser):
    """An argument error is a ConfigError, which main reports like any other."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dpmix",
        description="Differentially private mixture of generative models for binary data.",
    )
    parser.add_argument("--version", action="version", version=f"dpmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file with option defaults")
        for name in _COMMAND_OPTIONS[command]:
            _add_flag(p, name, _option(command, name))
    return parser


def _check_config_value(name: str, value, opt: Option) -> None:
    """A config-file value must have its option's JSON type."""
    if value is None:
        ok = opt.default is None
    elif isinstance(opt.kind, tuple):
        ok = value in opt.kind
    else:
        ok = isinstance(value, _JSON_TYPES[opt.kind]) and not isinstance(value, bool)
    if not ok:
        if isinstance(opt.kind, tuple):
            wanted = f"one of {', '.join(opt.kind)}"
        else:
            wanted = _KIND_NAMES[opt.kind]
        if opt.default is None:
            wanted += " or null"
        raise ConfigError(f"config key {name} must be {wanted}, got {json.dumps(value)}")


def _read_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for non-UTF-8 bytes
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(values, dict):
        raise ConfigError("config file must contain a JSON object")
    unknown = set(values) - set(_COMMAND_OPTIONS[command])
    if unknown:
        raise ConfigError(f"unknown config key(s) for {command}: {', '.join(sorted(unknown))}")
    for name, value in values.items():
        _check_config_value(name, value, _option(command, name))
    return values


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge flags over the config file over defaults for one command, and check them."""
    file_values = _read_config(args.config, args.command) if args.config else {}
    resolved = {}
    for name in _COMMAND_OPTIONS[args.command]:
        opt, flag_name = _option(args.command, name), "--" + name.replace("_", "-")
        flag = getattr(args, name)
        value = flag if flag is not None else file_values.get(name, opt.default)
        if value is REQUIRED:
            raise ConfigError(f"missing required option {flag_name}")
        if opt.kind is float and value is not None:
            value = float(value)  # a config file's 10 is the flag's 10.0
            if not math.isfinite(value):  # float() and json.load accept nan, which passes x <= 0
                raise ConfigError(f"{flag_name} must be a finite number, got {value}")
        if opt.least is not None and value is not None and value < opt.least:
            raise ConfigError(f"{flag_name} must be >= {opt.least}")
        resolved[name] = value
    resolved["command"] = args.command
    return resolved


def _fields_from(cls, opts: dict) -> dict:
    """The resolved options named after fields of the dataclass ``cls``."""
    return {f.name: opts[f.name] for f in fields(cls) if f.name in opts}


class _Outputs:
    """Track written artifacts so failures leave no partial files behind."""

    def __init__(self):
        self.paths = []

    def write_text(self, path, text: str) -> None:
        with atomic_write(path) as fh:
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


def _load_dataset(opts: dict):
    try:
        return load_records(opts["data"], opts["format"], binarize_threshold=opts["threshold"])
    except FileNotFoundError:
        raise DataError(f"dataset not found: {opts['data']}")


def _json_dumps(payload: dict) -> str:
    return json.dumps(payload, indent=1) + "\n"


def cmd_accountant(opts: dict, out: _Outputs) -> int:
    if (opts["delta"] is None) == (opts["data_size"] is None):
        raise ConfigError("pass one of --delta and --data-size (for delta = 1/size)")
    delta = opts["delta"] if opts["delta"] is not None else 1.0 / opts["data_size"]
    cfg = PrivacyConfig(**{**_fields_from(PrivacyConfig, opts), "t_sgd": 0, "delta": delta})
    terms = alpha_terms(cfg)  # the schedule and the report's alpha profile share them
    schedule = epsilon_schedule(cfg, range(1, opts["epochs"] + 1), terms)
    print("epoch,t_sgd,epsilon,lambda")
    for row in schedule:
        print(f"{row.epoch},{row.t_sgd},{row.epsilon!r},{row.argmin_lambda}")
    final = schedule[-1]
    if opts["output"]:
        lams, kmeans, sgd_step = terms
        report = {
            "config_echo": {**opts, "delta": delta},
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
            "alpha_profile": {
                "lambda": list(lams),
                "alpha": (kmeans + final.t_sgd * sgd_step).tolist(),
            },
        }
        out.write_text(opts["output"], _json_dumps(report))
    return 0


def _load_init_centers(opts: dict) -> np.ndarray | None:
    """The (k, d) array in the --init-centers file, or None without one."""
    path, k, d = opts["init_centers"], opts["k"], opts["d"]
    if not path:
        return None
    try:
        with warnings.catch_warnings():  # numpy warns of an empty file; the shape check refuses it
            warnings.simplefilter("ignore", UserWarning)
            centers = np.loadtxt(path, delimiter=",", ndmin=2)
    except FileNotFoundError:
        raise DataError(f"init centers file not found: {path}")
    except ValueError as exc:
        raise DataError(f"malformed init centers file: {exc}")
    if centers.shape != (k, d):
        raise DataError(f"init centers must be ({k}, {d}), got {centers.shape}")
    if not np.isfinite(centers).all():
        raise DataError("init centers must be finite numbers")
    return centers


def _load_labels(path, n: int) -> np.ndarray:
    """One integer per line of ``path``; DataError unless there are ``n`` of them."""
    labels = load_labels(path)
    if len(labels) != n:
        raise DataError(f"{path} holds {len(labels)} entries for {n} records")
    return labels


def cmd_cluster(opts: dict, out: _Outputs) -> int:
    from .evaluation import clustering_accuracy
    from .kmeans import clustering_stage

    check_noise_scale("sigma_k", opts["sigma_k"])  # before any input is read
    if not opts["gamma"] > 0:
        raise ConfigError(f"--gamma must be > 0, got {opts['gamma']}")
    dataset = _load_dataset(opts)
    labels = _load_labels(opts["labels"], len(dataset)) if opts["labels"] else None
    _, clustering = clustering_stage(
        dataset, opts["seed"], k=opts["k"], d=opts["d"], gamma=opts["gamma"],
        t_kmeans=opts["t_kmeans"], sigma_k=opts["sigma_k"], init=_load_init_centers(opts),
    )
    summary = {
        "config_echo": dict(opts),
        "k": clustering.k,
        "iterations": clustering.iterations,
        "sigma_k": opts["sigma_k"],
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
    from .mixture import save_model, train

    cfg = TrainConfig(**_fields_from(TrainConfig, opts))
    init = _load_init_centers(opts)  # read only once cfg has checked every option
    dataset = _load_dataset(opts)
    result = train(dataset, cfg, opts["seed"], init_centers=init)
    mix = result.mixture
    save_model(mix, opts["model"], config_echo={**opts, "delta": mix.privacy.delta})
    out.mark(opts["model"])
    if opts["log"]:
        lines = [json.dumps(step.to_dict()) for step in result.steps]
        out.write_text(opts["log"], "\n".join(lines) + ("\n" if lines else ""))
    print(
        json.dumps(
            {
                "model": opts["model"],
                "epsilon": mix.epsilon,
                "argmin_lambda": mix.argmin_lambda,
                "t_sgd": mix.privacy.t_sgd,
                "q": mix.privacy.q,
            }
        )
    )
    return 0


def cmd_generate(opts: dict, out: _Outputs) -> int:
    from .mixture import generate, load_model
    from .streams import child_rng

    try:
        mix = load_model(opts["model"])
    except FileNotFoundError:
        raise DataError(f"model not found: {opts['model']}")
    synth = generate(
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
    from .evaluation import clustering_accuracy, evaluate_workload, generate_workload
    from .streams import child_rng

    if (opts["labels"] is None) != (opts["assignments"] is None):
        raise ConfigError("pass --labels and --assignments together")
    if opts["queries"] % N_SUBSETS:  # before any input is read
        raise ConfigError(f"--queries must be a multiple of {N_SUBSETS}, got {opts['queries']}")
    real = _load_dataset(opts)
    try:
        synth = load_records(opts["synthetic"], SPARSE_ITEMS, allow_empty=True)
    except FileNotFoundError:
        raise DataError(f"synthetic dataset not found: {opts['synthetic']}")
    acc = None
    if opts["labels"] is not None:
        labels = _load_labels(opts["labels"], len(real))
        assignments = _load_labels(opts["assignments"], len(real))
        acc = clustering_accuracy(assignments, labels)
    max_l1 = opts["max_l1"]
    if max_l1 is None:
        max_l1 = int(real.records.sum(axis=1).max())
        if max_l1 < N_SUBSETS:
            raise DataError(f"the longest record of {opts['data']} holds {max_l1} items; "
                            f"pass --max-l1 >= {N_SUBSETS}")
    workload = generate_workload(
        real.m,
        max_l1,
        opts["queries"],
        child_rng(opts["seed"], "workload"),
        semantics=opts["semantics"],
    )
    try:
        report = evaluate_workload(real, synth, workload, acc=acc)
    except ValueError as exc:
        raise DataError(str(exc))
    payload = {"config_echo": {**opts, "max_l1": max_l1}, **report.to_dict()}
    print(_json_dumps(payload), end="")
    if opts["output"]:
        out.write_text(opts["output"], _json_dumps(payload))
    if opts["csv"]:
        out.write_text(opts["csv"], "\n".join(report.csv_rows()) + "\n")
    return 0


_COMMANDS = {
    "accountant": (cmd_accountant, "print the epsilon schedule for a configuration"),
    "cluster": (cmd_cluster, "run private clustering and report a summary"),
    "train": (cmd_train, "train a private mixture model"),
    "generate": (cmd_generate, "sample synthetic records from a trained model"),
    "evaluate": (cmd_evaluate, "score synthetic data against the real dataset"),
}


def main(argv: list[str] | None = None) -> int:
    """Run one command.  The only code that turns an exception into an exit code."""
    out = _Outputs()
    try:
        args = build_parser().parse_args(argv)
        opts = resolve_options(args)
        return _COMMANDS[args.command][0](opts, out)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except ValueError as exc:  # ConfigError is one
        code, message = 2, f"usage error: {exc}"
    except (DataError, OSError) as exc:
        code, message = 3, f"data error: {exc}"
    except ArithmeticError as exc:  # NumericsError is one
        code, message = 4, f"numerical error: {exc}"
    except MemoryError as exc:  # numpy's names the allocation; a bare one says nothing
        code, message = 5, "out of memory" + (f": {exc}" if str(exc) else "")
    out.discard_all()
    print(message, file=sys.stderr)
    return code
