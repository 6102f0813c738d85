"""Command-line interface: precedence, exit codes, artifacts, determinism."""
import base64
import errno
import json
import math
import os
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import dpmix
from conftest import labelled_mixture_corpus, mixture_corpus, privacy_claim
from dpmix import accountant, mixture, rbm
from dpmix.__main__ import BLAS_THREAD_VARIABLES
from dpmix.accountant import DEFAULT_LAMBDA_MAX, J1_GRID
from dpmix.cli import build_parser, main, resolve_options
from dpmix.data import load_records, write_records
from dpmix.mixture import GENERATION_CHUNK_ROWS, MixtureModel, TrainConfig, load_model, save_model

ACCT_ARGS = [
    "accountant", "--q", "0.01", "--sigma-c", "4", "--sigma-k", "40",
    "--sigma-g", "2", "--delta", "1e-5",
]


@pytest.fixture
def corpus_files(tmp_path):
    data, labels = labelled_mixture_corpus(120, 10, 2, np.random.default_rng(42))
    data_path = tmp_path / "records.txt"
    labels_path = tmp_path / "labels.txt"
    write_records(data, data_path)
    labels_path.write_text("\n".join(str(int(c)) for c in labels) + "\n")
    return data, str(data_path), str(labels_path)


def _csv_rows(captured):
    lines = captured.strip().splitlines()
    assert lines[0] == "epoch,t_sgd,epsilon,lambda"
    return [line.split(",") for line in lines[1:]]


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "dpmix" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_missing_required_option(capsys):
    assert main(["accountant", "--sigma-c", "4"]) == 2
    assert "required" in capsys.readouterr().err


def test_command_variants_of_shared_options(capsys):
    # generate requires --output, which the other commands take optionally;
    # accountant requires --delta, which train defaults to 1/|dataset|, and
    # needs at least one epoch, where train allows none
    assert main(["generate", "--model", "m.json", "--count", "1"]) == 2
    assert capsys.readouterr().err == "usage error: missing required option --output\n"
    assert main(ACCT_ARGS[:-2] + ["--epochs", "1"]) == 2
    assert capsys.readouterr().err == "usage error: missing required option --delta\n"
    assert main(["generate", "--help"]) == 0
    assert "write the synthetic records here (required)" in capsys.readouterr().out
    assert main(ACCT_ARGS + ["--epochs", "0"]) == 2
    assert capsys.readouterr().err == "usage error: --epochs must be >= 1\n"


def test_negative_seed_is_usage_error(capsys):
    assert main(["generate", "--model", "m.json", "--count", "1", "--output", "out.txt",
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "usage error: --seed must be >= 0\n"


def test_accountant_schedule_csv(capsys):
    assert main(ACCT_ARGS + ["--epochs", "3"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 3
    assert [int(r[0]) for r in rows] == [1, 2, 3]
    # t_sgd grows by ceil(1/q) = 100 per epoch and epsilon grows with it
    assert [int(r[1]) for r in rows] == [100, 200, 300]
    eps = [float(r[2]) for r in rows]
    assert eps[0] < eps[1] < eps[2]
    assert all(1 <= int(r[3]) <= 32 for r in rows)


def test_accountant_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    args = [
        "accountant", "--q", "0.01", "--sigma-c", "4", "--sigma-k", "40",
        "--sigma-g", "2", "--delta", "2e-05", "--epochs", "2",
        "--output", str(out),
    ]
    assert main(args) == 0
    report = json.loads(out.read_text())
    assert report["config_echo"]["delta"] == 2e-05
    assert "data_size" not in report["config_echo"]
    assert len(report["schedule"]) == 2
    assert report["epsilon"] == report["schedule"][-1]["epsilon"]
    profile = report["alpha_profile"]
    assert len(profile["lambda"]) == len(profile["alpha"]) == 32


def test_accountant_rejects_zero_sigma(capsys):
    args = [
        "accountant", "--q", "0.01", "--sigma-c", "0", "--sigma-k", "40",
        "--sigma-g", "2", "--delta", "1e-5", "--epochs", "1",
    ]
    assert main(args) == 2
    assert "no finite epsilon" in capsys.readouterr().err


def test_accountant_report_computes_each_order_once(tmp_path, capsys, fresh_series):
    # the split search's distinct (order, sigma) pairs at ACCT_ARGS's sigma_c 4 and
    # sigma_g 2; the report's alpha profile asks for each of them again
    orders = {(lam / j1, 4.0) for lam in range(1, DEFAULT_LAMBDA_MAX + 1) for j1 in J1_GRID}
    orders |= {(lam / (1.0 - j1), 2.0)
               for lam in range(1, DEFAULT_LAMBDA_MAX + 1) for j1 in J1_GRID}
    out = tmp_path / "report.json"
    assert main(ACCT_ARGS + ["--epochs", "3", "--output", str(out)]) == 0
    assert fresh_series.cache_info().misses == len(orders)
    rows = _csv_rows(capsys.readouterr().out)
    report = json.loads(out.read_text())
    assert [float(r[2]) for r in rows] == [row["epsilon"] for row in report["schedule"]]


@pytest.mark.parametrize("args,message", [
    (ACCT_ARGS + ["--q", "2"], "q must be in [0, 1]"),
    (ACCT_ARGS + ["--q", "0"], "q must be in (0, 1]"),  # no epoch length
    (ACCT_ARGS + ["--lambda-max", "0"], "lambda_max must be >= 1"),
    (ACCT_ARGS + ["--delta", "1"], "delta must be in (0, 1)"),
], ids=["q", "q-zero", "lambda_max", "delta"])
def test_accountant_rejects_out_of_range_values(capsys, args, message):
    assert main(args + ["--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["accountant", "train"])
def test_series_failure_exits_4_without_artifact(tmp_path, capsys, monkeypatch, fresh_series,
                                                corpus_files, command):
    # Two terms cannot meet the series' tail bound at the split search's
    # fractional orders, so it raises NumericsError.
    monkeypatch.setattr(accountant, "_SERIES_TERMS", (2,))
    artifact = tmp_path / "out.json"
    if command == "accountant":
        args = ACCT_ARGS + ["--epochs", "1", "--output", str(artifact)]
    else:
        args = _train_args(corpus_files[1], artifact)
    assert main(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and "did not converge" in err
    assert len(err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.txt", "records.txt"]


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "acct.json"
    cfg.write_text(json.dumps({
        "q": 0.01, "sigma_c": 4.0, "sigma_k": 40.0, "sigma_g": 2.0,
        "delta": 1e-5, "epochs": 3,
    }))
    assert main(["accountant", "--config", str(cfg)]) == 0
    assert len(_csv_rows(capsys.readouterr().out)) == 3
    # a flag overrides the file value
    assert main(["accountant", "--config", str(cfg), "--epochs", "1"]) == 0
    assert len(_csv_rows(capsys.readouterr().out)) == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"q": 0.01, "sigma": 1.0}))
    assert main(["accountant", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["accountant", "cluster", "train"])
def test_removed_options_are_refused(tmp_path, capsys, command):
    # the accountant charges add/remove adjacency only, so strict_gaussian,
    # which doubled the k-means terms, is gone; clustering clips at a
    # public bound, so rbf_mode, whose false value voted on one, is gone.
    # Each is refused as a flag and as a config key.
    for key, flags in (("strict_gaussian", ["--strict-gaussian"]),
                       ("rbf_mode", ["--rbf-mode", "--no-rbf-mode"])):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({key: False}))
        for flag in flags:
            assert main([command, flag]) == 2
            assert capsys.readouterr().err == f"usage error: unrecognized arguments: {flag}\n"
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"usage error: unknown config key(s) for {command}: {key}\n"
        )


@pytest.mark.parametrize("command,flag", [
    ("accountant", ["--seed", "1"]),
    ("accountant", ["--unsafe-no-privacy"]),
    ("generate", ["--unsafe-no-privacy"]),
    ("evaluate", ["--unsafe-no-privacy"]),
    ("cluster", ["--unsafe-no-privacy"]),
    ("train", ["--unsafe-no-privacy"]),
    ("accountant", ["--workers", "1"]),
    ("train", ["--workers", "1"]),
    ("cluster", ["--workers", "1"]),
    ("evaluate", ["--workers", "1"]),
    ("generate", ["--workers", "1"]),
    ("cluster", ["--c-max", "2"]),
    ("cluster", ["--bins", "5"]),
    ("accountant", ["--data-size", "100"]),
], ids=["accountant-seed", "accountant-unsafe", "generate-unsafe", "evaluate-unsafe",
        "cluster-unsafe", "train-unsafe", "accountant-workers", "train-workers",
        "cluster-workers", "evaluate-workers", "generate-workers", "cluster-c_max",
        "cluster-bins", "accountant-data_size"])
def test_flags_no_code_reads_are_refused(tmp_path, capsys, command, flag):
    # the accountant draws nothing at random and takes delta only from
    # --delta; every model carries a privacy claim, so no command runs
    # without noise; generate works out its own thread count; only DP-SGD
    # votes on a clip bound
    key = flag[0][2:].replace("-", "_")
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({key: True if len(flag) == 1 else 1}))
    for argv, message in (
        ([command, *flag], f"usage error: unrecognized arguments: {' '.join(flag)}\n"),
        ([command, "--config", str(cfg)], f"usage error: unknown config key(s) for {command}: "
                                          f"{key}\n"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == message


_EVALUATE = ["evaluate", "--data", "records.txt", "--synthetic", "synth.txt"]


@pytest.mark.parametrize("argv,message", [
    (_EVALUATE + ["--labels", "labels.txt"], "pass --labels and --assignments together"),
    (_EVALUATE + ["--assignments", "ids.txt"], "pass --labels and --assignments together"),
], ids=["labels-only", "assignments-only"])
def test_options_read_as_a_pair_are_never_dropped(capsys, argv, message):
    # evaluate scores accuracy only from both files, so neither option is
    # silently ignored
    assert main(argv) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_config_file_not_json(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("epochs: 3")
    assert main(["accountant", "--config", str(cfg)]) == 2


def test_cluster_smoke_and_artifacts(tmp_path, corpus_files, capsys):
    _, data_path, labels_path = corpus_files
    summary_path = tmp_path / "summary.json"
    assign_path = tmp_path / "assign.txt"
    args = [
        "cluster", "--data", data_path, "--labels", labels_path,
        "--k", "2", "--d", "16", "--gamma", "0.5", "--t-kmeans", "3",
        "--sigma-c", "4", "--sigma-k", "10", "--seed", "5",
        "--output", str(summary_path), "--assignments-out", str(assign_path),
    ]
    assert main(args) == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.loads(summary_path.read_text())
    assert printed == stored
    assert stored["k"] == 2
    assert len(stored["size_history"]) == 3
    assert 0.0 <= stored["acc"] <= 1.0
    ids = [int(line) for line in assign_path.read_text().splitlines()]
    assert len(ids) == 120
    assert set(ids) <= {0, 1}


def test_cluster_and_train_share_the_clustering_stage(tmp_path, corpus_files, capsys):
    # at one seed and the same clustering options, the sizes cluster prints
    # are the noisy sizes behind train's mixture weights, bit for bit
    _, data_path, _ = corpus_files
    model_path = tmp_path / "model.json"
    assert main(_train_args(data_path, model_path, sigma_k=4, seed=3)) == 0
    capsys.readouterr()
    assert main(["cluster", "--data", data_path, "--k", "2", "--t-kmeans", "2", "--d", "12",
                 "--gamma", "0.5", "--sigma-k", "4", "--seed", "3"]) == 0
    sizes = np.array(json.loads(capsys.readouterr().out)["noisy_sizes"])
    assert (sizes > 0).all()  # so no weight is a clamped size
    assert np.array_equal(load_model(model_path).weights, sizes)


@pytest.mark.parametrize("count", [119, 121])
def test_cluster_labels_must_match_the_dataset(tmp_path, corpus_files, capsys, count):
    _, data_path, labels_path = corpus_files
    labels = tmp_path / "wrong-length.txt"
    labels.write_text("0\n" * count)
    summary = tmp_path / "summary.json"
    assert main(["cluster", "--data", data_path, "--labels", str(labels), "--k", "2",
                 "--d", "8", "--sigma-c", "4", "--sigma-k", "10",
                 "--output", str(summary)]) == 3
    assert capsys.readouterr().err == (
        f"data error: {labels} holds {count} entries for 120 records\n"
    )
    assert not summary.exists()
    # evaluate checks its labels and assignments the same way
    assert main(["evaluate", "--data", data_path, "--synthetic", data_path, "--queries", "10",
                 "--labels", labels_path, "--assignments", str(labels)]) == 3
    assert capsys.readouterr().err == (
        f"data error: {labels} holds {count} entries for 120 records\n"
    )


def test_cluster_rejects_zero_sigma(tmp_path, corpus_files, capsys):
    # zero noise has no finite epsilon; the check runs before any input is
    # read, so it is the error even when the dataset does not exist
    _, data_path, _ = corpus_files
    missing = str(tmp_path / "missing.txt")
    base = ["cluster", "--k", "2", "--d", "8", "--t-kmeans", "1"]
    for value in ("0", "-1"):
        assert main(base + ["--data", missing, "--sigma-k", value]) == 2
        err = capsys.readouterr().err
        assert err == (f"usage error: sigma_k must be finite and > 0, got {float(value)}; "
                       "zero noise has no finite epsilon\n")
    cfg = tmp_path / "zero.json"
    cfg.write_text('{"sigma_k": 0}')  # a config file's 0 is the flag's 0.0
    assert main(base + ["--data", missing, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "usage error: sigma_k must be finite and > 0, got 0.0; zero noise has no finite epsilon\n"
    )
    # cluster ignores --sigma-c, so a zero there is no error
    assert main(base + ["--data", data_path, "--sigma-k", "10", "--sigma-c", "0"]) == 0


@pytest.mark.parametrize("flag,value", [("--d", "0"), ("--gamma", "0")])
def test_cluster_rejects_bad_feature_map(corpus_files, capsys, flag, value):
    _, data_path, _ = corpus_files
    args = ["cluster", "--data", data_path, "--k", "2", "--sigma-c", "4",
            "--sigma-k", "10", "--d", "8", flag, value]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["cluster", "train"])
def test_cluster_k_larger_than_dataset(tmp_path, corpus_files, capsys, command):
    _, data_path, _ = corpus_files
    model_path = tmp_path / "model.json"
    if command == "cluster":
        args = ["cluster", "--data", data_path, "--k", "500", "--sigma-c", "4",
                "--sigma-k", "10", "--d", "8"]
    else:
        args = _train_args(data_path, model_path, k=500)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert not model_path.exists()


def test_missing_data_file_is_a_data_error(capsys):
    args = ["cluster", "--data", "/nonexistent/records.txt", "--k", "2",
            "--sigma-c", "4", "--sigma-k", "10"]
    assert main(args) == 3
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,line", [
    ("cluster", "--data", "line 3: malformed item index"),
    ("evaluate", "--synthetic", "line 3: malformed item index"),
    ("cluster", "--labels", "line 3: not UTF-8 text"),
], ids=["cluster-data", "evaluate-synthetic", "cluster-labels"])
def test_undecodable_input_is_a_one_line_data_error(tmp_path, corpus_files, capsys,
                                                    command, flag, line):
    _, data_path, labels_path = corpus_files
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"m=10\n0 1\n2 \xff 3\n" if flag != "--labels" else b"0\n1\n\xff\n")
    if command == "cluster":
        args = ["cluster", "--data", data_path, "--labels", labels_path, "--k", "2",
                "--sigma-c", "4", "--sigma-k", "10", "--d", "8", "--t-kmeans", "1"]
    else:
        args = ["evaluate", "--data", data_path, "--synthetic", data_path]
    args[args.index(flag) + 1] = str(bad)
    assert main(args) == 3
    assert capsys.readouterr().err == f"data error: {line}\n"


def test_nan_dense_cell_is_a_one_line_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,200\n200,nan\n")
    args = ["cluster", "--data", str(bad), "--format", "dense-csv", "--k", "1",
            "--sigma-c", "4", "--sigma-k", "10", "--d", "8", "--t-kmeans", "1"]
    assert main(args) == 3
    assert capsys.readouterr().err == "data error: line 2: cell value outside [0, 255]\n"


def _train_args(data_path, model_path, **extra):
    args = [
        "train", "--data", data_path, "--k", "2", "--epochs", "1",
        "--batch-size", "30", "--sigma-c", "4", "--sigma-k", "40",
        "--sigma-g", "1", "--t-kmeans", "2", "--d", "12", "--gamma", "0.5",
        "--n-hidden", "4", "--chain-count", "6", "--model", str(model_path),
    ]
    for key, val in extra.items():
        args += [f"--{key.replace('_', '-')}", str(val)]
    return args


@pytest.mark.parametrize("flag,value", [
    ("n_hidden", 0),
    ("eta", -1),
    ("chain_count", 0),
    ("bins", 0),
    ("pcd_sweeps", 0),
    ("pcd_sweeps", -3),
])
def test_train_rejects_bad_config_before_any_stage(tmp_path, corpus_files, capsys, flag, value):
    _, data_path, _ = corpus_files
    model_path = tmp_path / "model.json"
    assert main(_train_args(data_path, model_path, **{flag: value})) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flag in err
    assert len(err.strip().splitlines()) == 1
    assert not model_path.exists()


def test_train_model_in_missing_directory_names_the_given_path(tmp_path, corpus_files, capsys):
    _, data_path, _ = corpus_files
    before = sorted(tmp_path.rglob("*"))
    model_path = tmp_path / "nodir" / "m.json"
    assert main(_train_args(data_path, model_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and len(err.strip().splitlines()) == 1
    assert repr(str(model_path)) in err and ".tmp" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("values", [
    {"k": "3"},
    {"d": 10.5},
    {"k": True},
    {"format": "xml"},
    {"seed": None},
], ids=["k-string", "d-float", "k-bool", "format-choice", "seed-null"])
def test_config_values_must_have_the_option_type(tmp_path, corpus_files, capsys, values):
    _, data_path, _ = corpus_files
    model_path = tmp_path / "model.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    args = _train_args(data_path, model_path)
    (key,) = values
    flag = f"--{key.replace('_', '-')}"
    if flag in args:  # the file value must not be overridden by a flag
        i = args.index(flag)
        del args[i:i + 2]
    assert main(args + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and key in err
    assert len(err.strip().splitlines()) == 1
    assert not model_path.exists()


@pytest.mark.parametrize("source", ["train-flag", "accountant-flag", "config-file", "centers-file"])
def test_non_finite_numbers_are_rejected(tmp_path, corpus_files, capsys, source):
    # NaN passes any range check written as x <= 0, so it is refused up front
    _, data_path, _ = corpus_files
    artifact = tmp_path / "out.json"
    if source == "train-flag":
        args, code, message = _train_args(data_path, artifact, gamma="nan"), 2, "--gamma"
    elif source == "accountant-flag":
        args = ACCT_ARGS + ["--sigma-g", "nan", "--epochs", "1", "--output", str(artifact)]
        code, message = 2, "--sigma-g"
    elif source == "config-file":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta": math.nan}))  # written as the JSON extension NaN
        args, code, message = _train_args(data_path, artifact) + ["--config", str(cfg)], 2, "--eta"
    else:
        centers = tmp_path / "centers.csv"
        centers.write_text("0.1,0.2,0.3\nnan,0.5,0.6\n")
        args = ["cluster", "--data", data_path, "--k", "2", "--d", "3", "--sigma-c", "4",
                "--sigma-k", "40", "--init-centers", str(centers), "--output", str(artifact)]
        code, message = 3, "init centers must be finite"
    before = sorted(tmp_path.iterdir())
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith("usage error:" if code == 2 else "data error:") and message in err
    assert len(err.strip().splitlines()) == 1
    assert sorted(tmp_path.iterdir()) == before


_CLUSTER = ["cluster", "--data", "records.txt", "--k", "2", "--d", "12", "--sigma-k", "10",
            "--t-kmeans", "1", "--output", "summary.json", "--assignments-out", "assign.txt"]
_TRAIN = _train_args("records.txt", "model.json", log="log.jsonl")
_MALFORMED_CENTERS = {"centers.csv": "0.1,0.2\n0.3,x\n"}
_THREE_CENTERS = {"centers.csv": (",".join(["0.1"] * 12) + "\n") * 3}


@pytest.mark.parametrize("files,argv,code,message", [
    ({}, _CLUSTER + ["--config", "missing.json"], 2,
     "usage error: config file not found: missing.json"),
    ({"list.json": "[1, 2]\n"}, _CLUSTER + ["--config", "list.json"], 2,
     "usage error: config file must contain a JSON object"),
    ({}, _CLUSTER + ["--init-centers", "centers.csv"], 3,
     "data error: init centers file not found: centers.csv"),
    ({}, _TRAIN + ["--init-centers", "centers.csv"], 3,
     "data error: init centers file not found: centers.csv"),
    (_MALFORMED_CENTERS, _CLUSTER + ["--init-centers", "centers.csv"], 3,
     "data error: malformed init centers file: "),
    (_MALFORMED_CENTERS, _TRAIN + ["--init-centers", "centers.csv"], 3,
     "data error: malformed init centers file: "),
    (_THREE_CENTERS, _CLUSTER + ["--init-centers", "centers.csv"], 3,
     "data error: init centers must be (2, 12), got (3, 12)"),
    (_THREE_CENTERS, _TRAIN + ["--init-centers", "centers.csv"], 3,
     "data error: init centers must be (2, 12), got (3, 12)"),
    ({"bad.csv": "1,2,x\n"}, _CLUSTER + ["--data", "bad.csv", "--format", "dense-csv"], 3,
     "data error: line 1: malformed cell"),
    ({"bad.txt": "0\n\n1\n"}, _CLUSTER + ["--labels", "bad.txt"], 3,
     "data error: line 2: empty label"),
    ({"bad.txt": ""}, _CLUSTER + ["--labels", "bad.txt"], 3,
     "data error: labels file contains no entries"),
    ({"wide.txt": "m=12\n0 11\n"},
     ["evaluate", "--data", "records.txt", "--synthetic", "wide.txt", "--queries", "10",
      "--output", "report.json", "--csv", "report.csv"], 3,
     "data error: dimension mismatch: real m=10, synthetic m=12"),
    *(({"centers.csv": text}, command + ["--init-centers", "centers.csv"], 3,
       "data error: init centers must be (2, 12), got (0, 1)")
      for command in (_CLUSTER, _TRAIN) for text in ("", "\n\n")),
    ({}, _TRAIN + ["--eta", "1e50"], 4,
     "numerical error: an RBM activation can lie outside float32's range"),
], ids=["config-missing", "config-list", "cluster-centers-missing", "train-centers-missing",
        "cluster-centers-malformed", "train-centers-malformed", "cluster-centers-shape",
        "train-centers-shape", "dense-cell", "labels-blank", "labels-empty", "evaluate-m",
        "cluster-centers-empty", "cluster-centers-blank", "train-centers-empty",
        "train-centers-blank", "train-eta-overflow"])
def test_documented_input_errors(tmp_path, corpus_files, capsys, monkeypatch,
                                 files, argv, code, message):
    # each bad input is refused with its exit code and one stderr line,
    # and the command leaves none of its outputs behind
    monkeypatch.chdir(tmp_path)  # corpus_files wrote records.txt here
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    before = sorted(tmp_path.iterdir())
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and len(err.splitlines()) == 1
    assert sorted(tmp_path.iterdir()) == before


def test_train_init_centers_file_is_the_library_argument(tmp_path, corpus_files, capsys,
                                                         monkeypatch):
    # the centers file reaches mixture.train as init_centers, bit for bit,
    # the model is the library's for that argument, and the start moves the
    # clustering
    data, data_path, _ = corpus_files
    init = np.random.default_rng(3).normal(0.0, 0.1, (2, 12))
    centers = tmp_path / "centers.csv"
    centers.write_text("".join(",".join(map(repr, row)) + "\n" for row in init.tolist()))
    model_path = tmp_path / "model.json"
    passed, real_train = [], mixture.train

    def recorded(*args, init_centers=None):
        passed.append(init_centers)
        return real_train(*args, init_centers=init_centers)

    monkeypatch.setattr(mixture, "train", recorded)
    assert main(_train_args(data_path, model_path, seed=4, init_centers=centers)) == 0
    capsys.readouterr()
    assert len(passed) == 1 and passed[0].tobytes() == init.tobytes()
    cfg = TrainConfig(k=2, epochs=1, batch_size=30, sigma_c=4.0, sigma_k=40.0, sigma_g=1.0,
                      t_kmeans=2, d=12, gamma=0.5, n_hidden=4, chain_count=6)
    started = real_train(data, cfg, 4, init_centers=init)
    assert not np.array_equal(started.clustering.noisy_centers,
                              real_train(data, cfg, 4).clustering.noisy_centers)
    want = started.mixture
    got = load_model(model_path)
    for a, b in [(got.weights, want.weights),
                 *((g.params, w.params) for g, w in zip(got.models, want.models))]:
        assert a.tobytes() == b.tobytes()


def test_float_option_from_a_config_file_is_a_float(tmp_path, corpus_files, capsys):
    # a config file's integer for a real-valued option resolves to the
    # float the flag gives, so the two runs write the same model bytes
    _, data_path, _ = corpus_files
    model_path = tmp_path / "model.json"
    args = _train_args(data_path, model_path)
    for flag in ("--sigma-k", "--gamma"):
        i = args.index(flag)
        del args[i:i + 2]
    assert main(args + ["--sigma-k", "10", "--gamma", "1", "--c-max", "8"]) == 0
    by_flag = model_path.read_bytes()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma_k": 10, "gamma": 1, "c_max": 8}))
    assert main(args + ["--config", str(cfg)]) == 0
    capsys.readouterr()
    assert model_path.read_bytes() == by_flag
    resolved = resolve_options(build_parser().parse_args(args + ["--config", str(cfg)]))
    assert [type(resolved[key]) for key in ("sigma_k", "gamma", "c_max")] == [float] * 3


def test_train_options_are_the_train_config_fields():
    required = [f for f in fields(TrainConfig) if f.default is MISSING]
    argv = ["train", "--data", "d.txt", "--model", "m.json"]
    for f in required:
        argv += [f"--{f.name.replace('_', '-')}", "1"]
    resolved = resolve_options(build_parser().parse_args(argv))
    for f in fields(TrainConfig):
        assert f.name in resolved
        if f.default is not MISSING:
            assert resolved[f.name] == f.default and type(resolved[f.name]) is type(f.default)
    # the order of --help and of the flags' definition
    assert list(resolved) == [
        "seed", "data", "format", "threshold", "k", "epochs", "batch_size",
        "sigma_c", "sigma_k", "sigma_g", "t_kmeans", "d", "gamma", "n_hidden", "eta",
        "pcd_sweeps", "chain_count", "c_max", "bins", "delta", "lambda_max",
        "init_centers", "model", "log", "command",
    ]


def test_train_generate_evaluate_pipeline(tmp_path, corpus_files, capsys):
    _, data_path, labels_path = corpus_files
    model_path = tmp_path / "model.json"
    log_path = tmp_path / "steps.jsonl"

    rc = main(_train_args(data_path, model_path, log=log_path, seed=9))
    assert rc == 0
    train_out = json.loads(capsys.readouterr().out)
    assert train_out["model"] == str(model_path)
    assert train_out["epsilon"] > 0
    assert train_out["t_sgd"] == 4  # one epoch at q = 30/120
    log_lines = log_path.read_text().splitlines()
    assert len(log_lines) == 4
    first = json.loads(log_lines[0])
    assert {"step", "cluster", "batch_size", "clip_bound"} <= set(first)

    stored = json.loads(model_path.read_text())
    assert stored["privacy"]["delta"] == pytest.approx(1 / 120)
    assert stored["privacy"]["epsilon"] == train_out["epsilon"]

    synth_path = tmp_path / "synthetic.txt"
    rc = main([
        "generate", "--model", str(model_path), "--count", "80",
        "--gibbs-steps", "20", "--output", str(synth_path), "--seed", "3",
    ])
    assert rc == 0
    gen_out = json.loads(capsys.readouterr().out)
    assert gen_out["count"] == 80
    synth = load_records(synth_path, allow_empty=True)
    assert len(synth) == 80
    assert synth.m == 10

    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    rc = main([
        "evaluate", "--data", data_path, "--synthetic", str(synth_path),
        "--queries", "50", "--max-l1", "8", "--labels", labels_path,
        "--assignments", labels_path, "--output", str(report_path),
        "--csv", str(csv_path),
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report == json.loads(report_path.read_text())
    assert len(report["subset_mean_errors"]) == 5
    assert report["query_count"] == 50
    assert report["acc"] == 1.0  # assignments given as the labels themselves
    csv_lines = csv_path.read_text().splitlines()
    assert csv_lines[0] == "subset,mean_rel_err,n_queries"
    assert len(csv_lines) == 6


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_train_log_is_valid_json_when_a_batch_is_empty(tmp_path, capsys):
    # at batch size 2 about one Poisson batch in eight is empty, and its
    # gradient norms, which have no value, are logged as null; it still
    # votes, so its clip bound is a histogram edge, and it clips nothing
    data_path, model_path, log_path = (tmp_path / n for n in ("records.txt", "m.json", "log"))
    write_records(mixture_corpus(400, 30, 3, np.random.default_rng(7)), data_path)
    c_max, bins = 6.0, 30
    args = _train_args(str(data_path), model_path, batch_size=2, log=log_path, c_max=c_max,
                       bins=bins)
    assert main(args) == 0
    capsys.readouterr()
    steps = [json.loads(line, parse_constant=_refuse_constant)
             for line in log_path.read_text().splitlines()]
    assert len(steps) == 200  # one epoch at q = 2/400
    empty = [step for step in steps if step["batch_size"] == 0]
    assert empty and all(step["grad_norm_mean"] is step["grad_norm_max"] is None
                         for step in empty)
    edges = {j * c_max / bins for j in range(1, bins + 1)}
    assert all(step["clipped_fraction"] == 0 and step["clip_bound"] in edges
               for step in empty)
    assert all(step["grad_norm_max"] >= step["grad_norm_mean"] > 0
               for step in steps if step["batch_size"] > 0)


def test_train_is_deterministic_per_seed(tmp_path, corpus_files, capsys):
    # the config echo embeds the model path, so reuse one path per seed
    _, data_path, _ = corpus_files
    path = tmp_path / "model.json"
    assert main(_train_args(data_path, path, seed=7)) == 0
    first = path.read_bytes()
    assert main(_train_args(data_path, path, seed=7)) == 0
    second = path.read_bytes()
    assert main(_train_args(data_path, path, seed=8)) == 0
    other_seed = path.read_bytes()
    capsys.readouterr()
    assert first == second
    assert first != other_seed


def test_generate_same_seed_reproduces_output(tmp_path, corpus_files, capsys):
    _, data_path, _ = corpus_files
    model_path = tmp_path / "model.json"
    assert main(_train_args(data_path, model_path)) == 0
    outs = []
    for name in ("s1.txt", "s2.txt"):
        path = tmp_path / name
        assert main([
            "generate", "--model", str(model_path), "--count", "30",
            "--gibbs-steps", "10", "--output", str(path), "--seed", "11",
        ]) == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_generate_output_does_not_depend_on_workers(tmp_path, capsys, monkeypatch):
    # three components, the last with zero weight; neither the count nor
    # the component sizes are multiples of the chunk size; generate samples
    # on as many threads as it finds usable CPUs, at most one per chunk
    rng = np.random.default_rng(5)
    m, n_hidden = 12, 4
    models = [
        rbm.RbmModel(
            rng.normal(0, 1, (n_hidden, m)), rng.normal(0, 1, m), rng.normal(0, 1, n_hidden)
        )
        for _ in range(3)
    ]
    mix = MixtureModel(
        models=models, weights=np.array([2.0, 1.0, 0.0]), **privacy_claim(),
    )
    model_path = tmp_path / "model.json"
    save_model(mix, model_path)
    count = 3 * GENERATION_CHUNK_ROWS + 321
    outs = []
    for cpus in ("default", 1, 2, 3, 8):
        if cpus != "default":
            monkeypatch.setattr(mixture, "_usable_cpus", lambda n=cpus: n)
        path = tmp_path / f"synth-{cpus}.txt"
        assert main([
            "generate", "--model", str(model_path), "--count", str(count), "--gibbs-steps", "3",
            "--output", str(path), "--seed", "9",
        ]) == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    assert len(load_records(str(tmp_path / "synth-1.txt"), allow_empty=True)) == count
    assert all(out == outs[0] for out in outs)


def test_generate_refuses_parameters_beyond_float32(tmp_path, capsys):
    # the file holds finite float64 values, but Gibbs sampling runs in
    # float32, where 1e39 is infinite
    model = rbm.RbmModel(np.zeros((2, 4)), np.full(4, 1e39), np.zeros(2))
    mix = MixtureModel(models=[model], weights=np.array([1.0]), **privacy_claim())
    model_path, output = tmp_path / "model.json", tmp_path / "synth.txt"
    save_model(mix, model_path)
    assert main(["generate", "--model", str(model_path), "--count", "5",
                 "--output", str(output)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error: an RBM activation can lie outside float32's range")
    assert len(err.splitlines()) == 1
    assert not output.exists()


@pytest.mark.parametrize("error,line", [
    (MemoryError("Unable to allocate 46.6 TiB for an array"),
     "out of memory: Unable to allocate 46.6 TiB for an array\n"),
    (MemoryError(), "out of memory\n"),
], ids=["numpy", "bare"])
def test_generate_out_of_memory_is_one_line(tmp_path, trained_model, capsys, monkeypatch,
                                            error, line):
    # a stand-in for the allocation: a real one of this size may succeed
    # where the host overcommits memory
    def out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(mixture, "generate", out_of_memory)
    model_path, out = tmp_path / "model.json", tmp_path / "synth.txt"
    model_path.write_text(json.dumps(trained_model))
    assert main(["generate", "--model", str(model_path), "--count", "1000000000000",
                 "--output", str(out)]) == 5
    captured = capsys.readouterr()
    assert captured.err == line
    assert captured.out == "" and not out.exists()


def _checkout_env(env=None):
    """This process's environment, with ``env`` added, that imports dpmix from this checkout."""
    src = str(Path(dpmix.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, **(env or {}), PYTHONPATH=path)


def _python(code, *args, env=None):
    """Run ``code`` in a fresh interpreter that imports dpmix from this checkout.

    ``env`` adds variables to the environment.
    """
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=_checkout_env(env))


def test_cli_import_loads_no_scipy():
    code = "import sys, dpmix.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    run = _python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


# numpy, and the data, clustering, training and evaluation stacks
_NOT_FOR_ACCOUNTANT = ["numpy", "dpmix.data", "dpmix.dpnorm", "dpmix.dpsgd",
                       "dpmix.evaluation", "dpmix.kmeans", "dpmix.mixture", "dpmix.rbm",
                       "dpmix.rff"]


def test_accountant_command_loads_no_training_stack(tmp_path):
    # once printing the schedule, once also writing the report through atomic_write
    for extra in ([], ["--output", str(tmp_path / "report.json")]):
        code = (
            "import sys, dpmix.cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m in sys.argv[1:])\n"
            "print(loaded())\n"
            "assert dpmix.cli.main(" + repr(ACCT_ARGS + ["--epochs", "2", *extra]) + ") == 0\n"
            "print(loaded())\n"
        )
        run = _python(code, *_NOT_FOR_ACCOUNTANT)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert lines[0] == "[]" and lines[-1] == "[]"
        assert lines[1] == "epoch,t_sgd,epsilon,lambda" and len(lines) == 5
    assert json.loads((tmp_path / "report.json").read_text())["schedule"][-1]["epoch"] == 2


def test_commands_run_quietly(tmp_path):
    # each command, in a fresh interpreter with the default warning
    # filters, succeeds without a line on stderr
    data, labels = labelled_mixture_corpus(200, 10, 2, np.random.default_rng(3))
    write_records(data, tmp_path / "records.txt")
    (tmp_path / "labels.txt").write_text("\n".join(str(int(c)) for c in labels) + "\n")
    runs = [
        ACCT_ARGS + ["--epochs", "2"],
        ["cluster", "--data", "records.txt", "--labels", "labels.txt", "--k", "2", "--d", "12",
         "--t-kmeans", "2", "--sigma-k", "10", "--assignments-out", "assign.txt"],
        _train_args("records.txt", "model.json"),
        ["generate", "--model", "model.json", "--count", "50", "--gibbs-steps", "5",
         "--output", "synth.txt"],
        ["evaluate", "--data", "records.txt", "--synthetic", "synth.txt", "--queries", "10",
         "--labels", "labels.txt", "--assignments", "assign.txt"],
    ]
    for argv in runs:
        run = subprocess.run([sys.executable, "-m", "dpmix", *argv], cwd=tmp_path,
                             capture_output=True, text=True, env=_checkout_env())
        assert (run.returncode, run.stderr) == (0, ""), argv[0]
        assert run.stdout


def test_package_names_load_on_first_use():
    code = (
        "import sys, dpmix\n"
        "print(sorted(m for m in sys.modules if m.startswith('dpmix.')))\n"
        "from dpmix import train, generate, TrainConfig, load_records, epsilon_for_delta\n"
        "from dpmix import mixture, config, data, accountant\n"
        "assert train is mixture.train and generate is mixture.generate\n"
        "assert TrainConfig is config.TrainConfig is mixture.TrainConfig\n"
        "assert load_records is data.load_records\n"
        "assert epsilon_for_delta is accountant.epsilon_for_delta\n"
        "try:\n"
        "    dpmix.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    run = _python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "[]", "module 'dpmix' has no attribute 'no_such_name'"
    ]


def test_entry_point_module_loads_no_numpy():
    # numpy reads the BLAS thread variables when it loads, so the entry
    # point must set them before anything imports numpy
    run = _python("import sys, dpmix.__main__; print('numpy' in sys.modules)")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def _env_without_blas_pins(**env):
    """The checkout's environment with no BLAS thread variable but those in ``env``."""
    base = {name: value for name, value in _checkout_env().items()
            if name not in BLAS_THREAD_VARIABLES}
    return {**base, **env}


@pytest.mark.parametrize("env,expected", [
    ({}, ["1", "1", "1"]),
    ({"OMP_NUM_THREADS": "3"}, [None, "3", None]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", None, None]),
], ids=["unset", "omp-set", "openblas-set"])
def test_entry_point_pins_blas_unless_the_user_set_a_variable(env, expected):
    code = (
        "import os, sys\n"
        "from dpmix.__main__ import BLAS_THREAD_VARIABLES, main\n"
        "sys.argv[1:] = ['--version']\n"
        "assert main() == 0\n"
        "print([os.environ.get(name) for name in BLAS_THREAD_VARIABLES])\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_env_without_blas_pins(**env))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == repr(expected)


def test_model_bytes_do_not_depend_on_blas_threads(tmp_path):
    """``python -m dpmix train`` writes the same model file whether or not
    the user pins BLAS to one thread.

    At m = 784 the float32 products of the embedding and the float64
    products of the RBM statistics round differently on one OpenBLAS
    thread than on two, so this fails where the entry point leaves BLAS
    its own thread count.
    On a host with one usable CPU BLAS runs one thread either way, and
    the test passes vacuously.
    """
    data, _ = labelled_mixture_corpus(400, 784, 3, np.random.default_rng(5))
    data_path = tmp_path / "records.txt"
    write_records(data, data_path)
    models = []
    for name, env in (("unset", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
        run_dir = tmp_path / name
        run_dir.mkdir()
        # the config echo holds the --model path, so both runs give the same relative one
        run = subprocess.run(
            [sys.executable, "-m", "dpmix", "train", "--data", str(data_path), "--k", "3",
             "--d", "64", "--n-hidden", "32", "--batch-size", "40", "--epochs", "1",
             "--sigma-c", "4", "--sigma-k", "40", "--sigma-g", "1", "--seed", "5",
             "--model", "model.json"],
            cwd=run_dir, capture_output=True, text=True, env=_env_without_blas_pins(**env),
        )
        assert run.returncode == 0, run.stderr
        models.append((run_dir / "model.json").read_bytes())
    assert models[0] == models[1]


# A meta-path hook that makes every scipy import fail, as if scipy were absent.
_BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
"""
_RUN_CLI = "import sys; from dpmix.cli import main; sys.exit(main(sys.argv[1:]))"


def test_cluster_accuracy_runs_without_scipy(tmp_path, corpus_files):
    blocked = _python(_BLOCK_SCIPY + "import scipy.optimize")
    assert blocked.returncode != 0 and "scipy is blocked" in blocked.stderr
    _, data_path, labels_path = corpus_files
    assign_path = tmp_path / "assign.txt"
    commands = [
        ["cluster", "--data", data_path, "--labels", labels_path, "--k", "3",
         "--d", "16", "--gamma", "0.5", "--t-kmeans", "3", "--sigma-c", "4",
         "--sigma-k", "10", "--seed", "5", "--assignments-out", str(assign_path)],
        ["evaluate", "--data", data_path, "--synthetic", data_path, "--queries", "10",
         "--max-l1", "5", "--labels", labels_path, "--assignments", str(assign_path)],
    ]
    for args in commands:
        plain = _python(_RUN_CLI, *args)
        without = _python(_BLOCK_SCIPY + _RUN_CLI, *args)
        assert plain.returncode == 0, plain.stderr
        assert without.returncode == 0, without.stderr
        assert without.stdout == plain.stdout
        assert 0.0 < json.loads(plain.stdout)["acc"] <= 1.0


_ONE_RECORD_TRAIN = ["train", "--data", "ONE", "--k", "1", "--epochs", "1", "--batch-size", "1",
                     "--sigma-c", "4", "--sigma-g", "1", "--d", "4", "--n-hidden", "2",
                     "--model", "MODEL"]


@pytest.mark.parametrize("argv,env,code,message", [
    (ACCT_ARGS + ["--epochs", "1", "--sigma-k", "1e200"], {}, 4,
     "numerical error: sigma_k = 1e+200 is too large: its square overflows\n"),
    (ACCT_ARGS + ["--epochs", "1", "--sigma-c", "1e200"], {}, 4,
     "numerical error: sigma_c = 1e+200 is too large: its square overflows\n"),
    (ACCT_ARGS + ["--epochs", "1", "--sigma-g", "1e200"], {}, 4,
     "numerical error: sigma_g = 1e+200 is too large: its square overflows\n"),
    (ACCT_ARGS + ["--epochs", "1", "--q", "1e-320"], {}, 4,
     "numerical error: q = 1e-320 is too small: 1/q overflows\n"),
    (ACCT_ARGS + ["--epochs", "1", "--sigma-k", "1e-200"], {}, 4,
     "numerical error: epsilon is not finite for this configuration"),
    (ACCT_ARGS + ["--epochs", "1", "--sigma-g", "1e-200"], {}, 4,
     "numerical error: subsampled-Gaussian series is not finite and positive"),
    (ACCT_ARGS + ["--epochs", "1", "--sigma-c", "1e-200"], {}, 4,
     "numerical error: subsampled-Gaussian series is not finite and positive"),
    (["accountant", "--config", "CONFIG"], {}, 2, "usage error: config file is not valid JSON: "),
    (_ONE_RECORD_TRAIN + ["--sigma-k", "40"], {}, 2,
     "usage error: delta must be in (0, 1), got 1.0"),
    (_ONE_RECORD_TRAIN + ["--sigma-k", "1e200", "--delta", "0.5"], {}, 4,
     "numerical error: sigma_k = 1e+200 is too large: its square overflows\n"),
    (_ONE_RECORD_TRAIN + ["--sigma-k", "1e-200", "--delta", "0.5"], {}, 4,
     "numerical error: epsilon is not finite for this configuration"),
    (["cluster", "--data", "MISSING", "--k", "3", "--sigma-k", "1e200"], {}, 4,
     "numerical error: sigma_k = 1e+200 is too large: its square overflows\n"),
    (ACCT_ARGS + ["--epochs", "1", "--q", "2"], {"DPMIX_LOG": "foo"}, 2,
     "usage error: q must be in [0, 1], got 2.0"),
], ids=["accountant-sigma-k-huge", "accountant-sigma-c-huge", "accountant-sigma-g-huge",
        "accountant-q-subnormal", "accountant-sigma-k-tiny",
        "accountant-sigma-g-tiny", "accountant-sigma-c-tiny", "config-not-utf8",
        "train-one-record-default-delta", "train-sigma-k-huge", "train-sigma-k-tiny",
        "cluster-sigma-k-huge", "unread-DPMIX_LOG"])
def test_every_failure_is_one_line_with_its_exit_code(tmp_path, argv, env, code, message):
    # numpy warnings on stderr would add lines; a traceback would exit 1
    files = {"CONFIG": tmp_path / "cfg.json", "ONE": tmp_path / "one.txt",
             "MODEL": tmp_path / "model.json", "MISSING": tmp_path / "missing.txt"}
    files["CONFIG"].write_bytes(b'{"q": 0.01, "epochs": 1\xff}')
    files["ONE"].write_text("m=3\n0 1\n")
    run = _python(_RUN_CLI, *(str(files.get(arg, arg)) for arg in argv), env=env)
    assert run.returncode == code and "Traceback" not in run.stderr, run.stderr
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith(message), run.stderr
    assert run.stdout == "" and not files["MODEL"].exists()


def test_generate_validation_and_malformed_model(tmp_path, capsys):
    bad_model = tmp_path / "bad.json"
    bad_model.write_text("{not json")
    ok = ["--count", "5", "--output", str(tmp_path / "x.txt")]
    assert main(["generate", "--model", str(bad_model)] + ok) == 3
    assert main(["generate", "--model", "/nonexistent.json"] + ok) == 3
    bad_model.write_text("[]")
    capsys.readouterr()
    assert main(["generate", "--model", str(bad_model)] + ok) == 3
    assert capsys.readouterr().err == (
        "data error: malformed model: the file does not hold a JSON object\n"
    )
    assert main([
        "generate", "--model", str(bad_model), "--count", "0",
        "--output", str(tmp_path / "x.txt"),
    ]) == 2


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("model")
    data = mixture_corpus(120, 10, 2, np.random.default_rng(42))
    data_path = tmp / "records.txt"
    write_records(data, data_path)
    model_path = tmp / "model.json"
    assert main(_train_args(str(data_path), model_path)) == 0
    return json.loads(model_path.read_text())


def _array_slots(payload):
    """(holder, key) of every float array in a model payload."""
    yield payload, "weights"
    for entry in payload["models"]:
        for key in ("weights", "visible_bias", "hidden_bias"):
            if key in entry:
                yield entry, key


def _as_lists(payload):
    """A copy of a model payload with every array as a list, for a corruption to edit."""
    copy = json.loads(json.dumps(payload))
    for holder, key in _array_slots(copy):
        value = holder[key]
        raw = base64.b64decode(value["base64"])
        holder[key] = np.frombuffer(raw, "<f8").reshape(value["shape"]).tolist()
    return copy


def _encode_lists(payload):
    """Re-encode the lists of an edited payload as base64 arrays, in place."""
    for holder, key in _array_slots(payload):
        array = np.array(holder[key], dtype="<f8")
        holder[key] = {"dtype": "<f8", "shape": list(array.shape),
                       "base64": base64.b64encode(array.tobytes()).decode("ascii")}


# Corruptions of a payload whose arrays are lists (see _as_lists).

def _truncate_hidden_bias(payload):
    payload["models"][0]["hidden_bias"].pop()


def _short_weights(payload):
    payload["weights"].pop()


def _long_weights(payload):
    payload["weights"].append(1.0)


def _wrong_m(payload):
    payload["m"] += 1


def _missing_rbm(payload):
    payload["models"].pop()


def _null_privacy(payload):
    payload["privacy"] = None


def _nan_rbm_weight(payload):
    payload["models"][0]["weights"][0][0] = math.nan


def _infinite_weight(payload):
    payload["weights"][0] = math.inf


def _negative_weight(payload):
    payload["weights"][0] = -1.0


def _float_k(payload):
    payload["k"] = float(payload["k"])


# These return a part of the one-line message they must produce.

def _string_epsilon(payload):
    payload["privacy"]["epsilon"] = "x"
    return "privacy.epsilon is 'x', expected a finite number >= 0"


def _infinite_epsilon(payload):
    payload["privacy"]["epsilon"] = math.inf
    return "privacy.epsilon is inf, expected a finite number >= 0"


def _lowered_epsilon(payload):
    claimed = payload["privacy"]["epsilon"]
    payload["privacy"]["epsilon"] = claimed * (1 - 1e-8)
    return f"privacy.epsilon is {claimed * (1 - 1e-8)!r}, expected at least {claimed!r}"


def _lambda_above_max(payload):
    top = payload["privacy"]["lambda_max"]
    payload["privacy"]["argmin_lambda"] = top + 1
    return f"privacy.argmin_lambda is {top + 1}, expected an integer in [1, {top}]"


def _float_lambda(payload):
    payload["privacy"]["argmin_lambda"] = 2.0
    return "privacy.argmin_lambda is 2.0, expected an integer in [1, "


def _missing_m(payload):
    del payload["m"]
    return "data error: malformed model: missing key 'm'\n"


def _missing_hidden_bias(payload):
    del payload["models"][0]["hidden_bias"]
    return "data error: malformed model: missing key 'hidden_bias'\n"


def _privacy_field(name, value, expected):
    """A corruption that stores ``value`` as the privacy block's ``name``."""

    def corrupt(payload):
        payload["privacy"][name] = value
        return f"privacy.{name} is {value!r}, expected {expected}"

    corrupt.__name__ = f"_privacy_{name}"
    return corrupt


# One per PrivacyConfig field: each must have its JSON type.
PRIVACY_TYPE_CORRUPTIONS = [
    _privacy_field("sigma_c", "4", "a finite number"),
    _privacy_field("sigma_k", True, "a finite number"),
    _privacy_field("sigma_g", None, "a finite number"),
    _privacy_field("q", math.nan, "a finite number"),
    _privacy_field("delta", math.inf, "a finite number"),
    _privacy_field("t_kmeans", 20.0, "an integer"),
    _privacy_field("t_sgd", 2.5, "an integer"),
    _privacy_field("lambda_max", True, "an integer"),
]


SHAPE_CORRUPTIONS = [
    _truncate_hidden_bias, _short_weights, _long_weights, _wrong_m, _missing_rbm, _null_privacy,
]
VALUE_CORRUPTIONS = [
    _nan_rbm_weight, _infinite_weight, _negative_weight, _float_k, _string_epsilon,
    _infinite_epsilon, _lowered_epsilon, _lambda_above_max, _float_lambda, _missing_m,
    _missing_hidden_bias, *PRIVACY_TYPE_CORRUPTIONS,
]


# Corruptions of the base64 encoding itself.

def _bad_base64(payload):
    payload["weights"]["base64"] = "!" + payload["weights"]["base64"][1:]


def _wrong_byte_count(payload):
    payload["models"][0]["hidden_bias"]["shape"][0] -= 1


def _float32_dtype(payload):
    payload["weights"]["dtype"] = "<f4"


def _float_shape(payload):
    payload["weights"]["shape"] = [float(n) for n in payload["weights"]["shape"]]


def _scalar_weights(payload):
    payload["weights"] = 1.0


def _scalar_rbm_weights(payload):
    payload["models"][0]["weights"] = {"dtype": "<f8", "shape": [],
                                       "base64": base64.b64encode(b"\0" * 8).decode("ascii")}
    return "models[0].weights has shape (), expected 2 axes"


def _int_rbm_entry(payload):
    payload["models"][0] = 5
    return "models[0] is not a JSON object"


def _models_not_a_list(payload):
    payload["models"] = {"0": payload["models"][0]}
    return "models is not a list"


ENCODING_CORRUPTIONS = [
    _bad_base64, _wrong_byte_count, _float32_dtype, _float_shape, _scalar_weights,
    _scalar_rbm_weights, _int_rbm_entry, _models_not_a_list,
]


# A version-1 file stored each array as a list.  It is refused by its
# version, before any other field is read, whatever else it holds.
VERSION_1_LINE = ("data error: model format version 1 is no longer read: its file names the "
                  "seed of its noise; train again to write version 3\n")


def _assert_generate_rejects(tmp_path, capsys, payload, message=None,
                             prefix="data error: malformed model"):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(payload))
    out = tmp_path / "synth.txt"
    rc = main(["generate", "--model", str(model_path), "--count", "5", "--output", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert len(err.strip().splitlines()) == 1
    assert message is None or message in err
    assert not out.exists()


def test_generate_refuses_a_version_1_model(tmp_path, trained_model, capsys):
    payload = {**_as_lists(trained_model), "version": 1}
    _assert_generate_rejects(tmp_path, capsys, payload, prefix=VERSION_1_LINE)


def test_generate_refuses_a_version_2_model(tmp_path, trained_model, capsys):
    # Version 2 also held the feature map's seed, the centers and a config
    # echo that named the master seed.  That seed makes the noise public, so
    # generate no longer vouches for the file's epsilon, whatever it states.
    payload = json.loads(json.dumps(trained_model))
    payload.update(version=2, d=4, gamma=0.5, feature_map_seed=12345,
                   centers=payload["weights"], config_echo={"seed": 7})
    _assert_generate_rejects(tmp_path, capsys, payload,
                             prefix=VERSION_1_LINE.replace("version 1", "version 2"))


@pytest.mark.parametrize("corrupt", SHAPE_CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_generate_rejects_model_with_wrong_shapes(tmp_path, trained_model, capsys, corrupt):
    # in the version-1 layout: the version line is the only error
    payload = {**_as_lists(trained_model), "version": 1}
    corrupt(payload)
    _assert_generate_rejects(tmp_path, capsys, payload, prefix=VERSION_1_LINE)


# v1 is a version-1 file, its arrays lists, which the version line refuses
# whatever else is wrong.  v2 is the base64 layout that version 2 brought
# and version 3 keeps, so its cases are corruptions of a current file.
@pytest.mark.parametrize("layout,corrupt", [
    *((1, f) for f in VALUE_CORRUPTIONS),
    *((2, f) for f in SHAPE_CORRUPTIONS + VALUE_CORRUPTIONS + ENCODING_CORRUPTIONS),
], ids=lambda v: v.__name__.strip("_") if callable(v) else f"v{v}")
def test_generate_rejects_malformed_model(tmp_path, trained_model, capsys, layout, corrupt):
    if corrupt in ENCODING_CORRUPTIONS:
        payload = json.loads(json.dumps(trained_model))
        message = corrupt(payload)
    else:
        payload = _as_lists(trained_model)
        message = corrupt(payload)
        if layout == 2:
            _encode_lists(payload)
    if layout == 1:
        payload["version"] = 1
        _assert_generate_rejects(tmp_path, capsys, payload, prefix=VERSION_1_LINE)
    else:
        _assert_generate_rejects(tmp_path, capsys, payload, message)


@pytest.mark.parametrize("sigma_k,message", [
    (1e-200, "epsilon is not finite for this configuration"),
    (1e200, "sigma_k = 1e+200 is too large: its square overflows"),
], ids=["sigma-k-tiny", "sigma-k-huge"])
def test_model_whose_privacy_block_gives_no_finite_epsilon(tmp_path, trained_model, capsys,
                                                           sigma_k, message):
    # load_model's re-check refuses it as the accountant command does
    payload = json.loads(json.dumps(trained_model))
    payload["privacy"]["sigma_k"] = sigma_k
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(payload))
    out = tmp_path / "synth.txt"
    assert main(["generate", "--model", str(model_path), "--count", "5", "--output", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and message in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_evaluate_missing_synthetic(tmp_path, corpus_files, capsys):
    _, data_path, _ = corpus_files
    assert main([
        "evaluate", "--data", data_path, "--synthetic", "/nonexistent.txt",
    ]) == 3


def test_evaluate_bad_query_count(tmp_path, corpus_files, capsys):
    _, data_path, _ = corpus_files
    assert main([
        "evaluate", "--data", data_path, "--synthetic", data_path,
        "--queries", "7",
    ]) == 2


def test_evaluate_short_records_need_explicit_max_l1(tmp_path, capsys):
    # every record has fewer than five items: the derived cap is unusable
    # and the run must fail as a data error without leaving artifacts
    data_path = tmp_path / "short.txt"
    data_path.write_text("m=10\n0 1\n2\n3 4\n")
    report_path = tmp_path / "report.json"
    rc = main([
        "evaluate", "--data", str(data_path), "--synthetic", str(data_path),
        "--queries", "10", "--output", str(report_path),
    ])
    assert rc == 3
    assert not report_path.exists()
    # an explicit cap fixes it
    rc = main([
        "evaluate", "--data", str(data_path), "--synthetic", str(data_path),
        "--queries", "10", "--max-l1", "6", "--output", str(report_path),
    ])
    assert rc == 0
    capsys.readouterr()
    assert report_path.exists()


def test_evaluate_derived_max_l1_error_names_the_data_not_the_flag(tmp_path, capsys):
    # no --max-l1 was passed, so the message gives the longest record's
    # length and says which flag fixes it
    data_path = tmp_path / "short.txt"
    data_path.write_text("m=6\n0 1\n2\n3 4\n5\n0\n1 2\n")
    rc = main(["evaluate", "--data", str(data_path), "--synthetic", str(data_path),
               "--queries", "10"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"data error: the longest record of {data_path} holds 2 items; "
                            "pass --max-l1 >= 5\n")


def test_failed_run_discards_partial_outputs(tmp_path, corpus_files, capsys):
    # force a failure after the summary file is written: the assignments
    # path points into a missing directory, so write_text raises and the
    # summary must be cleaned up
    _, data_path, _ = corpus_files
    summary_path = tmp_path / "summary.json"
    args = [
        "cluster", "--data", data_path, "--k", "2", "--d", "8",
        "--sigma-c", "4", "--sigma-k", "10", "--t-kmeans", "1",
        "--output", str(summary_path),
        "--assignments-out", str(tmp_path / "missing" / "assign.txt"),
    ]
    assert main(args) == 3
    capsys.readouterr()
    assert not summary_path.exists()


_FILE_SIZE_LIMITED_MAIN = """
import resource, sys
from dpmix.cli import main
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), resource.RLIM_INFINITY))
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("command", ["generate", "accountant"])
def test_write_that_fails_partway_leaves_no_file(tmp_path, trained_model, command):
    # the file size limit stops each write after its first bytes
    pytest.importorskip("resource")
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(trained_model))
    out = tmp_path / "out.txt"
    if command == "generate":
        args = ["generate", "--model", str(model_path), "--count", "3000", "--output", str(out)]
    else:
        args = ACCT_ARGS + ["--epochs", "3", "--output", str(out)]
    run = _python(_FILE_SIZE_LIMITED_MAIN, "300", *args)
    assert run.returncode == 3, run.stderr
    assert run.stderr.startswith(f"data error: [Errno {errno.EFBIG}]")
    assert len(run.stderr.splitlines()) == 1
    assert sorted(tmp_path.iterdir()) == [model_path]
    # an earlier file at the path is kept whole
    out.write_text("earlier\n")
    assert _python(_FILE_SIZE_LIMITED_MAIN, "300", *args).returncode == 3
    assert sorted(tmp_path.iterdir()) == [model_path, out]
    assert out.read_text() == "earlier\n"


def test_train_rejects_zero_sigma(tmp_path, capsys):
    # every model carries a finite epsilon, so each noise scale must be
    # positive; the check runs before the (missing) dataset is read
    missing = str(tmp_path / "missing.txt")
    for name in ("sigma_c", "sigma_k", "sigma_g"):
        assert main(_train_args(missing, tmp_path / "model.json", **{name: 0})) == 2
        assert capsys.readouterr().err == (
            f"usage error: {name} must be finite and > 0, got 0.0; zero noise has no finite"
            " epsilon\n"
        )
    # the centers file is input too: it is read only after the options are checked
    centers = tmp_path / "centers.csv"
    args = _train_args(missing, tmp_path / "model.json", sigma_g=0, init_centers=centers)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("usage error: sigma_g must be finite and > 0")
    assert list(tmp_path.iterdir()) == []


def test_zero_noise_gets_one_line_from_every_command(tmp_path, capsys):
    # one rule, in the accountant, so the three commands that read a noise
    # scale refuse the same value with the same line
    missing = str(tmp_path / "missing.txt")
    runs = [
        ACCT_ARGS + ["--epochs", "1", "--sigma-k", "0"],
        ["cluster", "--data", missing, "--k", "2", "--sigma-k", "0"],
        _train_args(missing, tmp_path / "model.json", sigma_k=0),
    ]
    errors = []
    for args in runs:
        assert main(args) == 2
        errors.append(capsys.readouterr().err)
    assert errors == [
        "usage error: sigma_k must be finite and > 0, got 0.0; zero noise has no finite epsilon\n"
    ] * 3


@pytest.mark.parametrize("command", ["accountant", "cluster", "train"])
def test_t_kmeans_zero_is_refused_before_any_input_is_read(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.txt")
    args = {
        "accountant": ACCT_ARGS + ["--epochs", "1"],
        "cluster": ["cluster", "--data", missing, "--k", "2", "--sigma-k", "10"],
        "train": _train_args(missing, tmp_path / "model.json"),
    }[command]
    assert main(args + ["--t-kmeans", "0"]) == 2
    assert capsys.readouterr().err == "usage error: --t-kmeans must be >= 1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,flag,value,message", [
    ("evaluate", "--queries", "7", "--queries must be a multiple of 5, got 7"),
    ("evaluate", "--queries", "0", "--queries must be >= 5"),
    ("evaluate", "--max-l1", "2", "--max-l1 must be >= 5"),
    ("cluster", "--k", "0", "--k must be >= 1"),
    ("cluster", "--d", "0", "--d must be >= 1"),
    ("cluster", "--gamma", "0", "--gamma must be > 0, got 0.0"),
], ids=["queries", "queries-zero", "max-l1", "k", "d", "gamma"])
def test_bad_option_is_refused_before_any_input_is_read(tmp_path, capsys, command, flag,
                                                        value, message):
    missing = str(tmp_path / "missing.txt")
    args = {
        "evaluate": ["evaluate", "--data", missing, "--synthetic", missing],
        "cluster": ["cluster", "--data", missing, "--k", "2", "--sigma-k", "10"],
    }[command]
    assert main(args + [flag, value]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_generate_refuses_a_model_without_a_privacy_claim(tmp_path, trained_model, capsys):
    # earlier versions stored zero-noise runs with this block in place of a
    # claim; it lacks PrivacyConfig's fields, so it is a malformed model
    payload = json.loads(json.dumps(trained_model))
    payload["privacy"] = {"epsilon": None, "unsafe_no_privacy": True}
    _assert_generate_rejects(tmp_path, capsys, payload, "missing key 'sigma_c'")
