"""Command-line interface: precedence, exit codes, artifacts, determinism."""
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
from conftest import mixture_corpus
from dpmix import accountant, rbm
from dpmix.cli import build_parser, main, resolve_options
from dpmix.data import load_records, write_records
from dpmix.mixture import GENERATION_CHUNK_ROWS, MixtureModel, TrainConfig, save_model
from dpmix.rff import feature_map_from_seed

ACCT_ARGS = [
    "accountant", "--q", "0.01", "--sigma-c", "4", "--sigma-k", "40",
    "--sigma-g", "2", "--delta", "1e-5",
]


@pytest.fixture
def corpus_files(tmp_path):
    data = mixture_corpus(120, 10, 2, np.random.default_rng(42))
    data_path = tmp_path / "records.txt"
    labels_path = tmp_path / "labels.txt"
    write_records(data, data_path)
    labels_path.write_text("\n".join(str(int(c)) for c in data.labels) + "\n")
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


@pytest.mark.parametrize("flag,minimum", [("--seed", 0), ("--workers", 1)])
def test_negative_seed_or_workers_is_usage_error(capsys, flag, minimum):
    assert main(ACCT_ARGS + ["--epochs", "1", flag, "-1"]) == 2
    assert capsys.readouterr().err == f"usage error: {flag} must be >= {minimum}\n"


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
        "--sigma-g", "2", "--data-size", "50000", "--epochs", "2",
        "--output", str(out),
    ]
    assert main(args) == 0
    report = json.loads(out.read_text())
    assert report["config_echo"]["delta"] == pytest.approx(1 / 50000)
    assert len(report["schedule"]) == 2
    assert report["epsilon"] == report["schedule"][-1]["epsilon"]
    profile = report["alpha_profile"]
    assert len(profile["lambda"]) == len(profile["alpha"]) == 32


def test_accountant_rejects_zero_sigma_even_unsafe(capsys):
    args = [
        "accountant", "--q", "0.01", "--sigma-c", "0", "--sigma-k", "40",
        "--sigma-g", "2", "--delta", "1e-5", "--epochs", "1",
        "--unsafe-no-privacy",
    ]
    assert main(args) == 2
    assert "no finite epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (ACCT_ARGS + ["--q", "2"], "q must be in [0, 1]"),
    (ACCT_ARGS + ["--lambda-max", "0"], "lambda_max must be >= 1"),
    (ACCT_ARGS[:-2] + ["--data-size", "0"], "--data-size must be >= 1"),  # no --delta
], ids=["q", "lambda_max", "data_size"])
def test_accountant_rejects_out_of_range_values(capsys, args, message):
    assert main(args + ["--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["accountant", "train"])
def test_quadrature_failure_exits_4_without_artifact(tmp_path, capsys, monkeypatch, corpus_files,
                                                    command):
    # With the interval cap at the start value the quadrature can never
    # compare two estimates, so it raises NumericsError.
    monkeypatch.setattr(accountant, "_QUAD_MAX_INTERVALS", accountant._QUAD_START_INTERVALS)
    accountant._alpha_subsampled_cached.cache_clear()
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
    assert stored["clip_bound"] == 1.0
    assert len(stored["size_history"]) == 3
    assert 0.0 <= stored["acc"] <= 1.0
    ids = [int(line) for line in assign_path.read_text().splitlines()]
    assert len(ids) == 120
    assert set(ids) <= {0, 1}


def test_cluster_rejects_zero_sigma_without_unsafe_flag(corpus_files, capsys):
    _, data_path, _ = corpus_files
    base = ["cluster", "--data", data_path, "--k", "2", "--sigma-c", "4",
            "--d", "8", "--t-kmeans", "1"]
    assert main(base + ["--sigma-k", "0"]) == 2
    assert "unsafe-no-privacy" in capsys.readouterr().err
    assert main(base + ["--sigma-k", "0", "--unsafe-no-privacy"]) == 0
    capsys.readouterr()
    assert main(base + ["--sigma-k", "-1"]) == 2


@pytest.mark.parametrize("flag,value", [("--d", "0"), ("--gamma", "0")])
def test_cluster_rejects_bad_feature_map(corpus_files, capsys, flag, value):
    _, data_path, _ = corpus_files
    args = ["cluster", "--data", data_path, "--k", "2", "--sigma-c", "4",
            "--sigma-k", "10", "--d", "8", flag, value]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flag,value", [("--bins", "0"), ("--c-max", "0")])
def test_cluster_rejects_bad_clip_vote_in_rbf_mode(corpus_files, capsys, flag, value):
    # rbf_mode never runs the clip vote, but the values are still checked
    _, data_path, _ = corpus_files
    args = ["cluster", "--data", data_path, "--k", "2", "--sigma-c", "4",
            "--sigma-k", "10", "--d", "8", "--t-kmeans", "1", flag, value]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flag[2:].replace("-", "_") in err
    assert len(err.strip().splitlines()) == 1


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
    {"rbf_mode": "no"},
    {"format": "xml"},
    {"seed": None},
], ids=["k-string", "d-float", "rbf_mode-string", "format-choice", "seed-null"])
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


def test_train_options_are_the_train_config_fields(tmp_path, corpus_files, capsys):
    required = [f for f in fields(TrainConfig) if f.default is MISSING]
    argv = ["train", "--data", "d.txt", "--model", "m.json"]
    for f in required:
        argv += [f"--{f.name.replace('_', '-')}", "1"]
    resolved = resolve_options(build_parser().parse_args(argv))
    for f in fields(TrainConfig):
        if f.name == "init_centers":
            continue
        assert f.name in resolved
        if f.default is not MISSING:
            assert resolved[f.name] == f.default and type(resolved[f.name]) is type(f.default)

    _, data_path, _ = corpus_files
    model_path = tmp_path / "model.json"
    assert main(_train_args(data_path, model_path)) == 0
    capsys.readouterr()
    echo = json.loads(model_path.read_text())["config_echo"]
    assert list(echo) == [
        "seed", "workers", "data", "format", "threshold", "k", "epochs", "batch_size",
        "sigma_c", "sigma_k", "sigma_g", "t_kmeans", "d", "gamma", "n_hidden", "eta",
        "pcd_sweeps", "chain_count", "c_max", "bins", "delta", "rbf_mode",
        "strict_gaussian", "lambda_max", "init_centers", "model", "log", "command",
        "unsafe_no_privacy",
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
    assert stored["config_echo"]["delta"] == pytest.approx(1 / 120)
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


def test_generate_output_does_not_depend_on_workers(tmp_path, capsys):
    # three components, the last with zero weight; neither the count nor
    # the component sizes are multiples of the chunk size
    rng = np.random.default_rng(5)
    m, n_hidden = 12, 4
    models = [
        rbm.RbmModel(
            rng.normal(0, 1, (n_hidden, m)), rng.normal(0, 1, m), rng.normal(0, 1, n_hidden)
        )
        for _ in range(3)
    ]
    mix = MixtureModel(
        m=m, k=3, models=models, weights=np.array([2.0, 1.0, 0.0]),
        feature_map=feature_map_from_seed(m, 4, 1.0, seed=1), centers=np.zeros((3, 4)),
        privacy=None, epsilon=math.inf, argmin_lambda=None,
    )
    model_path = tmp_path / "model.json"
    save_model(mix, model_path)
    count = 3 * GENERATION_CHUNK_ROWS + 321
    outs = []
    for workers in (1, 2, 3):
        path = tmp_path / f"synth-{workers}.txt"
        assert main([
            "generate", "--model", str(model_path), "--count", str(count), "--gibbs-steps", "3",
            "--output", str(path), "--seed", "9", "--workers", str(workers),
        ]) == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    assert len(load_records(str(tmp_path / "synth-1.txt"), allow_empty=True)) == count
    assert outs[0] == outs[1] == outs[2]


def test_cli_import_loads_no_scipy():
    src = str(Path(dpmix.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, dpmix.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_generate_validation_and_malformed_model(tmp_path, capsys):
    bad_model = tmp_path / "bad.json"
    bad_model.write_text("{not json")
    ok = ["--count", "5", "--output", str(tmp_path / "x.txt")]
    assert main(["generate", "--model", str(bad_model)] + ok) == 3
    assert main(["generate", "--model", "/nonexistent.json"] + ok) == 3
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


def _narrow_centers(payload):
    for row in payload["centers"]:
        row.pop()


@pytest.mark.parametrize("corrupt", [
    _truncate_hidden_bias, _short_weights, _long_weights, _wrong_m, _missing_rbm,
    _narrow_centers,
], ids=lambda f: f.__name__.strip("_"))
def test_generate_rejects_model_with_wrong_shapes(tmp_path, trained_model, capsys, corrupt):
    payload = json.loads(json.dumps(trained_model))
    corrupt(payload)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(payload))
    out = tmp_path / "synth.txt"
    rc = main(["generate", "--model", str(model_path), "--count", "5", "--output", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: malformed model")
    assert len(err.strip().splitlines()) == 1
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
    # and the run must fail as a usage error without leaving artifacts
    data_path = tmp_path / "short.txt"
    data_path.write_text("m=10\n0 1\n2\n3 4\n")
    report_path = tmp_path / "report.json"
    rc = main([
        "evaluate", "--data", str(data_path), "--synthetic", str(data_path),
        "--queries", "10", "--output", str(report_path),
    ])
    assert rc == 2
    assert not report_path.exists()
    # an explicit cap fixes it
    rc = main([
        "evaluate", "--data", str(data_path), "--synthetic", str(data_path),
        "--queries", "10", "--max-l1", "6", "--output", str(report_path),
    ])
    assert rc == 0
    capsys.readouterr()
    assert report_path.exists()


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


def test_unsafe_train_reports_null_epsilon(tmp_path, corpus_files, capsys):
    _, data_path, _ = corpus_files
    model_path = tmp_path / "model.json"
    args = _train_args(data_path, model_path, sigma_g=0)
    assert main(args) == 2  # refused without the flag
    capsys.readouterr()
    assert main(args + ["--unsafe-no-privacy"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["epsilon"] is None
    stored = json.loads(model_path.read_text())
    assert stored["privacy"]["unsafe_no_privacy"] is True
