"""dpmix benchmark: drive the dpmix CLI the way a user does and time it.

    python3 bench/run.py --workload synth-small --seed 2024 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  The benchmark writes its inputs and
outputs under ``.bench_work/<workload>/`` and prints a per-command table
followed, on the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Closed loop, one client: each CLI command starts in a fresh interpreter
only after the previous one has ended, so the accountant's cache and
the peak RSS start empty as they do for a CLI user.  BLAS and OpenMP
threads are pinned in the child environment.  A *pass* is the
workload's command sequence; passes repeat while another one fits in
``--seconds``, and timings are medians over passes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs one untraced and one traced pass (``tracer.py``
wraps every public dpmix function) and reports the per-layer metrics.
Output checks never abort a run: a command that exits non-zero or
fails its check counts in ``failed``.  See README.md for the workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata

import numpy as np

import corpus

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = 1
SETUP_REPS = 3
DEADLINE_S = 170.0  # a run must end within 180 s

# Acceptance criterion 9 stores this epsilon (delta = 1/20000, 2000 steps).
SYNTH_SMALL_EPSILON = 1.980524
# Acceptance criterion 2: q = 0.0017, sigma_g = 1, 20 epochs.
CRITERION2_CONFIG = ("0.0017", "1")
CRITERION2_BAND = (1.49, 1.99)
PLAN_LATTICE = [(q, sg) for q in ("0.001", "0.0017", "0.003") for sg in ("1", "2", "4")]

# Spans each workload must fire; a traced pass that leaves one at zero
# calls fails the trace check.
_TRAIN_SPANS = [
    "cli.main", "data.load_records", "mixture.train", "accountant.epsilon_for_delta",
    "accountant.alpha_subsampled_gaussian", "rff.embed", "kmeans.dp_kernel_kmeans",
    "kmeans.assign_to_centers", "dpsgd.dp_sgd_step", "dpnorm.dp_norm",
    "rbm.pcd_per_example_gradients", "rbm.positive_statistics", "rbm.advance_chains",
    "mixture.save_model", "mixture.load_model", "mixture.generate", "rbm.sample_batch",
    "data.write_records",
]
EXPECTED_SPANS = {
    "synth-small": _TRAIN_SPANS + ["evaluation.evaluate_workload", "evaluation.counting_query"],
    "train-wide": _TRAIN_SPANS,
    "cluster-wide": [
        "cli.main", "data.load_records", "data.load_labels", "rff.embed",
        "kmeans.dp_kernel_kmeans", "kmeans.assign_to_centers",
        "evaluation.clustering_accuracy",
    ],
    "plan": ["cli.main", "accountant.epsilon_schedule", "accountant.alpha_subsampled_gaussian"],
}

# Per-layer time of each CLI command, reported from the untraced pass.
COMMAND_METRICS = {"train": "train_s", "generate": "generate_s", "evaluate": "evaluate_s",
                   "cluster": "cluster_s", "accountant": "plan_s"}


@dataclass
class Command:
    name: str
    argv: list
    check: object  # (Result) -> list of problems; may fill Result.facts


@dataclass
class Result:
    command: Command
    workdir: str
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    spans: dict | None = None
    facts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


# --------------------------------------------------------------- checks

def _stdout_json(res):
    return json.loads(res.stdout)


def _load_model(res):
    with open(os.path.join(res.workdir, "model.json"), encoding="utf-8") as fh:
        privacy = json.load(fh)["privacy"]
    res.facts["t_sgd"] = privacy["t_sgd"]
    return privacy


def check_epsilon_pinned(res):
    eps = _load_model(res)["epsilon"]
    if round(eps, 6) != SYNTH_SMALL_EPSILON:
        return [f"stored epsilon {eps!r}, expected {SYNTH_SMALL_EPSILON}"]
    return []


def check_epsilon_recomputed(res):
    """The stored epsilon must be what the accountant gives for the stored block."""
    from dpmix.accountant import PrivacyConfig, epsilon_for_delta

    privacy = _load_model(res)
    fields = {k: privacy[k] for k in PrivacyConfig.__dataclass_fields__}
    eps, lam = epsilon_for_delta(PrivacyConfig(**fields))
    if (eps, lam) != (privacy["epsilon"], privacy["argmin_lambda"]):
        return [f"stored (epsilon, lambda) {privacy['epsilon']!r}, {privacy['argmin_lambda']}"
                f" but the accountant gives {eps!r}, {lam}"]
    return []


def check_count(expected):
    def check(res):
        got = _stdout_json(res)["count"]
        return [] if got == expected else [f"generated {got} records, expected {expected}"]
    return check


def check_beats_baseline(res):
    report = _stdout_json(res)
    synth, base = report["subset_mean_errors"], report["baseline_mean_errors"]
    res.facts["query_rel_err"] = sum(synth) / len(synth)
    wins = sum(s < b for s, b in zip(synth, base))
    return [] if wins >= 4 else [f"beats the marginals baseline on {wins} of 5 subsets"]


def check_cluster(k):
    def check(res):
        summary = _stdout_json(res)
        problems = []
        if not 0.0 <= summary.get("acc", -1.0) <= 1.0:
            problems.append(f"no accuracy in [0, 1]: {summary.get('acc')!r}")
        if len(summary["noisy_sizes"]) != k:
            problems.append(f"{len(summary['noisy_sizes'])} cluster sizes, expected {k}")
        return problems
    return check


def check_schedule(q, sigma_g):
    def check(res):
        lines = res.stdout.strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        eps = [float(r[2]) for r in rows]
        problems = []
        epochs = [int(r[0]) for r in rows]
        if lines[0] != "epoch,t_sgd,epsilon,lambda" or epochs != list(range(1, 21)):
            problems.append("schedule is not one row per epoch 1..20")
        if any(a > b for a, b in zip(eps, eps[1:])):
            problems.append("epsilon decreases with epochs")
        lo, hi = CRITERION2_BAND
        if (q, sigma_g) == CRITERION2_CONFIG and not lo <= eps[-1] <= hi:
            problems.append(f"criterion-2 epsilon {eps[-1]!r} outside [{lo}, {hi}]")
        return problems
    return check


# ------------------------------------------------------------ workloads

def _train_argv(spec, **extra):
    argv = ["train", "--data", "records.txt", "--k", spec["k"], "--d", spec["d"],
            "--gamma", spec["gamma"], "--sigma-c", "4", "--sigma-k", "40", "--sigma-g", "1",
            "--t-kmeans", "20", "--init-centers", "centers.csv", "--seed", corpus.MASTER_SEED,
            "--model", "model.json"]
    for key, value in extra.items():
        argv += ["--" + key.replace("_", "-"), value]
    return [str(a) for a in argv]


def _generate(count, sweeps):
    argv = ["generate", "--model", "model.json", "--count", count, "--gibbs-steps", sweeps,
            "--output", "synth.txt", "--seed", corpus.MASTER_SEED]
    return Command("generate", [str(a) for a in argv], check_count(count))


def commands_for(workload, seed):
    if workload == "plan":
        order = np.random.default_rng(seed).permutation(len(PLAN_LATTICE))
        out = []
        for i in order:
            q, sg = PLAN_LATTICE[i]
            argv = ["accountant", "--q", q, "--sigma-c", "4", "--sigma-k", "40", "--sigma-g", sg,
                    "--t-kmeans", "20", "--epochs", "20", "--delta", "1e-5"]
            out.append(Command("accountant", argv, check_schedule(q, sg)))
        return out
    spec = corpus.SPECS[workload]
    if workload == "synth-small":
        train = _train_argv(spec, epochs=10, batch_size=100, n_hidden=32, eta=0.05,
                            chain_count=100)
        evaluate = ["evaluate", "--data", "records.txt", "--synthetic", "synth.txt",
                    "--queries", "5000", "--seed", str(corpus.MASTER_SEED)]
        return [Command("train", train, check_epsilon_pinned), _generate(spec["n"], 300),
                Command("evaluate", evaluate, check_beats_baseline)]
    if workload == "train-wide":
        train = _train_argv(spec, epochs=1, batch_size=100, n_hidden=200)
        return [Command("train", train, check_epsilon_recomputed), _generate(2000, 50)]
    argv = ["cluster", "--data", "records.txt", "--labels", "labels.txt", "--k", spec["k"],
            "--d", spec["d"], "--gamma", spec["gamma"], "--t-kmeans", "20", "--sigma-c", "4",
            "--sigma-k", "40", "--init-centers", "centers.csv", "--seed", corpus.MASTER_SEED]
    return [Command("cluster", [str(a) for a in argv], check_cluster(spec["k"]))]


# ------------------------------------------------------------- running

def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("DPMIX_LOG", None)
    return env


def remaining():
    return DEADLINE_S - (time.perf_counter() - T_START)


def spawn(argv, cwd, env, stdout_path, stderr_path):
    """Run argv to completion; return (start, wall seconds, peak RSS MB, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, remaining()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_command(cmd, work, env, index, traced):
    base = os.path.join(work, f"{index:02d}-{cmd.name}")
    if traced:
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), base + ".spans.json"]
    else:
        argv = [sys.executable, "-m", "dpmix"]
    start, wall, rss, code = spawn(argv + cmd.argv, work, env, base + ".out", base + ".err")
    with open(base + ".out", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(base + ".err", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    res = Result(cmd, work, wall, rss, code, stdout, stderr)
    if traced and os.path.exists(base + ".spans.json"):
        with open(base + ".spans.json", encoding="utf-8") as fh:
            res.spans = json.load(fh)
        res.spans["marks"]["spawn"] = start
        res.spans["marks"]["reaped"] = start + wall
    if code != 0:
        tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        res.problems = [f"exit code {code}: {tail[0]}"]
    else:
        try:
            res.problems = cmd.check(res)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            res.problems = [f"output check could not read the output: {exc!r}"]
    return res


def run_pass(commands, work, env, first_index, traced):
    return [run_command(c, work, env, first_index + i, traced) for i, c in enumerate(commands)]


def setup(workload, seed, work, env):
    """Build the inputs SETUP_REPS times, each in a fresh interpreter."""
    argv = [sys.executable, os.path.join(HERE, "corpus.py"), "--workload", workload,
            "--seed", str(seed), "--out", work]
    times = []
    for rep in range(SETUP_REPS):
        log = os.path.join(work, f"setup-{rep}")
        _, wall, _, code = spawn(argv, work, env, log + ".out", log + ".err")
        if code != 0:
            with open(log + ".err", encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read())
            raise SystemExit(f"setup failed with exit code {code}")
        times.append(wall)
    return times


# ------------------------------------------------------------- metrics

def tail_value(values):
    """Highest quantile with at least ten samples above it (the max below 11)."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) >= 11 else ordered[-1]


def end_to_end(passes, setup_times):
    return {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": statistics.median(sum(r.wall_s for r in p) for p in passes),
        "peak_rss_mb": max(r.rss_mb for p in passes for r in p),
    }


def aggregate_spans(results):
    stats, counts, steps = {}, Counter(), []
    for res in results:
        for name, (calls, total, self_s) in res.spans["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        counts.update(res.spans["counts"])
        steps += res.spans["step_ms"]
    return stats, counts, steps


def per_layer(workload, plain, traced):
    """Per-layer metrics from one untraced and one traced pass, plus trace problems."""
    problems = [f"{res.command.name}: no span file" for res in traced if res.spans is None]
    if problems:
        return {}, problems
    stats, counts, steps = aggregate_spans(traced)
    metrics = {}
    for name, (calls, _, self_s) in stats.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    batch = counts["dpsgd.batch_records"]
    sweeps = counts["mixture.generate.gibbs_steps"]
    metrics.update({
        "dpsgd.dp_sgd_step.p50_ms": statistics.median(steps) if steps else 0.0,
        "dpsgd.dp_sgd_step.p_hi_ms": tail_value(steps) if steps else 0.0,
        "dpsgd.batch_records": batch,
        "dpsgd.clipped_fraction": counts["dpsgd.clipped_records"] / batch if batch else 0.0,
        "rbm.grad_buffer_bytes": counts["rbm.grad_buffer_bytes"],
        "rbm.gibbs_sweep_ms": 1e3 * stats.get("rbm.sample_batch", [0, 0.0])[1] / sweeps
        if sweeps else 0.0,
        "kmeans.assign_to_centers.temp_bytes": counts["kmeans.assign_to_centers.temp_bytes"],
        "mixture.model_bytes": counts["mixture.model_bytes"],
        "query_rel_err": next((r.facts["query_rel_err"] for r in plain
                               if "query_rel_err" in r.facts), 0.0),
    })
    for name in COMMAND_METRICS.values():
        metrics[name] = 0.0
    for res in plain:
        metrics[COMMAND_METRICS[res.command.name]] += res.wall_s
    plain_s = sum(r.wall_s for r in plain)
    traced_s = sum(r.wall_s for r in traced)
    metrics["trace.pipeline_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["process.startup_s"] = sum(
        r.wall_s - (r.spans["marks"]["main_end"] - r.spans["marks"]["main_start"])
        for r in traced
    )
    for name in EXPECTED_SPANS[workload]:
        if stats.get(name, [0])[0] == 0:
            problems.append(f"span {name} recorded no calls")
    t_sgd = sum(r.facts.get("t_sgd", 0) for r in traced)
    steps_run = metrics.get("dpsgd.dp_sgd_step.calls", 0)
    if steps_run != t_sgd:
        problems.append(f"dp_sgd_step ran {steps_run} times, the model stores t_sgd = {t_sgd}")
    return metrics, problems


# -------------------------------------------------------------- report

def environment(root):
    commit = "unknown"
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
    }


def trace_table(results):
    """Per traced command: wall = startup + imports + sum of span self times + exit."""
    lines = []
    for res in results:
        m = res.spans["marks"]
        start = m["entry"] - m["spawn"]
        imports = m["main_start"] - m["entry"]
        spans = sum(s[2] for s in res.spans["stats"].values())
        exit_s = m["reaped"] - m["main_end"]
        lines.append(
            f"  {res.command.name:<10} wall {res.wall_s:8.3f} s = start {start:.3f}"
            f" + import {imports:.3f} + span self times {spans:.3f} + exit {exit_s:.3f}"
            f" (outside spans inside cli.main {res.wall_s - start - imports - spans - exit_s:+.4f})"
        )
        top = sorted(res.spans["stats"].items(), key=lambda kv: -kv[1][2])[:8]
        lines += [f"      {name:<40} self {s[2]:8.3f} s  calls {s[0]}" for name, s in top if s[0]]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="dpmix CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED_SPANS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dpmix", "cli.py")):
        print("bench: run from the root of a dpmix source checkout (no src/dpmix here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))

    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env(root)
    setup_times = setup(args.workload, args.seed, work, env)
    commands = commands_for(args.workload, args.seed)

    passes = []
    trace_problems = []
    if args.trace:
        plain = run_pass(commands, work, env, 0, traced=False)
        traced = run_pass(commands, work, env, len(commands), traced=True)
        passes = [plain, traced]
        values, trace_problems = per_layer(args.workload, plain, traced)
        wanted = declared["per_layer"]
    else:
        measure_start = time.perf_counter()
        while True:
            started = time.perf_counter()
            passes.append(run_pass(commands, work, env, len(commands) * len(passes), False))
            last = time.perf_counter() - started
            elapsed = time.perf_counter() - measure_start
            if elapsed + last > args.seconds or last * 1.5 > remaining():
                break
        values = end_to_end(passes, setup_times)
        wanted = declared["end_to_end"]

    info = environment(root)
    print("env " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"setup {' '.join(f'{t:.3f}' for t in setup_times)} s")
    for i, results in enumerate(passes):
        kind = "traced" if args.trace and i == 1 else "plain"
        print(f"pass {i} ({kind}) {sum(r.wall_s for r in results):.3f} s")
        for res in results:
            status = "ok" if not res.problems else "FAIL " + "; ".join(res.problems)
            print(f"  {res.command.name:<10} {res.wall_s:8.3f} s"
                  f"  rss {res.rss_mb:7.1f} MB  {status}")
    if args.trace and not trace_problems:
        print("traced commands:")
        print("\n".join(trace_table(passes[1])))
    for problem in trace_problems:
        print(f"FAIL trace: {problem}", file=sys.stderr)
    for res in (r for p in passes for r in p if r.problems):
        print(f"FAIL {res.command.name}: {'; '.join(res.problems)}", file=sys.stderr)

    attempted = sum(len(p) for p in passes) + (1 if args.trace else 0)
    failed = sum(1 for p in passes for r in p if r.problems) + (1 if trace_problems else 0)
    missing = [e["name"] for e in wanted if e["name"] not in values]
    if missing:
        print(f"warning: reported as 0, no such span: {', '.join(missing)}", file=sys.stderr)
    metrics = {e["name"]: {"value": values.get(e["name"], 0), "unit": e["unit"]} for e in wanted}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": info, "setup_s": setup_times, "all_values": values,
                   "passes": [[{"command": r.command.name, "argv": r.command.argv,
                                "wall_s": r.wall_s, "rss_mb": r.rss_mb, "code": r.code,
                                "problems": r.problems} for r in p] for p in passes]},
                  fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
