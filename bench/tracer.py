"""Run one dpmix CLI command with every public dpmix function in a span.

    PYTHONPATH=src python3 bench/tracer.py SPANS.json train --data ...

Each public function of each dpmix module is replaced by a wrapper that
times the call and keeps a stack of open spans, so a span's self time
is its duration minus the durations of the spans it called.  Modules
bind names with ``from .x import y``, so the wrapper is installed under
every module attribute that refers to the function, not only in the
module that defines it.  In ``cli`` only ``main`` is wrapped: its self
time is argument parsing, option resolution and output writing.

Spans are aggregated in memory and written once, when the command ends:
per function its calls, total and self seconds, the calling function of
each edge, the duration of every ``dp_sgd_step``, and the computed
counts below.  The counts are derived from argument shapes and results,
not timed, so they repeat exactly for a fixed seed.
"""
import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
from collections import Counter

T_ENTRY = time.perf_counter()


def _sgd_step(tracer, dur, bound, result):
    info = result[1]
    tracer.step_ms.append(dur * 1e3)
    tracer.counts["dpsgd.batch_records"] += info.batch_size
    tracer.counts["dpsgd.clipped_records"] += round(info.clipped_fraction * info.batch_size)


def _pcd_gradients(tracer, dur, bound, result):
    batch, model = bound["batch"], bound["model"]
    records = batch.records if hasattr(batch, "records") else batch
    tracer.counts["rbm.grad_buffer_bytes"] += len(records) * model.n_params * 8


def _assign(tracer, dur, bound, result):
    n, d = bound["features"].shape
    k = bound["centers"].shape[0]
    tracer.counts["kmeans.assign_to_centers.temp_bytes"] += n * k * d * 8


def _save_model(tracer, dur, bound, result):
    tracer.counts["mixture.model_bytes"] += os.path.getsize(bound["path"])


def _generate(tracer, dur, bound, result):
    tracer.counts["mixture.generate.gibbs_steps"] += bound["gibbs_steps"]


PROBES = {
    "dpsgd.dp_sgd_step": _sgd_step,
    "rbm.pcd_per_example_gradients": _pcd_gradients,
    "kmeans.assign_to_centers": _assign,
    "mixture.save_model": _save_model,
    "mixture.generate": _generate,
}


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.edges = Counter()  # (caller, callee) -> calls
        self.counts = Counter()
        self.step_ms = []
        # Open spans: [name, seconds spent in children].  One stack is right
        # only while dpmix calls these functions from a single thread.
        self._stack = []

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, edges, clock = self._stack, self.edges, time.perf_counter
        probe = PROBES.get(name)
        sig = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            caller = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                edges[(caller, name)] += 1
            if probe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(self, dur, bound.arguments, result)
            return result

        return wrapper

    def install(self, package):
        """Wrap the public functions of every submodule; rebind every reference."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"
        ]
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__
                        and (short != "cli" or attr == "main")):
                    wrappers[id(value)] = self.wrap(f"{short}.{attr}", value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    def dump(self, path, marks):
        payload = {
            "marks": marks,
            "stats": self.stats,
            "edges": [[a, b, n] for (a, b), n in self.edges.items()],
            "counts": dict(self.counts),
            "step_ms": self.step_ms,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    import dpmix
    import dpmix.cli

    marks = {"entry": T_ENTRY, "imported": time.perf_counter()}
    tracer = Tracer()
    tracer.install(dpmix)
    marks["main_start"] = time.perf_counter()
    try:
        return dpmix.cli.main(cli_args)
    finally:
        marks["main_end"] = time.perf_counter()
        tracer.dump(out_path, marks)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
