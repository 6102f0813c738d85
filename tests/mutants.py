"""Mutation list: one-line privacy defects that named test files must catch.

    python3 tests/mutants.py           # every mutant
    python3 tests/mutants.py NAME ...  # the named mutants

Run from any directory.  Each mutant replaces a text that must appear
exactly once in its file.  The script copies src/, tests/ and
pyproject.toml into one temporary directory.  It applies each mutant in
turn to the copy, runs pytest on that mutant's tests there, and then
restores the file.  It exits 1 if a mutant's old text is missing or
repeated, or if pytest does not report failures on a mutant's tests.
A refactor that drops the only test catching a defect then shows up.
A valid bound is no defect, so it is not listed: for example, one more
split in J1_GRID.  The file name does not match test_*.py, so Tier-1
does not collect this file.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # the mutated file, relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest files or node ids, relative to the repository root


MUTANTS = (
    Mutant("release-noise-halved", "src/dpmix/accountant.py",
           "rng.normal(0.0, math.sqrt(2.0) * sigma * sensitivity,",
           "rng.normal(0.0, 0.5 * math.sqrt(2.0) * sigma * sensitivity,",
           ("tests/test_dpsgd.py",)),
    Mutant("gradient-sensitivity-halved", "src/dpmix/dpsgd.py",
           "gaussian_release(total, cfg.sigma_g, c_s, noise_rng)",
           "gaussian_release(total, cfg.sigma_g, 0.5 * c_s, noise_rng)",
           ("tests/test_dpsgd.py",)),
    Mutant("vote-noise-halved", "src/dpmix/dpnorm.py",
           "gaussian_release(counts, sigma_c, 1.0, rng)",
           "gaussian_release(counts, sigma_c / 2, 1.0, rng)",
           ("tests/test_dpnorm.py",)),
    Mutant("kmeans-sums-sensitivity-0.9", "src/dpmix/kmeans.py",
           "sigma_k, CLIP_BOUND, rng)",
           "sigma_k, 0.9 * CLIP_BOUND, rng)",
           ("tests/test_kmeans.py",)),
    Mutant("sampling-at-3q", "src/dpmix/data.py",
           "members[rng.random(len(members)) < q]",
           "members[rng.random(len(members)) < 3 * q]",
           ("tests/test_data.py::TestSampleBatch",)),
    Mutant("no-gradient-clipping", "src/dpmix/dpsgd.py",
           "grads.clipped_sum(clip_scales(norms, c_s))",
           "grads.clipped_sum(np.ones(len(norms)))",
           ("tests/test_dpsgd.py",)),
    Mutant("divide-by-realised-batch", "src/dpmix/dpsgd.py",
           "released / cfg.batch_size",
           "released / max(len(norms), 1)",
           ("tests/test_dpsgd.py",)),
    Mutant("kmeans-sums-uncharged", "src/dpmix/accountant.py",
           '        Charge("kmeans-sums", (cfg.sigma_k,), 1.0, cfg.t_kmeans),\n',
           "",
           ("tests/test_mixture.py",)),
    Mutant("kmeans-iteration-uncharged", "src/dpmix/accountant.py",
           '        Charge("kmeans-sizes", (cfg.sigma_k,), 1.0, cfg.t_kmeans),\n'
           '        Charge("kmeans-sums", (cfg.sigma_k,), 1.0, cfg.t_kmeans),\n',
           '        Charge("kmeans-sizes", (cfg.sigma_k,), 1.0, cfg.t_kmeans - 1),\n'
           '        Charge("kmeans-sums", (cfg.sigma_k,), 1.0, cfg.t_kmeans - 1),\n',
           ("tests/test_mixture.py",)),
    Mutant("sgd-step-uncharged", "src/dpmix/mixture.py",
           "for t in range(t_sgd):",
           "for t in range(t_sgd + 1):",
           ("tests/test_mixture.py",)),
    Mutant("series-tolerance-1e-2", "src/dpmix/accountant.py",
           "_SERIES_RTOL = 1e-10",
           "_SERIES_RTOL = 1e-2",
           ("tests/test_accountant.py",)),
)


def _apply(root: Path, mutant: Mutant) -> str:
    """Write ``mutant`` into the copy at ``root``; return the file's original text."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"{mutant.name}: its old text appears {found} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return text


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survivors = []
    with tempfile.TemporaryDirectory(prefix="dpmix-mutants-") as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", root)
        # no bytecode: a restored file must not run a cached mutated one
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        for mutant in chosen:
            original = _apply(root, mutant)
            start = time.perf_counter()
            try:
                code = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                     *mutant.tests], cwd=root, env=env, stdout=subprocess.DEVNULL).returncode
            finally:
                (root / mutant.path).write_text(original, encoding="utf-8")
            # pytest exits 1 when a test failed; 0 lets the mutant survive, and any
            # other code means the tests did not run as named
            verdict = "caught" if code == 1 else f"NOT CAUGHT (pytest exit {code})"
            print(f"{mutant.name}: {verdict} in {time.perf_counter() - start:.1f} s", flush=True)
            if code != 1:
                survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} of {len(chosen)} mutants not caught: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
