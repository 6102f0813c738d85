"""Input files for the benchmark workloads, built from a seed.

Run as a script it writes one workload's inputs into a directory:

    PYTHONPATH=src python3 bench/corpus.py --workload synth-small --seed 2024 --out DIR

The corpus is the block-mixture recipe of the test suite's
``mixture_corpus`` fixture, copied here so the benchmark does not depend
on the tests: component c lights up its own block of m // k items with
probability ``block_p``, every other item with ``background_p``.  With
seed 2024 the ``synth-small`` corpus is the one of acceptance
criterion 9.  Rows are drawn in chunks; numpy fills arrays in C order,
so chunking yields the same records as one large draw.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

# dpmix master seed of every training and clustering command; acceptance
# criterion 9 uses it.  The workload seed varies the corpus only.
MASTER_SEED = 424242

# Corpus and model shape per workload.  Every workload with a corpus
# passes one embedded prototype per block as --init-centers, so the
# clusters, and with them the batch shapes, do not depend on k-means luck.
SPECS = {
    "synth-small": dict(n=20_000, m=50, k=3, block_p=0.9, background_p=0.01, d=200, gamma=0.1),
    "train-wide": dict(n=2_000, m=784, k=10, block_p=0.6, background_p=0.03, d=200, gamma=0.01),
    "cluster-wide": dict(n=20_000, m=784, k=10, block_p=0.6, background_p=0.03, d=200,
                         gamma=0.01),
}

_CHUNK_ROWS = 4096


def mixture_corpus(n, m, k, rng, block_p=0.6, background_p=0.03):
    """(records uint8 (n, m), component ids (n,)) of a k-block mixture."""
    weights = np.full(k, 1.0 / k)
    comp = rng.choice(k, size=n, p=weights / weights.sum())
    block = m // k
    hi = [(c + 1) * block if c < k - 1 else m for c in range(k)]
    records = np.empty((n, m), dtype=np.uint8)
    for lo_row in range(0, n, _CHUNK_ROWS):
        rows = comp[lo_row:lo_row + _CHUNK_ROWS]
        probs = np.full((rows.size, m), background_p)
        for c in range(k):
            probs[np.ix_(rows == c, np.arange(c * block, hi[c]))] = block_p
        records[lo_row:lo_row + rows.size] = rng.random(probs.shape) < probs
    empty = records.sum(axis=1) == 0
    records[empty, (comp[empty] * block) % m] = 1  # keep every record non-empty
    return records, comp


def prototypes(m, k):
    """One 0/1 prototype per block; public, independent of the records."""
    block = m // k
    protos = np.zeros((k, m))
    for c in range(k):
        protos[c, c * block:(c + 1) * block if c < k - 1 else m] = 1.0
    return protos


def write_sparse(records, path):
    lines = [f"m={records.shape[1]}"]
    lines.extend(" ".join(map(str, np.flatnonzero(row))) for row in records)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_inputs(workload, seed, out):
    """Write records.txt, labels.txt and centers.csv for one workload."""
    from dpmix.rff import embed, feature_map_from_seed
    from dpmix.streams import child_seed

    spec = SPECS.get(workload)
    if spec is None:  # the plan workload reads no files
        return

    records, comp = mixture_corpus(
        spec["n"], spec["m"], spec["k"], np.random.default_rng(seed),
        block_p=spec["block_p"], background_p=spec["background_p"],
    )
    write_sparse(records, os.path.join(out, "records.txt"))
    with open(os.path.join(out, "labels.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(str, comp)) + "\n")
    fmap = feature_map_from_seed(
        spec["m"], spec["d"], spec["gamma"], child_seed(MASTER_SEED, "feature-map")
    )
    centers = embed(fmap, prototypes(spec["m"], spec["k"]))
    np.savetxt(os.path.join(out, "centers.csv"), centers, delimiter=",", fmt="%.17g")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
