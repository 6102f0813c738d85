"""Option values and defaults, kept apart from the stacks that read them.

The CLI builds its option table from ``TrainConfig``, the dataset
formats and the evaluation constants.  This module also holds
``atomic_write``, through which every command writes its files.  It
imports only the standard library, the accountant and the error types,
so ``accountant`` loads neither numpy nor the data, training and
evaluation stacks.
"""
from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

from .accountant import DEFAULT_LAMBDA_MAX, check_noise_scale
from .errors import ConfigError

SPARSE_ITEMS = "sparse-items"
DENSE_CSV = "dense-csv"
FORMATS = (SPARSE_ITEMS, DENSE_CSV)

DEFAULT_BINARIZE_THRESHOLD = 127

DEFAULT_GENERATION_SWEEPS = 500

ANY = "any"
ALL = "all"
SEMANTICS = (ANY, ALL)
N_SUBSETS = 5


@dataclass(frozen=True)
class TrainConfig:
    """train()'s options beyond the dataset, the master seed and the initial centers."""

    k: int
    epochs: int
    batch_size: int
    sigma_c: float
    sigma_k: float
    sigma_g: float
    t_kmeans: int = 20
    d: int = 200
    gamma: float = 1.0
    n_hidden: int = 200
    eta: float = 0.01
    pcd_sweeps: int = 1
    chain_count: int | None = None  # defaults to batch_size
    c_max: float = 10.0
    bins: int = 100
    delta: float | None = None  # defaults to 1 / |dataset|
    lambda_max: int = DEFAULT_LAMBDA_MAX

    def __post_init__(self):
        """Check every field, so a bad value (NaN or inf too) fails before any stage runs."""
        counts = ("k", "batch_size", "t_kmeans", "d", "n_hidden", "pcd_sweeps", "bins",
                  "lambda_max", "chain_count")
        for name in counts:
            value = getattr(self, name)
            if value is not None and not value >= 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if not self.epochs >= 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 <= self.eta < math.inf:
            raise ConfigError(f"eta must be finite and >= 0, got {self.eta}")
        for name in ("gamma", "c_max"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta}")
        for name in ("sigma_c", "sigma_k", "sigma_g"):
            check_noise_scale(name, getattr(self, name))


@contextmanager
def atomic_write(path):
    """Open a text file beside ``path`` for writing; rename it onto ``path`` on success.

    Whatever ends the block early, neither ``path`` nor the temporary
    file is left behind.  An OSError about the temporary names ``path``.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
