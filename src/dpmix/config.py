"""Option values and defaults, kept apart from the stacks that read them.

The CLI builds its option table from ``TrainConfig`` and the evaluation
constants, and this module imports only the accountant and the error
types, so ``accountant`` loads neither ``mixture`` nor ``evaluation``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .accountant import DEFAULT_LAMBDA_MAX, check_noise_scale
from .errors import ConfigError

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
