"""Differentially private mixture-of-RBMs synthetic data toolkit.

Pipeline: embed binary records with random Fourier features, cluster
them with noisy k-means, train one Bernoulli RBM per cluster with
adaptively clipped DP-SGD, and track the exact (epsilon, delta) cost
with a moments accountant.  Trained mixtures sample synthetic datasets
whose utility is scored by counting-query workloads.

The public names below load their submodule on first access, so
``import dpmix`` alone imports no submodule.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_PUBLIC = {
    "TrainConfig": "config",
    "alpha_subsampled_gaussian": "accountant",
    "epsilon_for_delta": "accountant",
    "epsilon_schedule": "accountant",
    "generate": "mixture",
    "load_records": "data",
    "train": "mixture",
}

__all__ = [*_PUBLIC, "__version__"]


def __getattr__(name):
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_PUBLIC[name]}", __name__), name)
    globals()[name] = value
    return value
