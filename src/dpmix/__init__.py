"""Differentially private mixture-of-RBMs synthetic data toolkit.

Pipeline: embed binary records with random Fourier features, cluster
them with noisy k-means, train one Bernoulli RBM per cluster with
adaptively clipped DP-SGD, and track the exact (epsilon, delta) cost
with a moments accountant.  Trained mixtures sample synthetic datasets
whose utility is scored by counting-query workloads.
"""

from .accountant import alpha_subsampled_gaussian, epsilon_for_delta, epsilon_schedule
from .data import load_records
from .mixture import TrainConfig, generate, train

__version__ = "0.1.0"

__all__ = [
    "TrainConfig",
    "alpha_subsampled_gaussian",
    "epsilon_for_delta",
    "epsilon_schedule",
    "generate",
    "load_records",
    "train",
    "__version__",
]
