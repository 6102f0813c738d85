"""Differentially private mixture-of-RBMs synthetic data toolkit.

Pipeline: embed binary records with random Fourier features, cluster
them with noisy k-means, train one Bernoulli RBM per cluster with
adaptively clipped DP-SGD, and track the exact (epsilon, delta) cost
with a moments accountant.  Trained mixtures sample synthetic datasets
whose utility is scored by counting-query workloads.
"""

from .accountant import (
    AlphaProfile,
    PrivacyConfig,
    alpha_gaussian,
    alpha_kmeans,
    alpha_sgd,
    alpha_subsampled_gaussian,
    epsilon_for_delta,
    epsilon_schedule,
)
from .data import BinaryDataset, Batch, load_records, make_dataset, sample_batch, write_records
from .dpnorm import dp_norm, norm_histogram
from .dpsgd import SgdConfig, dp_sgd_step
from .errors import ConfigError, DataError, NumericsError, StageError
from .evaluation import (
    EvalReport,
    QueryWorkload,
    clustering_accuracy,
    counting_query,
    evaluate_workload,
    generate_workload,
    relative_error,
)
from .kmeans import Clustering, clip_features, dp_kernel_kmeans
from .mixture import MixtureModel, TrainConfig, generate, load_model, save_model, train
from .rbm import PersistentChains, RbmModel
from .rff import FeatureMap, embed, kernel_rbf, sample_feature_map

__version__ = "0.1.0"

__all__ = [
    "AlphaProfile",
    "Batch",
    "BinaryDataset",
    "Clustering",
    "ConfigError",
    "DataError",
    "EvalReport",
    "FeatureMap",
    "MixtureModel",
    "NumericsError",
    "PersistentChains",
    "PrivacyConfig",
    "QueryWorkload",
    "RbmModel",
    "SgdConfig",
    "StageError",
    "TrainConfig",
    "alpha_gaussian",
    "alpha_kmeans",
    "alpha_sgd",
    "alpha_subsampled_gaussian",
    "clip_features",
    "clustering_accuracy",
    "counting_query",
    "dp_kernel_kmeans",
    "dp_norm",
    "dp_sgd_step",
    "embed",
    "epsilon_for_delta",
    "epsilon_schedule",
    "evaluate_workload",
    "generate",
    "generate_workload",
    "kernel_rbf",
    "load_model",
    "load_records",
    "make_dataset",
    "norm_histogram",
    "relative_error",
    "sample_batch",
    "sample_feature_map",
    "save_model",
    "train",
    "write_records",
    "__version__",
]
