"""Differentially private mixture-of-RBMs synthetic data toolkit.

Pipeline: embed binary records with random Fourier features, cluster
them with noisy k-means, train one Bernoulli RBM per cluster with
adaptively clipped DP-SGD, and track the exact (epsilon, delta) cost
with a moments accountant.  Trained mixtures sample synthetic datasets
whose utility is scored by counting-query workloads.
"""

# The public names are those in __all__.  The imports below also fix the
# order in which the submodules and scipy load.  Trimming them to the
# public names changed the heap layout the imports leave behind: each
# `dpmix accountant` run then took about 88,000 minor page faults instead
# of about 50 in the quadrature temporaries, and was 10-30% slower on a
# 2-vCPU x86 host.

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
    "TrainConfig",
    "alpha_subsampled_gaussian",
    "epsilon_for_delta",
    "epsilon_schedule",
    "generate",
    "load_records",
    "train",
    "__version__",
]
