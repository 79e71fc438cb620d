"""Aggregating noisy labeling-function votes into posterior labels.

The package couples a family of Bayesian classifier-combination models
with a feature-aware variant whose per-item mixture weights come from
Gaussian processes over a feature kernel.  Everything runs
transductively on seeded numpy; see the command-line interface in
:mod:`fable.cli` for the file-level workflow.

Importing the package loads numpy and no scipy module.  Each scipy name
is imported inside the function that calls it, so ``scipy.special`` and
``scipy.sparse``, most of the package's start-up time, load at the
first fit and a command that fits nothing never loads them.
"""

from .baselines import (
    dawid_skene,
    ebcc_elbo,
    ebcc_fit,
    ebcc_init,
    majority_vote,
)
from .data import (
    ABSTAIN,
    Dataset,
    DatasetError,
    SyntheticSpec,
    default_synthetic_spec,
    generate_synthetic,
    load_csv,
    load_json,
    save_json,
)
from .linalg import (
    KernelMatrix,
    NumericalError,
    cosine_kernel,
    dirichlet_log_expectation,
    lowrank_posterior,
    pg_mean,
)
from .metrics import (
    accuracy,
    distance_correlation,
    f1_binary,
    feature_lf_correlation,
    pearson_r,
)
from .model import (
    FableConfig,
    fable_fit,
    fable_init,
)
from .studies import correlation_study, fit_method, size_study

__all__ = [
    "ABSTAIN",
    "Dataset",
    "DatasetError",
    "SyntheticSpec",
    "default_synthetic_spec",
    "generate_synthetic",
    "load_csv",
    "load_json",
    "save_json",
    "accuracy",
    "f1_binary",
    "distance_correlation",
    "feature_lf_correlation",
    "pearson_r",
    "KernelMatrix",
    "NumericalError",
    "cosine_kernel",
    "lowrank_posterior",
    "pg_mean",
    "dirichlet_log_expectation",
    "majority_vote",
    "dawid_skene",
    "ebcc_init",
    "ebcc_elbo",
    "ebcc_fit",
    "FableConfig",
    "fable_init",
    "fable_fit",
    "correlation_study",
    "size_study",
    "fit_method",
]
