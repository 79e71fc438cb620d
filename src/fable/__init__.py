"""Aggregating noisy labeling-function votes into posterior labels.

The package couples a family of Bayesian classifier-combination models
with a feature-aware variant whose per-item mixture weights come from
Gaussian processes over a feature kernel.  Everything runs
transductively on seeded numpy; see the command-line interface in
:mod:`fable.cli` for the file-level workflow.
"""

from .baselines import (
    EbccPriors,
    EbccState,
    Posterior,
    dawid_skene,
    ebcc_elbo,
    ebcc_fit,
    ebcc_init,
    ibcc_fit,
    majority_vote,
)
from .data import (
    ABSTAIN,
    Dataset,
    DatasetError,
    SyntheticSpec,
    ValidationReport,
    default_synthetic_spec,
    generate_synthetic,
    load_csv,
    load_json,
    save_json,
    validate,
)
from .linalg import (
    KernelMatrix,
    NumericalError,
    SymmetricApprox,
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
    FableState,
    fable_fit,
    fable_init,
    logistic_softmax,
)
from .studies import correlation_study, fit_method, select_metric, size_study

__version__ = "0.1.0"

__all__ = [
    "ABSTAIN",
    "Dataset",
    "DatasetError",
    "SyntheticSpec",
    "ValidationReport",
    "default_synthetic_spec",
    "generate_synthetic",
    "load_csv",
    "load_json",
    "save_json",
    "validate",
    "accuracy",
    "f1_binary",
    "distance_correlation",
    "feature_lf_correlation",
    "pearson_r",
    "KernelMatrix",
    "NumericalError",
    "SymmetricApprox",
    "cosine_kernel",
    "lowrank_posterior",
    "pg_mean",
    "dirichlet_log_expectation",
    "Posterior",
    "majority_vote",
    "dawid_skene",
    "EbccPriors",
    "EbccState",
    "ebcc_init",
    "ebcc_elbo",
    "ebcc_fit",
    "ibcc_fit",
    "FableConfig",
    "FableState",
    "fable_init",
    "fable_fit",
    "logistic_softmax",
    "correlation_study",
    "size_study",
    "fit_method",
    "select_metric",
    "__version__",
]
