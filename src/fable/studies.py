"""Seeded experiment harnesses: size robustness and the correlation study.

Both studies sample synthetic datasets, fit the requested aggregation
methods, and return plain row dictionaries so callers can dump them to
CSV.  Per-trial seeds are the master seed XOR the trial index, which
keeps every trial reproducible in isolation.
"""

from __future__ import annotations

import numpy as np

from .baselines import Posterior, dawid_skene, ebcc_fit, majority_vote
from .data import Dataset, default_synthetic_spec, generate_synthetic
from .metrics import accuracy, feature_lf_correlation, pearson_r
from .model import FableConfig, fable_fit

__all__ = [
    "METHODS",
    "fit_method",
    "size_study",
    "summarize_size_study",
    "correlation_study",
]

METHODS = ("mv", "ds", "ibcc", "ebcc", "fable")


def fit_method(
    dataset: Dataset,
    method: str,
    seed: int = 0,
    max_iters: int | None = None,
    tol: float | None = None,
    subtypes: int = 3,
) -> Posterior:
    """Run one aggregation method; a knob left at None keeps the method's default.

    These are every knob the experiments set; the studies take them as
    ``**fit`` and pass them here unchanged.
    """
    if method == "mv":
        return majority_vote(dataset)
    iters = {} if max_iters is None else {"max_iters": max_iters}
    if tol is not None:
        iters["tol"] = tol
    if method == "ds":
        return dawid_skene(dataset, **iters)
    if method == "ibcc":
        return ebcc_fit(dataset, subtypes=1, seed=seed, **iters)
    if method == "ebcc":
        return ebcc_fit(dataset, subtypes=subtypes, seed=seed, **iters)
    if method == "fable":
        return fable_fit(dataset, FableConfig(subtypes=subtypes, **iters), seed=seed)
    raise ValueError(f"unknown method {method!r}")


def size_study(
    sizes,
    runs: int = 10,
    methods=METHODS,
    seed: int = 0,
    psi: float = 1.0,
    **fit,
) -> list[dict]:
    """Accuracy of each method across dataset sizes, one row per fit.

    Every (size, run) pair gets its own dataset; all methods see the same
    one, so per-run differences are paired.  Run seeds are shared across
    sizes, so each size sweep resamples the same class-std draws at a
    different N and size effects are not confounded with seed effects.
    Every LF width is ``psi``.  ``fit`` holds the knobs of :func:`fit_method`.
    """
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    rows = []
    for size in sizes:
        for run in range(runs):
            trial_seed = seed ^ run
            spec = default_synthetic_spec(size=size, seed=trial_seed, psi_range=(psi, psi))
            dataset = generate_synthetic(spec)
            for method in methods:
                posterior = fit_method(dataset, method, seed=trial_seed, **fit)
                rows.append(
                    {
                        "method": method,
                        "size": int(size),
                        "run": run,
                        "seed": trial_seed,
                        "metric": "accuracy",
                        "value": accuracy(posterior.predictions, dataset.gold),
                        "n_iters": posterior.n_iters,
                    }
                )
    return rows


def summarize_size_study(rows: list[dict]) -> list[dict]:
    """Mean and standard deviation per (method, size), in first-seen order."""
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        groups.setdefault((row["method"], row["size"]), []).append(row["value"])
    summary = []
    for (method, size), values in groups.items():
        arr = np.asarray(values)
        summary.append(
            {
                "method": method,
                "size": size,
                "runs": len(values),
                "metric": "accuracy",
                "mean": float(arr.mean()),
                "std": float(arr.std()),
            }
        )
    return summary


def correlation_study(
    trials: int = 50,
    size: int = 1000,
    seed: int = 0,
    psi_range: tuple[float, float] | None = None,
    **fit,
) -> tuple[list[dict], float, float]:
    """Relate the feature/LF dependence score to the feature-aware gain.

    Each trial redraws the LF window widths psi uniformly from
    ``psi_range``, (1, 3) unless a range is given (``(w, w)`` fixes every
    width at w), generates a dataset, computes Corr(X, LFs), and fits the
    subtype model with and without features, each with the
    :func:`fit_method` knobs in ``fit``.  Returns the per-trial rows plus
    the Pearson r and p-value between the dependence score and the
    accuracy gain, both NaN when either is the same in every trial.
    """
    if trials < 3:
        raise ValueError("need at least three trials for a correlation")
    if psi_range is None:
        psi_range = (1.0, 3.0)
    rows = []
    for trial in range(trials):
        trial_seed = seed ^ trial
        spec = default_synthetic_spec(size=size, seed=trial_seed, psi_range=psi_range)
        dataset = generate_synthetic(spec)
        corr = feature_lf_correlation(dataset)
        ebcc_post = fit_method(dataset, "ebcc", seed=trial_seed, **fit)
        fable_post = fit_method(dataset, "fable", seed=trial_seed, **fit)
        ebcc_value = accuracy(ebcc_post.predictions, dataset.gold)
        fable_value = accuracy(fable_post.predictions, dataset.gold)
        rows.append(
            {
                "trial": trial,
                "seed": trial_seed,
                "corr": float(corr),
                "metric": "accuracy",
                "ebcc": ebcc_value,
                "fable": fable_value,
                "delta": fable_value - ebcc_value,
            }
        )
    scores = [row["corr"] for row in rows]
    gains = [row["delta"] for row in rows]
    # a constant sample (say, every LF abstains in every trial) has no correlation
    if np.ptp(scores) == 0.0 or np.ptp(gains) == 0.0:
        return rows, float("nan"), float("nan")
    r, p = pearson_r(scores, gains)
    return rows, r, p
