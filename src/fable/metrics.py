"""Evaluation metrics and the feature/labeling-function dependence score.

Only ``scipy.special`` and ``scipy.spatial.distance`` are imported:
``pearson_r`` computes its p-value in closed form rather than through
``scipy.stats``, whose import alone takes about 0.4 s (2-core VM).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import betainc

from .data import ABSTAIN, Dataset, DatasetError

__all__ = [
    "accuracy",
    "f1_binary",
    "distance_correlation",
    "feature_lf_correlation",
    "pearson_r",
]


def _check_label_pair(predictions, gold):
    p = np.asarray(predictions)
    g = np.asarray(gold)
    if p.ndim != 1 or g.ndim != 1:
        raise ValueError("predictions and gold must be 1-D")
    if p.shape != g.shape:
        raise ValueError("predictions and gold must have equal length")
    if p.size == 0:
        raise ValueError("need at least one item")
    return p, g


def accuracy(predictions, gold) -> float:
    p, g = _check_label_pair(predictions, gold)
    return float(np.mean(p == g))


def f1_binary(predictions, gold, positive_class: int = 1) -> float:
    """F1 of the positive class; 0 when no positives exist anywhere."""
    p, g = _check_label_pair(predictions, gold)
    tp = int(np.sum((p == positive_class) & (g == positive_class)))
    fp = int(np.sum((p == positive_class) & (g != positive_class)))
    fn = int(np.sum((p != positive_class) & (g == positive_class)))
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2.0 * tp / denom


def _as_sample_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValueError("samples must be a vector or a 2-D array")
    if not np.all(np.isfinite(m)):
        raise ValueError("samples must be finite")
    return m


def _double_centered_distances(m: np.ndarray) -> np.ndarray:
    d = cdist(m, m)
    return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()


def distance_correlation(a, b) -> float:
    """Distance correlation of two paired samples (plain biased estimator).

    Pairwise Euclidean distance matrices are double-centered; the
    statistic is sqrt(dCov^2 / sqrt(dVar_a * dVar_b)), defined as 0 when
    either distance variance vanishes (constant sample).
    """
    ma = _as_sample_matrix(a)
    mb = _as_sample_matrix(b)
    if ma.shape[0] != mb.shape[0]:
        raise ValueError("samples must pair up row by row")
    if ma.shape[0] < 2:
        raise ValueError("need at least two rows")
    ca = _double_centered_distances(ma)
    cb = _double_centered_distances(mb)
    var_a = (ca * ca).mean()
    var_b = (cb * cb).mean()
    if var_a == 0.0 or var_b == 0.0:
        return 0.0
    dcov2 = max((ca * cb).mean(), 0.0)
    return float(min(np.sqrt(dcov2 / np.sqrt(var_a * var_b)), 1.0))


def feature_lf_correlation(dataset: Dataset) -> float:
    """Mean over LFs of dCor(covered features, correctness indicator).

    For each labeling function, take the items it did not abstain on,
    pair their feature rows with the 0/1 indicator of agreement with the
    gold label, and average the resulting distance correlations over all
    LFs.  LFs covering fewer than two items (or with constant
    correctness) contribute zero.
    """
    if dataset.gold is None:
        raise DatasetError("feature/LF correlation needs gold labels")
    total = 0.0
    for j in range(dataset.n_lfs):
        votes = dataset.lf_labels[:, j]
        mask = votes != ABSTAIN
        if int(mask.sum()) < 2:
            continue
        correct = (votes[mask] == dataset.gold[mask]).astype(float)
        total += distance_correlation(dataset.features[mask], correct)
    return total / dataset.n_lfs


def _unit_centered(v: np.ndarray) -> np.ndarray:
    # the norm is taken of v / max|v| so it cannot overflow; the axis-wise
    # norm rounds as scipy.stats.pearsonr does, which keeps r identical
    v = v - v.mean()
    scale = np.abs(v).max()
    return v / (scale * np.linalg.norm(v / scale, axis=0))


def pearson_r(xs, ys) -> tuple[float, float]:
    """Sample Pearson correlation with a two-sided t-test p-value (n-2 dof).

    r is the dot product of the unit-norm centred samples, clipped to
    [-1, 1].  Under independence (r + 1) / 2 follows Beta(a, a) with
    a = n/2 - 1, so the p-value is twice the upper tail at (1 + |r|) / 2,
    evaluated as ``betainc(a, a, 1 - (1 + |r|) / 2)``.  Rounding the tail
    point before the subtraction, as ``scipy.stats.pearsonr`` does, keeps
    the two p-values equal to about 1e-15 even for |r| within 1e-9 of 1
    at n = 3, where p is most sensitive to the last bit of its argument.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError("inputs must be 1-D and of equal length")
    if x.size < 3:
        raise ValueError("need at least three pairs")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("inputs must be finite")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise ValueError("inputs must not have zero variance")
    r = float(np.clip(np.dot(_unit_centered(x), _unit_centered(y)), -1.0, 1.0))
    a = x.size / 2 - 1
    return r, float(2.0 * betainc(a, a, 1.0 - (1.0 + abs(r)) / 2))
