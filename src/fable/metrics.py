"""Evaluation metrics and the feature/labeling-function dependence score.

The dependence score is a distance correlation computed in row chunks:
no N x N distance matrix is formed, so its memory is O(N * chunk) with
chunks of at most max(N, ``_CHUNK_ELEMENTS``) floats.  One pass over the
feature distance rows serves every labeling function: each chunk is
multiplied once by an (N, 2L) weight matrix, which adds O(N * L) memory.

Importing this module loads no scipy module.  ``pearson_r`` imports
``scipy.special`` when it runs and computes its p-value in closed form
rather than through ``scipy.stats``, whose import alone takes about
0.4 s (2-core VM); ``scipy.spatial.distance`` is imported on the first
distance pass, so only the dependence score pays for it.
"""

from __future__ import annotations

import numpy as np

from .data import ABSTAIN, Dataset, DatasetError

__all__ = [
    "accuracy",
    "f1_binary",
    "distance_correlation",
    "feature_lf_correlation",
    "pearson_r",
]

# the floats (1 MB) one block of distance rows may hold; a block is at least one row
_CHUNK_ELEMENTS = 1 << 17


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


def f1_binary(predictions, gold) -> float:
    """F1 of class 1; 0 when no item is in class 1 in either input."""
    p, g = _check_label_pair(predictions, gold)
    tp = int(np.sum((p == 1) & (g == 1)))
    fp = int(np.sum((p == 1) & (g != 1)))
    fn = int(np.sum((p != 1) & (g == 1)))
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


def _distance_blocks(m: np.ndarray):
    """Yield ``(rows, cdist(m[rows], m))`` over chunks of max(N, _CHUNK_ELEMENTS) floats at most."""
    # imported here: scipy.spatial also loads scipy.linalg, about 0.1 s and
    # 10 MB that every command would pay while only the dependence score uses it
    from scipy.spatial.distance import cdist

    n = m.shape[0]
    step = max(1, _CHUNK_ELEMENTS // n)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        yield rows, cdist(m[rows], m)


def _distance_variance(m: np.ndarray, row_means: np.ndarray) -> float:
    # sum_ij |x_i - x_j|^2 = 2 n sum_i |x_i - mean|^2, so no matrix is needed
    spread = 2.0 * np.mean(np.sum((m - m.mean(axis=0)) ** 2, axis=1))
    return float(spread - 2.0 * np.mean(row_means**2) + row_means.mean() ** 2)


def _dcor_from_moments(dcov2: float, var_a: float, var_b: float) -> float:
    if var_a <= 0.0 or var_b <= 0.0:
        return 0.0
    return float(min(np.sqrt(max(dcov2, 0.0) / np.sqrt(var_a * var_b)), 1.0))


def distance_correlation(a, b) -> float:
    """Distance correlation of two paired samples (plain biased estimator).

    The statistic is sqrt(dCov^2 / sqrt(dVar_a * dVar_b)) over the
    double-centered Euclidean distance matrices A and B, defined as 0
    when either distance variance vanishes (constant sample).  Neither
    matrix is formed: one pass over row chunks of both collects the row
    means a_i, b_i and sum A*B, and with grand means a, b

        n^2 dCov^2 = sum A*B - 2n sum_i a_i b_i + n^2 a b,

    while sum A^2 = 2n sum_i |x_i - mean x|^2 in closed form.
    """
    ma = _as_sample_matrix(a)
    mb = _as_sample_matrix(b)
    if ma.shape[0] != mb.shape[0]:
        raise ValueError("samples must pair up row by row")
    n = ma.shape[0]
    if n < 2:
        raise ValueError("need at least two rows")
    row_a = np.empty(n)
    row_b = np.empty(n)
    cross = 0.0
    for (rows, da), (_, db) in zip(_distance_blocks(ma), _distance_blocks(mb)):
        row_a[rows] = da.mean(axis=1)
        row_b[rows] = db.mean(axis=1)
        cross += np.vdot(da, db)
    dcov2 = cross / n**2 - 2.0 * np.mean(row_a * row_b) + row_a.mean() * row_b.mean()
    return _dcor_from_moments(
        dcov2, _distance_variance(ma, row_a), _distance_variance(mb, row_b)
    )


def _indicator_dcors(m: np.ndarray, covered: np.ndarray, correct: np.ndarray) -> np.ndarray:
    """dCor(m[covered[:, j]], correct[covered[:, j], j]) for every column j, in one pass.

    ``covered`` is an (N, L) boolean mask and ``correct`` an (N, L) 0/1
    array that is 0 off the mask.  For one column, with c the indicator
    on the n covered rows, n1 its count and p = n1 / n, the B side is
    |c_i - c_j| and reduces to group sums: dCov^2 =
    -2 (c'Ac - 2 n1 a'c + n1^2 a) / n^2 with a_i the row means of A and
    a their mean, and dVar_b = (2p(1 - p))^2.  The row means and the
    products A c of every column are one product of each row chunk of
    the full distance matrix with an (N, 2L) weight matrix, columns
    covered_j / n_j and correct_j, so one distance pass serves all
    columns.  A column with constant correctness (or fewer than two
    covered rows) gives 0.
    """
    counts = covered.sum(axis=0)
    hits = correct.sum(axis=0)
    out = np.zeros(covered.shape[1])
    active = np.flatnonzero((hits > 0) & (hits < counts))
    if active.size == 0:
        return out
    weights = np.concatenate([covered[:, active] / counts[active], correct[:, active]], axis=1)
    sums = np.empty_like(weights)
    for rows, d in _distance_blocks(m):
        sums[rows] = d @ weights
    for t, j in enumerate(active):
        mask = covered[:, j]
        c = correct[mask, j]
        n, n1 = float(counts[j]), float(hits[j])
        p = n1 / n
        row_means = sums[mask, t]
        dcov2 = -2.0 * (
            c @ sums[mask, active.size + t]
            - 2.0 * n1 * (row_means @ c)
            + n1**2 * row_means.mean()
        ) / n**2
        out[j] = _dcor_from_moments(
            dcov2, _distance_variance(m[mask], row_means), (2.0 * p * (1.0 - p)) ** 2
        )
    return out


def feature_lf_correlation(dataset: Dataset) -> float:
    """Mean over LFs of dCor(covered features, correctness indicator).

    For each labeling function, take the items it did not abstain on,
    pair their feature rows with the 0/1 indicator of agreement with the
    gold label, and average the resulting distance correlations over all
    LFs.  LFs covering fewer than two items (or with constant
    correctness) contribute zero.  One pass over the feature distance
    rows serves every LF (:func:`_indicator_dcors`).
    """
    if dataset.gold is None:
        raise DatasetError("feature/LF correlation needs gold labels")
    covered = dataset.lf_labels != ABSTAIN
    correct = (covered & (dataset.lf_labels == dataset.gold[:, None])).astype(float)
    return float(_indicator_dcors(dataset.features, covered, correct).sum()) / dataset.n_lfs


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
    from scipy.special import betainc

    r = float(np.clip(np.dot(_unit_centered(x), _unit_centered(y)), -1.0, 1.0))
    a = x.size / 2 - 1
    return r, float(2.0 * betainc(a, a, 1.0 - (1.0 + abs(r)) / 2))
