"""Metrics: accuracy, binary F1, distance correlation, and Pearson r."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from fable import (
    Dataset,
    DatasetError,
    accuracy,
    distance_correlation,
    f1_binary,
    feature_lf_correlation,
    pearson_r,
)
from fable import metrics


def brute_force_dcor(a: np.ndarray, b: np.ndarray) -> float:
    """Independent O(N^2) reference: explicit loops, no shared helpers."""
    a = np.atleast_2d(np.asarray(a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T
    n = a.shape[0]

    def centered(m):
        d = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                d[i][j] = sum((m[i, t] - m[j, t]) ** 2 for t in range(m.shape[1])) ** 0.5
        row = [sum(d[i]) / n for i in range(n)]
        col = [sum(d[i][j] for i in range(n)) / n for j in range(n)]
        grand = sum(row) / n
        return [[d[i][j] - row[i] - col[j] + grand for j in range(n)] for i in range(n)]

    ca = centered(a)
    cb = centered(b)
    cov = sum(ca[i][j] * cb[i][j] for i in range(n) for j in range(n)) / (n * n)
    var_a = sum(v * v for r in ca for v in r) / (n * n)
    var_b = sum(v * v for r in cb for v in r) / (n * n)
    if var_a == 0.0 or var_b == 0.0:
        return 0.0
    return (max(cov, 0.0) / (var_a * var_b) ** 0.5) ** 0.5


def test_accuracy_examples():
    assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0
    assert accuracy([0, 1], [1, 0]) == 0.0
    assert accuracy([0, 1, 1, 2], [0, 1, 2, 2]) == 0.75


def test_accuracy_rejects_mismatch():
    with pytest.raises(ValueError):
        accuracy([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        accuracy([], [])


def test_f1_examples():
    assert f1_binary([1, 0, 1], [1, 0, 1]) == 1.0
    assert f1_binary([0, 0, 0], [1, 1, 0]) == 0.0
    # P = R = 0.5: one true positive, one false positive, one false negative
    assert f1_binary([1, 1, 0, 0], [1, 0, 1, 0]) == 0.5
    # no positives predicted or present anywhere: defined as 0
    assert f1_binary([0, 0], [0, 0]) == 0.0


def test_f1_positive_class_flag():
    pred = [0, 0, 1, 1]
    gold = [0, 1, 1, 1]
    assert f1_binary(pred, gold) == pytest.approx(4.0 / 5.0)
    # F1 of class 0 is F1 of class 1 with the labels swapped
    assert f1_binary(1 - np.array(pred), 1 - np.array(gold)) == pytest.approx(2.0 / 3.0)


def test_dcor_self_is_one(rng):
    a = rng.standard_normal((40, 2))
    assert distance_correlation(a, a) == pytest.approx(1.0, abs=1e-12)


def test_dcor_affine_scalar(rng):
    a = rng.standard_normal(30)
    assert distance_correlation(a, 2.5 * a + 1.0) == pytest.approx(1.0, abs=1e-12)
    assert distance_correlation(a, -0.3 * a + 4.0) == pytest.approx(1.0, abs=1e-12)


def test_dcor_independent_samples_near_zero():
    rng = np.random.default_rng(0)
    a = rng.uniform(size=2000)
    b = rng.uniform(size=2000)
    assert distance_correlation(a, b) < 0.08


def test_dcor_constant_sample_is_zero(rng):
    a = rng.standard_normal(10)
    assert distance_correlation(a, np.zeros(10)) == 0.0


def test_dcor_rejects_bad_shapes(rng):
    with pytest.raises(ValueError):
        distance_correlation(rng.standard_normal(5), rng.standard_normal(6))
    with pytest.raises(ValueError):
        distance_correlation([1.0], [2.0])


def test_dcor_matches_brute_force(rng):
    for _ in range(5):
        n = int(rng.integers(5, 60))
        a = rng.standard_normal((n, int(rng.integers(1, 4))))
        b = a[:, :1] * rng.standard_normal() + rng.standard_normal((n, 1))
        assert distance_correlation(a, b) == pytest.approx(brute_force_dcor(a, b), abs=1e-12)


def _chunk_cases():
    rng = np.random.default_rng(11)
    points = rng.standard_normal((4, 2))
    yield "n=2", rng.standard_normal((2, 2)), np.array([0.0, 1.0])
    wrong = np.ones(13)
    wrong[5] = 0.0
    yield "single wrong item", rng.standard_normal((13, 2)), wrong
    yield "duplicate rows", points[rng.integers(0, 4, size=17)], (rng.random(17) < 0.5) * 1.0
    yield "zero feature columns", np.zeros((10, 0)), (rng.random(10) < 0.5) * 1.0
    yield "all correct", rng.standard_normal((11, 3)), np.ones(11)


@pytest.mark.parametrize("name, features, correct", list(_chunk_cases()))
def test_dcor_across_uneven_row_chunks(monkeypatch, name, features, correct):
    n = len(correct)
    step = 1 if n == 2 else 3  # n is never a multiple of 3: the last chunk is short
    monkeypatch.setattr(metrics, "_CHUNK_ELEMENTS", step * n)
    assert len(list(metrics._distance_blocks(features))) == -(-n // step) > 1
    expected = brute_force_dcor(features, correct)
    # the one-pass per-LF scores, with a single LF covering every item
    indicator = metrics._indicator_dcors(features, np.ones((n, 1), bool), correct[:, None])[0]
    assert abs(distance_correlation(features, correct) - expected) < 1e-12
    assert abs(indicator - expected) < 1e-12
    other = features @ np.ones((features.shape[1], 1)) + correct[:, None]
    assert abs(distance_correlation(features, other) - brute_force_dcor(features, other)) < 1e-12
    if name in ("zero feature columns", "all correct"):
        assert distance_correlation(features, correct) == 0.0
        assert indicator == 0.0


def _traced_peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_dependence_scores_stay_off_the_n_by_n_matrix():
    # one 3000 x 3000 float64 distance matrix alone is 69 MB
    rng = np.random.default_rng(5)
    n = 3000
    features = rng.standard_normal((n, 2))
    gold = rng.integers(0, 2, size=n)
    votes = np.where(rng.random((n, 8)) < 0.2, -1, rng.integers(0, 2, size=(n, 8)))
    d = Dataset(features=features, lf_labels=votes, num_classes=2, gold=gold)
    assert _traced_peak_mb(feature_lf_correlation, d) < 16
    assert _traced_peak_mb(distance_correlation, features, rng.standard_normal((n, 2))) < 16


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 25), p=st.integers(1, 3), q=st.integers(1, 3))
def test_dcor_is_symmetric(seed, n, p, q):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p))
    b = rng.standard_normal((n, q))
    assert abs(distance_correlation(a, b) - distance_correlation(b, a)) < 1e-12


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 25), p=st.integers(1, 3))
def test_dcor_invariant_to_rotation_and_translation(seed, n, p):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p))
    b = rng.standard_normal((n, 2))
    rotation, _ = np.linalg.qr(rng.standard_normal((p, p)))
    shifted = a @ rotation.T + rng.standard_normal(p)
    assert abs(distance_correlation(a, b) - distance_correlation(shifted, b)) < 1e-9


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 40))
def test_accuracy_and_f1_permutation_equivariant(seed, n):
    rng = np.random.default_rng(seed)
    pred = rng.integers(0, 2, size=n)
    gold = rng.integers(0, 2, size=n)
    order = rng.permutation(n)
    assert accuracy(pred, gold) == accuracy(pred[order], gold[order])
    assert f1_binary(pred, gold) == f1_binary(pred[order], gold[order])


def _single_lf_dataset(features, votes, gold):
    return Dataset(
        features=np.asarray(features, dtype=float),
        lf_labels=np.asarray(votes, dtype=int).reshape(-1, 1),
        num_classes=2,
        gold=np.asarray(gold, dtype=int),
    )


def test_feature_lf_correlation_requires_gold():
    d = Dataset(features=np.zeros((2, 1)), lf_labels=np.zeros((2, 1), dtype=int), num_classes=2)
    with pytest.raises(DatasetError):
        feature_lf_correlation(d)


def test_feature_lf_correlation_constant_correctness_is_zero(rng):
    features = rng.standard_normal((20, 2))
    gold = rng.integers(0, 2, size=20)
    d = _single_lf_dataset(features, gold, gold)  # always fires, always right
    assert feature_lf_correlation(d) == 0.0


def test_feature_lf_correlation_sparse_lf_contributes_zero(rng):
    votes = np.full(20, -1)
    votes[0] = 1
    d = _single_lf_dataset(rng.standard_normal((20, 2)), votes, rng.integers(0, 2, size=20))
    assert feature_lf_correlation(d) == 0.0


def test_feature_lf_correlation_single_lf_median_rule(rng):
    x = rng.standard_normal(40)
    gold = np.zeros(40, dtype=int)
    votes = (x > np.median(x)).astype(int)  # correct exactly when x <= median
    d = _single_lf_dataset(x[:, None], votes, gold)
    correctness = (votes == gold).astype(float)
    assert feature_lf_correlation(d) == pytest.approx(brute_force_dcor(x, correctness), abs=1e-12)


def test_feature_lf_correlation_is_mean_over_lfs(rng):
    n = 30
    features = rng.standard_normal((n, 2))
    gold = rng.integers(0, 2, size=n)
    votes = np.where(rng.random((n, 3)) < 0.3, -1, rng.integers(0, 2, size=(n, 3)))
    d = Dataset(features=features, lf_labels=votes, num_classes=2, gold=gold)
    expected = 0.0
    for j in range(3):
        mask = votes[:, j] != -1
        if mask.sum() < 2:
            continue
        correct = (votes[mask, j] == gold[mask]).astype(float)
        expected += distance_correlation(features[mask], correct)
    assert feature_lf_correlation(d) == pytest.approx(expected / 3, abs=1e-12)


def _multi_lf_dataset(seed: int, n: int) -> Dataset:
    """Random 3-class data whose LFs cover 0, 1, some and all items, one always right."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((5, 2))
    features = points[rng.integers(0, 5, size=n)]  # duplicate rows
    features[rng.random(n) < 0.2] = 0.0  # all-zero rows
    gold = rng.integers(0, 3, size=n)
    votes = np.where(rng.random((n, 7)) < 0.4, -1, rng.integers(0, 3, size=(n, 7)))
    votes[:, 0] = -1  # covers nothing
    votes[:, 1] = -1
    votes[int(rng.integers(n)), 1] = 0  # covers one item
    votes[:, 2] = np.where(rng.random(n) < 0.5, gold, -1)  # constant correctness
    votes[:, 3] = rng.integers(0, 3, size=n)  # covers every item
    return Dataset(features=features, lf_labels=votes, num_classes=3, gold=gold)


def _per_lf_oracle(d: Dataset) -> float:
    total = 0.0
    for j in range(d.n_lfs):
        mask = d.lf_labels[:, j] != -1
        if mask.sum() < 2:
            continue
        correct = (d.lf_labels[mask, j] == d.gold[mask]).astype(float)
        total += brute_force_dcor(d.features[mask], correct)
    return total / d.n_lfs


@pytest.mark.parametrize("seed, n, step", [(0, 23, 4), (1, 31, 3), (2, 17, 1), (3, 40, 40)])
def test_shared_pass_matches_per_lf_oracle(monkeypatch, seed, n, step):
    d = _multi_lf_dataset(seed, n)
    monkeypatch.setattr(metrics, "_CHUNK_ELEMENTS", step * n)
    assert len(list(metrics._distance_blocks(d.features))) == -(-n // step)
    assert abs(feature_lf_correlation(d) - _per_lf_oracle(d)) < 1e-12


def test_pearson_perfect_correlation():
    r, _ = pearson_r([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0])
    assert r == pytest.approx(1.0, abs=1e-12)
    r, _ = pearson_r([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0])
    assert r == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_example():
    # hand-checked with the closed-form sums: Sxy = 5.5, Sxx = 5, Syy = 8.75,
    # so r = 5.5 / sqrt(5 * 8.75); p from the two-sided t-test with 2 dof
    r, p = pearson_r([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 5.0])
    assert r == pytest.approx(5.5 / np.sqrt(43.75), abs=1e-12)
    assert r == pytest.approx(0.8315218406202999, abs=1e-12)
    assert p == pytest.approx(0.1684781593797, abs=1e-10)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 200),
    st.sampled_from(["independent", "collinear", "near_constant", "scaled"]),
    st.integers(-15, 0),
)
def test_pearson_matches_scipy_stats(seed, n, kind, log_noise):
    # scipy.stats is the oracle here only; the package never imports it
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    noise = 10.0**log_noise * rng.standard_normal(n)
    if kind == "independent":
        y = rng.standard_normal(n)
    elif kind == "collinear":
        y = rng.uniform(-3.0, 3.0) * x + noise
    elif kind == "near_constant":
        y = 1e6 + 1e-4 * rng.standard_normal(n) + 1e-4 * noise
    else:
        x, y = 1e150 * x, 1e-150 * (x + rng.standard_normal(n))
    if np.ptp(y) == 0.0:
        return
    r, p = pearson_r(x, y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on nearly constant input
        expected = scipy.stats.pearsonr(x, y)
    assert abs(r - expected.statistic) <= 1e-12
    gap = abs(p - expected.pvalue)
    assert gap <= 1e-12 or gap <= 1e-9 * expected.pvalue
    assert 0.0 <= p <= 1.0


def test_pearson_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        pearson_r([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson_r([1.0, 2.0, 3.0], [np.nan, 2.0, 3.0])
