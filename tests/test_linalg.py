"""Kernels, the exact posterior solve, and the special-function expectations."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import psi as digamma

from fable import linalg
from fable import (
    KernelMatrix,
    NumericalError,
    cosine_kernel,
    dirichlet_log_expectation,
    lowrank_posterior,
    pg_mean,
)


def random_spd_kernel(rng, n: int, jitter: float = 0.0) -> KernelMatrix:
    w = rng.standard_normal((n, n))
    return KernelMatrix.from_dense(w @ w.T + n * np.eye(n), jitter=jitter)


# ---------------------------------------------------------------- kernels


def test_cosine_kernel_parallel_rows():
    k = cosine_kernel(np.array([[1.0, 2.0], [2.0, 4.0]]), jitter=0.0)
    assert k.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_cosine_kernel_orthogonal_rows():
    k = cosine_kernel(np.array([[1.0, 0.0], [0.0, 3.0]]), jitter=0.0)
    assert k.values[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_cosine_kernel_known_angle():
    k = cosine_kernel(np.array([[1.0, 0.0], [1.0, 1.0]]), jitter=0.0)
    assert k.values[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_cosine_kernel_zero_rows():
    k = cosine_kernel(np.array([[0.0, 0.0], [1.0, 1.0]]), jitter=1e-4)
    values = k.values
    assert values[0, 1] == 0.0
    assert values[0, 0] == pytest.approx(1.0 + 1e-4, abs=1e-12)
    assert values[1, 1] == pytest.approx(1.0 + 1e-4, abs=1e-12)


def test_cosine_kernel_is_symmetric_psd(rng):
    x = rng.standard_normal((40, 3))
    x[5] = 0.0
    k = cosine_kernel(x)
    values = k.values
    assert np.allclose(values, values.T, atol=1e-12)
    assert np.all(np.abs(values) <= 1.0 + 1e-4 + 1e-12)
    assert np.linalg.eigvalsh(values).min() >= -1e-8
    assert np.allclose(np.diag(values), 1.0 + 1e-4, atol=1e-12)


def test_kernel_matvec_diagonal_and_rowsum_agree_with_dense(rng):
    x = rng.standard_normal((30, 4))
    x[3] = 0.0
    k = cosine_kernel(x, jitter=1e-3)
    dense = k.values
    v = rng.standard_normal(30)
    w = rng.uniform(size=30)
    assert np.allclose(k.matvec(v), dense @ v, atol=1e-12)
    assert np.allclose(k.diagonal(), np.diag(dense), atol=1e-12)
    assert np.allclose(k.weighted_square_rowsum(w), (dense**2) @ w, atol=1e-10)


def test_kernel_from_dense_rejects_asymmetry():
    with pytest.raises(ValueError):
        KernelMatrix.from_dense(np.array([[1.0, 0.5], [0.0, 1.0]]))


# ------------------------------------------------------- posterior solves


def test_posterior_zero_omega_returns_prior(rng):
    kernel = random_spd_kernel(rng, 25)
    post = lowrank_posterior(kernel, np.zeros(25), rank=25)
    v = rng.standard_normal(25)
    assert np.allclose(post.apply(v), kernel.matvec(v), atol=1e-9)
    assert np.allclose(post.diagonal(), kernel.diagonal(), atol=1e-9)


@pytest.mark.parametrize("n", [15, 40, 100])
def test_posterior_full_rank_matches_dense_inverse(rng, n):
    kernel = random_spd_kernel(rng, n, jitter=1e-6)
    omega = rng.uniform(size=n)
    omega[: n // 5] = 0.0
    post = lowrank_posterior(kernel, omega, rank=n)
    dense = np.linalg.inv(np.linalg.inv(kernel.values) + np.diag(omega))
    built = np.column_stack([post.apply(e) for e in np.eye(n)])
    assert np.linalg.norm(built - dense) / np.linalg.norm(dense) < 1e-6
    assert np.allclose(post.diagonal(), np.diag(dense), rtol=1e-6, atol=1e-9)


def test_posterior_diagonal_is_clamped_apply_diagonal(rng):
    # diagonal() floors variances at zero against rounding (the solve
    # itself is exact); apply() reports the raw value of the same form.
    kernel = random_spd_kernel(rng, 30)
    post = lowrank_posterior(kernel, rng.uniform(size=30), rank=12)
    diag = post.diagonal()
    assert np.all(diag >= 0.0)
    raw = np.empty(30)
    for i in range(30):
        e = np.zeros(30)
        e[i] = 1.0
        raw[i] = post.apply(e)[i]
    assert diag == pytest.approx(np.maximum(raw, 0.0), rel=1e-9, abs=1e-12)


def test_posterior_shrinks_variances(rng):
    kernel = random_spd_kernel(rng, 35)
    post = lowrank_posterior(kernel, rng.uniform(0.5, 2.0, size=35), rank=35)
    assert np.all(post.diagonal() <= kernel.diagonal() + 1e-9)


def test_posterior_truncated_on_cosine_kernel(rng):
    x = rng.standard_normal((400, 2))
    kernel = cosine_kernel(x)
    omega = rng.uniform(0.1, 1.0, size=400)
    post = lowrank_posterior(kernel, omega, rank=60)
    dense = np.linalg.inv(np.linalg.inv(kernel.values) + np.diag(omega))
    rel = np.abs(post.diagonal() - np.diag(dense)) / np.abs(np.diag(dense))
    assert rel.max() < 1e-2


def test_posterior_rejects_negative_omega(rng):
    kernel = random_spd_kernel(rng, 10)
    with pytest.raises(ValueError):
        lowrank_posterior(kernel, np.full(10, -0.5))


def stable_dense_posterior(kernel: KernelMatrix, omega: np.ndarray) -> np.ndarray:
    """K - K W (I + W K W)^-1 W K with W = diag(sqrt(omega)); never inverts K."""
    dense = kernel.values
    root = np.sqrt(omega)
    inner = np.eye(kernel.n) + root[:, None] * dense * root[None, :]
    return dense - dense @ (root[:, None] * np.linalg.solve(inner, root[:, None] * dense))


def cosine_with_zero_rows(rng, n: int = 45) -> KernelMatrix:
    x = rng.standard_normal((n, 3))
    x[[2, 17]] = 0.0
    return cosine_kernel(x)


@pytest.mark.parametrize("make_kernel", [cosine_with_zero_rows, lambda rng: random_spd_kernel(rng, 30, 1e-6)])
def test_batched_posterior_matches_columns_and_dense_oracle(rng, make_kernel):
    kernel = make_kernel(rng)
    n, p = kernel.n, 5
    omega = rng.uniform(0.0, 2.0, size=(n, p))
    omega[rng.random((n, p)) < 0.25] = 0.0
    omega[:, 1] = 0.0
    rhs = rng.standard_normal((n, p))

    batched = lowrank_posterior(kernel, omega)
    applied, diag = batched.apply(rhs), batched.diagonal()
    assert applied.shape == diag.shape == (n, p)
    for col in range(p):
        single = lowrank_posterior(kernel, omega[:, col])
        assert np.allclose(applied[:, col], single.apply(rhs[:, col]), rtol=1e-12, atol=1e-12)
        assert np.allclose(diag[:, col], single.diagonal(), rtol=1e-12, atol=1e-12)
        dense = stable_dense_posterior(kernel, omega[:, col])
        assert np.max(np.abs(applied[:, col] - dense @ rhs[:, col])) < 1e-10
        assert np.max(np.abs(diag[:, col] - np.diag(dense))) < 1e-10


def test_posterior_chunked_columns_match_one_chunk(rng, monkeypatch):
    kernel = cosine_kernel(rng.standard_normal((60, 4)))
    omega = rng.uniform(0.0, 2.0, size=(60, 7))
    rhs = rng.standard_normal((60, 7))
    whole = lowrank_posterior(kernel, omega)
    # two columns per chunk, so the last chunk is short
    monkeypatch.setattr(linalg, "_CHUNK_ELEMENTS", 2 * 60 * 4)
    chunked = lowrank_posterior(kernel, omega)
    assert np.allclose(chunked.core_inv, whole.core_inv, rtol=1e-13, atol=1e-13)
    assert np.allclose(chunked.diagonal(), whole.diagonal(), rtol=1e-13, atol=1e-13)
    assert np.allclose(chunked.apply(rhs), whole.apply(rhs), rtol=1e-13, atol=1e-13)


def test_posterior_rank_caps_wide_cosine_kernel(rng):
    kernel = cosine_kernel(rng.standard_normal((80, 30)))
    omega = rng.uniform(0.0, 2.0, size=(80, 3))
    post = lowrank_posterior(kernel, omega, rank=10)
    assert post.rank == 10
    diag = post.diagonal()
    assert np.all(np.isfinite(diag)) and np.all(diag >= 0.0)
    assert np.all(np.isfinite(post.apply(omega)))
    assert lowrank_posterior(kernel, omega, rank=30).rank == 30


def test_posterior_rejects_rank_below_one(rng):
    kernel = cosine_kernel(rng.standard_normal((12, 2)))
    with pytest.raises(ValueError):
        lowrank_posterior(kernel, np.ones(12), rank=0)
    with pytest.raises(ValueError):
        kernel.truncated(0)


def test_kernel_from_dense_clips_negative_eigenvalues():
    kernel = KernelMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(kernel.values, 0.5, atol=1e-12)
    assert kernel.factor.shape == (2, 1)


def test_kernel_from_dense_factor_width_is_numerical_rank(rng):
    x = rng.standard_normal((20, 3))
    kernel = KernelMatrix.from_dense(x @ x.T, jitter=1e-3)
    assert kernel.factor.shape == (20, 3)
    assert np.allclose(kernel.values, x @ x.T + 1e-3 * np.eye(20), atol=1e-10)
    post = lowrank_posterior(kernel, rng.uniform(0.0, 2.0, size=20))
    assert post.rank == 3
    empty = KernelMatrix.from_dense(np.zeros((4, 4)), jitter=0.5)
    assert empty.factor.shape == (4, 0)
    assert np.allclose(lowrank_posterior(empty, np.ones(4)).diagonal(), 0.5 / 1.5)


# ------------------------------------------------ scalar special functions


def test_pg_mean_known_values():
    assert pg_mean(1.0, 0.0) == 0.25
    assert pg_mean(0.0, 5.0) == 0.0
    assert pg_mean(1.0, 2.0) == pytest.approx(np.tanh(1.0) / 4.0, abs=1e-15)
    assert pg_mean(1.0, 2.0) == pytest.approx(0.1903985389889412, abs=1e-15)
    # 0-d inputs of either kind give a plain float
    for b, c in ((1.0, 0.0), (np.float64(1.0), np.array(2.0)), (np.array(3.0), -1e-9)):
        assert type(pg_mean(b, c)) is float


def test_pg_mean_continuous_at_zero():
    for b in (0.5, 1.0, 7.0):
        assert abs(pg_mean(b, 1e-9) - b / 4.0) < 1e-10


# tilts on both sides of the small-tilt switch, signed zeros, huge and negative
_MIXED_TILTS = np.array([0.0, -0.0, 5e-9, -5e-9, 1e-8, 3e-8, 0.7, -2.5, 40.0, 1e4, -1e4, 1e300])


def test_pg_mean_mixed_tilts_match_the_scalar_formula(rng):
    b = rng.uniform(0.1, 5.0, size=_MIXED_TILTS.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = pg_mean(b, _MIXED_TILTS)
        # the same cells without any small tilt take the path with no np.where
        large = np.abs(_MIXED_TILTS) >= 1e-8
        assert np.array_equal(pg_mean(b[large], _MIXED_TILTS[large]), out[large])
    small = ~large
    assert np.array_equal(out[small], b[small] / 4.0)
    safe = _MIXED_TILTS[large]
    assert np.array_equal(out[large], b[large] * np.tanh(safe / 2.0) / (2.0 * safe))
    for bi, ci, oi in zip(b, _MIXED_TILTS, out):
        assert pg_mean(bi, ci) == oi


def test_pg_mean_broadcasts(rng):
    b = rng.uniform(size=(3, 4))
    c = rng.standard_normal((3, 4))
    out = pg_mean(b, c)
    assert out.shape == (3, 4)
    assert np.all(out >= 0.0)
    # a scalar b against an array c, with and without a small tilt
    for tilts in (c, np.where(c > 0.5, 0.0, c)):
        out = pg_mean(2.0, tilts)
        assert out.shape == (3, 4)
        assert np.array_equal(out, pg_mean(np.full((3, 4), 2.0), tilts))
    assert pg_mean(b, 0.0).shape == (3, 4)
    assert np.array_equal(pg_mean(b, 0.0), b / 4.0)


@settings(deadline=None, max_examples=50)
@given(
    b=st.floats(0.0, 50.0, allow_nan=False),
    c=st.floats(-40.0, 40.0, allow_nan=False),
)
def test_pg_mean_even_and_nonnegative(b, c):
    left = pg_mean(b, c)
    right = pg_mean(b, -c)
    assert left >= 0.0
    assert left == pytest.approx(right, rel=1e-13, abs=1e-300)


def test_dirichlet_log_expectation_flat_pair():
    out = dirichlet_log_expectation(np.array([1.0, 1.0]))
    assert np.allclose(out, [-1.0, -1.0], atol=1e-12)


def test_dirichlet_log_expectation_symmetric_and_negative(rng):
    out = dirichlet_log_expectation(np.full(5, 2.7))
    assert np.allclose(out, out[0], atol=1e-13)
    alpha = rng.uniform(0.2, 4.0, size=6)
    assert np.all(dirichlet_log_expectation(alpha) < 0.0)


def test_dirichlet_log_expectation_batched(rng):
    alpha = rng.uniform(0.5, 3.0, size=(4, 3))
    batched = dirichlet_log_expectation(alpha, axis=-1)
    for row in range(4):
        expected = digamma(alpha[row]) - digamma(alpha[row].sum())
        assert np.allclose(batched[row], expected, atol=1e-13)


def test_dirichlet_log_expectation_rejects_nonpositive():
    with pytest.raises(ValueError):
        dirichlet_log_expectation(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        dirichlet_log_expectation(np.array([]))
