"""Kernels, the exact posterior solve, and the special-function expectations."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import psi as digamma

from fable import linalg
from fable.linalg import _PG_SMALL_TILT
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
    k = cosine_kernel(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert k.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_cosine_kernel_orthogonal_rows():
    k = cosine_kernel(np.array([[1.0, 0.0], [0.0, 3.0]]))
    assert k.values[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_cosine_kernel_known_angle():
    k = cosine_kernel(np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert k.values[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_cosine_kernel_zero_rows():
    k = cosine_kernel(np.array([[0.0, 0.0], [1.0, 1.0]]))
    values = k.values
    assert values[0, 1] == 0.0
    assert values[0, 0] == pytest.approx(1.0 + 1e-4, abs=1e-12)
    assert values[1, 1] == pytest.approx(1.0 + 1e-4, abs=1e-12)


def test_cosine_kernel_ignores_extreme_feature_scales(rng):
    # squares of entries beyond ~1e154 overflow and below ~1e-154 underflow
    for d in (1, 5, 100):
        x = rng.standard_normal((20, d))
        x[7] = 0.0
        expected = cosine_kernel(x)
        for scale in (2.0**600, 2.0**-600):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                k = cosine_kernel(x * scale)
            assert np.array_equal(k.rows, expected.rows)
            assert np.array_equal(k.noise, expected.noise)


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
    k = cosine_kernel(x)
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
    # a batch is one row per solve: a row per item is the wrong orientation
    with pytest.raises(ValueError):
        lowrank_posterior(kernel, np.ones((10, 3)))
    # one bad entry among good ones, in a single solve or a batch
    for bad in (np.nan, np.inf, -np.inf, -1e-300):
        for shape in ((10,), (3, 10)):
            omega = np.ones(shape)
            omega.flat[4] = bad
            with pytest.raises(ValueError):
                lowrank_posterior(kernel, omega)
    # zeros of either sign are no information, and an empty batch no solve
    assert lowrank_posterior(kernel, np.array([0.0, -0.0] * 5)).diagonal().shape == (10,)
    assert lowrank_posterior(kernel, np.zeros((0, 10))).core_inv.shape[0] == 0


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
    omega = rng.uniform(0.0, 2.0, size=(p, n))
    omega[rng.random((p, n)) < 0.25] = 0.0
    omega[1] = 0.0
    rhs = rng.standard_normal((p, n))

    batched = lowrank_posterior(kernel, omega)
    applied, diag = batched.apply(rhs), batched.diagonal()
    assert applied.shape == diag.shape == (p, n)
    for row in range(p):
        single = lowrank_posterior(kernel, omega[row])
        assert np.allclose(applied[row], single.apply(rhs[row]), rtol=1e-12, atol=1e-12)
        assert np.allclose(diag[row], single.diagonal(), rtol=1e-12, atol=1e-12)
        dense = stable_dense_posterior(kernel, omega[row])
        assert np.max(np.abs(applied[row] - dense @ rhs[row])) < 1e-10
        assert np.max(np.abs(diag[row] - np.diag(dense))) < 1e-10


def test_posterior_narrow_and_wide_forms_agree(rng, monkeypatch):
    kernel = cosine_kernel(rng.standard_normal((60, 4)))
    for p in (1, 7):
        omega = rng.uniform(0.0, 2.0, size=(p, 60))
        rhs = rng.standard_normal((p, 60))
        monkeypatch.setattr(linalg, "_CHUNK_ELEMENTS", 60 * 4 * 4)
        narrow = lowrank_posterior(kernel, omega)
        # one float short of the pair matrix, so the same kernel takes the per-row form
        monkeypatch.setattr(linalg, "_CHUNK_ELEMENTS", 60 * 4 * 4 - 1)
        wide = lowrank_posterior(kernel, omega)
        assert narrow.pairs is not None and wide.pairs is None
        assert np.allclose(wide.core_inv, narrow.core_inv, rtol=1e-13, atol=1e-13)
        assert np.allclose(wide.diagonal(), narrow.diagonal(), rtol=1e-13, atol=1e-13)
        assert np.allclose(wide.apply(rhs), narrow.apply(rhs), rtol=1e-13, atol=1e-13)


def test_posterior_solves_cell_shaped_omega_as_its_rows(rng, monkeypatch):
    # the label model passes its (K, M, N) cells as they are: one solve per (k, m)
    kernel = cosine_kernel(rng.standard_normal((60, 4)))
    omega = rng.uniform(0.0, 2.0, size=(3, 4, 60))
    rhs = rng.standard_normal((3, 4, 60))
    # the narrow form, then one float short of the pair matrix, the per-pair form
    for budget in (60 * 4 * 4, 60 * 4 * 4 - 1):
        monkeypatch.setattr(linalg, "_CHUNK_ELEMENTS", budget)
        cells = lowrank_posterior(kernel, omega)
        rows = lowrank_posterior(kernel, omega.reshape(12, 60))
        assert (cells.pairs is None) == (budget < 60 * 4 * 4)
        assert cells.scale.shape == cells.apply(rhs).shape == cells.diagonal().shape == omega.shape
        assert np.array_equal(cells.scale, rows.scale.reshape(omega.shape))
        assert np.array_equal(cells.core_inv, rows.core_inv)
        assert np.array_equal(cells.apply(rhs), rows.apply(rhs.reshape(12, 60)).reshape(omega.shape))
        assert np.array_equal(cells.diagonal(), rows.diagonal().reshape(omega.shape))
    # a 0-d omega has no item axis, even against a one-item kernel
    with pytest.raises(ValueError):
        lowrank_posterior(cosine_kernel(np.ones((1, 2))), np.array(1.0))


def reference_posterior(prior: KernelMatrix, omega: np.ndarray):
    """scale, core_inv, apply and diagonal written as plain expressions, each temporary a new array.

    A narrow factor (N * r^2 within ``_CHUNK_ELEMENTS``) takes its cores
    and quadratic forms from the pair rows f_a * f_b; a wide one from one
    product per row of omega.  Both finish the variances as t (t quad + s).
    """
    f = prior.rows
    r, n = f.shape
    cells = omega.reshape(-1, n)
    t = 1.0 / (1.0 + prior.noise * cells)
    weights = cells * t
    narrow = n * r * r <= linalg._CHUNK_ELEMENTS
    if narrow:
        pair_rows = (f[:, None, :] * f[None, :, :]).reshape(r * r, n)
        core = (weights @ pair_rows.T).reshape(-1, r, r)
    else:
        core = np.stack([(f * weight) @ f.T for weight in weights])
    core_inv = np.linalg.inv(core + np.eye(r))

    def apply(v):
        tv = t * v.reshape(t.shape)
        inner = np.matmul(core_inv, (tv @ f.T)[:, :, None])[:, :, 0]
        return (prior.noise * tv + t * (inner @ f)).reshape(v.shape)

    def diagonal():
        if narrow:
            quad = core_inv.reshape(t.shape[0], r * r) @ pair_rows
        else:
            quad = np.stack([np.einsum("rn,rn->n", c @ f, f) for c in core_inv])
        return np.maximum(t * (t * quad + prior.noise), 0.0).reshape(omega.shape)

    return t.reshape(omega.shape), core_inv, apply, diagonal


# r = 1, 2, 5 are narrow at N = 2000 (N * r^2 within _CHUNK_ELEMENTS), r = 40 is wide
@pytest.mark.parametrize("r", [1, 2, 5, 40])
@pytest.mark.parametrize("p", [None, 70])
def test_posterior_in_place_forms_are_bit_identical(rng, r, p):
    # on the wide side each of the 70 rows takes its own products
    n = 2000
    zero_rows = rng.random(n) < 0.05
    rows = rng.standard_normal((r, n)) / np.sqrt(r)
    rows[:, zero_rows] = 0.0
    # cosine_kernel's noise: the jitter, plus 1 on items with all-zero features
    kernel = KernelMatrix(rows=rows, noise=zero_rows + linalg._KERNEL_JITTER)
    shape = (n,) if p is None else (p, n)
    omega = rng.uniform(0.0, 3.0, size=shape)
    omega[rng.random(shape) < 0.2] = 0.0
    v = rng.standard_normal(shape)
    omega_before, v_before = omega.copy(), v.copy()

    post = lowrank_posterior(kernel, omega)
    assert (post.pairs is None) == (r == 40)
    scale, core_inv, apply, diagonal = reference_posterior(kernel, omega)
    assert np.array_equal(omega, omega_before)
    assert np.array_equal(post.scale, scale)
    assert np.array_equal(post.core_inv, core_inv)
    assert np.array_equal(post.apply(v), apply(v))
    assert np.array_equal(v, v_before)
    assert np.array_equal(post.diagonal(), diagonal())


def test_kernel_builds_its_solve_constants_once(rng):
    kernel = cosine_kernel(rng.standard_normal((50, 5)))
    rows = kernel.rows
    assert rows.shape == (5, 50) and rows.flags.c_contiguous
    post = lowrank_posterior(kernel, rng.uniform(size=(3, 50)))
    assert post.prior is kernel and kernel.rows is rows
    assert np.array_equal(post.pairs, (rows[:, None, :] * rows[None, :, :]).reshape(25, 50))
    # each narrow solve builds its own pair matrix; the kernel keeps only its factor and diagonal
    again = lowrank_posterior(kernel, rng.uniform(size=(3, 50)))
    assert np.array_equal(again.pairs, post.pairs) and not np.shares_memory(again.pairs, post.pairs)
    assert set(vars(kernel)) == {"rows", "noise"}
    # a cut kernel has a new factor, never its parent's
    for r, cut in ((2, kernel.truncated(2)), (3, lowrank_posterior(kernel, rng.uniform(size=50), rank=3).prior)):
        assert cut.rows.shape == (r, 50) and cut.rows.flags.c_contiguous
        assert not np.shares_memory(cut.rows, rows)
    assert kernel.rows is rows and set(vars(kernel)) == {"rows", "noise"}


def test_wide_diagonal_reads_the_rows_of_the_solve(rng):
    n, r, p = 2000, 40, 3
    kernel = KernelMatrix(rows=rng.standard_normal((r, n)), noise=np.full(n, 1e-4))
    post = lowrank_posterior(kernel, rng.uniform(size=(p, n)))
    assert post.pairs is None and "pairs" not in vars(kernel)
    rows = vars(kernel)["rows"]
    tracemalloc.start()
    try:
        diag = post.diagonal()
        peak_floats = tracemalloc.get_traced_memory()[1] / 8
    finally:
        tracemalloc.stop()
    assert post.prior.rows is rows
    # its result and one (r, N) product at a time; a copy of the rows would add N * r
    assert peak_floats < diag.size + 1.5 * n * r


def test_wide_posterior_temporaries_stay_within_n_r_floats(rng):
    # one N x N covariance alone would be 25M floats; each temporary here holds N * r at most
    n, r, p = 5000, 100, 12
    kernel = KernelMatrix(rows=rng.standard_normal((r, n)) / np.sqrt(r), noise=np.full(n, 1e-4))
    omega = rng.uniform(0.0, 3.0, size=(p, n))
    v = rng.standard_normal((p, n))

    tracemalloc.start()
    try:
        post = lowrank_posterior(kernel, omega)
        post.apply(v)
        post.diagonal()
        peak_floats = tracemalloc.get_traced_memory()[1] / 8
    finally:
        tracemalloc.stop()
    assert post.pairs is None
    # scale, core_inv, and the result and (P, N) temporary of apply, and diagonal's result
    outputs = 4 * p * n + p * r * r
    # and one (r, N) product of one pair at a time: the kernel's rows are built before the solve
    assert peak_floats <= outputs + n * r


def test_posterior_rank_caps_wide_cosine_kernel(rng):
    kernel = cosine_kernel(rng.standard_normal((80, 30)))
    omega = rng.uniform(0.0, 2.0, size=(3, 80))
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
    assert kernel.rows.shape == (1, 2)


def test_kernel_from_dense_factor_width_is_numerical_rank(rng):
    x = rng.standard_normal((20, 3))
    kernel = KernelMatrix.from_dense(x @ x.T, jitter=1e-3)
    assert kernel.rows.shape == (3, 20)
    assert np.allclose(kernel.values, x @ x.T + 1e-3 * np.eye(20), atol=1e-10)
    post = lowrank_posterior(kernel, rng.uniform(0.0, 2.0, size=20))
    assert post.rank == 3
    empty = KernelMatrix.from_dense(np.zeros((4, 4)), jitter=0.5)
    assert empty.rows.shape == (0, 4)
    assert np.allclose(lowrank_posterior(empty, np.ones(4)).diagonal(), 0.5 / 1.5)


def test_posterior_narrow_path_on_factors_with_no_signal(rng):
    # no factor rows (r = 0) and all-zero features both leave only the noise s
    kernels = (KernelMatrix.from_dense(np.zeros((5, 5)), jitter=0.5), cosine_kernel(np.zeros((5, 3))))
    for kernel in kernels:
        for omega in (rng.uniform(0.0, 2.0, size=5), rng.uniform(0.0, 2.0, size=(4, 5))):
            post = lowrank_posterior(kernel, omega)
            assert post.pairs is not None
            s = kernel.noise
            expected = s / (1.0 + s * omega)
            assert post.diagonal().shape == omega.shape
            assert np.allclose(post.diagonal(), expected, rtol=1e-14, atol=0.0)
            assert np.allclose(post.apply(omega), expected * omega, rtol=1e-14, atol=0.0)


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


def test_pg_mean_small_tilts_beside_large_ones_of_either_sign(rng):
    # whatever the extremes of the array, a tilt within the switch gives b/4
    for tilts in ([5e-9, 2.0, 1e4], [-5e-9, 2.0, 1e4], [-1e4, 0.0, 1e4], [-1e4, 3e-9, -2.0],
                  [-0.0, 40.0], [np.nan, 0.0, -1e4], [1e4, 1e-8, 7e-9]):
        c = np.array(tilts)
        b = rng.uniform(0.1, 5.0, size=c.size)
        out = pg_mean(b, c)
        small = np.abs(c) < _PG_SMALL_TILT
        assert np.array_equal(out[small], b[small] / 4.0), tilts
        for bi, ci, oi in zip(b, c, out):
            assert pg_mean(bi, ci) == oi or np.isnan(ci) and np.isnan(oi)
    # a NaN tilt stays NaN, alone or beside tilts of the b/4 limit
    assert np.isnan(pg_mean(1.0, np.nan))
    assert np.isnan(pg_mean(np.ones(3), np.array([0.0, np.nan, 2.0]))[1])


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
    batched = dirichlet_log_expectation(alpha)
    for row in range(4):
        expected = digamma(alpha[row]) - digamma(alpha[row].sum())
        assert np.allclose(batched[row], expected, atol=1e-13)


def test_dirichlet_log_expectation_rejects_nonpositive():
    with pytest.raises(ValueError):
        dirichlet_log_expectation(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        dirichlet_log_expectation(np.array([]))
    for bad in (np.nan, np.inf, -np.inf, 0.0, -0.0, -2.0):
        alpha = np.full((3, 4), 2.0)
        alpha[1, 2] = bad
        with pytest.raises(ValueError):
            dirichlet_log_expectation(alpha)
    assert np.all(np.isfinite(dirichlet_log_expectation(np.array([1e-300, 1e300]))))
