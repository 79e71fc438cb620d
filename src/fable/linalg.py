"""Kernel construction and exact Gaussian posterior solves.

The GP step of the label model needs, for every class/subtype pair, the
posterior covariance ``(K^-1 + diag(omega))^-1`` together with its
action on a vector and its diagonal.  Every kernel here is kept as a
factor plus a diagonal, ``K = F F^T + diag(s)`` with F of shape (N, r),
and for that form the Woodbury identity gives the posterior exactly
through one r x r core per pair:

    Sigma_hat = diag(s t) + G C^-1 G^T,
    t = 1 / (1 + s omega),  G = diag(t) F,  C = I + F^T diag(omega t) F.

C has eigenvalues >= 1, so the core stays well conditioned even when s
is only the jitter, and no N x N matrix is formed or inverted.  Factors
wider than a requested rank are cut to their leading singular
directions first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import psi

__all__ = [
    "NumericalError",
    "KernelMatrix",
    "cosine_kernel",
    "SymmetricApprox",
    "lowrank_posterior",
    "pg_mean",
    "dirichlet_log_expectation",
]

# relative tilt below which the PG mean switches to its c -> 0 limit b/4
_PG_SMALL_TILT = 1e-8
# posterior columns are batched in chunks whose N x r temporaries, one
# per column, hold at most this many floats together (1 MB): this bounds
# memory for any number of columns, and at N = 10k, r = 2 it batched 30
# columns faster than one 16 MB chunk did (9.4 against 12.5 ms a sweep
# on a 2-core 2.1 GHz Xeon VM with one BLAS thread); ``metrics`` bounds
# its blocks of distance rows by the same count
_CHUNK_ELEMENTS = 1 << 17


class NumericalError(RuntimeError):
    """A numerical routine produced non-finite or invalid intermediates."""


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric PSD matrix ``factor @ factor.T + diag(noise)``.

    ``factor`` has shape (N, r), so storage and matvec cost O(N * r);
    nothing N x N is materialised unless ``values`` is asked for.
    ``noise`` is the (N,) diagonal s, jitter included.
    """

    factor: np.ndarray
    noise: np.ndarray

    @classmethod
    def from_dense(cls, matrix: np.ndarray, jitter: float = 0.0) -> "KernelMatrix":
        """Factor a dense symmetric matrix once by ``eigh``, clipping negative eigenvalues to 0.

        The factor keeps one column per eigenvalue above rounding level,
        so its width is the numerical rank of ``matrix``.
        """
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("kernel matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("kernel matrix must be finite")
        if not np.allclose(m, m.T, atol=1e-8):
            raise ValueError("kernel matrix must be symmetric")
        if jitter < 0:
            raise ValueError("jitter must be nonnegative")
        evals, evecs = np.linalg.eigh(0.5 * (m + m.T))
        # keep the numerical rank only: clipped and rounding-level
        # directions would widen every core without changing the kernel
        keep = evals > evals.max(initial=0.0) * m.shape[0] * np.finfo(float).eps
        return cls(
            factor=evecs[:, keep] * np.sqrt(evals[keep]),
            noise=np.full(m.shape[0], float(jitter)),
        )

    @property
    def n(self) -> int:
        return self.factor.shape[0]

    def truncated(self, rank: int) -> "KernelMatrix":
        """This kernel with its factor cut to the leading ``rank`` singular directions.

        A factor with at most ``rank`` columns is kept as it is, so the
        kernel stays exact.
        """
        if rank < 1:
            raise ValueError("rank must be at least 1")
        if self.factor.shape[1] <= rank:
            return self
        u, sv, _ = np.linalg.svd(self.factor, full_matrices=False)
        return replace(self, factor=u[:, :rank] * sv[:rank])

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return self.factor @ (self.factor.T @ v) + (self.noise * v.T).T

    def diagonal(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.factor, self.factor) + self.noise

    @property
    def values(self) -> np.ndarray:
        """Materialised dense matrix; only sensible for small N."""
        base = self.factor @ self.factor.T
        base[np.diag_indices(self.n)] += self.noise
        return base

    def weighted_square_rowsum(self, weights: np.ndarray) -> np.ndarray:
        """Row-wise sum_l weights[l] * K[i, l]**2 without forming K."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.n,):
            raise ValueError("weights must have one entry per row")
        f = self.factor
        second_moment = f.T @ (w[:, None] * f)
        core = np.einsum("id,de,ie->i", f, second_moment, f)
        # off-diagonal entries are plain inner products; the diagonal also
        # carries the noise term, so patch that in.
        inner_diag = np.einsum("ij,ij->i", f, f)
        return core + w * ((inner_diag + self.noise) ** 2 - inner_diag ** 2)


def cosine_kernel(features: np.ndarray, jitter: float = 1e-4) -> KernelMatrix:
    """Pairwise cosine similarity of feature rows plus ``jitter`` on the diagonal.

    All-zero feature rows have no direction, so they get similarity 0 to
    every other item and 1 to themselves, keeping the diagonal at
    1 + jitter everywhere.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("features must be a nonempty 2-D array")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    if jitter < 0:
        raise ValueError("jitter must be nonnegative")
    norms = np.linalg.norm(x, axis=1)
    zero = norms == 0.0
    normalized = x / np.where(zero, 1.0, norms)[:, None]
    return KernelMatrix(factor=normalized, noise=zero.astype(float) + float(jitter))


def _column_chunks(n: int, r: int, p: int):
    """Slices over P columns, each of at most max(1, _CHUNK_ELEMENTS // (N * r)) columns."""
    step = max(1, _CHUNK_ELEMENTS // max(n * r, 1))
    return (slice(start, start + step) for start in range(0, p, step))


@dataclass(frozen=True)
class SymmetricApprox:
    """Posterior covariances (K^-1 + diag(omega_p))^-1, one per column p of omega.

    ``scale`` holds t = 1 / (1 + s omega) in the shape of omega and
    ``core_inv`` the inverted r x r cores, shape (P, r, r).  ``apply``
    and ``diagonal`` work column by column and keep that shape, so a
    1-D omega gives 1-D results.  ``rank`` is r, the factor width used.
    """

    prior: KernelMatrix
    scale: np.ndarray
    core_inv: np.ndarray
    rank: int

    def apply(self, vec: np.ndarray) -> np.ndarray:
        v = np.asarray(vec, dtype=float)
        if v.shape != self.scale.shape:
            raise ValueError("vector shape must match omega")
        f = self.prior.factor
        t = self.scale.reshape(self.prior.n, -1)
        tv = t * v.reshape(t.shape)
        inner = np.matmul(self.core_inv, (f.T @ tv).T[:, :, None])[:, :, 0]
        out = self.prior.noise[:, None] * tv + t * (f @ inner.T)
        return out.reshape(v.shape)

    def diagonal(self) -> np.ndarray:
        f_rows = np.ascontiguousarray(self.prior.factor.T)
        r, n = f_rows.shape
        t = self.scale.reshape(n, -1)
        quad = np.empty_like(t)
        for chunk in _column_chunks(n, r, t.shape[1]):
            quad[:, chunk] = np.einsum("prn,rn->np", self.core_inv[chunk] @ f_rows, f_rows)
        diag = self.prior.noise[:, None] * t + t * t * quad
        return np.maximum(diag, 0.0).reshape(self.scale.shape)


def lowrank_posterior(
    prior: KernelMatrix,
    omega: np.ndarray,
    rank: int | None = None,
) -> SymmetricApprox:
    """Exact (K^-1 + diag(omega))^-1 for every column of omega, without inverting K.

    ``omega`` has shape (N,) for one solve or (N, P) for P solves that
    share the prior.  ``rank`` caps the factor width r first (see
    ``KernelMatrix.truncated``); None keeps the whole factor.  Cost is
    O(N * r^2) per column.  Columns are batched in chunks, so no
    temporary holds more than the larger of N * r floats and 1 MB,
    however many columns omega has.
    """
    w = np.asarray(omega, dtype=float)
    if w.ndim not in (1, 2) or w.shape[0] != prior.n:
        raise ValueError("omega must have one row per item")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("omega must be finite and nonnegative")
    if rank is not None:
        prior = prior.truncated(rank)
    f = prior.factor
    n, r = f.shape
    cols = w.reshape(n, -1)
    p = cols.shape[1]
    t = 1.0 / (1.0 + prior.noise[:, None] * cols)
    weights = np.ascontiguousarray((cols * t).T)
    f_rows = np.ascontiguousarray(f.T)
    core = np.empty((p, r, r))
    for chunk in _column_chunks(n, r, p):
        core[chunk] = (f_rows * weights[chunk, None, :]) @ f
    core += np.eye(r)
    return SymmetricApprox(
        prior=prior,
        scale=t.reshape(w.shape),
        core_inv=np.linalg.inv(core),
        rank=r,
    )


def pg_mean(b, c):
    """Mean of a Polya-Gamma PG(b, c) variable.

    Equals b/(2c) * tanh(c/2), with the exact limit b/4 used for tilts
    near zero; even in c.  0-d inputs give a float.
    """
    b_arr, c_arr = np.broadcast_arrays(
        np.asarray(b, dtype=float), np.asarray(c, dtype=float)
    )
    small = np.abs(c_arr) < _PG_SMALL_TILT
    safe = np.where(small, 1.0, c_arr) if small.any() else c_arr
    out = np.divide(safe, 2.0, out=np.empty(safe.shape))
    np.tanh(out, out=out)
    out *= b_arr
    out /= 2.0 * safe
    if safe is not c_arr:  # some tilt is below the switch
        np.copyto(out, b_arr / 4.0, where=small)
    if out.ndim == 0:
        return float(out)
    return out


def dirichlet_log_expectation(alpha: np.ndarray, axis: int = -1) -> np.ndarray:
    """E[log x] under Dirichlet(alpha): psi(alpha_k) - psi(sum alpha).

    Works over the given axis so batched parameter arrays evaluate in one
    call.
    """
    a = np.asarray(alpha, dtype=float)
    if a.size == 0:
        raise ValueError("alpha must be nonempty")
    if not np.all(np.isfinite(a)) or np.any(a <= 0):
        raise ValueError("alpha entries must be positive and finite")
    return psi(a) - psi(a.sum(axis=axis, keepdims=True))
