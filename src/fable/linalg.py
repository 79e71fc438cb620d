"""Kernel construction and exact Gaussian posterior solves.

The GP step of the label model needs, for every class/subtype pair, the
posterior covariance ``(K^-1 + diag(omega))^-1`` together with its
action on a vector and its diagonal.  Every kernel here is kept as a
factor plus a diagonal, ``K = F^T F + diag(s)`` with F of shape (r, N),
one row f_a of N items per factor direction, and for that form the
Woodbury identity gives the posterior exactly through one r x r core
per pair:

    Sigma_hat = diag(s t) + G^T C^-1 G,
    t = 1 / (1 + s omega),  G = F diag(t),  C = I + F diag(omega t) F^T.

C has eigenvalues >= 1, so the core stays well conditioned even when s
is only the jitter, and no N x N matrix is formed or inverted.  Factors
wider than a requested rank are cut to their leading singular
directions first.

Every batched operand is (..., N), one solve per leading index, so the
label model's C-ordered (K, M, N) cells are solved as they are and no
solve transposes.  The cores and the quadratic forms f_i^T C_p^-1 f_i
of the posterior diagonal, f_i being column i of F, are built in one
of two forms, chosen from N and r alone.  A narrow factor, whose
(r^2, N) matrix Q of pairwise row products f_a * f_b fits in
``_CHUNK_ELEMENTS``, gets all P cores as one product ``(omega t) Q^T``
and all quadratic forms as one product ``vec(C_p^-1)^T Q``.  A wider
factor, such as a 100-feature embedding, solves one pair at a time
instead: each core is one (r, N) by (N, r) product and each row of
quadratic forms one (r, r) by (r, N) product.  Both forms do P r^2 N
multiply-adds; Q costs memory, r^2 N floats or r times the factor,
built by each narrow solve and streamed by its two products, where the
per-pair form streams the factor P times.  Both forms finish the
variances the same way, t (t quad + s).  Nothing is kept between
solves: a kernel is only its factor and diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
# added to the cosine kernel's diagonal, keeping it strictly positive definite
_KERNEL_JITTER = 1e-4
# the floats (1 MB) that the pair matrix Q of a narrow factor may hold;
# a wider factor is solved one pair at a time, with r x N temporaries
_CHUNK_ELEMENTS = 1 << 17


class NumericalError(RuntimeError):
    """A numerical routine produced non-finite or invalid intermediates."""


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Symmetric PSD matrix ``rows.T @ rows + diag(noise)``.

    ``rows`` is the C-ordered (r, N) factor F, one row f_a of N items
    per factor direction, so storage and matvec cost O(N * r); nothing
    N x N is materialised unless ``values`` is asked for.  ``noise`` is
    the (N,) diagonal s, jitter included.  A kernel is not modified
    after it is built and keeps nothing else.
    """

    rows: np.ndarray
    noise: np.ndarray

    @classmethod
    def from_dense(cls, matrix: np.ndarray, jitter: float = 0.0) -> "KernelMatrix":
        """Factor a dense symmetric matrix once by ``eigh``, clipping negative eigenvalues to 0.

        The factor keeps one row per eigenvalue above rounding level,
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
            rows=np.multiply(np.sqrt(evals[keep])[:, None], evecs[:, keep].T, order="C"),
            noise=np.full(m.shape[0], float(jitter)),
        )

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    def truncated(self, rank: int) -> "KernelMatrix":
        """This kernel with its factor cut to the leading ``rank`` singular directions.

        A factor with at most ``rank`` rows is kept as it is, so the
        kernel stays exact.
        """
        if rank < 1:
            raise ValueError("rank must be at least 1")
        if self.rows.shape[0] <= rank:
            return self
        u, sv, _ = np.linalg.svd(self.rows.T, full_matrices=False)
        return replace(self, rows=np.multiply(sv[:rank, None], u[:, :rank].T, order="C"))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return self.rows.T @ (self.rows @ v) + (self.noise * v.T).T

    def diagonal(self) -> np.ndarray:
        return np.einsum("rn,rn->n", self.rows, self.rows) + self.noise

    @property
    def values(self) -> np.ndarray:
        """Materialised dense matrix; only sensible for small N."""
        base = self.rows.T @ self.rows
        base[np.diag_indices(self.n)] += self.noise
        return base

    def weighted_square_rowsum(self, weights: np.ndarray) -> np.ndarray:
        """Row-wise sum_l weights[l] * K[i, l]**2 without forming K."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.n,):
            raise ValueError("weights must have one entry per row")
        f = self.rows
        second_moment = (f * w) @ f.T
        core = np.einsum("dn,de,en->n", f, second_moment, f)
        # off-diagonal entries are plain inner products; the diagonal also
        # carries the noise term, so patch that in.
        inner_diag = np.einsum("rn,rn->n", f, f)
        return core + w * ((inner_diag + self.noise) ** 2 - inner_diag ** 2)


def cosine_kernel(features: np.ndarray) -> KernelMatrix:
    """Pairwise cosine similarity of feature rows plus ``_KERNEL_JITTER`` on the diagonal.

    All-zero feature rows have no direction, so they get similarity 0 to
    every other item and 1 to themselves, keeping the diagonal at
    1 + jitter everywhere.  The factor rows are the normalised features.
    Each row is first scaled, exactly, by the power of two that brings its
    largest magnitude into [0.5, 1), so the squares of its norm cannot
    overflow or underflow at extreme but finite scales.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("features must be a nonempty 2-D array")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    rows = x.T.copy()  # max and min over its D rows pass along the items, not item by item
    top = np.maximum(rows.max(axis=0, initial=0.0), -rows.min(axis=0, initial=0.0))
    np.ldexp(rows, -np.frexp(top)[1], out=rows)
    # sums of squares as np.linalg.norm forms them, item-major like the
    # features, so each item's add in the same order; rows is the one copy
    norms = np.sqrt(np.square(rows.T, order="C").sum(axis=1))
    zero = norms == 0.0
    rows /= np.where(zero, 1.0, norms)
    return KernelMatrix(rows=rows, noise=zero.astype(float) + _KERNEL_JITTER)


@dataclass(frozen=True, eq=False)
class SymmetricApprox:
    """Posterior covariances (K^-1 + diag(omega_p))^-1, one per leading index p of omega.

    ``scale`` holds t = 1 / (1 + s omega) in omega's shape (..., N) and
    ``core_inv`` the P inverted r x r cores, (P, r, r), one per solve.
    ``apply`` and ``diagonal`` work solve by solve and keep omega's
    shape.  ``rank`` is r, the factor width used.  ``pairs`` is the Q
    that this solve built for a narrow factor (see the module docstring)
    and None for a wide one, which ``diagonal`` solves one pair at a time.
    ``apply`` allocates its result and one temporary of omega's size,
    ``diagonal`` only its result; every other temporary holds at most
    the larger of N * r floats and Q.
    """

    prior: KernelMatrix
    scale: np.ndarray
    core_inv: np.ndarray
    rank: int
    pairs: np.ndarray | None

    def apply(self, vec: np.ndarray) -> np.ndarray:
        v = np.asarray(vec, dtype=float)
        if v.shape != self.scale.shape:
            raise ValueError("vector shape must match omega")
        f = self.prior.rows
        t = self.scale.reshape(-1, self.prior.n)
        tv = t * v.reshape(t.shape)
        inner = np.matmul(self.core_inv, (tv @ f.T)[:, :, None])[:, :, 0]
        out = inner @ f
        out *= t
        tv *= self.prior.noise
        out += tv
        return out.reshape(v.shape)

    def diagonal(self) -> np.ndarray:
        f = self.prior.rows
        r, n = f.shape
        t = self.scale.reshape(-1, n)
        # quad_pi = f_i^T C_p^-1 f_i, then t (t quad + s) in place
        if self.pairs is not None:
            quad = self.core_inv.reshape(t.shape[0], r * r) @ self.pairs
        else:
            quad = np.empty_like(t)
            for row, core_inv in zip(quad, self.core_inv):
                np.einsum("rn,rn->n", core_inv @ f, f, out=row)
        quad *= t
        quad += self.prior.noise
        quad *= t
        return np.maximum(quad, 0.0, out=quad).reshape(self.scale.shape)


def lowrank_posterior(
    prior: KernelMatrix,
    omega: np.ndarray,
    rank: int | None = None,
) -> SymmetricApprox:
    """Exact (K^-1 + diag(omega))^-1 for every leading index of omega, without inverting K.

    ``omega`` has shape (..., N): (N,) for one solve, or any leading
    shape, such as the label model's (K, M, N) cells, for one solve per
    leading index, all sharing the prior.  ``rank`` caps the factor
    width r first (see ``KernelMatrix.truncated``); None keeps the whole
    factor.  A ``rank`` below the factor width runs a thin SVD on every
    call; ``fable_init`` truncates once instead.  Cost is O(N * r^2) per
    solve.  A narrow factor gets every core from one product with the
    pair matrix Q that the solve builds, which holds at most 1 MB; a
    wider one gets each solve's core from its own product.
    Either way no temporary holds more than the larger of N * r floats
    and 1 MB, however many solves omega holds.
    """
    w = np.asarray(omega, dtype=float)
    if w.ndim < 1 or w.shape[-1] != prior.n:
        raise ValueError("omega must have one column per item")
    # a NaN fails both comparisons; the initial 0 passes an empty batch
    if not (w.min(initial=0.0) >= 0.0 and w.max(initial=0.0) < np.inf):
        raise ValueError("omega must be finite and nonnegative")
    if rank is not None:
        prior = prior.truncated(rank)
    f = prior.rows
    r, n = f.shape
    cells = w.reshape(-1, n)
    p = cells.shape[0]
    t = cells * prior.noise
    t += 1.0
    np.divide(1.0, t, out=t)
    weights = cells * t
    pairs = (f[:, None, :] * f).reshape(r * r, n) if n * r * r <= _CHUNK_ELEMENTS else None
    if pairs is not None:
        core = (weights @ pairs.T).reshape(p, r, r)
    else:
        core = np.empty((p, r, r))
        for row, weight in zip(core, weights):
            np.matmul(f * weight, f.T, out=row)
    core.reshape(p, r * r)[:, ::r + 1] += 1.0
    return SymmetricApprox(
        prior=prior,
        scale=t.reshape(w.shape),
        core_inv=np.linalg.inv(core),
        rank=r,
        pairs=pairs,
    )


def pg_mean(b, c):
    """Mean of a Polya-Gamma PG(b, c) variable.

    Equals b/(2c) * tanh(c/2), with the exact limit b/4 used for tilts
    near zero; even in c.  0-d inputs give a float.
    """
    b_arr, c_arr = np.broadcast_arrays(
        np.asarray(b, dtype=float), np.asarray(c, dtype=float)
    )
    # one reduction clears the nonnegative tilts of a fit; a NaN fails it
    small = None if c_arr.min(initial=np.inf) >= _PG_SMALL_TILT else np.abs(c_arr) < _PG_SMALL_TILT
    safe = c_arr if small is None or not small.any() else np.where(small, 1.0, c_arr)
    out = np.divide(safe, 2.0, out=np.empty(safe.shape))
    np.tanh(out, out=out)
    out *= b_arr
    out /= safe
    out /= 2.0
    if safe is not c_arr:  # some tilt is below the switch
        np.copyto(out, b_arr / 4.0, where=small)
    if out.ndim == 0:
        return float(out)
    return out


def dirichlet_log_expectation(alpha: np.ndarray) -> np.ndarray:
    """E[log x] under Dirichlet(alpha): psi(alpha_k) - psi(sum alpha).

    Works over the last axis so batched parameter arrays evaluate in one
    call.
    """
    a = np.asarray(alpha, dtype=float)
    if a.size == 0:
        raise ValueError("alpha must be nonempty")
    if not (a.min() > 0.0 and a.max() < np.inf):  # a NaN fails both
        raise ValueError("alpha entries must be positive and finite")
    from scipy.special import psi

    return psi(a) - psi(a.sum(axis=-1, keepdims=True))
