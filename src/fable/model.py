"""Feature-aware Bayesian label model with GP-driven subtype mixtures.

The subtype BCC likelihood is kept, but the per-class mixture weights
become item-specific: latent GP values f_ikm over the feature cosine
kernel pass through a logistic-softmax, pi_ikm = sigmoid(f_ikm) /
sum_jn sigmoid(f_ijn).  Three augmentations restore conjugacy: an
exponential integral identity for the normaliser (lambda_i), a Poisson
count on top of it (upsilon_ikm), and a Polya-Gamma completion of the
sigmoids (omega_ikm).  Mean-field coordinate ascent then gives closed
forms for every block.  The Gaussian block solves all class/subtype
pairs at once with the exact factor-plus-diagonal posterior in
:mod:`fable.linalg`, so the kernel is never formed or inverted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import expit, psi

from .baselines import (
    Posterior,
    _finish,
    _confusion_counts,
    _normalize_log_scores,
    _vote_log_scores,
    majority_vote,
    vote_onehot,
)
from .data import Dataset
from .linalg import (
    KernelMatrix,
    cosine_kernel,
    dirichlet_log_expectation,
    lowrank_posterior,
    pg_mean,
)

__all__ = [
    "FableConfig",
    "FableState",
    "logistic_softmax",
    "fable_init",
    "fable_update_assignments",
    "fable_update_tau",
    "fable_update_confusion",
    "fable_update_pi",
    "fable_update_gp",
    "fable_update_augmentation",
    "fable_update_lambda",
    "fable_fit",
]

def logistic_softmax(f: np.ndarray) -> np.ndarray:
    """sigmoid(f) normalised over the trailing class/subtype plane.

    Accepts (K, M) or any batch (..., K, M); rows of the trailing plane
    sum to one.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim < 2:
        raise ValueError("expected a (K, M) plane of latent values")
    sig = expit(f)
    return sig / sig.sum(axis=(-2, -1), keepdims=True)


@dataclass(frozen=True)
class FableConfig:
    """Knobs of the feature-aware model.

    ``confusion_scale`` is the C in the diagonal confusion prior
    beta_kk = N * M * C; ``beta_diag`` overrides that product when set.
    ``lanczos_rank`` caps the rank r of the kernel factor behind the GP
    solve: features with more than r dimensions are replaced once per fit
    by their thin SVD truncated to r, and with at most r dimensions the
    solve is exact.  ``xi_floor`` keeps the Gamma rate of q(pi) positive
    when the GP mean drifts above 2 log 2.
    """

    subtypes: int = 3
    confusion_scale: float = 1000.0
    beta_diag: float | None = None
    beta_offdiag: float = 1.0
    kernel_jitter: float = 1e-4
    lanczos_rank: int = 100
    max_iters: int = 100
    tol: float = 1e-6
    xi_floor: float = 0.2


@dataclass
class FableState:
    """Variational posteriors and augmentation moments, shapes (N, K, M) unless noted.

    rho: joint q(z, g); nu: (K,) class Dirichlet; mu: (L, K, M, K)
    confusion Dirichlets; phi/xi: Gamma shape and rate of q(pi);
    m_hat/sigma_diag: GP posterior means and covariance diagonals;
    c: Polya-Gamma tilts; gamma: Poisson means; a/b: (N,) Gamma
    parameters of the normaliser q(lambda); kernel: shared GP prior;
    onehot: the (N, L*K) vote indicator of :func:`fable.baselines.vote_onehot`.
    """

    rho: np.ndarray
    nu: np.ndarray
    mu: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    m_hat: np.ndarray
    sigma_diag: np.ndarray
    c: np.ndarray
    gamma: np.ndarray
    a: np.ndarray
    b: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    kernel: KernelMatrix
    onehot: sparse.csr_matrix
    xi_clamps: int = 0

    @property
    def qz(self) -> np.ndarray:
        return self.rho.sum(axis=2)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)


def fable_init(dataset: Dataset, config: FableConfig, seed: int = 0) -> FableState:
    """Majority-vote warm start plus uninformative draws for the GP block.

    rho is the MV posterior spread over subtypes by a per-item Dirichlet
    draw; the GP covariance starts at the cosine kernel itself, whose
    factor is truncated to ``lanczos_rank`` columns when the features are
    wider; m_hat and a are Uniform(0, 1); b is the augmented cell count
    K * M.  The class prior alpha takes the MV class masses and the
    confusion prior diagonal is N * M * C.
    """
    if config.subtypes < 1:
        raise ValueError("need at least one subtype")
    n, k, m = dataset.n_items, dataset.num_classes, config.subtypes
    rng = np.random.default_rng(seed)
    mv = majority_vote(dataset).probs
    subtype_weights = rng.dirichlet(np.ones(m), size=n)
    rho = mv[:, :, None] * subtype_weights[:, None, :]
    rho /= rho.sum(axis=(1, 2), keepdims=True)

    m_hat = rng.uniform(size=(n, k, m))
    a = rng.uniform(size=n)
    b = np.full(n, float(k * m))

    beta_diag = (
        float(config.beta_diag)
        if config.beta_diag is not None
        else float(n) * m * config.confusion_scale
    )
    beta = np.full((k, k), float(config.beta_offdiag))
    np.fill_diagonal(beta, beta_diag)

    kernel = cosine_kernel(dataset.features, jitter=config.kernel_jitter).truncated(
        config.lanczos_rank
    )
    state = FableState(
        rho=rho,
        nu=np.zeros(k),
        mu=np.zeros((dataset.n_lfs, k, m, k)),
        phi=np.zeros((n, k, m)),
        xi=np.zeros((n, k, m)),
        m_hat=m_hat,
        sigma_diag=np.broadcast_to(kernel.diagonal()[:, None, None], (n, k, m)).copy(),
        c=np.zeros((n, k, m)),
        gamma=np.zeros((n, k, m)),
        a=a,
        b=b,
        alpha=mv.sum(axis=0),
        beta=beta,
        kernel=kernel,
        onehot=vote_onehot(dataset.lf_labels, k),
    )
    fable_update_tau(state)
    fable_update_confusion(state, dataset)
    fable_update_pi(state, config)
    fable_update_augmentation(state)
    return state


def fable_update_assignments(state: FableState, dataset: Dataset) -> FableState:
    """rho_ikm propto exp(E[log tau_k] + E[log pi_ikm] + sum_j E[log v_jkm,y_ij]).

    The votes are read from ``state.onehot``, built from ``dataset`` at init.
    """
    elog_tau = dirichlet_log_expectation(state.nu)
    elog_pi = psi(state.phi) - np.log(state.xi)
    elog_v = dirichlet_log_expectation(state.mu, axis=-1)
    scores = elog_tau[None, :, None] + elog_pi
    scores = scores + _vote_log_scores(elog_v, state.onehot)
    state.rho, _ = _normalize_log_scores(scores)
    return state


def fable_update_tau(state: FableState) -> FableState:
    state.nu = state.alpha + state.rho.sum(axis=(0, 2))
    return state


def fable_update_confusion(state: FableState, dataset: Dataset) -> FableState:
    """mu_jkm = beta_k + soft counts of LF j's votes, from ``state.onehot``."""
    counts = _confusion_counts(state.rho, state.onehot)
    state.mu = state.beta[None, :, None, :] + counts
    return state


def fable_update_pi(state: FableState, config: FableConfig) -> FableState:
    """Gamma posterior of pi: shape rho + 1, rate log 2 - m_hat / 2.

    The rate is clamped at ``xi_floor`` (counted in ``xi_clamps``) since
    GP means above 2 log 2 would otherwise drive it nonpositive.
    """
    state.phi = state.rho + 1.0
    raw = np.log(2.0) - state.m_hat / 2.0
    state.xi_clamps += int((raw < config.xi_floor).sum())
    state.xi = np.maximum(raw, config.xi_floor)
    return state


def fable_update_gp(state: FableState, config: FableConfig) -> FableState:
    """Gaussian block: Sigma_hat = (Sigma^-1 + diag E[omega])^-1, m_hat = Sigma_hat rhs / 2.

    E[omega_ikm] is the Polya-Gamma mean with shape E[pi] + gamma and
    tilt c; the right-hand side is E[pi] - E[upsilon] = phi/xi - gamma.
    One batched solve covers every class/subtype pair, one column each.
    """
    shape = state.m_hat.shape
    epi = state.phi / state.xi
    omega = pg_mean(epi + state.gamma, state.c).reshape(shape[0], -1)
    post = lowrank_posterior(state.kernel, omega)
    rhs = (epi - state.gamma).reshape(omega.shape)
    state.m_hat = 0.5 * post.apply(rhs).reshape(shape)
    state.sigma_diag = post.diagonal().reshape(shape)
    return state


def fable_update_augmentation(state: FableState) -> FableState:
    """Polya-Gamma tilts c = sqrt(m_hat^2 + Sigma_hat_ii) and Poisson means gamma.

    gamma_ikm = exp(psi(a_i) - m_hat/2) / (b_i * 2 cosh(c/2)), evaluated
    in log space so large tilts cannot overflow.  The 2 cosh(c/2) factor
    is exp(-E[log sigmoid(-f)] - f/2): gamma approximates
    E[lambda] * sigmoid(-m_hat), the posterior count of the exponential
    slack each cell carries, which keeps the normaliser fixed point at
    E[lambda] = 1 / sum_km sigmoid(f_ikm).
    """
    state.c = np.sqrt(state.m_hat ** 2 + state.sigma_diag)
    log_gamma = (
        psi(state.a)[:, None, None]
        - state.m_hat / 2.0
        - np.log(state.b)[:, None, None]
        - np.log(2.0)
        - _log_cosh(state.c / 2.0)
    )
    state.gamma = np.exp(np.minimum(log_gamma, 700.0))
    return state


def fable_update_lambda(state: FableState) -> FableState:
    """Gamma posterior of the normaliser: a_i = sum_km gamma_ikm + 1, b_i = K * M.

    The rate equals the number of augmented Poisson cells per item, which
    makes the fixed point of E[lambda_i] recover 1 / sum_km sigma(f_ikm),
    the quantity the exponential integral identity introduces lambda for.
    A smaller rate gives the gamma/a loop a gain above one and the sweep
    diverges geometrically.
    """
    state.a = state.gamma.sum(axis=(1, 2)) + 1.0
    state.b = np.full(state.a.shape, float(state.rho.shape[1] * state.rho.shape[2]))
    return state


def fable_fit(
    dataset: Dataset,
    config: FableConfig | None = None,
    seed: int = 0,
) -> Posterior:
    """Coordinate ascent over all blocks; stops when max |change in q(z)| < tol.

    Sweep order: assignments, class prior, confusions, mixture rates, GP
    block, augmentation moments, normaliser.
    """
    config = config or FableConfig()
    start = time.perf_counter()
    state = fable_init(dataset, config, seed=seed)
    qz = state.qz
    deltas = []
    converged = False
    n_iters = 0
    for n_iters in range(1, config.max_iters + 1):
        fable_update_assignments(state, dataset)
        fable_update_tau(state)
        fable_update_confusion(state, dataset)
        fable_update_pi(state, config)
        fable_update_gp(state, config)
        fable_update_augmentation(state)
        fable_update_lambda(state)
        new_qz = state.qz
        delta = float(np.max(np.abs(new_qz - qz)))
        deltas.append(delta)
        qz = new_qz
        if delta < config.tol:
            converged = True
            break
    return _finish(
        qz,
        n_iters,
        converged=converged,
        delta_trace=deltas,
        xi_clamps=state.xi_clamps,
        gp_rank=int(state.kernel.factor.shape[1]),
        wall_time_ms=1000.0 * (time.perf_counter() - start),
    )
