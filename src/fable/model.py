"""Feature-aware Bayesian label model with GP-driven subtype mixtures.

The subtype BCC core of :mod:`fable.baselines` is reused as is (start,
class prior, confusions, assignments), but the per-class mixture weights
become item-specific: latent GP values f_ikm over the feature cosine
kernel pass through a logistic-softmax, pi_ikm = sigmoid(f_ikm) /
sum_jn sigmoid(f_ijn).  Three augmentations restore conjugacy: an
exponential integral identity for the normaliser (lambda_i), a Poisson
count on top of it (upsilon_ikm), and a Polya-Gamma completion of the
sigmoids (omega_ikm).  Mean-field coordinate ascent then gives closed
forms for every block; only the mixture-weight blocks live here.  The
Gaussian block solves all class/subtype pairs at once with the exact
factor-plus-diagonal posterior in :mod:`fable.linalg`, so the kernel is
never formed or inverted.  Each block makes one pass per cell quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, psi

from .baselines import (
    EbccPriors,
    Posterior,
    SubtypeBccState,
    _finish,
    _iterate,
    _subtype_assignments,
    _subtype_start,
    ebcc_update_confusion,
    ebcc_update_tau,
)
from .data import Dataset
from .linalg import KernelMatrix, cosine_kernel, lowrank_posterior, pg_mean

__all__ = [
    "FableConfig",
    "FableState",
    "logistic_softmax",
    "fable_init",
    "fable_update_assignments",
    "fable_update_pi",
    "fable_update_gp",
    "fable_update_augmentation",
    "fable_update_lambda",
    "fable_fit",
]

# the confusion prior diagonal is beta_kk = N * M * _CONFUSION_SCALE
_CONFUSION_SCALE = 1000.0
# keeps the Gamma rate of q(pi) positive when the GP mean drifts above 2 log 2
_XI_FLOOR = 0.2


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

    ``lanczos_rank`` caps the rank r of the kernel factor behind the GP
    solve: features with more than r dimensions are replaced once per fit
    by their thin SVD truncated to r, and with at most r dimensions the
    solve is exact.  The fixed parts of the model are module constants:
    the confusion prior diagonal N * M * ``_CONFUSION_SCALE`` (the
    off-diagonal is the ``EbccPriors`` default), the rate floor
    ``_XI_FLOOR`` of q(pi), and the ``cosine_kernel`` default jitter.
    """

    subtypes: int = 3
    lanczos_rank: int = 100
    max_iters: int = 100
    tol: float = 1e-6


@dataclass
class FableState(SubtypeBccState):
    """The subtype BCC state with GP-driven mixture weights, shapes (N, K, M) unless noted.

    phi/xi: Gamma shape and rate of q(pi); m_hat/sigma_diag: GP
    posterior means and covariance diagonals; c: Polya-Gamma tilts;
    gamma: Poisson means; a/b: (N,) Gamma parameters of the normaliser
    q(lambda); kernel: shared GP prior.
    """

    phi: np.ndarray
    xi: np.ndarray
    m_hat: np.ndarray
    sigma_diag: np.ndarray
    c: np.ndarray
    gamma: np.ndarray
    a: np.ndarray
    b: np.ndarray
    kernel: KernelMatrix
    xi_clamps: int = 0


def _log_cosh(x: np.ndarray) -> np.ndarray:
    """log cosh(x) = |x| + log1p(exp(-2|x|)) - log 2; overwrites ``x``."""
    ax = np.abs(x, out=x)
    out = ax * -2.0
    np.log1p(np.exp(out, out=out), out=out)
    out += ax
    out -= np.log(2.0)
    return out


def fable_init(dataset: Dataset, config: FableConfig, seed: int = 0) -> FableState:
    """The shared majority-vote start plus uninformative draws for the GP block.

    The GP covariance starts at the cosine kernel itself, whose factor is
    truncated to ``lanczos_rank`` columns when the features are wider;
    m_hat and a are Uniform(0, 1), drawn from the stream that spread rho
    over subtypes; b is the augmented cell count K * M.  The class prior
    alpha takes the MV class masses and the confusion prior diagonal is
    N * M * ``_CONFUSION_SCALE``.
    """
    n, k, m = dataset.n_items, dataset.num_classes, config.subtypes
    priors = EbccPriors(beta_diag=float(n) * m * _CONFUSION_SCALE)
    rng = np.random.default_rng(seed)
    core = _subtype_start(dataset, m, priors, rng)
    kernel = cosine_kernel(dataset.features).truncated(config.lanczos_rank)
    state = FableState(
        **vars(core),
        phi=np.zeros((n, k, m)),
        xi=np.zeros((n, k, m)),
        m_hat=rng.uniform(size=(n, k, m)),
        sigma_diag=np.broadcast_to(kernel.diagonal()[:, None, None], (n, k, m)).copy(),
        c=np.zeros((n, k, m)),
        gamma=np.zeros((n, k, m)),
        a=rng.uniform(size=n),
        b=np.full(n, float(k * m)),
        kernel=kernel,
    )
    fable_update_pi(state)
    fable_update_augmentation(state)
    return state


def fable_update_assignments(state: FableState) -> FableState:
    """Assignments with the Gamma E[log pi_ikm] = psi(phi) - log(xi)."""
    elog_pi = psi(state.phi)
    elog_pi -= np.log(state.xi)
    return _subtype_assignments(state, elog_pi)


def fable_update_pi(state: FableState) -> FableState:
    """Gamma posterior of pi: shape rho + 1, rate log 2 - m_hat / 2.

    The rate is clamped at ``_XI_FLOOR`` (counted in ``xi_clamps``) since
    GP means above 2 log 2 would otherwise drive it nonpositive.
    """
    state.phi = state.rho + 1.0
    xi = state.m_hat / 2.0
    np.subtract(np.log(2.0), xi, out=xi)
    state.xi_clamps += int(np.count_nonzero(xi < _XI_FLOOR))
    state.xi = np.maximum(xi, _XI_FLOOR, out=xi)
    return state


def fable_update_gp(state: FableState) -> FableState:
    """Gaussian block: Sigma_hat = (Sigma^-1 + diag E[omega])^-1, m_hat = Sigma_hat rhs / 2.

    E[omega_ikm] is the Polya-Gamma mean with shape E[pi] + gamma and
    tilt c; the right-hand side is E[pi] - E[upsilon] = phi/xi - gamma.
    One batched solve covers every class/subtype pair, one column each.
    """
    shape = state.m_hat.shape
    epi = state.phi / state.xi
    omega = pg_mean(epi + state.gamma, state.c).reshape(shape[0], -1)
    post = lowrank_posterior(state.kernel, omega)
    rhs = np.subtract(epi, state.gamma, out=epi).reshape(omega.shape)
    state.m_hat = post.apply(rhs).reshape(shape)
    state.m_hat *= 0.5
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
    c = np.square(state.m_hat)
    c += state.sigma_diag
    state.c = np.sqrt(c, out=c)
    log_gamma = state.m_hat / 2.0
    np.subtract(psi(state.a)[:, None, None], log_gamma, out=log_gamma)
    log_gamma -= np.log(state.b)[:, None, None]
    log_gamma -= np.log(2.0)
    log_gamma -= _log_cosh(c / 2.0)
    np.minimum(log_gamma, 700.0, out=log_gamma)
    state.gamma = np.exp(log_gamma, out=log_gamma)
    return state


def fable_update_lambda(state: FableState) -> FableState:
    """Gamma posterior of the normaliser: a_i = sum_km gamma_ikm + 1, b_i = K * M.

    The rate is the constant ``fable_init`` set, the number of augmented
    Poisson cells per item, which makes the fixed point of E[lambda_i]
    recover 1 / sum_km sigma(f_ikm), the quantity the exponential
    integral identity introduces lambda for.  A smaller rate gives the
    gamma/a loop a gain above one and the sweep diverges geometrically.
    """
    state.a = state.gamma.sum(axis=(1, 2)) + 1.0
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
    state = fable_init(dataset, config, seed=seed)

    def sweep(_qz):
        fable_update_assignments(state)
        ebcc_update_tau(state)
        ebcc_update_confusion(state)
        fable_update_pi(state)
        fable_update_gp(state)
        fable_update_augmentation(state)
        fable_update_lambda(state)
        return state.qz

    qz, n_iters, diag = _iterate(state.qz, sweep, config.max_iters, config.tol)
    return _finish(
        qz,
        n_iters,
        **diag,
        xi_clamps=state.xi_clamps,
        gp_rank=int(state.kernel.factor.shape[1]),
    )
