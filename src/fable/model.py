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
never formed or inverted.  Every per-cell array is C-ordered (K, M, N),
and that solve takes the cells in that shape, one solve per (k, m).
Each block makes one pass per cell quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import (
    Posterior,
    SubtypeBccState,
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
# bounds the rank of the kernel factor, which sets the cost of each GP
# solve: features wider than 100 are cut once per fit to their 100 leading
# singular directions (thin SVD); narrower features are solved exactly
_GP_RANK = 100


@dataclass(frozen=True)
class FableConfig:
    """Knobs of the feature-aware model.

    The fixed parts of the model are module constants: the confusion
    prior diagonal N * M * ``_CONFUSION_SCALE`` (the off-diagonal is the
    BCC ``_BETA_OFFDIAG``), the rate floor ``_XI_FLOOR`` of q(pi), the
    kernel factor rank cap ``_GP_RANK``, and the kernel jitter
    ``linalg._KERNEL_JITTER``.
    """

    subtypes: int = 3
    max_iters: int = 100
    tol: float = 1e-6


@dataclass
class FableState(SubtypeBccState):
    """The subtype BCC state with GP-driven mixture weights, C-ordered (K, M, N) unless noted.

    xi: Gamma rate of q(pi), whose shape is rho + 1; m_hat: GP
    posterior means; c: Polya-Gamma tilts sqrt(m_hat^2 + Sigma_hat_ii),
    written with m_hat by the GP block; gamma: Poisson means; a: (N,)
    Gamma shape of the normaliser q(lambda), whose rate is the constant
    K * M; kernel: shared GP prior.
    """

    xi: np.ndarray
    m_hat: np.ndarray
    c: np.ndarray
    gamma: np.ndarray
    a: np.ndarray
    kernel: KernelMatrix
    xi_clamps: int = 0


def fable_init(dataset: Dataset, config: FableConfig, seed: int = 0) -> FableState:
    """The shared majority-vote start plus uninformative draws for the GP block.

    The GP covariance starts at the cosine kernel itself, whose factor is
    truncated to ``_GP_RANK`` rows when the features are wider;
    m_hat and a are Uniform(0, 1), drawn per item from the stream that
    spread rho over subtypes, and the tilts c follow from m_hat and the
    kernel diagonal.  The confusion prior diagonal is N * M *
    ``_CONFUSION_SCALE``.
    """
    n, k, m = dataset.n_items, dataset.num_classes, config.subtypes
    rng = np.random.default_rng(seed)
    core = _subtype_start(dataset, m, float(n) * m * _CONFUSION_SCALE, rng)
    kernel = cosine_kernel(dataset.features).truncated(_GP_RANK)
    m_hat = rng.uniform(size=(n, k, m)).transpose(1, 2, 0).copy()
    c = np.square(m_hat)
    c += kernel.diagonal()
    state = FableState(
        **vars(core),
        xi=np.zeros((k, m, n)),
        m_hat=m_hat,
        c=np.sqrt(c, out=c),
        gamma=np.zeros((k, m, n)),
        a=rng.uniform(size=n),
        kernel=kernel,
    )
    fable_update_pi(state)
    fable_update_augmentation(state)
    return state


def fable_update_assignments(state: FableState) -> None:
    """Assignments with the Gamma E[log pi_ikm] = psi(rho + 1) - log(xi)."""
    from scipy.special import psi

    elog_pi = state.rho + 1.0
    psi(elog_pi, out=elog_pi)
    elog_pi -= np.log(state.xi)
    _subtype_assignments(state, elog_pi)


def fable_update_pi(state: FableState) -> None:
    """Gamma rate of q(pi), log 2 - m_hat / 2; its shape rho + 1 is not stored.

    The rate is clamped at ``_XI_FLOOR`` (counted in ``xi_clamps``) since
    GP means above 2 log 2 would otherwise drive it nonpositive.
    """
    xi = state.m_hat / 2.0
    np.subtract(np.log(2.0), xi, out=xi)
    state.xi_clamps += int(np.count_nonzero(xi < _XI_FLOOR))
    state.xi = np.maximum(xi, _XI_FLOOR, out=xi)


def fable_update_gp(state: FableState) -> None:
    """Gaussian block: Sigma_hat = (Sigma^-1 + diag E[omega])^-1, m_hat = Sigma_hat rhs / 2.

    E[omega_ikm] is the Polya-Gamma mean with shape E[pi] + gamma and
    tilt c; the right-hand side is E[pi] - E[upsilon] = (rho + 1)/xi - gamma.
    One batched solve covers every class/subtype pair, in the cells' shape.
    The new tilts c = sqrt(m_hat^2 + Sigma_hat_ii) are the only use of
    the covariance diagonal, so it is not stored.
    """
    epi = state.rho + 1.0
    epi /= state.xi
    omega = pg_mean(epi + state.gamma, state.c)
    post = lowrank_posterior(state.kernel, omega)
    # only the solve reads E[omega]; freeing it here keeps one (K, M, N)
    # array fewer alive through apply and diagonal, where the block peaks
    del omega
    rhs = np.subtract(epi, state.gamma, out=epi)
    state.m_hat = post.apply(rhs)
    state.m_hat *= 0.5
    c = post.diagonal()
    c += np.square(state.m_hat)
    state.c = np.sqrt(c, out=c)


def fable_update_augmentation(state: FableState) -> None:
    """Poisson means gamma from the Polya-Gamma tilts c.

    gamma_ikm = exp(psi(a_i) - m_hat/2) / (K * M * 2 cosh(c/2)).  The
    tilt c = sqrt(Sigma_hat_ii + m_hat^2) is never negative, so
    log 2 cosh(c/2) = c/2 + log1p(exp(-c)) and
    log gamma = psi(a) - log(K * M) - (m_hat + c)/2 - log1p(exp(-c)),
    in which exp(-c) <= 1.  As c >= |m_hat|, log gamma <= psi(a) - log(K * M):
    the lambda block's next a < exp(psi(a)) + 1 < a + 1, so a grows by less
    than 1 per sweep and no exponential overflows.  The 2 cosh(c/2) factor is
    exp(-E[log sigmoid(-f)] - f/2): gamma approximates
    E[lambda] * sigmoid(-m_hat), the posterior count of the exponential
    slack each cell carries, which keeps the normaliser fixed point at
    E[lambda] = 1 / sum_km sigmoid(f_ikm).
    """
    from scipy.special import psi

    k, m, _ = state.m_hat.shape
    # the rate of q(lambda) is the cell count K * M of every item
    item_shift = psi(state.a)
    item_shift -= np.log(float(k * m))
    log_gamma = np.add(state.m_hat, state.c)
    log_gamma /= 2.0
    np.subtract(item_shift, log_gamma, out=log_gamma)
    tail = np.negative(state.c)
    log_gamma -= np.log1p(np.exp(tail, out=tail), out=tail)
    state.gamma = np.exp(log_gamma, out=log_gamma)


def fable_update_lambda(state: FableState) -> None:
    """Gamma posterior of the normaliser: shape a_i = sum_km gamma_ikm + 1, rate K * M.

    The rate is a constant, the number of augmented Poisson cells per
    item, so only the shape is stored.  That rate makes the fixed point
    of E[lambda_i] recover 1 / sum_km sigma(f_ikm), the quantity the
    exponential integral identity introduces lambda for.  A smaller rate
    gives the gamma/a loop a gain above one and the sweep diverges
    geometrically.
    """
    state.a = state.gamma.sum(axis=(0, 1))
    state.a += 1.0


def fable_fit(
    dataset: Dataset,
    config: FableConfig | None = None,
    seed: int = 0,
) -> Posterior:
    """Coordinate ascent over the blocks below; stops when max |change in q(z)| < tol.

    The diagnostics add ``subtypes``, the ``xi_floor`` clamp count
    ``xi_clamps``, its share of cell tests ``xi_clamp_rate`` and the GP
    factor rank ``gp_rank``.
    """
    config = config or FableConfig()
    state = fable_init(dataset, config, seed=seed)
    blocks = (
        ("assignments", fable_update_assignments),
        ("tau", ebcc_update_tau),
        ("confusion", ebcc_update_confusion),
        ("pi", fable_update_pi),
        ("gp", fable_update_gp),
        ("augmentation", fable_update_augmentation),
        ("lambda", fable_update_lambda),
    )
    post = _iterate(state, blocks, config.max_iters, config.tol, subtypes=config.subtypes,
                    gp_rank=int(state.kernel.rows.shape[0]))
    post.diagnostics["xi_clamps"] = state.xi_clamps
    # the floor is tested on every cell once at the start and once per sweep
    post.diagnostics["xi_clamp_rate"] = state.xi_clamps / ((post.n_iters + 1) * state.xi.size)
    return post
