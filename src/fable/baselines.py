"""Statistical label-aggregation baselines: majority vote, EM, and BCC models.

The Bayesian classifier-combination family models each labeling function
with per-class confusion distributions.  The subtype variant adds M
latent mixture components per class, so the joint over an item's class z
and subtype g factorises as tau_k * pi_km * prod_j v_{jkm,y_ij}; setting
M = 1 recovers the conditionally independent model.  Inference is
mean-field coordinate ascent with Dirichlet posteriors throughout.
The start, class-prior, confusion and assignment updates form a core
over :class:`SubtypeBccState` that the feature-aware model in
:mod:`fable.model` shares; each model supplies only the posterior of
its mixture weights pi.  Every iterative fit runs one loop,
:func:`_iterate`, which stops on the largest change in q(z).  A sweep
makes one pass per cell quantity: each update writes into the arrays it
allocated, and sums and maxima along the short subtype and cell axes are
explicit adds and running maxima, several times faster there than
numpy's reductions and rounded alike for fewer than eight subtypes.

Every vote statistic goes through one representation: the sparse one-hot
indicator of :func:`vote_onehot`, an (N, L*K) CSR matrix with a one in
column j*K + y for each non-abstaining vote y_ij = y and nothing for an
abstain.  Summing log confusion entries over an item's votes is then one
product ``onehot @ table`` and the soft confusion counts are one product
``onehot.T @ responsibilities``; the fits build the matrix once and keep
it on their state, so a sweep never loops over labeling functions.
Storage is one entry per non-abstaining vote.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.special import gammaln, psi, xlogy

from .data import ABSTAIN, Dataset
from .linalg import NumericalError, dirichlet_log_expectation

__all__ = [
    "Posterior",
    "vote_onehot",
    "majority_vote",
    "dawid_skene",
    "EbccPriors",
    "SubtypeBccState",
    "EbccState",
    "ebcc_init",
    "ebcc_update_assignments",
    "ebcc_update_tau",
    "ebcc_update_pi",
    "ebcc_update_confusion",
    "ebcc_elbo",
    "ebcc_fit",
    "ibcc_fit",
]


@dataclass
class Posterior:
    """Result of aggregating labeling-function votes.

    ``probs`` holds the per-item class distribution and ``predictions``
    its argmax (ties broken toward the lowest class index).
    ``elbo_trace`` carries one objective value per sweep when the fit was
    asked to record it; ``diagnostics`` carries convergence details and
    ``predicted_classes``, the number of distinct predicted classes, which
    is 1 when the fit put every item in one class, and ``effective_classes``,
    exp(entropy of the predicted class shares): 1.0 then, K when balanced.
    """

    probs: np.ndarray
    predictions: np.ndarray
    n_iters: int
    elbo_trace: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def _finish(probs, n_iters, elbo_trace=None, **diag) -> Posterior:
    if not np.all(np.isfinite(probs)):
        raise NumericalError("posterior probabilities became non-finite")
    probs = probs / probs.sum(axis=1, keepdims=True)
    # np.argmax returns the first maximum, i.e. the lowest class index on ties
    predictions = np.argmax(probs, axis=1).astype(np.int64)
    # a fit that puts every item in one class has collapsed (degenerate)
    shares = np.bincount(predictions) / predictions.size
    diag["predicted_classes"] = int(np.count_nonzero(shares))
    diag["effective_classes"] = float(np.exp(-xlogy(shares, shares).sum()))
    return Posterior(
        probs=probs,
        predictions=predictions,
        n_iters=n_iters,
        elbo_trace=None if elbo_trace is None else np.asarray(elbo_trace),
        diagnostics=diag,
    )


def majority_vote(dataset: Dataset) -> Posterior:
    """Normalized vote counts per class; all-abstain items get a uniform row."""
    n, k = dataset.n_items, dataset.num_classes
    counts = np.zeros((n, k))
    for c in range(k):
        counts[:, c] = (dataset.lf_labels == c).sum(axis=1)
    totals = counts.sum(axis=1)
    silent = totals == 0
    counts[silent] = 1.0
    totals[silent] = k
    return _finish(counts / totals[:, None], n_iters=0)


def vote_onehot(lf_labels: np.ndarray, k: int) -> sparse.csr_matrix:
    """(N, L*K) indicator of the votes: column j*K + y is 1 where LF j voted y.

    Abstains set nothing, so an item's row holds one entry per LF that
    voted on it.  Entries are stored row by row in increasing column
    order, so products with the matrix add an item's votes in LF order.
    Votes outside {ABSTAIN, 0..K-1} raise ValueError: sparse products do
    not check column indices, so such a vote would read out of bounds.
    """
    if np.any((lf_labels < ABSTAIN) | (lf_labels >= k)):
        raise ValueError(f"votes must be {ABSTAIN} (abstain) or a class in 0..{k - 1}")
    n, n_lf = lf_labels.shape
    voted = lf_labels != ABSTAIN
    columns = (np.arange(n_lf) * k + lf_labels)[voted]
    indptr = np.concatenate(([0], np.cumsum(voted.sum(axis=1))))
    return sparse.csr_matrix(
        (np.ones(columns.size), columns, indptr), shape=(n, n_lf * k)
    )


def _vote_log_scores(elog_v: np.ndarray, onehot: sparse.csr_matrix) -> np.ndarray:
    """sum_j E[log v_{jkm, y_ij}] over each item's non-abstaining LFs.

    ``elog_v`` has shape (L, K, M, K) and ``onehot`` is the
    :func:`vote_onehot` matrix; the result has shape (N, K, M).
    """
    n_lf, k, m, n_votes = elog_v.shape
    table = elog_v.transpose(0, 3, 1, 2).reshape(n_lf * n_votes, k * m)
    return (onehot @ table).reshape(-1, k, m)


def _normalize_log_scores(scores: np.ndarray) -> np.ndarray:
    """Softmax over the trailing axes of (N, K, M) log scores, overwriting ``scores``."""
    n = scores.shape[0]
    flat = scores.reshape(n, -1)
    top = flat[:, 0].copy()
    for column in flat.T[1:]:
        np.maximum(top, column, out=top)
    flat -= top[:, None]
    np.exp(flat, out=flat)
    flat /= flat.sum(axis=1, keepdims=True)
    return flat.reshape(scores.shape)


def _iterate(qz: np.ndarray, sweep, max_iters: int, tol: float):
    """Run ``sweep`` until max |change in q(z)| < tol or ``max_iters`` sweeps.

    ``sweep`` maps the current q(z) to the next one.  Returns the last
    q(z), the number of sweeps, and the ``converged`` flag and per-sweep
    ``delta_trace`` as a diagnostics dict.
    """
    deltas = []
    for _ in range(max_iters):
        new_qz = sweep(qz)
        deltas.append(float(np.max(np.abs(new_qz - qz))))
        qz = new_qz
        if deltas[-1] < tol:
            break
    converged = bool(deltas) and deltas[-1] < tol
    return qz, len(deltas), {"converged": converged, "delta_trace": deltas}


def dawid_skene(
    dataset: Dataset,
    max_iters: int = 500,
    tol: float = 1e-6,
    smoothing: float = 1e-9,
) -> Posterior:
    """Confusion-matrix EM over maximum-likelihood point estimates.

    Starts from the majority-vote posterior; the smoothing pseudocount
    keeps every confusion entry strictly positive.  The recorded trace is
    the observed-data log-likelihood at each iteration's parameters.
    """
    onehot = vote_onehot(dataset.lf_labels, dataset.num_classes)
    trace = []

    def sweep(qz):
        prior = qz.sum(axis=0) + smoothing
        prior /= prior.sum()
        counts = smoothing + _confusion_counts(qz[:, :, None], onehot)[:, :, 0, :]
        theta = counts / counts.sum(axis=2, keepdims=True)
        log_theta = np.log(theta)[:, :, None, :]
        scores = np.log(prior) + _vote_log_scores(log_theta, onehot)[:, :, 0]
        shifted = scores - scores.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        norms = weights.sum(axis=1, keepdims=True)
        trace.append(float((np.log(norms[:, 0]) + scores.max(axis=1)).sum()))
        return weights / norms

    qz, n_iters, diag = _iterate(majority_vote(dataset).probs, sweep, max_iters, tol)
    return _finish(qz, n_iters, elbo_trace=trace, **diag)


@dataclass(frozen=True)
class EbccPriors:
    """Dirichlet hyperparameters for the BCC family.

    ``alpha`` defaults to the majority-vote class masses when None.  The
    confusion prior puts ``beta_diag`` on agreeing votes and
    ``beta_offdiag`` elsewhere, encoding that labeling functions beat
    random guessing.  With sparse one-class labeling functions the vote
    likelihood is nearly uninformative given coverage, so the diagonal
    boost carries the class signal until the observed counts swamp it;
    the default is sized to stay informative at a few thousand items.
    """

    alpha: np.ndarray | None = None
    a_pi: float = 1.0
    beta_diag: float = 200.0
    beta_offdiag: float = 1.0

    def beta_matrix(self, num_classes: int) -> np.ndarray:
        beta = np.full((num_classes, num_classes), float(self.beta_offdiag))
        np.fill_diagonal(beta, float(self.beta_diag))
        return beta


@dataclass
class SubtypeBccState:
    """Variational posteriors shared by the subtype BCC models.

    rho: (N, K, M) joint q(z_i = k, g_i = m); nu: (K,) class Dirichlet;
    mu: (L, K, M, K) confusion Dirichlets; alpha, beta echo their
    priors; onehot: the :func:`vote_onehot` matrix of the dataset, built
    once at the start.  The models differ only in their mixture weights
    pi, whose posterior each subclass adds.
    """

    rho: np.ndarray
    nu: np.ndarray
    mu: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    onehot: sparse.csr_matrix

    @property
    def qz(self) -> np.ndarray:
        return sum(self.rho[:, :, m] for m in range(self.rho.shape[2]))


@dataclass
class EbccState(SubtypeBccState):
    """The subtype BCC state with per-class Dirichlet mixture weights.

    eta: (K, M) subtype Dirichlets; a_pi: their symmetric prior.
    """

    eta: np.ndarray
    a_pi: float


def _confusion_counts(rho: np.ndarray, onehot: sparse.csr_matrix) -> np.ndarray:
    """sum_i rho_ikm [y_ij = l] for each LF j, as an (L, K, M, K) array."""
    n, k, m = rho.shape
    counts = onehot.T @ rho.reshape(n, k * m)
    return counts.reshape(-1, k, k, m).transpose(0, 2, 3, 1)


def _subtype_start(
    dataset: Dataset, subtypes: int, priors: EbccPriors, rng: np.random.Generator
) -> SubtypeBccState:
    """Majority-vote start: rho = MV posterior times a per-item Dirichlet draw.

    The class prior alpha defaults to the MV class masses.  Returns the
    core state with nu and mu updated from that rho; the draw advances
    ``rng``, so a caller can continue the same stream.
    """
    if subtypes < 1:
        raise ValueError("need at least one subtype")
    n, k = dataset.n_items, dataset.num_classes
    mv = majority_vote(dataset).probs
    subtype_weights = rng.dirichlet(np.ones(subtypes), size=n)
    rho = mv[:, :, None] * subtype_weights[:, None, :]
    rho /= rho.sum(axis=(1, 2), keepdims=True)
    alpha = np.asarray(priors.alpha, dtype=float) if priors.alpha is not None else mv.sum(axis=0)
    if alpha.shape != (k,) or np.any(alpha <= 0):
        raise ValueError("alpha prior must be positive with one entry per class")
    state = SubtypeBccState(
        rho=rho,
        nu=np.zeros(k),
        mu=np.zeros((dataset.n_lfs, k, subtypes, k)),
        alpha=alpha,
        beta=priors.beta_matrix(k),
        onehot=vote_onehot(dataset.lf_labels, k),
    )
    ebcc_update_tau(state)
    ebcc_update_confusion(state)
    return state


def _subtype_assignments(state: SubtypeBccState, elog_pi: np.ndarray) -> SubtypeBccState:
    """rho_ikm propto exp(E[log tau_k] + E[log pi_ikm] + sum_j E[log v_jkm,y_ij]).

    ``elog_pi`` broadcasts against (N, K, M) and is overwritten; the
    votes are read from ``state.onehot``.
    """
    elog_tau = dirichlet_log_expectation(state.nu)
    elog_v = dirichlet_log_expectation(state.mu, axis=-1)
    elog_pi += elog_tau[:, None]
    scores = _vote_log_scores(elog_v, state.onehot)
    scores += elog_pi
    state.rho = _normalize_log_scores(scores)
    return state


def ebcc_init(
    dataset: Dataset,
    subtypes: int = 3,
    priors: EbccPriors | None = None,
    seed: int = 0,
) -> EbccState:
    """The shared majority-vote start plus the subtype Dirichlets eta."""
    priors = priors or EbccPriors()
    core = _subtype_start(dataset, subtypes, priors, np.random.default_rng(seed))
    state = EbccState(
        **vars(core),
        eta=np.zeros((dataset.num_classes, subtypes)),
        a_pi=float(priors.a_pi),
    )
    ebcc_update_pi(state)
    return state


def ebcc_update_assignments(state: EbccState) -> EbccState:
    """Assignments with the Dirichlet E[log pi_km] of the subtype weights eta."""
    return _subtype_assignments(state, dirichlet_log_expectation(state.eta, axis=-1))


def ebcc_update_tau(state: SubtypeBccState) -> SubtypeBccState:
    state.nu = state.alpha + state.qz.sum(axis=0)
    return state


def ebcc_update_pi(state: EbccState) -> EbccState:
    state.eta = state.a_pi + state.rho.sum(axis=0)
    return state


def ebcc_update_confusion(state: SubtypeBccState) -> SubtypeBccState:
    """mu_jkm = beta_k + soft counts of LF j's votes, from ``state.onehot``."""
    counts = _confusion_counts(state.rho, state.onehot)
    state.mu = state.beta[None, :, None, :] + counts
    return state


def _log_beta(params: np.ndarray, axis: int = -1) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    return gammaln(params).sum(axis=axis) - gammaln(params.sum(axis=axis))


def _dirichlet_entropy(params: np.ndarray, axis: int = -1) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    total = params.sum(axis=axis)
    dim = params.shape[axis]
    return (
        _log_beta(params, axis=axis)
        + (total - dim) * psi(total)
        - ((params - 1.0) * psi(params)).sum(axis=axis)
    )


def ebcc_elbo(state: EbccState) -> float:
    """Full evidence lower bound: expected log joint plus entropies.

    Valid at any state, so it is non-decreasing across coordinate sweeps
    regardless of where in the cycle it is evaluated.  The vote term
    sum_ij rho_ikm E[log v_jkm,y_ij] is taken as soft confusion counts
    against E[log v], from ``state.onehot``.
    """
    elog_tau = dirichlet_log_expectation(state.nu)
    elog_pi = dirichlet_log_expectation(state.eta, axis=-1)
    elog_v = dirichlet_log_expectation(state.mu, axis=-1)
    rho = state.rho
    qz = state.qz
    k, m = state.eta.shape
    n_lf = state.mu.shape[0]

    value = float(
        ((state.alpha - 1.0) * elog_tau).sum()
        - _log_beta(state.alpha)
        + (qz.sum(axis=0) * elog_tau).sum()
    )
    value += float(
        (state.a_pi - 1.0) * elog_pi.sum()
        - k * _log_beta(np.full(m, state.a_pi))
        + (rho.sum(axis=0) * elog_pi).sum()
    )
    value += float(
        ((state.beta[None, :, None, :] - 1.0) * elog_v).sum()
        - n_lf * m * _log_beta(state.beta, axis=-1).sum()
        + (_confusion_counts(rho, state.onehot) * elog_v).sum()
    )
    value -= float(xlogy(rho, rho).sum())
    value += float(_dirichlet_entropy(state.nu))
    value += float(_dirichlet_entropy(state.eta, axis=-1).sum())
    value += float(_dirichlet_entropy(state.mu, axis=-1).sum())
    return value


def ebcc_fit(
    dataset: Dataset,
    subtypes: int = 3,
    priors: EbccPriors | None = None,
    seed: int = 0,
    max_iters: int = 500,
    tol: float = 1e-6,
    record_elbo: bool = False,
) -> Posterior:
    """Coordinate-ascent fit; stops when max |change in q(z)| < tol."""
    state = ebcc_init(dataset, subtypes=subtypes, priors=priors, seed=seed)
    trace = []

    def sweep(_qz):
        ebcc_update_assignments(state)
        ebcc_update_tau(state)
        ebcc_update_pi(state)
        ebcc_update_confusion(state)
        if record_elbo:
            trace.append(ebcc_elbo(state))
        return state.qz

    qz, n_iters, diag = _iterate(state.qz, sweep, max_iters, tol)
    return _finish(
        qz,
        n_iters,
        elbo_trace=trace if record_elbo else None,
        **diag,
    )


def ibcc_fit(
    dataset: Dataset,
    priors: EbccPriors | None = None,
    seed: int = 0,
    max_iters: int = 500,
    tol: float = 1e-6,
    record_elbo: bool = False,
) -> Posterior:
    """Conditionally independent BCC: the subtype model with M = 1."""
    return ebcc_fit(
        dataset,
        subtypes=1,
        priors=priors,
        seed=seed,
        max_iters=max_iters,
        tol=tol,
        record_elbo=record_elbo,
    )
