"""Statistical label-aggregation baselines: majority vote, EM, and BCC models.

The Bayesian classifier-combination family models each labeling function
with per-class confusion distributions.  The subtype variant adds M
latent mixture components per class, so the joint over an item's class z
and subtype g factorises as tau_k * pi_km * prod_j v_{jkm,y_ij}; setting
M = 1 recovers the conditionally independent model.  Inference is
mean-field coordinate ascent with Dirichlet posteriors throughout.
The start, class-prior, confusion and assignment updates form a core
over :class:`SubtypeBccState` that the feature-aware model in
:mod:`fable.model` shares; each model supplies only the posterior of its
mixture weights pi.  The start builds the model's own state class once
and fills it in place.  Every iterative fit states its sweep as a table of
named update blocks, built per call, and runs it through one loop,
:func:`_iterate`, which times each block and stops on the largest change
in q(z).  A sweep makes one pass per cell quantity, writing into the
arrays it allocated.

The state is cell-major: q(z) is (K, N) and every per-cell array, rho
included, is a C-ordered (K, M, N) array, which the GP solve of
:mod:`fable.linalg` takes as it is; mu is (K, M, L, K), vote class last.
Sums over an item's cells run down axis 0 of a (K*M, N) view, adding
the cells in order; sums over items run along the last axis, pairwise.
Only :func:`_finish` transposes, to the (N, K) ``Posterior.probs``.

Every vote statistic is one of the dataset's two vote products,
:meth:`fable.data.Dataset.vote_sums` and
:meth:`fable.data.Dataset.vote_counts`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .data import Dataset
from .linalg import NumericalError, dirichlet_log_expectation

__all__ = [
    "Posterior",
    "majority_vote",
    "dawid_skene",
    "SubtypeBccState",
    "EbccState",
    "ebcc_init",
    "ebcc_update_assignments",
    "ebcc_update_tau",
    "ebcc_update_pi",
    "ebcc_update_confusion",
    "ebcc_elbo",
    "ebcc_fit",
]

# Dawid-Skene pseudocount: keeps every class prior and confusion entry positive
_DS_SMOOTHING = 1e-9
# The BCC confusion prior puts _BETA_DIAG on agreeing votes and
# _BETA_OFFDIAG elsewhere, encoding that labeling functions beat random
# guessing.  With sparse one-class labeling functions the vote likelihood
# is nearly uninformative given coverage, so the diagonal boost carries
# the class signal until the observed counts swamp it; 200 is sized to
# stay informative at a few thousand items.
_BETA_DIAG = 200.0
_BETA_OFFDIAG = 1.0
# symmetric Dirichlet prior of the EBCC subtype weights
_A_PI = 1.0


@dataclass(eq=False)
class Posterior:
    """Result of aggregating labeling-function votes.

    ``probs`` holds the per-item class distribution and ``predictions``
    its argmax (ties broken toward the lowest class index).
    ``elbo_trace`` carries one objective value per sweep when the fit was
    asked to record it; ``diagnostics`` carries the settings an iterative
    fit ran with (``max_iters``, ``tol``, and ``subtypes`` for the subtype
    models), convergence details and ``predicted_classes``, the number of
    distinct predicted classes, which is 1 when the fit put every item in
    one class, and ``effective_classes``, exp(entropy of the predicted
    class shares): 1.0 then, K when balanced.
    """

    probs: np.ndarray
    predictions: np.ndarray
    n_iters: int
    elbo_trace: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def _finish(qz, n_iters, elbo_trace=None, **diag) -> Posterior:
    """The posterior of the (K, N) class probabilities ``qz``, transposed to (N, K) rows."""
    from scipy.special import xlogy

    if not np.all(np.isfinite(qz)):
        raise NumericalError("posterior probabilities became non-finite")
    probs = qz.T.copy()
    probs /= probs.sum(axis=1, keepdims=True)
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
    n_lf, k = dataset.n_lfs, dataset.num_classes
    # table[c, j, y] = [y = c], so its sum over an item's votes counts its votes for c
    counts = dataset.vote_sums(np.tile(np.eye(k), n_lf).reshape(k, n_lf, k))
    totals = counts.sum(axis=0)
    silent = totals == 0
    counts[:, silent] = 1.0
    totals[silent] = k
    return _finish(counts / totals, n_iters=0)


def _normalize_log_scores(scores: np.ndarray) -> np.ndarray:
    """Softmax over the leading axes of (K, N) or (K, M, N) log scores, overwriting ``scores``."""
    flat = scores.reshape(-1, scores.shape[-1])
    flat -= flat.max(axis=0)
    np.exp(flat, out=flat)
    flat /= flat.sum(axis=0)
    return flat.reshape(scores.shape)


def _iterate(state, blocks, max_iters: int, tol: float, elbo_trace=None, **extra) -> Posterior:
    """Run the sweep on ``state`` until max |change in q(z)| < tol or ``max_iters`` sweeps.

    ``blocks`` is the sweep: ordered ``(name, update)`` pairs, each
    update taking ``state``, which exposes q(z) as ``state.qz``,
    updating it in place and returning None.  The diagnostics are the
    ``converged`` flag, the per-sweep ``delta_trace``, the ``max_iters``
    and ``tol`` the loop ran with, ``extra``, and ``block_ms``: each
    block's milliseconds summed over the sweeps, in sweep order.  Each
    fit builds its table per call, so a wrapper patched over an update
    function is the one that runs.
    """
    qz = state.qz
    deltas = []
    block_ms = dict.fromkeys((name for name, _ in blocks), 0.0)
    for _ in range(max_iters):
        for name, update in blocks:
            start = time.perf_counter()
            update(state)
            block_ms[name] += 1000.0 * (time.perf_counter() - start)
        new_qz = state.qz
        change = np.subtract(new_qz, qz)
        deltas.append(float(np.max(np.abs(change, out=change))))
        qz = new_qz
        if deltas[-1] < tol:
            break
    converged = bool(deltas) and deltas[-1] < tol
    return _finish(qz, len(deltas), elbo_trace, converged=converged, delta_trace=deltas,
                   max_iters=max_iters, tol=tol, **extra, block_ms=block_ms)


def dawid_skene(dataset: Dataset, max_iters: int = 500, tol: float = 1e-6) -> Posterior:
    """Confusion-matrix EM over maximum-likelihood point estimates.

    Starts from the majority-vote posterior; the ``_DS_SMOOTHING``
    pseudocount keeps every confusion entry strictly positive.  The
    recorded trace is the observed-data log-likelihood at each
    iteration's parameters.
    """
    trace = []

    def em(state):
        qz = state.qz
        prior = qz.sum(axis=1) + _DS_SMOOTHING
        prior /= prior.sum()
        counts = _DS_SMOOTHING + dataset.vote_counts(qz)
        theta = counts / counts.sum(axis=2, keepdims=True)
        scores = dataset.vote_sums(np.log(theta))
        scores += np.log(prior)[:, None]
        top = scores.max(axis=0)
        state.qz = _normalize_log_scores(scores)
        # the top class has q = 1 / sum_k exp(s_k - top), so log sum_k exp(s_k) = top - log q_top
        trace.append(float((top - np.log(state.qz.max(axis=0))).sum()))

    state = SimpleNamespace(qz=majority_vote(dataset).probs.T)
    return _iterate(state, (("em", em),), max_iters, tol, elbo_trace=trace)


@dataclass(eq=False)
class SubtypeBccState:
    """Variational posteriors shared by the subtype BCC models.

    rho: C-ordered (K, M, N) joint q(z_i = k, g_i = m); nu: (K,) class
    Dirichlet; mu: (K, M, L, K) confusion Dirichlets; alpha, beta echo
    their priors; dataset: the fitted dataset, whose vote products the
    sweeps read.  The models differ only in their mixture weights pi,
    whose posterior each subclass adds.  :func:`_subtype_start` builds a
    model's own state from rho, the priors and the dataset; the
    ``init=False`` fields are filled by the start's blocks and draws.
    """

    rho: np.ndarray
    nu: np.ndarray = field(init=False)
    mu: np.ndarray = field(init=False)
    alpha: np.ndarray
    beta: np.ndarray
    dataset: Dataset

    @property
    def qz(self) -> np.ndarray:
        """q(z) as (K, N), the subtypes of each class added in order."""
        return self.rho.sum(axis=1)


@dataclass(eq=False)
class EbccState(SubtypeBccState):
    """The subtype BCC state with per-class Dirichlet mixture weights.

    eta: (K, M) subtype Dirichlets, each with the symmetric prior
    ``_A_PI``, filled by :func:`ebcc_init`.
    """

    eta: np.ndarray = field(init=False)


def _subtype_start(
    cls: type[SubtypeBccState],
    dataset: Dataset,
    subtypes: int,
    beta_diag: float,
    rng: np.random.Generator,
) -> SubtypeBccState:
    """Majority-vote start of a ``cls`` state: rho = MV posterior times a per-item Dirichlet draw.

    The class prior alpha is the MV class masses, with count 1 for a class
    no vote gives mass; the confusion prior has ``beta_diag`` on its
    diagonal and ``_BETA_OFFDIAG`` elsewhere.  Returns the model's own
    state, built once, with nu and mu updated from that rho; the caller
    fills the fields of its mixture weights in place.  The draw advances
    ``rng``, so a caller can continue the same stream.
    """
    if subtypes < 1:
        raise ValueError("need at least one subtype")
    n, k = dataset.n_items, dataset.num_classes
    mv = majority_vote(dataset).probs.T
    # drawn per item, as (N, M), to keep the stream every fit seed has drawn
    subtype_weights = rng.dirichlet(np.ones(subtypes), size=n).T
    rho = np.multiply(mv[:, None, :], subtype_weights, order="C")
    rho /= rho.sum(axis=(0, 1))
    alpha = mv.sum(axis=1)
    alpha[alpha == 0] = 1.0
    beta = np.full((k, k), _BETA_OFFDIAG)
    np.fill_diagonal(beta, beta_diag)
    state = cls(rho=rho, alpha=alpha, beta=beta, dataset=dataset)
    ebcc_update_tau(state)
    ebcc_update_confusion(state)
    return state


def _subtype_assignments(state: SubtypeBccState, elog_pi: np.ndarray) -> None:
    """rho_ikm propto exp(E[log tau_k] + E[log pi_ikm] + sum_j E[log v_jkm,y_ij]).

    ``elog_pi`` is a C-ordered (K, M, N) array, overwritten to become the
    new rho, or a (K, M, 1) one every item shares.
    """
    elog_tau = dirichlet_log_expectation(state.nu)
    elog_v = dirichlet_log_expectation(state.mu)
    elog_pi += elog_tau[:, None, None]
    votes = state.dataset.vote_sums(elog_v)
    out = elog_pi if elog_pi.shape == votes.shape else None
    state.rho = _normalize_log_scores(np.add(elog_pi, votes, out=out, order="C"))


def ebcc_init(dataset: Dataset, subtypes: int = 3, seed: int = 0) -> EbccState:
    """The shared majority-vote start, built as an ``EbccState``, plus the Dirichlets eta."""
    state = _subtype_start(EbccState, dataset, subtypes, _BETA_DIAG, np.random.default_rng(seed))
    ebcc_update_pi(state)
    return state


def ebcc_update_assignments(state: EbccState) -> None:
    """Assignments with the Dirichlet E[log pi_km] of the subtype weights eta."""
    _subtype_assignments(state, dirichlet_log_expectation(state.eta)[:, :, None])


def ebcc_update_tau(state: SubtypeBccState) -> None:
    state.nu = state.alpha + state.qz.sum(axis=1)


def ebcc_update_pi(state: EbccState) -> None:
    state.eta = _A_PI + state.rho.sum(axis=2)


def ebcc_update_confusion(state: SubtypeBccState) -> None:
    """mu_jkm = beta_k + soft counts of LF j's votes."""
    counts = state.dataset.vote_counts(state.rho)
    state.mu = np.add(state.beta[:, None, None, :], counts, order="C")


def _log_beta(params: np.ndarray) -> np.ndarray:
    from scipy.special import gammaln

    params = np.asarray(params, dtype=float)
    return gammaln(params).sum(axis=-1) - gammaln(params.sum(axis=-1))


def ebcc_elbo(state: EbccState) -> float:
    """Full evidence lower bound: expected log joint plus entropies.

    Valid where each of nu, eta and mu is its prior plus the soft counts
    of the current rho, as after ``ebcc_init`` and after every full
    sweep.  There each Dirichlet's prior, likelihood and entropy terms
    sum to log B(posterior) - log B(prior), so the bound is three such
    differences plus the entropy of rho.
    """
    from scipy.special import xlogy

    k, m = state.eta.shape
    n_lf = state.mu.shape[2]
    value = float(_log_beta(state.nu) - _log_beta(state.alpha))
    value += float(_log_beta(state.eta).sum() - k * _log_beta(np.full(m, _A_PI)))
    value += float(_log_beta(state.mu).sum() - n_lf * m * _log_beta(state.beta).sum())
    value -= float(xlogy(state.rho, state.rho).sum())
    return value


def ebcc_fit(
    dataset: Dataset,
    subtypes: int = 3,
    seed: int = 0,
    max_iters: int = 500,
    tol: float = 1e-6,
    record_elbo: bool = False,
) -> Posterior:
    """Coordinate-ascent fit; stops when max |change in q(z)| < tol.

    ``subtypes=1`` is the conditionally independent model, iBCC.
    """
    state = ebcc_init(dataset, subtypes=subtypes, seed=seed)
    blocks = (
        ("assignments", ebcc_update_assignments),
        ("tau", ebcc_update_tau),
        ("pi", ebcc_update_pi),
        ("confusion", ebcc_update_confusion),
    )
    trace = [] if record_elbo else None
    if record_elbo:
        # last in the sweep: the collapsed bound holds only after every update
        blocks += (("elbo", lambda state: trace.append(ebcc_elbo(state))),)
    return _iterate(state, blocks, max_iters, tol, elbo_trace=trace, subtypes=subtypes)
