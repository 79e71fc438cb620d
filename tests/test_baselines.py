"""Majority vote, the EM baseline, and the subtype BCC coordinate ascent."""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy
from scipy.special import psi as digamma

import fable.baselines
from fable import (
    Dataset,
    accuracy,
    dawid_skene,
    default_synthetic_spec,
    ebcc_elbo,
    ebcc_fit,
    ebcc_init,
    fit_method,
    generate_synthetic,
    majority_vote,
)
from fable.baselines import (
    _A_PI,
    _finish,
    _log_beta,
    ebcc_update_assignments,
    ebcc_update_confusion,
    ebcc_update_pi,
    ebcc_update_tau,
)
from fable.data import ABSTAIN
from fable.linalg import dirichlet_log_expectation
from fable.model import FableConfig, fable_fit, fable_init, fable_update_assignments

from conftest import random_dataset


def _dataset(votes, k=2, gold=None, features=None):
    votes = np.asarray(votes, dtype=int)
    if features is None:
        features = np.arange(votes.shape[0], dtype=float)[:, None]
    return Dataset(
        features=features,
        lf_labels=votes,
        num_classes=k,
        gold=None if gold is None else np.asarray(gold, dtype=int),
    )


# ------------------------------------------------------------ majority vote


def test_majority_vote_counts():
    post = majority_vote(_dataset([[1, 1, 0]]))
    assert np.allclose(post.probs, [[1.0 / 3.0, 2.0 / 3.0]])
    assert post.predictions[0] == 1


def test_majority_vote_all_abstain_is_uniform():
    post = majority_vote(_dataset([[-1, -1]], k=4))
    assert np.allclose(post.probs, [[0.25, 0.25, 0.25, 0.25]])
    assert post.predictions[0] == 0  # tie-break toward the lowest class


def test_majority_vote_tie_break_is_lowest_class():
    post = majority_vote(_dataset([[0, 1]]))
    assert post.predictions[0] == 0


# -------------------------------------------------------------- dawid-skene


def test_dawid_skene_perfect_single_lf():
    gold = np.array([0, 1, 0, 1, 1, 0])
    post = dawid_skene(_dataset(gold[:, None], gold=gold))
    assert accuracy(post.predictions, gold) == 1.0


def test_dawid_skene_redundant_copies_match_mv():
    rng = np.random.default_rng(3)
    votes = rng.integers(0, 2, size=20)
    copies = np.repeat(votes[:, None], 4, axis=1)
    ds_post = dawid_skene(_dataset(copies))
    mv_post = majority_vote(_dataset(votes[:, None]))
    assert np.array_equal(ds_post.predictions, mv_post.predictions)


def test_dawid_skene_loglik_monotone():
    for seed in range(5):
        post = dawid_skene(random_dataset(seed, n=40), max_iters=40)
        trace = post.elbo_trace
        assert trace is not None and len(trace) >= 2
        assert np.all(np.diff(trace) >= -1e-8)


def test_dawid_skene_gives_every_item_the_class_prior_on_one_class_lfs():
    # each synthetic LF votes one class or abstains, and DS models only the
    # votes cast, so every learned confusion row is the same point mass:
    # the votes carry no class signal and every posterior row is the prior
    post = dawid_skene(generate_synthetic(default_synthetic_spec(size=200, seed=0)))
    assert np.ptp(post.probs, axis=0).max() < 1e-9
    assert post.diagnostics["predicted_classes"] == 1


# ---------------------------------------------------------------- ebcc ops


def test_ebcc_init_state_invariants(small_synthetic):
    state = ebcc_init(small_synthetic, subtypes=3, seed=0)
    assert np.allclose(state.rho.sum(axis=(0, 1)), 1.0, atol=1e-9)
    assert np.all(state.rho >= 0.0)
    assert np.all(state.nu >= state.alpha - 1e-12)
    assert np.all(state.eta >= _A_PI - 1e-12)
    assert np.all(state.mu >= state.beta[:, None, None, :] - 1e-12)


def test_ebcc_assignments_uniform_under_symmetry():
    # no votes at all and symmetric Dirichlets: every (k, m) cell ties
    d = _dataset([[-1], [-1]], k=2)
    state = ebcc_init(d, subtypes=2, seed=0)
    state.nu = np.full(2, 3.0)
    state.eta = np.full((2, 2), 1.5)
    state.mu = np.full((2, 2, 1, 2), 2.0)
    ebcc_update_assignments(state)
    assert np.allclose(state.rho, 0.25, atol=1e-12)


def test_ebcc_assignments_match_scalar_formula():
    from scipy.special import psi as digamma

    d = _dataset([[0, 1], [1, -1]], k=2)
    state = ebcc_init(d, subtypes=2, seed=1)
    ebcc_update_assignments(state)
    elog_tau = digamma(state.nu) - digamma(state.nu.sum())
    expected = np.zeros((2, 2, 2))
    for i in range(2):
        for k in range(2):
            for m in range(2):
                score = elog_tau[k]
                score += digamma(state.eta[k, m]) - digamma(state.eta[k].sum())
                for j in range(2):
                    vote = d.lf_labels[i, j]
                    if vote == -1:
                        continue
                    score += digamma(state.mu[k, m, j, vote]) - digamma(state.mu[k, m, j].sum())
                expected[k, m, i] = score
    expected = np.exp(expected - expected.max(axis=(0, 1)))
    expected /= expected.sum(axis=(0, 1))
    assert np.allclose(state.rho, expected, atol=1e-12)


def test_ebcc_tau_update_counts_class_mass(small_synthetic):
    state = ebcc_init(small_synthetic, subtypes=2, seed=0)
    n, k = small_synthetic.n_items, small_synthetic.num_classes
    state.rho = np.zeros((k, 2, n))
    state.rho[0, 0] = 1.0
    ebcc_update_tau(state)
    expected = state.alpha.copy()
    expected[0] += n
    assert np.allclose(state.nu, expected, atol=1e-12)

    state.rho = np.full((k, 2, n), 1.0 / (k * 2))
    ebcc_update_tau(state)
    assert np.allclose(state.nu, state.alpha + n / k, atol=1e-9)


def test_ebcc_pi_update_counts_subtype_mass(small_synthetic):
    state = ebcc_init(small_synthetic, subtypes=3, seed=0)
    n, k = small_synthetic.n_items, small_synthetic.num_classes
    state.rho = np.zeros((k, 3, n))
    ebcc_update_pi(state)
    assert np.allclose(state.eta, _A_PI, atol=1e-12)

    state.rho = np.full((k, 3, n), 1.0 / (k * 3))
    ebcc_update_pi(state)
    assert np.allclose(state.eta, _A_PI + n / (k * 3), atol=1e-9)


def test_ebcc_confusion_update_silent_lf_keeps_prior():
    d = _dataset([[0, -1], [1, -1]], k=2)
    state = ebcc_init(d, subtypes=2, seed=0)
    ebcc_update_confusion(state)
    assert np.allclose(state.mu[:, :, 1], state.beta[:, None, :], atol=1e-12)


def test_ebcc_confusion_update_single_mass():
    d = _dataset([[1]], k=2)
    state = ebcc_init(d, subtypes=2, seed=0)
    # class 0 gets no MV mass, so its prior count is 1 rather than 0
    assert np.array_equal(state.alpha, [1.0, 1.0])
    state.rho = np.zeros((2, 2, 1))
    state.rho[1, 0, 0] = 1.0
    ebcc_update_confusion(state)
    expected = np.repeat(state.beta[:, None, :], 2, axis=1)
    expected[1, 0, 1] += 1.0
    assert np.allclose(state.mu[:, :, 0], expected, atol=1e-12)


# --------------------------------------------------------------- ebcc elbo


def test_ebcc_elbo_monotone_quick():
    post = ebcc_fit(random_dataset(11, n=80), subtypes=3, seed=0, max_iters=25, record_elbo=True)
    assert np.all(np.diff(post.elbo_trace) >= -1e-8)


def _dirichlet_entropy_oracle(params):
    total = params.sum(axis=-1)
    dim = params.shape[-1]
    return (
        _log_beta(params)
        + (total - dim) * digamma(total)
        - ((params - 1.0) * digamma(params)).sum(axis=-1)
    )


def _ebcc_elbo_oracle(state):
    """The bound as first written: each prior, likelihood and entropy term on its own."""
    elog_tau = dirichlet_log_expectation(state.nu)
    elog_pi = dirichlet_log_expectation(state.eta)
    elog_v = dirichlet_log_expectation(state.mu)
    rho, qz = state.rho, state.qz
    k, m = state.eta.shape
    n_lf = state.mu.shape[2]
    value = float(
        ((state.alpha - 1.0) * elog_tau).sum()
        - _log_beta(state.alpha)
        + (qz.sum(axis=1) * elog_tau).sum()
    )
    value += float(
        (_A_PI - 1.0) * elog_pi.sum()
        - k * _log_beta(np.full(m, _A_PI))
        + (rho.sum(axis=2) * elog_pi).sum()
    )
    value += float(
        ((state.beta[:, None, None, :] - 1.0) * elog_v).sum()
        - n_lf * m * _log_beta(state.beta).sum()
        + (state.dataset.vote_counts(rho) * elog_v).sum()
    )
    value -= float(xlogy(rho, rho).sum())
    value += float(_dirichlet_entropy_oracle(state.nu))
    value += float(_dirichlet_entropy_oracle(state.eta).sum())
    value += float(_dirichlet_entropy_oracle(state.mu).sum())
    return value


@pytest.mark.parametrize("subtypes", [1, 3])
def test_ebcc_elbo_matches_the_long_hand_bound(small_synthetic, subtypes):
    # after the start and after each full sweep every Dirichlet is its
    # prior plus the soft counts of rho, where the log B form holds
    state = ebcc_init(small_synthetic, subtypes=subtypes, seed=4)
    assert ebcc_elbo(state) == pytest.approx(_ebcc_elbo_oracle(state), rel=1e-12)
    for _ in range(10):
        ebcc_update_assignments(state)
        ebcc_update_tau(state)
        ebcc_update_pi(state)
        ebcc_update_confusion(state)
        assert ebcc_elbo(state) == pytest.approx(_ebcc_elbo_oracle(state), rel=1e-12)


def test_ebcc_elbo_finite_on_random_states():
    for seed in range(5):
        d = random_dataset(seed, n=30, k=3)
        state = ebcc_init(d, subtypes=2, seed=seed)
        rng = np.random.default_rng(seed)
        state.rho = rng.dirichlet(np.ones(6), size=30).T.reshape(3, 2, 30)
        # the collapsed bound holds once every Dirichlet counts this rho
        ebcc_update_tau(state)
        ebcc_update_pi(state)
        ebcc_update_confusion(state)
        value = ebcc_elbo(state)
        assert np.isfinite(value)
        assert value == pytest.approx(_ebcc_elbo_oracle(state), rel=1e-12)


def test_ebcc_elbo_invariant_to_subtype_relabeling(small_synthetic):
    state = ebcc_init(small_synthetic, subtypes=3, seed=2)
    ebcc_update_assignments(state)
    ebcc_update_tau(state)
    ebcc_update_pi(state)
    ebcc_update_confusion(state)
    before = ebcc_elbo(state)
    order = [2, 0, 1]
    state.rho = state.rho[:, order]
    state.eta = state.eta[:, order]
    state.mu = state.mu[:, order]
    after = ebcc_elbo(state)
    assert after == pytest.approx(before, rel=1e-12)


# --------------------------------------------------------------- ebcc fits


def test_ebcc_fit_is_deterministic(small_synthetic):
    a = ebcc_fit(small_synthetic, seed=5)
    b = ebcc_fit(small_synthetic, seed=5)
    assert np.array_equal(a.probs, b.probs)
    assert np.array_equal(a.predictions, b.predictions)


def test_ebcc_fit_posterior_invariants(small_synthetic):
    post = ebcc_fit(small_synthetic, seed=0)
    assert np.allclose(post.probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all((post.probs >= 0.0) & (post.probs <= 1.0))
    assert np.array_equal(post.predictions, np.argmax(post.probs, axis=1))


def test_ebcc_fit_invariant_to_lf_order(small_synthetic):
    order = [3, 1, 7, 0, 5, 2, 6, 4]
    shuffled = Dataset(
        features=small_synthetic.features,
        lf_labels=small_synthetic.lf_labels[:, order],
        num_classes=small_synthetic.num_classes,
        gold=small_synthetic.gold,
    )
    a = ebcc_fit(small_synthetic, seed=0, max_iters=50)
    b = ebcc_fit(shuffled, seed=0, max_iters=50)
    assert np.allclose(a.probs, b.probs, atol=1e-9)


def test_ibcc_equals_ebcc_with_one_subtype(small_synthetic):
    a = fit_method(small_synthetic, "ibcc", seed=4)
    b = ebcc_fit(small_synthetic, subtypes=1, seed=4)
    assert np.array_equal(a.probs, b.probs)


def test_ibcc_perfect_unanimous_lfs():
    gold = np.tile([0, 1, 2], 6)
    votes = np.repeat(gold[:, None], 3, axis=1)
    d = _dataset(votes, k=3, gold=gold)
    post = fit_method(d, "ibcc", seed=0)
    assert accuracy(post.predictions, gold) == 1.0


@pytest.mark.parametrize("max_iters", [3, 300])
@pytest.mark.parametrize("method", ["ds", "ibcc", "ebcc", "fable"])
def test_iterative_fits_report_one_delta_per_sweep(method, max_iters):
    # every iterative fit runs the same loop: 3 sweeps stop short, 300 reach tol
    tol = 1e-6
    post = fit_method(random_dataset(2, n=60), method, seed=0, max_iters=max_iters, tol=tol)
    deltas = post.diagnostics["delta_trace"]
    assert len(deltas) == post.n_iters
    assert post.diagnostics["converged"] == (deltas[-1] < tol)
    assert post.diagnostics["converged"] == (max_iters == 300)
    assert post.n_iters == max_iters or post.diagnostics["converged"]
    assert all(d >= tol for d in deltas[:-1])


EBCC_BLOCKS = ["assignments", "tau", "pi", "confusion"]
FABLE_BLOCKS = ["assignments", "tau", "confusion", "pi", "gp", "augmentation", "lambda"]


@pytest.mark.parametrize(
    "fit, blocks",
    [
        (lambda d: dawid_skene(d, max_iters=3), ["em"]),
        (lambda d: fit_method(d, "ibcc", max_iters=3), EBCC_BLOCKS),
        (lambda d: ebcc_fit(d, max_iters=3), EBCC_BLOCKS),
        (lambda d: ebcc_fit(d, max_iters=3, record_elbo=True), EBCC_BLOCKS + ["elbo"]),
        (lambda d: fable_fit(d, FableConfig(max_iters=3)), FABLE_BLOCKS),
    ],
    ids=["ds", "ibcc", "ebcc", "ebcc-elbo", "fable"],
)
def test_iterative_fits_time_each_block_in_sweep_order(fit, blocks):
    block_ms = fit(random_dataset(2, n=60)).diagnostics["block_ms"]
    assert list(block_ms) == blocks
    assert all(np.isfinite(ms) and ms >= 0.0 for ms in block_ms.values())


def test_ebcc_fit_builds_its_sweep_table_per_call(monkeypatch):
    # a table kept as a module constant would hold the unwrapped update,
    # and an outside-in tracer would see none of the sweep calls
    calls = []
    real = fable.baselines.ebcc_update_assignments

    def counting(state):
        calls.append(1)
        return real(state)

    monkeypatch.setattr(fable.baselines, "ebcc_update_assignments", counting)
    post = ebcc_fit(random_dataset(2, n=60), max_iters=3, tol=0.0)
    assert post.n_iters == 3
    assert len(calls) == 3


def test_ebcc_priors_reject_bad_alpha(small_synthetic):
    with pytest.raises(ValueError):
        ebcc_init(small_synthetic, subtypes=0)


# ------------------------------------------------ one-hot vote statistics
# The per-LF boolean-mask loops the vote statistics were computed with
# before the one-hot products, kept as oracles.


def _vote_log_scores_oracle(elog_v, lf_labels):
    n = lf_labels.shape[0]
    k, m = elog_v.shape[:2]
    scores = np.zeros((k, m, n))
    for j in range(lf_labels.shape[1]):
        votes = lf_labels[:, j]
        mask = votes != ABSTAIN
        if not mask.any():
            continue
        scores[:, :, mask] += elog_v[:, :, j][:, :, votes[mask]]
    return scores


def _confusion_counts_oracle(rho, lf_labels, k):
    _, m, _ = rho.shape
    counts = np.zeros((rho.shape[0], m, lf_labels.shape[1], k))
    for j in range(lf_labels.shape[1]):
        votes = lf_labels[:, j]
        mask = votes != ABSTAIN
        if not mask.any():
            continue
        onehot = (votes[mask][:, None] == np.arange(k)[None, :]).astype(float)
        counts[:, :, j] = np.einsum("kmn,nl->kml", rho[:, :, mask], onehot)
    return counts


def _dawid_skene_oracle(dataset, max_iters, tol=1e-6, smoothing=1e-9):
    n, k, n_lf = dataset.n_items, dataset.num_classes, dataset.n_lfs
    votes = dataset.lf_labels
    qz = majority_vote(dataset).probs
    trace = []
    for _ in range(max_iters):
        prior = qz.sum(axis=0) + smoothing
        prior /= prior.sum()
        counts = np.full((n_lf, k, k), smoothing)
        for j in range(n_lf):
            mask = votes[:, j] != ABSTAIN
            if not mask.any():
                continue
            onehot = votes[mask, j][:, None] == np.arange(k)[None, :]
            counts[j] += qz[mask].T @ onehot
        theta = counts / counts.sum(axis=2, keepdims=True)

        scores = np.log(prior)[None, :].repeat(n, axis=0)
        log_theta = np.log(theta)
        for j in range(n_lf):
            mask = votes[:, j] != ABSTAIN
            if not mask.any():
                continue
            scores[mask] += log_theta[j][:, votes[mask, j]].T
        shifted = scores - scores.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        norms = weights.sum(axis=1, keepdims=True)
        trace.append(float((np.log(norms[:, 0]) + scores.max(axis=1)).sum()))
        new_qz = weights / norms
        delta = float(np.max(np.abs(new_qz - qz)))
        qz = new_qz
        if delta < tol:
            break
    return qz, np.asarray(trace)


@st.composite
def _votes(draw):
    """Random votes with one always-abstaining LF and some items without votes."""
    n = draw(st.integers(1, 40))
    n_lf = draw(st.integers(1, 6))
    k = draw(st.integers(2, 5))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    votes = rng.integers(ABSTAIN, k, size=(n, n_lf))
    votes[:, draw(st.integers(0, n_lf - 1))] = ABSTAIN
    votes[rng.random(n) < 0.25] = ABSTAIN
    return votes, k, m, rng


_ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def test_vote_onehot_marks_one_column_per_vote():
    votes = np.array([[1, -1, 0], [-1, -1, -1], [0, 2, 2]])
    onehot_t = _dataset(votes, k=3).onehot_t
    expected = np.zeros((9, 3))
    expected[[1, 6], 0] = 1.0
    expected[[0, 5, 8], 2] = 1.0
    assert onehot_t.format == "csr"
    assert onehot_t.shape == (9, 3)
    assert onehot_t.nnz == 5
    assert np.array_equal(onehot_t.toarray(), expected)
    onehot = _dataset(votes, k=3).onehot
    assert onehot.format == "csc"
    assert np.array_equal(onehot.toarray(), expected.T)


# the lead shapes the fits pass: (K,) from majority vote and Dawid-Skene,
# (K, M) from the subtype models
_LEADS = st.booleans()


@_ORACLE_SETTINGS
@given(_votes(), _LEADS)
def test_vote_sums_match_mask_loop(case, per_class):
    votes, k, m, rng = case
    lead = (k,) if per_class else (k, m)
    elog_v = np.log(rng.dirichlet(np.ones(k), size=lead + (votes.shape[1],)))
    got = _dataset(votes, k=k).vote_sums(elog_v)
    assert got.shape == lead + (votes.shape[0],)
    expected = _vote_log_scores_oracle(elog_v.reshape(k, -1, *elog_v.shape[-2:]), votes)
    assert np.allclose(got, expected.reshape(got.shape), rtol=0, atol=1e-10)


@_ORACLE_SETTINGS
@given(_votes(), _LEADS)
def test_vote_counts_match_mask_loop(case, per_class):
    votes, k, m, rng = case
    lead = (k,) if per_class else (k, m)
    rho = rng.dirichlet(np.ones(np.prod(lead)), size=votes.shape[0]).T.reshape(*lead, -1)
    d = _dataset(votes, k=k)
    got = d.vote_counts(rho)
    csc = _dataset(votes, k=k)
    csc.onehot_t = d.onehot_t.tocsc()
    assert np.array_equal(got, csc.vote_counts(rho))  # CSR = CSC product, bit for bit
    expected = _confusion_counts_oracle(rho.reshape(k, -1, rho.shape[-1]), votes, k)
    assert got.shape == lead + expected.shape[2:]
    assert np.allclose(got, expected.reshape(got.shape), rtol=0, atol=1e-10)
    # the ELBO's vote term, as counts against E[log v] and as per-item scores
    elog_v = np.log(rng.dirichlet(np.ones(k), size=lead + (votes.shape[1],)))
    by_counts = (got * elog_v).sum()
    scores = _vote_log_scores_oracle(elog_v.reshape(k, -1, *elog_v.shape[-2:]), votes)
    by_items = (rho * scores.reshape(rho.shape)).sum()
    assert by_counts == pytest.approx(by_items, rel=1e-10, abs=1e-10)


@_ORACLE_SETTINGS
@given(_votes())
def test_majority_vote_matches_mask_loop(case):
    votes, k, _, _ = case
    counts = np.stack([(votes == c).sum(axis=1) for c in range(k)], axis=1).astype(float)
    totals = counts.sum(axis=1)
    silent = totals == 0
    counts[silent] = 1.0
    totals[silent] = k
    expected = _finish((counts / totals[:, None]).T, n_iters=0)
    post = majority_vote(_dataset(votes, k=k))
    # the counts are whole numbers either way, so every bit agrees
    assert np.array_equal(post.probs, expected.probs)
    assert np.array_equal(post.predictions, expected.predictions)


@_ORACLE_SETTINGS
@given(_votes())
def test_dawid_skene_matches_mask_loop(case):
    votes, k, _, rng = case
    d = _dataset(votes, k=k)
    post = dawid_skene(d, max_iters=15)
    qz, trace = _dawid_skene_oracle(d, max_iters=15)
    assert np.allclose(post.probs, qz, rtol=0, atol=1e-10)
    assert post.elbo_trace.shape == trace.shape
    assert np.allclose(post.elbo_trace, trace, rtol=1e-12, atol=1e-10)


def test_every_fit_reads_the_one_vote_matrix_of_its_dataset(small_synthetic, monkeypatch):
    builds = []
    # Dataset.onehot_t imports scipy.sparse when it runs, so it sees this patch
    real_csc = scipy.sparse.csc_matrix

    def counting_csc(*args, **kwargs):
        builds.append(args)
        return real_csc(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse, "csc_matrix", counting_csc)
    d = Dataset(features=small_synthetic.features, lf_labels=small_synthetic.lf_labels)
    assert builds == []  # building a Dataset does not build its vote matrix
    majority_vote(d)
    dawid_skene(d, max_iters=3)
    ebcc_fit(d, max_iters=3)
    fable_fit(d, FableConfig(max_iters=3))
    assert ebcc_init(d).dataset is d
    assert fable_init(d, FableConfig()).dataset is d
    assert len(builds) == 1
    # the (N, L*K) transpose the vote sums read is built once too, as a view
    assert d.onehot.shape == d.onehot_t.shape[::-1]
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(d.onehot, name), getattr(d.onehot_t, name)), name
    assert len(builds) == 1


def test_sweeps_leave_onehot_untouched(small_synthetic):
    d = small_synthetic
    ebcc = ebcc_init(d, subtypes=2, seed=0)
    fable = fable_init(d, FableConfig(subtypes=2), seed=0)
    for state, assign, confuse in (
        (ebcc, ebcc_update_assignments, ebcc_update_confusion),
        (fable, fable_update_assignments, ebcc_update_confusion),
    ):
        onehot_t = state.dataset.onehot_t
        before = (onehot_t.data.copy(), onehot_t.indices.copy(), onehot_t.indptr.copy())
        for _ in range(3):
            assign(state)
            confuse(state)
        assert state.dataset is d
        assert d.onehot_t is onehot_t
        for arr, old in zip((onehot_t.data, onehot_t.indices, onehot_t.indptr), before):
            assert np.array_equal(arr, old)
        fresh = _dataset(d.lf_labels, k=d.num_classes).onehot_t
        assert np.array_equal(onehot_t.toarray(), fresh.toarray())
