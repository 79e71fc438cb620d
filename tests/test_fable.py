"""The feature-aware model: init, update blocks, and full fits."""

import copy
import itertools
import math

import numpy as np
import pytest
from scipy.special import psi as digamma

import fable.model
from fable import (
    Dataset,
    FableConfig,
    accuracy,
    dawid_skene,
    ebcc_init,
    fable_fit,
    fable_init,
    majority_vote,
)
from fable.baselines import (
    _A_PI,
    _BETA_OFFDIAG,
    _finish,
    ebcc_fit,
    ebcc_update_assignments,
    ebcc_update_confusion,
    ebcc_update_pi,
    ebcc_update_tau,
)
from fable.linalg import _PG_SMALL_TILT, dirichlet_log_expectation, lowrank_posterior
from fable.model import (
    _CONFUSION_SCALE,
    _XI_FLOOR,
    fable_update_assignments,
    fable_update_augmentation,
    fable_update_gp,
    fable_update_lambda,
    fable_update_pi,
)

from conftest import random_dataset


def run_one_sweep(state):
    fable_update_assignments(state)
    ebcc_update_tau(state)
    ebcc_update_confusion(state)
    fable_update_pi(state)
    fable_update_gp(state)
    fable_update_augmentation(state)
    fable_update_lambda(state)
    return state


# ---------------------------------------------------------------- init


def test_init_invariants(small_synthetic):
    config = FableConfig()
    state = fable_init(small_synthetic, config, seed=3)
    n, m = small_synthetic.n_items, config.subtypes
    assert np.allclose(state.rho.sum(axis=(0, 1)), 1.0, atol=1e-9)
    assert state.alpha.sum() == pytest.approx(n, rel=1e-12)
    assert np.all((state.a > 0.0) & (state.a < 1.0))
    assert state.beta[0, 0] == pytest.approx(n * m * _CONFUSION_SCALE)
    assert state.beta[0, 1] == _BETA_OFFDIAG
    assert np.all(state.xi >= _XI_FLOOR)
    assert np.all(state.gamma >= 0.0)


def test_init_is_deterministic(small_synthetic):
    a = fable_init(small_synthetic, FableConfig(), seed=9)
    b = fable_init(small_synthetic, FableConfig(), seed=9)
    for field in ("rho", "m_hat", "a", "nu", "mu", "c", "gamma"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


# --------------------------------------------------------------- update ops


def test_sweep_maintains_coupled_invariants(small_synthetic):
    state = fable_init(small_synthetic, FableConfig(), seed=0)
    for _ in range(3):
        run_one_sweep(state)
        assert np.allclose(state.rho.sum(axis=(0, 1)), 1.0, atol=1e-9)
        # c^2 - m_hat^2 is the GP posterior variance: positive, at most the prior's
        variance = state.c**2 - state.m_hat**2
        assert np.all(variance > 0.0)
        assert np.all(variance <= state.kernel.diagonal() + 1e-9)
        assert np.allclose(state.a, state.gamma.sum(axis=(0, 1)) + 1.0, atol=1e-12)
        assert np.all(state.xi >= _XI_FLOOR)
        for name in ("rho", "nu", "mu", "xi", "m_hat", "c", "gamma", "a"):
            assert np.all(np.isfinite(getattr(state, name))), name


def test_pi_update_values_and_clamp(small_synthetic):
    state = fable_init(small_synthetic, FableConfig(), seed=0)
    state.rho = np.zeros_like(state.rho)
    state.m_hat = np.zeros_like(state.m_hat)
    clamps_before = state.xi_clamps
    fable_update_pi(state)
    assert np.allclose(state.xi, np.log(2.0), atol=1e-15)
    assert state.xi_clamps == clamps_before

    # a mean of exactly 2 log 2 zeroes the raw rate: clamp to the floor
    state.m_hat = np.full_like(state.m_hat, 2.0 * np.log(2.0))
    fable_update_pi(state)
    assert np.all(state.xi == _XI_FLOOR)
    assert state.xi_clamps == clamps_before + state.m_hat.size


def test_log_pi_expectation_matches_sampling_oracle():
    shape, rate = 1.37, 0.52
    rng = np.random.default_rng(0)
    draws = rng.gamma(shape, 1.0 / rate, size=1_000_000)
    sample = np.log(draws)
    estimate = sample.mean()
    se = sample.std() / np.sqrt(sample.size)
    assert abs((digamma(shape) - np.log(rate)) - estimate) < 3 * se


def test_assignments_match_scalar_formula():
    d = Dataset(
        features=np.array([[0.0, 1.0], [1.0, 0.0]]),
        lf_labels=np.array([[1], [-1]]),
        num_classes=2,
    )
    config = FableConfig(subtypes=2)
    state = fable_init(d, config, seed=2)
    pi_shape = state.rho + 1.0  # the Gamma shape of q(pi) before the update
    fable_update_assignments(state)
    elog_tau = digamma(state.nu) - digamma(state.nu.sum())
    expected = np.zeros((2, 2, 2))
    for i in range(2):
        for k in range(2):
            for m in range(2):
                score = elog_tau[k] + digamma(pi_shape[k, m, i]) - np.log(state.xi[k, m, i])
                vote = d.lf_labels[i, 0]
                if vote != -1:
                    score += digamma(state.mu[k, m, 0, vote]) - digamma(state.mu[k, m, 0].sum())
                expected[k, m, i] = score
    expected = np.exp(expected - expected.max(axis=(0, 1)))
    expected /= expected.sum(axis=(0, 1))
    assert np.allclose(state.rho, expected, atol=1e-12)


def test_gp_update_balanced_evidence_gives_zero_mean(small_synthetic):
    state = fable_init(small_synthetic, FableConfig(), seed=0)
    state.gamma = (state.rho + 1.0) / state.xi  # rhs = E[pi] - gamma = 0
    fable_update_gp(state)
    assert np.allclose(state.m_hat, 0.0, atol=1e-9)
    # with a zero mean the tilt is the posterior standard deviation
    assert np.all(state.c > 0.0)


def test_gp_update_matches_dense_oracle():
    d = random_dataset(17, n=30, k=2)
    config = FableConfig(subtypes=2)
    state = fable_init(d, config, seed=1)
    epi = (state.rho + 1.0) / state.xi
    expected_m = np.zeros_like(state.m_hat)
    expected_c = np.zeros_like(state.c)
    prior = state.kernel.values
    from fable import pg_mean

    for k in range(2):
        for m in range(2):
            omega = pg_mean(epi[k, m] + state.gamma[k, m], state.c[k, m])
            cov = np.linalg.inv(np.linalg.inv(prior) + np.diag(omega))
            expected_m[k, m] = 0.5 * cov @ (epi[k, m] - state.gamma[k, m])
            expected_c[k, m] = np.sqrt(expected_m[k, m] ** 2 + np.diag(cov))
    fable_update_gp(state)
    assert np.allclose(state.m_hat, expected_m, rtol=1e-6, atol=1e-9)
    assert np.allclose(state.c, expected_c, rtol=1e-6, atol=1e-9)


def test_augmentation_zero_signal_cell(small_synthetic):
    config = FableConfig()
    state = fable_init(small_synthetic, config, seed=0)
    state.m_hat = np.zeros_like(state.m_hat)
    state.c = np.zeros_like(state.c)
    state.a = np.ones_like(state.a)
    fable_update_augmentation(state)
    # exp(psi(1)) / (b * 2 cosh(0)) with b = K * M: the Poisson mean carries
    # the 2^-count factor of the augmented likelihood, halving the naive
    # exp(psi(a))/b
    b = small_synthetic.num_classes * config.subtypes
    assert np.allclose(state.gamma, np.exp(digamma(1.0)) / (2.0 * b), atol=1e-12)


def test_augmentation_hand_value(small_synthetic):
    config = FableConfig()
    state = fable_init(small_synthetic, config, seed=0)
    state.m_hat = np.ones_like(state.m_hat)
    state.c = np.ones_like(state.c)
    state.a = np.ones_like(state.a)
    fable_update_augmentation(state)
    # exp(psi(1) - 1/2) / (b * 2 cosh(1/2)) with b = K * M, in scalar arithmetic
    b = small_synthetic.num_classes * config.subtypes
    expected = math.exp(digamma(1.0) - 0.5) / (b * 2.0 * math.cosh(0.5))
    assert np.allclose(state.gamma, expected, atol=1e-12)


def test_augmentation_even_in_gp_mean(small_synthetic):
    # at a fixed tilt gamma * exp(m_hat / 2) is even in m_hat: the mean
    # enters gamma only through exp(-m_hat / 2)
    state = fable_init(small_synthetic, FableConfig(), seed=0)
    state.c = np.full_like(state.c, 0.8)
    state.a = np.ones_like(state.a)
    state.m_hat = np.full_like(state.m_hat, 1.3)
    fable_update_augmentation(state)
    gamma_pos = state.gamma.copy()
    state.m_hat = -state.m_hat
    fable_update_augmentation(state)
    assert np.allclose(state.gamma / gamma_pos, np.exp(1.3), rtol=1e-12)


def test_augmentation_survives_huge_tilts(small_synthetic):
    state = fable_init(small_synthetic, FableConfig(), seed=0)
    state.m_hat = np.full_like(state.m_hat, 1e4)
    state.c = np.full_like(state.c, np.sqrt(2.0) * 1e4)
    fable_update_augmentation(state)
    assert np.all(np.isfinite(state.gamma))
    assert np.all(state.gamma >= 0.0)


def test_augmentation_matches_the_log_cosh_form(small_synthetic):
    # log gamma = psi(a) - log(K M) - m_hat/2 - log 2 - log cosh(c/2) as
    # first written, on tilts c >= |m_hat| from 0 to past exp(-c)
    # underflow; m_hat + c stays below 20, so no gamma underflows
    state = fable_init(small_synthetic, FableConfig(), seed=0)
    rng = np.random.default_rng(1)
    shape = state.c.shape
    c = rng.choice([0.0, 1e-9, 0.3, 2.0, 40.0, 800.0, 1e3], size=shape)
    state.c = c.copy()
    state.m_hat = rng.uniform(0.0, np.minimum(2.0 * c, 20.0)) - c
    state.a = rng.uniform(1.0, 5.0, size=state.a.shape)
    half = c / 2.0
    log_cosh = half + np.log1p(np.exp(-2.0 * half)) - np.log(2.0)
    log_gamma = (
        digamma(state.a)
        - state.m_hat / 2.0
        - np.log(float(shape[0] * shape[1]))
        - np.log(2.0)
        - log_cosh
    )
    expected = np.exp(np.minimum(log_gamma, 700.0))
    fable_update_augmentation(state)
    assert np.all(expected > 0.0)
    assert np.allclose(state.gamma, expected, rtol=1e-13, atol=0.0)


def test_lambda_update_sums_poisson_mass(small_synthetic):
    config = FableConfig()
    state = fable_init(small_synthetic, config, seed=0)
    state.gamma = np.zeros_like(state.gamma)
    fable_update_lambda(state)
    assert np.allclose(state.a, 1.0, atol=1e-15)

    rng = np.random.default_rng(1)
    state.gamma = rng.uniform(size=state.gamma.shape)
    fable_update_lambda(state)
    first = state.a - 1.0
    state.gamma = 2.0 * state.gamma
    fable_update_lambda(state)
    assert np.allclose(state.a - 1.0, 2.0 * first, atol=1e-12)


# -------------------------------------------------------- structural checks


def test_matches_subtype_model_when_mixture_terms_tie():
    # with the mixture expectations constant across (k, m) both assignment
    # updates see the same per-cell scores, so the models coincide there
    d = random_dataset(5, n=25, k=2)
    config = FableConfig(subtypes=2)
    fab = fable_init(d, config, seed=8)
    bcc = ebcc_init(d, subtypes=2, seed=8)
    bcc.nu = fab.nu.copy()
    bcc.mu = fab.mu.copy()
    fab.rho = np.zeros_like(fab.rho)  # Gamma shape rho + 1 = 1 everywhere
    fab.xi = np.full_like(fab.xi, 0.7)
    bcc.eta = np.ones_like(bcc.eta)
    fable_update_assignments(fab)
    ebcc_update_assignments(bcc)
    assert np.allclose(fab.rho, bcc.rho, atol=1e-12)


# ---------------------------------------------------------------- full fits


def test_fit_is_deterministic(small_synthetic):
    config = FableConfig(max_iters=8)
    a = fable_fit(small_synthetic, config, seed=7)
    b = fable_fit(small_synthetic, config, seed=7)
    assert np.array_equal(a.probs, b.probs)
    assert a.n_iters == b.n_iters


def test_fit_posterior_rows_normalized(small_synthetic):
    post = fable_fit(small_synthetic, FableConfig(max_iters=6), seed=0)
    assert np.allclose(post.probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(np.isfinite(post.probs))
    assert "xi_clamps" in post.diagnostics
    assert len(post.diagnostics["delta_trace"]) == post.n_iters
    assert post.diagnostics["gp_rank"] == small_synthetic.features.shape[1]


def test_fit_builds_its_sweep_table_per_call(small_synthetic, monkeypatch):
    # a table kept as a module constant would hold the unwrapped update,
    # and an outside-in tracer would see none of the sweep calls
    calls = []
    real = fable.model.fable_update_gp

    def counting(state):
        calls.append(1)
        return real(state)

    monkeypatch.setattr(fable.model, "fable_update_gp", counting)
    post = fable_fit(small_synthetic, FableConfig(max_iters=3, tol=0.0), seed=0)
    assert post.n_iters == 3
    assert len(calls) == 3


def test_fit_truncates_wide_features_to_rank(monkeypatch):
    monkeypatch.setattr(fable.model, "_GP_RANK", 5)
    d = random_dataset(3, n=40, k=2)
    wide = Dataset(
        features=np.random.default_rng(3).standard_normal((40, 12)),
        lf_labels=d.lf_labels,
        num_classes=2,
        gold=d.gold,
    )
    config = FableConfig(subtypes=2, max_iters=3)
    assert fable_init(wide, config, seed=0).kernel.rows.shape == (5, 40)
    post = fable_fit(wide, config, seed=0)
    assert post.diagnostics["gp_rank"] == 5
    assert np.all(np.isfinite(post.probs))


def test_fit_recovers_noiseless_labels():
    gold = np.repeat([0, 1], 15)
    features = np.vstack(
        [
            np.random.default_rng(0).normal(-3.0, 0.1, size=(15, 2)),
            np.random.default_rng(1).normal(3.0, 0.1, size=(15, 2)),
        ]
    )
    votes = np.repeat(gold[:, None], 4, axis=1)
    d = Dataset(features=features, lf_labels=votes, num_classes=2, gold=gold)
    post = fable_fit(d, FableConfig(max_iters=15), seed=0)
    assert accuracy(post.predictions, gold) == 1.0


def test_fit_single_subtype_matches_em_on_noiseless_data():
    gold = np.repeat([0, 1], 10)
    features = np.column_stack([np.linspace(-1, 1, 20), gold.astype(float)])
    votes = np.repeat(gold[:, None], 3, axis=1)
    d = Dataset(features=features, lf_labels=votes, num_classes=2, gold=gold)
    fab = fable_fit(d, FableConfig(subtypes=1, max_iters=15), seed=0)
    em = dawid_skene(d)
    assert np.array_equal(fab.predictions, em.predictions)
    assert accuracy(fab.predictions, gold) == 1.0


def test_fit_improves_on_majority_vote(small_synthetic):
    from fable import majority_vote

    mv_acc = accuracy(majority_vote(small_synthetic).predictions, small_synthetic.gold)
    fab_acc = accuracy(
        fable_fit(small_synthetic, FableConfig(), seed=0).predictions,
        small_synthetic.gold,
    )
    assert fab_acc >= mv_acc - 0.01


def test_fuzzed_instances_stay_finite():
    config = FableConfig(subtypes=2, max_iters=4)
    for seed in range(12):
        n = 10 + (seed * 7) % 41
        d = random_dataset(seed, n=n, k=2 + seed % 2, abstain_rate=0.5)
        post = fable_fit(d, config, seed=seed)
        assert np.all(np.isfinite(post.probs))
        assert np.allclose(post.probs.sum(axis=1), 1.0, atol=1e-9)


# ------------------------------------------------- exact reference sweep
#
# The update expressions as first written, one numpy reduction or
# temporary per step.  The sweep functions compute the same operations in
# the same order with fewer passes, so every field must match bit for bit.


def _reference_assignments(state, elog_pi):
    elog_tau = dirichlet_log_expectation(state.nu)
    elog_v = dirichlet_log_expectation(state.mu)
    scores = elog_tau[:, None, None] + elog_pi
    scores = scores + state.dataset.vote_sums(elog_v)
    flat = scores.reshape(-1, scores.shape[-1])
    flat = flat - flat.max(axis=0)
    weights = np.exp(flat)
    # the cells of an item are added one by one, in order
    weights /= sum(weights[j] for j in range(weights.shape[0]))
    # C order, as the state keeps it: the sums over items depend on the layout
    state.rho = np.ascontiguousarray(weights.reshape(scores.shape))


def _reference_counts(state):
    # the CSC product with one column per item, as first written
    k, m, n = state.rho.shape
    counts = state.dataset.onehot_t.tocsc() @ state.rho.reshape(k * m, n).T
    return counts.T.reshape(k, m, -1, k)


def _reference_core(state):
    # the subtypes of each class first, then the items
    state.nu = state.alpha + state.rho.sum(axis=1).sum(axis=1)
    state.mu = state.beta[:, None, None, :] + _reference_counts(state)


def _reference_pg_mean(b, c):
    b, c = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(c, dtype=float))
    small = np.abs(c) < _PG_SMALL_TILT
    safe = np.where(small, 1.0, c)
    return np.where(small, b / 4.0, b * np.tanh(safe / 2.0) / (2.0 * safe))


def reference_fable_start(dataset, config, seed):
    """The random part of ``fable_init`` in the reference expressions: rho, m_hat and a.

    Each draw is made per item, in the (N, ...) shape and the stream
    order the fit has always drawn, and only then moved to (K, M, N).
    """
    n, k, m = dataset.n_items, dataset.num_classes, config.subtypes
    rng = np.random.default_rng(seed)
    mv = majority_vote(dataset).probs
    weights = rng.dirichlet(np.ones(m), size=n)
    rho = (mv[:, :, None] * weights[:, None, :]).transpose(1, 2, 0)
    cells = rho.reshape(k * m, n)
    rho = rho / sum(cells[j] for j in range(k * m))
    m_hat = rng.uniform(size=(n, k, m)).transpose(1, 2, 0)
    return rho, m_hat, rng.uniform(size=n)


def reference_fable_sweep(state):
    """One sweep of ``fable_fit`` in the reference expressions; returns q(z)."""
    k, m, n = state.rho.shape
    _reference_assignments(state, digamma(state.rho + 1.0) - np.log(state.xi))
    _reference_core(state)
    raw = np.log(2.0) - state.m_hat / 2.0
    state.xi_clamps += int((raw < _XI_FLOOR).sum())
    state.xi = np.maximum(raw, _XI_FLOOR)
    epi = (state.rho + 1.0) / state.xi
    omega = _reference_pg_mean(epi + state.gamma, state.c).reshape(-1, n)
    post = lowrank_posterior(state.kernel, omega)
    state.m_hat = 0.5 * post.apply((epi - state.gamma).reshape(omega.shape)).reshape(k, m, n)
    sigma_diag = post.diagonal().reshape(k, m, n)
    state.c = np.sqrt(state.m_hat ** 2 + sigma_diag)
    log_gamma = (
        (digamma(state.a) - np.log(float(k * m)))
        - (state.m_hat + state.c) / 2.0
        - np.log1p(np.exp(-state.c))
    )
    state.gamma = np.exp(np.minimum(log_gamma, 700.0))
    cells = state.gamma.reshape(k * m, n)
    state.a = sum(cells[j] for j in range(k * m)) + 1.0
    return state.rho.sum(axis=1)


def reference_ebcc_sweep(state):
    """One sweep of ``ebcc_fit`` in the reference expressions; returns q(z)."""
    _reference_assignments(state, dirichlet_log_expectation(state.eta)[:, :, None])
    state.nu = state.alpha + state.rho.sum(axis=1).sum(axis=1)
    state.eta = _A_PI + state.rho.sum(axis=2)
    state.mu = state.beta[:, None, None, :] + _reference_counts(state)
    return state.rho.sum(axis=1)


def _oracle_cases():
    """Seeded small datasets: N 1-40, K 2-5, M 1-4, some items with no votes."""
    for seed in range(16):
        rng = np.random.default_rng(seed)
        n, k, m = int(rng.integers(1, 41)), int(rng.integers(2, 6)), int(rng.integers(1, 5))
        d = random_dataset(seed, n=n, k=k, abstain_rate=0.5)
        votes = d.lf_labels.copy()
        votes[rng.integers(0, n)] = -1
        yield seed, Dataset(features=d.features, lf_labels=votes, num_classes=k), m


def _arrays(state):
    return {name: value for name, value in vars(state).items() if isinstance(value, np.ndarray)}


def _assert_same_state(got, expected):
    assert _arrays(got).keys() == _arrays(expected).keys()
    for name, value in _arrays(expected).items():
        assert np.array_equal(getattr(got, name), value), name
    # every per-cell array is cell-major and C-ordered
    for name, value in _arrays(got).items():
        if value.ndim == 3:
            assert value.shape == expected.rho.shape and value.flags.c_contiguous, name
    assert np.array_equal(got.qz, expected.rho.sum(axis=1))
    for (a, x), (b, y) in itertools.combinations(_arrays(got).items(), 2):
        assert not np.shares_memory(x, y), (a, b)


def test_fable_start_matches_reference_bit_for_bit():
    for seed, d, m in _oracle_cases():
        config = FableConfig(subtypes=m)
        state = fable_init(d, config, seed=seed)
        rho, m_hat, a = reference_fable_start(d, config, seed)
        assert np.array_equal(state.rho, rho)
        assert np.array_equal(state.m_hat, m_hat)
        assert np.array_equal(state.a, a)
        assert np.array_equal(state.c, np.sqrt(m_hat ** 2 + state.kernel.diagonal()))


def test_fable_sweep_matches_reference_bit_for_bit():
    for seed, d, m in _oracle_cases():
        config = FableConfig(subtypes=m, max_iters=1)
        state = fable_init(d, config, seed=seed)
        # push some GP means past the clamp and some tilts to the b/4 limit
        rng = np.random.default_rng(seed)
        state.m_hat = state.m_hat * rng.choice([1.0, 3.0], size=state.m_hat.shape)
        state.c = np.where(rng.random(state.c.shape) < 0.2, 0.0, state.c)
        expected = copy.deepcopy(state)
        reference_fable_sweep(expected)
        run_one_sweep(state)
        _assert_same_state(state, expected)
        assert state.xi_clamps == expected.xi_clamps

        # the fit itself: one sweep from the seeded start
        expected = fable_init(d, config, seed=seed)
        qz = reference_fable_sweep(expected)
        post = fable_fit(d, config, seed=seed)
        assert np.array_equal(post.probs, qz.T / qz.T.sum(axis=1, keepdims=True))
        assert post.diagnostics["xi_clamps"] == expected.xi_clamps


def test_vote_products_match_the_transpose_scipy_builds_bit_for_bit():
    # before the dataset kept its transposed view, scipy built one per product
    for seed, d, m in _oracle_cases():
        k, n_lf = d.num_classes, d.n_lfs
        elog_v = np.log(np.random.default_rng(seed).dirichlet(np.ones(k), size=(k, m, n_lf)))
        expected = (elog_v.reshape(k * m, -1) @ d.onehot_t).reshape(k, m, -1)
        assert np.array_equal(d.vote_sums(elog_v), expected)
        counts = np.tile(np.eye(k), n_lf) @ d.onehot_t
        totals = counts.sum(axis=0)
        counts[:, totals == 0], totals[totals == 0] = 1.0, k
        assert np.array_equal(majority_vote(d).probs, _finish(counts / totals, n_iters=0).probs)


def test_ebcc_sweep_matches_reference_bit_for_bit():
    for seed, d, m in _oracle_cases():
        state = ebcc_init(d, subtypes=m, seed=seed)
        expected = copy.deepcopy(state)
        qz = reference_ebcc_sweep(expected)
        ebcc_update_assignments(state)
        ebcc_update_tau(state)
        ebcc_update_pi(state)
        ebcc_update_confusion(state)
        _assert_same_state(state, expected)
        post = ebcc_fit(d, subtypes=m, seed=seed, max_iters=1)
        assert np.array_equal(post.probs, qz.T / qz.T.sum(axis=1, keepdims=True))
