"""The feature-aware model: init, update blocks, and full fits."""

import copy
import itertools

import numpy as np
import pytest
from scipy.special import psi as digamma

from fable import (
    Dataset,
    EbccPriors,
    FableConfig,
    accuracy,
    dawid_skene,
    ebcc_init,
    fable_fit,
    fable_init,
    logistic_softmax,
)
from fable.baselines import (
    _confusion_counts,
    _vote_log_scores,
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


# --------------------------------------------------------- logistic softmax


def test_logistic_softmax_uniform_on_equal_inputs():
    assert np.allclose(logistic_softmax(np.zeros((2, 2))), 0.25, atol=1e-12)
    assert np.allclose(logistic_softmax(np.full((3, 2), 1.7)), 1.0 / 6.0, atol=1e-12)


def test_logistic_softmax_saturates():
    f = np.full((2, 2), -40.0)
    f[0, 0] = 40.0
    out = logistic_softmax(f)
    assert out[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_logistic_softmax_degenerate_plane():
    assert logistic_softmax(np.array([[3.0]])) == pytest.approx(1.0, abs=1e-15)


def test_logistic_softmax_batched(rng):
    f = rng.standard_normal((5, 3, 2))
    out = logistic_softmax(f)
    assert out.shape == (5, 3, 2)
    assert np.allclose(out.sum(axis=(1, 2)), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        logistic_softmax(np.zeros(3))


# ---------------------------------------------------------------- init


def test_init_invariants(small_synthetic):
    config = FableConfig()
    state = fable_init(small_synthetic, config, seed=3)
    n, k, m = small_synthetic.n_items, small_synthetic.num_classes, config.subtypes
    assert np.allclose(state.rho.sum(axis=(1, 2)), 1.0, atol=1e-9)
    assert state.alpha.sum() == pytest.approx(n, rel=1e-12)
    assert np.array_equal(state.b, np.full(n, float(k * m)))
    assert np.all((state.a > 0.0) & (state.a < 1.0))
    assert state.beta[0, 0] == pytest.approx(n * m * _CONFUSION_SCALE)
    assert state.beta[0, 1] == EbccPriors().beta_offdiag
    assert np.all(state.xi >= _XI_FLOOR)
    assert np.all(state.gamma >= 0.0)


def test_init_is_deterministic(small_synthetic):
    a = fable_init(small_synthetic, FableConfig(), seed=9)
    b = fable_init(small_synthetic, FableConfig(), seed=9)
    for field in ("rho", "m_hat", "a", "nu", "mu", "c", "gamma"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


# --------------------------------------------------------------- update ops


def test_sweep_maintains_coupled_invariants(small_synthetic):
    config = FableConfig(lanczos_rank=40)
    state = fable_init(small_synthetic, config, seed=0)
    k, m = small_synthetic.num_classes, config.subtypes
    for _ in range(3):
        run_one_sweep(state)
        assert np.allclose(state.rho.sum(axis=(1, 2)), 1.0, atol=1e-9)
        assert np.array_equal(state.phi, state.rho + 1.0)
        assert np.allclose(state.c**2, state.m_hat**2 + state.sigma_diag, atol=1e-9)
        assert np.allclose(state.a, state.gamma.sum(axis=(1, 2)) + 1.0, atol=1e-12)
        assert np.array_equal(state.b, np.full(state.a.shape, float(k * m)))
        assert np.all(state.xi >= _XI_FLOOR)
        for name in ("rho", "nu", "mu", "phi", "xi", "m_hat", "sigma_diag", "c", "gamma", "a", "b"):
            assert np.all(np.isfinite(getattr(state, name))), name


def test_pi_update_values_and_clamp(small_synthetic):
    state = fable_init(small_synthetic, FableConfig(), seed=0)
    state.rho = np.zeros_like(state.rho)
    state.m_hat = np.zeros_like(state.m_hat)
    clamps_before = state.xi_clamps
    fable_update_pi(state)
    assert np.allclose(state.phi, 1.0, atol=1e-15)
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
    fable_update_assignments(state)
    elog_tau = digamma(state.nu) - digamma(state.nu.sum())
    expected = np.zeros((2, 2, 2))
    for i in range(2):
        for k in range(2):
            for m in range(2):
                score = elog_tau[k] + digamma(state.phi[i, k, m]) - np.log(state.xi[i, k, m])
                vote = d.lf_labels[i, 0]
                if vote != -1:
                    score += digamma(state.mu[0, k, m, vote]) - digamma(state.mu[0, k, m].sum())
                expected[i, k, m] = score
    expected = np.exp(expected - expected.max(axis=(1, 2), keepdims=True))
    expected /= expected.sum(axis=(1, 2), keepdims=True)
    assert np.allclose(state.rho, expected, atol=1e-12)


def test_gp_update_balanced_evidence_gives_zero_mean(small_synthetic):
    config = FableConfig(lanczos_rank=240)
    state = fable_init(small_synthetic, config, seed=0)
    state.gamma = state.phi / state.xi  # rhs = E[pi] - gamma = 0
    fable_update_gp(state)
    assert np.allclose(state.m_hat, 0.0, atol=1e-9)
    assert np.all(state.sigma_diag > 0.0)


def test_gp_update_matches_dense_oracle():
    d = random_dataset(17, n=30, k=2)
    config = FableConfig(subtypes=2, lanczos_rank=30)
    state = fable_init(d, config, seed=1)
    epi = state.phi / state.xi
    expected_m = np.zeros_like(state.m_hat)
    expected_diag = np.zeros_like(state.sigma_diag)
    prior = state.kernel.values
    from fable import pg_mean

    for k in range(2):
        for m in range(2):
            omega = pg_mean(epi[:, k, m] + state.gamma[:, k, m], state.c[:, k, m])
            cov = np.linalg.inv(np.linalg.inv(prior) + np.diag(omega))
            expected_m[:, k, m] = 0.5 * cov @ (epi[:, k, m] - state.gamma[:, k, m])
            expected_diag[:, k, m] = np.diag(cov)
    fable_update_gp(state)
    assert np.allclose(state.m_hat, expected_m, rtol=1e-6, atol=1e-9)
    assert np.allclose(state.sigma_diag, expected_diag, rtol=1e-6, atol=1e-9)


def test_augmentation_zero_signal_cell(small_synthetic):
    state = fable_init(small_synthetic, FableConfig(), seed=0)
    state.m_hat = np.zeros_like(state.m_hat)
    state.sigma_diag = np.zeros_like(state.sigma_diag)
    state.a = np.ones_like(state.a)
    state.b = np.full_like(state.b, 2.0)
    fable_update_augmentation(state)
    assert np.allclose(state.c, 0.0, atol=1e-12)
    # exp(psi(1)) / (2 * 2 cosh(0)): the Poisson mean carries the 2^-count
    # factor of the augmented likelihood, halving the naive exp(psi(a))/b
    assert np.allclose(state.gamma, np.exp(digamma(1.0)) / 4.0, atol=1e-12)


def test_augmentation_hand_value(small_synthetic):
    state = fable_init(small_synthetic, FableConfig(), seed=0)
    state.m_hat = np.ones_like(state.m_hat)
    state.sigma_diag = np.zeros_like(state.sigma_diag)
    state.a = np.ones_like(state.a)
    state.b = np.full_like(state.b, 2.0)
    fable_update_augmentation(state)
    assert np.allclose(state.c, 1.0, atol=1e-12)
    # exp(psi(1) - 1/2) / (2 * 2 cosh(1/2)), frozen from scalar arithmetic
    assert np.allclose(state.gamma, 0.07549985577607077, atol=1e-12)


def test_augmentation_even_in_gp_mean(small_synthetic):
    state = fable_init(small_synthetic, FableConfig(), seed=0)
    state.m_hat = np.full_like(state.m_hat, 1.3)
    fable_update_augmentation(state)
    c_pos = state.c.copy()
    state.m_hat = -state.m_hat
    fable_update_augmentation(state)
    assert np.array_equal(state.c, c_pos)


def test_augmentation_survives_huge_tilts(small_synthetic):
    state = fable_init(small_synthetic, FableConfig(), seed=0)
    state.m_hat = np.full_like(state.m_hat, 1e4)
    state.sigma_diag = np.full_like(state.sigma_diag, 1e4)
    fable_update_augmentation(state)
    assert np.all(np.isfinite(state.gamma))
    assert np.all(state.gamma >= 0.0)


def test_lambda_update_sums_poisson_mass(small_synthetic):
    config = FableConfig()
    state = fable_init(small_synthetic, config, seed=0)
    state.gamma = np.zeros_like(state.gamma)
    fable_update_lambda(state)
    assert np.allclose(state.a, 1.0, atol=1e-15)
    assert np.array_equal(
        state.b, np.full(small_synthetic.n_items, float(small_synthetic.num_classes * config.subtypes))
    )

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
    fab.phi = np.ones_like(fab.phi)
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


def test_fit_truncates_wide_features_to_rank():
    d = random_dataset(3, n=40, k=2)
    wide = Dataset(
        features=np.random.default_rng(3).standard_normal((40, 12)),
        lf_labels=d.lf_labels,
        num_classes=2,
        gold=d.gold,
    )
    config = FableConfig(subtypes=2, max_iters=3, lanczos_rank=5)
    assert fable_init(wide, config, seed=0).kernel.factor.shape == (40, 5)
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
        fable_fit(small_synthetic, FableConfig(lanczos_rank=60), seed=0).predictions,
        small_synthetic.gold,
    )
    assert fab_acc >= mv_acc - 0.01


def test_fuzzed_instances_stay_finite():
    config = FableConfig(subtypes=2, max_iters=4, lanczos_rank=20)
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
    elog_v = dirichlet_log_expectation(state.mu, axis=-1)
    scores = elog_tau[None, :, None] + elog_pi
    scores = scores + _vote_log_scores(elog_v, state.onehot)
    flat = scores.reshape(scores.shape[0], -1)
    flat = flat - flat.max(axis=1, keepdims=True)
    weights = np.exp(flat)
    weights /= weights.sum(axis=1, keepdims=True)
    state.rho = weights.reshape(scores.shape)


def _reference_core(state):
    state.nu = state.alpha + state.rho.sum(axis=(0, 2))
    state.mu = state.beta[None, :, None, :] + _confusion_counts(state.rho, state.onehot)


def _reference_pg_mean(b, c):
    b, c = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(c, dtype=float))
    small = np.abs(c) < _PG_SMALL_TILT
    safe = np.where(small, 1.0, c)
    return np.where(small, b / 4.0, b * np.tanh(safe / 2.0) / (2.0 * safe))


def reference_fable_sweep(state):
    """One sweep of ``fable_fit`` in the reference expressions; returns q(z)."""
    n, k, m = state.rho.shape
    _reference_assignments(state, digamma(state.phi) - np.log(state.xi))
    _reference_core(state)
    state.phi = state.rho + 1.0
    raw = np.log(2.0) - state.m_hat / 2.0
    state.xi_clamps += int((raw < _XI_FLOOR).sum())
    state.xi = np.maximum(raw, _XI_FLOOR)
    epi = state.phi / state.xi
    omega = _reference_pg_mean(epi + state.gamma, state.c).reshape(n, -1)
    post = lowrank_posterior(state.kernel, omega)
    state.m_hat = 0.5 * post.apply((epi - state.gamma).reshape(omega.shape)).reshape(n, k, m)
    state.sigma_diag = post.diagonal().reshape(n, k, m)
    state.c = np.sqrt(state.m_hat ** 2 + state.sigma_diag)
    half = np.abs(state.c / 2.0)
    log_cosh = half + np.log1p(np.exp(-2.0 * half)) - np.log(2.0)
    log_gamma = (
        digamma(state.a)[:, None, None]
        - state.m_hat / 2.0
        - np.log(state.b)[:, None, None]
        - np.log(2.0)
        - log_cosh
    )
    state.gamma = np.exp(np.minimum(log_gamma, 700.0))
    state.a = state.gamma.sum(axis=(1, 2)) + 1.0
    state.b = np.full(n, float(k * m))
    return state.rho.sum(axis=2)


def reference_ebcc_sweep(state):
    """One sweep of ``ebcc_fit`` in the reference expressions; returns q(z)."""
    _reference_assignments(state, dirichlet_log_expectation(state.eta, axis=-1))
    state.nu = state.alpha + state.rho.sum(axis=(0, 2))
    state.eta = state.a_pi + state.rho.sum(axis=0)
    state.mu = state.beta[None, :, None, :] + _confusion_counts(state.rho, state.onehot)
    return state.rho.sum(axis=2)


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
    assert np.array_equal(got.qz, expected.rho.sum(axis=2))
    for (a, x), (b, y) in itertools.combinations(_arrays(got).items(), 2):
        assert not np.shares_memory(x, y), (a, b)


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
        assert np.array_equal(post.probs, qz / qz.sum(axis=1, keepdims=True))
        assert post.diagnostics["xi_clamps"] == expected.xi_clamps


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
        assert np.array_equal(post.probs, qz / qz.sum(axis=1, keepdims=True))
