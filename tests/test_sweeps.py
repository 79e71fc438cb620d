"""The sweep contract of the iterative fits: in-place updates, carried fields, bounds, memory."""

import copy
import tracemalloc

import numpy as np
import pytest
from scipy.special import psi as digamma

import fable.baselines
import fable.model
from fable import (
    FableConfig,
    cosine_kernel,
    default_synthetic_spec,
    ebcc_fit,
    ebcc_init,
    fable_fit,
    fable_init,
    generate_synthetic,
    lowrank_posterior,
    majority_vote,
)

from conftest import random_dataset

_FITS = {
    "fable": (fable.model, lambda d, seed: fable_fit(d, FableConfig(subtypes=2), seed=seed)),
    "ebcc": (fable.baselines, lambda d, seed: ebcc_fit(d, subtypes=2, seed=seed)),
    "ibcc": (fable.baselines, lambda d, seed: ebcc_fit(d, subtypes=1, seed=seed)),
}

# the fields a sweep writes, each with whether the next sweep reads the
# value the last one left: ebcc's assignments recompute rho from nu, mu
# and eta before anything reads it, while fable's read psi(rho + 1)
_SWEEP_FIELDS = {
    "fable": dict.fromkeys(("rho", "nu", "mu", "xi", "m_hat", "c", "gamma", "a"), True),
    "ebcc": {"rho": False, "nu": True, "mu": True, "eta": True},
}


class _Table(Exception):
    """Raised in place of the sweep loop, with the state and the table it was given."""


def _sweep_table(monkeypatch, method, dataset, seed=0):
    """The started state and the (name, update) sweep table that ``method``'s fit builds."""
    module, fit = _FITS[method]

    def capture(state, blocks, *args, **kwargs):
        raise _Table(state, blocks)

    with monkeypatch.context() as patch:
        patch.setattr(module, "_iterate", capture)
        with pytest.raises(_Table) as caught:
            fit(dataset, seed)
    return caught.value.args


def _sweep(state, blocks):
    for _, update in blocks:
        update(state)


@pytest.mark.parametrize("method", sorted(_FITS))
def test_every_sweep_update_returns_none(monkeypatch, method):
    state, blocks = _sweep_table(monkeypatch, method, random_dataset(2, n=30))
    assert len(blocks) >= 4
    for name, update in blocks:
        assert update(state) is None, name


def test_augmentation_stays_below_its_item_bound_so_a_grows_below_one_per_sweep(monkeypatch):
    # c >= |m_hat| and log1p(exp(-c)) >= 0 give log gamma <= psi(a) - log(K M),
    # and a = sum gamma + 1 < exp(psi(a_prev)) + 1 < a_prev + 1
    for seed in range(8):
        d = random_dataset(seed, n=12 + 7 * seed, k=2 + seed % 3, abstain_rate=0.2 + 0.08 * seed)
        state, blocks = _sweep_table(monkeypatch, "fable", d, seed=seed)
        log_cells = np.log(float(state.gamma.shape[0] * state.gamma.shape[1]))
        start = state.a.copy()
        for sweep in range(1, 301):
            for name, update in blocks:
                update(state)
                if name == "augmentation":
                    # a is still the shape it read: the lambda block comes after it
                    with np.errstate(divide="ignore"):
                        log_gamma = np.log(state.gamma)
                    assert np.all(log_gamma <= digamma(state.a) - log_cells + 1e-12), (seed, sweep)
            assert np.all(state.a < start + sweep), (seed, sweep)


@pytest.mark.parametrize("method", sorted(_SWEEP_FIELDS))
def test_one_sweep_carries_exactly_the_declared_fields(monkeypatch, method):
    # a relative 1e-6 nudge to a field after 5 sweeps moves the state one
    # sweep later if and only if the sweep reads that field before writing it
    fields = _SWEEP_FIELDS[method]
    state, blocks = _sweep_table(monkeypatch, method, random_dataset(4, n=40))
    for _ in range(5):
        _sweep(state, blocks)
    base = copy.deepcopy(state)
    _sweep(base, blocks)
    arrays = {name for name, value in vars(state).items() if isinstance(value, np.ndarray)}
    for name in arrays - fields.keys():
        assert np.array_equal(getattr(base, name), getattr(state, name)), name
    for field, carried in fields.items():
        probe = copy.deepcopy(state)
        setattr(probe, field, getattr(probe, field) * (1.0 + 1e-6))
        _sweep(probe, blocks)
        moved = [name for name in fields if not np.array_equal(getattr(probe, name), getattr(base, name))]
        assert bool(moved) == carried, (field, moved)


def test_traced_peak_of_a_fit_is_a_fixed_number_of_cell_arrays():
    # one cell array is K * M * N floats; an added (K, M, N) temporary
    # fails either bound, and repeated fits trace the same peak and leave
    # the same memory behind, so a process's RSS climb is not a leak
    d = generate_synthetic(default_synthetic_spec(size=5000, seed=0))
    d.onehot_t  # the vote matrix is built once per dataset, before tracing
    cell = d.num_classes * 3 * d.n_items * 8
    fits = (
        (lambda: fable_fit(d, FableConfig(max_iters=5, tol=0.0)), 10.5),
        (lambda: ebcc_fit(d, max_iters=5, tol=0.0), 3.9),
        (lambda: fable_init(d, FableConfig()), 7.0),
    )
    for fit, bound in fits:
        fit()
        peaks, kept = [], []
        tracemalloc.start()
        try:
            for _ in range(3):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                post = fit()
                current, peak = tracemalloc.get_traced_memory()
                del post
                peaks.append((peak - before) / cell)
                kept.append(current / cell)
        finally:
            tracemalloc.stop()
        assert max(peaks) <= bound, peaks
        assert max(peaks) - min(peaks) <= 0.01, peaks
        assert max(kept) - min(kept) <= 0.01, kept


_ARRAY_HOLDERS = {
    "Posterior": lambda d: majority_vote(d),
    "SubtypeBccState": lambda d: fable.baselines._subtype_start(
        fable.baselines.SubtypeBccState, d, 2, 1.0, np.random.default_rng(0)),
    "EbccState": lambda d: ebcc_init(d, subtypes=2),
    "FableState": lambda d: fable_init(d, FableConfig(subtypes=2)),
    "KernelMatrix": lambda d: cosine_kernel(d.features),
    "SymmetricApprox": lambda d: lowrank_posterior(cosine_kernel(d.features), np.ones((2, d.n_items))),
}


@pytest.mark.parametrize("kind", sorted(_ARRAY_HOLDERS))
def test_dataclasses_that_hold_arrays_compare_by_identity(kind):
    x = _ARRAY_HOLDERS[kind](random_dataset(0))
    assert type(x).__name__ == kind
    assert x == x
    assert not x == copy.deepcopy(x)
    hash(x)
