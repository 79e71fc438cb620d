"""Outside-in tracing of the fable package, and the per-layer metrics derived from it.

The tracer wraps the package's functions from the outside: every module
global of a ``fable.*`` module that refers to a traced function is
replaced by a wrapper that records a span, so the real code paths run
unchanged and the wrapper is found by name at call time.  Spans are
kept in memory as ``[name, parent, start, end, info]`` lists and
written out once, when the worker ends.

Layers are the package modules; a span's layer is the first dotted part
of its name (``linalg.SymmetricApprox.apply`` belongs to ``linalg``).
The benchmark's own span is in the ``bench`` layer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "studies", "data", "baselines", "model", "linalg", "metrics")
STUDY_METHODS = ("ebcc", "fable")  # the methods study-corr fits

# private helpers worth a span of their own; every public function is traced
_PRIVATE = {
    "cli": ("cmd_aggregate", "cmd_study_corr", "_load_dataset"),
    "baselines": ("_vote_log_scores", "_confusion_counts", "_normalize_log_scores", "_finish"),
    "metrics": ("_double_centered_distances",),
}
_METHODS_OF = {
    "linalg": {"KernelMatrix": ("matvec", "diagonal", "weighted_square_rowsum"),
               "SymmetricApprox": ("apply", "diagonal")},
    "cli": {"RunRecord": ("write",)},
}

_FIT_BLOCKS = ("init", "assignments", "tau", "confusion", "pi", "gp", "augmentation", "lambda")
_EBCC_BLOCKS = ("assignments", "confusion")


def _info_fable_fit(args, kwargs, post):
    dataset = args[0]
    config = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("config")
    subtypes = config.subtypes if config is not None else 3
    trace = post.diagnostics.get("delta_trace") or [float("nan")]
    return {
        "sweeps": post.n_iters,
        "converged": bool(post.diagnostics.get("converged")),
        "final_delta": float(trace[-1]),
        "xi_clamps": int(post.diagnostics.get("xi_clamps", 0)),
        "cells": dataset.n_items * dataset.num_classes * subtypes,
    }


def _info_fit_method(args, kwargs, post):
    return {"method": args[1] if len(args) > 1 else kwargs["method"]}


_INFO = {
    "model.fable_fit": _info_fable_fit,
    "baselines.ebcc_fit": lambda a, k, post: {"sweeps": post.n_iters},
    "linalg.lowrank_posterior": lambda a, k, post: {"rank": int(post.rank)},
    "metrics.distance_correlation": lambda a, k, r: {"rows": len(a[0])},
    "studies.fit_method": _info_fit_method,
}


class Tracer:
    """Records one span per traced call; ``install`` patches the package."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = True

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of benchmark code."""
        index = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def install(self, package="fable"):
        """Wrap every traced function wherever a ``fable.*`` module refers to it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == package or name.startswith(package + ".")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{package}.{layer}"]
            names = set(getattr(mod, "__all__", ())) | set(_PRIVATE.get(layer, ()))
            for attr in sorted(names):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
            for cls_name, meths in _METHODS_OF.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in meths:
                    setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        return self

    def dump(self, path):
        keys = ("name", "parent", "start", "end", "info")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
            fh.write("\n")


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced worker, as plain numbers keyed by metric name."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    names = [s[0] for s in spans]
    parent_name = [names[s[1]] if s[1] >= 0 else "" for s in spans]

    out = defaultdict(float)
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    total = defaultdict(float)
    for i, name in enumerate(names):
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += dur[i] - child[i]
        total[name] += dur[i]

    # linalg: GP solves and their pieces
    ranks = [s[4]["rank"] for s in spans if s[0] == "linalg.lowrank_posterior"]
    out["linalg.gp_solves"] = len(ranks)
    out["linalg.gp_rank_mean"] = _ratio(sum(ranks), len(ranks))
    out["linalg.lowrank_posterior_s"] = total["linalg.lowrank_posterior"]
    out["linalg.posterior_diagonal_s"] = total["linalg.SymmetricApprox.diagonal"]
    out["linalg.posterior_apply_s"] = total["linalg.SymmetricApprox.apply"]
    out["linalg.pg_mean_s"] = total["linalg.pg_mean"]
    out["linalg.cosine_kernel_s"] = total["linalg.cosine_kernel"]

    # model: coordinate blocks called directly by fable_fit (init counted whole)
    fit_s = total["model.fable_fit"]
    out["model.fit_s"] = fit_s
    block_time = defaultdict(float)
    for i, name in enumerate(names):
        if parent_name[i] == "model.fable_fit":
            block_time[name.removeprefix("model.fable_").removeprefix("update_")] += dur[i]
    for b in _FIT_BLOCKS:
        out[f"model.{b}_s"] = block_time[b]
        out[f"model.{b}_share"] = _ratio(block_time[b], fit_s)
    fits = [s[4] for s in spans if s[0] == "model.fable_fit"]
    out["model.fits"] = len(fits)
    out["model.sweeps"] = _ratio(sum(f["sweeps"] for f in fits), len(fits))
    out["model.converged"] = _ratio(sum(f["converged"] for f in fits), len(fits))
    out["model.final_delta"] = _ratio(sum(f["final_delta"] for f in fits), len(fits))
    # xi_floor is tested once in init and once per sweep
    cells = sum((f["sweeps"] + 1) * f["cells"] for f in fits)
    out["model.xi_clamp_rate"] = _ratio(sum(f["xi_clamps"] for f in fits), cells)

    # baselines: the ebcc fits and their vote statistics
    ebcc_fits = {i for i, name in enumerate(names) if name == "baselines.ebcc_fit"}
    vote_time = defaultdict(float)
    for i, s in enumerate(spans):
        block = names[i].removeprefix("baselines.ebcc_update_")
        if s[1] in ebcc_fits and block in _EBCC_BLOCKS:
            vote_time[block] += dur[i]
    ebcc_s = sum(dur[i] for i in ebcc_fits)
    for b in _EBCC_BLOCKS:
        out[f"baselines.ebcc.{b}_s"] = vote_time[b]
    out["baselines.ebcc.fit_s"] = ebcc_s
    out["baselines.ebcc.vote_share"] = _ratio(sum(vote_time.values()), ebcc_s)
    sweeps = [spans[i][4]["sweeps"] for i in ebcc_fits]
    out["baselines.ebcc.sweeps"] = _ratio(sum(sweeps), len(sweeps))

    # data and cli
    out["data.load_json_s"] = total["data.load_json"]
    out["data.generate_s"] = total["data.generate_synthetic"]
    out["data.save_json_s"] = total["data.save_json"]
    out["cli.write_s"] = sum(dur[i] - child[i] for i, name in enumerate(names)
                             if name == "cli.cmd_aggregate")

    # metrics: the dependence score
    rows = [s[4]["rows"] for s in spans if s[0] == "metrics.distance_correlation"]
    out["metrics.feature_lf_correlation_s"] = total["metrics.feature_lf_correlation"]
    out["metrics.distance_correlation_calls"] = len(rows)
    out["metrics.distance_correlation_s"] = total["metrics.distance_correlation"]
    out["metrics.dcor_rows_max"] = max(rows, default=0)

    # studies: mean time of one fit per method
    per_method = defaultdict(list)
    for i, s in enumerate(spans):
        if s[0] == "studies.fit_method":
            per_method[s[4]["method"]].append(dur[i])
    for method in STUDY_METHODS:
        times = per_method[method]
        out[f"studies.fit_method_s.{method}"] = _ratio(sum(times), len(times))

    out["trace.spans"] = n
    return dict(out)
