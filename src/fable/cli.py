"""Command-line interface: aggregate votes, generate benchmarks, run studies.

Exit codes: 0 success, 2 usage error (argparse), 3 unreadable or invalid
data, 4 numerical failure or out of memory.  All commands are
deterministic given ``--seed``; the only non-deterministic output is the
wall time recorded in run-record files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .data import (
    DatasetError,
    _write_json_object,
    default_synthetic_spec,
    generate_synthetic,
    load_csv,
    load_json,
    save_json,
)
from .linalg import NumericalError
from .metrics import accuracy, f1_binary
from .studies import (
    METHODS,
    correlation_study,
    fit_method,
    size_study,
    summarize_size_study,
)

__all__ = ["main", "entry", "RunRecord"]


@dataclasses.dataclass
class RunRecord:
    """Reproducibility trail written next to every aggregation output.

    ``params`` holds the settings the fit ran with (sweep budget
    ``max_iters``, tolerance ``tol`` and ``subtypes``, each only for a
    method that has it); ``delta_trace`` holds the largest change in q(z)
    of each sweep, ``xi_clamp_rate`` the share of ``fable``'s rate-floor
    tests that clamped and ``block_ms`` the milliseconds of each update
    block, summed over sweeps; each is None for a method without it.
    ``wall_time_ms`` is the whole ``fit_method`` call: initialisation,
    the sweeps and, in a fresh process, loading ``scipy.special`` and
    ``scipy.sparse`` at the first fit; ``block_ms`` covers the sweeps alone.
    """

    command: str
    method: str
    dataset: str
    n_items: int
    n_lfs: int
    num_classes: int
    seed: int
    params: dict
    metric: str | None
    metric_value: float | None
    n_iters: int
    converged: bool | None
    gp_rank: int | None
    predicted_classes: int
    effective_classes: float
    delta_trace: list[float] | None
    xi_clamp_rate: float | None
    block_ms: dict | None
    wall_time_ms: float

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(self), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _load_dataset(path_str: str):
    path = Path(path_str)
    if path.is_dir():
        gold = path / "gold.csv"
        return load_csv(
            path / "features.csv",
            path / "labels.csv",
            gold_path=gold if gold.exists() else None,
        )
    return load_json(path)


def _write_predictions(path, ids, posterior) -> None:
    """Write ``{id: {"prediction", "probs"}}`` as ``json.dump(sort_keys=True, indent=2)`` would."""
    predictions = posterior.predictions.tolist()
    probs = posterior.probs.tolist()
    # probs is never empty, so the list is joined inline; calling the
    # general list helper of save_json per row made this writer slower
    separator = ",\n      "
    _write_json_object(
        path,
        (
            (
                ids[row],
                f'{{\n    "prediction": {predictions[row]},\n'
                f'    "probs": [\n      {separator.join(map(repr, probs[row]))}\n    ]\n  }}',
            )
            for row in sorted(range(len(ids)), key=ids.__getitem__)
        ),
    )


def _fit_knobs(args) -> dict:
    """The knobs set by ``_add_fit_flags``, keyed as :func:`fit_method` takes them."""
    return {"max_iters": args.max_iters, "tol": args.tol, "subtypes": args.subtypes}


def cmd_aggregate(args) -> int:
    dataset = _load_dataset(args.dataset)
    start = time.perf_counter()
    posterior = fit_method(dataset, args.method, seed=args.seed, **_fit_knobs(args))
    wall_ms = 1000.0 * (time.perf_counter() - start)

    ids = dataset.ids or tuple(f"{i:08d}" for i in range(dataset.n_items))
    _write_predictions(args.out, ids, posterior)
    diag = posterior.diagnostics
    if diag.get("converged") is False:
        print(f"warning: {args.method} stopped after {posterior.n_iters} sweeps without converging "
              f"(last change {diag['delta_trace'][-1]:.1e}, tol {diag['tol']:g})", file=sys.stderr)
    # with one item a single predicted class is the only possible outcome
    if diag["predicted_classes"] == 1 and dataset.n_items > 1:
        print(f"warning: {args.method} put every item in one class", file=sys.stderr)

    metric_name = metric_value = None
    if dataset.gold is not None:
        # binary tasks score F1 of class 1, multiclass ones accuracy
        metric_name, score = ("f1", f1_binary) if dataset.num_classes == 2 else ("accuracy", accuracy)
        metric_value = float(score(posterior.predictions, dataset.gold))
        print(f"{metric_name}={metric_value:.4f}")
    record = RunRecord(
        command="aggregate",
        method=args.method,
        dataset=dataset.name,
        n_items=dataset.n_items,
        n_lfs=dataset.n_lfs,
        num_classes=dataset.num_classes,
        seed=args.seed,
        params={k: v for k, v in diag.items() if k in ("max_iters", "tol", "subtypes")},
        metric=metric_name,
        metric_value=metric_value,
        n_iters=posterior.n_iters,
        predicted_classes=diag["predicted_classes"],
        effective_classes=diag["effective_classes"],
        **{k: diag.get(k) for k in ("converged", "gp_rank", "delta_trace", "xi_clamp_rate", "block_ms")},
        wall_time_ms=wall_ms,
    )
    record.write(f"{args.out}.run.json")
    return 0


def cmd_synth(args) -> int:
    spec = default_synthetic_spec(args.size, args.seed, psi_range=args.psi_range)
    dataset = generate_synthetic(spec)
    save_json(dataset, args.out)
    print(f"wrote {dataset.n_items} items, {dataset.n_lfs} LFs -> {args.out}")
    return 0


def _write_csv(path, fields, rows) -> None:
    """One CSV row per dict in ``rows``, floats in their ``repr``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([repr(row[f]) if isinstance(row[f], float) else row[f] for f in fields])


def cmd_study_corr(args) -> int:
    rows, r, p = correlation_study(
        trials=args.trials,
        size=args.size,
        seed=args.seed,
        psi_range=args.psi_range,
        **_fit_knobs(args),
    )
    _write_csv(args.out, ["trial", "seed", "corr", "metric", "ebcc", "fable", "delta"], rows)
    if np.isnan(r):
        print("warning: the dependence score or the gain is the same in every trial, "
              "so it has no correlation", file=sys.stderr)
    print(f"pearson_r={r:.4f} p_value={p:.6g} trials={len(rows)}")
    return 0


def cmd_bench_size(args) -> int:
    rows = size_study(
        sizes=args.sizes,
        runs=args.runs,
        methods=args.methods,
        seed=args.seed,
        **_fit_knobs(args),
    )
    summary = summarize_size_study(rows)
    _write_csv(args.out, ["method", "size", "runs", "metric", "mean", "std"], summary)
    if args.runs_out is not None:
        _write_csv(args.runs_out, ["method", "size", "run", "seed", "metric", "value", "n_iters"], rows)
    for row in summary:
        print(f"{row['method']:>6} n={row['size']:<6} {row['metric']}={row['mean']:.4f} +-{row['std']:.4f}")
    return 0


def _method_list(text: str) -> list[str]:
    methods = [m.strip() for m in text.split(",") if m.strip()]
    # a repeated entry would fit, and count, the same runs twice
    if not methods or any(m not in METHODS for m in methods) or len(set(methods)) < len(methods):
        raise argparse.ArgumentTypeError(
            f"methods must be a comma list of distinct names drawn from {','.join(METHODS)}"
        )
    return methods


def _int_at_least(low: int):
    """An argparse type for integers >= ``low``: anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """An argparse type for finite floats > 0; anything else, NaN included, is a usage error."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from exc
    if not (value > 0 and np.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


# the synthetic benchmark has four classes and needs an item in each
_dataset_size = _int_at_least(4)


def _size_list(text: str) -> list[int]:
    sizes = [_dataset_size(s) for s in text.split(",") if s.strip()]
    if not sizes or len(set(sizes)) < len(sizes):
        raise argparse.ArgumentTypeError("sizes must be distinct comma-separated integers")
    return sizes


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_int_at_least(0), default=0, help="master RNG seed")
    parser.add_argument("--max-iters", type=_int_at_least(1), default=None, help="sweep budget")
    parser.add_argument("--tol", type=_positive_float, default=None, help="q(z) convergence tolerance")
    parser.add_argument("--subtypes", type=_int_at_least(1), default=3,
                        help="mixture components per class")


def _add_psi_range_flag(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--psi-range", type=_positive_float, nargs=2, default=None, metavar=("LO", "HI"),
                        help=f"draw one width per LF uniformly from [LO, HI]; LO = HI fixes every "
                             f"width (default: {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fable",
        description="Aggregate noisy labeling-function votes into label posteriors.",
    )
    # options match only when spelled in full, so no prefix (--psi, say)
    # resolves to a longer flag (--psi-range)
    whole_flags = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=whole_flags)

    agg = sub.add_parser("aggregate", help="fit one method on a dataset and write predictions")
    agg.add_argument("--dataset", required=True, help="JSON file or directory of CSVs")
    agg.add_argument("--method", required=True, choices=METHODS)
    agg.add_argument("--out", required=True, help="predictions JSON path")
    _add_fit_flags(agg)
    agg.set_defaults(func=cmd_aggregate)

    synth = sub.add_parser("synth", help="generate a seeded synthetic benchmark")
    synth.add_argument("--size", type=_dataset_size, default=1000)
    synth.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_psi_range_flag(synth, "every width 1")
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    corr = sub.add_parser("study-corr", help="correlation between Corr(X, LFs) and the feature-aware gain")
    corr.add_argument("--trials", type=_int_at_least(3), default=50,
                      help="number of datasets; a correlation needs at least three")
    corr.add_argument("--size", type=_dataset_size, default=1000)
    _add_psi_range_flag(corr, "the study's own range, redrawn per trial")
    corr.add_argument("--out", required=True, help="per-trial CSV path")
    _add_fit_flags(corr)
    corr.set_defaults(func=cmd_study_corr)

    bench = sub.add_parser("bench-size", help="mean accuracy of each method across dataset sizes")
    bench.add_argument("--sizes", type=_size_list, default=[1000, 5000, 10000, 15000, 20000])
    bench.add_argument("--runs", type=_int_at_least(1), default=10)
    bench.add_argument("--methods", type=_method_list, default=list(METHODS))
    bench.add_argument("--out", required=True, help="summary CSV path")
    bench.add_argument("--runs-out", default=None, help="per-fit CSV path (one row per method, size and run)")
    _add_fit_flags(bench)
    bench.set_defaults(func=cmd_bench_size)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "psi_range", None) and args.psi_range[0] > args.psi_range[1]:
        parser.error(f"argument --psi-range: LO must not exceed HI, got {args.psi_range}")
    try:
        return args.func(args)
    except (DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main())
