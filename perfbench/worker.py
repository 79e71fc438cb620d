"""One benchmark worker: set up a workload, run it repeatedly, check the outputs.

``run.py`` starts this file in a fresh interpreter several times per
run, so imports, dataset generation and file writing are paid again by
every worker and counted as set-up.  The worker then runs the timed
section again and again until ``--until`` and checks every sample's
outputs.  ``--mode measure`` runs it untraced, ``--mode trace`` with the
package wrapped by :mod:`tracer`, and reports the per-layer metrics of
each sample.  The worker prints one JSON object as the last line of its
standard output.

The program under test is imported from ``src/`` of the checkout, which
``run.py`` puts on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import fable.cli
import fable.data
from reference import reference_s
from tracer import Tracer, layer_metrics

SIZES = {"fable-10k": 10_000, "study-1k": 1000}
SMOKE_SIZES = {"fable-10k": 1000, "study-1k": 120}
# A sweep budget for every fit of the timed section.  At default settings
# fable always runs its 100-sweep cap, so one fit at N=10,000 takes about
# 10 s and a run holds only a few samples; the speed of a shared 2-core
# VM swings by 15-20% over tens of seconds, and medians of so few long
# samples spread by 0.1-0.3 between runs.  Twenty sweeps keep every block
# of the fit (the GP block is still most of it) in samples of about 2 s.
SWEEPS = ["--max-iters", "20"]
STUDY_FIELDS = ["trial", "seed", "corr", "metric", "ebcc", "fable", "delta"]


class Outcome:
    """Operations attempted and failed, with one message per failure."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def op(self, name, checks):
        """Count one operation; ``checks`` returns failure messages or raises."""
        self.attempted += 1
        try:
            problems = list(checks())
        except Exception:  # a crash in the program or the check fails the operation
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.errors.append(f"{name}: " + "; ".join(problems))


def check_predictions(path, gold, num_classes):
    """The aggregate output contract; yields failures, returns nothing on success."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    ids = [f"{i:08d}" for i in range(len(gold))]
    if sorted(payload) != ids:
        yield f"{len(payload)} entries for {len(gold)} items"
        return
    probs = np.array([payload[i]["probs"] for i in ids], dtype=float)
    preds = np.array([payload[i]["prediction"] for i in ids])
    if probs.shape != (len(gold), num_classes):
        yield f"probability rows of shape {probs.shape}"
        return
    if not np.all(np.isfinite(probs)) or probs.min() < 0:
        yield "probabilities not finite and nonnegative"
    if np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9:
        yield "probability rows do not sum to 1"
    if not np.array_equal(preds, np.argmax(probs, axis=1)):
        yield "prediction differs from argmax"


def accuracy_of(path, gold):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    preds = np.array([payload[f"{i:08d}"]["prediction"] for i in range(len(gold))])
    return float(np.mean(preds == gold))


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def corrupt(path: Path):
    """Drop the last line of an output file (the fault injected by ``--fault``)."""
    lines = path.read_text(encoding="utf-8").rstrip("\n").split("\n")
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


def cli(argv):
    """Run the command-line entry point in-process.

    Returns its exit code, or the traceback when it raised instead.
    """
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return fable.cli.main([str(a) for a in argv])
    except Exception:  # an escaped exception is reported as a failed operation
        return traceback.format_exc(limit=3)


class Workload:
    def __init__(self, name, seed, workdir: Path, smoke, fault):
        self.name, self.seed, self.dir, self.fault = name, seed, workdir, fault
        self.size = (SMOKE_SIZES if smoke else SIZES)[name]
        self.trials = 3 if smoke else 5
        self.outcome = Outcome()
        self.aggregate_s: dict[str, list[float]] = {}
        self.accuracy: dict[str, float] = {}
        self.outputs: list[bytes] = []
        self.digests: set[str] = set()
        self.tracer = None

    def setup(self):
        """Generate and write the dataset; ``study-1k`` generates its own inside the program."""
        if self.name == "study-1k":
            return
        spec = fable.data.default_synthetic_spec(size=self.size, seed=self.seed)
        self.dataset = fable.data.generate_synthetic(spec)
        self.data_path = self.dir / "data.json"
        fable.data.save_json(self.dataset, self.data_path)

    def run(self):
        """The timed section; returns its wall time in seconds."""
        return getattr(self, "_run_" + self.name.split("-")[0])()

    def check(self):
        """Check the outputs of the last timed section and record their digest."""
        getattr(self, "_check_" + self.name.split("-")[0])()
        self.digests.add(digest(*self.outputs))
        self.outputs = []

    def finish(self):
        """Checks made once per worker, after its last sample."""
        if self.name == "fable-10k":
            self._check_fable_reference()
        self.outputs = []  # the reference outputs are not part of the digest

    def _aggregate(self, method):
        out = self.dir / f"pred-{method}.json"
        argv = ["aggregate", "--dataset", self.data_path, "--method", method,
                "--seed", self.seed, "--out", out, *SWEEPS]
        t0 = time.perf_counter()
        code = cli(argv)
        self.aggregate_s.setdefault(method, []).append(time.perf_counter() - t0)
        return code, out

    def _check_aggregate(self, method, code, out):
        def checks():
            if code != 0:
                yield f"exit code {code}"
                return
            if self.fault:
                corrupt(out)
            yield from check_predictions(out, self.dataset.gold, self.dataset.num_classes)
            self.accuracy[method] = accuracy_of(out, self.dataset.gold)
            self.outputs.append(out.read_bytes())
        self.outcome.op(f"aggregate --method {method}", checks)

    # fable-10k: one aggregate call of the feature-aware model
    def _run_fable(self):
        self._call = self._aggregate("fable")
        return self.aggregate_s["fable"][-1]

    def _check_fable(self):
        self._check_aggregate("fable", *self._call)

    def _check_fable_reference(self):
        # majority vote is the reference the model must not fall below
        with self.tracer_paused():
            code, out = self._aggregate("mv")
        self._check_aggregate("mv", code, out)

        def criterion():
            fab, mv = self.accuracy.get("fable"), self.accuracy.get("mv")
            if fab is not None and mv is not None and fab < mv - 0.01:
                yield f"accuracy.fable {fab:.4f} below accuracy.mv {mv:.4f} - 0.01"
        self.outcome.op("fable not below mv", criterion)

    # study-1k: the correlation study through the command line
    def _run_study(self):
        self.csv_path = self.dir / "study.csv"
        argv = ["study-corr", "--trials", self.trials, "--size", self.size,
                "--seed", self.seed, "--out", self.csv_path, *SWEEPS]
        t0 = time.perf_counter()
        self._code = cli(argv)
        return time.perf_counter() - t0

    def _check_study(self):
        def checks():
            if self._code != 0:
                yield f"exit code {self._code}"
                return
            if self.fault:
                corrupt(self.csv_path)
            with open(self.csv_path, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != STUDY_FIELDS or len(rows) != self.trials + 1:
                yield f"header {rows[0]} and {len(rows) - 1} rows for {self.trials} trials"
                return
            for trial, row in enumerate(rows[1:]):
                rec = dict(zip(STUDY_FIELDS, row))
                values = [float(rec[k]) for k in ("corr", "ebcc", "fable")]
                if int(rec["trial"]) != trial or int(rec["seed"]) != self.seed ^ trial:
                    yield f"row {trial} has trial {rec['trial']} seed {rec['seed']}"
                if not all(0.0 <= v <= 1.0 for v in values):
                    yield f"row {trial} has values outside [0, 1]: {values}"
                if abs(float(rec["delta"]) - (values[2] - values[1])) > 1e-12:
                    yield f"row {trial} delta is not fable - ebcc"
            for method in ("ebcc", "fable"):
                self.accuracy[method] = float(np.mean([float(r[STUDY_FIELDS.index(method)])
                                                       for r in rows[1:]]))
            self.outputs.append(self.csv_path.read_bytes())
        self.outcome.op("study-corr", checks)

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def tracer_paused(self):
        """Keep benchmark-side reference calls out of the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = True


def blas_info():
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{cfg.get('name')} {cfg.get('version')}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    parser.add_argument("--until", type=float, default=0.0,
                        help="time.monotonic() after which no sample starts that would "
                             "likely end late; the first sample always runs")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--fault", action="store_true")
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    work = Workload(args.workload, args.seed, args.workdir, args.smoke, args.fault)
    if args.mode == "trace":
        work.tracer = Tracer().install()
    with work.span("bench.setup"):
        work.setup()
    ready = time.monotonic()
    ref_setup = reference_s()
    tracer = work.tracer
    setup_spans = len(tracer.spans) if tracer is not None else 0
    walls, refs, layers = [], [], []
    while True:
        with work.span("bench.run"):
            walls.append(work.run())
        refs.append(reference_s())
        work.check()
        if tracer is not None:
            layers.append(layer_metrics(tracer.spans))
        if time.monotonic() + walls[-1] > args.until:
            break
        if tracer is not None:
            del tracer.spans[setup_spans:]  # each sample counts the set-up spans and its own
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    work.finish()
    result = {
        "ready": ready,
        "wall_s": walls,
        "ref_s": refs,
        "ref_setup_s": ref_setup,
        "peak_mb": peak_mb,
        "attempted": work.outcome.attempted,
        "errors": work.outcome.errors,
        "digests": sorted(work.digests),
        "aggregate_s": work.aggregate_s,
        "accuracy": work.accuracy,
        "blas": blas_info(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        result["layers"] = layers
        tracer.dump(args.workdir / "trace.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
