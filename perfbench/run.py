"""Run one workload of the fable benchmark and print its metrics.

    python3 perfbench/run.py --workload fable-10k --seed 0 --seconds 55 --trace 0

A run starts ``WORKERS`` fresh worker processes (``worker.py``) one
after another; each imports the package from ``src/``, writes its
seeded inputs, then runs the workload's timed section again and again
within its share of ``--seconds`` and checks every sample's outputs.
Right after its set-up and after every sample the worker times a fixed
reference computation (``reference.py``).  The set-up time is rescaled
by the reference run after it, each sample by the mean of the reference
runs before and after it, to a machine on which that computation takes
``REFERENCE_NOMINAL_S``, so that drifts in the machine's speed cancel.  ``wall_s`` is the median of
the rescaled samples of the run, ``setup_s`` and ``peak_mb`` the medians
over its workers; the measured seconds are printed above the result.

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics; with ``--trace 1`` one untraced and one
traced worker share the time, the result holds the per-layer metrics
(medians over the traced samples), and the tracing overhead is the
difference of the two workers' median timed sections.
``--workload all`` runs every workload in turn.  ``--smoke`` shrinks
every input so the whole benchmark checks itself in seconds, and
``--fault`` corrupts each output before it is checked, so the run must
report failures.  See ``perfbench/README.md`` for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("fable-10k", "study-1k")
# per-method report lines and per-layer metrics: fable-10k times fable and
# its mv reference; study-1k reads the ebcc and fable accuracy from its CSV
METHODS = {"aggregate_s": ("mv", "fable"), "accuracy": ("mv", "ebcc", "fable")}

WORKERS = 5  # set-ups per untraced run; a traced run has one untraced and one traced worker
MIN_WORKERS = 2  # later workers start only if they likely end within OVERRUN x --seconds
OVERRUN = 1.15
RUN_BUDGET_S = 160.0  # a run must end within 180 s; workers are cut at this point
BLAS_THREADS = "1"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_mb": "MB"}
# A fixed nominal time of reference.reference_s(), near its median on a
# 2-core Xeon VM at 2.1 GHz with one BLAS thread.  Times are reported as
# they would be on a machine where the reference takes this long.
REFERENCE_NOMINAL_S = 0.16


def at_nominal_speed(seconds, reference_s):
    """Rescale a time measured next to a reference run of ``reference_s`` seconds."""
    return seconds * REFERENCE_NOMINAL_S / reference_s


def _layer_unit(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_share", "_rate")) or name.startswith("accuracy.") or name in (
            "model.converged", "trace.overhead_share"):
        return "ratio"
    if name == "model.final_delta":
        return "prob"
    if name == "metrics.dcor_rows_max":
        return "rows"
    return "count"


def per_layer_names():
    """Every per-layer metric, in report order (the tracer's, then the benchmark's own)."""
    names = sorted(layer_metrics([]))
    names += [f"{kind}.{m}" for kind, methods in METHODS.items() for m in methods]
    names += ["trace.overhead_s", "trace.overhead_share"]
    return names


def worker_env():
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    return env


class Run:
    """The workers of one run and what they reported."""

    def __init__(self, args, workload):
        self.args, self.workload = args, workload
        self.dir = WORK / f"{workload}-seed{args.seed}-pid{os.getpid()}"
        self.results: list[dict] = []
        self.errors: list[str] = []
        self.started = time.monotonic()
        self.longest = 0.0

    def spawn(self, mode, until):
        workdir = self.dir / f"w{len(self.results)}"
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.args.seed), "--workdir", str(workdir), "--mode", mode,
               "--until", repr(until)]
        cmd += ["--smoke"] * self.args.smoke + ["--fault"] * self.args.fault
        t0 = time.monotonic()
        timeout = max(RUN_BUDGET_S - (t0 - self.started), 5.0)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                                  text=True, timeout=timeout)
            out = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        except subprocess.TimeoutExpired:
            proc, out = None, None
        except (json.JSONDecodeError, IndexError):
            out = None
        self.longest = max(self.longest, time.monotonic() - t0)
        if out is None:
            tail = proc.stderr.strip().splitlines()[-3:] if proc is not None else ["timed out"]
            out = {"mode": mode, "attempted": 1, "errors": [f"worker failed: {' | '.join(tail)}"]}
        else:
            # a sample is rescaled by the mean of the reference runs before and after it
            refs = [out["ref_setup_s"], *out["ref_s"]]
            out.update(mode=mode, raw_setup_s=out["ready"] - t0,
                       norm_wall_s=[at_nominal_speed(w, (before + after) / 2)
                                    for w, before, after in zip(out["wall_s"], refs, refs[1:])])
            out["setup_s"] = at_nominal_speed(out["raw_setup_s"], out["ref_setup_s"])
            if mode == "trace" and (workdir / "trace.json").exists():
                traces = WORK / "traces"
                traces.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(workdir / "trace.json",
                                traces / f"{self.workload}-seed{self.args.seed}.json")
        shutil.rmtree(workdir, ignore_errors=True)
        self.results.append(out)

    def sample(self, modes):
        """Run one worker per mode in turn, each with an equal share of the time left.

        A worker after the first ``MIN_WORKERS`` starts only if it likely
        ends within ``OVERRUN`` times ``--seconds``, and none starts that
        would likely end past the budget.
        """
        end = self.started + self.args.seconds
        for i, mode in enumerate(modes):
            now = time.monotonic()
            if now - self.started + self.longest > RUN_BUDGET_S:
                break
            if i >= MIN_WORKERS and now + self.longest > self.started + OVERRUN * self.args.seconds:
                break
            self.spawn(mode, now + max(end - now, 0.0) / (len(modes) - i))

    def timed(self, mode=None):
        return [r for r in self.results if "wall_s" in r and (mode is None or r["mode"] == mode)]

    def samples(self, key, mode=None):
        """Every sample's value of ``key`` (a list in each worker's result)."""
        return [v for r in self.timed(mode) for v in r[key]]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        digests = {d for r in self.timed() for d in r["digests"]}
        if len(digests) > 1:
            self.errors.append(f"outputs differ between samples of one seed: {len(digests)} digests")
        for r in self.results:
            self.errors.extend(r.get("errors", []))
        attempted = sum(r.get("attempted", 0) for r in self.results)
        return attempted, min(len(self.errors), attempted)


def _median(values, default=0.0):
    return float(statistics.median(values)) if values else default


def end_to_end(run):
    run.sample(["measure"] * WORKERS)
    timed = run.timed()
    return {
        "wall_s": _median(run.samples("norm_wall_s")),
        "setup_s": _median([r["setup_s"] for r in timed]),
        "peak_mb": _median([r["peak_mb"] for r in timed]),
    }


def method_values(results, kind, method):
    """``aggregate_s`` holds a list per method (one value per sample), ``accuracy`` a value."""
    values = [r[kind][method] for r in results if method in r.get(kind, {})]
    return [v for vs in values for v in vs] if kind == "aggregate_s" else values


def per_layer(run):
    run.sample(["measure", "trace"])
    plain, traced = run.timed("measure"), run.timed("trace")
    metrics = {name: 0.0 for name in per_layer_names()}
    for name in metrics:
        values = [layers[name] for r in traced for layers in r["layers"] if name in layers]
        if values:
            metrics[name] = _median(values)
    for kind, methods in METHODS.items():
        for m in methods:
            metrics[f"{kind}.{m}"] = _median(method_values(plain, kind, m))
    base = _median(run.samples("norm_wall_s", "measure"))
    overhead = _median(run.samples("norm_wall_s", "trace")) - base
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / base if base > 0 else 0.0
    return metrics


def describe(run):
    """Environment of the run, for the report lines above the result."""
    timed = run.timed()
    info = timed[0] if timed else {}
    load = os.getloadavg()
    return (f"env nproc={os.cpu_count()} loadavg={load[0]:.2f},{load[1]:.2f},{load[2]:.2f} "
            f"python={platform.python_version()} numpy={info.get('numpy')} "
            f"scipy={info.get('scipy')} blas={info.get('blas')} blas_threads={BLAS_THREADS} "
            f"workers={len(run.results)}")


def run_workload(args, workload):
    run = Run(args, workload)
    try:
        metrics = per_layer(run) if args.trace else end_to_end(run)
    finally:
        attempted, failed = run.close()
    print(f"workload {workload} seed={args.seed} trace={args.trace}")
    print(describe(run))
    units = END_TO_END if not args.trace else {n: _layer_unit(n) for n in metrics}
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print("  measured, not rescaled:")
    for key in ("wall_s", "ref_s"):
        values = run.samples(key, "measure")
        print(f"  {key} {_median(values):.6g} s; samples " + " ".join(f"{v:.4g}" for v in values))
    print(f"  setup_s {_median([r['raw_setup_s'] for r in run.timed()]):.6g} s")
    if not args.trace:
        for kind, methods in METHODS.items():
            for m in methods:
                values = method_values(run.timed(), kind, m)
                if values:
                    print(f"  {kind}.{m} {_median(values):.6g} {_layer_unit(kind + '.' + m)}")
    print(f"  error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for error in run.errors:
        print(f"  failed: {error}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    parser.add_argument("--fault", action="store_true", help="corrupt outputs before checks")
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so that subprocess.run kills and waits for the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "fable" / "__init__.py").is_file():
        print(f"error: no fable package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args, args.workload)
    else:
        parts = {w: run_workload(args, w) for w in WORKLOADS}
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}/{n}": v for w, p in parts.items() for n, v in p["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
