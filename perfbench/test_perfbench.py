"""Self-tests of the benchmark on tiny inputs.

    python3 -m pytest perfbench -q

Each test runs ``run.py --smoke`` in a subprocess, the way the benchmark
is run for real, and reads the JSON result on its last line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--smoke", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    proc = bench("--workload", workload, "--trace", str(trace))
    result = result_of(proc)
    assert "  error_rate 0 ratio" in proc.stdout
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, float) for v in values)
    if section == "end_to_end":
        assert all(v > 0 for v in values)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_failing_output_check_raises_the_error_rate(workload):
    result = result_of(bench("--workload", workload, "--trace", "0", "--fault"))
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"  # inside the checkout, like every run
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", WORKLOADS[0], root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
