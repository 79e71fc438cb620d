"""Command-line surface: exit codes, output formats, and determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fable import load_json, studies
from fable.baselines import _finish
from fable.cli import _write_predictions, main


def run_synth(tmp_path, name="d.json", size=200, seed=0, extra=()):
    out = tmp_path / name
    code = main(["synth", "--size", str(size), "--seed", str(seed), "--out", str(out), *extra])
    assert code == 0
    return out


def test_synth_writes_loadable_dataset(tmp_path):
    out = run_synth(tmp_path, size=80, seed=1)
    d = load_json(out)
    assert d.n_items == 80
    assert d.n_lfs == 8
    assert d.num_classes == 4
    assert d.gold is not None


def test_synth_is_deterministic(tmp_path):
    a = run_synth(tmp_path, name="a.json", seed=3)
    b = run_synth(tmp_path, name="b.json", seed=3)
    assert a.read_bytes() == b.read_bytes()
    c = run_synth(tmp_path, name="c.json", seed=4)
    assert a.read_bytes() != c.read_bytes()


def test_synth_psi_range_is_seeded(tmp_path):
    a = run_synth(tmp_path, name="a.json", seed=5, extra=("--psi-range", "1", "3"))
    b = run_synth(tmp_path, name="b.json", seed=5, extra=("--psi-range", "1", "3"))
    assert a.read_bytes() == b.read_bytes()


def test_synth_wide_windows_cover_own_class(tmp_path):
    out = run_synth(tmp_path, size=4000, seed=0, extra=("--psi", "3"))
    d = load_json(out)
    for j in range(d.n_lfs):
        own = j // 2
        rows = d.gold == own
        assert np.mean(d.lf_labels[rows, j] == own) == pytest.approx(0.9973, abs=0.01)


def test_aggregate_writes_predictions_and_record(tmp_path):
    data = run_synth(tmp_path, size=120, seed=2)
    preds = tmp_path / "preds.json"
    code = main(["aggregate", "--method", "mv", "--dataset", str(data), "--out", str(preds)])
    assert code == 0
    payload = json.loads(preds.read_text())
    assert len(payload) == 120
    for entry in payload.values():
        assert 0 <= entry["prediction"] < 4
        assert np.isclose(sum(entry["probs"]), 1.0)
    record = json.loads((tmp_path / "preds.json.run.json").read_text())
    assert record["command"] == "aggregate"
    assert record["method"] == "mv"
    assert record["n_items"] == 120
    assert record["metric"] == "accuracy"
    assert 0.0 <= record["metric_value"] <= 1.0
    assert record["wall_time_ms"] >= 0.0


def test_aggregate_every_method_runs(tmp_path):
    data = run_synth(tmp_path, size=60, seed=6)
    for method in ("mv", "ds", "ibcc", "ebcc", "fable"):
        out = tmp_path / f"{method}.json"
        code = main(
            ["aggregate", "--method", method, "--dataset", str(data), "--out", str(out),
             "--max-iters", "4", "--lanczos-rank", "20"]
        )
        assert code == 0
        assert out.exists()


def test_aggregate_unknown_method_is_usage_error(tmp_path, capsys):
    data = run_synth(tmp_path, size=20, seed=0)
    with pytest.raises(SystemExit) as err:
        main(["aggregate", "--method", "nope", "--dataset", str(data), "--out", "x.json"])
    assert err.value.code == 2
    capsys.readouterr()


def test_aggregate_missing_dataset_is_data_error(tmp_path):
    code = main(
        ["aggregate", "--method", "mv", "--dataset", str(tmp_path / "absent.json"),
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 3


def test_aggregate_malformed_dataset_is_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["aggregate", "--method", "mv", "--dataset", str(bad), "--out", str(tmp_path / "x.json")])
    assert code == 3


def test_aggregate_records_gp_rank_outside_predictions(tmp_path):
    data = run_synth(tmp_path, size=60, seed=1)
    for method, rank in (("fable", 2), ("mv", None)):
        out = tmp_path / f"{method}.json"
        code = main(["aggregate", "--method", method, "--dataset", str(data),
                     "--out", str(out), "--max-iters", "3"])
        assert code == 0
        assert json.loads((tmp_path / f"{method}.json.run.json").read_text())["gp_rank"] == rank
        for entry in json.loads(out.read_text()).values():
            assert set(entry) == {"prediction", "probs"}


def test_aggregate_zero_lf_dataset_is_data_error(tmp_path, capsys):
    data = tmp_path / "nolf.json"
    data.write_text(json.dumps({
        "a": {"label": 0, "weak_labels": [], "data": {"feature": [0.0]}},
        "b": {"label": 1, "weak_labels": [], "data": {"feature": [1.0]}},
    }))
    for method in ("mv", "ds", "ibcc", "ebcc", "fable"):
        out = tmp_path / f"{method}.json"
        code = main(["aggregate", "--method", method, "--dataset", str(data), "--out", str(out)])
        assert code == 3
        assert "need at least one labeling function" in capsys.readouterr().err
        assert not out.exists()


def test_aggregate_warns_when_fit_stops_unconverged(tmp_path, capsys):
    data = run_synth(tmp_path, size=60, seed=1)
    # ds converges here but collapses to one class, which has its own warning
    for method, iters, warns, collapses in (
        ("fable", "2", True, False), ("ds", "500", False, True), ("mv", "2", False, False)
    ):
        out = tmp_path / f"{method}.json"
        code = main(["aggregate", "--method", method, "--dataset", str(data),
                     "--out", str(out), "--max-iters", iters])
        assert code == 0
        err = capsys.readouterr().err
        expected = ""
        if warns:
            expected += f"warning: {method} stopped after {iters} sweeps without converging\n"
        if collapses:
            expected += f"warning: {method} put every item in one class\n"
        assert err == expected
        record = json.loads((tmp_path / f"{method}.json.run.json").read_text())
        assert record["converged"] is (None if method == "mv" else not warns)


def test_aggregate_flags_single_class_fit(tmp_path, capsys):
    # on the default synthetic data ds puts every item in one class
    data = run_synth(tmp_path, size=200, seed=0)
    for method, classes in (("ds", 1), ("fable", 4), ("mv", 4)):
        out = tmp_path / f"{method}.json"
        code = main(["aggregate", "--method", method, "--dataset", str(data),
                     "--out", str(out), "--max-iters", "20"])
        assert code == 0
        warning = f"warning: {method} put every item in one class\n"
        assert (warning in capsys.readouterr().err) is (classes == 1)
        record = json.loads((tmp_path / f"{method}.json.run.json").read_text())
        assert record["predicted_classes"] == classes
        # exp(entropy of the predicted class shares): 1 when collapsed, K when balanced
        if classes == 1:
            assert record["effective_classes"] == 1.0
        else:
            assert 3.5 < record["effective_classes"] <= 4.0
        predictions = json.loads(out.read_text())
        assert len({entry["prediction"] for entry in predictions.values()}) == classes
        assert all(set(entry) == {"prediction", "probs"} for entry in predictions.values())


def test_synth_bytes_are_pinned(tmp_path):
    # digest of the file written by json.dump(sort_keys=True, indent=2) before
    # save_json streamed its output; the streamed file must keep every byte
    out = run_synth(tmp_path, size=1000, seed=0)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "242fee3efbf60e95ad57fa91cdde23f547811e38b8a19677361a0d4e5bf8a657"


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about 0.4 s to import, paid by every command
    code = (
        "import sys, fable, fable.cli; "
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy.stats')); "
        "print(' '.join(loaded))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("k", [2, 5])
def test_predictions_writer_matches_json_dump(tmp_path, k):
    ids = ("b", 'quo"te', "back\\slash", "caf\u00e9", "\u2603 snow", "a\ttab", "00000010", "00000002")
    rng = np.random.default_rng(k)
    posterior = _finish(rng.random((len(ids), k)) ** 3, n_iters=0)
    payload = {
        item_id: {
            "prediction": int(posterior.predictions[row]),
            "probs": [float(v) for v in posterior.probs[row]],
        }
        for row, item_id in enumerate(ids)
    }
    oracle = tmp_path / "oracle.json"
    with open(oracle, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    out = tmp_path / "out.json"
    _write_predictions(out, ids, posterior)
    assert out.read_bytes() == oracle.read_bytes()
    assert json.loads(out.read_text()) == payload


def test_aggregate_csv_directory_input(tmp_path):
    d = tmp_path / "dataset"
    d.mkdir()
    (d / "features.csv").write_text("0.0,1.0\n1.0,0.0\n0.1,0.9\n")
    (d / "labels.csv").write_text("0,0\n1,1\n0,-1\n")
    (d / "gold.csv").write_text("0\n1\n0\n")
    out = tmp_path / "preds.json"
    code = main(["aggregate", "--method", "mv", "--dataset", str(d), "--out", str(out)])
    assert code == 0
    assert len(json.loads(out.read_text())) == 3


def test_study_corr_writes_one_row_per_trial(tmp_path, capsys):
    out = tmp_path / "corr.csv"
    code = main(
        ["study-corr", "--trials", "3", "--size", "160", "--max-iters", "4",
         "--lanczos-rank", "20", "--out", str(out)]
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "seed", "corr", "metric", "ebcc", "fable", "delta"]
    assert len(rows) == 4
    printed = capsys.readouterr().out
    assert "pearson_r=" in printed


_COUNT_FLAG_CASES = [
    pytest.param("study-corr", "--trials", trials, id=trials) for trials in ("2", "0", "-1", "three")
] + [
    pytest.param("aggregate", "--subtypes", "0", id="aggregate-subtypes-0"),
    pytest.param("aggregate", "--lanczos-rank", "0", id="aggregate-lanczos-rank-0"),
    pytest.param("aggregate", "--max-iters", "-1", id="aggregate-max-iters--1"),
    pytest.param("bench-size", "--runs", "0", id="bench-size-runs-0"),
    # --psi and --psi-range exclude each other
    pytest.param("synth", "--psi-range", "1 3 --psi 1.5", id="synth-both-psi"),
    pytest.param("study-corr", "--psi-range", "1 3 --psi 1.5", id="study-corr-both-psi"),
    # sizes below the four classes of the synthetic benchmark, and widths out of range
    pytest.param("synth", "--size", "3", id="synth-size-3"),
    pytest.param("synth", "--size", "0", id="synth-size-0"),
    pytest.param("study-corr", "--size", "2", id="study-corr-size-2"),
    pytest.param("synth", "--psi", "0", id="synth-psi-0"),
    pytest.param("study-corr", "--psi", "-1", id="study-corr-psi--1"),
    pytest.param("bench-size", "--psi", "-1", id="bench-size-psi--1"),
    pytest.param("bench-size", "--psi", "nan", id="bench-size-psi-nan"),
    pytest.param("synth", "--psi-range", "3 1", id="synth-psi-range-reversed"),
    pytest.param("study-corr", "--psi-range", "3 1", id="study-corr-psi-range-reversed"),
    pytest.param("synth", "--psi-range", "0 2", id="synth-psi-range-zero"),
    pytest.param("study-corr", "--psi-range", "-1 2", id="study-corr-psi-range-negative"),
]


@pytest.mark.parametrize("command, flag, value", _COUNT_FLAG_CASES)
def test_study_corr_rejects_too_few_trials_as_usage_error(tmp_path, capsys, command, flag, value):
    # every count, size or width flag out of range is a usage error, found
    # before any data is read
    out = tmp_path / "out"
    rest = {
        "study-corr": ["--size", "40"],
        # the dataset need not exist: a missing one would exit 3, not 2
        "aggregate": ["--method", "fable", "--dataset", str(tmp_path / "missing.json")],
        "bench-size": ["--sizes", "40", "--methods", "mv"],
        "synth": ["--size", "40"],
    }[command]
    with pytest.raises(SystemExit) as err:
        main([command, flag, *value.split(), *rest, "--out", str(out)])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_bench_size_summarizes_methods_by_size(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench-size", "--sizes", "120,240", "--runs", "2", "--methods", "mv,ibcc",
         "--max-iters", "6", "--out", str(out)]
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "size", "runs", "metric", "mean", "std"]
    assert len(rows) == 5  # 2 methods x 2 sizes + header
    for row in rows[1:]:
        assert 0.0 <= float(row[4]) <= 1.0
        assert int(row[2]) == 2


def test_bench_size_writes_per_fit_rows(tmp_path):
    out = tmp_path / "bench.csv"
    runs_out = tmp_path / "runs.csv"
    code = main(
        ["bench-size", "--sizes", "40,60", "--runs", "2", "--methods", "mv,ds", "--seed", "3",
         "--max-iters", "5", "--out", str(out), "--runs-out", str(runs_out)]
    )
    assert code == 0
    with runs_out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "size", "run", "seed", "metric", "value", "n_iters"]
    assert [row[:4] for row in rows[1:]] == [
        [method, size, run, str(3 ^ int(run))]
        for size in ("40", "60") for run in ("0", "1") for method in ("mv", "ds")
    ]
    for row in rows[1:]:
        assert row[4] == "accuracy"
        assert repr(float(row[5])) == row[5]
        assert 0.0 <= float(row[5]) <= 1.0
        if row[0] == "mv":
            assert row[6] == "0"
        else:
            assert 1 <= int(row[6]) <= 5
    # the summary is the mean of the per-fit values
    with out.open() as fh:
        summary = list(csv.reader(fh))[1:]
    for method, size, _, _, mean, _ in summary:
        values = [float(r[5]) for r in rows[1:] if r[0] == method and r[1] == size]
        assert float(mean) == pytest.approx(np.mean(values), abs=1e-15)


def test_study_commands_pass_tol_to_every_fit(tmp_path, monkeypatch):
    # q(z) moves by at most 1, so a tolerance of 2 stops every fit after
    # one sweep; without --tol these fits run 6-21 (ebcc) and 100 (fable)
    sweeps = []
    fit_method = studies.fit_method

    def spy(dataset, method, **knobs):
        posterior = fit_method(dataset, method, **knobs)
        sweeps.append((method, posterior.n_iters))
        return posterior

    monkeypatch.setattr(studies, "fit_method", spy)
    runs_out = tmp_path / "runs.csv"
    assert main(["study-corr", "--trials", "3", "--size", "200", "--tol", "2",
                 "--out", str(tmp_path / "corr.csv")]) == 0
    assert main(["bench-size", "--sizes", "200", "--runs", "1", "--methods", "ebcc,fable",
                 "--tol", "2", "--out", str(tmp_path / "bench.csv"),
                 "--runs-out", str(runs_out)]) == 0
    assert sweeps == [("ebcc", 1), ("fable", 1)] * 4
    with runs_out.open() as fh:
        assert [row["n_iters"] for row in csv.DictReader(fh)] == ["1", "1"]


def test_bench_size_rejects_bad_sizes():
    with pytest.raises(SystemExit) as err:
        main(["bench-size", "--sizes", "10,abc", "--out", "x.csv"])
    assert err.value.code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "d.json"
    proc = subprocess.run(
        [sys.executable, "-m", "fable", "synth", "--size", "24", "--seed", "0", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
