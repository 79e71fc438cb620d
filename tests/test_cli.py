"""Command-line surface: exit codes, output formats, and determinism."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from fable import load_json
from fable.cli import main


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


def test_aggregate_invalid_model_configuration_is_numerical_error(tmp_path):
    data = run_synth(tmp_path, size=20, seed=0)
    code = main(
        ["aggregate", "--method", "ebcc", "--dataset", str(data),
         "--out", str(tmp_path / "x.json"), "--subtypes", "0"]
    )
    assert code == 4


def test_aggregate_zero_gp_rank_is_numerical_error(tmp_path, capsys):
    data = run_synth(tmp_path, size=20, seed=0)
    code = main(
        ["aggregate", "--method", "fable", "--dataset", str(data),
         "--out", str(tmp_path / "x.json"), "--lanczos-rank", "0"]
    )
    assert code == 4
    assert "rank must be at least 1" in capsys.readouterr().err


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
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["trial", "seed", "corr", "metric", "ebcc", "fable", "delta"]
    assert len(rows) == 4
    printed = capsys.readouterr().out
    assert "pearson_r=" in printed


def test_bench_size_summarizes_methods_by_size(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench-size", "--sizes", "120,240", "--runs", "2", "--methods", "mv,ibcc",
         "--max-iters", "6", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["method", "size", "runs", "metric", "mean", "std"]
    assert len(rows) == 5  # 2 methods x 2 sizes + header
    for row in rows[1:]:
        assert 0.0 <= float(row[4]) <= 1.0
        assert int(row[2]) == 2


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
