"""Command-line surface: exit codes, output formats, and determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fable import ABSTAIN, Dataset, f1_binary, load_json, save_json, studies
from fable.baselines import _finish
from fable.cli import main
from fable.data import save_predictions
from fable.linalg import NumericalError

from conftest import random_dataset


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
    out = run_synth(tmp_path, size=4000, seed=0, extra=("--psi-range", "3", "3"))
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


def test_run_record_keys_are_the_same_for_every_method(tmp_path):
    data = run_synth(tmp_path, size=60, seed=2)
    for method in ("mv", "fable"):
        out = tmp_path / f"{method}.json"
        assert main(["aggregate", "--method", method, "--dataset", str(data), "--out", str(out),
                     "--max-iters", "3"]) == 0
        record = json.loads((tmp_path / f"{method}.json.run.json").read_text())
        assert set(record) == {
            "command", "method", "dataset", "n_items", "n_lfs", "num_classes", "seed", "params",
            "metric", "metric_value", "n_iters", "converged", "gp_rank", "predicted_classes",
            "effective_classes", "delta_trace", "xi_clamp_rate", "block_ms", "wall_time_ms",
        }
        if method == "fable":
            # the fit's wall time spans its sweeps and what runs around them
            assert record["wall_time_ms"] >= sum(record["block_ms"].values())


def test_aggregate_every_method_runs(tmp_path):
    data = run_synth(tmp_path, size=60, seed=6)
    bcc = ["assignments", "tau", "pi", "confusion"]
    blocks = {
        "mv": None,
        "ds": ["em"],
        "ibcc": bcc,
        "ebcc": bcc,
        "fable": ["assignments", "tau", "confusion", "pi", "gp", "augmentation", "lambda"],
    }
    for method, names in blocks.items():
        out = tmp_path / f"{method}.json"
        code = main(
            ["aggregate", "--method", method, "--dataset", str(data), "--out", str(out),
             "--max-iters", "4"]
        )
        assert code == 0
        assert out.exists()
        # mv has no sweep; the record sorts its keys, so only the names are compared
        block_ms = json.loads((tmp_path / f"{method}.json.run.json").read_text())["block_ms"]
        if names is None:
            assert block_ms is None
        else:
            assert sorted(block_ms) == sorted(names)
            assert all(ms >= 0.0 for ms in block_ms.values())


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


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"\xff\xfe\x00garbage", "malformed JSON ("),
        (b"[" * 200000 + b"]" * 200000, "malformed JSON ("),
        # well-formed JSON that is not an object of item objects
        (b"[]", "expected a nonempty object of items"),
        (b"{}", "expected a nonempty object of items"),
        (b'{"a": [0, 1]}', "item 'a' is not an object"),
    ],
    ids=["not-utf8", "nested-too-deep", "top-level-array", "no-items", "item-not-an-object"],
)
def test_aggregate_unreadable_json_is_data_error(tmp_path, capsys, content, reason):
    data = tmp_path / "bad.json"
    data.write_bytes(content)
    out = tmp_path / "preds.json"
    code = main(["aggregate", "--method", "mv", "--dataset", str(data), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: {data}: {reason}") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [data.name]


# one field of the first item replaced; the second item stays well formed
MALFORMED_ENTRIES = {
    "half-vote": ("weak_labels", [0.5, 1]),
    "half-label": ("label", 0.5),
    "scalar-votes": ("weak_labels", 5),
    "huge-vote": ("weak_labels", [10**30, 1]),
    "string-vote": ("weak_labels", ["x", 1]),
    "string-feature": ("data", {"feature": ["x"]}),
    "string-label": ("label", "x"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ENTRIES))
def test_aggregate_malformed_entries_are_data_errors(tmp_path, capsys, case):
    entries = {
        "a": {"label": 0, "weak_labels": [0, 1], "data": {"feature": [0.0]}},
        "b": {"label": 1, "weak_labels": [1, 1], "data": {"feature": [1.0]}},
    }
    field, value = MALFORMED_ENTRIES[case]
    entries["a"][field] = value
    data = tmp_path / "bad.json"
    data.write_text(json.dumps(entries))
    out = tmp_path / "preds.json"
    code = main(["aggregate", "--method", "mv", "--dataset", str(data), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: {data}: ")
    assert "Traceback" not in err
    assert not out.exists()


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


def test_aggregate_records_fit_telemetry(tmp_path):
    data = run_synth(tmp_path, size=150, seed=2)
    dataset = load_json(data)
    for method in ("fable", "ebcc", "mv"):
        out = tmp_path / f"{method}.json"
        argv = ["aggregate", "--method", method, "--dataset", str(data), "--out", str(out),
                "--max-iters", "6", "--subtypes", "2"]
        assert main(argv) == 0
        predictions = out.read_bytes()
        record = json.loads((tmp_path / f"{method}.json.run.json").read_text())
        assert main(argv) == 0
        assert out.read_bytes() == predictions  # reruns write the same predictions
        if method == "mv":
            assert record["delta_trace"] is None and record["xi_clamp_rate"] is None
            continue
        post = studies.fit_method(dataset, method, max_iters=6, subtypes=2)
        assert record["delta_trace"] == post.diagnostics["delta_trace"]
        assert len(record["delta_trace"]) == record["n_iters"] == post.n_iters
        if method == "ebcc":
            assert record["xi_clamp_rate"] is None
            continue
        # one floor test per cell at the start and once per sweep, as perfbench/tracer.py counts
        cell_tests = (post.n_iters + 1) * dataset.n_items * dataset.num_classes * 2
        assert record["xi_clamp_rate"] == post.diagnostics["xi_clamps"] / cell_tests
        assert 0.0 < record["xi_clamp_rate"] < 1.0


@pytest.mark.parametrize(
    "method, flags, params",
    [
        ("mv", [], {}),
        ("ds", [], {"max_iters": 500, "tol": 1e-6}),
        ("ibcc", [], {"max_iters": 500, "tol": 1e-6, "subtypes": 1}),
        ("ebcc", ["--tol", "0.01"], {"max_iters": 500, "tol": 0.01, "subtypes": 3}),
        ("fable", [], {"max_iters": 100, "tol": 1e-6, "subtypes": 3}),
        ("fable", ["--max-iters", "6", "--subtypes", "2"], {"max_iters": 6, "tol": 1e-6, "subtypes": 2}),
    ],
)
def test_run_record_params_are_the_settings_the_fit_ran_with(tmp_path, method, flags, params):
    data = run_synth(tmp_path, size=60, seed=4)
    out = tmp_path / "preds.json"
    assert main(["aggregate", "--method", method, "--dataset", str(data), "--out", str(out), *flags]) == 0
    record = json.loads((tmp_path / "preds.json.run.json").read_text())
    assert record["params"] == params
    assert record["n_iters"] <= params.get("max_iters", 0)


def test_aggregate_scores_binary_data_by_f1_of_class_one(tmp_path, capsys):
    data = tmp_path / "binary.json"
    save_json(random_dataset(5, n=50, k=2), data)
    out = tmp_path / "preds.json"
    assert main(["aggregate", "--method", "mv", "--dataset", str(data), "--out", str(out)]) == 0
    dataset = load_json(data)
    payload = json.loads(out.read_text())
    predictions = np.array([payload[i]["prediction"] for i in dataset.ids])
    record = json.loads((tmp_path / "preds.json.run.json").read_text())
    assert record["metric"] == "f1"
    assert record["metric_value"] == f1_binary(predictions, dataset.gold)
    assert record["metric_value"] != f1_binary(1 - predictions, 1 - dataset.gold)
    assert capsys.readouterr().out == f"f1={record['metric_value']:.4f}\n"


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


EDGE_GOLD = [0, 1, 2] * 4
EDGE_VOTES = {
    "zero-feature": [[g, g if i % 2 else ABSTAIN] for i, g in enumerate(EDGE_GOLD)],
    "all-abstain": [[ABSTAIN, ABSTAIN] for _ in EDGE_GOLD],
    # the LFs vote only 0 or 1 and every item gets a vote, so class 2 has no MV mass
    "no-vote-class": [[min(g, 1), i % 2] for i, g in enumerate(EDGE_GOLD)],
}


@pytest.mark.parametrize("method", studies.METHODS)
@pytest.mark.parametrize("case", sorted(EDGE_VOTES))
def test_aggregate_edge_inputs(tmp_path, capsys, case, method):
    features = [] if case == "zero-feature" else [0.5, 1.0]
    data = tmp_path / "edge.json"
    data.write_text(json.dumps({
        f"{i:02d}": {"label": g, "weak_labels": v, "data": {"feature": features}}
        for i, (g, v) in enumerate(zip(EDGE_GOLD, EDGE_VOTES[case]))
    }))
    out = tmp_path / "preds.json"
    code = main(["aggregate", "--method", method, "--dataset", str(data), "--out", str(out)])
    assert code == 0
    entries = json.loads(out.read_text()).values()
    probs = np.array([entry["probs"] for entry in entries])
    assert probs.shape == (len(EDGE_GOLD), 3)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    collapsed = len({entry["prediction"] for entry in entries}) == 1
    warned = f"warning: {method} put every item in one class" in capsys.readouterr().err
    assert warned is collapsed
    # without a vote only the features can tell items apart
    if case == "all-abstain" and method != "fable":
        assert collapsed


@pytest.mark.parametrize("method", studies.METHODS)
def test_aggregate_one_item_dataset(tmp_path, capsys, method):
    # one item voted class 1, so class 0 has no MV mass and takes prior count 1
    data = tmp_path / "one.json"
    data.write_text(json.dumps(
        {"a": {"label": 1, "weak_labels": [1, 1], "data": {"feature": [0.5, 1.0]}}}
    ))
    out = tmp_path / "preds.json"
    code = main(["aggregate", "--method", method, "--dataset", str(data), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["a"]["prediction"] == 1
    # one predicted class is the only possible outcome, so it is recorded but not warned of
    assert "one class" not in capsys.readouterr().err
    assert json.loads((tmp_path / "preds.json.run.json").read_text())["predicted_classes"] == 1


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
        record = json.loads((tmp_path / f"{method}.json.run.json").read_text())
        expected = ""
        if warns:
            # the warning says how far from tol the last sweep stopped
            last = record["delta_trace"][-1]
            assert last >= 1e-6
            expected += (f"warning: {method} stopped after {iters} sweeps without converging "
                         f"(last change {last:.1e}, tol 1e-06)\n")
        if collapses:
            expected += f"warning: {method} put every item in one class\n"
        assert err == expected
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


_IMPORT_PROBE = """
import json, sys
from pathlib import Path

def unused():
    packages = ("scipy.stats", "scipy.spatial", "scipy.linalg")
    return sorted(m for m in sys.modules if ".".join(m.split(".")[:2]) in packages)

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import fable, fable.cli
after_import = scipy_modules()
data, out = Path(sys.argv[1], "d.json"), Path(sys.argv[1], "p.json")
assert fable.cli.main(["synth", "--size", "60", "--seed", "0", "--out", str(data)]) == 0
after_synth = scipy_modules()
for method in ("mv", "ds", "ibcc", "ebcc", "fable"):
    code = fable.cli.main(["aggregate", "--dataset", str(data), "--method", method,
                           "--max-iters", "5", "--out", str(out)])
    assert code == 0
fitted = [m for m in ("scipy.special", "scipy.sparse") if m in sys.modules]
after_aggregate = unused()
fable.feature_lf_correlation(fable.load_json(data))
print(json.dumps([after_import, after_synth, fitted, after_aggregate,
                  "scipy.spatial.distance" in sys.modules]))
"""


def test_cli_loads_no_unused_scipy_module(tmp_path):
    # scipy.special and scipy.sparse take most of the package's import time,
    # so only a fit loads them; scipy.stats costs about 0.4 s to import and
    # scipy.spatial (which loads scipy.linalg) about 0.1 s and 10 MB, so no
    # command loads one it never calls
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    after_import, after_synth, fitted, after_aggregate, distance_loaded = json.loads(
        proc.stdout.splitlines()[-1])
    assert after_import == []
    assert after_synth == []
    assert fitted == ["scipy.special", "scipy.sparse"]
    assert after_aggregate == []
    # the dependence score imports cdist when it first runs
    assert distance_loaded


@pytest.mark.parametrize("k", [2, 5])
def test_predictions_writer_matches_json_dump(tmp_path, k):
    ids = ("b", 'quo"te', "back\\slash", "caf\u00e9", "\u2603 snow", "a\ttab", "00000010", "00000002")
    rng = np.random.default_rng(k)
    posterior = _finish((rng.random((len(ids), k)) ** 3).T, n_iters=0)
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
    dataset = Dataset(features=np.zeros((len(ids), 1)), lf_labels=np.zeros((len(ids), 1)), num_classes=k, ids=ids)
    out = tmp_path / "out.json"
    save_predictions(dataset, posterior, out)
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


@pytest.mark.parametrize("empty", ["features", "labels", "gold"])
def test_aggregate_empty_csv_is_one_line_data_error(tmp_path, capsys, empty):
    d = tmp_path / "dataset"
    d.mkdir()
    files = {"features": "0.0,1.0\n1.0,0.0\n", "labels": "0,0\n1,1\n", "gold": "0\n1\n"}
    for name, text in files.items():
        (d / f"{name}.csv").write_text("" if name == empty else text)
    out = tmp_path / "preds.json"
    # every warning an error, as under python -W error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["aggregate", "--method", "mv", "--dataset", str(d), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, target", [
    pytest.param("aggregate", "nodir/out", id="aggregate"),
    pytest.param("bench-size", "nodir/out", id="bench-size"),
    # an existing directory is no file to write either
    pytest.param("aggregate", "outdir", id="aggregate-out-is-a-directory"),
    pytest.param("bench-size", "outdir", id="bench-size-runs-out-is-a-directory"),
])
def test_missing_output_directory_fits_nothing(tmp_path, capsys, monkeypatch, command, target):
    data = run_synth(tmp_path, size=40)
    (tmp_path / "outdir").mkdir()
    fits, fit = [], studies.fit_method

    def spy(*args, **kwargs):
        fits.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr("fable.cli.fit_method", spy)
    monkeypatch.setattr("fable.studies.fit_method", spy)
    argv = {
        "aggregate": ["aggregate", "--method", "mv", "--dataset", str(data),
                      "--out", str(tmp_path / target)],
        "bench-size": ["bench-size", "--sizes", "40", "--runs", "1", "--methods", "mv",
                       "--out", str(tmp_path / "s.csv"), "--runs-out", str(tmp_path / target)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fits == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([data.name, "outdir"])
    assert not any((tmp_path / "outdir").iterdir())


def test_study_corr_writes_one_row_per_trial(tmp_path, capsys):
    out = tmp_path / "corr.csv"
    code = main(
        ["study-corr", "--trials", "3", "--size", "160", "--max-iters", "4",
         "--out", str(out)]
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "seed", "corr", "metric", "ebcc", "fable", "delta"]
    assert len(rows) == 4
    printed = capsys.readouterr().out
    assert "pearson_r=" in printed


def test_study_corr_with_a_constant_score_writes_every_trial(tmp_path, capsys):
    # at psi 0.001 every LF abstains, so the dependence score is 0 in every
    # trial and has no correlation with the gain
    out = tmp_path / "corr.csv"
    code = main(["study-corr", "--trials", "3", "--size", "40", "--psi-range", "0.001", "0.001",
                 "--max-iters", "2", "--out", str(out)])
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [row["corr"] for row in rows] == ["0.0"] * 3
    captured = capsys.readouterr()
    assert captured.out == "pearson_r=nan p_value=nan trials=3\n"
    assert captured.err.startswith("warning: ") and captured.err.count("\n") == 1


_COUNT_FLAG_CASES = [
    pytest.param("study-corr", "--trials", trials, id=trials) for trials in ("2", "0", "-1", "three")
] + [
    pytest.param("aggregate", "--subtypes", "0", id="aggregate-subtypes-0"),
    pytest.param("aggregate", "--max-iters", "-1", id="aggregate-max-iters--1"),
    # the fit stops on delta < tol, which no tolerance of zero or below can meet
    pytest.param("aggregate", "--tol", "0", id="aggregate-tol-0"),
    pytest.param("aggregate", "--tol", "-1", id="aggregate-tol--1"),
    pytest.param("aggregate", "--tol", "nan", id="aggregate-tol-nan"),
    pytest.param("aggregate", "--tol", "inf", id="aggregate-tol-inf"),
    pytest.param("aggregate", "--tol", "abc", id="aggregate-tol-abc"),
    pytest.param("bench-size", "--runs", "0", id="bench-size-runs-0"),
    # sizes below the four classes of the synthetic benchmark, and widths out of range
    pytest.param("synth", "--size", "3", id="synth-size-3"),
    pytest.param("synth", "--size", "0", id="synth-size-0"),
    pytest.param("study-corr", "--size", "2", id="study-corr-size-2"),
    pytest.param("synth", "--psi-range", "3 1", id="synth-psi-range-reversed"),
    pytest.param("study-corr", "--psi-range", "3 1", id="study-corr-psi-range-reversed"),
    pytest.param("synth", "--psi-range", "0 2", id="synth-psi-range-zero"),
    pytest.param("study-corr", "--psi-range", "-1 2", id="study-corr-psi-range-negative"),
    pytest.param("synth", "--psi-range", "1 inf", id="synth-psi-range-inf"),
    pytest.param("study-corr", "--psi-range", "inf inf", id="study-corr-psi-range-inf"),
] + [
    pytest.param(command, "--seed", "-1", id=f"{command}-seed--1")
    for command in ("synth", "aggregate", "study-corr", "bench-size")
] + [
    # a repeated entry would fit, and count, the same runs twice
    pytest.param("bench-size", "--methods", "mv,mv", id="bench-size-methods-repeated"),
    pytest.param("bench-size", "--sizes", "200,200", id="bench-size-sizes-repeated"),
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


@pytest.mark.parametrize(
    "command, flag",
    [("aggregate", "--record"), ("synth", "--psi"), ("study-corr", "--psi"), ("bench-size", "--psi")],
    ids=["aggregate-record", "synth-psi", "study-corr-psi", "bench-size-psi"],
)
def test_removed_flags_are_usage_errors(tmp_path, capsys, command, flag):
    # with two values, --psi would parse if it were read as short for --psi-range
    rest = {"aggregate": ["--method", "mv", "--dataset", str(tmp_path / "missing.json")]}
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([command, flag, "1.7", "1.7", *rest.get(command, []), "--out", str(out)])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag} 1.7 1.7" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    def refuse(spec):
        raise MemoryError(f"Unable to allocate {spec.size} items")

    monkeypatch.setattr("fable.cli.generate_synthetic", refuse)
    out = tmp_path / "d.json"
    assert main(["synth", "--size", "10000000000000", "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: out of memory (Unable to allocate 10000000000000 items)\n"
    assert not out.exists()


@pytest.mark.parametrize("error", [NumericalError, np.linalg.LinAlgError, FloatingPointError])
def test_numerical_failure_exits_4_with_one_line(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("the fit broke down")

    data = run_synth(tmp_path, size=40)
    monkeypatch.setattr("fable.cli.fit_method", fail)
    out = tmp_path / "p.json"
    capsys.readouterr()
    assert main(["aggregate", "--method", "fable", "--dataset", str(data), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "numerical error: the fit broke down\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [data.name]


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


def test_fit_method_rejects_an_unknown_method(small_synthetic):
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        studies.fit_method(small_synthetic, "nope")


def test_size_study_rejects_an_unknown_method_before_any_fit(monkeypatch):
    fits = []
    monkeypatch.setattr(studies, "fit_method", lambda *args, **kwargs: fits.append(args))
    with pytest.raises(ValueError, match="unknown methods: \\['nope'\\]"):
        studies.size_study(sizes=[40], runs=1, methods=("mv", "nope"))
    assert fits == []


def test_module_entry_point(tmp_path):
    out = tmp_path / "d.json"
    proc = subprocess.run(
        [sys.executable, "-m", "fable", "synth", "--size", "24", "--seed", "0", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
