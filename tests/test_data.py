"""Dataset container, JSON/CSV round-trips, and the synthetic generator."""

import json

import numpy as np
import pytest

from fable import (
    ABSTAIN,
    Dataset,
    DatasetError,
    SyntheticSpec,
    default_synthetic_spec,
    generate_synthetic,
    load_csv,
    load_json,
    save_json,
)
from fable.data import _CLASS_MEANS, _class_stds

# probability that a Gaussian draw lands within +-1 (resp. +-3) stds of
# its own mean, which is exactly the own-class coverage of a window LF
INSIDE_ONE_STD = 0.6826894921370859
INSIDE_THREE_STD = 0.9973002039367398


@pytest.mark.parametrize(
    "fields, num_classes",
    [
        ({"lf_labels": [[0, 1], [1, 1], [0, 0]], "num_classes": 2}, 2),
        ({"lf_labels": [[ABSTAIN], [0]], "num_classes": 2}, 2),  # an all-abstain item
        ({"lf_labels": [[0], [0], [0], [0]], "num_classes": 3, "gold": [0, 0, 1, 2]}, 3),
        # num_classes left out: one more than the largest vote or gold label
        ({"lf_labels": [[0, ABSTAIN], [2, 1]]}, 3),
        ({"lf_labels": [[ABSTAIN], [0]], "gold": [1, 0]}, 2),
        # whole-number floats are class indices
        ({"lf_labels": np.array([[1.0], [-1.0]]), "gold": np.array([1.0, 0.0])}, 2),
    ],
    ids=["full-coverage", "all-abstain-item", "gold-balance", "inferred-from-votes",
         "inferred-from-gold", "whole-floats"],
)
def test_dataset_accepts_valid_fields(fields, num_classes):
    n = len(fields["lf_labels"])
    d = Dataset(features=np.zeros((n, 2)), **fields)
    assert d.num_classes == num_classes
    assert d.lf_labels.dtype == np.int64
    assert np.array_equal(d.lf_labels, np.asarray(fields["lf_labels"]))
    if "gold" in fields:
        assert d.gold.dtype == np.int64


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"lf_labels": [[0], [5]]}, "votes out of range"),
        ({"lf_labels": [[0], [-2]]}, "votes out of range"),
        ({"lf_labels": np.zeros((2, 0), dtype=int)}, "at least one labeling function"),
        ({"gold": [0, 2]}, "gold labels out of range"),
        ({"gold": [0]}, "one entry per item"),
        ({"ids": ("a", "a")}, "ids must be unique"),
        ({"ids": ("a",)}, "ids must be unique"),
        ({"features": np.zeros((0, 1)), "lf_labels": np.zeros((0, 1), dtype=int)}, "at least one item"),
        ({"num_classes": 1}, "at least two classes"),
        ({"lf_labels": [[ABSTAIN], [ABSTAIN]], "num_classes": None}, "at least two classes"),
        ({"features": [[np.nan], [0.0]]}, "finite"),
        ({"features": [0.0, 1.0]}, "must be 2-D arrays"),
        ({"lf_labels": [0, 1]}, "must be 2-D arrays"),
        ({"lf_labels": [[0.5], [1]]}, "votes must be whole numbers"),
        ({"gold": [0.5, 1]}, "gold labels must be whole numbers"),
        ({"lf_labels": [[1e30], [0]]}, "votes must be whole numbers"),
        ({"lf_labels": [[10**30], [0]]}, "votes must be whole numbers"),
        ({"lf_labels": [[np.nan], [0]]}, "votes must be whole numbers"),
        ({"lf_labels": [["a"], [0]]}, "malformed"),
        ({"features": [["x"], [0.0]]}, "malformed"),
        ({"gold": ["x", 0]}, "malformed"),
        ({"lf_labels": [[0, 1], [0]]}, "malformed"),
        ({"num_classes": "two"}, "malformed"),
    ],
    ids=["vote-out-of-range", "vote-below-abstain", "zero-lfs", "gold-out-of-range",
         "gold-length", "duplicate-ids", "ids-length", "zero-items", "one-class",
         "nothing-to-infer", "nan-feature", "1d-features", "1d-votes", "half-vote",
         "half-gold", "1e30-vote", "huge-int-vote", "nan-vote", "string-vote",
         "string-feature", "string-gold", "ragged-votes", "string-num-classes"],
)
def test_dataset_rejects_invalid_fields(fields, message):
    base = {"features": np.zeros((2, 1)), "lf_labels": np.zeros((2, 1), dtype=int), "num_classes": 2}
    with pytest.raises(DatasetError, match=message):
        Dataset(**{**base, **fields})


def test_dataset_rejects_row_mismatch():
    with pytest.raises(DatasetError):
        Dataset(features=np.zeros((3, 2)), lf_labels=np.zeros((2, 1), dtype=int), num_classes=2)


def test_load_json_single_item(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps({"0": {"label": 1, "weak_labels": [-1, 0], "data": {"feature": [0.5]}}})
    )
    d = load_json(path)
    assert d.n_items == 1
    assert d.n_lfs == 2
    assert d.num_classes == 2
    assert np.array_equal(d.gold, [1])
    assert np.array_equal(d.lf_labels, [[-1, 0]])
    assert np.array_equal(d.features, [[0.5]])


def test_load_json_ragged_rows(tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text(
        json.dumps(
            {
                "0": {"label": 0, "weak_labels": [0, 1], "data": {"feature": [0.0]}},
                "1": {"label": 1, "weak_labels": [0], "data": {"feature": [1.0]}},
            }
        )
    )
    with pytest.raises(DatasetError):
        load_json(path)


def test_load_json_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DatasetError):
        load_json(path)


def test_load_json_missing_feature(tmp_path):
    path = tmp_path / "nofeat.json"
    path.write_text(json.dumps({"0": {"label": 0, "weak_labels": [0]}}))
    with pytest.raises(DatasetError):
        load_json(path)


def test_json_round_trip_preserves_content(tmp_path):
    d = generate_synthetic(default_synthetic_spec(size=37, seed=3))
    path = tmp_path / "d.json"
    save_json(d, path)
    loaded = load_json(path)
    assert loaded.num_classes == d.num_classes
    assert np.array_equal(loaded.lf_labels, d.lf_labels)
    assert np.array_equal(loaded.gold, d.gold)
    assert np.array_equal(loaded.features, d.features)


def test_json_round_trip_is_byte_stable(tmp_path):
    d = generate_synthetic(default_synthetic_spec(size=25, seed=11))
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_json(d, first)
    save_json(load_json(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_json_round_trip_without_gold(tmp_path):
    d = Dataset(
        features=np.array([[0.5, 1.0], [2.0, -1.0]]),
        lf_labels=np.array([[0, ABSTAIN], [1, 1]]),
        num_classes=2,
    )
    path = tmp_path / "nogold.json"
    save_json(d, path)
    loaded = load_json(path)
    assert loaded.gold is None
    assert np.array_equal(loaded.lf_labels, d.lf_labels)


def test_save_json_requires_sorted_ids(tmp_path):
    d = Dataset(
        features=np.zeros((2, 1)),
        lf_labels=np.zeros((2, 1), dtype=int),
        num_classes=2,
        ids=("b", "a"),
    )
    with pytest.raises(DatasetError):
        save_json(d, tmp_path / "x.json")


def json_dump_oracle(dataset: Dataset, path) -> None:
    """The canonical form written with the json module's own encoder."""
    ids = dataset.ids or tuple(f"{i:08d}" for i in range(dataset.n_items))
    payload = {
        item_id: {
            "label": None if dataset.gold is None else int(dataset.gold[row]),
            "weak_labels": [int(v) for v in dataset.lf_labels[row]],
            "data": {"feature": [float(v) for v in dataset.features[row]]},
        }
        for row, item_id in enumerate(ids)
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


SPECIAL_FLOATS = [-0.0, 1e-300, 1e300, 0.1, -2.5, 123456789.125]


@pytest.mark.parametrize(
    "dataset",
    [
        Dataset(  # no gold labels: written as null
            features=np.array([[0.5, -1.0], [2.0, 0.25]]),
            lf_labels=np.array([[0, ABSTAIN], [1, 1]]),
            num_classes=2,
        ),
        Dataset(  # zero feature columns
            features=np.zeros((3, 0)),
            lf_labels=np.array([[0, 1], [1, ABSTAIN], [ABSTAIN, ABSTAIN]]),
            num_classes=2,
            gold=np.array([0, 1, 1]),
        ),
        Dataset(  # a single item
            features=np.array([SPECIAL_FLOATS]),
            lf_labels=np.array([[4]]),
            num_classes=5,
            gold=np.array([3]),
        ),
        Dataset(  # ids that need escaping, K = 2
            features=np.array([SPECIAL_FLOATS[:3], SPECIAL_FLOATS[3:], SPECIAL_FLOATS[1:4], SPECIAL_FLOATS[2:5]]),
            lf_labels=np.array([[0, 1], [ABSTAIN, 1], [1, 0], [ABSTAIN, ABSTAIN]]),
            num_classes=2,
            gold=np.array([1, 0, 1, 0]),
            ids=sorted(['quo"te', "back\\slash", "caf\u00e9", "\u2603 snow"]),
        ),
        Dataset(  # K = 5, ids whose lexicographic order is not their numeric order
            features=np.array([[v, -v] for v in SPECIAL_FLOATS]),
            lf_labels=np.array([[k % 5, ABSTAIN, (k + 2) % 5] for k in range(6)]),
            num_classes=5,
            gold=np.array([4, 3, 2, 1, 0, 4]),
            ids=sorted(["10", "2", "a\ttab", "b", "00000010", "00000002"]),
        ),
    ],
    ids=["no-gold", "no-features", "single-item", "escaped-ids-k2", "k5"],
)
def test_save_json_matches_json_dump(tmp_path, dataset):
    out = tmp_path / "out.json"
    oracle = tmp_path / "oracle.json"
    save_json(dataset, out)
    json_dump_oracle(dataset, oracle)
    assert out.read_bytes() == oracle.read_bytes()


def test_load_csv_round_trip(tmp_path):
    features = tmp_path / "features.csv"
    labels = tmp_path / "labels.csv"
    gold = tmp_path / "gold.csv"
    features.write_text("0.5,1.0\n2.0,-1.0\n")
    labels.write_text("0,-1\n1,1\n")
    gold.write_text("0\n1\n")
    d = load_csv(features, labels, gold_path=gold)
    assert d.n_items == 2
    assert d.num_classes == 2
    assert np.array_equal(d.lf_labels, [[0, -1], [1, 1]])
    assert np.array_equal(d.gold, [0, 1])


def test_load_csv_rejects_fractional_votes(tmp_path):
    # and rejects them as load_json does, bar the path prefix
    (tmp_path / "features.csv").write_text("0.5\n1.0\n")
    (tmp_path / "labels.csv").write_text("0.5\n1\n")
    path = tmp_path / "d.json"
    path.write_text(
        json.dumps(
            {
                "0": {"label": None, "weak_labels": [0.5], "data": {"feature": [0.5]}},
                "1": {"label": None, "weak_labels": [1], "data": {"feature": [1.0]}},
            }
        )
    )
    with pytest.raises(DatasetError) as from_csv:
        load_csv(tmp_path / "features.csv", tmp_path / "labels.csv")
    with pytest.raises(DatasetError) as from_json:
        load_json(path)
    assert str(from_csv.value) == "labeling-function votes must be whole numbers"
    assert str(from_json.value) == f"{path}: {from_csv.value}"


def test_synthetic_spec_validation():
    with pytest.raises(DatasetError):
        SyntheticSpec(size=100, seed=0, psi=(1.0,) * 7)  # one width short
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(DatasetError):
            SyntheticSpec(size=100, seed=0, psi=(1.0,) * 7 + (bad,))
    with pytest.raises(DatasetError):
        default_synthetic_spec(size=3, seed=0)


def test_default_spec_psi_broadcast():
    assert default_synthetic_spec(size=10, seed=0).psi == (1.0,) * 8
    # a range of one width draws that width exactly, whatever the seed
    for w in (0.001, 1.0, 1.7, 2.5, 1e6):
        assert default_synthetic_spec(size=10, seed=int(1000 * w), psi_range=(w, w)).psi == (w,) * 8
    drawn = default_synthetic_spec(size=10, seed=0, psi_range=(0.5, 2.5)).psi
    assert len(set(drawn)) == 8 and all(0.5 <= v < 2.5 for v in drawn)


def test_generator_is_deterministic():
    spec = default_synthetic_spec(size=200, seed=42)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.lf_labels, b.lf_labels)
    assert np.array_equal(a.gold, b.gold)


def test_generator_shapes_and_balance():
    d = generate_synthetic(default_synthetic_spec(size=10, seed=1))
    assert d.features.shape == (10, 2)
    assert d.lf_labels.shape == (10, 8)
    assert d.num_classes == 4
    # remainder items go to the lowest class indices
    assert np.array_equal(np.bincount(d.gold), [3, 3, 2, 2])
    assert np.array_equal(d.gold, np.sort(d.gold))


def test_generator_lfs_are_unipolar():
    d = generate_synthetic(default_synthetic_spec(size=500, seed=5))
    for j in range(d.n_lfs):
        votes = d.lf_labels[:, j]
        fired = votes[votes != ABSTAIN]
        assert fired.size > 0
        assert set(fired.tolist()) == {j // 2}


@pytest.mark.parametrize(
    "psi,target,tolerance",
    [(1.0, INSIDE_ONE_STD, 0.03), (3.0, INSIDE_THREE_STD, 0.01)],
)
def test_own_class_coverage_matches_gaussian_mass(psi, target, tolerance):
    d = generate_synthetic(default_synthetic_spec(size=10000, seed=0, psi_range=(psi, psi)))
    for j in range(d.n_lfs):
        own = j // 2
        rows = d.gold == own
        fraction = np.mean(d.lf_labels[rows, j] == own)
        assert abs(fraction - target) < tolerance


def test_window_votes_match_direct_rule():
    spec = default_synthetic_spec(size=300, seed=9, psi_range=(1.7, 1.7))
    d = generate_synthetic(spec)
    stds = _class_stds(spec.seed)
    for c in range(4):
        for dim in range(2):
            j = c * 2 + dim
            width = spec.psi[j] * stds[c, dim]
            inside = np.abs(d.features[:, dim] - _CLASS_MEANS[c, dim]) < width
            assert np.array_equal(d.lf_labels[:, j] == c, inside)


def loop_generator_oracle(size, seed, psi):
    """The class-by-class, LF-by-LF generator, with the layout and streams written out."""
    means = np.array([(1.4, 1.4), (1.4, -1.4), (-1.4, 1.4), (-1.4, -1.4)])
    stds = np.random.default_rng([seed, 1]).uniform(0.8, 1.6, size=(4, 2))
    base, extra = divmod(size, 4)
    counts = np.full(4, base)
    counts[:extra] += 1
    rng = np.random.default_rng([seed, 2])
    features = np.concatenate(
        [means[c] + stds[c] * rng.standard_normal((counts[c], 2)) for c in range(4)]
    )
    gold = np.concatenate([np.full(counts[c], c) for c in range(4)])
    votes = np.full((size, 8), ABSTAIN)
    for c in range(4):
        for dim in range(2):
            j = c * 2 + dim
            width = psi[j] * stds[c, dim]
            lo, hi = means[c, dim] - width, means[c, dim] + width
            votes[(features[:, dim] > lo) & (features[:, dim] < hi), j] = c
    return features, votes, gold


@pytest.mark.parametrize("size", [4, 5, 203, 1001])
@pytest.mark.parametrize(
    "make_spec",
    [
        default_synthetic_spec,
        lambda size, seed: default_synthetic_spec(size, seed, psi_range=(1.7, 1.7)),
        lambda size, seed: SyntheticSpec(size, seed, psi=tuple(0.5 + 0.25 * j for j in range(8))),
        lambda size, seed: default_synthetic_spec(size, seed, psi_range=(1.0, 3.0)),
    ],
    ids=["default", "scalar", "per-lf", "range"],
)
def test_generator_matches_loop_oracle(size, make_spec):
    seed = size % 7
    spec = make_spec(size, seed)
    d = generate_synthetic(spec)
    features, votes, gold = loop_generator_oracle(size, seed, spec.psi)
    assert np.array_equal(d.features, features)
    assert np.array_equal(d.lf_labels, votes)
    assert np.array_equal(d.gold, gold)
    assert d.name == f"synthetic-n{size}-s{seed}"
