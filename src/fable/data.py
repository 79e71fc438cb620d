"""Dataset container, serialization, and the synthetic benchmark generator.

A dataset couples per-item feature vectors with the votes of L labeling
functions.  Votes live in {0..K-1} with ``ABSTAIN`` (-1) marking items a
labeling function declined to vote on.  Everything downstream treats the
collection transductively: models see all items at once and there is no
train/test split.

Building a ``Dataset`` is the one place a dataset is checked: the
loaders only parse their files and hand the raw arrays on, so JSON and
CSV input pass or fail the same checks, with DatasetError.

``save_json`` streams the canonical JSON form entry by entry rather than
through ``json.dump``; the bytes are the same.

A ``Dataset`` is the one owner of the vote matrix ``onehot_t``, an
(L*K, N) CSR one-hot indicator with one entry, in row j*K + y, per
non-abstaining vote y_ij = y.  Every vote statistic is one of its two
products, ``vote_sums`` and ``vote_counts``; the matrix and its CSC
transpose ``onehot`` are built once, however many fits read them.

The synthetic benchmark has one fixed layout, four 2-D Gaussian classes
with eight window LFs; a ``SyntheticSpec`` sets only its size, seed and
LF widths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "ABSTAIN",
    "DatasetError",
    "Dataset",
    "load_json",
    "save_json",
    "load_csv",
    "SyntheticSpec",
    "default_synthetic_spec",
    "generate_synthetic",
]

# sentinel vote meaning "no opinion"; kept as -1 so vote arrays stay integer
ABSTAIN = -1

# salts separating the RNG streams used for drawing the class stds, for
# drawing the LF widths from a range, and for sampling the data itself
_SPEC_STREAM = 1
_DATA_STREAM = 2
_PSI_STREAM = 3

# centres of the synthetic benchmark's four classes, one row per class;
# each entry has its own labeling function.  The separation keeps the
# clusters substantially overlapping, so labeling-function correctness is
# genuinely noisy given features; with wide separation correctness becomes
# a near-deterministic function of position and the feature/correctness
# dependence stops varying across window widths.
_CLASS_MEANS = np.array([(1.4, 1.4), (1.4, -1.4), (-1.4, 1.4), (-1.4, -1.4)])


class DatasetError(ValueError):
    """Malformed or inconsistent dataset content."""


def _class_indices(values, what: str) -> np.ndarray:
    """``values`` as int64: integer arrays pass unchanged, others must hold whole numbers."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    values = values.astype(float)
    # the bound keeps the cast exact; NaN and infinities fail it too
    if not np.all((np.abs(values) < 2.0**63) & (values == np.rint(values))):
        raise DatasetError(f"{what} must be whole numbers")
    return values.astype(np.int64)


@dataclass(eq=False)
class Dataset:
    """Feature matrix plus labeling-function votes for N items.

    ``gold`` carries the true labels when known (synthetic data, labeled
    benchmarks) and is only used for evaluation, never by the models.
    ``ids`` preserves the item identifiers of a source file; when absent,
    zero-padded row indices are used on save.  ``num_classes`` left at
    None is inferred as one more than the largest class among the votes
    and gold labels.

    Construction converts every field and checks every invariant, so a
    ``Dataset`` that exists is valid; any violation, unconvertible
    entries included, raises DatasetError.  A Dataset is not modified
    after it is built, so its vote matrix is built once, on first use.
    """

    features: np.ndarray
    lf_labels: np.ndarray
    num_classes: int | None = None
    gold: np.ndarray | None = None
    name: str = ""
    ids: tuple[str, ...] | None = None

    def __post_init__(self):
        try:
            self.features = np.asarray(self.features, dtype=float)
            self.lf_labels = _class_indices(self.lf_labels, "labeling-function votes")
            if self.gold is not None:
                self.gold = _class_indices(self.gold, "gold labels")
            if self.num_classes is not None:
                self.num_classes = int(self.num_classes)
            if self.ids is not None:
                self.ids = tuple(str(i) for i in self.ids)
        except DatasetError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise DatasetError(f"malformed dataset fields ({exc})") from exc
        if self.features.ndim != 2 or self.lf_labels.ndim != 2:
            raise DatasetError("features and lf_labels must be 2-D arrays")
        if self.features.shape[0] != self.lf_labels.shape[0]:
            raise DatasetError("features and lf_labels must cover the same items")
        if self.n_items < 1:
            raise DatasetError("dataset must contain at least one item")
        if self.n_lfs < 1:
            raise DatasetError("need at least one labeling function")
        if not np.all(np.isfinite(self.features)):
            raise DatasetError("features must be finite")
        if self.gold is not None and self.gold.shape != (self.n_items,):
            raise DatasetError("gold labels must have one entry per item")
        if self.ids is not None and len(set(self.ids)) != self.n_items:
            raise DatasetError("ids must be unique, one per item")
        if self.num_classes is None:
            # abstains (-1) never raise the maximum above an observed class
            top = self.lf_labels.max()
            if self.gold is not None:
                top = max(top, self.gold.max())
            self.num_classes = int(top) + 1
        if self.num_classes < 2:
            raise DatasetError("need at least two classes")
        if np.any((self.lf_labels < ABSTAIN) | (self.lf_labels >= self.num_classes)):
            raise DatasetError("labeling-function votes out of range")
        if self.gold is not None and np.any((self.gold < 0) | (self.gold >= self.num_classes)):
            raise DatasetError("gold labels out of range")

    @property
    def n_items(self) -> int:
        return self.features.shape[0]

    @property
    def n_lfs(self) -> int:
        return self.lf_labels.shape[1]

    @cached_property
    def onehot_t(self) -> sparse.csr_matrix:
        """(L*K, N) indicator of the votes: row j*K + y is 1 where LF j voted y.

        Each row lists its items in increasing order.  Sparse products do
        not check indices; construction did.  Built at a dataset's first
        fit, which is where ``scipy.sparse`` is first imported: a command
        that fits nothing never loads it.
        """
        from scipy import sparse

        (n, n_lf), k = self.lf_labels.shape, self.num_classes
        voted = self.lf_labels != ABSTAIN
        # item by item, the rows of its votes in LF order: a CSC matrix
        rows = (np.arange(n_lf) * k + self.lf_labels)[voted]
        indptr = np.concatenate(([0], np.cumsum(voted.sum(axis=1))))
        return sparse.csc_matrix((np.ones(rows.size), rows, indptr), shape=(n_lf * k, n)).tocsr()

    @cached_property
    def onehot(self) -> sparse.csc_matrix:
        """(N, L*K) transpose of ``onehot_t``, a CSC view of its three arrays."""
        return self.onehot_t.T

    def vote_sums(self, table: np.ndarray) -> np.ndarray:
        """sum_j table[..., j, y_ij] over each item's votes: (..., L, K) to (..., N)."""
        flat = table.reshape(-1, self.n_lfs * self.num_classes)
        return (self.onehot @ flat.T).T.reshape(*table.shape[:-2], self.n_items)

    def vote_counts(self, weights: np.ndarray) -> np.ndarray:
        """sum_i weights[..., i] [y_ij = y], added in item order: (..., N) to (..., L, K)."""
        flat = weights.reshape(-1, self.n_items)
        return (self.onehot_t @ flat.T).T.reshape(*weights.shape[:-1], self.n_lfs, self.num_classes)


def load_json(path, num_classes: int | None = None) -> Dataset:
    """Read a dataset from the JSON weak-label interchange format.

    The file is one object mapping item id to an entry with ``label``
    (int or null), ``weak_labels`` (list of ints, -1 = abstain) and
    ``data.feature`` (list of floats).  Item ids sorted lexicographically
    define row order.  Gold labels are kept only when every item has one.
    A file that is not UTF-8, or nests deeper than the parser can recurse,
    is malformed JSON as much as one with a syntax error.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DatasetError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(raw, dict) or not raw:
        raise DatasetError(f"{path}: expected a nonempty object of items")

    ids = sorted(raw)
    features, votes, labels = [], [], []
    for item_id in ids:
        entry = raw[item_id]
        if not isinstance(entry, dict):
            raise DatasetError(f"{path}: item {item_id!r} is not an object")
        try:
            votes.append(entry["weak_labels"])
            features.append(entry["data"]["feature"])
        except (KeyError, TypeError) as exc:
            raise DatasetError(f"{path}: item {item_id!r} missing {exc}") from exc
        labels.append(entry.get("label"))

    try:
        return Dataset(
            features=features,
            lf_labels=votes,
            num_classes=num_classes,
            gold=labels if all(lab is not None for lab in labels) else None,
            name=path.stem,
            ids=tuple(ids),
        )
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def _json_list(items, indent: str) -> str:
    """Encoded ``items`` laid out as ``json.dump(indent=2)`` lays out a list at ``indent``."""
    body = (",\n" + indent + "  ").join(items)
    return f"[\n{indent}  {body}\n{indent}]" if body else "[]"


def _write_json_object(path, entries) -> None:
    """Write ``(key, encoded value)`` pairs as one JSON object, one ``write`` per entry.

    For nonempty ``entries`` given in sorted key order, whose values are
    laid out for an entry at depth one, the bytes equal ``json.dump(obj,
    fh, sort_keys=True, indent=2)`` plus a newline: keys are escaped by
    the json module's ASCII encoder.  ``json.dump`` with an indent runs
    the pure-Python encoder, which is several times slower.
    """
    encode = json.encoder.encode_basestring_ascii
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        separator = "\n"
        for key, value in entries:
            fh.write(f"{separator}  {encode(key)}: {value}")
            separator = ",\n"
        fh.write("\n}\n")


def save_json(dataset: Dataset, path) -> None:
    """Write the canonical JSON form (sorted ids, two-space indent).

    The file is streamed entry by entry, floats in their ``repr``, with
    the same bytes as ``json.dump(payload, sort_keys=True, indent=2)``
    plus a newline.  Loading the result reproduces the dataset exactly;
    saving it again reproduces the file byte for byte.
    """
    ids = dataset.ids
    if ids is None:
        ids = tuple(f"{i:08d}" for i in range(dataset.n_items))
    elif list(ids) != sorted(ids):
        raise DatasetError("item ids must be lexicographically sorted to save")
    gold = dataset.gold.tolist() if dataset.gold is not None else [None] * dataset.n_items
    entries = (
        (
            item_id,
            "{\n"
            f'    "data": {{\n      "feature": {_json_list(map(repr, feature), "      ")}\n    }},\n'
            f'    "label": {"null" if label is None else label},\n'
            f'    "weak_labels": {_json_list(map(str, votes), "    ")}\n  }}',
        )
        for item_id, feature, label, votes in zip(
            ids, dataset.features.tolist(), gold, dataset.lf_labels.tolist()
        )
    )
    _write_json_object(path, entries)


def load_csv(
    features_path,
    labels_path,
    gold_path=None,
    num_classes: int | None = None,
) -> Dataset:
    """Read the CSV alternative: features, votes, and optional gold labels.

    ``features_path`` holds one row of floats per item, ``labels_path``
    one row of votes per item (-1 = abstain), ``gold_path`` one true
    label per line.  Votes and labels are read as floats and must be
    whole numbers.  The dataset is named after the directory holding
    ``features_path``.
    """
    try:
        features = np.loadtxt(features_path, delimiter=",", ndmin=2, dtype=float)
        votes = np.loadtxt(labels_path, delimiter=",", ndmin=2, dtype=float)
        gold = None if gold_path is None else np.loadtxt(gold_path, delimiter=",", ndmin=1, dtype=float)
    except (OSError, ValueError) as exc:
        raise DatasetError(f"could not parse CSV input ({exc})") from exc
    return Dataset(
        features=features,
        lf_labels=votes,
        num_classes=num_classes,
        gold=gold,
        name=Path(features_path).parent.name,
    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Size, seed and LF widths of the seeded four-class Gaussian benchmark.

    The layout is fixed: items are drawn from one 2-D Gaussian per class
    with equal class proportions, centred at ``_CLASS_MEANS`` with stds
    drawn from ``seed`` by ``_class_stds``.  Each class contributes two
    unipolar labeling functions, one per feature dimension.  LF ``(c, d)``
    votes ``c`` exactly when the item's d-th coordinate falls inside
    mean +- psi * std of class ``c`` in that dimension, and abstains
    otherwise; ``psi`` holds one width multiplier per LF, ordered
    class-major.
    """

    size: int
    seed: int
    psi: tuple

    def __post_init__(self):
        if self.size < len(_CLASS_MEANS):
            raise DatasetError("need at least one item per class")
        psi = np.asarray(self.psi, dtype=float)
        if psi.shape != (_CLASS_MEANS.size,):
            raise DatasetError("psi must hold one width per labeling function")
        if not np.all(psi > 0):
            raise DatasetError("psi entries must be positive")


def _class_stds(seed: int) -> np.ndarray:
    """One std per class and dimension, U(0.8, 1.6) on their own stream."""
    return np.random.default_rng([seed, _SPEC_STREAM]).uniform(0.8, 1.6, size=_CLASS_MEANS.shape)


def default_synthetic_spec(size: int, seed: int, psi_range=None) -> SyntheticSpec:
    """The benchmark spec, every LF width 1 unless ``psi_range`` is given.

    ``psi_range = (lo, hi)`` draws one width per LF uniformly from
    [lo, hi], on a stream derived from ``seed`` that is separate from the
    std and data-sampling streams; ``(w, w)`` makes every width exactly w.
    """
    if psi_range is None:
        return SyntheticSpec(size=size, seed=seed, psi=(1.0,) * _CLASS_MEANS.size)
    lo, hi = psi_range
    psi = np.random.default_rng([seed, _PSI_STREAM]).uniform(lo, hi, size=_CLASS_MEANS.size)
    return SyntheticSpec(size=size, seed=seed, psi=tuple(psi))


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Sample a dataset from the spec; fully determined by ``spec.seed``.

    Class sizes are balanced, with any remainder going to the lowest
    class indices.  Items are laid out class by class.
    """
    k = len(_CLASS_MEANS)
    classes = np.arange(k)
    gold = np.repeat(classes, spec.size // k + (classes < spec.size % k))
    stds = _class_stds(spec.seed)
    z = np.random.default_rng([spec.seed, _DATA_STREAM]).standard_normal((spec.size, 2))
    features = _CLASS_MEANS[gold] + stds[gold] * z

    # LF j = 2c + dim tests coordinate dim, column j of the tiled features,
    # against class c's window
    width = np.asarray(spec.psi).reshape(k, 2) * stds
    coords = np.tile(features, k)
    inside = (coords > (_CLASS_MEANS - width).ravel()) & (coords < (_CLASS_MEANS + width).ravel())
    votes = np.where(inside, np.repeat(classes, 2), ABSTAIN)
    return Dataset(
        features=features,
        lf_labels=votes,
        num_classes=k,
        gold=gold,
        name=f"synthetic-n{spec.size}-s{spec.seed}",
    )
