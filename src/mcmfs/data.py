"""Two-class dataset loading, validation, standardization, and stratified folds."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

SD_FLOOR = 1e-8


class DataError(ValueError):
    """A dataset or data file violates the two-class dense-matrix contract."""


def _canonical_label_map(raw_labels) -> dict[str, int]:
    """Map the distinct raw label strings onto {-1, +1}.

    When both labels parse as (distinct) finite numbers the numeric order
    decides, otherwise the lexicographic order does; the smaller label maps
    to -1.  A single-label file maps its sole value to -1.
    """
    distinct = sorted(set(raw_labels))
    if not distinct:
        raise DataError("empty file")
    if len(distinct) > 2:
        raise DataError(f"more than two classes: {', '.join(distinct)}")
    order = distinct
    if len(distinct) == 2:
        try:
            nums = [float(v) for v in distinct]
        except ValueError:
            nums = None
        if nums is not None and all(math.isfinite(v) for v in nums) and nums[0] != nums[1]:
            order = [v for _, v in sorted(zip(nums, distinct))]
    mapping = {order[0]: -1}
    if len(order) == 2:
        mapping[order[1]] = 1
    return mapping


@dataclass(frozen=True)
class Dataset:
    """Immutable labeled sample matrix with classes encoded as {-1, +1}.

    Attributes
    ----------
    samples : (M, n) float64 array, finite throughout.
    labels : (M,) int array with values in {-1, +1}.
    feature_names : n unique names, index-aligned with the columns.
    sample_ids : M identifiers, index-aligned with the rows.
    """

    samples: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64, order="C", ndmin=2)
        labels = np.array(self.labels, dtype=np.int64)
        names = tuple(str(v) for v in self.feature_names)
        ids = tuple(str(v) for v in self.sample_ids)
        if samples.ndim != 2:
            raise DataError("samples must form a 2-D matrix")
        m, n = samples.shape
        if m < 1 or n < 1:
            raise DataError("dataset needs at least one sample and one feature")
        if labels.shape != (m,):
            raise DataError("labels length does not match the sample count")
        if not np.all(np.isfinite(samples)):
            raise DataError("samples contain NaN or infinite values")
        if not np.all((labels == 1) | (labels == -1)):
            raise DataError("labels must be +1 or -1")
        if len(names) != n:
            raise DataError("feature_names length does not match the feature count")
        if len(set(names)) != n:
            raise DataError("feature names must be unique")
        if len(ids) != m:
            raise DataError("sample_ids length does not match the sample count")
        samples.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "sample_ids", ids)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_features(self) -> int:
        return self.samples.shape[1]

    def class_counts(self) -> dict[int, int]:
        return {v: int(np.count_nonzero(self.labels == v)) for v in (-1, 1)}

    def take(self, rows) -> "Dataset":
        """Row subset preserving order, used to materialize fold splits."""
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(
            self.samples[rows],
            self.labels[rows],
            self.feature_names,
            tuple(self.sample_ids[int(i)] for i in rows),
        )


def require_two_classes(d: Dataset) -> None:
    """Raise DataError unless `d` holds samples of both classes."""
    if 0 in d.class_counts().values():
        raise DataError("single-class dataset")


def load_dataset(path, fmt: str = "csv", label_column: str = "label") -> Dataset:
    """Read a dataset from `path` in either supported text format.

    `csv`: header row names the columns, one column (default "label") holds
    the class.  `sparse`: one sample per line, "label idx:val idx:val ..."
    with 1-based ascending indices; absent entries are zero.
    """
    if fmt == "csv":
        return _load_csv(path, label_column)
    if fmt == "sparse":
        return _load_sparse(path)
    raise ValueError(f"unknown dataset format: {fmt!r}")


def _parse_value(cell: str, where: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise DataError(f"{where}: cannot parse {cell!r} as a real number") from None
    if not math.isfinite(v):
        raise DataError(f"{where}: non-finite value {cell!r}")
    return v


def _parse_row(cells: list[str], where: str) -> np.ndarray:
    """One row's cells as floats, converted by numpy in one call.

    numpy converts each `str` with Python's `float`, so it accepts exactly the
    cells `_parse_value` accepts.  A row that fails, or holds a non-finite
    value, is parsed again cell by cell only so that the error names the cell.
    """
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        values = np.array([_parse_value(cell.strip(), where) for cell in cells])
    return values


def _load_csv(path, label_column: str) -> Dataset:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return _read_csv(reader, label_column)
        except csv.Error as exc:
            raise DataError(f"line {reader.line_num}: {exc}") from None


def _read_csv(reader, label_column: str) -> Dataset:
    header = next((r for r in reader if r), None)
    if header is None:
        raise DataError("empty file")
    header = [h.strip() for h in header]
    if label_column not in header:
        raise DataError(f"label column {label_column!r} not found in header")
    label_idx = header.index(label_column)
    names = tuple(h for i, h in enumerate(header) if i != label_idx)
    if not names:
        raise DataError("no feature columns")
    raw_labels, rows = [], []
    for row in reader:
        if not row:
            continue
        where = f"line {reader.line_num}"
        if len(row) != len(header):
            raise DataError(f"{where}: expected {len(header)} fields, got {len(row)}")
        raw_labels.append(row.pop(label_idx).strip())
        rows.append(_parse_row(row, where))
    if not rows:
        raise DataError("empty file: header without data rows")
    mapping = _canonical_label_map(raw_labels)
    labels = np.array([mapping[v] for v in raw_labels], dtype=np.int64)
    ids = tuple(f"s{i}" for i in range(1, len(raw_labels) + 1))
    return Dataset(np.vstack(rows), labels, names, ids)


def _load_sparse(path) -> Dataset:
    raw_labels = []
    row_entries: list[dict[int, float]] = []
    n = 0
    with open(path, encoding="utf-8") as fh:
        for lnum, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            raw_labels.append(parts[0])
            entries: dict[int, float] = {}
            prev = 0
            for tok in parts[1:]:
                idx_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise DataError(f"line {lnum}: malformed entry {tok!r}")
                try:
                    j = int(idx_s)
                except ValueError:
                    raise DataError(f"line {lnum}: malformed index in {tok!r}") from None
                if j <= prev:
                    raise DataError(f"line {lnum}: indices must be 1-based and ascending")
                entries[j] = _parse_value(val_s, f"line {lnum}")
                prev = j
            n = max(n, prev)
            row_entries.append(entries)
    if not row_entries:
        raise DataError("empty file")
    if n == 0:
        raise DataError("no feature columns")
    data = np.zeros((len(row_entries), n), dtype=np.float64)
    for i, entries in enumerate(row_entries):
        for j, v in entries.items():
            data[i, j - 1] = v
    mapping = _canonical_label_map(raw_labels)
    labels = np.array([mapping[v] for v in raw_labels], dtype=np.int64)
    names = tuple(f"f{j}" for j in range(1, n + 1))
    ids = tuple(f"s{i}" for i in range(1, len(row_entries) + 1))
    return Dataset(data, labels, names, ids)


@dataclass(frozen=True)
class Standardizer:
    """Per-feature affine map to zero mean and unit population standard deviation."""

    means: np.ndarray
    sds: np.ndarray
    sd_floor: float = SD_FLOOR

    def __post_init__(self):
        means = np.array(self.means, dtype=np.float64)
        sds = np.array(self.sds, dtype=np.float64)
        if means.ndim != 1 or sds.shape != means.shape:
            raise DataError("means and sds must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(sds))):
            raise DataError("standardizer parameters must be finite")
        if np.any(sds < self.sd_floor):
            raise DataError("standard deviations fall below the floor")
        means.setflags(write=False)
        sds.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sds", sds)

    @property
    def n_features(self) -> int:
        return self.means.shape[0]


def standardizer_lines(s: Standardizer) -> list[str]:
    """The standardizer block of a model document; 17 significant digits keep floats bit-exact."""
    fmt = lambda v: format(float(v), ".17g")
    return ["means " + " ".join(fmt(v) for v in s.means),
            "sds " + " ".join(fmt(v) for v in s.sds),
            f"sd-floor {fmt(s.sd_floor)}"]


def standardizer_from_fields(fields: dict[str, str]) -> Standardizer | None:
    """Read back the block of `standardizer_lines` from a document's key -> rest map.

    Returns None when the document has no `means` line.  A missing `sds` line
    raises KeyError and an unparsable value ValueError, for the codec to report.
    """
    if "means" not in fields:
        return None
    return Standardizer(np.array(fields["means"].split(), dtype=np.float64),
                        np.array(fields["sds"].split(), dtype=np.float64),
                        float(fields.get("sd-floor", SD_FLOOR)))


def fit_standardizer(train: Dataset, sd_floor: float = SD_FLOOR) -> Standardizer:
    """Estimate per-feature mean and population sd on `train`, flooring tiny sds."""
    if train.n_samples < 2:
        raise DataError("standardizer needs at least two samples")
    means = train.samples.mean(axis=0)
    sds = np.maximum(train.samples.std(axis=0), sd_floor)
    return Standardizer(means, sds, sd_floor)


def apply_standardizer(s: Standardizer, d: Dataset) -> Dataset:
    if d.n_features != s.n_features:
        raise DataError(
            f"dimension mismatch: standardizer has {s.n_features} features, dataset has {d.n_features}"
        )
    return Dataset((d.samples - s.means) / s.sds, d.labels, d.feature_names, d.sample_ids)


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of each sample to one of k cross-validation folds."""

    k: int
    seed: int
    assignments: np.ndarray

    def __post_init__(self):
        assignments = np.array(self.assignments, dtype=np.int64)
        if self.k < 2:
            raise DataError("k must be at least 2")
        if assignments.ndim != 1 or assignments.size == 0:
            raise DataError("assignments must be a nonempty 1-D array")
        if assignments.min() < 0 or assignments.max() >= self.k:
            raise DataError("fold assignments out of range")
        present = np.unique(assignments)
        if present.size != self.k:
            raise DataError("every fold must be nonempty")
        assignments.setflags(write=False)
        object.__setattr__(self, "assignments", assignments)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def stratified_kfold(d: Dataset, k: int, seed: int) -> FoldPlan:
    """Deterministic stratified fold assignment.

    Samples of each class are shuffled with a seeded generator and dealt
    round-robin, continuing the fold cursor across classes so per-fold class
    counts stay within one of an even split and no fold is left empty.
    """
    if k < 2:
        raise DataError("k must be at least 2")
    if k > d.n_samples:
        raise DataError(f"k={k} exceeds the number of samples ({d.n_samples})")
    rng = np.random.default_rng(seed)
    assignments = np.empty(d.n_samples, dtype=np.int64)
    cursor = 0
    for value in (-1, 1):
        idx = np.flatnonzero(d.labels == value)
        if idx.size < k:
            raise DataError(f"class {value:+d} has {idx.size} samples, fewer than k={k}")
        perm = rng.permutation(idx)
        assignments[perm] = (cursor + np.arange(idx.size)) % k
        cursor = (cursor + idx.size) % k
    return FoldPlan(k=k, seed=seed, assignments=assignments)
