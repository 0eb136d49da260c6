"""Two-class dataset loading, validation, standardization, and stratified folds."""

from __future__ import annotations

import csv
import io
import math
import os
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
    """

    samples: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64, order="C", ndmin=2)
        labels = np.array(self.labels, dtype=np.int64)
        names = tuple(str(v) for v in self.feature_names)
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
        samples.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)

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
        return Dataset(self.samples[rows], self.labels[rows], self.feature_names)


def require_two_classes(d: Dataset) -> None:
    """Raise DataError unless `d` holds samples of both classes."""
    if 0 in d.class_counts().values():
        raise DataError("single-class dataset")


def load_dataset(path, fmt: str = "csv", label_column: str = "label") -> Dataset:
    """Read a dataset from `path` in either supported text format.

    `csv`: header row names the columns, one column (default "label") holds
    the class.  `sparse`: one sample per line, "label idx:val idx:val ..."
    with 1-based ascending indices; absent entries are zero.  A file that is
    not UTF-8 raises a DataError naming the line and byte offset at fault.
    Input that is not a regular file, such as a pipe, is read into memory
    first, since it cannot be read again from its start.
    """
    if fmt not in ("csv", "sparse"):
        raise ValueError(f"unknown dataset format: {fmt!r}")
    src = path if os.path.isfile(path) else _read_bytes(path)
    try:
        return _load_csv(src, label_column) if fmt == "csv" else _load_sparse(src)
    except UnicodeDecodeError as exc:
        raise _not_utf8(src, exc) from None


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _open_text(src, newline=None):
    """`src`, a file name or the bytes of the input, as UTF-8 text with a leading BOM skipped."""
    if isinstance(src, bytes):
        return io.TextIOWrapper(io.BytesIO(src), encoding="utf-8-sig", newline=newline)
    return open(src, newline=newline, encoding="utf-8-sig")


def _not_utf8(src, exc: UnicodeDecodeError) -> DataError:
    """Locate the bad byte in the input; `exc` counts from the start of a decoder chunk."""
    raw = src if isinstance(src, bytes) else _read_bytes(src)
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as whole:
        at = whole.start
        line = raw.count(b"\n", 0, at) + 1
        return DataError(f"line {line}: byte {at} is not valid UTF-8 "
                         f"({whole.reason} 0x{raw[at]:02x})")
    return DataError(f"not valid UTF-8: {exc}")


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


def _load_csv(src, label_column: str) -> Dataset:
    with _open_text(src, newline="\n") as fh:
        parsed = _read_plain_csv(fh, label_column)
    if parsed is None:
        with _open_text(src, newline="") as fh:
            reader = csv.reader(fh)
            try:
                parsed = _read_csv(reader, label_column)
            except csv.Error as exc:
                raise DataError(f"line {reader.line_num}: {exc}") from None
    return _labeled(*parsed)


# Not plain: a quote, stray carriage return or NUL, which the csv module treats
# specially, and U+001C..U+001F, which numpy strips around a number but `float` rejects.
_NOT_PLAIN = ('"', "\r", "\0", "\x1c", "\x1d", "\x1e", "\x1f")


def _plain_lines(fh):
    """The non-empty lines of `fh` without their endings; ValueError at one that is not plain."""
    limit = csv.field_size_limit()
    for line in fh:
        line = line.removesuffix("\n").removesuffix("\r")
        if any(c in line for c in _NOT_PLAIN) or (
                len(line) > limit and max(map(len, line.split(","))) > limit):
            raise ValueError("not a plain line")
        if line:
            yield line


def _read_plain_csv(fh, label_column: str):
    """`_read_csv`'s result for a plain file, streamed through numpy's C parser.

    Any doubt (a line that is not plain, a cell numpy rejects, anything
    `_read_csv` rejects) gives None instead, for `_read_csv` to name the line.
    numpy accepts no cell `float` rejects and reads the others to the same double.
    """
    raw_labels = []
    try:
        lines = _plain_lines(fh)
        header = [h.strip() for h in next(lines, "").split(",")]
        k, width = header.index(label_column), len(header)
        # Split the line from its end only as far as the label field.
        pieces = min(width, width - k + 1)
        at = pieces - (width - k)

        def rows():
            for line in lines:
                parts = line.rsplit(",", width - k)
                if len(parts) != pieces:
                    raise ValueError("ragged row")
                raw_labels.append(parts.pop(at).strip())
                yield ",".join(parts)
            if not raw_labels:   # before np.loadtxt warns of an empty body
                raise ValueError("no data rows")

        samples = np.loadtxt(rows(), dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if samples.shape != (len(raw_labels), width - 1) or not np.isfinite(samples).all():
        return None
    return samples, raw_labels, tuple(header[:k] + header[k + 1:])


def _read_csv(reader, label_column: str):
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
    return np.vstack(rows), raw_labels, names


def _labeled(samples, raw_labels, names) -> Dataset:
    mapping = _canonical_label_map(raw_labels)
    return Dataset(samples, [mapping[v] for v in raw_labels], names)


def _load_sparse(src) -> Dataset:
    raw_labels = []
    row_entries: list[dict[int, float]] = []
    n = 0
    with _open_text(src) as fh:
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
    return _labeled(data, raw_labels, tuple(f"f{j}" for j in range(1, n + 1)))


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


def fmt17(v) -> str:
    """A float in a model document; 17 significant digits read back bit-exact."""
    return format(float(v), ".17g")


def fmt17_join(values) -> str:
    """fmt17 of each value, space-separated, in one %-format (the same conversion)."""
    values = tuple(np.asarray(values, dtype=np.float64).tolist())
    return " ".join(["%.17g"] * len(values)) % values


def document_fields(text: str, kind: str) -> tuple[dict[str, str], list[str]]:
    """A `kind v1` document's `key rest` lines as a key -> rest map, and the rests of its `sv` lines."""
    fields, sv = {}, []
    for line in text.splitlines():
        line = line.strip()
        if line and line != "end":
            key, _, rest = line.partition(" ")
            if key == "sv":
                sv.append(rest)
            else:
                fields[key] = rest
    if fields.get(kind) != "v1":
        raise DataError(f"not an {kind} v1 document")
    return fields, sv


def document_text(lines: list[str], s: Standardizer | None) -> str:
    """A model document: `lines`, the standardizer block when `s` is given, and `end`."""
    if s is not None:
        lines = lines + ["means " + fmt17_join(s.means),
                         "sds " + fmt17_join(s.sds),
                         f"sd-floor {fmt17(s.sd_floor)}"]
    return "\n".join(lines + ["end"]) + "\n"


def standardizer_from_fields(fields: dict[str, str]) -> Standardizer | None:
    """Read back the standardizer block of `document_text` from a document's key -> rest map.

    Returns None when the document has no `means` line.  A missing `sds` line
    raises KeyError and an unparsable value ValueError, for the codec to report.
    """
    if "means" not in fields:
        return None
    return Standardizer(np.array(fields["means"].split(), dtype=np.float64),
                        np.array(fields["sds"].split(), dtype=np.float64),
                        float(fields.get("sd-floor", SD_FLOOR)))


def fit_standardizer(train: Dataset) -> Standardizer:
    """Estimate per-feature mean and population sd on `train`, flooring tiny sds."""
    if train.n_samples < 2:
        raise DataError("standardizer needs at least two samples")
    means = train.samples.mean(axis=0)
    sds = np.maximum(train.samples.std(axis=0), SD_FLOOR)
    return Standardizer(means, sds)


def apply_standardizer(s: Standardizer, d: Dataset) -> Dataset:
    if d.n_features != s.n_features:
        raise DataError(
            f"dimension mismatch: standardizer has {s.n_features} features, dataset has {d.n_features}"
        )
    return Dataset((d.samples - s.means) / s.sds, d.labels, d.feature_names)


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
