import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcmfs.data
from mcmfs.data import (
    DataError,
    Dataset,
    FoldPlan,
    _canonical_label_map,
    apply_standardizer,
    fit_standardizer,
    load_dataset,
    stratified_kfold,
)
from oracles import load_csv_cellwise
from support import make_dataset


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestCsvLoading:
    def test_basic_csv(self, tmp_path):
        p = write(tmp_path, "d.csv", "f1,f2,label\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        d = load_dataset(p, fmt="csv")
        assert d.n_samples == 3 and d.n_features == 2
        assert d.feature_names == ("f1", "f2")
        np.testing.assert_allclose(d.samples, [[1, 2], [3, 4], [5, 6]])
        # lexicographically smaller label becomes -1
        assert d.labels.tolist() == [-1, 1, -1]

    def test_numeric_labels_ordered_numerically(self, tmp_path):
        p = write(tmp_path, "d.csv", "f1,label\n0.0,+1\n1.0,-1\n")
        d = load_dataset(p)
        # "-1" parses below "+1", so it maps to -1 even though '+' < '-' as text
        assert d.labels.tolist() == [1, -1]

    def test_label_column_flag(self, tmp_path):
        p = write(tmp_path, "d.csv", "y,f1\na,1.0\nb,2.0\n")
        d = load_dataset(p, label_column="y")
        assert d.feature_names == ("f1",)
        assert d.labels.tolist() == [-1, 1]

    def test_three_classes_rejected(self, tmp_path):
        p = write(tmp_path, "d.csv", "f1,label\n1,a\n2,b\n3,c\n")
        with pytest.raises(DataError, match="two class"):
            load_dataset(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = write(tmp_path, "d.csv", "f1,f2,label\n1.0,2.0,a\n3.0,b\n")
        with pytest.raises(DataError, match="line 3"):
            load_dataset(p)

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path, "d.csv", "f1,label\nxyz,a\n1.0,b\n")
        with pytest.raises(DataError):
            load_dataset(p)

    def test_nan_rejected(self, tmp_path):
        p = write(tmp_path, "d.csv", "f1,label\nnan,a\n1.0,b\n")
        with pytest.raises(DataError):
            load_dataset(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "d.csv", "")
        with pytest.raises(DataError, match="empty"):
            load_dataset(p)

    def test_blank_lines_skipped_and_errors_name_physical_line(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,label\n\n1,1\n\nx,2\n")
        with pytest.raises(DataError, match=r"^line 5: cannot parse 'x'"):
            load_dataset(p)
        p = write(tmp_path, "d.csv", "a,label\n\n1,1\n\n3,2\n\n")
        assert load_dataset(p).samples[:, 0].tolist() == [1.0, 3.0]

    def test_quoted_fields(self, tmp_path):
        p = write(tmp_path, "d.csv", '"f,1",label\n"1.5","a,b"\n" 2 ",c\n')
        d = load_dataset(p)
        assert d.feature_names == ("f,1",)
        assert d.samples[:, 0].tolist() == [1.5, 2.0]
        assert d.labels.tolist() == [-1, 1]

    @pytest.mark.parametrize("header", ["label,f1", '"label",f1'])
    def test_utf8_byte_order_mark(self, tmp_path, header):
        # Excel's "CSV UTF-8" starts the file with U+FEFF.
        p = tmp_path / "d.csv"
        p.write_bytes(f"\ufeff{header}\r\na,1\r\nb,2\r\n".encode())
        d = load_dataset(str(p))
        assert d.feature_names == ("f1",)
        assert d.labels.tolist() == [-1, 1]
        p.write_bytes("\ufeff+1 1:0.5\n-1 1:2\n".encode())
        assert load_dataset(str(p), fmt="sparse").labels.tolist() == [1, -1]

    def test_header_only_raises_without_warning(self, tmp_path):
        p = write(tmp_path, "d.csv", "f1,f2,label\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^empty file: header without data rows$"):
                load_dataset(p)

    @pytest.mark.parametrize("label_pos", [0, 3000, 7129])
    def test_plain_wide_file_skips_the_csv_module(self, tmp_path, monkeypatch, label_pos):
        # Golub's micro-array shape, 72x7129, with the label column first, in
        # the middle and last: numpy parses such a file, the csv module never.
        rng = np.random.default_rng(label_pos)
        header = [f"g{j}" for j in range(1, 7130)]
        header.insert(label_pos, "label")
        lines = [",".join(header)]
        for row, label in zip(rng.normal(size=(72, 7129)), rng.choice(["ALL", "AML"], 72)):
            cells = [format(v, ".12g") for v in row]
            cells.insert(label_pos, str(label))
            lines.append(",".join(cells))
        path = write(tmp_path, "wide.csv", "\n".join(lines) + "\n")
        want = _load_oracle(path)

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader was called")

        monkeypatch.setattr(mcmfs.data.csv, "reader", refuse)
        got = _load_package(path)
        assert got[0].shape == (72, 7129)
        assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]


# Cells the per-cell reader accepts or rejects in every way that matters:
# padding, signs, exponents, underscores, non-ASCII digits, overflow to inf,
# nan, and text.  numpy's parser rejects "1_000", "\u0661\u0662" and
# "\uff11", which `float` reads, and accepts "\x1c5", which `float` rejects.
CELLS = ("0", "-0", "1.5", " 2.25 ", "\t-3e-2", "+4", ".5", "5.", "1_000", "\u0661\u0662",
         "\uff11", "\xa07", "\x1c5", "5\x1f", "#1", "1e-400", "1e400", "-1e400", "nan", "NaN",
         "inf", "-Infinity", "x", "", " ", "0x10", "1__0", "1,5")
LABEL_PAIRS = (("a", "b"), ("-1", "+1"), ("2", "10"), (" b", "a,b"), ("#a", "b"), ("a", "b", "c"))


@st.composite
def csv_documents(draw):
    """A CSV document: its physical lines and its text.

    The text may start with a byte-order mark; its lines end in "\\n", "\\r\\n"
    or a mix of those with a lone "\\r".  Blank lines, whitespace-only lines,
    quoting and ragged rows come and go; most documents hold no quote, so that
    both of the loader's paths are exercised.
    """
    n = draw(st.integers(1, 4))
    label_pos = draw(st.integers(0, n))
    names = [draw(st.sampled_from((f"f{j}", f" f{j} ", f"f,{j}", "f0", f"#f{j}")))
             for j in range(n)]
    header = names[:label_pos] + ["label"] + names[label_pos:]
    labels = draw(st.sampled_from(LABEL_PAIRS))
    finite = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".12g"))
    cell = draw(st.sampled_from((finite, st.one_of(finite, st.sampled_from(CELLS)))))
    extra = st.sampled_from((0, -1, 1) if draw(st.integers(0, 3)) == 0 else (0,))
    quote_some = draw(st.integers(0, 3)) == 0
    gaps = st.sampled_from(("", "", " ", "\t") if draw(st.integers(0, 7)) == 0 else ("",))
    rows = [header]
    for _ in range(draw(st.integers(0, 5))):
        row = [draw(cell) for _ in range(n)]
        row.insert(label_pos, draw(st.sampled_from(labels)))
        ragged = draw(extra)
        rows.append(row[:ragged] if ragged < 0 else row + ["1"] * ragged)
    lines = []
    for row in rows:
        quoted = [f'"{c}"' if "," in c or (quote_some and draw(st.booleans())) else c
                  for c in row]
        lines.append(",".join(quoted))
        lines += [draw(gaps) for _ in range(draw(st.integers(0, 2 if draw(st.booleans()) else 0)))]
    endings = [draw(st.sampled_from(("\n", "\r\n", "\r"))) for _ in lines]
    endings = draw(st.sampled_from((["\n"] * len(lines), ["\r\n"] * len(lines), endings)))
    for i in range(1, len(lines)):
        if lines[i] == "" and endings[i - 1] == "\r" and endings[i] == "\n":
            endings[i] = "\r\n"   # "\r" + "\n" would end one line, not two
    bom = draw(st.sampled_from(("", "\ufeff")))
    return lines, bom + "".join(line + end for line, end in zip(lines, endings))


def _outcome(load, path):
    """('ok', bytes, labels, names) or ('error', message) for one loader."""
    try:
        samples, labels, names = load(path)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", samples.tobytes(), labels, names)


def _load_package(path):
    d = load_dataset(path)
    return d.samples, d.labels.tolist(), d.feature_names


def _load_oracle(path):
    samples, raw, names = load_csv_cellwise(path)
    mapping = _canonical_label_map(raw)
    d = Dataset(samples, [mapping[v] for v in raw], names)
    return d.samples, d.labels.tolist(), d.feature_names


class TestCsvMatchesCellwiseReader:
    @settings(max_examples=300)
    @given(csv_documents())
    def test_same_dataset_or_error(self, tmp_path_factory, document):
        lines, text = document
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_bytes(text.encode())
        got = _outcome(_load_package, str(path))
        want = _outcome(_load_oracle, str(path))
        if want[0] == "error":
            # The reference counts non-blank rows; the loader names physical lines.
            physical = [i for i, line in enumerate(lines, start=1) if line]
            want = ("error", re.sub(r"^line (\d+)",
                                    lambda m: f"line {physical[int(m.group(1)) - 1]}", want[1]))
        assert got == want


class TestSparseLoading:
    def test_absent_entries_are_zero(self, tmp_path):
        p = write(tmp_path, "d.sp", "+1 3:0.5\n-1 1:2.0 2:1.0\n")
        d = load_dataset(p, fmt="sparse")
        assert d.n_features == 3
        np.testing.assert_allclose(d.samples, [[0, 0, 0.5], [2, 1, 0]])
        assert d.labels.tolist() == [1, -1]

    def test_indices_one_based_ascending(self, tmp_path):
        p = write(tmp_path, "d.sp", "+1 2:1.0 1:1.0\n-1 1:0.5\n")
        with pytest.raises(DataError, match="ascending"):
            load_dataset(p, fmt="sparse")

    def test_malformed_entry(self, tmp_path):
        p = write(tmp_path, "d.sp", "+1 oops\n-1 1:1\n")
        with pytest.raises(DataError):
            load_dataset(p, fmt="sparse")


class TestDatasetInvariants:
    def test_label_domain_enforced(self):
        with pytest.raises((DataError, ValueError)):
            make_dataset([[1.0]], [2])

    def test_duplicate_feature_names(self):
        with pytest.raises((DataError, ValueError)):
            Dataset(np.ones((1, 2)), np.array([1]), ("a", "a"))

    def test_arrays_read_only(self):
        d = make_dataset([[1.0, 2.0]], [1])
        with pytest.raises(ValueError):
            d.samples[0, 0] = 9.0

    def test_take_subsets_rows(self):
        d = make_dataset([[1.0], [2.0], [3.0]], [1, -1, 1])
        sub = d.take([2, 0])
        np.testing.assert_allclose(sub.samples, [[3.0], [1.0]])
        assert sub.labels.tolist() == [1, 1]


class TestStandardizer:
    def test_two_point_column(self):
        d = make_dataset([[1.0], [3.0]], [1, -1])
        s = fit_standardizer(d)
        assert s.means[0] == 2.0 and s.sds[0] == 1.0

    def test_population_sd(self):
        d = make_dataset([[0.0], [0.0], [3.0], [3.0]], [1, -1, 1, -1])
        s = fit_standardizer(d)
        assert s.means[0] == pytest.approx(1.5)
        assert s.sds[0] == pytest.approx(1.5)

    def test_constant_column_floored(self):
        d = make_dataset([[5.0], [5.0], [5.0]], [1, -1, 1])
        s = fit_standardizer(d)
        assert s.sds[0] == s.sd_floor == 1e-8
        out = apply_standardizer(s, d)
        np.testing.assert_allclose(out.samples, 0.0)

    def test_transform_values(self):
        d = make_dataset([[3.0]], [1])
        s = fit_standardizer(make_dataset([[1.0], [3.0]], [1, -1]))
        out = apply_standardizer(s, d)
        assert out.samples[0, 0] == 1.0
        mean_point = apply_standardizer(s, make_dataset([[2.0]], [1]))
        assert mean_point.samples[0, 0] == 0.0

    def test_dimension_mismatch(self):
        s = fit_standardizer(make_dataset([[1.0, 2.0], [3.0, 4.0]], [1, -1]))
        with pytest.raises((DataError, ValueError)):
            apply_standardizer(s, make_dataset([[1.0]], [1]))

    @given(st.integers(0, 2 ** 31 - 1))
    def test_round_trip_identity(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(0.0, 3.0, size=(6, 4))
        d = make_dataset(X, [1, -1, 1, -1, 1, -1])
        s = fit_standardizer(d)
        out = apply_standardizer(s, d)
        back = out.samples * s.sds + s.means
        np.testing.assert_allclose(back, X, atol=1e-12)

    def test_standardized_columns_mean0_sd1(self):
        rng = np.random.default_rng(0)
        d = make_dataset(rng.normal(2.0, 5.0, size=(30, 3)), rng.choice([1, -1], 30).tolist())
        out = apply_standardizer(fit_standardizer(d), d)
        np.testing.assert_allclose(out.samples.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.samples.std(axis=0), 1.0, atol=1e-12)


class TestFoldPlan:
    def test_balanced_divisible(self):
        d = make_dataset(np.arange(10, dtype=float)[:, None], [1] * 5 + [-1] * 5)
        plan = stratified_kfold(d, 5, 0)
        for f in range(5):
            test = d.take(plan.test_indices(f))
            assert test.n_samples == 2
            assert test.class_counts() == {1: 1, -1: 1}

    def test_deterministic(self):
        d = make_dataset(np.arange(12, dtype=float)[:, None], [1] * 7 + [-1] * 5)
        a = stratified_kfold(d, 3, 99)
        b = stratified_kfold(d, 3, 99)
        assert a.assignments.tolist() == b.assignments.tolist()

    def test_7_3_split_counts(self):
        d = make_dataset(np.arange(10, dtype=float)[:, None], [1] * 7 + [-1] * 3)
        plan = stratified_kfold(d, 3, 5)
        for f in range(3):
            counts = d.take(plan.test_indices(f)).class_counts()
            assert counts[-1] == 1
            assert counts[1] in (2, 3)

    def test_small_class_rejected(self):
        d = make_dataset(np.arange(5, dtype=float)[:, None], [1, 1, 1, 1, -1])
        with pytest.raises(DataError, match="fewer"):
            stratified_kfold(d, 2, 0)

    def test_direct_plan_validates(self):
        with pytest.raises((DataError, ValueError)):
            FoldPlan(2, 0, np.array([0, 0, 0]))  # fold 1 empty

    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_partition_property(self, seed, k):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2 * k, 6 * k))
        n_pos = int(rng.integers(k, m - k + 1))
        d = make_dataset(rng.normal(size=(m, 2)), [1] * n_pos + [-1] * (m - n_pos))
        plan = stratified_kfold(d, k, seed)
        seen = np.concatenate([plan.test_indices(f) for f in range(k)])
        assert sorted(seen.tolist()) == list(range(m))
        # stratification: per-fold class counts within one of the even split
        for f in range(k):
            counts = d.take(plan.test_indices(f)).class_counts()
            for cls, total in ((1, n_pos), (-1, m - n_pos)):
                assert abs(counts[cls] - total / k) < 1.0 + 1e-9
