import os

import numpy as np
import pytest

import mcmfs.mcm
from mcmfs.cli import _config, build_parser, main
from mcmfs.harness import HarnessConfig
from support import make_dataset, write_csv


def separable(m=12, seed=0):
    rng = np.random.default_rng(seed)
    y = np.array([1, -1] * (m // 2))
    f0 = y * 2.0 + rng.normal(0.0, 0.1, size=m)
    rest = rng.normal(size=(m, 2))
    return make_dataset(np.column_stack([f0, rest]), y.tolist())


@pytest.fixture
def csv_path(tmp_path):
    return write_csv(tmp_path / "d.csv", separable())


class TestSelect:
    def test_mcm_writes_one_based_names(self, csv_path, tmp_path, capsys):
        out = tmp_path / "feats.txt"
        assert main(["select", "--input", csv_path, "--method", "mcm",
                     "--out", str(out)]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body, "selection should not be empty on separable data"
        indices = [int(l.split("\t")[0]) for l in body]
        assert indices == sorted(indices)
        assert all(1 <= j <= 3 for j in indices)
        assert body[0].split("\t")[1].startswith("f")

    def test_relieff_and_fcbf_run(self, csv_path, tmp_path):
        for method, extra in (("relieff", ["--k-neighbors", "2"]), ("fcbf", [])):
            out = tmp_path / f"{method}.txt"
            assert main(["select", "--input", csv_path, "--method", method,
                         "--out", str(out)] + extra) == 0
            assert out.exists()

    def test_empty_selection_marked(self, tmp_path):
        rng = np.random.default_rng(5)
        d = make_dataset(rng.normal(size=(12, 2)), [1, -1] * 6)
        path = write_csv(tmp_path / "noise.csv", d)
        out = tmp_path / "feats.txt"
        assert main(["select", "--input", path, "--method", "fcbf",
                     "--delta", "1.5", "--out", str(out)]) == 0
        assert "# empty selection" in out.read_text()

    def test_single_class_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("f1,label\n1.0,a\n2.0,a\n")
        out = tmp_path / "feats.txt"
        code = main(["select", "--input", str(path), "--out", str(out)])
        assert code == 2
        assert "single-class dataset" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input(self, tmp_path, capsys):
        code = main(["select", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_bad_fraction(self, csv_path, tmp_path, capsys):
        code = main(["select", "--input", csv_path, "--method", "relieff",
                     "--k-neighbors", "2", "--fraction", "0",
                     "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "option error" in capsys.readouterr().err

    def test_sparse_format(self, tmp_path):
        path = tmp_path / "d.sp"
        path.write_text("+1 1:2.0\n-1 1:-2.0\n+1 1:2.1\n-1 1:-2.1\n")
        out = tmp_path / "feats.txt"
        assert main(["select", "--input", str(path), "--format", "sparse",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_long_csv_field_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text('f1,label\n1.0,a\n"' + "1" * 200_000 + '",b\n')
        code = main(["select", "--input", str(path), "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "input error: line 3: field larger than field limit" in capsys.readouterr().err

    def test_non_utf8_dataset_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"f1,label\n1.0,a\n\xff\xfe,b\n")
        code = main(["select", "--input", str(path), "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_solver_fault_is_training_error(self, csv_path, tmp_path, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise ArithmeticError("singular basis matrix")

        monkeypatch.setattr(mcmfs.mcm, "solve_lp", singular)
        out = tmp_path / "feats.txt"
        code = main(["select", "--input", csv_path, "--out", str(out)])
        assert code == 3
        assert "training error: singular basis matrix" in capsys.readouterr().err
        assert not out.exists()

    def test_label_column_flag(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("cls,f1\n+1,2.0\n-1,-2.0\n+1,2.1\n-1,-2.1\n")
        out = tmp_path / "feats.txt"
        assert main(["select", "--input", str(path), "--label-column", "cls",
                     "--out", str(out)]) == 0


class TestTrainPredict:
    def test_mcm_round_trip(self, csv_path, tmp_path):
        model = tmp_path / "m.txt"
        labels = tmp_path / "labels.txt"
        assert main(["train", "--input", csv_path, "--out", str(model)]) == 0
        assert model.read_text().startswith("mcm-model")
        assert main(["predict", "--input", csv_path, "--model", str(model),
                     "--out", str(labels)]) == 0
        got = [line.split("\t") for line in labels.read_text().splitlines()]
        d = separable()
        assert [sid for sid, _ in got] == list(d.sample_ids)
        assert [int(v) for _, v in got] == d.labels.tolist()

    def test_svm_round_trip_with_feature_file(self, csv_path, tmp_path):
        feats = tmp_path / "feats.txt"
        feats.write_text("# chosen\n1\tf1\n")
        model = tmp_path / "m.txt"
        labels = tmp_path / "labels.txt"
        assert main(["train", "--input", csv_path, "--model-kind", "svm",
                     "--features", str(feats), "--svm-C", "10",
                     "--out", str(model)]) == 0
        assert model.read_text().startswith("svm-model")
        assert main(["predict", "--input", csv_path, "--model", str(model),
                     "--out", str(labels)]) == 0
        got = [int(line.split("\t")[1]) for line in labels.read_text().splitlines()]
        assert got == separable().labels.tolist()

    def test_out_of_range_feature_index(self, csv_path, tmp_path, capsys):
        feats = tmp_path / "feats.txt"
        feats.write_text("9\n")
        code = main(["train", "--input", csv_path, "--model-kind", "svm",
                     "--features", str(feats), "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_hard_margin_failure_is_training_error(self, tmp_path, capsys):
        path = tmp_path / "overlap.csv"
        path.write_text("f1,label\n0.0,+1\n0.0,-1\n1.0,+1\n-1.0,-1\n")
        out = tmp_path / "m.txt"
        code = main(["train", "--input", str(path), "--hard-margin",
                     "--out", str(out)])
        assert code == 3
        assert "training error" in capsys.readouterr().err
        assert not out.exists()

    def test_unrecognized_model_document(self, csv_path, tmp_path, capsys):
        bogus = tmp_path / "bogus.txt"
        bogus.write_text("hello\n")
        code = main(["predict", "--input", csv_path, "--model", str(bogus),
                     "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,edit", [
        ("mcm", lambda lines: [l for l in lines if not l.startswith("sds ")]),
        ("svm", lambda lines: [l for l in lines if not l.startswith("sds ")]),
        ("svm", lambda lines: ["subset 1 2 99" if l.startswith("subset ") else l for l in lines]),
        ("svm", lambda lines: ["subset 1 1 3" if l.startswith("subset ") else l for l in lines]),
        ("svm", lambda lines: [l.replace("sv ", "sv x", 1) if l.startswith("sv ") else l
                               for l in lines]),
        ("mcm", lambda lines: ["w nan nan nan" if l.startswith("w ") else l for l in lines]),
        ("svm", lambda lines: ["bias nan" if l.startswith("bias ") else l for l in lines]),
        ("svm", lambda lines: ["kernel-gamma 0" if l.startswith("kernel-gamma ") else l
                               for l in lines]),
    ], ids=["mcm-without-sds", "svm-without-sds", "svm-subset-out-of-range",
            "svm-subset-duplicated", "svm-non-numeric-sv", "mcm-nan-weights",
            "svm-nan-bias", "svm-zero-gamma"])
    def test_malformed_model_document_is_input_error(self, csv_path, tmp_path, capsys,
                                                     kind, edit):
        model = tmp_path / "m.txt"
        assert main(["train", "--input", csv_path, "--model-kind", kind,
                     "--out", str(model)]) == 0
        lines = model.read_text().splitlines()
        model.write_text("\n".join(edit(lines)) + "\n")
        out = tmp_path / "o.txt"
        code = main(["predict", "--input", csv_path, "--model", str(model),
                     "--out", str(out)])
        assert code == 2
        assert "input error: malformed" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_model_document_is_input_error(self, csv_path, tmp_path, capsys):
        model = tmp_path / "m.txt"
        assert main(["train", "--input", csv_path, "--out", str(model)]) == 0
        model.write_bytes(model.read_bytes().replace(b"variant", b"vari\xe4nt"))
        out = tmp_path / "o.txt"
        code = main(["predict", "--input", csv_path, "--model", str(model),
                     "--out", str(out)])
        assert code == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_mismatch(self, csv_path, tmp_path, capsys):
        model = tmp_path / "m.txt"
        assert main(["train", "--input", csv_path, "--out", str(model)]) == 0
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("f1,label\n1.0,+1\n-1.0,-1\n")
        out = tmp_path / "o.txt"
        code = main(["predict", "--input", str(narrow), "--model", str(model),
                     "--out", str(out)])
        assert code == 2
        assert "dimension mismatch" in capsys.readouterr().err
        assert not out.exists()


BENCH_ARGS = ["--folds", "3", "--svm-c-grid", "1", "--svm-gamma-grid", "0.5",
              "--k-neighbors", "2", "--inner-folds", "3"]


class TestBenchmark:
    def test_report_and_table(self, csv_path, tmp_path, capsys):
        report = tmp_path / "r.txt"
        code = main(["benchmark", "--input", csv_path, "--report", str(report),
                     "--table"] + BENCH_ARGS)
        assert code == 0
        text = report.read_text()
        assert text.startswith("cv-report v1")
        assert "method mcm" in text and "method fcbf" in text
        table = capsys.readouterr().out
        assert "Dataset (samples × dimension)" in table
        assert "d (12 × 3)" in table

    def test_byte_identical_reruns(self, csv_path, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["benchmark", "--input", csv_path, "--seed", "42"] + BENCH_ARGS
        assert main(args + ["--report", str(a)]) == 0
        assert main(args + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mcm_tune_C_reruns_identical(self, csv_path, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["benchmark", "--input", csv_path, "--methods", "mcm", "--mcm-tune-C"] + BENCH_ARGS
        assert main(args + ["--report", str(a)]) == 0
        assert main(args + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("grid", ["1,x", ","])
    def test_malformed_grid_is_option_error(self, csv_path, tmp_path, capsys, grid):
        code = main(["benchmark", "--input", csv_path, "--svm-c-grid", grid,
                     "--report", str(tmp_path / "r.txt")])
        assert code == 2
        assert "option error" in capsys.readouterr().err

    def test_unknown_method(self, csv_path, tmp_path, capsys):
        code = main(["benchmark", "--input", csv_path, "--methods", "mcm,anova",
                     "--report", str(tmp_path / "r.txt")])
        assert code == 2
        assert "option error" in capsys.readouterr().err

    def test_timings_flag(self, csv_path, tmp_path):
        report = tmp_path / "r.txt"
        assert main(["benchmark", "--input", csv_path, "--methods", "mcm",
                     "--report", str(report), "--timings"] + BENCH_ARGS) == 0
        assert "wall-time" in report.read_text()


class TestTopLevel:
    def test_show_config(self, capsys):
        assert main(["--show-config"]) == 0
        out = capsys.readouterr().out
        assert "mcmfs defaults" in out
        assert "fraction = 0.4" in out
        assert "1-based" in out

    @pytest.mark.parametrize("argv", [
        ["select", "--input", "d.csv", "--out", "o.txt"],
        ["benchmark", "--input", "d.csv", "--report", "r.txt"],
    ], ids=["select", "benchmark"])
    def test_flag_defaults_are_the_config_defaults(self, argv):
        assert _config(build_parser().parse_args(argv)) == HarnessConfig()

    def test_missing_command(self, capsys):
        assert main([]) == 2
        assert "a command is required" in capsys.readouterr().err

    def test_no_temp_droppings_on_success(self, csv_path, tmp_path):
        out = tmp_path / "feats.txt"
        assert main(["select", "--input", csv_path, "--out", str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "feats.txt"]
