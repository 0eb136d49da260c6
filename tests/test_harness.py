import numpy as np
import pytest

from mcmfs.data import FoldPlan, stratified_kfold
from mcmfs.harness import (
    MCM_C_GRID,
    CvReport,
    HarnessConfig,
    MethodRecord,
    _tune_mcm_C,
    compare_methods,
    format_table,
    report_to_text,
    run_method_cv,
)
from mcmfs import mcm
from mcmfs.mcm import mcm_classify, train_mcm
from oracles import mcm_C_every_candidate
from support import make_benchmark_dataset, make_dataset, with_flipped_labels

FAST = dict(svm_C_grid=(1.0,), svm_gamma_grid=(0.5,), relieff_k=2, inner_folds=3)


def signal_dataset(m=20, seed=6):
    """One wide-margin feature plus two noise features."""
    rng = np.random.default_rng(seed)
    y = np.array([1, -1] * (m // 2))
    f0 = y * 3.0 + rng.normal(0.0, 0.2, size=m)
    noise = rng.normal(size=(m, 2))
    return make_dataset(np.column_stack([f0, noise]), y.tolist())


def record_with(mean, std, count, method="mcm", folds=5):
    return MethodRecord(
        method=method,
        fold_accuracies=tuple([mean] * folds),
        mean_accuracy=mean,
        std_accuracy=std,
        per_fold_selected=((0,),) * folds,
        selected_count=count,
        union_count=int(count),
        hyperparameters=((1.0, 1.0),) * folds,
        empty_selection_folds=(),
        wall_time=0.0,
    )


def report_with(records, name="Golub", m=72, n=7129, mode="global"):
    return CvReport(
        dataset_name=name,
        n_samples=m,
        n_features=n,
        k=5,
        seed=42,
        selection_mode=mode,
        fold_test_counts=(15, 15, 14, 14, 14),
        records=tuple(records),
    )


class TestAggregation:
    def test_leave_one_out(self):
        d = signal_dataset(m=6)
        plan = FoldPlan(6, 0, np.arange(6))
        rec = run_method_cv(d, "mcm", plan, HarnessConfig(**FAST))
        assert len(rec.fold_accuracies) == 6
        assert all(a in (0.0, 1.0) for a in rec.fold_accuracies)
        assert rec.mean_accuracy == pytest.approx(np.mean(rec.fold_accuracies))
        assert rec.std_accuracy == pytest.approx(np.std(rec.fold_accuracies))

    def test_population_std(self):
        d = signal_dataset()
        plan = stratified_kfold(d, 5, 3)
        rec = run_method_cv(d, "fcbf", plan, HarnessConfig(**FAST))
        accs = np.array(rec.fold_accuracies)
        assert rec.std_accuracy == pytest.approx(float(np.std(accs, ddof=0)))

    def test_unknown_method(self):
        d = signal_dataset()
        plan = stratified_kfold(d, 5, 3)
        with pytest.raises(ValueError, match="method"):
            run_method_cv(d, "anova", plan, HarnessConfig(**FAST))


class TestMcmTuning:
    def test_picks_best_inner_accuracy(self):
        d = signal_dataset(m=12, seed=3)
        labels = d.labels.copy()
        labels[4] *= -1  # one flipped label, so that C changes the inner accuracy
        d = make_dataset(d.samples, labels.tolist())
        cfg = HarnessConfig()
        plan = stratified_kfold(d, 3, cfg.seed)
        accuracies = []
        for C in MCM_C_GRID:
            total = 0.0
            for f in range(3):
                model = train_mcm(d.take(plan.train_indices(f)), C=C)
                test = d.take(plan.test_indices(f))
                total += float((mcm_classify(model, test.samples) == test.labels).mean())
            accuracies.append(total / 3)
        best = MCM_C_GRID[int(np.argmax(accuracies))]  # first maximum: ties go to the smaller C
        assert best != MCM_C_GRID[0]
        assert _tune_mcm_C(d, cfg) == best


def record_mcm_training(monkeypatch, fail_at=None):
    """Log the C of every train_mcm call; a call at C == fail_at fails."""
    calls = []
    train = mcm.train_mcm

    def wrapper(d, C=1.0, **options):
        calls.append(C)
        if C == fail_at:
            raise mcm.McmTrainingError("training failed: LP status Infeasible")
        return train(d, C=C, **options)

    monkeypatch.setattr(mcm, "train_mcm", wrapper)
    return calls


class TestMcmTuningScan:
    """_tune_mcm_C stops a C once it cannot beat the best inner accuracy."""

    @pytest.mark.parametrize("flips", [(), (4,), (1, 6, 13)])
    @pytest.mark.parametrize("fail_at", [None, 1.0])
    def test_equals_training_every_C(self, monkeypatch, flips, fail_at):
        d = with_flipped_labels(make_benchmark_dataset(m=24, n=12, seed=3), flips)
        cfg = HarnessConfig()
        calls = record_mcm_training(monkeypatch, fail_at)
        expected, _ = mcm_C_every_candidate(d, MCM_C_GRID, 3, cfg.seed,
                                            variant=cfg.mcm_variant, rel_tol=cfg.mcm_rel_tol)
        every = len(calls)
        assert _tune_mcm_C(d, cfg) == expected
        assert len(calls) - every < every

    def test_no_training_after_a_perfect_C(self, monkeypatch):
        d = make_benchmark_dataset(m=24, n=12, seed=3)
        cfg = HarnessConfig()
        C, acc = mcm_C_every_candidate(d, MCM_C_GRID, 3, cfg.seed)
        assert acc == 1.0 and C != MCM_C_GRID[-1]
        calls = record_mcm_training(monkeypatch)
        assert _tune_mcm_C(d, cfg) == C
        assert calls[-3:] == [C] * 3 and calls.count(C) == 3


class TestPairing:
    def test_methods_share_fold_plan(self):
        d = signal_dataset()
        plan = stratified_kfold(d, 4, 1)
        report = compare_methods(d, ("mcm", "fcbf"), plan, HarnessConfig(**FAST))
        assert [r.method for r in report.records] == ["mcm", "fcbf"]
        assert report.k == 4
        assert report.fold_test_counts == tuple(
            int(plan.test_indices(f).size) for f in range(4))
        for rec in report.records:
            assert len(rec.fold_accuracies) == 4

    def test_empty_method_list_rejected(self):
        d = signal_dataset()
        plan = stratified_kfold(d, 4, 1)
        with pytest.raises(ValueError):
            compare_methods(d, (), plan, HarnessConfig(**FAST))


class TestFormatTable:
    def test_reference_row(self):
        report = report_with([record_with(0.958, 0.042, 47.0)])
        row = format_table([report]).splitlines()[1]
        assert row == "Golub (72 × 7129) | 47 | 95.8 ± 4.2%"

    def test_repeating_decimal_rounds_to_one_place(self):
        report = report_with([record_with(0.83333, 0.0, 3.0)])
        row = format_table([report]).splitlines()[1]
        assert "83.3 ± 0.0%" in row

    def test_half_rounds_up(self):
        report = report_with([record_with(0.835, 0.0, 3.0)])
        row = format_table([report]).splitlines()[1]
        assert "83.5 ± 0.0%" in row

    def test_fractional_count_in_per_fold_mode(self):
        rec = record_with(1.0, 0.0, 5.4)
        report = report_with([rec], mode="per_fold")
        row = format_table([report]).splitlines()[1]
        assert " | 5.4 | " in row

    def test_empty_record_row(self):
        rec = MethodRecord("mcm", (), 0.0, 0.0, (), 0.0, 0, (), (), 0.0)
        report = report_with([rec], name="tiny", m=2, n=1)
        row = format_table([report]).splitlines()[1]
        assert row.split(" | ") == ["tiny (2 × 1)", "", ""]

    def test_multiple_reports_multiple_rows(self):
        a = report_with([record_with(1.0, 0.0, 2.0)], name="first", m=10, n=4)
        b = report_with([record_with(0.5, 0.1, 3.0)], name="second", m=12, n=6)
        lines = format_table([a, b]).splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("first (10 × 4)")
        assert lines[2].startswith("second (12 × 6)")

    def test_no_reports_rejected(self):
        with pytest.raises(ValueError):
            format_table([])


class TestNoLeakage:
    @pytest.mark.parametrize("method", ["mcm", "relieff", "fcbf"])
    def test_corrupting_test_split_leaves_selection_alone(self, method):
        d = signal_dataset(m=24)
        plan = stratified_kfold(d, 4, 9)
        corrupted = d.samples.copy()
        rng = np.random.default_rng(123)
        test_rows = plan.test_indices(0)
        corrupted[test_rows] = rng.normal(50.0, 10.0, size=(test_rows.size, 3))
        d2 = make_dataset(corrupted, d.labels.tolist())
        cfg = HarnessConfig(**FAST)
        a = run_method_cv(d, method, plan, cfg)
        b = run_method_cv(d2, method, plan, cfg)
        assert a.per_fold_selected[0] == b.per_fold_selected[0]
        assert a.hyperparameters[0] == b.hyperparameters[0]


class TestDeterminism:
    def test_byte_identical_reports(self):
        d = signal_dataset()
        plan = stratified_kfold(d, 4, 42)
        cfg = HarnessConfig(**FAST)
        a = compare_methods(d, ("mcm", "relieff", "fcbf"), plan, cfg, "demo")
        b = compare_methods(d, ("mcm", "relieff", "fcbf"), plan, cfg, "demo")
        assert report_to_text(a) == report_to_text(b)

    def test_timings_excluded_by_default(self):
        d = signal_dataset()
        plan = stratified_kfold(d, 4, 42)
        report = compare_methods(d, ("mcm",), plan, HarnessConfig(**FAST))
        assert "wall-time" not in report_to_text(report)
        assert "wall-time" in report_to_text(report, include_timings=True)


class TestEmptySelectionFallback:
    def test_fallback_flags_folds_and_uses_all_features(self):
        d = signal_dataset()
        plan = stratified_kfold(d, 4, 2)
        cfg = HarnessConfig(fcbf_delta=1.1, **FAST)
        rec = run_method_cv(d, "fcbf", plan, cfg)
        assert rec.empty_selection_folds == (0, 1, 2, 3)
        assert all(sel == (0, 1, 2) for sel in rec.per_fold_selected)
        assert rec.selected_count == 3.0
        report = compare_methods(d, ("fcbf",), plan, cfg)
        assert "empty-selection-folds 0 1 2 3" in report_to_text(report)


class TestSelectionModes:
    def test_global_mode_selects_once(self):
        d = signal_dataset()
        plan = stratified_kfold(d, 4, 7)
        cfg = HarnessConfig(selection="global", **FAST)
        rec = run_method_cv(d, "mcm", plan, cfg)
        assert len(set(rec.per_fold_selected)) == 1
        assert rec.selected_count == float(len(rec.per_fold_selected[0]))
        report = compare_methods(d, ("mcm",), plan, cfg)
        assert report.selection_mode == "global"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            HarnessConfig(selection="sometimes")


class TestInnerFoldClamp:
    def test_tiny_training_split_uses_grid_midpoint(self):
        d = make_dataset([[3.0], [2.5], [-3.0], [-2.5]], [1, 1, -1, -1])
        plan = FoldPlan(4, 0, np.arange(4))
        cfg = HarnessConfig(svm_C_grid=(1.0, 4.0), svm_gamma_grid=(0.5,),
                            relieff_k=1, inner_folds=5)
        rec = run_method_cv(d, "mcm", plan, cfg)
        # each training split leaves one class with a single sample
        assert all(hp == (4.0, 0.5) for hp in rec.hyperparameters)
