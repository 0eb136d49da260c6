"""Cross-validated comparison of feature-selection methods scored by an RBF SVM.

Every fold standardizes on its training split, selects features there, tunes
(C, gamma) by a nested grid search, and scores the held-out split, so no
test-split statistic ever reaches training.  A "global" selection mode
instead selects once on the full dataset and only cross-validates the SVM.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from . import filters, mcm, svm
from .data import Dataset, FoldPlan, apply_standardizer, fit_standardizer

METHODS = ("mcm", "relieff", "fcbf")
SELECTIONS = ("per_fold", "global")
MCM_C_GRID = (1e-2, 1e-1, 1.0, 1e1, 1e2)  # scanned by mcm_tune_C
_DISPLAY = {"mcm": "MCM", "relieff": "ReliefF", "fcbf": "FCBF"}


@dataclass(frozen=True)
class HarnessConfig:
    """Defaults for the whole pipeline; every field is also a `benchmark` flag."""

    selection: str = "per_fold"  # or "global": select once on the full dataset
    seed: int = 42
    mcm_C: float = 1.0
    mcm_variant: str = mcm.VARIANT_PAPER
    mcm_tune_C: bool = False
    mcm_rel_tol: float = mcm.REL_TOL
    relieff_k: int = 10
    fraction: float = 0.4
    fcbf_bins: int = 10
    fcbf_delta: float = 0.0
    svm_C_grid: tuple[float, ...] = svm.DEFAULT_C_GRID
    svm_gamma_grid: tuple[float, ...] = svm.DEFAULT_GAMMA_GRID
    inner_folds: int = 5

    def __post_init__(self):
        if self.selection not in SELECTIONS:
            raise ValueError(f"unknown selection mode {self.selection!r}")
        if self.inner_folds < 2:
            raise ValueError("inner_folds must be at least 2")


@dataclass(frozen=True)
class MethodRecord:
    """One method's cross-validation outcome under a shared fold plan."""

    method: str
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    std_accuracy: float
    per_fold_selected: tuple[tuple[int, ...], ...]
    selected_count: float
    union_count: int
    hyperparameters: tuple[tuple[float, float], ...]
    empty_selection_folds: tuple[int, ...]
    wall_time: float


@dataclass(frozen=True)
class CvReport:
    dataset_name: str
    n_samples: int
    n_features: int
    k: int
    seed: int
    selection_mode: str
    fold_test_counts: tuple[int, ...]
    records: tuple[MethodRecord, ...]


def _tune_mcm_C(train: Dataset, cfg: HarnessConfig) -> float:
    """Inner 3-fold accuracy of the hyperplane itself picks C from the grid."""
    k = min(3, min(train.class_counts().values()))
    if k < 2:
        return cfg.mcm_C

    def predict(C, s, tr, te):
        try:
            model = mcm.train_mcm(tr, C=C, variant=cfg.mcm_variant, rel_tol=cfg.mcm_rel_tol)
        except mcm.McmTrainingError:
            return None
        return mcm.mcm_classify(model, te.samples)

    return svm.first_best(train, k, cfg.seed, MCM_C_GRID, predict)[0]


def _select_features(train: Dataset, method: str, cfg: HarnessConfig) -> tuple[int, ...]:
    if method == "mcm":
        C = _tune_mcm_C(train, cfg) if cfg.mcm_tune_C else cfg.mcm_C
        model = mcm.train_mcm(train, C=C, variant=cfg.mcm_variant, rel_tol=cfg.mcm_rel_tol)
        return model.selected
    if method == "relieff":
        weights = filters.relieff_rank(train, k_neighbors=cfg.relieff_k, seed=cfg.seed)
        return filters.cumulative_fraction_select(weights, cfg.fraction)
    if method == "fcbf":
        dd = filters.discretize_equal_frequency(train, bins=cfg.fcbf_bins)
        return filters.fcbf_select(dd, delta=cfg.fcbf_delta)
    raise ValueError(f"unknown method {method!r}")


def _pick_grid_point(train: Dataset, subset, cfg: HarnessConfig):
    """Nested grid search, clamping the inner fold count to what the split allows."""
    k = min(cfg.inner_folds, min(train.class_counts().values()))
    if k < 2:
        Cs = sorted(cfg.svm_C_grid)
        gammas = sorted(cfg.svm_gamma_grid)
        return Cs[len(Cs) // 2], gammas[len(gammas) // 2]
    C, gamma, _ = svm.grid_search(
        train, subset, cfg.svm_C_grid, cfg.svm_gamma_grid, folds=k, seed=cfg.seed)
    return C, gamma


def run_method_cv(d: Dataset, method: str, plan: FoldPlan, cfg: HarnessConfig) -> MethodRecord:
    """Evaluate one selection method across the plan's folds."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    started = time.perf_counter()

    global_selected = None
    global_empty = False
    if cfg.selection == "global":
        std_full = fit_standardizer(d)
        selected = _select_features(apply_standardizer(std_full, d), method, cfg)
        global_selected, global_empty = selected, not selected

    accuracies = []
    per_fold_selected = []
    hyperparameters = []
    empty_folds = []
    for f in range(plan.k):
        train = d.take(plan.train_indices(f))
        test = d.take(plan.test_indices(f))
        std = fit_standardizer(train)
        train_s = apply_standardizer(std, train)
        test_s = apply_standardizer(std, test)
        if global_selected is not None:
            selected, empty = global_selected, global_empty
        else:
            selected = _select_features(train_s, method, cfg)
            empty = not selected
        if empty:
            # fall back to the full feature set but keep the fold flagged
            empty_folds.append(f)
            selected = tuple(range(d.n_features))
        C, gamma = _pick_grid_point(train_s, selected, cfg)
        model = svm.train_svm(train_s, selected, C, gamma)
        pred = svm.svm_predict_batch(model, test_s.samples)
        accuracies.append(float((pred == test_s.labels).mean()))
        per_fold_selected.append(tuple(selected))
        hyperparameters.append((float(C), float(gamma)))

    if global_selected is not None and not global_empty:
        count = float(len(global_selected))
    else:
        count = float(np.mean([len(s) for s in per_fold_selected]))
    union = len(set().union(*per_fold_selected)) if per_fold_selected else 0
    return MethodRecord(
        method=method,
        fold_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        std_accuracy=float(np.std(accuracies)),
        per_fold_selected=tuple(per_fold_selected),
        selected_count=count,
        union_count=union,
        hyperparameters=tuple(hyperparameters),
        empty_selection_folds=tuple(empty_folds),
        wall_time=time.perf_counter() - started,
    )


def compare_methods(d: Dataset, methods, plan: FoldPlan, cfg: HarnessConfig,
                    dataset_name: str = "dataset") -> CvReport:
    """Run each method under the same fold plan so folds stay paired."""
    methods = tuple(methods)
    if not methods:
        raise ValueError("methods must not be empty")
    records = tuple(run_method_cv(d, m, plan, cfg) for m in methods)
    counts = tuple(int(plan.test_indices(f).size) for f in range(plan.k))
    return CvReport(
        dataset_name=dataset_name,
        n_samples=d.n_samples,
        n_features=d.n_features,
        k=plan.k,
        seed=plan.seed,
        selection_mode=cfg.selection,
        fold_test_counts=counts,
        records=records,
    )


def _round1(value: float) -> str:
    return str(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def _accuracy_cell(record: MethodRecord) -> str:
    if not record.fold_accuracies:
        return ""
    return f"{_round1(record.mean_accuracy * 100)} ± {_round1(record.std_accuracy * 100)}%"


def _count_cell(record: MethodRecord, mode: str) -> str:
    if not record.per_fold_selected:
        return ""
    if mode == "global" or float(record.selected_count).is_integer():
        return str(int(record.selected_count))
    return _round1(record.selected_count)


def format_table(reports) -> str:
    """Plain-text comparison table, one row per dataset.

    Accuracy cells show mean ± population-sd percentages rounded half-up to one
    decimal; feature cells show the (mean) selected count.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one report")
    methods = [r.method for r in reports[0].records]
    names = [_DISPLAY.get(m, m) for m in methods]
    header = (["Dataset (samples × dimension)"]
              + [f"{n} features" for n in names]
              + [f"{n} accuracy" for n in names])
    lines = [" | ".join(header)]
    for report in reports:
        by_method = {rec.method: rec for rec in report.records}
        cells = [f"{report.dataset_name} ({report.n_samples} × {report.n_features})"]
        cells += [_count_cell(by_method[m], report.selection_mode) if m in by_method else ""
                  for m in methods]
        cells += [_accuracy_cell(by_method[m]) if m in by_method else "" for m in methods]
        lines.append(" | ".join(cells))
    return "\n".join(lines) + "\n"


def report_to_text(report: CvReport, include_timings: bool = False) -> str:
    """Machine-readable key-value report; feature indices are written 1-based.

    Timings are wall-clock and therefore vary run to run, so they are left out
    unless explicitly requested: the default document is byte-stable for a
    fixed (dataset, seed, config).
    """
    out = [
        "cv-report v1",
        f"dataset {report.dataset_name}",
        f"samples {report.n_samples}",
        f"features {report.n_features}",
        f"folds {report.k}",
        f"seed {report.seed}",
        f"selection {report.selection_mode}",
        "std population",
        "indices 1-based",
        "fold-test-sizes " + " ".join(str(c) for c in report.fold_test_counts),
    ]
    for rec in report.records:
        out.append(f"method {rec.method}")
        out.append(f"  selected-count {rec.selected_count:.17g}")
        out.append(f"  union-count {rec.union_count}")
        out.append(f"  mean-accuracy {rec.mean_accuracy:.17g}")
        out.append(f"  std-accuracy {rec.std_accuracy:.17g}")
        out.append("  empty-selection-folds "
                   + (" ".join(str(f) for f in rec.empty_selection_folds)
                      if rec.empty_selection_folds else "-"))
        for f, acc in enumerate(rec.fold_accuracies):
            C, gamma = rec.hyperparameters[f]
            sel = " ".join(str(j + 1) for j in rec.per_fold_selected[f])
            out.append(f"  fold {f} accuracy {acc:.17g} svm-C {C:.17g} svm-gamma {gamma:.17g}")
            out.append(f"  fold {f} selected {sel}")
        if include_timings:
            out.append(f"  wall-time {rec.wall_time:.6f}")
    out.append("end")
    return "\n".join(out) + "\n"
