"""The workloads: their inputs, their operations and their output checks.

An operation runs the paper's pipeline for one method through the command
line entry point (`mcmfs.cli.main`), in this process, one call at a time.  A
round is one operation per (input set, method).  Each workload draws several
input sets from the run's seed, so the reported time (mean over the sets of
each set's mean repetition, at the reference pace) averages over inputs, not
just over repetitions of one input.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
import mcmfs.cli
import mcmfs.data

METHODS = ("mcm", "relieff", "fcbf")

# Nested cross validation of the cv workloads: 2 outer x 2 inner folds on a
# 3x3 subgrid of the default range that keeps the high-C, small-gamma corner.
CV_FOLDS = 2
CV_INNER_FOLDS = 2
C_GRID = (2.0 ** -5, 2.0 ** 5, 2.0 ** 15)
GAMMA_GRID = (2.0 ** -15, 2.0 ** -7, 2.0 ** 1)
MCM_C = 1.0                  # the command line's default slack weight
RELIEFF_K, RELIEFF_FRACTION = 10, 0.4
FCBF_BINS, FCBF_DELTA = 10, 0.0
PIPELINE_SVM_C = 1.0


# The MCM operations run on input sets that do not depend on --seed.  The
# program's LP solver fails on a small share of these inputs ("singular basis
# matrix", exit 1), about 1 in 2000 fold LPs at 100x200 and 1 in 50 LPs at
# 72x7129, so seeded MCM inputs would fail on some seeds and not others.  The
# fixed sets below are drawn with seed FIXED_SEED and all solve.
FIXED_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "cv" or "pipeline"
    m: int             # training rows
    n: int             # features
    sets: int          # seeded sets (ReliefF, FCBF) per run
    mcm_sets: int      # fixed sets (MCM) per run
    n_test: int = 0    # held-out rows (pipeline only)
    mcm_repeats: int = 1   # MCM operations per fixed set and round


WORKLOADS = {w.name: w for w in (
    Workload("cv-100x200", "cv", 100, 200, sets=40, mcm_sets=20),
    Workload("pipeline-72x7129", "pipeline", 72, 7129, sets=4, mcm_sets=2, n_test=36,
             mcm_repeats=2),
)}


@dataclass
class InputSet:
    name: str
    methods: tuple[str, ...]
    seed: int                      # fold seed handed to the program
    train_csv: str
    test_csv: str | None
    outputs: dict = field(default_factory=dict)   # (method, name) -> path
    repeats: int = 1               # operations per method and round


def _write_set(w: Workload, key, name, methods, fold_seed, workdir):
    X, y = inputs.planted(np.random.default_rng(key), w.m + w.n_test, w.n)
    base = os.path.join(workdir, name)
    train_csv, test_csv = base + "-train.csv", None
    if w.n_test:
        tr, te = inputs.held_out_split(y, w.n_test)
        test_csv = base + "-test.csv"
        with open(test_csv, "w", encoding="utf-8") as fh:
            fh.write(inputs.csv_text(X[te], y[te]))
        X, y = X[tr], y[tr]
    with open(train_csv, "w", encoding="utf-8") as fh:
        fh.write(inputs.csv_text(X, y))
    s = InputSet(name, methods, fold_seed, train_csv, test_csv)
    names = ("report",) if w.kind == "cv" else ("features", "model", "labels")
    for m in methods:
        for out in names:
            s.outputs[(m, out)] = f"{base}-{m}-{out}.txt"
    for path in (train_csv, test_csv):
        if path is not None:
            mcmfs.cli.load_dataset(path)
    return s


def make_inputs(w: Workload, seed: int, workdir: str, pace) -> list[InputSet]:
    """Generate and write the run's input sets, then let the program load each once.

    Seeded set i serves ReliefF and FCBF, fixed set j serves MCM; they are
    interleaved evenly, seeded set 0 and fixed set 0 first, so that every
    method's operations spread over the round.  The pace is probed after
    each set.
    """
    order = sorted([(i / w.sets, 0, i) for i in range(w.sets)]
                   + [(j / w.mcm_sets, 1, j) for j in range(w.mcm_sets)])
    sets = []
    for _, fixed, i in order:
        key = [FIXED_SEED if fixed else seed, w.m, w.n, i]
        name, methods = (f"mcm{i}", ("mcm",)) if fixed else (f"set{i}", ("relieff", "fcbf"))
        t0 = time.perf_counter()
        sets.append(_write_set(w, key, name, methods, key[0] * 1000 + i, workdir))
        if fixed:
            sets[-1].repeats = w.mcm_repeats
        pace.tick_after(time.perf_counter() - t0)
    return sets


def _grid(values) -> str:
    return ",".join(repr(v) for v in values)


def run_op(w: Workload, s: InputSet, method: str, call) -> bool:
    """One operation; `call` is the command line entry point.  True when every command exits 0."""
    out = s.outputs
    if w.kind == "cv":
        return call(["benchmark", "--input", s.train_csv, "--methods", method,
                     "--folds", str(CV_FOLDS), "--inner-folds", str(CV_INNER_FOLDS),
                     "--seed", str(s.seed), "--svm-c-grid", _grid(C_GRID),
                     "--svm-gamma-grid", _grid(GAMMA_GRID),
                     "--report", out[(method, "report")]]) == 0
    feats = out[(method, "features")]
    if call(["select", "--input", s.train_csv, "--method", method, "--out", feats]) != 0:
        return False
    with open(feats, encoding="utf-8") as fh:
        width = sum(1 for line in fh if line.strip() and not line.startswith("#"))
    if width == 0:
        return False
    if call(["train", "--input", s.train_csv, "--model-kind", "svm", "--features", feats,
             "--svm-C", repr(PIPELINE_SVM_C), "--svm-gamma", repr(1.0 / width),
             "--out", out[(method, "model")]]) != 0:
        return False
    return call(["predict", "--input", s.test_csv, "--model", out[(method, "model")],
                 "--out", out[(method, "labels")]]) == 0


class OutputLedger:
    """Keeps the first bytes of every output file and flags any later difference."""

    def __init__(self):
        self.first: dict[str, bytes] = {}
        self.problems: list[str] = []

    def record(self, s: InputSet, method: str) -> None:
        for (m, _), path in s.outputs.items():
            if m != method or not os.path.exists(path):
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            seen = self.first.setdefault(path, data)
            if seen != data and len(self.problems) < 10:
                self.problems.append(f"{os.path.basename(path)} differs between rounds")

    def text(self, path: str) -> str:
        return self.first[path].decode("utf-8")


# ------------------------------------------------------------------ checks

def _read_csv(path: str):
    with open(path, encoding="utf-8") as fh:
        table = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1], table[:, -1].astype(np.int64)


def _check_selection(checks, method, Xs, y, selected) -> list[str]:
    if method == "mcm":
        return checks.check_mcm_selection(Xs, y, MCM_C, selected)
    if method == "relieff":
        return checks.check_relieff_selection(Xs, y, selected, RELIEFF_K, RELIEFF_FRACTION)
    return checks.check_fcbf_selection(Xs, y, selected, FCBF_BINS, FCBF_DELTA)


def verify_outputs(w: Workload, sets: list[InputSet], ledger: OutputLedger):
    """Check every input set's outputs against computations made apart from the program.

    Returns the problems found and the number of SVM models whose bias lies
    outside the KKT-consistent interval (see `checks.check_svm`).
    """
    import checks

    problems = []
    bias_misses = 0
    for s in sets:
        X, y = _read_csv(s.train_csv)
        tag = f"{w.name} {s.name}"
        if w.kind == "cv":
            # The fold plan is the program's own, asked for through its public API;
            # the per-fold selection checks below fail if the command used another.
            plan = mcmfs.data.stratified_kfold(mcmfs.cli.load_dataset(s.train_csv),
                                               CV_FOLDS, s.seed).assignments
            problems += [f"{tag}: {p}" for p in checks.check_folds(y, CV_FOLDS, plan)]
            sizes = [int((plan == f).sum()) for f in range(CV_FOLDS)]
            for m in s.methods:
                report = checks.parse_report(ledger.text(s.outputs[(m, "report")]))
                if report.get("fold_test_sizes") != sizes:
                    problems.append(f"{tag} {m}: report fold sizes {report.get('fold_test_sizes')}"
                                    f" differ from the plan's {sizes}")
                for f in range(CV_FOLDS):
                    fold = report["folds"].get(f, {})
                    if fold.get("C") not in C_GRID or fold.get("gamma") not in GAMMA_GRID:
                        problems.append(f"{tag} {m} fold {f}: (C, gamma) off the grid")
                    if not 0.0 <= fold.get("accuracy", -1.0) <= 1.0:
                        problems.append(f"{tag} {m} fold {f}: accuracy out of [0, 1]")
                    Xs, _, _ = checks.standardize(X[plan != f])
                    problems += [f"{tag} {m} fold {f}: {p}" for p in _check_selection(
                        checks, m, Xs, y[plan != f], fold.get("selected", ()))]
            continue
        Xt, yt = _read_csv(s.test_csv)
        Xs, means, sds = checks.standardize(X)
        for m in s.methods:
            selected = checks.parse_feature_file(ledger.text(s.outputs[(m, "features")]))
            problems += [f"{tag} {m}: {p}" for p in _check_selection(checks, m, Xs, y, selected)]
            doc = checks.parse_svm_doc(ledger.text(s.outputs[(m, "model")]))
            if doc["subset"] != selected or doc["n"] != w.n:
                problems.append(f"{tag} {m}: model subset differs from the selection")
            if doc["C"] != PIPELINE_SVM_C or doc["gamma"] != 1.0 / len(selected):
                problems.append(f"{tag} {m}: model (C, gamma) differ from the command's")
            if not (np.allclose(doc["means"], means, rtol=1e-12, atol=1e-12)
                    and np.allclose(doc["sds"], sds, rtol=1e-12, atol=0.0)):
                problems.append(f"{tag} {m}: model standardizer differs from the training data's")
            cols = list(doc["subset"])
            Xd = ((X - doc["means"]) / doc["sds"])[:, cols]
            found, gap = checks.check_svm(Xd, y, doc["C"], doc["gamma"], doc["support"],
                                          doc["coeffs"], doc["bias"], match_tol=1e-9)
            problems += [f"{tag} {m} svm: {p}" for p in found]
            bias_misses += gap > 0.0
            labels = checks.parse_labels(ledger.text(s.outputs[(m, "labels")]))
            Xq = ((Xt - doc["means"]) / doc["sds"])[:, cols]
            if labels.shape != yt.shape:
                problems.append(f"{tag} {m}: {labels.size} labels for {yt.size} rows")
            else:
                problems += [f"{tag} {m} predict: {p}" for p in checks.check_predictions(
                    doc["support"], doc["coeffs"], doc["bias"], doc["gamma"], Xq, labels)]
    return problems, bias_misses


def verify_captured(captured):
    """Check what the traced functions saw and returned: folds, LPs, SVM fits, predictions.

    Returns the problems and the number of fits whose bias misses the KKT interval.
    """
    import checks

    problems = []
    bias_misses = 0
    for labels, k, assignments in captured["folds"]:
        problems += [f"fold plan: {p}" for p in checks.check_folds(labels, k, assignments)]
    for c, A, rel, b, free, objective in captured["lps"]:
        problems += [f"LP: {p}" for p in checks.check_lp_objective(c, A, rel, b, free, objective)]
    for X, y, model in captured["fits"]:
        found, gap = checks.check_svm(X, y, model.C, model.kernel_gamma, model.support_samples,
                                      model.coeffs, model.bias)
        problems += [f"svm fit: {p}" for p in found]
        bias_misses += gap > 0.0
    for model, Xr, labels in captured["predictions"]:
        problems += [f"svm predict: {p}" for p in checks.check_predictions(
            model.support_samples, model.coeffs, model.bias, model.kernel_gamma, Xr, labels)]
    return problems, bias_misses
