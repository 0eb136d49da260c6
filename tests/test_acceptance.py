"""Acceptance gates: each test checks one headline guarantee end to end and
prints a single PASS/FAIL line (visible under pytest -s or on failure)."""

import os
import time
from collections import Counter

import numpy as np
import pytest

from mcmfs.cli import main as cli_main
from mcmfs.data import load_dataset, stratified_kfold
from mcmfs.filters import (
    DiscreteDataset,
    fcbf_select,
    relieff_rank,
)
from mcmfs.harness import HarnessConfig, compare_methods
from mcmfs.linprog import solve_lp
from mcmfs.mcm import train_mcm, vc_bound_term
from mcmfs.svm import svm_predict_batch, train_svm
from oracles import enumerate_orthant_lp, kernel_dual_optimum, margin_machine_optimum
from support import (
    dual_objective,
    gram,
    make_benchmark_dataset,
    make_dataset,
    random_lp,
    random_two_class,
    su,
    write_csv,
    xor_dataset,
)

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "data")


def gate(label, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}: {label} ({detail})"
    print(line)
    assert ok, line


def test_lp_oracle_suite():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    mismatches = 0
    worst_gap = 0.0
    statuses = Counter()
    for _ in range(110):
        lp = random_lp(rng, max_vars=6, max_rows=6)
        status, best = enumerate_orthant_lp(lp.c, lp.A, lp.rel, lp.b)
        sol = solve_lp(lp)
        statuses[status] += 1
        if sol.status.value != status:
            mismatches += 1
        elif status == "Optimal":
            worst_gap = max(worst_gap, abs(sol.objective_value - best))
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and worst_gap <= 1e-7 and elapsed < 10.0
    gate("lp-oracle-suite", ok,
         f"110 LPs [{dict(sorted(statuses.items()))}], {mismatches} status "
         f"mismatches, worst objective gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_mcm_oracle_suite():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    worst_gap = 0.0
    worst_infeas = 0.0
    min_capacity = float("inf")
    for i in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n + 1, 6))
        d = random_two_class(rng, m=m, n=n)
        C = float(rng.choice([0.1, 1.0, 10.0]))
        model = train_mcm(d, C=C)
        best = margin_machine_optimum(d.samples, d.labels, C)
        worst_gap = max(worst_gap, abs(model.objective_value - best))
        yf = d.labels * (d.samples @ model.weights + model.bias)
        worst_infeas = max(
            worst_infeas,
            float(np.max(yf + model.slacks - model.capacity, initial=0.0)),
            float(np.max(1.0 - yf - model.slacks, initial=0.0)),
            float(np.max(-model.slacks, initial=0.0)),
        )
        min_capacity = min(min_capacity, model.capacity)
    elapsed = time.perf_counter() - started
    ok = (worst_gap <= 1e-6 and worst_infeas <= 1e-7
          and min_capacity >= 1.0 - 1e-6 and elapsed < 10.0)
    gate("mcm-oracle-suite", ok,
         f"50 datasets, worst objective gap {worst_gap:.2e}, worst constraint "
         f"violation {worst_infeas:.2e}, min capacity {min_capacity:.9f}, {elapsed:.1f}s")


def test_filter_hand_checks():
    quad = make_dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                        [1, 1, -1, -1])
    weights = relieff_rank(quad, k_neighbors=1).tolist()
    relieff_ok = weights == [-1.0, 1.0]

    x = np.array([0, 0, 0, 1, 1, 1])
    y = np.array([0, 0, 1, 0, 1, 1])
    su_xy = su(x, y)
    su_ok = abs(su_xy - 0.0817) <= 0.0005

    labels = np.array([1, 1, -1, -1] * 5)
    predictor = (labels > 0).astype(int)
    dd = DiscreteDataset(np.column_stack([predictor, predictor]),
                         np.array([2, 2]), labels)
    survivors = fcbf_select(dd, delta=0.0)
    fcbf_ok = len(survivors) == 1

    ok = relieff_ok and su_ok and fcbf_ok
    gate("filter-hand-checks", ok,
         f"relieff weights {weights}, su {su_xy:.7f}, fcbf survivors {survivors}")


def test_smo_kkt_and_dual_oracle():
    xor = xor_dataset()
    model = train_svm(xor, (0, 1), C=10.0, kernel_gamma=1.0)
    acc = float((svm_predict_batch(model, xor.samples) == xor.labels).mean())
    supports = model.support_samples.shape[0]

    rng = np.random.default_rng(303)
    worst_gap = 0.0
    for _ in range(12):
        m = int(rng.integers(2, 7))
        d = random_two_class(rng, m=m, n=2)
        C = float(rng.choice([0.5, 1.0, 10.0]))
        gamma = float(rng.choice([0.3, 1.0]))
        trained = train_svm(d, (0, 1), C=C, kernel_gamma=gamma, kkt_tol=1e-6)
        best = kernel_dual_optimum(gram(d, (0, 1), gamma),
                                   d.labels.astype(np.float64), C)
        worst_gap = max(worst_gap, abs(dual_objective(trained, d) - best))

    ok = acc == 1.0 and supports == 4 and worst_gap <= 1e-3
    gate("smo-kkt-and-dual-oracle", ok,
         f"xor accuracy {acc:.0%} with {supports} supports, worst dual gap "
         f"{worst_gap:.2e} over 12 instances")


def test_vc_bound_diagnostic():
    value = vc_bound_term(1.0, 100, 0.05)
    ok = abs(value - 0.327) <= 0.001
    gate("vc-bound-diagnostic", ok, f"vc_bound_term(1, 100, 0.05) = {value:.6f}")


def test_sparsity_property():
    d = make_benchmark_dataset()
    plan = stratified_kfold(d, 5, 42)
    started = time.perf_counter()
    report = compare_methods(d, ("mcm", "relieff", "fcbf"), plan,
                             HarnessConfig(), "synthetic")
    elapsed = time.perf_counter() - started
    by = {rec.method: rec for rec in report.records}
    mcm_counts = [len(s) for s in by["mcm"].per_fold_selected]
    relieff_counts = [len(s) for s in by["relieff"].per_fold_selected]
    fcbf_counts = [len(s) for s in by["fcbf"].per_fold_selected]
    acc = by["mcm"].mean_accuracy
    ok = (max(mcm_counts) <= 20
          and acc >= 0.95
          and all(a <= b for a, b in zip(mcm_counts, relieff_counts))
          and all(a <= b for a, b in zip(mcm_counts, fcbf_counts))
          and elapsed < 120.0)
    gate("sparsity-property", ok,
         f"per-fold counts mcm {mcm_counts} vs relieff {relieff_counts} vs "
         f"fcbf {fcbf_counts}, mcm accuracy {acc:.3f}, {elapsed:.1f}s")


def test_benchmark_determinism(tmp_path):
    csv = write_csv(tmp_path / "synthetic.csv", make_benchmark_dataset())
    args = ["benchmark", "--input", csv, "--seed", "42", "--folds", "5",
            "--svm-c-grid", "1,8", "--svm-gamma-grid", "0.0078125,0.125"]
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    code_a = cli_main(args + ["--report", str(first)])
    code_b = cli_main(args + ["--report", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    gate("benchmark-determinism", ok,
         f"exit codes ({code_a}, {code_b}), reports byte-identical: {identical}")


@pytest.mark.parametrize("name,reference_accuracy", [("golub", 0.958), ("alon", 0.838)])
def test_conditional_reproduction(name, reference_accuracy):
    path = os.path.join(DATA_DIR, f"{name}.csv")
    if not os.path.exists(path):
        print(f"SKIP: conditional-{name} (no dataset at {path})")
        pytest.skip(f"{name} dataset not supplied")
    d = load_dataset(path)
    plan = stratified_kfold(d, 5, 42)
    started = time.perf_counter()
    report = compare_methods(d, ("mcm", "fcbf"), plan,
                             HarnessConfig(selection="global"), name)
    elapsed = time.perf_counter() - started
    by = {rec.method: rec for rec in report.records}
    mcm_count = by["mcm"].selected_count
    fcbf_count = by["fcbf"].selected_count
    acc = by["mcm"].mean_accuracy
    ok = (elapsed < 1800.0
          and mcm_count < 0.1 * fcbf_count
          and abs(acc - reference_accuracy) <= 0.10)
    gate(f"conditional-{name}", ok,
         f"{d.n_samples}x{d.n_features}, mcm {mcm_count:g} vs fcbf "
         f"{fcbf_count:g} features, mcm accuracy {acc:.3f} vs "
         f"{reference_accuracy:.3f} reference, {elapsed:.0f}s")
