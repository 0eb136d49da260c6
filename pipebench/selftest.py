"""Self-test of the benchmark's checks: each must pass the program's real
output and reject a deliberately corrupted copy of it.

    python3 pipebench/selftest.py

Run from the repository root.  Prints one PASS/FAIL line per case and exits
0 only when every check accepts the genuine output and rejects the corrupt
one.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import mcmfs.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".pipebench-work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".pipebench-work"))
    try:
        X, y = inputs.planted(np.random.default_rng(11), 90, 120)
        tr, te = inputs.held_out_split(y, 30)
        train, test = os.path.join(work, "train.csv"), os.path.join(work, "test.csv")
        with open(train, "w", encoding="utf-8") as fh:
            fh.write(inputs.csv_text(X[tr], y[tr]))
        with open(test, "w", encoding="utf-8") as fh:
            fh.write(inputs.csv_text(X[te], y[te]))
        s = workloads.InputSet("selftest", workloads.METHODS, 5, train, test, outputs={
            (m, k): os.path.join(work, f"{m}-{k}.txt")
            for m in workloads.METHODS for k in ("features", "model", "labels")})
        w = workloads.Workload("selftest", "pipeline", 60, 120, sets=1, mcm_sets=1, n_test=30)
        with tracing.Tracer(capture=True) as tracer:
            ok = all(workloads.run_op(w, s, m, mcmfs.cli.main) for m in workloads.METHODS)
            mcmfs.cli.stratified_kfold(mcmfs.cli.load_dataset(train), 3, 5)
        if not ok:
            print("FAIL: the program did not run the self-test pipeline")
            return 1
        Xtr, ytr = X[tr], y[tr]
        Xs, _, _ = checks.standardize(Xtr)
        sel = {m: checks.parse_feature_file(_read(s.outputs[(m, "features")]))
               for m in workloads.METHODS}
        doc = checks.parse_svm_doc(_read(s.outputs[("mcm", "model")]))
        labels = checks.parse_labels(_read(s.outputs[("mcm", "labels")]))
        Xq = ((X[te] - doc["means"]) / doc["sds"])[:, list(doc["subset"])]
        Xd = ((Xtr - doc["means"]) / doc["sds"])[:, list(doc["subset"])]
        lp = tracer.captured["lps"][0]
        labels_fold, k, assignments = tracer.captured["folds"][0]

        def svm_problems(coeffs, bias=doc["bias"]):
            return checks.check_svm(Xd, ytr, doc["C"], doc["gamma"], doc["support"], coeffs,
                                    bias, match_tol=1e-9)[0]

        too_big = doc["coeffs"].copy()
        too_big[0] = np.sign(too_big[0]) * doc["C"] * 1.5
        moved = np.array(assignments)
        moved[np.flatnonzero(moved == 0)[:2]] = 1
        flipped = labels.copy()
        flipped[0] = -flipped[0]
        ledger = workloads.OutputLedger()
        ledger.record(s, "mcm")
        with open(s.outputs[("mcm", "labels")], "a", encoding="utf-8") as fh:
            fh.write("\n")

        cases = [
            ("MCM selection, one feature dropped",
             lambda v: checks.check_mcm_selection(Xs, ytr, workloads.MCM_C, v),
             sel["mcm"], sel["mcm"][1:]),
            ("ReliefF selection, one feature dropped",
             lambda v: checks.check_relieff_selection(Xs, ytr, v),
             sel["relieff"], sel["relieff"][1:]),
            ("FCBF selection, one feature dropped",
             lambda v: checks.check_fcbf_selection(Xs, ytr, v),
             sel["fcbf"], sel["fcbf"][1:]),
            ("predicted labels, one label flipped",
             lambda v: checks.check_predictions(doc["support"], doc["coeffs"], doc["bias"],
                                                doc["gamma"], Xq, v),
             labels, flipped),
            ("LP objective, moved off the optimum",
             lambda v: checks.check_lp_objective(*lp[:5], v), lp[5], lp[5] * (1 + 1e-4) + 1e-4),
            ("trained SVM, one alpha above C", svm_problems, doc["coeffs"], too_big),
            ("trained SVM, bias shifted by 0.05",
             lambda v: svm_problems(doc["coeffs"], v), doc["bias"], doc["bias"] + 0.05),
            ("fold plan, two rows moved to another fold",
             lambda v: checks.check_folds(labels_fold, k, v), assignments, moved),
            ("outputs across rounds, one file changed",
             lambda v: (ledger.record(s, "mcm"), ledger.problems)[1] if v else [], False, True),
        ]
        failures = 0
        for label, check, genuine, corrupt in cases:
            accepted = not check(genuine)
            rejected = bool(check(corrupt))
            failures += not (accepted and rejected)
            print(f"{'PASS' if accepted and rejected else 'FAIL'}: {label} "
                  f"(genuine {'accepted' if accepted else 'REJECTED'}, "
                  f"corrupt {'rejected' if rejected else 'ACCEPTED'})")
        print(f"{len(cases) - failures} of {len(cases)} checks behave")
        return 1 if failures else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
