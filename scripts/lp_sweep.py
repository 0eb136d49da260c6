"""Train the MCM of two checkouts on the same planted sets and compare the outcomes.

    python3 scripts/lp_sweep.py ../parent . --wide-seeds 1-15 --fold-seeds 1-60

Each checkout runs in a Python process of its own, with one BLAS thread as
in the benchmark, on its own `src/` and `pipebench/inputs.py`.  Two kinds of
LP are solved, each through `mcmfs.mcm.train_mcm` with C = 1 and the MCM
variant of --variant (the paper's by default):

- wide: for each seed s and set i < 4, the planted set `[s, 72, 7129, i]`
  of the `pipeline-72x7129` workload (as many rows again held out), written
  as CSV and read back, then standardized: the LP of
  `mcmfs select --method mcm`;
- folds: for each seed s, the planted set `[s, 100, 200, 0]`, split into 5
  stratified folds with seed s; each fold's training split, standardized on
  itself.

--wide-shape and --fold-shape change the rows x features of each kind.

Prints each side's failed LPs (an `ArithmeticError` or `McmTrainingError`)
and its LPs whose reported optimum violates a row or bound by more than
FEAS_TOL; then each LP where both sides solve but select different features,
each objective that differs by more than REL_TOL relative, and the counts
(with the number of LPs whose pivot counts differ).  Exits 0 when the two
sides fail on the same LPs and agree on all others, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
FEAS_TOL = 1e-6   # a larger row violation marks an "optimum" as infeasible
REL_TOL = 1e-12   # a larger relative objective difference is a mismatch
SETS = 4          # wide sets per seed, as pipebench draws them
FOLDS = 5


def parse_range(text: str) -> list[int]:
    """'1-15' -> [1, ..., 15]; '' -> []."""
    if not text:
        return []
    lo, hi = (int(v) for v in text.split("-"))
    return list(range(lo, hi + 1))


def lp_cases(args):
    """(name, seed key, shape, held-out rows, folds) per planted set, in a fixed order."""
    wm, wn = args.wide_shape
    fm, fn = args.fold_shape
    cases = [(f"wide {s} {i}", [s, wm, wn, i], (wm, wn), wm // 2, 0)
             for s in parse_range(args.wide_seeds) for i in range(SETS)]
    cases += [(f"folds {s}", [s, fm, fn, 0], (fm, fn), 0, FOLDS)
              for s in parse_range(args.fold_seeds)]
    return cases


def produce(tree: str, args) -> None:
    """Train every LP of `tree`; write one JSON line per LP to standard output."""
    for sub in ("pipebench", "src"):
        sys.path.insert(0, os.path.join(tree, sub))
    import numpy as np

    import inputs
    from mcmfs import data, mcm

    def train(name, d):
        ds = data.apply_standardizer(data.fit_standardizer(d), d)
        try:
            model = mcm.train_mcm(ds, variant=args.variant)
        except (ArithmeticError, mcm.McmTrainingError) as exc:
            out = {"lp": name, "error": f"{type(exc).__name__}: {exc}"}
        else:
            # The largest violation of an LP row or bound by the returned point;
            # the classic variant's capacity rows leave the slack out.
            margin = ds.labels * (ds.samples @ model.weights + model.bias)
            u = margin + model.slacks
            capped = u if args.variant == mcm.VARIANT_PAPER else margin
            violation = float(np.max(np.concatenate(
                [1.0 - u, capped - model.capacity, -model.slacks, [-model.capacity]])))
            out = {"lp": name, "selected": list(model.selected),
                   "objective": model.objective_value, "pivots": model.lp_iterations,
                   "violation": violation}
        print(json.dumps(out), flush=True)

    with tempfile.TemporaryDirectory(prefix="lp-sweep-") as tmp:
        path = os.path.join(tmp, "set.csv")
        for name, key, (m, n), held_out, folds in lp_cases(args):
            X, y = inputs.planted(np.random.default_rng(key), m + held_out, n)
            if held_out:
                tr, _ = inputs.held_out_split(y, held_out)
                X, y = X[tr], y[tr]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inputs.csv_text(X, y))
            d = data.load_dataset(path)
            if not folds:
                train(name, d)
                continue
            plan = data.stratified_kfold(d, folds, key[0])
            for f in range(folds):
                train(f"{name} fold {f}", d.take(np.flatnonzero(plan.assignments != f)))


def compare(results: dict) -> tuple[list[str], list[str], dict]:
    """Each side's failures, the mismatches between the sides, and the counts."""
    failures, mismatches = [], []
    counts = {"lps": 0, "both_solved": 0, "pivots_differ": 0, "max_rel_diff": 0.0}
    for side in SIDES:
        failed = [k for k, r in results[side].items() if "error" in r]
        counts[f"{side}_failed"] = len(failed)
        failures += [f"{side} failed: {k}: {results[side][k]['error']}" for k in failed]
        infeasible = [k for k, r in results[side].items() if r.get("violation", 0.0) > FEAS_TOL]
        counts[f"{side}_infeasible"] = len(infeasible)
        failures += [f"{side} returned an infeasible optimum: {k}: a row is violated by "
                     f"{results[side][k]['violation']:.3g}" for k in infeasible]
    for name in dict.fromkeys([*results["parent"], *results["change"]]):
        counts["lps"] += 1
        p, c = (results[s].get(name) for s in SIDES)
        if p is None or c is None:
            mismatches.append(f"missing on one side: {name}")
        elif ("error" in p) != ("error" in c):
            mismatches.append(f"fails on one side only: {name}")
        elif "error" not in p:
            counts["both_solved"] += 1
            counts["pivots_differ"] += p["pivots"] != c["pivots"]
            if p["selected"] != c["selected"]:
                mismatches.append(f"selection differs: {name}: {p['selected']} -> "
                                  f"{c['selected']}")
            diff = abs(p["objective"] - c["objective"]) / max(
                abs(p["objective"]), abs(c["objective"]), 1e-300)
            counts["max_rel_diff"] = max(counts["max_rel_diff"], diff)
            if diff > REL_TOL:
                mismatches.append(f"objective differs: {name}: {p['objective']!r} -> "
                                  f"{c['objective']!r}")
    return failures, mismatches, counts


def shape(text: str) -> tuple[int, int]:
    m, n = (int(v) for v in text.split("x"))
    return m, n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--wide-seeds", default="1-15", help="first-last seed of the wide sets")
    p.add_argument("--wide-shape", type=shape, default=(72, 7129), help="training rows x features")
    p.add_argument("--fold-seeds", default="1-60", help="first-last seed of the fold sets")
    p.add_argument("--fold-shape", type=shape, default=(100, 200), help="rows x features")
    p.add_argument("--variant", choices=("paper", "classic"), default="paper",
                   help="MCM variant of every LP")
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    produce_tree = None
    if argv[:1] == ["--produce"]:   # one checkout, in the process the driver starts
        produce_tree, argv = argv[1], argv[2:]
    args = build_parser().parse_args(argv)
    if produce_tree is not None:
        produce(os.path.abspath(produce_tree), args)
        return 0

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = {}
    for side in SIDES:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--produce",
                               getattr(args, side)] + argv, env=env, capture_output=True,
                              text=True)
        if done.returncode != 0:
            print(f"{side} exited {done.returncode}:\n{done.stderr[-2000:]}")
            return 1
        rows = [json.loads(line) for line in done.stdout.splitlines()]
        results[side] = {r["lp"]: r for r in rows}
    failures, mismatches, counts = compare(results)
    for line in failures + mismatches:
        print(line)
    print(f"{counts['lps']} LPs: parent failed {counts['parent_failed']} (infeasible "
          f"{counts['parent_infeasible']}), change failed {counts['change_failed']} (infeasible "
          f"{counts['change_infeasible']}), both solved {counts['both_solved']} (pivot counts "
          f"differ on {counts['pivots_differ']}), largest relative objective difference "
          f"{counts['max_rel_diff']:.3g}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
