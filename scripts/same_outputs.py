"""Byte-for-byte comparison of the outputs of two checkouts of this repository.

    python3 scripts/same_outputs.py ../parent . --seeds 3,11

Each checkout runs in a Python process of its own, with one BLAS thread as
in the benchmark, on its own `src/`, `pipebench/workloads.py` and
`tests/support.py`.  Every command goes through `mcmfs.cli.main`:

- `mcmfs --show-config`;
- `mcmfs benchmark --folds 5 --seed 42` on `support.make_benchmark_dataset()`,
  written with 17 significant digits so that the report is `report_to_text`
  of the default seed-42 comparison;
- at each seed, every operation of the `cv-100x200` and `pipeline-72x7129`
  workloads (`workloads.run_op`) on the input sets that
  `workloads.make_inputs` builds from `pipebench/inputs.py`: cv reports,
  feature lists, svm model documents and label files.

Prints each output that differs or exists on one side only and each
operation that exited non-zero.  Exits 0 when every output is identical and
every operation succeeded, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("cv-100x200", "pipeline-72x7129")
SIDES = ("parent", "change")


class _NoPace:
    def tick_after(self, seconds):
        pass


def produce(tree: str, out: str, seeds: list[int]) -> list[str]:
    """Write every output of `tree` under `out`; return the operations that failed."""
    for sub in ("tests", "pipebench", "src"):
        sys.path.insert(0, os.path.join(tree, sub))
    import mcmfs.cli
    import support
    import workloads

    if not os.path.abspath(mcmfs.cli.__file__).startswith(os.path.join(tree, "src") + os.sep):
        return [f"mcmfs was imported from {mcmfs.cli.__file__}"]
    main = mcmfs.cli.main
    failed = []
    with contextlib.redirect_stdout(io.StringIO()) as text:
        if main(["--show-config"]) != 0:
            failed.append("--show-config")
    with open(os.path.join(out, "show-config.txt"), "w", encoding="utf-8") as fh:
        fh.write(text.getvalue())

    d = support.make_benchmark_dataset()
    csv_path = os.path.join(out, "synthetic.csv")
    lines = [",".join(d.feature_names) + ",label"]
    lines += [",".join(format(v, ".17g") for v in row) + f",{int(label):+d}"
              for row, label in zip(d.samples.tolist(), d.labels)]
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if main(["benchmark", "--input", csv_path, "--folds", "5", "--seed", "42",
             "--report", os.path.join(out, "seed42-report.txt")]) != 0:
        failed.append("seed-42 benchmark")
    os.remove(csv_path)

    for name in WORKLOADS:
        w = workloads.WORKLOADS[name]
        for seed in seeds:
            work = os.path.join(out, f"{name}-seed{seed}")
            os.makedirs(work)
            for s in workloads.make_inputs(w, seed, work, _NoPace()):
                for method in s.methods:
                    if not workloads.run_op(w, s, method, main):
                        failed.append(f"{name} seed {seed} {s.name} {method}")
                for path in (s.train_csv, s.test_csv):
                    if path is not None:
                        os.remove(path)
    return failed


def relative_files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--produce"]:   # one checkout, in the process the driver starts
        _, tree, out, seeds = argv
        failed = produce(os.path.abspath(tree), out, [int(s) for s in seeds.split(",")])
        sys.stderr.writelines(f"failed: {op}\n" for op in failed)
        return 1 if failed else 0

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--seeds", default="3,11", help="comma-separated workload seeds")
    args = p.parse_args(argv)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    problems = []
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        outs = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            os.makedirs(outs[side])
            done = subprocess.run([sys.executable, os.path.abspath(__file__), "--produce",
                                   getattr(args, side), outs[side], args.seeds],
                                  env=env, capture_output=True, text=True)
            if done.returncode != 0:
                problems.append(f"{side} exited {done.returncode}:\n{done.stderr[-2000:]}")
        files = {side: relative_files(outs[side]) for side in SIDES}
        for side, other in (SIDES, SIDES[::-1]):
            problems += [f"only in {side}: {f}" for f in sorted(files[side] - files[other])]
        common = sorted(files["parent"] & files["change"])
        differ = [f for f in common if not filecmp.cmp(os.path.join(outs["parent"], f),
                                                       os.path.join(outs["change"], f),
                                                       shallow=False)]
        problems += [f"differs: {f}" for f in differ]
    for line in problems:
        print(line)
    print(f"{len(common) - len(differ)} of {len(common)} common outputs identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
