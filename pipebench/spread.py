"""Run each workload with several seeds and print each metric's quartiles against its bound.

    python3 pipebench/spread.py --runs 10 [--seed0 1] [--workloads cv-62x2000,...]
                                [--seconds N] [--trace 0|1]

Run from the repository root.  Each run is a separate process of
`pipebench/run.py` with seed seed0, seed0+1, ...; the spread of a metric is
(q3 - q1) / median over the runs, with quartiles from
`statistics.quantiles(values, n=4)`.  All results also go to
`.pipebench-work/spread-<workload>-<seed0>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    os.makedirs(os.path.join(ROOT, ".pipebench-work"), exist_ok=True)
    status = 0
    for name in args.workloads.split(","):
        results = []
        for seed in range(args.seed0, args.seed0 + args.runs):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            results.append({"seed": seed, **result, "stderr": proc.stderr})
            if not result["correct"]:
                sys.stderr.write(f"{name} seed {seed}: checks failed\n{proc.stderr}")
                status = 1
        out = os.path.join(ROOT, ".pipebench-work", f"spread-{name}-{args.seed0}.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
        if len(results) < 2:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{name}: {len(results)} runs, failed share {shares}, attempted "
              f"{min(r['attempted'] for r in results)}..{max(r['attempted'] for r in results)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            verdict = "" if bound is None else (
                f"bound {bound:g}  {'ok' if spread <= bound else 'OVER'}"
                f"{'' if spread <= bound / 3 else ' (above a third)'}")
            print(f"  {metric:26s} q1 {q1:12.6g} median {med:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:7.4f}  {verdict}")
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
