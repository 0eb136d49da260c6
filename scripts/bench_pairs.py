"""Paired benchmark runs of two checkouts of this repository.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload cv-100x200 --seeds 301-310 --label wss2-cv-100x200

For each seed, runs `python3 pipebench/run.py --workload W --seed S
--seconds N --trace 0` once in each checkout, alternating which side runs
first (the parent on even pairs, the change on odd ones), and writes
`BENCH_<label>.json`: every run's JSON line, each side's median and
quartiles of every end-to-end metric in the parent's BENCHMARK.json, the
number of pairs the change won, each side's summed attempted and failed
operations, and the machine facts (nproc, numpy and Python versions) with
both checkouts' git SHAs.  The file is rewritten after each pair, so an
interrupted run keeps the pairs it finished.  A run that exits non-zero or
reports `"correct": false` stops the script with exit status 1, naming the
run; its pair is not summarized.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'301-310' -> [301, ..., 310]."""
    lo, hi = (int(v) for v in text.split("-"))
    return list(range(lo, hi + 1))


def git_sha(checkout: str) -> str | None:
    done = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its last line of standard output is the JSON result.

    Raises RuntimeError, naming the run, if it exits non-zero or its checks fail.
    """
    argv = [sys.executable, "pipebench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} reported correct false:\n"
                           f"{done.stderr[-2000:]}")
    return result


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles and how many pairs the change won.

    Under "operations": each side's attempted and failed operations, summed
    over the complete pairs, so that a gain bought with failures shows.
    """
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = {
            name: m["value"] for name, m in r["result"]["metrics"].items()}
    complete = {k for k, p in by_pair.items() if len(p) == 2}
    pairs = [by_pair[k] for k in sorted(complete)]
    done = [r for r in runs if r["pair"] in complete]
    out = {"operations": {s: {k: sum(r["result"][k] for r in done if r["side"] == s)
                              for k in ("attempted", "failed")} for s in SIDES}}
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        values = {s: [p[s][name] for p in pairs] for s in SIDES}
        wins = sum(sign * (p["change"][name] - p["parent"][name]) < 0 for p in pairs)
        losses = sum(sign * (p["change"][name] - p["parent"][name]) > 0 for p in pairs)
        out[name] = {**{s: quartiles(values[s]) for s in SIDES},
                     "pairs": len(pairs), "change_wins": int(wins), "change_losses": int(losses)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="first-last, e.g. 301-310")
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out-dir", default=".")
    args = p.parse_args(argv)

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": parse_seeds(args.seeds),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
                    "python": platform.python_version()},
        "git": {s: git_sha(c) for s, c in checkouts.items()},
        "runs": [],
    }
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    for pair, seed in enumerate(doc["seeds"]):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            try:
                result = run_once(checkouts[side], args.workload, seed, args.seconds)
            except RuntimeError as exc:
                print(f"pair {pair} seed {seed} {side}: {exc}", file=sys.stderr)
                return 1
            doc["runs"].append({"pair": pair, "seed": seed, "side": side,
                                "position": position, "result": result})
            print(f"pair {pair} seed {seed} {side}: attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)
        doc["summary"] = summarize(doc["runs"], metrics)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    for m in metrics:
        s = doc["summary"][m["name"]]
        print(f"{m['name']}: parent {s['parent']['median']:.4g} "
              f"(IQR {s['parent']['q3'] - s['parent']['q1']:.3g}) -> change "
              f"{s['change']['median']:.4g}, change won {s['change_wins']}/{s['pairs']}")
    print("operations (attempted, failed): " + ", ".join(
        f"{s} {o['attempted']}, {o['failed']}" for s, o in doc["summary"]["operations"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
