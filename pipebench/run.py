"""Benchmark of the select-then-SVM pipeline of mcmfs.

    python3 pipebench/run.py --workload cv-100x200 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from `src/`.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Every time is
reported at the reference pace of `pace.py`.  Exits 2 without a result when
the program's sources are missing or an argument is invalid.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".pipebench-work")
# Probes of the pace before the input step of the set-up.
SETUP_PROBES = 10


def since_process_start() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_rounds(w, sets, seconds, ledger, call_for, pace, min_rounds=1):
    """Run whole rounds until the next would overrun `seconds` (at least `min_rounds`).

    `call_for(round_index)` returns (command-line entry point, tracer or None)
    for that round; a tracer's wrappers are installed for that round only.
    Each command of an operation is timed on its own, and the pace is probed
    after it (`Pace.tick_after`).  Returns the operation records (round,
    (set, method), [(start, end) of each command]), the round records (start,
    end, tracer), and the attempted and failed operation counts.
    """
    import workloads

    ops, rounds, spans = [], [], []
    attempted = failed = 0
    pace.tick()
    started = time.perf_counter()
    while True:
        call, tracer = call_for(len(rounds))

        def timed(argv, call=call):
            t0 = time.perf_counter()
            try:
                return call(argv)
            finally:
                t1 = time.perf_counter()
                spans.append((t0, t1))
                pace.tick_after(t1 - t0)

        with tracer if tracer is not None else contextlib.nullcontext():
            r0 = time.perf_counter()
            for s in sets:
                for m in [m for m in s.methods for _ in range(s.repeats)]:
                    first = len(spans)
                    ok = workloads.run_op(w, s, m, timed)
                    attempted += 1
                    if ok:
                        ops.append((len(rounds), (s.name, m), spans[first:]))
                    else:
                        failed += 1
                    ledger.record(s, m)
            rounds.append((r0, time.perf_counter(), tracer))
        elapsed = time.perf_counter() - started
        if len(rounds) >= min_rounds and elapsed + (rounds[-1][1] - rounds[-1][0]) > seconds:
            return ops, rounds, attempted, failed


def op_seconds(pace, commands):
    """An operation's time at the reference pace: each command scaled by its own pace."""
    return sum(pace.scale(t1 - t0, t0, t1) for t0, t1 in commands)


def mean_of_means(times, keys):
    """The mean over `keys` of each key's mean repetition."""
    return sum(sum(times[k]) / len(times[k]) for k in keys) / len(keys)


def end_to_end(w, sets, seconds, setup_s, ledger, pace):
    import mcmfs.cli
    import pace as pace_mod
    import tracing
    import workloads

    ops, _, attempted, failed = timed_rounds(
        w, sets, seconds, ledger, lambda r: (mcmfs.cli.main, None), pace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each (set, method) operation's repetitions at the reference pace, and as timed.
    paced, raw = defaultdict(list), defaultdict(list)
    for _, key, commands in ops:
        paced[key].append(op_seconds(pace, commands))
        raw[key].append(sum(t1 - t0 for t0, t1 in commands))
    # One more pass over the first seeded and the first fixed set with capturing
    # wrappers, untimed, so the checks also see the folds, LPs, fits and
    # predictions inside an operation.
    with tracing.Tracer(capture=True) as tracer:
        for s in sets[:2]:
            for m in s.methods:
                workloads.run_op(w, s, m, mcmfs.cli.main)
                ledger.record(s, m)
    metrics = {}
    for m in workloads.METHODS:
        keys = [(s.name, m) for s in sets if m in s.methods]
        metrics[f"{m}_s"] = {"value": mean_of_means(paced, keys), "unit": "s"}
        sys.stderr.write(f"note: {m}_s {mean_of_means(raw, keys):.6g} s at the host's own pace\n")
    probes = sorted(d for _, d in pace.marks)
    sys.stderr.write(f"note: {len(probes)} probes of the pace, median {probes[len(probes) // 2]:.6g} s "
                     f"(reference {pace_mod.REFERENCE_S:g} s)\n")
    metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return metrics, tracer.captured, attempted, failed


def per_layer(w, sets, seconds, ledger, pace):
    """Alternate untraced and traced rounds; report the traced rounds' layers.

    Times are at the reference pace of their round; a round's time is the sum
    of its operations' times, so the probes between operations do not count.
    """
    import mcmfs.cli
    import tracing

    def call_for(r):
        if r % 2 == 0:
            return mcmfs.cli.main, None
        tracer = tracing.Tracer(capture=(r == 1))
        return (lambda argv: tracer.span("cli", mcmfs.cli.main, argv)), tracer

    ops, rounds, attempted, failed = timed_rounds(w, sets, seconds, ledger, call_for, pace,
                                                  min_rounds=2)
    round_s = [0.0] * len(rounds)
    for r, _, commands in ops:
        round_s[r] += op_seconds(pace, commands)
    plain = [round_s[r] for r, (_, _, tr) in enumerate(rounds) if tr is None]
    traced = [(r, tr) for r, (_, _, tr) in enumerate(rounds) if tr is not None]
    values = {}
    for r, tr in traced:
        r0, r1, _ = rounds[r]
        for k, v in tr.layer_values().items():
            if tracing.LAYER_UNITS[k] == "s":
                values[k] = min(values.get(k, math.inf), pace.scale(v, r0, r1))
            else:
                values.setdefault(k, v)      # counts of the first traced round
    values["trace.overhead_s"] = min(round_s[r] for r, _ in traced) - min(plain)
    metrics = {k: {"value": values[k], "unit": u} for k, u in tracing.LAYER_UNITS.items()}
    return metrics, traced[0][1].captured, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mcmfs", "__init__.py")):
        sys.stderr.write(f"pipebench: no program sources under {SRC}\n")
        return 2
    if args.seconds <= 0 or args.seed < 0:
        sys.stderr.write("pipebench: --seconds must be positive and --seed nonnegative\n")
        return 2
    sys.path[:0] = [SRC, HERE]
    import mcmfs
    import workloads

    if not os.path.abspath(mcmfs.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"pipebench: mcmfs was imported from {mcmfs.__file__}, not {SRC}\n")
        return 2
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        sys.stderr.write(f"pipebench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2

    import pace as pace_mod

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT)
    try:
        # One cold set-up, from the process's start: imports, then generate and
        # write the inputs and let the program load each file once.  The pace
        # is probed before and during the input step; the probes do not count.
        pace = pace_mod.Pace()
        pace.tick(SETUP_PROBES)
        sets = workloads.make_inputs(w, args.seed, workdir, pace)
        setup_raw_s = since_process_start() - pace.probe_seconds()
        setup_s = pace.scale(setup_raw_s, pace.marks[0][0], pace.marks[-1][0])
        sys.stderr.write(f"note: setup_s {setup_raw_s:.6g} s at the host's own pace\n")
        ledger = workloads.OutputLedger()
        if args.trace:
            metrics, captured, attempted, failed = per_layer(w, sets, args.seconds, ledger, pace)
        else:
            metrics, captured, attempted, failed = end_to_end(
                w, sets, args.seconds, setup_s, ledger, pace)
        found_out, misses_out = workloads.verify_outputs(w, sets, ledger)
        found_cap, misses_cap = workloads.verify_captured(captured)
        problems = ledger.problems + found_out + found_cap
        if args.trace:
            metrics["svm.bias_off_kkt"] = {"value": misses_cap, "unit": "count"}
        elif misses_out + misses_cap:
            sys.stderr.write(f"note: {misses_out + misses_cap} SVM models carry a bias "
                             f"outside their KKT interval\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems[:20]:
        sys.stderr.write(f"check failed: {p}\n")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
