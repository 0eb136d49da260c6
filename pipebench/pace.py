"""The host's pace: a fixed piece of work, timed between operations.

The benchmark runs on a shared host whose speed drifts by up to 2.2 times
within minutes, and the program's work slows with it (see the README,
*Steadiness*).  `probe()` does a fixed mix of the work the program does: a
Python loop over small numpy arrays (as in SMO), whole-array numpy
arithmetic (as in the kernels and filters) and formatting and parsing of
floats (as in the CSV codec).  It never calls `mcmfs`, so a change to the
program cannot change it.  A command's time divided by the probe's time
nearby, times `REFERENCE_S`, is the command's time at the reference pace:
the seconds it takes when the probe takes `REFERENCE_S`.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The probe's time at the reference pace: about its fastest time on a 2-core
# Firecracker VM (numpy 2.4.6, Python 3.11, one BLAS thread).
REFERENCE_S = 0.009
# Probes within this many seconds of a command set its pace.
WINDOW_S = 1.0
# Work timed per probe, and the most probes after one piece of work.
PROBE_EVERY_S = 0.25
MAX_PROBES = 8

_rng = np.random.default_rng(20260101)
_SMALL = _rng.normal(size=64)
_ROWS = _rng.normal(size=(300, 60))
_TEXT = ",".join("%.12g" % v for v in _rng.normal(size=16000))


def probe() -> float:
    """Do the fixed work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    a = _SMALL.copy()
    acc = 0.0
    for i in range(1500):
        e = a * _SMALL[i % 64] - _SMALL
        j = int(np.argmax(np.abs(e)))
        acc += float(e[j]) * 0.5 + (1.0 if e[j] > 0 else -1.0)
        a[j] = min(max(a[j] + 1e-3, -5.0), 5.0)
    sq = (_ROWS ** 2).sum(axis=1)
    K = np.exp(-0.01 * (sq[:, None] + sq[None, :] - 2.0 * (_ROWS @ _ROWS.T)))
    acc += float(K.sum())
    acc += sum(float(t) for t in _TEXT.split(","))
    acc += len(",".join("%.12g" % v for v in K[0]))
    if acc != acc:                       # keeps the work from being optimized away
        raise ArithmeticError("probe")
    return time.perf_counter() - t0


class Pace:
    """Probe times with their start times, and the pace around an interval."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []   # (perf_counter at start, seconds)

    def tick(self, n: int = 1) -> None:
        for _ in range(n):
            t = time.perf_counter()
            self.marks.append((t, probe()))

    def tick_after(self, seconds: float) -> None:
        """Probe about once per PROBE_EVERY_S of `seconds` of work just done."""
        self.tick(min(max(round(seconds / PROBE_EVERY_S), 1), MAX_PROBES))

    def probe_seconds(self) -> float:
        """Time spent in probes so far."""
        return sum(d for _, d in self.marks)

    def around(self, t0: float, t1: float) -> float:
        """Median probe time within WINDOW_S of [t0, t1]; the nearest probes if none."""
        near = [d for t, d in self.marks if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if len(near) < 2:
            by_distance = sorted(self.marks, key=lambda m: min(abs(m[0] - t0), abs(m[0] - t1)))
            near = [d for _, d in by_distance[:2]]
        return statistics.median(near)

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        """`seconds`, spent in [t0, t1], at the reference pace."""
        return seconds * REFERENCE_S / self.around(t0, t1)
