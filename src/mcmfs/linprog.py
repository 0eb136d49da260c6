"""Dense two-phase revised simplex for general-form linear programs."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

LE = "<="
GE = ">="
EQ = "=="
_RELATIONS = (LE, GE, EQ)

_BLAND_AFTER = 50      # consecutive degenerate pivots before Bland's rule engages
_REFACTOR_EVERY = 64   # pivots between basis-inverse rebuilds, bounds drift
_PIVOT_TOL = 1e-10

_OPT, _UNBOUNDED, _ITER = 0, 1, 2


class LpStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    ITERATION_LIMIT = "IterationLimit"


@dataclass(frozen=True)
class LinearProgram:
    """Minimize c.x subject to A[i].x (<=|>=|==) b[i] per row.

    Variables are nonnegative by default; lower_free[j] marks x_j as free.
    Upper bounds are +inf throughout.
    """

    c: np.ndarray
    A: np.ndarray
    rel: tuple[str, ...]
    b: np.ndarray
    lower_free: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=np.float64)
        A = np.array(self.A, dtype=np.float64, order="C", ndmin=2)
        b = np.array(self.b, dtype=np.float64)
        rel = tuple(self.rel)
        free = np.array(self.lower_free, dtype=bool)
        if c.ndim != 1:
            raise ValueError("objective must be 1-D")
        V = c.shape[0]
        if A.size == 0:
            A = A.reshape(0, V)
        if A.ndim != 2 or A.shape[1] != V:
            raise ValueError("row coefficients must form an (R, V) matrix")
        R = A.shape[0]
        if b.shape != (R,) or len(rel) != R:
            raise ValueError("relations and right-hand sides must match the row count")
        if free.shape != (V,):
            raise ValueError("lower_free must hold one flag per variable")
        for r in rel:
            if r not in _RELATIONS:
                raise ValueError(f"unknown relation {r!r}")
        for arr in (c, A, b):
            if not np.all(np.isfinite(arr)):
                raise ValueError("LP data must be finite")
        for arr in (c, A, b, free):
            arr.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lower_free", free)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; x and duals are populated only for Optimal."""

    status: LpStatus
    x: np.ndarray | None
    objective_value: float
    iterations: int
    duals: np.ndarray | None = None


class _PairedRun:
    """The longest run of standard-form columns on which rows 2i and 2i+1 agree.

    A sample's capacity and margin rows in the MCM LP share every column but
    h, their slacks and their artificial, so half of the stored matrix repeats
    the other half.  Standard-form columns s..e-1 are priced from half the
    rows, (y[0::2] + y[1::2]) @ W, where W keeps rows 0, 2, 4, ... of the
    stored columns lo..hi-1 that lie in the run.  The run is found from the
    matrix values in standard-form order, whatever is free, so an LP and its
    twin split by hand price every column alike.  A negated copy is priced
    from its partner; one on the other side of the run's edge than its
    partner is priced from its own entries, in `half_at` or `full_at`.
    """

    def __init__(self, S, at, free_idx, s, e):
        n_free = free_idx.size
        # stored columns lo..hi-1 are those whose standard-form position lies in s..e-1
        self.lo, self.hi = (int(v) if v <= at else max(int(v) - n_free, at) for v in (s, e))
        self.W = S[0::2, self.lo:self.hi].copy()
        copy_at = at + np.arange(n_free)
        copy_in = (copy_at >= s) & (copy_at < e)
        partner_in = (free_idx >= self.lo) & (free_idx < self.hi)
        half, full = copy_in & ~partner_in, partner_in & ~copy_in
        self.half_at, self.half_cols = at + np.flatnonzero(half), S[0::2][:, free_idx[half]]
        self.full_at, self.full_cols = at + np.flatnonzero(full), S[:, free_idx[full]]

    @classmethod
    def find(cls, S, at, free_idx):
        """The run of S, or None when the row count is odd or no column pairs up."""
        R = S.shape[0]
        if R < 2 or R % 2:
            return None
        same = (S[0::2] == S[1::2]).all(axis=0)
        std = np.concatenate([[False], same[:at], same[free_idx], same[at:], [False]])
        edges = np.flatnonzero(std[1:] != std[:-1])
        if edges.size == 0:
            return None
        starts, ends = edges[0::2], edges[1::2]
        k = int(np.argmax(ends - starts))
        return cls(S, at, free_idx, starts[k], ends[k])


class _SimplexState:
    """Mutable basis bookkeeping: columns, b, current basis, its inverse, basic values.

    S stores the LP's variables, then slacks, then artificials.  With
    `identity` the basis is known to be I (slack and artificial columns, each
    +1 on its own row), so it is not inverted.  The standard
    form splits each free x_j into x_j+ - x_j-: column at + k is the negated
    copy -S[:, free_idx[k]], gathered when needed and priced from its partner,
    and the stored columns from `at` on follow the copies.  `run`, a
    _PairedRun or None, prices its columns from half the rows.
    """

    def __init__(self, S, b, basis, at, free_idx, run, identity=False):
        self.S = S
        self.b = b
        self.at = at
        self.free_idx = free_idx
        self.run = run
        self.src = np.concatenate([np.arange(at), free_idx, np.arange(at, S.shape[1])])
        self._p = np.empty(S.shape[1])
        self._out = np.empty(self.n_cols)
        self.basis = np.array(basis, dtype=np.int64)
        if identity:
            # B = I, so B^-1 b = b, with a -0.0 in b read as 0.0 as the product reads it
            self.Binv, self.xB = np.eye(b.size), b + 0.0
        else:
            self.refactor()

    @property
    def n_cols(self) -> int:
        return self.src.size

    def _negated(self, j):
        return (j >= self.at) & (j < self.at + self.free_idx.size)

    def columns(self, js):
        """Standard-form columns js, as an (R, len(js)) matrix."""
        cols = self.S[:, self.src[js]]
        cols[:, self._negated(js)] *= -1.0
        return cols

    def column(self, j):
        col = self.S[:, self.src[j]]
        return -col if self._negated(j) else col

    def products(self, y):
        """y @ A over every standard-form column, in a buffer that the next call overwrites.

        A negated copy's product is its partner's, negated.
        """
        p, out, run = self._p, self._out, self.run
        if run is None:
            np.matmul(y, self.S, out=p)
        else:
            y2 = y[0::2] + y[1::2]
            np.matmul(y, self.S[:, :run.lo], out=p[:run.lo])
            np.matmul(y2, run.W, out=p[run.lo:run.hi])
            np.matmul(y, self.S[:, run.hi:], out=p[run.hi:])
        at, n_free = self.at, self.free_idx.size
        out[:at] = p[:at]
        np.negative(p[self.free_idx], out=out[at:at + n_free])
        out[at + n_free:] = p[at:]
        if run is not None and (run.half_at.size or run.full_at.size):
            out[run.half_at] = -(y2 @ run.half_cols)
            out[run.full_at] = -(y @ run.full_cols)
        return out

    def refactor(self):
        try:
            self.Binv = np.linalg.inv(self.columns(self.basis))
        except np.linalg.LinAlgError:
            raise ArithmeticError("singular basis matrix") from None
        self.xB = self.Binv @ self.b

    def pivot(self, r, j, u, theta):
        er = self.Binv[r] / u[r]
        self.Binv -= u[:, None] * er
        self.Binv[r] = er
        xB = self.xB - theta * u
        xB[r] = theta
        self.xB = xB
        self.basis[r] = j


def _iterate(state: _SimplexState, c, opt_tol, feas_tol, budget):
    """Run simplex pivots until optimal/unbounded or the pivot budget is spent."""
    pivots = 0
    degen_streak = 0
    bland = False
    while True:
        y = c[state.basis] @ state.Binv
        reduced = c - state.products(y)
        reduced[state.basis] = 0.0
        if bland:
            negs = np.flatnonzero(reduced < -opt_tol)
            if negs.size == 0:
                return _OPT, pivots
            j = int(negs[0])
        else:
            j = int(np.argmin(reduced))
            if reduced[j] >= -opt_tol:
                return _OPT, pivots
        if pivots >= budget:
            return _ITER, pivots
        u = state.Binv @ state.column(j)
        positive = u > _PIVOT_TOL
        if not positive.any():
            return _UNBOUNDED, pivots
        xb = np.maximum(state.xB, 0.0)
        ratios = np.where(positive, xb / np.where(positive, u, 1.0), np.inf)
        theta = float(ratios.min())
        tie = positive & (ratios <= theta + feas_tol * (1.0 + theta))
        cand = np.flatnonzero(tie)
        if bland:
            r = int(cand[np.argmin(state.basis[cand])])
        else:
            r = int(cand[np.argmax(u[cand])])
        theta_r = xb[r] / u[r]
        state.pivot(r, j, u, theta_r)
        pivots += 1
        if theta_r <= feas_tol:
            degen_streak += 1
            if degen_streak >= _BLAND_AFTER:
                bland = True
        else:
            degen_streak = 0
            bland = False
        if pivots % _REFACTOR_EVERY == 0:
            state.refactor()


def _drive_out_artificials(state: _SimplexState, n_real: int) -> _SimplexState:
    """Pivot zero-level artificials out of the basis; drop rows that prove redundant.

    The returned state stores the columns of S before the artificials, a view
    of S itself when no row is dropped; it keeps the paired run then, which
    holds no artificial, and prices every column with the full rows otherwise.
    """
    m = state.S.shape[0]
    redundant = []
    basic = set(int(v) for v in state.basis)
    for r in range(m):
        if state.basis[r] < n_real:
            continue
        row = state.products(state.Binv[r])[:n_real]
        candidates = [j for j in np.flatnonzero(np.abs(row) > 1e-8) if j not in basic]
        if not candidates:
            redundant.append(r)
            continue
        j = max(candidates, key=lambda t: abs(row[t]))
        u = state.Binv @ state.column(j)
        basic.discard(int(state.basis[r]))
        basic.add(int(j))
        state.pivot(r, j, u, state.xB[r] / u[r])
    n_stored = n_real - state.free_idx.size
    keep = [r for r in range(m) if r not in set(redundant)]
    if not redundant:
        return _SimplexState(state.S[:, :n_stored], state.b, state.basis, state.at,
                             state.free_idx, state.run)
    return _SimplexState(state.S[keep][:, :n_stored], state.b[keep], state.basis[keep],
                         state.at, state.free_idx, None)


def _violation(lp: LinearProgram, x: np.ndarray) -> float:
    """The largest amount by which x breaks a row of lp or a nonnegative bound."""
    r = lp.A @ x - lp.b
    rel = np.array(lp.rel)
    by_row = np.where(rel == LE, r, np.where(rel == GE, -r, np.abs(r)))
    return float(max(by_row.max(initial=0.0), -x[~lp.lower_free].min(initial=0.0)))


def solve_lp(lp: LinearProgram, feas_tol: float = 1e-9, opt_tol: float = 1e-9,
             max_iters: int = 50_000) -> LpSolution:
    """Two-phase revised simplex with Dantzig pricing and Bland anti-cycling.

    Returns an Optimal solution at a basic feasible point (a vertex of the
    feasible region), or the Infeasible/Unbounded/IterationLimit status.
    Raises ArithmeticError on a solver fault: a singular basis, or a final
    point that violates a row or bound by more than 1e3 * feas_tol (scaled by
    the largest |b| above 1), the same tolerance as the phase-1 test.  A
    solve that priced a paired run (`_PairedRun`) and hit such a fault runs
    again with every column priced from the full rows, and reports only the
    second solve's pivots.
    """
    if feas_tol <= 0 or opt_tol <= 0:
        raise ValueError("tolerances must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    V, R = lp.n_vars, lp.n_rows
    free_idx = np.flatnonzero(lp.lower_free)
    n_free = free_idx.size
    ineq_rows = [i for i in range(R) if lp.rel[i] != EQ]
    n_struct = V + n_free
    n_real = n_struct + len(ineq_rows)
    n_stored = n_real - n_free
    b = lp.b.copy()
    flipped = b < 0
    # Rows without a slack that is basic at b >= 0 start on an artificial.
    art_rows = [i for i in range(R) if lp.rel[i] == EQ or (lp.rel[i] == LE) == flipped[i]]

    S = np.zeros((R, n_stored + len(art_rows)))
    S[:, :V] = lp.A
    basis = np.empty(R, dtype=np.int64)
    for k, i in enumerate(ineq_rows):
        S[i, V + k] = 1.0 if lp.rel[i] == LE else -1.0
        basis[i] = n_struct + k
    S[flipped, :n_stored] *= -1.0
    b[flipped] *= -1.0
    for k, i in enumerate(art_rows):
        S[i, n_stored + k] = 1.0
        basis[i] = n_real + k

    # The negated copies follow the last free variable, so an LP whose free
    # variables are consecutive keeps the column order, and so the pivots, of
    # the same LP split by hand with the negative parts after the positive ones.
    at = int(free_idx[-1]) + 1 if n_free else V
    c_real = np.concatenate([lp.c[:at], -lp.c[free_idx], lp.c[at:], np.zeros(len(ineq_rows))])

    # phase-1 infeasibility and the final point's row or bound violation
    violation_tol = 1e3 * feas_tol * max(1.0, float(np.abs(b).max(initial=0.0)))
    run = _PairedRun.find(S, at, free_idx)
    try:
        return _two_phase(lp, _SimplexState(S, b, basis, at, free_idx, run, identity=True),
                          c_real, n_real, flipped, violation_tol, feas_tol, opt_tol, max_iters)
    except ArithmeticError:
        if run is None:
            raise
    # Summed row prices round apart from the full rows' and can steer the
    # pivots into a fault that full pricing avoids, so solve again with it.
    return _two_phase(lp, _SimplexState(S, b, basis, at, free_idx, None, identity=True),
                      c_real, n_real, flipped, violation_tol, feas_tol, opt_tol, max_iters)


def _two_phase(lp, state, c_real, n_real, flipped, violation_tol, feas_tol, opt_tol,
               max_iters) -> LpSolution:
    """Phase 1 from the slack and artificial basis of `state`, then phase 2 on c_real."""
    at, free_idx = state.at, state.free_idx
    n_free = free_idx.size
    n_struct = lp.n_vars + n_free
    pivots_used = 0
    if state.n_cols > n_real:
        c_phase1 = np.zeros(state.n_cols)
        c_phase1[n_real:] = 1.0
        code, pivots = _iterate(state, c_phase1, opt_tol, feas_tol, max_iters)
        pivots_used += pivots
        if code == _ITER:
            return LpSolution(LpStatus.ITERATION_LIMIT, None, float("nan"), pivots_used)
        if code == _UNBOUNDED:
            raise ArithmeticError("phase-1 objective is bounded below; unbounded signal is a solver fault")
        infeas = float(c_phase1[state.basis] @ state.xB)
        if infeas > violation_tol:
            return LpSolution(LpStatus.INFEASIBLE, None, float("nan"), pivots_used)
        state = _drive_out_artificials(state, n_real)

    code, pivots = _iterate(state, c_real, opt_tol, feas_tol, max_iters - pivots_used)
    pivots_used += pivots
    if code == _ITER:
        return LpSolution(LpStatus.ITERATION_LIMIT, None, float("nan"), pivots_used)
    if code == _UNBOUNDED:
        return LpSolution(LpStatus.UNBOUNDED, None, float("nan"), pivots_used)

    x_std = np.zeros(state.n_cols)
    x_std[state.basis] = np.where(np.abs(state.xB) < feas_tol, np.maximum(state.xB, 0.0), state.xB)
    x = x_std[np.r_[0:at, at + n_free:n_struct]]
    x[free_idx] -= x_std[at:at + n_free]
    violation = _violation(lp, x)
    if violation > violation_tol:
        raise ArithmeticError(f"simplex optimum violates a constraint by {violation:.3g}")
    objective = float(lp.c @ x)

    # Row prices for the original rows; sign-normalized rows flip back.  Rows
    # dropped as redundant during drive-out lose their price, so skip duals then.
    if state.S.shape[0] == lp.n_rows:
        y = c_real[state.basis] @ state.Binv
        duals = np.where(flipped, -y, y)
        duals.setflags(write=False)
    else:
        duals = None
    return LpSolution(LpStatus.OPTIMAL, x, objective, pivots_used, duals)
