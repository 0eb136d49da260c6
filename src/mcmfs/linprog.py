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


class _SimplexState:
    """Mutable basis bookkeeping: A, b, current basis, its inverse, basic values."""

    def __init__(self, A, b, basis):
        self.A = A
        self.b = b
        self.basis = np.array(basis, dtype=np.int64)
        self.refactor()

    def refactor(self):
        try:
            self.Binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError:
            raise ArithmeticError("singular basis matrix") from None
        self.xB = self.Binv @ self.b

    def pivot(self, r, j, u, theta):
        er = self.Binv[r] / u[r]
        self.Binv -= np.outer(u, er)
        self.Binv[r] = er
        xB = self.xB - theta * u
        xB[r] = theta
        self.xB = xB
        self.basis[r] = j


def _iterate(state: _SimplexState, c, opt_tol, feas_tol, budget):
    """Run simplex pivots until optimal/unbounded or the pivot budget is spent."""
    A = state.A
    pivots = 0
    degen_streak = 0
    bland = False
    while True:
        y = c[state.basis] @ state.Binv
        reduced = c - y @ A
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
        u = state.Binv @ A[:, j]
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
    """Pivot zero-level artificials out of the basis; drop rows that prove redundant."""
    m = state.A.shape[0]
    redundant = []
    basic = set(int(v) for v in state.basis)
    for r in range(m):
        if state.basis[r] < n_real:
            continue
        row = state.Binv[r] @ state.A[:, :n_real]
        candidates = [j for j in np.flatnonzero(np.abs(row) > 1e-8) if j not in basic]
        if not candidates:
            redundant.append(r)
            continue
        j = max(candidates, key=lambda t: abs(row[t]))
        u = state.Binv @ state.A[:, j]
        basic.discard(int(state.basis[r]))
        basic.add(int(j))
        state.pivot(r, j, u, state.xB[r] / u[r])
    keep = [r for r in range(m) if r not in set(redundant)]
    return _SimplexState(state.A[keep][:, :n_real], state.b[keep], state.basis[keep])


def solve_lp(lp: LinearProgram, feas_tol: float = 1e-9, opt_tol: float = 1e-9,
             max_iters: int = 50_000) -> LpSolution:
    """Two-phase revised simplex with Dantzig pricing and Bland anti-cycling.

    Returns an Optimal solution at a basic feasible point (a vertex of the
    feasible region), or the Infeasible/Unbounded/IterationLimit status.
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

    A = np.zeros((R, n_real))
    A[:, :V] = lp.A
    if n_free:
        A[:, V:n_struct] = -lp.A[:, free_idx]
    slack_col = {}
    for k, i in enumerate(ineq_rows):
        col = n_struct + k
        slack_col[i] = col
        A[i, col] = 1.0 if lp.rel[i] == LE else -1.0
    b = lp.b.copy()
    flipped = b < 0
    A[flipped] *= -1.0
    b[flipped] *= -1.0

    c_real = np.concatenate([lp.c, -lp.c[free_idx], np.zeros(len(ineq_rows))])

    basis = np.empty(R, dtype=np.int64)
    art_rows = []
    for i in range(R):
        col = slack_col.get(i)
        if col is not None and A[i, col] > 0:
            basis[i] = col
        else:
            art_rows.append(i)
    if art_rows:
        art_block = np.zeros((R, len(art_rows)))
        for k, i in enumerate(art_rows):
            art_block[i, k] = 1.0
            basis[i] = n_real + k
        A = np.hstack([A, art_block])

    pivots_used = 0
    state = _SimplexState(A, b, basis)

    if art_rows:
        c_phase1 = np.zeros(A.shape[1])
        c_phase1[n_real:] = 1.0
        code, pivots = _iterate(state, c_phase1, opt_tol, feas_tol, max_iters)
        pivots_used += pivots
        if code == _ITER:
            return LpSolution(LpStatus.ITERATION_LIMIT, None, float("nan"), pivots_used)
        if code == _UNBOUNDED:
            raise ArithmeticError("phase-1 objective is bounded below; unbounded signal is a solver fault")
        infeas = float(c_phase1[state.basis] @ state.xB)
        if infeas > 1e3 * feas_tol * max(1.0, float(np.abs(b).max(initial=0.0))):
            return LpSolution(LpStatus.INFEASIBLE, None, float("nan"), pivots_used)
        state = _drive_out_artificials(state, n_real)

    code, pivots = _iterate(state, c_real, opt_tol, feas_tol, max_iters - pivots_used)
    pivots_used += pivots
    if code == _ITER:
        return LpSolution(LpStatus.ITERATION_LIMIT, None, float("nan"), pivots_used)
    if code == _UNBOUNDED:
        return LpSolution(LpStatus.UNBOUNDED, None, float("nan"), pivots_used)

    x_std = np.zeros(state.A.shape[1])
    x_std[state.basis] = np.where(np.abs(state.xB) < feas_tol, np.maximum(state.xB, 0.0), state.xB)
    x = x_std[:V].copy()
    if n_free:
        x[free_idx] -= x_std[V:n_struct]
    objective = float(lp.c @ x)

    # Row prices for the original rows; sign-normalized rows flip back.  Rows
    # dropped as redundant during drive-out lose their price, so skip duals then.
    if state.A.shape[0] == R:
        y = c_real[state.basis] @ state.Binv
        duals = np.where(flipped, -y, y)
        duals.setflags(write=False)
    else:
        duals = None
    return LpSolution(LpStatus.OPTIMAL, x, objective, pivots_used, duals)
