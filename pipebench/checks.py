"""Output checks computed apart from the program under test.

Nothing here imports `mcmfs`: every check takes plain numpy arrays or the
text the command line wrote, recomputes what it needs with numpy (and scipy's
HiGHS for linear programs), and returns a list of problems.  An empty list
means the output passed.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

SD_FLOOR = 1e-8
LP_REL_TOL = 1e-7        # relative gap allowed between two LP optima
KKT_TOL = 1e-3           # the trainer's default KKT tolerance
SVM_EDGE = 1e-8          # alpha within EDGE*max(C, 1) of a bound counts as at it


# ---------------------------------------------------------------- parsing

def parse_feature_file(text: str) -> tuple[int, ...]:
    """0-based indices from a `select` output (1-based `index<TAB>name` lines)."""
    return tuple(int(line.split()[0]) - 1 for line in text.splitlines()
                 if line.strip() and not line.startswith("#"))


def parse_report(text: str) -> dict:
    """The fields of a `cv-report v1` document the checks need."""
    out = {"folds": {}}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "fold-test-sizes":
            out["fold_test_sizes"] = [int(v) for v in parts[1:]]
        elif parts[0] == "fold" and parts[2] == "accuracy":
            fold = out["folds"].setdefault(int(parts[1]), {})
            fold["accuracy"] = float(parts[3])
            fold["C"] = float(parts[5])
            fold["gamma"] = float(parts[7])
        elif parts[0] == "fold" and parts[2] == "selected":
            fold = out["folds"].setdefault(int(parts[1]), {})
            fold["selected"] = tuple(int(v) - 1 for v in parts[3:])
    return out


def parse_svm_doc(text: str) -> dict:
    """An `svm-model v1` document as arrays; feature indices become 0-based."""
    fields, rows = {}, []
    for line in text.splitlines():
        key, _, rest = line.strip().partition(" ")
        if key == "sv":
            rows.append([float(v) for v in rest.split()])
        elif key and key != "end":
            fields[key] = rest
    rows = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
    return {
        "n": int(fields["n"]),
        "C": float(fields["C"]),
        "gamma": float(fields["kernel-gamma"]),
        "bias": float(fields["bias"]),
        "subset": tuple(int(v) - 1 for v in fields["subset"].split()),
        "coeffs": rows[:, 0] if len(rows) else np.zeros(0),
        "support": rows[:, 1:],
        "means": np.array([float(v) for v in fields["means"].split()]),
        "sds": np.array([float(v) for v in fields["sds"].split()]),
    }


def parse_labels(text: str) -> np.ndarray:
    return np.array([int(line.split("\t")[1]) for line in text.splitlines() if line.strip()])


# ------------------------------------------------------------- data and folds

def standardize(X: np.ndarray):
    """Zero mean, unit population sd per column, sds floored at 1e-8."""
    means = X.mean(axis=0)
    sds = np.maximum(X.std(axis=0), SD_FLOOR)
    return (X - means) / sds, means, sds


def check_folds(labels: np.ndarray, k: int, assignments: np.ndarray) -> list[str]:
    """Test folds partition the rows; each class is split evenly within one."""
    a = np.asarray(assignments)
    problems = []
    if a.shape != labels.shape or a.min() < 0 or a.max() >= k:
        return [f"fold assignments do not map {labels.size} rows into {k} folds"]
    for value in (-1, 1):
        counts = np.bincount(a[labels == value], minlength=k)
        if counts.max() - counts.min() > 1:
            problems.append(f"class {value:+d} fold counts {counts.tolist()} differ by more than one")
    if np.unique(a).size != k:
        problems.append("a fold is empty")
    return problems


# ------------------------------------------------------------------- MCM LP

def mcm_lp_optimum(Xs: np.ndarray, y: np.ndarray, C: float, cols=None) -> float:
    """HiGHS optimum of min h + C*sum(q) s.t. u_i + q_i <= h, u_i + q_i >= 1.

    u_i = y_i (w.x_i + b) with w and b split into nonnegative parts; `cols`
    restricts w to those feature columns (the rest are held at zero).
    """
    X = Xs if cols is None else Xs[:, list(cols)]
    M, n = X.shape
    yX = y[:, None] * X
    # variables: h, w+ (n), w- (n), b+, b-, q (M)
    margin = np.hstack([np.zeros((M, 1)), yX, -yX, y[:, None], -y[:, None], np.eye(M)])
    cap = margin.copy()
    cap[:, 0] = -1.0
    A_ub = np.vstack([cap, -margin])
    b_ub = np.concatenate([np.zeros(M), -np.ones(M)])
    c = np.concatenate([[1.0], np.zeros(2 * n + 2), np.full(M, C)])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if res.status != 0:
        raise ArithmeticError(f"HiGHS did not solve the MCM LP: {res.message}")
    return float(res.fun)


def check_mcm_selection(Xs: np.ndarray, y: np.ndarray, C: float, selected) -> list[str]:
    """The LP restricted to `selected` reaches the full optimum; 1 <= |selected| <= 2M."""
    selected = tuple(selected)
    rows = 2 * Xs.shape[0]
    if not 1 <= len(selected) <= rows:
        return [f"MCM selected {len(selected)} features, outside 1..{rows}"]
    full = mcm_lp_optimum(Xs, y, C)
    restricted = mcm_lp_optimum(Xs, y, C, selected)
    if restricted > full + LP_REL_TOL * (1.0 + abs(full)):
        return [f"MCM LP on the {len(selected)} selected features reaches {restricted:.12g}, "
                f"the full optimum is {full:.12g}"]
    return []


def check_lp_objective(c, A, rel, b, free, objective: float) -> list[str]:
    """A general-form LP's reported optimum matches HiGHS on the same LP."""
    A = np.asarray(A)
    sign = np.array([1.0 if r == "<=" else -1.0 for r in rel])
    ineq = np.array([r != "==" for r in rel])
    bounds = [(None, None) if f else (0, None) for f in free]
    res = linprog(c, A_ub=(sign[:, None] * A)[ineq] if ineq.any() else None,
                  b_ub=(sign * b)[ineq] if ineq.any() else None,
                  A_eq=A[~ineq] if (~ineq).any() else None,
                  b_eq=np.asarray(b)[~ineq] if (~ineq).any() else None,
                  bounds=bounds, method="highs")
    if res.status != 0:
        return [f"HiGHS finds no optimum ({res.message}) where the program reports {objective:.12g}"]
    if abs(objective - res.fun) > LP_REL_TOL * (1.0 + abs(res.fun)):
        return [f"LP objective {objective:.12g} is off the HiGHS optimum {res.fun:.12g}"]
    return []


# ------------------------------------------------------------------ ReliefF

def relieff_weights(Xs: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """ReliefF: every row an anchor, k nearest hits and misses by Manhattan distance.

    Neighbour ties break by row index.  Each anchor adds its misses' and
    subtracts its hits' range-normalized differences, scaled by 1/(M*k).
    """
    M, n = Xs.shape
    ranges = Xs.max(axis=0) - Xs.min(axis=0)
    ranges = np.where(ranges > 0.0, ranges, 1.0)
    scale = 1.0 / (M * k)
    w = np.zeros(n)
    for i in range(M):
        diffs = np.abs(Xs - Xs[i])
        order = np.argsort(diffs.sum(axis=1), kind="stable")
        order = order[order != i]
        hits = order[y[order] == y[i]][:k]
        misses = order[y[order] != y[i]][:k]
        w -= diffs[hits].sum(axis=0) / ranges * scale
        w += diffs[misses].sum(axis=0) / ranges * scale
    return w


def cumulative_mass_prefix(w: np.ndarray, fraction: float) -> tuple[int, ...]:
    """Smallest prefix of the (score desc, index asc) ranking holding `fraction` of the clamped mass."""
    order = np.lexsort((np.arange(w.size), -w))
    clamped = [max(float(w[j]), 0.0) for j in order]
    total = sum(clamped)
    if total <= 0.0:
        return (int(order[0]),)
    cum, chosen = 0.0, []
    for j, mass in zip(order, clamped):
        chosen.append(int(j))
        cum += mass
        if cum >= fraction * total - 1e-12 * total:
            break
    return tuple(sorted(chosen))


def check_relieff_selection(Xs, y, selected, k=10, fraction=0.4) -> list[str]:
    expected = cumulative_mass_prefix(relieff_weights(Xs, y, k), fraction)
    if tuple(selected) != expected:
        missing = sorted(set(expected) - set(selected))[:5]
        extra = sorted(set(selected) - set(expected))[:5]
        return [f"ReliefF selected {len(selected)} features, an independent ReliefF "
                f"selects {len(expected)} (missing {missing}, extra {extra})"]
    return []


# --------------------------------------------------------------------- FCBF

def discretize(Xs: np.ndarray, bins: int) -> np.ndarray:
    """Equal-frequency codes per column from interior quantile boundaries.

    A value's raw code is the number of distinct boundaries at or below it;
    the codes are the raw codes' dense ranks within each column.
    """
    M, n = Xs.shape
    bounds = np.quantile(Xs, np.arange(1, bins) / bins, axis=0)        # (bins-1, n)
    distinct = np.ones(bounds.shape, dtype=bool)
    distinct[1:] = bounds[1:] != bounds[:-1]
    raw = ((bounds[None, :, :] <= Xs[:, None, :]) & distinct[None]).sum(axis=1)
    cols = np.broadcast_to(np.arange(n), (M, n))
    present = np.zeros((bins, n), dtype=np.int64)
    present[raw, cols] = 1
    return (np.cumsum(present, axis=0) - 1)[raw, cols]


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    """Base-2 entropy of each row of a count matrix (0*log 0 = 0)."""
    total = counts.sum(axis=1, keepdims=True)
    p = np.where(counts > 0, counts / total, 1.0)
    return -(np.where(counts > 0, p * np.log2(p), 0.0)).sum(axis=1)


def su_against(x: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Symmetrical uncertainty of one code column against every column of `codes`."""
    M, n = codes.shape
    nx = int(x.max()) + 1
    nb = int(codes.max()) + 1
    flat = (np.arange(n)[None, :] * nx + x[:, None]) * nb + codes
    joint = np.bincount(flat.ravel(), minlength=n * nx * nb).reshape(n, nx, nb)
    hx = _entropy_rows(joint.sum(axis=2))
    hy = _entropy_rows(joint.sum(axis=1))
    hxy = _entropy_rows(joint.reshape(n, -1))
    denom = hx + hy
    su = np.where(denom > 0.0, 2.0 * (hx + hy - hxy) / np.where(denom > 0.0, denom, 1.0), 0.0)
    return np.clip(su, 0.0, 1.0)


def check_fcbf_selection(Xs, y, selected, bins=10, delta=0.0, tol=1e-12) -> list[str]:
    """Survivors obey the predominance rule of FCBF.

    Every survivor is relevant (SU with the class above delta); no survivor
    is predominated by a more relevant survivor; every dropped relevant
    feature is predominated by a more relevant survivor.  f predominates g
    when SU(f, g) >= SU(g, class).
    """
    codes = discretize(Xs, bins)
    su_class = su_against((y > 0).astype(np.int64), codes)
    n = codes.shape[1]
    survivors = sorted(set(int(j) for j in selected))
    problems = [f"survivor {j + 1} has SU {su_class[j]:.6g} <= delta"
                for j in survivors if su_class[j] <= delta]
    covered = np.zeros(n, dtype=bool)
    for f in survivors:
        su_f = su_against(codes[:, f], codes)
        # SUs within tol of each other may come out in either order, so a
        # violation needs f clearly ahead, while cover may come from a near-tie.
        for g in survivors:
            if su_class[f] > su_class[g] + tol and su_f[g] >= su_class[g] + tol:
                problems.append(f"survivor {g + 1} is predominated by survivor {f + 1}")
        covered |= (su_class[f] >= su_class - tol) & (su_f >= su_class - tol)
    dropped = (su_class > delta) & ~covered
    dropped[survivors] = False
    if dropped.any():
        problems.append(f"{int(dropped.sum())} relevant features were dropped with no "
                        f"predominating survivor (first {int(np.flatnonzero(dropped)[0]) + 1})")
    return problems


# ---------------------------------------------------------------------- SVM

def rbf(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    d2 = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    return np.exp(-gamma * np.maximum(d2, 0.0))


def decision_values(support, coeffs, bias, gamma, Xr) -> np.ndarray:
    if len(coeffs) == 0:
        return np.full(Xr.shape[0], bias)
    return rbf(Xr, support, gamma) @ coeffs + bias


def check_predictions(support, coeffs, bias, gamma, Xr, labels) -> list[str]:
    """Labels equal the sign of numpy decision values (0 maps to +1)."""
    expected = np.where(decision_values(support, coeffs, bias, gamma, Xr) >= 0.0, 1, -1)
    bad = np.flatnonzero(expected != np.asarray(labels))
    if bad.size:
        return [f"{bad.size} predicted labels differ from the model's decision values "
                f"(first row {int(bad[0]) + 1})"]
    return []


def check_svm(X, y, C, gamma, support, coeffs, bias, match_tol=0.0):
    """Dual feasibility and KKT of a trained SVM on its training rows.

    Support rows are matched to training rows within `match_tol` (0 demands
    exact equality) to recover the full alpha vector.  Checks 0 <= alpha <= C,
    sum alpha*y = 0, and that some bias satisfies every row's KKT condition
    within KKT_TOL, i.e. that alpha solves the dual.  When some alpha is free
    (strictly inside (0, C)) the model's own bias must satisfy KKT too.  When
    every alpha is at a bound the program may keep the bias of its last SMO
    step, outside the KKT interval (a known fault), so that bias is not
    failed.  Returns (problems, bias_gap): bias_gap is how far such a bias
    lies outside the interval (0 when inside, or when some alpha is free).
    """
    M = X.shape[0]
    y = np.asarray(y, dtype=np.float64)
    problems = []
    alpha = np.zeros(M)
    used = np.zeros(M, dtype=bool)
    for row, coef in zip(support, coeffs):
        # Duplicate rows share decision values, so any free row of the same
        # point and label can carry the coefficient.
        hits = np.flatnonzero((np.abs(X - row).max(axis=1) <= match_tol)
                              & (y == np.sign(coef)) & ~used)
        if hits.size == 0:
            return [f"a support vector with coefficient {coef:.6g} matches no training row"], 0.0
        used[hits[0]] = True
        alpha[hits[0]] = abs(coef)
    edge = SVM_EDGE * max(C, 1.0)
    if alpha.max(initial=0.0) > C + edge:
        problems.append(f"alpha {alpha.max():.6g} exceeds C = {C:.6g}")
    balance = float(alpha @ y)
    if abs(balance) > 1e-6 * max(C, 1.0):
        problems.append(f"sum alpha*y = {balance:.3g}, not 0")
    g = decision_values(support, coeffs, 0.0, gamma, X)
    # y*(g + b) >= 1 - tol at alpha = 0, <= 1 + tol at alpha = C, both when free.
    need_ge = alpha < C - edge
    need_le = alpha > edge
    lo_ge, hi_ge = 1.0 - KKT_TOL - g, -1.0 + KKT_TOL - g   # y = +1 / y = -1 forms
    lo_le, hi_le = -1.0 - KKT_TOL - g, 1.0 + KKT_TOL - g
    pos = y > 0
    lower = np.concatenate([lo_ge[need_ge & pos], lo_le[need_le & ~pos]])
    upper = np.concatenate([hi_ge[need_ge & ~pos], hi_le[need_le & pos]])
    lo, hi = lower.max(initial=-np.inf), upper.min(initial=np.inf)
    if lo > hi:
        problems.append(f"no bias satisfies KKT: the rows demand b >= {lo:.6g} and b <= {hi:.6g}")
        return problems, 0.0
    gap = float(max(lo - bias, bias - hi, 0.0))
    free = int(np.count_nonzero(need_ge & need_le))
    if free and gap > 0.0:
        problems.append(f"bias {bias:.6g} lies outside the KKT interval [{lo:.6g}, {hi:.6g}] "
                        f"although {free} alphas are free")
        return problems, 0.0
    return problems, gap
