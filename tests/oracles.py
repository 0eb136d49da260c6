"""Independent brute-force reference implementations used to cross-check results.

Everything here trades efficiency for obvious correctness: exhaustive vertex
and ray enumeration for linear programs, exhaustive active-set enumeration for
the kernel-machine dual, a literal double-loop neighbor scan for the
relevance weights, and the per-anchor, running-sum, per-cell, per-column and
per-pair loops that the package's ReliefF distances and prefix rule, CSV
loader, discretizer and FCBF replace with whole-matrix numpy.
None of it shares code with the package under test, except the SVM grid
search and the MCM C scan, which check only the scans around the package's
trainers.
"""

from __future__ import annotations

import csv
import math
from itertools import combinations, product

import numpy as np

LE, GE, EQ = "<=", ">=", "=="


def _candidate_points(pool_A, pool_rhs, dim):
    """Solve every square active-constraint system drawn from the pool."""
    P = pool_A.shape[0]
    if P < dim:
        return np.empty((0, dim))
    idx = np.array(list(combinations(range(P), dim)))
    mats = pool_A[idx]
    rhss = pool_rhs[idx]
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-9
    if not ok.any():
        return np.empty((0, dim))
    return np.linalg.solve(mats[ok], rhss[ok][..., None])[..., 0]


def _ray_candidates(pool_A, dim):
    """Nullspace directions of every (dim-1)-subset of pool rows."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    P = pool_A.shape[0]
    idx = np.array(list(combinations(range(P), dim - 1)))
    mats = pool_A[idx]
    _, svals, vts = np.linalg.svd(mats)
    rank_full = svals[:, -1] > 1e-9
    dirs = vts[rank_full, -1, :]
    if dirs.size == 0:
        return np.empty((0, dim))
    dirs = dirs / np.abs(dirs).max(axis=1, keepdims=True)
    return np.vstack([dirs, -dirs])


def enumerate_orthant_lp(c, A, rel, b, tol=1e-7):
    """Exact status and optimum of min c.x over {x >= 0, rows satisfied}.

    The feasible set lies in the nonnegative orthant, so it is pointed: when
    nonempty it has a vertex, and when the objective is unbounded below some
    extreme ray of the recession cone improves it.  Enumerating all square
    active-set systems (vertices) and all nullspace directions (rays) is
    therefore a complete decision procedure for small sizes.
    """
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64).reshape(len(b), c.size) if len(b) else np.empty((0, c.size))
    b = np.asarray(b, dtype=np.float64)
    V = c.size
    pool_A = np.vstack([A, np.eye(V)])
    pool_rhs = np.concatenate([b, np.zeros(V)])

    def feasible(x):
        if np.any(x < -tol) or not np.all(np.isfinite(x)):
            return False
        vals = A @ x
        for i, r in enumerate(rel):
            if r == LE and vals[i] > b[i] + tol:
                return False
            if r == GE and vals[i] < b[i] - tol:
                return False
            if r == EQ and abs(vals[i] - b[i]) > tol:
                return False
        return True

    points = _candidate_points(pool_A, pool_rhs, V)
    feas = [x for x in points if feasible(x)]
    if not feas:
        return "Infeasible", None

    def in_recession_cone(d):
        if np.any(d < -1e-9):
            return False
        vals = A @ d
        for i, r in enumerate(rel):
            if r == LE and vals[i] > 1e-9:
                return False
            if r == GE and vals[i] < -1e-9:
                return False
            if r == EQ and abs(vals[i]) > 1e-9:
                return False
        return True

    for d in _ray_candidates(pool_A, V):
        if in_recession_cone(d) and c @ d < -1e-8:
            return "Unbounded", None
    return "Optimal", min(float(c @ x) for x in feas)


def margin_machine_optimum(X, y, C, paper_variant=True, tol=1e-7):
    """Optimum of the capacity-minimizing LP by vertex enumeration.

    Works directly in (w, b, h, q) coordinates: every optimal basic solution
    activates dim-many constraints out of the cap rows, margin rows, and the
    q/h sign bounds, so enumerating all square subsets finds the optimum
    whenever the feasible set is pointed (generic data with enough samples).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    M, n = X.shape
    dim = n + 2 + M  # w, b, h, q
    yX = y[:, None] * X

    cap = np.zeros((M, dim))
    cap[:, :n] = yX
    cap[:, n] = y
    cap[:, n + 1] = -1.0
    if paper_variant:
        cap[:, n + 2:] = np.eye(M)
    marg = np.zeros((M, dim))
    marg[:, :n] = yX
    marg[:, n] = y
    marg[:, n + 2:] = np.eye(M)
    qb = np.zeros((M, dim))
    qb[:, n + 2:] = np.eye(M)
    hb = np.zeros((1, dim))
    hb[0, n + 1] = 1.0

    pool_A = np.vstack([cap, marg, qb, hb])
    pool_rhs = np.concatenate([np.zeros(M), np.ones(M), np.zeros(M), np.zeros(1)])

    def feasible(v):
        if not np.all(np.isfinite(v)):
            return False
        w, bias, h, q = v[:n], v[n], v[n + 1], v[n + 2:]
        if h < -tol or np.any(q < -tol):
            return False
        f = (X @ w + bias) * y
        extra = q if paper_variant else 0.0
        if np.any(f + extra - h > tol):
            return False
        if np.any(f + q < 1.0 - tol):
            return False
        return True

    points = _candidate_points(pool_A, pool_rhs, dim)
    best = None
    for v in points:
        if feasible(v):
            obj = float(v[n + 1] + C * v[n + 2:].sum())
            if best is None or obj < best:
                best = obj
    return best


def kernel_dual_optimum(K, y, C, tol=1e-8):
    """Exact box-constrained dual maximum by active-set enumeration.

    Every dual solution partitions samples into {alpha=0, alpha=C, interior};
    for each of the 3^M patterns the interior block solves a linear system
    (stationarity plus the balance constraint).  All feasible candidates are
    dual-feasible points, and the true maximizer appears among them, so the
    best candidate value is the exact optimum.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    M = y.size
    Q = (y[:, None] * y[None, :]) * K

    def dual_value(a):
        return float(a.sum() - 0.5 * a @ Q @ a)

    best = None
    for pattern in product((0, 1, 2), repeat=M):
        alpha = np.zeros(M)
        at_C = [i for i, p in enumerate(pattern) if p == 1]
        free = [i for i, p in enumerate(pattern) if p == 2]
        alpha[at_C] = C
        if free:
            f = len(free)
            S = np.zeros((f + 1, f + 1))
            S[:f, :f] = Q[np.ix_(free, free)]
            S[:f, f] = y[free]
            S[f, :f] = y[free]
            rhs = np.zeros(f + 1)
            rhs[:f] = 1.0 - Q[np.ix_(free, at_C)] @ alpha[at_C]
            rhs[f] = -float(y[at_C] @ alpha[at_C])
            if abs(np.linalg.det(S)) < 1e-12:
                continue
            sol = np.linalg.solve(S, rhs)
            alpha[free] = sol[:f]
            if np.any(alpha[free] < -tol) or np.any(alpha[free] > C + tol):
                continue
        elif abs(y @ alpha) > tol:
            continue
        val = dual_value(np.clip(alpha, 0.0, C))
        if best is None or val > best:
            best = val
    return best


def relieff_weights_naive(X, y, k):
    """Literal neighbor-scan relevance weights; assumes tie-free distances."""
    X = np.asarray(X, dtype=np.float64)
    M, n = X.shape
    ranges = X.max(axis=0) - X.min(axis=0)
    ranges = np.where(ranges > 0.0, ranges, 1.0)
    W = np.zeros(n)
    for i in range(M):
        dists = np.abs(X - X[i]).sum(axis=1)
        order = sorted((j for j in range(M) if j != i), key=lambda j: dists[j])
        hits = [j for j in order if y[j] == y[i]][:k]
        misses = [j for j in order if y[j] != y[i]][:k]
        for j in hits:
            W -= np.abs(X[i] - X[j]) / ranges / (M * k)
        for j in misses:
            W += np.abs(X[i] - X[j]) / ranges / (M * k)
    return W


def relieff_weights_per_anchor(X, y, k, seed):
    """ReliefF with one full row of Manhattan distances per anchor, ties broken by a
    seeded permutation of the samples, as the package breaks them.

    The package computes the distance matrix once and must match this bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    M, n = X.shape
    ranges = X.max(axis=0) - X.min(axis=0)
    ranges = np.where(ranges > 0.0, ranges, 1.0)
    tie_rank = np.random.default_rng(seed).permutation(M)
    weights = np.zeros(n)
    scale = 1.0 / (M * k)
    for i in range(M):
        diffs = np.abs(X - X[i])
        order = np.lexsort((tie_rank, diffs.sum(axis=1)))
        same = y[order] == y[i]
        hits = order[same & (order != i)][:k]
        misses = order[~same][:k]
        weights -= diffs[hits].sum(axis=0) / ranges * scale
        weights += diffs[misses].sum(axis=0) / ranges * scale
    return weights


def cumulative_fraction_loop(weights, fraction):
    """The ReliefF prefix rule: walk the features by (-weight, index), adding clamped
    weights until they reach `fraction` of their total.

    The total is added left to right in that order, as `np.cumsum` does; the
    builtin `sum` compensates its rounding from Python 3.12 on.
    """
    entries = sorted(enumerate(weights), key=lambda e: (-e[1], e[0]))
    clamped = [max(w, 0.0) for _, w in entries]
    total = 0.0
    for mass in clamped:
        total += mass
    if total <= 0.0:
        return (entries[0][0],)
    target = fraction * total
    chosen = []
    cum = 0.0
    for (j, _), mass in zip(entries, clamped):
        chosen.append(j)
        cum += mass
        if cum >= target - 1e-12 * total:
            break
    return tuple(sorted(chosen))


def load_csv_cellwise(path, label_column="label"):
    """Per-cell CSV reader: (samples, raw label strings, feature names).

    Raises ValueError with the loader's messages, except that its line
    numbers count non-blank rows rather than physical lines.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ValueError("empty file")
    header = [h.strip() for h in rows[0]]
    if label_column not in header:
        raise ValueError(f"label column {label_column!r} not found in header")
    label_idx = header.index(label_column)
    names = tuple(h for i, h in enumerate(header) if i != label_idx)
    if not names:
        raise ValueError("no feature columns")
    if len(rows) == 1:
        raise ValueError("empty file: header without data rows")
    raw_labels = []
    data = np.empty((len(rows) - 1, len(names)), dtype=np.float64)
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"line {r}: expected {len(header)} fields, got {len(row)}")
        raw_labels.append(row[label_idx].strip())
        col = 0
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            cell = cell.strip()
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(f"line {r}: cannot parse {cell!r} as a real number") from None
            if not math.isfinite(v):
                raise ValueError(f"line {r}: non-finite value {cell!r}")
            data[r - 2, col] = v
            col += 1
    return data, raw_labels, names


def discretize_columnwise(X, bins):
    """Equal-frequency bin ids and bin counts, one column at a time."""
    X = np.asarray(X, dtype=np.float64)
    M, n = X.shape
    ids = np.empty((M, n), dtype=np.int64)
    counts = np.empty(n, dtype=np.int64)
    qs = np.arange(1, bins) / bins
    for j in range(n):
        col = X[:, j]
        boundaries = np.unique(np.quantile(col, qs))
        raw = np.searchsorted(boundaries, col, side="right")
        _, ids[:, j] = np.unique(raw, return_inverse=True)
        counts[j] = ids[:, j].max() + 1
    return ids, counts


def entropy_bits(counts):
    """Base-2 entropy of one vector of counts, each term computed on its own."""
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def su_codes(x, y):
    """Symmetrical uncertainty of two integer-coded columns from their joint table."""
    x, y = (np.asarray(v, dtype=np.int64) for v in (x, y))   # narrow codes would wrap
    nx = int(x.max()) + 1
    ny = int(y.max()) + 1
    joint = np.bincount(x * ny + y, minlength=nx * ny).reshape(nx, ny)
    hx = entropy_bits(joint.sum(axis=1))
    hy = entropy_bits(joint.sum(axis=0))
    denom = hx + hy
    if denom <= 0.0:
        return 0.0
    hxy = entropy_bits(joint.reshape(-1))
    su = 2.0 * (hx + hy - hxy) / denom
    return min(1.0, max(0.0, su))


def fcbf_pairwise(X, labels, delta=0.0):
    """FCBF with one SU call per (feature, class) and (survivor, candidate) pair."""
    X = np.asarray(X)
    n = X.shape[1]
    _, yi = np.unique(labels, return_inverse=True)
    su_class = np.array([su_codes(X[:, j], yi) for j in range(n)])
    order = np.lexsort((np.arange(n), -su_class))
    queue = [int(j) for j in order if su_class[j] > delta]
    survivors = []
    while queue:
        f = queue.pop(0)
        survivors.append(f)
        queue = [g for g in queue if su_codes(X[:, f], X[:, g]) < su_class[g]]
    return tuple(sorted(survivors))


def _first_best_every_split(d, candidates, folds, seed, train, predict, failure):
    """Score every candidate on every split; keep the first strictly better one.

    A candidate whose `train` raises `failure` on any split scores 0.  The
    split accuracies are added left to right (the builtin `sum` compensates
    its rounding from Python 3.12 on).  Returns (candidate, accuracy).
    """
    from mcmfs.data import stratified_kfold

    plan = stratified_kfold(d, folds, seed)
    best = None
    for candidate in candidates:
        total = 0.0
        for f in range(folds):
            tr, te = d.take(plan.train_indices(f)), d.take(plan.test_indices(f))
            try:
                model = train(tr, candidate)
            except failure:
                total = 0.0
                break
            total += float((predict(model, te.samples) == te.labels).mean())
        acc = total / folds
        if best is None or acc > best[1]:
            best = (candidate, acc)
    return best


def grid_search_every_cell(d, feature_subset, C_grid, gamma_grid, folds=5, seed=42):
    """The SVM grid search with a `train_svm` call for every (C, gamma, split).

    It checks the package's search, which skips cells whose answer a smaller C
    already gave or which can no longer beat the best accuracy, so it calls
    the package's trainer, predictor and fold plan.  Same scan order and tie
    rule: ascending grids, strictly-better updates, and 0 for a cell whose
    training fails on any split.  Returns (C, gamma, accuracy).
    """
    from mcmfs.svm import SvmTrainingError, svm_predict_batch, train_svm

    cells = [(C, gamma) for C in sorted(float(v) for v in C_grid)
             for gamma in sorted(float(v) for v in gamma_grid)]
    (C, gamma), acc = _first_best_every_split(
        d, cells, folds, seed, lambda tr, cell: train_svm(tr, feature_subset, *cell),
        svm_predict_batch, SvmTrainingError)
    return C, gamma, acc


def mcm_C_every_candidate(d, C_grid, folds, seed, **options):
    """The MCM slack weight C of `C_grid` with the best k-fold accuracy of the
    hyperplane, from a `train_mcm` call for every (C, split), in grid order.

    `options` go to `train_mcm`.  Returns (C, accuracy).
    """
    from mcmfs.mcm import McmTrainingError, mcm_classify, train_mcm

    return _first_best_every_split(d, C_grid, folds, seed,
                                   lambda tr, C: train_mcm(tr, C=C, **options),
                                   mcm_classify, McmTrainingError)
