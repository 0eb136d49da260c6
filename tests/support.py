"""Shared dataset builders for the test suite."""

from __future__ import annotations

import numpy as np

from mcmfs.data import Dataset
from mcmfs.filters import _su
from mcmfs.linprog import EQ, GE, LE, LinearProgram


def make_dataset(X, y, prefix="f") -> Dataset:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    names = tuple(f"{prefix}{j}" for j in range(1, X.shape[1] + 1))
    return Dataset(X, y, names)


def su(x, y) -> float:
    """Symmetrical uncertainty of two 1-D columns of discrete values, through `filters._su`."""
    codes = [np.unique(v, return_inverse=True)[1].reshape(-1, 1) for v in (x, y)]
    return float(_su(*codes)[0])


def make_benchmark_dataset(m=100, n=200, informative=5, min_vote=3,
                           echo=0.18, noise_rank=2, seed=7) -> Dataset:
    """100x200 two-class benchmark with a known 5-feature ground truth.

    The first `informative` features are +-1 votes and the label is the sign
    of their sum; samples are kept only when the vote margin is at least
    `min_vote`, so the informative block separates the classes with a fixed
    margin.  The remaining features are distractors: mixtures of a few shared
    latent factors plus a weak constant-strength echo of the vote sum, which
    makes them mutually redundant and only faintly label-correlated, the way
    bulk features in high-dimensional screening data behave.
    """
    rng = np.random.default_rng(seed)
    per = m // 2
    rows, labels = [], []
    need = {1: per, -1: m - per}
    while need[1] > 0 or need[-1] > 0:
        votes = rng.choice([-1.0, 1.0], size=informative)
        s = votes.sum()
        if abs(s) < min_vote:
            continue
        lab = 1 if s > 0 else -1
        if need[lab] > 0:
            rows.append(votes)
            labels.append(lab)
            need[lab] -= 1
    vote_block = np.array(rows)
    s_col = vote_block.sum(axis=1, keepdims=True)
    k = n - informative
    latent = rng.normal(0.0, 1.0, size=(m, noise_rank))
    mixing = rng.choice([-1.0, 1.0], size=(noise_rank, k))
    echo_sign = rng.choice([-1.0, 1.0], size=(1, k))
    distractors = latent @ mixing + echo * (s_col @ echo_sign)
    X = np.hstack([vote_block, distractors])
    return make_dataset(X, np.array(labels))


def xor_dataset() -> Dataset:
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1, 1, -1, -1])
    return make_dataset(X, y)


def random_two_class(rng, m, n, scale=1.0) -> Dataset:
    """Random continuous dataset guaranteed to contain both classes."""
    X = rng.normal(0.0, scale, size=(m, n))
    y = np.where(rng.random(m) < 0.5, 1, -1)
    y[0], y[1] = 1, -1
    return make_dataset(X, y)


def lp_of(c, rows, free=()) -> LinearProgram:
    """An LP from (coeffs, relation, rhs) triples; `free` lists the free variables."""
    c = np.asarray(c, dtype=np.float64)
    rows = list(rows)
    A = np.array([r[0] for r in rows], dtype=np.float64).reshape(len(rows), c.shape[0])
    lower_free = np.zeros(c.shape[0], dtype=bool)
    lower_free[list(free)] = True
    return LinearProgram(c, A, tuple(r[1] for r in rows), [r[2] for r in rows], lower_free)


def dump_lp(lp: LinearProgram) -> str:
    """Fixed-layout plain-text dump, one constraint row per line, for failure messages."""
    lines = ["minimize " + " ".join(f"{v:.17g}" for v in lp.c)]
    for coeffs, rel, rhs in zip(lp.A, lp.rel, lp.b):
        lines.append(" ".join(f"{v:.17g}" for v in coeffs) + f" {rel} {rhs:.17g}")
    frees = np.flatnonzero(lp.lower_free)
    lines.append("free " + (" ".join(str(int(j)) for j in frees) if frees.size else "-"))
    return "\n".join(lines) + "\n"


def margin_ratio(weights, bias: float, d: Dataset) -> float:
    """max/min of the signed margins y_i*(w.x_i + b); requires full separation."""
    margins = d.labels * (d.samples @ np.asarray(weights, dtype=np.float64) + bias)
    lowest = float(margins.min())
    if lowest <= 0.0:
        raise ValueError("not separating: minimum signed margin is <= 0")
    return float(margins.max()) / lowest


def random_lp(rng, max_vars=6, max_rows=6):
    """Random small LP with integer coefficients, the oracle's home turf."""
    V = int(rng.integers(1, max_vars + 1))
    R = int(rng.integers(1, max_rows + 1))
    c = rng.integers(-5, 6, size=V).astype(np.float64)
    A = rng.integers(-5, 6, size=(R, V)).astype(np.float64)
    b = rng.integers(-5, 6, size=R).astype(np.float64)
    rel = tuple(rng.choice([LE, GE, EQ], p=[0.45, 0.45, 0.1]) for _ in range(R))
    return LinearProgram(c, A, rel, b, np.zeros(V, dtype=bool))


def write_csv(path, d):
    """Write a Dataset as the CSV layout the CLI reads."""
    lines = [",".join(d.feature_names) + ",label"]
    for row, label in zip(d.samples, d.labels):
        lines.append(",".join(f"{v:.12g}" for v in row) + f",{int(label):+d}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def gram(d, subset, gamma):
    X = d.samples[:, list(subset)]
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-gamma * d2)


def alphas_for(model, d):
    """Reconstruct the full alpha vector by matching support rows to samples."""
    restricted = d.samples[:, list(model.feature_subset)]
    alpha = np.zeros(d.n_samples)
    for row, coeff in zip(model.support_samples, model.coeffs):
        matches = np.flatnonzero((restricted == row).all(axis=1))
        assert matches.size == 1, "ambiguous support row"
        alpha[matches[0]] = abs(coeff)
    return alpha


def dual_objective(model, d):
    """Value of the kernel dual at the model's reconstructed alpha."""
    alpha = alphas_for(model, d)
    y = d.labels.astype(np.float64)
    K = gram(d, model.feature_subset, model.kernel_gamma)
    v = alpha * y
    return float(alpha.sum() - 0.5 * v @ K @ v)
