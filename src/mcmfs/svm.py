"""Gaussian-kernel SVM trained by sequential minimal optimization, plus grid search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, require_two_classes, stratified_kfold

DEFAULT_C_GRID = tuple(2.0 ** p for p in range(-5, 17, 2))
DEFAULT_GAMMA_GRID = tuple(2.0 ** p for p in range(-15, 5, 2))
KKT_TOL = 1e-3
MAX_PASSES = 200


class SvmTrainingError(RuntimeError):
    """SMO failed to reach the KKT conditions within the sweep budget."""


@dataclass(frozen=True)
class SvmModel:
    """Support vectors with coefficients alpha_i*y_i and the decision bias.

    `support_samples` is already restricted to `feature_subset`; prediction
    applies the same restriction to incoming full-width samples.  Every value
    must be finite and `kernel_gamma` positive.
    """

    support_samples: np.ndarray
    coeffs: np.ndarray
    bias: float
    kernel_gamma: float
    C: float
    feature_subset: tuple[int, ...]
    n_features_in: int

    def __post_init__(self):
        support = np.array(self.support_samples, dtype=np.float64, ndmin=2)
        coeffs = np.array(self.coeffs, dtype=np.float64)
        support.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "support_samples", support)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "feature_subset",
                           _validate_subset(self.feature_subset, self.n_features_in))
        if not (np.isfinite(support).all() and np.isfinite(coeffs).all()
                and math.isfinite(self.bias)):
            raise ValueError("support vectors, coefficients and bias must be finite")
        if not 0.0 < self.kernel_gamma < math.inf:
            raise ValueError("kernel_gamma must be positive and finite")


def _kernel_matrix(X: np.ndarray, Z: np.ndarray, gamma: float) -> np.ndarray:
    x2 = (X * X).sum(axis=1)
    z2 = (Z * Z).sum(axis=1)
    d2 = np.maximum(x2[:, None] + z2[None, :] - 2.0 * (X @ Z.T), 0.0)
    return np.exp(-gamma * d2)


def _validate_subset(subset, n_features: int) -> tuple[int, ...]:
    subset = tuple(int(j) for j in subset)
    if not subset:
        raise ValueError("feature subset must not be empty")
    if len(set(subset)) != len(subset):
        raise ValueError("feature subset has duplicate indices")
    if min(subset) < 0 or max(subset) >= n_features:
        raise ValueError("feature subset index out of range")
    return subset


def train_svm(d: Dataset, feature_subset, C: float, kernel_gamma: float,
              kkt_tol: float = KKT_TOL, max_passes: int = MAX_PASSES) -> SvmModel:
    """SMO on the dual problem; converges when a full sweep finds no KKT violator.

    Pair selection: a violating sample is matched with the non-bound sample of
    maximal |E1 - E2|, falling back to deterministic scans over non-bound then
    all samples.  Raises SvmTrainingError once `max_passes` sweeps have made no
    progress (or at a generous hard ceiling on total sweeps).
    """
    if C <= 0 or kernel_gamma <= 0:
        raise ValueError("C and kernel_gamma must be positive")
    if kkt_tol <= 0:
        raise ValueError("kkt_tol must be positive")
    require_two_classes(d)
    subset = _validate_subset(feature_subset, d.n_features)

    X = d.samples[:, list(subset)]
    y = d.labels.astype(np.float64)
    M = X.shape[0]
    K = _kernel_matrix(X, X, kernel_gamma)
    alpha = np.zeros(M)
    state = {"b": 0.0}
    E = -y.copy()  # decision values start at zero
    atol = 1e-8 * max(C, 1.0)

    def refresh_errors():
        E[:] = K @ (alpha * y) + state["b"] - y

    def dual_min_objective(a: np.ndarray) -> float:
        v = a * y
        return 0.5 * float(v @ K @ v) - float(a.sum())

    def take_step(i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        a1, a2 = alpha[i1], alpha[i2]
        y1, y2 = y[i1], y[i2]
        E1, E2 = E[i1], E[i2]
        s = y1 * y2
        if s < 0:
            L, H = max(0.0, a2 - a1), min(C, C + a2 - a1)
        else:
            L, H = max(0.0, a2 + a1 - C), min(C, a2 + a1)
        if H - L < 1e-12:
            return False
        eta = K[i1, i1] + K[i2, i2] - 2.0 * K[i1, i2]
        if eta > 1e-12:
            a2_new = a2 + y2 * (E1 - E2) / eta
            a2_new = min(H, max(L, a2_new))
        else:
            # flat direction (duplicate points): evaluate both box ends
            lo = alpha.copy()
            lo[i1], lo[i2] = a1 + s * (a2 - L), L
            hi = alpha.copy()
            hi[i1], hi[i2] = a1 + s * (a2 - H), H
            obj_lo, obj_hi = dual_min_objective(lo), dual_min_objective(hi)
            if obj_lo < obj_hi - 1e-12:
                a2_new = L
            elif obj_hi < obj_lo - 1e-12:
                a2_new = H
            else:
                return False
        if abs(a2_new - a2) < 1e-10 * (a2_new + a2 + 1e-10):
            return False
        a1_new = a1 + s * (a2 - a2_new)
        d1, d2 = a1_new - a1, a2_new - a2
        b_old = state["b"]
        b1 = b_old - E1 - y1 * d1 * K[i1, i1] - y2 * d2 * K[i1, i2]
        b2 = b_old - E2 - y1 * d1 * K[i1, i2] - y2 * d2 * K[i2, i2]
        if atol < a1_new < C - atol:
            state["b"] = b1
        elif atol < a2_new < C - atol:
            state["b"] = b2
        else:
            state["b"] = 0.5 * (b1 + b2)
        alpha[i1], alpha[i2] = a1_new, a2_new
        refresh_errors()
        return True

    def examine(i2: int) -> int:
        r2 = E[i2] * y[i2]
        if not ((r2 < -kkt_tol and alpha[i2] < C - atol) or (r2 > kkt_tol and alpha[i2] > atol)):
            return 0
        non_bound = np.flatnonzero((alpha > atol) & (alpha < C - atol))
        if non_bound.size > 1:
            i1 = int(non_bound[np.argmax(np.abs(E[non_bound] - E[i2]))])
            if take_step(i1, i2):
                return 1
        start = (i2 + 1) % M
        pos = int(np.searchsorted(non_bound, start))
        for i1 in np.concatenate([non_bound[pos:], non_bound[:pos]]):
            if take_step(int(i1), i2):
                return 1
        for off in range(M):
            if take_step((start + off) % M, i2):
                return 1
        return 0

    # max_passes caps fruitless sweeps; productive sweeps are unlimited because
    # each successful step strictly improves the dual.  The hard ceiling turns a
    # pathological crawl into a diagnostic instead of a hang.
    examine_all = True
    num_changed = 0
    fruitless = 0
    sweeps = 0
    hard_ceiling = 100 * max_passes
    while num_changed > 0 or examine_all:
        sweeps += 1
        if fruitless > max_passes or sweeps > hard_ceiling:
            worst = float(np.max(np.abs(E * y) * ((alpha > atol) & (alpha < C - atol))))
            raise SvmTrainingError(
                f"no convergence after {sweeps - 1} sweeps "
                f"({fruitless} fruitless, worst non-bound KKT residual {worst:.3g})")
        num_changed = 0
        if examine_all:
            targets = range(M)
        else:
            targets = np.flatnonzero((alpha > atol) & (alpha < C - atol))
        for i2 in targets:
            num_changed += examine(int(i2))
        if num_changed == 0:
            fruitless += 1
        if examine_all:
            examine_all = False
        elif num_changed == 0:
            examine_all = True

    keep = alpha > 1e-10 * max(C, 1.0)
    return SvmModel(
        support_samples=X[keep],
        coeffs=(alpha * y)[keep],
        bias=float(state["b"]),
        kernel_gamma=float(kernel_gamma),
        C=float(C),
        feature_subset=subset,
        n_features_in=d.n_features,
    )


def svm_decision_values(model: SvmModel, X) -> np.ndarray:
    """sum_i coeffs_i * K(support_i, x) + bias for each row x of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != model.n_features_in:
        raise ValueError(f"expected samples with {model.n_features_in} features")
    if model.coeffs.size == 0:
        return np.full(X.shape[0], model.bias)
    restricted = X[:, list(model.feature_subset)]
    k = _kernel_matrix(restricted, model.support_samples, model.kernel_gamma)
    return k @ model.coeffs + model.bias


def svm_predict_batch(model: SvmModel, X) -> np.ndarray:
    """Predicted labels for a sample matrix; a decision value of 0 maps to +1."""
    return np.where(svm_decision_values(model, X) >= 0.0, 1, -1).astype(np.int64)


def grid_search(d: Dataset, feature_subset, C_grid=DEFAULT_C_GRID,
                gamma_grid=DEFAULT_GAMMA_GRID, folds: int = 5, seed: int = 42):
    """Pick (C, gamma) by stratified k-fold accuracy on `d`.

    Grids are scanned in ascending order with strictly-better updates, so ties
    resolve toward the smaller C and then the smaller gamma.  A cell whose
    training fails anywhere scores 0.  Returns (C, gamma, cv_accuracy).
    """
    subset = _validate_subset(feature_subset, d.n_features)
    Cs = sorted(float(v) for v in C_grid)
    gammas = sorted(float(v) for v in gamma_grid)
    if not Cs or not gammas:
        raise ValueError("grids must not be empty")
    plan = stratified_kfold(d, folds, seed)
    splits = [(d.take(plan.train_indices(f)), d.take(plan.test_indices(f)))
              for f in range(folds)]
    best = None
    for C in Cs:
        for gamma in gammas:
            total = 0.0
            failed = False
            for train, test in splits:
                try:
                    model = train_svm(train, subset, C, gamma)
                except SvmTrainingError:
                    failed = True
                    break
                pred = svm_predict_batch(model, test.samples)
                total += float((pred == test.labels).mean())
            acc = 0.0 if failed else total / folds
            if best is None or acc > best[2]:
                best = (C, gamma, acc)
    return best
