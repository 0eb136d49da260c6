"""Gaussian-kernel SVM trained by sequential minimal optimization, plus grid search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, require_two_classes, stratified_kfold

DEFAULT_C_GRID = tuple(2.0 ** p for p in range(-5, 17, 2))
DEFAULT_GAMMA_GRID = tuple(2.0 ** p for p in range(-15, 5, 2))
KKT_TOL = 1e-3
# More than 100 times the most SMO steps a benchmark fit has needed (6 997).
MAX_ITER = 1_000_000
TAU = 1e-12  # floor of the second-order term a, as in LIBSVM


class SvmTrainingError(RuntimeError):
    """SMO failed to reach the KKT conditions within MAX_ITER steps."""


@dataclass(frozen=True)
class SvmModel:
    """Support vectors with coefficients alpha_i*y_i and the decision bias.

    `support_samples` is already restricted to `feature_subset`; prediction
    applies the same restriction to incoming full-width samples.  Every value
    must be finite, and `C` and `kernel_gamma` positive.

    `never_at_C` is True only on a model that `train_svm` returns when no
    alpha reached C at any SMO step: SMO then takes the same path at every
    larger C, so these alphas and this bias solve those problems too.  It is
    not part of a model document, and False never allows that reuse.
    """

    support_samples: np.ndarray
    coeffs: np.ndarray
    bias: float
    kernel_gamma: float
    C: float
    feature_subset: tuple[int, ...]
    n_features_in: int
    never_at_C: bool = False

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
        if not (0.0 < self.kernel_gamma < math.inf and 0.0 < self.C < math.inf):
            raise ValueError("C and kernel_gamma must be positive and finite")


def _kernel_matrix(X: np.ndarray, Z: np.ndarray, gamma: float) -> np.ndarray:
    x2 = (X * X).sum(axis=1)
    z2 = (Z * Z).sum(axis=1)
    d2 = np.maximum(x2[:, None] + z2[None, :] - 2.0 * (X @ Z.T), 0.0)
    return np.exp(-gamma * d2)


def _support_floor(C: float) -> float:
    """Alphas at or below this are dropped from a model trained at C."""
    return 1e-10 * max(C, 1.0)


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
              kkt_tol: float = KKT_TOL) -> SvmModel:
    """SMO with second-order working-set selection (Fan, Chen & Lin 2005).

    Tracks F = y - K(alpha*y), which is -y*G for the dual gradient
    G = Q alpha - 1.  Each step takes i, the argmax of F over I_up, and j, the
    member of I_low with the largest second-order gain b^2/a (b = F_i - F_j,
    a = K_ii + K_jj - 2K_ij, clamped to TAU), moves (alpha_i, alpha_j)
    analytically, clipping exactly to 0 or C, and updates F with two kernel
    rows.  It stops when max_{I_up} F - min_{I_low} F < kkt_tol.  The bias is
    the mean of F over free alphas, or the midpoint of those two bounds when
    no alpha is free (Keerthi et al. 2001).  Raises SvmTrainingError after
    MAX_ITER steps.  The model's `never_at_C` records whether every alpha
    stayed below C on every step, not only at the end.
    """
    if not (0.0 < C < math.inf and 0.0 < kernel_gamma < math.inf):
        raise ValueError("C and kernel_gamma must be positive and finite")
    if kkt_tol <= 0:
        raise ValueError("kkt_tol must be positive")
    require_two_classes(d)
    subset = _validate_subset(feature_subset, d.n_features)

    X = d.samples[:, list(subset)]
    y = d.labels.astype(np.float64)
    M = X.shape[0]
    K = _kernel_matrix(X, X, kernel_gamma)
    diag = np.diag(K)
    inv_a = 1.0 / np.maximum(diag[:, None] + diag[None, :] - 2.0 * K, TAU)
    F = y.copy()
    alpha = [0.0] * M
    labels = y.tolist()
    # 0 where a sample belongs to I_up (I_low), -inf (+inf) where it does not
    up_pen = np.where(y > 0, 0.0, -math.inf)
    low_pen = np.where(y < 0, 0.0, math.inf)

    steps = 0
    reached_C = False
    while True:
        F_up = F + up_pen
        i = int(F_up.argmax())
        F_max = float(F_up[i])
        F_low = F + low_pen
        F_min = float(F_low[F_low.argmin()])  # ndarray.min is slower on short rows
        if F_max - F_min < kkt_tol:
            break
        if steps == MAX_ITER:
            raise SvmTrainingError(f"no convergence after {MAX_ITER} iterations "
                                   f"(KKT gap {F_max - F_min:.3g})")
        steps += 1
        gain = np.maximum(F_max - F_low, 0.0)
        gain *= gain
        gain *= inv_a[i]
        j = int(gain.argmax())
        # Move alpha_i by +y_i*t and alpha_j by -y_j*t, t > 0 up to the box.
        yi, yj, ai, aj = labels[i], labels[j], alpha[i], alpha[j]
        room_i = C - ai if yi > 0 else ai
        room_j = aj if yj > 0 else C - aj
        t = min((F_max - float(F[j])) * float(inv_a[i, j]), room_i, room_j)
        alpha[i] = (C if yi > 0 else 0.0) if t == room_i else ai + yi * t
        alpha[j] = (0.0 if yj > 0 else C) if t == room_j else aj - yj * t
        F -= (yi * (alpha[i] - ai)) * K[i] + (yj * (alpha[j] - aj)) * K[j]
        for k in (i, j):
            a, pos = alpha[k], labels[k] > 0
            below_C = a < C
            reached_C = reached_C or not below_C
            up_pen[k] = 0.0 if (below_C if pos else a > 0.0) else -math.inf
            low_pen[k] = 0.0 if (a > 0.0 if pos else below_C) else math.inf

    alpha = np.array(alpha)
    free = (alpha > 0.0) & (alpha < C)
    bias = float(F[free].mean()) if free.any() else 0.5 * (F_max + F_min)
    keep = alpha > _support_floor(C)
    return SvmModel(
        support_samples=X[keep],
        coeffs=(alpha * y)[keep],
        bias=bias,
        kernel_gamma=float(kernel_gamma),
        C=float(C),
        feature_subset=subset,
        n_features_in=d.n_features,
        never_at_C=not reached_C,
    )


def _at_larger_C(model: SvmModel, C: float) -> SvmModel:
    """The solution at C >= model.C of a problem whose SMO path never reached model.C.

    The alphas and bias are the same; only the support floor rises with C.
    """
    keep = np.abs(model.coeffs) > _support_floor(C)
    return SvmModel(model.support_samples[keep], model.coeffs[keep], model.bias,
                    model.kernel_gamma, C, model.feature_subset, model.n_features_in,
                    never_at_C=True)


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


def first_best(d: Dataset, folds: int, seed: int, candidates, predict):
    """The first candidate with the highest stratified k-fold accuracy on `d`.

    `predict(candidate, s, train, test)` trains on split s and returns its
    labels for `test`, or None when training fails; a candidate that fails on
    any split scores 0.  Candidates are scanned in the order given, and only a
    strictly higher accuracy replaces the best, so ties go to the earlier one.
    Before each split the scan adds 1.0 per split left to the running total,
    in the order the real accuracies are added: rounded addition is monotone,
    so that sum bounds what the candidate can still reach.  Once the bound is
    no better than the best accuracy, the remaining splits are skipped, which
    changes no answer.  Returns (candidate, accuracy).
    """
    plan = stratified_kfold(d, folds, seed)
    splits = [(d.take(plan.train_indices(f)), d.take(plan.test_indices(f)))
              for f in range(folds)]
    best = None
    for candidate in candidates:
        total = 0.0
        for s, (train, test) in enumerate(splits):
            if best is not None:
                ceiling = total
                for _ in range(s, folds):
                    ceiling += 1.0
                if ceiling / folds <= best[1]:
                    break  # total <= ceiling, so this candidate ranks below best
            pred = predict(candidate, s, train, test)
            if pred is None:
                total = 0.0
                break
            total += float((pred == test.labels).mean())
        acc = total / folds
        if best is None or acc > best[1]:
            best = (candidate, acc)
    return best


def grid_search(d: Dataset, feature_subset, C_grid=DEFAULT_C_GRID,
                gamma_grid=DEFAULT_GAMMA_GRID, folds: int = 5, seed: int = 42):
    """Pick (C, gamma) by stratified k-fold accuracy on `d` (`first_best`).

    Grids are scanned in ascending order, C outermost, so ties resolve toward
    the smaller C and then the smaller gamma.  A cell whose training fails
    anywhere scores 0.  Returns (C, gamma, cv_accuracy).

    Per split and gamma, the first model trained with `never_at_C` also
    serves every larger C (`_at_larger_C`) instead of being trained again;
    every other split that the scan scores calls `train_svm`.
    """
    subset = _validate_subset(feature_subset, d.n_features)
    Cs = sorted(float(v) for v in C_grid)
    gammas = sorted(float(v) for v in gamma_grid)
    if not Cs or not gammas:
        raise ValueError("grids must not be empty")
    exact = {}  # (split, gamma) -> a model that solves every larger C

    def predict(cell, s, train, test):
        C, gamma = cell
        if (s, gamma) in exact:
            model = _at_larger_C(exact[s, gamma], C)
        else:
            try:
                model = train_svm(train, subset, C, gamma)
            except SvmTrainingError:
                return None
            if model.never_at_C:
                exact[s, gamma] = model
        return svm_predict_batch(model, test.samples)

    (C, gamma), acc = first_best(d, folds, seed,
                                 [(C, gamma) for C in Cs for gamma in gammas], predict)
    return C, gamma, acc
