"""Sparse linear classifier trained by minimizing a capacity bound through an LP.

The trainer minimizes h + C*sum(q) where h caps every signed margin from
above, the margins stay >= 1 up to slack, and the weights are free variables
of the linear program.  Features whose trained weight magnitude clears a
relative threshold form the selected set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import (DataError, Dataset, Standardizer, document_fields, document_text,
                   fmt17, fmt17_join, require_two_classes, standardizer_from_fields)
from .linprog import GE, LE, LinearProgram, LpStatus, solve_lp

VARIANT_PAPER = "paper"      # slack enters both the capacity and the margin rows
VARIANT_CLASSIC = "classic"  # capacity rows cap the raw margin, slack only in margin rows
_VARIANTS = (VARIANT_PAPER, VARIANT_CLASSIC)

REL_TOL = 1e-6
ABS_FLOOR = 1e-10


class McmTrainingError(RuntimeError):
    """The training LP did not reach an optimum; `status` carries the solver verdict."""

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class McmModel:
    """Trained hyperplane with its capacity value and per-sample slacks.

    `selected` holds the 0-based indices of features whose weight magnitude
    exceeded `threshold_used` at training time.  `C` is +inf for hard-margin
    models (no slack term in the objective).  The weights, bias, capacity and
    threshold must be finite.
    """

    weights: np.ndarray
    bias: float
    capacity: float
    slacks: np.ndarray
    C: float
    variant: str
    selected: tuple[int, ...]
    threshold_used: float
    objective_value: float
    lp_iterations: int

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        slacks = np.array(self.slacks, dtype=np.float64)
        weights.setflags(write=False)
        slacks.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "slacks", slacks)
        object.__setattr__(self, "selected", tuple(int(j) for j in self.selected))
        scalars = (self.bias, self.capacity, self.threshold_used)
        if not (np.isfinite(weights).all() and np.isfinite(scalars).all()):
            raise ValueError("weights, bias, capacity and threshold must be finite")

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]


def build_mcm_lp(d: Dataset, C: float = 1.0, hard_margin: bool = False,
                 variant: str = VARIANT_PAPER) -> LinearProgram:
    """Assemble the training LP over variables (h, w, b+, b-, q), with w free.

    Soft margin: minimize h + C*sum(q) subject to, per sample i with margin
    u_i = y_i*(w.x_i + b),
        capacity rows:  u_i + q_i <= h   ("paper" variant; "classic" drops q_i)
        margin rows:    u_i + q_i >= 1
    Hard margin drops q entirely and minimizes h alone.  `solve_lp` splits
    the free w into nonnegative parts and places their negated columns after
    w, so the standard form's columns run h, w+, w-, b+, b-, q: b is split
    here to keep that order, which Bland's rule and the pivot ties follow.
    """
    require_two_classes(d)
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not hard_margin and C <= 0:
        raise ValueError("C must be positive")

    X = d.samples
    y = d.labels.astype(np.float64)
    M, n = X.shape
    n_vars = n + 3 + (0 if hard_margin else M)

    # One (capacity, margin) row pair per sample.
    A = np.zeros((M, 2, n_vars))
    A[:, :, 1:n + 1] = (y[:, None] * X)[:, None, :]
    A[:, :, n + 1] = y[:, None]
    A[:, :, n + 2] = -y[:, None]
    A[:, 0, 0] = -1.0
    if not hard_margin:
        rows, qcols = np.arange(M), n + 3 + np.arange(M)
        A[rows, 1, qcols] = 1.0
        if variant == VARIANT_PAPER:
            A[rows, 0, qcols] = 1.0
    rel = (LE, GE) * M
    b = np.zeros(2 * M)
    b[1::2] = 1.0
    c = np.zeros(n_vars)
    c[0] = 1.0
    if not hard_margin:
        c[n + 3:] = C
    free = np.zeros(n_vars, dtype=bool)
    free[1:n + 1] = True
    return LinearProgram(c, A.reshape(2 * M, n_vars), rel, b, free)


def _threshold_select(weights: np.ndarray, rel_tol: float,
                      abs_floor: float = ABS_FLOOR) -> tuple[tuple[int, ...], float]:
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    scale = float(np.abs(weights).max(initial=0.0))
    threshold = max(rel_tol * scale, abs_floor)
    selected = tuple(int(j) for j in np.flatnonzero(np.abs(weights) > threshold))
    return selected, threshold


def train_mcm(d: Dataset, C: float = 1.0, variant: str = VARIANT_PAPER,
              hard_margin: bool = False, rel_tol: float = REL_TOL) -> McmModel:
    """Solve the training LP and package the hyperplane.

    Raises McmTrainingError when the LP ends anywhere but Optimal; the hard
    margin variant is Infeasible exactly when the classes cannot be separated.
    """
    lp = build_mcm_lp(d, C=C, hard_margin=hard_margin, variant=variant)
    sol = solve_lp(lp)
    if sol.status is not LpStatus.OPTIMAL:
        raise McmTrainingError(f"training failed: LP status {sol.status.value}",
                               status=sol.status)
    n, M = d.n_features, d.n_samples
    x = sol.x
    capacity = float(x[0])
    weights = x[1:n + 1]
    bias = float(x[n + 1] - x[n + 2])
    slacks = np.zeros(M) if hard_margin else x[n + 3:].copy()
    selected, threshold = _threshold_select(weights, rel_tol)
    return McmModel(
        weights=weights,
        bias=bias,
        capacity=capacity,
        slacks=slacks,
        C=float("inf") if hard_margin else float(C),
        variant=variant,
        selected=selected,
        threshold_used=threshold,
        objective_value=float(sol.objective_value),
        lp_iterations=sol.iterations,
    )


def reselect(model: McmModel, rel_tol: float) -> McmModel:
    """Copy of `model` with the selection recomputed at a different rel_tol."""
    selected, threshold = _threshold_select(model.weights, rel_tol)
    return replace(model, selected=selected, threshold_used=threshold)


def mcm_classify(model: McmModel, X) -> np.ndarray:
    """Predicted labels for a sample matrix; a decision value of 0 maps to +1."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != model.n_features:
        raise ValueError(f"expected samples with {model.n_features} features")
    vals = X @ model.weights + model.bias
    return np.where(vals >= 0.0, 1, -1).astype(np.int64)


def vc_bound_term(gamma_proxy: float, m_samples: int, eta: float) -> float:
    """sqrt((g*(1 + ln(2M)/g) - ln(eta/4)) / M) with natural logarithms.

    `gamma_proxy` stands in for the capacity estimate (h squared in the
    diagnostics), M is the sample count, eta the confidence level.
    """
    if m_samples < 1:
        raise ValueError("m_samples must be at least 1")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if gamma_proxy <= 0.0:
        raise ValueError("gamma_proxy must be positive")
    g = float(gamma_proxy)
    return math.sqrt((g * (1.0 + math.log(2 * m_samples) / g) - math.log(eta / 4.0)) / m_samples)


def mcm_model_to_text(model: McmModel, standardizer: Standardizer | None = None) -> str:
    """Plain-text model document."""
    lines = [
        "mcm-model v1",
        f"n {model.n_features}",
        f"C {fmt17(model.C)}",
        f"variant {model.variant}",
        f"b {fmt17(model.bias)}",
        f"h {fmt17(model.capacity)}",
        f"threshold {fmt17(model.threshold_used)}",
        f"objective {fmt17(model.objective_value)}",
        "w " + fmt17_join(model.weights),
        "selected " + (" ".join(str(j) for j in model.selected) if model.selected else "-"),
    ]
    return document_text(lines, standardizer)


def mcm_model_from_text(text: str) -> tuple[McmModel, Standardizer | None]:
    fields, _ = document_fields(text, "mcm-model")
    try:
        n = int(fields["n"])
        weights = np.array([float(v) for v in fields["w"].split()], dtype=np.float64)
        selected = () if fields["selected"] == "-" else tuple(
            int(j) for j in fields["selected"].split())
        model = McmModel(
            weights=weights,
            bias=float(fields["b"]),
            capacity=float(fields["h"]),
            slacks=np.zeros(0),
            C=float(fields["C"]),
            variant=fields["variant"],
            selected=selected,
            threshold_used=float(fields["threshold"]),
            objective_value=float(fields.get("objective", "nan")),
            lp_iterations=0,
        )
        standardizer = standardizer_from_fields(fields)
    except (KeyError, ValueError) as exc:
        raise DataError(f"malformed mcm-model document: {exc}") from None
    if model.n_features != n:
        raise DataError("weight count does not match the declared dimension")
    return model, standardizer
