"""The MCM training LPs solved by `solve_lp` against HiGHS, a test-only reference."""

import numpy as np
import pytest

from mcmfs.data import apply_standardizer, fit_standardizer, stratified_kfold
from mcmfs.linprog import EQ, LE, LpStatus, solve_lp
from mcmfs.mcm import build_mcm_lp
from support import make_benchmark_dataset

optimize = pytest.importorskip(
    "scipy.optimize", reason="scipy provides the HiGHS reference; the runtime needs numpy only")


def highs_optimum(lp) -> float:
    sign = np.array([1.0 if r == LE else -1.0 for r in lp.rel])
    ineq = np.array([r != EQ for r in lp.rel])
    assert ineq.all()
    res = optimize.linprog(lp.c, A_ub=sign[:, None] * lp.A, b_ub=sign * lp.b,
                           bounds=[(None, None) if f else (0, None) for f in lp.lower_free],
                           method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


CASES = ["100x200 full", *(f"100x200 fold {f}" for f in range(5)), "72x7129 full"]


def mcm_training_set(case):
    """The standardized training set of `case`: full data or a training split of 5 folds."""
    if case.startswith("72x7129"):
        d = make_benchmark_dataset(m=72, n=7129)
    else:
        d = make_benchmark_dataset()
    if "fold" in case:
        f = int(case.split()[-1])
        d = d.take(np.flatnonzero(stratified_kfold(d, 5, 42).assignments != f))
    return apply_standardizer(fit_standardizer(d), d)


@pytest.mark.parametrize("case", CASES)
def test_mcm_lp_objective_matches_highs(case):
    lp = build_mcm_lp(mcm_training_set(case))
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(highs_optimum(lp), rel=1e-9, abs=0.0)
