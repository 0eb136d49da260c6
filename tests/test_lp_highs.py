"""The MCM training LPs solved by `solve_lp` against HiGHS, a test-only reference."""

import numpy as np
import pytest

from mcmfs.data import apply_standardizer, fit_standardizer, stratified_kfold
from mcmfs.linprog import EQ, LE, LpStatus, solve_lp
from mcmfs.mcm import VARIANT_CLASSIC, VARIANT_PAPER, build_mcm_lp
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


# The classic variant leaves q out of the capacity rows, so its q columns are
# not shared by a sample's two rows and are priced from the full rows; the
# hard margin LP has no q.
CASES = ["100x200 full", *(f"100x200 fold {f}" for f in range(5)), "72x7129 full",
         "62x2000 full", *(f"{case} {variant}" for variant in ("classic", "hard-margin")
                           for case in ("100x200 full", "100x200 fold 2", "72x7129 full"))]


def mcm_training_set(case):
    """The standardized training set of `case`: full data or a training split of 5 folds."""
    shape, split, *rest = case.split()
    m, n = (int(v) for v in shape.split("x"))
    d = make_benchmark_dataset(m=m, n=n)
    if split == "fold":
        f = int(rest[0])
        d = d.take(np.flatnonzero(stratified_kfold(d, 5, 42).assignments != f))
    return apply_standardizer(fit_standardizer(d), d)


@pytest.mark.parametrize("case", CASES)
def test_mcm_lp_objective_matches_highs(case):
    lp = build_mcm_lp(mcm_training_set(case), hard_margin=case.endswith("hard-margin"),
                      variant=VARIANT_CLASSIC if case.endswith("classic") else VARIANT_PAPER)
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(highs_optimum(lp), rel=1e-9, abs=0.0)
