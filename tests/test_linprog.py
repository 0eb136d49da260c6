import numpy as np
import pytest

from mcmfs.linprog import (
    EQ,
    GE,
    LE,
    LinearProgram,
    LpStatus,
    solve_lp,
)
from oracles import enumerate_orthant_lp
from support import dump_lp, lp_of, random_lp


class TestKnownInstances:
    def test_single_tight_constraint(self):
        sol = solve_lp(lp_of([1.0], [([1.0], GE, 1.0)]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_triangle_vertex(self):
        sol = solve_lp(lp_of([-1.0, -1.0], [([1.0, 1.0], LE, 1.0)]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)
        # vertex of the triangle: one coordinate is 0 or the point is a corner
        x, y = sol.x
        assert x + y == pytest.approx(1.0, abs=1e-9)
        assert min(abs(x), abs(y)) < 1e-9 or max(x, y) > 1.0 - 1e-9

    def test_infeasible(self):
        sol = solve_lp(lp_of([1.0], [([1.0], LE, -1.0)]))
        assert sol.status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        sol = solve_lp(lp_of([-1.0], []))
        assert sol.status is LpStatus.UNBOUNDED

    def test_equality_row(self):
        sol = solve_lp(lp_of([1.0, 2.0], [([1.0, 1.0], EQ, 3.0)]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
        np.testing.assert_allclose(sol.x, [3.0, 0.0], atol=1e-9)

    def test_free_variable(self):
        # minimize x with x free and x >= -4: optimum sits at the bound row
        sol = solve_lp(lp_of([1.0], [([1.0], GE, -4.0)], free=[0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-4.0, abs=1e-9)

    def test_degenerate_instance_terminates(self):
        # cycles under naive largest-coefficient pricing without anti-cycling
        c = [-0.75, 150.0, -0.02, 6.0]
        rows = [
            ([0.25, -60.0, -0.04, 9.0], LE, 0.0),
            ([0.5, -90.0, -0.02, 3.0], LE, 0.0),
            ([0.0, 0.0, 1.0, 0.0], LE, 1.0),
        ]
        sol = solve_lp(lp_of(c, rows))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)

    def test_iteration_limit_status(self):
        lp = lp_of([-1.0, -1.0], [
            ([1.0, 0.0], LE, 0.6),
            ([0.0, 1.0], LE, 0.6),
            ([1.0, 1.0], LE, 1.0),
        ])
        sol = solve_lp(lp, max_iters=1)
        assert sol.status is LpStatus.ITERATION_LIMIT
        full = solve_lp(lp)
        assert full.status is LpStatus.OPTIMAL
        assert full.objective_value == pytest.approx(-1.0, abs=1e-9)


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            lp_of([np.nan], [([1.0], LE, 1.0)])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(np.array([1.0, 1.0]), np.array([[1.0]]), (LE,),
                          np.array([1.0]), np.zeros(2, dtype=bool))

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            lp_of([1.0], [([1.0], "<", 1.0)])

    def test_bad_tolerances_rejected(self):
        lp = lp_of([1.0], [([1.0], GE, 1.0)])
        with pytest.raises(ValueError):
            solve_lp(lp, feas_tol=0.0)
        with pytest.raises(ValueError):
            solve_lp(lp, max_iters=0)


class TestDump:
    def test_layout(self):
        lp = lp_of([1.0, -2.0], [([1.0, 1.0], LE, 3.0)], free=[1])
        text = dump_lp(lp)
        lines = text.splitlines()
        assert lines[0].startswith("minimize ")
        assert lines[1].endswith("<= 3")
        assert lines[2] == "free 1"
        assert text.endswith("\n")


def check_dual_certificate(lp, sol, tol=1e-6):
    if sol.duals is None:
        return
    y = sol.duals
    assert float(y @ lp.b) == pytest.approx(sol.objective_value, abs=tol)
    reduced = lp.c - lp.A.T @ y
    assert np.all(reduced[~lp.lower_free] >= -tol)
    assert np.all(np.abs(reduced[lp.lower_free]) <= tol)
    for i, r in enumerate(lp.rel):
        if r == LE:
            assert y[i] <= tol
        elif r == GE:
            assert y[i] >= -tol


class TestRandomAgainstEnumeration:
    def test_statuses_and_objectives_match(self):
        rng = np.random.default_rng(2024)
        checked = 0
        statuses = set()
        while checked < 60:
            lp = random_lp(rng, max_vars=5, max_rows=5)
            status, best = enumerate_orthant_lp(lp.c, lp.A, lp.rel, lp.b)
            sol = solve_lp(lp)
            assert sol.status.value == status, dump_lp(lp)
            if status == "Optimal":
                assert sol.objective_value == pytest.approx(best, abs=1e-7), dump_lp(lp)
                check_dual_certificate(lp, sol)
                # vertex property: few variables strictly off their bounds
                assert int(np.sum(sol.x > 1e-7)) <= lp.n_rows
                # every row satisfied within tolerance
                act = lp.A @ sol.x
                for i, r in enumerate(lp.rel):
                    if r == LE:
                        assert act[i] <= lp.b[i] + 1e-7
                    elif r == GE:
                        assert act[i] >= lp.b[i] - 1e-7
                    else:
                        assert act[i] == pytest.approx(lp.b[i], abs=1e-7)
                assert np.all(sol.x >= -1e-9)
            statuses.add(status)
            checked += 1
        assert "Optimal" in statuses and len(statuses) >= 2
