import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcmfs.linprog import (
    EQ,
    GE,
    LE,
    LinearProgram,
    LpStatus,
    solve_lp,
)
from oracles import enumerate_orthant_lp
from support import drift_basic_values, dump_lp, lp_of, random_lp


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


class TestReturnedPointChecked:
    """An "optimum" that breaks a row or bound is a solver fault, not an answer."""

    LP = lp_of([1.0, 1.0], [([1.0, 1.0], GE, 2.0), ([1.0, -1.0], LE, 1.0)])

    def test_drift_within_tolerance_is_accepted(self, monkeypatch):
        drift_basic_values(monkeypatch, -1e-8)
        sol = solve_lp(self.LP)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("shift", [-1e-4, -10.0])
    def test_drifted_basic_values_raise(self, monkeypatch, shift):
        drift_basic_values(monkeypatch, shift)
        with pytest.raises(ArithmeticError, match="optimum violates a constraint by"):
            solve_lp(self.LP)


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


@st.composite
def lps_with_free_variables(draw):
    """Small integer LPs with free variables; some columns repeat or negate another."""
    V = draw(st.integers(1, 4))
    R = draw(st.integers(1, 4))
    ints = st.integers(-3, 3)
    A = np.array(draw(st.lists(st.lists(ints, min_size=V, max_size=V), min_size=R,
                               max_size=R)), dtype=np.float64)
    c = np.array(draw(st.lists(ints, min_size=V, max_size=V)), dtype=np.float64)
    free = draw(st.lists(st.booleans(), min_size=V, max_size=V))
    for src, sign in draw(st.lists(st.tuples(st.integers(0, V - 1), st.sampled_from([1.0, -1.0])),
                                   max_size=3)):
        A = np.hstack([A, sign * A[:, [src]]])
        c = np.append(c, sign * c[src])
        free.append(draw(st.booleans()))
    b = draw(st.lists(ints, min_size=R, max_size=R))
    rel = tuple(draw(st.lists(st.sampled_from([LE, GE, EQ]), min_size=R, max_size=R)))
    return LinearProgram(c, A, rel, b, free)


def split_by_hand(lp, at=None):
    """The same LP with each free x_j replaced by x_j+ - x_j-, both nonnegative.

    The x_j- columns go before column `at`, by default after every variable.
    """
    free = np.flatnonzero(lp.lower_free)
    at = lp.n_vars if at is None else at
    c = np.concatenate([lp.c[:at], -lp.c[free], lp.c[at:]])
    A = np.hstack([lp.A[:, :at], -lp.A[:, free], lp.A[:, at:]])
    return LinearProgram(c, A, lp.rel, lp.b, np.zeros(c.shape[0], dtype=bool))


class TestFreeColumnsStoredOnce:
    @given(lps_with_free_variables())
    def test_matches_the_lp_split_by_hand(self, lp):
        sol, ref = solve_lp(lp), solve_lp(split_by_hand(lp))
        assert sol.status is ref.status, dump_lp(lp)
        if sol.status is LpStatus.OPTIMAL:
            assert abs(sol.objective_value - ref.objective_value) <= 1e-9, dump_lp(lp)
            assert sol.objective_value == pytest.approx(float(lp.c @ sol.x), abs=1e-9)

    @given(lps_with_free_variables(), st.data())
    def test_consecutive_free_run_pivots_like_the_lp_split_by_hand(self, lp, data):
        # With free variables lo..hi-1 only, the standard form is the LP split by
        # hand with the x- columns at hi: the same pivots, bit for bit.
        lo = data.draw(st.integers(0, lp.n_vars - 1))
        hi = data.draw(st.integers(lo + 1, lp.n_vars))
        free = np.zeros(lp.n_vars, dtype=bool)
        free[lo:hi] = True
        lp = LinearProgram(lp.c, lp.A, lp.rel, lp.b, free)
        sol, ref = solve_lp(lp), solve_lp(split_by_hand(lp, at=hi))
        assert (sol.status, sol.iterations) == (ref.status, ref.iterations), dump_lp(lp)
        if sol.status is LpStatus.OPTIMAL:
            x = np.concatenate([ref.x[:lo], ref.x[lo:hi] - ref.x[hi:2 * hi - lo],
                                ref.x[2 * hi - lo:]])
            np.testing.assert_array_equal(sol.x, x)
            assert sol.objective_value == ref.objective_value
