import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mcmfs import linprog
from mcmfs.linprog import (
    EQ,
    GE,
    LE,
    LinearProgram,
    LpStatus,
    solve_lp,
)
from oracles import enumerate_orthant_lp
from support import (assert_identity_start_changes_nothing, drift_basic_values, dump_lp,
                     invert_identity_starts, lp_of, random_lp)


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


@st.composite
def lps_with_a_free_run(draw):
    """(lp, lo, hi): an LP of `lps_with_free_variables` whose free variables are lo..hi-1."""
    lp = draw(lps_with_free_variables())
    lo = draw(st.integers(0, lp.n_vars - 1))
    hi = draw(st.integers(lo + 1, lp.n_vars))
    free = np.zeros(lp.n_vars, dtype=bool)
    free[lo:hi] = True
    return LinearProgram(lp.c, lp.A, lp.rel, lp.b, free), lo, hi


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

    @given(lps_with_a_free_run())
    # the objectives 0.5 and 0.5000000000000001 of the same point: c @ x sums
    # three terms here and four in the twin
    @example((LinearProgram([1.0, 1.0, 1.0], [[0.0, 1.0, -1.0], [1.0, 1.0, 0.0], [-1.0, -3.0, 0.0]],
                            (LE, EQ, LE), [0.0, 0.0, -1.0], [True, True, True]), 0, 3))
    def test_consecutive_free_run_pivots_like_the_lp_split_by_hand(self, case):
        # With free variables lo..hi-1 only, the standard form is the LP split by
        # hand with the x- columns at hi: the same pivots and point, bit for bit.
        lp, lo, hi = case
        twin = split_by_hand(lp, at=hi)
        sol, ref = solve_lp(lp), solve_lp(twin)
        assert (sol.status, sol.iterations) == (ref.status, ref.iterations), dump_lp(lp)
        if sol.status is LpStatus.OPTIMAL:
            x = np.concatenate([ref.x[:lo], ref.x[lo:hi] - ref.x[hi:2 * hi - lo],
                                ref.x[2 * hi - lo:]])
            np.testing.assert_array_equal(sol.x, x)
            # each objective is its own LP's c @ x, summed over vectors of different lengths
            assert sol.objective_value == float(lp.c @ sol.x)
            assert ref.objective_value == float(twin.c @ ref.x)


def paired_lp_matrix(rng, pairs, V, unequal=0.3):
    """Entries in (-0.4, 0.4); row pairs equal on every column but a random share `unequal`."""
    A = rng.uniform(-0.4, 0.4, size=(2 * pairs, V))
    A[1::2] = A[0::2]
    differ = rng.random((pairs, V)) < unequal
    A[1::2][differ] = rng.uniform(-0.4, 0.4, size=int(differ.sum()))
    return A


def slack_basis_state(A, free):
    """The simplex state of rows A x <= 1 at the slack basis, stored as `solve_lp` stores it."""
    R, V = A.shape
    free_idx = np.flatnonzero(free)
    at = int(free_idx[-1]) + 1 if free_idx.size else V
    S = np.hstack([A, np.eye(R)])
    return linprog._SimplexState(S, np.ones(R), V + free_idx.size + np.arange(R), at, free_idx,
                                 linprog._PairedRun.find(S, at, free_idx))


def standard_form(A, free):
    """The standard-form columns: the negated copies follow the last free variable."""
    free_idx = np.flatnonzero(free)
    at = int(free_idx[-1]) + 1 if free_idx.size else A.shape[1]
    return np.hstack([A[:, :at], -A[:, free_idx], A[:, at:], np.eye(A.shape[0])])


def longest_paired_run(std):
    """Mask of the first longest run of columns on which rows 2i and 2i+1 agree."""
    mask = np.zeros(std.shape[1], dtype=bool)
    if std.shape[0] % 2:
        return mask
    best, start = (0, 0), None
    for j in range(std.shape[1] + 1):
        agree = j < std.shape[1] and all(std[2 * i, j] == std[2 * i + 1, j]
                                         for i in range(std.shape[0] // 2))
        if agree and start is None:
            start = j
        elif not agree and start is not None:
            if j - start > best[1] - best[0]:
                best = (start, j)
            start = None
    mask[best[0]:best[1]] = True
    return mask


def priced_from_summed_rows(state, pair):
    """Mask of the columns priced from rows 2*pair and 2*pair + 1 summed.

    Both rows' prices are 1e308 and every entry lies in (-0.4, 0.4): the
    summed price overflows to inf, so the product is inf or nan, while a
    product over the full rows stays below 0.8e308, in any summation order.
    """
    y = np.zeros(state.S.shape[0])
    y[2 * pair:2 * pair + 2] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        return ~np.isfinite(state.products(y))


class TestPairedRows:
    # Rows 2i and 2i+1 that agree on a run of standard-form columns price that
    # run from their sum: (y[2i] + y[2i+1]) * a instead of y[2i] * a + y[2i+1] * a.
    # The run is found in standard-form order, so the LP split by hand, which
    # stores the negated copies, prices the same columns from the summed rows.
    @given(st.integers(0, 2**32 - 1))
    def test_prices_like_the_lp_split_by_hand(self, seed):
        rng = np.random.default_rng(seed)
        A = paired_lp_matrix(rng, int(rng.integers(1, 4)), int(rng.integers(1, 9)))
        free = rng.random(A.shape[1]) < 0.5
        std = standard_form(A, free)
        state = slack_basis_state(A, free)
        twin = slack_basis_state(std[:, :-A.shape[0]], np.zeros(std.shape[1] - A.shape[0], bool))
        expected = longest_paired_run(std)
        for pair in range(A.shape[0] // 2):
            np.testing.assert_array_equal(priced_from_summed_rows(state, pair), expected)
            np.testing.assert_array_equal(priced_from_summed_rows(twin, pair), expected)
        y = rng.normal(size=A.shape[0])
        np.testing.assert_allclose(state.products(y), y @ std, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(twin.products(y), y @ std, rtol=1e-13, atol=1e-15)

    def test_copy_in_the_run_apart_from_its_partner(self):
        # x0 and x2 are free, and the rows agree on x0, x2 and x3 but not x1:
        # the standard form x0 x1 x2 -x0 -x2 x3 pairs as Y N Y Y Y Y, so -x0
        # lies in the run while x0 does not.
        A = paired_lp_matrix(np.random.default_rng(1), 2, 4, unequal=0.0)
        A[3, 1] += 0.1
        state = slack_basis_state(A, [True, False, True, False])
        assert (state.run.lo, state.run.hi) == (2, 4)
        np.testing.assert_array_equal(state.run.W, A[0::2, 2:4])
        np.testing.assert_array_equal(state.run.half_at, [3])
        assert state.run.full_at.size == 0
        assert priced_from_summed_rows(state, 1)[:6].tolist() == [False, False] + [True] * 4

    def test_copy_outside_the_run_apart_from_its_partner(self):
        # x0 x1 -x0 -x1 pairs as N Y N Y: the first of the two longest runs, x1,
        # is priced from the summed rows, and -x1 from the full rows.
        A = paired_lp_matrix(np.random.default_rng(2), 1, 2, unequal=0.0)
        A[1, 0] += 0.1
        state = slack_basis_state(A, [True, True])
        assert (state.run.lo, state.run.hi) == (1, 2)
        np.testing.assert_array_equal(state.run.full_at, [3])
        assert priced_from_summed_rows(state, 0)[:4].tolist() == [False, True, False, False]

    def test_without_paired_rows_every_column_is_priced_from_the_full_rows(self):
        A = paired_lp_matrix(np.random.default_rng(3), 2, 5, unequal=1.0)
        assert slack_basis_state(A, np.zeros(5, dtype=bool)).run is None
        assert slack_basis_state(np.ones((3, 4)), np.zeros(4, dtype=bool)).run is None

    def test_one_unequal_entry_is_priced_from_the_full_rows(self, monkeypatch):
        # The two rows of pair 2 differ on x3 only: the run stops before x3,
        # x3 is priced from the full rows, and the solve pivots as one that
        # prices every column from the full rows.
        rng = np.random.default_rng(5)
        A = paired_lp_matrix(rng, 3, 6, unequal=0.0)
        A[5, 3] += 0.1
        state = slack_basis_state(A, np.zeros(6, dtype=bool))
        assert (state.run.lo, state.run.hi) == (0, 3)
        assert not priced_from_summed_rows(state, 2)[3]
        lp = LinearProgram(rng.uniform(-1.0, 1.0, size=6), A, (LE, GE) * 3,
                           np.tile([1.0, -1.0], 3), np.zeros(6, dtype=bool))
        sol = solve_lp(lp)
        monkeypatch.setattr(linprog._PairedRun, "find", staticmethod(lambda *args: None))
        ref = solve_lp(lp)
        assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
        assert sol.objective_value == pytest.approx(ref.objective_value, rel=1e-12)

    @staticmethod
    def paired_rows_lp(rng):
        # x >= 0 under a.x <= 1 and a.x <= 2 for three rows a, and sum(x) <= 3
        # and <= 4: every pair agrees on x0..x5, so the run spans them.
        A = np.vstack([paired_lp_matrix(rng, 3, 6, unequal=0.0), np.ones((2, 6))])
        return LinearProgram(rng.uniform(-1.0, 1.0, size=6), A, (LE,) * 8,
                             [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 3.0, 4.0], np.zeros(6, dtype=bool))

    def test_fault_under_paired_pricing_solves_again_from_the_full_rows(self, monkeypatch):
        lp = self.paired_rows_lp(np.random.default_rng(6))
        monkeypatch.setattr(linprog._PairedRun, "find", staticmethod(lambda *args: None))
        ref = solve_lp(lp)
        monkeypatch.undo()
        runs = []
        iterate = linprog._iterate

        def faulty(state, *args):
            runs.append(state.run)
            if state.run is not None:
                raise ArithmeticError("singular basis matrix")
            return iterate(state, *args)

        monkeypatch.setattr(linprog, "_iterate", faulty)
        sol = solve_lp(lp)
        assert runs[0] is not None and runs[1:] == [None]
        assert (sol.status, sol.iterations, sol.objective_value) == (
            ref.status, ref.iterations, ref.objective_value)
        np.testing.assert_array_equal(sol.x, ref.x)
        np.testing.assert_array_equal(sol.duals, ref.duals)

    def test_fault_under_full_pricing_too_is_raised(self, monkeypatch):
        lp = self.paired_rows_lp(np.random.default_rng(6))
        drift_basic_values(monkeypatch, -10.0)
        runs = []
        drifted = linprog._iterate

        def spy(state, *args):
            runs.append(state.run)
            return drifted(state, *args)

        monkeypatch.setattr(linprog, "_iterate", spy)
        with pytest.raises(ArithmeticError, match="violates a constraint"):
            solve_lp(lp)
        assert runs[0] is not None and runs[1:] == [None]

    def test_redundant_row_dropped_in_drive_out_prices_from_the_full_rows(self, monkeypatch):
        # Rows 0 and 1 are the same equality: phase 1 ends with an artificial
        # of one of them basic at zero, and the drive-out drops its row.
        lp = lp_of([1.0, 2.0, 0.5], [([1.0, 1.0, 2.0], EQ, 2.0), ([1.0, 1.0, 2.0], EQ, 2.0),
                                     ([1.0, -1.0, 0.0], LE, 1.0), ([1.0, -1.0, 0.0], GE, 0.0)])
        seen = []
        drive_out = linprog._drive_out_artificials

        def spy(state, n_real):
            seen.append(state.run)
            seen.append(drive_out(state, n_real))
            return seen[-1]

        monkeypatch.setattr(linprog, "_drive_out_artificials", spy)
        sol = solve_lp(lp)
        before, after = seen
        assert (before.lo, before.hi) == (0, 3)
        assert after.S.shape[0] == 3 and after.run is None
        status, best = enumerate_orthant_lp(lp.c, lp.A, lp.rel, lp.b)
        assert (sol.status.value, status) == ("Optimal", "Optimal")
        assert sol.objective_value == pytest.approx(best, abs=1e-9)
        assert sol.duals is None


class TestIdentityStart:
    # Every starting basis column is a slack or an artificial with +1 on its
    # own row, so the first state and the full-pricing retry take B^-1 = I and
    # x_B = b without inverting: the bits that inverting gives.
    @given(st.integers(0, 2**32 - 1))
    def test_equals_inverting_the_start(self, seed):
        # negative right-hand sides, >= and == rows: artificials in the start
        assert_identity_start_changes_nothing(random_lp(np.random.default_rng(seed)))

    def test_negative_zero_right_hand_side_starts_at_zero(self):
        lp = lp_of([1.0, 1.0], [([1.0, 1.0], GE, -0.0), ([1.0, -1.0], LE, -0.0)])
        assert_identity_start_changes_nothing(lp)

    def test_retry_after_a_paired_fault_equals_inverting_its_start(self, monkeypatch):
        lp = TestPairedRows.paired_rows_lp(np.random.default_rng(6))
        starts = invert_identity_starts(monkeypatch)
        iterate = linprog._iterate

        def faulty(state, *args):
            if state.run is not None:
                raise ArithmeticError("singular basis matrix")
            return iterate(state, *args)

        monkeypatch.setattr(linprog, "_iterate", faulty)
        assert solve_lp(lp).status is LpStatus.OPTIMAL
        assert len(starts) == 2   # the faulting solve and its retry
        for given, inverted in starts:
            assert [v.tobytes() for v in given] == [v.tobytes() for v in inverted]
