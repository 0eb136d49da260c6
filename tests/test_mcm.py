import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcmfs.data import DataError, Standardizer
from mcmfs.linprog import GE, LE, LpStatus
from mcmfs.mcm import (
    ABS_FLOOR,
    REL_TOL,
    VARIANT_CLASSIC,
    VARIANT_PAPER,
    McmModel,
    McmTrainingError,
    build_mcm_lp,
    margin_ratio,
    mcm_classify,
    mcm_decision,
    mcm_model_from_text,
    mcm_model_to_text,
    reselect,
    train_mcm,
    vc_bound_term,
)
from oracles import margin_machine_optimum
from support import make_dataset, random_two_class

TINY_PAIR = make_dataset([[1.0], [-1.0]], [1, -1])


def dummy_model(w, slacks=2):
    return McmModel(
        weights=np.asarray(w, dtype=np.float64),
        bias=0.0,
        capacity=1.0,
        slacks=np.zeros(slacks),
        C=1.0,
        variant=VARIANT_PAPER,
        selected=(),
        threshold_used=0.0,
        objective_value=1.0,
        lp_iterations=0,
    )


class TestLpConstruction:
    def test_soft_margin_shape(self):
        lp = build_mcm_lp(TINY_PAIR, C=1.0)
        assert lp.n_rows == 4
        assert lp.n_vars == 7

    def test_hard_margin_shape(self):
        lp = build_mcm_lp(TINY_PAIR, hard_margin=True)
        assert lp.n_rows == 4
        assert lp.n_vars == 5

    def test_objective_coefficients(self):
        lp = build_mcm_lp(TINY_PAIR, C=2.5)
        coeffs = sorted(lp.c.tolist())
        assert coeffs == [0.0, 0.0, 0.0, 0.0, 1.0, 2.5, 2.5]

    def test_row_relations(self):
        lp = build_mcm_lp(TINY_PAIR, C=1.0)
        cap_rows = [i for i, r in enumerate(lp.rel) if r == LE]
        margin_rows = [i for i, r in enumerate(lp.rel) if r == GE]
        assert len(cap_rows) == len(margin_rows) == 2
        assert all(lp.b[i] == 0.0 for i in cap_rows)
        assert all(lp.b[i] == 1.0 for i in margin_rows)

    def test_nonpositive_c_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            build_mcm_lp(TINY_PAIR, C=0.0)

    def test_single_class_rejected(self):
        d = make_dataset([[1.0], [2.0]], [1, 1])
        with pytest.raises(DataError, match="single-class"):
            build_mcm_lp(d, C=1.0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            build_mcm_lp(TINY_PAIR, C=1.0, variant="other")


class TestTraining:
    def test_tiny_pair(self):
        m = train_mcm(TINY_PAIR, C=100.0)
        assert m.capacity == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(m.slacks, 0.0, atol=1e-9)
        assert m.weights[0] == pytest.approx(1.0, abs=1e-9)
        assert m.bias == pytest.approx(0.0, abs=1e-9)
        margins = TINY_PAIR.labels * (TINY_PAIR.samples @ m.weights + m.bias)
        np.testing.assert_allclose(margins, 1.0, atol=1e-9)
        assert m.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_duplication_keeps_solution(self):
        d5 = make_dataset([[1.0], [-1.0]] * 5, [1, -1] * 5)
        a = train_mcm(TINY_PAIR, C=100.0)
        b = train_mcm(d5, C=100.0)
        assert b.capacity == pytest.approx(1.0, abs=1e-9)
        assert b.weights[0] == pytest.approx(a.weights[0], abs=1e-9)
        assert b.bias == pytest.approx(a.bias, abs=1e-9)

    def test_single_class_rejected(self):
        d = make_dataset([[1.0], [2.0]], [-1, -1])
        with pytest.raises(DataError, match="single-class"):
            train_mcm(d)

    def test_hard_margin_separable(self):
        m = train_mcm(TINY_PAIR, hard_margin=True)
        assert m.capacity == pytest.approx(1.0, abs=1e-9)
        assert m.C == float("inf")
        assert m.slacks.shape == (2,)
        np.testing.assert_allclose(m.slacks, 0.0)

    def test_hard_margin_infeasible_data(self):
        d = make_dataset([[0.0], [0.0]], [1, -1])
        with pytest.raises(McmTrainingError) as exc:
            train_mcm(d, hard_margin=True)
        assert exc.value.status is LpStatus.INFEASIBLE

    @pytest.mark.parametrize("variant", [VARIANT_PAPER, VARIANT_CLASSIC])
    def test_feasibility_invariants(self, variant):
        rng = np.random.default_rng(11)
        for _ in range(6):
            d = random_two_class(rng, m=8, n=3)
            m = train_mcm(d, C=1.0, variant=variant)
            f = d.samples @ m.weights + m.bias
            yf = d.labels * f
            assert np.all(m.slacks >= -1e-9)
            if variant == VARIANT_PAPER:
                assert np.all(yf + m.slacks <= m.capacity + 1e-9)
                assert m.capacity >= 1.0 - 1e-9
            else:
                assert np.all(yf <= m.capacity + 1e-9)
            assert np.all(yf + m.slacks >= 1.0 - 1e-9)
            nonzeros = (int(np.sum(np.abs(m.weights) > 1e-9))
                        + int(abs(m.bias) > 1e-9)
                        + int(abs(m.capacity) > 1e-9)
                        + int(np.sum(m.slacks > 1e-9)))
            assert nonzeros <= 2 * d.n_samples

    @pytest.mark.parametrize("variant", [VARIANT_PAPER, VARIANT_CLASSIC])
    def test_objective_matches_enumeration(self, variant):
        rng = np.random.default_rng(404)
        shapes = [(3, 1), (4, 2), (5, 3), (5, 2)]
        for (m_samples, n), C in zip(shapes * 2, [0.1, 1.0, 10.0, 1.0] * 2):
            d = random_two_class(rng, m=m_samples, n=n)
            model = train_mcm(d, C=C, variant=variant)
            oracle = margin_machine_optimum(d.samples, d.labels, C,
                                            paper_variant=variant == VARIANT_PAPER)
            assert model.objective_value == pytest.approx(oracle, abs=1e-6)

    def test_slack_total_non_increasing_in_c(self):
        d = make_dataset([[-2.0], [-1.0], [0.5], [1.0], [2.0], [-0.5]],
                         [-1, -1, -1, 1, 1, 1])
        totals = [float(np.sum(train_mcm(d, C=C).slacks))
                  for C in (0.01, 0.1, 1.0, 10.0, 100.0)]
        for lo, hi in zip(totals[1:], totals):
            assert lo <= hi + 1e-9


class TestSelection:
    def test_single_nonzero(self):
        got = reselect(dummy_model([0.0, 0.0, 3.0]), REL_TOL)
        assert got.selected == (2,)

    def test_tiny_residue_excluded(self):
        got = reselect(dummy_model([1e-12, 0.5, -0.5]), REL_TOL)
        assert got.selected == (1, 2)

    def test_all_zero_selects_nothing(self):
        got = reselect(dummy_model([0.0, 0.0, 0.0]), REL_TOL)
        assert got.selected == ()
        assert got.threshold_used == ABS_FLOOR

    def test_threshold_recorded_on_trained_model(self):
        m = train_mcm(TINY_PAIR, C=100.0)
        expected = max(REL_TOL * float(np.abs(m.weights).max()), ABS_FLOOR)
        assert m.threshold_used == pytest.approx(expected)
        assert m.selected == (0,)

    def test_reselect_updates_copy(self):
        m = dummy_model([0.2, 1.0])
        wide = reselect(m, 0.1)
        narrow = reselect(m, 0.5)
        assert wide.selected == (0, 1)
        assert narrow.selected == (1,)
        assert narrow.threshold_used == pytest.approx(0.5)
        assert m.selected == ()

    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=8),
        st.floats(1e-9, 0.99),
        st.floats(1e-9, 0.99),
    )
    def test_larger_tolerance_never_adds(self, w, tol_a, tol_b):
        lo, hi = sorted((tol_a, tol_b))
        m = dummy_model(w)
        assert set(reselect(m, hi).selected) <= set(reselect(m, lo).selected)


class TestDecision:
    def test_dot_product(self):
        m = dummy_model([1.0, 0.0])
        assert mcm_decision(m, [2.0, 7.0]) == pytest.approx(2.0)

    def test_zero_vector_gives_bias(self):
        m = McmModel(np.array([1.0, 0.0]), 0.25, 1.0, np.zeros(2), 1.0,
                     VARIANT_PAPER, (), 0.0, 1.0, 0)
        assert mcm_decision(m, [0.0, 0.0]) == pytest.approx(0.25)

    def test_zero_decision_maps_to_plus_one(self):
        m = dummy_model([1.0])
        assert mcm_classify(m, [[0.0]]).tolist() == [1]

    def test_dimension_mismatch(self):
        m = dummy_model([1.0, 2.0])
        with pytest.raises(ValueError, match="length-2"):
            mcm_decision(m, [1.0])


class TestMarginRatio:
    def test_equal_margins(self):
        assert margin_ratio(np.array([1.0]), 0.0, TINY_PAIR) == pytest.approx(1.0)

    def test_four_to_two(self):
        d = make_dataset([[4.0], [-2.0]], [1, -1])
        assert margin_ratio(np.array([1.0]), 0.0, d) == pytest.approx(2.0)

    def test_not_separating(self):
        d = make_dataset([[-1.0], [-2.0]], [1, -1])
        with pytest.raises(Exception, match="not separating"):
            margin_ratio(np.array([1.0]), 0.0, d)

    def test_always_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            d = random_two_class(rng, m=6, n=2)
            m = train_mcm(d, C=1000.0)
            if np.all(d.labels * (d.samples @ m.weights + m.bias) > 0):
                assert margin_ratio(m.weights, m.bias, d) >= 1.0 - 1e-12


class TestVcBoundTerm:
    def test_reference_value(self):
        assert vc_bound_term(1.0, 100, 0.05) == pytest.approx(0.3268, abs=1e-3)

    def test_increasing_in_gamma(self):
        assert vc_bound_term(10.0, 100, 0.05) > vc_bound_term(1.0, 100, 0.05)

    def test_vanishes_with_samples(self):
        assert vc_bound_term(1.0, 10 ** 6, 0.05) < 0.01

    def test_formula(self):
        gamma, m_samples, eta = 2.0, 50, 0.1
        radicand = (gamma * (1.0 + np.log(2 * m_samples) / gamma)
                    - np.log(eta / 4.0)) / m_samples
        assert vc_bound_term(gamma, m_samples, eta) == pytest.approx(np.sqrt(radicand))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            vc_bound_term(1.0, 0, 0.05)
        with pytest.raises(ValueError):
            vc_bound_term(1.0, 100, 1.0)
        with pytest.raises(ValueError):
            vc_bound_term(0.0, 100, 0.05)


class TestPersistence:
    def test_round_trip_bit_exact(self):
        m = train_mcm(TINY_PAIR, C=100.0)
        s = Standardizer(np.array([0.125]), np.array([1.75]), 1e-8)
        text = mcm_model_to_text(m, s)
        back, s_back = mcm_model_from_text(text)
        assert np.array_equal(back.weights, m.weights)
        assert back.bias == m.bias
        assert back.capacity == m.capacity
        assert back.C == m.C
        assert back.variant == m.variant
        assert back.selected == m.selected
        assert back.threshold_used == m.threshold_used
        assert np.array_equal(s_back.means, s.means)
        assert np.array_equal(s_back.sds, s.sds)

    def test_hard_margin_round_trip(self):
        m = train_mcm(TINY_PAIR, hard_margin=True)
        back, s_back = mcm_model_from_text(mcm_model_to_text(m))
        assert back.C == float("inf")
        assert s_back is None

    def test_rejects_foreign_text(self):
        with pytest.raises(DataError):
            mcm_model_from_text("just some text\n")
