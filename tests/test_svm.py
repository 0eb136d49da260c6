import numpy as np
import pytest

from mcmfs import svm
from mcmfs.cli import svm_model_from_text, svm_model_to_text
from mcmfs.data import DataError
from mcmfs.svm import (
    SvmModel,
    SvmTrainingError,
    _kernel_matrix,
    grid_search,
    svm_decision_values,
    svm_predict_batch,
    train_svm,
)
from oracles import grid_search_every_cell, kernel_dual_optimum
from support import (
    alphas_for,
    dual_objective,
    gram,
    make_benchmark_dataset,
    make_dataset,
    random_two_class,
    xor_dataset,
)

XOR = xor_dataset()


def max_kkt_violation(model, d):
    y = d.labels.astype(np.float64)
    f = svm_decision_values(model, d.samples)
    yf = y * f
    alpha = alphas_for(model, d)
    edge = 1e-8 * max(model.C, 1.0)
    viol = np.empty(d.n_samples)
    for i in range(d.n_samples):
        if alpha[i] <= edge:
            viol[i] = max(0.0, 1.0 - yf[i])
        elif alpha[i] >= model.C - edge:
            viol[i] = max(0.0, yf[i] - 1.0)
        else:
            viol[i] = abs(yf[i] - 1.0)
    return float(viol.max())


class TestRbfKernel:
    """The batch kernel exp(-gamma * ||x - z||^2) that training and prediction share."""

    def test_identity(self):
        assert _kernel_matrix(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]), 3.0)[0, 0] == 1.0

    def test_unit_distance(self):
        k = _kernel_matrix(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), 0.5)
        assert k[0, 0] == pytest.approx(np.exp(-1.0))

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(1)
        X, Z = rng.normal(size=(10, 4)), rng.normal(size=(7, 4))
        k = _kernel_matrix(X, Z, 0.7)
        assert k.shape == (10, 7)
        np.testing.assert_array_equal(k, _kernel_matrix(Z, X, 0.7).T)
        assert np.all((k > 0.0) & (k <= 1.0))


class TestTrainSvm:
    def test_xor(self):
        m = train_svm(XOR, (0, 1), C=10.0, kernel_gamma=1.0)
        assert svm_predict_batch(m, XOR.samples).tolist() == XOR.labels.tolist()
        assert m.support_samples.shape[0] == 4
        assert abs(float(m.coeffs.sum())) <= 1e-6
        assert np.all(np.abs(m.coeffs) <= 10.0 + 1e-8)

    def test_xor_dual_matches_enumeration(self):
        m = train_svm(XOR, (0, 1), C=10.0, kernel_gamma=1.0)
        K = gram(XOR, (0, 1), 1.0)
        best = kernel_dual_optimum(K, XOR.labels.astype(np.float64), 10.0)
        assert dual_objective(m, XOR) == pytest.approx(best, abs=1e-3)

    def test_one_dimensional_pair(self):
        d = make_dataset([[1.0], [-1.0]], [1, -1])
        m = train_svm(d, (0,), C=1000.0, kernel_gamma=1.0)
        assert svm_predict_batch(m, [[1.0], [-1.0]]).tolist() == [1, -1]
        assert max_kkt_violation(m, d) <= 1e-3

    def test_single_class_rejected(self):
        d = make_dataset([[0.0], [1.0]], [1, 1])
        with pytest.raises(DataError):
            train_svm(d, (0,), C=1.0, kernel_gamma=1.0)

    def test_bad_subsets_rejected(self):
        for subset in ((), (0, 0), (5,), (-1,)):
            with pytest.raises(ValueError):
                train_svm(XOR, subset, C=1.0, kernel_gamma=1.0)

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            train_svm(XOR, (0, 1), C=0.0, kernel_gamma=1.0)
        with pytest.raises(ValueError):
            train_svm(XOR, (0, 1), C=1.0, kernel_gamma=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                train_svm(XOR, (0, 1), C=bad, kernel_gamma=1.0)
            with pytest.raises(ValueError):
                train_svm(XOR, (0, 1), C=1.0, kernel_gamma=bad)

    def test_kkt_postcondition_random(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            d = random_two_class(rng, m=12, n=3)
            m = train_svm(d, (0, 1, 2), C=5.0, kernel_gamma=0.5)
            assert max_kkt_violation(m, d) <= 1e-3
            alpha = alphas_for(m, d)
            assert np.all(alpha >= 0.0) and np.all(alpha <= 5.0 + 1e-8)
            assert abs(float(m.coeffs.sum())) <= 1e-6

    def test_small_instances_match_dual_enumeration(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            m_samples = int(rng.integers(2, 7))
            d = random_two_class(rng, m=m_samples, n=2)
            C = float(rng.choice([0.5, 1.0, 10.0]))
            gamma = float(rng.choice([0.3, 1.0]))
            model = train_svm(d, (0, 1), C=C, kernel_gamma=gamma, kkt_tol=1e-6)
            K = gram(d, (0, 1), gamma)
            best = kernel_dual_optimum(K, d.labels.astype(np.float64), C)
            assert dual_objective(model, d) == pytest.approx(best, abs=1e-3)

    def test_bias_is_kkt_consistent_when_every_alpha_is_at_a_bound(self):
        # Small C and a narrow kernel leave every alpha at 0 or C on many of
        # these sets, so no free alpha pins the bias; it must still satisfy KKT.
        rng = np.random.default_rng(1)
        at_bounds = 0
        for _ in range(200):
            d = random_two_class(rng, m=int(rng.integers(4, 12)), n=int(rng.integers(1, 4)))
            m = train_svm(d, tuple(range(d.n_features)), C=2.0 ** -5, kernel_gamma=2.0)
            alpha = alphas_for(m, d)
            at_bounds += bool(np.all((alpha == 0.0) | (alpha == m.C)))
            assert max_kkt_violation(m, d) <= 1e-3
        assert at_bounds >= 40

    def test_non_convergence_reported(self, monkeypatch):
        monkeypatch.setattr(svm, "MAX_ITER", 3)
        rng = np.random.default_rng(2)
        d = random_two_class(rng, m=30, n=2)
        with pytest.raises(SvmTrainingError, match="after 3 iterations"):
            train_svm(d, (0, 1), C=1.0, kernel_gamma=1.0, kkt_tol=1e-12)


class TestPrediction:
    def test_support_samples_keep_their_labels(self):
        m = train_svm(XOR, (0, 1), C=10.0, kernel_gamma=1.0)
        f = svm_decision_values(m, XOR.samples)
        assert np.sign(f).tolist() == XOR.labels.tolist()

    def test_zero_decision_maps_to_plus_one(self):
        empty = SvmModel(np.empty((0, 1)), np.empty(0), 0.0, 1.0, 1.0, (0,), 2)
        assert svm_decision_values(empty, [3.0, 4.0]).tolist() == [0.0]
        assert svm_predict_batch(empty, [3.0, 4.0]).tolist() == [1]

    def test_empty_support_predicts_bias_sign(self):
        negative = SvmModel(np.empty((0, 1)), np.empty(0), -0.5, 1.0, 1.0, (0,), 1)
        assert svm_predict_batch(negative, [[0.0], [9.0]]).tolist() == [-1, -1]

    def test_dimension_mismatch(self):
        m = train_svm(XOR, (0, 1), C=10.0, kernel_gamma=1.0)
        with pytest.raises(ValueError):
            svm_decision_values(m, [1.0])
        with pytest.raises(ValueError):
            svm_predict_batch(m, np.ones((2, 3)))

    def test_support_order_invariance(self):
        m = train_svm(XOR, (0, 1), C=10.0, kernel_gamma=1.0)
        perm = [2, 0, 3, 1]
        shuffled = SvmModel(m.support_samples[perm], m.coeffs[perm], m.bias,
                            m.kernel_gamma, m.C, m.feature_subset, m.n_features_in)
        rng = np.random.default_rng(4)
        probes = rng.normal(size=(20, 2))
        np.testing.assert_array_equal(svm_predict_batch(m, probes),
                                      svm_predict_batch(shuffled, probes))


def wide_margin_dataset(m=20):
    rng = np.random.default_rng(12)
    X = np.concatenate([rng.normal(-4.0, 0.3, size=(m // 2, 1)),
                        rng.normal(4.0, 0.3, size=(m // 2, 1))])
    return make_dataset(X, [-1] * (m // 2) + [1] * (m // 2))


class TestGridSearch:
    def test_single_point_grid(self):
        C, gamma, acc = grid_search(XOR, (0, 1), C_grid=[10.0], gamma_grid=[1.0],
                                    folds=2)
        assert (C, gamma) == (10.0, 1.0)
        assert 0.0 <= acc <= 1.0

    def test_deterministic(self):
        d = wide_margin_dataset()
        a = grid_search(d, (0,), C_grid=[1.0, 4.0], gamma_grid=[0.25, 1.0], seed=9)
        b = grid_search(d, (0,), C_grid=[1.0, 4.0], gamma_grid=[0.25, 1.0], seed=9)
        assert a == b

    def test_separable_data_reaches_perfect_cell(self):
        d = wide_margin_dataset()
        _, _, acc = grid_search(d, (0,), C_grid=[1.0, 10.0],
                                gamma_grid=[0.05, 0.5])
        assert acc == pytest.approx(1.0)

    def test_ties_break_toward_smaller_values(self):
        d = wide_margin_dataset()
        C, gamma, acc = grid_search(d, (0,), C_grid=[10.0, 1.0],
                                    gamma_grid=[0.5, 0.05])
        assert acc == pytest.approx(1.0)
        assert (C, gamma) == (1.0, 0.05)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search(XOR, (0, 1), C_grid=[], gamma_grid=[1.0])


DEFAULT_GRIDS = (svm.DEFAULT_C_GRID, svm.DEFAULT_GAMMA_GRID)
# The 3x3 subgrid that pipebench's cv workloads search.
SUBGRIDS = ((2.0 ** -5, 2.0 ** 5, 2.0 ** 15), (2.0 ** -15, 2.0 ** -7, 2.0 ** 1))


def record_training(monkeypatch):
    """Replace svm.train_svm with a wrapper that logs (split rows, C, gamma, outcome)."""
    calls = []
    train = svm.train_svm

    def wrapper(d, feature_subset, C, kernel_gamma):
        key = (d.samples.tobytes(), C, kernel_gamma)
        try:
            model = train(d, feature_subset, C, kernel_gamma)
        except SvmTrainingError:
            calls.append(key + ("failed",))
            raise
        calls.append(key + (model.never_at_C,))
        return model

    monkeypatch.setattr(svm, "train_svm", wrapper)
    return calls


class TestGridReuse:
    """grid_search reuses a solution along C only where SMO's path never reached C."""

    def test_reuse_equals_the_solve_at_the_larger_C(self):
        rng = np.random.default_rng(5)
        reused = 0
        for _ in range(40):
            d = random_two_class(rng, m=int(rng.integers(6, 16)), n=2)
            for C in (0.5, 2.0, 8.0):
                model = train_svm(d, (0, 1), C=C, kernel_gamma=1.0)
                if not model.never_at_C:
                    continue
                solved = train_svm(d, (0, 1), C=64.0 * C, kernel_gamma=1.0)
                reuse = svm._at_larger_C(model, 64.0 * C)
                np.testing.assert_array_equal(reuse.coeffs, solved.coeffs)
                np.testing.assert_array_equal(reuse.support_samples, solved.support_samples)
                assert (reuse.bias, reuse.C, reuse.never_at_C) == (solved.bias, solved.C, True)
                reused += 1
        assert reused >= 20

    def test_path_that_touched_C_is_not_marked(self):
        # An alpha reaches C = 2 on the way and ends below it; the solve at a
        # larger C differs, so the final alphas alone must not allow reuse.
        rng = np.random.default_rng(135)
        d = random_two_class(rng, m=int(rng.integers(6, 16)), n=2)
        model = train_svm(d, (0, 1), C=2.0, kernel_gamma=1.0)
        assert alphas_for(model, d).max() < 2.0
        assert not model.never_at_C
        solved = train_svm(d, (0, 1), C=128.0, kernel_gamma=1.0)
        assert not np.array_equal(solved.coeffs, model.coeffs)

    def test_built_and_loaded_models_are_never_reused(self):
        trained = train_svm(XOR, (0, 1), C=10.0, kernel_gamma=1.0)
        assert trained.never_at_C
        loaded, _ = svm_model_from_text(svm_model_to_text(trained))
        built = SvmModel(trained.support_samples, trained.coeffs, trained.bias,
                         trained.kernel_gamma, trained.C, trained.feature_subset,
                         trained.n_features_in)
        assert not loaded.never_at_C and not built.never_at_C

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("m, subset, grids, folds", [
        (40, (0, 1, 6, 8), DEFAULT_GRIDS, 3),
        (60, (0, 7, 9, 11), SUBGRIDS, 2),
    ])
    def test_same_result_as_training_every_cell(self, monkeypatch, seed, m, subset,
                                                grids, folds):
        d = make_benchmark_dataset(m=m, n=30, seed=seed)
        expected = grid_search_every_cell(d, subset, *grids, folds=folds)
        calls = record_training(monkeypatch)
        assert grid_search(d, subset, *grids, folds=folds) == expected
        assert len(calls) <= len(grids[0]) * len(grids[1]) * folds

    def test_cells_below_C_are_not_trained_again(self, monkeypatch):
        d = make_benchmark_dataset(m=40, n=30, seed=1)
        subset = tuple(range(5, 25))
        expected = grid_search_every_cell(d, subset, *DEFAULT_GRIDS)
        calls = record_training(monkeypatch)
        assert grid_search(d, subset) == expected
        assert len(calls) < len(svm.DEFAULT_C_GRID) * len(svm.DEFAULT_GAMMA_GRID) * 5
        first_exact = {}
        for split, C, gamma, outcome in calls:
            assert (split, gamma) not in first_exact, "a reusable cell was trained again"
            if outcome is True:
                first_exact[split, gamma] = C
        assert first_exact

    def test_failed_cells_score_zero_and_are_trained_again(self, monkeypatch):
        monkeypatch.setattr(svm, "MAX_ITER", 40)
        d = make_benchmark_dataset(m=40, n=30, seed=2)
        subset = (0, 1, 6, 8)
        expected = grid_search_every_cell(d, subset, *DEFAULT_GRIDS, folds=3)
        calls = record_training(monkeypatch)
        assert grid_search(d, subset, folds=3) == expected
        Cs = sorted(svm.DEFAULT_C_GRID)
        first_split = calls[0][0]
        failed = [(C, gamma) for split, C, gamma, outcome in calls
                  if split == first_split and outcome == "failed" and C < Cs[-1]]
        assert failed
        trained = {(C, gamma) for split, C, gamma, _ in calls if split == first_split}
        for C, gamma in failed:
            assert (Cs[Cs.index(C) + 1], gamma) in trained

        monkeypatch.setattr(svm, "MAX_ITER", 1)
        assert grid_search(d, subset, C_grid=[1.0, 4.0], gamma_grid=[0.5],
                           folds=3) == (1.0, 0.5, 0.0)

    def test_reuse_drops_alphas_under_the_larger_floor(self, monkeypatch):
        # 1e-6 is above the support floor at C = 1 (1e-10) and below it at
        # C = 2^15 (about 3.3e-6).
        tiny = 1e-6

        def train(d, feature_subset, C, kernel_gamma):
            return SvmModel(d.samples[:3], [0.5, -0.5 - tiny, tiny], 0.25, kernel_gamma, C,
                            feature_subset, d.n_features, never_at_C=True)

        scored = []
        predict = svm.svm_predict_batch

        def record(model, X):
            scored.append(model)
            return predict(model, X)

        monkeypatch.setattr(svm, "train_svm", train)
        monkeypatch.setattr(svm, "svm_predict_batch", record)
        grid_search(wide_margin_dataset(), (0,), C_grid=[1.0, 2.0 ** 15], gamma_grid=[1.0],
                    folds=2)
        assert [m.C for m in scored] == [1.0, 1.0, 2.0 ** 15, 2.0 ** 15]
        assert [m.coeffs.size for m in scored] == [3, 3, 2, 2]
        for small, large in zip(scored[:2], scored[2:]):
            np.testing.assert_array_equal(large.coeffs, small.coeffs[:2])
            np.testing.assert_array_equal(large.support_samples, small.support_samples[:2])
            assert large.bias == small.bias
