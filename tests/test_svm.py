import numpy as np
import pytest

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
from oracles import kernel_dual_optimum
from support import (
    alphas_for,
    dual_objective,
    gram,
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

    def test_non_convergence_reported(self):
        rng = np.random.default_rng(2)
        d = random_two_class(rng, m=30, n=2)
        with pytest.raises(SvmTrainingError, match="sweeps"):
            train_svm(d, (0, 1), C=1.0, kernel_gamma=1.0, kkt_tol=1e-12,
                      max_passes=1)


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
