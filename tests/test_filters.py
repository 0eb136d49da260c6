import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mcmfs.data import (DataError, apply_standardizer, fit_standardizer, load_dataset,
                        stratified_kfold)
from mcmfs import filters
from mcmfs.filters import (
    DiscreteDataset,
    _su,
    cumulative_fraction_select,
    discretize_equal_frequency,
    fcbf_select,
    relieff_rank,
)
from oracles import (cumulative_fraction_loop, discretize_columnwise, fcbf_pairwise,
                     relieff_weights_naive, su_codes)
from support import make_benchmark_dataset, make_dataset, su, write_csv

QUAD = make_dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1, 1, -1, -1])


class TestReliefF:
    def test_hand_example(self):
        assert relieff_rank(QUAD, k_neighbors=1).tolist() == [-1.0, 1.0]

    def test_constant_feature_scores_zero(self):
        X = np.column_stack([QUAD.samples, np.full(4, 7.0)])
        d = make_dataset(X, QUAD.labels.tolist())
        w = relieff_rank(d, k_neighbors=1)
        assert w[2] == 0.0

    def test_duplicated_columns_tie(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(12, 2))
        X = np.column_stack([X, X[:, 0]])
        d = make_dataset(X, ([1, -1] * 6))
        w = relieff_rank(d, k_neighbors=2)
        assert w[0] == pytest.approx(w[2], abs=1e-12)

    @pytest.mark.parametrize("seed,k", [(0, 1), (1, 3), (2, 5)])
    def test_matches_naive_reimplementation(self, seed, k):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2 * k + 4, 21))
        n = int(rng.integers(1, 6))
        X = rng.normal(size=(m, n))
        half = m // 2
        d = make_dataset(X, [1] * half + [-1] * (m - half))
        got = relieff_rank(d, k_neighbors=k)
        np.testing.assert_allclose(got, relieff_weights_naive(X, d.labels, k),
                                   atol=1e-12)

    def test_weights_bounded(self):
        rng = np.random.default_rng(5)
        d = make_dataset(rng.normal(size=(16, 4)), [1] * 8 + [-1] * 8)
        w = relieff_rank(d, k_neighbors=3)
        assert np.all(w >= -1.0 - 1e-12) and np.all(w <= 1.0 + 1e-12)

    def test_small_class_rejected(self):
        with pytest.raises(DataError, match="needs more"):
            relieff_rank(QUAD, k_neighbors=2)

    def test_single_class_rejected(self):
        d = make_dataset([[0.0], [1.0]], [1, 1])
        with pytest.raises(DataError):
            relieff_rank(d, k_neighbors=1)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            relieff_rank(QUAD, k_neighbors=0)


class TestCumulativeFractionSelect:
    def test_top_heavy_prefix(self):
        assert cumulative_fraction_select([0.5, 0.3, 0.2], 0.4) == (0,)

    def test_full_fraction_takes_positive_mass(self):
        assert cumulative_fraction_select([0.5, 0.3, 0.2], 1.0) == (0, 1, 2)

    def test_single_feature(self):
        assert cumulative_fraction_select([0.1], 0.01) == (0,)
        assert cumulative_fraction_select([0.1], 1.0) == (0,)

    def test_negative_scores_clamped(self):
        assert cumulative_fraction_select([0.5, -0.2, 0.5], 0.4) == (0,)

    def test_zero_total_returns_top_one(self):
        assert cumulative_fraction_select([-0.2, -0.3, -0.4, -0.1], 0.4) == (3,)

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            cumulative_fraction_select([1.0], 0.0)
        with pytest.raises(ValueError):
            cumulative_fraction_select([1.0], 1.5)

    @given(
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=10),
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.0),
    )
    def test_monotone_in_fraction(self, scores, f_a, f_b):
        lo, hi = sorted((f_a, f_b))
        assert set(cumulative_fraction_select(scores, lo)) <= set(
            cumulative_fraction_select(scores, hi))

    @given(
        st.lists(st.one_of(st.sampled_from([-0.25, 0.0, 0.125, 0.5]),
                           st.floats(-1.0, 1.0, allow_nan=False)),
                 min_size=1, max_size=40),
        st.floats(0.01, 1.0),
    )
    @example([0.3], 0.5)
    @example([-0.5, 0.0, -0.0, -0.1], 0.4)
    @example([0.5, 0.5, 0.25, -0.5, 0.25], 0.75)
    def test_matches_the_prefix_loop(self, weights, fraction):
        assert cumulative_fraction_select(np.array(weights), fraction) == \
            cumulative_fraction_loop(weights, fraction)


class TestDiscretize:
    def test_ten_values_five_bins(self):
        d = make_dataset(np.arange(1.0, 11.0)[:, None], [1, -1] * 5)
        dd = discretize_equal_frequency(d, bins=5)
        assert dd.samples[:, 0].tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        assert dd.bins_per_feature[0] == 5

    def test_binary_feature_preserved(self):
        vals = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        d = make_dataset(vals[:, None], [1, -1] * 3)
        dd = discretize_equal_frequency(d, bins=10)
        ids = dd.samples[:, 0]
        assert dd.bins_per_feature[0] == 2
        assert np.array_equal(ids == ids[1], vals == 1.0)

    def test_constant_feature_single_bin(self):
        d = make_dataset(np.full((6, 1), 3.3), [1, -1] * 3)
        dd = discretize_equal_frequency(d, bins=10)
        assert dd.bins_per_feature[0] == 1
        assert np.all(dd.samples == 0)

    def test_ids_within_declared_bins(self):
        rng = np.random.default_rng(9)
        d = make_dataset(rng.normal(size=(30, 3)), [1, -1] * 15)
        dd = discretize_equal_frequency(d, bins=4)
        assert np.all(dd.samples < dd.bins_per_feature[None, :])
        assert np.all(dd.samples >= 0)

    def test_bad_bins_rejected(self):
        d = make_dataset([[1.0], [2.0]], [1, -1])
        with pytest.raises(ValueError):
            discretize_equal_frequency(d, bins=1)


class TestSymmetricalUncertainty:
    def test_identical_columns(self):
        x = np.array([0, 1, 0, 1, 1])
        assert su(x, x) == pytest.approx(1.0)

    def test_independent_columns(self):
        x = np.array([0, 0, 1, 1])
        y = np.array([0, 1, 0, 1])
        assert su(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_reference_contingency(self):
        x = np.array([0, 0, 0, 1, 1, 1])
        y = np.array([0, 0, 1, 0, 1, 1])
        assert su(x, y) == pytest.approx(0.0817041659, abs=1e-9)

    def test_zero_entropy_input(self):
        const = np.zeros(4, dtype=int)
        varying = np.array([0, 1, 0, 1])
        assert su(const, const) == 0.0
        assert su(const, varying) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            su(np.array([0, 1]), np.array([0, 1, 0]))

    @given(st.integers(0, 10_000))
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 30))
        x = rng.integers(0, 4, size=m)
        y = rng.integers(0, 3, size=m)
        a = su(x, y)
        b = su(y, x)
        assert abs(a - b) <= 1e-12
        assert -1e-12 <= a <= 1.0 + 1e-12


def discrete(cols, labels):
    X = np.column_stack(cols)
    bins = X.max(axis=0) + 1
    return DiscreteDataset(X, bins, np.asarray(labels))


class TestFcbf:
    def test_perfect_predictor_dominates(self):
        y = np.array([1, 1, -1, -1] * 5)
        predictor = (y > 0).astype(int)
        noise_a = np.array([0, 1, 0, 1] * 5)
        noise_b = np.array([0, 1, 1, 0] * 5)
        dd = discrete([predictor, noise_a, noise_b], y)
        assert fcbf_select(dd, delta=0.1) == (0,)

    def test_duplicate_predictor_collapses(self):
        y = np.array([1, 1, -1, -1] * 5)
        predictor = (y > 0).astype(int)
        dd = discrete([predictor, predictor.copy()], y)
        assert fcbf_select(dd, delta=0.0) == (0,)

    def test_delta_above_everything(self):
        y = np.array([1, -1] * 6)
        dd = discrete([np.arange(12) % 2, np.arange(12) % 3], y)
        assert fcbf_select(dd, delta=1.1) == ()

    def test_permutation_invariant(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            m, n = 24, 5
            X = rng.integers(0, 3, size=(m, n))
            y = np.where(rng.random(m) < 0.5, 1, -1)
            y[:2] = (1, -1)
            base = DiscreteDataset(X, np.full(n, 3), y)
            perm = rng.permutation(n)
            shuffled = DiscreteDataset(X[:, perm], np.full(n, 3), y)
            got = {int(perm[j]) for j in fcbf_select(shuffled)}
            assert got == set(fcbf_select(base))

    @given(st.integers(0, 10_000))
    def test_matches_pairwise_on_duplicate_and_flipped_columns(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(6, 40))
        y = np.where(rng.random(m) < 0.5, 1, -1)
        y[:2] = (1, -1)
        base = rng.normal(size=(m, int(rng.integers(1, 5))))
        base[:, 0] += y * rng.uniform(0.0, 2.0)
        picks = rng.integers(0, base.shape[1], size=int(rng.integers(1, 12)))
        signs = rng.choice([-1.0, 1.0], size=picks.size)
        X = np.column_stack([base, base[:, picks] * signs])
        X = X[:, rng.permutation(X.shape[1])]
        dd = discretize_equal_frequency(make_dataset(X, y), bins=int(rng.integers(2, 11)))
        assert fcbf_select(dd) == fcbf_pairwise(dd.samples, dd.labels)

    # Training folds of the planted benchmark where FCBF's selection changes if
    # the survivor-candidate tables are transposed: the two orientations of
    # SU differ in the last bit, and these folds hold near-tied distractors.
    @pytest.mark.parametrize("seed,fold", [(75, 0), (148, 1), (197, 0)])
    def test_matches_pairwise_on_planted_near_ties(self, tmp_path, seed, fold):
        d = load_dataset(write_csv(tmp_path / "d.csv", make_benchmark_dataset(seed=seed)))
        train = d.take(stratified_kfold(d, 2, seed).train_indices(fold))
        dd = discretize_equal_frequency(apply_standardizer(fit_standardizer(train), train))
        assert fcbf_select(dd) == fcbf_pairwise(dd.samples, dd.labels)


def random_codes(rng):
    m = int(rng.integers(1, 30))
    return rng.integers(0, rng.integers(1, 6, size=6)[:, None], size=(6, m)).T


class TestVectorizedMatchesLoops:
    @given(st.integers(0, 10_000), st.integers(2, 12))
    def test_discretize_matches_columnwise(self, seed, bins):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        X = np.where(rng.random((m, n)) < rng.random(n), rng.integers(-2, 3, (m, n)),
                     rng.normal(size=(m, n)))
        X[:, 0] = 3.3  # a constant column yields one bin
        dd = discretize_equal_frequency(make_dataset(X, [1] * m), bins=bins)
        ids, counts = discretize_columnwise(X, bins)
        assert np.array_equal(dd.samples, ids)
        assert np.array_equal(dd.bins_per_feature, counts)

    @given(st.integers(0, 10_000))
    def test_su_equals_scalar_su_in_both_orientations(self, seed):
        X = random_codes(np.random.default_rng(seed))
        n = X.shape[1]
        against_first = _su(X[:, [0]], X)
        first_against = _su(X, X[:, [0]])
        for j in range(n):
            assert against_first[j] == su_codes(X[:, 0], X[:, j])
            assert first_against[j] == su_codes(X[:, j], X[:, 0])
            _, xi = np.unique(X[:, j], return_inverse=True)
            _, yi = np.unique(X[:, 0], return_inverse=True)
            assert su(X[:, j], X[:, 0]) == su_codes(xi, yi)

    def test_su_counted_in_blocks_matches_one_block(self, monkeypatch):
        X = random_codes(np.random.default_rng(3))
        whole = _su(X[:, [0]], X)
        monkeypatch.setattr(filters, "_TABLE_CELLS", 1)
        assert np.array_equal(_su(X[:, [0]], X), whole)
