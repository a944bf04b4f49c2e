import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from thyrec import neural
from thyrec.data import CATEGORICAL, DataError, Feature, FeatureSchema, Scaler
from thyrec.lime import (LimeConfig, bin_codes, build_stats, explain, fit_discretizer,
                         fit_surrogate, kernel_weight, sample_perturbations)
from thyrec.morris import MorrisConfig, analyze
from thyrec.neural import init_mlp, predict_proba


def toy_schema(kinds_vocabs):
    feats = []
    for i, (kind, vocab) in enumerate(kinds_vocabs):
        feats.append(Feature(f"c{i}", kind, vocab))
    return FeatureSchema(tuple(feats), "y", ("No", "Yes"))


class TestDiscretizer:
    def test_quartile_edges_one_to_eight(self):
        X = np.arange(1.0, 9.0)[:, None]
        edges = fit_discretizer(X, schema=None)
        assert edges[0] == pytest.approx([2.75, 4.5, 6.25], abs=1e-12)

    def test_constant_feature_single_bin(self):
        X = np.full((10, 1), 3.0)
        edges = fit_discretizer(X, schema=None)
        assert edges[0].tolist() == [3.0, 3.0, 3.0]
        assert len(set(bin_codes(edges[0], X[:, 0]).tolist())) == 1

    def test_categorical_pass_through(self):
        schema = toy_schema([(CATEGORICAL, ("a", "b"))])
        edges = fit_discretizer(np.array([[0.0], [1.0], [0.0], [1.0]]), schema)
        assert edges[0] is None
        assert bin_codes(edges[0], 1.0) == 1.0

    def test_bin_assignment(self):
        edges = np.array([2.75, 4.5, 6.25])
        assert bin_codes(edges, 1.0) == 0
        assert bin_codes(edges, 3.0) == 1
        assert bin_codes(edges, 4.5) == 1      # boundary belongs to the lower bin
        assert bin_codes(edges, 5.0) == 2
        assert bin_codes(edges, 9.0) == 3
        assert bin_codes(edges, np.array([1.0, 3.0, 4.5, 5.0, 9.0])).tolist() == \
            [0, 1, 1, 2, 3]

    def test_needs_four_rows(self):
        with pytest.raises(DataError, match="need at least 4 training rows"):
            fit_discretizer(np.ones((3, 1)), schema=None)

    def test_edges_bitwise_equal_to_np_quantile(self):
        """np.quantile is the reference: floats of every scale, integer ages
        with ties, a mix, and row counts whose quartiles sit on a row."""
        rng = np.random.default_rng(31)
        sizes = [4, 5, 8, 9, 13, 17] + rng.integers(4, 400, size=200).tolist()
        for n in sizes:
            X = np.column_stack([
                rng.normal(size=n) * 10.0 ** rng.integers(-6, 7),
                rng.integers(15, 90, size=n),
                np.where(rng.random(n) < 0.5, rng.normal(size=n), rng.integers(0, 3, size=n)),
            ]).astype(np.float64)
            for j, edges in enumerate(fit_discretizer(X, schema=None)):
                expected = np.quantile(X[:, j], [0.25, 0.5, 0.75])
                assert edges.tobytes() == expected.tobytes(), (n, j)


class TestSamplePerturbations:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.X = np.column_stack([rng.normal(size=60),
                                  rng.integers(0, 3, size=60).astype(float)])
        schema = toy_schema([("numeric", ()), (CATEGORICAL, ("a", "b", "c"))])
        self.stats = build_stats(self.X, fit_discretizer(self.X, schema))

    def test_shape_and_instance_row(self):
        Z, Zm = sample_perturbations(self.X[0], 50, self.stats,
                                     np.random.default_rng(1))
        assert Z.shape == (50, 2) and Zm.shape == (50, 2)
        assert np.all(Z[0] == 1.0)
        assert np.array_equal(Zm[0], self.X[0])
        assert set(np.unique(Z)) <= {0.0, 1.0}

    def test_categorical_values_stay_in_vocab(self):
        Z, Zm = sample_perturbations(self.X[3], 200, self.stats,
                                     np.random.default_rng(2))
        assert set(np.unique(Zm[:, 1])) <= {0.0, 1.0, 2.0}

    def test_match_keeps_instance_value(self):
        Z, Zm = sample_perturbations(self.X[5], 200, self.stats,
                                     np.random.default_rng(3))
        matched = Z[:, 0] == 1.0
        assert np.all(Zm[matched, 0] == self.X[5, 0])

    def test_single_category_column_all_ones(self):
        X = np.column_stack([np.random.default_rng(0).normal(size=20),
                             np.zeros(20)])
        schema = toy_schema([("numeric", ()), (CATEGORICAL, ("only",))])
        stats = build_stats(X, fit_discretizer(X, schema))
        Z, _ = sample_perturbations(X[0], 100, stats, np.random.default_rng(4))
        assert np.all(Z[:, 1] == 1.0)


def whole_array_sampler(instance, n, stats, rng):
    """The sampler before blocked draws: one (n - 1, d) draw of training
    rows, gathered with 2-D fancy indexing."""
    d = instance.shape[0]
    inst_codes = [bin_codes(e, v) for e, v in zip(stats.edges, instance)]
    rows, cols = rng.integers(0, len(stats.codes), size=(n - 1, d)), np.arange(d)
    match = np.vstack([np.ones(d, dtype=bool), stats.codes[rows, cols] == inst_codes])
    drawn = np.vstack([instance, stats.X_train[rows, cols]])
    return match, np.where(match, instance, drawn)


def mixed_table(n_rows, d, seed):
    """Numeric columns at even positions, 3-level categorical ones at odd
    positions; both standardized-looking."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.normal(size=n_rows) if j % 2 == 0
                         else rng.integers(0, 3, size=n_rows) * 0.9 - 0.8
                         for j in range(d)])
    schema = toy_schema([("numeric", ()) if j % 2 == 0 else (CATEGORICAL, ("a", "b", "c"))
                         for j in range(d)])
    return X, schema


class TestBlockedSampling:
    @pytest.mark.parametrize("bound", [245, 30_640, 2**31])
    @pytest.mark.parametrize("d", [3, 16])
    def test_block_draws_are_one_stream(self, bound, d):
        """What blocked sampling rests on: rng.integers drawn in row blocks
        gives the numbers of one whole draw and leaves the same state."""
        whole_rng = np.random.default_rng(bound + d)
        whole = whole_rng.integers(0, bound, size=(2500, d))
        for block in (1, 7, 1024):
            rng = np.random.default_rng(bound + d)
            parts = [rng.integers(0, bound, size=(min(block, 2500 - lo), d))
                     for lo in range(0, 2500, block)]
            assert np.array_equal(np.concatenate(parts), whole), block
            assert rng.bit_generator.state == whole_rng.bit_generator.state

    @pytest.mark.parametrize("n", [2, 10, 1024, 1025, 2049, 5000])
    @pytest.mark.parametrize("d", [2, 16])
    def test_matches_whole_array_sampler(self, n, d):
        X, schema = mixed_table(245, d, seed=n + d)
        stats = build_stats(X, fit_discretizer(X, schema))
        instance = X[7]
        want = whole_array_sampler(instance, n, stats, np.random.default_rng(n))
        fresh = sample_perturbations(instance, n, stats, np.random.default_rng(n))
        out = (~want[0], np.full((n, d), np.nan))   # every cell wrong until written
        into = sample_perturbations(instance, n, stats, np.random.default_rng(n), out=out)
        assert into[0] is out[0] and into[1] is out[1]
        for got in (fresh, into):
            assert [a.dtype for a in got] == [np.bool_, np.float64]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestBuildStats:
    def test_codes_on_quartile_edges(self):
        # quartiles of 1..9 with repeats are exactly 3, 5 and 7, which the
        # column also holds, so those values must land in the lower bin
        num = np.array([5.0, 1.0, 3.0, 9.0, 7.0, 3.0, 2.0, 5.0, 8.0])
        cat = np.array([2.0, 0.0, 2.0, 1.0, 0.0, 2.0, 2.0, 1.0, 0.0])
        X = np.column_stack([num, cat])
        edges = fit_discretizer(X, toy_schema([("numeric", ()),
                                               (CATEGORICAL, ("a", "b", "c"))]))
        assert edges[0].tolist() == [3.0, 5.0, 7.0]
        stats = build_stats(X, edges)
        assert stats.edges is edges
        assert np.array_equal(stats.X_train, X)
        assert stats.codes[:, 0].tolist() == [1, 0, 0, 3, 2, 0, 0, 1, 3]
        assert stats.codes[:, 1].tolist() == cat.tolist()

    def test_matches_per_cell_reference(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.integers(0, 6, size=200).astype(float),
                             rng.normal(size=200),
                             rng.integers(0, 3, size=200) * 0.7 - 0.4])
        edges = fit_discretizer(X, toy_schema([("numeric", ()), ("numeric", ()),
                                               (CATEGORICAL, ("a", "b", "c"))]))
        codes = build_stats(X, edges).codes
        assert codes.shape == X.shape
        for (i, j), code in np.ndenumerate(codes):
            assert code == bin_codes(edges[j], X[i, j])


def two_stage_sampler(instance, n, X, edges, rng):
    """The sampler this module used before drawing single training values:
    per feature, a bin drawn with its training frequency, then on a
    non-matching bin a training value drawn uniformly from inside it."""
    Z = np.ones((n, len(instance)))
    Zm = np.tile(instance, (n, 1))
    for j, col in enumerate(X.T):
        keys, inverse, counts = np.unique(bin_codes(edges[j], col), return_inverse=True,
                                          return_counts=True)
        draws = rng.choice(len(keys), size=n - 1, p=counts / counts.sum())
        for k, key in enumerate(keys):
            rows = np.flatnonzero(draws == k) + 1
            if key == bin_codes(edges[j], instance[j]) or rows.size == 0:
                continue
            Z[rows, j] = 0.0
            vals = col[inverse == k]
            Zm[rows, j] = vals[rng.integers(0, len(vals), size=rows.size)]
    return Z, Zm


class TestSamplerDistribution:
    """Each perturbed cell is (Z, Zm) = (1, the instance's value) with the
    training share of the instance's bin, and (0, v) with the training share
    of v for every v outside that bin."""

    N = 20000

    def setup_method(self):
        rng = np.random.default_rng(11)
        self.X = np.column_stack([rng.integers(0, 6, size=60).astype(float),
                                  rng.normal(size=60),
                                  rng.integers(0, 3, size=60).astype(float)])
        schema = toy_schema([("numeric", ()), ("numeric", ()),
                             (CATEGORICAL, ("a", "b", "c"))])
        self.edges = fit_discretizer(self.X, schema)

    def exact(self, instance, j):
        col = self.X[:, j]
        codes = bin_codes(self.edges[j], col)
        same = codes == bin_codes(self.edges[j], instance[j])
        probs = {(1.0, instance[j]): same.mean()}
        for v in np.unique(col[~same]):
            probs[(0.0, v)] = np.mean(col == v)
        return probs

    @pytest.mark.parametrize("two_stage", [False, True], ids=["one-stage", "two-stage"])
    @pytest.mark.parametrize("row", [0, 5, 11])
    def test_cell_frequencies_match_exact_probabilities(self, two_stage, row):
        instance, rng = self.X[row], np.random.default_rng(row + 2)
        if two_stage:
            Z, Zm = two_stage_sampler(instance, self.N + 1, self.X, self.edges, rng)
        else:
            Z, Zm = sample_perturbations(instance, self.N + 1,
                                         build_stats(self.X, self.edges), rng)
        def within(freq, p):
            return abs(freq - p) <= 5 * math.sqrt(p * (1 - p) / self.N)

        match = []
        for j in range(self.X.shape[1]):
            probs = self.exact(instance, j)
            pairs = list(zip(Z[1:, j].tolist(), Zm[1:, j].tolist()))
            assert set(pairs) <= set(probs), j
            for pair, p in probs.items():
                assert within(pairs.count(pair) / self.N, p), (j, pair)
            match.append(probs[(1.0, instance[j])])
        # cells of one sample are drawn independently of each other
        for j, k in [(0, 1), (0, 2), (1, 2)]:
            both = np.mean((Z[1:, j] == 1.0) & (Z[1:, k] == 1.0))
            assert within(both, match[j] * match[k]), (j, k)


class TestConfig:
    @pytest.mark.parametrize("kwargs, name", [
        ({"kernel_width": float("nan")}, "kernel_width"),
        ({"kernel_width": float("inf")}, "kernel_width"),
        # squares to 0, so the row's own weight would be exp(-0/0) = NaN
        ({"kernel_width": 1e-300}, "kernel_width .* not 1e-300"),
        # squares to inf, so every sample would weigh 1.0
        ({"kernel_width": 1e200}, "kernel_width .* not 1e\\+200"),
        ({"ridge_lambda": float("nan")}, "ridge_lambda"),
        ({"ridge_lambda": float("inf")}, "ridge_lambda")],
        ids=["width-nan", "width-inf", "width-square-0", "width-square-inf", "ridge-nan",
             "ridge-inf"])
    def test_non_finite_rejected_naming_the_setting(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            LimeConfig(**kwargs)


class TestKernel:
    def test_zero_distance(self):
        assert kernel_weight(0.0, 0.75) == 1.0

    def test_width_distance(self):
        assert kernel_weight(2.0, 2.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_monotone_decreasing(self):
        w = kernel_weight(np.array([0.0, 0.5, 1.0, 2.0, 4.0]), 1.3)
        assert np.all(np.diff(w) < 0.0)


def weighted_lstsq_oracle(Z, w, y):
    """Closed-form weighted least squares with intercept via sqrt-weighted
    design, independent of the ridge solver under test."""
    A = np.column_stack([np.ones(len(y)), Z]) * np.sqrt(w)[:, None]
    coef, *_ = np.linalg.lstsq(A, y * np.sqrt(w), rcond=None)
    return coef[0], coef[1:]


class TestFitSurrogate:
    def test_recovers_exact_linear_function(self):
        rng = np.random.default_rng(7)
        Z = rng.integers(0, 2, size=(300, 3)).astype(float)
        true = np.array([1.5, -2.0, 0.75])
        y = Z @ true + 0.3
        w = rng.uniform(0.1, 1.0, size=300)
        coefs, intercept, r2 = fit_surrogate(Z, w, y, ridge_lambda=1e-8)
        assert coefs == pytest.approx(true, abs=1e-4)
        assert intercept == pytest.approx(0.3, abs=1e-4)
        oracle_b0, oracle_b = weighted_lstsq_oracle(Z, w, y)
        assert coefs == pytest.approx(oracle_b, abs=1e-6)
        assert intercept == pytest.approx(oracle_b0, abs=1e-6)
        assert r2 > 0.999999

    def test_constant_targets(self):
        Z = np.random.default_rng(0).integers(0, 2, size=(50, 2)).astype(float)
        coefs, intercept, r2 = fit_surrogate(Z, np.ones(50), np.full(50, 0.7), 1.0)
        assert np.all(np.abs(coefs) < 1e-8)
        assert intercept == pytest.approx(0.7, abs=1e-8)
        assert r2 == 1.0

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(5)
        Z = rng.integers(0, 2, size=(80, 3)).astype(float)
        y = rng.normal(size=80)
        w = rng.uniform(0.0, 1.0, size=80)
        a = fit_surrogate(Z, w, y, ridge_lambda=1.0)
        b = fit_surrogate(Z, 2.0 * w, y, ridge_lambda=1.0)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_bool_design_fits_the_float_bits(self):
        rng = np.random.default_rng(3)
        Z = rng.integers(0, 2, size=(700, 5)).astype(bool)
        y, w = rng.normal(size=700), rng.uniform(0.0, 1.0, size=700)
        fits = [fit_surrogate(z, w, y, ridge_lambda=1.0) for z in (Z, Z.astype(float))]
        assert fits[0][0].tobytes() == fits[1][0].tobytes()
        assert fits[0][1:] == fits[1][1:]

    def test_singular_without_ridge(self):
        Z = np.column_stack([np.ones(20), np.ones(20)])   # duplicated column
        with pytest.raises(ValueError, match="rank-deficient design with lambda = 0"):
            fit_surrogate(Z, np.ones(20), np.arange(20.0), ridge_lambda=0.0)

    def test_rejects_bad_weights(self):
        Z = np.ones((4, 1))
        with pytest.raises(ValueError):
            fit_surrogate(Z, np.zeros(4), np.ones(4), 1.0)
        with pytest.raises(ValueError):
            fit_surrogate(Z, np.array([1.0, -0.1, 1.0, 1.0]), np.ones(4), 1.0)


def sigmoid_3x1_minus_2x2(X):
    return 1.0 / (1.0 + np.exp(-(3.0 * X[:, 0] - 2.0 * X[:, 1])))


def standardized_two_level_data(n=400):
    """Two features taking values -1/+1 in equal halves: mean 0, std 1, and
    each quartile bin holds a single value."""
    col = np.array([-1.0, 1.0]).repeat(n // 2)
    return np.column_stack([col, np.roll(col, n // 4)])


class TestExplain:
    def test_signs_and_ranking_on_gaussian_data(self):
        X = np.random.default_rng(0).normal(size=(500, 2))
        for seed in range(20):
            config = LimeConfig(num_samples=2000, num_features=2,
                                ridge_lambda=1e-6, seed=seed)
            # instance high in both features: its x1 bin pushes toward class 1
            # (coefficient +3), its x2 bin pushes away (coefficient -2)
            exp = explain(sigmoid_3x1_minus_2x2, np.array([1.0, 1.0]), X, config)
            weights = dict(exp.feature_weights)
            w1 = next(w for f, w in exp.feature_weights if "f0" in f.split())
            w2 = next(w for f, w in exp.feature_weights if "f1" in f.split())
            assert w1 > 0.0 > w2, f"seed {seed}"
            assert abs(w1) > abs(w2), f"seed {seed}"
            assert len(weights) == 2

    def test_linear_fidelity(self):
        X = standardized_two_level_data()
        config = LimeConfig(num_samples=2000, num_features=2, ridge_lambda=1e-6, seed=0)
        exp = explain(sigmoid_3x1_minus_2x2, np.array([1.0, 1.0]), X, config)
        assert exp.local_r2 > 0.99

    def test_constant_black_box(self):
        X = np.random.default_rng(1).normal(size=(100, 3))
        config = LimeConfig(num_samples=500, num_features=3, seed=2)
        exp = explain(lambda Z: np.full(len(Z), 0.7), X[0], X, config)
        assert all(abs(w) < 1e-6 for _, w in exp.feature_weights)
        assert exp.intercept == pytest.approx(0.7, abs=1e-9)
        assert exp.class_probabilities == (pytest.approx(0.3), pytest.approx(0.7))

    def test_deterministic(self):
        X = np.random.default_rng(2).normal(size=(80, 4))
        config = LimeConfig(num_samples=300, seed=5)
        a = explain(lambda Z: 1.0 / (1.0 + np.exp(-Z.sum(axis=1))), X[1], X, config)
        b = explain(lambda Z: 1.0 / (1.0 + np.exp(-Z.sum(axis=1))), X[1], X, config)
        assert a == b

    def test_width_that_weights_only_the_row_is_refused(self):
        """A width so narrow that every sample unlike the row weighs 0 would
        fit the row alone; it is refused naming the width, and 1e-160, whose
        square is subnormal, raises no overflow warning on the way."""
        X = np.random.default_rng(6).normal(size=(100, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for width in (1e-5, 1e-160):
                config = LimeConfig(num_samples=200, kernel_width=width)
                with pytest.raises(ValueError, match=re.escape(f"kernel_width {width!r} ")):
                    explain(sigmoid_3x1_minus_2x2, X[0], X, config)
            exp = explain(sigmoid_3x1_minus_2x2, X[0], X,
                          LimeConfig(num_samples=200, kernel_width=3.0))
        assert 0.0 <= exp.local_r2 < 1.0

    def test_training_rows_like_the_row_are_not_a_width_fault(self):
        """When every training row matches the explained one, every sample is
        the row itself: no width could weight another, so nothing is refused."""
        X = np.ones((20, 3))
        exp = explain(lambda Z: np.full(len(Z), 0.3), X[0], X, LimeConfig(num_samples=50))
        assert [w for _, w in exp.feature_weights] == [0.0, 0.0, 0.0]

    def test_length_is_min_of_num_features_and_d(self):
        X = np.random.default_rng(3).normal(size=(50, 3))
        config = LimeConfig(num_samples=200, num_features=10, seed=0)
        exp = explain(lambda Z: Z[:, 0], X[0], X, config)
        assert len(exp.feature_weights) == 3

    def test_weights_sorted_by_magnitude(self):
        X = np.random.default_rng(4).normal(size=(200, 3))
        config = LimeConfig(num_samples=1000, num_features=3, seed=1)
        exp = explain(sigmoid_3x1_minus_2x2, X[0], X, config)
        mags = [abs(w) for _, w in exp.feature_weights]
        assert mags == sorted(mags, reverse=True)

    def test_surrogate_prediction_identity(self):
        X = np.random.default_rng(5).normal(size=(100, 2))
        config = LimeConfig(num_samples=500, num_features=2, seed=3)
        exp = explain(sigmoid_3x1_minus_2x2, X[2], X, config)
        assert exp.surrogate_prediction == pytest.approx(
            exp.intercept + sum(w for _, w in exp.feature_weights), abs=1e-12)

    def test_surrogate_prediction_ignores_num_features(self):
        """The surrogate evaluated at the instance (an all-ones row), not the
        sum of the reported top-k weights."""
        X = np.random.default_rng(8).normal(size=(200, 16))
        w = np.linspace(-1.0, 1.0, 16)
        exps = [explain(lambda Z: 1.0 / (1.0 + np.exp(-Z @ w)), X[3], X,
                        LimeConfig(num_samples=500, num_features=k, seed=4))
                for k in (5, 16)]
        assert len(exps[0].feature_weights) == 5
        assert exps[0].surrogate_prediction == exps[1].surrogate_prediction
        assert exps[0].surrogate_prediction == pytest.approx(
            exps[1].intercept + sum(w for _, w in exps[1].feature_weights), abs=1e-12)

    def test_calls_model_once(self):
        """P(class=1) is the model's output on row 0 of the perturbation
        batch, which is the instance itself. The model scores every sample in
        one call, also past one sampling block: blocks scored apart would
        score the instance row alone and move the last bits of P(class=1)."""
        X = np.random.default_rng(9).normal(size=(100, 3))
        p1 = sigmoid_3x1_minus_2x2(X[4][None, :])[0]
        for num_samples in (300, 5000):
            calls = []

            def model(Z):
                calls.append(len(Z))
                return sigmoid_3x1_minus_2x2(Z)

            exp = explain(model, X[4], X, LimeConfig(num_samples=num_samples, seed=0))
            assert calls == [num_samples]
            assert exp.class_probabilities == (1.0 - p1, p1)

    @pytest.mark.parametrize("model, message", [
        (lambda Z: np.where(np.arange(len(Z)) == 7, np.nan, 0.5), "non-finite output"),
        (lambda Z: np.full(len(Z), np.inf), "non-finite output"),
        (lambda Z: np.full(len(Z) - 1, 0.5), "returned 299 outputs for 300 rows"),
        (lambda Z: np.full((len(Z), 2), 0.5), "returned 600 outputs for 300 rows"),
    ])
    def test_refuses_bad_model_outputs(self, model, message):
        X = np.random.default_rng(9).normal(size=(100, 3))
        with pytest.raises(ValueError, match=message):
            explain(model, X[4], X, LimeConfig(num_samples=300, seed=0))

    def test_model_output_viewing_its_input(self):
        """A black box may return a view of the samples it scores; the
        samples' buffer then holds the centred design, and the targets
        must not follow it."""
        X = np.random.default_rng(9).normal(size=(100, 1))
        view, copy = (explain(model, X[4], X, LimeConfig(num_samples=300, seed=0))
                      for model in (lambda Z: Z[:, 0], lambda Z: Z[:, 0].copy()))
        assert repr(view) == repr(copy)

    def test_descriptors_use_schema_names(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([rng.normal(size=40), rng.integers(0, 2, size=40)])
        schema = toy_schema([("numeric", ()), (CATEGORICAL, ("High", "Low"))])
        scaler = Scaler(means=np.zeros(2), stds=np.ones(2))
        config = LimeConfig(num_samples=200, num_features=2, seed=0)
        exp = explain(lambda Z: Z[:, 0] * 0 + 0.5, X[0], X, config,
                      schema=schema, scaler=scaler, instance_index=0)
        texts = [f for f, _ in exp.feature_weights]
        assert any("c0" in t for t in texts)
        assert any(t.startswith("c1 = ") for t in texts)
        assert exp.instance_index == 0

    def test_numeric_bins_in_table_units(self):
        """Bin edges are fitted in model space and printed in the table's:
        ages 20..80 standardized with mean 50 and std 10 have quartiles 35,
        50 and 65 years."""
        ages = np.arange(20.0, 81.0)
        X = np.column_stack([(ages - 50.0) / 10.0, np.tile([-1.0, 1.0], 31)[:61]])
        schema = toy_schema([("numeric", ()), (CATEGORICAL, ("No", "Yes"))])
        scaler = Scaler(means=np.array([50.0, 0.5]), stds=np.array([10.0, 0.5]))
        config = LimeConfig(num_samples=100, num_features=2, seed=0)
        texts = {}
        for age in (20, 45, 80):
            exp = explain(lambda Z: Z[:, 0] * 0.1 + 0.5, X[age - 20], X, config,
                          schema=schema, scaler=scaler)
            texts[age] = {f for f, _ in exp.feature_weights}
        assert texts[20] == {"c0 <= 35.00", "c1 = No"}
        assert texts[45] == {"35.00 < c0 <= 50.00", "c1 = Yes"}
        assert texts[80] == {"c0 > 65.00", "c1 = No"}


def screen_bytes(result) -> bytes:
    return b"".join(a.tobytes() for a in (result.mu, result.mu_star, result.sigma))


class TestThreadBuffers:
    """explain and analyze keep their large arrays in per-thread buffers
    reused from call to call; nothing they return aliases them."""

    @staticmethod
    def model():
        mlp = init_mlp(16, [128, 64, 32], seed=3)
        return lambda Z: predict_proba(mlp, Z)

    @staticmethod
    def warm_peak(call) -> int:
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_warm_explain_allocates_no_sample_arrays(self):
        f, X = self.model(), np.random.default_rng(0).normal(size=(300, 16))
        peak = self.warm_peak(lambda: explain(f, X[0], X, LimeConfig(seed=1)))
        # a first explain, which allocates the (5000, 16) buffers, peaks at
        # ~1.7 MB (~2.9 MB when they were four float arrays); a warm one ~0.37 MB
        assert peak < 1_000_000

    def test_warm_analyze_allocates_no_trajectory_arrays(self):
        f, X = self.model(), np.random.default_rng(0).normal(size=(300, 16))
        peak = self.warm_peak(lambda: analyze(f, X, MorrisConfig(seed=1)))
        # fresh trajectories, points and differences took ~720 KB; buffers ~200 KB
        assert peak < 400_000

    def test_morris_keeps_trajectories_and_points_only(self):
        """A screen leaves its thread the (r, d+1, d) trajectories and the
        (r(d+1), d) points, and a screen of another trajectory count
        replaces them."""
        f, X = self.model(), np.random.default_rng(0).normal(size=(100, 16))
        shapes = []

        def screens():
            for r in (30, 12):
                analyze(f, X, MorrisConfig(trajectories=r, seed=1))
                shapes.append([b.shape for b in neural._workspace.buffers["morris"]])

        thread = threading.Thread(target=screens)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert shapes == [[(30, 17, 16), (30 * 17, 16)], [(12, 17, 16), (12 * 17, 16)]]

    def test_lime_keeps_two_float_and_one_bool_sample_array(self):
        """An explanation leaves its thread the bool interpretable samples and
        two float (n, d) arrays, 2 * n * d * 8 + n * d bytes, and one of
        another sample count replaces them."""
        f, X = self.model(), np.random.default_rng(0).normal(size=(100, 16))
        held = []

        def explains():
            for n in (3000, 1200):
                explain(f, X[0], X, LimeConfig(num_samples=n, seed=1))
                held.append(sum(b.nbytes for key, bufs in neural._workspace.buffers.items()
                                if str(key).startswith("lime") for b in bufs))

        thread = threading.Thread(target=explains)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert held == [2 * n * 16 * 8 + n * 16 for n in (3000, 1200)]

    def test_result_unchanged_by_later_call(self):
        f, X = self.model(), np.random.default_rng(1).normal(size=(120, 16))
        stats = build_stats(X, fit_discretizer(X, None))
        Z, Zm = sample_perturbations(X[0], 300, stats, np.random.default_rng(0))
        screen = analyze(f, X, MorrisConfig(trajectories=10, seed=0))
        exp = explain(f, X[0], X, LimeConfig(num_samples=300, seed=0))
        before = [Z.tobytes(), Zm.tobytes(), screen_bytes(screen), repr(exp)]
        sample_perturbations(X[1], 300, stats, np.random.default_rng(1))
        analyze(f, X[::-1].copy(), MorrisConfig(trajectories=10, seed=1))
        explain(f, X[1], X, LimeConfig(num_samples=300, seed=1))
        assert before == [Z.tobytes(), Zm.tobytes(), screen_bytes(screen), repr(exp)]

    def test_concurrent_threads_match_serial_calls(self):
        """Four threads, two explaining (different sample counts) and two
        screening (different trajectory counts), with a short switch
        interval, give the bytes of the same calls made one after another."""
        f, X = self.model(), np.random.default_rng(2).normal(size=(200, 16))
        jobs = [lambda: repr(explain(f, X[3], X, LimeConfig(num_samples=1500, seed=4))),
                lambda: repr(explain(f, X[5], X, LimeConfig(num_samples=2100, seed=5))),
                lambda: screen_bytes(analyze(f, X, MorrisConfig(trajectories=30, seed=6))),
                lambda: screen_bytes(analyze(f, X, MorrisConfig(trajectories=40, seed=7)))]
        serial = [job() for job in jobs]
        results = [[] for _ in jobs]
        start = threading.Barrier(len(jobs))

        def work(i):
            start.wait(timeout=30)
            for _ in range(3):
                results[i].append(jobs[i]())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[want] * 3 for want in serial]
