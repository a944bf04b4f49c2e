import math

import numpy as np
import pytest

from thyrec.morris import (FeatureRanges, MorrisConfig, aggregate, analyze,
                           elementary_effects, generate_trajectories)
from thyrec.neural import init_mlp, predict_proba


def unit_ranges(d):
    return FeatureRanges(lo=np.zeros(d), hi=np.ones(d))


def loop_trajectories(d, config, rng):
    """Step-by-step reference for generate_trajectories: the same three
    whole-array draws, then each trajectory built one move at a time."""
    r, delta = config.trajectories, config.effective_delta
    grid = np.arange(config.levels) / (config.levels - 1)
    allowed = grid[grid <= 1.0 - delta + 1e-12]
    bases = allowed[rng.integers(0, len(allowed), size=(r, d))]
    ups = rng.integers(0, 2, size=(r, d), dtype=bool)
    orders = rng.permuted(np.broadcast_to(np.arange(d), (r, d)), axis=1)
    trajs = np.empty((r, d + 1, d))
    for t in range(r):
        base, up = bases[t], ups[t]
        points = np.tile(base + delta * ~up, (d + 1, 1))
        for step, j in enumerate(orders[t]):
            points[step + 1:, j] = base[j] + (delta if up[j] else 0.0)
        trajs[t] = points
    return np.clip(trajs, 0.0, 1.0)


def loop_effects(f, trajectories, ranges, delta):
    """Step-by-step reference for elementary_effects, with the model's
    outputs from one call over every point."""
    r, n, d = trajectories.shape
    values = f(ranges.map_unit(trajectories.reshape(r * n, d))).reshape(r, n)
    ee = np.zeros((r, d))
    for t in range(r):
        diffs = np.diff(trajectories[t], axis=0)
        for k in range(d):
            j = int(np.argmax(np.abs(diffs[k])))
            if not ranges.degenerate[j]:
                ee[t, j] = (values[t, k + 1] - values[t, k]) / math.copysign(delta, diffs[k, j])
    return ee


@pytest.mark.parametrize("levels", [4, 6, 8])
def test_matches_step_by_step_reference(levels):
    config = MorrisConfig(levels=levels, trajectories=30, seed=levels)
    trajs = generate_trajectories(6, config, np.random.default_rng(levels))
    reference = loop_trajectories(6, config, np.random.default_rng(levels))
    assert np.array_equal(trajs, reference)
    mlp = init_mlp(6, [8], seed=levels, dropout=0.0)
    ranges = FeatureRanges(lo=np.array([-1.0, 0.0, 2.0, -3.0, 0.5, 1.0]),
                           hi=np.array([1.0, 4.0, 2.0, 3.0, 0.7, 1.0]))
    f = lambda X: predict_proba(mlp, X)
    assert np.array_equal(elementary_effects(f, trajs, ranges, config.effective_delta),
                          loop_effects(f, trajs, ranges, config.effective_delta))


class TestTrajectories:
    @pytest.mark.parametrize("d,levels,seed", [(2, 4, 0), (5, 4, 1), (16, 4, 2),
                                               (3, 6, 3), (4, 8, 4)])
    def test_construction_invariants(self, d, levels, seed):
        config = MorrisConfig(levels=levels, trajectories=20, seed=seed)
        trajs = generate_trajectories(d, config, np.random.default_rng(seed))
        delta = config.effective_delta
        assert trajs.shape == (20, d + 1, d)
        assert np.all((trajs >= 0.0) & (trajs <= 1.0))
        for traj in trajs:
            changed = []
            for k in range(d):
                diff = traj[k + 1] - traj[k]
                nonzero = np.flatnonzero(np.abs(diff) > 1e-13)
                assert len(nonzero) == 1               # one coordinate per step
                j = nonzero[0]
                assert abs(abs(diff[j]) - delta) < 1e-12
                changed.append(j)
            assert sorted(changed) == list(range(d))   # each coordinate once

    @pytest.mark.parametrize("levels", [4, 6, 8])
    def test_levels_directions_and_orders_are_uniform(self, levels):
        # each coordinate starts on every grid level with probability 1/p,
        # steps up with probability 1/2 and moves at every step with
        # probability 1/d; counts stay within 5 standard errors
        r, d = 3000, 5
        config = MorrisConfig(levels=levels, trajectories=r, seed=levels)
        trajs = generate_trajectories(d, config, np.random.default_rng(levels))

        def within_5_se(counts, n, prob):
            se = math.sqrt(n * prob * (1.0 - prob))
            assert np.all(np.abs(counts - n * prob) <= 5.0 * se), counts

        start = np.rint(trajs[:, 0, :] * (levels - 1)).astype(int)
        within_5_se(np.bincount(start.ravel(), minlength=levels), r * d, 1.0 / levels)
        up = trajs[:, -1, :] > trajs[:, 0, :]
        within_5_se(np.array([up.sum(), (~up).sum()]), r * d, 0.5)
        step = np.argmax(np.abs(np.diff(trajs, axis=1)), axis=2)   # coordinate per step
        for j in range(d):
            within_5_se(np.bincount(np.nonzero(step == j)[1], minlength=d), r, 1.0 / d)

    def test_default_delta(self):
        assert MorrisConfig(levels=4).effective_delta == pytest.approx(2.0 / 3.0)
        assert MorrisConfig(levels=6).effective_delta == pytest.approx(0.6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MorrisConfig(levels=3)
        with pytest.raises(ValueError):
            MorrisConfig(trajectories=1)


class TestElementaryEffects:
    def test_linear_function_recovers_coefficients(self):
        a = np.array([3.0, -1.5, 0.5])
        config = MorrisConfig(trajectories=30, seed=0)
        trajs = generate_trajectories(3, config, np.random.default_rng(0))
        ee = elementary_effects(lambda X: X @ a, trajs, unit_ranges(3),
                                config.effective_delta)
        assert np.allclose(ee, np.tile(a, (30, 1)), atol=1e-12)

    def test_pure_single_coordinate_is_exact(self):
        # f(u) = 3*u1 + 0*u2: every elementary effect is exactly 3.0 / 0.0
        config = MorrisConfig(trajectories=100, seed=5)
        trajs = generate_trajectories(2, config, np.random.default_rng(5))
        ee = elementary_effects(lambda X: 3.0 * X[:, 0] + 0.0 * X[:, 1], trajs,
                                unit_ranges(2), config.effective_delta)
        assert np.all(ee[:, 0] == 3.0)
        assert np.all(ee[:, 1] == 0.0)

    def test_constant_function(self):
        config = MorrisConfig(trajectories=10, seed=1)
        trajs = generate_trajectories(4, config, np.random.default_rng(1))
        ee = elementary_effects(lambda X: np.full(len(X), 0.25), trajs,
                                unit_ranges(4), config.effective_delta)
        assert np.all(ee == 0.0)

    def test_interaction_produces_sigma(self):
        config = MorrisConfig(trajectories=50, seed=2)
        trajs = generate_trajectories(2, config, np.random.default_rng(2))
        ee = elementary_effects(lambda X: X[:, 0] * X[:, 1], trajs,
                                unit_ranges(2), config.effective_delta)
        result = aggregate(ee, ["u1", "u2"])
        assert result.sigma[0] > 0.0 and result.sigma[1] > 0.0
        # EE_1 equals the current u2, a grid value in [0, 1], so the sample
        # std cannot exceed 0.5 * sqrt(r / (r - 1))
        bound = 0.5 * math.sqrt(50.0 / 49.0) + 1e-12
        assert result.sigma[0] <= bound and result.sigma[1] <= bound
        assert np.all((ee >= -1e-12) & (ee <= 1.0 + 1e-12))

    def test_degenerate_feature_zero_effect(self):
        ranges = FeatureRanges(lo=np.array([0.0, 2.0]), hi=np.array([1.0, 2.0]))
        config = MorrisConfig(trajectories=10, seed=3)
        trajs = generate_trajectories(2, config, np.random.default_rng(3))
        ee = elementary_effects(lambda X: X.sum(axis=1), trajs, ranges,
                                config.effective_delta)
        assert np.all(ee[:, 1] == 0.0)

    def test_one_model_call(self):
        shapes = []

        def counting(X):
            shapes.append(X.shape)
            return X.sum(axis=1)

        X_train = np.random.default_rng(8).normal(size=(50, 16))
        analyze(counting, X_train, MorrisConfig(seed=8))
        assert shapes == [(100 * 17, 16)]

    def test_large_screen_is_one_call(self):
        rows = []

        def linear(X):
            return 3.0 * X[:, 0] - 1.5 * X[:, 1] + 0.5 * X[:, 2]

        def counting(X):
            rows.append(len(X))
            return linear(X)

        config = MorrisConfig(trajectories=2000, seed=9)
        trajs = generate_trajectories(5, config, np.random.default_rng(9))
        ranges = FeatureRanges(lo=np.array([-1.0, 0.0, 2.0, -3.0, 0.5]),
                               hi=np.array([1.0, 4.0, 2.0, 3.0, 0.7]))
        ee = elementary_effects(counting, trajs, ranges, config.effective_delta)
        # the model bounds its own memory, so 2,000 trajectories are one call
        assert rows == [2000 * 6]
        assert np.array_equal(ee, loop_effects(linear, trajs, ranges, config.effective_delta))

    def test_wrong_output_length_rejected(self):
        config = MorrisConfig(trajectories=6, seed=4)
        trajs = generate_trajectories(3, config, np.random.default_rng(4))
        with pytest.raises(ValueError, match="23 outputs for 24 rows"):
            elementary_effects(lambda X: X[1:, 0], trajs, unit_ranges(3),
                               config.effective_delta)

    def test_non_finite_output_rejected(self):
        config = MorrisConfig(trajectories=5, seed=4)
        trajs = generate_trajectories(2, config, np.random.default_rng(4))
        with pytest.raises(ValueError, match="model returned a non-finite output"):
            elementary_effects(lambda X: np.full(len(X), np.nan), trajs,
                               unit_ranges(2), config.effective_delta)


class TestAggregate:
    def test_plus_minus_one(self):
        result = aggregate(np.array([[1.0], [-1.0]]), ["f"])
        assert result.mu[0] == 0.0
        assert result.mu_star[0] == 1.0
        assert result.sigma[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_all_equal(self):
        result = aggregate(np.full((5, 1), -0.4), ["f"])
        assert result.mu[0] == pytest.approx(-0.4)
        assert result.mu_star[0] == pytest.approx(0.4)
        assert result.sigma[0] == 0.0

    def test_linear_function_sigma_vanishes(self):
        a = np.array([2.0, -1.0])
        config = MorrisConfig(trajectories=40, seed=6)
        trajs = generate_trajectories(2, config, np.random.default_rng(6))
        ee = elementary_effects(lambda X: X @ a, trajs, unit_ranges(2),
                                config.effective_delta)
        result = aggregate(ee, ["a", "b"])
        assert np.all(result.sigma < 1e-9)
        assert result.mu_star == pytest.approx(np.abs(a), abs=1e-12)

    def test_ranking_sorted_with_ties_in_schema_order(self):
        ee = np.array([[1.0, 2.0, 1.0], [1.0, 2.0, 1.0]])
        result = aggregate(ee, ["x", "y", "z"])
        assert result.ranking == ["y", "x", "z"]

    @pytest.mark.parametrize("seed", range(6))
    def test_mu_star_bounds_mu(self, seed):
        ee = np.random.default_rng(seed).normal(size=(30, 5))
        result = aggregate(ee, [f"f{j}" for j in range(5)])
        assert np.all(result.mu_star >= np.abs(result.mu) - 1e-12)
        assert np.all(result.sigma >= 0.0)

    def test_too_few_trajectories(self):
        with pytest.raises(ValueError, match="need at least 2 trajectories to aggregate"):
            aggregate(np.ones((1, 3)), ["a", "b", "c"])


class TestAnalyze:
    def test_evaluation_count(self):
        calls = {"rows": 0}

        def counting(X):
            calls["rows"] += len(X)
            return X[:, 0]

        X_train = np.random.default_rng(0).normal(size=(50, 6))
        config = MorrisConfig(trajectories=25, seed=0)
        analyze(counting, X_train, config)
        assert calls["rows"] == 25 * (6 + 1)

    def test_reports_evaluations_and_degenerate_features(self):
        X_train = np.random.default_rng(4).normal(size=(30, 4))
        X_train[:, 2] = 1.5
        result = analyze(lambda X: X.sum(axis=1), X_train,
                         MorrisConfig(trajectories=12, seed=4))
        assert result.model_evals == 12 * 5
        assert result.degenerate.tolist() == [False, False, True, False]
        assert result.mu_star[2] == 0.0 and np.all(result.mu_star[[0, 1, 3]] > 0.0)

    def test_deterministic(self):
        X_train = np.random.default_rng(1).normal(size=(40, 4))
        config = MorrisConfig(trajectories=10, seed=9)
        f = lambda X: 1.0 / (1.0 + np.exp(-X.sum(axis=1)))
        a, b = analyze(f, X_train, config), analyze(f, X_train, config)
        assert np.array_equal(a.mu_star, b.mu_star)
        assert a.ranking == b.ranking

    def test_positive_scaling_preserves_ranking(self):
        X_train = np.random.default_rng(2).normal(size=(40, 3))
        config = MorrisConfig(trajectories=20, seed=3)
        f = lambda X: 1.0 / (1.0 + np.exp(-(2 * X[:, 0] - X[:, 1] + 0.3 * X[:, 2])))
        base = analyze(f, X_train, config)
        scaled = analyze(lambda X: 5.0 * f(X), X_train, config)
        assert scaled.ranking == base.ranking
        assert scaled.mu_star == pytest.approx(5.0 * base.mu_star, rel=1e-12)
        assert scaled.sigma == pytest.approx(5.0 * base.sigma, rel=1e-9)

    def test_covers_all_features_of_model(self):
        mlp = init_mlp(16, [8], seed=0, dropout=0.0)
        X_train = np.random.default_rng(3).normal(size=(60, 16))
        config = MorrisConfig(trajectories=5, seed=1)
        result = analyze(lambda X: predict_proba(mlp, X), X_train, config,
                         feature_names=[f"c{j}" for j in range(16)])
        assert len(result.mu_star) == 16
        assert sorted(result.ranking) == sorted(f"c{j}" for j in range(16))
