import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from thyrec.neural import (BCE_EPS, MLP, PREDICT_ROWS, Layer, TrainConfig, _sigmoid,
                           adam_step, backward, bce_loss, forward, init_adam, init_mlp,
                           predict_proba, train)
from thyrec.metrics import confusion
from thyrec.persist import load_model, save_model


def zeroed(mlp):
    for layer in mlp.layers:
        layer.W[:] = 0.0
        layer.b[:] = 0.0
    return mlp


class TestInit:
    def test_layer_shapes(self):
        mlp = init_mlp(16, [128, 64, 32], seed=0)
        assert [l.W.shape for l in mlp.layers] == [(16, 128), (128, 64), (64, 32), (32, 1)]
        assert [l.b.shape[0] for l in mlp.layers] == [128, 64, 32, 1]

    def test_parameter_count(self):
        assert init_mlp(16, [128, 64, 32], seed=0).flat.size == 12545

    def test_glorot_bounds_and_zero_biases(self):
        mlp = init_mlp(10, [6], seed=1)
        limit = math.sqrt(6.0 / (10 + 6))
        assert np.all(np.abs(mlp.layers[0].W) <= limit)
        assert np.all(mlp.layers[0].b == 0.0)

    def test_same_seed_bit_identical(self):
        a, b = init_mlp(8, [5, 3], seed=42), init_mlp(8, [5, 3], seed=42)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.W, lb.W)

    def test_hidden_relu_output_sigmoid(self):
        mlp = init_mlp(4, [3], seed=0)
        X = np.random.default_rng(0).normal(size=(50, 4))
        hidden = X @ mlp.layers[0].W + mlp.layers[0].b
        cache = forward(mlp, X)
        assert (hidden < 0).any() and (hidden > 0).any()
        assert np.array_equal(cache.inputs[1], np.maximum(hidden, 0.0))
        logit = cache.inputs[1] @ mlp.layers[1].W + mlp.layers[1].b
        assert np.array_equal(cache.probs, _sigmoid(logit)[:, 0])
        assert mlp.dropout_rates == [0.5]

    @pytest.mark.parametrize("rates", [[], [0.5, 0.5]], ids=["none", "one-too-many"])
    def test_one_dropout_rate_per_hidden_layer(self, rates):
        layers = [Layer(np.ones((2, 2)), np.zeros(2)), Layer(np.ones((2, 1)), np.zeros(1))]
        with pytest.raises(ValueError, match="dropout rates"):
            MLP(layers=layers, dropout_rates=rates)

    @pytest.mark.parametrize("d_out", [2, 0])
    def test_one_output_unit(self, d_out):
        """Else predict_proba would read unit 0 of two, or none."""
        layers = [Layer(np.ones((2, 2)), np.zeros(2)),
                  Layer(np.ones((2, d_out)), np.zeros(d_out))]
        with pytest.raises(ValueError, match="last layer must have exactly one output unit"):
            MLP(layers=layers, dropout_rates=[0.0])

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, float("nan")])
    def test_dropout_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError):
            init_mlp(4, [3], seed=0, dropout=rate)

    @pytest.mark.parametrize("d_in, hidden", [(0, [3]), (4, []), (4, [5, 0]), (4, [-1])])
    def test_empty_layout_rejected(self, d_in, hidden):
        with pytest.raises(ValueError, match="need d_in >= 1 and a non-empty hidden layout"):
            init_mlp(d_in, hidden, seed=0)


class TestForward:
    def test_zero_weights_give_half(self):
        mlp = zeroed(init_mlp(5, [4, 3], seed=0))
        p = predict_proba(mlp, np.random.default_rng(0).normal(size=(7, 5)))
        assert np.all(p == 0.5)

    def test_infer_mode_pure(self):
        mlp = init_mlp(6, [8], seed=3)
        X = np.random.default_rng(1).normal(size=(5, 6))
        assert np.array_equal(predict_proba(mlp, X), predict_proba(mlp, X))

    def test_hand_built_network(self):
        # 2-2-1 net, all weights 1, input (1,1): hidden relu([2,2]) = [2,2],
        # output logit 4, probability 1/(1+e^-4)
        mlp = MLP(layers=[Layer(np.ones((2, 2)), np.zeros(2)),
                          Layer(np.ones((2, 1)), np.zeros(1))],
                  dropout_rates=[0.0])
        p = predict_proba(mlp, np.array([[1.0, 1.0]]))
        assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-4.0)), abs=1e-15)

    def test_dimension_mismatch(self):
        mlp = init_mlp(4, [3], seed=0)
        with pytest.raises(ValueError):
            forward(mlp, np.ones((2, 5)))

    def test_dropout_preserves_expectation(self):
        # one unit with activation 1.0; inverted-dropout mean over 1e5 draws
        mlp = MLP(layers=[Layer(np.ones((1, 1)), np.zeros(1)),
                          Layer(np.ones((1, 1)), np.zeros(1))],
                  dropout_rates=[0.5])
        X = np.ones((100_000, 1))
        cache = forward(mlp, X, train=True, rng=np.random.default_rng(11))
        masked = cache.inputs[1][:, 0]    # hidden activation after the mask
        assert abs(masked.mean() - 1.0) < 0.01
        assert set(np.unique(masked)) == {0.0, 2.0}


class TestBceLoss:
    def test_half_probability(self):
        assert bce_loss(np.array([0.5]), np.array([1.0])) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_clamp_floor_on_exact_prediction(self):
        loss = bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert 0.0 < loss <= -math.log(1.0 - 1e-7) + 1e-18

    def test_hand_batch(self):
        loss = bce_loss(np.array([0.8, 0.2]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(-math.log(0.8), abs=1e-12)
        assert loss == pytest.approx(0.223144, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bce_loss(np.array([0.5, 0.5]), np.array([1.0]))


def numeric_gradients(mlp, X, y, h=1e-5):
    """Central finite differences of the clamped BCE through the full model,
    one per entry of `mlp.flat`."""
    grad = np.zeros_like(mlp.flat)
    for i in range(mlp.flat.size):
        orig = mlp.flat[i]
        mlp.flat[i] = orig + h
        up = bce_loss(forward(mlp, X).probs, y)
        mlp.flat[i] = orig - h
        down = bce_loss(forward(mlp, X).probs, y)
        mlp.flat[i] = orig
        grad[i] = (up - down) / (2.0 * h)
    return grad


def analytic_gradients(mlp, X, y):
    cache = forward(mlp, X, train=True, rng=np.random.default_rng(0))
    return backward(mlp, cache, y)


def max_relative_error(analytic, numeric):
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))


def draw_safe_case(seed, d=4, hidden=(8, 5), rows=6):
    """Random net and batch keeping pre-activations away from the ReLU kink
    and the output away from the BCE clamp, where finite differences are
    ill-defined."""
    rng = np.random.default_rng(seed)
    mlp = init_mlp(d, list(hidden), seed=seed, dropout=0.0)
    X = rng.normal(size=(rows, d))
    y = rng.integers(0, 2, size=rows).astype(np.float64)
    cache = forward(mlp, X)
    pre = [a @ layer.W + layer.b for a, layer in zip(cache.inputs, mlp.layers)]
    min_abs_z = min(float(np.min(np.abs(z))) for z in pre[:-1])
    if min_abs_z < 1e-4 or float(np.max(np.abs(pre[-1]))) > 10.0:
        return None
    return mlp, X, y


class TestBackward:
    def test_sigmoid_bce_identity(self):
        # single sigmoid unit: d(loss)/d(bias) = p - y for one row
        W = np.array([[0.3], [-0.2]])
        mlp = MLP(layers=[Layer(W, np.array([0.1]))], dropout_rates=[])
        X = np.array([[1.0, 2.0]])
        y = np.array([1.0])
        cache = forward(mlp, X, train=True, rng=np.random.default_rng(0))
        grad = backward(mlp, cache, y)     # [W (2), b (1)]
        assert grad[2] == pytest.approx(cache.probs[0] - 1.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        case = None
        attempt = seed * 1000
        while case is None:
            case = draw_safe_case(attempt)
            attempt += 1
        mlp, X, y = case
        err = max_relative_error(analytic_gradients(mlp, X, y),
                                 numeric_gradients(mlp, X, y))
        assert err < 1e-4

    def test_hand_built_two_hidden_layers(self):
        # Layers carry only W and b: both hidden layers apply ReLU, the last
        # applies sigmoid, and backward differentiates exactly that
        rng = np.random.default_rng(5)
        Ws = [rng.normal(size=(3, 4)), rng.normal(size=(4, 3)), rng.normal(size=(3, 1))]
        bs = [rng.normal(size=4) * 0.1, rng.normal(size=3) * 0.1, np.array([0.2])]
        mlp = MLP(layers=[Layer(W, b) for W, b in zip(Ws, bs)], dropout_rates=[0.0, 0.0])
        X = rng.normal(size=(6, 3))
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        cache = forward(mlp, X)
        a, pre = X, []
        for W, b in zip(Ws[:-1], bs[:-1]):
            pre.append(a @ W + b)
            a = np.maximum(pre[-1], 0.0)
        assert min(float(np.min(np.abs(z))) for z in pre) > 1e-4
        assert all((z < 0).any() for z in pre)
        assert np.array_equal(cache.inputs[1], np.maximum(pre[0], 0.0))
        assert np.array_equal(cache.inputs[2], a)
        assert np.array_equal(cache.probs, _sigmoid(a @ Ws[2] + bs[2])[:, 0])
        err = max_relative_error(analytic_gradients(mlp, X, y), numeric_gradients(mlp, X, y))
        assert err < 1e-4

    def test_duplicate_rows_mean_invariance(self):
        mlp = init_mlp(3, [4], seed=5, dropout=0.0)
        x = np.array([[0.5, -1.0, 2.0]])
        y1 = np.array([1.0])
        g_single = analytic_gradients(mlp, x, y1)
        g_double = analytic_gradients(mlp, np.vstack([x, x]), np.array([1.0, 1.0]))
        for a, b in zip(g_single, g_double):
            assert np.allclose(a, b, atol=1e-15)

    def test_stale_cache_rejected(self):
        mlp = init_mlp(3, [4], seed=0)
        cache = forward(mlp, np.ones((2, 3)), train=True, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            backward(mlp, cache, np.array([1.0, 0.0, 1.0]))

    def test_cache_of_another_layout_rejected(self):
        """Targets of the batch's length, but the cache holds one layer
        input fewer than this network has layers."""
        cache = forward(init_mlp(3, [4], seed=0), np.ones((2, 3)), train=True,
                        rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="activation shapes do not match this batch"):
            backward(init_mlp(3, [4, 4], seed=0), cache, np.array([1.0, 0.0]))

    def test_train_mode_dropout_needs_an_rng(self):
        with pytest.raises(ValueError, match="train-mode forward with dropout needs an rng"):
            forward(init_mlp(3, [4], seed=0), np.ones((2, 3)), train=True)


def reference_adam_scalar(grads, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Hand-rolled scalar Adam recurrence, evaluated step by step."""
    theta, m, v = 0.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


class TestAdam:
    def test_first_step_magnitude(self):
        config = TrainConfig(seed=0)
        for g in (1.0, -2.5, 0.01, 0.001):
            param = np.array([0.0])
            state = init_adam(param)
            adam_step(param, np.array([g]), state, config)
            assert abs(abs(param[0]) - config.learning_rate) < 1e-6
            assert math.copysign(1.0, param[0]) == -math.copysign(1.0, g)

    def test_zero_gradient_noop(self):
        param = np.array([1.5, -2.0])
        state = init_adam(param)
        adam_step(param, np.zeros(2), state, TrainConfig(seed=0))
        assert param.tolist() == [1.5, -2.0]
        assert np.all(state.m == 0.0) and np.all(state.v == 0.0)
        assert state.t == 1

    def test_two_steps_match_hand_recurrence(self):
        param = np.array([0.0])
        state = init_adam(param)
        config = TrainConfig(seed=0)
        adam_step(param, np.array([1.0]), state, config)
        adam_step(param, np.array([1.0]), state, config)
        assert param[0] == pytest.approx(reference_adam_scalar([1.0, 1.0]), abs=1e-15)

    def test_shape_mismatch(self):
        param = np.zeros(4)
        with pytest.raises(ValueError):
            adam_step(param, np.zeros(3), init_adam(param), TrainConfig(seed=0))


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"beta1": 1.0}, {"beta1": -0.1}, {"beta1": float("nan")}, {"beta2": 1.0},
        {"beta2": -1e-3}, {"epsilon": 0.0}, {"epsilon": -1e-8}, {"epsilon": float("nan")},
        {"learning_rate": float("nan")}, {"learning_rate": float("inf")}],
        ids=["beta1-1", "beta1-negative", "beta1-nan", "beta2-1", "beta2-negative",
             "epsilon-0", "epsilon-negative", "epsilon-nan", "lr-nan", "lr-inf"])
    def test_adam_hyperparameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"validation_fraction": 1.0}, "validation_fraction must be in \\[0, 1\\)"),
        ({"validation_fraction": -0.1}, "validation_fraction must be in \\[0, 1\\)")],
        ids=["batch-0", "validation-1", "validation-negative"])
    def test_batch_and_validation_settings_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"beta1": 0.0, "beta2": 0.0}, {"beta1": 0.999999, "beta2": 0.999999},
        {"epsilon": 1e-300}], ids=["betas-0", "betas-near-1", "epsilon-tiny"])
    def test_adam_hyperparameter_edges_accepted(self, kwargs):
        TrainConfig(**kwargs)


def separable_blobs(n=20, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([rng.normal(-2.0, 0.4, size=(half, 2)),
                   rng.normal(2.0, 0.4, size=(n - half, 2))])
    y = np.array([0] * half + [1] * (n - half))
    return X, y


def carve(X, y, rng, n_val):
    """(X_fit, y_fit, X_val, y_val): the last n_val rows of a shuffle drawn
    from rng monitor, the others train, as `persist.fit` picks them."""
    perm = rng.permutation(len(y))
    keep, val = perm[:len(y) - n_val], perm[len(y) - n_val:]
    return X[keep], y[keep], X[val], y[val]


class TestTrain:
    def test_linearly_separable_reaches_full_accuracy(self):
        X, y = separable_blobs()
        mlp = init_mlp(2, [8], seed=0, dropout=0.0)
        config = TrainConfig(epochs=200, dropout=0.0, validation_fraction=0.0, seed=0)
        mlp, history = train(mlp, X, y, config, np.random.default_rng(0))
        assert history.train_accuracy[-1] == 1.0

    def test_history_length(self):
        X, y = separable_blobs()
        mlp = init_mlp(2, [4], seed=1, dropout=0.0)
        rng = np.random.default_rng(1)
        X_fit, y_fit, X_val, y_val = carve(X, y, rng, 4)
        _, history = train(mlp, X_fit, y_fit, TrainConfig(epochs=7, dropout=0.0, seed=1),
                           rng, X_val, y_val)
        assert len(history) == 7
        assert all(math.isfinite(v) for v in history.val_loss)

    def test_history_table_numbers_epochs_from_one(self):
        """history.csv's rows; without a validation set its entries are NaN."""
        X, y = separable_blobs()
        mlp = init_mlp(2, [4], seed=1, dropout=0.0)
        config = TrainConfig(epochs=3, dropout=0.0, validation_fraction=0.0, seed=1)
        _, history = train(mlp, X, y, config, np.random.default_rng(1))
        header, rows = history.table()
        assert header == ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"]
        assert [row[0] for row in rows] == [1, 2, 3]
        assert [list(row[1:3]) for row in rows] == \
            [list(pair) for pair in zip(history.train_loss, history.train_accuracy)]
        assert all(len(row) == 5 and math.isnan(row[3]) and math.isnan(row[4])
                   for row in rows)

    def test_deterministic_weights_and_history(self):
        X, y = separable_blobs(seed=3)
        runs = []
        for _ in range(2):
            mlp = init_mlp(2, [6, 3], seed=9)
            rng = np.random.default_rng(9)
            X_fit, y_fit, X_val, y_val = carve(X, y, rng, 4)
            mlp, history = train(mlp, X_fit, y_fit, TrainConfig(epochs=5, seed=9), rng,
                                 X_val, y_val)
            runs.append((mlp, history))
        for la, lb in zip(runs[0][0].layers, runs[1][0].layers):
            assert np.array_equal(la.W, lb.W) and np.array_equal(la.b, lb.b)
        assert runs[0][1] == runs[1][1]

    def test_trains_on_what_it_is_given(self):
        """The rng, the rows and the monitoring rows decide a run: the
        config's seed and validation fields are not read."""
        X, y = separable_blobs(seed=4)
        runs = []
        for config in (TrainConfig(epochs=3, seed=0, validation_fraction=0.0),
                       TrainConfig(epochs=3, seed=5, validation_fraction=0.5,
                                   validation_source="test-as-paper")):
            mlp, history = train(init_mlp(2, [6], seed=2), X, y, config,
                                 np.random.default_rng(7), X[:3], y[:3])
            runs.append((mlp.flat.tobytes(), history))
        assert runs[0] == runs[1]

    def test_partial_final_batch_included(self):
        # 11 rows with batch 4: gradients from all rows, run must not crash
        rng = np.random.default_rng(2)
        X, y = rng.normal(size=(11, 3)), rng.integers(0, 2, size=11)
        mlp = init_mlp(3, [4], seed=2)
        _, history = train(mlp, X, y, TrainConfig(epochs=2, batch_size=4, seed=2,
                                                  validation_fraction=0.0), rng)
        assert len(history) == 2

    def test_empty_training_set(self):
        mlp = init_mlp(2, [3], seed=0)
        with pytest.raises(ValueError):
            train(mlp, np.empty((0, 2)), np.empty(0), TrainConfig(seed=0),
                  np.random.default_rng(0))

    def test_diverging_run_names_the_first_bad_epoch(self, recwarn):
        X, y = separable_blobs()
        config = TrainConfig(learning_rate=1e300, epochs=1, seed=0)
        mlp, _ = train(init_mlp(2, [8, 4], seed=0), X, y, config, np.random.default_rng(0))
        assert np.isfinite(mlp.flat).all()
        config.epochs = 5
        with pytest.raises(ValueError, match="non-finite weights or training loss after epoch 2 "):
            train(init_mlp(2, [8, 4], seed=0), X, y, config, np.random.default_rng(0))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestPredict:
    def test_range_and_threshold(self):
        mlp = init_mlp(4, [5], seed=8)
        X = np.random.default_rng(0).normal(size=(30, 4))
        p = predict_proba(mlp, X)
        assert np.all((p >= 0.0) & (p <= 1.0))
        y = np.arange(30) % 2
        assert confusion(y, p) == confusion(y, (p >= 0.5).astype(np.int64))

    def test_zero_weight_model_all_half(self):
        mlp = zeroed(init_mlp(3, [4], seed=0))
        assert np.all(predict_proba(mlp, np.ones((4, 3))) == 0.5)

    @pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 5 * 1024 + 17])
    def test_fixed_blocks(self, rows):
        assert PREDICT_ROWS == 1024
        mlp = paper_net(3)
        X = np.random.default_rng(rows).normal(size=(rows, 16))
        p = predict_proba(mlp, X)
        blocks = [forward(mlp, X[lo:lo + 1024]).probs for lo in range(0, rows, 1024)]
        assert p.shape == (rows,)
        assert p.tobytes() == np.concatenate([np.empty(0)] + blocks).tobytes()
        np.testing.assert_allclose(p, forward(mlp, X).probs, rtol=0.0, atol=1e-12)

    def test_memory_bounded_by_one_block(self):
        mlp = paper_net(3)
        X = np.random.default_rng(0).normal(size=(38_300, 16))
        tracemalloc.start()
        try:
            predict_proba(mlp, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one whole-batch forward peaks near 70 MB here
        assert peak < 8e6

    @pytest.mark.parametrize("shape", [(0, 5), (2, 5), (2048, 3), (4,)])
    def test_dimension_mismatch(self, shape):
        mlp = init_mlp(4, [3], seed=0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict_proba(mlp, np.ones(shape))


def masked_sigmoid(z):
    """The output sigmoid before it went branch-free: boolean-mask indexing
    into one output array."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_masked_formula():
    """Bit for bit on every non-NaN input: a million values across the
    float range plus signed zeros, infinities, the exp underflow edge and
    subnormals, shaped like the output layer's (n, 1) pre-activations."""
    rng = np.random.default_rng(0)
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0,
                        709.8, -709.8, 36.7, -36.7, tiny, -tiny, 1e-310, -1e-310])
    z = np.concatenate([special, rng.normal(scale=10.0, size=500_000),
                        rng.uniform(-800.0, 800.0, size=499_984)])[:, None]
    assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


def blockwise_reference(mlp, X):
    """predict_proba's blocks run through `forward` without a workspace."""
    blocks = [forward(mlp, X[lo:lo + PREDICT_ROWS]).probs
              for lo in range(0, len(X), PREDICT_ROWS)]
    return np.concatenate([np.empty(0)] + blocks)


class TestWorkspace:
    def test_warm_call_allocates_no_block_memory(self):
        mlp = paper_net(3)
        X = np.random.default_rng(0).normal(size=(5001, 16))
        predict_proba(mlp, X)
        tracemalloc.start()
        try:
            predict_proba(mlp, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's fresh activations alone take ~1.8 MB
        assert peak < 256 * 1024

    def test_layouts_alternated_in_one_thread(self):
        nets = [paper_net(3), init_mlp(16, [7, 5], seed=4), paper_net(5)]
        X = np.random.default_rng(1).normal(size=(2 * PREDICT_ROWS + 9, 16))
        expected = [blockwise_reference(mlp, X).tobytes() for mlp in nets]
        for _ in range(2):
            for mlp, want in zip(nets, expected):
                assert predict_proba(mlp, X).tobytes() == want

    @pytest.mark.parametrize("rows", [1, PREDICT_ROWS + 5])
    def test_result_unchanged_by_later_call(self, rows):
        mlp = paper_net(3)
        rng = np.random.default_rng(rows)
        p = predict_proba(mlp, rng.normal(size=(rows, 16)))
        before = p.tobytes()
        predict_proba(mlp, rng.normal(size=(rows, 16)))
        assert p.tobytes() == before

    def test_concurrent_threads_match_serial_calls(self):
        """Each thread predicts into its own workspace: more threads than
        cores, two on one model with different inputs, one on a second model
        of the same layout and one on another layout, with a short switch
        interval, give the bytes of the same calls made one after another."""
        rng = np.random.default_rng(7)
        shared = paper_net(3)
        nets = [shared, shared, paper_net(5), init_mlp(16, [7, 5], seed=4)]
        jobs = [(mlp, rng.normal(size=(2 * PREDICT_ROWS + 300, 16))) for mlp in nets]
        serial = [predict_proba(mlp, X).tobytes() for mlp, X in jobs]
        results = [[] for _ in jobs]
        start = threading.Barrier(len(jobs))

        def work(i):
            mlp, X = jobs[i]
            start.wait(timeout=30)
            for _ in range(5):
                results[i].append(predict_proba(mlp, X).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[want] * 5 for want in serial]


# Per-array reference: the forward, backward and Adam of the implementation
# that kept every weight and bias in its own array, a `pre` cache per layer
# and one Adam pass per array. The flat-vector code must match it bit for bit.

def reference_forward(layers, rates, X, train=False, rng=None):
    inputs, pre, masks = [], [], []
    a = X
    for l, (W, b) in enumerate(layers):
        inputs.append(a)
        z = a @ W + b
        pre.append(z)
        if l < len(layers) - 1:
            a = np.maximum(z, 0.0)
            if train and rates[l] > 0.0:
                keep = 1.0 - rates[l]
                mask = (rng.random(a.shape) < keep) / keep
                a = a * mask
                masks.append(mask)
            else:
                masks.append(None)
        else:
            a = _sigmoid(z)
    return inputs, pre, masks, a[:, 0]


def reference_backward(layers, cache, y):
    inputs, pre, masks, p = cache
    n = y.shape[0]
    inside = (p > BCE_EPS) & (p < 1.0 - BCE_EPS)
    dz = (np.where(inside, p - y, 0.0) / n)[:, None]
    grads = [np.empty(0)] * (2 * len(layers))
    for l in range(len(layers) - 1, -1, -1):
        grads[2 * l] = inputs[l].T @ dz
        grads[2 * l + 1] = dz.sum(axis=0)
        if l > 0:
            da = dz @ layers[l][0].T
            if masks[l - 1] is not None:
                da = da * masks[l - 1]
            dz = da * (pre[l - 1] > 0.0)
    return grads


def reference_adam(params, grads, m, v, t, config):
    b1, b2 = config.beta1, config.beta2
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= b1
        mi += (1.0 - b1) * g
        vi *= b2
        vi += (1.0 - b2) * g * g
        p -= config.learning_rate * (mi / bc1) / (np.sqrt(vi / bc2) + config.epsilon)


class ReferenceNet:
    """Independent per-array copies of an MLP's parameters and Adam moments."""

    def __init__(self, mlp):
        self.layers = [(l.W.copy(), l.b.copy()) for l in mlp.layers]
        self.rates = list(mlp.dropout_rates)
        self.params = [a for layer in self.layers for a in layer]
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, X, y, rng, config):
        cache = reference_forward(self.layers, self.rates, X, True, rng)
        grads = reference_backward(self.layers, cache, y)
        self.t += 1
        reference_adam(self.params, grads, self.m, self.v, self.t, config)
        return grads

    def predict(self, X):
        return reference_forward(self.layers, self.rates, X)[3]


def reference_train(net, X, y, config, rng, X_val, y_val):
    """The train loop over ReferenceNet, drawing from rng; returns the
    (train_loss, val_loss) lists."""
    train_loss, val_loss = [], []
    for _ in range(config.epochs):
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], config.batch_size):
            batch = order[start:start + config.batch_size]
            net.step(X[batch], y[batch].astype(np.float64), rng, config)
        train_loss.append(bce_loss(net.predict(X), y))
        val_loss.append(bce_loss(net.predict(X_val), y_val))
    return train_loss, val_loss


def concat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def same_bytes(arrays, reference):
    return len(arrays) == len(reference) and all(
        a.shape == r.shape and a.tobytes() == r.tobytes() for a, r in zip(arrays, reference))


def paper_net(seed):
    return init_mlp(16, [128, 64, 32], seed=seed, dropout=0.5)


class TestFlatParameters:
    def test_views_share_one_vector(self):
        mlp = paper_net(0)
        assert mlp.flat.dtype == np.float64 and mlp.flat.size == 12545
        assert all(np.shares_memory(p, mlp.flat) for p in mlp.parameters())
        assert np.array_equal(np.concatenate([p.ravel() for p in mlp.parameters()]), mlp.flat)

    def test_views_survive_persist_round_trip(self, tmp_path):
        from test_persist import make_artifact
        path = tmp_path / "m.json"
        artifact = make_artifact()
        save_model(artifact, str(path))
        loaded = load_model(str(path)).mlp
        assert all(np.shares_memory(p, loaded.flat) for p in loaded.parameters())
        assert same_bytes(loaded.parameters(), artifact.mlp.parameters())

    def test_hand_built_layers_become_views(self):
        W = np.arange(6, dtype=np.int64).reshape(3, 2)
        mlp = MLP(layers=[Layer(W, np.zeros(2)),
                          Layer(np.ones((2, 1)), np.zeros(1))], dropout_rates=[0.0])
        assert mlp.flat.dtype == np.float64
        assert mlp.layers[0].W.tolist() == W.tolist()
        mlp.flat[:] = 0.0
        assert np.all(predict_proba(mlp, np.ones((2, 3))) == 0.5)

    def test_gradients_are_views_of_fresh_vectors(self):
        mlp = paper_net(1)
        X = np.random.default_rng(1).normal(size=(8, 16))
        y = np.ones(8)
        first = backward(mlp, forward(mlp, X), y)
        second = backward(mlp, forward(mlp, X), y)
        assert first.shape == mlp.flat.shape and first.dtype == np.float64
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, mlp.flat)
        assert first.tobytes() == second.tobytes()


class TestMatchesPerArrayReference:
    @pytest.mark.parametrize("rows", [17, 245, 5001])
    def test_predict(self, rows):
        mlp = paper_net(2)
        X = np.random.default_rng(rows).normal(size=(rows, 16))
        assert predict_proba(mlp, X).tobytes() == ReferenceNet(mlp).predict(X).tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dropout_train_steps(self, seed):
        mlp = paper_net(seed)
        ref = ReferenceNet(mlp)
        config = TrainConfig(seed=seed)
        data = np.random.default_rng(seed + 100)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        state = init_adam(mlp.flat)
        for rows in (32, 32, 32, 17, 32, 1):
            X = data.normal(size=(rows, 16))
            y = data.integers(0, 2, size=rows).astype(np.float64)
            grad = backward(mlp, forward(mlp, X, True, rng), y)
            ref_grads = ref.step(X, y, ref_rng, config)
            assert same_bytes([grad], [concat(ref_grads)])
            adam_step(mlp.flat, grad, state, config)
            assert same_bytes(mlp.parameters(), ref.params)
        assert same_bytes([state.m, state.v], [concat(ref.m), concat(ref.v)])

    def test_short_train_run(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(120, 16))
        y = (X[:, 0] + 0.5 * rng.normal(size=120) > 0).astype(np.int64)
        config = TrainConfig(epochs=4, seed=4)
        mlp = paper_net(4)
        ref = ReferenceNet(mlp)
        X_fit, y_fit, X_val, y_val = carve(X, y, np.random.default_rng(4), 24)
        _, history = train(mlp, X_fit, y_fit, config, np.random.default_rng(5), X_val, y_val)
        train_loss, val_loss = reference_train(ref, X_fit, y_fit, config,
                                               np.random.default_rng(5), X_val, y_val)
        assert same_bytes(mlp.parameters(), ref.params)
        assert history.train_loss == train_loss and history.val_loss == val_loss
