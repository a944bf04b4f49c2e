import numpy as np
import pytest

from thyrec.metrics import ConfusionMatrix, compute_metrics, confusion

PAPER_TEST_CM = ConfusionMatrix(tp=16, fp=0, tn=58, fn=3)


class TestConfusion:
    def test_counts(self):
        y_true = np.array([1, 1, 0, 0, 1, 0])
        y_pred = np.array([1, 0, 0, 1, 1, 0])
        cm = confusion(y_true, y_pred)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)

    def test_perfect_prediction(self):
        y = np.array([0, 1, 1, 0])
        cm = confusion(y, y)
        assert cm.fp == 0 and cm.fn == 0

    def test_inverted_prediction(self):
        y = np.array([0, 1, 1, 0])
        cm = confusion(y, 1 - y)
        assert cm.tp == 0 and cm.tn == 0

    def test_reported_test_set_composition(self):
        # 19 recurrences of which 16 detected, all 58 non-recurrences detected
        y_true = np.array([1] * 19 + [0] * 58)
        y_pred = np.array([1] * 16 + [0] * 3 + [0] * 58)
        cm = confusion(y_true, y_pred)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (16, 0, 58, 3)

    def test_probabilities_are_called_positive_from_half(self):
        y_true = np.array([1, 1, 1, 0, 0, 0, 1, 0])
        p = np.array([0.5, np.nextafter(0.5, 0.0), 1.0, 0.5, 0.0, 0.49, 0.9, np.nan])
        cm = confusion(y_true, p)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (3, 1, 3, 1)
        assert cm == confusion(y_true, (p >= 0.5).astype(np.int64))

    @pytest.mark.parametrize("seed", range(4))
    def test_counts_match_masked_sums(self, seed):
        rng = np.random.default_rng(seed)
        y_true, p = rng.integers(0, 2, size=97), rng.random(97)
        pos, called = y_true == 1, p >= 0.5
        assert confusion(y_true, p) == ConfusionMatrix(
            tp=int(np.sum(pos & called)), fp=int(np.sum(~pos & called)),
            tn=int(np.sum(~pos & ~called)), fn=int(np.sum(pos & ~called)))
        assert all(type(v) is int for v in vars(confusion(y_true, p)).values())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.array([1, 0]), np.array([1]))

    def test_empty_input(self):
        with pytest.raises(ValueError):
            confusion(np.array([]), np.array([]))


class TestComputeMetrics:
    def test_reported_test_column(self):
        m = compute_metrics(PAPER_TEST_CM)
        assert round(m.sensitivity, 4) == 0.8421
        assert m.specificity == 1.0
        assert m.ppv == 1.0
        assert round(m.npv, 4) == 0.9508
        assert round(m.accuracy, 4) == 0.9610

    def test_all_ones_for_perfect_classifier(self):
        m = compute_metrics(ConfusionMatrix(tp=5, fp=0, tn=5, fn=0))
        assert (m.accuracy, m.sensitivity, m.specificity, m.ppv, m.npv) == \
            (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_undefined_on_zero_denominator(self):
        m = compute_metrics(ConfusionMatrix(tp=0, fp=0, tn=10, fn=0))
        assert m.sensitivity is None and m.ppv is None
        assert m.specificity == 1.0 and m.npv == 1.0 and m.accuracy == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_as_dict_rounding(self):
        d = compute_metrics(PAPER_TEST_CM).as_dict(decimals=3)
        assert d == {"accuracy": 0.961, "sensitivity": 0.842,
                     "specificity": 1.0, "ppv": 1.0, "npv": 0.951}


class TestProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_swapping_positive_class(self, seed):
        rng = np.random.default_rng(seed)
        y_true = rng.integers(0, 2, size=60)
        y_pred = rng.integers(0, 2, size=60)
        m = compute_metrics(confusion(y_true, y_pred))
        swapped = compute_metrics(confusion(1 - y_true, 1 - y_pred))
        assert swapped.sensitivity == m.specificity
        assert swapped.specificity == m.sensitivity
        assert swapped.ppv == m.npv
        assert swapped.npv == m.ppv
        assert swapped.accuracy == m.accuracy

    @pytest.mark.parametrize("seed", range(8))
    def test_accuracy_decomposition(self, seed):
        rng = np.random.default_rng(100 + seed)
        y_true = rng.integers(0, 2, size=40)
        y_pred = rng.integers(0, 2, size=40)
        cm = confusion(y_true, y_pred)
        m = compute_metrics(cm)
        P, N = cm.tp + cm.fn, cm.tn + cm.fp
        if m.sensitivity is None or m.specificity is None:
            pytest.skip("one-class draw")
        expected = (m.sensitivity * P + m.specificity * N) / (P + N)
        assert m.accuracy == pytest.approx(expected, abs=1e-12)

    def test_reported_numbers_are_internally_consistent(self):
        # the published test-set matrix reproduces every published test metric
        m = compute_metrics(PAPER_TEST_CM)
        assert [round(v, 3) for v in (m.sensitivity, m.specificity, m.ppv, m.npv)] \
            == [0.842, 1.0, 1.0, 0.951]
        assert round(m.accuracy, 2) == 0.96
