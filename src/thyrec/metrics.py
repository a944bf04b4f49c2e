"""Confusion matrix and the clinical metric suite (accuracy, sensitivity,
specificity, PPV, NPV) with class 1 = positive.

A metric whose denominator is zero is reported as None, never silently 0 or 1:
a report must distinguish "no positives predicted" from "perfect precision".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of true and false positives and negatives, class 1 positive."""
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    """The clinical metric suite; None where a metric's denominator is zero."""
    accuracy: float | None
    sensitivity: float | None
    specificity: float | None
    ppv: float | None
    npv: float | None

    def as_dict(self, decimals: int | None = None) -> dict:
        return {name: value if value is None or decimals is None else round(value, decimals)
                for name, value in asdict(self).items()}


def confusion(y_true: np.ndarray, p: np.ndarray) -> ConfusionMatrix:
    """Counts of the labels y_true (1 = recurrence) against each row's
    P(recurrence) p. A row is predicted positive iff p >= 0.5, the one
    decision rule every clinical figure uses; a 0/1 label counts as itself."""
    y_true = np.asarray(y_true)
    p = np.asarray(p)
    if y_true.shape != p.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {p.shape}")
    if y_true.size == 0:
        raise ValueError("empty input")
    pos = y_true == 1
    called = p >= 0.5
    tp = int(np.count_nonzero(pos & called))
    n_called, n_pos = int(np.count_nonzero(called)), int(np.count_nonzero(pos))
    return ConfusionMatrix(tp=tp, fp=n_called - tp, tn=y_true.size - n_called - n_pos + tp,
                           fn=n_pos - tp)


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def compute_metrics(cm: ConfusionMatrix) -> MetricsReport:
    if cm.total <= 0:
        raise ValueError("confusion matrix is empty")
    return MetricsReport(
        accuracy=_ratio(cm.tp + cm.tn, cm.total),
        sensitivity=_ratio(cm.tp, cm.tp + cm.fn),
        specificity=_ratio(cm.tn, cm.tn + cm.fp),
        ppv=_ratio(cm.tp, cm.tp + cm.fp),
        npv=_ratio(cm.tn, cm.tn + cm.fn),
    )
