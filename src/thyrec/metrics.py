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
    accuracy: float | None
    sensitivity: float | None
    specificity: float | None
    ppv: float | None
    npv: float | None

    def as_dict(self, decimals: int | None = None) -> dict:
        return {name: value if value is None or decimals is None else round(value, decimals)
                for name, value in asdict(self).items()}


def confusion(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("empty input")
    pos = y_true == 1
    return ConfusionMatrix(
        tp=int(np.sum(pos & (y_pred == 1))),
        fp=int(np.sum(~pos & (y_pred == 1))),
        tn=int(np.sum(~pos & (y_pred == 0))),
        fn=int(np.sum(pos & (y_pred == 0))),
    )


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
