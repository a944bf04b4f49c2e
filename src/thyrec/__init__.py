"""Thyroid cancer recurrence prediction toolkit.

Tabular preprocessing, a from-scratch dense neural classifier, clinical
evaluation metrics, local surrogate explanations and Morris elementary-effects
sensitivity screening, with a CLI front end (`thyrec`).
"""

from .data import (Dataset, EncodedDataset, Feature, FeatureSchema, Scaler,
                   SplitIndices, apply_scaler, fit_scaler, label_encode,
                   load_csv, split, split_digest, stratified_split)
from .lime import Explanation, LimeConfig, explain
from .metrics import ConfusionMatrix, MetricsReport, compute_metrics, confusion
from .morris import FeatureRanges, MorrisConfig, MorrisResult, analyze
from .neural import (MLP, AdamState, TrainConfig, TrainHistory, adam_step,
                     backward, bce_loss, forward, init_mlp, predict_proba,
                     train)
from .persist import ModelArtifact, load_model, save_model

__version__ = "0.1.0"
