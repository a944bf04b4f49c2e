"""Model artifact persistence.

One self-describing JSON file holds the schema, scaler, layer shapes and
row-major weights, training configuration, final metrics and the split
fingerprint. Serialization is canonical (sorted keys, full-precision
shortest round-trip floats) so identical runs produce byte-identical files
and save -> load -> save is the identity.
"""

from __future__ import annotations

import functools
import json
import math
import types
from dataclasses import asdict, dataclass, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .data import Feature, FeatureSchema, Scaler
from .metrics import ConfusionMatrix, MetricsReport, compute_metrics
from .neural import MLP, Layer, TrainConfig

FORMAT_VERSION = 1
# Each layer's activation as written; a layer's position fixes it.
RELU = "relu"
SIGMOID = "sigmoid"


class ArtifactError(Exception):
    """Base class for unreadable or inconsistent model artifacts."""


class UnsupportedVersionError(ArtifactError):
    pass


class CorruptArtifactError(ArtifactError):
    pass


class MissingFieldError(ArtifactError):
    pass


@dataclass
class SplitInfo:
    seed: int
    ratio: float
    stratified: bool
    indices_digest: str

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("split ratio must be in (0, 1)")


@dataclass
class ModelArtifact:
    schema: FeatureSchema
    scaler: Scaler
    mlp: MLP
    train_config: TrainConfig
    final_metrics: dict[str, ConfusionMatrix]   # counts under "train" and "test"
    split: SplitInfo


def eval_to_dict(cm: ConfusionMatrix, decimals: int | None = None) -> dict:
    """Confusion counts and the metrics computed from them; decimals rounds
    the metrics for reports."""
    return {"confusion": asdict(cm), "metrics": compute_metrics(cm).as_dict(decimals)}


def artifact_to_dict(artifact: ModelArtifact) -> dict:
    last = len(artifact.mlp.layers) - 1
    return {
        "format_version": FORMAT_VERSION,
        "schema": asdict(artifact.schema),
        "scaler": {
            "means": artifact.scaler.means.tolist(),
            "stds": artifact.scaler.stds.tolist(),
        },
        "layers": [
            {
                "d_in": layer.W.shape[0],
                "d_out": layer.W.shape[1],
                "activation": SIGMOID if i == last else RELU,
                "weights": layer.W.reshape(-1).tolist(),   # row-major
                "bias": layer.b.tolist(),
            }
            for i, layer in enumerate(artifact.mlp.layers)
        ],
        "dropout_rates": list(artifact.mlp.dropout_rates),
        "train_config": asdict(artifact.train_config),
        "final_metrics": {name: eval_to_dict(cm)
                          for name, cm in artifact.final_metrics.items()},
        "split": asdict(artifact.split),
    }


def save_model(artifact: ModelArtifact, path: str) -> None:
    text = json.dumps(artifact_to_dict(artifact), sort_keys=True, indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _matches(value, hint) -> bool:
    """Whether a JSON value has a declared type: a bool only for bool, an
    int that is not a bool for int, any finite number for float, null only
    for X | None."""
    if get_origin(hint) is types.UnionType:
        return any(_matches(value, h) for h in get_args(hint))
    if hint is float:
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is hint


def _get(mapping: dict, key: str, context: str, hint=None):
    """mapping[key], which must have type hint when one is given."""
    try:
        value = mapping[key]
    except (KeyError, TypeError):
        raise MissingFieldError(f"missing field {context}.{key}") from None
    if hint is not None and not _matches(value, hint):
        name = getattr(hint, "__name__", hint)
        raise CorruptArtifactError(f"{context}.{key} must be {name}, not {value!r:.40}")
    return value


# get_type_hints compiles each string annotation on every call
_type_hints = functools.cache(get_type_hints)


def _record(cls, d: dict, context: str):
    """Build dataclass cls from the mapping d, one entry per field, each of
    the type its annotation declares."""
    hints = _type_hints(cls)
    return cls(**{f.name: _get(d, f.name, context, hints[f.name]) for f in fields(cls)})


def _array(d: dict, key: str, context: str) -> np.ndarray:
    values = _get(d, key, context, list)
    if not {type(v) for v in values} <= {int, float}:
        raise CorruptArtifactError(f"{context}.{key} must hold numbers only")
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise CorruptArtifactError(f"{context}.{key} holds a non-finite value")
    return values


def _schema_from_dict(d: dict) -> FeatureSchema:
    features = tuple(Feature(_get(fd, "name", "feature"), _get(fd, "kind", "feature"),
                             tuple(_get(fd, "vocab", "feature", list)))
                     for fd in _get(d, "features", "schema", list))
    return FeatureSchema(features, _get(d, "target_name", "schema"),
                         tuple(_get(d, "target_vocab", "schema", list)))


def _artifact_from_dict(raw: dict) -> ModelArtifact:
    version = _get(raw, "format_version", "artifact", int)
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"format_version {version} not supported (expected {FORMAT_VERSION})")

    schema = _schema_from_dict(_get(raw, "schema", "artifact"))
    d = len(schema.features)

    scaler_d = _get(raw, "scaler", "artifact")
    scaler = Scaler(means=_array(scaler_d, "means", "scaler"),
                    stds=_array(scaler_d, "stds", "scaler"))
    if scaler.means.shape != (d,) or scaler.stds.shape != (d,):
        raise CorruptArtifactError(f"scaler means/stds need one entry per feature ({d})")
    if np.any(scaler.stds <= 0):
        raise CorruptArtifactError("scaler stds must be > 0")

    layers = []
    prev_out = None
    layer_dicts = _get(raw, "layers", "artifact", list)
    for i, ld in enumerate(layer_dicts):
        d_in, d_out = _get(ld, "d_in", "layer", int), _get(ld, "d_out", "layer", int)
        weights = _array(ld, "weights", f"layer {i}")
        bias = _array(ld, "bias", f"layer {i}")
        if weights.shape != (d_in * d_out,) or bias.shape != (d_out,):
            raise CorruptArtifactError(f"layer {i}: declared shape does not match array length")
        if prev_out is not None and d_in != prev_out:
            raise CorruptArtifactError(f"layer {i}: dimensions do not chain")
        activation = _get(ld, "activation", "layer")
        expected = SIGMOID if i == len(layer_dicts) - 1 else RELU
        if activation != expected:
            raise CorruptArtifactError(f"layer {i}: activation {activation!r}, "
                                       f"expected {expected!r}")
        layers.append(Layer(weights.reshape(d_in, d_out), bias))
        prev_out = d_out
    if not layers:
        raise CorruptArtifactError("artifact has no layers")
    if layers[0].W.shape[0] != d:
        raise CorruptArtifactError("first layer width does not match the schema")

    final = {}
    for name, ed in _get(raw, "final_metrics", "artifact", dict).items():
        cm = _record(ConfusionMatrix, _get(ed, "confusion", "final_metrics"), "confusion")
        metrics = _record(MetricsReport, _get(ed, "metrics", "final_metrics"), "metrics")
        if metrics != compute_metrics(cm):
            raise CorruptArtifactError(f"final_metrics {name!r}: stored metrics do not "
                                       f"match their confusion counts")
        final[name] = cm

    return ModelArtifact(
        schema=schema, scaler=scaler,
        mlp=MLP(layers=layers,
                dropout_rates=_array(raw, "dropout_rates", "artifact").tolist()),
        train_config=_record(TrainConfig, _get(raw, "train_config", "artifact"),
                             "train_config"),
        final_metrics=final,
        split=_record(SplitInfo, _get(raw, "split", "artifact"), "split"))


def load_model(path: str) -> ModelArtifact:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:        # missing, a directory, unreadable
        raise ArtifactError(f"cannot read model file: {exc}") from exc
    except ValueError as exc:     # JSONDecodeError or UnicodeDecodeError
        raise CorruptArtifactError(f"{path}: not valid JSON ({exc})") from exc
    # Constructors and numpy reject out-of-range or inconsistent values with
    # these errors; in a file we read, that is a corrupt artifact, not bad
    # usage.
    try:
        return _artifact_from_dict(raw)
    except (ValueError, TypeError, AttributeError) as exc:
        raise CorruptArtifactError(f"{path}: {exc}") from exc
