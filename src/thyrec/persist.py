"""Model artifact persistence, and `fit`, which trains the artifact that
`thyrec train` writes.

One self-describing JSON file holds the schema, scaler, layer shapes and
row-major weights, training configuration, final metrics, the split
fingerprint, each feature's distinct training values with their counts, and
the sha256 of the training CSV. Serialization is canonical (sorted keys,
full-precision shortest round-trip floats) so identical runs produce
byte-identical files and save -> load -> save is the identity.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import types
from dataclasses import asdict, dataclass, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .data import (DataError, Dataset, Feature, FeatureSchema, Scaler, SplitIndices,
                   _round_half_up, apply_scaler, encode_with_schema, fit_scaler, label_encode,
                   load_csv, load_record, split, split_digest, stratified_split)
from .metrics import ConfusionMatrix, MetricsReport, compute_metrics, confusion
from .neural import (MLP, VAL_FROM_TEST_AS_PAPER, Layer, TrainConfig, TrainHistory,
                     init_mlp, predict_proba, train)

FORMAT_VERSION = 3
TRAIN_RATIO = 0.8                 # share of the rows in the training partition
HIDDEN_LAYOUT = [128, 64, 32]     # hidden-layer widths of a trained model
# Each layer's activation as written; a layer's position fixes it.
RELU = "relu"
SIGMOID = "sigmoid"


class ArtifactError(Exception):
    """An unreadable or inconsistent model artifact: a missing file, invalid
    JSON, an unsupported format version, or a missing or malformed field."""


@dataclass
class SplitInfo:
    """How the train/test split was drawn, and the digest of the indices it drew."""
    seed: int
    ratio: float
    stratified: bool
    indices_digest: str

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("split ratio must be in (0, 1)")
        if self.seed < 0:
            raise ValueError("split seed must be >= 0")

    @classmethod
    def draw(cls, y: np.ndarray, ratio: float, seed: int,
             stratified: bool) -> tuple[SplitInfo, SplitIndices]:
        """A seeded split of the rows labelled y (by class if stratified) and its record."""
        idx = stratified_split(y, ratio, seed) if stratified else split(len(y), ratio, seed)
        return cls(seed, ratio, stratified, split_digest(idx)), idx


def file_sha256(path: str) -> str:
    """The hex sha256 of the bytes of the file at path."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class ModelArtifact:
    def __init__(self, schema: FeatureSchema, scaler: Scaler, mlp: MLP,
                 train_config: TrainConfig, final_metrics: dict[str, ConfusionMatrix],
                 split: SplitInfo, train_values: list[tuple[np.ndarray, np.ndarray]],
                 data_sha256: str):
        self.schema, self.scaler, self.mlp = schema, scaler, mlp
        self.train_config = train_config
        self.final_metrics = final_metrics   # counts under "train" and "test"
        self.split = split
        # per feature: its distinct training values ascending, in data units,
        # and how many training rows hold each
        self.train_values = train_values
        self.data_sha256 = data_sha256       # of the training CSV's bytes

    @property
    def n_rows(self) -> int:
        """Rows of the training table: both partitions' confusion totals."""
        return sum(cm.total for cm in self.final_metrics.values())

    @property
    def train_bounds(self) -> np.ndarray:
        """(2, d): each feature's training minimum and maximum, data units."""
        return np.array([[v[0] for v, _ in self.train_values],
                         [v[-1] for v, _ in self.train_values]])

    def scaled_train_columns(self) -> np.ndarray:
        """(n_train, d), scaled: column j holds feature j's training values
        in ascending order, each as often as training rows hold it, which is
        bit for bit the scaled training rows sorted column by column
        (scaling is monotone). A row of it is no training row, but a sampler
        that draws every cell on its own sees only the columns."""
        scaler = self.scaler
        columns = np.empty((self.final_metrics["train"].total, len(self.train_values)))
        for j, (values, counts) in enumerate(self.train_values):
            columns[:, j] = np.repeat((values - scaler.means[j]) / scaler.stds[j], counts)
        return columns

    def predict(self, X: np.ndarray) -> np.ndarray:
        """P(class=1) per row of the scaled X; ArtifactError if any is not
        finite, which finite inputs give only through extreme weights."""
        with np.errstate(all="ignore"):
            p = predict_proba(self.mlp, X)
        if not np.isfinite(p).all():
            raise ArtifactError("model returned a non-finite probability")
        return p

    def recover_split(self, y: np.ndarray) -> SplitIndices:
        """The recorded split, redrawn from the labels y of the same table.
        The redrawn indices must match the recorded digest, and each
        partition's positive and negative rows the counts in final_metrics
        (a uniform split depends on the row count alone, so a reordered
        table passes the digest)."""
        split = self.split
        drawn, idx = split.draw(y, split.ratio, split.seed, split.stratified)
        if drawn.indices_digest != split.indices_digest:
            raise DataError("data file does not reproduce the split this model was "
                            "trained with; pass the original training CSV")
        for name, rows in (("train", idx.train), ("test", idx.test)):
            cm = self.final_metrics[name]
            positives = int(y[rows].sum())
            held, recorded = (positives, len(rows) - positives), (cm.tp + cm.fn, cm.tn + cm.fp)
            if held != recorded:
                raise DataError(
                    f"data file does not reproduce the split this model was trained with: "
                    f"its {name} partition holds {held[0]} positive and {held[1]} negative "
                    f"rows, the model's {recorded[0]} and {recorded[1]}; pass the original "
                    f"training CSV")
        return idx

    def scale_table(self, csv_path: str) -> tuple[np.ndarray, np.ndarray]:
        """The CSV at csv_path encoded with this model's schema (nothing is
        inferred from the data): every row scaled with its scaler, and the
        labels."""
        return self._scale(load_csv(csv_path))

    def scale_row(self, csv_path: str, row: int) -> np.ndarray:
        """Data record `row` of the CSV at csv_path, encoded and scaled as
        `scale_table` encodes and scales it, read by `load_record`: (d,)."""
        return self._scale(load_record(csv_path, row))[0][0]

    def _scale(self, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
        schema = self.schema
        columns = schema.feature_names + [schema.target_name]
        if dataset.header != columns:
            raise DataError(f"data columns {dataset.header} do not match the model's {columns}")
        encoded = encode_with_schema(dataset.rows, dataset.targets, schema)
        return apply_scaler(self.scaler, encoded.X), encoded.y

    def check_table(self, csv_path: str) -> None:
        """DataError unless the CSV at csv_path could be this model's training
        table. Its bytes hashing to data_sha256 settle it unparsed; any other
        file must pass scale_table and recover_split."""
        try:
            if file_sha256(csv_path) == self.data_sha256:
                return
        except OSError:      # load_csv names what is wrong with the path
            pass
        self.recover_split(self.scale_table(csv_path)[1])


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
        "train_values": [{"values": values.tolist(), "counts": counts.tolist()}
                         for values, counts in artifact.train_values],
        "data_sha256": artifact.data_sha256,
    }


def write_json(path, obj) -> None:
    """Write obj to path as canonical JSON: sorted keys, indent 1, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def save_model(artifact: ModelArtifact, path: str) -> None:
    write_json(path, artifact_to_dict(artifact))


def _matches(value, hint) -> bool:
    """Whether a JSON value has a declared type: a bool only for bool, an
    int that is not a bool for int, any finite number for float, null only
    for X | None."""
    if get_origin(hint) is types.UnionType:
        return any(_matches(value, h) for h in get_args(hint))
    if hint is float:
        try:
            return type(value) in (int, float) and math.isfinite(value)
        except OverflowError:      # an int too large for a float is no finite float
            return False
    return type(value) is hint


def _get(mapping: dict, key: str, context: str, hint=None):
    """mapping[key], which must have type hint when one is given."""
    try:
        value = mapping[key]
    except (KeyError, TypeError):
        raise ArtifactError(f"missing field {context}.{key}") from None
    if hint is not None and not _matches(value, hint):
        name = getattr(hint, "__name__", hint)
        raise ArtifactError(f"{context}.{key} must be {name}, not {value!r:.40}")
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
        raise ArtifactError(f"{context}.{key} must hold numbers only")
    try:
        values = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(values).all()
    except OverflowError:          # an int too large for a float is not finite either
        finite = False
    if not finite:
        raise ArtifactError(f"{context}.{key} holds a non-finite value")
    return values


def _schema_from_dict(d: dict) -> FeatureSchema:
    features = tuple(Feature(_get(fd, "name", "feature"), _get(fd, "kind", "feature"),
                             tuple(_get(fd, "vocab", "feature", list)))
                     for fd in _get(d, "features", "schema", list))
    return FeatureSchema(features, _get(d, "target_name", "schema"),
                         tuple(_get(d, "target_vocab", "schema", list)))


def _train_values(entries: list, schema: FeatureSchema, scaler: Scaler,
                  n_train: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each feature's (values, counts) from its `train_values` entry. The
    values must be finite and strictly ascending, a categorical feature's
    codes of its vocab; the counts positive integers, one per value, that
    add up to the n_train training rows. The scaler must keep a categorical
    feature's codes and give a numeric feature's training range a finite
    scaled span, of positive width unless the range has none."""
    d = len(schema.features)
    if len(entries) != d:
        raise ArtifactError(f"train_values must hold one entry per feature ({d}), "
                            f"not {len(entries)}")
    train_values = []
    for i, (feat, m, s) in enumerate(zip(schema.features, scaler.means, scaler.stds)):
        entry = _get(entries, i, "train_values", dict)
        context = f"train_values.{i}"
        values = _array(entry, "values", context)
        counts = _get(entry, "counts", context, list)
        name = f"feature {feat.name!r}"
        if not all(type(c) is int and c > 0 for c in counts):
            raise ArtifactError(f"{name}: training value counts must be positive integers")
        if len(counts) != len(values):
            raise ArtifactError(f"{name}: {len(values)} training values for "
                                f"{len(counts)} counts")
        if (values[1:] <= values[:-1]).any():
            raise ArtifactError(f"{name}: training values must be strictly ascending")
        if sum(counts) != n_train:
            raise ArtifactError(f"{name}: training value counts add up to {sum(counts)}, "
                                f"not the {n_train} training rows of final_metrics")
        lo, hi = values[0], values[-1]
        codes = np.arange(len(feat.vocab))   # none for a numeric feature
        with np.errstate(all="ignore"):      # as LIME scales a code and maps it back,
            back = np.round((codes - m) / s * s + m)
            span = (hi - m) / s - (lo - m) / s   # and as sensitivity scales the bounds
        if not np.array_equal(back, codes):
            raise ArtifactError(f"{name}: its codes do not survive the "
                                f"scaler (mean {float(m)!r}, std {float(s)!r})")
        if feat.vocab and not (0 <= lo and hi < len(codes) and (values == np.round(values)).all()):
            raise ArtifactError(f"{name}: training values must be codes "
                                f"in 0..{len(codes) - 1}")
        # a scaled span of 0 screens a varying feature at a constant, inf at NaN
        if not feat.vocab and not (np.isfinite(span) and (span > 0 or lo == hi)):
            raise ArtifactError(f"{name}: its training range does not "
                                f"survive the scaler (mean {float(m)!r}, std {float(s)!r})")
        train_values.append((values, np.array(counts, dtype=np.int64)))
    return train_values


def _artifact_from_dict(raw: dict) -> ModelArtifact:
    version = _get(raw, "format_version", "artifact", int)
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"format_version {version} not supported (expected {FORMAT_VERSION})")

    schema = _schema_from_dict(_get(raw, "schema", "artifact"))
    d = len(schema.features)

    scaler_d = _get(raw, "scaler", "artifact")
    scaler = Scaler(means=_array(scaler_d, "means", "scaler"),
                    stds=_array(scaler_d, "stds", "scaler"))
    if scaler.means.shape != (d,) or scaler.stds.shape != (d,):
        raise ArtifactError(f"scaler means/stds need one entry per feature ({d})")
    data_sha256 = _get(raw, "data_sha256", "artifact", str)
    if not re.fullmatch("[0-9a-f]{64}", data_sha256):
        raise ArtifactError("data_sha256 must be 64 lowercase hex characters")

    layers = []
    prev_out = None
    layer_dicts = _get(raw, "layers", "artifact", list)
    for i, ld in enumerate(layer_dicts):
        d_in, d_out = _get(ld, "d_in", "layer", int), _get(ld, "d_out", "layer", int)
        weights = _array(ld, "weights", f"layer {i}")
        bias = _array(ld, "bias", f"layer {i}")
        if d_in < 1 or d_out < 1:
            raise ArtifactError(f"layer {i}: d_in and d_out must be >= 1")
        if weights.shape != (d_in * d_out,) or bias.shape != (d_out,):
            raise ArtifactError(f"layer {i}: declared shape does not match array length")
        if prev_out is not None and d_in != prev_out:
            raise ArtifactError(f"layer {i}: dimensions do not chain")
        activation = _get(ld, "activation", "layer")
        expected = SIGMOID if i == len(layer_dicts) - 1 else RELU
        if activation != expected:
            raise ArtifactError(f"layer {i}: activation {activation!r}, "
                                f"expected {expected!r}")
        layers.append(Layer(weights.reshape(d_in, d_out), bias))
        prev_out = d_out
    if not layers:
        raise ArtifactError("artifact has no layers")
    if layers[0].W.shape[0] != d:
        raise ArtifactError("first layer width does not match the schema")

    final = {}
    final_d = _get(raw, "final_metrics", "artifact", dict)
    if sorted(final_d) != ["test", "train"]:
        raise ArtifactError(f"final_metrics must hold the partitions 'train' and 'test', "
                            f"not {sorted(final_d)}")
    for name, ed in final_d.items():
        cm = _record(ConfusionMatrix, _get(ed, "confusion", "final_metrics"), "confusion")
        metrics = _record(MetricsReport, _get(ed, "metrics", "final_metrics"), "metrics")
        if metrics != compute_metrics(cm):
            raise ArtifactError(f"final_metrics {name!r}: stored metrics do not "
                                f"match their confusion counts")
        final[name] = cm
    train_values = _train_values(_get(raw, "train_values", "artifact", list), schema, scaler,
                                 final["train"].total)

    return ModelArtifact(
        schema=schema, scaler=scaler,
        mlp=MLP(layers=layers,
                dropout_rates=_array(raw, "dropout_rates", "artifact").tolist()),
        train_config=_record(TrainConfig, _get(raw, "train_config", "artifact"),
                             "train_config"),
        final_metrics=final,
        split=_record(SplitInfo, _get(raw, "split", "artifact"), "split"),
        train_values=train_values, data_sha256=data_sha256)


def load_model(path: str) -> ModelArtifact:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:        # missing, a directory, unreadable
        raise ArtifactError(f"cannot read model file: {exc}") from exc
    except ValueError as exc:     # JSONDecodeError or UnicodeDecodeError
        raise ArtifactError(f"{path}: not valid JSON ({exc})") from exc
    # Constructors and numpy reject out-of-range or inconsistent values with
    # these errors; in a file we read, that is a corrupt artifact, not bad
    # usage.
    try:
        return _artifact_from_dict(raw)
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ArtifactError(f"{path}: {exc}") from exc


def load_for_data(model_path: str, csv_path: str) -> tuple[ModelArtifact, np.ndarray, np.ndarray]:
    """The artifact at model_path, then the CSV at csv_path as its
    `scale_table` reads it: every row scaled, and the labels."""
    artifact = load_model(model_path)
    return (artifact, *artifact.scale_table(csv_path))


def fit(csv_path: str, config: TrainConfig,
        stratify: bool = False) -> tuple[ModelArtifact, TrainHistory]:
    """The model `thyrec train` writes, trained on the CSV at csv_path, and
    its per-epoch history. In order: label-encode the table, inferring its
    schema; hash the CSV's bytes; draw the seeded TRAIN_RATIO split (by
    class if stratify); fit the scaler on the training rows and keep each
    feature's distinct training values with their counts; scale every row; pick the monitoring
    rows; initialise a HIDDEN_LAYOUT network; train; count the train and
    test confusions. The monitoring rows are the last validation_fraction · n
    (rounded half up, at most n - 1) of a seeded shuffle of the n training
    rows, which is the training generator's first draw and leaves them out
    of training, or for test-as-paper of the n test rows, shuffled by a
    generator of its own. It takes a path rather than a loaded table so that
    no whole-table matrix is alive while the network trains; every row it
    trains on or monitors is a slice of the reordered partitions."""
    encoded = label_encode(load_csv(csv_path))   # the coded table is not kept
    data_sha256 = file_sha256(csv_path)
    split, idx = SplitInfo.draw(encoded.y, TRAIN_RATIO, config.seed, stratify)
    X_train = encoded.X[idx.train]
    scaler = fit_scaler(X_train, encoded.schema.feature_names)
    # return_counts keeps np.unique off its numpy.ma import
    train_values = [np.unique(column, return_counts=True) for column in X_train.T]
    del X_train
    encoded.X = apply_scaler(scaler, encoded.X)    # the unscaled table is not read again
    rng = np.random.default_rng(config.seed)       # draws everything training draws
    rows = {"train": idx.train, "test": idx.test}
    source = "test" if config.validation_source == VAL_FROM_TEST_AS_PAPER else "train"
    n_val = 0
    if config.validation_fraction > 0.0:
        shuffle = rng if source == "train" else np.random.default_rng(config.seed)
        rows[source] = rows[source][shuffle.permutation(len(rows[source]))]
        n_val = min(_round_half_up(config.validation_fraction * len(rows[source])),
                    len(rows[source]) - 1)
    X = {name: encoded.X[r] for name, r in rows.items()}
    y = {name: encoded.y[r] for name, r in rows.items()}
    schema = encoded.schema
    del encoded    # the scaled table is not kept either, once sliced
    mlp = init_mlp(X["train"].shape[1], HIDDEN_LAYOUT, seed=config.seed, dropout=config.dropout)

    cut = len(rows[source]) - n_val
    n_fit = cut if source == "train" else len(rows["train"])
    mlp, history = train(mlp, X["train"][:n_fit], y["train"][:n_fit], config, rng,
                         X[source][cut:], y[source][cut:])
    results = {name: confusion(y[name], predict_proba(mlp, X[name])) for name in rows}
    return ModelArtifact(schema=schema, scaler=scaler, mlp=mlp, train_config=config,
                         final_metrics=results, split=split, train_values=train_values,
                         data_sha256=data_sha256), history
