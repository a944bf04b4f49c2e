"""CSV loading, schema inference, label encoding, train/test splitting
and standardization for tabular binary-outcome datasets.

All categorical handling is label encoding against a sorted vocabulary, so
results do not depend on row order in the input file.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"


class DataError(Exception):
    """Base class for malformed or unusable input data."""


class MissingFileError(DataError):
    pass


class RaggedRowError(DataError):
    def __init__(self, line: int, expected: int, got: int):
        super().__init__(f"line {line}: expected {expected} cells, got {got}")
        self.line = line


class EmptyDatasetError(DataError):
    pass


class TargetNotBinaryError(DataError):
    pass


class DegenerateSplitError(DataError):
    pass


class SchemaMismatchError(DataError):
    """Input data does not match the schema a model was trained with."""


@dataclass(frozen=True)
class Feature:
    name: str
    kind: str                      # NUMERIC or CATEGORICAL
    vocab: tuple[str, ...] = ()    # sorted categories; empty for numeric

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("feature name must be a non-empty string")
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if (self.kind == CATEGORICAL) != bool(self.vocab):
            raise ValueError(f"feature {self.name!r}: a categorical feature needs a "
                             f"vocab and a numeric one takes none")
        if not all(isinstance(c, str) for c in self.vocab):
            raise ValueError(f"feature {self.name!r}: categories must be strings")


@dataclass(frozen=True)
class FeatureSchema:
    features: tuple[Feature, ...]
    target_name: str
    target_vocab: tuple[str, str]  # (negative, positive), sorted

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        if not isinstance(self.target_name, str):
            raise ValueError("target name must be a string")
        if len(self.target_vocab) != 2 or self.target_vocab[0] == self.target_vocab[1] \
                or not all(isinstance(c, str) for c in self.target_vocab):
            raise ValueError("target vocab must have exactly 2 distinct string entries")

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]

    @property
    def positive_class(self) -> str:
        return self.target_vocab[1]


@dataclass
class Dataset:
    schema: FeatureSchema
    rows: list[list[str]]
    targets: list[str]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class EncodedDataset:
    X: np.ndarray          # (n, d) float64
    y: np.ndarray          # (n,) int64 in {0, 1}
    schema: FeatureSchema


@dataclass
class Scaler:
    means: np.ndarray
    stds: np.ndarray       # strictly positive; constant columns store 1.0


@dataclass
class SplitIndices:
    train: np.ndarray
    test: np.ndarray
    seed: int
    ratio: float


def _parse_number(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def build_schema(header: list[str], rows: list[list[str]]) -> FeatureSchema:
    """Infer a schema from a raw table whose last column is the target.

    A column is numeric iff every cell parses as a finite number, otherwise
    categorical with a sorted deduplicated vocab. The positive target class
    is the lexicographically later of the two target strings.
    """
    if not rows:
        raise EmptyDatasetError("no data rows")
    names = header[:-1]
    if len(set(names)) != len(names) or any(not n for n in names):
        raise DataError("column names must be unique and non-empty")
    features = []
    for j, name in enumerate(names):
        cells = [row[j] for row in rows]
        if all(_parse_number(c) is not None for c in cells):
            features.append(Feature(name, NUMERIC))
        else:
            features.append(Feature(name, CATEGORICAL, tuple(sorted(set(cells)))))
    distinct = sorted(set(row[-1] for row in rows))
    if len(distinct) != 2:
        raise TargetNotBinaryError(
            f"target has {len(distinct)} distinct values, expected 2: {distinct[:5]}")
    return FeatureSchema(tuple(features), target_name=header[-1],
                         target_vocab=(distinct[0], distinct[1]))


def load_csv(path: str) -> Dataset:
    """Load a CSV whose last column is a binary target.

    The header row names the columns; the schema is inferred from the cells.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            table = list(reader)
    except FileNotFoundError as exc:
        raise MissingFileError(f"no such file: {path}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not table:
        raise EmptyDatasetError(f"{path}: empty file")
    header, data = table[0], table[1:]
    data = [row for row in data if row]  # tolerate a trailing blank line
    if not data:
        raise EmptyDatasetError(f"{path}: header only, no data rows")
    for i, row in enumerate(data):
        if len(row) != len(header):
            raise RaggedRowError(line=i + 2, expected=len(header), got=len(row))
    schema = build_schema(header, data)
    return Dataset(schema=schema, rows=[row[:-1] for row in data],
                   targets=[row[-1] for row in data])


def label_encode(dataset: Dataset) -> EncodedDataset:
    """Encode categoricals to their sorted-vocab index, targets to {0, 1}
    with the positive class = the lexicographically later target string."""
    return encode_with_schema(dataset.rows, dataset.targets, dataset.schema)


def encode_with_schema(rows: list[list[str]], targets: list[str],
                       schema: FeatureSchema) -> EncodedDataset:
    """Encode raw rows against a fixed schema (used when evaluating new data
    with a trained model's schema). Raises SchemaMismatchError on any cell
    the schema cannot encode."""
    n, d = len(rows), len(schema.features)
    X = np.empty((n, d), dtype=np.float64)
    for j, feat in enumerate(schema.features):
        if feat.kind == NUMERIC:
            for i, row in enumerate(rows):
                value = _parse_number(row[j])
                if value is None:
                    raise SchemaMismatchError(
                        f"column {feat.name!r}: non-numeric cell {row[j]!r}")
                X[i, j] = value
        else:
            index = {c: k for k, c in enumerate(feat.vocab)}
            for i, row in enumerate(rows):
                try:
                    X[i, j] = index[row[j]]
                except KeyError:
                    raise SchemaMismatchError(
                        f"column {feat.name!r}: value {row[j]!r} not in vocab") from None
    y = np.empty(n, dtype=np.int64)
    positive = schema.positive_class
    for i, t in enumerate(targets):
        if t not in schema.target_vocab:
            raise SchemaMismatchError(f"target value {t!r} not in {schema.target_vocab}")
        y[i] = 1 if t == positive else 0
    return EncodedDataset(X=X, y=y, schema=schema)


def decode_category(schema: FeatureSchema, feature_index: int, code: float) -> str:
    """Inverse of label encoding for one categorical cell."""
    feat = schema.features[feature_index]
    return feat.vocab[int(round(code))]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split(n: int, ratio: float, seed: int) -> SplitIndices:
    """Seeded uniform permutation of 0..n-1; the first round(ratio*n)
    indices are the training set, the rest the test set."""
    if n < 2:
        raise DegenerateSplitError(f"cannot split {n} rows")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    n_train = _round_half_up(ratio * n)
    if n_train == 0 or n_train == n:
        raise DegenerateSplitError(f"split {ratio} of {n} rows leaves one side empty")
    perm = np.random.default_rng(seed).permutation(n)
    return SplitIndices(train=perm[:n_train], test=perm[n_train:],
                        seed=seed, ratio=ratio)


def stratified_split(y: np.ndarray, ratio: float, seed: int) -> SplitIndices:
    """Like split(), but the train fraction is taken per class."""
    n = len(y)
    if n < 2:
        raise DegenerateSplitError(f"cannot split {n} rows")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        perm = idx[rng.permutation(len(idx))]
        k = _round_half_up(ratio * len(idx))
        train_parts.append(perm[:k])
        test_parts.append(perm[k:])
    train = np.concatenate(train_parts)
    test = np.concatenate(test_parts)
    if len(train) == 0 or len(test) == 0:
        raise DegenerateSplitError(f"split {ratio} of {n} rows leaves one side empty")
    return SplitIndices(train=train, test=test, seed=seed, ratio=ratio)


def split_digest(indices: SplitIndices) -> str:
    """Stable digest of a split, stored in model artifacts so downstream
    commands can verify they reconstructed the same partition."""
    text = ("train:" + ",".join(map(str, indices.train.tolist()))
            + ";test:" + ",".join(map(str, indices.test.tolist())))
    return hashlib.sha256(text.encode()).hexdigest()


def fit_scaler(X: np.ndarray) -> Scaler:
    """Per-column population mean/std from training rows. Columns with
    std < 1e-12 store std = 1 so transformation degrades to centering."""
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows to fit a scaler")
    means = X.mean(axis=0)
    stds = X.std(axis=0)  # population std (divide by n)
    stds = np.where(stds < 1e-12, 1.0, stds)
    return Scaler(means=means, stds=stds)


def apply_scaler(scaler: Scaler, X: np.ndarray) -> np.ndarray:
    if X.shape[1] != scaler.means.shape[0]:
        raise ValueError(
            f"dimension mismatch: {X.shape[1]} columns vs scaler of {scaler.means.shape[0]}")
    return (X - scaler.means) / scaler.stds
