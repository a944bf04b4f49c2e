"""CSV loading, schema inference, label encoding, train/test splitting
and standardization for tabular binary-outcome datasets.

All categorical handling is label encoding against a sorted vocabulary, so
results do not depend on row order in the input file.
"""

from __future__ import annotations

import csv
import hashlib
import math
import sys
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
        if any(a >= b for a, b in zip(self.vocab, self.vocab[1:])):
            raise ValueError(f"feature {self.name!r}: vocab must be strictly ascending")


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
        if len(self.target_vocab) != 2 \
                or not all(isinstance(c, str) for c in self.target_vocab) \
                or not self.target_vocab[0] < self.target_vocab[1]:
            raise ValueError("target vocab must be 2 strings in ascending order")

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]

    @property
    def positive_class(self) -> str:
        return self.target_vocab[1]


@dataclass
class Dataset:
    header: list[str]
    rows: list[list[str]]    # feature cells, without the target
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


def _numbers(cells) -> np.ndarray | None:
    """The cells as float64 (each parsed as Python's float() does), or None
    unless every one is a finite number."""
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _codes(vocab: tuple[str, ...], cells, what: str) -> np.ndarray:
    """Index of each cell in vocab; SchemaMismatchError on any other value."""
    index = {c: k for k, c in enumerate(vocab)}
    try:
        return np.fromiter(map(index.__getitem__, cells), dtype=np.int64, count=len(cells))
    except KeyError as exc:
        raise SchemaMismatchError(f"{what}: value {exc.args[0]!r} not in vocab") from None


def build_schema(header: list[str], rows: list[list[str]],
                 targets: list[str]) -> FeatureSchema:
    """Infer a schema from a raw table: feature rows, and their targets named
    by the header's last column.

    A column is numeric iff every cell parses as a finite number, otherwise
    categorical with a sorted deduplicated vocab. The positive target class
    is the lexicographically later of the two target strings.
    """
    return _infer_schema(header, _columns(rows, len(header) - 1), targets)


def _columns(rows: list[list[str]], d: int) -> list[tuple[str, ...]]:
    """The table's cells column by column (d empty columns when there are no
    rows): the one transpose that schema inference and encoding share."""
    return list(zip(*rows)) or [()] * d


def _infer_schema(header: list[str], columns: list[tuple[str, ...]],
                  targets: list[str]) -> FeatureSchema:
    if not targets:
        raise EmptyDatasetError("no data rows")
    names = header[:-1]
    if len(set(names)) != len(names) or any(not n for n in names):
        raise DataError("column names must be unique and non-empty")
    features = [Feature(name, NUMERIC) if _numbers(cells) is not None
                else Feature(name, CATEGORICAL, tuple(sorted(set(cells))))
                for name, cells in zip(names, columns)]
    distinct = sorted(set(targets))
    if len(distinct) != 2:
        raise TargetNotBinaryError(
            f"target has {len(distinct)} distinct values, expected 2: {distinct[:5]}")
    return FeatureSchema(tuple(features), target_name=header[-1],
                         target_vocab=(distinct[0], distinct[1]))


def load_csv(path: str) -> Dataset:
    """Load a CSV whose last column is a binary target.

    The header row names the columns; nothing is inferred (`label_encode` and
    `build_schema` infer a schema from the cells).
    Blank lines are skipped. A record with the wrong number of cells raises
    RaggedRowError naming the file line the record starts on.

    Each cell is interned as it is parsed, so every distinct value is stored
    once and equal cells share one string: the table's memory grows with
    rows x columns pointers plus the distinct values, not with one string
    per cell, and the transpose and vocabulary lookups that follow touch a
    few cache-resident strings. The values themselves are unchanged.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise EmptyDatasetError(f"{path}: empty file")
            header = list(map(sys.intern, header))
            rows, start = [], reader.line_num + 1
            for row in reader:
                if row:  # tolerate blank lines
                    if len(row) != len(header):
                        raise RaggedRowError(line=start, expected=len(header), got=len(row))
                    rows.append(list(map(sys.intern, row)))
                start = reader.line_num + 1
    except FileNotFoundError as exc:
        raise MissingFileError(f"no such file: {path}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not rows:
        raise EmptyDatasetError(f"{path}: header only, no data rows")
    targets = [row.pop() for row in rows]
    return Dataset(header=header, rows=rows, targets=targets)


def label_encode(dataset: Dataset) -> EncodedDataset:
    """Encode categoricals to their sorted-vocab index, targets to {0, 1}
    with the positive class = the lexicographically later target string.
    The schema is inferred from, and the cells encoded from, one transpose."""
    columns = _columns(dataset.rows, len(dataset.header) - 1)
    schema = _infer_schema(dataset.header, columns, dataset.targets)
    return _encode_columns(columns, len(dataset.rows), dataset.targets, schema)


def encode_with_schema(rows: list[list[str]], targets: list[str],
                       schema: FeatureSchema) -> EncodedDataset:
    """Encode raw rows against a fixed schema (used when evaluating new data
    with a trained model's schema), one column at a time. Raises
    SchemaMismatchError on any cell the schema cannot encode."""
    n, d = len(rows), len(schema.features)
    if min(map(len, rows), default=d) < d:
        raise SchemaMismatchError(f"a row has fewer than the schema's {d} feature cells")
    return _encode_columns(_columns(rows, d), n, targets, schema)


def _encode_columns(columns: list[tuple[str, ...]], n: int, targets: list[str],
                    schema: FeatureSchema) -> EncodedDataset:
    """Encode n rows, given column by column, against schema."""
    if len(targets) != n:
        raise SchemaMismatchError(f"{n} rows but {len(targets)} targets")
    X = np.empty((n, len(schema.features)), dtype=np.float64)
    for j, (feat, cells) in enumerate(zip(schema.features, columns)):
        what = f"column {feat.name!r}"
        values = _numbers(cells) if feat.kind == NUMERIC else _codes(feat.vocab, cells, what)
        if values is None:
            raise SchemaMismatchError(f"{what}: a cell is not a finite number")
        X[:, j] = values
    # target_vocab is ascending, so a target's index is its 0/1 label
    y = _codes(schema.target_vocab, targets, "target")
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
    return stratified_split(np.zeros(n, dtype=np.int64), ratio, seed)


def stratified_split(y: np.ndarray, ratio: float, seed: int) -> SplitIndices:
    """Seeded split taking round(ratio * class size) training rows from each
    class, classes in ascending order; the other rows are the test set."""
    n = len(y)
    if n < 2:
        raise DegenerateSplitError(f"cannot split {n} rows")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    # return_counts keeps np.unique off its numpy.ma import (~15 ms per process)
    for cls in np.unique(y, return_counts=True)[0]:
        idx = np.flatnonzero(y == cls)
        perm = idx[rng.permutation(len(idx))]
        k = _round_half_up(ratio * len(idx))
        train_parts.append(perm[:k])
        test_parts.append(perm[k:])
    train = np.concatenate(train_parts)
    test = np.concatenate(test_parts)
    if len(train) == 0 or len(test) == 0:
        raise DegenerateSplitError(f"split {ratio} of {n} rows leaves one side empty")
    return SplitIndices(train=train, test=test)


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
