"""CSV loading into dictionary-coded columns, schema inference, label
encoding, train/test splitting and standardization for tabular
binary-outcome datasets.

All categorical handling is label encoding against a sorted vocabulary, so
results do not depend on row order in the input file.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

BLOCK_ROWS = 4096     # records csv.reader cuts per block: bounds the cells held at once
CHUNK_CHARS = 1 << 16  # characters of whole lines read at once by load_csv
NUMERIC = "numeric"
CATEGORICAL = "categorical"


class DataError(Exception):
    """Malformed or unusable input data: a missing, ragged or empty CSV, a
    non-binary target, a degenerate split, or cells that do not match a
    model's schema."""


@dataclass(frozen=True)
class Feature:
    """One input column: its name, its kind and, if categorical, its categories."""
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
    """The feature columns in file order, then the binary target and its two classes."""
    features: tuple[Feature, ...]
    target_name: str
    target_vocab: tuple[str, str]  # (negative, positive), sorted

    def __post_init__(self):
        if not isinstance(self.target_name, str):
            raise ValueError("target name must be a string")
        names = [f.name for f in self.features] + [self.target_name]
        if len(set(names)) != len(names):
            raise ValueError("feature and target names must be unique")
        if len(self.target_vocab) != 2 \
                or not all(isinstance(c, str) for c in self.target_vocab) \
                or not self.target_vocab[0] < self.target_vocab[1]:
            raise ValueError("target vocab must be 2 strings in ascending order")

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]


class Column:
    """One column's cells, dictionary-coded: each distinct cell once in
    `values`, and for each row its index there in `codes` ((n,) int32)."""
    __slots__ = ("values", "codes")

    def __init__(self, values: tuple[str, ...], codes: np.ndarray):
        self.values, self.codes = values, codes

    def __len__(self) -> int:
        return len(self.codes)


class Dataset:
    def __init__(self, header: list[str], rows: tuple[Column, ...], targets: Column):
        self.header = header
        self.rows = rows           # the feature columns, at least one, without the target
        self.targets = targets     # target cells, one per row

    def __len__(self) -> int:
        return len(self.targets)


class EncodedDataset:
    def __init__(self, X: np.ndarray, y: np.ndarray, schema: FeatureSchema):
        self.X = X             # (n, d) float64
        self.y = y             # (n,) int64 in {0, 1}
        self.schema = schema


class Scaler:
    def __init__(self, means: np.ndarray, stds: np.ndarray):
        if not np.all(stds > 0):
            raise ValueError("scaler stds must be > 0")
        self.means = means
        self.stds = stds       # strictly positive; constant columns store 1.0


class SplitIndices:
    def __init__(self, train: np.ndarray, test: np.ndarray):
        self.train, self.test = train, test


def _numbers(cells) -> np.ndarray | None:
    """The cells as float64 (each parsed as Python's float() does), or None
    unless every one is a finite number."""
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _first_in_rows(column: Column, flagged: np.ndarray) -> str:
    """The first cell, in row order, whose value flagged marks (a bool per value)."""
    return column.values[column.codes[np.argmax(flagged[column.codes])]]


def _lookup(vocab: tuple[str, ...], column: Column, what: str) -> np.ndarray:
    """Index in vocab of each of column's distinct values; DataError naming
    the value, first in row order, that vocab lacks."""
    index = {c: k for k, c in enumerate(vocab)}
    lut = np.array([index.get(v, -1) for v in column.values], dtype=np.int64)
    if (lut < 0).any():
        raise DataError(f"{what}: value {_first_in_rows(column, lut < 0)!r} not in vocab")
    return lut


def _factorise(blocks: Iterable[list[str]], k: int) -> list[Column]:
    """Dictionary-code a table given as blocks of cells, row by row, k per
    row: one Column per column.

    One dictionary covers the whole table while the cells stream in (cells
    are visited in the order they were made, which is faster than column by
    column), then each column keeps only the values it holds. Equal cells
    of any column end up as one string object."""
    index: dict[str, int] = {}

    def code(cells: list[str]) -> np.ndarray:
        return np.fromiter(map(index.__getitem__, cells), np.int32, len(cells))

    parts = [np.empty(0, dtype=np.int32)]
    for cells in blocks:
        try:
            parts.append(code(cells))
        except KeyError:        # new values: give them codes, first seen first
            for value in dict.fromkeys(cells):
                index.setdefault(value, len(index))
            parts.append(code(cells))
    codes = np.concatenate(parts).reshape(-1, k)
    values, columns = tuple(index), []
    for table_codes in codes.T:
        held = np.flatnonzero(np.bincount(table_codes, minlength=len(values)))
        local = np.zeros(len(values), dtype=np.int32)
        local[held] = np.arange(len(held), dtype=np.int32)
        columns.append(Column(tuple(values[v] for v in held), local[table_codes]))
    return columns


def _infer_schema(header: list[str], columns: Sequence[Column], target: Column) -> FeatureSchema:
    """A column is numeric iff every distinct cell parses as a finite number,
    otherwise categorical with a sorted deduplicated vocab. The positive
    target class is the lexicographically later of the two target strings."""
    features = [Feature(name, NUMERIC) if _numbers(column.values) is not None
                else Feature(name, CATEGORICAL, tuple(sorted(column.values)))
                for name, column in zip(header[:-1], columns)]
    distinct = sorted(target.values)
    if len(distinct) != 2:
        raise DataError(f"target has {len(distinct)} distinct values, expected 2: {distinct[:5]}")
    return FeatureSchema(tuple(features), target_name=header[-1],
                         target_vocab=(distinct[0], distinct[1]))


def load_csv(path: str) -> Dataset:
    """Load a CSV whose last column is a binary target, as coded columns.

    The file is RFC 4180 text in UTF-8, with or without a byte-order mark,
    and with LF or CRLF line ends. The first non-blank record is the header;
    it names the columns, and nothing is inferred (`label_encode` infers a
    schema from the cells). It needs two or more names, so a feature column
    comes before the target, each non-empty and none twice, or DataError
    names the path. Blank lines are skipped.
    A record with the wrong number of cells, or an empty cell, raises
    DataError whose message starts with the file line the record starts on.

    The text is read as whole lines, about CHUNK_CHARS at a time, and each
    read is cut into cells with `str.split`, which on text without a '"' or
    a bare carriage return is exactly what csv's excel dialect yields. At
    the first read holding either (or a line longer than csv's field size
    limit), `csv.reader` reads the file again and goes on past the records
    already cut. Both feed one dictionary coder, so each distinct value is
    stored once, every cell is one int32 code, and schema inference and
    encoding work on the distinct values only.
    """
    with _open_csv(path) as (fh, header):
        k = len(header)
        columns = _factorise(_split_blocks(fh, k), k)
        if not len(columns[-1]):
            raise DataError(f"{path}: header only, no data rows")
        empty = [(int(np.argmax(column.codes == column.values.index(""))), j)
                 for j, column in enumerate(columns) if "" in column.values]
        if empty:
            row, j = min(empty)
            raise DataError(f"line {_record_line(fh, row)}: empty cell in "
                            f"column {header[j]!r}")
    return Dataset(header=header, rows=tuple(columns[:-1]), targets=columns[-1])


def load_record(path: str, row: int) -> Dataset:
    """Data record `row` of the CSV at path (0-based, as `load_csv` numbers
    them) as a one-row Dataset, read as `load_csv` reads the file: the same
    header rules, line reads, `str.split` cuts and handover to csv.reader.
    Only the reads up to the record's own are made, and those before it are
    cut into lines, not cells. Nothing past the record is checked; a record
    with the wrong number of cells or an empty cell raises DataError as
    `load_csv` does."""
    with _open_csv(path) as (fh, header):
        seen, record = 0, None
        for lines in _line_blocks(fh) if row >= 0 else ():
            if lines is None:
                record = next(_csv_records(fh, row), None)
                break
            if row - seen < len(lines):
                record = lines[row - seen].split(",")
                break
            seen += len(lines)
        if record is None:
            raise DataError(f"{path}: no data record {row}")
        _check_commas(fh, row, [len(record) - 1], len(header))
        if "" in record:
            raise DataError(f"line {_record_line(fh, row)}: empty cell in "
                            f"column {header[record.index('')]!r}")
    *cells, target = (Column((cell,), np.zeros(1, dtype=np.int32)) for cell in record)
    return Dataset(header=header, rows=tuple(cells), targets=target)


@contextmanager
def _open_csv(path: str) -> Iterator[tuple]:
    """The CSV file at path open as text, past its header, and the header.
    A missing, unreadable or undecodable file, and a header that breaks
    `load_csv`'s rules, raise DataError naming the path."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(filter(None, csv.reader(fh)), None)
            if header is None:
                raise DataError(f"{path}: empty file")
            if len(header) < 2 or "" in header or len(set(header)) < len(header):
                raise DataError(f"{path}: header {header} needs a feature column before the "
                                f"target, and names that are non-empty and unique")
            yield fh, header
    except FileNotFoundError as exc:
        raise DataError(f"no such file: {path}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _needs_csv(text: str, longest: int) -> bool:
    """Whether text holds a '"' or a bare carriage return, or its longest
    line is longer than csv's field size limit: text that `str.split`
    would cut otherwise than csv's excel dialect."""
    return '"' in text or "\r" in text and text.count("\r") != text.count("\r\n") \
        or longest > csv.field_size_limit()


def _line_blocks(fh) -> Iterator[list[str] | None]:
    """The non-blank lines of the rest of fh, line ends removed, one list
    per read; None in place of the first read that `_needs_csv`, and
    nothing after it, since from there csv.reader must read the file.

    `fh.readlines` reads whole lines, about CHUNK_CHARS at a time, and keeps
    a CRLF together."""
    while lines := fh.readlines(CHUNK_CHARS):
        text = "".join(lines)
        if _needs_csv(text, max(map(len, lines))):
            yield None
            return
        if "\r" in text:
            text = text.replace("\r\n", "\n")
        # blank lines go, and so does what follows the last line end
        yield list(filter(None, text.split("\n")))


def _split_blocks(fh, k: int) -> Iterator[list[str]]:
    """The cells of fh's remaining records, k per record, row by row, one
    block per read of `_line_blocks`; each line is cut at its commas. From
    the first read that `_needs_csv`, `_csv_blocks` reads the file again,
    on from the records already cut."""
    row = 0
    for block in _line_blocks(fh):
        if block is None:
            yield from _csv_blocks(fh, k, row)
            return
        _check_commas(fh, row, list(map(str.count, block, repeat(","))), k)
        if block:
            yield ",".join(block).split(",")
        row += len(block)


def _csv_records(fh, row: int = 0) -> Iterator[list[str]]:
    """csv.reader's non-blank records of fh read again from its start, past
    the header and the first `row` data records."""
    fh.seek(0)
    return islice(filter(None, csv.reader(fh)), row + 1, None)


def _csv_blocks(fh, k: int, row: int = 0) -> Iterator[list[str]]:
    """As `_split_blocks`, through csv.reader: fh is read from its start,
    past the header and the first `row` data records."""
    records = _csv_records(fh, row)
    while block := list(islice(records, BLOCK_ROWS)):
        _check_commas(fh, row, [len(record) - 1 for record in block], k)
        yield list(chain.from_iterable(block))
        row += len(block)


def _check_commas(fh, row: int, commas: list[int], k: int) -> None:
    """DataError at the first of the records numbered from row whose count of
    cell separators is not k - 1."""
    if commas.count(k - 1) != len(commas):
        i = next(i for i, c in enumerate(commas) if c != k - 1)
        raise DataError(f"line {_record_line(fh, row + i)}: expected {k} cells, "
                        f"got {commas[i] + 1}")


def _record_line(fh, row: int) -> int:
    """The file line on which data record `row` starts (0-based; the header
    and blank lines are not data records), found by reading fh again."""
    fh.seek(0)
    reader = csv.reader(fh)
    start, seen = 1, -1         # the header is record -1
    for record in reader:
        if record:
            if seen == row:
                return start
            seen += 1
        start = reader.line_num + 1
    return start                # not reached: row numbers a record of fh


def label_encode(dataset: Dataset) -> EncodedDataset:
    """Encode categoricals to their sorted-vocab index, targets to {0, 1}
    with the positive class = the lexicographically later target string,
    against the schema inferred from the same coded columns."""
    schema = _infer_schema(dataset.header, dataset.rows, dataset.targets)
    return encode_with_schema(dataset.rows, dataset.targets, schema)


def encode_with_schema(rows: Sequence[Column], targets: Column,
                       schema: FeatureSchema) -> EncodedDataset:
    """Encode a loaded table against a fixed schema (a trained model's, when
    scoring new data): each distinct value is parsed or looked up once, and
    a gather by code fills X and y. DataError names the first cell in row
    order that the schema cannot encode."""
    d, n = len(schema.features), len(rows[0])
    if len(rows) < d:
        raise DataError(f"a row has fewer than the schema's {d} feature cells")
    if len(targets) != n:
        raise DataError(f"{n} rows but {len(targets)} targets")
    X = np.empty((n, d), dtype=np.float64)
    for j, (feat, column) in enumerate(zip(schema.features, rows)):
        what = f"column {feat.name!r}"
        if feat.kind == CATEGORICAL:
            lut = _lookup(feat.vocab, column, what)
        elif (lut := _numbers(column.values)) is None:
            bad = np.array([_numbers([v]) is None for v in column.values])
            raise DataError(f"{what}: value {_first_in_rows(column, bad)!r} is not a finite number")
        X[:, j] = lut[column.codes]
    # target_vocab is ascending, so a target's index is its 0/1 label
    y = _lookup(schema.target_vocab, targets, "target")[targets.codes]
    return EncodedDataset(X=X, y=y, schema=schema)


def decode_category(schema: FeatureSchema, feature_index: int, code: float) -> str:
    """Inverse of label encoding for one categorical cell; ValueError naming
    the feature and code unless the code rounds to an index of its vocab."""
    feat = schema.features[feature_index]
    index = int(round(code)) if math.isfinite(code) else -1
    if not 0 <= index < len(feat.vocab):
        raise ValueError(f"feature {feat.name!r}: code {float(code)!r} is none of its "
                         f"{len(feat.vocab)} categories")
    return feat.vocab[index]


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
        raise DataError(f"cannot split {n} rows")
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
        raise DataError(f"split {ratio} of {n} rows leaves one side empty")
    return SplitIndices(train=train, test=test)


def split_digest(indices: SplitIndices) -> str:
    """Stable digest of a split, stored in model artifacts so downstream
    commands can verify they reconstructed the same partition: the sha256
    of the training partition's length, then the training and the test
    indices, each as little-endian int64 bytes."""
    train, test = (np.asarray(part, dtype="<i8") for part in (indices.train, indices.test))
    digest = hashlib.sha256(np.asarray(len(train), dtype="<i8").tobytes())
    digest.update(train.tobytes())
    digest.update(test.tobytes())
    return digest.hexdigest()


def fit_scaler(X: np.ndarray, names: list[str] | None = None) -> Scaler:
    """Per-column population mean/std from training rows. Columns with
    std < 1e-12 store std = 1 so transformation degrades to centering.
    A column whose mean or std overflows a float64 is a DataError naming
    it: by its entry in names if given, else by position."""
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows to fit a scaler")
    with np.errstate(over="ignore", invalid="ignore"):
        means = X.mean(axis=0)
        stds = X.std(axis=0)  # population std (divide by n)
    bad = np.flatnonzero(~(np.isfinite(means) & np.isfinite(stds)))
    if len(bad):
        j = bad[0]
        column = f"column {j}" if names is None else f"column {names[j]!r}"
        raise DataError(f"{column}: its training values are too large for a finite mean and "
                        f"standard deviation (mean {float(means[j])!r}, std {float(stds[j])!r})")
    stds = np.where(stds < 1e-12, 1.0, stds)
    return Scaler(means=means, stds=stds)


def apply_scaler(scaler: Scaler, X: np.ndarray) -> np.ndarray:
    if X.shape[1] != scaler.means.shape[0]:
        raise ValueError(
            f"dimension mismatch: {X.shape[1]} columns vs scaler of {scaler.means.shape[0]}")
    out = X - scaler.means
    out /= scaler.stds     # in place: one (n, d) array, not two
    return out
