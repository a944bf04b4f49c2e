import csv
import math
import re
import tracemalloc

import numpy as np
import pytest

from synth import write_csv
from thyrec import data
from thyrec.data import (BLOCK_ROWS, CATEGORICAL, NUMERIC, DataError, Feature,
                         FeatureSchema, _numbers, apply_scaler, decode_category,
                         encode_with_schema, fit_scaler, label_encode, load_csv, split,
                         split_digest, stratified_split)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def cells(column) -> list[str]:
    """A coded column's cells in row order."""
    return [column.values[code] for code in column.codes]


def row_lists(ds) -> list[list[str]]:
    """A loaded table's feature cells as one list per row."""
    return [list(row) for row in zip(*map(cells, ds.rows.columns))]


def schema_of(tmp_path, text):
    """The schema label_encode infers from the CSV text."""
    return label_encode(load_csv(write(tmp_path, text, "train.csv"))).schema


def encode(tmp_path, text, schema):
    """The CSV text loaded and encoded with schema."""
    ds = load_csv(write(tmp_path, text))
    return encode_with_schema(ds.rows, ds.targets, schema)


TOY = "Age,Gender,Recurred\n34,F,No\n51,M,Yes\n29,F,No\n"


class TestLoadCsv:
    def test_recurrence_file_shape(self, recurrence_source):
        ds = load_csv(str(recurrence_source.path))
        assert len(ds) == 383
        schema = label_encode(ds).schema
        assert len(schema.features) == 16
        assert schema.target_name == "Recurred"

    def test_positive_count_in_uci_file(self, recurrence_source):
        if not recurrence_source.is_real:
            pytest.skip("UCI file not available; count is specific to it")
        enc = label_encode(load_csv(str(recurrence_source.path)))
        assert enc.X.shape == (383, 16)
        assert int(enc.y.sum()) == 108

    def test_toy_csv(self, tmp_path):
        ds = load_csv(write(tmp_path, TOY))
        assert len(ds) == 3
        assert label_encode(ds).schema.feature_names == ["Age", "Gender"]

    def test_header_only_is_empty(self, tmp_path):
        with pytest.raises(DataError, match="header only, no data rows"):
            load_csv(write(tmp_path, "Age,Gender,Recurred\n"))

    def test_ragged_row_reports_line(self, tmp_path):
        with pytest.raises(DataError, match="^line 3: expected 3 cells, got 2$"):
            load_csv(write(tmp_path, "Age,Gender,Recurred\n34,F,No\n51,M\n"))

    def test_ragged_row_after_blank_line_reports_file_line(self, tmp_path):
        """Blank lines count: the short row is on line 4 of the file."""
        with pytest.raises(DataError, match="^line 4: "):
            load_csv(write(tmp_path, "Age,Gender,Recurred\n\n34,F,No\n51,M\n"))

    def test_ragged_row_after_multiline_record_reports_its_first_line(self, tmp_path):
        """A quoted cell spanning lines 2-3 moves the next record to line 4;
        a ragged record is reported at the line it starts on."""
        with pytest.raises(DataError, match="^line 4: "):
            load_csv(write(tmp_path, 'Age,Note,Recurred\n34,"a\nb",No\n51,"c\nd"\n'))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="^no such file: "):
            load_csv(str(tmp_path / "nope.csv"))

    def test_quoted_cells(self, tmp_path):
        ds = load_csv(write(tmp_path, 'Age,Note,Recurred\n34,"a, b",No\n51,c,Yes\n'))
        assert row_lists(ds)[0][1] == "a, b"

    @pytest.mark.parametrize("header", ["Recurred", "Age,,Recurred", "Age,Gender,Age,Recurred",
                                        "Age,Gender,Age"],
                             ids=["one-column", "empty-name", "duplicate-feature",
                                  "target-repeats-feature"])
    def test_header_rules(self, tmp_path, header):
        """A feature column before the target, and every name non-empty and
        unique, the target's included; the message starts with the path."""
        path = write(tmp_path, header + "\n" + ",".join("1" * len(header.split(","))) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(path)}: header "):
            load_csv(path)


HEADER = "Age,Gender,Recurred"
ROWS = ["34,F,No", "51,M,Yes", "29,F,No", "62,M,Yes", "45,F,No", "38,M,No", "70,F,Yes"]


def table(rows=ROWS, end="\n", final=True) -> str:
    return end.join([HEADER, *rows]) + (end if final else "")


def edit(i: int, line: str) -> list[str]:
    return ROWS[:i] + [line] + ROWS[i + 1:]


# Each text loads the same through str.split and through csv.reader. With 3
# lines per block, data row 3 is the first line of the second block.
CORPUS = {
    "lf": table(),
    "lf-no-final-newline": table(final=False),
    "crlf": table(end="\r\n"),
    "crlf-no-final-newline": table(end="\r\n", final=False),
    "bare-cr": table(end="\r"),
    "byte-order-mark": "\ufeff" + table(),
    "blank-lines": "\n\n" + table(ROWS[:2] + ["", "", ""] + ROWS[2:]) + "\n\n",
    "blank-lines-crlf": "\r\n" + table(ROWS[:3] + [""] + ROWS[3:], end="\r\n") + "\r\n",
    "blank-lines-only": HEADER + "\n\n\n",
    "header-only": HEADER + "\n",
    "empty": "",
    "ragged-first-line": table(edit(0, "34,F")),
    "ragged-middle-line": table(edit(1, "51,M,Yes,x")),
    "ragged-last-line": table(edit(6, "70,F")),
    "ragged-second-block": table(edit(3, "62,M")),
    "ragged-offsetting": table(edit(2, "29,F")[:4] + ["62,M,Yes,x"] + ROWS[5:]),
    "ragged-after-blank": table(ROWS[:1] + [""] + edit(1, "51")[1:]),
    "quoted": table(edit(1, '51,"M",Yes')),
    "quoted-comma": table(edit(4, '45,"F, x",No')),
    "quoted-in-second-block": table(edit(5, '"38",M,No')),
    "multi-line-cell": table(edit(2, '29,"F\nx",No')),
    "multi-line-then-ragged": table(edit(2, '29,"F\nx",No')[:5] + ["45,F"] + ROWS[5:]),
    "empty-cell": table(edit(3, "62,,Yes")),
    "empty-target": table(edit(5, "38,M,")),
    "empty-quoted": table(edit(2, '"",F,No')),
    "empty-first-in-row-order": table(edit(1, "51,,Yes")[:2] + [",F,No"] + ROWS[3:]),
    "space-cell": table(edit(1, "51, M,Yes")),
    "nul-cell": table(edit(1, "51,M\x00,Yes")),
    "numeric-turns-categorical": table(edit(4, "x45,F,No")),
    "third-class": table(edit(6, "70,F,Maybe")),
    "long-field": table(edit(1, "51," + "M" * (csv.field_size_limit() + 1) + ",Yes")),
    "unseen-categories": table(edit(2, "29,X,No")[:4] + ["45,Yes,No"] + ROWS[5:]),
    "non-finite-numbers": table(edit(2, "nan,F,No")[:4] + ["M,F,No"] + ROWS[5:]),
}
SCHEMA = FeatureSchema((Feature("Age", NUMERIC), Feature("Gender", CATEGORICAL, ("F", "M"))),
                       target_name="Recurred", target_vocab=("No", "Yes"))
# texts encoded with SCHEMA; the others with the schema inferred from them
WITH_SCHEMA = ("unseen-categories", "non-finite-numbers")


def load_outcome(path, schema):
    """What loading and encoding give: the cells and encodings, or the
    error's class and message."""
    try:
        ds = load_csv(str(path))
        enc = label_encode(ds) if schema is None else \
            encode_with_schema(ds.rows, ds.targets, schema)
    except DataError as exc:
        return type(exc), str(exc).replace(str(path), "<path>")
    return (ds.header, row_lists(ds), cells(ds.targets), enc.schema, enc.X.tobytes(),
            enc.y.tobytes())


class TestTokenizers:
    """The str.split tokenizer against csv.reader on the same file: the same
    header, cells, schema, X and y bytes, or the same error and message."""

    @pytest.mark.parametrize("block_rows", [3, BLOCK_ROWS])
    @pytest.mark.parametrize("name", CORPUS)
    def test_split_matches_csv_reader(self, tmp_path, monkeypatch, name, block_rows):
        path = tmp_path / "t.csv"
        path.write_bytes(CORPUS[name].encode())
        schema = SCHEMA if name in WITH_SCHEMA else None
        monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
        got = load_outcome(path, schema)
        monkeypatch.setattr(data, "_split_blocks", data._csv_blocks)
        assert got == load_outcome(path, schema)

    @pytest.mark.parametrize("name", ["lf-no-final-newline", "crlf", "crlf-no-final-newline",
                                      "bare-cr", "byte-order-mark", "blank-lines",
                                      "blank-lines-crlf"])
    def test_line_ends_marks_and_blank_lines_read_alike(self, tmp_path, name):
        path = tmp_path / "t.csv"
        path.write_bytes(CORPUS[name].encode())
        want = tmp_path / "want.csv"
        want.write_bytes(CORPUS["lf"].encode())
        assert load_outcome(path, None) == load_outcome(want, None)

    @pytest.mark.parametrize("name", ["lf", "crlf-no-final-newline", "blank-lines",
                                      "ragged-second-block", "empty-cell"])
    def test_quote_free_text_never_reaches_csv_reader(self, tmp_path, monkeypatch, name):
        path = tmp_path / "t.csv"
        path.write_bytes(CORPUS[name].encode())
        want = load_outcome(path, None)

        def refuse(*args):
            raise AssertionError("csv.reader used")
        monkeypatch.setattr(data, "_csv_blocks", refuse)
        monkeypatch.setattr(data, "BLOCK_ROWS", 3)
        assert load_outcome(path, None) == want

    @pytest.mark.parametrize("name, message", [
        ("ragged-first-line", "line 2: expected 3 cells, got 2"),
        ("ragged-middle-line", "line 3: expected 3 cells, got 4"),
        ("ragged-last-line", "line 8: expected 3 cells, got 2"),
        ("ragged-second-block", "line 5: expected 3 cells, got 2"),
        ("ragged-offsetting", "line 4: expected 3 cells, got 2"),
        ("ragged-after-blank", "line 4: expected 3 cells, got 1"),
        ("multi-line-then-ragged", "line 8: expected 3 cells, got 2"),
        ("empty-cell", "line 5: empty cell in column 'Gender'"),
        ("empty-target", "line 7: empty cell in column 'Recurred'"),
        ("empty-quoted", "line 4: empty cell in column 'Age'"),
        ("empty-first-in-row-order", "line 3: empty cell in column 'Gender'"),
        ("unseen-categories", "column 'Gender': value 'X' not in vocab"),
        ("non-finite-numbers", "column 'Age': value 'nan' is not a finite number"),
    ])
    def test_errors_name_the_first_fault(self, tmp_path, monkeypatch, name, message):
        """The file line of the first faulty record; of two unseen categories
        or two cells that are not finite numbers, the one met first in row
        order ('Yes' and 'M' were met first in the file, in other columns).
        An empty cell is an error, not a category: a blank Age would
        otherwise turn the numeric column categorical."""
        path = tmp_path / "t.csv"
        path.write_bytes(CORPUS[name].encode())
        schema = SCHEMA if name in WITH_SCHEMA else None
        for block_rows in (3, BLOCK_ROWS):
            monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
            assert load_outcome(path, schema) == (DataError, message)


def plain_parse(path) -> tuple[list[str], list[list[str]], list[str]]:
    """The header, feature rows and targets of a plain csv.reader parse."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows, [row.pop() for row in rows]


def reference_encoding(header, rows, targets):
    """Schema, X and y encoded cell by cell: a column is numeric iff float()
    gives a finite value for each of its cells, and then holds those values;
    otherwise each cell becomes its index in the column's sorted vocabulary.
    A target becomes its index in the sorted pair of target values."""
    features, columns = [], []
    for name, cells in zip(header, zip(*rows)):
        try:
            values = [float(cell) for cell in cells]
            numeric = all(map(math.isfinite, values))
        except ValueError:
            numeric = False
        if numeric:
            features.append(Feature(name, NUMERIC))
            columns.append(values)
        else:
            vocab = sorted(set(cells))
            features.append(Feature(name, CATEGORICAL, tuple(vocab)))
            columns.append([vocab.index(cell) for cell in cells])
    target_vocab = tuple(sorted(set(targets)))
    schema = FeatureSchema(tuple(features), target_name=header[-1], target_vocab=target_vocab)
    X = np.array(columns, dtype=np.float64).T
    y = np.array([target_vocab.index(t) for t in targets], dtype=np.int64)
    return schema, X, y


class TestOneStringPerValue:
    """load_csv stores each distinct cell value once; encoding is unchanged."""

    def test_equal_cells_are_one_object(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, n=383, seed=2)
        ds = load_csv(str(path))
        every = [c for row in row_lists(ds) for c in row] + cells(ds.targets)
        assert len({id(c) for c in every}) == len(set(every)) < 200

    @pytest.mark.parametrize("n", [383, 5000, 2 * BLOCK_ROWS + 700])
    def test_encodings_match_a_plain_parse(self, tmp_path, n):
        path = tmp_path / "t.csv"
        write_csv(path, n=n, seed=n)
        ds, plain = load_csv(str(path)), plain_parse(path)
        assert (ds.header, row_lists(ds), cells(ds.targets)) == plain
        got = label_encode(ds)
        schema, X, y = reference_encoding(*plain)
        assert got.schema == schema
        assert got.X.tobytes() == X.tobytes() and got.y.tobytes() == y.tobytes()

    def test_retained_memory_is_pointers_not_strings(self, tmp_path):
        """10,000 rows x 17 cells: ~0.7 MB retained (one int32 code per cell
        and the distinct values), against ~2.7 MB as row lists of pointers to
        interned strings and ~11.3 MB with one string object per cell."""
        path = tmp_path / "t.csv"
        write_csv(path, n=10_000, seed=3)
        load_csv(str(path))                  # imports and codec state outside the trace
        tracemalloc.start()
        try:
            ds = load_csv(str(path))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(ds) == 10_000
        assert retained < 1_000_000


class TestBuildSchema:
    """Schema inference, as label_encode runs it on a loaded table."""

    def test_numeric_iff_all_cells_parse(self, tmp_path):
        schema = schema_of(tmp_path, "Age,Code,Recurred\n34,x1,No\n51,7,Yes\n")
        assert schema.features[0].kind == NUMERIC
        assert schema.features[1].kind == CATEGORICAL

    def test_vocab_sorted(self, tmp_path):
        schema = schema_of(tmp_path, "Gender,Recurred\nM,No\nF,Yes\nM,No\n")
        assert schema.features[0].vocab == ("F", "M")

    def test_target_vocab_and_positive_class(self, tmp_path):
        schema = schema_of(tmp_path, "Age,Recurred\n1,Yes\n2,No\n")
        assert schema.target_vocab == ("No", "Yes")
        assert schema.target_vocab[1] == "Yes"

    def test_target_not_binary(self, tmp_path):
        with pytest.raises(DataError, match="target has 3 distinct values, expected 2"):
            schema_of(tmp_path, "Age,R\n1,a\n2,b\n3,c\n")
        with pytest.raises(DataError, match="target has 1 distinct values, expected 2"):
            schema_of(tmp_path, "Age,R\n1,a\n2,a\n")

    def test_nan_and_inf_cells_are_categorical(self, tmp_path):
        schema = schema_of(tmp_path, "V,R\nnan,a\ninf,b\n")
        assert schema.features[0].kind == CATEGORICAL


class TestLabelEncode:
    def test_sorted_index_encoding(self, tmp_path):
        enc = label_encode(load_csv(write(tmp_path, TOY)))
        assert enc.X[:, 1].tolist() == [0.0, 1.0, 0.0]      # F=0, M=1
        assert enc.y.tolist() == [0, 1, 0]

    def test_three_level_vocab(self, tmp_path):
        schema = schema_of(tmp_path, "Risk,R\nHigh,a\nIntermediate,a\nLow,b\n")
        enc = encode(tmp_path, "Risk,R\nLow,a\nHigh,b\n", schema)
        assert enc.X[:, 0].tolist() == [2.0, 0.0]

    def test_round_trip_every_cell(self, recurrence_source):
        ds = load_csv(str(recurrence_source.path))
        enc = label_encode(ds)
        schema, rows = enc.schema, row_lists(ds)
        for j, feat in enumerate(schema.features):
            if feat.kind != CATEGORICAL:
                continue
            for i in range(len(ds)):
                assert decode_category(schema, j, enc.X[i, j]) == rows[i][j]

    def test_unseen_category_rejected(self, tmp_path):
        schema = schema_of(tmp_path, "G,R\nF,a\nM,b\n")
        with pytest.raises(DataError, match="column 'G': value 'X' not in vocab"):
            encode(tmp_path, "G,R\nX,a\n", schema)

    def test_short_row_rejected(self, tmp_path):
        """A table with fewer feature columns than the schema; feature rows
        and targets of different lengths."""
        schema = schema_of(tmp_path, "Age,G,R\n1,F,a\n2,M,b\n")
        with pytest.raises(DataError, match="a row has fewer than the schema's 2 feature cells"):
            encode(tmp_path, "Age,R\n1,a\n2,b\n", schema)
        one = load_csv(write(tmp_path, "Age,G,R\n1,F,a\n", "one.csv"))
        two = load_csv(write(tmp_path, "Age,G,R\n1,F,a\n2,M,b\n", "two.csv"))
        with pytest.raises(DataError, match="1 rows but 2 targets"):
            encode_with_schema(one.rows, two.targets, schema)

    def test_unknown_target_rejected(self, tmp_path):
        schema = schema_of(tmp_path, "G,R\nF,a\nM,b\n")
        with pytest.raises(DataError, match="target: value 'c' not in vocab"):
            encode(tmp_path, "G,R\nF,c\n", schema)

    @pytest.mark.parametrize("cell", [" 1.5 ", "1_000", "\u0661\u0662", "-0", "1e400",
                                      "nan", "0x10", ""])
    def test_numbers_follow_float(self, cell):
        """Numeric iff Python's float() parses the cell to a finite value,
        and then to the same value, sign of zero included."""
        try:
            expected = float(cell)
        except ValueError:
            expected = math.nan
        got = _numbers([cell])
        if not math.isfinite(expected):
            assert got is None
        else:
            assert got.tolist() == [expected]
            assert math.copysign(1.0, got[0]) == math.copysign(1.0, expected)


class TestSplit:
    def test_paper_sizes(self):
        idx = split(383, 0.8, seed=0)
        assert len(idx.train) == 306
        assert len(idx.test) == 77

    def test_small_exact(self):
        idx = split(10, 0.8, seed=3)
        assert len(idx.train) == 8 and len(idx.test) == 2

    def test_deterministic(self):
        a, b = split(100, 0.8, seed=7), split(100, 0.8, seed=7)
        assert a.train.tolist() == b.train.tolist()
        assert a.test.tolist() == b.test.tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_partition_property(self, seed):
        idx = split(53, 0.7, seed=seed)
        merged = sorted(idx.train.tolist() + idx.test.tolist())
        assert merged == list(range(53))

    def test_degenerate(self):
        with pytest.raises(DataError, match="cannot split 1 rows"):
            split(1, 0.8, seed=0)
        with pytest.raises(DataError, match=r"split 0\.99 of 3 rows leaves one side empty"):
            split(3, 0.99, seed=0)

    def test_stratified_keeps_class_ratio(self):
        y = np.array([0] * 80 + [1] * 20)
        idx = stratified_split(y, 0.8, seed=1)
        assert sorted(np.concatenate([idx.train, idx.test]).tolist()) == list(range(100))
        assert int(y[idx.test].sum()) == 4     # 20% of each class

    def test_digest_stable(self):
        assert split_digest(split(20, 0.8, 1)) == split_digest(split(20, 0.8, 1))
        assert split_digest(split(20, 0.8, 1)) != split_digest(split(20, 0.8, 2))


class TestScaler:
    def test_population_std(self):
        scaler = fit_scaler(np.array([[1.0], [2.0], [3.0]]))
        assert scaler.means[0] == pytest.approx(2.0, abs=1e-12)
        assert scaler.stds[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-9)

    def test_constant_column_std_one(self):
        scaler = fit_scaler(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        assert scaler.stds[0] == 1.0
        assert scaler.means[0] == 5.0

    def test_identical_rows_all_constant(self):
        scaler = fit_scaler(np.array([[2.0, 7.0], [2.0, 7.0]]))
        assert scaler.stds.tolist() == [1.0, 1.0]

    def test_fit_matrix_standardized(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 2.5, size=(50, 4))
        out = apply_scaler(fit_scaler(X), X)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(out.std(axis=0) - 1.0) < 1e-8)

    def test_means_row_maps_to_zero(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0]])
        scaler = fit_scaler(X)
        out = apply_scaler(scaler, scaler.means[None, :])
        assert np.all(out == 0.0)

    def test_single_cell(self):
        from thyrec.data import Scaler
        out = apply_scaler(Scaler(means=np.array([2.0]), stds=np.array([0.5])),
                           np.array([[3.0]]))
        assert out[0, 0] == 2.0

    def test_dimension_mismatch(self):
        scaler = fit_scaler(np.ones((3, 2)) + np.arange(3)[:, None])
        with pytest.raises(ValueError):
            apply_scaler(scaler, np.ones((2, 3)))

    def test_no_leakage_from_test_rows(self):
        # scaler fit on the train partition must not depend on test content
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        idx = split(40, 0.8, seed=9)
        mutated = X.copy()
        mutated[idx.test] += 100.0
        a = fit_scaler(X[idx.train])
        b = fit_scaler(mutated[idx.train])
        assert np.array_equal(a.means, b.means) and np.array_equal(a.stds, b.stds)
