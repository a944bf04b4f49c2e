import csv
import math
import tracemalloc

import numpy as np
import pytest

from synth import write_csv
from thyrec import data
from thyrec.data import (BLOCK_ROWS, CATEGORICAL, NUMERIC, DataError, Dataset, _numbers,
                         apply_scaler, build_schema, decode_category, encode_with_schema,
                         fit_scaler, label_encode, load_csv, split, split_digest,
                         stratified_split)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


TOY = "Age,Gender,Recurred\n34,F,No\n51,M,Yes\n29,F,No\n"


class TestLoadCsv:
    def test_recurrence_file_shape(self, recurrence_source):
        ds = load_csv(str(recurrence_source.path))
        assert len(ds) == 383
        schema = build_schema(ds.header, ds.rows, ds.targets)
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
        assert build_schema(ds.header, ds.rows, ds.targets).feature_names == ["Age", "Gender"]

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
        assert ds.rows[0][1] == "a, b"


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
}
SCHEMA = build_schema(["Age", "Gender", "Recurred"], [["1", "F"], ["2", "M"]], ["No", "Yes"])


def load_outcome(path, schema):
    """What loading and encoding give: the cells and encodings, or the
    error's class and message."""
    try:
        ds = load_csv(str(path))
        enc = label_encode(ds) if schema is None else \
            encode_with_schema(ds.rows, ds.targets, schema)
    except DataError as exc:
        return type(exc), str(exc).replace(str(path), "<path>")
    return (ds.header, list(ds.rows), list(ds.targets), enc.schema, enc.X.tobytes(),
            enc.y.tobytes())


class TestTokenizers:
    """The str.split tokenizer against csv.reader on the same file: the same
    header, cells, schema, X and y bytes, or the same error and message."""

    @pytest.mark.parametrize("block_rows", [3, BLOCK_ROWS])
    @pytest.mark.parametrize("name", CORPUS)
    def test_split_matches_csv_reader(self, tmp_path, monkeypatch, name, block_rows):
        path = tmp_path / "t.csv"
        path.write_bytes(CORPUS[name].encode())
        schema = SCHEMA if name == "unseen-categories" else None
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
    ])
    def test_errors_name_the_first_fault(self, tmp_path, monkeypatch, name, message):
        """The file line of the first faulty record; of two unseen categories,
        the one met first in row order ('Yes' was met first in the file, as a
        target). An empty cell is an error, not a category: a blank Age would
        otherwise turn the numeric column categorical."""
        path = tmp_path / "t.csv"
        path.write_bytes(CORPUS[name].encode())
        schema = SCHEMA if name == "unseen-categories" else None
        for block_rows in (3, BLOCK_ROWS):
            monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
            assert load_outcome(path, schema) == (DataError, message)


def plain_table(path) -> Dataset:
    """The table as a plain csv.reader parse builds it: one string per cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return Dataset(header=header, rows=rows, targets=[row.pop() for row in rows])


class TestOneStringPerValue:
    """load_csv stores each distinct cell value once; encoding is unchanged."""

    def test_equal_cells_are_one_object(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, n=383, seed=2)
        ds = load_csv(str(path))
        cells = [c for row in ds.rows for c in row] + list(ds.targets)
        assert len({id(c) for c in cells}) == len(set(cells)) < 200

    @pytest.mark.parametrize("n", [383, 5000, 2 * BLOCK_ROWS + 700])
    def test_encodings_match_a_plain_parse(self, tmp_path, n):
        path = tmp_path / "t.csv"
        write_csv(path, n=n, seed=n)
        ds, plain = load_csv(str(path)), plain_table(path)
        assert (ds.header, list(ds.rows), list(ds.targets)) == \
            (plain.header, plain.rows, plain.targets)
        got, want = label_encode(ds), label_encode(plain)
        assert got.schema == want.schema
        assert got.X.tobytes() == want.X.tobytes() and got.y.tobytes() == want.y.tobytes()
        got = encode_with_schema(ds.rows, ds.targets, want.schema)
        want = encode_with_schema(plain.rows, plain.targets, want.schema)
        assert got.X.tobytes() == want.X.tobytes() and got.y.tobytes() == want.y.tobytes()

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
    def test_numeric_iff_all_cells_parse(self):
        schema = build_schema(["Age", "Code", "Recurred"],
                              [["34", "x1"], ["51", "7"]], ["No", "Yes"])
        assert schema.features[0].kind == NUMERIC
        assert schema.features[1].kind == CATEGORICAL

    def test_vocab_sorted(self):
        schema = build_schema(["Gender", "Recurred"],
                              [["M"], ["F"], ["M"]], ["No", "Yes", "No"])
        assert schema.features[0].vocab == ("F", "M")

    def test_target_vocab_and_positive_class(self):
        schema = build_schema(["Age", "Recurred"], [["1"], ["2"]], ["Yes", "No"])
        assert schema.target_vocab == ("No", "Yes")
        assert schema.target_vocab[1] == "Yes"

    def test_target_not_binary(self):
        with pytest.raises(DataError, match="target has 3 distinct values, expected 2"):
            build_schema(["Age", "R"], [["1"], ["2"], ["3"]], ["a", "b", "c"])
        with pytest.raises(DataError, match="target has 1 distinct values, expected 2"):
            build_schema(["Age", "R"], [["1"], ["2"]], ["a", "a"])

    def test_nan_and_inf_cells_are_categorical(self):
        schema = build_schema(["V", "R"], [["nan"], ["inf"]], ["a", "b"])
        assert schema.features[0].kind == CATEGORICAL


class TestLabelEncode:
    def test_sorted_index_encoding(self, tmp_path):
        enc = label_encode(load_csv(write(tmp_path, TOY)))
        assert enc.X[:, 1].tolist() == [0.0, 1.0, 0.0]      # F=0, M=1
        assert enc.y.tolist() == [0, 1, 0]

    def test_three_level_vocab(self):
        schema = build_schema(["Risk", "R"], [["High"], ["Intermediate"], ["Low"]],
                              ["a", "a", "b"])
        enc = encode_with_schema([["Low"], ["High"]], ["a", "b"], schema)
        assert enc.X[:, 0].tolist() == [2.0, 0.0]

    def test_round_trip_every_cell(self, recurrence_source):
        ds = load_csv(str(recurrence_source.path))
        enc = label_encode(ds)
        schema = build_schema(ds.header, ds.rows, ds.targets)
        for j, feat in enumerate(schema.features):
            if feat.kind != CATEGORICAL:
                continue
            for i in range(len(ds)):
                assert decode_category(schema, j, enc.X[i, j]) == ds.rows[i][j]

    def test_unseen_category_rejected(self):
        schema = build_schema(["G", "R"], [["F"], ["M"]], ["a", "b"])
        with pytest.raises(DataError, match="column 'G': value 'X' not in vocab"):
            encode_with_schema([["X"]], ["a"], schema)

    def test_short_row_rejected(self):
        schema = build_schema(["Age", "G", "R"], [["1", "F"], ["2", "M"]], ["a", "b"])
        with pytest.raises(DataError, match="a row has fewer than the schema's 2 feature cells"):
            encode_with_schema([["1", "F"], ["2"]], ["a", "b"], schema)
        with pytest.raises(DataError, match="1 rows but 2 targets"):
            encode_with_schema([["1", "F"]], ["a", "b"], schema)

    def test_unknown_target_rejected(self):
        schema = build_schema(["G", "R"], [["F"], ["M"]], ["a", "b"])
        with pytest.raises(DataError, match="target: value 'c' not in vocab"):
            encode_with_schema([["F"]], ["c"], schema)

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
