"""Print a sha256 listing of every file the four CLI commands emit.

Usage: python scripts/golden_bytes.py [--rows N] [--values]

Writes the synthetic 383-row table from tests/synth.py, runs train,
evaluate, explain and sensitivity for seeds 1 and 7, then on the seed-7
model explains rows 0 and 200 (the latter with `--num-features 16`) and runs
`sensitivity --levels 6 --trajectories 40`, plus one
`train --val-source test-as-paper --stratify --epochs 20`, and prints one
`sha256  relative/path` line per emitted file, sorted by path. Run it on two
commits on the same machine and diff the listings: a refactor that keeps the
outputs byte-identical prints the same lines.

With `--rows N` it then writes an N-row table (tests/synth.py, seed 11) and
lists, under `rows/`, the files of `train --epochs 3`,
`evaluate --partition all`, `explain --index 5` and `sensitivity` on it,
and under `rows/last/` those of `explain --index N-1`, a record in the
last read of the file. At 38,300 rows that is the cohort-scale check: the
CSV spans many read chunks and the explanation draws from ~30,000 training
rows.

With `--values` it prints what the files hold instead of their digests:
an `== path` line per file, then one `locator value` line per value, the
value as JSON. A CSV cell's locator is `row/column` (0-based, header row
0); a JSON value's is its key path joined by `/`. A `model.json` lists
every field but the layers' weights and biases, and in their place
WEIGHT_PROJECTIONS fixed-seed random projections of all of them in layer
order. `tests/golden_values.txt` holds this listing of the 28 files, and
`compare` checks a listing against it: non-float values exactly, floats
within ABS_TOL + REL_TOL * |fixture value|, so the check holds across BLAS
kernels and numpy SIMD dispatch, where the bytes do not.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import synth  # noqa: E402
from thyrec.cli import main as cli  # noqa: E402

SEEDS = (1, 7)
EXPLAIN_INDEX = 12
ROWS_SEED = 11
WEIGHT_PROJECTIONS = 8
PROJECTION_SEED = 2024
ABS_TOL, REL_TOL = 1e-12, 1e-9


def run(*args: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli(list(args))
    if code != 0:
        raise SystemExit(f"thyrec {' '.join(args)} exited {code}")


def emit(work: Path) -> None:
    data = str(work / "synth.csv")
    synth.write_csv(data)
    for seed in SEEDS:
        out = work / "out" / f"seed{seed}"
        model = str(out / "model.json")
        common = ["--data", data, "--seed", str(seed), "--out", str(out)]
        run("train", *common)
        run("evaluate", "--model", model, "--partition", "test", "--data", data,
            "--out", str(out))
        run("explain", "--model", model, "--index", str(EXPLAIN_INDEX), *common)
        run("sensitivity", "--model", model, *common)
    seed7 = work / "out" / "seed7"
    common = ["--data", data, "--seed", "7", "--model", str(seed7 / "model.json")]
    run("explain", *common, "--index", "0", "--out", str(seed7 / "row0"))
    run("explain", *common, "--index", "200", "--num-features", "16",
        "--out", str(seed7 / "row200"))
    run("sensitivity", *common, "--levels", "6", "--trajectories", "40",
        "--out", str(seed7 / "levels6"))
    run("train", "--data", data, "--seed", "1", "--out", str(work / "out" / "paper"),
        "--val-source", "test-as-paper", "--stratify", "--epochs", "20")


def emit_rows(work: Path, rows: int) -> None:
    data = str(work / "rows.csv")
    synth.write_csv(data, n=rows, seed=ROWS_SEED)
    out = work / "cohort" / "rows"
    model = str(out / "model.json")
    common = ["--data", data, "--out", str(out)]
    run("train", *common, "--epochs", "3")
    run("evaluate", "--model", model, "--partition", "all", *common)
    run("explain", "--model", model, "--index", "5", *common)
    run("sensitivity", "--model", model, *common)
    run("explain", "--model", model, "--index", str(rows - 1), "--data", data,
        "--out", str(out / "last"))


def listing(root: Path) -> list[str]:
    """One `sha256  path` line per file under root, sorted by path."""
    paths = sorted(p for p in root.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}"
            for p in paths]


def _cell_value(text: str):
    """A CSV cell as the value written there: an int, a float, else the text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _json_values(node, keys: tuple = ()):
    """(locator, value) for every scalar, empty array and empty object in node."""
    if isinstance(node, (dict, list)) and node:
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _json_values(child, keys + (str(key),))
    else:
        yield "/".join(keys), node


def _weight_projections(layers: list[dict]) -> list[float]:
    """Fixed-seed random projections of every layer's weights and bias, in
    layer order. Each is an exactly rounded sum (math.fsum) of exactly
    rounded products, so it depends on the weights' bits alone."""
    flat = np.concatenate([layer[key] for layer in layers for key in ("weights", "bias")])
    directions = np.random.default_rng(PROJECTION_SEED).standard_normal(
        (WEIGHT_PROJECTIONS, len(flat)))
    return [math.fsum(d * flat) for d in directions]


def file_values(path: Path) -> list[tuple[str, object]]:
    """(locator, value) for each value of one emitted file, in file order."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return [(f"{r}/{c}", _cell_value(cell))
                for r, row in enumerate(csv.reader(io.StringIO(text)))
                for c, cell in enumerate(row)]
    doc = json.loads(text)
    if path.name != "model.json":
        return list(_json_values(doc))
    projections = _weight_projections(doc["layers"])
    for layer in doc["layers"]:
        del layer["weights"], layer["bias"]
    return [*_json_values(doc),
            *((f"weight_projection/{k}", v) for k, v in enumerate(projections))]


def value_listing(root: Path) -> list[str]:
    """`== path`, then a `locator value` line per value, for each file
    under root, sorted by path."""
    lines = []
    for p in sorted(p for p in root.rglob("*") if p.is_file()):
        lines.append(f"== {p.relative_to(root).as_posix()}")
        lines += [f"{where} {json.dumps(value)}" for where, value in file_values(p)]
    return lines


def _same(expected, actual) -> bool:
    if type(expected) is float and type(actual) is float:
        return (expected == actual or (math.isnan(expected) and math.isnan(actual))
                or abs(actual - expected) <= ABS_TOL + REL_TOL * abs(expected))
    return type(expected) is type(actual) and expected == actual


def compare(expected: list[str], actual: list[str]) -> list[str]:
    """Where the value listing actual differs from expected: every line
    whose file, locator or value differs (floats within the tolerance),
    and lines one listing has beyond the other's end."""
    problems = []
    file = None
    for e, a in zip(expected, actual):
        if e.startswith("== ") or a.startswith("== "):
            file = e[3:]
            if e != a:
                problems.append(f"expected {e!r}, got {a!r}")
            continue
        e_where, e_value = e.split(" ", 1)
        a_where, a_value = a.split(" ", 1)
        if e_where != a_where or not _same(json.loads(e_value), json.loads(a_value)):
            problems.append(f"{file} {e_where}: expected {e_value}, got {a_where} {a_value}")
    if len(expected) != len(actual):
        problems.append(f"expected {len(expected)} lines, got {len(actual)}")
    return problems


def collect(rows: int | None = None, values: bool = False) -> list[str]:
    """The listing main prints: values if asked, else digests; with the
    N-row table's files after the 28 if rows is N."""
    list_files = value_listing if values else listing
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        emit(work)
        lines = list_files(work / "out")
        if rows is not None:
            emit_rows(work, rows)
            lines += list_files(work / "cohort")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, metavar="N",
                        help="then list the four commands' files on an N-row table")
    parser.add_argument("--values", action="store_true",
                        help="list each file's values rather than its sha256")
    args = parser.parse_args(argv)
    print("\n".join(collect(args.rows, args.values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
