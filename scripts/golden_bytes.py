"""Print a sha256 listing of every file the four CLI commands emit.

Usage: python scripts/golden_bytes.py [--rows N]

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
`evaluate --partition all`, `explain --index 5` and `sensitivity` on it.
At 38,300 rows that is the cohort-scale check: the CSV spans many read
chunks and the explanation draws from ~30,000 training rows.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import synth  # noqa: E402
from thyrec.cli import main as cli  # noqa: E402

SEEDS = (1, 7)
EXPLAIN_INDEX = 12
ROWS_SEED = 11


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


def listing(root: Path) -> list[str]:
    """One `sha256  path` line per file under root, sorted by path."""
    paths = sorted(p for p in root.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}"
            for p in paths]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, metavar="N",
                        help="then list the four commands' files on an N-row table")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        emit(work)
        lines = listing(work / "out")
        if args.rows is not None:
            emit_rows(work, args.rows)
            lines += listing(work / "cohort")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
