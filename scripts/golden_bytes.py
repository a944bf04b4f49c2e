"""Print a sha256 listing of every file the four CLI commands emit.

Usage: python scripts/golden_bytes.py

Writes the synthetic 383-row table from tests/synth.py, runs train,
evaluate, explain and sensitivity for seeds 1 and 7, then on the seed-7
model explains rows 0 and 200 (the latter with `--num-features 16`) and runs
`sensitivity --levels 6 --trajectories 40`, plus one
`train --val-source test-as-paper --stratify --epochs 20`, and prints one
`sha256  relative/path` line per emitted file, sorted by path. Run it on two
commits on the same machine and diff the listings: a refactor that keeps the
outputs byte-identical prints the same lines.
"""

from __future__ import annotations

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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        emit(Path(tmp))
        out = Path(tmp) / "out"
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
