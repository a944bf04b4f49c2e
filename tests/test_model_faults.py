"""A seeded fault sweep over model files, run through `cli.main` in-process.

Each case replaces one entry of a 2-epoch `model.json` with a value from a
fixed list, or deletes it, and runs `evaluate --partition test`, `explain`
or `sensitivity` on the table the model was trained on. Every run must end
in one of two ways: exit 0 with no warning and no NaN or infinity printed
or written, or exit 3 or 4 with exactly one stderr line. A traceback, any
other exit code or a warning fails the sweep.

Run as a script, `python tests/test_model_faults.py`, it sweeps every case
instead of the sample and prints a tally of the exit codes.
"""

import contextlib
import io
import json
import re
import shutil
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from synth import write_csv
from thyrec.cli import main

DELETE = object()     # the entry is removed rather than replaced
VALUES = (-1, 0, 1e308, -1e308, 2**63, 5e-324, None, "x", True, 1.5, DELETE)
COMMANDS = (("evaluate", "--partition", "test"), ("explain", "--index", "0"),
            ("sensitivity",))
SAMPLE = 500
NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def targets(node, path=()):
    """The path of every key of every object, and of the first three and
    the last entries of every array, parents before their children."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = sorted({i for i in (0, 1, 2, len(node) - 1) if 0 <= i < len(node)})
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from targets(node[key], path + (key,))


@contextlib.contextmanager
def mutated(raw: dict, keys: tuple, value):
    """raw with raw[keys[0]][keys[1]]... set to value, or deleted for
    DELETE, until the block ends."""
    *head, last = keys
    parent = raw
    for key in head:
        parent = parent[key]
    old = parent[last]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    try:
        yield raw
    finally:
        if value is DELETE and isinstance(parent, list):
            parent.insert(last, old)
        else:
            parent[last] = old


class Sweep:
    """A 120-row synth table (seed 3) and a 2-epoch model trained on it (seed 1)."""

    def __init__(self, work: Path):
        self.work = work
        self.data = str(work / "table.csv")
        write_csv(self.data, n=120, seed=3)
        assert self.run(["train", "--data", self.data, "--seed", "1", "--epochs", "2",
                         "--out", str(work / "train")])[0] == 0
        self.raw = json.loads((work / "train" / "model.json").read_text())
        self.model = work / "model.json"

    def cases(self) -> list[tuple]:
        return [(keys, value, command) for keys in targets(self.raw)
                for value in VALUES for command in COMMANDS]

    @staticmethod
    def run(argv: list[str]) -> tuple[int, str, str, list]:
        """main(argv)'s exit code, stdout, stderr and warnings."""
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]

    def outcome(self, keys: tuple, value, command: tuple) -> int:
        """The exit code of command on the model with keys mutated; an
        AssertionError naming the case if the run ends any other way."""
        with mutated(self.raw, keys, value) as raw:
            self.model.write_text(json.dumps(raw, sort_keys=True))
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [*command, "--model", str(self.model), "--data", self.data]
        if command[0] != "evaluate":
            argv += ["--out", str(out_dir)]
        code, stdout, stderr, caught = self.run(argv)
        case = (keys, "delete" if value is DELETE else value, command[0], code, stderr, caught)
        assert caught == [], case
        if code == 0:
            assert stderr == "", case
            written = [p.read_text() for p in out_dir.glob("*")] if out_dir.exists() else []
            assert not any(NOT_FINITE.search(text) for text in [stdout, *written]), case
        else:
            assert code in (3, 4), case
            assert len(stderr.splitlines()) == 1, case
        return code


def test_seeded_model_faults(tmp_path):
    sweep = Sweep(tmp_path)
    cases = sweep.cases()
    assert len(cases) > 3000
    rng = np.random.default_rng(17)
    codes = [sweep.outcome(*cases[i]) for i in sorted(rng.choice(len(cases), SAMPLE,
                                                                  replace=False))]
    # the sample reaches both kinds of end: loads that fail and runs that finish
    assert {0, 4} <= set(codes)
    for command in COMMANDS:
        # recover_split checks each partition's class counts against these
        assert sweep.outcome(("final_metrics", "test"), DELETE, command) == 4


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        sweep = Sweep(Path(tmp))
        started = time.perf_counter()
        tally: dict[tuple[str, int], int] = {}
        for keys, value, command in sweep.cases():
            key = (command[0], sweep.outcome(keys, value, command))
            tally[key] = tally.get(key, 0) + 1
        for (command, code), count in sorted(tally.items()):
            print(f"{command:<12} exit {code}: {count}")
        print(f"{sum(tally.values())} runs in {time.perf_counter() - started:.1f} s")
    sys.exit(0)
