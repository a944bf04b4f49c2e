"""The benchmark and script tools still run against the package.

`bench/traced_cli.py` wraps thyrec functions by module and name and reads
some of their arguments by position; `bench/run.py`'s `Server`, which holds
the explain-serve model, calls `data.load_csv`, `data.encode_with_schema`,
`data.split` and `data.split_digest` itself, and its `load_synth` loads
`tests/synth.py` by file path to write every benchmark table;
`scripts/request_faults.py` loads a model and its table through
`persist.load_for_data`. All three run here unmodified in subprocesses on a
small synthetic table, so a rename or a moved argument fails this suite
instead of the next benchmark run. None may use a private thyrec name, so
a refactor inside `src/` is free to rename its helpers.
"""

import ast
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from synth import COLUMNS, write_csv
from thyrec.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]


def run_tool(*args) -> subprocess.CompletedProcess:
    """Python in a subprocess with args (a script and its arguments, or -c)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)


def traced(trace: Path, *cli_args) -> list[dict]:
    """Run one CLI command under bench/traced_cli.py; its spans."""
    done = run_tool(ROOT / "bench" / "traced_cli.py", trace, "req", "root", *cli_args)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in trace.read_text().splitlines() if line.strip()]


def attrs_of(spans: list[dict], name: str) -> list[dict]:
    return [s["attrs"] for s in spans if s["name"] == name]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("tooling")
    write_csv(path / "table.csv", n=120)
    return path


@pytest.fixture(scope="module")
def stratified_model(workdir) -> Path:
    out = workdir / "stratified"
    assert cli_main(["train", "--data", str(workdir / "table.csv"), "--epochs", "2",
                     "--seed", "1", "--stratify", "--out", str(out)]) == 0
    return out / "model.json"


@pytest.fixture(scope="module")
def train_spans(workdir) -> list[dict]:
    return traced(workdir / "train.jsonl", "train", "--data", workdir / "table.csv",
                  "--epochs", "2", "--seed", "1", "--out", workdir / "run")


class TestTracedCli:
    def test_train_loads_and_encodes_once(self, train_spans):
        assert len(attrs_of(train_spans, "data.load_csv")) == 1
        assert len(attrs_of(train_spans, "data.encode")) == 1

    def test_train_saves_the_model_once(self, workdir, train_spans):
        """model.json goes through persist.save_model, whose span carries the
        artifact bytes the benchmark reports."""
        size = (workdir / "run" / "model.json").stat().st_size
        assert attrs_of(train_spans, "persist.save") == [{"bytes": size}]

    def test_train_traces_backward_and_adam(self, train_spans):
        backward = attrs_of(train_spans, "neural.backward")
        assert backward and all({"rows", "clamped"} <= a.keys() for a in backward)
        assert len(attrs_of(train_spans, "neural.adam_step")) == len(backward)

    def test_train_steps_on_the_fit_rows_only(self, train_spans):
        """The 120-row table's 96 training rows less round(0.2 · 96) = 19
        monitoring rows leave 77 fit rows: batches of 32, 32 and 13 in each
        of the 2 epochs. bench's neural.steps and neural.batch_rows count
        these spans."""
        rows = [a["rows"] for a in attrs_of(train_spans, "neural.backward")]
        assert rows == [32, 32, 13] * 2

    def test_explain_traces_lime_samples(self, workdir, train_spans):
        spans = traced(workdir / "explain.jsonl", "explain", "--data", workdir / "table.csv",
                       "--model", workdir / "run" / "model.json", "--index", "3",
                       "--out", workdir / "explain")
        sample = attrs_of(spans, "lime.sample")
        assert sample and all("samples" in a for a in sample)

    def test_sensitivity_traces_morris_evaluations(self, workdir, train_spans):
        spans = traced(workdir / "screen.jsonl", "sensitivity", "--data",
                       workdir / "table.csv", "--model", workdir / "run" / "model.json",
                       "--trajectories", "10", "--out", workdir / "screen")
        evaluate = attrs_of(spans, "morris.evaluate")
        assert evaluate and all("model_evals" in a for a in evaluate)


def test_traced_layers_name_package_functions():
    """Every (module, function) that bench/tracing.py wraps exists, checked
    in-process so a renamed one is named here, not in a traced subprocess."""
    layers = runpy.run_path(str(ROOT / "bench" / "tracing.py"))["LAYERS"]
    missing = [f"{module}.{name}" for module, name, *_ in layers
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_request_faults_reports_its_keys(workdir, train_spans):
    done = run_tool(ROOT / "scripts" / "request_faults.py", "--model",
                    workdir / "run" / "model.json", "--data", workdir / "table.csv",
                    "--warmup", "0", "--rounds", "1", "--mixes", "1")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert set(report) == {"model", "data", "seed", "rounds", "mixes_per_round",
                           "explain_p50_ms", "screen_p50_ms", "explain_minor_faults_p50",
                           "screen_minor_faults_p50", "minor_faults_per_mix",
                           "minor_faults_per_explain", "minor_faults_per_screen"}
    for kind in ("mix", "explain", "screen"):
        assert len(report[f"minor_faults_per_{kind}"]) == 1


def test_request_faults_serves_a_stratified_model(workdir, stratified_model):
    done = run_tool(ROOT / "scripts" / "request_faults.py", "--model", stratified_model,
                    "--data", workdir / "table.csv", "--warmup", "0", "--rounds", "1",
                    "--mixes", "1")
    assert done.returncode == 0, done.stderr


SERVE = """
import json, runpy, sys
from pathlib import Path
run = runpy.run_path(sys.argv[1], run_name="bench_run")
server = run["Server"](Path(sys.argv[2]), Path(sys.argv[3]))
print(json.dumps({"explain": server.explain(3, seed=1), "screen": server.screen(seed=1)}))
"""


def test_bench_server_explains_and_screens(workdir, train_spans):
    """bench/run.py's Server on the 120-row model trained without --stratify."""
    done = run_tool("-c", SERVE, ROOT / "bench" / "run.py", workdir / "run" / "model.json",
                    workdir / "table.csv")
    assert done.returncode == 0, done.stderr
    served = json.loads(done.stdout)
    assert sum(served["explain"]["class_probabilities"]) == pytest.approx(1.0, abs=1e-9)
    assert served["explain"]["feature_weights"]
    assert sorted(served["screen"]["ranking"]) == \
        sorted(f["name"] for f in served["screen"]["features"])


LOAD_SYNTH = """
import runpy, sys
synth = runpy.run_path(sys.argv[1], run_name="bench_run")["load_synth"]()
synth.write_csv(sys.argv[2], n=50, seed=5)
print(",".join(synth.COLUMNS))
"""


def test_bench_loads_synth_by_path(tmp_path):
    """bench/run.py's `load_synth` loads tests/synth.py by file path
    (`importlib.util.spec_from_file_location`), with only src/ on the path,
    and writes the benchmark's tables with it."""
    done = run_tool("-c", LOAD_SYNTH, ROOT / "bench" / "run.py", tmp_path / "bench.csv")
    assert done.returncode == 0, done.stderr
    write_csv(tmp_path / "tests.csv", n=50, seed=5)
    assert (tmp_path / "bench.csv").read_bytes() == (tmp_path / "tests.csv").read_bytes()
    assert done.stdout.split("\n")[0] == ",".join(COLUMNS)


def _dotted(node: ast.expr) -> str | None:
    """`a.b.c` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def private_thyrec_names(source: str) -> list[str]:
    """Every private thyrec name the source imports or reads: `from thyrec...
    import _x`, `import thyrec._x`, and `thyrec.<mod>._x` written through
    the package or through a name imported from it."""
    tree = ast.parse(source)
    names, bound = [], {}    # every imported name; a local name -> what it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.append(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = names[-1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.append(alias.name)
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
    for node in ast.walk(tree):
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        head, _, rest = (dotted or "").partition(".")
        if head in bound:
            names.append(f"{bound[head]}.{rest}")
    return sorted({name for name in names if name.split(".")[0] == "thyrec"
                   and any(part.startswith("_") and not part.endswith("__")
                           for part in name.split(".")[1:])})


@pytest.mark.parametrize("source, found", [
    ("from thyrec.cli import _load, main", ["thyrec.cli._load"]),
    ("import thyrec.cli._helpers", ["thyrec.cli._helpers"]),
    ("import thyrec.cli\nthyrec.cli._recover(y)", ["thyrec.cli._recover"]),
    ("from thyrec import cli as c\nc._recover(y)", ["thyrec.cli._recover"]),
    ("import thyrec\nfrom thyrec import data\ndata.split(3, 0.5, 1)\nthyrec.__version__", []),
    ("from other import _x\nimport os\nos._exit(0)", []),
], ids=["from-import", "import", "attribute", "aliased-module", "public", "not-thyrec"])
def test_private_name_detector(source, found):
    assert private_thyrec_names(source) == found


def test_golden_bytes_rows_lists_the_table_commands_files():
    """`scripts/golden_bytes.py --rows N` prints the usual listing, then the
    files of train, evaluate, explain and sensitivity on an N-row table, and
    of explain on its last row."""
    from test_golden_bytes import EXPECTED   # which imports this module
    done = run_tool(ROOT / "scripts" / "golden_bytes.py", "--rows", "150")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    assert [line.split("  ", 1)[1] for line in lines] == EXPECTED + [
        f"rows/{name}" for name in (
            "eval_report.json", "explanation.json", "explanation_bars.csv", "history.csv",
            "last/explanation.json", "last/explanation_bars.csv", "model.json",
            "sensitivity.csv", "sensitivity.json", "sensitivity_scatter.csv",
            "train_report.json")]


def test_tools_use_no_private_thyrec_name():
    """Nothing under bench/ or scripts/ reaches past thyrec's public names."""
    used = {path.relative_to(ROOT).as_posix(): private_thyrec_names(path.read_text())
            for folder in ("bench", "scripts") for path in sorted((ROOT / folder).rglob("*.py"))}
    assert {path: names for path, names in used.items() if names} == {}


def file_calls(fn: ast.FunctionDef) -> set[str]:
    """The last name of every call in fn that opens, serializes or makes a
    file: `open`, `dumps`, `write_text` or `mkdir`, however reached."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
    return names & {"open", "dumps", "write_text", "mkdir"}


def test_cli_commands_leave_writing_to_the_writers():
    """Each `cmd_*` in thyrec/cli.py names its files in one `_write` call (and
    model.json through `save_model`); none opens, serializes or makes a file."""
    tree = ast.parse((ROOT / "src" / "thyrec" / "cli.py").read_text())
    commands = [fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")]
    assert len(commands) == 4
    assert {fn.name: file_calls(fn) for fn in commands if file_calls(fn)} == {}
    helper = ast.parse("def cmd_x(a):\n    a.mkdir()\n    open(a).write(json.dumps(a))\n")
    assert file_calls(helper.body[0]) == {"mkdir", "open", "dumps"}
