"""The benchmark and script tools still run against the package.

`bench/traced_cli.py` wraps thyrec functions by module and name and reads
some of their arguments by position; `scripts/request_faults.py` loads a
model and its table through `persist.load_for_data`. Both run here
unmodified in subprocesses on a small synthetic table, so a rename or a
moved argument fails this suite instead of the next traced benchmark run.
Neither may use a private thyrec name, so a refactor inside `src/` is free
to rename its helpers.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from synth import write_csv
from thyrec.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]


def run_tool(script: Path, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(script), *map(str, args)], env=env,
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
    def test_train_traces_backward_and_adam(self, train_spans):
        backward = attrs_of(train_spans, "neural.backward")
        assert backward and all({"rows", "clamped"} <= a.keys() for a in backward)
        assert len(attrs_of(train_spans, "neural.adam_step")) == len(backward)

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


def test_tools_use_no_private_thyrec_name():
    """Nothing under bench/ or scripts/ reaches past thyrec's public names."""
    used = {path.relative_to(ROOT).as_posix(): private_thyrec_names(path.read_text())
            for folder in ("bench", "scripts") for path in sorted((ROOT / folder).rglob("*.py"))}
    assert {path: names for path, names in used.items() if names} == {}
