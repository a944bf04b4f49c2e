"""The benchmark and script tools still run against the package.

`bench/traced_cli.py` wraps thyrec functions by module and name and reads
some of their arguments by position; `scripts/request_faults.py` imports
private cli helpers. Both run here unmodified in subprocesses on a small
synthetic table, so a rename or a moved argument fails this suite instead of
the next traced benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from synth import write_csv

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
