#!/usr/bin/env python3
"""Benchmark of the thyrec pipeline, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload paper-cli --seed 1 --seconds 30 --trace 0

Workloads (bench/README.md says why each exists):

  paper-cli      383 rows. One operation is the four CLI commands
                 train -> evaluate -> explain -> sensitivity, each in a fresh
                 `python -m thyrec.cli` process.
  explain-serve  one process serving a model trained during set-up on 383
                 rows: a closed loop of 4 explanations per Morris screen.
  cohort-100x    the four commands on 38,300 rows (`--epochs 3`,
                 `evaluate --partition all`).

The program gets only inputs made from --seed: CSVs from
tests/synth.generate_rows, row indices and LIME/Morris seeds. Every output is
checked; a non-zero exit or a failed check counts as a failed operation.
With --trace 0 the result carries every end-to-end metric of BENCHMARK.json;
with --trace 1 every per-layer metric, and the spans go to .bench_out/. The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import importlib.util
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SYNTH = ROOT / "tests" / "synth.py"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402

SETUP_REPS = 3               # set-ups per run; setup_s is their median
EXPLAINS_PER_SCREEN = 4      # explain-serve request mix
TAIL_BEYOND = 10             # samples that must lie beyond the tail percentile
COMMAND_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    rows: int
    datasets: int                  # distinct seeded tables cycled through the run
    train_flags: tuple[str, ...]
    partition: str                 # `evaluate --partition`
    serve: bool = False


WORKLOADS = {
    "paper-cli": Workload(rows=383, datasets=8, train_flags=(), partition="test"),
    "explain-serve": Workload(rows=383, datasets=5, train_flags=(), partition="test",
                              serve=True),
    "cohort-100x": Workload(rows=38_300, datasets=1, train_flags=("--epochs", "3"),
                            partition="all"),
}


@dataclass(frozen=True)
class Job:
    """One seeded input set: a table plus the seeds and row its commands use."""
    csv: Path
    data_seed: int
    train_seed: int
    index: int
    lime_seed: int
    morris_seed: int


def make_jobs(seed: int, wl: Workload, work: Path) -> list[Job]:
    rng = random.Random(seed)
    return [Job(csv=work / f"data{k}.csv", data_seed=rng.randrange(2**31),
                train_seed=rng.randrange(2**31), index=rng.randrange(wl.rows),
                lime_seed=rng.randrange(2**31), morris_seed=rng.randrange(2**31))
            for k in range(wl.datasets)]


def load_synth():
    spec = importlib.util.spec_from_file_location("thyrec_bench_synth", SYNTH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class SpeedProbe:
    """Times a fixed piece of work between operations, to follow how fast
    the shared machine runs at that moment. Each timed operation is scaled
    by `nominal` over the mean of the probes taken right before and after
    it, so slow and fast stretches of the machine cancel out of the medians.
    The probed work never runs thyrec code, so no change to thyrec moves it."""

    def __init__(self, work, nominal: float):
        self._work = work
        self.nominal = nominal      # the probe's median on the baseline machine
        self.last = self.measure()

    def measure(self) -> float:
        """Median of three timings of the fixed work, in seconds."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def factor(self) -> float:
        """Scale for the operation that ran since the previous call."""
        before, self.last = self.last, self.measure()
        return self.nominal / ((before + self.last) / 2)


def startup_probe(run: Run) -> SpeedProbe:
    """For fresh-process commands: start a bare interpreter (`python -S`)."""
    argv = [sys.executable, "-S", "-c", "pass"]
    return SpeedProbe(lambda: subprocess.run(argv, cwd=run.work, stdin=subprocess.DEVNULL,
                                             check=True), nominal=0.010)


def compute_probe() -> SpeedProbe:
    """For in-process requests: small float64 matrix products and per-cell
    dictionary work on the harness's own seeded arrays."""
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.normal(size=(32, 16))
    w1, w2, w3 = (rng.normal(size=shape) for shape in ((16, 128), (128, 64), (64, 32)))
    cells = [[str(v) for v in row] for row in rng.integers(0, 100, size=(200, 16))]

    def work() -> None:
        for _ in range(40):
            h = np.maximum(x @ w1, 0.0)
            h = np.maximum(h @ w2, 0.0)
            (h @ w3).T @ x
        vocab: dict = {}
        for row in cells:
            for j, cell in enumerate(row):
                vocab.setdefault((j, cell), len(vocab))
    return SpeedProbe(work, nominal=0.0014)


class Run:
    """State of one benchmark run: where it works, what it counted, what it
    timed."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".bench_work" / f"{workload}-seed{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.tracer = tracing.Tracer("setup")
        self.tracer.enabled = trace
        self.child_spans: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}       # speed-scaled seconds
        self.raw_samples: dict[str, list[float]] = {}   # wall seconds as measured
        self.values: dict[str, float] = {}             # metrics measured once per run
        self.notes: dict[str, str] = {}
        self.probe: SpeedProbe | None = None

    def add(self, key: str, raw: float, scaled: float) -> None:
        self.raw_samples.setdefault(key, []).append(raw)
        self.samples.setdefault(key, []).append(scaled)

    def outcome(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(problems)
        return not problems

    @property
    def spans(self) -> list[dict]:
        return self.tracer.spans + self.child_spans


# --- fresh-process CLI commands ---------------------------------------------

def _spawn(run: Run, argv: list[str], label: str) -> tuple[float | None, str | None]:
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=run.work, env=run.env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{label}: no exit within {COMMAND_TIMEOUT_S} s"
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return None, f"{label}: exit {proc.returncode} {' '.join(tail)}"
    return wall, None


def run_command(run: Run, cli_args: list[str], request: str,
                traced: bool) -> tuple[float | None, str | None]:
    """Run one thyrec command in a fresh process; (wall seconds, error)."""
    if not traced:
        return _spawn(run, [sys.executable, "-m", "thyrec.cli", *cli_args], request)
    spans_file = run.work / f"spans-{request}.jsonl"
    run.tracer.request = request
    with run.tracer.span("cli.process"):
        result = _spawn(run, [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                              str(spans_file), request, run.tracer.current, *cli_args],
                        request)
    if spans_file.exists():
        run.child_spans += tracing.read_spans(str(spans_file))
        spans_file.unlink()
    return result


def pipeline_steps(run: Run, job: Job, out: Path) -> list[tuple[str, list[str]]]:
    model, data = str(out / "model.json"), str(job.csv)
    return [
        ("train", ["train", "--data", data, "--out", str(out),
                   "--seed", str(job.train_seed), *run.wl.train_flags]),
        ("evaluate", ["evaluate", "--model", model, "--data", data,
                      "--partition", run.wl.partition, "--out", str(out)]),
        ("explain", ["explain", "--model", model, "--data", data, "--index", str(job.index),
                     "--seed", str(job.lime_seed), "--out", str(out)]),
        ("sensitivity", ["sensitivity", "--model", model, "--data", data,
                         "--seed", str(job.morris_seed), "--out", str(out)]),
    ]


# --- output checks -----------------------------------------------------------

def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def clinical(cm: dict) -> dict:
    """The metric block `evaluate` writes for a confusion matrix."""
    tp, fp, tn, fn = cm["tp"], cm["fp"], cm["tn"], cm["fn"]
    pairs = {"accuracy": (tp + tn, tp + fp + tn + fn), "sensitivity": (tp, tp + fn),
             "specificity": (tn, tn + fp), "ppv": (tp, tp + fp), "npv": (tn, tn + fn)}
    return {k: round(n / d, 4) if d > 0 else None for k, (n, d) in pairs.items()}


def check_evaluate(report: dict, train_report: dict, partition: str) -> list[str]:
    if partition == "all":
        cm = {k: train_report["train"]["confusion"][k] + train_report["test"]["confusion"][k]
              for k in ("tp", "fp", "tn", "fn")}
        want = {"confusion": cm, "metrics": clinical(cm)}
    else:
        want = train_report[partition]
    got = report.get(partition)
    return [] if got == want else [f"evaluate --partition {partition}: {got} != {want}"]


def check_explanation(e: dict) -> list[str]:
    problems = []
    if not 0.0 <= e["local_r2"] <= 1.0:
        problems.append(f"explain: local_r2 {e['local_r2']} outside [0, 1]")
    p = e["class_probabilities"]
    if len(p) != 2 or min(p) < 0.0 or abs(sum(p) - 1.0) > 1e-9:
        problems.append(f"explain: class probabilities {p} do not sum to 1")
    if not all(math.isfinite(w["weight"]) for w in e["feature_weights"]):
        problems.append("explain: non-finite feature weight")
    return problems


def check_screen(s: dict, feature_names: list[str]) -> list[str]:
    problems = [f"sensitivity: {f['name']} mu_star {f['mu_star']} < |mu| {abs(f['mu'])}"
                for f in s["features"] if f["mu_star"] < abs(f["mu"]) - 1e-12]
    if sorted(s["ranking"]) != sorted(feature_names):
        problems.append(f"sensitivity: ranking {s['ranking']} is not a permutation "
                        f"of the features")
    return problems


def check_outputs(out: Path, partition: str, features: list[str],
                  reference: dict | None) -> list[str]:
    """Checks on the files of one pipeline; `reference` holds the digests of
    an earlier run of the same job, which must match byte for byte."""
    try:
        train_report = read_json(out / "train_report.json")
        problems = check_evaluate(read_json(out / "eval_report.json"), train_report,
                                  partition)
        problems += check_explanation(read_json(out / "explanation.json"))
        problems += check_screen(read_json(out / "sensitivity.json"), features)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output in {out.name}: {exc!r}"]
    if reference is not None:
        now = digests(out)
        changed = sorted(k for k in set(now) | set(reference) if now.get(k) != reference.get(k))
        if changed:
            problems.append(f"same-seed rerun changed {changed}")
    return problems


# --- workloads -----------------------------------------------------------------

def timed_loop(run: Run, op) -> None:
    """Call op(i, traced) until --seconds have passed (at least once, twice
    when tracing, so that traced and untraced operations both occur).
    Tracing alternates: odd operations are traced."""
    deadline = time.perf_counter() + run.seconds
    i = 0
    while i < (2 if run.trace else 1) or time.perf_counter() < deadline:
        op(i, run.trace and i % 2 == 1)
        i += 1


def record_quality(run: Run, reports: list[dict]) -> None:
    """Test-partition accuracy and sensitivity from train_report.json, as a
    mean over the run's tables (one table alone swings with its seed)."""
    for metric in ("accuracy", "sensitivity"):
        if reports:
            run.values[f"test_{metric}"] = statistics.fmean(r[metric] for r in reports)
            run.notes[f"test_{metric}"] = f"mean over {len(reports)} tables"


def record_op(run: Run, walls: list[tuple[str, float, float]], traced: bool) -> None:
    """Keep the (name, raw, scaled) request times of one successful operation."""
    raw, scaled = sum(w[1] for w in walls), sum(w[2] for w in walls)
    if traced:
        run.add("pipeline_s.traced", raw, scaled)
        return
    for name, wall_raw, wall_scaled in walls:
        run.add(name, wall_raw, wall_scaled)
    run.add("pipeline_s", raw, scaled)


def run_steps(run: Run, steps, request: str,
              traced: bool) -> tuple[list[tuple[str, float, float]], list[str]]:
    """Run CLI steps in order, stopping at the first failure. Returns
    (name, wall seconds, speed-scaled seconds) per command and the problems;
    each command is scaled by the probes taken right before and after it."""
    walls = []
    for name, cli_args in steps:
        wall, error = run_command(run, cli_args, f"{request}.{name}", traced)
        if error is not None:
            return walls, [error]
        walls.append((name, wall, wall * run.probe.factor()))
    return walls, []


def cli_operation(run: Run, steps, out: Path, features: list[str], traced: bool,
                  reference: dict | None) -> bool:
    """One counted operation: run the steps into `out`, check the files."""
    walls, problems = run_steps(run, steps, out.name, traced)
    if not problems:
        problems = check_outputs(out, run.wl.partition, features, reference)
    if run.outcome(problems):
        record_op(run, walls, traced)
    return not problems


def run_cli(run: Run, synth) -> None:
    jobs = make_jobs(run.seed, run.wl, run.work)
    header = synth.COLUMNS
    generation = compute_probe()     # set-up is in-process work, like that probe's
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        for job in jobs:
            synth.write_csv(job.csv, n=run.wl.rows, seed=job.data_seed)
        raw = time.perf_counter() - start
        run.add("setup_s", raw, raw * generation.factor())
    # untimed warm-up: compiles bytecode and pages numpy in
    _spawn(run, [sys.executable, "-c", "import thyrec.cli"], "warm-up")
    run.probe.factor()

    references: dict[int, dict] = {}
    reports: dict[int, dict] = {}

    def pipeline(i: int, traced: bool) -> None:
        k = i % len(jobs)
        out = run.work / f"op{i}"
        ok = cli_operation(run, pipeline_steps(run, jobs[k], out), out, header, traced,
                           references.get(k))
        if ok and k not in references:
            references[k] = digests(out)
            reports[k] = read_json(out / "train_report.json")["test"]["metrics"]
        shutil.rmtree(out, ignore_errors=True)

    timed_loop(run, pipeline)
    record_quality(run, list(reports.values()))
    run.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    run.notes["peak_rss_mb"] = "largest child process"


class Server:
    """The in-process model an explain-serve run holds: artifact, encoded
    table and the standardized rows LIME and Morris draw from."""

    def __init__(self, model_path: Path, csv: Path):
        from thyrec import data, lime, morris, neural, persist
        self._lime, self._morris, self._neural = lime, morris, neural
        self.artifact = persist.load_model(str(model_path))
        table = data.load_csv(str(csv))
        enc = data.encode_with_schema(table.rows, table.targets, self.artifact.schema)
        idx = data.split(len(enc.y), self.artifact.split.ratio, self.artifact.split.seed)
        if data.split_digest(idx) != self.artifact.split.indices_digest:
            raise RuntimeError("served table does not reproduce the model's split")
        self.X_all = data.apply_scaler(self.artifact.scaler, enc.X)
        self.X_train = data.apply_scaler(self.artifact.scaler, enc.X[idx.train])
        self.features = self.artifact.schema.feature_names

    def predict(self, X):
        return self._neural.predict_proba(self.artifact.mlp, X)

    def explain(self, row: int, seed: int) -> dict:
        lime = self._lime
        e = lime.explain(self.predict, self.X_all[row], self.X_train,
                         lime.LimeConfig(seed=seed), schema=self.artifact.schema,
                         scaler=self.artifact.scaler, instance_index=row)
        return {"class_probabilities": list(e.class_probabilities), "local_r2": e.local_r2,
                "intercept": e.intercept, "surrogate_prediction": e.surrogate_prediction,
                "feature_weights": [{"feature": f, "weight": w} for f, w in e.feature_weights]}

    def screen(self, seed: int) -> dict:
        morris = self._morris
        r = morris.analyze(self.predict, self.X_train, morris.MorrisConfig(seed=seed),
                           feature_names=self.features)
        return {"features": [{"name": n, "mu": float(r.mu[j]), "mu_star": float(r.mu_star[j]),
                              "sigma": float(r.sigma[j])}
                             for j, n in enumerate(r.feature_names)],
                "ranking": r.ranking}


def run_serve(run: Run, synth) -> None:
    """Set-up trains one model per seeded table with the CLI and loads it
    into this process; the loop then sends explanations and screens to the
    models in turn, so no one table's quirks set the figures."""
    reports, servers = [], []
    for rep, job in enumerate(make_jobs(run.seed, run.wl, run.work)):
        start = time.perf_counter()
        synth.write_csv(job.csv, n=run.wl.rows, seed=job.data_seed)
        out = run.work / f"model{rep}"
        walls, problems = run_steps(run, pipeline_steps(run, job, out)[:2], f"setup{rep}",
                                    run.trace)
        if not problems:
            train_report = read_json(out / "train_report.json")
            problems = check_evaluate(read_json(out / "eval_report.json"), train_report, "test")
        if not run.outcome(problems):
            raise RuntimeError(f"set-up failed: {problems[0]}")
        reports.append(train_report["test"]["metrics"])
        run.tracer.request = f"setup{rep}"
        servers.append(Server(out / "model.json", job.csv))
        raw = time.perf_counter() - start
        run.add("setup_s", raw, raw * run.probe.factor())
        for name, wall, scaled in walls:
            run.add(name, wall, scaled)
    record_quality(run, reports)

    probe = compute_probe()
    rng = random.Random(run.seed)
    rows = [rng.sample(range(len(server.X_all)), len(server.X_all)) for server in servers]
    first: dict[str, tuple] = {}     # kind -> (server, row, seed, answer) of its first request
    served = 0

    def serve(kind: str, server: Server, row: int, seed: int) -> dict:
        return server.explain(row, seed) if kind == "explain" else server.screen(seed)

    def cycle(i: int, traced: bool) -> None:
        """One request mix; i < 0 is the untimed warm-up."""
        nonlocal served
        run.tracer.enabled = traced
        walls, ok = [], True
        for kind in ["explain"] * EXPLAINS_PER_SCREEN + ["screen"]:
            m = served % len(servers)
            row, seed = rows[m][served // len(servers) % len(rows[m])], rng.randrange(2**31)
            served += 1
            run.tracer.request = f"r{served}"
            start = time.perf_counter()
            with run.tracer.span(f"serve.{kind}") if traced else contextlib.nullcontext():
                answer = serve(kind, servers[m], row, seed)
            walls.append((kind, time.perf_counter() - start))
            first.setdefault(kind, (servers[m], row, seed, answer))
            ok = run.outcome(check_explanation(answer) if kind == "explain"
                             else check_screen(answer, servers[m].features)) and ok
        run.tracer.enabled = False
        factor = probe.factor()
        if ok and i >= 0:
            record_op(run, [(kind, w, w * factor) for kind, w in walls], traced)

    cycle(-1, False)
    timed_loop(run, cycle)

    same = all(serve(kind, *first[kind][:3]) == first[kind][3] for kind in first)
    run.outcome([] if same else ["a repeated request gave a different answer"])
    run.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.notes["peak_rss_mb"] = "serving process"


# --- results ---------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples
    above it; short runs, where that sample sits below the median, report
    the median at percentile 50."""
    s = sorted(samples)
    k = len(s) - 1 - TAIL_BEYOND
    median = statistics.median(s)
    if k < 0 or s[k] < median:
        return median, 50.0
    return s[k], 100.0 * (k + 1) / len(s)


# sample key -> end-to-end metric; latency samples get a median and a tail
MEDIAN_SECONDS = {"setup_s": "setup_s", "pipeline_s": "pipeline_s",
                  "train": "train_s", "evaluate": "evaluate_s"}
LATENCY_MS = {"explain": "explain", "sensitivity": "screen", "screen": "screen"}


def end_to_end(run: Run) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end metric values, and a note (sample count, percentile, raw
    wall-clock median) each."""
    values, notes = dict(run.values), dict(run.notes)
    for key, sample in run.samples.items():
        raw = statistics.median(run.raw_samples[key])
        if key in MEDIAN_SECONDS:
            values[MEDIAN_SECONDS[key]] = statistics.median(sample)
            notes[MEDIAN_SECONDS[key]] = f"median of {len(sample)}; raw {raw:.4g} s"
        elif key in LATENCY_MS:
            name = LATENCY_MS[key]
            values[f"{name}_p50_ms"] = 1000 * statistics.median(sample)
            notes[f"{name}_p50_ms"] = f"median of {len(sample)}; raw {1000 * raw:.4g} ms"
            value, pct = tail(sample)
            values[f"{name}_tail_ms"] = 1000 * value
            notes[f"{name}_tail_ms"] = f"p{pct:.1f} of {len(sample)}"
    kinds = ("explain", "screen") if run.wl.serve else ("train", "evaluate", "explain",
                                                         "sensitivity")
    requests = [run.samples[k] for k in kinds if k in run.samples]
    busy = sum(sum(sample) for sample in requests)
    if busy:
        count = sum(len(sample) for sample in requests)
        values["requests_per_s"] = count / busy
        notes["requests_per_s"] = f"{count} requests, one closed-loop client"
    return values, notes


def traced_ops(run: Run) -> int:
    return len(run.samples.get("pipeline_s.traced", []))


def per_layer(run: Run) -> dict[str, float]:
    ops = traced_ops(run)
    values = tracing.layer_metrics(run.spans, ops) if ops else {}
    if ops and run.samples.get("pipeline_s"):
        values["trace.overhead_ms"] = 1000 * (statistics.median(run.samples["pipeline_s.traced"])
                                              - statistics.median(run.samples["pipeline_s"]))
    return values


def _openblas_core() -> str | None:
    import ctypes
    import numpy as np
    for lib_path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                           "numpy.libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", "", "_64"):
                fn = getattr(lib, f"{prefix}get_corename{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_char_p
                    return fn().decode()
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment() -> dict:
    """What produced the numbers: interpreter, numpy/BLAS build and the thread
    settings found in the environment (passed to the program unchanged)."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": _openblas_core(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


def print_table(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(title)
    print(f"  {'metric':<32}{'value':>14}  {'unit':<8}note")
    for name, value, unit, note in rows:
        print(f"  {name:<32}{value:>14.6g}  {unit:<8}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "thyrec" / "cli.py", SYNTH, SPEC) if not p.is_file()]
    if missing:
        print(f"error: not a thyrec checkout, missing {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True)
    try:
        if run.wl.serve:
            # the server's own start-up import, taken before numpy is loaded
            start = time.perf_counter()
            sys.path.insert(0, str(SRC))
            import thyrec.cli  # noqa: F401
            run.tracer.record("cli.import", start, time.perf_counter())
            if run.trace:
                tracing.install(run.tracer)
        run.probe = startup_probe(run)
        (run_serve if run.wl.serve else run_cli)(run, load_synth())
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    env = environment()
    print(f"workload {run.name}  seed {run.seed}  seconds {run.seconds:g}  "
          f"trace {int(run.trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    e2e, notes = end_to_end(run)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print_table("end-to-end" + (" (traced and untraced operations alternate; "
                                "medians use the untraced ones)" if run.trace else ""),
                [(k, e2e[k], units.get(k, ""), notes.get(k, "")) for k in
                 [m["name"] for m in spec["end_to_end"]] if k in e2e])
    print(f"  error_rate {run.failed / max(run.attempted, 1):g} "
          f"({run.failed} failed of {run.attempted} attempted)")
    for error in run.errors[:10]:
        print(f"  failure: {error}")

    if run.trace:
        layers = per_layer(run)
        ops = traced_ops(run)
        print(f"per-layer self time over {ops} traced operations "
              f"(set-up spans included)")
        print(f"  {'span':<28}{'self s':>10}{'per op s':>12}{'calls':>9}")
        for name, self_s, calls in tracing.layer_table(run.spans):
            print(f"  {name:<28}{self_s:>10.4f}{self_s / max(ops, 1):>12.6f}{calls:>9}")
        if "trace.overhead_ms" in layers:
            print(f"tracing overhead: traced minus untraced operation median = "
                  f"{layers['trace.overhead_ms']:.2f} ms per operation")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{run.name}-seed{run.seed}.jsonl"
        run.tracer.spans = run.spans
        run.tracer.write(str(trace_path), header={"env": env, "workload": run.name,
                                                  "seed": run.seed})
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], e2e

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"  not measured (reported as 0): {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": run.failed == 0 and not missing, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
