#!/usr/bin/env python3
"""Self-test of the benchmark harness (not part of the pytest suite).

Usage, from the repository root:  python3 bench/selftest.py

1. A minimal-length run (--seconds 1) of every workload, untraced and
   traced, prints a result whose metrics are exactly the BENCHMARK.json
   metrics of that mode, each with its unit, and no failed operation.
2. An evaluate fed a truncated model.json is counted as one failed
   operation; the harness itself does not raise.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402


def check_minimal_runs(spec: dict) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            units = {m["name"]: m["unit"] for m in wanted}
            got = result["metrics"]
            if set(got) != set(units):
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(units))}")
            for name, unit in units.items():
                entry = got.get(name, {})
                if entry.get("unit") != unit or not math.isfinite(entry.get("value", math.nan)):
                    problems.append(f"{label}: {name} = {entry}")
            print(f"ok   {label}: {result['attempted']} attempted, {len(got)} metrics")
    return problems


def check_truncated_model() -> list[str]:
    bench = run.Run("paper-cli", seed=7, seconds=1, trace=False)
    bench.work.mkdir(parents=True)
    try:
        bench.probe = run.startup_probe(bench)
        synth = run.load_synth()
        (job, *_) = run.make_jobs(bench.seed, bench.wl, bench.work)
        synth.write_csv(job.csv, n=bench.wl.rows, seed=job.data_seed)
        out = bench.work / "op0"
        steps = run.pipeline_steps(bench, job, out)
        _, problems = run.run_steps(bench, steps[:1], "train", traced=False)
        if problems:
            return [f"truncated-model test could not train: {problems}"]
        model = out / "model.json"
        model.write_bytes(model.read_bytes()[: model.stat().st_size // 2])
        ok = run.cli_operation(bench, steps[1:], out, synth.COLUMNS, False, None)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if ok or (bench.attempted, bench.failed) != (1, 1):
        return [f"truncated model.json: attempted {bench.attempted}, failed {bench.failed}"]
    print(f"ok   truncated model.json counted as a failed operation: {bench.errors[0]}")
    return []


def main() -> int:
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    problems = check_truncated_model() + check_minimal_runs(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
