"""Median latency and minor page faults of a served explain/screen mix.

Usage: python scripts/request_faults.py --model MODEL.json --data TABLE.csv
           [--seed 0] [--warmup 5] [--rounds 3] [--mixes 50]

Trains nothing. Loads a trained model and the CSV it was trained on, then
serves request mixes in this one process, as a long-lived server would: each
mix is 4 LIME explanations (default LimeConfig, a seeded random row each) and
1 Morris screen (default MorrisConfig) of the training rows. After --warmup
untimed mixes it runs --rounds rounds of --mixes mixes and prints one JSON
object: the median wall time and the median minor page faults per request
kind over all timed requests, and per round the minor page faults per mix
and per request of each kind. Faults are read from
resource.getrusage(RUSAGE_SELF).ru_minflt around each request and each
round, so a change that moves faults from one kind to the other shows.

Fault counts depend on the C library's allocator (glibc's dynamic mmap and
trim thresholds) and on the BLAS build and its thread count
(OPENBLAS_NUM_THREADS), so compare two commits only on one machine with the
same environment. Linux and other Unix systems only (the resource module).

Its latencies are no proxy for bench/run.py's explain-serve workload: with
LIME's and Morris's per-thread buffers replaced by fresh arrays on every
request, explain-serve's explain p50 rose from 4.5 to 5.4 ms, while this
script read 8.23/8.26 ms against 8.23/8.08 ms and about 0 faults per mix on
both. Take latency claims from bench/run.py; use this script for faults.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from thyrec import lime, morris  # noqa: E402
from thyrec.neural import predict_proba  # noqa: E402
from thyrec.persist import load_for_data  # noqa: E402

EXPLAINS_PER_SCREEN = 4


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True, help="trained model.json")
    parser.add_argument("--data", required=True, help="the CSV the model was trained on")
    parser.add_argument("--seed", type=int, default=0, help="seed of rows and request seeds")
    parser.add_argument("--warmup", type=int, default=5, help="untimed mixes first")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--mixes", type=int, default=50, help="mixes per round")
    args = parser.parse_args()
    if args.warmup < 0 or args.rounds < 1 or args.mixes < 1:
        parser.error("need --warmup >= 0, --rounds >= 1 and --mixes >= 1")

    artifact, X_all, y = load_for_data(args.model, args.data)
    X_train = X_all[artifact.recover_split(y).train]
    rng = random.Random(args.seed)
    times: dict[str, list[float]] = {"explain": [], "screen": []}
    faults: dict[str, list[int]] = {"explain": [], "screen": []}

    def predict(X):
        return predict_proba(artifact.mlp, X)

    def mix(timed: bool) -> None:
        for kind in ["explain"] * EXPLAINS_PER_SCREEN + ["screen"]:
            seed = rng.randrange(2**31)
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            if kind == "explain":
                row = rng.randrange(len(X_all))
                lime.explain(predict, X_all[row], X_train, lime.LimeConfig(seed=seed),
                             schema=artifact.schema, scaler=artifact.scaler,
                             instance_index=row)
            else:
                morris.analyze(predict, X_train, morris.MorrisConfig(seed=seed),
                               feature_names=artifact.schema.feature_names)
            if timed:
                times[kind].append(time.perf_counter() - start)
                faults[kind].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                                    - minflt)

    for _ in range(args.warmup):
        mix(timed=False)
    per_round: dict[str, list[float]] = {"mix": [], "explain": [], "screen": []}
    for _ in range(args.rounds):
        first = {kind: len(faults[kind]) for kind in faults}
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(args.mixes):
            mix(timed=True)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        per_round["mix"].append(round((after - before) / args.mixes, 2))
        for kind in faults:
            per_round[kind].append(round(statistics.fmean(faults[kind][first[kind]:]), 2))

    print(json.dumps({
        "model": args.model, "data": args.data, "seed": args.seed,
        "rounds": args.rounds, "mixes_per_round": args.mixes,
        "explain_p50_ms": round(statistics.median(times["explain"]) * 1e3, 4),
        "screen_p50_ms": round(statistics.median(times["screen"]) * 1e3, 4),
        "explain_minor_faults_p50": statistics.median(faults["explain"]),
        "screen_minor_faults_p50": statistics.median(faults["screen"]),
        "minor_faults_per_mix": per_round["mix"],
        "minor_faults_per_explain": per_round["explain"],
        "minor_faults_per_screen": per_round["screen"],
    }, indent=1))


if __name__ == "__main__":
    main()
