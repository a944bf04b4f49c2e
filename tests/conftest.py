import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from synth import write_csv
from thyrec.data import apply_scaler, label_encode, load_csv
from thyrec.metrics import compute_metrics
from thyrec.neural import TrainConfig
from thyrec.persist import fit


@dataclass
class RecurrenceSource:
    path: Path
    is_real: bool

    @property
    def label(self) -> str:
        return "UCI file" if self.is_real else "synthetic stand-in"


@pytest.fixture(scope="session")
def recurrence_source(tmp_path_factory) -> RecurrenceSource:
    """The real UCI recurrence CSV when available (THYREC_DATA env var or
    data/Thyroid_Diff.csv), otherwise a deterministic synthetic stand-in
    with the same schema and size."""
    candidates = []
    if os.environ.get("THYREC_DATA"):
        candidates.append(Path(os.environ["THYREC_DATA"]))
    candidates.append(Path(__file__).resolve().parents[1] / "data" / "Thyroid_Diff.csv")
    for candidate in candidates:
        if candidate.is_file():
            return RecurrenceSource(candidate, True)
    path = tmp_path_factory.mktemp("data") / "recurrence.csv"
    write_csv(path)
    return RecurrenceSource(path, False)


@dataclass
class TrainedRun:
    seed: int
    mlp: object
    schema: object
    X_train: np.ndarray
    test_metrics: object


@dataclass
class TrainedSweep:
    runs: list
    elapsed: float
    source: RecurrenceSource


@pytest.fixture(scope="session")
def trained_sweep(recurrence_source) -> TrainedSweep:
    """Default-config models over seeds 1..5, each trained by `fit` as
    `thyrec train --seed s` trains it, shared by the end-to-end acceptance
    criteria."""
    path = str(recurrence_source.path)
    encoded = label_encode(load_csv(path))
    runs = []
    started = time.perf_counter()
    for seed in range(1, 6):
        artifact, _ = fit(path, TrainConfig(seed=seed))
        rows = artifact.recover_split(encoded.y).train
        runs.append(TrainedRun(seed=seed, mlp=artifact.mlp, schema=artifact.schema,
                               X_train=apply_scaler(artifact.scaler, encoded.X[rows]),
                               test_metrics=compute_metrics(artifact.final_metrics["test"])))
    return TrainedSweep(runs=runs, elapsed=time.perf_counter() - started,
                        source=recurrence_source)
