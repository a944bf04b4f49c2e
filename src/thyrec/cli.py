"""Command-line pipeline: train, evaluate, explain, sensitivity.

Every command is a deterministic function of (inputs, flags, seed); emitted
files carry no timestamps or environment state, so identical invocations
produce byte-identical outputs. Wall-clock timing goes to stdout only.

Exit codes: 0 success, 2 invalid flag or unwritable --out, 3 data error,
4 artifact error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .data import DataError
from .lime import LimeConfig, explain
from .metrics import ConfusionMatrix, compute_metrics, confusion
from .morris import MorrisConfig, analyze
from .neural import (TrainConfig, VAL_FROM_TEST_AS_PAPER, VAL_FROM_TRAIN, predict_label,
                     predict_proba)
from .persist import ArtifactError, eval_to_dict, fit, load_for_data, save_model

HISTORY_HEADER = ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"]
REPORT_DECIMALS = 4


def _cell(value) -> str:
    """A CSV cell: names always quoted with embedded quotes doubled, ints as
    written, floats in their shortest round-trip decimal representation."""
    if isinstance(value, str):
        return '"' + value.replace('"', '""') + '"'
    return str(value) if isinstance(value, int) else repr(float(value))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    _write(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _metric_cell(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _print_metrics_table(results: dict[str, ConfusionMatrix]) -> None:
    columns = {n: compute_metrics(cm).as_dict() for n, cm in results.items()}
    print(f"{'metric':<14}" + "".join(f"{n:>12}" for n in columns))
    for metric in next(iter(columns.values())):
        row = "".join(f"{_metric_cell(col[metric]):>12}" for col in columns.values())
        print(f"{metric:<14}{row}")
    for n, cm in results.items():
        counts = " ".join(f"{k}={v}" for k, v in asdict(cm).items())
        print(f"confusion[{n}]  {counts}")


def _report_dict(results: dict[str, ConfusionMatrix]) -> dict:
    return {name: eval_to_dict(cm, REPORT_DECIMALS) for name, cm in results.items()}


def cmd_train(args) -> int:
    started = time.perf_counter()
    config = TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                         batch_size=args.batch_size, dropout=args.dropout,
                         validation_source=args.val_source, seed=args.seed)
    artifact, history = fit(args.data, config, args.stratify)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(artifact, str(out / "model.json"))
    _write_csv(out / "history.csv", HISTORY_HEADER,
               zip(range(1, len(history) + 1), history.train_loss,
                   history.train_accuracy, history.val_loss, history.val_accuracy))
    _write_json(out / "train_report.json", _report_dict(artifact.final_metrics))

    _print_metrics_table(artifact.final_metrics)
    print(f"model written to {out / 'model.json'} "
          f"({time.perf_counter() - started:.2f}s)")
    return 0


def cmd_evaluate(args) -> int:
    artifact, X, y = load_for_data(args.model, args.data)
    if args.partition != "all":
        idx = artifact.recover_split(y)
        rows = idx.train if args.partition == "train" else idx.test
        X, y = X[rows], y[rows]
    result = confusion(y, predict_label(artifact.mlp, X))
    _print_metrics_table({args.partition: result})
    if args.out is not None:
        _write_json(Path(args.out) / "eval_report.json",
                    _report_dict({args.partition: result}))
    return 0


def cmd_explain(args) -> int:
    artifact, X, y = load_for_data(args.model, args.data)
    if not 0 <= args.index < len(y):
        raise DataError(f"index {args.index} out of range for {len(y)} rows")
    idx = artifact.recover_split(y)

    config = LimeConfig(num_samples=args.num_samples, kernel_width=args.kernel_width,
                        num_features=args.num_features, seed=args.seed)
    result = explain(lambda Z: predict_proba(artifact.mlp, Z), X[args.index], X[idx.train],
                     config, schema=artifact.schema, scaler=artifact.scaler,
                     instance_index=args.index)

    out = Path(args.out)
    _write_json(out / "explanation.json", result.as_dict())
    _write_csv(out / "explanation_bars.csv", ["feature", "weight"], result.feature_weights)

    p0, p1 = result.class_probabilities
    print(f"row {args.index}: P(no recurrence)={p0:.4f} P(recurrence)={p1:.4f} "
          f"local_r2={result.local_r2:.4f}")
    for feature, weight in result.feature_weights:
        print(f"  {weight:+.4f}  {feature}")
    return 0


def cmd_sensitivity(args) -> int:
    artifact, X, y = load_for_data(args.model, args.data)
    idx = artifact.recover_split(y)

    config = MorrisConfig(levels=args.levels, trajectories=args.trajectories,
                          seed=args.seed)
    result = analyze(lambda Z: predict_proba(artifact.mlp, Z), X[idx.train], config,
                     feature_names=artifact.schema.feature_names)

    out = Path(args.out)
    _write_csv(out / "sensitivity.csv", ["feature", "mu", "mu_star", "sigma"],
               zip(result.feature_names, result.mu, result.mu_star, result.sigma))
    _write_csv(out / "sensitivity_scatter.csv", ["feature", "mu_star", "sigma"],
               zip(result.feature_names, result.mu_star, result.sigma))
    _write_json(out / "sensitivity.json", {
        "features": [{"name": name, "mu": result.mu[j], "mu_star": result.mu_star[j],
                      "sigma": result.sigma[j], "degenerate": bool(result.degenerate[j])}
                     for j, name in enumerate(result.feature_names)],
        "model_evals": result.model_evals,
        "ranking": result.ranking,
    })

    print(f"{'feature':<22}{'mu':>12}{'mu_star':>12}{'sigma':>12}")
    for name in result.ranking:
        j = result.feature_names.index(name)
        print(f"{name:<22}{result.mu[j]:>12.4f}{result.mu_star[j]:>12.4f}"
              f"{result.sigma[j]:>12.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thyrec",
        description="Thyroid cancer recurrence classifier: training, clinical "
                    "metrics, local explanations and global sensitivity analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=False, out_default="out", seed=True):
        p.add_argument("--data", required=True, help="input CSV (last column = target)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=out_default, help="output directory")
        if model:
            p.add_argument("--model", required=True, help="trained model artifact")

    p = sub.add_parser("train", help="train a classifier and write the artifact")
    common(p)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--dropout", type=float, default=TrainConfig.dropout)
    p.add_argument("--val-source", choices=[VAL_FROM_TRAIN, VAL_FROM_TEST_AS_PAPER],
                   default=TrainConfig.validation_source)
    p.add_argument("--stratify", action="store_true",
                   help="stratify the train/test split by class")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="recompute metrics for a partition")
    common(p, model=True, out_default=None, seed=False)
    p.add_argument("--partition", choices=["train", "test", "all"], default="test")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="LIME-style explanation for one row")
    common(p, model=True)
    p.add_argument("--index", type=int, required=True, help="0-based data row")
    p.add_argument("--num-samples", type=int, default=LimeConfig.num_samples)
    p.add_argument("--kernel-width", type=float, default=LimeConfig.kernel_width)
    p.add_argument("--num-features", type=int, default=LimeConfig.num_features)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("sensitivity", help="Morris elementary-effects screening")
    common(p, model=True)
    p.add_argument("--trajectories", type=int, default=MorrisConfig.trajectories)
    p.add_argument("--levels", type=int, default=MorrisConfig.levels)
    p.set_defaults(func=cmd_sensitivity)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:    # a flag, or writing under --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:              # a size flag too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
