"""Acceptance gate: every criterion exercised at its stated tolerance,
printing one pass/fail line per criterion.

Criteria tied to the published dataset run against the real UCI file when it
is available (THYREC_DATA env var or data/Thyroid_Diff.csv); otherwise they
run on the deterministic synthetic stand-in and the printed line says so.
"""

import time
import warnings

import numpy as np
import pytest

from test_neural import (analytic_gradients, draw_safe_case, max_relative_error,
                         numeric_gradients)
from thyrec.cli import main
from thyrec.data import apply_scaler, fit_scaler, label_encode, load_csv, split
from thyrec.lime import LimeConfig, explain
from thyrec.metrics import ConfusionMatrix, compute_metrics
from thyrec.morris import (FeatureRanges, MorrisConfig, aggregate, analyze,
                           elementary_effects, generate_trajectories)
from thyrec.neural import TrainConfig, adam_step, init_adam, predict_proba
from thyrec.persist import load_model


def report(num: int, ok: bool, detail: str, soft: bool = False):
    status = "PASS" if ok else ("SOFT FAIL" if soft else "FAIL")
    line = f"[criterion {num}] {status}: {detail}"
    print(line)
    if not ok and soft:
        warnings.warn(line)
    elif not ok:
        pytest.fail(line)


def test_criterion_1_metric_identity():
    cm = ConfusionMatrix(tp=16, fp=0, tn=58, fn=3)
    started = time.perf_counter()
    m = compute_metrics(cm)
    elapsed = time.perf_counter() - started
    values = (round(m.sensitivity, 3), round(m.specificity, 3),
              round(m.ppv, 3), round(m.npv, 3), round(m.accuracy, 3))
    ok = values == (0.842, 1.0, 1.0, 0.951, 0.961) and elapsed < 1e-3
    report(1, ok, f"confusion (16,0,58,3) -> sens/spec/ppv/npv/acc = "
                  f"{values} in {elapsed * 1e6:.0f}us")
    # consistency note (not asserted): the published train column implies
    # roughly 89 train positives: (tp,fp,tn,fn) ~ (87,0,217,2) gives
    # sensitivity 0.978 and npv 0.991 on a 306-row training partition.


def test_criterion_2_end_to_end_accuracy(trained_sweep):
    accs = [run.test_metrics.accuracy for run in trained_sweep.runs]
    specs = [run.test_metrics.specificity for run in trained_sweep.runs]
    mean_acc, mean_spec = float(np.mean(accs)), float(np.mean(specs))
    ok = mean_acc >= 0.90 and mean_spec >= 0.95 and trained_sweep.elapsed < 60.0
    source = trained_sweep.source.label
    note = "" if trained_sweep.source.is_real else \
        " (UCI file unavailable in this environment; place it at " \
        "data/Thyroid_Diff.csv to run the criterion as stated)"
    report(2, ok, f"seeds 1..5 on {source}: mean test accuracy {mean_acc:.3f} "
                  f">= 0.90, mean specificity {mean_spec:.3f} >= 0.95, "
                  f"{trained_sweep.elapsed:.1f}s < 60s{note}")


def test_criterion_3_gradient_oracle():
    started = time.perf_counter()
    worst = 0.0
    accepted = 0
    attempt = 0
    while accepted < 20:
        case = draw_safe_case(attempt)
        attempt += 1
        if case is None:
            continue
        mlp, X, y = case
        err = max_relative_error(analytic_gradients(mlp, X, y),
                                 numeric_gradients(mlp, X, y, h=1e-5))
        worst = max(worst, err)
        accepted += 1
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 5.0
    report(3, ok, f"20 random networks: max relative error vs central "
                  f"finite differences {worst:.2e} < 1e-4, {elapsed:.1f}s < 5s")


def test_criterion_4_adam_first_step():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    grads = np.concatenate([rng.uniform(1e-3, 10.0, size=500),
                            -rng.uniform(1e-3, 10.0, size=500)])
    param = np.zeros(1000)
    config = TrainConfig(seed=0)
    adam_step(param, grads, init_adam(param), config)
    deviation = float(np.max(np.abs(np.abs(param) - config.learning_rate)))
    elapsed = time.perf_counter() - started
    ok = deviation < 1e-6 and elapsed < 1.0
    report(4, ok, f"first-step |update| within {deviation:.1e} of lr=0.001 "
                  f"for 1000 gradients with |g| >= 1e-3, {elapsed * 1e3:.0f}ms < 1s")


def test_criterion_5_lime_linear_fidelity():
    started = time.perf_counter()

    def black_box(X):
        return 1.0 / (1.0 + np.exp(-(3.0 * X[:, 0] - 2.0 * X[:, 1])))

    # standardized training data: each feature takes -1/+1 in equal halves
    col = np.array([-1.0, 1.0]).repeat(200)
    X_train = np.column_stack([col, np.roll(col, 100)])
    instance = np.array([1.0, 1.0])
    worst_r2 = 1.0
    ok = True
    for seed in range(20):
        config = LimeConfig(num_features=2, ridge_lambda=1e-6, seed=seed)
        exp = explain(black_box, instance, X_train, config)
        w1 = next(w for f, w in exp.feature_weights if "f0" in f.split())
        w2 = next(w for f, w in exp.feature_weights if "f1" in f.split())
        worst_r2 = min(worst_r2, exp.local_r2)
        ok = ok and exp.local_r2 > 0.99 and w1 > 0.0 > w2 and abs(w1) > abs(w2)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    report(5, ok, f"sigma(3x1-2x2) surrogate over 20 seeds: min weighted R^2 "
                  f"{worst_r2:.4f} > 0.99, signs w1>0>w2 and |w1|>|w2| all seeds, "
                  f"{elapsed:.1f}s < 10s")


def test_criterion_6_morris_analytic_oracle():
    started = time.perf_counter()
    ranges = FeatureRanges(lo=np.zeros(2), hi=np.ones(2))
    config = MorrisConfig(seed=0)
    trajs = generate_trajectories(2, config, np.random.default_rng(0))
    linear = aggregate(elementary_effects(
        lambda X: 3.0 * X[:, 0] + 0.0 * X[:, 1], trajs, ranges,
        config.effective_delta), ["u1", "u2"])
    exact = (linear.mu_star[0] == 3.0 and linear.mu_star[1] == 0.0
             and bool(np.all(linear.sigma < 1e-9)))
    interaction = aggregate(elementary_effects(
        lambda X: X[:, 0] * X[:, 1], trajs, ranges, config.effective_delta),
        ["u1", "u2"])
    sigmas_positive = interaction.sigma[0] > 0.0 and interaction.sigma[1] > 0.0
    elapsed = time.perf_counter() - started
    ok = exact and sigmas_positive and elapsed < 5.0
    report(6, ok, f"f=3*u1: mu_star = ({linear.mu_star[0]}, {linear.mu_star[1]}) "
                  f"exactly, sigma < 1e-9; f=u1*u2: sigma = "
                  f"({interaction.sigma[0]:.3f}, {interaction.sigma[1]:.3f}) > 0; "
                  f"{elapsed:.2f}s < 5s")


def test_criterion_7_morris_ranking_on_trained_model(trained_sweep):
    started = time.perf_counter()
    names = trained_sweep.runs[0].schema.feature_names
    assert "Response" in names and "Stage" in names
    rank_one = 0
    stage_top4 = 0
    for run in trained_sweep.runs:
        result = analyze(lambda X: predict_proba(run.mlp, X), run.X_train,
                         MorrisConfig(seed=run.seed), feature_names=names)
        rank_one += result.ranking[0] == "Response"
        stage_top4 += "Stage" in result.ranking[:4]
    elapsed = time.perf_counter() - started
    ok = rank_one >= 3 and stage_top4 >= 3 and elapsed < 60.0
    report(7, ok, f"{trained_sweep.source.label}: Response rank 1 in "
                  f"{rank_one}/5 runs (need >=3), Stage in top 4 in "
                  f"{stage_top4}/5 (need >=3), {elapsed:.1f}s < 60s", soft=True)


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_8_determinism_suite(recurrence_source, tmp_path):
    started = time.perf_counter()
    csv = str(recurrence_source.path)
    identical = True
    trees = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert main(["train", "--data", csv, "--out", str(out / "train"),
                     "--seed", "1"]) == 0
        model = str(out / "train" / "model.json")
        assert main(["evaluate", "--model", model, "--data", csv,
                     "--partition", "test", "--out", str(out / "eval")]) == 0
        assert main(["explain", "--model", model, "--data", csv, "--index", "0",
                     "--seed", "1", "--out", str(out / "explain")]) == 0
        assert main(["sensitivity", "--model", model, "--data", csv,
                     "--seed", "1", "--out", str(out / "sens")]) == 0
        trees.append(_tree_bytes(out))
    identical = trees[0] == trees[1]
    file_count = len(trees[0])

    artifact = load_model(str(tmp_path / "first" / "train" / "model.json"))
    reloaded = load_model(str(tmp_path / "first" / "train" / "model.json"))
    X = np.random.default_rng(0).normal(size=(100, len(artifact.schema.features)))
    bit_exact = np.array_equal(predict_proba(artifact.mlp, X),
                               predict_proba(reloaded.mlp, X))
    elapsed = time.perf_counter() - started
    ok = identical and bit_exact and file_count >= 8 and elapsed < 30.0
    report(8, ok, f"all four subcommands byte-identical across reruns "
                  f"({file_count} files compared), save/load predictions "
                  f"bit-exact on 100 random inputs, {elapsed:.1f}s < 30s")


def test_criterion_9_standardization_property(recurrence_source):
    encoded = label_encode(load_csv(str(recurrence_source.path)))
    idx = split(len(encoded.y), 0.8, seed=1)
    started = time.perf_counter()
    scaler = fit_scaler(encoded.X[idx.train])
    scaled = apply_scaler(scaler, encoded.X[idx.train])
    elapsed = time.perf_counter() - started
    raw_std = encoded.X[idx.train].std(axis=0)
    non_constant = raw_std >= 1e-12
    max_mean = float(np.max(np.abs(scaled.mean(axis=0))))
    std_dev = float(np.max(np.abs(scaled.std(axis=0)[non_constant] - 1.0)))
    ok = max_mean < 1e-10 and std_dev < 1e-8 and elapsed < 1.0
    report(9, ok, f"{recurrence_source.label} training partition: max |column "
                  f"mean| {max_mean:.1e} < 1e-10, population stds within "
                  f"{std_dev:.1e} of 1, {elapsed * 1e3:.1f}ms < 1s")
