import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from synth import write_csv
from thyrec.data import DataError, Feature, FeatureSchema, Scaler, stratified_split
from thyrec.metrics import ConfusionMatrix, compute_metrics
from thyrec.neural import TrainConfig, init_mlp, predict_proba
from thyrec.cli import main as cli_main
from thyrec.persist import (ArtifactError, ModelArtifact, SplitInfo, fit, load_for_data,
                            load_model, save_model)


def make_artifact(seed=0, d=4):
    schema = FeatureSchema(
        tuple([Feature("Age", "numeric")]
              + [Feature(f"c{j}", "categorical", ("a", "b", "c")) for j in range(d - 1)]),
        "Recurred", ("No", "Yes"))
    rng = np.random.default_rng(seed)
    scaler = Scaler(means=rng.normal(size=d), stds=np.abs(rng.normal(size=d)) + 0.5)
    return ModelArtifact(
        schema=schema,
        scaler=scaler,
        mlp=init_mlp(d, [5, 3], seed=seed),
        # every field away from its default, so a field dropped on save or
        # load cannot pass the round trip unnoticed
        train_config=TrainConfig(learning_rate=0.01, beta1=0.8, beta2=0.99, epsilon=1e-7,
                                 epochs=20, batch_size=16, dropout=0.25,
                                 validation_fraction=0.1,
                                 validation_source="test-as-paper", seed=seed + 40),
        final_metrics={"train": ConfusionMatrix(tp=60, fp=2, tn=240, fn=4),
                       "test": ConfusionMatrix(tp=16, fp=0, tn=58, fn=3)},
        split=SplitInfo(seed=seed, ratio=0.8, stratified=False, indices_digest="d" * 64),
    )


# A final_metrics entry whose counts include a negative one, stored with the
# metrics computed from them: accuracy 4/4, and sensitivity and PPV undefined
# because their denominators are -1.
NEGATIVE_COUNT = {"confusion": {"tp": -1, "fp": 0, "tn": 5, "fn": 0},
                  "metrics": {"accuracy": 1.0, "sensitivity": None, "specificity": 1.0,
                              "ppv": None, "npv": 1.0}}


def two_outputs(layer: dict) -> dict:
    """The output layer with its one unit doubled: each weight and the bias twice."""
    return {**layer, "d_out": 2, "weights": [v for w in layer["weights"] for v in (w, w)],
            "bias": layer["bias"] * 2}


def no_outputs(layer: dict) -> dict:
    return {**layer, "d_out": 0, "weights": [], "bias": []}


def empty_first_hidden(layers: list) -> list:
    """The layers with a first hidden layer of width 0, still chained."""
    first, second, *rest = layers
    return [no_outputs(first), {**second, "d_in": 0, "weights": []}, *rest]


def mutate(raw: dict, keys: tuple, value) -> None:
    """Set raw[keys[0]][keys[1]]... to value, or to value(old) when value
    is a function."""
    *head, last = keys
    for key in head:
        raw = raw[key]
    raw[last] = value(raw[last]) if callable(value) else value


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        artifact = make_artifact()
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(artifact, str(p1))
        save_model(load_model(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_predictions_bit_exact(self, tmp_path):
        artifact = make_artifact(seed=3)
        path = tmp_path / "m.json"
        save_model(artifact, str(path))
        loaded = load_model(str(path))
        X = np.random.default_rng(7).normal(size=(100, 4))
        assert np.array_equal(predict_proba(artifact.mlp, X),
                              predict_proba(loaded.mlp, X))

    def test_everything_survives(self, tmp_path):
        artifact = make_artifact(seed=1)
        path = tmp_path / "m.json"
        save_model(artifact, str(path))
        loaded = load_model(str(path))
        assert all(getattr(artifact.train_config, f.name) != f.default
                   for f in fields(TrainConfig))
        assert loaded.schema == artifact.schema
        assert loaded.train_config == artifact.train_config
        assert loaded.split == artifact.split
        assert np.array_equal(loaded.scaler.means, artifact.scaler.means)
        assert loaded.final_metrics == artifact.final_metrics
        raw = json.loads(path.read_text())
        assert raw["final_metrics"]["test"]["metrics"] == \
            compute_metrics(artifact.final_metrics["test"]).as_dict()
        assert loaded.mlp.dropout_rates == artifact.mlp.dropout_rates

    def test_undefined_metric_survives_as_none(self, tmp_path):
        artifact = make_artifact()
        artifact.final_metrics["test"] = ConfusionMatrix(tp=0, fp=0, tn=10, fn=0)
        path = tmp_path / "m.json"
        save_model(artifact, str(path))
        assert json.loads(path.read_text())["final_metrics"]["test"]["metrics"][
            "sensitivity"] is None
        loaded = load_model(str(path)).final_metrics["test"]
        assert compute_metrics(loaded).sensitivity is None


class TestErrors:
    def test_truncated_file(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(make_artifact(), str(path))
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_model(str(path))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_model(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(make_artifact(), str(path))
        raw = json.loads(path.read_text())
        raw["format_version"] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactError, match=re.escape("format_version 99 not supported")):
            load_model(str(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(make_artifact(), str(path))
        raw = json.loads(path.read_text())
        del raw["scaler"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactError, match="missing field artifact.scaler"):
            load_model(str(path))

    def test_shape_length_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(make_artifact(), str(path))
        raw = json.loads(path.read_text())
        raw["layers"][0]["weights"] = raw["layers"][0]["weights"][:-1]
        path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactError, match="layer 0: declared shape does not match"):
            load_model(str(path))

    def test_non_chaining_layers(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(make_artifact(), str(path))
        raw = json.loads(path.read_text())
        layer = raw["layers"][1]
        layer["d_in"] = 7
        layer["weights"] = [0.0] * (7 * layer["d_out"])
        path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactError, match="layer 1: dimensions do not chain"):
            load_model(str(path))

    @pytest.mark.parametrize("keys, value, message", [
        (("train_config", "dropout"), 1.5, "dropout must be in [0, 1)"),
        (("train_config", "batch_size"), "32", "train_config.batch_size must be int, not '32'"),
        (("train_config", "epochs"), 0, "epochs must be >= 1"),
        (("layers", 0, "weights", 0), "x", "layer 0.weights must hold numbers only"),
        (("layers", 1, "weights", 2), float("nan"), "layer 1.weights holds a non-finite value"),
        (("layers", 2, "bias", 0), float("inf"), "layer 2.bias holds a non-finite value"),
        (("schema", "features", 1, "vocab"), [],
         "feature 'c0': a categorical feature needs a vocab"),
        (("scaler", "means", 0), float("nan"), "scaler.means holds a non-finite value"),
        (("scaler",), {"means": [0.0], "stds": [1.0]},
         "scaler means/stds need one entry per feature (4)"),
        (("scaler", "stds", 0), 0.0, "scaler stds must be > 0"),
        (("scaler", "stds", 1), -1.0, "scaler stds must be > 0"),
        (("dropout_rates",), [0.5], "1 dropout rates for 2 hidden layers"),
        (("layers", 2, "activation"), "relu", "layer 2: activation 'relu', expected 'sigmoid'"),
        (("schema", "target_vocab"), ["No", "No"],
         "target vocab must be 2 strings in ascending order"),
        (("split", "ratio"), 2.0, "split ratio must be in (0, 1)"),
        (("split", "seed"), "x", "split.seed must be int, not 'x'"),
        (("final_metrics",), [], "artifact.final_metrics must be dict, not []"),
        (("train_config", "seed"), "x", "train_config.seed must be int, not 'x'"),
        (("train_config", "epochs"), True, "train_config.epochs must be int, not True"),
        (("train_config", "validation_source"), 3,
         "train_config.validation_source must be str, not 3"),
        (("final_metrics", "test", "confusion", "tp"), "7", "confusion.tp must be int, not '7'"),
        (("final_metrics", "test", "metrics", "accuracy"), "high",
         "metrics.accuracy must be float | None, not 'high'"),
        (("dropout_rates", 0), "0.5", "artifact.dropout_rates must hold numbers only"),
        (("layers", 0, "weights", 5), True, "layer 0.weights must hold numbers only"),
        (("schema", "features", 0, "vocab"), ["a", "b"],
         "feature 'Age': a categorical feature needs a vocab and a numeric one takes none"),
        (("split", "stratified"), "no", "split.stratified must be bool, not 'no'"),
        (("schema", "target_name"), 7, "target name must be a string"),
        (("schema", "target_vocab"), ["Yes", "No"],
         "target vocab must be 2 strings in ascending order"),
        (("schema", "features", 1, "vocab"), ["c", "b", "a"],
         "feature 'c0': vocab must be strictly ascending"),
        (("schema", "features", 1, "vocab"), ["a", "b", "c", "a"],
         "feature 'c0': vocab must be strictly ascending"),
        (("train_config", "validation_source"), "foo", "unknown validation_source 'foo'"),
        (("train_config", "beta1"), 1.0, "beta1 and beta2 must be in [0, 1)"),
        (("train_config", "epsilon"), 0.0, "epsilon must be > 0"),
        (("dropout_rates", 0), 1.0, "dropout rates must be in [0, 1), got [1.0, 0.5]"),
        (("dropout_rates", 1), -0.1, "dropout rates must be in [0, 1), got [0.5, -0.1]"),
        (("final_metrics", "test", "confusion", "tp"), 56,
         "final_metrics 'test': stored metrics do not match their confusion counts"),
        (("final_metrics", "test", "metrics", "accuracy"), 0.99,
         "final_metrics 'test': stored metrics do not match their confusion counts"),
        # counts that no prediction yields, with the metrics computed from them
        (("final_metrics", "test"), NEGATIVE_COUNT, "confusion counts must be >= 0"),
        (("layers", -1), two_outputs, "last layer must have exactly one output unit"),
        (("layers", -1), no_outputs, "layer 2: d_in and d_out must be >= 1"),
        (("layers",), empty_first_hidden, "layer 0: d_in and d_out must be >= 1"),
        (("split", "seed"), -1, "split seed must be >= 0"),
        (("train_config", "seed"), -1, "m.json: seed must be >= 0"),
        (("schema", "target_name"), "Age", "feature and target names must be unique"),
    ], ids=["dropout-1.5", "batch-size-string", "epochs-0", "weight-string",
            "weight-nan", "bias-inf", "empty-vocab", "mean-nan", "scaler-length",
            "std-zero", "std-negative", "dropout-rates-short", "relu-output",
            "target-vocab-repeated", "split-ratio-2", "split-seed-string",
            "final-metrics-list", "seed-string", "epochs-bool", "val-source-int",
            "tp-string", "accuracy-string", "dropout-rate-string", "weight-bool",
            "numeric-vocab", "stratified-string", "target-name-int",
            "target-vocab-reversed", "vocab-reversed", "vocab-repeated", "val-source-foo",
            "beta1-1", "epsilon-0", "dropout-rate-1", "dropout-rate-negative",
            "counts-contradict-metrics", "metrics-contradict-counts", "negative-count",
            "two-outputs", "no-outputs", "hidden-width-0", "split-seed-negative",
            "seed-negative", "target-name-is-feature"])
    def test_malformed_value(self, tmp_path, keys, value, message):
        path = tmp_path / "m.json"
        save_model(make_artifact(), str(path))
        raw = json.loads(path.read_text())
        mutate(raw, keys, value)
        path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactError, match=re.escape(message)):
            load_model(str(path))


def _leaves(node, path=()):
    """Yield the path of every scalar in a parsed JSON document."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _kind(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


class TestFuzz:
    """Every scalar of a saved artifact swapped for a value of another JSON
    type must be refused; only null in a metric is valid (undefined)."""

    def cases(self, raw, rng):
        leaves = list(_leaves(raw))
        in_arrays = [p for p in leaves if isinstance(p[-1], int)]
        sample = rng.choice(len(in_arrays), size=16, replace=False)
        chosen = [p for p in leaves if not isinstance(p[-1], int)]
        chosen += [in_arrays[i] for i in sorted(sample)]
        for path in chosen:
            value = raw
            for key in path:
                value = value[key]
            swaps = [None, bool(rng.integers(2)), int(rng.integers(3)), str(value),
                     [value], {"v": value}]
            undefined_metric = path[2:3] == ("metrics",)
            for swap in swaps:
                if _kind(swap) != _kind(value) and not (swap is None and undefined_metric):
                    yield path, swap

    def test_wrong_json_type_refused(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_model(make_artifact(), str(path))
        text = path.read_text()
        rng = np.random.default_rng(2024)
        cases = list(self.cases(json.loads(text), rng))
        assert len(cases) > 250
        accepted = []
        for keys, swap in cases:
            raw = json.loads(text)
            mutate(raw, keys, swap)
            path.write_text(json.dumps(raw))
            try:
                load_model(str(path))
            except ArtifactError:
                continue
            accepted.append((keys, swap))
        assert accepted == []
        for i in rng.choice(len(cases), size=4, replace=False):
            raw = json.loads(text)
            mutate(raw, *cases[i])
            path.write_text(json.dumps(raw))
            capsys.readouterr()
            assert cli_main(["evaluate", "--model", str(path),
                             "--data", str(tmp_path / "unread.csv")]) == 4
            assert len(capsys.readouterr().err.splitlines()) == 1


class TestLoadForData:
    """A saved model and its table give back the scaled rows and, through
    ModelArtifact.recover_split, the split the model was trained with."""

    @pytest.fixture(scope="class")
    def stratified(self, tmp_path_factory) -> Path:
        path = tmp_path_factory.mktemp("stratified")
        write_csv(path / "table.csv", n=120, seed=5)
        assert cli_main(["train", "--data", str(path / "table.csv"), "--out", str(path),
                         "--seed", "3", "--epochs", "2", "--stratify"]) == 0
        return path

    def test_recovers_the_stratified_split(self, stratified):
        artifact, X, y = load_for_data(str(stratified / "model.json"),
                                       str(stratified / "table.csv"))
        assert X.shape == (120, len(artifact.schema.features)) and y.shape == (120,)
        idx, expected = artifact.recover_split(y), stratified_split(y, 0.8, 3)
        assert np.array_equal(idx.train, expected.train)
        assert np.array_equal(idx.test, expected.test)

    def test_reordered_table_does_not_reproduce_the_split(self, stratified, tmp_path):
        """The same rows in reverse order: a uniform split depends only on the
        row count, but a stratified one moves with the labels."""
        header, *rows = (stratified / "table.csv").read_text().splitlines(keepends=True)
        (tmp_path / "other.csv").write_text("".join([header, *reversed(rows)]))
        artifact, _, y = load_for_data(str(stratified / "model.json"),
                                       str(tmp_path / "other.csv"))
        with pytest.raises(DataError, match="does not reproduce the split"):
            artifact.recover_split(y)


@pytest.mark.parametrize("seed, stratify, epochs, val_source", [
    (1, False, TrainConfig.epochs, TrainConfig.validation_source),
    (7, False, TrainConfig.epochs, TrainConfig.validation_source),
    (1, True, 20, "test-as-paper")],
    ids=["seed1", "seed7", "stratified-test-as-paper"])
def test_fit_is_the_model_train_writes(recurrence_source, tmp_path, seed, stratify, epochs,
                                       val_source):
    """`thyrec train` writes the artifact `fit` returns, byte for byte."""
    csv = str(recurrence_source.path)
    assert cli_main(["train", "--data", csv, "--seed", str(seed), "--epochs", str(epochs),
                     "--val-source", val_source, "--out", str(tmp_path),
                     *(["--stratify"] if stratify else [])]) == 0
    config = TrainConfig(seed=seed, epochs=epochs, validation_source=val_source)
    save_model(fit(csv, config, stratify)[0], str(tmp_path / "fit.json"))
    assert (tmp_path / "fit.json").read_bytes() == (tmp_path / "model.json").read_bytes()
