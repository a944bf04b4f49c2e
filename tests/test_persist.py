import json
from dataclasses import fields

import numpy as np
import pytest

from thyrec.data import Feature, FeatureSchema, Scaler
from thyrec.metrics import ConfusionMatrix, compute_metrics
from thyrec.neural import TrainConfig, init_mlp, predict_proba
from thyrec.cli import main as cli_main
from thyrec.persist import (ArtifactError, CorruptArtifactError, MissingFieldError,
                            ModelArtifact, SplitInfo, UnsupportedVersionError, load_model,
                            save_model)


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


def mutate(raw: dict, keys: tuple, value) -> None:
    """Set raw[keys[0]][keys[1]]... to value."""
    *head, last = keys
    for key in head:
        raw = raw[key]
    raw[last] = value


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
        with pytest.raises(CorruptArtifactError):
            load_model(str(path))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(CorruptArtifactError):
            load_model(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(make_artifact(), str(path))
        raw = json.loads(path.read_text())
        raw["format_version"] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(UnsupportedVersionError):
            load_model(str(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(make_artifact(), str(path))
        raw = json.loads(path.read_text())
        del raw["scaler"]
        path.write_text(json.dumps(raw))
        with pytest.raises(MissingFieldError):
            load_model(str(path))

    def test_shape_length_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(make_artifact(), str(path))
        raw = json.loads(path.read_text())
        raw["layers"][0]["weights"] = raw["layers"][0]["weights"][:-1]
        path.write_text(json.dumps(raw))
        with pytest.raises(CorruptArtifactError):
            load_model(str(path))

    def test_non_chaining_layers(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(make_artifact(), str(path))
        raw = json.loads(path.read_text())
        layer = raw["layers"][1]
        layer["d_in"] = 7
        layer["weights"] = [0.0] * (7 * layer["d_out"])
        path.write_text(json.dumps(raw))
        with pytest.raises(CorruptArtifactError):
            load_model(str(path))

    @pytest.mark.parametrize("keys, value", [
        (("train_config", "dropout"), 1.5),
        (("train_config", "batch_size"), "32"),
        (("train_config", "epochs"), 0),
        (("layers", 0, "weights", 0), "x"),
        (("layers", 1, "weights", 2), float("nan")),
        (("layers", 2, "bias", 0), float("inf")),
        (("schema", "features", 1, "vocab"), []),
        (("scaler", "means", 0), float("nan")),
        (("scaler",), {"means": [0.0], "stds": [1.0]}),
        (("scaler", "stds", 0), 0.0),
        (("scaler", "stds", 1), -1.0),
        (("dropout_rates",), [0.5]),
        (("layers", 2, "activation"), "relu"),
        (("schema", "target_vocab"), ["No", "No"]),
        (("split", "ratio"), 2.0),
        (("split", "seed"), "x"),
        (("final_metrics",), []),
        (("train_config", "seed"), "x"),
        (("train_config", "epochs"), True),
        (("train_config", "validation_source"), 3),
        (("final_metrics", "test", "confusion", "tp"), "7"),
        (("final_metrics", "test", "metrics", "accuracy"), "high"),
        (("dropout_rates", 0), "0.5"),
        (("layers", 0, "weights", 5), True),
        (("schema", "features", 0, "vocab"), ["a", "b"]),
        (("split", "stratified"), "no"),
        (("schema", "target_name"), 7),
        (("schema", "target_vocab"), ["Yes", "No"]),
        (("schema", "features", 1, "vocab"), ["c", "b", "a"]),
        (("schema", "features", 1, "vocab"), ["a", "b", "c", "a"]),
        (("train_config", "validation_source"), "foo"),
        (("train_config", "beta1"), 1.0),
        (("train_config", "epsilon"), 0.0),
        (("dropout_rates", 0), 1.0),
        (("dropout_rates", 1), -0.1),
        (("final_metrics", "test", "confusion", "tp"), 56),
        (("final_metrics", "test", "metrics", "accuracy"), 0.99),
    ], ids=["dropout-1.5", "batch-size-string", "epochs-0", "weight-string",
            "weight-nan", "bias-inf", "empty-vocab", "mean-nan", "scaler-length",
            "std-zero", "std-negative", "dropout-rates-short", "relu-output",
            "target-vocab-repeated", "split-ratio-2", "split-seed-string",
            "final-metrics-list", "seed-string", "epochs-bool", "val-source-int",
            "tp-string", "accuracy-string", "dropout-rate-string", "weight-bool",
            "numeric-vocab", "stratified-string", "target-name-int",
            "target-vocab-reversed", "vocab-reversed", "vocab-repeated", "val-source-foo",
            "beta1-1", "epsilon-0", "dropout-rate-1", "dropout-rate-negative",
            "counts-contradict-metrics", "metrics-contradict-counts"])
    def test_malformed_value(self, tmp_path, keys, value):
        path = tmp_path / "m.json"
        save_model(make_artifact(), str(path))
        raw = json.loads(path.read_text())
        mutate(raw, keys, value)
        path.write_text(json.dumps(raw))
        with pytest.raises(CorruptArtifactError):
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
