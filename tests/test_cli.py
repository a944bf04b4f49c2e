import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import thyrec
from synth import generate_rows, write_csv
from test_persist import NEGATIVE_COUNT, empty_first_hidden, mutate, no_outputs, two_outputs
from thyrec import data
from thyrec.cli import build_parser, main
from thyrec.lime import LimeConfig
from thyrec.morris import MorrisConfig
from thyrec.neural import TrainConfig, predict_proba
from thyrec.persist import load_model, save_model


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.csv"
    write_csv(path, n=120, seed=5)
    return str(path)


def run_train(csv, out, seed=1, epochs=3, extra=()):
    code = main(["train", "--data", csv, "--out", str(out), "--seed", str(seed),
                 "--epochs", str(epochs), *extra])
    assert code == 0
    return out / "model.json"


class TestTrain:
    def test_writes_artifact_history_report(self, small_csv, tmp_path):
        model = run_train(small_csv, tmp_path / "run")
        assert model.is_file()
        history = (tmp_path / "run" / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(history) == 4            # header + 3 epochs
        report = json.loads((tmp_path / "run" / "train_report.json").read_text())
        assert set(report) == {"train", "test"}
        assert set(report["test"]["confusion"]) == {"tp", "fp", "tn", "fn"}

    def test_single_epoch_history(self, small_csv, tmp_path):
        run_train(small_csv, tmp_path / "one", epochs=1)
        lines = (tmp_path / "one" / "history.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_emitted_metrics_recomputable_from_confusion(self, small_csv, tmp_path):
        from thyrec.metrics import ConfusionMatrix, compute_metrics
        run_train(small_csv, tmp_path / "r")
        report = json.loads((tmp_path / "r" / "train_report.json").read_text())
        for part in ("train", "test"):
            cm = ConfusionMatrix(**report[part]["confusion"])
            recomputed = compute_metrics(cm).as_dict(decimals=4)
            assert recomputed == report[part]["metrics"]

    def test_byte_identical_reruns(self, small_csv, tmp_path):
        a = run_train(small_csv, tmp_path / "a", seed=7)
        b = run_train(small_csv, tmp_path / "b", seed=7)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a" / "history.csv").read_bytes() == \
            (tmp_path / "b" / "history.csv").read_bytes()

    def test_stratify_and_val_source_flags(self, small_csv, tmp_path):
        run_train(small_csv, tmp_path / "s", extra=["--stratify",
                                                    "--val-source", "test-as-paper"])
        artifact = load_model(str(tmp_path / "s" / "model.json"))
        assert artifact.split.stratified is True
        assert artifact.train_config.validation_source == "test-as-paper"

    def test_missing_data_exits_3(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [b"Age,Recurred\n\xff1,No\n2,Yes\n",
                                      b"Age,Recurred\n1," + b"x" * 200_000 + b"\n"],
                             ids=["not-utf8", "field-over-csv-limit"])
    def test_unparseable_csv_exits_3(self, tmp_path, capsys, body):
        data = tmp_path / "bad.csv"
        data.write_bytes(body)
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "o")]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_out_is_a_file_exits_2(self, small_csv, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["train", "--data", small_csv, "--out", str(out),
                     "--epochs", "1"]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_zero_epochs_exits_2(self, small_csv, tmp_path):
        assert main(["train", "--data", small_csv, "--out", str(tmp_path),
                     "--epochs", "0"]) == 2
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("lr, message", [
        ("nan", "learning_rate must be a finite number > 0"),
        ("inf", "learning_rate must be a finite number > 0"),
        ("1e300", "non-finite weights or training loss after epoch 1 ")])
    def test_non_finite_learning_rate_exits_2(self, small_csv, tmp_path, capsys,
                                               lr, message):
        assert main(["train", "--data", small_csv, "--out", str(tmp_path),
                     "--epochs", "3", "--lr", lr]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not (tmp_path / "model.json").exists()


class TestEvaluate:
    def test_reproduces_stored_test_metrics(self, small_csv, tmp_path):
        model = run_train(small_csv, tmp_path / "run")
        out = tmp_path / "eval"
        assert main(["evaluate", "--model", str(model), "--data", small_csv,
                     "--partition", "test", "--out", str(out)]) == 0
        evaluated = json.loads((out / "eval_report.json").read_text())["test"]
        trained = json.loads((tmp_path / "run" / "train_report.json").read_text())["test"]
        assert evaluated == trained

    def test_all_partition(self, small_csv, tmp_path, capsys):
        model = run_train(small_csv, tmp_path / "run2")
        assert main(["evaluate", "--model", str(model), "--data", small_csv,
                     "--partition", "all"]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_schema_mismatch_exits_3(self, small_csv, tmp_path):
        model = run_train(small_csv, tmp_path / "run3")
        fewer = tmp_path / "fewer.csv"
        lines = [",".join(line.split(",")[1:])
                 for line in Path(small_csv).read_text(encoding="utf-8").splitlines()]
        fewer.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--model", str(model), "--data", str(fewer)]) == 3

    def test_constant_negative_predictor(self, small_csv, tmp_path, capsys):
        model = run_train(small_csv, tmp_path / "run4")
        artifact = load_model(str(model))
        artifact.mlp.layers[-1].b[:] = -50.0     # force P(recurrence) ~ 0
        degenerate = tmp_path / "run4" / "zero.json"
        save_model(artifact, str(degenerate))
        out = tmp_path / "deg"
        assert main(["evaluate", "--model", str(degenerate), "--data", small_csv,
                     "--partition", "test", "--out", str(out)]) == 0
        metrics = json.loads((out / "eval_report.json").read_text())["test"]["metrics"]
        assert metrics["sensitivity"] == 0.0
        assert metrics["specificity"] == 1.0
        assert metrics["ppv"] is None
        assert "n/a" in capsys.readouterr().out

    @pytest.mark.parametrize("keys, value", [
        (("train_config", "dropout"), 1.5),
        (("layers", 0, "weights", 0), "x"),
        (("schema", "features", 1, "vocab"), []),
        (("layers", 0, "weights", 0), float("nan")),
        (("scaler", "stds", 0), 0.0),
        (("dropout_rates",), [0.5]),
        (("train_config", "batch_size"), "32"),
        (("train_config", "beta1"), 1.0),
        (("train_config", "epsilon"), 0.0),
        (("dropout_rates", 0), 1.0),
        (("final_metrics", "test", "confusion", "tp"), 1000),
        (("final_metrics", "test", "metrics", "accuracy"), 0.99),
        (("final_metrics", "test"), NEGATIVE_COUNT),
        (("layers", -1), two_outputs),
        (("layers", -1), no_outputs),
        (("layers",), empty_first_hidden),
        (("split", "seed"), -1),
        (("schema", "target_name"), "Age"),
    ], ids=["dropout-1.5", "weight-string", "empty-vocab", "weight-nan", "std-zero",
            "dropout-rates-short", "batch-size-string", "beta1-1", "epsilon-0",
            "dropout-rate-1", "counts-contradict-metrics", "metrics-contradict-counts",
            "negative-count", "two-outputs", "no-outputs", "hidden-width-0",
            "split-seed-negative", "target-name-is-feature"])
    def test_malformed_model_exits_4(self, small_csv, tmp_path, capsys, keys, value):
        model = run_train(small_csv, tmp_path / "run")
        raw = json.loads(model.read_text())
        mutate(raw, keys, value)
        model.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--data", small_csv]) == 4
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_missing_model_exits_4(self, small_csv, tmp_path):
        assert main(["evaluate", "--model", str(tmp_path / "no.json"),
                     "--data", small_csv]) == 4

    def test_model_directory_exits_4(self, small_csv, tmp_path, capsys):
        assert main(["evaluate", "--model", str(tmp_path), "--data", small_csv]) == 4
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_single_class_file_all_partition(self, small_csv, tmp_path):
        """Scored with the model's schema, a file whose rows share one class
        is valid input, though no schema could be inferred from it."""
        model = run_train(small_csv, tmp_path / "run")
        lines = Path(small_csv).read_text(encoding="utf-8").splitlines()
        positives = [line for line in lines[1:] if line.endswith(",Yes")]
        only_yes = tmp_path / "yes.csv"
        only_yes.write_text("\n".join([lines[0], *positives]) + "\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--model", str(model), "--data", str(only_yes),
                     "--partition", "all", "--out", str(out)]) == 0
        cm = json.loads((out / "eval_report.json").read_text())["all"]["confusion"]
        assert cm["tp"] + cm["fn"] == len(positives) and cm["fp"] + cm["tn"] == 0

    def test_model_commands_never_run_schema_inference(self, small_csv, tmp_path,
                                                        monkeypatch):
        # _infer_schema is the one place a schema is inferred, for label_encode
        model = run_train(small_csv, tmp_path / "run")

        def refuse(*args):
            raise RuntimeError("schema inference called")
        monkeypatch.setattr(data, "_infer_schema", refuse)
        common = ["--model", str(model), "--data", small_csv]
        assert main(["evaluate", *common, "--partition", "all"]) == 0
        assert main(["explain", *common, "--index", "0", "--num-samples", "50",
                     "--out", str(tmp_path / "exp")]) == 0
        assert main(["sensitivity", *common, "--trajectories", "4",
                     "--out", str(tmp_path / "sens")]) == 0
        with pytest.raises(RuntimeError, match="schema inference called"):
            data.label_encode(data.load_csv(small_csv))

    def test_wrong_data_for_split_exits_3(self, small_csv, tmp_path, capsys):
        """A table the model's schema encodes, one row short: the uniform
        split of 119 rows is not the one drawn from 120."""
        model = run_train(small_csv, tmp_path / "run5")
        other = tmp_path / "other.csv"
        with open(small_csv, encoding="utf-8") as fh:
            other.write_text("".join(fh.readlines()[:-1]), encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--data", str(other),
                     "--partition", "test"]) == 3
        assert "does not reproduce the split" in capsys.readouterr().err

    def test_reordered_table_with_the_same_row_count_exits_3(self, small_csv, tmp_path,
                                                             capsys):
        """The rows reversed: a uniform split of 120 rows redraws the same
        indices, so the digest matches, but the partitions' class counts do
        not match the model's (positives 25 train and 2 test, read back as 20
        and 7)."""
        model = run_train(small_csv, tmp_path / "run")
        header, *rows = Path(small_csv).read_text().splitlines(keepends=True)
        other = tmp_path / "reversed.csv"
        other.write_text("".join([header, *reversed(rows)]))
        common = ["--model", str(model), "--data", str(other)]
        for argv in (["evaluate", "--partition", "test"],
                     ["explain", "--index", "0", "--out", str(tmp_path / "exp")],
                     ["sensitivity", "--out", str(tmp_path / "sens")]):
            capsys.readouterr()
            assert main([*argv, *common]) == 3
            err = capsys.readouterr().err.splitlines()
            assert err == ["error: data file does not reproduce the split this model was "
                           "trained with: its train partition holds 20 positive and 76 "
                           "negative rows, the model's 25 and 71; pass the original "
                           "training CSV"]
        assert not (tmp_path / "exp").exists() and not (tmp_path / "sens").exists()
        assert main(["evaluate", "--partition", "all", *common]) == 0

    def test_byte_order_mark_is_read_as_text(self, small_csv, tmp_path):
        """A CSV saved with a UTF-8 byte-order mark trains the same model
        bytes as the plain file, and the model commands accept it."""
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(small_csv).read_bytes())
        plain = run_train(small_csv, tmp_path / "plain")
        assert run_train(str(bom), tmp_path / "bom").read_bytes() == plain.read_bytes()
        common = ["--model", str(plain), "--data", str(bom)]
        assert main(["evaluate", *common, "--out", str(tmp_path / "eval")]) == 0
        assert main(["explain", *common, "--index", "0", "--num-samples", "50",
                     "--out", str(tmp_path / "exp")]) == 0
        assert main(["sensitivity", *common, "--trajectories", "4",
                     "--out", str(tmp_path / "sens")]) == 0

    def test_empty_cell_exits_3_naming_column_and_line(self, small_csv, tmp_path, capsys):
        lines = Path(small_csv).read_text().splitlines(keepends=True)
        lines[7] = "," + lines[7].split(",", 1)[1]
        blank = tmp_path / "blank.csv"
        blank.write_text("".join(lines))
        model = run_train(small_csv, tmp_path / "run")
        capsys.readouterr()
        for argv in (["train", "--out", str(tmp_path / "t")],
                     ["evaluate", "--model", str(model), "--partition", "all"]):
            assert main([*argv, "--data", str(blank)]) == 3
            assert capsys.readouterr().err.splitlines() == \
                ["error: line 8: empty cell in column 'Age'"]

    def test_non_finite_number_exits_3_naming_the_value(self, small_csv, tmp_path, capsys):
        lines = Path(small_csv).read_text().splitlines(keepends=True)
        lines[6] = "nan," + lines[6].split(",", 1)[1]
        bad = tmp_path / "nan.csv"
        bad.write_text("".join(lines))
        model = run_train(small_csv, tmp_path / "run")
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--data", str(bad),
                     "--partition", "all"]) == 3
        assert capsys.readouterr().err.splitlines() == \
            ["error: column 'Age': value 'nan' is not a finite number"]


class TestExplain:
    def test_report_and_bars(self, small_csv, tmp_path):
        model = run_train(small_csv, tmp_path / "run")
        out = tmp_path / "exp"
        assert main(["explain", "--model", str(model), "--data", small_csv,
                     "--index", "5", "--num-samples", "400",
                     "--num-features", "6", "--out", str(out), "--seed", "3"]) == 0
        report = json.loads((out / "explanation.json").read_text())
        assert report["instance_index"] == 5
        assert len(report["feature_weights"]) == 6
        assert sum(report["class_probabilities"]) == pytest.approx(1.0, abs=1e-9)
        bars = (out / "explanation_bars.csv").read_text().splitlines()
        assert bars[0] == "feature,weight"
        assert len(bars) == 7

    def test_deterministic_bytes(self, small_csv, tmp_path):
        model = run_train(small_csv, tmp_path / "run")
        outs = []
        for name in ("x1", "x2"):
            out = tmp_path / name
            assert main(["explain", "--model", str(model), "--data", small_csv,
                         "--index", "2", "--num-samples", "300",
                         "--out", str(out), "--seed", "11"]) == 0
            outs.append((out / "explanation.json").read_bytes())
        assert outs[0] == outs[1]

    def test_out_is_a_file_exits_2(self, small_csv, tmp_path, capsys):
        model = run_train(small_csv, tmp_path / "run")
        out = tmp_path / "taken"
        out.write_text("")
        capsys.readouterr()
        assert main(["explain", "--model", str(model), "--data", small_csv,
                     "--index", "0", "--num-samples", "50", "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("width", ["nan", "inf", "1e-300"])
    def test_nan_kernel_width_exits_2(self, small_csv, tmp_path, capsys, width):
        """An infinite width would weight every sample 1.0: a global fit
        reported as a local explanation. A width whose square is 0 would
        weight the row itself exp(-0/0) = NaN."""
        model = run_train(small_csv, tmp_path / "run")
        capsys.readouterr()
        assert main(["explain", "--model", str(model), "--data", small_csv,
                     "--index", "0", "--num-samples", "50", "--kernel-width", width,
                     "--out", str(tmp_path / "exp")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "kernel_width" in err[0]
        assert not (tmp_path / "exp").exists()

    def test_age_thresholds_in_years(self, tmp_path, capsys):
        """Numeric bins are printed in the table's units: every Age edge lies
        within the table's ages, not in standardized units (row 0, Age 56,
        once read `Age > 0.61`)."""
        table = tmp_path / "t.csv"
        write_csv(table, n=383, seed=1)
        ages = [float(row[0]) for row in _read_rows(table.read_text())[1:]]
        model = run_train(str(table), tmp_path / "run")
        out = tmp_path / "exp"
        assert main(["explain", "--model", str(model), "--data", str(table), "--index", "0",
                     "--num-samples", "200", "--num-features", "16", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        report = json.loads((out / "explanation.json").read_text())
        bars = _read_rows((out / "explanation_bars.csv").read_text())[1:]
        texts = {w["feature"] for w in report["feature_weights"]} | {b[0] for b in bars}
        age = [t for t in texts if "Age" in t]
        assert len(age) == 1 and age[0] in stdout
        edges = [float(tok) for tok in age[0].split() if tok[0].isdigit() or tok[0] == "-"]
        assert edges and all(min(ages) <= e <= max(ages) for e in edges), age[0]

    def test_index_out_of_range_exits_3(self, small_csv, tmp_path):
        model = run_train(small_csv, tmp_path / "run")
        assert main(["explain", "--model", str(model), "--data", small_csv,
                     "--index", "99999", "--out", str(tmp_path / "x")]) == 3

    def test_too_few_training_rows_exits_3(self, tmp_path, capsys):
        """A 4-row table leaves 3 training rows, too few to fit quartile
        edges: a data error, not an invalid flag."""
        csv = tmp_path / "tiny.csv"
        write_csv(csv, n=4, seed=3)
        model = run_train(str(csv), tmp_path / "run", epochs=2)
        capsys.readouterr()
        assert main(["explain", "--model", str(model), "--data", str(csv),
                     "--index", "0", "--out", str(tmp_path / "exp")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: need at least 4 training rows to fit quartiles"]

    @staticmethod
    def imports_numpy_ma(csv, tmp_path, train_extra=()):
        model = run_train(csv, tmp_path / "run", extra=train_extra)
        argv = ["explain", "--model", str(model), "--data", csv, "--index", "0",
                "--num-samples", "50", "--out", str(tmp_path / "exp")]
        code = f"import sys; from thyrec.cli import main; main({argv!r}); " \
               "print('numpy.ma' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(thyrec.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True)
        return done.stdout.splitlines()[-1] == "True"

    def test_fresh_process_does_not_import_numpy_ma(self, small_csv, tmp_path):
        """np.quantile and a plain np.unique import numpy.ma (~15 ms in a
        fresh process); explain needs neither."""
        assert not self.imports_numpy_ma(small_csv, tmp_path)

    def test_fresh_process_stratified_does_not_import_numpy_ma(self, small_csv, tmp_path):
        """Recovering a stratified split takes its classes without numpy.ma."""
        assert not self.imports_numpy_ma(small_csv, tmp_path, ["--stratify"])


class TestSensitivity:
    def test_tables_and_ranking(self, small_csv, tmp_path):
        model = run_train(small_csv, tmp_path / "run")
        out = tmp_path / "sens"
        assert main(["sensitivity", "--model", str(model), "--data", small_csv,
                     "--trajectories", "8", "--out", str(out), "--seed", "2"]) == 0
        table = (out / "sensitivity.csv").read_text().splitlines()
        assert table[0] == "feature,mu,mu_star,sigma"
        assert len(table) == 17             # header + 16 features
        scatter = (out / "sensitivity_scatter.csv").read_text().splitlines()
        assert scatter[0] == "feature,mu_star,sigma"
        report = json.loads((out / "sensitivity.json").read_text())
        stars = {f["name"]: f["mu_star"] for f in report["features"]}
        ranked = report["ranking"]
        assert sorted(ranked) == sorted(stars)
        assert all(stars[a] >= stars[b] for a, b in zip(ranked, ranked[1:]))

    def test_json_reports_evaluations_and_degenerate_features(self, tmp_path):
        header, rows = generate_rows(n=120, seed=5)
        for row in rows:
            row[0] = "40"                   # Age is constant
        csv_path = tmp_path / "const.csv"
        csv_path.write_bytes(_write_rows([header] + rows))
        model = run_train(str(csv_path), tmp_path / "run")
        out = tmp_path / "sens"
        assert main(["sensitivity", "--model", str(model), "--data", str(csv_path),
                     "--trajectories", "8", "--out", str(out), "--seed", "2"]) == 0
        report = json.loads((out / "sensitivity.json").read_text())
        assert report["model_evals"] == 8 * (16 + 1)
        flags = {f["name"]: f["degenerate"] for f in report["features"]}
        assert all(isinstance(v, bool) for v in flags.values())
        assert flags["Age"] is True
        for f in report["features"]:
            if f["degenerate"]:
                assert f["mu"] == f["mu_star"] == f["sigma"] == 0.0
            else:
                assert f["mu_star"] > 0.0

    def test_deterministic_bytes(self, small_csv, tmp_path):
        model = run_train(small_csv, tmp_path / "run")
        blobs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["sensitivity", "--model", str(model), "--data", small_csv,
                         "--trajectories", "6", "--out", str(out), "--seed", "4"]) == 0
            blobs.append((out / "sensitivity.csv").read_bytes())
        assert blobs[0] == blobs[1]


def _overcommit_refuses_huge_requests() -> bool:
    """True where Linux refuses an allocation far above RAM + swap up front
    (vm.overcommit_memory 0 or 2), so asking for terabytes touches nothing."""
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip() in ("0", "2")
    except OSError:
        return False


@pytest.mark.skipif(not _overcommit_refuses_huge_requests(),
                    reason="a terabyte request could be granted lazily and then touched")
@pytest.mark.parametrize("argv", [["explain", "--index", "0", "--num-samples"],
                                  ["sensitivity", "--trajectories"],
                                  ["sensitivity", "--levels"]],
                         ids=["explain-num-samples", "sensitivity-trajectories",
                              "sensitivity-levels"])
def test_size_flag_too_large_to_allocate_exits_2(small_csv, tmp_path, capsys, argv):
    """10^11 samples or trajectories asks numpy for ~12.8 TB, and 10^11
    levels for an 800 GB grid, which the allocator refuses: exit 2 with one
    line, not a MemoryError traceback."""
    model = run_train(small_csv, tmp_path / "run")
    capsys.readouterr()
    assert main([*argv, "100000000000", "--model", str(model), "--data", small_csv,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory")


@pytest.mark.parametrize("argv", [["train"], ["explain", "--index", "0"], ["sensitivity"]],
                         ids=["train", "explain", "sensitivity"])
def test_negative_seed_exits_2_naming_it(small_csv, tmp_path, capsys, argv):
    """numpy's own refusal of a negative seed names neither the flag nor
    the value, so each command's config refuses it first."""
    if argv[0] != "train":
        argv = [*argv, "--model", str(run_train(small_csv, tmp_path / "run"))]
        capsys.readouterr()
    assert main([*argv, "--data", small_csv, "--seed", "-1",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: seed must be >= 0"]
    assert not (tmp_path / "out").exists()


def _read_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _write_rows(rows: list[list[str]]) -> bytes:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode()


def _cells(fn):
    """A mutation of the parsed table: fn(rows, rng) edits rows in place."""
    def mutation(raw: bytes, rng) -> bytes:
        rows = _read_rows(raw.decode())
        fn(rows, rng)
        return _write_rows(rows)
    return mutation


def _row(rows, rng) -> list[str]:
    return rows[int(rng.integers(1, len(rows)))]


def _insert(raw: bytes, rng, chunk: bytes) -> bytes:
    at = int(rng.integers(0, len(raw)))
    return raw[:at] + chunk + raw[at:]


def _set_feature(rows, rng, value, numeric: bool) -> None:
    j = 0 if numeric else int(rng.integers(1, len(rows[0]) - 1))    # Age is column 0
    _row(rows, rng)[j] = value


def _one_class(rows, rng) -> None:
    keep = ("No", "Yes")[int(rng.integers(2))]
    rows[1:] = [row for row in rows[1:] if row[-1] == keep]


def _duplicate_name(rows, rng) -> None:
    i, j = rng.choice(len(rows[0]) - 1, size=2, replace=False)
    rows[0][i] = rows[0][j]


def _target_only(rows, rng) -> None:
    rows[:] = [row[-1:] for row in rows]


def _target_repeats_feature(rows, rng) -> None:
    rows[0][-1] = rows[0][int(rng.integers(len(rows[0]) - 1))]


def _truncate(raw: bytes, rng) -> bytes:
    start = raw.rstrip(b"\n").rfind(b"\n") + 1
    return raw[:int(rng.integers(start + 1, len(raw)))]


# name -> (mutation, exit of train, exit of evaluate --partition all with the
# clean model); None where the outcome depends on where the mutation lands
CSV_MUTATIONS = {
    "drop-cell": (_cells(lambda rows, rng: _row(rows, rng).pop()), 3, 3),
    "add-cell": (_cells(lambda rows, rng: _row(rows, rng).append("x")), 3, 3),
    "blank-number": (_cells(lambda rows, rng: _set_feature(rows, rng, "", True)), 3, 3),
    "blank-category": (_cells(lambda rows, rng: _set_feature(rows, rng, "", False)), 3, 3),
    "nan-number": (_cells(lambda rows, rng: _set_feature(rows, rng, "nan", True)), 0, 3),
    "inf-number": (_cells(lambda rows, rng: _set_feature(rows, rng, "inf", True)), 0, 3),
    "unknown-category": (_cells(lambda rows, rng: _set_feature(rows, rng, "??", False)),
                         0, 3),
    "third-class": (_cells(lambda rows, rng: _row(rows, rng).__setitem__(-1, "Maybe")),
                    3, 3),
    "one-class": (_cells(_one_class), 3, 0),
    "duplicate-name": (_cells(_duplicate_name), 3, 3),
    "target-only": (_cells(_target_only), 3, 3),
    "target-repeats-feature": (_cells(_target_repeats_feature), 3, 3),
    "not-utf8": (lambda raw, rng: _insert(raw, rng, b"\xff"), 3, 3),
    "nul-byte": (lambda raw, rng: _insert(raw, rng, b"\x00"), None, None),
    "stray-quote": (lambda raw, rng: _insert(raw, rng, b'"'), None, None),
    "truncated-last-line": (_truncate, None, None),
}


class TestCsvFuzz:
    """Seeded mutations of a clean 120-row CSV through train and through
    evaluate --partition all: each ends with its expected exit (0 or 3 where
    it depends on the spot), and exit 3 prints exactly one stderr line."""

    def test_mutated_csv(self, small_csv, tmp_path, capsys):
        model = run_train(small_csv, tmp_path / "clean", epochs=1)
        clean = Path(small_csv).read_bytes()
        assert _write_rows(_read_rows(clean.decode())) == clean
        rng = np.random.default_rng(404)
        path = tmp_path / "fuzz.csv"
        for trial in range(2):
            for name, (mutation, want_train, want_eval) in CSV_MUTATIONS.items():
                path.write_bytes(mutation(clean, rng))
                capsys.readouterr()
                for argv, want in (
                        (["train", "--epochs", "1", "--out", str(tmp_path / "t")], want_train),
                        (["evaluate", "--model", str(model), "--partition", "all"],
                         want_eval)):
                    code = main([*argv, "--data", str(path)])
                    err = capsys.readouterr().err.splitlines()
                    case = (name, trial, argv[0], code, err)
                    assert code in ((0, 3) if want is None else (want,)), case
                    assert len(err) == (1 if code == 3 else 0), case


class TestQuotedNames:
    def test_csv_outputs_read_back(self, tmp_path):
        """Column names holding quotes and commas come back whole from every
        CSV the commands write."""
        header, rows = generate_rows(n=383, seed=3)
        header[0], header[1] = 'Age "years"', 'Gender "M/F", self-reported'
        path = tmp_path / "quoted.csv"
        path.write_bytes(_write_rows([header] + rows))
        model = run_train(str(path), tmp_path / "run")
        common = ["--model", str(model), "--data", str(path), "--seed", "2"]
        assert main(["explain", *common, "--index", "0", "--num-features", "16",
                     "--num-samples", "200", "--out", str(tmp_path / "exp")]) == 0
        assert main(["sensitivity", *common, "--trajectories", "4",
                     "--out", str(tmp_path / "sens")]) == 0
        names = header[:-1]
        bars = _read_rows((tmp_path / "exp" / "explanation_bars.csv").read_text())
        assert bars[0] == ["feature", "weight"] and len(bars) == 17
        assert all(len(row) == 2 for row in bars)
        features = [row[0] for row in bars[1:]]
        assert sum(f.startswith(names[1] + " = ") for f in features) == 1
        assert sum(names[0] in f for f in features) == 1
        for file, width in (("sensitivity.csv", 4), ("sensitivity_scatter.csv", 3)):
            table = _read_rows((tmp_path / "sens" / file).read_text())
            assert all(len(row) == width for row in table), file
            assert sorted(row[0] for row in table[1:]) == sorted(names), file


class TestDeterminismScope:
    """The byte-identity promise holds for one machine, numpy build and BLAS
    core type, whatever the BLAS thread count. Another OpenBLAS core type
    may move the last bits of the weights in model.json, but the reports
    must not move and the model's probabilities must agree far below any
    printed precision."""

    @staticmethod
    def cli_in_subprocess(argv, **env_vars):
        env = dict(os.environ, PYTHONPATH=str(Path(thyrec.__file__).parents[1]))
        env.pop("OPENBLAS_CORETYPE", None)
        env.update(env_vars)
        subprocess.run([sys.executable, "-m", "thyrec.cli", *argv],
                       env=env, check=True, capture_output=True)

    def train_in_subprocess(self, csv, out, core_type):
        self.cli_in_subprocess(["train", "--data", csv, "--seed", "1", "--epochs", "30",
                                "--out", str(out)],
                               **({"OPENBLAS_CORETYPE": core_type} if core_type else {}))
        return load_model(str(out / "model.json"))

    def test_blas_thread_count_keeps_every_byte(self, recurrence_source, tmp_path):
        """At 383 rows the monitoring predicts (245 rows) and LIME's
        1,024-row blocks are large enough for OpenBLAS to split a product
        across two threads; every emitted byte must stay the same."""
        csv = str(recurrence_source.path)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            common = ["--data", csv, "--seed", "1", "--out", str(out)]
            self.cli_in_subprocess(["train", *common, "--epochs", "2"],
                                   OPENBLAS_NUM_THREADS=threads)
            self.cli_in_subprocess(["explain", *common, "--model", str(out / "model.json"),
                                    "--index", "12"], OPENBLAS_NUM_THREADS=threads)
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert sorted(outputs[0]) == ["explanation.json", "explanation_bars.csv",
                                      "history.csv", "model.json", "train_report.json"]
        assert outputs[0] == outputs[1]

    def test_other_core_type_keeps_reports_and_probabilities(self, recurrence_source,
                                                             tmp_path):
        csv = str(recurrence_source.path)
        default = self.train_in_subprocess(csv, tmp_path / "default", None)
        prescott = self.train_in_subprocess(csv, tmp_path / "prescott", "Prescott")
        report = "train_report.json"
        assert (tmp_path / "default" / report).read_bytes() == \
            (tmp_path / "prescott" / report).read_bytes()
        dataset = data.load_csv(csv)
        encoded = data.encode_with_schema(dataset.rows, dataset.targets, default.schema)
        X = data.apply_scaler(default.scaler, encoded.X)
        assert X.tobytes() == data.apply_scaler(prescott.scaler, encoded.X).tobytes()
        gap = np.max(np.abs(predict_proba(default.mlp, X) - predict_proba(prescott.mlp, X)))
        assert gap <= 1e-9


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["train"])
        assert err.value.code == 2

    def test_evaluate_takes_no_seed(self, capsys):
        """evaluate is a function of the model and the table: the split's
        seed is in the model, so a --seed flag would do nothing."""
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--model", "m.json", "--data", "d.csv", "--seed", "1"])
        assert err.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config, mapping", [
        (["train"], TrainConfig,
         {"epochs": "epochs", "batch_size": "batch_size", "lr": "learning_rate",
          "dropout": "dropout", "val_source": "validation_source"}),
        (["explain", "--model", "m.json", "--index", "0"], LimeConfig,
         {"num_samples": "num_samples", "kernel_width": "kernel_width",
          "num_features": "num_features"}),
        (["sensitivity", "--model", "m.json"], MorrisConfig,
         {"trajectories": "trajectories", "levels": "levels"}),
    ], ids=["train", "explain", "sensitivity"])
    def test_flag_defaults_are_config_defaults(self, argv, config, mapping):
        args = build_parser().parse_args([*argv, "--data", "d.csv"])
        defaults = {f.name: f.default for f in fields(config)}
        assert {flag: getattr(args, flag) for flag in mapping} == \
            {flag: defaults[name] for flag, name in mapping.items()}
