"""End-to-end CLI pipeline: outputs, manifests, exit codes, config files."""

from __future__ import annotations

import csv
import errno
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pcrboost import cli, formatting, metrics
from pcrboost.cli import main
from pcrboost.dataset import (
    FEATURE_NAMES,
    PATTERNS,
    Dataset,
    load_csv,
    pattern_codes,
    save_csv,
)
from pcrboost.gbm import Model, TrainConfig, TreeNode, load_model, save_model
from pcrboost.metrics import ScoredLabels, auroc
from oracles import (
    PIPELINE,
    clean_env,
    option,
    quickstart_step,
    reference_beeswarm_svg,
    reference_explain_matrix,
    reference_read_table,
    reference_write_scores,
    reference_write_shap,
)

SYNTH = ["synth", "--n-pos", "200", "--n-neg", "800", "--seed", "3"]


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_rows(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth->train->predict->explain->evaluate chain shared by read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data.csv"
    model = root / "model.json"
    scores = root / "scores.csv"
    shap = root / "shap.csv"
    prefix = str(root / "eval_")
    assert run(*SYNTH, "--out", data) == 0
    assert run("train", "--data", data, "--out-model", model,
               "--seed", "0", "--num-rounds", "25") == 0
    assert run("predict", "--model", model, "--data", data, "--out", scores) == 0
    assert run("explain", "--model", model, "--data", data, "--out", shap) == 0
    assert run("evaluate", "--model", model, "--data", data, "--out-prefix", prefix,
               "--bootstrap", "200", "--seed", "11", "--roc-band") == 0
    return root


class TestPipelineOutputs:
    def test_all_outputs_and_manifests_exist(self, pipeline):
        for name in (
            "data.csv", "data.csv.manifest.json",
            "model.json", "model.json.manifest.json",
            "scores.csv", "scores.csv.manifest.json",
            "shap.csv", "shap.csv.manifest.json",
            "eval_thresholds.csv", "eval_summary.csv", "eval_roc_band.csv",
            "eval_manifest.json",
        ):
            assert (pipeline / name).exists(), name

    def test_manifest_contents(self, pipeline):
        doc = json.loads((pipeline / "model.json.manifest.json").read_text())
        assert doc["command"] == "train"
        assert doc["seed"] == 0
        assert doc["parameters"]["num_rounds"] == 25
        assert str(pipeline / "data.csv") in doc["inputs"]
        assert str(pipeline / "model.json") in doc["outputs"]
        assert doc["duration_seconds"] >= 0.0

    def test_synth_dataset_shape(self, pipeline):
        with open(pipeline / "data.csv", "rb") as fh:
            ds = load_csv(fh)
        assert (len(ds), ds.n_positive, ds.n_negative) == (1000, 200, 800)

    def test_predict_scores_recompute_summary_auroc(self, pipeline):
        with open(pipeline / "data.csv", "rb") as fh:
            ds = load_csv(fh)
        rows = read_rows(pipeline / "scores.csv")
        assert [int(r["record_index"]) for r in rows] == list(range(1000))
        scores = np.array([float(r["score"]) for r in rows])
        assert np.all((scores > 0.0) & (scores < 1.0))
        recomputed = auroc(ScoredLabels(scores, ds.y))
        summary = {r["metric"]: r for r in read_rows(pipeline / "eval_summary.csv")}
        # 17-digit serialization round-trips exactly
        assert float(summary["auroc"]["point"]) == recomputed

    def test_summary_interval_brackets_point(self, pipeline):
        for row in read_rows(pipeline / "eval_summary.csv"):
            lo, point, hi = (float(row[k]) for k in ("lo", "point", "hi"))
            assert lo <= point <= hi

    def test_explain_csv_local_accuracy(self, pipeline):
        with open(pipeline / "data.csv", "rb") as fh:
            ds = load_csv(fh)
        model = load_model((pipeline / "model.json").read_text())
        raw = model.predict_raw(ds.X)
        totals: dict[int, float] = {}
        bases: set[str] = set()
        for row in read_rows(pipeline / "shap.csv"):
            r = int(row["record_index"])
            totals[r] = totals.get(r, 0.0) + float(row["shap_value"])
            bases.add(row["base_value"])
        assert len(bases) == 1
        base = float(bases.pop())
        for r in range(len(ds)):
            assert abs(base + totals[r] - raw[r]) <= 1e-9

    def test_explain_rows_are_record_major_schema_order(self, pipeline):
        rows = read_rows(pipeline / "shap.csv")
        assert len(rows) == 1000 * 8
        assert [r["feature"] for r in rows[:8]] == list(FEATURE_NAMES)
        assert [int(r["record_index"]) for r in rows[:9]] == [0] * 8 + [1]

    def test_thresholds_table_is_descending_and_complete(self, pipeline):
        rows = read_rows(pipeline / "eval_thresholds.csv")
        ts = [float(r["threshold"]) for r in rows]
        assert ts == sorted(ts, reverse=True)
        assert len(set(ts)) == len(ts)
        for row in rows:
            counts = [int(row[k]) for k in ("tp", "fp", "tn", "fn")]
            assert sum(counts) == 1000

    def test_roc_band_grid(self, pipeline):
        rows = read_rows(pipeline / "eval_roc_band.csv")
        assert len(rows) == 101
        assert float(rows[0]["fpr"]) == 0.0
        assert float(rows[-1]["fpr"]) == 1.0
        for row in rows:
            assert float(row["tpr_lo"]) <= float(row["tpr_hi"])


class TestPlots:
    def test_roc_pr_beeswarm_render_and_are_deterministic(self, pipeline, tmp_path):
        thresholds = pipeline / "eval_thresholds.csv"
        band = pipeline / "eval_roc_band.csv"
        shap = pipeline / "shap.csv"
        roc_a, roc_b = tmp_path / "roc_a.svg", tmp_path / "roc_b.svg"
        assert run("plot", "--kind", "roc", "--in", thresholds, "--band", band,
                   "--out", roc_a) == 0
        assert run("plot", "--kind", "roc", "--in", thresholds, "--band", band,
                   "--out", roc_b) == 0
        assert roc_a.read_bytes() == roc_b.read_bytes()
        assert b"<polygon" in roc_a.read_bytes()

        pr = tmp_path / "pr.svg"
        assert run("plot", "--kind", "pr", "--in", thresholds, "--out", pr) == 0
        assert pr.read_bytes().startswith(b"<svg ")

        bee_a, bee_b = tmp_path / "bee_a.svg", tmp_path / "bee_b.svg"
        assert run("plot", "--kind", "beeswarm", "--in", shap, "--seed", "4",
                   "--out", bee_a) == 0
        assert run("plot", "--kind", "beeswarm", "--in", shap, "--seed", "4",
                   "--out", bee_b) == 0
        assert bee_a.read_bytes() == bee_b.read_bytes()
        assert bee_a.read_bytes().count(b"<circle") == 1000 * 8

    def test_beeswarm_requires_seed(self, pipeline, tmp_path):
        assert run("plot", "--kind", "beeswarm", "--in", pipeline / "shap.csv",
                   "--out", tmp_path / "x.svg") == 2

    def test_plot_rejects_wrong_table(self, pipeline, tmp_path):
        assert run("plot", "--kind", "roc", "--in", pipeline / "scores.csv",
                   "--out", tmp_path / "x.svg") == 2
        # a header and no rows, in the thresholds CSV (roc, pr) or the ROC band CSV
        thresholds, band = tmp_path / "thresholds.csv", tmp_path / "band.csv"
        for empty, table in ((thresholds, "eval_thresholds.csv"), (band, "eval_roc_band.csv")):
            empty.write_text((pipeline / table).read_text().splitlines()[0] + "\n")
        full = pipeline / "eval_thresholds.csv"
        for kind, tables in (("roc", ["--in", thresholds]), ("pr", ["--in", thresholds]),
                             ("roc", ["--in", full, "--band", band])):
            out = tmp_path / "x.svg"
            assert run("plot", "--kind", kind, *tables, "--out", out) == 2, (kind, tables)
            assert not out.exists(), (kind, tables)

    def test_band_only_with_roc(self, pipeline, tmp_path):
        band = pipeline / "eval_roc_band.csv"
        for kind, table in (("pr", "eval_thresholds.csv"), ("beeswarm", "shap.csv")):
            out = tmp_path / f"{kind}.svg"
            assert run("plot", "--kind", kind, "--in", pipeline / table, "--band", band,
                       "--seed", "4", "--out", out) == 2, kind
            assert not out.exists(), kind

    def test_failed_beeswarm_leaves_no_file(self, pipeline, tmp_path, capsys, monkeypatch):
        # the first strip is already written when the second one's label fails
        from pcrboost import plots

        labels = []
        text = plots._text

        def text_failing_on_second_label(*args, **kwargs):
            if kwargs.get("anchor") == "end":  # a strip label
                labels.append(args[2])
                if len(labels) == 2:
                    raise MemoryError("second strip")
            return text(*args, **kwargs)

        monkeypatch.setattr(plots, "_text", text_failing_on_second_label)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        capsys.readouterr()
        assert run("plot", "--kind", "beeswarm", "--in", pipeline / "shap.csv", "--seed", "4",
                   "--out", out_dir / "b.svg") == 3
        assert len(labels) == 2
        assert capsys.readouterr().err == "pcrboost: error: MemoryError: second strip\n"
        assert not list(out_dir.iterdir())

    def test_plot_rejects_non_finite_cells(self, pipeline, tmp_path):
        # non-finite cells, rates outside [0, 1], and SHAP values whose axis span overflows
        for kind, table, column, bad in (("roc", "eval_thresholds.csv", "fpr", "inf"),
                                         ("beeswarm", "shap.csv", "shap_value", "nan"),
                                         ("roc", "eval_thresholds.csv", "fpr", "1e308"),
                                         ("pr", "eval_thresholds.csv", "ppv", "-0.5"),
                                         ("beeswarm", "shap.csv", "shap_value", "-1e308"),
                                         ("beeswarm", "shap.csv", "feature_value", "0.5")):
            lines = (pipeline / table).read_text().splitlines()
            row = lines[1].split(",")
            row[lines[0].split(",").index(column)] = bad
            path = tmp_path / table
            path.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
            assert run("plot", "--kind", kind, "--in", path, "--seed", "4",
                       "--out", tmp_path / "x.svg") == 2, kind


class TestEvaluateModes:
    def test_bootstrap_zero_leaves_interval_cells_empty(self, pipeline, tmp_path):
        prefix = str(tmp_path / "plain_")
        assert run("evaluate", "--model", pipeline / "model.json",
                   "--data", pipeline / "data.csv", "--out-prefix", prefix,
                   "--bootstrap", "0") == 0
        with open(prefix + "summary.csv", encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "metric,point,lo,hi"
        for line in lines[1:]:
            assert line.endswith(",,")

    def test_bootstrap_requires_seed(self, pipeline, tmp_path):
        assert run("evaluate", "--model", pipeline / "model.json",
                   "--data", pipeline / "data.csv",
                   "--out-prefix", str(tmp_path / "x_")) == 2

    def test_roc_band_needs_bootstrap(self, pipeline, tmp_path):
        assert run("evaluate", "--model", pipeline / "model.json",
                   "--data", pipeline / "data.csv",
                   "--out-prefix", str(tmp_path / "x_"),
                   "--bootstrap", "0", "--roc-band") == 3
        assert not list(tmp_path.glob("x_*"))

    @pytest.mark.parametrize("alpha", ["7", "nan"])
    def test_alpha_checked_without_bootstrap(self, pipeline, tmp_path, alpha):
        assert run("evaluate", "--model", pipeline / "model.json",
                   "--data", pipeline / "data.csv", "--out-prefix", str(tmp_path / "x_"),
                   "--bootstrap", "0", "--alpha", alpha) == 3
        assert not list(tmp_path.glob("x_*"))

    @pytest.mark.parametrize("count", ["100000000000000000000", str(sys.maxsize)])
    def test_resample_count_numpy_cannot_size(self, pipeline, tmp_path, capsys, count):
        # refused before any allocation, so this test allocates nothing
        assert run("evaluate", "--model", pipeline / "model.json",
                   "--data", pipeline / "data.csv", "--out-prefix", str(tmp_path / "x_"),
                   "--bootstrap", count, "--seed", "1", "--roc-band") == 3
        assert not list(tmp_path.glob("x_*"))
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "n_resamples must be in [100, " in err

    def test_metric_undefined_on_every_resample_writes_nothing(self, pipeline, tmp_path,
                                                                capsys, monkeypatch):
        # no draws at all: every resample is left without a value
        monkeypatch.setattr(metrics, "_MAX_DRAWS", 0)
        capsys.readouterr()
        assert run("evaluate", "--model", pipeline / "model.json", "--data",
                   pipeline / "data.csv", "--out-prefix", str(tmp_path / "eval_"),
                   "--bootstrap", "100", "--seed", "1") == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "metric undefined on every resample" in err
        assert not list(tmp_path.glob("eval_*"))

    def test_later_output_blocked_leaves_no_file(self, pipeline, tmp_path, capsys):
        # thresholds.csv can be written, summary.csv cannot: a directory holds its name
        (tmp_path / "e2_summary.csv").mkdir()
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert run("evaluate", "--model", pipeline / "model.json", "--data",
                   pipeline / "data.csv", "--out-prefix", str(tmp_path / "e2_"),
                   "--bootstrap", "0") == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("pcrboost: I/O error: ")
        assert sorted(tmp_path.iterdir()) == before

    def test_single_class_data_writes_nothing(self, pipeline, tmp_path):
        data = tmp_path / "neg.csv"
        assert run("synth", "--n-pos", "0", "--n-neg", "50", "--seed", "2", "--out", data) == 0
        for mode in (["--bootstrap", "0"], ["--bootstrap", "200", "--seed", "1"]):
            assert run("evaluate", "--model", pipeline / "model.json", "--data", data,
                       "--out-prefix", str(tmp_path / "x_"), *mode) == 3, mode
            assert not list(tmp_path.glob("x_*")), mode

    def test_separable_toy_reaches_perfect_auroc(self, tmp_path):
        # one informative feature, plenty of records per leaf
        header = ",".join(FEATURE_NAMES + ("label",))
        rows = ["1,0,1,0,0,0,0,0,1"] * 40 + ["0,0,0,0,0,0,0,0,0"] * 40
        data = tmp_path / "toy.csv"
        data.write_text(header + "\n" + "\n".join(rows) + "\n")
        model = tmp_path / "toy_model.json"
        assert run("train", "--data", data, "--out-model", model, "--seed", "1",
                   "--num-rounds", "5", "--min-samples-leaf", "5") == 0
        prefix = str(tmp_path / "toy_")
        assert run("evaluate", "--model", model, "--data", data,
                   "--out-prefix", prefix, "--bootstrap", "0") == 0
        summary = {r["metric"]: r for r in read_rows(prefix + "summary.csv")}
        assert summary["auroc"]["point"] == "1"
        assert summary["auprc"]["point"] == "1"


class TestSynthModes:
    def test_n_pos_zero_yields_all_negative(self, tmp_path):
        out = tmp_path / "neg.csv"
        assert run("synth", "--n-pos", "0", "--n-neg", "50", "--seed", "2",
                   "--out", out) == 0
        with open(out, "rb") as fh:
            ds = load_csv(fh)
        assert ds.n_positive == 0 and len(ds) == 50

    def test_custom_marginals_source(self, pipeline, tmp_path):
        out = tmp_path / "resampled.csv"
        assert run("synth", "--n-pos", "30", "--n-neg", "70", "--seed", "5",
                   "--marginals", pipeline / "data.csv", "--out", out) == 0
        with open(out, "rb") as fh:
            ds = load_csv(fh)
        assert (ds.n_positive, ds.n_negative) == (30, 70)

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*SYNTH, "--out", a) == 0
        assert run(*SYNTH, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n_pos", ["1" + "0" * 30, str(1 << 62)])
    def test_record_count_numpy_cannot_size_is_contract_error(self, tmp_path, capsys, n_pos):
        # refused before anything is allocated: NumPy cannot size the first and
        # would fail to allocate 4 EiB for the second
        assert run("synth", "--n-pos", n_pos, "--n-neg", "0", "--seed", "1",
                   "--out", tmp_path / "d.csv") == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "too many records" in err[0], err
        assert list(tmp_path.iterdir()) == []


class TestTrainModes:
    def test_training_is_byte_deterministic(self, pipeline, tmp_path):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for m in (m1, m2):
            assert run("train", "--data", pipeline / "data.csv", "--out-model", m,
                       "--seed", "0", "--num-rounds", "25") == 0
        assert m1.read_bytes() == m2.read_bytes()
        assert m1.read_bytes() == (pipeline / "model.json").read_bytes()

    def test_config_file_supplies_values_and_flags_win(self, pipeline, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "# hyperparameters\nnum-rounds = 3\nlearning_rate = 0.3\nseed = 7\n"
        )
        m = tmp_path / "m.json"
        assert run("train", "--data", pipeline / "data.csv", "--out-model", m,
                   "--config", cfg, "--num-rounds", "4") == 0
        model = load_model(m.read_text())
        assert model.config.num_rounds == 4  # flag beats config
        assert model.config.learning_rate == 0.3
        assert model.config.seed == 7

    def test_unknown_config_key(self, pipeline, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rounds = 3\n")
        assert run("train", "--data", pipeline / "data.csv",
                   "--out-model", tmp_path / "m.json", "--config", cfg,
                   "--seed", "0") == 2

    def test_malformed_config_line(self, pipeline, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        assert run("train", "--data", pipeline / "data.csv",
                   "--out-model", tmp_path / "m.json", "--config", cfg,
                   "--seed", "0") == 2

    def test_single_class_data_is_contract_error(self, tmp_path):
        header = ",".join(FEATURE_NAMES + ("label",))
        data = tmp_path / "flat.csv"
        data.write_text(header + "\n" + "\n".join(["0,0,0,0,0,0,0,0,0"] * 30) + "\n")
        assert run("train", "--data", data, "--out-model", tmp_path / "m.json",
                   "--seed", "0") == 3

    def test_unwritable_output_is_io_error(self, pipeline, tmp_path):
        assert run("train", "--data", pipeline / "data.csv",
                   "--out-model", tmp_path / "no_dir" / "m.json", "--seed", "0") == 4

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag", ["--min-split-gain", "--l2-lambda"])
    def test_non_finite_regularisation_writes_no_model(self, pipeline, tmp_path, flag, value):
        model = tmp_path / "m.json"
        assert run("train", "--data", pipeline / "data.csv", "--out-model", model,
                   "--seed", "0", "--num-rounds", "3", flag, value) == 3
        assert list(tmp_path.iterdir()) == []

    def test_zero_hessian_with_zero_lambda_is_contract_error(self, tmp_path, capsys):
        X = PATTERNS[:40]
        data = tmp_path / "separable.csv"
        with open(data, "wb") as fh:
            save_csv(Dataset(pattern_codes(X), X[:, 1]), fh)
        assert run("train", "--data", data, "--out-model", tmp_path / "m.json",
                   "--seed", "0", "--l2-lambda", "0", "--learning-rate", "1",
                   "--min-samples-leaf", "1") == 3
        assert "zero hessian sum" in capsys.readouterr().err


    def test_underflowed_hessians_are_contract_error(self, tmp_path, capsys):
        # at the survey's test scale, learning rate 1 drives some leaves' hessian sums to 0;
        # a model with such a leaf is one that every model reader refuses
        data = tmp_path / "survey_test.csv"
        assert run("synth", "--n-pos", "3624", "--n-neg", "43777", "--seed", "1002",
                   "--out", data) == 0
        capsys.readouterr()
        assert run("train", "--data", data, "--out-model", tmp_path / "m.json",
                   "--seed", "1", "--learning-rate", "1.0") == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "hessians underflowed" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "survey_test.csv", "survey_test.csv.manifest.json"]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_min_samples_leaf_below_one_writes_no_model(self, pipeline, tmp_path, capsys, value):
        capsys.readouterr()
        assert run("train", "--data", pipeline / "data.csv", "--out-model", tmp_path / "m.json",
                   "--seed", "0", "--num-rounds", "3", "--min-samples-leaf", value) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "min_samples_leaf must be >= 1" in err
        assert list(tmp_path.iterdir()) == []

    def test_manifest_echoes_every_resolved_hyperparameter(self, pipeline, tmp_path):
        m = tmp_path / "m.json"
        assert run("train", "--data", pipeline / "data.csv", "--out-model", m,
                   "--seed", "0", "--num-rounds", "2") == 0
        doc = json.loads((tmp_path / "m.json.manifest.json").read_text())
        defaults = TrainConfig()
        assert doc["parameters"] == {
            "data": str(pipeline / "data.csv"), "out_model": str(m), "seed": 0,
            "num_rounds": 2, "learning_rate": defaults.learning_rate,
            "max_leaves": defaults.max_leaves, "min_samples_leaf": defaults.min_samples_leaf,
            "l2_lambda": defaults.l2_lambda, "min_split_gain": defaults.min_split_gain}


class TestConfigFiles:
    """A config value is parsed as the flag it names; explicit flags come later and win."""

    @staticmethod
    def config(tmp_path, text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_synth_takes_every_required_flag_from_a_config(self, tmp_path):
        flags, configured = tmp_path / "flags.csv", tmp_path / "configured.csv"
        assert run(*SYNTH, "--out", flags) == 0
        cfg = self.config(tmp_path, f"out = {configured}\nn-pos = 200\nn_neg = 800\nseed = 3\n")
        assert run("synth", "--config", cfg) == 0
        assert configured.read_bytes() == flags.read_bytes()
        params = [json.loads(tmp_path.joinpath(f"{p.name}.manifest.json").read_text())
                  ["parameters"] for p in (flags, configured)]
        assert params[0] == dict(params[1], out=str(flags))

    def test_explicit_out_beats_the_configs(self, tmp_path):
        cfg = self.config(tmp_path, f"out = {tmp_path / 'configured.csv'}\n")
        assert run(*SYNTH, "--config", cfg, "--out", tmp_path / "flag.csv") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "flag.csv", "flag.csv.manifest.json", "run.cfg"]

    @pytest.mark.parametrize("value, written", [("true", True), ("1", True), ("TRUE", True),
                                                ("false", False), ("0", False)])
    def test_switch_value(self, pipeline, tmp_path, value, written):
        cfg = self.config(tmp_path, f"roc_band = {value}\n")
        assert run("evaluate", "--model", pipeline / "model.json", "--data",
                   pipeline / "data.csv", "--out-prefix", tmp_path / "e_",
                   "--bootstrap", "100", "--seed", "1", "--config", cfg) == 0
        assert (tmp_path / "e_roc_band.csv").exists() == written
        doc = json.loads((tmp_path / "e_manifest.json").read_text())
        assert doc["parameters"]["roc_band"] is written

    def test_bad_switch_value_is_one_error_line(self, pipeline, tmp_path, capsys):
        cfg = self.config(tmp_path, "roc_band = yes\n")
        assert run("evaluate", "--model", pipeline / "model.json", "--data",
                   pipeline / "data.csv", "--out-prefix", tmp_path / "e_",
                   "--bootstrap", "100", "--seed", "1", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("pcrboost: error: ")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("name", ["absent.cfg", "."])  # missing, and a directory
    def test_unreadable_config_is_one_error_line(self, pipeline, tmp_path, capsys, name):
        capsys.readouterr()
        assert run("train", "--data", pipeline / "data.csv", "--out-model",
                   tmp_path / "m.json", "--seed", "0", "--config", tmp_path / name) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("pcrboost: error: cannot read config file")
        assert list(tmp_path.iterdir()) == []

    def test_abbreviated_flag_is_usage_error(self, pipeline, tmp_path):
        assert run("train", "--data", pipeline / "data.csv", "--out-model",
                   tmp_path / "m.json", "--seed", "0", "--num", "3") == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("line, code", [
        ("in = {csv}", 0), ("in_path = {csv}", 2), ("in = {csv}\nnum = 3", 2),
        ("in = {csv}\nconfig = {cfg}", 2)])
    def test_keys_are_full_long_flag_names(self, pipeline, tmp_path, line, code):
        other = self.config(tmp_path, "kind = roc\n", name="other.cfg")
        cfg = self.config(tmp_path, line.format(csv=pipeline / "eval_thresholds.csv",
                                                cfg=other) + "\n")
        out = tmp_path / "roc.svg"
        assert run("plot", "--kind", "roc", "--out", out, "--config", cfg) == code
        assert out.exists() == (code == 0)

    def test_repeated_config_reads_the_last(self, tmp_path, capsys):
        bogus = self.config(tmp_path, "kind = bogus\n", name="bogus.cfg")
        roc = self.config(tmp_path, "kind = roc\n", name="roc.cfg")
        argv = ["plot", "--in", tmp_path / "absent.csv", "--out", tmp_path / "o.svg"]
        assert run(*argv, "--config", bogus, "--config", roc) == 4
        capsys.readouterr()
        assert run(*argv, "--config", roc, f"--config={bogus}") == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1
        assert errors[0].startswith("pcrboost plot: error: argument --kind: invalid choice: 'bogus'")

class TestPerPatternWriters:
    """scores.csv and shap.csv against the per-record tuple writers, byte for byte."""

    @pytest.mark.parametrize("codes", [[0, 5, 77, 140, 200, 255], [42]],
                             ids=["tie_heavy", "single_pattern"])
    def test_outputs_match_per_record_writers(self, pipeline, tmp_path, codes):
        rng = np.random.default_rng(len(codes))
        X = PATTERNS[rng.choice(codes, size=700)]
        ds = Dataset(pattern_codes(X), rng.integers(0, 2, size=700, dtype=np.uint8))
        data = tmp_path / "data.csv"
        with open(data, "wb") as fh:
            save_csv(ds, fh)
        model = load_model((pipeline / "model.json").read_text())
        for command in ("predict", "explain"):
            assert run(command, "--model", pipeline / "model.json", "--data", data,
                       "--out", tmp_path / f"{command}.csv") == 0

        reference_write_scores(tmp_path / "ref_scores.csv", model.predict_proba(ds.X))
        distinct, inverse = np.unique(pattern_codes(ds.X), return_inverse=True)
        # one row sums pairwise; like `explain`, the oracle takes a lone pattern twice
        patterns = PATTERNS[distinct] if len(distinct) > 1 else PATTERNS[[distinct[0]] * 2]
        base, phis = reference_explain_matrix(model, patterns)
        reference_write_shap(tmp_path / "ref_shap.csv", ds, base, phis[inverse])
        for out, ref in (("predict.csv", "ref_scores.csv"), ("explain.csv", "ref_shap.csv")):
            assert (tmp_path / out).read_bytes() == (tmp_path / ref).read_bytes(), out


def record_blocks(path, rows_per_record: int) -> list[tuple]:
    """A per-record CSV's body as one (record_index cells, other cells) pair per record."""
    cells = [line.split(",", 1) for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    return [tuple(zip(*cells[i:i + rows_per_record]))
            for i in range(0, len(cells), rows_per_record)]


class TestRecordPermutation:
    """Permuting test.csv's records moves each record's rows with it and changes no table."""

    def test_outputs_move_with_their_records(self, pipeline, tmp_path, monkeypatch, rng):
        # the seed-1 tenth-scale quick start's test set
        monkeypatch.chdir(tmp_path)
        assert run(*quickstart_step(1, "synth", "test.csv")) == 0
        with open("test.csv", "rb") as fh:
            ds = load_csv(fh)
        perm = rng.permutation(len(ds))
        with open("permuted.csv", "wb") as fh:
            save_csv(ds.take(perm), fh)
        model = pipeline / "model.json"
        for stem in ("test", "permuted"):
            data = f"{stem}.csv"
            assert run("predict", "--model", model, "--data", data,
                       "--out", f"{stem}_scores.csv") == 0
            assert run("explain", "--model", model, "--data", data,
                       "--out", f"{stem}_shap.csv") == 0
            assert run("evaluate", "--model", model, "--data", data,
                       "--out-prefix", f"{stem}_eval_", "--bootstrap", "0") == 0
        for name in ("eval_thresholds.csv", "eval_summary.csv"):
            assert (tmp_path / f"test_{name}").read_bytes() == \
                (tmp_path / f"permuted_{name}").read_bytes(), name
        for name, rows_per_record in (("scores.csv", 1), ("shap.csv", len(FEATURE_NAMES))):
            want = record_blocks(tmp_path / f"test_{name}", rows_per_record)
            got = record_blocks(tmp_path / f"permuted_{name}", rows_per_record)
            assert len(want) == len(ds)
            assert [index for index, _ in got] == [index for index, _ in want], name
            assert [values for _, values in got] == [want[r][1] for r in perm], name


class TestBeeswarmBytes:
    """plot --kind beeswarm against the row-by-row reader and per-point renderer, byte for byte."""

    @staticmethod
    def assert_matches_oracle(shap, seed, tmp_path):
        out = tmp_path / "beeswarm.svg"
        assert run("plot", "--kind", "beeswarm", "--in", shap, "--seed", seed, "--out", out) == 0
        assert out.read_bytes() == reference_beeswarm_svg(shap, seed).encode("utf-8")

    def test_criterion_9_pipeline(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for step in PIPELINE:
            if step[0] in ("synth", "train", "explain"):
                assert run(*step) == 0, step
        (plot,) = [step for step in PIPELINE if "beeswarm" in step]
        seed = int(plot[plot.index("--seed") + 1])
        self.assert_matches_oracle(tmp_path / plot[plot.index("--in") + 1], seed, tmp_path)

    def test_quickstart_scale(self, pipeline, tmp_path, monkeypatch):
        # the seed-1 tenth-scale quick start's test set (37,912 SHAP rows) and beeswarm seed
        monkeypatch.chdir(tmp_path)
        assert run(*quickstart_step(1, "synth", "test.csv")) == 0
        plot = quickstart_step(1, "beeswarm")
        shap = tmp_path / option(plot, "--in")
        assert run("explain", "--model", pipeline / "model.json", "--data", "test.csv",
                   "--out", shap) == 0
        self.assert_matches_oracle(shap, int(option(plot, "--seed")), tmp_path)

    def test_single_pattern(self, pipeline, tmp_path):
        data = tmp_path / "data.csv"
        with open(data, "wb") as fh:
            save_csv(Dataset(pattern_codes(PATTERNS[[42] * 300]),
                             np.arange(300, dtype=np.uint8) % 2), fh)
        shap = tmp_path / "shap.csv"
        assert run("explain", "--model", pipeline / "model.json", "--data", data,
                   "--out", shap) == 0
        self.assert_matches_oracle(shap, 3, tmp_path)

    def test_tie_heavy(self, tmp_path):
        # sex_male and age_60_plus hold the same 30 values in different orders:
        # only the per-record sum ranks age_60_plus first (a count x |v| product
        # ties them). In the other strips nearly every point lands in one 4px bin,
        # so the stacks reach the strip's edge.
        near_tie = ("0.1", "0.7", "0.0003")
        lines = ["record_index,feature,feature_value,shap_value,base_value"]
        for r in range(30):
            lines.append(f"{r},sex_male,{r % 2},{near_tie[r // 10]},-1.5")
            lines.append(f"{r},age_60_plus,{r % 2},{near_tie[r % 3]},-1.5")
        for r in range(400):
            for f, name in enumerate(FEATURE_NAMES[2:5]):
                value = 2.5 if r == 0 else ("-0", "0.001", "0.0015")[(r + f) % 3]
                lines.append(f"{r},{name},{(r // 7 + f) % 2},{value},-1.5")
        shap = tmp_path / "shap.csv"
        shap.write_text("\n".join(lines) + "\n")
        self.assert_matches_oracle(shap, 11, tmp_path)
        svg = (tmp_path / "beeswarm.svg").read_text()
        assert svg.index(">age_60_plus<") < svg.index(">sex_male<")

    def test_ranking_sum_runs_left_to_right(self, tmp_path):
        # ten |0.1| summed left to right give 0.9999999999999999, below age_60_plus's
        # 1.0; the builtin sum of Python 3.12+ compensates to 1.0, a tie that schema
        # order would break for sex_male. The order must not depend on the version.
        lines = ["record_index,feature,feature_value,shap_value,base_value"]
        for r in range(10):
            lines.append(f"{r},sex_male,1,0.1,-1.5")
            lines.append(f"{r},age_60_plus,{int(r == 0)},{1.0 if r == 0 else 0.0},-1.5")
        shap = tmp_path / "shap.csv"
        shap.write_text("\n".join(lines) + "\n")
        self.assert_matches_oracle(shap, 5, tmp_path)
        svg = (tmp_path / "beeswarm.svg").read_text()
        assert svg.index(">age_60_plus<") < svg.index(">sex_male<")

    def test_plain_file_is_read_without_csv(self, pipeline, tmp_path, monkeypatch):
        # explain's output, with a blank line and no final LF, is keyed by tail, not csv-read
        shap = tmp_path / "shap.csv"
        text = (pipeline / "shap.csv").read_text().splitlines(keepends=True)
        shap.write_text("".join(text[:9] + ["\n"] + text[9:]).rstrip("\n"))
        expected = reference_beeswarm_svg(shap, 6).encode("utf-8")
        monkeypatch.setattr(formatting.csv, "reader", None)
        out = tmp_path / "beeswarm.svg"
        assert run("plot", "--kind", "beeswarm", "--in", shap, "--seed", 6, "--out", out) == 0
        assert out.read_bytes() == expected

    def test_first_two_columns_swapped(self, pipeline, tmp_path, monkeypatch):
        # feature,record_index,...: the first column not needed is the second, so each
        # record is keyed by its line without it, as the file as written is without its
        # first, and each distinct key's line is split once
        cells, split = formatting._cells, []

        def counted(line):
            split.append(line)
            return cells(line)

        monkeypatch.setattr(formatting, "_cells", counted)
        written = pipeline / "shap.csv"
        swapped = tmp_path / "shap.csv"
        text = "".join(f"{b},{a},{rest}" for a, b, rest in (
            line.split(",", 2) for line in written.read_text().splitlines(keepends=True)))
        swapped.write_text(text)
        needed = ("feature", "shap_value", "feature_value")
        with open(written, encoding="utf-8", newline="") as a, \
                open(swapped, encoding="utf-8", newline="") as b:
            as_written, got = formatting.read_table(a, needed), formatting.read_table(b, needed)
        header, rows, ids, error = got
        assert (list(header), rows, ids, error) == reference_read_table(text, needed)
        assert len(rows) == len(as_written[1]) < len(ids) and ids == as_written[2]
        assert len(split) == 2 * (1 + len(rows))  # a header and each row's line, per file
        assert cli._read_cells(swapped, needed) == cli._read_cells(written, needed)
        self.assert_matches_oracle(swapped, 7, tmp_path)
        svg = (tmp_path / "beeswarm.svg").read_bytes()
        self.assert_matches_oracle(written, 7, tmp_path)
        assert (tmp_path / "beeswarm.svg").read_bytes() == svg

    @staticmethod
    def write_shap(pipeline, path, keep):
        """The pipeline's SHAP CSV with each record's rows replaced by `keep(record, rows)`."""
        with open(pipeline / "shap.csv", encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for r in range(0, len(rows), len(FEATURE_NAMES)):
                writer.writerows(keep(r // len(FEATURE_NAMES), rows[r:r + len(FEATURE_NAMES)]))

    def test_single_feature(self, pipeline, tmp_path):
        shap = tmp_path / "shap.csv"
        self.write_shap(pipeline, shap, lambda r, rows: rows[2:3])
        self.assert_matches_oracle(shap, 8, tmp_path)
        assert 'height="{}"'.format(40 + 44 * 1 + 55) in (tmp_path / "beeswarm.svg").read_text()

    def test_features_interleaved_in_non_schema_order(self, pipeline, tmp_path):
        # the first record lists the features in `order`; each later record rotates it,
        # so every feature's rows are spread over the file between the others'
        order = [5, 2, 7, 0, 3, 6, 1, 4]
        shap = tmp_path / "shap.csv"
        self.write_shap(pipeline, shap, lambda r, rows: [
            rows[order[(i + r) % len(order)]] for i in range(len(order))])
        lines = shap.read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1:9]] == [FEATURE_NAMES[i] for i in order]
        self.assert_matches_oracle(shap, 9, tmp_path)

    def test_reordered_and_extra_columns(self, pipeline, tmp_path):
        # the middle "feature" column is junk: a repeated name reads its last column
        with open(pipeline / "shap.csv", encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        order = [3, 0, 1, 4, 2]
        shap = tmp_path / "shap.csv"
        with open(shap, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["note"] + [header[i] for i in order] + ["feature"])
            for r, row in enumerate(rows):
                cells = [f"n{r},\"q\""] + [row[i] for i in order] + [row[1]]
                cells[3] = "x"
                writer.writerow(cells + ["extra"] * (r % 3))
        self.assert_matches_oracle(shap, 5, tmp_path)


class TestSimulateBias:
    def test_variants_and_rates_table(self, pipeline, tmp_path):
        out_dir = tmp_path / "bias"
        assert run("simulate-bias", "--data", pipeline / "data.csv",
                   "--out-dir", out_dir, "--seed", "6",
                   "--fractions", "0.0,0.5,1.0") == 0
        for token in ("0.0", "0.5", "1.0"):
            assert (out_dir / f"biased_{token}.csv").exists()
        assert (out_dir / "manifest.json").exists()

        # fraction 0 keeps every record: byte-identical to the input dataset
        assert (out_dir / "biased_0.0.csv").read_bytes() == (
            pipeline / "data.csv"
        ).read_bytes()

        with open(pipeline / "data.csv", "rb") as fh:
            full = load_csv(fh)
        with open(out_dir / "biased_1.0.csv", "rb") as fh:
            drained = load_csv(fh)
        assert len(drained) < len(full)

        rows = read_rows(out_dir / "reporter_rates.csv")
        assert [r["feature"] for r in rows] == list(FEATURE_NAMES)
        header = list(rows[0].keys())
        assert header == ["feature", "input", "drop_0.0", "drop_0.5", "drop_1.0"]
        for row in rows:
            assert float(row["input"]) == float(row["drop_0.0"])

    def test_later_output_blocked_leaves_no_file(self, pipeline, tmp_path, capsys):
        # biased_0.25.csv can be written, biased_0.5.csv cannot: a directory holds its name
        out_dir = tmp_path / "sb"
        (out_dir / "biased_0.5.csv").mkdir(parents=True)
        before = sorted(out_dir.iterdir())
        capsys.readouterr()
        assert run("simulate-bias", "--data", pipeline / "data.csv",
                   "--out-dir", out_dir, "--seed", "1") == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("pcrboost: I/O error: ")
        assert sorted(out_dir.iterdir()) == before

    def test_feature_never_reported_leaves_empty_cells(self, tmp_path):
        # every pattern without cough, once per label: only cough is never reported
        cough = 1 << FEATURE_NAMES.index("cough")
        codes = np.array([c for c in range(256) if not c & cough] * 2)
        data = tmp_path / "no_cough.csv"
        with open(data, "wb") as fh:
            save_csv(Dataset(codes, np.repeat([1, 0], len(codes) // 2)), fh)
        assert run("simulate-bias", "--data", data, "--out-dir", tmp_path / "b",
                   "--seed", "1") == 0
        rows = read_rows(tmp_path / "b" / "reporter_rates.csv")
        assert [r["feature"] for r in rows] == list(FEATURE_NAMES)
        for row in rows:
            rates = [row[name] for name in ("input", "drop_0.25", "drop_0.5", "drop_0.75")]
            if row["feature"] == "cough":
                assert rates == [""] * 4
            else:
                assert all(rates), row

    def test_bad_fraction_rejected(self, pipeline, tmp_path):
        assert run("simulate-bias", "--data", pipeline / "data.csv",
                   "--out-dir", tmp_path / "b", "--seed", "1",
                   "--fractions", "0.5,1.5") == 2

    def test_repeated_fraction_rejected(self, pipeline, tmp_path):
        out_dir = tmp_path / "b"
        assert run("simulate-bias", "--data", pipeline / "data.csv",
                   "--out-dir", out_dir, "--seed", "1",
                   "--fractions", "0.5,0.25,.50") == 2
        assert not out_dir.exists()


class TestSeeds:
    COMMANDS = {
        "synth": lambda p, t: [*SYNTH[:-2], "--out", t / "d.csv"],
        "train": lambda p, t: ["train", "--data", p / "data.csv", "--out-model", t / "m.json"],
        "simulate-bias": lambda p, t: ["simulate-bias", "--data", p / "data.csv",
                                       "--out-dir", t / "bias"],
        "beeswarm": lambda p, t: ["plot", "--kind", "beeswarm", "--in", p / "shap.csv",
                                  "--out", t / "b.svg"],
        "bootstrap": lambda p, t: ["evaluate", "--model", p / "model.json", "--data",
                                   p / "data.csv", "--out-prefix", t / "e_", "--bootstrap", "100"],
    }

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_negative_seed_is_usage_error(self, pipeline, tmp_path, command, via):
        out = tmp_path / "out"
        out.mkdir()
        argv = self.COMMANDS[command](pipeline, out)
        if via == "flag":
            argv += ["--seed", "-1"]
        else:
            (tmp_path / "run.cfg").write_text("seed = -1\n")
            argv += ["--config", tmp_path / "run.cfg"]
        assert run(*argv) == 2
        assert list(out.iterdir()) == []


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert run() == 2

    @pytest.mark.parametrize("error", [MemoryError(), RecursionError("maximum recursion depth")])
    def test_out_of_memory_or_stack_is_contract_error(self, error, monkeypatch, capsys, tmp_path):
        def handler(*args):
            raise error

        monkeypatch.setitem(cli._HANDLERS, "synth", handler)
        assert run(*SYNTH, "--out", tmp_path / "x.csv") == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("pcrboost: error: ")
        assert type(error).__name__ in err and "Traceback" not in err

    def test_unknown_flag(self, tmp_path):
        assert run("synth", "--n-pos", "1", "--n-neg", "1", "--seed", "0",
                   "--out", tmp_path / "x.csv", "--bogus") == 2

    def test_missing_required_flag(self, tmp_path):
        assert run("synth", "--n-pos", "1", "--n-neg", "1", "--seed", "0") == 2

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "synth" in capsys.readouterr().out

    def test_version_exits_zero(self, capsys):
        assert run("--version") == 0
        assert "pcrboost" in capsys.readouterr().out

    def test_malformed_dataset_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run("train", "--data", bad, "--out-model", tmp_path / "m.json",
                   "--seed", "0") == 2

    def test_malformed_model_is_format_error(self, pipeline, tmp_path):
        text = (pipeline / "model.json").read_text()
        doc = json.loads(text)
        root = doc["trees"][0]
        deep = '{"value": 0.5, "cover": 1.0}'
        for _ in range(3000):
            deep = ('{"feature": 0, "cover": 2.0, "left": ' + deep
                    + ', "right": {"value": 0.1, "cover": 1.0}}')
        variants = [
            json.dumps(dict(doc, trees=[dict(root, feature=True)])),
            json.dumps(dict(doc, config=dict(doc["config"], num_rounds=True))),
            json.dumps(dict(doc, trees=[dict(root, left=dict(root))])),
            text.replace('"trees": [', '"trees": [' + deep + ", ", 1),
        ]
        bad = tmp_path / "bad.json"
        for variant in variants:
            bad.write_text(variant)
            for command in ("predict", "explain"):
                assert run(command, "--model", bad, "--data", pipeline / "data.csv",
                           "--out", tmp_path / "out.csv") == 2, (command, variant[:80])

    @pytest.mark.parametrize("trees", [None, 5, "trees", {"value": 0.5, "cover": 1.0}],
                             ids=["null", "number", "string", "object"])
    def test_trees_not_an_array_is_format_error(self, pipeline, tmp_path, capsys, trees):
        doc = json.loads((pipeline / "model.json").read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(doc, trees=trees)))
        capsys.readouterr()
        assert run("predict", "--model", bad, "--data", pipeline / "data.csv",
                   "--out", tmp_path / "out.csv") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "trees must be an array" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize("leaves, commands", [
        # finite raw scores, but the SHAP terms overflow to +inf in one tree and -inf in the other
        ([(-1e308, 1e308, 1e9, 1.0), (1e308, -1e308, 1e9, 1.0)], ["explain"]),
        # raw scores that overflow to inf
        ([(v, v, 1.0, 1.0) for v in (1e308, 1e308, -1e308, -1e308)],
         ["predict", "explain", "evaluate"]),
    ])
    def test_overflowing_model_tables_are_contract_errors(self, pipeline, tmp_path, capsys,
                                                           leaves, commands):
        # every real is finite and every cover adds up, so load_model accepts the model
        trees = [TreeNode(cover=lc + rc, feature=0, left=TreeNode(cover=lc, value=lv),
                          right=TreeNode(cover=rc, value=rv)) for lv, rv, lc, rc in leaves]
        model = tmp_path / "model.json"
        model.write_text(save_model(Model(0.0, tuple(trees), TrainConfig())))
        for command in commands:
            out = ["--out-prefix", tmp_path / "x_", "--bootstrap", "0"] \
                if command == "evaluate" else ["--out", tmp_path / "x_out.csv"]
            capsys.readouterr()
            assert run(command, "--model", model, "--data", pipeline / "data.csv", *out) == 3
            assert not list(tmp_path.glob("x_*")), command
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "non-finite" in err, command

    def test_missing_input_file_is_io_error(self, tmp_path):
        assert run("train", "--data", tmp_path / "absent.csv",
                   "--out-model", tmp_path / "m.json", "--seed", "0") == 4


# runs main() in a fresh interpreter and prints the modules it imported;
# argv[1] "no-numpy" makes any `import numpy` fail
IMPORTS_CHILD = """
import json, sys
if sys.argv[1] == "no-numpy":
    sys.modules["numpy"] = None
from pcrboost.cli import main
code = main(sys.argv[2:])
print(json.dumps(sorted(m for m, module in sys.modules.items() if module is not None)))
sys.exit(code)
"""


def imported_modules(argv, cwd, numpy=True) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", IMPORTS_CHILD, "numpy" if numpy else "no-numpy",
         *map(str, argv)],
        cwd=cwd, env=clean_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


class TestStartUp:
    """Each command imports only the layers it runs."""

    BASE = {"cli", "errors", "formatting"}
    COMMANDS = {
        "roc": (lambda p, t: ["plot", "--kind", "roc", "--in", p / "eval_thresholds.csv",
                              "--band", p / "eval_roc_band.csv", "--out", t / "roc.svg"],
                {"plots"}),
        "pr": (lambda p, t: ["plot", "--kind", "pr", "--in", p / "eval_thresholds.csv",
                             "--out", t / "pr.svg"],
               {"plots"}),
        "beeswarm": (lambda p, t: ["plot", "--kind", "beeswarm", "--in", p / "shap.csv",
                                   "--seed", "4", "--out", t / "b.svg"],
                     {"plots", "dataset"}),
        # the bundled survey marginals are package data under pcrboost/data
        "synth": (lambda p, t: [*SYNTH, "--out", t / "d.csv"], {"dataset", "data"}),
        "simulate-bias": (lambda p, t: ["simulate-bias", "--data", p / "data.csv",
                                        "--out-dir", t / "bias", "--seed", "1"],
                          {"dataset"}),
        "train": (lambda p, t: ["train", "--data", p / "data.csv", "--out-model", t / "m.json",
                                "--seed", "0", "--num-rounds", "2"],
                  {"dataset", "gbm"}),
        "predict": (lambda p, t: ["predict", "--model", p / "model.json",
                                  "--data", p / "data.csv", "--out", t / "s.csv"],
                    {"dataset", "gbm"}),
        "explain": (lambda p, t: ["explain", "--model", p / "model.json",
                                  "--data", p / "data.csv", "--out", t / "shap.csv"],
                    {"dataset", "gbm", "shap"}),
        "evaluate": (lambda p, t: ["evaluate", "--model", p / "model.json", "--data",
                                   p / "data.csv", "--out-prefix", t / "e_", "--bootstrap", "0"],
                     {"dataset", "gbm", "metrics"}),
    }

    # the curve charts format a few hundred numbers: no NumPy, and no dataclasses
    # (whose import loads inspect)
    CURVES = {"roc", "pr"}

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_imports_only_its_layers(self, pipeline, tmp_path, command):
        argv, expected = self.COMMANDS[command]
        modules = imported_modules(argv(pipeline, tmp_path), tmp_path)
        layers = {m.removeprefix("pcrboost.") for m in modules if m.startswith("pcrboost.")}
        assert layers == self.BASE | expected
        if command in self.CURVES:
            assert not {"numpy", "dataclasses"} & modules

    def test_bootstrap_loads_numpy_ma_only_with_numpy(self, pipeline, tmp_path):
        # np.quantile imports numpy.ma (12-19 ms cold); NumPy 1.x imports it with
        # numpy itself, so only a child that adds the import is a failure
        argv = ["evaluate", "--model", pipeline / "model.json", "--data", pipeline / "data.csv",
                "--out-prefix", tmp_path / "e_", "--bootstrap", "100", "--seed", "5",
                "--roc-band"]
        modules = imported_modules(argv, tmp_path)
        bare = subprocess.run(
            [sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
            env=clean_env(), capture_output=True, text=True, check=True,
        )
        assert "numpy.ma" not in modules or bare.stdout.strip() == "True"

    @pytest.mark.parametrize("kind", ["roc", "pr"])
    def test_curves_render_without_numpy(self, pipeline, tmp_path, kind):
        argv, _ = self.COMMANDS[kind]
        with_numpy, without = tmp_path / "with", tmp_path / "without"
        for out, numpy in ((with_numpy, True), (without, False)):
            out.mkdir()
            imported_modules(argv(pipeline, out), out, numpy=numpy)
        svg = f"{kind}.svg"
        assert (without / svg).read_bytes() == (with_numpy / svg).read_bytes()


# runs main() in a fresh interpreter and prints OPENBLAS_NUM_THREADS and the
# process's thread count (None where /proc is missing)
BLAS_CHILD = """
import json, os, sys
from pcrboost.cli import main
code = main(sys.argv[1:])
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), tasks]))
sys.exit(code)
"""


class TestBlasThreads:
    """A CLI process starts no OpenBLAS thread pool unless asked to; library use is untouched."""

    @staticmethod
    def child(code, argv, cwd, blas_threads=None):
        env = clean_env()
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                              cwd=cwd, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @staticmethod
    def predict(pipeline, tmp_path):
        return ["predict", "--model", pipeline / "model.json", "--data", pipeline / "data.csv",
                "--out", tmp_path / "s.csv"]

    def test_cli_process_runs_one_thread(self, pipeline, tmp_path):
        value, tasks = self.child(BLAS_CHILD, self.predict(pipeline, tmp_path), tmp_path)
        assert value == "1"
        if tasks is None:
            pytest.skip("no /proc/self/task to count threads")
        assert tasks == 1
        assert (tmp_path / "s.csv").read_bytes() == (pipeline / "scores.csv").read_bytes()

    def test_explicit_value_wins(self, pipeline, tmp_path):
        value, _ = self.child(BLAS_CHILD, self.predict(pipeline, tmp_path), tmp_path, "4")
        assert value == "4"

    def test_library_import_leaves_environment_alone(self, tmp_path):
        code = ("import json, os, pcrboost.gbm, pcrboost.shap, pcrboost.metrics\n"
                "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))")
        assert self.child(code, [], tmp_path) is None

    def test_in_process_main_leaves_environment_alone(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        assert run(*self.predict(pipeline, tmp_path)) == 0
        assert dict(os.environ) == before


class TestSingleOutputStaging:
    """train, synth, predict and explain write under a temporary name, moved into place once
    written: a write that fails part-way (a full disk) leaves no partial output and no temporary,
    and an output that existed keeps its bytes."""

    @staticmethod
    def disk_full():
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def break_writer(self, command, monkeypatch):
        """Make the command's writer write part of its output, then fail; returns the calls."""
        calls = []
        if command == "synth":
            def save_csv_part(ds, fh):
                calls.append(fh.name)
                fh.write(b"sex_male,age_60_plus\n")
                fh.flush()
                self.disk_full()

            monkeypatch.setattr(cli, "save_csv", save_csv_part)
        elif command == "train":  # train writes its text itself: fail its open file's write
            def open_part(path, mode="r", **kwargs):
                fh = open(path, mode, **kwargs)
                if "w" in mode:
                    def write(text):
                        calls.append(path)
                        type(fh).write(fh, text[:len(text) // 2])
                        fh.flush()
                        self.disk_full()

                    fh.write = write
                return fh

            monkeypatch.setattr(cli, "open", open_part, raising=False)
        else:
            def write_csv_part(path, header, rows):
                calls.append(path)
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(",".join(header) + "\n0,")
                self.disk_full()

            monkeypatch.setattr(cli, "write_csv", write_csv_part)
        return calls

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("command", ["synth", "train", "predict", "explain"])
    def test_failed_write_leaves_no_partial_file(self, pipeline, tmp_path, capsys, monkeypatch,
                                                 command, existing):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "output"
        argv = {
            "synth": [*SYNTH, "--out", out],
            "train": ["train", "--data", pipeline / "data.csv", "--out-model", out,
                      "--seed", "0", "--num-rounds", "2"],
            "predict": ["predict", "--model", pipeline / "model.json",
                        "--data", pipeline / "data.csv", "--out", out],
            "explain": ["explain", "--model", pipeline / "model.json",
                        "--data", pipeline / "data.csv", "--out", out],
        }[command]
        if existing:
            out.write_bytes(b"old bytes\n")
        calls = self.break_writer(command, monkeypatch)
        capsys.readouterr()
        assert run(*argv) == 4
        assert len(calls) == 1 and calls[0] != str(out)  # written under a temporary name
        assert capsys.readouterr().err.startswith("pcrboost: I/O error: [Errno 28]")
        assert [p.name for p in out_dir.iterdir()] == (["output"] if existing else [])
        if existing:
            assert out.read_bytes() == b"old bytes\n"


class TestManifestStaging:
    """The run manifest is staged with the outputs: a manifest write that fails part-way (a full
    disk) leaves no manifest, no new output and no temporary, and a replaced output keeps its
    bytes."""

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_failed_manifest_write_leaves_no_file(self, pipeline, tmp_path, capsys,
                                                 monkeypatch, command, existing):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv, outputs = {
            "predict": (["predict", "--model", pipeline / "model.json",
                         "--data", pipeline / "data.csv", "--out", out_dir / "scores.csv"],
                        ["scores.csv"]),
            "evaluate": (["evaluate", "--model", pipeline / "model.json",
                          "--data", pipeline / "data.csv", "--out-prefix", f"{out_dir}/eval_",
                          "--bootstrap", "0"], ["eval_summary.csv", "eval_thresholds.csv"]),
        }[command]
        if existing:
            for name in outputs:
                (out_dir / name).write_bytes(b"old bytes\n")

        def dump_part(obj, fh, **kwargs):
            fh.write('{\n  "command": ')
            fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli.json, "dump", dump_part)
        capsys.readouterr()
        assert run(*argv) == 4
        assert capsys.readouterr().err.startswith("pcrboost: I/O error: [Errno 28]")
        assert sorted(p.name for p in out_dir.iterdir()) == (outputs if existing else [])
        for name in outputs if existing else []:
            assert (out_dir / name).read_bytes() == b"old bytes\n"


class TestStagingFailures:
    """A run that fails while claiming a temporary name or moving its outputs into place leaves
    no fresh output, temporary or manifest behind, and never touches a file it did not make."""

    @staticmethod
    def evaluate(pipeline, prefix):
        return run("evaluate", "--model", pipeline / "model.json", "--data",
                   pipeline / "data.csv", "--out-prefix", prefix, "--bootstrap", "0")

    def test_taken_temporary_name_is_left_alone(self, pipeline, tmp_path, capsys):
        prefix = f"{tmp_path}/eval_"
        stranger = tmp_path / f"eval_summary.csv.{os.getpid()}.tmp"
        stranger.write_bytes(b"not ours\n")
        capsys.readouterr()
        assert self.evaluate(pipeline, prefix) == 4
        assert capsys.readouterr().err.startswith("pcrboost: I/O error: [Errno 17]")
        assert [p.name for p in tmp_path.iterdir()] == [stranger.name]
        assert stranger.read_bytes() == b"not ours\n"

    def test_failed_move_removes_every_fresh_output(self, pipeline, tmp_path, capsys,
                                                    monkeypatch):
        replace, moved = os.replace, []

        def replace_once(src, dst):
            if moved:
                raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))
            moved.append(dst)
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace_once)
        capsys.readouterr()
        assert self.evaluate(pipeline, f"{tmp_path}/eval_") == 4
        assert capsys.readouterr().err.startswith("pcrboost: I/O error: [Errno 18]")
        assert len(moved) == 1 and moved[0].startswith(f"{tmp_path}/eval_")
        assert list(tmp_path.iterdir()) == []

    def test_replaced_outputs_leave_no_link_behind(self, pipeline, tmp_path):
        prefix = f"{tmp_path}/eval_"
        assert self.evaluate(pipeline, prefix) == 0
        first = sorted(tmp_path.iterdir())
        assert self.evaluate(pipeline, prefix) == 0
        assert sorted(tmp_path.iterdir()) == first

    @pytest.mark.parametrize("existing", [("thresholds.csv", "manifest.json"),
                                          ("thresholds.csv", "summary.csv", "manifest.json")])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_failed_move_restores_every_replaced_output(self, pipeline, tmp_path, capsys,
                                                        monkeypatch, k, existing):
        # evaluate moves three files into place; the k-th move fails, after k - 1 replaced
        # their outputs, and every output that existed is put back with its old bytes
        for name in existing:
            (tmp_path / f"eval_{name}").write_bytes(f"old {name}\n".encode())
        replace, calls = os.replace, []

        def replace_kth(src, dst):
            calls.append(dst)
            if len(calls) == k:
                raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace_kth)
        capsys.readouterr()
        assert self.evaluate(pipeline, f"{tmp_path}/eval_") == 4
        assert capsys.readouterr().err.startswith("pcrboost: I/O error: [Errno 18]")
        assert len(calls) >= k
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"eval_{n}" for n in existing)
        for name in existing:
            assert (tmp_path / f"eval_{name}").read_bytes() == f"old {name}\n".encode()


class TestProcessExit:
    """A pcrboost process flushes its streams and ends with os._exit: nothing it prints is
    lost, and its exit code and outputs are those of main(), which in-process callers still
    get back as an int."""

    @staticmethod
    def child(*argv, cwd, stdout=subprocess.PIPE, code=None):
        # without PYTHONUNBUFFERED: a buffered stream that is never flushed prints nothing
        env = clean_env()
        command = ["-c", code] if code else ["-m", "pcrboost.cli"]
        return subprocess.run([sys.executable, *command, *map(str, argv)], cwd=cwd, env=env,
                              stdout=stdout, stderr=subprocess.PIPE, text=True)

    def test_version_through_a_pipe(self, tmp_path):
        proc = self.child("--version", cwd=tmp_path)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == f"pcrboost {cli.__version__}\n"

    @pytest.mark.parametrize("code, argv", [
        (2, ["synth", "--config", "absent.cfg"]),
        (3, ["evaluate", "--model", "m.json", "--data", "d.csv", "--out-prefix", "e_",
             "--bootstrap", "0", "--roc-band"]),
        (4, ["train", "--data", "absent.csv", "--out-model", "m.json", "--seed", "0"]),
    ])
    def test_error_exit_prints_one_line(self, tmp_path, code, argv):
        proc = self.child(*argv, cwd=tmp_path)
        assert proc.returncode == code
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("pcrboost: ")
        assert proc.stdout == "" and not list(tmp_path.iterdir())

    def test_predict_child_writes_the_in_process_bytes(self, pipeline, tmp_path):
        proc = self.child("predict", "--model", pipeline / "model.json",
                          "--data", pipeline / "data.csv", "--out", "scores.csv", cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert (tmp_path / "scores.csv").read_bytes() == (pipeline / "scores.csv").read_bytes()
        assert (tmp_path / "scores.csv.manifest.json").is_file()

    def test_failed_flush_exits_as_python_does(self, tmp_path):
        # a pipe with no reader: the flush raises BrokenPipeError, which Python reports as
        # it always has, when it flushes at exit (no traceback, exit 120)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.child("--version", cwd=tmp_path, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 120 and "BrokenPipeError" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_escaping_exception_is_a_traceback(self, tmp_path):
        code = ("from pcrboost import cli\n"
                "def bug(*args):\n    raise RuntimeError('bug')\n"
                "cli._HANDLERS['synth'] = bug\ncli.run()\n")
        proc = self.child(*SYNTH, "--out", "d.csv", cwd=tmp_path, code=code)
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr and "RuntimeError: bug" in proc.stderr

    def test_in_process_main_returns_its_code(self, tmp_path, capsys):
        assert type(run("--version")) is int
        assert run("train", "--data", tmp_path / "absent.csv", "--out-model",
                   tmp_path / "m.json", "--seed", "0") == 4
