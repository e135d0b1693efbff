"""End-to-end CLI pipeline: outputs, manifests, exit codes, config files."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from pcrboost.cli import main
from pcrboost.dataset import (
    FEATURE_NAMES,
    PATTERNS,
    Dataset,
    load_csv,
    pattern_codes,
    save_csv,
)
from pcrboost.gbm import load_model
from pcrboost.metrics import ScoredLabels, auroc
from conftest import reference_explain_matrix, reference_write_scores, reference_write_shap

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

    def test_zero_hessian_with_zero_lambda_is_contract_error(self, tmp_path, capsys):
        X = PATTERNS[:40]
        data = tmp_path / "separable.csv"
        with open(data, "wb") as fh:
            save_csv(Dataset(X, X[:, 1]), fh)
        assert run("train", "--data", data, "--out-model", tmp_path / "m.json",
                   "--seed", "0", "--l2-lambda", "0", "--learning-rate", "1",
                   "--min-samples-leaf", "1") == 3
        assert "zero hessian sum" in capsys.readouterr().err


class TestPerPatternWriters:
    """scores.csv and shap.csv against the per-record tuple writers, byte for byte."""

    @pytest.mark.parametrize("codes", [[0, 5, 77, 140, 200, 255], [42]],
                             ids=["tie_heavy", "single_pattern"])
    def test_outputs_match_per_record_writers(self, pipeline, tmp_path, codes):
        rng = np.random.default_rng(len(codes))
        X = PATTERNS[rng.choice(codes, size=700)]
        ds = Dataset(X, rng.integers(0, 2, size=700, dtype=np.uint8))
        data = tmp_path / "data.csv"
        with open(data, "wb") as fh:
            save_csv(ds, fh)
        model = load_model((pipeline / "model.json").read_text())
        for command in ("predict", "explain"):
            assert run(command, "--model", pipeline / "model.json", "--data", data,
                       "--out", tmp_path / f"{command}.csv") == 0

        reference_write_scores(tmp_path / "ref_scores.csv", model.predict_proba(ds.X))
        distinct, inverse = np.unique(pattern_codes(ds.X), return_inverse=True)
        base, phis = reference_explain_matrix(model, PATTERNS[distinct])
        reference_write_shap(tmp_path / "ref_shap.csv", ds, base, phis[inverse])
        for out, ref in (("predict.csv", "ref_scores.csv"), ("explain.csv", "ref_shap.csv")):
            assert (tmp_path / out).read_bytes() == (tmp_path / ref).read_bytes(), out


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


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert run() == 2

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

    def test_missing_input_file_is_io_error(self, tmp_path):
        assert run("train", "--data", tmp_path / "absent.csv",
                   "--out-model", tmp_path / "m.json", "--seed", "0") == 4
