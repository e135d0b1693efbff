"""Tests of the benchmark's own machinery: percentiles, self time, output
checks and failure counting, and the span wrappers."""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run
import stats
import tracing
import workloads

run.import_program()

from pcrboost.dataset import reference_marginals, save_csv, synthesize  # noqa: E402
from pcrboost.gbm import TrainConfig, fit, save_model  # noqa: E402

N_SCORED = 240


def test_summarize_reports_tail_with_ten_samples_beyond():
    assert stats.summarize(range(100, 0, -1)) == stats.Summary(100, 50.5, 90, 90)
    assert stats.summarize(range(1000)).tail_pct == 99
    assert stats.summarize(range(20)).tail_pct is None
    assert stats.summarize(range(21)).tail_pct == 52
    assert stats.summarize([2.5]) == stats.Summary(1, 2.5, None, None)


def test_self_time_nested_and_adjacent_spans():
    S = tracing.Span
    spans = [
        S("root", "cli", 0.0, 10.0, None),
        S("a", "gbm", 1.0, 4.0, 0),      # nested: a contains b
        S("b", "shap", 2.0, 3.0, 1),
        S("c", "metrics", 4.0, 7.0, 0),  # adjacent to a
        S("d", "metrics", 7.0, 9.0, 0),  # adjacent to c
    ]
    assert tracing.self_times(spans) == [2.0, 2.0, 1.0, 3.0, 2.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_self_time_clips_children_to_parent_and_merges_overlap():
    S = tracing.Span
    spans = [S("p", "cli", 0.0, 5.0, None), S("x", "gbm", 1.0, 3.0, 0),
             S("y", "gbm", 2.0, 6.0, 0)]
    assert tracing.self_times(spans)[0] == 1.0


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A screen-shaped workload on 240 records with a 5-round model."""
    setup = tmp_path_factory.mktemp("setup")
    marginals = reference_marginals()
    with open(setup / "test.csv", "wb") as fh:
        save_csv(synthesize(marginals, 40, N_SCORED - 40, seed=5), fh)
    model = fit(synthesize(marginals, 60, 300, seed=6), TrainConfig(num_rounds=5))
    (setup / "model.json").write_text(save_model(model))
    wl = replace(workloads.screen(0), n_train=360, n_scored=N_SCORED)
    return wl, setup


def test_clean_pass_has_no_failures(tiny, tmp_path):
    wl, setup = tiny
    _, codes = run.in_process_pass(wl, setup, tmp_path / "out")
    assert codes == [0] * len(wl.timed)
    assert checks.check_pass(wl, setup, tmp_path / "out") == []


def test_truncated_output_is_charged_to_the_call_that_wrote_it(tiny, tmp_path):
    wl, setup = tiny
    out = tmp_path / "out"
    _, codes = run.in_process_pass(wl, setup, out)
    scores = out / "scores.csv"
    scores.write_bytes(scores.read_bytes()[:-7])
    failures = checks.check_pass(wl, setup, out)
    assert scores in {path for path, _ in failures}
    calls = [run.Call(s.command, 0.0, 0.0, c) for s, c in zip(wl.timed, codes)]
    assert checks.charge(failures, wl.timed, setup, out) == {0}  # predict
    assert run.failed_steps(calls, failures, wl.timed, setup, out) == 1


def test_changed_byte_between_passes_is_a_failure(tiny, tmp_path):
    wl, setup = tiny
    run.in_process_pass(wl, setup, tmp_path / "a")
    run.in_process_pass(wl, setup, tmp_path / "b")
    assert checks.compare_dirs(tmp_path / "a", tmp_path / "b") == []
    svg = tmp_path / "b" / "pr.svg"
    svg.write_bytes(svg.read_bytes().replace(b"<svg", b"<svG", 1))
    assert checks.compare_dirs(tmp_path / "a", tmp_path / "b") == [
        (svg, "differs from the same-seed reference")]


def test_nonzero_exit_is_counted_as_failure(tmp_path):
    runner = run.Runner(str(Path(run.ROOT, "src")), tmp_path / "children.log")
    ok = runner.child("ok", [sys.executable, "-c", "pass"], tmp_path)
    bad = runner.child("bad", [sys.executable, "-c", "raise SystemExit(3)"], tmp_path)
    assert (ok.exit_code, bad.exit_code) == (0, 3)
    assert bad.rss_mb > 0
    assert run.failed_steps([ok, bad], [], (), tmp_path, tmp_path) == 1


def test_traced_pass_accounts_for_its_wall_time_and_restores_wrappers(tiny, tmp_path):
    from pcrboost import cli, gbm

    wl, setup = tiny
    before = (cli.fit, cli.write_csv, gbm.Model.predict_proba)
    rec = tracing.Recorder()
    with tracing.traced(rec):
        wall, codes = run.in_process_pass(wl, setup, tmp_path / "out", rec)
    assert (cli.fit, cli.write_csv, gbm.Model.predict_proba) == before
    assert codes == [0] * len(wl.timed)
    m = tracing.layer_metrics(rec)
    self_sum = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert 0.0 <= wall - self_sum < 1e-2
    assert m["cli.calls"] == len(wl.timed)
    assert m["gbm.predict_records"] == 2 * N_SCORED  # predict and evaluate
    assert m["shap.explain_records"] == N_SCORED
    assert m["formatting.write_csv_rows"] == (
        N_SCORED + 8 * N_SCORED + m["metrics.thresholds"] + 2)
    assert m["metrics.distinct_scores"] == m["metrics.thresholds"]
    assert m["plots.render_curve_s"] > 0 and m["gbm.fit_s"] == 0
