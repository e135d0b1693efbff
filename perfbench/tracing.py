"""In-process span recorder for the traced pass.

The recorder wraps the layer entry points that ``pcrboost.cli`` imports, plus
``gbm.Model.predict_proba``, so every call into a layer becomes a span named
after the function and tagged with its module (the layer). Counts are taken at
the same boundaries. Nothing under ``src/`` is modified: the wrappers are
installed for the duration of a ``with traced(recorder):`` block and removed
afterwards.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = ("cli", "dataset", "gbm", "shap", "metrics", "plots", "formatting")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._deferred: list[tuple[str, object]] = []
        self._stack: list[int] = []

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    def add_later(self, key: str, thunk) -> None:
        """Count something costly (distinct rows, cells) after the pass, so the
        counting does not land inside any span."""
        self._deferred.append((key, thunk))

    def settle(self) -> None:
        for key, thunk in self._deferred:
            self.counts[key] += thunk()
        self._deferred.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    direct children (children merged, clipped to the parent)."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo, hi = max(spans[c].start, cursor), min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def _distinct_rows(X) -> int:
    return int(np.unique(np.asarray(X), axis=0).shape[0])


def _count_load_csv(rec, args, kwargs, ds):
    rec.add("dataset.load_csv_records", len(ds))


def _count_save_csv(rec, args, kwargs, result):
    rec.add("dataset.save_csv_bytes", args[1].tell())


def _count_fit(rec, args, kwargs, model):
    ds = args[0]
    rec.add("gbm.fit_records", len(ds))
    rec.add_later("gbm.fit_cells",
                  lambda: _distinct_rows(np.column_stack([ds.X, ds.y])))
    rec.add("gbm.trees", len(model.trees))
    rec.add("gbm.leaves", sum(tree.n_leaves() for tree in model.trees))


def _count_predict(rec, args, kwargs, scores):
    X = np.asarray(args[1])
    rec.add("gbm.predict_records", X.shape[0] if X.ndim == 2 else 1)
    rec.add_later("gbm.predict_distinct_rows",
                  lambda: _distinct_rows(X.reshape(-1, X.shape[-1])))


def _count_save_model(rec, args, kwargs, text):
    rec.counts["gbm.model_bytes"] = max(rec.counts["gbm.model_bytes"], len(text))


def _count_load_model(rec, args, kwargs, model):
    rec.counts["gbm.model_bytes"] = max(rec.counts["gbm.model_bytes"], len(args[0]))


def _count_explain(rec, args, kwargs, result):
    ds = args[1]
    rec.add("shap.explain_records", len(ds))
    rec.add_later("shap.explain_distinct_rows", lambda: _distinct_rows(ds.X))


def _count_threshold(rec, args, kwargs, report):
    rec.add("metrics.thresholds", 1)


def _count_unique_thresholds(rec, args, kwargs, thresholds):
    rec.add("metrics.records", len(args[0]))
    rec.add("metrics.distinct_scores", len(thresholds))


def _count_bootstrap(rec, args, kwargs, result):
    # bootstrap_ci(metric, sl, n_resamples, ...) / bootstrap_roc_band(sl, n_resamples, ...)
    pos = 2 if callable(args[0]) else 1
    n = args[pos] if len(args) > pos else kwargs.get("n_resamples", 1000)
    rec.add("metrics.resamples", n)


def _count_write_csv(rec, args, kwargs, result):
    rec.add("formatting.write_csv_rows", len(args[2]))
    rec.add("formatting.write_csv_bytes", os.path.getsize(args[0]))


def _count_curve(rec, args, kwargs, svg):
    rec.add("plots.svg_bytes", len(svg))


def _count_beeswarm(rec, args, kwargs, svg):
    rec.add("plots.beeswarm_circles", len(args[0]))
    rec.add("plots.svg_bytes", len(svg))


# names that pcrboost.cli imports from its layers -> (layer, counter)
CLI_IMPORTS = {
    "load_csv": ("dataset", _count_load_csv),
    "save_csv": ("dataset", _count_save_csv),
    "Dataset": ("dataset", None),
    "synthesize": ("dataset", None),
    "reference_marginals": ("dataset", None),
    "marginals_from": ("dataset", None),
    "simulate_bias": ("dataset", None),
    "reporter_positive_rate": ("dataset", None),
    "fit": ("gbm", _count_fit),
    "save_model": ("gbm", _count_save_model),
    "load_model": ("gbm", _count_load_model),
    "explain_dataset": ("shap", _count_explain),
    "ScoredLabels": ("metrics", None),
    "threshold_report": ("metrics", _count_threshold),
    "unique_thresholds": ("metrics", _count_unique_thresholds),
    "auroc": ("metrics", None),
    "aupr": ("metrics", None),
    "bootstrap_ci": ("metrics", _count_bootstrap),
    "bootstrap_roc_band": ("metrics", _count_bootstrap),
    "render_curve_svg": ("plots", _count_curve),
    "render_beeswarm_svg": ("plots", _count_beeswarm),
    "write_csv": ("formatting", _count_write_csv),
}


def _wrap(rec: Recorder, layer: str, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.call(layer, name, fn, *args, **kwargs)
        if counter is not None:
            counter(rec, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def traced(rec: Recorder):
    """Install span wrappers on pcrboost.cli's layer imports and on
    Model.predict_proba; restore the originals on exit."""
    from pcrboost import cli, gbm

    saved = []
    try:
        for name, (layer, counter) in CLI_IMPORTS.items():
            if hasattr(cli, name):
                saved.append((cli, name, getattr(cli, name)))
                setattr(cli, name, _wrap(rec, layer, name, getattr(cli, name), counter))
        saved.append((gbm.Model, "predict_proba", gbm.Model.predict_proba))
        gbm.Model.predict_proba = _wrap(rec, "gbm", "predict_proba",
                                        gbm.Model.predict_proba, _count_predict)
        yield rec
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _outer_total(spans: list[Span], names: set[str]) -> float:
    """Summed duration of spans with one of `names` and no such ancestor."""
    total = 0.0
    for span in spans:
        p = span.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if span.name in names and p is None:
            total += span.end - span.start
    return total


# per-layer timing metrics -> the span names they total
SPAN_TOTALS = {
    "dataset.load_csv_s": {"load_csv"},
    "dataset.save_csv_s": {"save_csv"},
    "gbm.fit_s": {"fit"},
    "gbm.predict_s": {"predict_proba"},
    "gbm.load_model_s": {"load_model"},
    "gbm.save_model_s": {"save_model"},
    "shap.explain_s": {"explain_dataset"},
    "metrics.threshold_table_s": {"threshold_report", "unique_thresholds"},
    "metrics.bootstrap_ci_s": {"bootstrap_ci"},
    "metrics.roc_band_s": {"bootstrap_roc_band"},
    "plots.render_curve_s": {"render_curve_svg"},
    "plots.render_beeswarm_s": {"render_beeswarm_svg"},
    "formatting.write_csv_s": {"write_csv"},
}

COUNT_KEYS = (
    "cli.calls",
    "dataset.load_csv_records", "dataset.save_csv_bytes",
    "gbm.fit_records", "gbm.fit_cells", "gbm.trees", "gbm.leaves",
    "gbm.predict_records", "gbm.predict_distinct_rows", "gbm.model_bytes",
    "shap.explain_records", "shap.explain_distinct_rows",
    "metrics.thresholds", "metrics.resamples", "metrics.records",
    "metrics.distinct_scores",
    "plots.beeswarm_circles", "plots.svg_bytes",
    "formatting.write_csv_rows", "formatting.write_csv_bytes",
)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Self time per layer, span totals per entry point, and the counters."""
    rec.settle()
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span, own in zip(rec.spans, self_times(rec.spans)):
        out[f"{span.layer}.self_s"] += own
    for key, names in SPAN_TOTALS.items():
        out[key] = _outer_total(rec.spans, names)
    rec.counts["cli.calls"] = sum(1 for s in rec.spans if s.parent is None)
    for key in COUNT_KEYS:
        out[key] = rec.counts[key]
    return out
