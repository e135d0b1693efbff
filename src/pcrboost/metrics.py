"""ROC/PR analysis, per-threshold clinical metrics, percentile bootstrap.

Every statistic is read from one count table: the distinct scores in
descending order, with the cumulative true- and false-positive counts at
each. Records with 8 binary features have at most 256 distinct scores, so
the table stays small whatever the record count. auROC follows the
Mann-Whitney convention (ties half-credited) and is computed exactly from
integer counts. auPRC is step-wise average precision over the descending
distinct scores. Undefined ratios (0/0) are NaN throughout - the
"undefined" marker - and serialize to empty CSV cells, never 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import ContractError

# draws per bootstrap child before it is excluded from a statistic
_MAX_DRAWS = 100
# points of the FPR grid the bootstrap ROC band is reported on
_BAND_POINTS = 101


@dataclass(frozen=True)
class ScoredLabels:
    """Parallel per-record scores and binary labels, plus their count table.

    The table is built once, here: `_thresholds` holds the distinct scores
    in descending order, `_tp` and `_fp` the cumulative true- and
    false-positive counts at each of them after a leading 0 (nothing
    predicted positive), and `_cells` each record's index into `_thresholds`.
    """

    scores: np.ndarray
    labels: np.ndarray
    _thresholds: np.ndarray = field(init=False, repr=False, compare=False)
    _tp: np.ndarray = field(init=False, repr=False, compare=False)
    _fp: np.ndarray = field(init=False, repr=False, compare=False)
    _cells: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scores = np.array(self.scores, dtype=np.float64, copy=True)
        labels = np.array(self.labels, dtype=np.uint8, copy=True)
        if scores.ndim != 1 or scores.shape != labels.shape:
            raise ContractError("scores and labels must be equal-length vectors")
        if scores.shape[0] < 1:
            raise ContractError("need at least one record")
        if labels.max() > 1:
            raise ContractError("non-binary label")
        if not np.all(np.isfinite(scores)):
            raise ContractError("non-finite score")
        ascending, inverse = np.unique(scores, return_inverse=True)
        cells = ascending.size - 1 - inverse.reshape(-1)
        tp, fp = _cumulate(_cell_counts(2 * cells + labels, ascending.size))
        table = {
            "scores": scores, "labels": labels, "_thresholds": ascending[::-1],
            "_tp": tp, "_fp": fp, "_cells": cells,
        }
        for name, value in table.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.scores.shape[0]

    @property
    def n_positive(self) -> int:
        return int(self._tp[-1])

    @property
    def n_negative(self) -> int:
        return int(self._fp[-1])


@dataclass(frozen=True)
class ThresholdReport:
    """Confusion counts and derived rates at one threshold (rule: score >= t)."""

    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    sensitivity: float
    specificity: float
    ppv: float
    npv: float
    fnr: float
    fpr: float
    fdr: float

    def row(self) -> tuple:
        return tuple(getattr(self, name) for name in THRESHOLD_REPORT_FIELDS)


THRESHOLD_REPORT_FIELDS = tuple(f.name for f in fields(ThresholdReport))


@dataclass(frozen=True)
class Curve:
    """ROC points are (fpr, tpr, threshold); PR points are (recall, precision, threshold)."""

    kind: str
    points: tuple[tuple[float, float, float], ...]

    def trapezoid_area(self) -> float:
        area = 0.0
        for (x0, y0, _), (x1, y1, _) in zip(self.points, self.points[1:]):
            area += 0.5 * (y0 + y1) * (x1 - x0)
        return area


@dataclass(frozen=True)
class BootstrapCI:
    """Percentile bootstrap interval around a point estimate."""

    point: float
    lo: float
    hi: float
    n_resamples: int
    alpha: float
    seed: int


class BootstrapResult(NamedTuple):
    """auROC and auPRC intervals, and the ROC band as (fpr_grid, tpr_lo, tpr_hi)."""

    auroc: BootstrapCI
    aupr: BootstrapCI
    roc_band: tuple[np.ndarray, np.ndarray, np.ndarray]


def _cell_counts(codes: np.ndarray, n_cells: int) -> np.ndarray:
    """(cell, label) counts of codes 2 * cell + label, as an (n_cells, 2) array."""
    return np.bincount(codes, minlength=2 * n_cells).reshape(n_cells, 2)


def _cumulate(counts: np.ndarray):
    """Cumulative (tp, fp) over cells in descending score order, each led by a 0."""
    tp = np.concatenate([[0], np.cumsum(counts[:, 1])])
    fp = np.concatenate([[0], np.cumsum(counts[:, 0])])
    return tp, fp


def _auroc(tp: np.ndarray, fp: np.ndarray) -> float:
    """Mann-Whitney auROC from cumulative counts.

    A positive beats every negative scored below it and ties with those at
    its score. Twice the credit is an integer, so the result equals O(n^2)
    pair counting exactly, not merely within rounding.
    """
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    twice_credit = int(np.sum(np.diff(tp) * (2 * (n_neg - fp[1:]) + np.diff(fp))))
    return (twice_credit / 2) / (n_pos * n_neg)


def _average_precision(tp: np.ndarray, fp: np.ndarray) -> float:
    """Sum of (delta recall x precision) over the descending distinct scores."""
    tp, pp = tp[1:], tp[1:] + fp[1:]
    precision = tp / pp
    recall = tp / tp[-1]
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * precision))


def _roc_points(tp: np.ndarray, fp: np.ndarray):
    """(fpr, tpr) arrays from (0, 0) through every descending distinct score."""
    return fp / fp[-1], tp / tp[-1]


def _require_both_classes(sl: ScoredLabels) -> None:
    if sl.n_positive == 0 or sl.n_negative == 0:
        raise ContractError("single-class input")


def _require_positive(sl: ScoredLabels) -> None:
    if sl.n_positive == 0:
        raise ContractError("no positives")


def auroc(sl: ScoredLabels) -> float:
    """Mann-Whitney auROC: mean pair credit (1 win, 0.5 tie), exact."""
    _require_both_classes(sl)
    return _auroc(sl._tp, sl._fp)


def aupr(sl: ScoredLabels) -> float:
    """Average precision: sum of (delta recall x precision) over unique thresholds."""
    _require_positive(sl)
    return _average_precision(sl._tp, sl._fp)


def roc_curve(sl: ScoredLabels) -> Curve:
    """(0,0) plus one (fpr, tpr, threshold) point per unique descending threshold."""
    _require_both_classes(sl)
    fpr, tpr = _roc_points(sl._tp, sl._fp)
    points = [(0.0, 0.0, math.inf)]
    points += zip(fpr[1:].tolist(), tpr[1:].tolist(), sl._thresholds.tolist())
    return Curve(kind="roc", points=tuple(points))


def pr_curve(sl: ScoredLabels) -> Curve:
    """One (recall, precision, threshold) point per unique descending threshold."""
    _require_positive(sl)
    tp, pp = sl._tp[1:], sl._tp[1:] + sl._fp[1:]
    points = zip((tp / tp[-1]).tolist(), (tp / pp).tolist(), sl._thresholds.tolist())
    return Curve(kind="pr", points=tuple(points))


def _ratio(num: int, den: int) -> float:
    return num / den if den else math.nan


def threshold_report(sl: ScoredLabels, threshold: float) -> ThresholdReport:
    """Full confusion panel at a threshold; 0/0 ratios are NaN ("undefined")."""
    # distinct scores >= threshold; a NaN threshold sorts last and admits none
    k = len(sl._thresholds) - int(
        np.searchsorted(sl._thresholds[::-1], threshold, side="left")
    )
    tp, fp = int(sl._tp[k]), int(sl._fp[k])
    fn = sl.n_positive - tp
    tn = sl.n_negative - fp
    sensitivity = _ratio(tp, tp + fn)
    specificity = _ratio(tn, tn + fp)
    ppv = _ratio(tp, tp + fp)
    npv = _ratio(tn, tn + fn)
    return ThresholdReport(
        threshold=float(threshold),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        accuracy=(tp + tn) / len(sl),
        sensitivity=sensitivity,
        specificity=specificity,
        ppv=ppv,
        npv=npv,
        fnr=1.0 - sensitivity,
        fpr=1.0 - specificity,
        fdr=1.0 - ppv,
    )


def unique_thresholds(sl: ScoredLabels) -> np.ndarray:
    """Unique score values, descending: the candidate operating points."""
    return sl._thresholds


def bootstrap(
    sl: ScoredLabels, n_resamples: int = 1000, alpha: float = 0.05, *, seed: int
) -> BootstrapResult:
    """Percentile bootstrap of auROC, auPRC and the ROC curve over paired resamples.

    Each resample has its own child seed, spawned from a SeedSequence of
    `seed`, so results are deterministic regardless of evaluation order. Each child draws n
    record indices up to 100 times: auPRC takes its first draw with a
    positive, auROC and the band their first draw with both classes; a
    child with no such draw is excluded from that statistic. A draw is
    counted into the (score, label) cells of the count table, so the
    statistics cost O(distinct scores) per resample.
    """
    if n_resamples < 100:
        raise ContractError("n_resamples must be >= 100")
    if not 0.0 < alpha < 1.0:
        raise ContractError("alpha must be in (0, 1)")
    try:
        _require_both_classes(sl)
    except ContractError as exc:
        raise ContractError(f"metric undefined on original sample: {exc}") from None
    n, n_cells = len(sl), len(sl._thresholds)
    codes = 2 * sl._cells + sl.labels
    grid = np.linspace(0.0, 1.0, _BAND_POINTS)
    roc_values, pr_values, curves = [], [], []
    for child in np.random.SeedSequence(seed).spawn(n_resamples):
        rng = np.random.Generator(np.random.PCG64(child))
        pr_found = False
        for _ in range(_MAX_DRAWS):
            counts = _cell_counts(codes[rng.integers(0, n, size=n)], n_cells)
            tp, fp = _cumulate(counts[counts.any(axis=1)])
            if tp[-1] and not pr_found:
                pr_values.append(_average_precision(tp, fp))
                pr_found = True
            if tp[-1] and fp[-1]:
                roc_values.append(_auroc(tp, fp))
                curves.append(np.interp(grid, *_roc_points(tp, fp)))
                break
    if not roc_values:
        raise ContractError("metric undefined on every resample")
    quantiles = [alpha / 2.0, 1.0 - alpha / 2.0]

    def interval(point: float, values: list[float]) -> BootstrapCI:
        lo, hi = np.quantile(values, quantiles)
        return BootstrapCI(
            point=point, lo=float(lo), hi=float(hi), n_resamples=n_resamples,
            alpha=alpha, seed=seed,
        )

    tpr_lo, tpr_hi = np.quantile(np.vstack(curves), quantiles, axis=0)
    return BootstrapResult(
        auroc=interval(_auroc(sl._tp, sl._fp), roc_values),
        aupr=interval(_average_precision(sl._tp, sl._fp), pr_values),
        roc_band=(grid, tpr_lo, tpr_hi),
    )


def threshold_for_sensitivity(sl: ScoredLabels, target: float):
    """Highest threshold whose sensitivity reaches the target, with its report."""
    return _search_threshold(sl, target, "sensitivity", descending=True)


def threshold_for_specificity(sl: ScoredLabels, target: float):
    """Lowest threshold whose specificity reaches the target, with its report."""
    return _search_threshold(sl, target, "specificity", descending=False)


def _search_threshold(sl: ScoredLabels, target: float, attr: str, descending: bool):
    if not 0.0 < target <= 1.0:
        raise ContractError("target must be in (0, 1]")
    thresholds = unique_thresholds(sl)
    if not descending:
        thresholds = thresholds[::-1]
    for t in thresholds:
        report = threshold_report(sl, float(t))
        achieved = getattr(report, attr)
        if not math.isnan(achieved) and achieved >= target:
            return float(t), report
    raise ContractError(f"target unreachable: no threshold reaches {attr} >= {target}")
