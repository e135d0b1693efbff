"""auROC/auPRC, per-threshold clinical metrics, percentile bootstrap.

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
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError

# draws per bootstrap child before it is excluded from a statistic
_MAX_DRAWS = 100
# points of the FPR grid the bootstrap ROC band is reported on
_BAND_POINTS = 101
# bootstrap children spawned, drawn and summarized together
_BLOCK = 128


@dataclass(frozen=True, eq=False)
class ScoredLabels:
    """Parallel per-record scores and binary labels, plus their count table.

    The table is built once, here: `_thresholds` holds the distinct scores
    in descending order, `_tp` and `_fp` the cumulative true- and
    false-positive counts at each of them after a leading 0 (nothing
    predicted positive), and `_codes` each record's cell of that table:
    2 x (its score's index into `_thresholds`) + its label.
    """

    scores: np.ndarray
    labels: np.ndarray
    _thresholds: np.ndarray = field(init=False, repr=False)
    _tp: np.ndarray = field(init=False, repr=False)
    _fp: np.ndarray = field(init=False, repr=False)
    _codes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        scores = np.array(self.scores, dtype=np.float64, copy=True)
        labels = np.asarray(self.labels)
        if scores.ndim != 1 or scores.shape != labels.shape:
            raise ContractError("scores and labels must be equal-length vectors")
        if scores.shape[0] < 1:
            raise ContractError("need at least one record")
        if not np.isin(labels, (0, 1)).all():  # before the cast, which would make 0.5 a 0
            raise ContractError("non-binary label")
        labels = labels.astype(np.uint8)
        if not np.all(np.isfinite(scores)):
            raise ContractError("non-finite score")
        ascending, inverse = np.unique(scores, return_inverse=True)
        codes = 2 * (ascending.size - 1 - inverse.reshape(-1)) + labels
        tp, fp = _cumulate(_cell_counts(codes, ascending.size))
        table = {
            "scores": scores, "labels": labels, "_thresholds": ascending[::-1],
            "_tp": tp, "_fp": fp, "_codes": codes,
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


class ThresholdReport(NamedTuple):
    """Confusion counts and derived rates at one threshold (rule: score >= t).

    The fields are the thresholds CSV's columns, in order.
    """

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


class BootstrapCI(NamedTuple):
    """Percentile bootstrap interval around a point estimate."""

    point: float
    lo: float
    hi: float


class BootstrapResult(NamedTuple):
    """auROC and auPRC intervals, and the ROC band as (fpr_grid, tpr_lo, tpr_hi)."""

    auroc: BootstrapCI
    aupr: BootstrapCI
    roc_band: tuple[np.ndarray, np.ndarray, np.ndarray]


def _cell_counts(codes: np.ndarray, n_cells: int) -> np.ndarray:
    """(cell, label) counts of codes 2 * cell + label, as an (n_cells, 2) array."""
    return np.bincount(codes, minlength=2 * n_cells).reshape(n_cells, 2)


def _cumulate(counts: np.ndarray):
    """Cumulative (tp, fp) over the cells of (..., cells, 2) counts, each led by a 0.

    Cells run in descending score order; the leading axes, if any, index
    resamples.
    """
    cum = np.zeros(counts.shape[:-2] + (counts.shape[-2] + 1, 2), dtype=counts.dtype)
    np.cumsum(counts, axis=-2, out=cum[..., 1:, :])
    return cum[..., 1], cum[..., 0]


def _auroc(tp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Mann-Whitney auROC from cumulative counts, along the last axis.

    A positive beats every negative scored below it and ties with those at
    its score. Twice the credit is an integer, so the result equals O(n^2)
    pair counting exactly, not merely within rounding. An empty cell adds
    no credit.
    """
    n_pos, n_neg = tp[..., -1], fp[..., -1]
    credit = np.diff(tp) * (2 * (n_neg[..., None] - fp[..., 1:]) + np.diff(fp))
    return np.sum(credit, axis=-1) / 2 / (n_pos * n_neg)


def _average_precision(tp: np.ndarray, fp: np.ndarray) -> list[float]:
    """Sum of (delta recall x precision) over the non-empty cells of each row.

    tp and fp are (resamples, cells + 1) cumulative counts. Each row is
    summed by its own np.sum over its non-empty cells only, so an empty cell
    - where precision is 0/0 before the first record - changes neither the
    terms nor NumPy's pairwise summation order.
    """
    pp = tp + fp
    filled = np.diff(pp) > 0
    with np.errstate(invalid="ignore"):
        precision = tp[:, 1:] / pp[:, 1:]
    recall = tp / tp[:, -1:]
    terms = np.diff(recall) * precision
    return [float(np.sum(row[kept])) for row, kept in zip(terms, filled)]


def _percentiles(values: np.ndarray, quantiles) -> list:
    """NumPy's default ("linear") quantiles of values along axis 0.

    As np.quantile does: the virtual index (n - 1) * q, clamped to the last
    element, then a lerp between its neighbours that for t >= 0.5 counts
    back from the upper one. The result equals np.quantile(values, q,
    axis=0) bit for bit, except that where -0.0 and +0.0 tie either may be
    returned; bootstrap statistics are never -0.0. Kept here because
    np.quantile imports numpy.ma.
    """
    ordered = np.sort(values, axis=0)
    last = len(ordered) - 1
    out = []
    for q in quantiles:
        virtual = last * q
        i = math.floor(virtual)
        if i >= last:
            out.append(ordered[last])
            continue
        lo, hi, t = ordered[i], ordered[i + 1], virtual - i
        step = hi - lo
        out.append(hi - step * (1 - t) if t >= 0.5 else lo + step * t)
    return out


def auroc(sl: ScoredLabels) -> float:
    """Mann-Whitney auROC: mean pair credit (1 win, 0.5 tie), exact."""
    if sl.n_positive == 0 or sl.n_negative == 0:
        raise ContractError("single-class input")
    return float(_auroc(sl._tp, sl._fp))


def aupr(sl: ScoredLabels) -> float:
    """Average precision: sum of (delta recall x precision) over unique thresholds."""
    if sl.n_positive == 0:
        raise ContractError("no positives")
    return _average_precision(sl._tp[None], sl._fp[None])[0]


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

    Resample i draws from its own generator, seeded by child i of
    SeedSequence(seed), so results are deterministic regardless of evaluation
    order. Each child draws n record indices up to 100 times: auPRC takes its
    first draw with a positive, auROC and the band their first draw with both
    classes; a child with no such draw is excluded from that statistic.

    Children are spawned, drawn and dropped _BLOCK at a time. A round counts
    every pending child's draw into the (score, label) cells of the count
    table, one row per child, and computes the block's statistics with array
    operations over the rows; the children whose draw lacked a class draw
    again in the next round. The statistics cost O(distinct scores) per
    resample, and the generators and count tables held at once grow with the
    block, not with n_resamples.
    """
    limit = sys.maxsize // (8 * _BAND_POINTS)  # NumPy cannot size a larger band table
    if not 100 <= n_resamples <= limit:
        raise ContractError(f"n_resamples must be in [100, {limit}]")
    if not 0.0 < alpha < 1.0:
        raise ContractError("alpha must be in (0, 1)")
    if sl.n_positive == 0 or sl.n_negative == 0:
        raise ContractError("metric undefined on original sample: single-class input")
    n, n_cells = len(sl), len(sl._thresholds)
    grid = np.linspace(0.0, 1.0, _BAND_POINTS)
    parent = np.random.SeedSequence(seed)
    roc_values, pr_values = [], []
    curves = np.empty((n_resamples, _BAND_POINTS))
    for start in range(0, n_resamples, _BLOCK):
        rngs = [np.random.Generator(np.random.PCG64(child))
                for child in parent.spawn(min(_BLOCK, n_resamples - start))]
        pr_open = np.ones(len(rngs), dtype=bool)  # children still owing an auPRC value
        for _ in range(_MAX_DRAWS):
            counts = np.stack([_cell_counts(sl._codes[rng.integers(0, n, size=n)], n_cells)
                               for rng in rngs])
            tp, fp = _cumulate(counts)
            has_pos, has_neg = tp[:, -1] > 0, fp[:, -1] > 0
            pr_rows = pr_open & has_pos
            pr_values += _average_precision(tp[pr_rows], fp[pr_rows])
            done = has_pos & has_neg
            tp, fp = tp[done], fp[done]
            # an empty cell repeats the previous point, which moves no interpolated value
            for i, (fpr, tpr) in enumerate(zip(fp / fp[:, -1:], tp / tp[:, -1:]), len(roc_values)):
                curves[i] = np.interp(grid, fpr, tpr)
            roc_values += _auroc(tp, fp).tolist()
            rngs = [rng for rng, finished in zip(rngs, done.tolist()) if not finished]
            pr_open = (pr_open & ~has_pos)[~done]
            if not rngs:
                break
    if not roc_values:
        raise ContractError("metric undefined on every resample")
    quantiles = [alpha / 2.0, 1.0 - alpha / 2.0]

    def interval(point: float, values: list[float]) -> BootstrapCI:
        lo, hi = _percentiles(np.array(values), quantiles)
        return BootstrapCI(point, float(lo), float(hi))

    tpr_lo, tpr_hi = _percentiles(curves[:len(roc_values)], quantiles)
    return BootstrapResult(
        auroc=interval(auroc(sl), roc_values),
        aupr=interval(aupr(sl), pr_values),
        roc_band=(grid, tpr_lo, tpr_hi),
    )
