"""Ranking metrics, threshold panels, curves, and bootstrap intervals."""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest

from pcrboost import metrics
from pcrboost.errors import ContractError
from pcrboost.metrics import (
    BootstrapCI,
    ScoredLabels,
    aupr,
    auroc,
    bootstrap,
    threshold_report,
    unique_thresholds,
)

from conftest import pair_count_auroc, pr_curve, reference_bootstrap, roc_curve


def step_sum_aupr(sl: ScoredLabels) -> float:
    """Scalar average-precision oracle: count tp/pp at each unique threshold."""
    thresholds = sorted(set(sl.scores.tolist()), reverse=True)
    n_pos = sl.n_positive
    ap, prev_recall = 0.0, 0.0
    for t in thresholds:
        pred = sl.scores >= t
        tp = int(np.sum(pred & (sl.labels == 1)))
        recall = tp / n_pos
        precision = tp / int(np.sum(pred))
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def tie_heavy(rng, n: int) -> ScoredLabels:
    scores = rng.integers(0, 6, size=n) / 5.0
    labels = rng.integers(0, 2, size=n).astype(np.uint8)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return ScoredLabels(scores, labels)


class TestScoredLabels:
    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            ScoredLabels(np.zeros(3), np.zeros(2, dtype=np.uint8))

    def test_empty(self):
        with pytest.raises(ContractError):
            ScoredLabels(np.zeros(0), np.zeros(0, dtype=np.uint8))

    def test_non_binary_label(self):
        with pytest.raises(ContractError):
            ScoredLabels(np.zeros(2), np.array([0, 2], dtype=np.uint8))

    @pytest.mark.parametrize("bad", [0.5, -1, 2])
    def test_label_not_zero_or_one_refused(self, bad):
        # checked before the uint8 cast, which would count 0.5 as a negative
        for labels in ([bad, 1], [0, bad]):
            with pytest.raises(ContractError, match="non-binary label"):
                ScoredLabels([0.1, 0.9], labels)

    def test_non_finite_score(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ContractError, match="non-finite"):
                ScoredLabels([0.2, bad], [1, 0])

    def test_class_counts(self):
        sl = ScoredLabels([0.1, 0.2, 0.3], [1, 0, 1])
        assert (sl.n_positive, sl.n_negative) == (2, 1)


class TestAuroc:
    def test_perfect_separation(self):
        sl = ScoredLabels([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auroc(sl) == 1.0

    def test_perfectly_wrong(self):
        sl = ScoredLabels([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1])
        assert auroc(sl) == 0.0

    def test_constant_scores_give_half(self):
        sl = ScoredLabels([0.4, 0.4, 0.4], [1, 0, 1])
        assert auroc(sl) == 0.5

    def test_hand_worked_example(self):
        sl = ScoredLabels([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert auroc(sl) == 0.75

    def test_equals_pair_counting_exactly(self, rng):
        for _ in range(100):
            sl = tie_heavy(rng, int(rng.integers(2, 201)))
            assert auroc(sl) == pair_count_auroc(sl)

    def test_monotone_transform_invariance(self, rng):
        sl = tie_heavy(rng, 80)
        shifted = ScoredLabels(3.0 * sl.scores - 2.0, sl.labels)
        assert auroc(shifted) == auroc(sl)

    def test_label_swap_complement(self, rng):
        sl = tie_heavy(rng, 60)
        flipped = ScoredLabels(sl.scores, 1 - sl.labels)
        assert abs(auroc(flipped) - (1.0 - auroc(sl))) <= 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ContractError, match="single-class"):
            auroc(ScoredLabels([0.1, 0.2], [1, 1]))


class TestAupr:
    def test_perfect_separation(self):
        sl = ScoredLabels([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert aupr(sl) == 1.0

    def test_hand_worked_example(self):
        sl = ScoredLabels([0.9, 0.8, 0.7], [1, 0, 1])
        assert abs(aupr(sl) - 5.0 / 6.0) <= 1e-15

    def test_matches_scalar_step_sum(self, rng):
        for _ in range(50):
            sl = tie_heavy(rng, int(rng.integers(2, 120)))
            assert abs(aupr(sl) - step_sum_aupr(sl)) <= 1e-12

    def test_no_positives_rejected(self):
        with pytest.raises(ContractError, match="no positives"):
            aupr(ScoredLabels([0.3, 0.4], [0, 0]))

    def test_all_positives_is_one(self):
        assert aupr(ScoredLabels([0.3, 0.4], [1, 1])) == 1.0


class TestThresholdReport:
    def test_balanced_example(self):
        sl = ScoredLabels([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0])
        rep = threshold_report(sl, 0.75)
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (1, 1, 1, 1)
        for name in ("accuracy", "sensitivity", "specificity", "ppv", "npv",
                     "fnr", "fpr", "fdr"):
            assert getattr(rep, name) == 0.5

    def test_rule_is_greater_or_equal(self):
        sl = ScoredLabels([0.5, 0.4], [1, 0])
        rep = threshold_report(sl, 0.5)
        assert (rep.tp, rep.fp) == (1, 0)

    def test_nothing_predicted_positive(self):
        sl = ScoredLabels([0.5, 0.4], [1, 0])
        rep = threshold_report(sl, 0.9)
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (0, 0, 1, 1)
        assert math.isnan(rep.ppv)
        assert math.isnan(rep.fdr)
        assert rep.sensitivity == 0.0
        assert rep.specificity == 1.0

    def test_complement_identities(self, rng):
        sl = tie_heavy(rng, 50)
        for t in unique_thresholds(sl):
            rep = threshold_report(sl, float(t))
            assert rep.fnr == 1.0 - rep.sensitivity
            assert rep.fpr == 1.0 - rep.specificity
            if math.isnan(rep.ppv):
                assert math.isnan(rep.fdr)
            else:
                assert rep.fdr == 1.0 - rep.ppv
            assert rep.tp + rep.fp + rep.tn + rep.fn == len(sl)

    def test_row_ordering(self):
        sl = ScoredLabels([0.9, 0.1], [1, 0])
        rep = threshold_report(sl, 0.5)
        row = rep.row()
        assert row[0] == 0.5
        assert row[1:5] == (1, 0, 1, 0)


class TestCurves:
    def test_roc_two_records(self):
        sl = ScoredLabels([0.8, 0.2], [1, 0])
        curve = roc_curve(sl)
        assert curve.kind == "roc"
        assert curve.points == ((0.0, 0.0, math.inf), (0.0, 1.0, 0.8), (1.0, 1.0, 0.2))

    def test_roc_collapses_tied_scores(self):
        sl = ScoredLabels([0.5, 0.5], [1, 0])
        curve = roc_curve(sl)
        assert curve.points == ((0.0, 0.0, math.inf), (1.0, 1.0, 0.5))

    def test_trapezoid_area_equals_auroc(self, rng):
        for _ in range(25):
            sl = tie_heavy(rng, int(rng.integers(2, 150)))
            assert abs(roc_curve(sl).trapezoid_area() - auroc(sl)) <= 1e-12

    def test_roc_monotone_axes(self, rng):
        sl = tie_heavy(rng, 90)
        pts = roc_curve(sl).points
        assert pts[-1][:2] == (1.0, 1.0)
        for (x0, y0, t0), (x1, y1, t1) in zip(pts, pts[1:]):
            assert x1 >= x0 and y1 >= y0 and t1 < t0

    def test_pr_recall_nondecreasing_and_ends_at_one(self, rng):
        sl = tie_heavy(rng, 90)
        pts = pr_curve(sl).points
        assert pts[-1][0] == 1.0
        for (r0, _, _), (r1, _, _) in zip(pts, pts[1:]):
            assert r1 >= r0

    def test_pr_hand_example(self):
        sl = ScoredLabels([0.9, 0.8, 0.7], [1, 0, 1])
        pts = pr_curve(sl).points
        assert pts == ((0.5, 1.0, 0.9), (0.5, 0.5, 0.8), (1.0, 2.0 / 3.0, 0.7))

    def test_unique_thresholds_descending(self):
        sl = ScoredLabels([0.2, 0.8, 0.2, 0.5], [1, 0, 1, 0])
        assert unique_thresholds(sl).tolist() == [0.8, 0.5, 0.2]


class TestBootstrapCI:
    def test_deterministic_per_seed(self, rng):
        sl = tie_heavy(rng, 120)
        a = bootstrap(sl, n_resamples=200, seed=42).auroc
        b = bootstrap(sl, n_resamples=200, seed=42).auroc
        assert a == b
        c = bootstrap(sl, n_resamples=200, seed=43).auroc
        assert (c.lo, c.hi) != (a.lo, a.hi)

    def test_interval_contains_point(self, rng):
        pos = rng.normal(1.0, 1.0, size=150)
        neg = rng.normal(0.0, 1.0, size=150)
        sl = ScoredLabels(
            np.concatenate([pos, neg]),
            np.array([1] * 150 + [0] * 150, dtype=np.uint8),
        )
        ci = bootstrap(sl, n_resamples=400, seed=7).auroc
        assert ci.lo <= ci.point <= ci.hi
        assert 0.0 <= ci.lo and ci.hi <= 1.0

    def test_width_shrinks_like_root_n(self, rng):
        def make(n):
            pos = rng.normal(1.0, 1.0, size=n // 2)
            neg = rng.normal(0.0, 1.0, size=n // 2)
            return ScoredLabels(
                np.concatenate([pos, neg]),
                np.array([1] * (n // 2) + [0] * (n // 2), dtype=np.uint8),
            )

        small = bootstrap(make(400), n_resamples=400, seed=11).auroc
        big = bootstrap(make(4000), n_resamples=400, seed=11).auroc
        ratio = (small.hi - small.lo) / (big.hi - big.lo)
        expected = math.sqrt(10.0)
        assert expected / 1.5 <= ratio <= expected * 1.5

    def test_preconditions(self, rng):
        sl = tie_heavy(rng, 40)
        with pytest.raises(ContractError, match="n_resamples"):
            bootstrap(sl, n_resamples=99, seed=0)
        # counts NumPy cannot size are refused before anything is allocated
        for n in (sys.maxsize // (8 * metrics._BAND_POINTS) + 1, sys.maxsize, 10**20):
            with pytest.raises(ContractError, match="n_resamples"):
                bootstrap(sl, n_resamples=n, seed=0)
        with pytest.raises(ContractError, match="alpha"):
            bootstrap(sl, alpha=0.0, seed=0)
        with pytest.raises(ContractError, match="alpha"):
            bootstrap(sl, alpha=1.0, seed=0)

    def test_metric_undefined_on_original(self):
        sl = ScoredLabels([0.3, 0.4], [1, 1])
        with pytest.raises(ContractError, match="undefined on original sample"):
            bootstrap(sl, seed=0)

    def test_seed_echoed(self, rng):
        sl = tie_heavy(rng, 50)
        ci = bootstrap(sl, n_resamples=150, alpha=0.1, seed=99).auroc
        assert isinstance(ci, BootstrapCI)
        assert (ci.n_resamples, ci.alpha, ci.seed) == (150, 0.1, 99)


class TestBootstrapRocBand:
    def test_shapes_and_bounds(self, rng):
        sl = tie_heavy(rng, 150)
        grid, lo, hi = bootstrap(sl, n_resamples=150, seed=3).roc_band
        assert grid.shape == lo.shape == hi.shape == (101,)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.all(lo <= hi)
        assert np.all((lo >= 0.0) & (hi <= 1.0))

    def test_deterministic_per_seed(self, rng):
        sl = tie_heavy(rng, 100)
        a = bootstrap(sl, n_resamples=120, seed=8).roc_band
        b = bootstrap(sl, n_resamples=120, seed=8).roc_band
        for left, right in zip(a, b):
            assert np.array_equal(left, right)

    def test_band_brackets_observed_curve(self, rng):
        pos = rng.normal(1.5, 1.0, size=200)
        neg = rng.normal(0.0, 1.0, size=200)
        sl = ScoredLabels(
            np.concatenate([pos, neg]),
            np.array([1] * 200 + [0] * 200, dtype=np.uint8),
        )
        grid, lo, hi = bootstrap(sl, n_resamples=300, seed=12).roc_band
        pts = roc_curve(sl).points
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        observed = np.interp(grid, xs, ys)
        # pointwise percentile bands hug the observed curve; allow slack at
        # the grid ends where interpolation is coarse
        inside = (observed >= lo - 0.05) & (observed <= hi + 0.05)
        assert np.mean(inside) >= 0.95


class TestBootstrapMatchesPerRecordReference:
    """The count-table bootstrap against the per-record loop, bit for bit."""

    @staticmethod
    def assert_matches(sl, n_resamples, seed, alpha=0.05, max_draws=100):
        got = bootstrap(sl, n_resamples=n_resamples, alpha=alpha, seed=seed)
        want = reference_bootstrap(sl, n_resamples, alpha, seed, max_draws)
        assert (got.auroc.lo, got.auroc.hi) == want.auroc
        assert (got.aupr.lo, got.aupr.hi) == want.aupr
        assert (got.auroc.point, got.aupr.point) == (auroc(sl), aupr(sl))
        for left, right in zip(got.roc_band, want.roc_band):
            assert np.array_equal(left, right)
        return want

    def test_tie_heavy_inputs(self, rng):
        for seed in range(4):
            sl = tie_heavy(rng, int(rng.integers(2, 150)))
            self.assert_matches(sl, n_resamples=150, seed=seed, alpha=0.1)

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_resample_counts_around_the_block(self, rng, extra):
        # 100, one block and one more child, two blocks and three more
        n_resamples = (100, metrics._BLOCK + 1, 2 * metrics._BLOCK + 3)[extra]
        sl = tie_heavy(rng, 90)
        want = self.assert_matches(sl, n_resamples=n_resamples, seed=extra)
        assert want.used == {"auroc": n_resamples, "aupr": n_resamples}

    @staticmethod
    def first_draws(sl, n_resamples, seed):
        """(has a positive, has a negative) of each child's first draw."""
        n, out = len(sl), []
        for child in np.random.SeedSequence(seed).spawn(n_resamples):
            labels = sl.labels[np.random.Generator(np.random.PCG64(child)).integers(0, n, size=n)]
            out.append((bool(labels.any()), not labels.all()))
        return out

    def test_all_positive_first_draws(self):
        # 12 positives and one negative: about a third of the first draws hold
        # no negative, so auPRC comes from draw 1 and auROC and the band later
        sl = ScoredLabels(np.arange(13) / 13, [1] * 6 + [0] + [1] * 6)
        n_resamples = 2 * metrics._BLOCK + 3
        want = self.assert_matches(sl, n_resamples=n_resamples, seed=5)
        assert want.used == {"auroc": n_resamples, "aupr": n_resamples}
        first = self.first_draws(sl, n_resamples, seed=5)
        assert all(pos for pos, _ in first)
        assert sum(not neg for _, neg in first) >= n_resamples // 5

    def test_all_negative_first_draws(self):
        # one positive and 12 negatives: about a third of the first draws hold
        # no positive, so every statistic of those children comes from a later round
        sl = ScoredLabels(np.arange(13) / 13, [0] * 6 + [1] + [0] * 6)
        n_resamples = 2 * metrics._BLOCK + 3
        want = self.assert_matches(sl, n_resamples=n_resamples, seed=6)
        assert want.used == {"auroc": n_resamples, "aupr": n_resamples}
        first = self.first_draws(sl, n_resamples, seed=6)
        assert all(neg for _, neg in first)
        assert sum(not pos for pos, _ in first) >= n_resamples // 5

    @pytest.mark.parametrize("alpha", [1e-6, 0.999])
    def test_extreme_alpha(self, rng, alpha):
        # 1e-6 takes the two ends of the sorted values, 0.999 two points straddling
        # the median; between them the lerp runs both of its branches
        sl = tie_heavy(rng, 70)
        self.assert_matches(sl, n_resamples=150, seed=2, alpha=alpha)

    def test_tiny_input_redraws_single_class_resamples(self):
        # an eighth of the draws of four records hold one class only
        sl = ScoredLabels([0.9, 0.4, 0.4, 0.1], [1, 0, 1, 0])
        want = self.assert_matches(sl, n_resamples=200, seed=3)
        assert want.used == {"auroc": 200, "aupr": 200}

    def test_tiny_input_excludes_children_out_of_draws(self, monkeypatch):
        # with one draw per child, all-negative draws drop out of every
        # statistic and all-positive ones out of auROC and the band only
        monkeypatch.setattr(metrics, "_MAX_DRAWS", 1)
        sl = ScoredLabels([0.9, 0.8, 0.7, 0.6, 0.5], [1, 0, 1, 0, 0])
        moved = set()
        for seed in range(4):
            want = self.assert_matches(sl, n_resamples=200, seed=seed, max_draws=1)
            assert want.used["auroc"] < want.used["aupr"] < 200
            full = reference_bootstrap(sl, 200, 0.05, seed)
            moved.update(
                name for name in ("auroc", "aupr") if getattr(want, name) != getattr(full, name)
            )
            if not all(np.array_equal(a, b) for a, b in zip(want.roc_band, full.roc_band)):
                moved.add("roc_band")
        # the exclusions move every statistic on some seed, so matching is not vacuous
        assert moved == {"auroc", "aupr", "roc_band"}


class TestPercentiles:
    """metrics._percentiles against np.quantile's default (linear) method."""

    def test_equals_numpy_bit_for_bit(self, rng):
        for _ in range(300):
            shape = (int(rng.integers(1, 400)),) + tuple(rng.integers(1, 4, size=rng.integers(0, 3)))
            values = rng.random(shape) * 10.0 ** rng.integers(-3, 4)
            if rng.random() < 0.5:  # ties, and zeros
                values = np.round(values, int(rng.integers(0, 3)))
            alpha = float(rng.random())
            quantiles = [alpha / 2.0, 1.0 - alpha / 2.0]
            got = metrics._percentiles(values, quantiles)
            want = np.quantile(values, quantiles, axis=0)
            for g, w in zip(got, want):
                assert np.asarray(g).tobytes() == w.tobytes(), (shape, alpha)

    def test_ends_and_both_lerp_branches(self):
        values = np.array([0.0, 0.1, 0.25, 0.7, 1.0])
        quantiles = [0.0, 1e-9, 0.1, 0.2, 0.2125, 0.5, 0.8, 0.9, 1.0 - 1e-16, 1.0]
        got = metrics._percentiles(values, quantiles)
        assert np.array(got).tobytes() == np.quantile(values, quantiles).tobytes()


class TestBootstrapWarnings:
    def test_no_runtime_warning(self):
        # 40 distinct scores over 40 records: most resamples leave cells empty,
        # among them the leading cells where precision is 0/0
        sl = ScoredLabels(np.arange(40) / 40, np.arange(40) % 3 == 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bootstrap(sl, n_resamples=300, seed=4)
