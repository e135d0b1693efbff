"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pcrboost.dataset import FEATURE_NAMES, N_FEATURES, Dataset, _class_totals, reference_counts
from pcrboost.errors import ContractError
from pcrboost.formatting import write_csv
from pcrboost.gbm import Model, TrainConfig, TreeNode, logistic_grad_hess, tree_values
from pcrboost.metrics import (
    ScoredLabels,
    _require_both_classes,
    _require_positive,
    _roc_points,
    aupr,
    auroc,
)
from pcrboost.shap import explain_dataset, rank_features

# Property tests replay the same examples on every run (no example database),
# and their example counts keep the whole fuzz module to a few seconds.
settings.register_profile(
    "pcrboost",
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pcrboost")


def make_dataset(rng: np.random.Generator, n: int, p_pos: float = 0.3) -> Dataset:
    """Random binary dataset with a feature-dependent label signal."""
    X = (rng.random((n, N_FEATURES)) < 0.4).astype(np.uint8)
    logits = -1.0 + 1.5 * X[:, 2] + 1.0 * X[:, 3] + 2.0 * X[:, 7] - 0.5 * X[:, 0]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits + math.log((1 - p_pos) / p_pos)))).astype(
        np.uint8
    )
    # training needs both classes; nudge degenerate draws
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return Dataset(X, y, provenance="test:random")


def from_class_counts(
    positive_true: dict[str, int], negative_true: dict[str, int], n_positive: int, n_negative: int
) -> Dataset:
    """Deterministic dataset reproducing exact per-class true counts per feature.

    Within each class block, feature f is 1 in the first positive_true[f]
    (resp. negative_true[f]) records. Feature co-occurrence is arbitrary but
    all class-conditional marginal counts are exact.
    """
    blocks = []
    for counts, n_cls in ((positive_true, n_positive), (negative_true, n_negative)):
        X = np.zeros((n_cls, N_FEATURES), dtype=np.uint8)
        for i, name in enumerate(FEATURE_NAMES):
            k = counts[name]
            if not 0 <= k <= n_cls:
                raise ContractError(f"count for {name} outside [0, {n_cls}]")
            X[:k, i] = 1
        blocks.append(X)
    X = np.concatenate(blocks, axis=0)
    y = np.concatenate(
        [np.ones(n_positive, dtype=np.uint8), np.zeros(n_negative, dtype=np.uint8)]
    )
    return Dataset(X, y, provenance="counts:exact")


def reference_dataset() -> Dataset:
    """Dataset realizing the bundled survey counts exactly (99,232 records)."""
    counts = reference_counts()
    n_pos, n_neg = _class_totals(counts)
    pos_true = {f: counts["features"][f]["true"]["positive_n"] for f in FEATURE_NAMES}
    neg_true = {f: counts["features"][f]["true"]["negative_n"] for f in FEATURE_NAMES}
    return from_class_counts(pos_true, neg_true, n_pos, n_neg)


def random_tree(rng: np.random.Generator, max_depth: int = 4, split_prob: float = 0.7) -> TreeNode:
    """Random tree with positive covers; internal cover = left + right exactly."""

    def grow(depth: int, banned: frozenset) -> TreeNode:
        if depth >= max_depth or len(banned) == N_FEATURES or rng.random() > split_prob:
            return TreeNode(cover=float(rng.uniform(0.2, 4.0)), value=float(rng.uniform(-1, 1)))
        feature = int(rng.choice([f for f in range(N_FEATURES) if f not in banned]))
        left = grow(depth + 1, banned | {feature})
        right = grow(depth + 1, banned | {feature})
        return TreeNode(cover=left.cover + right.cover, feature=feature, left=left, right=right)

    # always split the root so every random tree has at least 2 leaves
    feature = int(rng.integers(0, N_FEATURES))
    left = grow(1, frozenset({feature}))
    right = grow(1, frozenset({feature}))
    return TreeNode(cover=left.cover + right.cover, feature=feature, left=left, right=right)


def random_model(rng: np.random.Generator, n_trees: int) -> Model:
    return Model(
        base_score=float(rng.uniform(-1.5, 1.5)),
        trees=tuple(random_tree(rng) for _ in range(n_trees)),
        config=TrainConfig(),
    )


def tree_value_scalar(node: TreeNode, x) -> float:
    """Scalar routing oracle: follow 0-left/1-right to a leaf."""
    while not node.is_leaf:
        node = node.right if x[node.feature] == 1 else node.left
    return float(node.value)


def subset_value(node: TreeNode, x, coalition: frozenset) -> float:
    """Definitional path-dependent value function, one coalition at a time."""
    if node.is_leaf:
        return float(node.value)
    if node.feature in coalition:
        child = node.right if x[node.feature] == 1 else node.left
        return subset_value(child, x, coalition)
    return (
        node.left.cover * subset_value(node.left, x, coalition)
        + node.right.cover * subset_value(node.right, x, coalition)
    ) / node.cover


def scalar_shapley(model: Model, x):
    """Textbook Shapley sum over itertools subsets (slow scalar reference)."""

    def v(coalition: frozenset) -> float:
        return model.base_score + sum(subset_value(t, x, coalition) for t in model.trees)

    features = range(N_FEATURES)
    phis = np.zeros(N_FEATURES)
    for f in features:
        others = [g for g in features if g != f]
        for size in range(N_FEATURES):
            weight = (
                math.factorial(size)
                * math.factorial(N_FEATURES - size - 1)
                / math.factorial(N_FEATURES)
            )
            for combo in itertools.combinations(others, size):
                s = frozenset(combo)
                phis[f] += weight * (v(s | {f}) - v(s))
    return v(frozenset()), phis


def staged_raw(model: Model, X: np.ndarray):
    """Yield the raw scores of the rows of X after 0, 1, ..., len(trees) trees."""
    raw = np.full(X.shape[0], model.base_score, dtype=np.float64)
    yield raw.copy()
    for tree in model.trees:
        raw += tree_values(tree, X)
        yield raw.copy()


def _relative_gap(gains) -> float:
    """Relative distance between the two largest gains (inf if fewer than two)."""
    if len(gains) < 2:
        return math.inf
    first, second = sorted(gains, reverse=True)[:2]
    return (first - second) / max(abs(first), abs(second))


class _ReferenceNode:
    """Per-record node state: every valid split's gain, keyed by feature."""

    def __init__(self, idx, banned, g, h, Xb, cfg):
        self.idx = idx
        self.banned = banned
        self.feature = self.left = self.right = None
        gi, hi = g[idx], h[idx]
        self.G = float(np.sum(gi))
        self.H = float(np.sum(hi))
        lam = cfg.l2_lambda
        parent_term = self.G * self.G / (self.H + lam)
        self.gains = {}
        for f in range(N_FEATURES):
            if f in banned:
                continue
            mask = Xb[idx, f]
            n_right = int(np.sum(mask))
            if min(n_right, len(idx) - n_right) < cfg.min_samples_leaf:
                continue
            G_r, H_r = float(np.sum(gi[mask])), float(np.sum(hi[mask]))
            G_l, H_l = float(np.sum(gi[~mask])), float(np.sum(hi[~mask]))
            self.gains[f] = 0.5 * (
                G_l * G_l / (H_l + lam) + G_r * G_r / (H_r + lam) - parent_term
            ) - cfg.min_split_gain
        # max keeps the first maximum, so the lower feature index wins ties
        self.best_feature = max(self.gains, key=self.gains.get, default=None)
        self.best_gain = None if self.best_feature is None else self.gains[self.best_feature]


def _reference_tree(Xb, g, h, cfg):
    """One per-record leaf-wise tree: (root, leaf updates, narrowest gain gap)."""
    root = _ReferenceNode(np.arange(Xb.shape[0]), frozenset(), g, h, Xb, cfg)
    leaves = [root]
    gap = math.inf
    while len(leaves) < cfg.max_leaves:
        splittable = [leaf for leaf in leaves if leaf.best_gain is not None and leaf.best_gain > 0.0]
        if not splittable:
            break
        # max keeps the first maximum, so the earlier-created leaf wins ties
        best = max(splittable, key=lambda leaf: leaf.best_gain)
        gap = min(gap, _relative_gap([leaf.best_gain for leaf in splittable]),
                  _relative_gap(list(best.gains.values())))
        f = best.best_feature
        mask = Xb[best.idx, f]
        banned = best.banned | {f}
        best.feature = f
        best.left = _ReferenceNode(best.idx[~mask], banned, g, h, Xb, cfg)
        best.right = _ReferenceNode(best.idx[mask], banned, g, h, Xb, cfg)
        leaves.remove(best)
        leaves += [best.left, best.right]

    updates = []

    def finalize(node) -> TreeNode:
        if node.feature is None:
            value = -cfg.learning_rate * node.G / (node.H + cfg.l2_lambda)
            updates.append((value, node.idx))
            return TreeNode(cover=node.H, value=value)
        left, right = finalize(node.left), finalize(node.right)
        return TreeNode(cover=left.cover + right.cover, feature=node.feature,
                        left=left, right=right)

    return finalize(root), updates, gap


def reference_fit(ds: Dataset, cfg: TrainConfig):
    """Per-record trainer: every split sums g and h over the records themselves.

    Returns (model, gaps), where gaps[t] is the smallest relative distance
    between the two best candidate gains over the split decisions of tree t
    (among the splittable leaves, and among the chosen leaf's features).
    """
    n_pos = ds.n_positive
    p_bar = n_pos / len(ds)
    base_score = math.log(p_bar / (1.0 - p_bar))
    Xb = ds.X != 0
    yf = ds.y.astype(np.float64)
    raw = np.full(len(ds), base_score, dtype=np.float64)
    trees, gaps = [], []
    for _ in range(cfg.num_rounds):
        g, h = logistic_grad_hess(raw, yf)
        root, updates, gap = _reference_tree(Xb, g, h, cfg)
        for value, idx in updates:
            raw[idx] += value
        trees.append(root)
        gaps.append(gap)
    model = Model(base_score=base_score, trees=tuple(trees), config=cfg)
    return model, gaps


_N_SUBSETS = 1 << N_FEATURES
_MASKS = np.arange(_N_SUBSETS)
# Shapley weight for adding a feature to a coalition of size k
_WEIGHT = [
    math.factorial(k) * math.factorial(N_FEATURES - k - 1) / math.factorial(N_FEATURES)
    for k in range(N_FEATURES)
]


def _tree_subset_values(node: TreeNode, x: np.ndarray) -> np.ndarray:
    """v(S) of one tree for every coalition mask S, by recursive descent."""
    if node.is_leaf:
        return np.full(_N_SUBSETS, float(node.value))
    if not node.cover > 0.0:
        raise ContractError("degenerate tree cover: zero cover at an internal node")
    vals_left = _tree_subset_values(node.left, x)
    vals_right = _tree_subset_values(node.right, x)
    followed = vals_right if x[node.feature] == 1 else vals_left
    blended = (node.left.cover / node.cover) * vals_left + (
        node.right.cover / node.cover
    ) * vals_right
    return np.where((_MASKS >> node.feature) & 1 == 1, followed, blended)


def shapley_brute_force(model: Model, record):
    """Definitional Shapley oracle over all 2^8 coalitions.

    Returns (base_value, contributions). Independent of the production
    path: value functions come from recursive cover-weighted traversal and
    the combination loop applies the factorial weights term by term.
    """
    x = np.asarray(record)
    v = np.full(_N_SUBSETS, float(model.base_score))
    for tree in model.trees:
        v += _tree_subset_values(tree, x)
    phis = np.zeros(N_FEATURES)
    for mask in range(_N_SUBSETS):
        size = bin(mask).count("1")
        for f in range(N_FEATURES):
            if mask & (1 << f):
                continue
            phis[f] += _WEIGHT[size] * (v[mask | (1 << f)] - v[mask])
    return float(v[0]), phis


def _leaf_paths(root: TreeNode):
    """Yield (leaf value, path) pairs; path entries are (feature, is_right, ratio)."""
    stack = [(root, [])]
    while stack:
        node, path = stack.pop()
        if node.is_leaf:
            yield float(node.value), path
            continue
        if not node.cover > 0.0:
            raise ContractError("degenerate tree cover: zero cover at an internal node")
        left_ratio = node.left.cover / node.cover
        right_ratio = node.right.cover / node.cover
        stack.append((node.left, path + [(node.feature, 0, left_ratio)]))
        stack.append((node.right, path + [(node.feature, 1, right_ratio)]))


_BIT = [(_MASKS >> f) & 1 == 1 for f in range(N_FEATURES)]
_WITHOUT = [np.flatnonzero(~_BIT[f]) for f in range(N_FEATURES)]
_WITH = [_WITHOUT[f] | (1 << f) for f in range(N_FEATURES)]
_COEF = [np.array([_WEIGHT[bin(m).count("1")] for m in _WITHOUT[f]]) for f in range(N_FEATURES)]


def reference_explain_matrix(model: Model, X: np.ndarray):
    """Per-leaf coalition-grid attributions for distinct rows X: (base, (n,8) phis).

    Every leaf multiplies its whole root-to-leaf path over the (coalitions x
    rows) grid from a weight of ones; the per-tree Shapley combination is
    the production one, so results must agree bit for bit.
    """
    n = X.shape[0]
    phis = np.zeros((n, N_FEATURES))
    base = float(model.base_score)
    for tree in model.trees:
        v = np.zeros((_N_SUBSETS, n))
        for value, path in _leaf_paths(tree):
            w = np.ones((_N_SUBSETS, n))
            for f, is_right, ratio in path:
                agree = (X[:, f] == is_right).astype(np.float64)
                w *= np.where(_BIT[f][:, None], agree[None, :], ratio)
            v += value * w
        for f in range(N_FEATURES):
            delta = v[_WITH[f]] - v[_WITHOUT[f]]
            phis[:, f] += (_COEF[f][:, None] * delta).sum(axis=0)
        base += float(v[0, 0])
    return base, phis


class RankedFeature(NamedTuple):
    feature: str
    mean_abs_shap: float


class BeeswarmPoint(NamedTuple):
    feature: str
    shap_value: float
    feature_value: int


def _mean_abs(phis: np.ndarray) -> dict[str, float]:
    means = np.abs(phis).mean(axis=0)
    return {name: float(means[i]) for i, name in enumerate(FEATURE_NAMES)}


def mean_abs_shap(model: Model, ds: Dataset) -> list[RankedFeature]:
    """Per-feature mean |phi| over the dataset, descending; schema-index ties."""
    _, phis = explain_dataset(model, ds)
    means = _mean_abs(phis)
    return [RankedFeature(name, means[name]) for name in rank_features(means)]


def beeswarm_points(model: Model, ds: Dataset) -> list[BeeswarmPoint]:
    """One (feature, shap_value, feature_value) triple per record x feature.

    Triples are grouped by feature in mean-abs-SHAP ranking order, records
    in dataset order within each group; consumed by the beeswarm plot.
    """
    _, phis = explain_dataset(model, ds)
    points = []
    for name in rank_features(_mean_abs(phis)):
        i = FEATURE_NAMES.index(name)
        for r in range(len(ds)):
            points.append(
                BeeswarmPoint(name, float(phis[r, i]), int(ds.X[r, i]))
            )
    return points


def reference_write_scores(path, scores) -> None:
    """scores.csv as one (record_index, score) tuple per record."""
    write_csv(path, ["record_index", "score"], [(i, float(s)) for i, s in enumerate(scores)])


def reference_write_shap(path, ds: Dataset, base_value: float, phis: np.ndarray) -> None:
    """shap.csv as one tuple per record and feature, record-major."""
    rows = []
    for r in range(len(ds)):
        for i, name in enumerate(FEATURE_NAMES):
            rows.append((r, name, int(ds.X[r, i]), float(phis[r, i]), base_value))
    write_csv(
        path,
        ["record_index", "feature", "feature_value", "shap_value", "base_value"],
        rows,
    )


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


def pair_count_auroc(sl) -> float:
    """O(n^2) oracle: mean positive-over-negative pair credit, ties half-credited."""
    pos = sl.scores[sl.labels == 1]
    neg = sl.scores[sl.labels == 0]
    credit = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                credit += 1.0
            elif sp == sn:
                credit += 0.5
    return credit / (len(pos) * len(neg))


def _per_record_values(statistic, sl, n_resamples: int, seed: int, max_draws: int):
    """One statistic value per child of SeedSequence(seed).spawn(n_resamples).

    Each child draws up to max_draws index vectors, rebuilds each as a
    ScoredLabels and keeps the statistic of the first one on which it is
    defined; a child that finds none is excluded.
    """
    n = len(sl)
    values = []
    for child in np.random.SeedSequence(seed).spawn(n_resamples):
        rng = np.random.Generator(np.random.PCG64(child))
        for _ in range(max_draws):
            idx = rng.integers(0, n, size=n)
            try:
                values.append(statistic(ScoredLabels(sl.scores[idx], sl.labels[idx])))
                break
            except ContractError:
                continue
    return values


def reference_bootstrap(sl, n_resamples: int, alpha: float, seed: int, max_draws: int = 100):
    """Per-record reference for metrics.bootstrap: one pass per statistic.

    auroc and aupr are (lo, hi) percentile intervals, roc_band is
    (fpr_grid, tpr_lo, tpr_hi) on 101 points, and used counts the
    resamples kept per statistic.
    """
    grid = np.linspace(0.0, 1.0, 101)

    def roc_on_grid(resample):
        points = roc_curve(resample).points
        return np.interp(grid, [p[0] for p in points], [p[1] for p in points])

    quantiles = [alpha / 2.0, 1.0 - alpha / 2.0]
    out = SimpleNamespace(used={})
    for name, metric in (("auroc", auroc), ("aupr", aupr)):
        values = _per_record_values(metric, sl, n_resamples, seed, max_draws)
        lo, hi = np.quantile(values, quantiles)
        setattr(out, name, (float(lo), float(hi)))
        out.used[name] = len(values)
    curves = np.vstack(_per_record_values(roc_on_grid, sl, n_resamples, seed, max_draws))
    out.roc_band = (
        grid,
        np.quantile(curves, quantiles[0], axis=0),
        np.quantile(curves, quantiles[1], axis=0),
    )
    return out


def assert_local_accuracy(model: Model, explanation, record, tol: float = 1e-9) -> None:
    total = explanation.base_value + float(np.sum(explanation.contributions))
    assert abs(total - model.predict_raw(record)) <= tol


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" in nodeid and "::" in nodeid:
                name = nodeid.split("::", 1)[1]
                verdict = "PASS" if outcome == "passed" else "FAIL"
                lines.append((name, verdict))
    if lines:
        terminalreporter.section("acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict}  {name}")
