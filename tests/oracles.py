"""The suite's oracles and test-data makers. An oracle is a plain, slower implementation that
must match bit for bit or byte for byte, unless its test gives a tolerance. Each oracle's
docstring opens with the `src/` function, or the NumPy method `src/` calls, that it pins
(`test_docs` checks that the name exists). Only NumPy and pcrboost are imported: no pytest,
no hypothesis."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import re
import shlex
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

import pcrboost
from pcrboost.dataset import (
    CSV_HEADER,
    FEATURE_NAMES,
    N_FEATURES,
    SYMPTOM_FEATURES,
    Dataset,
    MarginalTable,
    pattern_codes,
    reference_counts,
    reference_marginals,
    synthesize,
)
from pcrboost.errors import ContractError, DataFormatError
from pcrboost.formatting import fmt_real, write_csv
from pcrboost.gbm import (
    _CONFIG_FIELDS,
    FORMAT_VERSION,
    Model,
    TrainConfig,
    TreeNode,
    logistic_grad_hess,
)
from pcrboost.metrics import (
    ScoredLabels,
    aupr,
    auroc,
)
from pcrboost.plots import (
    _AXIS,
    _CURVE_W,
    _GRID,
    _MB,
    _ML,
    _MR,
    _MT,
    _STRIP_H,
    _VALUE_COLORS,
    _f,
    _svg_open,
    _text,
    render_curve_svg,
)
from pcrboost.shap import explain_dataset


def make_dataset(rng: np.random.Generator, n: int, p_pos: float = 0.3) -> Dataset:
    """`dataset.Dataset`: random binary records with a feature-dependent label signal."""
    X = (rng.random((n, N_FEATURES)) < 0.4).astype(np.uint8)
    logits = -1.0 + 1.5 * X[:, 2] + 1.0 * X[:, 3] + 2.0 * X[:, 7] - 0.5 * X[:, 0]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits + math.log((1 - p_pos) / p_pos)))).astype(
        np.uint8
    )
    # training needs both classes; nudge degenerate draws
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return Dataset(pattern_codes(X), y)


def from_class_counts(
    positive_true: dict[str, int], negative_true: dict[str, int], n_positive: int, n_negative: int
) -> Dataset:
    """`dataset.Dataset` with exact per-class true counts per feature: within each class
    block, feature f is 1 in the first positive_true[f] (resp. negative_true[f]) records."""
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
    return Dataset(pattern_codes(X), y)


def reference_dataset() -> Dataset:
    """`dataset.reference_counts` realized exactly as a Dataset (99,232 records)."""
    counts = reference_counts()
    sex = counts["features"]["sex_male"]  # the class totals, as dataset.reference_marginals
    n_pos = sex["true"]["positive_n"] + sex["false"]["positive_n"]
    n_neg = sex["true"]["negative_n"] + sex["false"]["negative_n"]
    pos_true = {f: counts["features"][f]["true"]["positive_n"] for f in FEATURE_NAMES}
    neg_true = {f: counts["features"][f]["true"]["negative_n"] for f in FEATURE_NAMES}
    return from_class_counts(pos_true, neg_true, n_pos, n_neg)


def random_tree(rng: np.random.Generator, max_depth: int = 4, split_prob: float = 0.7) -> TreeNode:
    """`gbm.TreeNode`: a random tree with positive covers; internal cover = left + right."""

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
    """`gbm.Model`: a random base score and n_trees random trees."""
    return Model(
        base_score=float(rng.uniform(-1.5, 1.5)),
        trees=tuple(random_tree(rng) for _ in range(n_trees)),
        config=TrainConfig(),
    )


def _emit_json(obj) -> str:
    # a generic fixed-order emitter: json.dumps would write shortest-round-trip floats
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_emit_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit_json(v) for v in obj) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool) or obj is None:
        raise TypeError("unexpected value in model document")
    if isinstance(obj, int):
        return str(obj)
    if not math.isfinite(obj):
        raise ContractError("non-finite real in model document")
    return fmt_real(obj)


def _node_doc(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"value": float(node.value), "cover": float(node.cover)}
    return {
        "feature": int(node.feature),
        "cover": float(node.cover),
        "left": _node_doc(node.left),
        "right": _node_doc(node.right),
    }


def reference_save_model(model: Model) -> str:
    """`gbm.save_model`: the model document built as nested dicts, then emitted."""
    cfg = model.config
    doc = {
        "format_version": FORMAT_VERSION,
        "schema": list(FEATURE_NAMES),
        "base_score": float(model.base_score),
        "config": {name: getattr(cfg, name) for name in _CONFIG_FIELDS},
        "trees": [_node_doc(t) for t in model.trees],
    }
    return _emit_json(doc) + "\n"


def tree_value_scalar(node: TreeNode, x) -> float:
    """`gbm.Model.predict_raw`'s routing for one record: follow 0-left/1-right to a leaf."""
    while not node.is_leaf:
        node = node.right if x[node.feature] == 1 else node.left
    return float(node.value)


def subset_value(node: TreeNode, x, coalition: frozenset) -> float:
    """`shap.explain`'s path-dependent value function by definition, one coalition at a time."""
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
    """`shap.explain`: the textbook Shapley sum over itertools subsets (slow, scalar)."""

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


def tree_values(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """`gbm._leaf_rows`: the leaf value each row of X reaches under 0-left/1-right routing
    (`_leaf_rows` reads the same values off each leaf's partial assignment)."""
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = node.value
        else:
            right = X[idx, node.feature] == 1
            stack.append((node.left, idx[~right]))
            stack.append((node.right, idx[right]))
    return out


def staged_raw(model: Model, X: np.ndarray):
    """`gbm.fit` round by round: the raw scores of X's rows after 0, 1, ..., len(trees) trees."""
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
    """`gbm.fit` per record: every split sums g and h over the records themselves.

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
    """`shap.explain`: the definitional Shapley value over all 2^8 coalitions.

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
    """`shap._phi_table` by per-leaf coalition grids, for distinct rows X: (base, (n,8) phis).

    Every leaf multiplies its whole root-to-leaf path over the (coalitions x
    rows) grid from a weight of ones, and each tree's Shapley combination
    sums the weighted differences of grid cells in mask order. Production
    reads the same cells from its 3^8 value lattice and takes the same
    differences, weights and sums, so results must agree bit for bit.
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


def explain_records(model: Model, ds: Dataset):
    """`shap.explain_dataset`'s 256-pattern table read by `ds.codes`: (base, (n,8) phis)."""
    base, phis = explain_dataset(model, ds)
    return base, phis[ds.codes]


def mean_abs_shap(model: Model, ds: Dataset) -> list[RankedFeature]:
    """`cli._beeswarm_strips`' ranking of the features by mean |phi| over ds: descending,
    schema-index ties."""
    _, phis = explain_records(model, ds)
    means = _mean_abs(phis)
    ranked = sorted(means, key=lambda name: (-means[name], FEATURE_NAMES.index(name)))
    return [RankedFeature(name, means[name]) for name in ranked]


def beeswarm_points(model: Model, ds: Dataset) -> list[BeeswarmPoint]:
    """`plots.beeswarm_svg_parts`' points: one (feature, shap_value, feature_value) triple per
    record x feature, by feature in the beeswarm's ranking (`cli._beeswarm_strips`: mean |SHAP|
    descending, schema-index ties), records in dataset order."""
    _, phis = explain_records(model, ds)
    means = _mean_abs(phis)
    points = []
    for name in sorted(means, key=lambda name: (-means[name], FEATURE_NAMES.index(name))):
        i = FEATURE_NAMES.index(name)
        for r in range(len(ds)):
            points.append(
                BeeswarmPoint(name, float(phis[r, i]), int(ds.X[r, i]))
            )
    return points


def beeswarm_strips(points) -> list[tuple[str, list[float], list[int]]]:
    """`plots.beeswarm_svg_parts`' (feature, shap_values, feature_values) strips from point
    triples: one per feature in order of first appearance, points in input order."""
    strips: dict[str, tuple[list[float], list[int]]] = {}
    for feature, shap_value, feature_value in points:
        values, cells = strips.setdefault(feature, ([], []))
        values.append(shap_value)
        cells.append(feature_value)
    return [(feature, *strip) for feature, strip in strips.items()]


def reference_write_scores(path, scores) -> None:
    """`cli.cmd_predict`'s scores.csv as one (record_index, score) tuple per record."""
    write_csv(path, ["record_index", "score"], [(i, float(s)) for i, s in enumerate(scores)])


def reference_write_shap(path, ds: Dataset, base_value: float, phis: np.ndarray) -> None:
    """`cli.cmd_explain`'s shap.csv as one tuple per record and feature, record-major."""
    rows = []
    for r in range(len(ds)):
        for i, name in enumerate(FEATURE_NAMES):
            rows.append((r, name, int(ds.X[r, i]), float(phis[r, i]), base_value))
    write_csv(
        path,
        ["record_index", "feature", "feature_value", "shap_value", "base_value"],
        rows,
    )


def reference_render_beeswarm_svg(points, *, seed: int) -> str:
    """`plots.beeswarm_svg_parts` drawn one point at a time, one scalar jitter draw per point."""
    if not points:
        raise ContractError("no beeswarm points")
    features: list[str] = []
    grouped: dict[str, list[tuple[float, int]]] = {}
    for feature, shap_value, feature_value in points:
        if feature not in grouped:
            features.append(feature)
            grouped[feature] = []
        grouped[feature].append((float(shap_value), int(feature_value)))

    height = _MT + _STRIP_H * len(features) + _MB
    values = [v for feature in features for v, _ in grouped[feature]]
    span = max(max(abs(v) for v in values), 1e-12)
    lo, hi = -1.08 * span, 1.08 * span
    px = lambda x: _ML + (x - lo) / (hi - lo) * (_CURVE_W - _ML - _MR)

    rng = np.random.Generator(np.random.PCG64(seed))
    parts = [_svg_open(_CURVE_W, height)]
    parts.append(_text(_CURVE_W / 2, 22, "SHAP beeswarm", size=14))
    zero_x = px(0.0)
    parts.append(
        f'<line x1="{_f(zero_x)}" y1="{_MT}" x2="{_f(zero_x)}" '
        f'y2="{height - _MB}" stroke="{_GRID}" stroke-width="1"/>'
    )
    legend_x = _CURVE_W - _MR - 150
    for value, dx in ((0, 0), (1, 60)):
        parts.append(
            f'<rect x="{legend_x + dx - 4}" y="{_MT - 18}" width="8" height="8" '
            f'fill="{_VALUE_COLORS[value]}"/>'
        )
        parts.append(_text(legend_x + dx + 10, _MT - 10, f"value {value}", anchor="start", size=11))

    for strip, feature in enumerate(features):
        cy = _MT + _STRIP_H * (strip + 0.5)
        parts.append(_text(_ML - 8, cy + 4, feature, anchor="end", size=11))
        bins: dict[int, int] = {}
        max_off = _STRIP_H / 2 - 4
        for shap_value, feature_value in grouped[feature]:
            x = px(shap_value)
            b = int(x // 4)
            k = bins.get(b, 0)
            bins[b] = k + 1
            step = (k + 1) // 2 * 5.0
            off = step if k % 2 == 1 else -step
            off = max(-max_off, min(max_off, off + rng.uniform(-1.2, 1.2)))
            parts.append(
                f'<circle cx="{_f(x)}" cy="{_f(cy + off)}" r="2.4" '
                f'fill="{_VALUE_COLORS.get(feature_value, _AXIS)}" fill-opacity="0.8"/>'
            )
    parts.append(
        _text((_ML + _CURVE_W - _MR) / 2, height - 12, "SHAP value (log-odds)")
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _read_table(path: str, required: set[str]) -> list[dict]:
    import csv as _csv

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = _csv.DictReader(fh)
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise DataFormatError(f"malformed input CSV: need columns {sorted(required)}")
            return list(reader)
    except _csv.Error as exc:
        raise DataFormatError(f"malformed input CSV: {exc}") from None
    except UnicodeDecodeError:
        raise DataFormatError("malformed input CSV: not UTF-8 text") from None


def _float_cell(row: dict, key: str) -> float:
    try:
        value = float(row[key])
    except (TypeError, ValueError):
        value = math.nan
    # rates lie in [0, 1]; SHAP values must stay far enough inside the
    # float range for the beeswarm's axis span to be finite
    lo, hi = (-1e300, 1e300) if key == "shap_value" else (0.0, 1.0)
    if not lo <= value <= hi:  # false for NaN too
        raise DataFormatError(f"malformed input CSV: bad {key} value {row[key]!r}")
    return value


def reference_curve_svg(path, kind: str, band_path=None) -> str:
    """`cli.cmd_plot` --kind roc|pr on a thresholds CSV (and a ROC band CSV) read row by
    row through csv.DictReader."""
    rows = _read_table(str(path), {"sensitivity", "fpr", "ppv"})
    if kind == "roc":
        if not rows:
            raise DataFormatError("malformed input CSV: no threshold rows")
        points = [(0.0, 0.0)]
        points += [(_float_cell(r, "fpr"), _float_cell(r, "sensitivity")) for r in rows]
        band = None
        if band_path:
            band_rows = _read_table(str(band_path), {"fpr", "tpr_lo", "tpr_hi"})
            if not band_rows:
                raise DataFormatError("malformed input CSV: no ROC band rows")
            band = (
                [_float_cell(r, "fpr") for r in band_rows],
                [_float_cell(r, "tpr_lo") for r in band_rows],
                [_float_cell(r, "tpr_hi") for r in band_rows],
            )
        return render_curve_svg(points, kind="roc", band=band)
    points = []
    for r in rows:
        if r["ppv"] == "":
            continue
        points.append((_float_cell(r, "sensitivity"), _float_cell(r, "ppv")))
    if not points:
        raise DataFormatError("malformed input CSV: no defined precision values")
    return render_curve_svg(points, kind="pr")


def reference_beeswarm_svg(path, seed: int) -> str:
    """`cli.cmd_plot` --kind beeswarm on a SHAP CSV read row by row through csv.DictReader,
    features in the beeswarm's ranking: mean |SHAP| descending, schema-index ties."""
    rows = _read_table(str(path), {"feature", "shap_value", "feature_value"})
    if not rows:
        raise DataFormatError("malformed input CSV: no SHAP rows")
    by_feature: dict[str, list[tuple[float, int]]] = {}
    for row in rows:
        name = row["feature"]
        if name not in FEATURE_NAMES:
            raise DataFormatError(f"malformed input CSV: unknown feature {name!r}")
        value = _float_cell(row, "shap_value")
        cell = row["feature_value"]
        if cell not in ("0", "1"):
            raise DataFormatError(f"malformed input CSV: bad feature_value value {cell!r}")
        by_feature.setdefault(name, []).append((value, int(cell)))
    means = {}
    for name, pts in by_feature.items():
        total = 0.0
        for v, _ in pts:  # strictly left to right: the builtin sum compensates from 3.12
            total += abs(v)
        means[name] = total / len(pts)
    points = [
        (name, value, feature_value)
        for name in sorted(means, key=lambda name: (-means[name], FEATURE_NAMES.index(name)))
        for value, feature_value in by_feature[name]
    ]
    return reference_render_beeswarm_svg(points, seed=seed)


def reference_read_table(text, needed):
    """`formatting.read_table` as one csv.reader pass over the whole text.

    Each record is keyed by its cells, with needed given the first cell whose
    column is not needed read as None; a blank row keys as ().
    """
    header, rows, ids, error = None, {}, [], None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        unneeded = [j for j, name in enumerate(header or ()) if needed and name not in needed]
        for row in reader:
            key = tuple(row)
            if unneeded and len(row) > unneeded[0]:
                key = (*row[:unneeded[0]], None, *row[unneeded[0] + 1:])
            if key not in rows:
                rows[key] = len(rows)
            ids.append(rows[key])
    except csv.Error as exc:
        error = str(exc)
    return header, list(rows), ids, error


def reference_load_csv(source) -> Dataset:
    """`dataset.load_csv` checking every cell of every row in a Python loop.

    The header must name all 8 schema columns plus `label`, in any order;
    columns are mapped onto schema order. Body cells must be literal 0 or 1.
    A leading UTF-8 byte-order mark is skipped.
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    try:
        reader = csv.reader(text)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty CSV: missing header") from None
        except csv.Error as exc:
            raise DataFormatError(f"malformed CSV: {exc}") from None
        expected = set(CSV_HEADER)
        seen: dict[str, int] = {}
        for pos, name in enumerate(header):
            if name not in expected:
                raise DataFormatError(f"unknown column {name!r}")
            if name in seen:
                raise DataFormatError(f"duplicate column {name!r}")
            seen[name] = pos
        missing = [name for name in CSV_HEADER if name not in seen]
        if missing:
            raise DataFormatError(f"missing column {missing[0]!r}")
        order = [seen[name] for name in CSV_HEADER]

        rows: list[list[int]] = []
        try:
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(CSV_HEADER):
                    raise DataFormatError(f"line {lineno}: expected {len(CSV_HEADER)} cells, got {len(row)}")
                out = []
                for pos in order:
                    cell = row[pos]
                    if cell == "0":
                        out.append(0)
                    elif cell == "1":
                        out.append(1)
                    else:
                        raise DataFormatError(f"line {lineno}: non-binary value {cell!r}")
                rows.append(out)
        except csv.Error as exc:
            raise DataFormatError(f"malformed CSV: {exc}") from None
        if not rows:
            raise DataFormatError("empty CSV body")
        arr = np.array(rows, dtype=np.uint8)
        return Dataset(pattern_codes(arr[:, :N_FEATURES]), arr[:, N_FEATURES])
    except UnicodeDecodeError:
        raise DataFormatError("malformed CSV: not UTF-8 text") from None
    finally:
        text.detach()


def reference_save_csv(ds: Dataset, dest) -> None:
    """`dataset.save_csv` joining every cell of every row."""
    lines = [",".join(CSV_HEADER)]
    body = np.column_stack([ds.X, ds.y])
    for row in body:
        lines.append(",".join("1" if v else "0" for v in row))
    dest.write(("\n".join(lines) + "\n").encode("ascii"))


def reference_marginals_from(ds: Dataset) -> MarginalTable:
    """`dataset.marginals_from` summing each class's rows of the feature matrix."""
    n_pos = ds.n_positive
    n_neg = ds.n_negative
    if n_pos == 0 or n_neg == 0:
        raise ContractError("degenerate class balance: one class absent")
    pos_counts = ds.X[ds.y == 1].sum(axis=0, dtype=np.int64)
    neg_counts = ds.X[ds.y == 0].sum(axis=0, dtype=np.int64)
    return MarginalTable(pos_counts / n_pos, neg_counts / n_neg)


def reference_reporter_positive_rate(ds: Dataset, feature: str) -> float:
    """`dataset.reporter_positive_rate` scanning the feature's column record by record."""
    i = FEATURE_NAMES.index(feature)
    reporters = ds.X[:, i] == 1
    n_reporters = int(np.sum(reporters))
    if n_reporters == 0:
        raise ContractError(f"feature never reported: {feature}")
    n_pos = int(np.sum(ds.y[reporters] == 1))
    return n_pos / n_reporters


def reference_asymptomatic_negative_indices(ds: Dataset) -> np.ndarray:
    """`dataset.asymptomatic_negative_indices` scanning the five symptom columns."""
    cols = [FEATURE_NAMES.index(f) for f in SYMPTOM_FEATURES]
    no_symptoms = ~np.any(ds.X[:, cols] == 1, axis=1)
    return np.flatnonzero((ds.y == 0) & no_symptoms)


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
    """`metrics.ScoredLabels`' ROC: (0,0), then (fpr, tpr, threshold) per unique
    threshold, descending."""
    if sl.n_positive == 0 or sl.n_negative == 0:
        raise ContractError("single-class input")
    fpr, tpr = sl._fp / sl._fp[-1], sl._tp / sl._tp[-1]
    points = [(0.0, 0.0, math.inf)]
    points += zip(fpr[1:].tolist(), tpr[1:].tolist(), sl._thresholds.tolist())
    return Curve(kind="roc", points=tuple(points))


def pr_curve(sl: ScoredLabels) -> Curve:
    """`metrics.ScoredLabels`' PR: (recall, precision, threshold) per unique threshold,
    descending."""
    if sl.n_positive == 0:
        raise ContractError("no positives")
    tp, pp = sl._tp[1:], sl._tp[1:] + sl._fp[1:]
    points = zip((tp / tp[-1]).tolist(), (tp / pp).tolist(), sl._thresholds.tolist())
    return Curve(kind="pr", points=tuple(points))


def pair_count_auroc(sl) -> float:
    """`metrics.auroc` in O(n^2): mean positive-over-negative pair credit, ties half-credited."""
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
    """`metrics.bootstrap` per record: one resampling pass per statistic.

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


class RawGenerator:
    """`numpy.random.Generator(PCG64(seed))`'s `random`, `uniform`, `integers` and `shuffle`,
    rebuilt from `PCG64.random_raw`, whose stream NEP 19 keeps across NumPy versions.

    `integers` and `shuffle` read 32-bit draws: the low half of a raw word first, its high half
    kept for the next 32-bit draw, also across calls, as the bit generator keeps it. `random`
    and `uniform` read whole raw words and leave that half where it is.
    """

    def __init__(self, seed):
        self._bits = np.random.PCG64(seed)
        self._high = None

    def _uint32(self) -> int:
        if self._high is not None:
            half, self._high = self._high, None
            return half
        raw = int(self._bits.random_raw())
        self._high = raw >> 32
        return raw & 0xFFFFFFFF

    def random(self, size) -> np.ndarray:
        """`Generator.random`: the top 53 bits of each raw word, times 2^-53."""
        raw = self._bits.random_raw(math.prod(np.atleast_1d(size)))
        return ((raw >> np.uint64(11)) * 2.0 ** -53).reshape(size)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """`Generator.uniform`: low + (high - low) * random."""
        return low + (high - low) * self.random(size)

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        """`Generator.integers(low, high, size)` for 2 <= high - low < 2^32: Lemire's
        multiply-shift, redrawn while the product's low word is below 2^32 mod (high - low)."""
        n = high - low
        assert 2 <= n < 1 << 32
        threshold = (1 << 32) % n
        out = []
        for _ in range(size):
            product = self._uint32() * n
            while product & 0xFFFFFFFF < threshold:
                product = self._uint32() * n
            out.append(low + (product >> 32))
        return np.array(out, dtype=np.int64)

    def shuffle(self, x: np.ndarray) -> None:
        """`Generator.shuffle` of a 1-d array, in place: Fisher-Yates from the end, slot i
        swapped with a 32-bit draw masked to i's bit length, redrawn while above i."""
        for i in range(len(x) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._uint32() & mask
            while j > i:
                j = self._uint32() & mask
            x[i], x[j] = x[j], x[i]


def assert_local_accuracy(model: Model, explanation, record, tol: float = 1e-9) -> None:
    """`shap.explain`: base value plus contributions is `Model.predict_raw` within tol."""
    total = explanation.base_value + float(np.sum(explanation.contributions))
    assert abs(total - model.predict_raw(record)) <= tol


README = Path(__file__).resolve().parent.parent / "README.md"
_TENTH = ("--n-pos", "--n-neg", "--bootstrap")


def quickstart_commands() -> list[list[str]]:
    """README `## Quick start`: its `sh` block's `pcrboost` commands, as `cli.main` argv lists.

    Comment lines are dropped and `\\` continuations joined before a line counts, and each
    line is split as the shell splits it.
    """
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    text = "\n".join(line for line in block.splitlines() if not line.lstrip().startswith("#"))
    return [shlex.split(line)[1:] for line in text.replace("\\\n", " ").splitlines()
            if line.startswith("pcrboost ")]


def tenth_scale_quickstart(seed: int) -> list[list[str]]:
    """The quick start at a tenth of its scale, for run `seed` (as perfbench derives its seeds).

    `--n-pos`, `--n-neg` and `--bootstrap` are floor-divided by 10. `train`'s `--seed k` is a
    config echo and becomes `seed + k`; a randomized command's `--seed k` becomes
    `1000 * seed + k`.
    """
    commands = quickstart_commands()
    for argv in commands:
        for i in range(1, len(argv)):
            if argv[i - 1] in _TENTH:
                argv[i] = str(int(argv[i]) // 10)
            elif argv[i - 1] == "--seed":
                argv[i] = str((seed if argv[0] == "train" else 1000 * seed) + int(argv[i]))
    return commands


def quickstart_step(seed: int, *words: str) -> list[str]:
    """The one command of `tenth_scale_quickstart(seed)` that holds every word in `words`."""
    (argv,) = [argv for argv in tenth_scale_quickstart(seed) if set(words) <= set(argv)]
    return argv


def option(argv, flag: str) -> str:
    """The value that follows `flag` in argv."""
    return argv[argv.index(flag) + 1]


def quickstart_training(seed: int) -> tuple[Dataset, TrainConfig]:
    """`gbm.fit`'s inputs in a tenth-scale quick start: the training set `synth` writes, and the
    config `train` echoes (default hyperparameters)."""
    train = quickstart_step(seed, "train")
    synth = quickstart_step(seed, "synth", option(train, "--data"))
    ds = synthesize(reference_marginals(), int(option(synth, "--n-pos")),
                    int(option(synth, "--n-neg")), seed=int(option(synth, "--seed")))
    return ds, TrainConfig(seed=int(option(train, "--seed")))


def clean_env() -> dict[str, str]:
    """A child's environment from PATH, HOME and PYTHONPATH only, the absolute source directory
    first: no PYTHONUNBUFFERED or OPENBLAS_NUM_THREADS comes from the host."""
    src_dir = os.path.dirname(os.path.dirname(os.path.realpath(pcrboost.__file__)))
    env = {name: os.environ[name] for name in ("PATH", "HOME") if name in os.environ}
    inherited = os.environ.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + inherited if inherited else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # else children write src/pcrboost/__pycache__
    return env
