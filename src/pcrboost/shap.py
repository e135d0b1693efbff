"""Exact SHAP attributions for the boosted tree ensemble.

The value function is path-dependent: descending a tree, a feature in the
coalition follows the record's branch; a feature outside it descends both
children weighted by their cover proportions. With the schema fixed at 8
features the Shapley sum is computed exactly over all 2^8 coalitions.

Contributions are in raw log-odds space. Attributions accumulate per-leaf
path products over the full coalition grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import FEATURE_NAMES, N_FEATURES, PATTERNS, Dataset, pattern_codes
from .errors import ContractError
from .gbm import Model, TreeNode

_N_SUBSETS = 1 << N_FEATURES
_MASKS = np.arange(_N_SUBSETS, dtype=np.int64)
_POP = np.array([bin(m).count("1") for m in range(_N_SUBSETS)], dtype=np.int64)
# Shapley weight for adding a feature to a coalition of size k
_WEIGHT = np.array(
    [
        math.factorial(k) * math.factorial(N_FEATURES - k - 1) / math.factorial(N_FEATURES)
        for k in range(N_FEATURES)
    ]
)
_BIT = [(_MASKS >> f) & 1 == 1 for f in range(N_FEATURES)]
_WITHOUT = [np.flatnonzero(~_BIT[f]) for f in range(N_FEATURES)]
_WITH = [_WITHOUT[f] | (1 << f) for f in range(N_FEATURES)]
_COEF = [_WEIGHT[_POP[_WITHOUT[f]]] for f in range(N_FEATURES)]


@dataclass(frozen=True)
class ShapExplanation:
    """Additive attribution of one record's raw prediction.

    base_value + contributions.sum() equals predict_raw within 1e-9
    (local accuracy).
    """

    base_value: float
    contributions: np.ndarray
    record_echo: tuple[int, ...]


class RankedFeature(NamedTuple):
    feature: str
    mean_abs_shap: float


class BeeswarmPoint(NamedTuple):
    feature: str
    shap_value: float
    feature_value: int


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


def _explain_matrix(model: Model, X: np.ndarray):
    """Coalition-grid attributions for distinct rows X; returns (base, (n,8) phis)."""
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
            # elementwise multiply + sum, not `@`: BLAS reductions may vary
            # with thread count and outputs must be bit-identical
            phis[:, f] += (_COEF[f][:, None] * delta).sum(axis=0)
        base += float(v[0, 0])
    return base, phis


def explain(model: Model, record) -> ShapExplanation:
    """Exact Shapley attribution of one record's raw prediction."""
    x = np.asarray(record)
    if x.ndim != 1:
        raise ContractError(f"feature vector length must be {N_FEATURES}")
    base, phis = _explain_matrix(model, PATTERNS[pattern_codes(x[None, :])])
    return ShapExplanation(
        base_value=base,
        contributions=phis[0],
        record_echo=tuple(int(v) for v in x),
    )


def explain_dataset(model: Model, ds: Dataset):
    """Attributions for every record; returns (base_value, (n,8) array).

    Records sharing a pattern share one grid computation (at most 256
    patterns exist), then results are broadcast back to record order.
    """
    if len(ds) == 0:
        raise ContractError("empty dataset")
    distinct, inverse = np.unique(pattern_codes(ds.X), return_inverse=True)
    base, phis = _explain_matrix(model, PATTERNS[distinct])
    return base, phis[inverse]


def rank_features(means: dict[str, float]) -> list[str]:
    """Feature names by descending mean |SHAP|, schema order breaking ties."""
    return sorted(means, key=lambda name: (-means[name], FEATURE_NAMES.index(name)))


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
