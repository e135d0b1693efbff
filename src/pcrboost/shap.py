"""Exact SHAP attributions for the boosted tree ensemble.

The value function is path-dependent: descending a tree, a feature in the
coalition follows the record's branch; a feature outside it descends both
children weighted by their cover proportions. With the schema fixed at 8
features the Shapley sum is computed exactly over all 2^8 coalitions.

Contributions are in raw log-odds space. Attributions are computed once
per distinct pattern: each tree is walked top-down, carrying path weights
over the full coalition grid from parent to child.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import FEATURE_NAMES, N_FEATURES, PATTERNS, Dataset, distinct_patterns, pattern_codes
from .errors import ContractError
from .gbm import Model

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
_WITHOUT = [np.flatnonzero((_MASKS >> f) & 1 == 0) for f in range(N_FEATURES)]
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


def _explain_matrix(model: Model, X: np.ndarray):
    """Coalition-grid attributions for distinct rows X; returns (base, (n,8) phis).

    One walk per tree, right child first: a child's path weight is its
    parent's times, per coalition and row, the row's agreement with the
    branch (split feature in the coalition) or the branch's cover share
    (not in it). Weights keep size-1 axes for the features off their path.
    """
    n = X.shape[0]
    phis = np.zeros((n, N_FEATURES))
    base = float(model.base_score)
    # agree[f][side]: 1.0 where a row's feature f routes to `side` (0 left, 1 right)
    agree = [[(X[:, f] == side).astype(np.float64) for side in (0, 1)]
             for f in range(N_FEATURES)]
    for tree in model.trees:
        v = np.zeros((_N_SUBSETS, n))
        grid = v.reshape((2,) * N_FEATURES + (n,))  # axis 7 - f holds bit f of the mask
        stack = [(tree, np.ones((1,) * N_FEATURES + (n,)))]
        while stack:
            node, w = stack.pop()
            if node.is_leaf:
                grid += float(node.value) * w
                continue
            if not node.cover > 0.0:
                raise ContractError("degenerate tree cover: zero cover at an internal node")
            f, axis = node.feature, N_FEATURES - 1 - node.feature
            shape = w.shape[:axis] + (2,) + w.shape[axis + 1:]
            # the coalitions without / with feature f
            off, on = np.split(np.broadcast_to(w, shape), 2, axis=axis)
            for side, child in enumerate((node.left, node.right)):
                share = child.cover / node.cover
                stack.append((child, np.concatenate([off * share, on * agree[f][side]], axis)))
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


def explain_patterns(model: Model, ds: Dataset):
    """(base_value, distinct pattern codes ascending, their (p,8) phis, each record's index)."""
    if len(ds) == 0:
        raise ContractError("empty dataset")
    codes, _, inverse = distinct_patterns(ds.X)
    base, phis = _explain_matrix(model, PATTERNS[codes])
    return base, codes, phis, inverse


def explain_dataset(model: Model, ds: Dataset):
    """Attributions for every record; returns (base_value, (n,8) array)."""
    base, _, phis, inverse = explain_patterns(model, ds)
    return base, phis[inverse]


def rank_features(means: dict[str, float]) -> list[str]:
    """Feature names by descending mean |SHAP|, schema order breaking ties."""
    return sorted(means, key=lambda name: (-means[name], FEATURE_NAMES.index(name)))

