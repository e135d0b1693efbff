"""Exact SHAP attributions for the boosted tree ensemble.

The value function is path-dependent: descending a tree, a feature in the
coalition follows the record's branch; a feature outside it descends both
children weighted by their cover proportions. With the schema fixed at 8
features the Shapley sum is computed exactly over all 2^8 coalitions.

Contributions are in raw log-odds space. A coalition's value for a pattern
depends only on the pattern's bits inside the coalition: one of the 3^8
partial assignments that training also runs on (`dataset.lattice_sums`).
So each tree is walked once into a value table over that lattice, whatever
the rows; each feature's Shapley terms are a table on it, from which one
gather per feature fills the model's 256-pattern table, built once per
`Model`; `explain` and `explain_dataset` read its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import N_FEATURES, PATTERNS, Dataset, pattern_codes
from .errors import ContractError
from .gbm import Model, require_finite

_N_SUBSETS = 1 << N_FEATURES
_MASKS = np.arange(_N_SUBSETS, dtype=np.int64)
# Shapley weight for adding a feature to a coalition of size k
_WEIGHT = np.array(
    [
        math.factorial(k) * math.factorial(N_FEATURES - k - 1) / math.factorial(N_FEATURES)
        for k in range(N_FEATURES)
    ]
)
# the coalitions holding feature f, ascending
_WITH = np.array([np.flatnonzero(_MASKS >> f & 1) for f in range(N_FEATURES)])
# lattice index sum(a_f * 3**f) with a_f = 2 meaning free, as in `dataset.lattice_sums`;
# axis N_FEATURES - 1 - f of its (3,)*8 view holds a_f
_STEPS = 3 ** np.arange(N_FEATURES)
_DIGITS = np.arange(3 ** N_FEATURES)[:, None] // _STEPS % 3
# weight of a lattice entry's term: the coalition it fixes, less the feature being added
_COEF = _WEIGHT[np.maximum((_DIGITS != 2).sum(axis=1) - 1, 0)]
# per feature, the lattice index of each (coalition m holding it, pattern p): p's bits inside m,
# 2 (free) outside; with _T[c] = sum of 3**f over the bits f of c, that is _T[m & p] + 2 * _T[~m]
_T = (PATTERNS * _STEPS).sum(axis=1)
_GATHER = (_T[_MASKS[:, None] & _MASKS] + 2 * (_T[-1] - _T[:, None]))[_WITH]


@dataclass(frozen=True)
class ShapExplanation:
    """Additive attribution of one record's raw prediction.

    base_value + contributions.sum() equals predict_raw within 1e-9
    (local accuracy).
    """

    base_value: float
    contributions: np.ndarray


@np.errstate(over="ignore", invalid="ignore")
def _phi_table(model: Model):
    """Lattice attributions of the 256 patterns; returns (base, (256,8) phis).

    One walk per tree, right child first, into a value table V over the 3^8
    partial assignments: a child's weight is its parent's times, along its
    split feature's axis, 1 or 0 where the feature is fixed (agreement with
    the branch) and the branch's cover share where it is free. Then feature
    f's term for assignment a with f fixed is coef * (V[a] - V[a, f freed]),
    and a pattern's phi_f sums, in mask order, the terms at its assignment
    over each coalition holding f.
    """
    phis = np.zeros((len(PATTERNS), N_FEATURES))
    base = float(model.base_score)
    for tree in model.trees:
        V = np.zeros((3,) * N_FEATURES)
        stack = [(tree, np.ones((1,) * N_FEATURES))]
        while stack:
            node, w = stack.pop()
            if node.is_leaf:
                V += float(node.value) * w
                continue
            if not node.cover > 0.0:
                raise ContractError("degenerate tree cover: zero cover at an internal node")
            shape = [1] * N_FEATURES
            shape[N_FEATURES - 1 - node.feature] = 3
            for side, child in enumerate((node.left, node.right)):
                factor = np.array([1.0 - side, float(side), child.cover / node.cover])
                stack.append((child, w * factor.reshape(shape)))
        V = V.reshape(-1)
        for f, step in enumerate(_STEPS):
            v = V.reshape(-1, 3, step)
            term = (_COEF.reshape(v.shape) * (v - v[:, 2:])).reshape(-1)
            # elementwise gather + sum, not `@`: BLAS reductions may vary
            # with thread count and outputs must be bit-identical
            phis[:, f] += term[_GATHER[f]].sum(axis=0)
        base += float(V[-1])
    require_finite("SHAP", base, phis)
    return base, phis


def explain(model: Model, record) -> ShapExplanation:
    """Exact Shapley attribution of one record's raw prediction.

    Reads the record's row of the model's 256-pattern table, built on the
    first call; a row does not depend on the batch it is computed in.
    """
    x = np.asarray(record)
    if x.ndim != 1:
        raise ContractError(f"feature vector length must be {N_FEATURES}")
    code = pattern_codes(x[None, :])[0]
    base, phis = model._shap_table
    return ShapExplanation(base_value=base, contributions=phis[code].copy())


def explain_dataset(model: Model, ds: Dataset):
    """(base_value, distinct pattern codes ascending, their (p,8) phis, each record's index)."""
    if len(ds) == 0:
        raise ContractError("empty dataset")
    codes, inverse = np.unique(ds.codes, return_inverse=True)
    base, table = model._shap_table
    return base, codes, table[codes], inverse
