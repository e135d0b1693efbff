"""Exact SHAP attributions for the boosted tree ensemble.

The value function is path-dependent: descending a tree, a feature in the
coalition follows the record's branch; a feature outside it descends both
children weighted by their cover proportions. With the schema fixed at 8
features the Shapley sum is computed exactly over all 2^8 coalitions.

Contributions are in raw log-odds space. A coalition's value for a pattern
depends only on the pattern's bits inside the coalition: one of the 3^8
partial assignments that training also runs on (`dataset.lattice_sums`). So
each tree is walked once, in one fixed layout, into a value table over that
lattice, whatever the rows; each feature's Shapley terms are a table on it. A
coalition's terms at every pattern are one basic slice of that table, so the
model's 256-pattern table is a sum of slices in coalition order, taken for a
block of trees at once and added up tree by tree. It is built once per
`Model`: `explain` reads one row of it, `explain_dataset` returns it whole.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dataset import LATTICE_STEPS, N_FEATURES, PATTERNS, Dataset, pattern_codes
from .errors import ContractError
from .gbm import Model, require_finite

# Shapley weight for adding a feature to a coalition of size k
_WEIGHT = np.array(
    [
        math.factorial(k) * math.factorial(N_FEATURES - k - 1) / math.factorial(N_FEATURES)
        for k in range(N_FEATURES)
    ]
)
# each lattice entry's digits a_f (2 = free; see `dataset.LATTICE_STEPS`);
# axis N_FEATURES - 1 - f of the lattice's (3,)*8 view holds a_f
_DIGITS = np.arange(3 ** N_FEATURES)[:, None] // np.array(LATTICE_STEPS) % 3
# weight of a lattice entry's term: the coalition it fixes, less the feature being added,
# shaped to broadcast over a (3,)*8 x trees block
_COEF = _WEIGHT[np.maximum((_DIGITS != 2).sum(axis=1) - 1, 0)].reshape((3,) * N_FEATURES + (1,))
# per feature f, the coalitions m holding it, ascending, each as the basic slice of the
# lattice at every pattern's assignment inside m: its bits (0:2) on m's axes, free (2)
# on the others; added onto a (2,)*8 block, the slice lands on each pattern's code
_SLICE = (slice(2, 3), slice(0, 2))
_SLAB = [tuple(_SLICE[m >> f & 1] for f in reversed(range(N_FEATURES)))
         for m in range(1 << N_FEATURES)]
_SLABS = [[_SLAB[m] for m in range(1 << N_FEATURES) if m >> f & 1] for f in range(N_FEATURES)]
# trees per block: the lattice and term buffers hold 3^8 entries per tree (52 KB each)
_BLOCK = 25


class ShapExplanation(NamedTuple):
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

    Trees go in blocks of up to _BLOCK, their tables side by side on a last
    axis, so each term table and each coalition's slab add covers the whole
    block. Each tree's all-free value and (256, 8) result are then added to the
    base and the table in tree order: the additions of a tree-by-tree pass.
    """
    phis = np.zeros((len(PATTERNS), N_FEATURES))
    base = float(model.base_score)
    trees = model.trees
    lattice = np.empty((3,) * N_FEATURES + (min(len(trees), _BLOCK),))
    term, sums = np.empty_like(lattice), np.empty((2,) * N_FEATURES + lattice.shape[-1:])
    block_phis = np.empty((len(PATTERNS), N_FEATURES, lattice.shape[-1]))
    for start in range(0, len(trees), _BLOCK):
        block = trees[start:start + _BLOCK]
        size = len(block)
        V, T, S = lattice[..., :size], term[..., :size], sums[..., :size]
        for t, tree in enumerate(block):
            V[..., t] = _tree_values(tree)
        for f in range(N_FEATURES):
            axis = N_FEATURES - 1 - f
            free = V[(slice(None),) * axis + (slice(2, 3),)]
            np.subtract(V, free, out=T)
            np.multiply(_COEF, T, out=T)
            # elementwise adds in mask order, not `@`: BLAS reductions may vary
            # with thread count and outputs must be bit-identical
            S[...] = 0.0
            for slab in _SLABS[f]:
                S += T[slab]
            block_phis[:, f, :size] = S.reshape(len(PATTERNS), size)
        for t in range(size):
            base += float(V[(2,) * N_FEATURES + (t,)])
            phis += block_phis[:, :, t]
    require_finite("SHAP", base, phis)
    phis.flags.writeable = False  # shared by every reader of the model's table
    return base, phis


def _tree_values(tree) -> np.ndarray:
    """The tree's (3,)*8 value table over the partial assignments (see _phi_table).

    The walk puts feature f on axis f; its transpose is the lattice view (axis
    N_FEATURES - 1 - f holds feature f), with the same products and sums.
    """
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
        shape[node.feature] = 3
        for side, child in enumerate((node.left, node.right)):
            factor = np.array([1.0 - side, float(side), child.cover / node.cover])
            stack.append((child, w * factor.reshape(shape)))
    return V.T


def explain(model: Model, record) -> ShapExplanation:
    """Exact Shapley attribution of one record's raw prediction.

    Reads the record's row of the model's 256-pattern table, built on the
    first call; a row does not depend on the batch it is computed in.
    """
    code = pattern_codes(np.asarray(record)[None])[0]  # refuses every record but a vector
    base, phis = model._shap_table
    return ShapExplanation(base_value=base, contributions=phis[code].copy())


def explain_dataset(model: Model, ds: Dataset):
    """(base_value, (256, 8) phis): the model's table, whose row ds.codes[r] explains record r."""
    if len(ds) == 0:
        raise ContractError("empty dataset")
    return model._shap_table
