"""Gradient-boosted decision trees on binary logistic loss.

Second-order (Newton) boosting with leaf-wise tree growth over the 8
binary features, plus the JSON model document read/write path. Training
reads the dataset's (pattern, label) count table `Dataset.counts`, never
its records. Every tree node is a partial assignment of the features, so
each node's gradient, hessian and record sums come from a per-round table
over the 3^8 of them, and training is bitwise deterministic: the sums are
fixed-order array additions (no BLAS), ties break on the lower feature
index and the earlier-created leaf, and the model document serializes
reals at 17 significant digits. Prediction reads a 256-entry table built
from the leaves.

Each round sums its gradient and hessian tables in one `lattice_sums` pass
and reads them through memoryviews, whose items are plain Python floats, so
split and leaf arithmetic (and ZeroDivisionError at l2_lambda = 0) are those
of a list. `save_model` writes each node as text in one recursive pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .dataset import (FEATURE_NAMES, LATTICE_STEPS, N_FEATURES, PATTERNS, Dataset, lattice_sums,
                      pattern_codes)
from .errors import ContractError, DataFormatError
from .formatting import fmt_real

FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """Boosting hyperparameters.

    The seed is carried for the config echo; with no row or
    column subsampling the trainer itself consumes no randomness.
    """

    num_rounds: int = 100
    learning_rate: float = 0.1
    max_leaves: int = 16
    min_samples_leaf: int = 20
    l2_lambda: float = 1.0
    min_split_gain: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_rounds < 0:
            raise ContractError("num_rounds must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ContractError("learning_rate must be in (0, 1]")
        if self.max_leaves < 2:
            raise ContractError("max_leaves must be >= 2")
        if self.min_samples_leaf < 1:
            raise ContractError("min_samples_leaf must be >= 1")
        if not 0.0 <= self.l2_lambda < math.inf:  # false for NaN too
            raise ContractError("l2_lambda must be finite and >= 0")
        if not 0.0 <= self.min_split_gain < math.inf:
            raise ContractError("min_split_gain must be finite and >= 0")


# the model document's config keys, in declaration order
_CONFIG_FIELDS = tuple(f.name for f in fields(TrainConfig))


@dataclass
class TreeNode:
    """One node: a leaf carries `value`, an internal node a `feature` split.

    Routing: feature value 0 goes left, 1 goes right. `cover` is the
    training hessian mass that reached the node; internal cover equals
    left cover plus right cover exactly.
    """

    cover: float
    value: float | None = None
    feature: int | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def n_leaves(self) -> int:
        return sum(1 for _ in _leaves(self))


def _leaves(tree):
    """(mask, bits, value) of each reachable leaf: its path's split bits and branch bits."""
    stack = [(tree, 0, 0)]
    while stack:
        node, mask, bits = stack.pop()
        if node.is_leaf:
            yield mask, bits, node.value
            continue
        m = 1 << node.feature
        if mask & m:  # split on again: only the branch that agrees with bits is reachable
            stack.append((node.right if bits & m else node.left, mask, bits))
        else:
            stack += [(node.left, mask | m, bits), (node.right, mask | m, bits | m)]


def sigmoid(raw):
    """Elementwise logistic; scalars and arrays share one path, so equal inputs give equal bits."""
    raw = np.asarray(raw, dtype=np.float64)
    e = np.exp(-np.abs(raw))
    return np.where(raw >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logistic_grad_hess(raw, label):
    """Gradient and hessian of the log-loss at a raw log-odds score.

    g = p - y and h = p(1-p) with p = sigmoid(raw); vectorizes elementwise.
    """
    p = sigmoid(raw)
    return p - label, p * (1.0 - p)


@dataclass(frozen=True)
class Model:
    """Immutable boosted ensemble: base log-odds plus an ordered tree list."""

    base_score: float
    trees: tuple[TreeNode, ...]
    config: TrainConfig

    @cached_property
    def _raw_table(self) -> np.ndarray:
        # the raw score of every pattern, summed in tree order
        table = np.full(len(PATTERNS), self.base_score, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            for row in _leaf_rows(self.trees):
                table += row
        require_finite("raw score", table)
        return table

    @cached_property
    def _shap_table(self) -> tuple[float, np.ndarray]:
        # (base, (256, 8) phis) of every pattern; only the shap layer reads it,
        # so train and predict never load it
        from .shap import _phi_table
        return _phi_table(self)

    def _read(self, table: np.ndarray, features):
        """Each record's entry of a 256-pattern table; a float for one record."""
        values = table[pattern_codes(np.atleast_2d(features))]
        return values if np.ndim(features) == 2 else float(values[0])

    def predict_raw(self, features):
        """Base score plus the routed leaf value of every tree (log-odds)."""
        return self._read(self._raw_table, features)

    def predict_proba(self, features):
        """Sigmoid of predict_raw, in the open interval (0, 1)."""
        return self._read(sigmoid(self._raw_table), features)


def require_finite(what: str, *tables) -> None:
    """Refuse a model table holding NaN or inf, so none reaches an output."""
    if not all(np.isfinite(t).all() for t in tables):
        raise ContractError(f"non-finite {what} table: the model's reals overflow")


def _leaf_rows(trees) -> np.ndarray:
    """(len(trees), 256): the leaf value each pattern code reaches in each tree.

    A reachable leaf fixes the features split on above it, so code c reaches it
    exactly when c & mask == bits.
    """
    # (tree, mask, bits, value) of every leaf; the ints are exact in float64
    leaves = np.array([(t, *leaf) for t, tree in enumerate(trees) for leaf in _leaves(tree)],
                      dtype=np.float64).reshape(-1, 4)
    owner, mask, bits = leaves[:, :3].T.astype(np.int64)
    leaf, code = np.nonzero((np.arange(len(PATTERNS)) & mask[:, None]) == bits[:, None])
    rows = np.empty((len(trees), len(PATTERNS)), dtype=np.float64)
    rows[owner[leaf], code] = leaves[leaf, 3]
    return rows


def _best_split(i, G, H, N, cfg: TrainConfig):
    """(gain, feature) of lattice node i's best split if its gain is > 0, else (0.0, None).

    A free feature f, with s = LATTICE_STEPS[f], splits i into i - 2s (f = 0) and i - s (f = 1);
    G, H and N are the lattice sums of the gradients, hessians and records.
    """
    lam = cfg.l2_lambda
    parent_term = G[i] * G[i] / (H[i] + lam)
    best_gain, best_feature = 0.0, None
    for f, step in enumerate(LATTICE_STEPS):
        left, right = i - 2 * step, i - step
        if i // step % 3 != 2 or min(N[left], N[right]) < cfg.min_samples_leaf:
            continue
        gain = 0.5 * (
            G[left] * G[left] / (H[left] + lam) + G[right] * G[right] / (H[right] + lam)
            - parent_term
        ) - cfg.min_split_gain
        # ascending f with a strict > keeps the lower index on ties
        if gain > best_gain:
            best_gain, best_feature = gain, f
    return best_gain, best_feature


def _grow_tree(G, H, N, cfg: TrainConfig) -> TreeNode:
    """One leaf-wise tree over the lattice sums of one round."""
    root = 2 * sum(LATTICE_STEPS)  # every feature free
    splits = {}  # lattice index of each internal node -> its feature
    leaves = [(root, *_best_split(root, G, H, N, cfg))]  # (index, gain, feature)
    while len(leaves) < cfg.max_leaves:
        # leaves are in creation order, and max keeps the earlier leaf on ties
        k = max(range(len(leaves)), key=lambda k: leaves[k][1])
        i, _, f = leaves.pop(k)
        if f is None:
            break
        splits[i] = f
        for child in (i - 2 * LATTICE_STEPS[f], i - LATTICE_STEPS[f]):
            leaves.append((child, *_best_split(child, G, H, N, cfg)))

    def finalize(i) -> TreeNode:
        f = splits.get(i)
        if f is None:
            if not H[i] > 0.0:  # every model reader refuses a leaf without cover
                raise ContractError("zero hessian sum in a tree leaf: the hessians underflowed; "
                                    "use a lower --learning-rate or fewer --num-rounds")
            value = -cfg.learning_rate * G[i] / (H[i] + cfg.l2_lambda)
            return TreeNode(cover=H[i], value=value)
        left = finalize(i - 2 * LATTICE_STEPS[f])
        right = finalize(i - LATTICE_STEPS[f])
        return TreeNode(cover=left.cover + right.cover, feature=f, left=left, right=right)

    return finalize(root)


def fit(ds: Dataset, cfg: TrainConfig) -> Model:
    """Train the boosted ensemble.

    base_score is the prevalence log-odds; each round fits one leaf-wise
    tree to the current gradients/hessians, read from their sums over the
    3^8 partial assignments of the features (`lattice_sums`), so every
    node's G, H and record count is a lookup. Deterministic for fixed
    inputs, independent of thread count.
    """
    if len(ds) == 0:
        raise ContractError("empty dataset")
    n_pos = ds.n_positive
    if n_pos == 0 or n_pos == len(ds):
        raise ContractError("single-class dataset")
    p_bar = n_pos / len(ds)
    base_score = math.log(p_bar / (1.0 - p_bar))
    N = lattice_sums(ds.counts.sum(axis=1)).tolist()
    codes, labels = np.nonzero(ds.counts)  # only the present (pattern, label) cells train
    count = ds.counts[codes, labels]
    yf = labels.astype(np.float64)
    raw = np.full(len(PATTERNS), base_score, dtype=np.float64)  # per pattern
    trees = []
    for _ in range(cfg.num_rounds):
        g, h = logistic_grad_hess(raw[codes], yf)
        # a tree reads a few hundred of the 2 x 6,561 sums: no per-round list of them
        G, H = map(memoryview, lattice_sums(
            [np.bincount(codes, count * w, len(PATTERNS)) for w in (g, h)]))
        try:
            root = _grow_tree(G, H, N, cfg)
        except ZeroDivisionError:  # the tree's only divisor is a node's H + l2_lambda
            raise ContractError("zero hessian sum in a tree node: use --l2-lambda > 0") from None
        raw += _leaf_rows([root])[0]
        trees.append(root)
    return Model(base_score=base_score, trees=tuple(trees), config=cfg)


def _real(x) -> str:
    if not math.isfinite(x):
        raise ContractError("non-finite real in model document")
    return fmt_real(x)


def _node_text(node: TreeNode) -> str:
    if node.is_leaf:
        return f'{{"value": {_real(node.value)}, "cover": {_real(node.cover)}}}'
    return (f'{{"feature": {int(node.feature)}, "cover": {_real(node.cover)}, '
            f'"left": {_node_text(node.left)}, "right": {_node_text(node.right)}}}')


def save_model(model: Model) -> str:
    """Serialize to the version-1 JSON model document (17-digit reals).

    Written as text in one pass over the nodes: json.dumps would write
    shortest-round-trip floats, and the document requires 17 digits.
    """
    cfg = model.config
    values = [getattr(cfg, name) for name in _CONFIG_FIELDS]
    config = ", ".join(f'"{name}": {value if _is_int(value) else _real(value)}'
                       for name, value in zip(_CONFIG_FIELDS, values))
    return (f'{{"format_version": {FORMAT_VERSION}, "schema": {json.dumps(FEATURE_NAMES)}, '
            f'"base_score": {_real(model.base_score)}, "config": {{{config}}}, '
            f'"trees": [{", ".join(map(_node_text, model.trees))}]}}\n')


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_real(value, what: str) -> float:
    if type(value) is float and value - value == 0.0:  # nan and +-inf give nan
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataFormatError(f"malformed model document: non-numeric {what}")
    try:
        real = float(value)
    except OverflowError:  # an integer literal beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise DataFormatError(f"malformed model document: non-finite {what}")
    return real


def _parse_node(doc, path: frozenset = frozenset()) -> TreeNode:
    """One node; `path` holds the features split on above it."""
    if not isinstance(doc, dict):
        raise DataFormatError("malformed model document: node is not an object")
    keys = set(doc)
    if keys == {"value", "cover"}:
        node = TreeNode(
            cover=_finite_real(doc["cover"], "cover"),
            value=_finite_real(doc["value"], "leaf value"),
        )
    elif keys == {"feature", "cover", "left", "right"}:
        feature = doc["feature"]
        if not _is_int(feature) or not 0 <= feature < N_FEATURES:
            raise DataFormatError("malformed model document: bad feature index")
        if feature in path:
            raise DataFormatError("malformed model document: feature repeated on a path")
        node = TreeNode(
            cover=_finite_real(doc["cover"], "cover"),
            feature=feature,
            left=_parse_node(doc["left"], path | {feature}),
            right=_parse_node(doc["right"], path | {feature}),
        )
        if not math.isclose(node.cover, node.left.cover + node.right.cover, rel_tol=1e-9):
            raise DataFormatError("malformed model document: cover is not left + right cover")
    else:
        raise DataFormatError("malformed model document: unexpected node keys")
    if not node.cover > 0.0:
        raise DataFormatError("malformed model document: non-positive cover")
    return node


def load_model(blob) -> Model:
    """Parse a version-1 JSON model document (str or bytes)."""
    if isinstance(blob, (bytes, bytearray)):
        blob = blob.decode("utf-8", errors="replace")
    try:
        doc = json.loads(blob)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to convert
        raise DataFormatError(f"malformed model document: {exc}") from None
    except RecursionError:
        raise DataFormatError("malformed model document: nested too deeply") from None
    if not isinstance(doc, dict):
        raise DataFormatError("malformed model document: not an object")
    if not _is_int(doc.get("format_version")) or doc["format_version"] != FORMAT_VERSION:
        raise DataFormatError(
            f"model format_version mismatch: expected {FORMAT_VERSION}"
        )
    if doc.get("schema") != list(FEATURE_NAMES):
        raise DataFormatError("model schema mismatch")
    cfg_doc = doc.get("config")
    if not isinstance(cfg_doc, dict) or set(cfg_doc) != set(_CONFIG_FIELDS):
        raise DataFormatError("malformed model document: bad config block")
    for name, value in cfg_doc.items():
        if isinstance(getattr(TrainConfig, name), int):  # the default shows the type
            if not _is_int(value):
                raise DataFormatError(f"malformed model document: non-integer {name}")
        else:
            _finite_real(value, name)
    try:
        cfg = TrainConfig(**cfg_doc)
    except ContractError as exc:
        raise DataFormatError(f"malformed model document: {exc}") from None
    trees = doc.get("trees")
    if not isinstance(trees, list):
        raise DataFormatError("malformed model document: trees must be an array")
    return Model(
        base_score=_finite_real(doc.get("base_score"), "base_score"),
        trees=tuple(_parse_node(t) for t in trees),
        config=cfg,
    )
