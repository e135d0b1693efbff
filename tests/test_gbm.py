"""Boosted-trees engine: gradients, growth invariants, prediction, persistence."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from pcrboost.dataset import (
    FEATURE_NAMES,
    PATTERNS,
    Dataset,
    lattice_sums,
    pattern_codes,
)
from pcrboost.errors import ContractError, DataFormatError
from pcrboost.gbm import (
    Model,
    TrainConfig,
    TreeNode,
    _grow_tree,
    fit,
    load_model,
    logistic_grad_hess,
    save_model,
    sigmoid,
)
from oracles import (
    make_dataset,
    quickstart_training,
    random_model,
    reference_fit,
    reference_save_model,
    staged_raw,
    tree_value_scalar,
    tree_values,
)


def log_loss(y, p):
    p = np.clip(p, 1e-15, 1 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


class TestSigmoid:
    def test_known_values(self):
        assert sigmoid(0.0) == 0.5
        assert abs(sigmoid(math.log(3)) - 0.75) < 1e-15
        assert sigmoid(-40.0) == pytest.approx(0.0, abs=1e-15)
        assert sigmoid(40.0) == pytest.approx(1.0, abs=1e-15)

    def test_vector_matches_scalar(self, rng):
        z = rng.normal(size=50) * 5
        vec = sigmoid(z)
        for i in range(50):
            assert vec[i] == sigmoid(float(z[i]))


class TestLogisticGradHess:
    def test_exact_at_zero_raw(self):
        y = np.array([1.0, 0.0])
        g, h = logistic_grad_hess(np.zeros(2), y)
        assert np.allclose(g, [-0.5, 0.5], atol=1e-15)
        assert np.allclose(h, [0.25, 0.25], atol=1e-15)

    def test_matches_finite_differences(self, rng):
        # central differences of the pointwise log loss; h uses a wider step
        # because second differences at 1e-6 are dominated by rounding noise
        raw = rng.normal(size=30) * 2
        y = rng.integers(0, 2, size=30).astype(np.float64)
        g, h = logistic_grad_hess(raw, y)

        def pointwise(z, yi):
            return -(yi * math.log(sigmoid(z)) + (1 - yi) * math.log(1 - sigmoid(z)))

        for i in range(30):
            eps = 1e-6
            g_fd = (pointwise(raw[i] + eps, y[i]) - pointwise(raw[i] - eps, y[i])) / (2 * eps)
            assert abs(g[i] - g_fd) < 1e-6
            eps = 1e-4
            h_fd = (
                pointwise(raw[i] + eps, y[i])
                - 2 * pointwise(raw[i], y[i])
                + pointwise(raw[i] - eps, y[i])
            ) / eps**2
            assert abs(h[i] - h_fd) < 1e-6


def stump_dataset():
    """cough perfectly splits a 60/40 mix: cough=1 mostly positive."""
    n = 100
    X = np.zeros((n, 8), dtype=np.uint8)
    ci = FEATURE_NAMES.index("cough")
    X[:40, ci] = 1
    y = np.zeros(n, dtype=np.uint8)
    y[:36] = 1  # 90% of cough=1
    y[40:46] = 1  # 10% of cough=0
    return Dataset(pattern_codes(X), y), ci


class TestFit:
    def test_single_round_stump_splits_on_cough(self):
        ds, ci = stump_dataset()
        cfg = TrainConfig(num_rounds=1, max_leaves=2, min_samples_leaf=5)
        model = fit(ds, cfg)
        assert len(model.trees) == 1
        root = model.trees[0]
        assert not root.is_leaf
        assert root.feature == ci
        assert root.left.is_leaf and root.right.is_leaf
        # left = cough 0 (mostly negative), right = cough 1 (mostly positive)
        assert root.left.value < 0 < root.right.value
        # n * p * (1 - p) at the base score
        assert root.cover == pytest.approx(100.0 * 0.42 * 0.58, rel=1e-12)

    def test_stump_leaf_values_newton_step(self):
        ds, _ = stump_dataset()
        cfg = TrainConfig(num_rounds=1, max_leaves=2, min_samples_leaf=5, learning_rate=0.1)
        model = fit(ds, cfg)
        p = 0.42
        g_right, h_right = 36 * (p - 1) + 4 * p, 40 * p * (1 - p)
        expected = -cfg.learning_rate * g_right / (h_right + cfg.l2_lambda)
        assert model.trees[0].right.value == pytest.approx(expected, abs=1e-12)

    def test_zero_rounds_predicts_prevalence(self):
        ds, _ = stump_dataset()
        model = fit(ds, TrainConfig(num_rounds=0))
        assert model.trees == ()
        assert model.base_score == pytest.approx(math.log(0.42 / 0.58), abs=1e-12)
        proba = model.predict_proba(ds.X)
        assert np.allclose(proba, 0.42, atol=1e-12)

    def test_balanced_classes_zero_base_score(self, rng):
        X = rng.integers(0, 2, size=(50, 8), dtype=np.uint8)
        y = np.array([1] * 25 + [0] * 25, dtype=np.uint8)
        model = fit(Dataset(pattern_codes(X), y), TrainConfig(num_rounds=0))
        assert model.base_score == 0.0

    def test_single_class_rejected(self):
        ds = Dataset(pattern_codes(np.zeros((10, 8), dtype=np.uint8)),
                     np.zeros(10, dtype=np.uint8))
        with pytest.raises(ContractError, match="single-class"):
            fit(ds, TrainConfig())

    def test_empty_dataset_rejected(self):
        ds = Dataset(pattern_codes(np.zeros((0, 8), dtype=np.uint8)), np.zeros(0, dtype=np.uint8))
        with pytest.raises(ContractError):
            fit(ds, TrainConfig())

    def test_zero_hessian_with_zero_lambda_is_contract_error(self):
        # the label equals age_60_plus, so at learning rate 1 the raw scores run
        # off until p(1-p) underflows to 0 in whole nodes
        X = PATTERNS[:40]
        ds = Dataset(pattern_codes(X), X[:, 1])
        cfg = dict(learning_rate=1.0, min_samples_leaf=1, l2_lambda=0.0)
        assert len(fit(ds, TrainConfig(num_rounds=5, **cfg)).trees) == 5
        with pytest.raises(ContractError, match="zero hessian sum.*l2-lambda > 0"):
            fit(ds, TrainConfig(num_rounds=100, **cfg))

    def test_config_bounds(self):
        with pytest.raises(ContractError):
            TrainConfig(num_rounds=-1)
        with pytest.raises(ContractError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ContractError):
            TrainConfig(max_leaves=1)
        with pytest.raises(ContractError):
            TrainConfig(l2_lambda=-0.5)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["l2_lambda", "min_split_gain"])
    def test_non_finite_regularisation_rejected(self, name, value):
        with pytest.raises(ContractError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})


def walk(node, path=()):
    yield node, path
    if not node.is_leaf:
        yield from walk(node.left, path + (node.feature,))
        yield from walk(node.right, path + (node.feature,))


@pytest.fixture(scope="module")
def trained():
    r = np.random.default_rng(77)
    ds = make_dataset(r, 800, p_pos=0.3)
    cfg = TrainConfig(num_rounds=12, max_leaves=8, min_samples_leaf=20)
    return fit(ds, cfg), ds, cfg


class TestTreeInvariants:
    def test_no_feature_repeats_on_any_path(self, trained):
        model, _, _ = trained
        for tree in model.trees:
            for node, path in walk(tree):
                if not node.is_leaf:
                    assert node.feature not in path

    def test_internal_cover_is_exact_child_sum(self, trained):
        model, _, _ = trained
        for tree in model.trees:
            for node, _ in walk(tree):
                if not node.is_leaf:
                    assert node.cover == node.left.cover + node.right.cover

    def test_leaf_count_within_budget(self, trained):
        model, _, cfg = trained
        for tree in model.trees:
            n_leaves = sum(1 for node, _ in walk(tree) if node.is_leaf)
            assert 1 <= n_leaves <= cfg.max_leaves

    def test_every_leaf_meets_min_samples(self, trained):
        model, ds, cfg = trained
        for tree in model.trees:
            if tree.is_leaf:
                continue
            # route every record; count arrivals per leaf
            arrivals: dict[int, int] = {}
            for x in ds.X:
                node = tree
                while not node.is_leaf:
                    node = node.right if x[node.feature] else node.left
                arrivals[id(node)] = arrivals.get(id(node), 0) + 1
            leaf_ids = {id(node) for node, _ in walk(tree) if node.is_leaf}
            for leaf in leaf_ids:
                assert arrivals.get(leaf, 0) >= cfg.min_samples_leaf


class TestPrediction:
    def test_tree_values_matches_scalar_routing(self, rng):
        for trial in range(10):
            model = random_model(rng, n_trees=3)
            X = rng.integers(0, 2, size=(100, 8), dtype=np.uint8)
            for tree in model.trees:
                vec = tree_values(tree, X)
                for i in range(100):
                    assert vec[i] == tree_value_scalar(tree, X[i])

    def test_predict_raw_is_base_plus_tree_sum(self, rng):
        model = random_model(rng, n_trees=5)
        X = rng.integers(0, 2, size=(64, 8), dtype=np.uint8)
        total = np.full(64, model.base_score)
        for tree in model.trees:
            total = total + tree_values(tree, X)
        assert np.array_equal(model.predict_raw(X), total)

    def test_predict_proba_is_sigmoid_of_raw(self, rng):
        model = random_model(rng, n_trees=4)
        X = rng.integers(0, 2, size=(50, 8), dtype=np.uint8)
        raw = model.predict_raw(X)
        assert np.array_equal(model.predict_proba(X), sigmoid(raw))

    def test_single_record_returns_float(self, rng):
        model = random_model(rng, n_trees=2)
        x = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.uint8)
        assert isinstance(model.predict_raw(x), float)
        assert isinstance(model.predict_proba(x), float)
        assert model.predict_raw(x) == model.predict_raw(x[None, :])[0]

    def test_a_record_does_not_depend_on_its_batch(self, rng):
        # a random model, and the seed-1 tenth-scale quick start's model
        bench = fit(*quickstart_training(1))
        for model in (random_model(rng, n_trees=6), bench):
            raw, proba = model.predict_raw(PATTERNS), model.predict_proba(PATTERNS)
            for code, x in enumerate(PATTERNS):
                assert model.predict_raw(x) == raw[code], code
                assert model.predict_proba(x) == proba[code], code

    def test_staged_raw_prefix_sums(self, rng):
        ds = make_dataset(rng, 300, p_pos=0.4)
        model = fit(ds, TrainConfig(num_rounds=6))
        stages = list(staged_raw(model, ds.X))
        assert len(stages) == 7
        assert np.array_equal(stages[0], np.full(len(ds), model.base_score))
        partial = np.full(len(ds), model.base_score)
        for t, tree in enumerate(model.trees, start=1):
            partial = partial + tree_values(tree, ds.X)
            assert np.array_equal(stages[t], partial)
        assert np.array_equal(stages[-1], model.predict_raw(ds.X))

    def test_non_binary_features_rejected(self, rng):
        model = random_model(rng, n_trees=2)
        x = np.zeros(8, dtype=np.uint8)
        x[3] = 2
        for bad in (x, x[None, :], x.astype(np.float64) / 4, -x.astype(np.int64)):
            with pytest.raises(ContractError, match="non-binary"):
                model.predict_raw(bad)
            with pytest.raises(ContractError, match="non-binary"):
                model.predict_proba(bad)
        with pytest.raises(ContractError, match="length"):
            model.predict_raw(np.zeros((2, 7), dtype=np.uint8))


class TestLeafTable:
    """The raw-score table read off each leaf's partial assignment equals pattern routing."""

    CONFIGS = (
        TrainConfig(num_rounds=20),
        TrainConfig(num_rounds=10, max_leaves=31, min_samples_leaf=1),
        TrainConfig(num_rounds=10, l2_lambda=0, min_samples_leaf=1),
        TrainConfig(num_rounds=5, max_leaves=2),  # stumps
        TrainConfig(num_rounds=3, min_split_gain=1e9),  # single-leaf trees
    )

    @staticmethod
    def routed_table(model: Model) -> np.ndarray:
        return list(staged_raw(model, PATTERNS))[-1]

    @staticmethod
    def hand_built_models(rng):
        """Random models, single-leaf trees, stumps on each feature, and a mix of them."""
        stumps = tuple(TreeNode(cover=2.0, feature=f, left=TreeNode(1.0, value=-f - 0.5),
                                right=TreeNode(1.0, value=f + 0.25)) for f in range(8))
        singles = tuple(TreeNode(cover=1.0, value=float(v)) for v in rng.normal(size=3))
        yield from (random_model(rng, n_trees=n) for n in (0, 1, 7, 60))
        yield from (Model(-0.3, trees, TrainConfig()) for trees in
                    (singles, stumps, stumps + singles + random_model(rng, 5).trees))

    def test_raw_table_matches_routing_oracle_on_hand_built_models(self, rng):
        for model in self.hand_built_models(rng):
            assert np.array_equal(model._raw_table, self.routed_table(model))

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_fit_matches_routing_oracle(self, rng, cfg, monkeypatch):
        # every round's training scores, and the fitted model's table, bit for bit
        from pcrboost import gbm

        ds = make_dataset(rng, 800, p_pos=0.3)
        seen = []
        grad_hess = gbm.logistic_grad_hess

        def recording(raw, label):
            seen.append(raw.copy())
            return grad_hess(raw, label)

        monkeypatch.setattr(gbm, "logistic_grad_hess", recording)
        model = fit(ds, cfg)
        codes = np.nonzero(ds.counts)[0]  # fit's trained cells
        stages = list(staged_raw(model, PATTERNS))
        assert len(seen) == cfg.num_rounds == len(model.trees)
        for raw, stage in zip(seen, stages):
            assert np.array_equal(raw, stage[codes])
        assert np.array_equal(model._raw_table, stages[-1])
        if cfg.min_split_gain > 1e6:
            assert all(tree.is_leaf for tree in model.trees)
        elif cfg.max_leaves == 2:
            assert all(tree.n_leaves() == 2 for tree in model.trees)


def structure(node):
    """Nested split features of a tree, None at each leaf."""
    if node.is_leaf:
        return None
    return (node.feature, structure(node.left), structure(node.right))


def walk_features(tree) -> set[int]:
    return {node.feature for node, _ in walk(tree) if not node.is_leaf}


def compare_with_per_record_oracle(ds, cfg):
    """Train with fit and with the per-record oracle; assert the same trees.

    A structural mismatch is allowed only at a tree where the oracle's two
    best candidate gains are within 1e-9 relative, where rounding may flip
    the choice; trees after it are not compared. Returns the index of that
    tree, or None when every tree matches and the final raw scores agree
    within 1e-12 on all 256 patterns.
    """
    oracle, gaps = reference_fit(ds, cfg)
    model = fit(ds, cfg)
    assert model.base_score == oracle.base_score
    assert len(model.trees) == len(oracle.trees) == cfg.num_rounds
    for t, (ours, theirs) in enumerate(zip(model.trees, oracle.trees)):
        if structure(ours) != structure(theirs):
            assert gaps[t] < 1e-9, f"tree {t} differs without a near tie ({gaps[t]:.3g})"
            return t
    assert np.max(np.abs(model.predict_raw(PATTERNS) - oracle.predict_raw(PATTERNS))) <= 1e-12
    return None


class TestCountTableTrainer:
    def test_matches_per_record_oracle(self, rng):
        configs = (
            TrainConfig(num_rounds=20),
            TrainConfig(num_rounds=15, max_leaves=4, min_samples_leaf=5, learning_rate=0.3),
            TrainConfig(num_rounds=10, max_leaves=32, min_samples_leaf=1, l2_lambda=0.0,
                        min_split_gain=0.01),
        )
        for trial in range(6):
            ds = make_dataset(rng, int(rng.integers(50, 1500)), p_pos=float(rng.uniform(0.1, 0.6)))
            assert compare_with_per_record_oracle(ds, configs[trial % 3]) is None

    def test_min_samples_leaf_boundary(self, rng):
        # feature 4 isolates 19 positives, feature 3 isolates 20: with
        # min_samples_leaf=20 only the feature-3 split is allowed at the root
        n = 400
        X = (rng.random((n, 8)) < 0.5).astype(np.uint8)
        X[:, 3] = X[:, 4] = 0
        X[:20, 3] = 1
        X[20:39, 4] = 1
        y = (rng.random(n) < 0.1).astype(np.uint8)
        y[:39] = 1
        ds = Dataset(pattern_codes(X), y)
        cfg = TrainConfig(num_rounds=5, max_leaves=8, min_samples_leaf=20)
        assert compare_with_per_record_oracle(ds, cfg) is None
        model = fit(ds, cfg)
        assert model.trees[0].feature == 3
        assert all(4 not in walk_features(tree) for tree in model.trees)

    def test_identical_columns_keep_lower_index(self, rng):
        ds = make_dataset(rng, 800, p_pos=0.3)
        X = ds.X.copy()
        X[:, 5] = X[:, 2]  # cough duplicated: every split on it is an exact tie
        ds = Dataset(pattern_codes(X), ds.y)
        cfg = TrainConfig(num_rounds=10, max_leaves=8, min_samples_leaf=10)
        assert compare_with_per_record_oracle(ds, cfg) is None
        model = fit(ds, cfg)
        used = set().union(*(walk_features(tree) for tree in model.trees))
        assert 2 in used and 5 not in used

    def test_near_tie_flips_only_within_tolerance(self, rng):
        # features 0 and 1 are mirror images over the count table and carry
        # the strongest signal, so their root gains are equal in exact
        # arithmetic and differ only by rounding
        n = 3000
        X = (rng.random((n, 8)) < 0.3).astype(np.uint8)
        X[:, 0] = rng.random(n) < 0.5
        X[:, 1] = 0
        y = (rng.random(n) < 0.1 + 0.6 * X[:, 0]).astype(np.uint8)
        mirror = np.flatnonzero(X[:, 0] == 1)
        swapped = X[mirror].copy()
        swapped[:, [0, 1]] = swapped[:, [1, 0]]
        X = np.vstack([X, swapped])
        y = np.concatenate([y, y[mirror]])
        perm = rng.permutation(len(y))
        ds = Dataset(pattern_codes(X[perm]), y[perm])
        cfg = TrainConfig(num_rounds=10, max_leaves=4, min_samples_leaf=5)
        _, gaps = reference_fit(ds, cfg)
        assert min(gaps) < 1e-9  # the near tie is really there
        compare_with_per_record_oracle(ds, cfg)

    def test_matches_per_record_oracle_at_benchmark_shape(self):
        # the seed-1 tenth-scale quick start's training set (5,182 records) and config
        assert compare_with_per_record_oracle(*quickstart_training(1)) is None

    def test_equal_gains_in_two_leaves_split_the_earlier_leaf(self, rng):
        # the feature-0 = 1 half mirrors the feature-0 = 0 half with every label
        # flipped: the base score is 0, so its gradients are the exact negatives
        # of the other half's, and the two children of the feature-0 root have
        # the same best gain bit for bit
        n = 400
        X = (rng.random((n, 8)) < 0.4).astype(np.uint8)
        X[:, 0] = 0
        y = (rng.random(n) < 0.1 + 0.5 * X[:, 2]).astype(np.uint8)
        mirror = X.copy()
        mirror[:, 0] = 1
        ds = Dataset(pattern_codes(np.vstack([X, mirror])), np.concatenate([y, 1 - y]))
        cfg = TrainConfig(num_rounds=1, max_leaves=3)
        _, gaps = reference_fit(ds, cfg)
        assert gaps == [0.0]  # the tie is exact
        assert compare_with_per_record_oracle(ds, cfg) is None
        root = fit(ds, cfg).trees[0]
        assert root.feature == 0
        assert not root.left.is_leaf and root.right.is_leaf


class TestLatticeTableViews:
    """_grow_tree reads the same Python floats through a memoryview as from a list."""

    CONFIGS = (
        TrainConfig(),
        TrainConfig(max_leaves=31, min_samples_leaf=1),
        TrainConfig(learning_rate=0.3, l2_lambda=0.0, min_samples_leaf=5),
        TrainConfig(max_leaves=4, min_split_gain=0.5),
    )

    @staticmethod
    def lattice_tables(rng, zero_hessian_feature=None):
        """Random (G and H lattice sums as one (2, 3^8) array, record-count lattice list)."""
        counts = rng.integers(0, 40, size=256)
        g = rng.normal(size=256) * counts
        h = rng.uniform(0.01, 0.25, size=256) * counts
        if zero_hessian_feature is not None:
            h[PATTERNS[:, zero_hessian_feature] == 0] = 0.0
        return lattice_sums(np.stack([g, h])), lattice_sums(counts).tolist()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_memoryviews_and_lists_grow_the_same_tree(self, seed, cfg):
        GH, N = self.lattice_tables(np.random.default_rng(seed))
        views = [memoryview(table) for table in GH]
        assert type(views[0][0]) is float
        from_views = _grow_tree(*views, N, cfg)
        from_lists = _grow_tree(*GH.tolist(), N, cfg)
        assert from_views.n_leaves() > 1
        assert (save_model(Model(0.0, (from_views,), cfg))
                == save_model(Model(0.0, (from_lists,), cfg)))

    def test_zero_hessian_with_zero_lambda_raises_for_both(self, rng):
        # fit turns this ZeroDivisionError into a ContractError (exit 3)
        GH, N = self.lattice_tables(rng, zero_hessian_feature=0)
        cfg = TrainConfig(l2_lambda=0.0, min_samples_leaf=1)
        for G, H in ([memoryview(t) for t in GH], GH.tolist()):
            with pytest.raises(ZeroDivisionError):
                _grow_tree(G, H, N, cfg)
        X = PATTERNS[:40]
        with pytest.raises(ContractError, match="zero hessian"):
            fit(Dataset(pattern_codes(X), X[:, 1]),
                TrainConfig(l2_lambda=0.0, learning_rate=1.0, min_samples_leaf=1))


class TestTrainingDynamics:
    def test_log_loss_nonincreasing(self, rng):
        ds = make_dataset(rng, 500, p_pos=0.35)
        model = fit(ds, TrainConfig(num_rounds=30))
        losses = [log_loss(ds.y, sigmoid(raw)) for raw in staged_raw(model, ds.X)]
        for prev, cur in zip(losses, losses[1:]):
            assert cur <= prev + 1e-9

    def test_feature_permutation_invariance(self, rng):
        # permuting record order must not change the learned function
        ds = make_dataset(rng, 400, p_pos=0.3)
        perm = rng.permutation(len(ds))
        ds_perm = ds.take(perm)
        cfg = TrainConfig(num_rounds=10)
        m1, m2 = fit(ds, cfg), fit(ds_perm, cfg)
        X = rng.integers(0, 2, size=(200, 8), dtype=np.uint8)
        assert np.array_equal(m1.predict_raw(X), m2.predict_raw(X))
        assert save_model(m1) == save_model(m2)  # training reads only the count table

    def test_fit_is_deterministic(self, rng):
        ds = make_dataset(rng, 350, p_pos=0.4)
        cfg = TrainConfig(num_rounds=8)
        assert save_model(fit(ds, cfg)) == save_model(fit(ds, cfg))


def assert_replicated(node: TreeNode, copy: TreeNode, k: int) -> None:
    """copy is node's tree bit for bit, with every cover exactly k times node's."""
    assert copy.cover == k * node.cover
    assert copy.feature == node.feature
    if node.is_leaf:
        assert copy.value.hex() == node.value.hex()
    else:
        assert_replicated(node.left, copy.left, k)
        assert_replicated(node.right, copy.right, k)


class TestReplication:
    """k copies of every record, with l2_lambda, min_samples_leaf and min_split_gain times k,
    grow the same trees: every sum, gain and hessian is exactly k times the original when
    k is a power of two (k = 3 is not exact in binary)."""

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("config", [
        {},
        {"max_leaves": 31, "min_samples_leaf": 3, "l2_lambda": 0.5, "min_split_gain": 0.25},
    ], ids=["defaults", "31_leaves"])
    def test_same_trees_with_k_times_the_cover(self, k, config):
        ds, cfg = quickstart_training(1)
        cfg = dataclasses.replace(cfg, **config)
        scaled = dataclasses.replace(cfg, l2_lambda=k * cfg.l2_lambda,
                                     min_samples_leaf=k * cfg.min_samples_leaf,
                                     min_split_gain=k * cfg.min_split_gain)
        model = fit(ds, cfg)
        copies = fit(Dataset(np.repeat(ds.codes, k), np.repeat(ds.y, k)), scaled)
        assert copies.base_score.hex() == model.base_score.hex()
        assert len(copies.trees) == len(model.trees) == cfg.num_rounds
        for tree, copy in zip(model.trees, copies.trees):
            assert_replicated(tree, copy, k)


class TestPersistence:
    def test_round_trip_predictions(self, rng):
        ds = make_dataset(rng, 600, p_pos=0.3)
        model = fit(ds, TrainConfig(num_rounds=15))
        clone = load_model(save_model(model))
        X = rng.integers(0, 2, size=(1000, 8), dtype=np.uint8)
        assert np.max(np.abs(model.predict_raw(X) - clone.predict_raw(X))) <= 1e-12

    def test_round_trip_config_echo(self, rng):
        ds = make_dataset(rng, 200, p_pos=0.4)
        cfg = TrainConfig(num_rounds=3, learning_rate=0.2, max_leaves=4, min_samples_leaf=10)
        clone = load_model(save_model(fit(ds, cfg)))
        assert clone.config == cfg

    def test_round_trip_empty_model(self, rng):
        ds = make_dataset(rng, 100, p_pos=0.5)
        model = fit(ds, TrainConfig(num_rounds=0))
        clone = load_model(save_model(model))
        assert clone.trees == ()
        assert clone.base_score == model.base_score

    @pytest.mark.parametrize("cfg", [
        TrainConfig(num_rounds=20),
        TrainConfig(num_rounds=10, max_leaves=31, min_samples_leaf=1),
        TrainConfig(num_rounds=30, learning_rate=0.3),
        TrainConfig(num_rounds=10, l2_lambda=0, min_samples_leaf=1, seed=7),
        TrainConfig(num_rounds=5, max_leaves=2, min_split_gain=0.25),
    ])
    def test_save_matches_dict_emitter_oracle_on_fitted_models(self, rng, cfg):
        model = fit(make_dataset(rng, 800, p_pos=0.3), cfg)
        blob = save_model(model)
        assert blob == reference_save_model(model)
        assert save_model(load_model(blob)) == blob

    @pytest.mark.parametrize("n_trees", [0, 1, 5, 40])
    def test_save_matches_dict_emitter_oracle_on_random_models(self, rng, n_trees):
        model = random_model(rng, n_trees=n_trees)
        blob = save_model(model)
        assert blob == reference_save_model(model)
        assert save_model(load_model(blob)) == blob

    def test_save_ends_with_newline_and_is_ascii(self, rng):
        model = random_model(rng, n_trees=2)
        blob = save_model(model)
        assert blob.endswith("\n")
        blob.encode("ascii")

    def test_truncated_document_rejected(self, rng):
        blob = save_model(random_model(rng, n_trees=1))
        with pytest.raises(DataFormatError, match="malformed model document"):
            load_model(blob[: len(blob) // 2])

    def test_version_mismatch_rejected(self, rng):
        blob = save_model(random_model(rng, n_trees=1))
        with pytest.raises(DataFormatError, match="format_version"):
            load_model(blob.replace('"format_version": 1', '"format_version": 9'))

    def test_schema_mismatch_rejected(self, rng):
        blob = save_model(random_model(rng, n_trees=1))
        with pytest.raises(DataFormatError, match="schema"):
            load_model(blob.replace('"cough"', '"cof"'))

    def test_non_finite_value_rejected(self, rng):
        model = random_model(rng, n_trees=1)
        bad_tree = TreeNode(cover=5.0, value=float("nan"))
        bad = Model(model.base_score, (bad_tree,), model.config)
        with pytest.raises(ContractError, match="non-finite"):
            save_model(bad)

    def test_non_finite_reals_rejected_on_load(self, rng):
        def leftmost_leaf(doc):
            node = doc["trees"][0]
            while "value" not in node:
                node = node["left"]
            return node

        edits = (
            lambda doc: leftmost_leaf(doc).update(value=math.nan),
            lambda doc: leftmost_leaf(doc).update(cover=math.inf),
            lambda doc: doc["trees"][0].update(cover=math.nan),
            lambda doc: doc.update(base_score=-math.inf),
            lambda doc: doc.update(base_score=10**400),
        )
        blob = save_model(random_model(rng, n_trees=1))
        for edit in edits:
            doc = json.loads(blob)
            edit(doc)
            with pytest.raises(DataFormatError, match="non-finite"):
                load_model(json.dumps(doc))

    def test_malformed_types_and_trees_rejected_on_load(self, rng):
        def leftmost_leaf(doc):
            node = doc["trees"][0]
            while "value" not in node:
                node = node["left"]
            return node

        def repeat_root_feature(doc):
            root = doc["trees"][0]
            leaf = leftmost_leaf(doc)
            split = {"feature": root["feature"], "cover": leaf["cover"],
                     "left": {"value": 0.0, "cover": leaf["cover"] / 2},
                     "right": {"value": 0.0, "cover": leaf["cover"] / 2}}
            leaf.clear()
            leaf.update(split)

        edits = (
            (lambda doc: doc["trees"][0].update(feature=True), "feature index"),
            (lambda doc: doc["config"].update(num_rounds=True), "num_rounds"),
            (lambda doc: doc["config"].update(max_leaves=4.0), "max_leaves"),
            (lambda doc: doc["config"].update(learning_rate=True), "learning_rate"),
            (lambda doc: doc["config"].update(l2_lambda=math.nan), "l2_lambda"),
            (lambda doc: doc.update(format_version=True), "format_version"),
            (lambda doc: doc.update(base_score=False), "base_score"),
            (lambda doc: doc.update(schema=5), "schema mismatch"),
            (repeat_root_feature, "feature repeated"),
            (lambda doc: doc["trees"][0].update(cover=1e-300), "left \\+ right"),
            (lambda doc: leftmost_leaf(doc).update(cover=-1.0), "non-positive cover"),
            (lambda doc: leftmost_leaf(doc).update(cover=0.0), "non-positive cover"),
        )
        blob = save_model(random_model(rng, n_trees=1))
        assert json.loads(blob)["trees"][0]["feature"] is not None
        for edit, message in edits:
            doc = json.loads(blob)
            edit(doc)
            with pytest.raises(DataFormatError, match=message):
                load_model(json.dumps(doc))
        # a tree nested 3000 levels deep, written as text: json.dumps cannot
        deep = '{"value": 0.5, "cover": 1.0}'
        for _ in range(3000):
            deep = ('{"feature": 0, "cover": 2.0, "left": ' + deep
                    + ', "right": {"value": 0.1, "cover": 1.0}}')
        with pytest.raises(DataFormatError, match="nested too deeply"):
            load_model(blob.replace('"trees": [', '"trees": [' + deep + ", ", 1))

