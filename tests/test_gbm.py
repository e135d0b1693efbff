"""Boosted-trees engine: gradients, growth invariants, prediction, persistence."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from pcrboost.dataset import FEATURE_NAMES, Dataset
from pcrboost.errors import ContractError, DataFormatError
from pcrboost.gbm import (
    Model,
    TrainConfig,
    TreeNode,
    fit,
    load_model,
    logistic_grad_hess,
    save_model,
    sigmoid,
    tree_values,
)
from conftest import make_dataset, random_model, tree_value_scalar


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
            assert vec[i] == pytest.approx(sigmoid(float(z[i])), abs=1e-15)


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
    return Dataset(X, y), ci


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
        model = fit(Dataset(X, y), TrainConfig(num_rounds=0))
        assert model.base_score == 0.0

    def test_single_class_rejected(self):
        ds = Dataset(np.zeros((10, 8), dtype=np.uint8), np.zeros(10, dtype=np.uint8))
        with pytest.raises(ContractError, match="single-class"):
            fit(ds, TrainConfig())

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.zeros((0, 8), dtype=np.uint8), np.zeros(0, dtype=np.uint8))
        with pytest.raises(ContractError):
            fit(ds, TrainConfig())

    def test_config_bounds(self):
        with pytest.raises(ContractError):
            TrainConfig(num_rounds=-1)
        with pytest.raises(ContractError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ContractError):
            TrainConfig(max_leaves=1)
        with pytest.raises(ContractError):
            TrainConfig(l2_lambda=-0.5)


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
        assert np.allclose(model.predict_proba(X), sigmoid(raw), atol=1e-15)

    def test_single_record_returns_float(self, rng):
        model = random_model(rng, n_trees=2)
        x = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.uint8)
        assert isinstance(model.predict_raw(x), float)
        assert model.predict_raw(x) == model.predict_raw(x[None, :])[0]

    def test_staged_raw_prefix_sums(self, rng):
        ds = make_dataset(rng, 300, p_pos=0.4)
        model = fit(ds, TrainConfig(num_rounds=6))
        stages = list(model.staged_raw(ds.X))
        assert len(stages) == 7
        assert np.array_equal(stages[0], np.full(len(ds), model.base_score))
        partial = np.full(len(ds), model.base_score)
        for t, tree in enumerate(model.trees, start=1):
            partial = partial + tree_values(tree, ds.X)
            assert np.array_equal(stages[t], partial)
        assert np.array_equal(stages[-1], model.predict_raw(ds.X))


class TestTrainingDynamics:
    def test_log_loss_nonincreasing(self, rng):
        ds = make_dataset(rng, 500, p_pos=0.35)
        model = fit(ds, TrainConfig(num_rounds=30))
        losses = [log_loss(ds.y, sigmoid(raw)) for raw in model.staged_raw(ds.X)]
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
        assert np.allclose(m1.predict_raw(X), m2.predict_raw(X), atol=1e-9)

    def test_fit_is_deterministic(self, rng):
        ds = make_dataset(rng, 350, p_pos=0.4)
        cfg = TrainConfig(num_rounds=8)
        assert save_model(fit(ds, cfg)) == save_model(fit(ds, cfg))


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
        bad = Model(model.schema, model.base_score, (bad_tree,), model.config)
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
