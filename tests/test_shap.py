"""Exact SHAP attribution: production lattice path vs independent oracles."""

from __future__ import annotations

import numpy as np
import pytest

from pcrboost.dataset import (
    FEATURE_NAMES,
    PATTERNS,
    Dataset,
    pattern_codes,
    reference_marginals,
    synthesize,
)
from pcrboost.errors import ContractError
from pcrboost.gbm import Model, TrainConfig, TreeNode, fit
from pcrboost.shap import _explain_matrix, explain, explain_dataset
from conftest import (
    BeeswarmPoint,
    assert_local_accuracy,
    beeswarm_points,
    explain_records,
    make_dataset,
    mean_abs_shap,
    random_model,
    reference_explain_matrix,
    scalar_shapley,
    shapley_brute_force,
)


def stump_model(feature: str, a: float, b: float, left_cover: float, right_cover: float,
                base: float = 0.25) -> Model:
    """Single stump: value b when feature=0, a when feature=1."""
    ci = FEATURE_NAMES.index(feature)
    root = TreeNode(
        cover=left_cover + right_cover,
        feature=ci,
        left=TreeNode(cover=left_cover, value=b),
        right=TreeNode(cover=right_cover, value=a),
    )
    return Model(base_score=base, trees=(root,), config=TrainConfig())


class TestOracleAgreement:
    def test_brute_force_matches_textbook_shapley(self, rng):
        # two independent oracles: recursive subset vectors vs itertools loop
        for trial in range(10):
            model = random_model(rng, n_trees=2)
            for _ in range(3):
                x = rng.integers(0, 2, size=8, dtype=np.uint8)
                base_a, phis_a = shapley_brute_force(model, x)
                base_b, phis_b = scalar_shapley(model, x)
                assert abs(base_a - base_b) <= 1e-12
                assert np.max(np.abs(phis_a - phis_b)) <= 1e-12

    def test_explain_matches_brute_force(self, rng):
        for trial in range(20):
            model = random_model(rng, n_trees=int(rng.integers(1, 6)))
            for _ in range(3):
                x = rng.integers(0, 2, size=8, dtype=np.uint8)
                exp = explain(model, x)
                base, phis = shapley_brute_force(model, x)
                assert abs(exp.base_value - base) <= 1e-9
                assert np.max(np.abs(exp.contributions - phis)) <= 1e-9

    def test_explain_on_trained_model(self, rng):
        ds = make_dataset(rng, 400, p_pos=0.3)
        model = fit(ds, TrainConfig(num_rounds=10))
        for x in ds.X[:10]:
            exp = explain(model, x)
            base, phis = shapley_brute_force(model, x)
            assert np.max(np.abs(exp.contributions - phis)) <= 1e-9
            assert_local_accuracy(model, exp, x)


class TestLocalAccuracy:
    def test_random_models(self, rng):
        for trial in range(10):
            model = random_model(rng, n_trees=4)
            x = rng.integers(0, 2, size=8, dtype=np.uint8)
            assert_local_accuracy(model, explain(model, x), x)

    def test_record_echo(self, rng):
        model = random_model(rng, n_trees=1)
        x = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        assert explain(model, x).record_echo == (1, 0, 1, 1, 0, 0, 1, 0)


class TestClosedForms:
    def test_empty_model_all_zero(self):
        model = Model(base_score=-0.7, trees=(), config=TrainConfig())
        exp = explain(model, np.ones(8, dtype=np.uint8))
        assert exp.base_value == -0.7
        assert np.array_equal(exp.contributions, np.zeros(8))

    def test_stump_closed_form(self):
        a, b = 0.9, -0.4
        model = stump_model("cough", a, b, left_cover=3.0, right_cover=1.0)
        ci = FEATURE_NAMES.index("cough")
        x = np.zeros(8, dtype=np.uint8)
        x[ci] = 1
        exp = explain(model, x)
        q_left = 3.0 / 4.0
        assert exp.contributions[ci] == pytest.approx(q_left * (a - b), abs=1e-12)
        assert exp.base_value == pytest.approx(0.25 + q_left * b + 0.25 * a, abs=1e-12)
        others = np.delete(exp.contributions, ci)
        assert np.array_equal(others, np.zeros(7))

    def test_stump_other_branch(self):
        a, b = 0.9, -0.4
        model = stump_model("fever", a, b, left_cover=3.0, right_cover=1.0)
        ci = FEATURE_NAMES.index("fever")
        exp = explain(model, np.zeros(8, dtype=np.uint8))
        # x_fever = 0: phi = q_right * (b - a)
        assert exp.contributions[ci] == pytest.approx(0.25 * (b - a), abs=1e-12)

    def test_unused_feature_contributes_exactly_zero(self):
        model = Model(
            base_score=0.1,
            trees=stump_model("cough", 1.0, -1.0, 2.0, 2.0).trees
            + stump_model("fever", 0.5, -0.5, 1.0, 3.0).trees,
            config=TrainConfig(),
        )
        x = np.ones(8, dtype=np.uint8)
        exp = explain(model, x)
        for name in FEATURE_NAMES:
            if name not in ("cough", "fever"):
                assert exp.contributions[FEATURE_NAMES.index(name)] == 0.0

    def test_additivity_across_trees(self, rng):
        t1 = random_model(rng, n_trees=1).trees
        t2 = random_model(rng, n_trees=1).trees
        base = 0.3
        cfg = TrainConfig()
        m1 = Model(base, t1, cfg)
        m2 = Model(base, t2, cfg)
        m12 = Model(base, t1 + t2, cfg)
        x = rng.integers(0, 2, size=8, dtype=np.uint8)
        e1, e2, e12 = explain(m1, x), explain(m2, x), explain(m12, x)
        assert np.max(np.abs(e12.contributions - (e1.contributions + e2.contributions))) <= 1e-12
        assert abs(e12.base_value - (e1.base_value + e2.base_value - base)) <= 1e-12

    def test_bad_record_shape(self, rng):
        model = random_model(rng, n_trees=1)
        with pytest.raises(ContractError):
            explain(model, np.zeros(5, dtype=np.uint8))
        for value in (2, 0.5, -1):
            x = np.zeros(8)
            x[3] = value
            with pytest.raises(ContractError, match="non-binary"):
                explain(model, x)


class TestExplainDataset:
    def test_matches_per_record_explain(self, rng):
        model = random_model(rng, n_trees=3)
        X = rng.integers(0, 2, size=(60, 8), dtype=np.uint8)
        y = rng.integers(0, 2, size=60, dtype=np.uint8)
        ds = Dataset(pattern_codes(X), y)
        base, phis = explain_records(model, ds)
        for r in range(60):
            exp = explain(model, X[r])
            assert abs(base - exp.base_value) <= 1e-12
            assert np.max(np.abs(phis[r] - exp.contributions)) <= 1e-12

    def test_duplicate_rows_share_attributions(self, rng):
        model = random_model(rng, n_trees=2)
        row = rng.integers(0, 2, size=8, dtype=np.uint8)
        X = np.tile(row, (5, 1))
        ds = Dataset(pattern_codes(X), np.array([0, 1, 0, 1, 0], dtype=np.uint8))
        _, phis = explain_records(model, ds)
        for r in range(1, 5):
            assert np.array_equal(phis[r], phis[0])

    def test_empty_dataset_rejected(self, rng):
        model = random_model(rng, n_trees=1)
        ds = Dataset(pattern_codes(np.zeros((0, 8), dtype=np.uint8)), np.zeros(0, dtype=np.uint8))
        with pytest.raises(ContractError, match="empty dataset"):
            explain_dataset(model, ds)


class TestOneAnswerPerPattern:
    def test_explain_equals_the_batch_on_every_pattern(self, rng):
        model = random_model(rng, n_trees=8)
        base, phis = _explain_matrix(model, PATTERNS)
        for code, x in enumerate(PATTERNS):
            exp = explain(model, x)
            assert exp.base_value == base
            assert np.array_equal(exp.contributions, phis[code]), code

    def test_single_pattern_dataset_equals_the_batch(self, rng):
        model = random_model(rng, n_trees=5)
        _, phis = _explain_matrix(model, PATTERNS)
        ds = Dataset(pattern_codes(PATTERNS[[77] * 4]), np.zeros(4, dtype=np.uint8))
        _, codes, single, _ = explain_dataset(model, ds)
        assert codes.tolist() == [77]
        assert np.array_equal(single, phis[[77]])


class TestTopDownMatchesPerLeafReference:
    """The 3^8 value lattice and its term-table gathers against the per-leaf grid, bit for bit.

    Each tree is still walked top-down once, now into the partial-assignment
    lattice; the oracle multiplies every leaf's path over the (coalition x
    row) grid and combines the grid directly.
    """

    def assert_identical(self, model, X=PATTERNS):
        base, phis = _explain_matrix(model, X)
        ref_base, ref_phis = reference_explain_matrix(model, X)
        assert base == ref_base
        assert np.array_equal(phis, ref_phis)

    def test_random_models(self, rng):
        for n_trees in (1, 2, 5, 20):
            self.assert_identical(random_model(rng, n_trees))

    def test_stumps_and_empty_model(self):
        self.assert_identical(stump_model("cough", 0.9, -0.4, 3.0, 1.0))
        self.assert_identical(stump_model("contact_confirmed", -2.0, 1.5, 0.1, 7.3))
        self.assert_identical(Model(-0.7, (), TrainConfig()))

    def test_desk_scale_model(self):
        # the acceptance gate's criterion-5 model (51,831 records, defaults)
        train = synthesize(reference_marginals(), 4769, 51831 - 4769, seed=101)
        self.assert_identical(fit(train, TrainConfig()))

    def test_row_subsets_and_single_row(self, rng):
        model = random_model(rng, 6)
        self.assert_identical(model, PATTERNS[rng.permutation(256)[:37]])
        # a lone row is taken twice (one row would sum pairwise), so the oracle is fed it twice
        base, phis = _explain_matrix(model, PATTERNS[[200]])
        ref_base, ref_phis = reference_explain_matrix(model, PATTERNS[[200, 200]])
        assert base == ref_base
        assert np.array_equal(phis, ref_phis[:1])

    def test_feature_repeated_on_a_path(self):
        # load_model refuses this shape, but an in-memory Model can hold it
        inner = TreeNode(cover=3.0, feature=2, left=TreeNode(cover=1.0, value=0.5),
                         right=TreeNode(cover=2.0, value=-1.0))
        root = TreeNode(cover=5.0, feature=2, left=inner, right=TreeNode(cover=2.0, value=2.0))
        self.assert_identical(Model(0.0, (root,), TrainConfig()))


class TestRowsDoNotDependOnTheirBatch:
    """A pattern's phis are the same bits in every batch: `explain`'s per-model table relies on it."""

    def test_subsets_equal_the_pattern_table(self, rng):
        # the training set and the model of the seed-1 benchmark set-ups
        model = fit(synthesize(reference_marginals(), 476, 4706, seed=1001), TrainConfig(seed=1))
        base, table = _explain_matrix(model, PATTERNS)
        for size in (1, 2, 3, 121, 217):
            chosen = rng.permutation(256)[:size]
            ds = Dataset(pattern_codes(PATTERNS[chosen]), np.zeros(size, dtype=np.uint8))
            got_base, codes, phis, _ = explain_dataset(model, ds)
            assert got_base == base
            assert codes.tolist() == sorted(chosen.tolist())
            assert phis.tobytes() == table[codes].tobytes(), size

    def test_explain_reads_one_table_per_model(self, rng):
        model = random_model(rng, n_trees=4)
        first = explain(model, PATTERNS[9])
        base, table = model._shap_table
        first.contributions[:] = np.nan  # a caller's copy, not the table's row
        again = explain(model, PATTERNS[9])
        assert model._shap_table[1] is table
        assert again.base_value == base
        assert again.contributions.tobytes() == table[9].tobytes()


class TestExplainPatterns:
    def test_per_pattern_results_broadcast_to_records(self, rng):
        model = random_model(rng, n_trees=3)
        X = PATTERNS[rng.choice([3, 77, 140, 255], size=50)]
        ds = Dataset(pattern_codes(X), rng.integers(0, 2, size=50, dtype=np.uint8))
        base, codes, phis, inverse = explain_dataset(model, ds)
        assert codes.tolist() == [3, 77, 140, 255]
        assert np.array_equal(codes[inverse], pattern_codes(X))
        ref_base, ref_phis = reference_explain_matrix(model, PATTERNS[codes])
        assert base == ref_base and np.array_equal(phis, ref_phis)
        record_base, record_phis = explain_records(model, ds)
        assert record_base == base
        assert np.array_equal(record_phis, phis[inverse])

    def test_empty_dataset_rejected(self, rng):
        ds = Dataset(pattern_codes(np.zeros((0, 8), dtype=np.uint8)), np.zeros(0, dtype=np.uint8))
        with pytest.raises(ContractError, match="empty dataset"):
            explain_dataset(random_model(rng, n_trees=1), ds)


class TestMeanAbsShap:
    def test_empty_model_ranks_schema_order(self, rng):
        model = Model(0.0, (), TrainConfig())
        ds = make_dataset(rng, 20)
        ranking = mean_abs_shap(model, ds)
        assert [r.feature for r in ranking] == list(FEATURE_NAMES)
        assert all(r.mean_abs_shap == 0.0 for r in ranking)

    def test_matches_per_record_recomputation(self, rng):
        ds = make_dataset(rng, 200, p_pos=0.35)
        model = fit(ds, TrainConfig(num_rounds=8))
        ranking = mean_abs_shap(model, ds)

        sums = np.zeros(8)
        for x in ds.X:
            sums += np.abs(explain(model, x).contributions)
        means = sums / len(ds)
        order = sorted(range(8), key=lambda i: (-means[i], i))
        assert [r.feature for r in ranking] == [FEATURE_NAMES[i] for i in order]
        for r in ranking:
            assert abs(r.mean_abs_shap - means[FEATURE_NAMES.index(r.feature)]) <= 1e-12

    def test_ranking_is_descending(self, rng):
        ds = make_dataset(rng, 150)
        model = fit(ds, TrainConfig(num_rounds=5))
        values = [r.mean_abs_shap for r in mean_abs_shap(model, ds)]
        assert values == sorted(values, reverse=True)


class TestBeeswarmPoints:
    def test_one_triple_per_record_feature_pair(self, rng):
        model = random_model(rng, n_trees=2)
        X = rng.integers(0, 2, size=(3, 8), dtype=np.uint8)
        ds = Dataset(pattern_codes(X), np.array([0, 1, 0], dtype=np.uint8))
        points = beeswarm_points(model, ds)
        assert len(points) == 24
        assert all(isinstance(p, BeeswarmPoint) for p in points)

    def test_grouped_by_ranking_with_dataset_order_inside(self, rng):
        ds = make_dataset(rng, 40)
        model = fit(ds, TrainConfig(num_rounds=4))
        points = beeswarm_points(model, ds)
        ranking = [r.feature for r in mean_abs_shap(model, ds)]
        seen = []
        for p in points:
            if not seen or seen[-1] != p.feature:
                seen.append(p.feature)
        assert seen == ranking

        _, phis = explain_records(model, ds)
        for gi, feature in enumerate(ranking):
            fi = FEATURE_NAMES.index(feature)
            group = points[gi * len(ds):(gi + 1) * len(ds)]
            for r, p in enumerate(group):
                assert p.shap_value == float(phis[r, fi])
                assert p.feature_value == int(ds.X[r, fi])


class TestDegenerateTrees:
    def zero_cover_model(self):
        root = TreeNode(
            cover=0.0,
            feature=0,
            left=TreeNode(cover=0.0, value=1.0),
            right=TreeNode(cover=0.0, value=-1.0),
        )
        return Model(0.0, (root,), TrainConfig())

    def test_production_path_rejects_zero_cover(self):
        with pytest.raises(ContractError, match="degenerate tree cover"):
            explain(self.zero_cover_model(), np.zeros(8, dtype=np.uint8))

    def test_oracle_path_rejects_zero_cover(self):
        with pytest.raises(ContractError, match="degenerate tree cover"):
            shapley_brute_force(self.zero_cover_model(), np.zeros(8, dtype=np.uint8))
