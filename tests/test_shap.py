"""Exact SHAP attribution: production lattice path vs independent oracles."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcrboost import shap
from pcrboost.dataset import (
    FEATURE_NAMES,
    PATTERNS,
    Dataset,
    pattern_codes,
    reference_marginals,
    synthesize,
)
from pcrboost.errors import ContractError
from pcrboost.gbm import Model, TrainConfig, TreeNode, fit, load_model, save_model
from pcrboost.shap import _phi_table, explain, explain_dataset
from oracles import (
    BeeswarmPoint,
    assert_local_accuracy,
    beeswarm_points,
    clean_env,
    explain_records,
    make_dataset,
    mean_abs_shap,
    quickstart_training,
    random_model,
    reference_explain_matrix,
    scalar_shapley,
    shapley_brute_force,
    tree_value_scalar,
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

    def test_record_that_is_not_a_vector(self, rng):
        # a 2-D batch of one record, and a scalar: pattern_codes refuses each as a non-vector
        model = random_model(rng, n_trees=1)
        for record in (np.zeros((1, 8), dtype=np.uint8), np.uint8(0)):
            with pytest.raises(ContractError, match="feature vector length must be 8"):
                explain(model, record)


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
        base, phis = _phi_table(model)
        for code, x in enumerate(PATTERNS):
            exp = explain(model, x)
            assert exp.base_value == base
            assert np.array_equal(exp.contributions, phis[code]), code

    def test_single_pattern_dataset_equals_the_batch(self, rng):
        model = random_model(rng, n_trees=5)
        _, phis = _phi_table(model)
        ds = Dataset(pattern_codes(PATTERNS[[77] * 4]), np.zeros(4, dtype=np.uint8))
        _, table = explain_dataset(model, ds)
        assert table.tobytes() == phis.tobytes()
        assert np.array_equal(table[ds.codes], phis[[77] * 4])


class TestTopDownMatchesPerLeafReference:
    """The 3^8 value lattice and its term-table gathers against the per-leaf grid, bit for bit.

    Each tree is still walked top-down once, now into the partial-assignment
    lattice; the oracle multiplies every leaf's path over the (coalition x
    row) grid and combines the grid directly.
    """

    def assert_identical(self, model, codes=np.arange(256)):
        base, table = _phi_table(model)
        ref_base, ref_phis = reference_explain_matrix(model, PATTERNS[codes])
        assert base == ref_base
        assert np.array_equal(table[codes], ref_phis)

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

    def test_row_subsets(self, rng):
        self.assert_identical(random_model(rng, 6), rng.permutation(256)[:37])

    def test_feature_repeated_on_a_path(self):
        # load_model refuses this shape, but an in-memory Model can hold it
        inner = TreeNode(cover=3.0, feature=2, left=TreeNode(cover=1.0, value=0.5),
                         right=TreeNode(cover=2.0, value=-1.0))
        root = TreeNode(cover=5.0, feature=2, left=inner, right=TreeNode(cover=2.0, value=2.0))
        self.assert_identical(Model(0.0, (root,), TrainConfig()))


# leaf values with both signed zeros; covers from 1e-12 to 1e12
LEAF_VALUES = st.sampled_from([0.0, -0.0]) | st.floats(-4.0, 4.0)
COVERS = st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
                   st.floats(1.0, 9.99), st.integers(-12, 12))


@st.composite
def tree_nodes(draw, depth: int = 4) -> TreeNode:
    """A tree whose split features are drawn freely, so one may repeat on a path."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return TreeNode(cover=draw(COVERS), value=draw(LEAF_VALUES))
    left, right = draw(tree_nodes(depth - 1)), draw(tree_nodes(depth - 1))
    return TreeNode(cover=left.cover + right.cover, feature=draw(st.integers(0, 7)),
                    left=left, right=right)


@st.composite
def ensembles(draw) -> Model:
    """0 trees, or one fewer than, as many as, or more than one or two blocks of them."""
    block = shap._BLOCK
    n_trees = draw(st.sampled_from([0, block - 1, block, block + 1, 2 * block + 1]))
    trees = draw(st.lists(tree_nodes(), min_size=n_trees, max_size=n_trees))
    return Model(draw(LEAF_VALUES), tuple(trees), TrainConfig())


class TestBlocksMatchPerLeafReference:
    """The per-block sums against the per-leaf grid oracle, bit for bit, on drawn ensembles."""

    @settings(max_examples=15)
    @given(ensembles())
    def test_every_pattern_bit_for_bit(self, model):
        base, table = _phi_table(model)
        ref_base, ref_phis = reference_explain_matrix(model, PATTERNS)
        assert np.float64(base).tobytes() == np.float64(ref_base).tobytes()
        assert table.tobytes() == ref_phis.tobytes()


class TestFeatureRepeatedOnAPath:
    """A leaf below a repeated split that no code reaches adds nothing to the raw-score table."""

    def test_unreachable_leaf_is_not_scored(self):
        # x0 = 1 goes right at the root; the left subtree's right leaf (5.0) is unreachable
        inner = TreeNode(cover=2.0, feature=0, left=TreeNode(cover=1.0, value=1.0),
                         right=TreeNode(cover=1.0, value=5.0))
        root = TreeNode(cover=3.0, feature=0, left=inner, right=TreeNode(cover=1.0, value=-2.0))
        model = Model(0.0, (root,), TrainConfig())
        assert model.predict_raw(PATTERNS[1]) == tree_value_scalar(root, PATTERNS[1]) == -2.0
        for x in PATTERNS:
            assert model.predict_raw(x) == tree_value_scalar(root, x)
            assert_local_accuracy(model, explain(model, x), x)

    @settings(max_examples=15)
    @given(ensembles())
    def test_raw_table_is_routing_bit_for_bit(self, model):
        # base plus each tree's routed leaf, added in tree order as the table adds them
        want = np.full(len(PATTERNS), model.base_score)
        for tree in model.trees:
            want += [tree_value_scalar(tree, x) for x in PATTERNS]
        assert model._raw_table.tobytes() == want.tobytes()


class TestRowsDoNotDependOnTheirBatch:
    """A pattern's phis are the same bits in every batch: `explain`'s per-model table relies on it."""

    def test_subsets_equal_the_pattern_table(self, rng):
        # the seed-1 tenth-scale quick start's model
        model = fit(*quickstart_training(1))
        base, table = _phi_table(model)
        for size in (1, 2, 3, 121, 217):
            chosen = rng.permutation(256)[:size]
            ds = Dataset(pattern_codes(PATTERNS[chosen]), np.zeros(size, dtype=np.uint8))
            got_base, phis = explain_dataset(model, ds)
            assert got_base == base
            assert phis[ds.codes].tobytes() == table[chosen].tobytes(), size

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
        base, table = explain_dataset(model, ds)
        assert table.shape == (len(PATTERNS), 8)
        ref_base, ref_phis = reference_explain_matrix(model, X)
        assert base == ref_base and np.array_equal(table[ds.codes], ref_phis)
        record_base, record_phis = explain_records(model, ds)
        assert record_base == base
        assert np.array_equal(record_phis, ref_phis)

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


# Runs shap._phi_table in a fresh interpreter with one OS thread, on the model document in
# argv[1] cut to its first argv[3] trees (all of them if not given) and changed by the mode
# in argv[2]. It prints how often os.fork was called, the exit codes of the reaped workers
# ("-" if none), whether a child process is left unreaped, and the table's bytes (hex) or
# the ContractError text. Modes: "as-is"; "short", whose worker's _tree_terms yields one
# tree fewer; "raises", whose worker's _tree_terms raises after three trees; "fork-fails",
# where os.fork raises EAGAIN; "map-fails", where mmap.mmap raises ENOMEM; "zero-cover",
# whose second-half tree has a zero internal cover; "few-trees" (run on _BLOCK trees) and
# "second-thread", where os.fork fails if called.
SPLIT_CHILD = """
import errno, itertools, mmap, os, sys, threading
from pcrboost import shap
from pcrboost.errors import ContractError
from pcrboost.gbm import Model, TreeNode, load_model

assert len(os.listdir("/proc/self/task")) == 1, "the child must start with one thread"
model = load_model(open(sys.argv[1], encoding="utf-8").read())
trees, mode, forks, codes = model.trees, sys.argv[2], [], []
trees = trees[:int(sys.argv[3])] if len(sys.argv) > 3 else trees
fork, waitpid, tree_terms, parent = os.fork, os.waitpid, shap._tree_terms, os.getpid()

def counted_fork():
    forks.append(mode)
    if mode in ("few-trees", "second-thread"):
        raise AssertionError("os.fork called")
    if mode == "fork-fails":
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
    return fork()

def recorded_waitpid(pid, options):
    reaped = waitpid(pid, options)
    codes.append(str(os.waitstatus_to_exitcode(reaped[1])))
    return reaped

def failing_map(*args):
    raise OSError(errno.ENOMEM, "Cannot allocate memory")

def worker_terms(trees):
    terms = tree_terms(trees)
    if os.getpid() == parent:
        yield from terms
    elif mode == "short":
        yield from itertools.islice(terms, len(trees) - 1)
    else:
        for _ in range(3):
            yield next(terms)
        raise RuntimeError("the worker fails after three trees")

os.fork, os.waitpid = counted_fork, recorded_waitpid
if mode == "map-fails":
    mmap.mmap = failing_map
if mode in ("short", "raises"):
    shap._tree_terms = worker_terms
if mode == "zero-cover":
    zero = TreeNode(cover=0.0, feature=0, left=TreeNode(cover=0.0, value=1.0),
                    right=TreeNode(cover=0.0, value=-1.0))
    k = len(trees) // 2 + 1
    trees = trees[:k] + (zero,) + trees[k + 1:]
stop = threading.Event()
if mode == "second-thread":
    threading.Thread(target=stop.wait).start()
try:
    base, phis = shap._phi_table(Model(model.base_score, trees, model.config))
    result = float(base).hex() + " " + phis.tobytes().hex()
except ContractError as err:
    result = str(err)
stop.set()
try:
    waitpid(-1, os.WNOHANG)
    left = "child-left"
except ChildProcessError:
    left = "no-child"
print(len(forks), ",".join(codes) or "-", left, result)
"""


class TestSplitAcrossProcesses:
    """The table built with a forked worker for the second half of the trees, bit for bit."""

    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        # the seed-1 tenth-scale quick start's model: 100 trees, four blocks
        path = tmp_path_factory.mktemp("split") / "model.json"
        path.write_text(save_model(fit(*quickstart_training(1))), encoding="utf-8")
        return path

    def run_child(self, model_path, mode, n_trees=None) -> list[str]:
        env = dict(clean_env(), OPENBLAS_NUM_THREADS="1")  # as a pcrboost process sets it
        args = [str(model_path), mode] + ([str(n_trees)] if n_trees else [])
        proc = subprocess.run([sys.executable, "-c", SPLIT_CHILD, *args],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.rstrip("\n").split(" ", 3)

    def serial(self, model, monkeypatch):
        # one usable CPU: the in-process path, whatever threads this process runs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", None)  # a call would fail
        return _phi_table(model)

    # 26 and 61 trees split off block boundaries: halves of 13 and 13, 30 and 31 trees
    @pytest.mark.parametrize("mode, n_trees, forks, codes", [
        pytest.param("as-is", None, "1", "0", id="as-is"),
        pytest.param("as-is", 26, "1", "0", id="as-is-26"),
        pytest.param("as-is", 61, "1", "0", id="as-is-61"),
        pytest.param("short", None, "1", "1", id="short"),
        pytest.param("raises", None, "1", "1", id="raises"),
        pytest.param("fork-fails", None, "1", "-", id="fork-fails"),
        pytest.param("map-fails", None, "0", "-", id="map-fails"),
    ])
    def test_forked_table_equals_the_serial_table(self, model_path, mode, n_trees, forks,
                                                  codes, monkeypatch):
        model = load_model(model_path.read_text(encoding="utf-8"))
        trees = model.trees[:n_trees]
        assert len(trees) > shap._BLOCK
        base, phis = self.serial(Model(model.base_score, trees, model.config), monkeypatch)
        assert self.run_child(model_path, mode, n_trees) == [
            forks, codes, "no-child", float(base).hex() + " " + phis.tobytes().hex()]

    @pytest.mark.parametrize("mode", ["few-trees", "second-thread"])
    def test_no_fork_with_few_trees_or_a_second_thread(self, model_path, mode, monkeypatch):
        model = load_model(model_path.read_text(encoding="utf-8"))
        n_trees = shap._BLOCK if mode == "few-trees" else None
        trees = model.trees[:n_trees]
        base, phis = self.serial(Model(model.base_score, trees, model.config), monkeypatch)
        assert self.run_child(model_path, mode, n_trees) == [
            "0", "-", "no-child", float(base).hex() + " " + phis.tobytes().hex()]

    def test_zero_cover_in_the_second_half_is_the_serial_error(self, model_path, monkeypatch):
        model = load_model(model_path.read_text(encoding="utf-8"))
        zero = TreeNode(cover=0.0, feature=0, left=TreeNode(cover=0.0, value=1.0),
                        right=TreeNode(cover=0.0, value=-1.0))
        k = len(model.trees) // 2 + 1
        bad = Model(model.base_score, model.trees[:k] + (zero,) + model.trees[k + 1:],
                    model.config)
        with pytest.raises(ContractError) as serial:
            self.serial(bad, monkeypatch)
        assert self.run_child(model_path, "zero-cover") == [
            "1", "1", "no-child", str(serial.value)]
