"""Tree tests: exact greedy regression splits vs a brute-force oracle,
bit-identity of the pre-sorted builder with a per-node sort, structural
invariants of the randomized classification trees, and the flat
``Forest`` router against one-row ``apply_tree`` routing."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from gestrec import ExtraTreesClassifier, GradientBoostingClassifier, save_model
from gestrec.features import load_features
from gestrec.classifiers.cart import (
    ROUTE_BLOCK,
    Forest,
    Node,
    RegressionTreeBuilder,
    apply_tree,
    build_random_split_tree,
    build_regression_tree,
    node_from_dict,
    node_to_dict,
    presort,
    tree_depth,
)


def mean_leaf(r):
    def value(idx):
        return float(np.mean(r[idx]))
    return value


def brute_force_best_split(X, r):
    """Scan every feature and boundary; lowest feature index wins ties."""
    n, d = X.shape
    base = float(np.sum((r - r.mean()) ** 2))
    best = None  # (gain, feature, threshold)
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        vals = X[order, f]
        rs = r[order]
        for i in range(n - 1):
            if vals[i] == vals[i + 1]:
                continue
            left, right = rs[: i + 1], rs[i + 1:]
            sse = float(np.sum((left - left.mean()) ** 2)) + float(
                np.sum((right - right.mean()) ** 2)
            )
            gain = base - sse
            thr = (vals[i] + vals[i + 1]) / 2.0
            if thr >= vals[i + 1]:
                thr = vals[i]
            if best is None or gain > best[0] + 1e-12:
                best = (gain, f, thr)
    return best


class TestRegressionTree:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_root_split_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 4))
        r = rng.normal(size=30)
        tree = build_regression_tree(X, r, max_depth=1, leaf_value=mean_leaf(r))
        gain, f, thr = brute_force_best_split(X, r)
        assert gain > 0
        assert tree.feature == f
        assert tree.threshold == pytest.approx(thr, rel=0, abs=0)

    def test_leaf_values_come_from_callback(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        r = np.array([1.0, 1.0, 5.0, 5.0])
        tree = build_regression_tree(X, r, max_depth=1, leaf_value=mean_leaf(r))
        assert apply_tree(tree, np.array([0.5])) == pytest.approx(1.0)
        assert apply_tree(tree, np.array([2.5])) == pytest.approx(5.0)

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 3))
        r = rng.normal(size=200)
        for depth in (1, 2, 3):
            tree = build_regression_tree(X, r, depth, mean_leaf(r))
            assert tree_depth(tree) <= depth

    def test_constant_targets_make_a_leaf(self):
        X = np.arange(10.0)[:, None]
        r = np.full(10, 2.0)
        tree = build_regression_tree(X, r, max_depth=3, leaf_value=mean_leaf(r))
        assert tree.feature == -1
        assert tree.value == pytest.approx(2.0)

    def test_constant_features_make_a_leaf(self):
        X = np.ones((10, 2))
        r = np.arange(10.0)
        tree = build_regression_tree(X, r, max_depth=3, leaf_value=mean_leaf(r))
        assert tree.feature == -1

    def test_max_depth_zero_is_single_leaf(self):
        X = np.arange(6.0)[:, None]
        r = np.arange(6.0)
        tree = build_regression_tree(X, r, max_depth=0, leaf_value=mean_leaf(r))
        assert tree.feature == -1

    def test_children_partition_rows(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(64, 5))
        r = rng.normal(size=64)
        tree = build_regression_tree(X, r, 3, mean_leaf(r))

        def check(node, rows):
            if node.feature < 0:
                assert rows.size >= 1
                return
            mask = rows_X[rows, node.feature] <= node.threshold
            left, right = rows[mask], rows[~mask]
            assert left.size > 0 and right.size > 0
            check(node.left, left)
            check(node.right, right)

        rows_X = X
        check(tree, np.arange(64))

    def test_adjacent_float_midpoint_stays_left_of_upper(self):
        lo = 1.0
        hi = np.nextafter(1.0, 2.0)
        X = np.array([[lo], [lo], [hi], [hi]])
        r = np.array([0.0, 0.0, 1.0, 1.0])
        tree = build_regression_tree(X, r, 1, mean_leaf(r))
        assert tree.feature == 0
        assert tree.threshold < hi
        assert apply_tree(tree, np.array([lo])) == pytest.approx(0.0)
        assert apply_tree(tree, np.array([hi])) == pytest.approx(1.0)


def reference_regression_tree(X, r, max_depth, leaf_value):
    """The regression builder with a stable argsort of the node's own rows
    at every node: the definition the pre-sorted builder must match bit
    for bit."""

    def grow(idx, depth):
        n = idx.size
        if depth >= max_depth or n < 2:
            return Node(value=float(leaf_value(idx)))
        rows = X[idx]
        order = np.argsort(rows, axis=0, kind="stable")
        sorted_vals = np.take_along_axis(rows, order, axis=0)
        cs = np.cumsum(r[idx][order], axis=0)
        total = cs[-1, 0]
        n_left = np.arange(1, n, dtype=np.float64)[:, None]
        sums_l = cs[:-1]
        gains = sums_l**2 / n_left + (total - sums_l) ** 2 / (n - n_left)
        gains -= total**2 / n
        gains[sorted_vals[:-1] == sorted_vals[1:]] = -np.inf
        pos = np.argmax(gains, axis=0)
        best = gains[pos, np.arange(rows.shape[1])]
        f = int(np.argmax(best))
        if not best[f] > 0.0:
            return Node(value=float(leaf_value(idx)))
        v1, v2 = sorted_vals[pos[f], f], sorted_vals[pos[f] + 1, f]
        thr = (v1 + v2) / 2.0
        if thr >= v2:
            thr = v1
        mask = rows[:, f] <= thr
        return Node(f, float(thr), grow(idx[mask], depth + 1), grow(idx[~mask], depth + 1))

    return grow(np.arange(X.shape[0]), 0)


def sum_leaf(r):
    """Order-sensitive leaf value: a pairwise sum of the leaf's rows."""

    def value(idx):
        return float(np.sum(r[idx]) / (idx.size + 1.0))

    return value


class TestPresortedBuilderIsBitIdentical:
    @pytest.mark.parametrize("seed", range(12))
    def test_heavy_ties(self, seed):
        # Rounded columns with few distinct values (and both signs of
        # zero): tie order decides every cumulative sum.
        rng = np.random.default_rng(seed)
        n, d = 90, 7
        X = rng.normal(size=(n, d)).round(1) * rng.integers(1, 4, size=d)
        X[:, 0] = rng.integers(0, 3, size=n)
        r = rng.choice([0.1, 0.7, -0.3, 1e-3], size=n)
        for depth in (1, 3, 5):
            want = reference_regression_tree(X, r, depth, sum_leaf(r))
            got = build_regression_tree(X, r, depth, sum_leaf(r))
            assert node_to_dict(got) == node_to_dict(want)

    def test_near_zero_gains(self):
        # Nearly constant targets: every true gain is ~0, and rounding in
        # the sums decides the sign, so any change in summation order or
        # in how total**2 / n is formed shows up as a different tree.
        splits = 0
        for seed in range(16):
            rng = np.random.default_rng(100 + seed)
            X = rng.integers(0, 4, size=(64, 5)).astype(np.float64)
            r = 0.1 + rng.choice([0.0, 1e-16, -1e-16, 3e-17], size=64)
            want = reference_regression_tree(X, r, 4, sum_leaf(r))
            got = build_regression_tree(X, r, 4, sum_leaf(r))
            assert node_to_dict(got) == node_to_dict(want)
            splits += got.feature >= 0
        assert splits >= 4, "too few fits split at all to test anything"

    def test_shared_presort_and_fitted_values(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(70, 6)).round(1)
        order = presort(X)
        fitted = np.full(70, np.nan)
        for depth in (2, 3):
            r = rng.normal(size=70)
            tree = build_regression_tree(X, r, depth, sum_leaf(r), order, fitted)
            want = reference_regression_tree(X, r, depth, sum_leaf(r))
            assert node_to_dict(tree) == node_to_dict(want)
            routed = np.array([apply_tree(tree, x) for x in X])
            assert np.array_equal(fitted, routed)

    def test_one_builder_reused_across_trees(self):
        # A boosting fit builds every tree from one builder: whatever an
        # earlier tree left in the scratch buffers must not reach a later
        # one, at any depth or target.
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 5)).round(1)
        builder = RegressionTreeBuilder(X)
        fitted = np.full(80, np.nan)
        for depth in (5, 1, 3, 6, 2, 4):
            r = rng.normal(size=80)
            tree = builder.build(r, depth, sum_leaf(r), fitted)
            want = reference_regression_tree(X, r, depth, sum_leaf(r))
            assert node_to_dict(tree) == node_to_dict(want)
            assert np.array_equal(fitted, [apply_tree(tree, x) for x in X])

    def test_presort_is_stable_per_feature(self):
        X = np.array([[1.0, 0.0], [0.0, -0.0], [1.0, 0.0], [0.0, 2.0]])
        assert presort(X).tolist() == [[1, 3, 0, 2], [0, 1, 2, 3]]

    def test_gb_model_file_digest(self, tmp_path):
        # Recorded with the per-node-sort builder; a default gb fit on
        # the small fixture must still write the very same file. The
        # matrix is read from a file (the ``small_matrix`` fixture as
        # once extracted, written with 17 digits), so this pins the tree
        # builder alone, not the feature arithmetic.
        m = load_features(Path(__file__).parent / "data" / "small_matrix.csv")
        model = GradientBoostingClassifier().fit(m.X, m.gestures)
        path = save_model(model, tmp_path / "gb.json")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "f7b4b59c49875c4dad393a65f2783f02838b2da276c2861e03ac04eda90dd42f"
        )


class TestRandomSplitTree:
    def grow(self, X, y, n_classes, seed=0, k=2, min_split=2):
        rng = np.random.Generator(np.random.PCG64(seed))
        return build_random_split_tree(X, y, n_classes, k, min_split, rng)

    def test_pure_data_is_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(12, 3))
        y = np.zeros(12, dtype=np.intp)
        tree = self.grow(X, y, n_classes=1)
        assert tree.feature == -1
        assert tree.value.tolist() == [1.0]

    def test_fully_grown_on_separable_data(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(0, 0.1, (20, 2)), rng.normal(5, 0.1, (20, 2))])
        y = np.repeat(np.arange(2), 20).astype(np.intp)
        tree = self.grow(X, y, n_classes=2)
        preds = [int(np.argmax(apply_tree(tree, x))) for x in X]
        assert preds == y.tolist()

    def test_leaf_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 3, size=60).astype(np.intp)
        tree = self.grow(X, y, n_classes=3, k=3)

        def walk(node):
            if node.feature < 0:
                assert abs(float(np.sum(node.value)) - 1.0) <= 1e-12
                return
            walk(node.left)
            walk(node.right)

        walk(tree)

    def test_children_nonempty_everywhere(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 4))
        y = rng.integers(0, 4, size=80).astype(np.intp)
        tree = self.grow(X, y, n_classes=4, k=4)

        def check(node, rows):
            if node.feature < 0:
                assert rows.size >= 1
                return
            mask = X[rows, node.feature] <= node.threshold
            assert mask.sum() > 0 and (~mask).sum() > 0
            check(node.left, rows[mask])
            check(node.right, rows[~mask])

        check(tree, np.arange(80))

    def test_constant_candidate_features_make_a_leaf(self):
        X = np.ones((10, 2))
        y = np.array([0] * 5 + [1] * 5, dtype=np.intp)
        tree = self.grow(X, y, n_classes=2)
        assert tree.feature == -1
        assert tree.value.tolist() == [0.5, 0.5]

    def test_same_stream_same_tree(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 5))
        y = rng.integers(0, 3, size=50).astype(np.intp)
        t1 = self.grow(X, y, n_classes=3, seed=99, k=3)
        t2 = self.grow(X, y, n_classes=3, seed=99, k=3)
        assert node_to_dict(t1) == node_to_dict(t2)


class TestNodeSerialization:
    def test_round_trip_regression(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(32, 3))
        r = rng.normal(size=32)
        tree = build_regression_tree(X, r, 3, mean_leaf(r))
        back = node_from_dict(node_to_dict(tree))
        for x in X:
            assert apply_tree(back, x) == apply_tree(tree, x)

    def test_round_trip_classification(self):
        rng_data = np.random.default_rng(6)
        X = rng_data.normal(size=(40, 3))
        y = rng_data.integers(0, 2, size=40).astype(np.intp)
        rng = np.random.Generator(np.random.PCG64(1))
        tree = build_random_split_tree(X, y, 2, 2, 2, rng)
        back = node_from_dict(node_to_dict(tree))
        for x in X:
            assert np.array_equal(apply_tree(back, x), apply_tree(tree, x))

    def test_leaf_forms(self):
        assert node_to_dict(Node(value=0.5)) == {"v": 0.5}
        d = node_to_dict(Node(value=np.array([0.25, 0.75])))
        assert d == {"p": [0.25, 0.75]}


class TestForest:
    """The router equals sequential ``apply_tree`` sums in tree order, bit
    for bit, for one row and for blocks of rows."""

    # One row, and more rows than one block with a ragged last block.
    ROW_COUNTS = [1, 2 * ROUTE_BLOCK + 5]

    @pytest.mark.parametrize("n_rows", ROW_COUNTS)
    def test_et_equals_sequential_reference(self, blob_data, n_rows):
        X, y = blob_data(n_classes=4, n_per=20, spread=1.5, seed=41)
        model = ExtraTreesClassifier(n_trees=30, seed=3).fit(X, y)
        Q = np.random.default_rng(5).normal(0.0, 3.0, size=(n_rows, X.shape[1]))
        want = np.zeros((n_rows, 4))
        for acc, q in zip(want, Q):
            for tree in model.trees_:
                acc += apply_tree(tree, q)
        want /= model.n_trees
        assert np.array_equal(model.predict_proba(Q), want)
        assert np.array_equal(model.predict_proba(Q[0]), want[0])

    @pytest.mark.parametrize("n_rows", ROW_COUNTS)
    def test_gb_equals_sequential_reference(self, blob_data, n_rows):
        X, y = blob_data(n_classes=3, n_per=20, spread=1.5, seed=42)
        model = GradientBoostingClassifier(n_stages=25, max_depth=3).fit(X, y)
        Q = np.random.default_rng(6).normal(0.0, 3.0, size=(n_rows, X.shape[1]))
        sums = np.zeros((n_rows, 3))
        for acc, q in zip(sums, Q):
            for stage in model.stages_:
                for c, tree in enumerate(stage):
                    acc[c] += apply_tree(tree, q)
        want = model.initial_scores_ + model.learning_rate * sums
        assert np.array_equal(model.decision_function(Q), want)
        assert np.array_equal(model.decision_function(Q[0]), want[0])

    def test_root_leaves_mixed_with_deep_trees(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 4))
        r = rng.normal(size=60)
        deep = build_regression_tree(X, r, 6, mean_leaf(r))
        shallow = build_regression_tree(X, -r, 1, mean_leaf(-r))
        trees = [Node(value=1.5), deep, Node(value=-0.25), shallow]
        forest = Forest(trees)
        assert forest.steps == tree_depth(deep) > tree_depth(shallow) == 1
        Q = rng.normal(size=(ROUTE_BLOCK + 3, 4))
        Q[:5, deep.feature] = deep.threshold  # a tie goes left
        per_tree = forest.sums(Q, width=len(trees))
        assert np.array_equal(
            per_tree, [[apply_tree(t, q) for t in trees] for q in Q]
        )
        # Width 2: trees 0 and 2 (the root leaves) add to column 0.
        pairs = forest.sums(Q, width=2)
        assert np.array_equal(pairs[:, 0], np.full(len(Q), 1.5 + -0.25))
        assert np.array_equal(pairs[:, 1], per_tree[:, 1] + per_tree[:, 3])

    def test_one_row_of_scalar_leaves_adds_in_tree_order(self):
        # One row, width 1 and float leaves make a 1-D reduction, which
        # numpy's sum would add pairwise, not in tree order.
        values = np.random.default_rng(8).normal(size=100) * np.logspace(-3, 3, 100)
        want = 0.0
        for v in values:
            want += v
        forest = Forest([Node(value=float(v)) for v in values])
        assert forest.sums(np.zeros((1, 1))).item() == want

    def test_only_root_leaves_need_no_steps(self):
        forest = Forest([Node(value=np.array([0.25, 0.75]))] * 3)
        assert forest.steps == 0
        assert np.array_equal(forest.sums(np.zeros((2, 5))), [[[0.75, 2.25]]] * 2)

    def test_width_must_divide_the_tree_count(self):
        forest = Forest([Node(value=1.0)] * 3)
        with pytest.raises(ValueError, match="groups of 2"):
            forest.sums(np.zeros((1, 2)), width=2)


def sequential_sums(trees, x, width):
    """Per column, the ``apply_tree`` leaf values of its trees added one by
    one in tree order."""
    out = [0.0] * width
    for i, tree in enumerate(trees):
        out[i % width] = out[i % width] + apply_tree(tree, x)
    return np.array(out)


def assert_lone_rows_match(trees, Q, width):
    """Each row of ``Q`` summed alone (the lone-row schedule) equals its
    row of ``Q`` summed as a block, and the sequential reference, bit for
    bit."""
    assert len(Q) >= 2
    forest = Forest(trees)
    block = forest.sums(Q, width)
    for i, q in enumerate(Q):
        lone = forest.sums(Q[i : i + 1], width)
        assert lone.shape == block[i : i + 1].shape
        assert np.array_equal(lone, block[i : i + 1])
        assert np.array_equal(lone[0], sequential_sums(trees, q, width))


def on_thresholds(forest, n_rows, d, rng):
    """Rows whose every feature sits exactly on a threshold of the forest
    that splits on it (a tie goes left), where there is one."""
    Q = rng.normal(size=(n_rows, d))
    splits = np.flatnonzero(forest.delta)
    for row in Q:
        for j in rng.choice(splits, size=min(splits.size, 4 * d)):
            row[forest.feature[j]] = forest.threshold[j]
    return Q


class TestLoneRow:
    """The lone-row schedule of ``Forest.sums`` against the block router
    and ``apply_tree``."""

    @pytest.fixture
    def et(self, blob_data):
        X, y = blob_data(n_classes=4, n_per=20, spread=1.5, seed=43)
        return ExtraTreesClassifier(n_trees=20, seed=4).fit(X, y)

    @pytest.fixture
    def gb(self, blob_data):
        X, y = blob_data(n_classes=3, n_per=20, spread=1.5, seed=44)
        return GradientBoostingClassifier(n_stages=12, max_depth=3).fit(X, y)

    @staticmethod
    def queries(forest, d, seed):
        rng = np.random.default_rng(seed)
        huge = 1e300 * rng.choice([-1.0, 1.0], size=(4, d))
        return np.vstack([rng.normal(0.0, 3.0, size=(6, d)),
                          on_thresholds(forest, 6, d, rng), huge])

    def test_et(self, et):
        Q = self.queries(et._forest, et.n_features_, 1)
        assert_lone_rows_match(et.trees_, Q, 1)
        for q in Q:
            assert np.array_equal(et.predict_proba(q), et.predict_proba(np.vstack([q, q]))[0])

    def test_gb(self, gb):
        trees = [t for stage in gb.stages_ for t in stage]
        Q = self.queries(gb._forest, gb.n_features_, 2)
        assert_lone_rows_match(trees, Q, len(gb.classes_))
        assert_lone_rows_match(trees, Q, len(trees))
        for q in Q:
            assert np.array_equal(
                gb.decision_function(q), gb.decision_function(np.vstack([q, q]))[0]
            )

    def test_gb_staged_scores(self, gb):
        Q = self.queries(gb._forest, gb.n_features_, 3)
        block = gb.staged_scores(Q)
        for i, q in enumerate(Q):
            assert np.array_equal(gb.staged_scores(q[None, :]), block[:, i : i + 1])
            assert np.array_equal(gb.staged_scores(q), block[:, i : i + 1])

    def test_single_leaf_trees_take_no_steps(self):
        trees = [Node(value=np.array([0.5, 0.5])), Node(value=np.array([0.125, 0.875]))]
        assert Forest(trees).steps == 0
        Q = np.random.default_rng(4).normal(size=(3, 2))
        assert_lone_rows_match(trees, Q, 1)
        assert_lone_rows_match(trees, Q, 2)

    def test_mixed_depths(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 3))
        r = rng.normal(size=80)
        trees = [build_regression_tree(X, (k + 1) * r, depth, mean_leaf((k + 1) * r))
                 for k, depth in enumerate([7, 0, 1, 4, 2, 0])]
        assert [tree_depth(t) for t in trees][:3] == [7, 0, 1]
        forest = Forest(trees)
        Q = np.vstack([on_thresholds(forest, 8, 3, rng), X[:8], [[1e300, -1e300, 1e300]]])
        for width in (1, 2, 3, 6):
            assert_lone_rows_match(trees, Q, width)
