"""Tree tests: exact greedy regression splits vs a brute-force oracle,
bit-identity of the pre-sorted builder with a per-node sort and of
trees that reuse the previous tree's rows with trees built alone,
bit-identity of the lockstep forest builder with one recursive tree per
generator, structural invariants of the randomized classification
trees, the peak memory of default fits, and the flat ``Forest`` router
against one-row ``apply_tree`` routing."""

import hashlib
import inspect
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gestrec import ExtraTreesClassifier, GradientBoostingClassifier, save_model
from gestrec.errors import NumericError
from gestrec.features import load_features
from gestrec.classifiers.boosting import _softmax_loss
from gestrec.classifiers.cart import (
    GROW_BLOCK,
    Forest,
    Node,
    NodeRows,
    RegressionTreeBuilder,
    apply_tree,
    build_random_split_forest,
    presort,
)
from gestrec.classifiers.store import _tree, node_to_dict
from test_boosting import staged_scores


def regression_tree(X, r, max_depth, h=None):
    """One tree from a builder of its own, on unit weights unless ``h`` is
    given: with unit weights every leaf is its rows' mean target."""
    builder = RegressionTreeBuilder(X, max_depth)
    h = np.ones(len(r)) if h is None else h
    return builder.build(r, h, np.empty(len(r)), builder.rows())


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
        tree = regression_tree(X, r, 1)
        gain, f, thr = brute_force_best_split(X, r)
        assert gain > 0
        assert tree.feature == f
        assert tree.threshold == pytest.approx(thr, rel=0, abs=0)

    def test_leaf_values_come_from_callback(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        r = np.array([1.0, 1.0, 5.0, 5.0])
        tree = regression_tree(X, r, 1)
        assert apply_tree(tree, np.array([0.5])) == pytest.approx(1.0)
        assert apply_tree(tree, np.array([2.5])) == pytest.approx(5.0)

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 3))
        r = rng.normal(size=200)
        for depth in (1, 2, 3):
            tree = regression_tree(X, r, depth)
            assert Forest([tree]).steps <= depth

    def test_constant_targets_make_a_leaf(self):
        X = np.arange(10.0)[:, None]
        r = np.full(10, 2.0)
        tree = regression_tree(X, r, 3)
        assert tree.feature == -1
        assert tree.value == pytest.approx(2.0)

    def test_constant_features_make_a_leaf(self):
        X = np.ones((10, 2))
        r = np.arange(10.0)
        tree = regression_tree(X, r, 3)
        assert tree.feature == -1

    def test_max_depth_zero_is_single_leaf(self):
        X = np.arange(6.0)[:, None]
        r = np.arange(6.0)
        tree = regression_tree(X, r, 0)
        assert tree.feature == -1

    def test_children_partition_rows(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(64, 5))
        r = rng.normal(size=64)
        tree = regression_tree(X, r, 3)

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
        tree = regression_tree(X, r, 1)
        assert tree.feature == 0
        assert tree.threshold < hi
        assert apply_tree(tree, np.array([lo])) == pytest.approx(0.0)
        assert apply_tree(tree, np.array([hi])) == pytest.approx(1.0)

    def test_midpoint_rounded_up_falls_back_to_the_lower_value(self):
        # (v1 + v2) / 2 rounds to v2 here (ties to even), which would send
        # both rows left; the builder splits at v1 instead.
        v1, v2 = 1.0000000000000002, 1.0000000000000004
        assert (v1 + v2) / 2.0 == v2
        X = np.array([[v1], [v2]])
        r = np.array([0.0, 1.0])
        tree = regression_tree(X, r, 1)
        assert tree.feature == 0
        assert tree.threshold == v1
        assert apply_tree(tree, X[0]) == 0.0
        assert apply_tree(tree, X[1]) == 1.0


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


def newton_leaf(r, h):
    """The builder's leaf value, for the reference builder. Order-sensitive:
    pairwise sums of the leaf's rows, ascending."""

    def value(idx):
        weight = h[idx].sum()
        return 0.0 if weight <= 0.0 else r[idx].sum() / weight

    return value


def weights(n, seed=0):
    """Positive, non-uniform Newton weights, as p * (1 - p) would give."""
    p = np.random.default_rng(seed).uniform(0.01, 0.99, size=n)
    return p * (1.0 - p)


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_same_tree(got: Node, want: Node) -> None:
    """Node for node: the same split features, and the same bits in every
    threshold and leaf value."""
    stack = [(got, want)]
    while stack:
        g, w = stack.pop()
        assert g.feature == w.feature
        if w.feature < 0:
            assert bits(g.value) == bits(w.value)
        else:
            assert bits(g.threshold) == bits(w.threshold)
            stack += ((g.left, w.left), (g.right, w.right))


class TestNewtonLeaves:
    """The builder's depth is fixed when it is made, and each leaf takes
    one Newton step: its rows' target sum over their weight sum, or 0.0
    where the weights sum to <= 0."""

    def test_depth_is_the_builders_and_build_takes_targets_and_weights(self):
        params = inspect.signature(RegressionTreeBuilder.build).parameters
        assert list(params) == ["self", "r", "h", "fitted", "rows"]
        assert RegressionTreeBuilder(np.zeros((3, 2)), 4).max_depth == 4

    @pytest.mark.parametrize("seed", range(6))
    def test_uneven_weights_equal_the_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng(200 + seed)
        X = rng.normal(size=(120, 4)).round(1)
        r = rng.normal(size=120)
        # Weights over six decades, as p * (1 - p) has late in a fit.
        h = 10.0 ** rng.uniform(-6.0, 0.0, size=120)
        builder = RegressionTreeBuilder(X, 4)
        fitted = np.full(120, np.nan)
        tree = builder.build(r, h, fitted, builder.rows())
        assert_same_tree(tree, reference_regression_tree(X, r, 4, newton_leaf(r, h)))
        assert np.array_equal(fitted, [apply_tree(tree, x) for x in X])
        # The weights moved the leaves off the unit-weight means.
        means = regression_tree(X, r, 4)
        assert not np.array_equal(fitted, [apply_tree(means, x) for x in X])

    def test_a_weight_sum_at_or_below_zero_makes_a_zero_leaf(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        r = np.array([1.0, 1.0, 5.0, 5.0])
        for h in ([0.0, 0.0, 0.5, 1.5], [-1.0, 0.5, 0.5, 1.5]):
            fitted = np.full(4, np.nan)
            builder = RegressionTreeBuilder(X, 1)
            tree = builder.build(r, np.array(h), fitted, builder.rows())
            assert (tree.feature, tree.threshold) == (0, 1.5)
            assert bits(tree.left.value) == bits(0.0)
            assert tree.right.value == 5.0
            assert fitted.tolist() == [0.0, 0.0, 5.0, 5.0]


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
        h = weights(n, seed)
        for depth in (1, 3, 5):
            want = reference_regression_tree(X, r, depth, newton_leaf(r, h))
            got = regression_tree(X, r, depth, h)
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
            h = weights(64, seed)
            want = reference_regression_tree(X, r, 4, newton_leaf(r, h))
            got = regression_tree(X, r, 4, h)
            assert node_to_dict(got) == node_to_dict(want)
            splits += got.feature >= 0
        assert splits >= 4, "too few fits split at all to test anything"

    def test_shared_presort_and_fitted_values(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(70, 6)).round(1)
        fitted = np.full(70, np.nan)
        for depth in (2, 3):
            r, h = rng.normal(size=70), weights(70, depth)
            builder = RegressionTreeBuilder(X, depth)
            tree = builder.build(r, h, fitted, builder.rows())
            want = reference_regression_tree(X, r, depth, newton_leaf(r, h))
            assert node_to_dict(tree) == node_to_dict(want)
            routed = np.array([apply_tree(tree, x) for x in X])
            assert np.array_equal(fitted, routed)

    def test_one_builder_reused_across_trees(self):
        # A boosting fit builds every tree from one builder: whatever an
        # earlier tree left in the scratch buffers must not reach a later
        # one, at any depth or target.
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 5)).round(1)
        fitted = np.full(80, np.nan)
        for depth in (5, 1, 3, 6, 2, 4):
            builder = RegressionTreeBuilder(X, depth)
            for t in range(3):
                r, h = rng.normal(size=80), weights(80, t)
                tree = builder.build(r, h, fitted, builder.rows())
                want = reference_regression_tree(X, r, depth, newton_leaf(r, h))
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

    def test_et_model_file_digest(self, tmp_path):
        # A default et fit on the same file. Unlike gb files (np.exp and
        # np.log round differently on AVX-512), et files are the same on
        # every numpy SIMD target.
        m = load_features(Path(__file__).parent / "data" / "small_matrix.csv")
        model = ExtraTreesClassifier().fit(m.X, m.gestures)
        path = save_model(model, tmp_path / "et.json")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "351db56763e371a96cdb10b79e0f10f1da3b62acaf0c0b92c903b9e517725e47"
        )


def split_records(rows: NodeRows) -> list:
    """The split of every ``NodeRows`` under ``rows`` that has one."""
    out, stack = [], [rows]
    while stack:
        here = stack.pop()
        if here.split is not None:
            out.append(here.split)
            stack += (here.split[4], here.split[3])
    return out


class TestRowReuse:
    """Trees built one after another through one ``NodeRows`` equal trees
    built one at a time, whether a node's split repeats the previous
    tree's (its children are reused) or not (they are made afresh)."""

    @staticmethod
    def run(X, targets, depth):
        """Build a tree per target through one ``NodeRows``; return how
        many splits were kept from the previous tree and how many were
        made afresh after the first tree."""
        builder = RegressionTreeBuilder(X, depth)
        rows = builder.rows()
        fitted = np.full(len(X), np.nan)
        kept = made = 0
        for t, r in enumerate(targets):
            before = split_records(rows)
            h = weights(len(X), t)
            tree = builder.build(r, h, fitted, rows)
            want = reference_regression_tree(X, r, depth, newton_leaf(r, h))
            assert_same_tree(tree, want)
            assert np.array_equal(fitted, [apply_tree(tree, x) for x in X])
            for split in split_records(rows):
                if any(split is b for b in before):
                    kept += 1
                elif t > 0:
                    made += 1
        return kept, made

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_heavy_ties(self, depth, seed):
        rng = np.random.default_rng(seed)
        n, d = 90, 7
        X = rng.normal(size=(n, d)).round(1) * rng.integers(1, 4, size=d)
        X[:, 0] = rng.integers(0, 3, size=n)
        r0, r1 = rng.choice([0.1, 0.7, -0.3, 1e-3], size=(2, n))
        nudged = r1.copy()
        nudged[rng.integers(n)] += 0.5
        # Halving scales every gain by a quarter exactly: the same splits.
        kept, made = self.run(X, [r0, r0 / 2, r1, r1 / 2, nudged, r0], depth)
        assert kept >= 2 and made >= 2

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_near_zero_gains(self, depth):
        rng = np.random.default_rng(100 + depth)
        X = rng.integers(0, 4, size=(64, 5)).astype(np.float64)
        targets = 0.1 + rng.choice([0.0, 1e-16, -1e-16, 3e-17], size=(8, 64))
        self.run(X, targets, depth)

    def test_one_builder_keeps_every_split_across_targets_and_weights(self):
        # A boosting fit's case: each stage brings new targets and new
        # weights to one builder. Targets scaled by a power of two, or
        # negated, choose the same splits, so every later tree keeps
        # each split record of the first, and only its leaves move.
        rng = np.random.default_rng(21)
        X = rng.normal(size=(60, 4)).round(1)
        r = rng.normal(size=60)
        builder = RegressionTreeBuilder(X, 3)
        rows, fitted = builder.rows(), np.full(60, np.nan)
        first, leaves = None, set()
        for t, scale in enumerate((1.0, 0.5, -2.0, 4.0)):
            target, h = scale * r, weights(60, t)
            tree = builder.build(target, h, fitted, rows)
            want = reference_regression_tree(X, target, 3, newton_leaf(target, h))
            assert_same_tree(tree, want)
            assert np.array_equal(fitted, [apply_tree(tree, x) for x in X])
            splits = split_records(rows)
            first = splits if first is None else first
            assert len(splits) == len(first) >= 3
            assert all(a is b for a, b in zip(splits, first))
            leaves.add(fitted.tobytes())
        assert len(leaves) == 4

    def test_a_changed_root_split_makes_new_children(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(50, 2))
        on_0, on_1 = (X[:, 0] > 0.0) * 1.0, (X[:, 1] > 0.5) * 1.0
        builder = RegressionTreeBuilder(X, 3)
        rows, ones = builder.rows(), np.ones(50)
        features = []
        for r in (on_0, on_1, on_0):
            tree = builder.build(r, ones, np.empty(50), rows)
            want = reference_regression_tree(X, r, 3, newton_leaf(r, ones))
            assert_same_tree(tree, want)
            features.append(tree.feature)
        assert features == [0, 1, 0]


class TestBoostingEqualsTreesBuiltOneAtATime:
    """A boosting fit's trees, whose nodes reuse the row sets of the stage
    before, equal the reference builder's trees grown one at a time on
    the same residuals."""

    @staticmethod
    def check(X, y, max_depth, n_stages=12):
        model = GradientBoostingClassifier(n_stages=n_stages, max_depth=max_depth)
        model.fit(X, y)
        _, y_idx = np.unique(y, return_inverse=True)
        n, k = len(y), len(model.classes_)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y_idx] = 1.0
        scores = np.tile(model.initial_scores_, (n, 1))
        for s in range(0, len(model.trees_), k):
            stage = model.trees_[s:s + k]
            p, _ = _softmax_loss(scores, y_idx)
            residual = onehot - p
            for c, got in enumerate(stage):
                r_c = residual[:, c]
                pq = p[:, c] * (1.0 - p[:, c])

                def newton_leaf(idx, r_c=r_c, pq=pq):
                    denom = pq[idx].sum()
                    return 0.0 if denom <= 0.0 else r_c[idx].sum() / denom

                want = reference_regression_tree(X, r_c, max_depth, newton_leaf)
                assert_same_tree(got, want)
                scores[:, c] += model.learning_rate * np.array(
                    [apply_tree(want, x) for x in X]
                )

    @pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
    def test_blobs(self, blob_data, max_depth):
        X, y = blob_data(n_classes=4, n_per=15, d=5, spread=2.0, seed=max_depth)
        self.check(X, y, max_depth)

    @pytest.mark.parametrize("max_depth", [1, 3, 4])
    def test_heavy_ties(self, max_depth):
        rng = np.random.default_rng(30 + max_depth)
        X = rng.normal(size=(80, 6)).round(1) * rng.integers(1, 4, size=6)
        X[:, 0] = rng.integers(0, 3, size=80)
        y = (X[:, 0] + rng.integers(0, 2, size=80)).astype(int)
        self.check(X, y, max_depth)


class TestRandomSplitTree:
    def grow(self, X, y, n_classes, seed=0, k=2, min_split=2):
        rng = np.random.Generator(np.random.PCG64(seed))
        return build_random_split_forest(X, y, n_classes, k, min_split, [rng])[0]

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


def _gini(counts, n):
    p = counts / n
    return 1.0 - float(p @ p)


def reference_random_split_tree(X, y, n_classes, k_features, min_samples_split, rng):
    """The classification builder grown recursively, one tree and one
    candidate at a time: the definition the lockstep forest builder must
    match bit for bit, draws included."""
    d = X.shape[1]
    k = min(k_features, d)

    def grow(idx: np.ndarray) -> Node:
        labels = y[idx]
        counts = np.bincount(labels, minlength=n_classes)
        n = idx.size
        if n < min_samples_split or counts.max() == n:
            return Node(value=counts / n)

        parent = _gini(counts, n)
        rows = X[idx]
        best_gain = 0.0
        best = None
        for f in rng.choice(d, size=k, replace=False):
            col = rows[:, f]
            lo = col.min()
            hi = col.max()
            if not lo < hi:
                continue
            thr = rng.uniform(lo, hi)
            if thr >= hi:  # uniform() can round up to hi
                thr = lo
            mask = col <= thr
            n_left = int(mask.sum())
            cl = np.bincount(labels[mask], minlength=n_classes)
            cr = counts - cl
            gain = parent - (
                n_left * _gini(cl, n_left) + (n - n_left) * _gini(cr, n - n_left)
            ) / n
            if gain > best_gain:
                best_gain = gain
                best = (int(f), float(thr), mask)
        if best is None:
            return Node(value=counts / n)
        f, thr, mask = best
        return Node(
            feature=f,
            threshold=thr,
            left=grow(idx[mask]),
            right=grow(idx[~mask]),
        )

    return grow(np.arange(X.shape[0]))


def generators(n_trees, seed):
    streams = np.random.SeedSequence(seed).spawn(n_trees)
    return [np.random.Generator(np.random.PCG64(s)) for s in streams]


class TestForestEqualsRecursiveBuilder:
    """``build_random_split_forest`` grows every tree node for node as the
    recursive reference does, and leaves every generator in the same
    state."""

    @staticmethod
    def check(X, y, n_classes, k, min_split, n_trees=12, seed=0):
        got_rngs = generators(n_trees, seed)
        want_rngs = generators(n_trees, seed)
        got = build_random_split_forest(X, y, n_classes, k, min_split, got_rngs)
        assert len(got) == n_trees
        for tree, rng, ref_rng in zip(got, got_rngs, want_rngs):
            want = reference_random_split_tree(X, y, n_classes, k, min_split, ref_rng)
            assert_same_tree(tree, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        return got

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 200])
    @pytest.mark.parametrize("min_split", [2, 5])
    def test_sizes(self, n, min_split):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 7))
        y = rng.integers(0, 3, size=n).astype(np.intp)
        self.check(X, y, 3, 3, min_split)

    @pytest.mark.parametrize("seed", range(4))
    def test_constant_and_duplicated_columns_and_rows(self, seed):
        rng = np.random.default_rng(10 + seed)
        X = rng.normal(size=(40, 6)).round(1)
        X[:, 0] = 2.5
        X[:, 3] = X[:, 1]
        X[:, 5] = rng.integers(0, 2, size=40)
        X = np.vstack([X, X[:25]])
        y = rng.integers(0, 4, size=len(X)).astype(np.intp)
        y[40:] = y[:25]
        self.check(X, y, 4, 2, 2, seed=seed)

    def test_duplicate_rows_with_every_label(self):
        # Splits gain nothing, or a rounding error's worth.
        X = np.repeat(np.arange(4.0)[:, None], 3, axis=0) * [1.0, -1.0]
        y = np.tile(np.arange(3), 4).astype(np.intp)
        self.check(X, y, 3, 2, 2)

    def test_adjacent_floats(self):
        # Thresholds drawn between adjacent floats round up to hi, and
        # the draw falls back to lo.
        lo, hi = 1.0, np.nextafter(1.0, 2.0)
        rng = np.random.default_rng(3)
        X = rng.choice([lo, hi], size=(50, 3))
        y = (X[:, 0] > lo).astype(np.intp) ^ rng.integers(0, 2, size=50).astype(np.intp)
        self.check(X, y, 2, 3, 2, n_trees=20)

    def test_one_class(self):
        X = np.random.default_rng(4).normal(size=(30, 4))
        trees = self.check(X, np.zeros(30, dtype=np.intp), 1, 2, 2)
        assert all(t.feature == -1 for t in trees)

    def test_no_features(self):
        X = np.empty((6, 0))
        trees = self.check(X, np.array([0, 1, 0, 1, 1, 1]), 2, 3, 2)
        assert all(t.value.tolist() == [2 / 6, 4 / 6] for t in trees)

    @pytest.mark.parametrize("k", [5, 6, 9])
    def test_k_features_at_least_d(self, k):
        rng = np.random.default_rng(k)
        X = rng.normal(size=(60, 5))
        y = rng.integers(0, 2, size=60).astype(np.intp)
        self.check(X, y, 2, k, 2)

    def test_steps_hit_the_row_budget(self):
        # 200-row roots: about 20 fit in one step, so 60 trees take
        # several steps even at the roots.
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 8))
        y = (X[:, 0] + 0.5 * rng.normal(size=200) > 0).astype(np.intp)
        y += 2 * (X[:, 1] > 0.3)
        assert 60 * 200 > 2 * GROW_BLOCK
        self.check(X, y, 4, 3, 2, n_trees=60)

    def test_a_root_larger_than_the_budget(self):
        rng = np.random.default_rng(7)
        n = GROW_BLOCK + 40
        X = rng.normal(size=(n, 2)).round(2)
        y = (X.sum(axis=1) > 0).astype(np.intp)
        self.check(X, y, 2, 1, 5, n_trees=2)

    def test_range_overflow_raises_as_uniform_does(self):
        X = np.array([[-1e308], [1e308], [0.0], [1.0]])
        y = np.array([0, 1, 0, 1], dtype=np.intp)
        with pytest.raises(OverflowError):
            reference_random_split_tree(X, y, 2, 1, 2, generators(1, 0)[0])
        # The lockstep builder refuses it with a typed error instead.
        with pytest.raises(NumericError, match="^feature 0 has a node range that overflows"):
            build_random_split_forest(X, y, 2, 1, 2, generators(1, 0))


class TestFitMemory:
    """Peak traced memory of default fits on 480 x 33 matrices. The row
    budget keeps an extra-trees step from scoring every root at once
    (about 9 MB), and the boosting fit keeps one tree of row orders per
    class (about 4.5 MB in all)."""

    @staticmethod
    def peak_mb(model, X, y) -> float:
        tracemalloc.start()
        try:
            model.fit(X, y)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_extra_trees(self, blob_data):
        X, y = blob_data(n_classes=2, n_per=240, d=33, spread=0.3, seed=1)
        model = ExtraTreesClassifier()
        assert self.peak_mb(model, X, y) < 3.0
        # A leaf value that viewed its step's counts would keep the whole
        # step's array alive.
        stack = list(model.trees_)
        while stack:
            node = stack.pop()
            if node.feature < 0:
                assert node.value.base is None
            else:
                stack += (node.left, node.right)

    def test_gradient_boosting(self, blob_data):
        X, y = blob_data(n_classes=8, n_per=60, d=33, spread=1.5, seed=2)
        assert self.peak_mb(GradientBoostingClassifier(), X, y) < 8.0


class TestNodeSerialization:
    """A tree written by ``store.node_to_dict`` and read back by the store's
    reader routes every row to the same leaf value."""

    @staticmethod
    def round_trip(tree, n_features, k):
        text = json.dumps(node_to_dict(tree))
        return _tree("m.json", 0, json.loads(text), n_features, k)

    def test_round_trip_regression(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(32, 3))
        r = rng.normal(size=32)
        tree = regression_tree(X, r, 3)
        back = self.round_trip(tree, 3, None)
        for x in X:
            assert apply_tree(back, x) == apply_tree(tree, x)

    def test_round_trip_classification(self):
        rng_data = np.random.default_rng(6)
        X = rng_data.normal(size=(40, 3))
        y = rng_data.integers(0, 2, size=40).astype(np.intp)
        rng = np.random.Generator(np.random.PCG64(1))
        tree = build_random_split_forest(X, y, 2, 2, 2, [rng])[0]
        back = self.round_trip(tree, 3, 2)
        for x in X:
            assert np.array_equal(apply_tree(back, x), apply_tree(tree, x))

    def test_leaf_forms(self):
        assert node_to_dict(Node(value=0.5)) == {"v": 0.5}
        d = node_to_dict(Node(value=np.array([0.25, 0.75])))
        assert d == {"p": [0.25, 0.75]}


class TestForest:
    """The router equals sequential ``apply_tree`` sums in tree order, bit
    for bit, for one row and for many rows, and lays its nodes out split
    nodes first, grouped by feature."""

    # One row, and many rows.
    ROW_COUNTS = [1, 69]

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
        assert_layout(model._forest, model.trees_)
        assert np.array_equal(model.predict_proba(Q), want)
        assert np.array_equal(model.predict_proba(Q[0]), want[0])

    @pytest.mark.parametrize("n_rows", ROW_COUNTS)
    def test_gb_equals_sequential_reference(self, blob_data, n_rows):
        X, y = blob_data(n_classes=3, n_per=20, spread=1.5, seed=42)
        model = GradientBoostingClassifier(n_stages=25, max_depth=3).fit(X, y)
        Q = np.random.default_rng(6).normal(0.0, 3.0, size=(n_rows, X.shape[1]))
        sums = np.zeros((n_rows, 3))
        for acc, q in zip(sums, Q):
            for i, tree in enumerate(model.trees_):
                acc[i % 3] += apply_tree(tree, q)
        want = model.initial_scores_ + model.learning_rate * sums
        assert_layout(model._forest, model.trees_)
        assert np.array_equal(model.decision_function(Q), want)
        assert np.array_equal(model.decision_function(Q[0]), want[0])

    def test_root_leaves_mixed_with_deep_trees(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 4))
        r = rng.normal(size=60)
        deep = regression_tree(X, r, 6)
        shallow = regression_tree(X, -r, 1)
        trees = [Node(value=1.5), deep, Node(value=-0.25), shallow]
        forest = Forest(trees)
        assert forest.steps == Forest([deep]).steps > Forest([shallow]).steps == 1
        assert_layout(forest, trees)
        Q = rng.normal(size=(35, 4))
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
        trees = [Node(value=np.array([0.25, 0.75])) for _ in range(3)]
        forest = Forest(trees)
        assert forest.steps == forest.n_split == forest.counts.size == 0
        assert_layout(forest, trees)
        assert np.array_equal(forest.sums(np.zeros((2, 5))), [[[0.75, 2.25]]] * 2)
        for width in (1, 3):
            assert_lone_rows_match(trees, np.zeros((2, 5)), width)

    def test_width_must_divide_the_tree_count(self):
        forest = Forest([Node(value=1.0)] * 3)
        with pytest.raises(ValueError, match="groups of 2"):
            forest.sums(np.zeros((1, 2)), width=2)

    def test_rows_wider_than_the_split_features(self):
        # Features 0 and 4 are constant, so no tree splits on them: counts
        # starts with a 0 and is shorter than a row.
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 5))
        X[:, 0] = X[:, 4] = 1.0
        r = rng.normal(size=60)
        depths = [4, 2, 0, 3]
        trees = [regression_tree(X, (k + 1) * r, d) for k, d in enumerate(depths)]
        forest = Forest(trees)
        assert forest.counts[0] == 0 and forest.counts.size < X.shape[1]
        assert_layout(forest, trees)
        Q = np.vstack([on_thresholds(forest, 10, 5, rng), rng.normal(0.0, 9.0, (10, 5))])
        for width in (1, 2, 4):
            assert_lone_rows_match(trees, Q, width)

    def test_scratch_does_not_grow_with_the_batch(self, blob_data):
        # Routing a check's thousands of rows at once must not add to the
        # peak memory: each row reuses the same scratch.
        X, y = blob_data(n_classes=4, n_per=20, spread=1.5, seed=46)
        forest = ExtraTreesClassifier(n_trees=30, seed=6).fit(X, y)._forest
        rng = np.random.default_rng(14)

        def scratch_bytes(n_rows):
            Q = rng.normal(0.0, 3.0, size=(n_rows, X.shape[1]))
            tracemalloc.start()
            try:
                out = forest.sums(Q)
                return tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()

        scratch_bytes(64)  # numpy's one-time allocations
        assert scratch_bytes(4096) <= scratch_bytes(64) + 1024


def sequential_sums(trees, x, width):
    """Per column, the ``apply_tree`` leaf values of its trees added one by
    one in tree order."""
    out = [0.0] * width
    for i, tree in enumerate(trees):
        out[i % width] = out[i % width] + apply_tree(tree, x)
    return np.array(out)


def walk_order(trees):
    """Every node of ``trees`` tree by tree, each in preorder."""
    nodes = []
    for root in trees:
        stack = [root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if node.feature >= 0:
                stack += (node.right, node.left)
    return nodes


def assert_layout(forest, trees):
    """The split nodes of ``trees`` hold the ids below ``n_split``, by
    feature and then in walk order; the leaves follow in walk order, and
    exactly they are their own next node. Every child and root id points
    at its node."""
    nodes = walk_order(trees)
    splits = sorted((n for n in nodes if n.feature >= 0), key=lambda n: n.feature)
    leaves = [n for n in nodes if n.feature < 0]
    ids = {id(n): j for j, n in enumerate(splits + leaves)}
    s = forest.n_split
    assert s == len(splits) and forest.feature.size == len(nodes)
    assert np.all(np.diff(forest.feature[:s]) >= 0)
    assert np.array_equal(forest.feature[:s], [n.feature for n in splits])
    assert np.array_equal(
        np.repeat(np.arange(forest.counts.size), forest.counts), forest.feature[:s]
    )
    assert np.array_equal(forest.threshold[:s], [n.threshold for n in splits])
    assert np.array_equal(forest.value[s:], [n.value for n in leaves])
    everything = np.arange(len(nodes))
    parked = (forest.delta == 0) & (forest.left == everything)
    assert np.array_equal(parked, everything >= s)
    assert np.array_equal(forest.left[:s], [ids[id(n.left)] for n in splits])
    assert np.array_equal(
        forest.left[:s] + forest.delta[:s], [ids[id(n.right)] for n in splits]
    )
    assert np.array_equal(forest.roots, [ids[id(t)] for t in trees])


def assert_lone_rows_match(trees, Q, width):
    """Each row of ``Q`` summed alone equals its row of ``Q`` summed in one
    call, and the sequential reference, bit for bit."""
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
    """A row passed to ``Forest.sums`` alone against the same row in a
    batch and ``apply_tree``."""

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
        trees = gb.trees_
        Q = self.queries(gb._forest, gb.n_features_, 2)
        assert_lone_rows_match(trees, Q, len(gb.classes_))
        assert_lone_rows_match(trees, Q, len(trees))
        for q in Q:
            assert np.array_equal(
                gb.decision_function(q), gb.decision_function(np.vstack([q, q]))[0]
            )

    def test_gb_staged_scores(self, gb):
        Q = self.queries(gb._forest, gb.n_features_, 3)
        block = staged_scores(gb, Q)
        for i, q in enumerate(Q):
            assert np.array_equal(staged_scores(gb, q[None, :]), block[:, i : i + 1])
            assert np.array_equal(staged_scores(gb, q), block[:, i : i + 1])

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
        depths = [7, 0, 1, 4, 2, 0]
        trees = [regression_tree(X, (k + 1) * r, d) for k, d in enumerate(depths)]
        assert [Forest([t]).steps for t in trees][:3] == [7, 0, 1]
        forest = Forest(trees)
        assert_layout(forest, trees)
        Q = np.vstack([on_thresholds(forest, 8, 3, rng), X[:8], [[1e300, -1e300, 1e300]]])
        for width in (1, 2, 3, 6):
            assert_lone_rows_match(trees, Q, width)
