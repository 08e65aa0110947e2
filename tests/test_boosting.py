"""Gradient boosting vs a hand-stepped oracle of the additive recursion.

The oracle re-implements the full fitting recursion for depth-1 stumps
from the written contract alone: log-prior init, softmax residuals, an
exhaustive least-squares stump search with midpoint thresholds (lowest
feature index, then smallest split position on ties), a single Newton
step per leaf, and learning-rate shrinkage. It shares no code with the
package.
"""

import json

import numpy as np
import pytest

from gestrec import ExtraTreesClassifier, GradientBoostingClassifier, load_model, save_model
from gestrec.classifiers._rows import feature_rows
from gestrec.classifiers.cart import Forest, Node
from gestrec.classifiers.store import node_to_dict
from gestrec.errors import NumericError

# ---------------------------------------------------------------- oracle


def oracle_softmax(scores):
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def oracle_best_stump(X, r):
    """Exhaustive depth-1 split: (feature, threshold, left_rows, right_rows)."""
    n, d = X.shape
    total = r.sum()
    best = None  # (gain, f, pos_in_feature_order, thr, mask)
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        vals = X[order, f]
        for i in range(n - 1):
            if vals[i] == vals[i + 1]:
                continue
            s_l = r[order[: i + 1]].sum()
            n_l = i + 1
            gain = s_l**2 / n_l + (total - s_l) ** 2 / (n - n_l) - total**2 / n
            if best is None or gain > best[0]:
                thr = (vals[i] + vals[i + 1]) / 2.0
                if thr >= vals[i + 1]:
                    thr = vals[i]
                best = (gain, f, thr)
    if best is None or not best[0] > 0.0:
        return None
    _, f, thr = best
    mask = X[:, f] <= thr
    return f, thr, mask


def oracle_newton(residual, p):
    denom = (p * (1.0 - p)).sum()
    if denom <= 0.0:
        return 0.0
    return residual.sum() / denom


def oracle_staged_scores(X, y, n_stages, lr):
    """Scores after each stage for depth-1 trees, per the written recursion."""
    classes, y_idx = np.unique(y, return_inverse=True)
    n, k = X.shape[0], len(classes)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y_idx] = 1.0
    scores = np.tile(np.log(np.bincount(y_idx) / n), (n, 1))
    out = []
    for _ in range(n_stages):
        p = oracle_softmax(scores)
        residual = onehot - p
        for c in range(k):
            r_c = residual[:, c]
            split = oracle_best_stump(X, r_c)
            if split is None:
                scores[:, c] += lr * oracle_newton(r_c, p[:, c])
                continue
            _, _, mask = split
            left = oracle_newton(r_c[mask], p[mask, c])
            right = oracle_newton(r_c[~mask], p[~mask, c])
            scores[mask, c] += lr * left
            scores[~mask, c] += lr * right
        out.append(scores.copy())
    return np.array(out)


def staged_scores(model, X):
    """Scores of a fitted GradientBoostingClassifier after each stage,
    shape (n_stages, n, n_classes): the model's forest read one stage at
    a time, so the additive recursion can be checked stage by stage."""
    X, _ = feature_rows(X, model.n_features_)
    n, k = X.shape[0], len(model.classes_)
    leaves = model._forest.sums(X, width=model.n_stages * k)
    leaves = leaves.reshape(n, model.n_stages, k)
    scores = np.tile(model.initial_scores_, (n, 1))
    out = np.empty((model.n_stages, n, k))
    for s in range(model.n_stages):
        scores += model.learning_rate * leaves[:, s]
        out[s] = scores
    return out


def toy_problem():
    """8 points, 2 features, 2 classes; generic values so no split ties."""
    X = np.array([
        [0.31, 1.62], [0.47, 0.89], [1.11, 1.07], [1.53, 0.24],
        [2.02, 1.91], [2.38, 0.55], [2.94, 1.33], [3.27, 0.71],
    ])
    y = np.array([1, 1, 1, 2, 1, 2, 2, 2])
    return X, y


class TestHandSteppedOracle:
    def test_staged_scores_match(self):
        X, y = toy_problem()
        model = GradientBoostingClassifier(
            n_stages=2, learning_rate=0.1, max_depth=1
        ).fit(X, y)
        got = staged_scores(model, X)
        want = oracle_staged_scores(X, y, n_stages=2, lr=0.1)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_longer_run_still_matches(self):
        # Two-class softmax residuals mirror across classes and sum to
        # zero, so exact gain ties between different partitions appear
        # after enough stages; past that point two correct
        # implementations may break the tie differently. Six stages
        # stays inside the tie-free region for this data.
        X, y = toy_problem()
        model = GradientBoostingClassifier(
            n_stages=6, learning_rate=0.3, max_depth=1
        ).fit(X, y)
        got = staged_scores(model, X)
        want = oracle_staged_scores(X, y, n_stages=6, lr=0.3)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_three_class_depth1_matches(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 3))
        y = rng.integers(0, 3, size=15)
        model = GradientBoostingClassifier(
            n_stages=8, learning_rate=0.2, max_depth=1
        ).fit(X, y)
        want = oracle_staged_scores(X, y, n_stages=8, lr=0.2)
        assert np.max(np.abs(staged_scores(model, X) - want)) <= 1e-10


class TestTrainingBehaviour:
    def test_separable_reaches_perfect_training_accuracy(self, blob_data):
        X, y = blob_data(n_classes=3, n_per=12, spread=0.0, seed=1)
        model = GradientBoostingClassifier(n_stages=20).fit(X, y)
        assert np.array_equal(model.predict(X), y)

    def test_single_class_is_priors_only(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 4))
        y = np.full(10, 7)
        model = GradientBoostingClassifier(n_stages=3).fit(X, y)
        assert model.initial_scores_.tolist() == [0.0]
        for tree in model.trees_:
            assert tree.feature == -1
            assert tree.value == 0.0
        assert np.all(model.predict(X) == 7)

    def test_no_features_gives_leaves(self):
        # As et and rc do, a fit on zero feature columns learns the
        # class frequencies alone.
        y = np.array([3, 5, 3, 5, 5, 5])
        model = GradientBoostingClassifier(n_stages=4).fit(np.empty((6, 0)), y)
        assert all(tree.feature == -1 for tree in model.trees_)
        assert model.predict(np.empty((2, 0))).tolist() == [5, 5]

    def test_training_log_loss_non_increasing(self, blob_data):
        X, y = blob_data(n_classes=4, n_per=15, spread=1.5, seed=3)
        model = GradientBoostingClassifier(n_stages=30).fit(X, y)
        staged = staged_scores(model, X)
        classes, y_idx = np.unique(y, return_inverse=True)
        losses = []
        for scores in staged:
            z = scores - scores.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            losses.append(-logp[np.arange(len(y)), y_idx].mean())
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_monotone_accuracy_in_stages(self, blob_data):
        X, y = blob_data(n_classes=4, n_per=20, spread=2.0, seed=4)
        accs = []
        for stages in (1, 10, 100):
            model = GradientBoostingClassifier(n_stages=stages).fit(X, y)
            accs.append(float((model.predict(X) == y).mean()))
        assert accs[0] <= accs[1] <= accs[2]

    def test_fit_determinism(self, blob_data):
        X, y = blob_data(seed=5)
        a = GradientBoostingClassifier(n_stages=5).fit(X, y)
        b = GradientBoostingClassifier(n_stages=5).fit(X, y)
        assert np.array_equal(a.decision_function(X), b.decision_function(X))

    def test_loss_increase_is_reported(self, blob_data, monkeypatch):
        X, y = blob_data(seed=6)
        import gestrec.classifiers.boosting as boosting

        real = boosting._softmax_loss
        calls = []

        def corrupted(scores, y_idx):
            calls.append(None)
            p, loss = real(scores, y_idx)
            return p, loss + (0.5 if len(calls) > 1 else 0.0)

        monkeypatch.setattr(boosting, "_softmax_loss", corrupted)
        with pytest.raises(NumericError, match="log-loss increased"):
            GradientBoostingClassifier(n_stages=2).fit(X, y)


class TestPredictContract:
    def test_training_row_recovery(self, blob_data):
        X, y = blob_data(n_classes=3, n_per=10, spread=0.0, seed=7)
        model = GradientBoostingClassifier(n_stages=10).fit(X, y)
        assert model.predict(X[3]) == y[3]

    def test_tie_breaks_to_lowest_class(self):
        model = GradientBoostingClassifier(n_stages=1)
        model.classes_ = np.array([3, 5])
        model.n_features_ = 2
        model.initial_scores_ = np.zeros(2)
        model.trees_ = [Node(value=0.0), Node(value=0.0)]
        model._forest = Forest(model.trees_)
        assert model.predict(np.zeros(2)) == 3

    def test_batch_equals_single(self, blob_data):
        X, y = blob_data(seed=8)
        model = GradientBoostingClassifier(n_stages=5).fit(X, y)
        batch = model.predict(X[:9])
        singles = [model.predict(x) for x in X[:9]]
        assert batch.tolist() == singles

    def test_stage_layout(self, blob_data):
        X, y = blob_data(n_classes=3, seed=9)
        model = GradientBoostingClassifier(n_stages=4).fit(X, y)
        assert len(model.trees_) == 4 * 3

    def test_one_flat_tree_list_in_file_order(self, blob_data, tmp_path):
        # A fit and a load both keep n_stages x K trees in one list, tree
        # i being the file's stages[i // K][i % K]; neither ensemble keeps
        # a list per stage, or a step that flattens one.
        X, y = blob_data(n_classes=3, seed=9)
        fitted = GradientBoostingClassifier(n_stages=4).fit(X, y)
        path = save_model(fitted, tmp_path / "gb.json")
        stages = json.loads(path.read_text())["params"]["stages"]
        et = ExtraTreesClassifier(n_trees=3).fit(X, y)
        et_path = save_model(et, tmp_path / "et.json")
        for gb in (fitted, load_model(path)):
            assert len(gb.trees_) == 4 * 3
            for i, tree in enumerate(gb.trees_):
                assert node_to_dict(tree) == stages[i // 3][i % 3]
        for model in (fitted, load_model(path), et, load_model(et_path)):
            assert not hasattr(model, "stages_")
            assert not hasattr(model, "_rebuild_flat")

    def test_flat_routing_equals_nodewise(self, blob_data):
        from gestrec.classifiers.cart import apply_tree

        X, y = blob_data(n_classes=3, n_per=25, spread=1.0, seed=10)
        model = GradientBoostingClassifier(n_stages=8, max_depth=3).fit(X, y)
        trees = model.trees_
        flat = model._forest.sums(X[:20], width=len(trees))
        for x, leaves in zip(X[:20], flat):
            slow = np.array([apply_tree(t, x) for t in trees])
            assert np.array_equal(leaves, slow)

    def test_feature_count_checked(self, blob_data):
        X, y = blob_data(seed=11)
        model = GradientBoostingClassifier(n_stages=2).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.zeros(X.shape[1] + 2))

    def test_unfitted_predict_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            GradientBoostingClassifier().predict(np.zeros(3))


class TestValidation:
    def test_hyperparameter_ranges(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(n_stages=0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(learning_rate=1.5)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(max_depth=0)
        with pytest.raises(ValueError, match="seed"):
            GradientBoostingClassifier(seed=-1)
