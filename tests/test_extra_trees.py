"""Randomized-threshold tree ensemble: behaviour, determinism, ties."""

import numpy as np
import pytest

from gestrec import ExtraTreesClassifier
from gestrec.classifiers.cart import Forest, Node, apply_tree


class TestTrainingBehaviour:
    def test_separable_reaches_perfect_training_accuracy(self, blob_data):
        X, y = blob_data(n_classes=4, n_per=15, spread=0.0, seed=1)
        model = ExtraTreesClassifier(n_trees=25, seed=3).fit(X, y)
        assert np.array_equal(model.predict(X), y)

    def test_single_class_collapses_to_leaves(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 5))
        y = np.full(12, 4)
        model = ExtraTreesClassifier(n_trees=10, seed=0).fit(X, y)
        for tree in model.trees_:
            assert tree.feature == -1
            assert tree.value.tolist() == [1.0]
        assert np.all(model.predict(X) == 4)

    def test_probabilities_are_distributions(self, blob_data):
        X, y = blob_data(n_classes=3, n_per=10, spread=2.0, seed=3)
        model = ExtraTreesClassifier(n_trees=20, seed=1).fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (len(y), 3)
        assert np.all(proba >= 0.0)
        assert np.max(np.abs(proba.sum(axis=1) - 1.0)) <= 1e-12

    def test_trees_are_fully_grown(self, blob_data):
        # No depth cap: every leaf of every tree is pure once rows
        # stop being splittable, so training data is memorized.
        X, y = blob_data(n_classes=3, n_per=12, spread=0.5, seed=4)
        model = ExtraTreesClassifier(n_trees=10, seed=2).fit(X, y)
        proba = model.predict_proba(X)
        assert np.array_equal(np.argmax(proba, axis=1), np.searchsorted(model.classes_, y))
        assert model._forest.steps > 1

    def test_monotone_accuracy_in_ensemble_size(self, blob_data):
        X, y = blob_data(n_classes=4, n_per=20, spread=2.5, seed=5)
        accs = []
        for n_trees in (1, 10, 100):
            model = ExtraTreesClassifier(n_trees=n_trees, seed=9).fit(X, y)
            accs.append(float((model.predict(X) == y).mean()))
        assert accs[0] <= accs[1] <= accs[2]


class TestDeterminism:
    def test_same_seed_same_predictions(self, blob_data):
        X, y = blob_data(n_classes=3, n_per=15, spread=1.5, seed=6)
        a = ExtraTreesClassifier(n_trees=15, seed=11).fit(X, y)
        b = ExtraTreesClassifier(n_trees=15, seed=11).fit(X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_different_seed_different_trees(self, blob_data):
        # Fully grown trees memorize training rows for any seed, so
        # compare on query points between the blobs, where the random
        # thresholds decide the leaf.
        X, y = blob_data(n_classes=3, n_per=15, spread=1.5, seed=6)
        queries = np.random.default_rng(99).normal(size=(40, X.shape[1])) * 3.0
        a = ExtraTreesClassifier(n_trees=15, seed=11).fit(X, y)
        b = ExtraTreesClassifier(n_trees=15, seed=12).fit(X, y)
        assert not np.array_equal(a.predict_proba(queries), b.predict_proba(queries))


class TestPredictContract:
    def test_tie_breaks_to_lowest_class(self):
        model = ExtraTreesClassifier(n_trees=2)
        model.classes_ = np.array([2, 9])
        model.n_features_ = 3
        model.trees_ = [
            Node(value=np.array([0.5, 0.5])),
            Node(value=np.array([0.5, 0.5])),
        ]
        model._forest = Forest(model.trees_)
        assert model.predict(np.zeros(3)) == 2

    def test_single_sample_shapes(self, blob_data):
        X, y = blob_data(seed=8)
        model = ExtraTreesClassifier(n_trees=5, seed=0).fit(X, y)
        proba = model.predict_proba(X[0])
        assert proba.ndim == 1
        assert np.isscalar(model.predict(X[0])) or model.predict(X[0]).ndim == 0

    def test_batch_equals_single(self, blob_data):
        X, y = blob_data(seed=8)
        model = ExtraTreesClassifier(n_trees=5, seed=0).fit(X, y)
        batch = model.predict(X[:7])
        singles = [model.predict(x) for x in X[:7]]
        assert batch.tolist() == singles

    def test_average_of_leaf_vectors(self, blob_data):
        X, y = blob_data(n_classes=3, seed=9)
        model = ExtraTreesClassifier(n_trees=7, seed=4).fit(X, y)
        x = X[5]
        want = np.mean([apply_tree(t, x) for t in model.trees_], axis=0)
        assert np.allclose(model.predict_proba(x), want, rtol=0, atol=1e-15)

    def test_feature_count_checked(self, blob_data):
        X, y = blob_data(seed=10)
        model = ExtraTreesClassifier(n_trees=3, seed=0).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.zeros(X.shape[1] + 1))

    def test_unfitted_predict_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            ExtraTreesClassifier().predict(np.zeros(3))


class TestValidation:
    def test_hyperparameter_ranges(self):
        with pytest.raises(ValueError):
            ExtraTreesClassifier(n_trees=0)
        with pytest.raises(ValueError):
            ExtraTreesClassifier(k_features=0)
        with pytest.raises(ValueError):
            ExtraTreesClassifier(min_samples_split=1)
        with pytest.raises(ValueError, match="seed"):
            ExtraTreesClassifier(seed=-1)

    def test_k_features_clipped_to_dimensionality(self, blob_data):
        # More candidate features than columns still works: the draw
        # is capped at the actual feature count.
        X, y = blob_data(n_classes=2, n_per=8, spread=0.0, seed=11)
        model = ExtraTreesClassifier(n_trees=5, k_features=50, seed=1).fit(X, y)
        assert np.array_equal(model.predict(X), y)

    def test_empty_and_mismatched_inputs(self):
        model = ExtraTreesClassifier(n_trees=2)
        with pytest.raises(ValueError):
            model.fit(np.zeros((0, 4)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            model.fit(np.zeros((5, 4)), np.zeros(6, dtype=int))
