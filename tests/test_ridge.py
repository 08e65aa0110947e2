"""Ridge classifier vs an independent dense normal-equations oracle."""

import numpy as np
import pytest

from dataclasses import replace

from gestrec import EASY_SPEC, Dataset, RidgeClassifier, extract_all, generate
from gestrec.errors import NumericError, SingularSystemError


def oracle_weights(X, y, alpha):
    """Naive one-vs-rest ridge solve via explicit matrix inverse."""
    n, d = X.shape
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    Z = np.hstack([(X - mean) / std, np.ones((n, 1))])
    classes = np.unique(y)
    P = np.eye(d + 1)
    P[d, d] = 0.0
    A_inv = np.linalg.inv(Z.T @ Z + alpha * P)
    W = np.empty((len(classes), d + 1))
    for i, c in enumerate(classes):
        t = np.where(y == c, 1.0, -1.0)
        W[i] = A_inv @ (Z.T @ t)
    return W


class TestOracleEquivalence:
    @pytest.mark.parametrize("n,seed", [(40, 0), (80, 1), (200, 2)])
    def test_weights_match_normal_equations(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 33))
        y = rng.integers(1, 5, size=n)
        model = RidgeClassifier(alpha=1.0).fit(X, y)
        want = oracle_weights(X, y, 1.0)
        assert np.max(np.abs(model.weights_ - want)) <= 1e-8

    def test_alpha_limit_matches_least_squares(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 10))
        y = rng.integers(0, 3, size=60)
        ridge = RidgeClassifier(alpha=1e-10).fit(X, y)

        mean, std = X.mean(axis=0), X.std(axis=0)
        Z = np.hstack([(X - mean) / std, np.ones((60, 1))])
        scores = np.empty((60, 3))
        for i, c in enumerate(np.unique(y)):
            t = np.where(y == c, 1.0, -1.0)
            w, *_ = np.linalg.lstsq(Z, t, rcond=None)
            scores[:, i] = Z @ w
        ols_pred = np.unique(y)[np.argmax(scores, axis=1)]
        assert np.array_equal(ridge.predict(X), ols_pred)


class TestBehaviour:
    def test_separable_clusters_train_perfectly(self, blob_data):
        X, y = blob_data(n_classes=4, n_per=15, spread=0.2, seed=5)
        model = RidgeClassifier(alpha=1e-6).fit(X, y)
        assert np.array_equal(model.predict(X), y)

    def test_huge_alpha_collapses_to_bias(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 8))
        y = np.array([1] * 30 + [2] * 20)
        model = RidgeClassifier(alpha=1e12).fit(X, y)
        assert np.max(np.abs(model.weights_[:, :-1])) < 1e-6
        # bias favors the majority class everywhere
        assert np.all(model.predict(rng.normal(size=(20, 8))) == 1)

    def test_zero_variance_feature_handled(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 5))
        X[:, 2] = 4.2  # constant column
        y = rng.integers(0, 2, size=40)
        model = RidgeClassifier(alpha=1.0).fit(X, y)
        assert model.std_[2] == 1.0
        assert np.isfinite(model.weights_).all()

    def test_singular_at_alpha_zero(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(10, 20))  # more columns than rows
        y = rng.integers(0, 2, size=10)
        with pytest.raises(SingularSystemError):
            RidgeClassifier(alpha=0.0).fit(X, y)

    def test_singular_at_a_vanishing_alpha(self):
        # alpha = 1e-300 is lost beside Z'Z, so the solve itself fails.
        rng = np.random.default_rng(8)
        X = rng.normal(size=(12, 3))
        X = np.hstack([X, X[:, :1]])  # a repeated column
        y = np.arange(12) % 3
        with pytest.raises(SingularSystemError):
            RidgeClassifier(alpha=1e-300).fit(X, y)

    def test_full_rank_alpha_zero_is_fine(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 5))
        y = rng.integers(0, 2, size=100)
        model = RidgeClassifier(alpha=0.0).fit(X, y)
        assert np.isfinite(model.weights_).all()


class TestPredictContract:
    def test_training_row_recovery(self, blob_data):
        X, y = blob_data(n_classes=3, n_per=10, spread=0.1, seed=10)
        model = RidgeClassifier(alpha=1e-6).fit(X, y)
        assert model.predict(X[0]) == y[0]

    def test_tie_breaks_to_lowest_class(self):
        # mirror-symmetric two-class problem: the zero vector scores
        # both classes identically, so the lower label must win
        X = np.array([[1.0, 2.0], [-1.0, -2.0]])
        y = np.array([4, 9])
        model = RidgeClassifier(alpha=1.0).fit(X, y)
        scores = model.decision_function(np.zeros(2))
        assert scores[0] == scores[1]
        assert model.predict(np.zeros(2)) == 4

    def test_batch_equals_single(self, blob_data):
        X, y = blob_data(seed=11)
        model = RidgeClassifier().fit(X, y)
        batch = model.predict(X[:7])
        singles = [model.predict(x) for x in X[:7]]
        assert batch.tolist() == singles

    def test_feature_count_checked(self, blob_data):
        X, y = blob_data(seed=12)
        model = RidgeClassifier().fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.zeros(X.shape[1] + 1))

    def test_unfitted_predict_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            RidgeClassifier().predict(np.zeros(3))


class TestValidation:
    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="2 distinct"):
            RidgeClassifier().fit(np.zeros((4, 2)), np.ones(4))

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="2 training rows"):
            RidgeClassifier().fit(np.zeros((1, 2)), np.ones(1))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            RidgeClassifier(alpha=-0.1)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # nan passes a test for alpha < 0 and would fit NaN weights.
        with pytest.raises(ValueError, match="alpha must be finite"):
            RidgeClassifier(alpha=alpha)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            RidgeClassifier(seed=-1)

    def test_overflowing_column_named(self):
        X = np.zeros((6, 3))
        X[:, 1] = [1e200, -1e200] * 3  # finite, but its variance overflows
        X[:, 2] = 1e308  # its mean overflows
        y = np.array([0, 1] * 3)
        with pytest.raises(NumericError, match="^feature 1 has a mean or variance"):
            RidgeClassifier().fit(X, y)

    def test_easy_spec_at_1e100_refused(self):
        # Peaks near 1e100 are inside the feature domain and every value
        # is finite, but the energy columns' variance overflows.
        data = generate(EASY_SPEC)
        scaled = Dataset.from_samples(
            replace(s, readings=s.readings * 1e100) for s in data.samples)
        matrix = extract_all(scaled)
        assert np.isfinite(matrix.X).all()
        with pytest.raises(NumericError, match="^feature 15 has a mean or variance"):
            RidgeClassifier().fit(matrix.X, matrix.gestures)

    def test_determinism(self, blob_data):
        X, y = blob_data(seed=13)
        w1 = RidgeClassifier(alpha=0.5).fit(X, y).weights_
        w2 = RidgeClassifier(alpha=0.5).fit(X, y).weights_
        assert np.array_equal(w1, w2)
