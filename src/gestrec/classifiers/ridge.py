"""One-vs-rest ridge regression classifier.

Features are standardized internally (zero-variance columns get unit
divisor, so they act only through the bias). Each class gets a +1/-1
target vector and the penalized normal equations are solved directly;
the bias column carries no penalty. Prediction is the argmax of the
class scores with lowest-index tie-breaking.
"""

from __future__ import annotations

import numpy as np

from ..dsp import DEGENERATE_VARIANCE
from ..errors import NumericError, SingularSystemError
from ._rows import check_hyperparameters, feature_rows, labels, training_rows

__all__ = ["RidgeClassifier"]


class RidgeClassifier:
    """Linear classifier solved in closed form.

    ``fit`` raises NumericError naming the first feature whose mean or
    variance overflows float64, before ``mean_`` or ``std_`` is set.

    Parameters
    ----------
    alpha : finite float >= 0
        L2 penalty on the feature weights. alpha = 0 is accepted only
        when the standardized design matrix has full column rank.
    """

    kind = "ridge"

    def __init__(self, alpha: float = 1.0, seed: int = 0):
        self.alpha = alpha
        self.seed = seed  # recorded for provenance; the solve is deterministic
        check_hyperparameters(self)
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and >= 0")
        if seed < 0:
            raise ValueError("seed must be >= 0")
        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None
        self.mean_: np.ndarray | None = None
        self.std_: np.ndarray | None = None
        self.weights_: np.ndarray | None = None  # (n_classes, d + 1), bias last

    def fit(self, X, y) -> "RidgeClassifier":
        X, y = training_rows(X, y)
        n, d = X.shape
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        if len(self.classes_) < 2:
            raise ValueError("need at least 2 distinct labels")
        self.n_features_ = d

        with np.errstate(over="ignore", invalid="ignore"):
            mean, var = X.mean(axis=0), X.var(axis=0)
        overflow = ~(np.isfinite(mean) & np.isfinite(var))
        if overflow.any():
            raise NumericError(f"feature {overflow.argmax()} has a mean or "
                               "variance that overflows float64")
        self.mean_ = mean
        self.std_ = np.where(var > DEGENERATE_VARIANCE, np.sqrt(var), 1.0)
        Z = np.empty((n, d + 1))
        Z[:, :d] = (X - self.mean_) / self.std_
        Z[:, d] = 1.0

        targets = np.full((n, len(self.classes_)), -1.0)
        targets[np.arange(n), y_idx] = 1.0

        penalty = np.eye(d + 1)
        penalty[d, d] = 0.0  # bias unpenalized
        A = Z.T @ Z + self.alpha * penalty
        if self.alpha == 0 and np.linalg.matrix_rank(A) < d + 1:
            raise SingularSystemError(
                "normal equations are singular with alpha = 0; "
                "use alpha > 0 for rank-deficient data"
            )
        try:
            W = np.linalg.solve(A, Z.T @ targets)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from None
        self.weights_ = W.T
        return self

    def decision_function(self, X) -> np.ndarray:
        X, single = feature_rows(X, self.n_features_)
        Z = (X - self.mean_) / self.std_
        scores = Z @ self.weights_[:, :-1].T + self.weights_[:, -1]
        return scores[0] if single else scores

    def predict(self, X):
        return labels(self.classes_, self.decision_function(X))
