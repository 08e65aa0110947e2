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
from ..errors import SingularSystemError
from ..features import FEATURE_ORDER_VERSION
from ._rows import feature_rows

__all__ = ["RidgeClassifier"]


class RidgeClassifier:
    """Linear classifier solved in closed form.

    Parameters
    ----------
    alpha : float >= 0
        L2 penalty on the feature weights. alpha = 0 is accepted only
        when the standardized design matrix has full column rank.
    """

    kind = "ridge"

    def __init__(self, alpha: float = 1.0, seed: int = 0):
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.alpha = alpha
        self.seed = seed  # recorded for provenance; the solve is deterministic
        self.feature_order_version = FEATURE_ORDER_VERSION
        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None
        self.mean_: np.ndarray | None = None
        self.std_: np.ndarray | None = None
        self.weights_: np.ndarray | None = None  # (n_classes, d + 1), bias last

    def fit(self, X, y) -> "RidgeClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) with one label per row")
        n, d = X.shape
        if n < 2:
            raise ValueError("need at least 2 training rows")
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        if len(self.classes_) < 2:
            raise ValueError("need at least 2 distinct labels")
        self.n_features_ = d

        self.mean_ = X.mean(axis=0)
        var = X.var(axis=0)
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
        if self.weights_ is None:
            raise ValueError("classifier is not fitted")
        X, single = feature_rows(X, self.n_features_)
        Z = (X - self.mean_) / self.std_
        scores = Z @ self.weights_[:, :-1].T + self.weights_[:, -1]
        return scores[0] if single else scores

    def predict(self, X):
        scores = self.decision_function(X)
        if scores.ndim == 1:
            return self.classes_[int(np.argmax(scores))]
        return self.classes_[np.argmax(scores, axis=1)]
