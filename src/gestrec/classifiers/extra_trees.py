"""Extremely randomized tree ensemble for gesture classification.

Each of the ``n_trees`` trees is grown on the full training set (no
bootstrap); randomness enters only through the per-node attribute subset
and the one uniform threshold drawn per candidate attribute (Geurts,
Ernst & Wehenkel, Machine Learning 63(1), 2006). Each tree has its own
generator, and ``cart.build_random_split_forest`` grows all the trees in
lockstep: a step scores the next node of many trees at once, within a
fixed budget of rows, while each generator draws for its own tree's
nodes in preorder. The trees are bit-identical to growing each one
recursively on its own, in about a quarter of the time. Prediction
averages the trees' leaf probability vectors and takes the argmax, ties
resolving to the lowest class index. A fit (or a model load) flattens
the trees into one ``cart.Forest``, which sums the leaf vectors in tree
order. Each row is compared with every split node at once and then
hops to its leaves, one entry per tree per step, as many steps as the
deepest leaf.
"""

from __future__ import annotations

import numpy as np

from .cart import Forest, Node, build_random_split_forest
from ._rows import check_hyperparameters, feature_rows, labels, training_rows

__all__ = ["ExtraTreesClassifier", "DEFAULT_K_FEATURES"]

# ceil(sqrt(33)) candidate attributes per node for the 33-value vector.
DEFAULT_K_FEATURES = 6


class ExtraTreesClassifier:
    """Ensemble of fully grown, randomly split classification trees.

    Parameters
    ----------
    n_trees : int
        Ensemble size.
    k_features : int
        Attributes drawn per node (capped at the feature count).
    min_samples_split : int
        Nodes with fewer rows become leaves.
    seed : int
        Seeds one stream per tree via ``SeedSequence.spawn``, so fits
        are bit-reproducible.
    """

    kind = "extra_trees"

    def __init__(
        self,
        n_trees: int = 100,
        k_features: int = DEFAULT_K_FEATURES,
        min_samples_split: int = 2,
        seed: int = 0,
    ):
        self.n_trees = n_trees
        self.k_features = k_features
        self.min_samples_split = min_samples_split
        self.seed = seed
        check_hyperparameters(self)
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if k_features < 1:
            raise ValueError("k_features must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if seed < 0:
            raise ValueError("seed must be >= 0")
        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None
        self.trees_: list[Node] = []
        self._forest: Forest | None = None

    def fit(self, X, y) -> "ExtraTreesClassifier":
        X, y = training_rows(X, y)
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        n_classes = len(self.classes_)

        streams = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        rngs = [np.random.Generator(np.random.PCG64(s)) for s in streams]
        self.trees_ = build_random_split_forest(
            X, y_idx, n_classes, self.k_features, self.min_samples_split, rngs
        )
        self._forest = Forest(self.trees_)
        return self

    def predict_proba(self, X) -> np.ndarray:
        X, single = feature_rows(X, self.n_features_)
        probs = self._forest.sums(X)[:, 0] / self.n_trees
        return probs[0] if single else probs

    def predict(self, X):
        return labels(self.classes_, self.predict_proba(X))
