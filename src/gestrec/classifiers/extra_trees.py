"""Extremely randomized tree ensemble for gesture classification.

Each of the ``n_trees`` trees is grown on the full training set (no
bootstrap); randomness enters only through the per-node attribute subset
and the one uniform threshold drawn per candidate attribute. Prediction
averages the trees' leaf probability vectors and takes the argmax, ties
resolving to the lowest class index.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..features import FEATURE_ORDER_VERSION
from .cart import Node, apply_tree, build_random_split_tree
from ._rows import feature_rows

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
        are bit-reproducible for any worker count.
    jobs : int
        Worker threads used to grow trees.
    """

    kind = "extra_trees"

    def __init__(
        self,
        n_trees: int = 100,
        k_features: int = DEFAULT_K_FEATURES,
        min_samples_split: int = 2,
        seed: int = 0,
        jobs: int = 1,
    ):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if k_features < 1:
            raise ValueError("k_features must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        self.n_trees = n_trees
        self.k_features = k_features
        self.min_samples_split = min_samples_split
        self.seed = seed
        self.jobs = max(1, jobs)
        self.feature_order_version = FEATURE_ORDER_VERSION
        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None
        self.trees_: list[Node] = []

    def fit(self, X, y) -> "ExtraTreesClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) with one label per row")
        if X.shape[0] < 2:
            raise ValueError("need at least 2 training rows")
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        n_classes = len(self.classes_)

        streams = np.random.SeedSequence(self.seed).spawn(self.n_trees)

        def grow(stream) -> Node:
            rng = np.random.Generator(np.random.PCG64(stream))
            return build_random_split_tree(
                X, y_idx, n_classes, self.k_features, self.min_samples_split, rng
            )

        if self.jobs == 1:
            self.trees_ = [grow(s) for s in streams]
        else:
            with ThreadPoolExecutor(max_workers=self.jobs) as pool:
                self.trees_ = list(pool.map(grow, streams))
        return self

    def predict_proba(self, X) -> np.ndarray:
        if not self.trees_:
            raise ValueError("classifier is not fitted")
        X, single = feature_rows(X, self.n_features_)
        probs = np.zeros((X.shape[0], len(self.classes_)))
        for i, x in enumerate(X):
            acc = probs[i]
            for tree in self.trees_:
                acc += apply_tree(tree, x)
        probs /= self.n_trees
        return probs[0] if single else probs

    def predict(self, X):
        p = self.predict_proba(X)
        if p.ndim == 1:
            return self.classes_[int(np.argmax(p))]
        return self.classes_[np.argmax(p, axis=1)]
