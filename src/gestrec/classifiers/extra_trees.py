"""Extremely randomized tree ensemble for gesture classification.

Each of the ``n_trees`` trees is grown on the full training set (no
bootstrap); randomness enters only through the per-node attribute subset
and the one uniform threshold drawn per candidate attribute. Prediction
averages the trees' leaf probability vectors and takes the argmax, ties
resolving to the lowest class index. A fit (or a model load) flattens
the trees into one ``cart.Forest``, which sums the leaf vectors in tree
order. A lone row is compared with every node at once and then hops to
its leaves, one entry per tree per step, as many steps as the deepest
leaf; two or more rows are routed in blocks, one gather per step over
all trees.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..features import FEATURE_ORDER_VERSION
from .cart import Forest, Node, build_random_split_tree
from ._rows import feature_rows, training_rows

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
        self._forest: Forest | None = None

    def fit(self, X, y) -> "ExtraTreesClassifier":
        X, y = training_rows(X, y)
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
        self._rebuild_flat()
        return self

    def _rebuild_flat(self):
        self._forest = Forest(self.trees_)

    def predict_proba(self, X) -> np.ndarray:
        X, single = feature_rows(X, self.n_features_)
        probs = self._forest.sums(X)[:, 0] / self.n_trees
        return probs[0] if single else probs

    def predict(self, X):
        p = self.predict_proba(X)
        if p.ndim == 1:
            return self.classes_[int(np.argmax(p))]
        return self.classes_[np.argmax(p, axis=1)]
