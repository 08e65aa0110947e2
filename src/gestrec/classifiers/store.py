"""Single-file JSON persistence for trained classifiers.

A model file self-describes its kind, hyperparameters, class dictionary,
feature-order version and learned parameters. Floats are written with
shortest round-trip repr, so a save/load cycle reproduces predictions
bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import ModelFileError, VersionMismatchError
from .boosting import GradientBoostingClassifier
from .cart import node_from_dict, node_to_dict
from .extra_trees import ExtraTreesClassifier
from .ridge import RidgeClassifier

__all__ = ["FORMAT_TAG", "save_model", "load_model"]

FORMAT_TAG = "gestrec-model/1"


def _require_fitted(model):
    if getattr(model, "classes_", None) is None:
        raise ValueError("cannot save an unfitted model")


def save_model(model, path) -> Path:
    """Serialize a fitted classifier to a self-describing JSON file."""
    _require_fitted(model)
    if isinstance(model, ExtraTreesClassifier):
        hyper = {
            "n_trees": model.n_trees,
            "k_features": model.k_features,
            "min_samples_split": model.min_samples_split,
            "seed": model.seed,
        }
        params = {"trees": [node_to_dict(t) for t in model.trees_]}
    elif isinstance(model, GradientBoostingClassifier):
        hyper = {
            "n_stages": model.n_stages,
            "learning_rate": model.learning_rate,
            "max_depth": model.max_depth,
            "seed": model.seed,
        }
        params = {
            "initial_scores": model.initial_scores_.tolist(),
            "stages": [[node_to_dict(t) for t in stage] for stage in model.stages_],
        }
    elif isinstance(model, RidgeClassifier):
        hyper = {"alpha": model.alpha, "seed": model.seed}
        params = {
            "mean": model.mean_.tolist(),
            "std": model.std_.tolist(),
            "weights": model.weights_.tolist(),
        }
    else:
        raise TypeError(f"unsupported model type: {type(model).__name__}")

    doc = {
        "format": FORMAT_TAG,
        "kind": model.kind,
        "feature_order_version": model.feature_order_version,
        "n_features": model.n_features_,
        "classes": np.asarray(model.classes_).tolist(),
        "hyperparams": hyper,
        "params": params,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return path


def _check_trees(path, trees, n_features: int, leaf_ok, expected: str) -> None:
    """Raise ModelFileError at the first node that predict could not route
    or read: a split outside the feature range, or a leaf value for which
    ``leaf_ok`` is false."""
    for i, root in enumerate(trees):
        stack = [root]
        while stack:
            node = stack.pop()
            if node.left is not None:
                if not 0 <= node.feature < n_features:
                    raise ModelFileError(
                        f"{path}: tree {i} splits on feature {node.feature}, "
                        f"outside [0, {n_features})"
                    )
                stack += (node.left, node.right)
            elif not leaf_ok(node.value):
                raise ModelFileError(
                    f"{path}: tree {i} has leaf value {node.value!r}, "
                    f"expected {expected}"
                )


def load_model(path, expect_feature_version: int | None = None):
    """Reconstruct a classifier from a model file.

    Raises ModelFileError on missing, corrupt or foreign files, on a tree
    count that does not match the hyperparameters, and on trees that
    predict could not use (the message names the tree), and
    VersionMismatchError when ``expect_feature_version`` is given and
    disagrees with the file.
    """
    path = Path(path)
    if not path.is_file():
        raise ModelFileError(f"model file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"corrupt model file {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise ModelFileError(
            f"{path} is not a {FORMAT_TAG} file (format={doc.get('format')!r})"
            if isinstance(doc, dict)
            else f"{path} is not a {FORMAT_TAG} file"
        )
    try:
        version = int(doc["feature_order_version"])
        kind = doc["kind"]
        classes = np.array(doc["classes"])
        n_features = int(doc["n_features"])
        hyper = doc["hyperparams"]
        params = doc["params"]

        if kind == "extra_trees":
            model = ExtraTreesClassifier(
                n_trees=int(hyper["n_trees"]),
                k_features=int(hyper["k_features"]),
                min_samples_split=int(hyper["min_samples_split"]),
                seed=int(hyper["seed"]),
            )
            model.trees_ = [node_from_dict(t) for t in params["trees"]]
            if len(model.trees_) != model.n_trees:
                raise ModelFileError(
                    f"{path}: {len(model.trees_)} trees, expected n_trees = "
                    f"{model.n_trees}"
                )
            k = len(classes)
            _check_trees(
                path,
                model.trees_,
                n_features,
                lambda v: isinstance(v, np.ndarray) and v.shape == (k,),
                f"{k} class probabilities",
            )
            model._rebuild_flat()
        elif kind == "gradient_boosting":
            model = GradientBoostingClassifier(
                n_stages=int(hyper["n_stages"]),
                learning_rate=float(hyper["learning_rate"]),
                max_depth=int(hyper["max_depth"]),
                seed=int(hyper["seed"]),
            )
            model.initial_scores_ = np.array(params["initial_scores"])
            model.stages_ = [
                [node_from_dict(t) for t in stage] for stage in params["stages"]
            ]
            if len(model.stages_) != model.n_stages or any(
                len(stage) != len(classes) for stage in model.stages_
            ):
                raise ModelFileError(
                    f"{path}: stage layout does not match n_stages x n_classes"
                )
            _check_trees(
                path,
                [t for stage in model.stages_ for t in stage],
                n_features,
                lambda v: isinstance(v, float) and np.isfinite(v),
                "a finite float",
            )
            model._rebuild_flat()
        elif kind == "ridge":
            model = RidgeClassifier(
                alpha=float(hyper["alpha"]), seed=int(hyper["seed"])
            )
            model.mean_ = np.array(params["mean"])
            model.std_ = np.array(params["std"])
            model.weights_ = np.array(params["weights"])
        else:
            raise ModelFileError(f"{path}: unknown model kind {kind!r}")
    except ModelFileError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"corrupt model file {path}: {exc}") from None

    model.classes_ = classes
    model.n_features_ = n_features
    model.feature_order_version = version
    if expect_feature_version is not None and version != expect_feature_version:
        raise VersionMismatchError(
            f"{path}: model feature order v{version}, expected "
            f"v{expect_feature_version}"
        )
    return model
