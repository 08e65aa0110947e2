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
from ._rows import hyperparameters
from .boosting import GradientBoostingClassifier
from .cart import node_from_dict, node_to_dict
from .extra_trees import ExtraTreesClassifier
from .ridge import RidgeClassifier

__all__ = ["FORMAT_TAG", "save_model", "load_model"]

FORMAT_TAG = "gestrec-model/1"

_CLASSES = {
    cls.kind: cls
    for cls in (ExtraTreesClassifier, GradientBoostingClassifier, RidgeClassifier)
}


def save_model(model, path) -> Path:
    """Serialize a fitted classifier to a self-describing JSON file.

    ``hyperparams`` holds the constructor's parameters, by name and in
    signature order, each as the type of its default (the type
    ``load_model`` requires). The whole document is encoded before the
    file is opened, so a model that cannot be saved leaves ``path`` as
    it was.
    """
    if getattr(model, "classes_", None) is None:
        raise ValueError("cannot save an unfitted model")
    if isinstance(model, ExtraTreesClassifier):
        params = {"trees": [node_to_dict(t) for t in model.trees_]}
    elif isinstance(model, GradientBoostingClassifier):
        params = {
            "initial_scores": model.initial_scores_.tolist(),
            "stages": [[node_to_dict(t) for t in stage] for stage in model.stages_],
        }
    elif isinstance(model, RidgeClassifier):
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
        "hyperparams": {
            name: type_(getattr(model, name))
            for name, type_ in hyperparameters(type(model)).items()
        },
        "params": params,
    }
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _check_trees(
    path, trees, n_features: int, leaf_shape: tuple, expected: str
) -> None:
    """Raise ModelFileError at the first node that predict could not route
    or read: a split outside the feature range, or a leaf value not of
    ``leaf_shape`` (a float for ``()``)."""
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
            elif getattr(node.value, "shape", ()) != leaf_shape:
                raise ModelFileError(
                    f"{path}: tree {i} has leaf value {node.value!r}, "
                    f"expected {expected}"
                )


def _check_finite(path, forest, expected: str) -> None:
    """Raise ModelFileError at the first node of the flattened trees with
    a non-finite threshold or leaf value. One check over the flat arrays:
    a numpy call per leaf would add a quarter to the load of an et file.
    """
    finite = np.isfinite(forest.threshold) & np.isfinite(
        forest.value.reshape(forest.threshold.size, -1)
    ).all(axis=1)
    if finite.all():
        return
    j = int(finite.argmin())
    tree = int(np.searchsorted(forest.roots, j, side="right")) - 1
    # A split (its children differ). A nan threshold would route a row one
    # way in the Forest and the other way in apply_tree.
    if forest.delta[j]:
        raise ModelFileError(
            f"{path}: tree {tree} splits at threshold "
            f"{float(forest.threshold[j])!r}, expected a finite float"
        )
    raise ModelFileError(
        f"{path}: tree {tree} has leaf value {forest.value[j].tolist()!r}, "
        f"expected {expected}"
    )


def _param(path, params, name: str, shape: tuple, positive: bool = False):
    """``params[name]`` as a float64 array, or ModelFileError unless it has
    ``shape`` and finite entries, all of them > 0 when ``positive``."""
    a = np.array(params[name], dtype=np.float64)
    if a.shape != shape:
        raise ModelFileError(f"{path}: {name} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ModelFileError(f"{path}: {name} has non-finite entries")
    if positive and not (a > 0.0).all():
        raise ModelFileError(f"{path}: {name} has entries <= 0")
    return a


def _typed(path, section: dict, name: str, type_: type, what: str = ""):
    """``section[name]`` as ``type_``, or ModelFileError (naming ``what``
    and ``name``) unless it is a JSON integer, or for a float any JSON
    number. ``save_model`` writes the declared type, so nothing else is
    coerced: ``2.9`` or ``true`` would load as a different model."""
    value = section[name]
    if type(value) not in ((int, float) if type_ is float else (type_,)):
        expected = "a number" if type_ is float else "an integer"
        raise ModelFileError(
            f"{path}: {what}{name} is {value!r}, expected {expected}"
        )
    return type_(value)


def load_model(path, expect_feature_version: int | None = None):
    """Reconstruct a classifier from a model file.

    Raises ModelFileError on missing, corrupt or foreign files, on a class
    list that is empty, repeats a label, mixes JSON types or holds
    booleans, on a tree count that does not match the hyperparameters,
    on a version, feature count or hyperparameter of another JSON type
    than its declared one, on trees that predict could not use (the
    message names the tree), and on parameter arrays of the wrong shape,
    with non-finite entries or a standard deviation <= 0 (the message
    names the parameter); and VersionMismatchError when
    ``expect_feature_version`` is given and disagrees with the file.
    """
    path = Path(path)
    if not path.is_file():
        raise ModelFileError(f"model file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ModelFileError(f"corrupt model file {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise ModelFileError(
            f"{path} is not a {FORMAT_TAG} file (format={doc.get('format')!r})"
            if isinstance(doc, dict)
            else f"{path} is not a {FORMAT_TAG} file"
        )
    try:
        version = _typed(path, doc, "feature_order_version", int)
        kind = doc["kind"]
        classes = np.array(doc["classes"])
        # A fit writes the distinct labels of its rows, at least one, all
        # of one type: numpy would turn [1, "2"] into strings.
        types = {type(c) for c in doc["classes"]}
        if classes.ndim != 1 or classes.size == 0 or len(types) > 1 or (
            bool in types
        ) or np.unique(classes).size < classes.size:
            raise ModelFileError(
                f"{path}: classes must be a non-empty list of distinct labels"
                " of one JSON type, not booleans"
            )
        n_features = _typed(path, doc, "n_features", int)
        hyper = doc["hyperparams"]
        params = doc["params"]
        cls = _CLASSES.get(kind)
        if cls is None:
            raise ModelFileError(f"{path}: unknown model kind {kind!r}")
        model = cls(**{
            name: _typed(path, hyper, name, type_, "hyperparameter ")
            for name, type_ in hyperparameters(cls).items()
        })

        k = len(classes)
        if cls is RidgeClassifier:
            model.mean_ = _param(path, params, "mean", (n_features,))
            model.std_ = _param(path, params, "std", (n_features,), positive=True)
            model.weights_ = _param(path, params, "weights", (k, n_features + 1))
        else:
            if cls is ExtraTreesClassifier:
                model.trees_ = [node_from_dict(t) for t in params["trees"]]
                if len(model.trees_) != model.n_trees:
                    raise ModelFileError(
                        f"{path}: {len(model.trees_)} trees, expected n_trees = "
                        f"{model.n_trees}"
                    )
                trees, leaf_shape = model.trees_, (k,)
                expected = f"{k} class probabilities"
            else:
                model.initial_scores_ = _param(path, params, "initial_scores", (k,))
                model.stages_ = [
                    [node_from_dict(t) for t in stage] for stage in params["stages"]
                ]
                if len(model.stages_) != model.n_stages or any(
                    len(stage) != k for stage in model.stages_
                ):
                    raise ModelFileError(
                        f"{path}: stage layout does not match n_stages x n_classes"
                    )
                trees = [t for stage in model.stages_ for t in stage]
                leaf_shape, expected = (), "a finite float"
            _check_trees(path, trees, n_features, leaf_shape, expected)
            model._rebuild_flat()
            _check_finite(path, model._forest, expected)
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
