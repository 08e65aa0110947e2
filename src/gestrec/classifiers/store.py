"""Single-file JSON persistence for trained classifiers.

A model file self-describes its kind, hyperparameters, class dictionary,
feature-order version and learned parameters. Floats are written with
shortest round-trip repr, so a save/load cycle reproduces predictions
bit for bit. This module owns the format, trees included: a split is
``{"f": feature, "t": threshold, "l": left, "r": right}`` and a leaf
``{"p": class probabilities}`` (extra trees) or ``{"v": value}``.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from ..data import check_integer, check_real, real_array
from ..errors import ModelFileError, VersionMismatchError
from ..features import FEATURE_ORDER_VERSION
from ._rows import hyperparameters
from .boosting import GradientBoostingClassifier
from .cart import Forest, Node
from .extra_trees import ExtraTreesClassifier
from .ridge import RidgeClassifier

__all__ = ["FORMAT_TAG", "save_model", "load_model"]

FORMAT_TAG = "gestrec-model/1"

_CLASSES = {
    cls.kind: cls
    for cls in (ExtraTreesClassifier, GradientBoostingClassifier, RidgeClassifier)
}

# The Python types of a JSON number: bool, a subclass of int, is not one.
_NUMBERS = frozenset((int, float))


def _finite(x) -> bool:
    """Whether the JSON number ``x`` is a finite float. A JSON integer too
    large for a float (``10**400``) is not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def node_to_dict(node: Node) -> dict:
    """A tree in its model-file form; leaf values become lists or floats."""
    if node.feature >= 0:
        return {"f": node.feature, "t": node.threshold,
                "l": node_to_dict(node.left), "r": node_to_dict(node.right)}
    if isinstance(node.value, np.ndarray):
        return {"p": node.value.tolist()}
    return {"v": float(node.value)}


def save_model(model, path) -> Path:
    """Serialize a fitted classifier to a self-describing JSON file.

    ``hyperparams`` holds the constructor's parameters, by name and in
    signature order, each as the constructor stored it: the type of its
    default, which ``load_model`` requires. The whole document is encoded before the
    file is opened, so a model that cannot be saved leaves ``path`` as
    it was.
    """
    if getattr(model, "classes_", None) is None:
        raise ValueError("cannot save an unfitted model")
    if isinstance(model, ExtraTreesClassifier):
        params = {"trees": [node_to_dict(t) for t in model.trees_]}
    elif isinstance(model, GradientBoostingClassifier):
        # The file keeps one row of K trees per stage.
        trees, k = [node_to_dict(t) for t in model.trees_], len(model.classes_)
        params = {
            "initial_scores": model.initial_scores_.tolist(),
            "stages": [trees[i:i + k] for i in range(0, len(trees), k)],
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
        "feature_order_version": FEATURE_ORDER_VERSION,
        "n_features": model.n_features_,
        "classes": np.asarray(model.classes_).tolist(),
        "hyperparams": {
            name: getattr(model, name) for name in hyperparameters(type(model))
        },
        "params": params,
    }
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _tree(path, i: int, obj, n_features: int, k: int | None) -> Node:
    """Tree ``i`` of a model file, each ``Node`` built as it is read.

    Each node is checked once, as it is read: ModelFileError names the
    file and tree ``i`` at the first node that predict could not use, a
    split feature that is not a JSON integer in ``[0, n_features)``, a
    threshold that is not a finite JSON number, or a leaf that is not
    ``k`` finite JSON numbers (one when ``k`` is None). So a load names
    the first bad node in file order.
    """
    root = Node()
    stack = [(root, obj)]
    while stack:
        node, obj = stack.pop()
        if type(obj) is not dict:
            raise ModelFileError(f"{path}: tree {i} has node {obj!r}, "
                                 "expected an object")
        if "f" in obj:
            f, t = obj["f"], obj["t"]
            if type(f) is not int or not 0 <= f < n_features:
                raise ModelFileError(f"{path}: tree {i} splits on feature {f!r}, "
                                     f"expected an integer in [0, {n_features})")
            if type(t) not in _NUMBERS or not _finite(t):
                raise ModelFileError(f"{path}: tree {i} splits at threshold {t!r}, "
                                     "expected a finite float")
            node.feature, node.threshold = f, float(t)
            node.left, node.right = Node(), Node()
            stack += ((node.right, obj["r"]), (node.left, obj["l"]))
            continue
        leaf = obj.get("v" if k is None else "p", obj)
        if k is None and type(leaf) in _NUMBERS and _finite(leaf):
            node.value = float(leaf)
        elif k is not None and type(leaf) is list and len(leaf) == k and (
            _NUMBERS.issuperset(map(type, leaf))
        ) and all(map(_finite, leaf)):
            node.value = np.array(leaf, dtype=np.float64)
        else:
            raise ModelFileError(f"{path}: tree {i} has leaf value {leaf!r}, expected "
                                 + ("a finite float" if k is None
                                    else f"{k} class probabilities"))
    return root


def _param(path, params, name: str, shape: tuple, positive: bool = False):
    """``params[name]`` as a float64 array, or ModelFileError unless it is
    real numbers (``data.real_array``) of ``shape``, all finite and all
    > 0 when ``positive``."""
    try:
        a = real_array(params[name], name)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from None
    if a.shape != shape:
        raise ModelFileError(f"{path}: {name} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ModelFileError(f"{path}: {name} has non-finite entries")
    if positive and not (a > 0.0).all():
        raise ModelFileError(f"{path}: {name} has entries <= 0")
    return a


def _typed(path, section: dict, name: str, type_: type):
    """``section[name]`` as ``type_``, or ModelFileError naming ``name``
    unless ``data.check_integer`` (for an int) or ``data.check_real``
    takes it. ``save_model`` writes the declared type, so nothing else
    is coerced: ``2.9`` or ``true`` would load as a different model."""
    check = check_integer if type_ is int else check_real
    try:
        return check(name, section[name])
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from None


def load_model(path, expect_feature_version: int = FEATURE_ORDER_VERSION):
    """Reconstruct a classifier from a model file.

    Raises VersionMismatchError when the file's feature-order version is
    not ``expect_feature_version``, the order ``features`` computes.
    Raises ModelFileError on missing, corrupt or foreign files, on a class
    list that is empty, repeats a label, mixes JSON types or holds
    booleans, on a tree or stage count that does not match the
    hyperparameters, on a version, feature count or hyperparameter that
    ``data.check_integer`` or ``data.check_real`` refuses, on a negative
    feature count, on the first tree node in file order that predict
    could not use (named by its tree), and on parameter arrays of the
    wrong shape, with entries that ``data.real_array`` refuses or that
    are not finite, or a standard deviation <= 0 (named by the parameter).
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
        if version != expect_feature_version:
            raise VersionMismatchError(f"{path}: model feature order v{version}, "
                                       f"expected v{expect_feature_version}")
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
        if n_features < 0:
            raise ModelFileError(f"{path}: n_features is {n_features}, expected >= 0")
        hyper = doc["hyperparams"]
        params = doc["params"]
        cls = _CLASSES.get(kind)
        if cls is None:
            raise ModelFileError(f"{path}: unknown model kind {kind!r}")
        model = cls(**{
            name: _typed(path, hyper, name, type_)
            for name, type_ in hyperparameters(cls).items()
        })

        k = len(classes)
        if cls is RidgeClassifier:
            model.mean_ = _param(path, params, "mean", (n_features,))
            model.std_ = _param(path, params, "std", (n_features,), positive=True)
            model.weights_ = _param(path, params, "weights", (k, n_features + 1))
        elif cls is ExtraTreesClassifier:
            trees = params["trees"]
            if len(trees) != model.n_trees:
                raise ModelFileError(f"{path}: {len(trees)} trees, "
                                     f"expected n_trees = {model.n_trees}")
        else:
            model.initial_scores_ = _param(path, params, "initial_scores", (k,))
            stages = params["stages"]
            if len(stages) != model.n_stages or any(len(s) != k for s in stages):
                raise ModelFileError(f"{path}: stage layout does not match "
                                     "n_stages x n_classes")
            # Trees are numbered stage by stage, class by class.
            trees = chain.from_iterable(stages)
        if cls is not RidgeClassifier:
            leaf = k if cls is ExtraTreesClassifier else None
            model.trees_ = [
                _tree(path, i, t, n_features, leaf) for i, t in enumerate(trees)
            ]
            model._forest = Forest(model.trees_)
    except ModelFileError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFileError(f"corrupt model file {path}: {exc}") from None

    model.classes_ = classes
    model.n_features_ = n_features
    return model
