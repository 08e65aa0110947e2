"""What every classifier shares: the input checks of its fit and predict
paths, the argmax that turns scores into labels, and the list of its
hyperparameters, with their type check."""

from __future__ import annotations

import inspect

import numpy as np

from ..data import check_integer, check_real, real_array
from ..errors import NonFiniteFeatureError


def _check_finite(X: np.ndarray, single: bool) -> None:
    """Raise NonFiniteFeatureError at the first nan or inf of the 2-D
    ``X``, in row-major order."""
    finite = np.isfinite(X)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteFeatureError(int(row), int(col), float(X[row, col]), single)


def training_rows(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(X, y)``: the training matrix as a 2-D float64 array, and
    the labels as an array.

    Raises ValueError unless ``X`` is ``(n, d)`` real numbers with
    ``n >= 2`` and ``y`` one label per row, and NonFiniteFeatureError on
    the first nan or inf.
    """
    X = real_array(X, "X")
    y = np.asarray(y)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with one label per row in a 1-D y, "
                         f"got X {X.shape} and y {y.shape}")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    _check_finite(X, single=False)
    return X, y


def feature_rows(X, n_features: int | None) -> tuple[np.ndarray, bool]:
    """Return ``(rows, single)``: ``X`` as a 2-D float64 array, and
    whether it was one vector.

    ``n_features`` is the fitted model's feature count, None before fit.
    Raises ValueError on an unfitted model, values that are not real
    numbers, an ``X`` that is neither one vector nor a 2-D batch or a
    wrong feature count, and NonFiniteFeatureError on the first nan or
    inf, in row-major order.
    """
    if n_features is None:
        raise ValueError("classifier is not fitted")
    X = real_array(X, "X")
    if X.ndim not in (1, 2):
        raise ValueError(f"X must be one vector or a 2-D batch, got shape {X.shape}")
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got {X.shape[1]}")
    _check_finite(X, single)
    return X, single


def labels(classes: np.ndarray, scores: np.ndarray):
    """The class of the highest score: one label for a 1-D ``scores``, one
    per row for a 2-D one. Ties go to the lowest class index."""
    return classes[scores.argmax(axis=-1)]


def hyperparameters(cls) -> dict[str, type]:
    """``{name: type(default)}`` for each parameter of the classifier
    ``cls``'s constructor, in signature order: the one list of its
    hyperparameters, which model files and ``gestrec eval`` flags name
    and ``check_hyperparameters`` checks."""
    return {
        name: type(p.default) for name, p in inspect.signature(cls).parameters.items()
    }


def check_hyperparameters(model) -> None:
    """Store each hyperparameter of ``model`` as the type of its default:
    an ``int`` one by ``data.check_integer``, a ``float`` one by
    ``data.check_real``, each a ValueError naming the parameter.
    Constructors call it before their range checks."""
    for name, type_ in hyperparameters(type(model)).items():
        check = check_integer if type_ is int else check_real
        setattr(model, name, check(name, getattr(model, name)))
