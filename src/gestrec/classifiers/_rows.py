"""The input checks shared by every classifier's fit and predict paths."""

from __future__ import annotations

import numpy as np

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

    Raises ValueError unless ``X`` is ``(n, d)`` with ``n >= 2`` and one
    label per row, and NonFiniteFeatureError on the first nan or inf.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with one label per row")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    _check_finite(X, single=False)
    return X, y


def feature_rows(X, n_features: int | None) -> tuple[np.ndarray, bool]:
    """Return ``(rows, single)``: ``X`` as a 2-D float64 array, and
    whether it was one vector.

    ``n_features`` is the fitted model's feature count, None before fit.
    Raises ValueError on an unfitted model or a wrong feature count, and
    NonFiniteFeatureError on the first nan or inf, in row-major order.
    """
    if n_features is None:
        raise ValueError("classifier is not fitted")
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got {X.shape[1]}")
    _check_finite(X, single)
    return X, single
