"""The one input check shared by every classifier's predict path."""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteFeatureError


def feature_rows(X, n_features: int) -> tuple[np.ndarray, bool]:
    """Return ``(rows, single)``: ``X`` as a 2-D float64 array, and
    whether it was one vector.

    Raises ValueError on a wrong feature count and NonFiniteFeatureError
    on the first nan or inf, in row-major order.
    """
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got {X.shape[1]}")
    finite = np.isfinite(X)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteFeatureError(int(row), int(col), float(X[row, col]), single)
    return X, single
