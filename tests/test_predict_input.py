"""The predict paths of all three classifiers reject non-finite feature
vectors, single and batched, naming the first bad value."""

import numpy as np
import pytest

from gestrec import (
    ExtraTreesClassifier,
    GestureRecError,
    GradientBoostingClassifier,
    NonFiniteFeatureError,
    RidgeClassifier,
)

MODELS = {
    "et": lambda: ExtraTreesClassifier(n_trees=5, seed=1),
    "gb": lambda: GradientBoostingClassifier(n_stages=5),
    "rc": lambda: RidgeClassifier(),
}


@pytest.fixture(params=sorted(MODELS))
def fitted(request, blob_data):
    X, y = blob_data(n_classes=3, n_per=10, seed=31)
    return MODELS[request.param]().fit(X, y), X


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_single_vector_names_the_feature(fitted, bad):
    model, X = fitted
    x = X[0].copy()
    x[4] = bad
    with pytest.raises(NonFiniteFeatureError, match="at feature 4") as info:
        model.predict(x)
    assert (info.value.row, info.value.feature) == (0, 4)
    assert isinstance(info.value, GestureRecError)


def test_all_nan_vector_is_rejected(fitted):
    model, X = fitted
    with pytest.raises(NonFiniteFeatureError, match="at feature 0: nan"):
        model.predict(np.full(X.shape[1], np.nan))


def test_batch_names_the_first_bad_row_and_feature(fitted):
    model, X = fitted
    batch = X[:8].copy()
    batch[5, 2] = np.inf
    batch[3, 4] = np.nan
    with pytest.raises(NonFiniteFeatureError, match="row 3, feature 4: nan") as info:
        model.predict(batch)
    assert (info.value.row, info.value.feature) == (3, 4)


def test_finite_input_still_classified(fitted):
    model, X = fitted
    labels = model.predict(X)
    assert [model.predict(x) for x in X] == labels.tolist()
