"""The fit and predict paths of all three classifiers reject non-finite
feature vectors, single and batched, naming the first bad value, and
values that are not real numbers."""

import numpy as np
import pytest

from gestrec import (
    ExtraTreesClassifier,
    GestureRecError,
    GradientBoostingClassifier,
    NonFiniteFeatureError,
    RidgeClassifier,
)
from test_real_numbers import NOT_NUMBERS, NOT_REAL, check_array

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


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_names_the_first_bad_row_and_feature(blob_data, kind, bad):
    X, y = blob_data(n_classes=2, n_per=20, d=5, seed=32)
    X[17, 3] = bad
    X[30, 1] = bad
    with pytest.raises(NonFiniteFeatureError, match="row 17, feature 3") as info:
        MODELS[kind]().fit(X, y)
    assert (info.value.row, info.value.feature) == (17, 3)



# The rows of test_real_numbers's table that these ids name.


@pytest.mark.parametrize("case", NOT_REAL)
def test_predict_refuses_values_that_are_not_real(fitted, case):
    model, X = fitted
    check_array(case, "X", X[:4], model.predict)
    check_array(case, "X", X[0], model.predict)


@pytest.mark.parametrize("case", NOT_NUMBERS)
def test_predict_refuses_dates_durations_and_records(fitted, case):
    model, X = fitted
    check_array(case, "X", X[:4], model.predict)
    check_array(case, "X", X[0], model.predict)


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("case", NOT_NUMBERS)
def test_fit_refuses_dates_durations_and_records(blob_data, kind, case):
    X, y = blob_data(n_classes=2, n_per=5, d=3, seed=34)
    check_array(case, "X", X, lambda a: MODELS[kind]().fit(a, y))


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("case", NOT_REAL)
def test_fit_refuses_values_that_are_not_real(blob_data, kind, case):
    X, y = blob_data(n_classes=2, n_per=5, d=3, seed=33)
    check_array(case, "X", X, lambda a: MODELS[kind]().fit(a, y))


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_fit_refuses_labels_that_are_not_one_per_row(blob_data, kind):
    # An (n, 2) y used to raise IndexError (rc) or numpy's "object too
    # deep for desired array" (et, gb).
    X, y = blob_data(n_classes=2, n_per=5, d=3, seed=35)
    with pytest.raises(ValueError, match=r"1-D y, got X \(10, 3\) and y \(10, 2\)"):
        MODELS[kind]().fit(X, np.stack([y, y], axis=1))
