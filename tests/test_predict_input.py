"""The fit and predict paths of all three classifiers reject non-finite
feature vectors, single and batched, naming the first bad value, and
values that are not real numbers."""

import warnings

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


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_names_the_first_bad_row_and_feature(blob_data, kind, bad):
    X, y = blob_data(n_classes=2, n_per=20, d=5, seed=32)
    X[17, 3] = bad
    X[30, 1] = bad
    with pytest.raises(NonFiniteFeatureError, match="row 17, feature 3") as info:
        MODELS[kind]().fit(X, y)
    assert (info.value.row, info.value.feature) == (17, 3)



# numpy keeps only the real part of a complex array, with a
# ComplexWarning (a RuntimeWarning), which is ignored here so that only
# the ValueError of fit and predict can pass.
NOT_REAL = {
    "complex array": lambda X: X + 1j,
    "int too large for a float": lambda X: [list(X[0][:-1]) + [10**400]] + X[1:].tolist(),
    "complex in a list": lambda X: [list(X[0][:-1]) + [1j]] + X[1:].tolist(),
    # numpy's astype(float64) would parse these.
    "strings": lambda X: X.astype(str),
    "bytes": lambda X: X.astype(bytes),
    "string in a list": lambda X: [list(X[0][:-1]) + ["1.0"]] + X[1:].tolist(),
    "string in an object array": lambda X: np.array(
        [list(X[0][:-1]) + ["1.0"]] + X[1:].tolist(), dtype=object),
    "bytes in an object array": lambda X: np.array(
        [list(X[0][:-1]) + [b"1.0"]] + X[1:].tolist(), dtype=object),
}


@pytest.mark.parametrize("case", sorted(NOT_REAL))
def test_predict_refuses_values_that_are_not_real(fitted, case):
    model, X = fitted
    bad = NOT_REAL[case](X[:4])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="X must be real numbers"):
            model.predict(bad)
        with pytest.raises(ValueError, match="X must be real numbers"):
            model.predict(bad[0])


# numpy would count a date or a duration in its unit, and read a
# one-field record as its field.
NOT_NUMBERS = {
    "datetime64": lambda X: (X * 1000).astype(np.int64).astype("M8[ms]"),
    "timedelta64": lambda X: (X * 1000).astype(np.int64).astype("m8[ms]"),
    "structured": lambda X: np.rec.fromarrays([X], dtype=[("v", "f8")]),
}


@pytest.mark.parametrize("case", sorted(NOT_NUMBERS))
def test_predict_refuses_dates_durations_and_records(fitted, case):
    model, X = fitted
    with pytest.raises(ValueError, match="X must be real numbers"):
        model.predict(NOT_NUMBERS[case](X[:4]))
    with pytest.raises(ValueError, match="X must be real numbers"):
        model.predict(NOT_NUMBERS[case](X[0]))


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("case", sorted(NOT_NUMBERS))
def test_fit_refuses_dates_durations_and_records(blob_data, kind, case):
    X, y = blob_data(n_classes=2, n_per=5, d=3, seed=34)
    with pytest.raises(ValueError, match="X must be real numbers"):
        MODELS[kind]().fit(NOT_NUMBERS[case](X), y)


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("case", sorted(NOT_REAL))
def test_fit_refuses_values_that_are_not_real(blob_data, kind, case):
    X, y = blob_data(n_classes=2, n_per=5, d=3, seed=33)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="X must be real numbers"):
            MODELS[kind]().fit(NOT_REAL[case](X), y)
