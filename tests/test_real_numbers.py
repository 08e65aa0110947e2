"""One rule for "a real number", run at every boundary that takes numbers.

The array table runs each row at each array boundary: ``feature_set``,
``GestureSample``, the 1-D ``dsp`` API, and ``fit``, batch ``predict``
and single ``predict`` of each classifier. A base ``ndarray`` is
accepted by its dtype kind alone (``f``, ``i`` or ``u``), so a kind that
a later numpy adds is refused and shows up here; an object array or a
list is accepted only when every element is a real number that is not a
bool and that a float64 holds, and any ``ndarray`` subclass is refused.
An accepted row gives the bits its float64 values give; a refused one a
ValueError that starts ``<what> must be real numbers`` and names the
first refused value or dtype. Among the refused rows are the inputs an
earlier denylist took as numbers: a bool array, a masked array (its mask
dropped), a matrix, object arrays of bools or Decimals, and a
StringDType array whose strings numpy parsed.

The scalar table runs each value at each field that takes one number:
the ``GestureSample`` identity, the ``SynthSpec`` fields, every
classifier hyperparameter, and ``load_model``'s header and
hyperparameters for the values JSON can write. A value is stored as the
``int`` or ``float`` it converts to, and then behaves as that number
does, or refused with an error that names the field and the value.
"""

import functools
import json
import numbers
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from gestrec import (
    ExtraTreesClassifier,
    GestureRecError,
    GestureSample,
    GradientBoostingClassifier,
    RidgeClassifier,
    SynthSpec,
    dsp,
    feature_set,
    load_model,
    save_model,
)
from gestrec.classifiers._rows import hyperparameters

# ------------------------------------------------------------- arrays

READINGS = np.random.default_rng(3).uniform(1.0, 100.0, size=(8, 3))
X = np.random.default_rng(4).uniform(1.0, 100.0, size=(24, 6))
Y = np.repeat([1, 2, 3], 8)

MODELS = {
    "et": lambda: ExtraTreesClassifier(n_trees=5, seed=1),
    "gb": lambda: GradientBoostingClassifier(n_stages=5),
    "rc": RidgeClassifier,
}


@functools.cache
def fitted(kind):
    return MODELS[kind]().fit(X, Y)


# name: (what the boundary calls its input, the float64 input, the call)
BOUNDARIES = {
    "feature_set": ("readings", READINGS, feature_set),
    "GestureSample": ("readings", READINGS, lambda r: GestureSample(1, 1, 1, r).readings),
    **{f"dsp.{f.__name__}": ("series", READINGS[:, 0].copy(), f)
       for f in (dsp.skew, dsp.mean, dsp.hilbert_imag)},
    **{f"fit {k}": ("X", X, lambda a, k=k: MODELS[k]().fit(a, Y).predict(X))
       for k in MODELS},
    **{f"predict {k}": ("X", X, lambda a, k=k: fitted(k).predict(a)) for k in MODELS},
    **{f"predict one {k}": ("X", X[0], lambda a, k=k: fitted(k).predict(a))
       for k in MODELS},
}

# What a row's refusal names, when the row does not name it itself.
KIND = "the dtype, unless its kind is f, i or u"
ACCEPTED = "nothing: every element is a real number"
SHAPE = "the shape"


def holding(a, value):
    """``a`` as an object array of Python floats with ``value`` last."""
    o = a.astype(object)
    o.flat[-1] = value
    return o


def structured(a):
    s = np.zeros(a.shape, dtype=[("v", "f8")])
    s["v"] = a
    return s


def matrix(a):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        return np.matrix(a)


# name: (the input made from a boundary's float64 input, what a refusal
# names: the dtype, the subclass or the repr of the first refused value)
ROWS = {
    **{f"typecode {c}": (lambda a, c=c: a.astype(c), KIND) for c in np.typecodes["All"]},
    "StringDType": (lambda a: a.astype(np.dtypes.StringDType()), KIND),
    "complex array": (lambda a: a + 1j, KIND),
    "strings": (lambda a: a.astype(str), KIND),
    "bytes": (lambda a: a.astype(bytes), KIND),
    "datetime64": (lambda a: (a * 1000).astype(np.int64).astype("M8[ms]"), KIND),
    "timedelta64": (lambda a: (a * 1000).astype(np.int64).astype("m8[ms]"), KIND),
    "structured": (structured, KIND),
    "object of floats": (lambda a: a.astype(object), ACCEPTED),
    "object of ints": (lambda a: a.astype(int).astype(object), ACCEPTED),
    "object holding 2**70": (lambda a: holding(a, 2**70), ACCEPTED),
    "object holding a Fraction": (lambda a: holding(a, Fraction(1, 3)), ACCEPTED),
    "object holding a Decimal": (lambda a: holding(a, Decimal("1.5")), "Decimal('1.5')"),
    "object holding a bool": (lambda a: holding(a, True), "True"),
    "object holding np.bool_": (lambda a: holding(a, np.True_), "np.True_"),
    "object holding None": (lambda a: holding(a, None), "None"),
    "string in an object array": (lambda a: holding(a, "1.0"), "'1.0'"),
    "bytes in an object array": (lambda a: holding(a, b"1.0"), "b'1.0'"),
    "list of floats": (lambda a: a.tolist(), ACCEPTED),
    "list holding True": (lambda a: holding(a, True).tolist(), "True"),
    "complex in a list": (lambda a: holding(a, 1j).tolist(), "1j"),
    "int too large for a float": (lambda a: holding(a, 10**400).tolist(), repr(10**400)),
    "string in a list": (lambda a: holding(a, "1.0").tolist(), "'1.0'"),
    "bytes in a list": (lambda a: holding(a, b"1").tolist(), "b'1'"),
    "masked array": (lambda a: np.ma.masked_array(a, mask=a > 50), "MaskedArray"),
    "matrix": (matrix, "matrix"),
    "recarray": (lambda a: structured(a).view(np.recarray), "recarray"),
    "0-d": (lambda a: np.asarray(a.flat[0]), SHAPE),
    "3-D": (lambda a: a.reshape((1,) * (3 - a.ndim) + a.shape), SHAPE),
}


# Rows that other test files run at their own boundaries.
NOT_REAL = ["bytes", "bytes in an object array", "complex array", "complex in a list",
            "int too large for a float", "string in a list", "string in an object array",
            "strings"]
NOT_NUMBERS = ["datetime64", "structured", "timedelta64"]


def bits(result):
    r = np.asarray(result)
    return r.shape, r.dtype.str, r.tobytes()


def check_array(row, what, base, run):
    """Run table row ``row``, made from the float64 ``base``, through
    ``run``, a boundary that calls its input ``what``."""
    make, named = ROWS[row]
    given = make(base)
    if named is KIND:  # a typecode O row holds the base's Python floats
        named = ACCEPTED if given.dtype.kind in "fiuO" else str(given.dtype)
    if named is ACCEPTED:
        flat = [float(v) for v in np.asarray(given, dtype=object).flat]
        want = np.array(flat).reshape(np.shape(given))
        assert bits(run(given)) == bits(run(want))
    elif named is SHAPE:
        with pytest.raises(ValueError, match=re.escape(str(np.shape(given)))):
            run(given)
    else:
        with pytest.raises(ValueError, match=rf"^{what} must be real numbers") as info:
            run(given)
        assert named in str(info.value)


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_array_rule(boundary, row):
    check_array(row, *BOUNDARIES[boundary])


# ------------------------------------------------------------ scalars

SCALARS = {
    "True": True, "False": False, "1.5": 1.5, "2.0": 2.0, "'1'": "1", "b'1'": b"1",
    "None": None, "[1]": [1], "2**70": 2**70, "10**400": 10**400,
    "np.int8(1)": np.int8(1), "np.uint64(5)": np.uint64(5),
    "np.float64(40.0)": np.float64(40.0), "Fraction(1, 2)": Fraction(1, 2),
    "Decimal(1)": Decimal(1),
}


def expected(type_, value):
    """The ``int`` or ``float`` stored for ``value``, or the tail of the
    refusal: ``must be ..., got <value>``."""
    if type_ is int:
        if isinstance(value, numbers.Integral) and not isinstance(value, bool):
            return int(value)
        return f"must be an integer, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return f"must be a real number, got {value!r}"
    try:
        return float(value)
    except OverflowError:
        return f"must be a real number that a float holds, got {value!r}"


CLASSIFIERS = (ExtraTreesClassifier, GradientBoostingClassifier, RidgeClassifier)
SYNTH_INTS = ("users", "gestures", "samples_per_gesture_per_user",
              "length_range min", "length_range max", "seed")
SYNTH_FLOATS = ("user_speed_jitter", "noise_sigma", "user_style_offset")


def identity(field):
    ids = dict(user=1, gesture=1, trial=1, day=1)
    return lambda v, _: getattr(
        GestureSample(**{**ids, field: v}, readings=np.zeros((4, 3))), field)


def synth(field):
    spec = dict(users=3, gestures=4, samples_per_gesture_per_user=5,
                length_range=(20, 40), user_speed_jitter=0.2, noise_sigma=0.1,
                user_style_offset=0.4, seed=5)
    if field.startswith("length_range"):
        end = field.endswith("max")
        return lambda v, _: SynthSpec(**{**spec, "length_range": (
            (20, v) if end else (v, 40))}).length_range[end]
    return lambda v, _: getattr(SynthSpec(**{**spec, field: v}), field)


def hyper(cls, name):
    return lambda v, _: getattr(cls(**{name: v}), name)


@functools.cache
def small_model(kind):
    small = {"extra_trees": {"n_trees": 2}, "gradient_boosting": {"n_stages": 2}}
    cls = {cls.kind: cls for cls in CLASSIFIERS}[kind]
    return cls(**small.get(kind, {})).fit(X, Y)


def loaded(kind, name):
    """Load a model file with ``name`` set to a value: in ``hyperparams``,
    or at the top for a header field. The version is not stored."""
    def load(value, tmp_path):
        path = save_model(small_model(kind), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        (doc if name in doc else doc["hyperparams"])[name] = value
        path.write_text(json.dumps(doc))
        model = load_model(path)
        if name != "feature_order_version":
            return getattr(model, "n_features_" if name == "n_features" else name)
    return load


# id: (the name in messages, the type stored, the call that stores a value)
FIELDS = {
    **{f: (f, int, identity(f)) for f in ("user", "gesture", "trial", "day")},
    **{f"SynthSpec {f}": (f, int, synth(f)) for f in SYNTH_INTS},
    **{f"SynthSpec {f}": (f, float, synth(f)) for f in SYNTH_FLOATS},
    **{f"{cls.kind} {name}": (name, type_, hyper(cls, name))
       for cls in CLASSIFIERS for name, type_ in hyperparameters(cls).items()},
    **{f"load {cls.kind} {name}": (name, type_, loaded(cls.kind, name))
       for cls in CLASSIFIERS for name, type_ in hyperparameters(cls).items()},
    **{f"load {name}": (name, int, loaded("ridge", name))
       for name in ("n_features", "feature_order_version")},
}

NO_JSON = object()


def written(value):
    """``value`` as a model file gives it back, NO_JSON if JSON has no
    form for it."""
    try:
        return json.loads(json.dumps(value))
    except TypeError:
        return NO_JSON


def outcome(store, value, tmp_path):
    try:
        got = store(value, tmp_path)
    except (ValueError, GestureRecError) as exc:
        return type(exc), str(exc)
    return type(got), got


def check_scalar(field, value, tmp_path=None):
    """Store ``value`` at ``field``: it is kept as the int or float it
    converts to and acts as that number does, or refused with an error
    that names the field and the value."""
    name, type_, store = FIELDS[field]
    if field.startswith("load "):
        value = written(value)
    want = expected(type_, value)
    if isinstance(want, str):
        with pytest.raises((ValueError, GestureRecError),
                           match=rf"(^|: ){re.escape(name)} {re.escape(want)}$"):
            store(value, tmp_path)
        return
    got = outcome(store, value, tmp_path)
    assert got == outcome(store, want, tmp_path)
    if not issubclass(got[0], Exception) and got[1] is not None:
        assert (got[0], got[1]) == (type_, want)


def values_at(field):
    """``(label, value)`` for each scalar that ``field`` is tried with."""
    for label, value in SCALARS.items():
        if field == "day" and value is None:
            continue  # a sample without a day
        if field.startswith("load ") and written(value) is NO_JSON:
            continue
        yield label, value


def scalar_cases():
    for field in FIELDS:
        for label, value in values_at(field):
            yield pytest.param(field, value, id=f"{field}-{label}")


@pytest.mark.parametrize("field,value", scalar_cases())
def test_scalar_rule(field, value, tmp_path):
    check_scalar(field, value, tmp_path)
