"""Model persistence: round-trips, corruption handling, reproducibility."""

import inspect
import json
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from gestrec import (
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RidgeClassifier,
    load_model,
    save_model,
)
from gestrec.classifiers._rows import hyperparameters
from gestrec.classifiers.store import FORMAT_TAG
from gestrec.errors import ModelFileError, VersionMismatchError
from gestrec.features import FEATURE_ORDER_VERSION


def fitted_models(blob_data):
    X, y = blob_data(n_classes=3, n_per=12, spread=1.0, seed=21)
    return X, y, [
        ExtraTreesClassifier(n_trees=8, seed=2).fit(X, y),
        GradientBoostingClassifier(n_stages=6, seed=2).fit(X, y),
        RidgeClassifier(alpha=1.0).fit(X, y),
    ]


class TestRoundTrip:
    def test_predictions_bit_identical(self, blob_data, tmp_path):
        X, y, models = fitted_models(blob_data)
        queries = np.random.default_rng(0).normal(size=(100, X.shape[1])) * 2.5
        for model in models:
            path = tmp_path / f"{model.kind}.json"
            save_model(model, path)
            again = load_model(path)
            assert type(again) is type(model)
            assert np.array_equal(again.predict(queries), model.predict(queries))
            assert np.array_equal(again.classes_, model.classes_)

    def test_decision_values_bit_identical(self, blob_data, tmp_path):
        X, y, models = fitted_models(blob_data)
        for model in models:
            if not hasattr(model, "decision_function"):
                continue
            path = tmp_path / f"{model.kind}.json"
            save_model(model, path)
            again = load_model(path)
            assert np.array_equal(again.decision_function(X), model.decision_function(X))

    def test_hyperparameters_preserved(self, blob_data, tmp_path):
        # Every kind, with no value at its default: the file records the
        # constructor's parameters by name and in order, and load passes
        # each back with its type.
        X, y = blob_data(seed=22)
        for cls, hyper in [
            (ExtraTreesClassifier, dict(n_trees=3, k_features=2, min_samples_split=4, seed=7)),
            (GradientBoostingClassifier, dict(n_stages=4, learning_rate=0.3, max_depth=2, seed=5)),
            (RidgeClassifier, dict(alpha=0.5, seed=3)),
        ]:
            path = save_model(cls(**hyper).fit(X, y), tmp_path / f"{cls.kind}.json")
            doc = json.loads(path.read_text())
            assert list(doc["hyperparams"]) == list(inspect.signature(cls).parameters)
            again = load_model(path)
            for name, value in hyper.items():
                assert getattr(again, name) == value, (cls.kind, name)
                assert type(getattr(again, name)) is type(value), (cls.kind, name)

    def test_file_is_tagged_json(self, blob_data, tmp_path):
        X, y, models = fitted_models(blob_data)
        for model in models:
            path = tmp_path / f"{model.kind}.json"
            save_model(model, path)
            doc = json.loads(path.read_text())
            assert doc["format"] == FORMAT_TAG
            assert doc["kind"] == model.kind
            assert doc["n_features"] == X.shape[1]

    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_model(RidgeClassifier(), tmp_path / "m.json")

    def test_numpy_hyperparameters_are_written_as_their_type(self, blob_data, tmp_path):
        X, y = blob_data(seed=22)
        for model, name, value in [
            (ExtraTreesClassifier(n_trees=np.int64(3)), "n_trees", 3),
            (GradientBoostingClassifier(n_stages=2, learning_rate=np.float64(0.25)),
             "learning_rate", 0.25),
            (RidgeClassifier(alpha=np.float32(0.5)), "alpha", 0.5),
        ]:
            path = save_model(model.fit(X, y), tmp_path / f"{model.kind}.json")
            assert json.loads(path.read_text())["hyperparams"][name] == value
            again = load_model(path)
            assert getattr(again, name) == value
            assert type(getattr(again, name)) is type(value)
            assert np.array_equal(again.predict(X), model.predict(X))

    def test_unknown_model_type_rejected(self, tmp_path):
        class Fitted:
            classes_ = np.array([1, 2])

        with pytest.raises(TypeError, match="unsupported model type: Fitted"):
            save_model(Fitted(), tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    def test_failed_save_leaves_the_old_file(self, blob_data, tmp_path):
        X, y = blob_data(seed=22)
        path = save_model(RidgeClassifier().fit(X, y), tmp_path / "m.json")
        before = path.read_bytes()
        model = RidgeClassifier().fit(X, y)
        model.classes_ = np.array([{c} for c in model.classes_], dtype=object)
        with pytest.raises(TypeError):
            save_model(model, path)
        assert path.read_bytes() == before


class TestHyperparameterTypes:
    """A constructor checks the type of each hyperparameter named by
    ``hyperparameters(cls)`` before its range: an int one must be an
    integer, a float one a real number. A float for an int used to be
    saved truncated (max_depth 2.5 as 2) or fail at fit with TypeError."""

    @pytest.mark.parametrize("cls,name,value", [
        (GradientBoostingClassifier, "max_depth", 2.5),
        (GradientBoostingClassifier, "n_stages", 2.5),
        (ExtraTreesClassifier, "min_samples_split", 2.5),
        (ExtraTreesClassifier, "n_trees", 2.5),
        (ExtraTreesClassifier, "n_trees", -1.5),
        (ExtraTreesClassifier, "k_features", 2.5),
        (ExtraTreesClassifier, "seed", 1.5),
        (RidgeClassifier, "seed", 0.5),
        (ExtraTreesClassifier, "n_trees", "3"),
        (GradientBoostingClassifier, "learning_rate", "0.5"),
        (RidgeClassifier, "alpha", "1"),
        (RidgeClassifier, "alpha", None),
    ])
    def test_wrong_type_is_named(self, cls, name, value):
        kind = "an integer" if hyperparameters(cls)[name] is int else "a real number"
        with pytest.raises(ValueError,
                           match=rf"^{name} must be {kind}, got {re.escape(repr(value))}$"):
            cls(**{name: value})

    @pytest.mark.parametrize("cls", [
        ExtraTreesClassifier, GradientBoostingClassifier, RidgeClassifier])
    def test_every_hyperparameter_is_checked(self, cls):
        for name, type_ in hyperparameters(cls).items():
            for value in ("1", b"1", None, [1]) + ((1.0,) if type_ is int else ()):
                with pytest.raises(ValueError, match=f"^{name} must be"):
                    cls(**{name: value})


    @pytest.mark.parametrize("cls", [
        ExtraTreesClassifier, GradientBoostingClassifier, RidgeClassifier])
    def test_bools_are_refused(self, cls):
        # True is an int to Python: n_stages=True used to fit one stage
        # and save as 1.
        for name, type_ in hyperparameters(cls).items():
            kind = "an integer" if type_ is int else "a real number"
            for value in (True, False):
                with pytest.raises(ValueError,
                                   match=rf"^{name} must be {kind}, got {value}$"):
                    cls(**{name: value})


class TestFloatHyperparameters:
    """A float hyperparameter is stored as the Python float of its value,
    so any real number fits and saves as that float does."""

    @pytest.mark.parametrize("cls,name,value", [
        (RidgeClassifier, "alpha", Fraction(1, 2)),
        (RidgeClassifier, "alpha", 2),
        (GradientBoostingClassifier, "learning_rate", Fraction(1, 2)),
        (GradientBoostingClassifier, "learning_rate", 1),
    ])
    def test_stored_as_a_float(self, blob_data, tmp_path, cls, name, value):
        # Fraction(1, 2) used to raise TypeError from np.isfinite (alpha)
        # or from the score update at fit (learning_rate).
        X, y = blob_data(seed=23)
        stages = {"n_stages": 3} if cls is GradientBoostingClassifier else {}
        model = cls(**stages, **{name: value})
        assert type(getattr(model, name)) is float
        got = save_model(model.fit(X, y), tmp_path / "got.json")
        want = cls(**stages, **{name: float(value)}).fit(X, y)
        assert got.read_bytes() == save_model(want, tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize("cls,name", [
        (RidgeClassifier, "alpha"), (GradientBoostingClassifier, "learning_rate")])
    def test_a_value_no_float_holds_is_named(self, cls, name):
        for value in (Fraction(10**400), 10**400):
            with pytest.raises(ValueError,
                               match=rf"^{name} must be a real number that a float holds"):
                cls(**{name: value})


class TestCorruption:
    def _saved(self, blob_data, tmp_path):
        X, y = blob_data(seed=23)
        model = GradientBoostingClassifier(n_stages=3).fit(X, y)
        path = tmp_path / "m.json"
        save_model(model, path)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError):
            load_model(tmp_path / "nope.json")

    def test_truncated_file(self, blob_data, tmp_path):
        path = self._saved(blob_data, tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("u,g,t\n1,2,3\n")
        with pytest.raises(ModelFileError):
            load_model(path)

    @pytest.mark.parametrize("doc", [[], 3])
    def test_json_that_is_not_an_object(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match=f"is not a {FORMAT_TAG} file$"):
            load_model(path)

    def test_foreign_format_tag(self, blob_data, tmp_path):
        path = self._saved(blob_data, tmp_path)
        doc = json.loads(path.read_text())
        doc["format"] = "other-tool/9"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="format"):
            load_model(path)

    def test_unknown_kind(self, blob_data, tmp_path):
        path = self._saved(blob_data, tmp_path)
        doc = json.loads(path.read_text())
        doc["kind"] = "svm"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="kind"):
            load_model(path)

    @pytest.mark.parametrize("kind,name,value", [
        ("extra_trees", "n_trees", 2.9), ("extra_trees", "n_trees", True),
        ("extra_trees", "seed", "0"), ("gradient_boosting", "learning_rate", "0.5"),
        ("gradient_boosting", "learning_rate", True),
        ("gradient_boosting", "max_depth", 3.0), ("ridge", "alpha", None),
        ("ridge", "alpha", False),
        # the header's integers: the models have 6 features
        ("extra_trees", "n_features", 6.9), ("ridge", "n_features", "6"),
        ("gradient_boosting", "feature_order_version", 1.7),
        ("ridge", "feature_order_version", True),
    ])
    def test_hyperparameter_of_another_json_type(self, blob_data, tmp_path, kind,
                                                 name, value):
        # A coercion would load 2.9 trees as 2 and true as 1, and version
        # 1.7 would pass a check for version 1.
        model = {m.kind: m for m in fitted_models(blob_data)[2]}[kind]
        path = save_model(model, tmp_path / "m.json")
        doc = json.loads(path.read_text())
        hyper = name in doc["hyperparams"]
        (doc["hyperparams"] if hyper else doc)[name] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match=rf"m\.json: {name} must be .+, "
                                                 rf"got {re.escape(repr(value))}$"):
            load_model(path)

    def test_integral_float_hyperparameter_loads_and_resaves(self, blob_data, tmp_path):
        # save_model's own files load and save back byte for byte, and a
        # JSON integer is a number wherever a float is declared.
        for model in fitted_models(blob_data)[2]:
            path = save_model(model, tmp_path / f"{model.kind}.json")
            again = save_model(load_model(path), tmp_path / f"{model.kind}-2.json")
            assert again.read_bytes() == path.read_bytes()
        doc = json.loads(path.read_text())
        doc["hyperparams"]["alpha"] = 1
        path.write_text(json.dumps(doc))
        alpha = load_model(path).alpha
        assert alpha == 1.0 and type(alpha) is float

    def test_missing_params_section(self, blob_data, tmp_path):
        path = self._saved(blob_data, tmp_path)
        doc = json.loads(path.read_text())
        del doc["params"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_bad_stage_layout(self, blob_data, tmp_path):
        path = self._saved(blob_data, tmp_path)
        doc = json.loads(path.read_text())
        doc["params"]["stages"][1] = doc["params"]["stages"][1][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="stage"):
            load_model(path)

    @pytest.mark.parametrize("kind, classes", [
        ("gb", []),  # no class: gb predict would fail in the tree router
        ("et", [[1], [2], [3]]),  # predict would return [1], not a label
        ("et", [1, 1, 2]),
        ("et", [1, "2", 3]),  # numpy would make every label a string
        ("et", [True, False, 2]),
        ("et", [1, 2.0, 3]),
    ])
    def test_classes_must_be_distinct_labels(self, blob_data, tmp_path, kind, classes):
        X, y = blob_data(n_classes=3, seed=23)
        model = ExtraTreesClassifier(n_trees=3) if kind == "et" else GradientBoostingClassifier(n_stages=2)
        path = save_model(model.fit(X, y), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["classes"] = classes
        if not classes:
            doc["params"]["initial_scores"] = []
            doc["params"]["stages"] = [[] for _ in doc["params"]["stages"]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match=r"m\.json: classes must be a non-empty list of distinct labels"):
            load_model(path)

    def test_nesting_deeper_than_the_json_parser_takes(self, blob_data, tmp_path):
        # Written as text: json.dumps would hit the same recursion limit.
        X, y = blob_data(n_classes=2, seed=23)
        path = save_model(ExtraTreesClassifier(n_trees=1).fit(X, y), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["params"]["trees"] = []
        depth = 990
        tree = '{"f":0,"t":0.0,"l":' * depth + '{"p":[1.0,0.0]}' + ',"r":{"p":[0.0,1.0]}}' * depth
        text = json.dumps(doc, separators=(",", ":"))
        path.write_text(text.replace('"trees":[]', '"trees":[' + tree + "]"))
        with pytest.raises(ModelFileError, match=r"corrupt model file .*m\.json"):
            load_model(path)

    def test_mangled_tree_node(self, blob_data, tmp_path):
        path = self._saved(blob_data, tmp_path)
        doc = json.loads(path.read_text())
        doc["params"]["stages"][0][0] = {"bogus": 1}
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError):
            load_model(path)

    @pytest.mark.parametrize("node", [[0.5], "f", 3, None])
    def test_tree_node_that_is_not_an_object(self, blob_data, tmp_path, node):
        path = self._saved(blob_data, tmp_path)
        doc = json.loads(path.read_text())
        doc["params"]["stages"][0][1]["l"] = node
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match=r"m\.json: tree 1 has node .*, expected an object"):
            load_model(path)

    @pytest.mark.parametrize("where", ["alpha", "mean", "threshold", "leaf"])
    def test_integer_too_large_for_a_float(self, blob_data, tmp_path, where):
        # 10**400 written out is a JSON integer; float() and numpy refuse
        # it with OverflowError. Load names the field or node it is in.
        X, y = blob_data(n_classes=2, seed=23)
        model = RidgeClassifier() if where in ("alpha", "mean") else ExtraTreesClassifier(n_trees=1)
        path = save_model(model.fit(X, y), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        if where == "alpha":
            doc["hyperparams"]["alpha"] = 10**400
        elif where == "mean":
            doc["params"]["mean"][0] = 10**400
        else:
            tree = doc["params"]["trees"][0]
            if where == "threshold":
                tree["t"] = 10**400
            else:
                while "f" in tree:
                    tree = tree["l"]
                tree["p"][0] = 10**400
        path.write_text(json.dumps(doc))
        message = {
            "alpha": r"alpha must be a real number that a float holds, got 10+",
            "mean": r"mean must be real numbers that a float holds, got 10+",
            "threshold": r"tree 0 splits at threshold 10+, expected a finite float",
            "leaf": r"tree 0 has leaf value \[10+, .*\], expected 2 class probabilities",
        }[where]
        with pytest.raises(ModelFileError, match=rf"m\.json: {message}$"):
            load_model(path)


class TestTreeStructure:
    """Well-formed JSON whose trees predict could not use is rejected at
    load, with the file and the tree named."""

    @pytest.mark.parametrize("cls", [ExtraTreesClassifier, GradientBoostingClassifier])
    def test_negative_feature_count(self, cls, tmp_path):
        # One-class rows give trees that are all leaves, so no split
        # feature bounds n_features; -3 used to load and fail every predict.
        path = tmp_path / "m.json"
        save_model(cls().fit(np.zeros((4, 2)), np.ones(4, dtype=int)), path)
        doc = json.loads(path.read_text())
        doc["n_features"] = -3
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match=r"m\.json: n_features is -3, expected >= 0"):
            load_model(path)
        # A fit on zero columns is supported, and its file loads.
        save_model(cls().fit(np.zeros((4, 0)), np.array([1, 2, 1, 2])), path)
        assert load_model(path).predict(np.zeros(0)) == 1

    def _saved(self, model, blob_data, tmp_path):
        X, y = blob_data(seed=25)
        path = tmp_path / "m.json"
        save_model(model.fit(X, y), path)
        return path, json.loads(path.read_text())

    @staticmethod
    def _first_leaf(tree):
        while "f" in tree:
            tree = tree["l"]
        return tree

    # 1.9, true and "1" would load as feature 1.
    @pytest.mark.parametrize("feature", [99, -1, 1.9, True, "1"])
    def test_split_feature_out_of_range_et(self, blob_data, tmp_path, feature):
        path, doc = self._saved(ExtraTreesClassifier(n_trees=4, seed=1), blob_data, tmp_path)
        doc["params"]["trees"][2]["f"] = feature
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match=rf"m\.json: tree 2 splits on feature {re.escape(repr(feature))}"):
            load_model(path)

    def test_split_feature_out_of_range_gb(self, blob_data, tmp_path):
        path, doc = self._saved(GradientBoostingClassifier(n_stages=3), blob_data, tmp_path)
        doc["params"]["stages"][1][0]["f"] = 99
        path.write_text(json.dumps(doc))
        # Trees are numbered stage by stage: stage 1, class 0 of 3 is tree 3.
        with pytest.raises(ModelFileError, match=r"m\.json: tree 3 splits on feature 99"):
            load_model(path)

    @pytest.mark.parametrize("kept", [2, 0])
    def test_et_tree_count_must_match_n_trees(self, blob_data, tmp_path, kept):
        path, doc = self._saved(ExtraTreesClassifier(n_trees=4, seed=1), blob_data, tmp_path)
        doc["params"]["trees"] = doc["params"]["trees"][:kept]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match=rf"m\.json: {kept} trees, expected n_trees = 4"):
            load_model(path)

    @pytest.mark.parametrize("width", [2, 4])
    def test_et_leaf_width_must_match_classes(self, blob_data, tmp_path, width):
        path, doc = self._saved(ExtraTreesClassifier(n_trees=4, seed=1), blob_data, tmp_path)
        self._first_leaf(doc["params"]["trees"][1])["p"] = [1.0 / width] * width
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match=r"tree 1 has leaf value .*, expected 3 class probabilities"):
            load_model(path)

    @pytest.mark.parametrize("leaf", [{"v": float("nan")}, {"v": float("inf")}, {"p": [0.5, 0.5]},
                                      {"v": "0.25"}, {"v": True}, {"v": None}])
    def test_gb_leaf_must_be_a_finite_float(self, blob_data, tmp_path, leaf):
        path, doc = self._saved(GradientBoostingClassifier(n_stages=3), blob_data, tmp_path)
        tree = self._first_leaf(doc["params"]["stages"][0][2])
        tree.clear()
        tree.update(leaf)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="tree 2 has leaf value .*, expected a finite float"):
            load_model(path)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf"), "0.25", True])
    def test_et_split_threshold_must_be_finite(self, blob_data, tmp_path, threshold):
        path, doc = self._saved(ExtraTreesClassifier(n_trees=4, seed=1), blob_data, tmp_path)
        doc["params"]["trees"][3]["t"] = threshold
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match=r"m\.json: tree 3 splits at threshold .*, expected a finite float"):
            load_model(path)

    def test_gb_split_threshold_must_be_finite(self, blob_data, tmp_path):
        path, doc = self._saved(GradientBoostingClassifier(n_stages=3), blob_data, tmp_path)
        doc["params"]["stages"][2][1]["t"] = float("nan")
        path.write_text(json.dumps(doc))
        # Stage 2, class 1 of 3 is tree 7.
        with pytest.raises(ModelFileError, match=r"m\.json: tree 7 splits at threshold nan"):
            load_model(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "0.5", True])
    def test_et_leaf_must_be_finite(self, blob_data, tmp_path, bad):
        path, doc = self._saved(ExtraTreesClassifier(n_trees=4, seed=1), blob_data, tmp_path)
        self._first_leaf(doc["params"]["trees"][0])["p"] = [bad] * 3
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match=r"m\.json: tree 0 has leaf value .*, expected 3 class probabilities"):
            load_model(path)

    def test_first_bad_node_in_file_order_is_named(self, blob_data, tmp_path):
        # A non-finite leaf in tree 0 comes before a bad split in tree 2.
        path, doc = self._saved(ExtraTreesClassifier(n_trees=4, seed=1), blob_data, tmp_path)
        self._first_leaf(doc["params"]["trees"][0])["p"] = [float("nan")] * 3
        doc["params"]["trees"][2]["f"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError) as info:
            load_model(path)
        assert str(info.value) == (
            f"{path}: tree 0 has leaf value [nan, nan, nan], expected 3 class probabilities")

    def test_gb_nan_leaf_message(self, blob_data, tmp_path):
        path, doc = self._saved(GradientBoostingClassifier(n_stages=3), blob_data, tmp_path)
        self._first_leaf(doc["params"]["stages"][1][2])["v"] = float("nan")
        path.write_text(json.dumps(doc))
        # Stage 1, class 2 of 3 is tree 5.
        with pytest.raises(ModelFileError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: tree 5 has leaf value nan, expected a finite float"


class TestParameterArrays:
    """Parameter arrays of the wrong shape or with non-finite entries are
    rejected at load, with the file and the parameter named: they would
    otherwise fail, or give wrong labels, at predict."""

    def _saved(self, model, blob_data, tmp_path):
        X, y = blob_data(n_classes=3, d=6, seed=26)
        path = tmp_path / "m.json"
        save_model(model.fit(X, y), path)
        return path, json.loads(path.read_text())

    @staticmethod
    def _rejected(path, doc, match):
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match=match):
            load_model(path)

    @pytest.mark.parametrize("scores", [[0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [[0.0, 0.0, 0.0]]])
    def test_gb_initial_scores_shape(self, blob_data, tmp_path, scores):
        path, doc = self._saved(GradientBoostingClassifier(n_stages=2), blob_data, tmp_path)
        doc["params"]["initial_scores"] = scores
        self._rejected(path, doc, r"m\.json: initial_scores has shape .*, expected \(3,\)")

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_gb_initial_scores_finite(self, blob_data, tmp_path, bad):
        path, doc = self._saved(GradientBoostingClassifier(n_stages=2), blob_data, tmp_path)
        doc["params"]["initial_scores"][1] = bad
        self._rejected(path, doc, r"m\.json: initial_scores has non-finite entries")

    @pytest.mark.parametrize("name", ["mean", "std"])
    def test_rc_mean_and_std_shape(self, blob_data, tmp_path, name):
        path, doc = self._saved(RidgeClassifier(), blob_data, tmp_path)
        doc["params"][name] = doc["params"][name][:-1]
        self._rejected(path, doc, rf"m\.json: {name} has shape \(5,\), expected \(6,\)")

    @pytest.mark.parametrize("name", ["mean", "std"])
    def test_rc_mean_and_std_finite(self, blob_data, tmp_path, name):
        path, doc = self._saved(RidgeClassifier(), blob_data, tmp_path)
        doc["params"][name][2] = float("nan")
        self._rejected(path, doc, rf"m\.json: {name} has non-finite entries")

    @pytest.mark.parametrize("std", [0.0, -1.0])
    def test_rc_std_positive(self, blob_data, tmp_path, std):
        path, doc = self._saved(RidgeClassifier(), blob_data, tmp_path)
        doc["params"]["std"][4] = std
        self._rejected(path, doc, r"m\.json: std has entries <= 0")

    @pytest.mark.parametrize("cut", ["class", "column"])
    def test_rc_weights_shape(self, blob_data, tmp_path, cut):
        path, doc = self._saved(RidgeClassifier(), blob_data, tmp_path)
        w = doc["params"]["weights"]
        doc["params"]["weights"] = w[:-1] if cut == "class" else [row[:-1] for row in w]
        self._rejected(path, doc, r"m\.json: weights has shape .*, expected \(3, 7\)")

    def test_rc_weights_finite(self, blob_data, tmp_path):
        path, doc = self._saved(RidgeClassifier(), blob_data, tmp_path)
        doc["params"]["weights"][1][3] = float("inf")
        self._rejected(path, doc, r"m\.json: weights has non-finite entries")

    # numpy reads "0.5" and true as floats; save_model writes neither.

    def test_rc_mean_of_strings(self, blob_data, tmp_path):
        path, doc = self._saved(RidgeClassifier(), blob_data, tmp_path)
        doc["params"]["mean"] = [repr(v) for v in doc["params"]["mean"]]
        self._rejected(path, doc, r"m\.json: mean must be real numbers, got '.*'")

    @pytest.mark.parametrize("flag", [True, False])
    def test_rc_std_of_a_boolean(self, blob_data, tmp_path, flag):
        path, doc = self._saved(RidgeClassifier(), blob_data, tmp_path)
        doc["params"]["std"][0] = flag
        self._rejected(path, doc, rf"m\.json: std must be real numbers, got {flag}")

    def test_rc_weights_with_a_nested_string(self, blob_data, tmp_path):
        path, doc = self._saved(RidgeClassifier(), blob_data, tmp_path)
        doc["params"]["weights"][2][5] = "0.25"
        self._rejected(path, doc, r"m\.json: weights must be real numbers, got '0\.25'")

    def test_gb_initial_scores_of_strings(self, blob_data, tmp_path):
        path, doc = self._saved(GradientBoostingClassifier(n_stages=2), blob_data, tmp_path)
        doc["params"]["initial_scores"] = [repr(v) for v in doc["params"]["initial_scores"]]
        self._rejected(path, doc, r"m\.json: initial_scores must be real numbers, got '.*'")

    def test_integral_entries_load(self, blob_data, tmp_path):
        # A JSON integer is a JSON number: 1 loads as 1.0.
        path, doc = self._saved(RidgeClassifier(), blob_data, tmp_path)
        doc["params"]["std"][0] = 1
        path.write_text(json.dumps(doc))
        assert load_model(path).std_[0] == 1.0


class TestVersionGate:
    def test_matching_version_accepted(self, blob_data, tmp_path):
        X, y = blob_data(seed=24)
        model = RidgeClassifier().fit(X, y)
        save_model(model, tmp_path / "m.json")
        again = load_model(tmp_path / "m.json", expect_feature_version=FEATURE_ORDER_VERSION)
        assert np.array_equal(again.predict(X), model.predict(X))
        assert json.loads((tmp_path / "m.json").read_text())["feature_order_version"] == (
            FEATURE_ORDER_VERSION
        )

    def test_version_mismatch_rejected(self, blob_data, tmp_path):
        X, y = blob_data(seed=24)
        model = RidgeClassifier().fit(X, y)
        save_model(model, tmp_path / "m.json")
        with pytest.raises(VersionMismatchError):
            load_model(tmp_path / "m.json", expect_feature_version=999)

    @pytest.mark.parametrize("version", [0, FEATURE_ORDER_VERSION + 1])
    def test_every_load_checks_the_feature_order(self, blob_data, tmp_path, version):
        # Without the keyword, a load expects the order features computes.
        X, y = blob_data(seed=24)
        path = save_model(GradientBoostingClassifier(n_stages=2).fit(X, y), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["feature_order_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatchError, match=rf"m\.json: model feature order v{version}"):
            load_model(path)


TRAIN_SCRIPT = """
import sys
import numpy as np
from gestrec import ExtraTreesClassifier, GradientBoostingClassifier, RidgeClassifier, save_model

kind, out = sys.argv[1], sys.argv[2]
rng = np.random.default_rng(55)
X = np.vstack([rng.normal(loc=3.0 * c, size=(12, 6)) for c in range(3)])
y = np.repeat([1, 2, 3], 12)
cls = {"et": ExtraTreesClassifier, "gb": GradientBoostingClassifier, "rc": RidgeClassifier}[kind]
save_model(cls(seed=13).fit(X, y) if kind != "rc" else cls().fit(X, y), out)
"""


class TestCrossProcessDeterminism:
    @pytest.mark.parametrize("kind", ["et", "gb", "rc"])
    def test_two_processes_write_identical_files(self, kind, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            subprocess.run(
                [sys.executable, "-c", TRAIN_SCRIPT, kind, str(path)],
                check=True,
                capture_output=True,
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_loaded_model_matches_in_process_fit(self, tmp_path):
        path = tmp_path / "m.json"
        subprocess.run(
            [sys.executable, "-c", TRAIN_SCRIPT, "et", str(path)],
            check=True,
            capture_output=True,
        )
        rng = np.random.default_rng(55)
        X = np.vstack([rng.normal(loc=3.0 * c, size=(12, 6)) for c in range(3)])
        y = np.repeat([1, 2, 3], 12)
        local = ExtraTreesClassifier(seed=13).fit(X, y)
        loaded = load_model(path)
        queries = np.random.default_rng(1).normal(size=(50, 6)) * 4.0
        assert np.array_equal(loaded.predict_proba(queries), local.predict_proba(queries))
