"""Model persistence: round-trips, corruption handling, reproducibility."""

import json
import subprocess
import sys

import numpy as np
import pytest

from gestrec import (
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RidgeClassifier,
    load_model,
    save_model,
)
from gestrec.classifiers.store import FORMAT_TAG
from gestrec.errors import ModelFileError, VersionMismatchError


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
        X, y = blob_data(seed=22)
        model = ExtraTreesClassifier(n_trees=3, k_features=2, min_samples_split=4, seed=7).fit(X, y)
        save_model(model, tmp_path / "m.json")
        again = load_model(tmp_path / "m.json")
        assert again.n_trees == 3
        assert again.k_features == 2
        assert again.min_samples_split == 4
        assert again.seed == 7

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

    def test_mangled_tree_node(self, blob_data, tmp_path):
        path = self._saved(blob_data, tmp_path)
        doc = json.loads(path.read_text())
        doc["params"]["stages"][0][0] = {"bogus": 1}
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError):
            load_model(path)


class TestTreeStructure:
    """Well-formed JSON whose trees predict could not use is rejected at
    load, with the file and the tree named."""

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

    @pytest.mark.parametrize("feature", [99, -1])
    def test_split_feature_out_of_range_et(self, blob_data, tmp_path, feature):
        path, doc = self._saved(ExtraTreesClassifier(n_trees=4, seed=1), blob_data, tmp_path)
        doc["params"]["trees"][2]["f"] = feature
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match=rf"m\.json: tree 2 splits on feature {feature}"):
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

    @pytest.mark.parametrize("leaf", [{"v": float("nan")}, {"v": float("inf")}, {"p": [0.5, 0.5]}])
    def test_gb_leaf_must_be_a_finite_float(self, blob_data, tmp_path, leaf):
        path, doc = self._saved(GradientBoostingClassifier(n_stages=3), blob_data, tmp_path)
        tree = self._first_leaf(doc["params"]["stages"][0][2])
        tree.clear()
        tree.update(leaf)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="tree 2 has leaf value .*, expected a finite float"):
            load_model(path)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_et_leaf_must_be_finite(self, blob_data, tmp_path, bad):
        path, doc = self._saved(ExtraTreesClassifier(n_trees=4, seed=1), blob_data, tmp_path)
        self._first_leaf(doc["params"]["trees"][0])["p"] = [bad] * 3
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match=r"m\.json: tree 0 has leaf value .*, expected 3 class probabilities"):
            load_model(path)


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


class TestVersionGate:
    def test_matching_version_accepted(self, blob_data, tmp_path):
        X, y = blob_data(seed=24)
        model = RidgeClassifier().fit(X, y)
        save_model(model, tmp_path / "m.json")
        again = load_model(tmp_path / "m.json", expect_feature_version=model.feature_order_version)
        assert np.array_equal(again.predict(X), model.predict(X))

    def test_version_mismatch_rejected(self, blob_data, tmp_path):
        X, y = blob_data(seed=24)
        model = RidgeClassifier().fit(X, y)
        save_model(model, tmp_path / "m.json")
        with pytest.raises(VersionMismatchError):
            load_model(tmp_path / "m.json", expect_feature_version=999)


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
