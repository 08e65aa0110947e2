"""Every name a module exports or the traced benchmark patches exists, the
benchmark's tree walk agrees with the loaded models, one function reads
CSV tables, one module knows the model file's feature-order field, and
the ``test`` extra brings every module the tests import."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import gestrec
from gestrec import ExtraTreesClassifier, GradientBoostingClassifier, load_model, save_model

BENCH = Path(__file__).resolve().parents[1] / "bench"

MODULES = ["gestrec"] + [
    m.name for m in pkgutil.walk_packages(gestrec.__path__, prefix="gestrec.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_what_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


def test_the_test_extra_names_every_third_party_test_import():
    """After ``pip install -e ".[test]"`` every module the tests import is
    there: each top-level module imported under ``tests/`` is the
    standard library's, the package's, a test module, a runtime
    dependency (numpy) or named in the ``test`` extra. scipy, the oracle
    of the dsp and feature tests, was missing from it."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    project = tomllib.loads(pyproject)["project"]

    def names(requirements):
        return {re.match(r"[\w.-]+", req).group().lower() for req in requirements}

    tests = root / "tests"
    imported = set()
    for path in tests.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    local = {"gestrec"} | {path.stem for path in tests.rglob("*.py")}
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"numpy", "pytest", "scipy"} <= third_party
    declared = names(project["dependencies"]) | names(
        project["optional-dependencies"]["test"])
    assert third_party <= declared


def test_one_csv_table_reader():
    """``data.read_table`` holds the only ``csv.reader`` call under the
    package, and ``gestrec`` does not export it."""
    from gestrec import data

    sources = Path(gestrec.__file__).parent.rglob("*.py")
    calls = sum(p.read_text(encoding="utf-8").count("csv.reader(") for p in sources)
    assert calls == 1
    assert "csv.reader(" in inspect.getsource(data.read_table)
    assert "read_table" not in gestrec.__all__


def test_traced_benchmark_patches_only_what_exists():
    """The benchmark's traced mode (``bench/spans.py``) wraps library
    functions by name: installing its tracer fails if one is gone."""
    path = BENCH / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
    finally:
        tracer.uninstall()
    assert patched
    assert all(getattr(owner, attr) is fn for owner, attr, fn in patched)


def test_benchmark_tree_walk_counts_every_loaded_node(blob_data, tmp_path, monkeypatch):
    """``bench/layers.py`` counts tree nodes by walking ``Node``s: on a model
    from ``load_model`` it finds every node of the flattened forest."""
    monkeypatch.syspath_prepend(str(BENCH))  # layers imports spans
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    X, y = blob_data(n_classes=3, seed=21)
    for model in (ExtraTreesClassifier(n_trees=5, seed=1), GradientBoostingClassifier(n_stages=4)):
        loaded = load_model(save_model(model.fit(X, y), tmp_path / f"{model.kind}.json"))
        nodes = sum(layers.count_nodes(t) for t in layers.trees_of(loaded))
        assert nodes == loaded._forest.feature.size > len(layers.trees_of(loaded))


def test_one_module_knows_the_feature_order_field():
    """Only the model store names the file's ``feature_order_version``."""
    package = Path(gestrec.__file__).parent
    naming = [p.relative_to(package).as_posix() for p in sorted(package.rglob("*.py"))
              if "feature_order_version" in p.read_text(encoding="utf-8")]
    assert naming == ["classifiers/store.py"]
