"""Every name a module exports or the traced benchmark patches exists, and
one function reads CSV tables."""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import gestrec

MODULES = ["gestrec"] + [
    m.name for m in pkgutil.walk_packages(gestrec.__path__, prefix="gestrec.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_what_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


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
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
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
