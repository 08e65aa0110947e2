"""Every name a module exports exists, and one function reads CSV tables."""

import importlib
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
