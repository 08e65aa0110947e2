"""Every name a module exports exists."""

import importlib
import pkgutil

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
