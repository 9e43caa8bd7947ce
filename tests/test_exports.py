import importlib
import pkgutil

import pytest

import slidesvm

MODULES = ["slidesvm"] + [
    f"slidesvm.{info.name}" for info in pkgutil.iter_modules(slidesvm.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []

