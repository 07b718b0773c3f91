"""Every name a hqinet module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import hqinet

MODULES = ["hqinet"] + [f"hqinet.{m.name}" for m in pkgutil.iter_modules(hqinet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
