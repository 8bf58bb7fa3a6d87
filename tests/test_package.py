"""Tests for the package surface."""

import importlib
import pkgutil

import f1bench


def test_every_exported_name_resolves():
    # a stale ``__all__`` entry breaks ``from module import *``
    modules = pkgutil.iter_modules(f1bench.__path__)
    for name in ["f1bench"] + [f"f1bench.{info.name}" for info in modules]:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        assert [n for n in exported if not hasattr(module, n)] == [], name
        exec(f"from {name} import *", {})
