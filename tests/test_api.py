"""Guard on the public API: every export resolves and every module imports."""

import importlib
import pkgutil

import jacksonsos


def test_all_names_resolve_once():
    names = jacksonsos.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(jacksonsos, name)]
    assert missing == []


def test_every_module_imports():
    modules = [info.name for info in pkgutil.iter_modules(jacksonsos.__path__)]
    assert "chebpoly" in modules and "certificate" in modules
    for name in modules:
        importlib.import_module(f"jacksonsos.{name}")
