"""Every exported name resolves, so a deleted class or function leaves no stale export."""

import ast
import importlib
import pkgutil

import pytest

import privcc

MODULES = sorted(m.name for m in pkgutil.iter_modules(privcc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"privcc.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse(open(privcc.__file__, encoding="utf-8").read())
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(privcc, n)] == []
