"""Every exported name resolves, so a deleted class or function leaves no stale export,
and no module reaches into another's private names."""

import ast
import importlib
import pathlib
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


SOURCES = sorted(pathlib.Path(privcc.__file__).parent.glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_reach_ins(path):
    # a private name is used only in the module that defines it: none is
    # imported from another module, and none is read as an attribute
    # unless this module has a def, class, assignment target or
    # __slots__ entry of that name
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if _private(alias.name)
    ]
    assert imported == []
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            defined.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and _private(node.attr)
    }
    assert sorted(read - defined) == []
