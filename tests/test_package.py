"""The package's export lists: every name a module or the package advertises exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import speclab

MODULES = sorted(info.name for info in pkgutil.iter_modules(speclab.__path__))


def test_every_module_found():
    assert {"analytic", "cli", "errors", "output", "probes", "selftest", "sphere", "torus"} <= set(
        MODULES
    )


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_import_works(name):
    module = importlib.import_module(f"speclab.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from speclab.{name} import *", namespace)
    assert [n for n in exported if n not in namespace] == []


def test_package_imports_exist():
    tree = ast.parse(Path(speclab.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    assert [n for n in imported if not hasattr(speclab, n)] == []
