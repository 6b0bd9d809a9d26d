"""Every exported name resolves, so `from tovds.x import *` cannot break on a
stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tovds

MODULES = sorted(info.name for info in pkgutil.iter_modules(tovds.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"tovds.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    exec(f"from tovds.{name} import *", {})


def test_package_reexports_resolve():
    tree = ast.parse(Path(tovds.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"tovds.{node.module}")
        for alias in node.names:
            assert getattr(tovds, alias.name) is getattr(module, alias.name)
            # a re-export is public in its own module too
            assert alias.name in getattr(module, "__all__", [alias.name])
