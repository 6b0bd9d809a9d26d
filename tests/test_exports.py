"""Every exported name resolves, so `from tovds.x import *` cannot break on a
stale export, and every name the benchmark's tracer patches exists."""

import ast
import importlib
import pkgutil
import sys
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


def test_benchmark_tracer_patches_and_restores(monkeypatch):
    # perfbench/spans.py wraps functions and methods by name; a renamed or
    # deleted one fails here, and leaving the block restores every original
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    from tovds import eos, integrate, metric, odecore

    owners = [m for name, m in sorted(sys.modules.items())
              if name == "tovds" or name.startswith("tovds.")]
    owners += [eos.EosSpec, integrate.DenseSolution, metric.MetricPatch]
    before = [dict(vars(owner)) for owner in owners]
    rhs_scaled = odecore.rhs_scaled
    with spans.Tracer().active():
        assert odecore.rhs_scaled is not rhs_scaled
    assert odecore.rhs_scaled is rhs_scaled
    for owner, names in zip(owners, before):
        after = vars(owner)
        assert after.keys() == names.keys(), owner
        assert [k for k, v in names.items() if after[k] is not v] == [], owner
