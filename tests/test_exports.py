"""Every exported name resolves, so `from tovds.x import *` cannot break on a
stale export, every name the benchmark's tracer patches exists, and a run
loads no module it does not use."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
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


# Run in a fresh interpreter: an Omega == 1 run, which starts no pool, then
# its enthalpy u_of_density and a series Omega's Omega_u, closed forms over
# the roots of 1 + z Omega (np.roots for the series), which need no
# numpy.polynomial, which only acceptance's Gauss-Legendre rule loads.
_FOOTPRINT = """
import json, sys
import tovds.cli
from tovds import EosSpec, ModelInput, OmegaSeries, regime_sweep, solve_scaled, solve_star

UNUSED = ("concurrent.futures.process", "multiprocessing", "numpy.polynomial",
          "tovds.acceptance", "filecmp")

def unused():
    return sorted(m for m in sys.modules for u in UNUSED if m == u or m.startswith(u + "."))

eos = EosSpec(A=1.0, gamma=1.5)
solve_scaled(1e-3, 1e-3, eos)
regime_sweep(1.5, [1e-3, 0.05], [1e-3], jobs=1)
solve_star(ModelInput(eos=eos, Lambda=1e-9, u_c=1e-3))
loaded = {"omega_one": unused()}
eos.u_of_density(1e-3)
loaded["omega_one_u_of_density"] = unused()
EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1))).omega_u(0.1)
loaded["series_omega_u"] = unused()
print(json.dumps(loaded))
"""


def test_omega_one_run_loads_no_pool_table_fit_or_rule(tmp_path):
    # the process pool, numpy.polynomial and the acceptance criteria load on
    # first need only
    env = dict(os.environ, PYTHONPATH=str(Path(tovds.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _FOOTPRINT], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {"omega_one": [], "omega_one_u_of_density": [], "series_omega_u": []}


# A series Omega and a Fermi fit solve in the state Z, with no table to fit,
# each run in a fresh interpreter of its own
_SERIES_FOOTPRINT = """
import json, sys
from tovds import EosSpec, FermiEosParams, ModelInput, OmegaSeries, fermi_fit_eos, solve_star

eos = {"series": EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1))),
       "fermi": fermi_fit_eos(FermiEosParams(K=1.0))}[sys.argv[1]]
solve_star(ModelInput(eos=eos, Lambda=1e-9, u_c=1e-2))
print(json.dumps(sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))))
"""


@pytest.mark.parametrize("eos", ["series", "fermi"])
def test_series_and_fermi_runs_load_no_table_fit(tmp_path, eos):
    # the table pieces, fitted by numpy.polynomial, are gone
    env = dict(os.environ, PYTHONPATH=str(Path(tovds.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _SERIES_FOOTPRINT, eos], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
