"""Config building: an omitted key takes the library's default, and a bad
value is a ConfigError that names its key."""

import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

from tovds.analysis import SWEEP_CTRL, lane_emden_first_zero, regime_sweep
from tovds.config import build_eos, build_lane_emden, build_model_input, build_sweep
from tovds.constants import GEOMETRIZED, SI
from tovds.eos import EosSpec, FermiEosParams, OmegaSeries, fermi_fit_eos
from tovds.errors import ConfigError
from tovds.model import SOLVE_CTRL, ModelInput

POLY = {"type": "polytrope", "A": 2.0, "gamma": 1.5}


def defaults(fn) -> dict:
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_model_input_defaults_are_the_library_s():
    for center, units, k in (({"u_c": 1e-3}, "geom", GEOMETRIZED), ({"rho_c": 1e-2}, "si", SI)):
        inp = build_model_input({"eos": POLY, "center": center, "units": units})
        assert inp == ModelInput(EosSpec(A=2.0, gamma=1.5, c=k.c), constants=k, **center)
    field_default = {f.name: f.default for f in fields(ModelInput)}
    assert field_default["ctrl"] is SOLVE_CTRL


def test_eos_defaults_are_the_library_s():
    assert build_eos({"eos": POLY}, GEOMETRIZED) == EosSpec(A=2.0, gamma=1.5)
    assert build_eos({"eos": POLY}, GEOMETRIZED).omega == OmegaSeries((1.0,))
    fermi = build_eos({"eos": {"type": "fermi", "K": 1.5}}, SI)
    assert fermi == fermi_fit_eos(FermiEosParams(K=1.5, c=SI.c))


def test_sweep_and_lane_emden_defaults_are_the_library_s():
    kwargs = build_sweep({"gamma": 1.5, "alpha_grid": [1e-3], "beta_grid": [1e-3]})
    # eos, ctrl and R_max are left to regime_sweep
    assert sorted(kwargs) == ["alpha_grid", "beta_grid", "gamma"]
    assert defaults(regime_sweep)["ctrl"] is SWEEP_CTRL
    mus, lam, R_cap = build_lane_emden({"mu": 1.5})
    le = defaults(lane_emden_first_zero)
    assert (mus, lam, R_cap) == ([1.5], le["lam"], le["R_cap"])


def test_partial_ctrl_keeps_the_owning_default():
    inp = build_model_input({"eos": POLY, "center": {"u_c": 1e-3}, "ctrl": {"rel_tol": 1e-9}})
    assert inp.ctrl == replace(SOLVE_CTRL, rel_tol=1e-9)
    assert inp.ctrl.abs_tol == SOLVE_CTRL.abs_tol
    kwargs = build_sweep({"gamma": 1.5, "alpha_grid": [1e-3], "beta_grid": [1e-3],
                          "ctrl": {"abs_tol": 1e-11, "max_steps": 7}})
    assert kwargs["ctrl"] == replace(SWEEP_CTRL, abs_tol=1e-11, max_steps=7)
    assert kwargs["ctrl"].rel_tol == SWEEP_CTRL.rel_tol


@pytest.mark.parametrize("build, cfg, key", [
    (build_lane_emden, {"mu": [2.0, -1.0]}, "'mu'"),
    (build_lane_emden, {"mu": 1.5, "R_cap": 1e-7}, "'R_cap'"),
    (build_sweep, {"gamma": 1.5, "alpha_grid": {"start": 1e-3, "stop": 0, "num": 3},
                   "beta_grid": [1e-3]}, "alpha_grid"),
    (build_sweep, {"gamma": 1.5, "eos": {"type": "polytrope", "A": 1.0, "gamma": 1.9},
                   "alpha_grid": [1e-3], "beta_grid": [1e-3]}, "'gamma'"),
    (build_model_input, {"eos": POLY, "center": {"u_c": 1e-3}, "r_max": 1e-12}, "'r_max'"),
    (build_model_input, {"eos": POLY, "center": {"u_c": 1e-3},
                         "ctrl": {"h_init": 2.0, "h_max": 1.0}}, "h_init"),
], ids=["negative_mu", "R_cap_below_germ", "log_stop_zero", "eos_gamma_mismatch",
        "r_max_below_germ", "h_init_above_h_max"])
def test_bad_value_names_its_key(build, cfg, key):
    with pytest.raises(ConfigError, match=key):
        build(cfg)


def test_sweep_grid_num_is_capped(monkeypatch):
    # a num past 1000 per axis is refused before the grid is formed, so a
    # huge one is a ConfigError and not a failed allocation
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was formed")

    monkeypatch.setattr(np, "logspace", no_grid)
    monkeypatch.setattr(np, "linspace", no_grid)
    for num in (1001, 10**12):
        for spacing in ("log", "lin"):
            grid = {"start": 1e-3, "stop": 1e-2, "num": num, "spacing": spacing}
            with pytest.raises(ConfigError,
                               match="'num' in beta_grid must be an integer from 1 to 1000"):
                build_sweep({"gamma": 1.5, "alpha_grid": [1e-3], "beta_grid": grid})
    monkeypatch.undo()
    grid = {"start": 1e-3, "stop": 1e-2, "num": 1000}
    assert build_sweep({"gamma": 1.5, "alpha_grid": [1e-3], "beta_grid": grid})[
        "beta_grid"].size == 1000
