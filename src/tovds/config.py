"""JSON run-configuration loading and validation.

A config is a single JSON object.  Unknown keys are rejected at every level,
so typos fail fast with exit code 2, and so is every bad value, an eos block
that the EOS classes refuse included.  A solve config describes the star:
eos, units, constants, ctrl, center, Lambda and r_max; unit_system alone
decides the unit system of a run.  An eos block is a polytrope (A, gamma,
omega_coeffs, eta_max) or a Fermi fit (K, zeta_fit_max).  A sweep config has
gamma, eos, alpha_grid, beta_grid, ctrl and R_max: the scaled problem has no
units, so a sweep's EOS is built at c = G = 1 and a sweep config takes no
units or constants.  An optional key is passed on only when the
config sets it, so each default has one home, in the library: the fields of
ModelInput and EosSpec, and the parameters of fermi_fit_eos, regime_sweep
and lane_emden_first_zero.  A partial ctrl block keeps the other fields of
the owning default: model.SOLVE_CTRL for a solve, analysis.SWEEP_CTRL for a
sweep.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import replace

import numpy as np

from .analysis import SWEEP_CTRL, lane_emden_first_zero
from .constants import GEOMETRIZED, UNIT_SYSTEMS, Constants
from .eos import EosSpec, FermiEosParams, OmegaSeries, fermi_fit_eos
from .errors import ConfigError, NonPhysicalEosError
from .integrate import StepControl
from .model import _GERM_R, SOLVE_CTRL, ModelInput

__all__ = ["load_json", "unit_system", "build_model_input", "build_sweep", "build_lane_emden"]


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _is_num(val) -> bool:
    """A finite JSON number; booleans, NaN and the infinities are not numbers here."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer beyond the float range
        return False


def _num(obj: dict, key: str, where: str, required: bool = False, default=None,
         positive: bool = False, nonnegative: bool = False):
    if key not in obj:
        if required:
            raise ConfigError(f"missing required key '{key}' in {where}")
        return default
    val = obj[key]
    if not _is_num(val):
        raise ConfigError(f"'{key}' in {where} must be a number")
    val = float(val)
    if positive and not val > 0.0:
        raise ConfigError(f"'{key}' in {where} must be positive")
    if nonnegative and val < 0.0:
        raise ConfigError(f"'{key}' in {where} must be nonnegative")
    return val


def _given(obj: dict, where: str, keys: tuple, **checks) -> dict:
    """{key: number} for each of keys that obj sets, checked by _num; a key
    it omits is left to the library's default."""
    return {key: _num(obj, key, where, **checks) for key in keys if key in obj}


def unit_system(cfg: dict, units_flag: str | None) -> str:
    """The name of the run's unit system: the --units flag, else the config's
    units, else geom."""
    units = units_flag or cfg.get("units", "geom")
    if units not in UNIT_SYSTEMS:
        raise ConfigError(f"unknown unit system '{units}' (use geom or si)")
    return units


def build_constants(cfg: dict, units_flag: str | None) -> Constants:
    k = UNIT_SYSTEMS[unit_system(cfg, units_flag)]
    if "constants" in cfg:
        block = cfg["constants"]
        if not isinstance(block, dict):
            raise ConfigError("'constants' must be an object")
        _check_keys(block, {"c", "G"}, "constants")
        k = replace(k, **_given(block, "constants", ("c", "G"), positive=True))
    return k


def build_eos(cfg: dict, k: Constants) -> EosSpec:
    if "eos" not in cfg:
        raise ConfigError("missing required 'eos' block")
    block = cfg["eos"]
    if not isinstance(block, dict):
        raise ConfigError("'eos' must be an object")
    kind = block.get("type")
    try:
        if kind == "polytrope":
            _check_keys(block, {"type", "A", "gamma", "omega_coeffs", "eta_max"}, "eos")
            A = _num(block, "A", "eos", required=True, positive=True)
            gamma = _num(block, "gamma", "eos", required=True)
            kwargs = {}
            if "omega_coeffs" in block:
                coeffs = block["omega_coeffs"]
                if not isinstance(coeffs, list) or not coeffs or not all(map(_is_num, coeffs)):
                    raise ConfigError("'omega_coeffs' must be a nonempty list of finite numbers")
                kwargs["omega"] = OmegaSeries(tuple(coeffs))
            kwargs.update(_given(block, "eos", ("eta_max",), positive=True))
            return EosSpec(A=A, gamma=gamma, c=k.c, **kwargs)
        if kind == "fermi":
            _check_keys(block, {"type", "K", "zeta_fit_max"}, "eos")
            params = FermiEosParams(K=_num(block, "K", "eos", required=True, positive=True), c=k.c)
            return fermi_fit_eos(params, **_given(block, "eos", ("zeta_fit_max",), positive=True))
    except NonPhysicalEosError as exc:
        raise ConfigError(f"eos: {exc}")
    raise ConfigError("eos 'type' must be 'polytrope' or 'fermi'")


def build_ctrl(block, default: StepControl) -> StepControl:
    """The StepControl of a ctrl block; the fields it omits keep default's."""
    if not isinstance(block, dict):
        raise ConfigError("'ctrl' must be an object")
    _check_keys(block, {"rel_tol", "abs_tol", "h_init", "h_max", "max_steps"}, "ctrl")
    kwargs = _given(block, "ctrl", ("rel_tol", "abs_tol", "h_init", "h_max"), positive=True)
    if "max_steps" in block:
        ms = block["max_steps"]
        if isinstance(ms, bool) or not isinstance(ms, int) or ms <= 0:
            raise ConfigError("'max_steps' must be a positive integer")
        kwargs["max_steps"] = ms
    try:
        return replace(default, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"ctrl: {exc}")


_MODEL_KEYS = {"eos", "units", "constants", "ctrl", "center", "Lambda", "r_max"}


def build_model_input(cfg: dict, units_flag: str | None = None) -> ModelInput:
    _check_keys(cfg, _MODEL_KEYS, "config")
    k = build_constants(cfg, units_flag)
    eos = build_eos(cfg, k)
    if "center" not in cfg or not isinstance(cfg["center"], dict):
        raise ConfigError("missing required 'center' object with rho_c or u_c")
    center = cfg["center"]
    _check_keys(center, {"rho_c", "u_c"}, "center")
    rho_c = _num(center, "rho_c", "center", positive=True)
    u_c = _num(center, "u_c", "center", positive=True)
    if (rho_c is None) == (u_c is None):
        raise ConfigError("'center' must give exactly one of rho_c or u_c")
    kwargs = _given(cfg, "config", ("Lambda",), nonnegative=True)
    if "ctrl" in cfg:
        kwargs["ctrl"] = build_ctrl(cfg["ctrl"], SOLVE_CTRL)
    kwargs.update(_given(cfg, "config", ("r_max",), positive=True))
    try:
        inp = ModelInput(eos=eos, constants=k, rho_c=rho_c, u_c=u_c, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))
    # sampled admissibility check of the configured EOS up to the center
    rho_center = inp.rho_c if inp.rho_c is not None else eos.density_of_u(inp.u_c)
    eos.validate_range(1e-6 * rho_center, rho_center)
    return inp


def _grid(cfg: dict, key: str) -> np.ndarray:
    """A sweep grid: a nonempty list of numbers, or start/stop/num/spacing
    with num at most 1000, about 40 times the largest grid in use; every
    value must lie in [0, 1]."""
    if key not in cfg:
        raise ConfigError(f"missing required '{key}'")
    block = cfg[key]
    if isinstance(block, list):
        if not block or not all(_is_num(v) for v in block):
            raise ConfigError(f"'{key}' must be a nonempty list of numbers")
        values = np.asarray(block, dtype=float)
    elif isinstance(block, dict):
        _check_keys(block, {"start", "stop", "num", "spacing"}, key)
        start = _num(block, "start", key, required=True, nonnegative=True)
        stop = _num(block, "stop", key, required=True, nonnegative=True)
        num = block.get("num", 10)
        if isinstance(num, bool) or not isinstance(num, int) or not 1 <= num <= 1000:
            raise ConfigError(f"'num' in {key} must be an integer from 1 to 1000")
        spacing = block.get("spacing", "log")
        if spacing == "log":
            if start <= 0.0 or stop <= 0.0:
                raise ConfigError(f"log spacing in {key} needs start > 0 and stop > 0")
            values = np.logspace(math.log10(start), math.log10(stop), num)
        elif spacing == "lin":
            values = np.linspace(start, stop, num)
        else:
            raise ConfigError(f"'spacing' in {key} must be 'log' or 'lin'")
    else:
        raise ConfigError(f"'{key}' must be a list or an object")
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ConfigError(f"'{key}' values must lie within [0, 1]")
    return values


def build_sweep(cfg: dict) -> dict:
    """Keyword arguments of analysis.regime_sweep from a sweep config."""
    _check_keys(cfg, {"gamma", "eos", "alpha_grid", "beta_grid", "ctrl", "R_max"}, "config")
    kwargs = dict(gamma=_num(cfg, "gamma", "config", required=True))
    if "eos" in cfg:
        eos = build_eos(cfg, GEOMETRIZED)
        if eos.gamma != kwargs["gamma"]:
            raise ConfigError(f"'gamma' in config is {kwargs['gamma']!r} but the eos block's "
                              f"gamma is {eos.gamma!r}")
        kwargs["eos"] = eos
    kwargs.update(alpha_grid=_grid(cfg, "alpha_grid"), beta_grid=_grid(cfg, "beta_grid"))
    if "ctrl" in cfg:
        kwargs["ctrl"] = build_ctrl(cfg["ctrl"], SWEEP_CTRL)
    kwargs.update(_given(cfg, "config", ("R_max",), positive=True))
    return kwargs


def build_lane_emden(cfg: dict) -> tuple:
    """(mus, lam, R_cap) of a lane-emden config; mu is a number or a list, and
    lam and R_cap default to lane_emden_first_zero's."""
    _check_keys(cfg, {"mu", "lambda", "R_cap"}, "config")
    mus = cfg.get("mu")
    if _is_num(mus):
        mus = [mus]
    if not isinstance(mus, list) or not mus or not all(_is_num(mu) for mu in mus):
        raise ConfigError("'mu' must be a number or a nonempty list of numbers")
    if not all(mu > 0 for mu in mus):
        raise ConfigError("'mu' values in config must be positive")
    defaults = inspect.signature(lane_emden_first_zero).parameters
    lam = _num(cfg, "lambda", "config", default=defaults["lam"].default, nonnegative=True)
    R_cap = _num(cfg, "R_cap", "config", default=defaults["R_cap"].default, positive=True)
    if R_cap <= _GERM_R:
        raise ConfigError(f"'R_cap' in config must exceed the germ radius {_GERM_R!r}")
    return [float(mu) for mu in mus], lam, R_cap
