"""JSON run-configuration loading and validation.

A config is a single JSON object; unknown keys are rejected at every level
so typos fail fast with exit code 2.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .constants import UNIT_SYSTEMS, Constants
from .eos import EosSpec, FermiEosParams, OmegaOne, OmegaSeries, fermi_fit_eos
from .errors import ConfigError
from .integrate import StepControl
from .model import ModelInput

__all__ = ["load_json", "build_constants", "build_eos", "build_ctrl", "build_model_input",
           "build_sweep", "build_lane_emden"]


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
    """A JSON number; booleans are not numbers here."""
    return isinstance(val, (int, float)) and not isinstance(val, bool)


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


def build_constants(cfg: dict, units_flag: str | None = None) -> Constants:
    units = units_flag or cfg.get("units", "geom")
    if units not in UNIT_SYSTEMS:
        raise ConfigError(f"unknown unit system '{units}' (use geom or si)")
    k = UNIT_SYSTEMS[units]
    if "constants" in cfg:
        block = cfg["constants"]
        if not isinstance(block, dict):
            raise ConfigError("'constants' must be an object")
        _check_keys(block, {"c", "G"}, "constants")
        k = Constants(
            c=_num(block, "c", "constants", default=k.c, positive=True),
            G=_num(block, "G", "constants", default=k.G, positive=True),
        )
    return k


def build_eos(cfg: dict, k: Constants) -> EosSpec:
    if "eos" not in cfg:
        raise ConfigError("missing required 'eos' block")
    block = cfg["eos"]
    if not isinstance(block, dict):
        raise ConfigError("'eos' must be an object")
    kind = block.get("type")
    if kind == "polytrope":
        _check_keys(block, {"type", "A", "gamma", "omega_coeffs", "delta_omega", "eta_max"}, "eos")
        A = _num(block, "A", "eos", required=True, positive=True)
        gamma = _num(block, "gamma", "eos", required=True)
        coeffs = block.get("omega_coeffs", [1.0])
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError("'omega_coeffs' must be a nonempty list")
        omega = OmegaOne() if coeffs == [1.0] else OmegaSeries(tuple(coeffs))
        return EosSpec(
            A=A, gamma=gamma, omega=omega,
            delta_omega=_num(block, "delta_omega", "eos", default=0.1, positive=True),
            c=k.c,
            eta_max=_num(block, "eta_max", "eos", default=8.0, positive=True),
        )
    if kind == "fermi":
        _check_keys(block, {"type", "K", "zeta_fit_max", "delta_omega"}, "eos")
        params = FermiEosParams(K=_num(block, "K", "eos", required=True, positive=True), c=k.c)
        return fermi_fit_eos(
            params,
            zeta_fit_max=_num(block, "zeta_fit_max", "eos", default=0.75, positive=True),
            delta_omega=_num(block, "delta_omega", "eos", default=0.05, positive=True),
        )
    raise ConfigError("eos 'type' must be 'polytrope' or 'fermi'")


def build_ctrl(cfg: dict, where: str = "ctrl",
               default: StepControl = StepControl(rel_tol=1e-12, abs_tol=1e-14)) -> StepControl:
    if where not in cfg:
        return default
    block = cfg[where]
    if not isinstance(block, dict):
        raise ConfigError(f"'{where}' must be an object")
    _check_keys(block, {"rel_tol", "abs_tol", "h_init", "h_max", "max_steps"}, where)
    kwargs = dict(
        rel_tol=_num(block, "rel_tol", where, default=default.rel_tol, positive=True),
        abs_tol=_num(block, "abs_tol", where, default=default.abs_tol, positive=True),
    )
    if "h_init" in block:
        kwargs["h_init"] = _num(block, "h_init", where, positive=True)
    if "h_max" in block:
        kwargs["h_max"] = _num(block, "h_max", where, positive=True)
    if "max_steps" in block:
        ms = block["max_steps"]
        if not isinstance(ms, int) or ms <= 0:
            raise ConfigError("'max_steps' must be a positive integer")
        kwargs["max_steps"] = ms
    return StepControl(**kwargs)


_MODEL_KEYS = {
    "eos", "units", "constants", "ctrl", "center", "Lambda",
    "r_max", "r_max_scaled", "germ_radius_scaled", "kappa_min", "mono_eps",
}


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
    kwargs = dict(
        eos=eos,
        Lambda=_num(cfg, "Lambda", "config", default=0.0, nonnegative=True),
        constants=k,
        rho_c=rho_c,
        u_c=u_c,
        ctrl=build_ctrl(cfg),
        r_max_scaled=_num(cfg, "r_max_scaled", "config", default=50.0, positive=True),
        germ_radius_scaled=_num(cfg, "germ_radius_scaled", "config", default=1e-6, positive=True),
        kappa_min=_num(cfg, "kappa_min", "config", default=1e-10, positive=True),
        mono_eps=_num(cfg, "mono_eps", "config", default=1e-6, positive=True),
    )
    if "r_max" in cfg:
        kwargs["r_max"] = _num(cfg, "r_max", "config", positive=True)
    try:
        inp = ModelInput(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))
    # sampled admissibility check of the configured EOS up to the center
    rho_center = inp.rho_c if inp.rho_c is not None else eos.density_of_u(inp.u_c)
    eos.validate_range(1e-6 * rho_center, rho_center)
    return inp


def _grid(cfg: dict, key: str) -> np.ndarray:
    """A sweep grid: a nonempty list of numbers, or start/stop/num/spacing;
    every value must lie in [0, 1]."""
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
        if isinstance(num, bool) or not isinstance(num, int) or num < 1:
            raise ConfigError(f"'num' in {key} must be a positive integer")
        spacing = block.get("spacing", "log")
        if spacing == "log":
            if start <= 0.0:
                raise ConfigError(f"log spacing in {key} needs start > 0")
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


def build_sweep(cfg: dict, units_flag: str | None = None) -> dict:
    """Keyword arguments of analysis.regime_sweep from a sweep config."""
    _check_keys(cfg, {"gamma", "eos", "units", "constants", "alpha_grid", "beta_grid",
                      "ctrl", "R_max"}, "config")
    k = build_constants(cfg, units_flag)
    return dict(
        gamma=_num(cfg, "gamma", "config", required=True),
        eos=build_eos(cfg, k) if "eos" in cfg else None,
        alpha_grid=_grid(cfg, "alpha_grid"),
        beta_grid=_grid(cfg, "beta_grid"),
        ctrl=build_ctrl(cfg, default=StepControl(rel_tol=1e-9, abs_tol=1e-12)),
        R_max=_num(cfg, "R_max", "config", default=50.0, positive=True),
    )


def build_lane_emden(cfg: dict) -> tuple:
    """(mus, lam, R_cap) of a lane-emden config; mu is a number or a list."""
    _check_keys(cfg, {"mu", "lambda", "R_cap"}, "config")
    mus = cfg.get("mu")
    if _is_num(mus):
        mus = [mus]
    if not isinstance(mus, list) or not mus or not all(_is_num(mu) for mu in mus):
        raise ConfigError("'mu' must be a number or a nonempty list of numbers")
    lam = _num(cfg, "lambda", "config", default=0.0, nonnegative=True)
    R_cap = _num(cfg, "R_cap", "config", default=100.0, positive=True)
    return [float(mu) for mu in mus], lam, R_cap
