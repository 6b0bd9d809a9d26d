"""Limit analyses and verification experiments.

Lane-Emden first zeros, the mu = 1 closed form of the scaled-limit equation
with a constant offset, boundary exponent fits, parameter sweeps over the
homology plane, and the persistence of short solutions under small Lambda.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .constants import Constants
from .eos import EosSpec
from .errors import AnalysisError, ModelError, TovdsError
from .integrate import EventSpec, StepControl, integrate_adaptive, stage_rhs
from .model import (
    _GERM_R,
    MONOTONE_SHORT,
    R_MAX_SCALED,
    SOLVE_CTRL,
    ModelInput,
    SolutionProfile,
    solve_scaled,
    solve_star,
)
from .odecore import center_germ_scaled, scaled_rhs

__all__ = [
    "lane_emden_first_zero",
    "lane_emden_solution",
    "mu1_exact",
    "boundary_exponent_fit",
    "regime_sweep",
    "SWEEP_CTRL",
    "perturbation_compare",
]

_LE_R_CAP = 100.0
_FIT_WINDOW = (1e-6, 1e-2)  # x/r_+ range of the boundary exponent fit
_FIT_MIN_SAMPLES = 50
_PERTURB_CTRL = StepControl(rel_tol=1e-11, abs_tol=1e-13)


def lane_emden_solution(mu: float, lam: float = 0.0, R_cap: float = _LE_R_CAP,
                        first_zero_only: bool = True):
    """Dense solution of Lane-Emden-de Sitter, dM/dR = R^2 (U#)^mu and
    dU/dR = -(M - lam R^3/3)/R^2, at a solve's germ radius and step control.

    It is the scaled system at alpha = 0, beta = lam: the scaled stage and
    germ of the polytrope Omega == 1, whose terms at alpha = 0 are U#^mu and
    U#^(mu+1) for any mu, with mu bound as given (an EOS's gamma = 1 + 1/mu
    would refuse mu < 1 and round mu).  first_zero_only ends the solve at the
    first zero of U or at U's first turning point.
    """
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"mu must be finite and positive, got {mu!r}")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be finite and nonnegative, got {lam!r}")
    eos = EosSpec(A=1.0, gamma=2.0)
    f = scaled_rhs(0.0, lam, eos)
    f = stage_rhs(f.stage, {**f.values, "mu": mu})
    events = []
    if first_zero_only:
        events.append(EventSpec("U", direction="falling", root_tol=1e-13, terminal=True,
                                name="vacuum"))
        # Once a local minimum of U occurs with U > 0 the trajectory can never
        # reach zero afterwards: the damping term only lowers the oscillation
        # energy, so later minima sit above the first one.
        events.append(EventSpec("dU", direction="rising", root_tol=1e-10, terminal=True,
                                name="turning_point"))
    return integrate_adaptive(f, center_germ_scaled(0.0, lam, eos, _GERM_R), (_GERM_R, R_cap),
                              SOLVE_CTRL, events=events)


def lane_emden_first_zero(mu: float, lam: float = 0.0, R_cap: float = _LE_R_CAP):
    """First zero of U, event-located; None when U turns around above zero."""
    dense = lane_emden_solution(mu, lam, R_cap)
    for ev in dense.events:
        if ev.name == "vacuum":
            return ev.x
        if ev.name == "turning_point" and ev.y[1] > 0.0:
            return None
    raise AnalysisError(
        f"no first zero below R_cap = {R_cap:g} (U still decreasing); "
        f"final U = {dense.y_end[1]:.6g}"
    )


# -- mu = 1 closed form ---------------------------------------------------------

def _sinc_jet(R: float) -> tuple:
    """(s, s') for s(R) = sin(R)/R, series-stable near R = 0."""
    if abs(R) < 0.5:
        s = 0.0
        s1 = 0.0
        R2 = R * R
        term = 1.0
        for n in range(12):
            # term = (-1)^n R^(2n) / (2n+1)!
            if n > 0:
                term *= -R2 / (2 * n * (2 * n + 1))
            s += term
            if n > 0:
                s1 += term * (2 * n) / R
        return s, s1
    s = math.sin(R) / R
    return s, (math.cos(R) - s) / R


def mu1_exact(lam: float, R: float) -> tuple:
    """(U, dU/dR) of the mu = 1 scaled-limit equation with offset lam:
    U(R) = lam + (1 - lam) sin(R)/R, U(0) = 1."""
    if R < 0.0:
        raise ValueError("R must be nonnegative")
    if R == 0.0:
        return 1.0, 0.0
    s, s1 = _sinc_jet(R)
    return lam + (1.0 - lam) * s, (1.0 - lam) * s1


# -- boundary exponent fit -------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    """Log-log fit of the density against the boundary distance."""

    exponent: float            # fitted leading exponent of rho vs (r_+ - r)
    amplitude: float           # fitted prefactor of the leading power
    amplitude_target: float    # ((gamma-1) B / (gamma A))^(1/(gamma-1))
    correction_coeffs: tuple   # least-squares coefficients of x and x^(mu+1) in u/(B x) - 1
    resid_rms: float           # RMS residual after the correction fit
    resid_decay_slope: float   # log-log slope of the residual after the x-term fit
    window: tuple              # (x/r_+ lower, upper) actually used
    n_samples: int


def _line_fit(t: np.ndarray, y: np.ndarray) -> tuple:
    """(slope, intercept) of the least-squares line through (t, y), in
    closed form about the mean of t."""
    t_mean = t.mean()
    y_mean = y.mean()
    dt = t - t_mean
    slope = float(dt @ (y - y_mean) / (dt @ dt))
    return slope, float(y_mean - slope * t_mean)


def boundary_exponent_fit(profile: SolutionProfile) -> ExponentFit:
    """Fit the vacuum-boundary behavior of a monotone-short profile.

    A log-log regression of rho against x = r_+ - r over the window
    _FIT_WINDOW, x/r_+ in [1e-6, 1e-2], estimates the leading exponent
    (target 1/(gamma-1)) and amplitude; the relative enthalpy residual
    u/(B x) - 1 is then fitted against {x, x^(mu+1)}.  The window must hold
    at least _FIT_MIN_SAMPLES usable samples.  It is picked from r and u,
    and only its samples are mapped to rho, with the bits of profile.rho.
    """
    eos = profile.eos
    ev = profile.vacuum_event()
    if ev is None:
        raise ModelError("exponent fit needs a vacuum-terminated profile", profile=profile)
    # r_+ and B need no stencil; the profile forms them once for both readers
    r_plus, _, _, _, B, _ = profile.boundary_limits
    x = r_plus - profile.r
    u_floor = 1e3 * np.finfo(float).eps * profile.u[0]
    window = (
        (x >= _FIT_WINDOW[0] * r_plus)
        & (x <= _FIT_WINDOW[1] * r_plus)
        & (profile.u > u_floor)
    )
    u = profile.u[window]
    rho = np.fromiter(eos.rho_P_of_u(u.tolist())[0], float, u.size)
    usable = rho > 0.0
    xs, rho, u = x[window][usable], rho[usable], u[usable]
    n = xs.size
    if n < _FIT_MIN_SAMPLES:
        raise AnalysisError(
            f"only {n} usable samples in the fit window; need >= {_FIT_MIN_SAMPLES}"
        )

    slope, intercept = _line_fit(np.log(xs), np.log(rho))
    mu = eos.mu
    amplitude_target = ((eos.gamma - 1.0) * B / (eos.gamma * eos.A)) ** mu

    resid_rel = u / (B * xs) - 1.0
    M = np.column_stack([xs ** e for e in (1.0, mu + 1.0)])
    coeffs, *_ = np.linalg.lstsq(M, resid_rel, rcond=None)
    resid = resid_rel - M @ coeffs
    resid_rms = float(np.sqrt(np.mean(resid**2)))

    # decay diagnostic: anchor the linear coefficient on a low band (where the
    # higher powers are negligible but the samples sit well above the noise
    # floor), then measure the slope of what remains on the top decade
    x_top = float(xs.max())
    anchor = (xs >= 0.01 * x_top) & (xs <= 0.1 * x_top)
    meas = xs >= 0.1 * x_top
    if anchor.sum() >= 4 and meas.sum() >= 8:
        c_lin = float(np.mean(resid_rel[anchor] / xs[anchor]))
        r1 = np.abs(resid_rel - c_lin * xs)
        good = meas & (r1 > 0.0)
        decay_slope = _line_fit(np.log(xs[good]), np.log(r1[good]))[0]
    else:
        decay_slope = math.nan

    return ExponentFit(
        exponent=slope,
        amplitude=math.exp(intercept),
        amplitude_target=float(amplitude_target),
        correction_coeffs=tuple(float(c) for c in coeffs),
        resid_rms=resid_rms,
        resid_decay_slope=decay_slope,
        window=(float(xs.min() / r_plus), float(xs.max() / r_plus)),
        n_samples=n,
    )


# -- regime sweep ----------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    alpha: float
    beta: float
    outcome: str
    R_plus: float | None
    M_plus: float | None
    initial_rise: bool
    first_rise_R: float | None
    error: str = ""


@dataclass
class SweepResult:
    gamma: float
    alpha_grid: np.ndarray
    beta_grid: np.ndarray
    cells: list
    epsilon0_estimate: float

    def cell(self, i: int, j: int) -> SweepCell:
        return self.cells[i * self.beta_grid.size + j]

    def to_csv(self, path) -> None:
        lines = ["# regime sweep, scaled units (alpha = u_c/c^2, beta = scaled Lambda)"]
        lines.append("alpha,beta,outcome,R_plus,extra")
        for cell in self.cells:
            extra = f"initial_rise={int(cell.initial_rise)}"
            if cell.first_rise_R is not None:
                extra += f";first_rise_R={cell.first_rise_R!r}"
            if cell.error:
                extra += f";error={cell.error}"
            rp = "" if cell.R_plus is None else repr(cell.R_plus)
            lines.append(f"{cell.alpha!r},{cell.beta!r},{cell.outcome},{rp},{extra}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "alpha_grid": [float(a) for a in self.alpha_grid],
            "beta_grid": [float(b) for b in self.beta_grid],
            "epsilon0_estimate": self.epsilon0_estimate,
            "cells": [
                {
                    "alpha": c.alpha, "beta": c.beta, "outcome": c.outcome,
                    "R_plus": c.R_plus, "M_plus": c.M_plus,
                    "initial_rise": c.initial_rise, "first_rise_R": c.first_rise_R,
                    "error": c.error,
                }
                for c in self.cells
            ],
        }


def _sweep_cell(args) -> SweepCell:
    alpha, beta, eos, ctrl, R_max = args
    try:
        star = solve_scaled(alpha, beta, eos, ctrl=ctrl, R_max=R_max)
    except TovdsError as exc:  # a cell that fails is recorded, the sweep goes on
        return SweepCell(alpha=alpha, beta=beta, outcome="error", R_plus=None,
                         M_plus=None, initial_rise=False, first_rise_R=None,
                         error=f"{type(exc).__name__}: {exc}")
    return SweepCell(
        alpha=alpha, beta=beta, outcome=star.kind, R_plus=star.R_plus,
        M_plus=star.M_plus, initial_rise=star.initial_rise,
        first_rise_R=star.first_rise_R,
    )


SWEEP_CTRL = StepControl(rel_tol=1e-9, abs_tol=1e-12)


def regime_sweep(
    gamma: float,
    alpha_grid,
    beta_grid,
    eos: EosSpec | None = None,
    ctrl: StepControl = SWEEP_CTRL,
    R_max: float = R_MAX_SCALED,
    jobs: int = 1,
) -> SweepResult:
    """Classify the scaled system over a rectangular (alpha, beta) grid.

    eos defaults to the polytrope A = 1 with this gamma; an eos with another
    gamma is refused, since the result reports gamma.  A cell whose solve
    raises a TovdsError is recorded with outcome "error"; any other
    exception ends the sweep.  The empirical epsilon0 estimate is the
    largest g such that every cell with alpha <= g and beta <= g is
    monotone-short.  min(jobs, cells, CPUs) worker processes solve the cells.
    """
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    beta_grid = np.asarray(beta_grid, dtype=float)
    for name, grid in (("alpha_grid", alpha_grid), ("beta_grid", beta_grid)):
        if grid.size == 0:
            raise ValueError(f"sweep grid {name} is empty")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs!r}")
    if not all(((g >= 0.0) & (g <= 1.0)).all() for g in (alpha_grid, beta_grid)):  # NaN fails
        raise ValueError("sweep grids must lie within [0, 1]")
    if eos is None:
        eos = EosSpec(A=1.0, gamma=gamma)
    elif eos.gamma != gamma:
        raise ValueError(f"regime_sweep got gamma = {gamma!r} but an eos with "
                         f"gamma = {eos.gamma!r}")

    tasks = [(float(a), float(b), eos, ctrl, R_max) for a in alpha_grid for b in beta_grid]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_sweep_cell, tasks, chunksize=4))
    else:
        cells = [_sweep_cell(t) for t in tasks]

    eps0 = 0.0
    candidates = sorted(set(float(g) for g in np.concatenate([alpha_grid, beta_grid])))
    for g in candidates:
        ok = all(
            c.outcome == MONOTONE_SHORT
            for c in cells
            if c.alpha <= g and c.beta <= g
        )
        if ok:
            eps0 = g
    return SweepResult(gamma=gamma, alpha_grid=alpha_grid, beta_grid=beta_grid,
                       cells=cells, epsilon0_estimate=eps0)


# -- persistence of short solutions under small Lambda ----------------------------

def perturbation_compare(
    rho_c: float,
    eos: EosSpec,
    Lambda_list,
    constants: Constants = Constants(),
) -> list:
    """Solve the Lambda = 0 star and each perturbed Lambda > 0 star.

    Returns rows (Lambda, outcome, r_plus, radius_shift_rel) with the shift
    measured against the Lambda = 0 boundary radius.
    """
    base_inp = ModelInput(eos=eos, Lambda=0.0, constants=constants, rho_c=rho_c,
                          ctrl=_PERTURB_CTRL)
    base_prof, base_out = solve_star(base_inp)
    if base_out.kind != MONOTONE_SHORT:
        raise AnalysisError(
            f"Lambda = 0 model is not short (outcome {base_out.kind}); "
            "perturbation comparison needs a short baseline"
        )
    r0 = base_out.boundary.r_plus
    rows = [{
        "Lambda": 0.0, "outcome": base_out.kind, "r_plus": r0, "radius_shift_rel": 0.0,
    }]
    for Lam in Lambda_list:
        inp = ModelInput(eos=eos, Lambda=float(Lam), constants=constants, rho_c=rho_c,
                         ctrl=_PERTURB_CTRL)
        prof, out = solve_star(inp)
        r_plus = out.boundary.r_plus if out.boundary is not None else None
        shift = abs(r_plus - r0) / r0 if r_plus is not None else math.nan
        rows.append({
            "Lambda": float(Lam), "outcome": out.kind,
            "r_plus": r_plus, "radius_shift_rel": shift,
        })
    return rows
