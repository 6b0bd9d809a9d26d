"""Acceptance criteria, runnable from the CLI (verify) and from the tests.

Each criterion is a check registered in the table CRITERIA by the
_criterion decorator, which declares its number, name and pinned tolerance
once.  A check returns (passed, measured numbers); run_criteria times every
check and builds its CriterionResult, also when the check raises a
TovdsError.  Cached model solves are shared across criteria.  Reported
artifacts contain no timestamps or runtimes, so verify output files are
byte-identical across runs.
"""

from __future__ import annotations

import filecmp
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .analysis import (
    boundary_exponent_fit,
    lane_emden_first_zero,
    lane_emden_solution,
    mu1_exact,
    perturbation_compare,
    regime_sweep,
)
from .constants import GEOMETRIZED
from .eos import EosSpec, FermiEosParams, _fermi_density_dimless, _fermi_pressure_dimless, fermi_eos
from .errors import TovdsError
from .integrate import StepControl
from .metric import MetricPatch, continuity_report, horizons
from .model import (
    MONOTONE_SHORT,
    UNTERMINATED,
    ModelInput,
    solve_star,
)
from .odecore import ScalingParams, einstein_static_lambda

__all__ = ["run_criteria", "CRITERIA"]

# first zero of the mu = 2 limit equation, frozen from the independent
# fixed-step oracle in the test suite (tests/test_analysis.py)
XI1_MU2 = 4.352874595946


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    tolerance: str
    measured: dict
    runtime_s: float

    def to_json_dict(self) -> dict:
        # runtimes are excluded so the verify artifact is run-independent
        return {
            "number": self.number,
            "name": self.name,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "measured": self.measured,
        }

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        pairs = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in self.measured.items())
        return f"[{self.number:2d}] {status} {self.name:34s} {pairs} ({self.runtime_s:.2f} s)"


class _Ctx:
    """Lazy cache of solved models shared between criteria."""

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self._models = {}
        self._eos = {}

    def eos(self, gamma: float) -> EosSpec:
        if gamma not in self._eos:
            self._eos[gamma] = EosSpec(A=1.0, gamma=gamma)
        return self._eos[gamma]

    def star(self, gamma: float):
        """Physical monotone-short model with u_c = alpha c^2 and the
        cosmological constant back-solved from beta, alpha = beta = 1e-3."""
        if gamma not in self._models:
            eos = self.eos(gamma)
            u_c = 1e-3 * GEOMETRIZED.c2
            Lambda = ScalingParams.lambda_of_beta(1e-3, u_c, eos, GEOMETRIZED)
            inp = ModelInput(eos=eos, Lambda=Lambda, constants=GEOMETRIZED, u_c=u_c)
            self._models[gamma] = solve_star(inp)
        return self._models[gamma]


CRITERIA = {}  # number -> (name, tolerance, check); check(ctx) -> (passed, measured)


def _criterion(number: int, name: str, tolerance: str):
    """Register the decorated check as criterion number."""
    def register(check):
        CRITERIA[number] = (name, tolerance, check)
        return check
    return register


@_criterion(1, "lane_emden_mu1_first_zero", "|xi1 - pi| < 1e-8")
def _lane_emden_mu1(ctx) -> tuple:
    xi1 = lane_emden_first_zero(1.0, 0.0)
    err = abs(xi1 - math.pi)
    return err < 1e-8, {"xi1": xi1, "abs_err": err}


@_criterion(2, "lane_emden_ds_mu1_closed_form",
            "sup|U - U_exact| < 1e-8 on [0, 4pi]; dU/dR > 0 in (3pi/2, 2pi)")
def _lane_emden_ds_mu1(ctx) -> tuple:
    sup_err = 0.0
    min_rise = math.inf
    R_hi = 4.0 * math.pi
    for lam in (0.5, 0.75):
        dense = lane_emden_solution(1.0, lam, R_cap=R_hi, first_zero_only=False)
        grid = np.linspace(dense.xs[0], R_hi, 2000)
        for R, U_num in zip(grid.tolist(), dense(grid)[:, 1].tolist()):
            U_exact, _ = mu1_exact(lam, R)
            sup_err = max(sup_err, abs(U_num - U_exact))
        window = np.linspace(1.5 * math.pi + 1e-3, 2.0 * math.pi - 1e-3, 200)
        for R, y in zip(window, dense(window)):
            dU = -(y[0] - lam * R**3 / 3.0) / (R * R)
            min_rise = min(min_rise, float(dU))
    passed = sup_err < 1e-8 and min_rise > 0.0
    return passed, {"sup_err": sup_err, "min_dUdR_in_window": min_rise}


@_criterion(3, "einstein_static_constant_pressure",
            "relative pressure drift < 1e-6 up to 0.9 sqrt(3/L)")
def _einstein_static(ctx) -> tuple:
    eos = ctx.eos(1.5)
    rho_c = 0.1
    P_c = eos.pressure_of_density(rho_c)
    Lambda = einstein_static_lambda(rho_c, P_c, GEOMETRIZED)
    L = 8.0 * math.pi * GEOMETRIZED.G * rho_c / GEOMETRIZED.c2 + Lambda
    r_cap = 0.9 * math.sqrt(3.0 / L)
    inp = ModelInput(eos=eos, Lambda=Lambda, constants=GEOMETRIZED, rho_c=rho_c, r_max=r_cap)
    profile, outcome = solve_star(inp)
    drift = float(np.max(np.abs(profile.P - P_c)) / P_c)
    passed = outcome.kind == UNTERMINATED and drift < 1e-6
    return passed, {"outcome": outcome.kind, "max_rel_drift": drift}


@_criterion(4, "boundary_derivative_identity", "|du/dr + Q_+/(r_+^2 kappa_+)| / B < 1e-5")
def _boundary_derivative(ctx) -> tuple:
    profile, outcome = ctx.star(1.5)
    bq = outcome.boundary
    rel = abs(bq.du_dr_minus + bq.B) / bq.B
    passed = outcome.kind == MONOTONE_SHORT and rel < 1e-5
    return passed, {"du_dr_minus": bq.du_dr_minus, "minus_B": -bq.B, "rel_err": rel}


@_criterion(5, "metric_c2_patching", "one-sided dg00/dr rel 1e-5; d2g00/dr2 rel 1e-3 (both sides)")
def _metric_c2(ctx) -> tuple:
    profile, outcome = ctx.star(1.5)
    patch = MetricPatch.from_model(profile, outcome.boundary)
    report = continuity_report(patch)
    worst1 = max(report.row("g00", s, 1).rel_err for s in ("interior", "exterior"))
    worst2 = max(report.row("g00", s, 2).rel_err for s in ("interior", "exterior"))
    worst0 = max(report.row("g00", s, 0).rel_err for s in ("interior", "exterior"))
    passed = worst0 < 1e-12 and worst1 < 1e-5 and worst2 < 1e-3
    return passed, {"rel_err_order0": worst0, "rel_err_order1": worst1,
                    "rel_err_order2": worst2}


@_criterion(6, "horizon_cubic_algebra",
            "|kappa(r_I)|,|kappa(r_E)| < 1e-12; factorization < 1e-10; "
            "r_I < r_+ < r_E; double root |r - 3| < 1e-8")
def _horizon_algebra(ctx) -> tuple:
    from .odecore import kappa as kappa_fn

    profile, outcome = ctx.star(1.5)
    bq = outcome.boundary
    Lam = profile.Lambda
    hp = horizons(bq.m_plus, Lam, GEOMETRIZED)
    res_I = abs(kappa_fn(hp.r_I, bq.m_plus, Lam, GEOMETRIZED))
    res_E = abs(kappa_fn(hp.r_E, bq.m_plus, Lam, GEOMETRIZED))
    grid = np.linspace(hp.r_I, hp.r_E, 1000)
    fact = Lam / (3.0 * grid) * (grid - hp.r_I) * (hp.r_E - grid) * (grid + hp.r_I + hp.r_E)
    kap = 1.0 - 2.0 * GEOMETRIZED.G * bq.m_plus / (GEOMETRIZED.c2 * grid) - Lam * grid**2 / 3.0
    fact_res = float(np.max(np.abs(kap - fact)))
    # every monotone-short Lambda > 0 model must be bracketed by its horizons
    brackets = True
    for gamma in (1.4, 1.5, 1.7):
        prof_i, out_i = ctx.star(gamma)
        if out_i.kind == MONOTONE_SHORT and prof_i.Lambda > 0.0:
            hp_i = horizons(out_i.boundary.m_plus, prof_i.Lambda, GEOMETRIZED)
            brackets = brackets and hp_i.r_I < out_i.boundary.r_plus < hp_i.r_E
    dbl = horizons(1.0, 1.0 / 9.0, GEOMETRIZED)
    dbl_err = max(abs(dbl.r_I - 3.0), abs(dbl.r_E - 3.0))
    passed = (res_I < 1e-12 and res_E < 1e-12 and fact_res < 1e-10
              and brackets and dbl_err < 1e-8)
    return passed, {"res_I": res_I, "res_E": res_E, "factorization_res": fact_res,
                    "brackets_star": brackets, "double_root_err": dbl_err}


@_criterion(7, "boundary_exponent_fit", "exponent within 2% of 1/(gamma-1); amplitude within 2%")
def _boundary_exponent(ctx) -> tuple:
    worst_exp = 0.0
    worst_amp = 0.0
    details = {}
    for gamma in (1.4, 1.5, 1.7):
        profile, outcome = ctx.star(gamma)
        fit = boundary_exponent_fit(profile)
        mu = 1.0 / (gamma - 1.0)
        exp_rel = abs(fit.exponent - mu) / mu
        amp_rel = abs(fit.amplitude - fit.amplitude_target) / fit.amplitude_target
        worst_exp = max(worst_exp, exp_rel)
        worst_amp = max(worst_amp, amp_rel)
        details[f"exponent_g{gamma}"] = fit.exponent
    details["worst_exponent_rel"] = worst_exp
    details["worst_amplitude_rel"] = worst_amp
    passed = worst_exp < 0.02 and worst_amp < 0.02
    return passed, details


@_criterion(8, "smallness_regime_grid",
            "all cells with alpha, beta <= 1e-2 monotone-short; "
            "R_+(1e-3, 1e-3) within 5% of the mu = 2 first zero")
def _regime_grid(ctx) -> tuple:
    grid = np.logspace(-3, -2, 10)
    sweep = regime_sweep(1.5, grid, grid, eos=ctx.eos(1.5), jobs=ctx.jobs)
    all_short = all(c.outcome == MONOTONE_SHORT for c in sweep.cells)
    corner = sweep.cell(0, 0)
    radius_rel = abs(corner.R_plus - XI1_MU2) / XI1_MU2 if corner.R_plus else math.inf
    passed = all_short and radius_rel < 0.05
    return passed, {"all_monotone_short": all_short,
                    "R_plus_corner": corner.R_plus or math.nan,
                    "radius_rel_dev": radius_rel}


@_criterion(9, "small_lambda_persistence",
            "smallest Lambda > 0 stays monotone-short, radius shift < 5%")
def _small_lambda_persistence(ctx) -> tuple:
    eos = ctx.eos(1.5)
    rho_c = 1e-2
    u_c = eos.u_of_density(rho_c)
    lambdas = [ScalingParams.lambda_of_beta(b, u_c, eos, GEOMETRIZED) for b in (1e-4, 1e-3, 1e-2)]
    rows = perturbation_compare(rho_c, eos, lambdas, constants=GEOMETRIZED)
    smallest = rows[1]
    passed = smallest["outcome"] == MONOTONE_SHORT and smallest["radius_shift_rel"] < 0.05
    shifts = [r["radius_shift_rel"] for r in rows[1:]]
    return passed, {"outcome": smallest["outcome"],
                    "radius_shift_rel": smallest["radius_shift_rel"],
                    "largest_tested_shift": max(shifts)}


@_criterion(10, "lambda0_short_is_monotone",
            "no Lambda = 0 short solution classifies NonMonotone (10-point grid)")
def _lambda0_monotone(ctx) -> tuple:
    eos = ctx.eos(1.5)
    outcomes = []
    for rho_c in np.logspace(-3, -0.5, 10):
        inp = ModelInput(eos=eos, Lambda=0.0, constants=GEOMETRIZED, rho_c=float(rho_c),
                         ctrl=StepControl(rel_tol=1e-11, abs_tol=1e-13))
        _, out = solve_star(inp)
        outcomes.append(out.kind)
    n_short = sum(o == MONOTONE_SHORT for o in outcomes)
    none_nonmono = all(o != "NonMonotone" for o in outcomes)
    passed = none_nonmono and n_short == len(outcomes)
    return passed, {"n_models": len(outcomes), "n_monotone_short": n_short}


@_criterion(11, "eos_self_consistency",
            "round trip < 1e-8; closed-form u < 1e-8; Fermi forms < 1e-10; "
            "low-density slope 5/3 within 1e-3")
def _eos_self_consistency(ctx) -> tuple:
    eos = ctx.eos(1.5)
    worst_rt = 0.0
    for rho in np.logspace(-3, 3, 25):
        rho_back = eos.density_of_u(eos.u_of_density(float(rho)))
        worst_rt = max(worst_rt, abs(rho_back - rho) / rho)
    worst_u = 0.0
    for rho in np.logspace(-3, 3, 13):
        u_closed = eos.gamma / (eos.gamma - 1.0) * eos.c2 * math.log1p(
            eos.A * float(rho) ** (eos.gamma - 1.0) / eos.c2)
        u_quad = eos.u_of_density(float(rho))
        worst_u = max(worst_u, abs(u_quad - u_closed) / u_closed)
    # reference: the 40-point Gauss-Legendre rule on [0, z]; both integrands
    # are analytic there, with branch points at q = +-i, so the rule's
    # truncation error lies far below rounding
    nodes, weights = leggauss(40)
    worst_fermi = 0.0
    for z in (0.5, 1.0, 2.0):
        q = 0.5 * z * (nodes + 1.0)
        root = np.sqrt(1.0 + q * q)
        qP = 0.5 * z * float(weights @ (q**4 / root))
        qR = 0.5 * z * float(weights @ (root * q * q))
        worst_fermi = max(worst_fermi,
                          abs(_fermi_pressure_dimless(z) - qP) / qP,
                          abs(_fermi_density_dimless(z) - qR) / qR)
    params = FermiEosParams(K=1.0, c=1.0)
    z0 = 1e-3
    dz = 1e-5
    r1, P1 = fermi_eos(z0 - dz, params)
    r2, P2 = fermi_eos(z0 + dz, params)
    slope = (math.log(P2) - math.log(P1)) / (math.log(r2) - math.log(r1))
    slope_err = abs(slope - 5.0 / 3.0)
    passed = (worst_rt < 1e-8 and worst_u < 1e-8 and worst_fermi < 1e-10
              and slope_err < 1e-3)
    return passed, {"roundtrip_rel": worst_rt, "u_closed_form_rel": worst_u,
                    "fermi_rel": worst_fermi, "slope_err": slope_err}


@_criterion(12, "determinism_byte_identical",
            "repeated identical runs produce byte-identical artifacts")
def _determinism(ctx) -> tuple:
    def one_run(out_dir: str) -> None:
        eos = EosSpec(A=1.0, gamma=1.5)  # fresh instance: tables rebuilt
        u_c = 1e-3
        Lambda = ScalingParams.lambda_of_beta(1e-3, u_c, eos, GEOMETRIZED)
        inp = ModelInput(eos=eos, Lambda=Lambda, constants=GEOMETRIZED, u_c=u_c,
                         ctrl=StepControl(rel_tol=1e-10, abs_tol=1e-12))
        profile, outcome = solve_star(inp)
        profile.write_csv(os.path.join(out_dir, "profile.csv"))
        import json as _json
        with open(os.path.join(out_dir, "outcome.json"), "w") as fh:
            _json.dump(outcome.to_json_dict(), fh, sort_keys=True)

    with tempfile.TemporaryDirectory() as tmp:
        d1 = os.path.join(tmp, "a")
        d2 = os.path.join(tmp, "b")
        os.makedirs(d1)
        os.makedirs(d2)
        one_run(d1)
        one_run(d2)
        same_csv = filecmp.cmp(os.path.join(d1, "profile.csv"),
                               os.path.join(d2, "profile.csv"), shallow=False)
        same_json = filecmp.cmp(os.path.join(d1, "outcome.json"),
                                os.path.join(d2, "outcome.json"), shallow=False)
    passed = same_csv and same_json
    return passed, {"profile_csv_identical": same_csv,
                    "outcome_json_identical": same_json}


def run_criteria(numbers=None, jobs: int = 1) -> list:
    """Run the selected acceptance criteria (all by default), sharing solves.

    A check that raises a TovdsError fails with the error as its measurement.
    """
    ctx = _Ctx(jobs=jobs)
    results = []
    for number, (name, tolerance, check) in sorted(CRITERIA.items()):
        if numbers is not None and number not in numbers:
            continue
        t0 = time.perf_counter()
        try:
            passed, measured = check(ctx)
        except TovdsError as exc:
            passed, measured = False, {"error": f"{type(exc).__name__}: {exc}"}
        results.append(CriterionResult(number=number, name=name, passed=bool(passed),
                                       tolerance=tolerance, measured=measured,
                                       runtime_s=time.perf_counter() - t0))
    return results
