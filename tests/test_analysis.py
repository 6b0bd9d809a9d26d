"""Limit analyses: first zeros, closed forms, convergence, exponent fits."""

import concurrent.futures
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from tovds import analysis, integrate, odecore
from tovds.analysis import (
    _sinc_jet,
    boundary_exponent_fit,
    lane_emden_first_zero,
    mu1_exact,
    perturbation_compare,
    regime_sweep,
)
from tovds.constants import Constants
from tovds.eos import EosSpec
from tovds.errors import AnalysisError
from tovds.integrate import DenseSolution, StepControl
from tovds.model import (
    MONOTONE_SHORT,
    NON_MONOTONE,
    ModelInput,
    solve_scaled,
    solve_star,
)
from tovds.odecore import FOUR_PI

from oracles import (
    bind,
    called_rhs,
    guard_call,
    interp,
    mu1_residual,
    rhs_lane_emden,
    scaled_limit_convergence,
)

GEOM = Constants(1.0, 1.0)


# -- independent fixed-step oracle (coded without the package integrator) --------

def rk4_first_zero(mu: float, lam: float = 0.0, h: float = 1e-3, R_cap: float = 40.0):
    """Classic fixed-step RK4 on the limit system with cubic-Hermite crossing
    refinement; independent of the adaptive production path."""

    def deriv(R, M, U):
        Upos = U if U > 0.0 else 0.0
        return R * R * Upos**mu, -(M - lam * R**3 / 3.0) / (R * R)

    # start outside the coordinate singularity with the three-term series;
    # germ truncation at R = 0.01 is ~1e-15
    R = 1e-2
    M = R**3 / 3.0 - mu * (1.0 - lam) * R**5 / 30.0
    U = 1.0 - (1.0 - lam) * R**2 / 6.0 + mu * (1.0 - lam) * R**4 / 120.0
    while R < R_cap:
        k1m, k1u = deriv(R, M, U)
        k2m, k2u = deriv(R + h / 2, M + h / 2 * k1m, U + h / 2 * k1u)
        k3m, k3u = deriv(R + h / 2, M + h / 2 * k2m, U + h / 2 * k2u)
        k4m, k4u = deriv(R + h, M + h * k3m, U + h * k3u)
        M1 = M + h / 6 * (k1m + 2 * k2m + 2 * k3m + k4m)
        U1 = U + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        if U1 <= 0.0 < U:
            # cubic Hermite root on [R, R+h] using end slopes
            d0 = deriv(R, M, U)[1]
            d1 = deriv(R + h, M1, U1)[1]
            t = U / (U - U1)  # secant start
            for _ in range(60):
                h00 = (1 + 2 * t) * (1 - t) ** 2
                h10 = t * (1 - t) ** 2
                h01 = t * t * (3 - 2 * t)
                h11 = t * t * (t - 1)
                val = h00 * U + h10 * h * d0 + h01 * U1 + h11 * h * d1
                dval = (6 * t * t - 6 * t) * (U - U1) + (3 * t * t - 4 * t + 1) * h * d0 + (3 * t * t - 2 * t) * h * d1
                step = val / dval
                t -= step
                if abs(step) < 1e-15:
                    break
            return R + t * h
        R, M, U = R + h, M1, U1
    return None


def test_oracle_reproduces_pi():
    assert abs(rk4_first_zero(1.0) - math.pi) < 1e-9


# frozen from rk4_first_zero with h = 5e-4 (matches the classical tables)
XI1_FROZEN = {0.5: 2.752698054162855, 1.0: math.pi, 1.5: 3.65375373621912,
              2.0: 4.35287459594617, 3.0: 6.89684861937482}


@pytest.mark.parametrize("mu", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_first_zero_against_frozen_oracle(mu):
    xi1 = lane_emden_first_zero(mu, 0.0)
    tol = 1e-8 if mu == 1.0 else 1e-5
    assert abs(xi1 - XI1_FROZEN[mu]) < tol


def test_oracle_agrees_with_frozen_values():
    for mu, target in XI1_FROZEN.items():
        assert abs(rk4_first_zero(mu, h=5e-4) - target) < 2e-8


def test_first_zero_none_when_oscillating():
    # offset above the sinc minimum: U stays positive and turns around
    assert lane_emden_first_zero(1.0, 0.75) is None
    assert lane_emden_first_zero(1.0, 0.5) is None
    # infimum of lam + (1-lam) sin(R)/R is lam - (1-lam)*0.21723...
    assert 0.75 - 0.25 * 0.2172336282 > 0


def test_first_zero_small_offset_still_crosses():
    xi1 = lane_emden_first_zero(1.0, 0.1)
    # hat(U) = 0.1 + 0.9 sin(R)/R crosses zero before its first minimum
    assert xi1 is not None and math.pi < xi1 < 4.4934
    assert abs(0.1 + 0.9 * math.sin(xi1) / xi1) < 1e-10


def test_unterminated_diagnostic():
    # mu = 5: the critical index, U > 0 decreasing for all R
    with pytest.raises(AnalysisError):
        lane_emden_first_zero(5.0, 0.0, R_cap=50.0)


# -- mu = 1 closed form -----------------------------------------------------------


def _dense_bits(d):
    return (d.xs.tobytes(), d.ys.tobytes(), interp(d).tobytes(),
            [(ev.x, ev.y.tobytes(), ev.index, ev.name) for ev in d.events],
            d.status, d.message, d.x_end, d.y_end.tobytes(), d.n_steps, d.n_rhs, d.n_rejected)


def test_lane_emden_stage_matches_the_called_form(monkeypatch):
    # a Lane-Emden solve runs the scaled stage of the polytrope Omega == 1 at
    # alpha = 0, with mu bound as given, mu < 1 too; at lam = 0 that stage
    # and its expression guards, written into the step loop, give the bits
    # and counts of rhs_lane_emden and lambda guards, which the loop calls
    inputs = []
    integrate_adaptive = analysis.integrate_adaptive

    def recording(rhs, y0, span, ctrl, events):
        inputs.append((rhs, y0, span, ctrl, events))
        return integrate_adaptive(rhs, y0, span, ctrl, events=events)

    monkeypatch.setattr(analysis, "integrate_adaptive", recording)
    monkeypatch.setattr(integrate, "_LOOPS", {})
    scaled = odecore.scaled_rhs(0.0, 0.0, EosSpec(A=1.0, gamma=1.5)).stage
    cases = [(mu, lam) for mu in (0.5, 1.0, 1.5, 2.0, 3.0) for lam in (0.0, 0.1, 0.17)]
    written = [analysis.lane_emden_solution(mu, lam) for mu, lam in cases]
    assert len(integrate._LOOPS) == 1
    assert {ev.name for d in written for ev in d.events} == {"vacuum", "turning_point"}
    for (mu, lam), (rhs, y0, span, ctrl, events), want in zip(cases, inputs, written):
        assert rhs.stage is scaled
        assert (rhs.values["mu"], rhs.values["alpha"], rhs.values["beta3"]) == (mu, 0.0, lam / 3.0)
        assert want.status == "event", (mu, lam)
        if lam != 0.0:
            continue
        rhs = bind(called_rhs(lambda R, y: rhs_lane_emden(R, y, mu, lam), 2),
                   guard_0=lambda R, y: y[1], guard_1=lambda R, y, dy: dy[1])
        called = integrate_adaptive(rhs, y0, span, ctrl, events=[
            replace(ev, expr=guard_call(rhs.stage, f"guard_{i}", i == 1))
            for i, ev in enumerate(events)])
        assert _dense_bits(called) == _dense_bits(want), mu
    assert len(integrate._LOOPS) == 2


@pytest.mark.parametrize("mu, lam, name", [
    (math.nan, 0.0, "mu"), (math.inf, 0.0, "mu"), (0.0, 0.0, "mu"),
    (1.0, math.nan, "lam"), (1.0, math.inf, "lam"), (1.0, -0.1, "lam"),
])
def test_lane_emden_refuses_a_bad_argument_by_name(mu, lam, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        analysis.lane_emden_solution(mu, lam)


def test_mu1_exact_center_and_infinity():
    U, dU = mu1_exact(0.6, 0.0)
    assert (U, dU) == (1.0, 0.0)
    U_far, _ = mu1_exact(0.6, 1e6)
    assert abs(U_far - 0.6) < 0.4 * 1e-6


@pytest.mark.parametrize("lam, R, name", [
    (math.nan, 1.0, "lam"), (math.inf, 1.0, "lam"),
    (0.1, math.nan, "R"), (0.1, math.inf, "R"), (0.1, -1.0, "R"),
])
def test_mu1_exact_refuses_a_bad_argument_by_name(lam, R, name):
    # lam = NaN gave (nan, nan) and R = inf a math domain error
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        mu1_exact(lam, R)


def test_mu1_exact_rise_window():
    # dU/dR > 0 on (3pi/2, 2pi) for lam in [1/2, 1)
    _, dU = mu1_exact(0.5, 7.0 * math.pi / 4.0)
    assert dU > 0.0
    for lam in (0.5, 0.9):
        for R in np.linspace(1.5 * math.pi + 1e-6, 2 * math.pi - 1e-6, 50):
            assert mu1_exact(lam, float(R))[1] > 0.0


def test_mu1_exact_matches_trig():
    for lam in (0.0, 0.5, 0.75):
        for R in (0.7, 2.0, 9.3):
            U, dU = mu1_exact(lam, R)
            assert U == pytest.approx(lam + (1 - lam) * math.sin(R) / R, rel=1e-14)
            assert dU == pytest.approx((1 - lam) * (math.cos(R) - math.sin(R) / R) / R, rel=1e-12)


def test_mu1_residual_pointwise():
    for lam in (0.0, 0.5, 0.75):
        for R in np.concatenate([np.linspace(0.01, 0.49, 9), np.linspace(0.5, 12.0, 40)]):
            assert abs(mu1_residual(lam, float(R))) < 1e-12


def test_sinc_jet_series_matches_trig_branch():
    for R in (0.4999, 0.5001):
        s, s1 = _sinc_jet(R)
        assert s == pytest.approx(math.sin(R) / R, rel=1e-14)
        assert s1 == pytest.approx((math.cos(R) - math.sin(R) / R) / R, rel=1e-12)


# -- scaled-limit convergence ------------------------------------------------------


def test_scaled_limit_convergence_table():
    rows = scaled_limit_convergence(1.5, [0.0, 1e-2, 1e-3], [0.0])
    by_alpha = {row["alpha"]: row for row in rows}
    # identical systems: bitwise-equal trajectories, distance exactly zero
    assert by_alpha[0.0]["sup_distance"] == 0.0
    assert by_alpha[1e-2]["sup_distance"] > by_alpha[1e-3]["sup_distance"] > 0.0
    assert abs(by_alpha[1e-3]["R_plus"] - 4.35287459594617) / 4.35287459594617 < 0.05


# -- boundary exponent fit -----------------------------------------------------------


@pytest.fixture(scope="module")
def star15():
    eos = EosSpec(A=1.0, gamma=1.5, c=1.0)
    u_c = 1e-3
    Lam = 1e-3 * FOUR_PI * GEOM.G * eos.A1 * u_c**eos.mu / GEOM.c2
    return solve_star(ModelInput(eos=eos, Lambda=Lam, constants=GEOM, u_c=u_c))


def test_exponent_fit_gamma15(star15):
    profile, outcome = star15
    fit = boundary_exponent_fit(profile)
    assert abs(fit.exponent - 2.0) / 2.0 < 0.02
    assert abs(fit.amplitude - fit.amplitude_target) / fit.amplitude_target < 0.02
    assert fit.n_samples >= 50
    # the leading relative correction of u/(B x) is the linear one
    assert abs(fit.correction_coeffs[0]) > abs(fit.correction_coeffs[1])
    assert fit.resid_rms < 1e-4


def test_exponent_fit_integer_mu_decay(star15):
    # gamma = 3/2 (mu = 2): the boundary series runs in integer powers, so
    # after removing the linear term the residual decays like the next power
    profile, _ = star15
    fit = boundary_exponent_fit(profile)
    assert fit.resid_decay_slope == pytest.approx(2.0, abs=0.35)


def test_exponent_fit_takes_no_boundary_stencil(star15, monkeypatch):
    # the fit reads r_+ and B, which need no dense-output call
    profile, _ = star15
    want = boundary_exponent_fit(profile)
    calls = 0
    evaluate = DenseSolution.__call__

    def spy(self, x):
        nonlocal calls
        calls += 1
        return evaluate(self, x)

    monkeypatch.setattr(DenseSolution, "__call__", spy)
    assert boundary_exponent_fit(profile) == want
    assert calls == 0


def test_exponent_fit_rejects_sparse_window(star15):
    profile, _ = star15
    # every second sample leaves fewer than the fit needs in its window; the
    # copy derives its P, rho, kappa, Q and dPdr from the stored columns
    thin = replace(profile, r=profile.r[::2], m=profile.m[::2], state=profile.state[::2])
    assert np.array_equal(thin.rho, profile.rho[::2])
    with pytest.raises(AnalysisError, match="usable samples in the fit window"):
        boundary_exponent_fit(thin)


# -- sweeps -----------------------------------------------------------------------


def test_sweep_corner_and_determinism():
    grid = np.array([1e-3, 3e-3])
    s1 = regime_sweep(1.5, grid, grid)
    s2 = regime_sweep(1.5, grid, grid)
    assert all(c.outcome == MONOTONE_SHORT for c in s1.cells)
    assert s1.epsilon0_estimate == 3e-3
    assert [c.R_plus for c in s1.cells] == [c.R_plus for c in s2.cells]


def test_sweep_compiles_one_step_loop(monkeypatch):
    # each cell binds its own alpha and beta as values, not as text, and the
    # guards' constants are the same text for every cell, so a whole 12 x 12
    # grid runs one generated loop
    monkeypatch.setattr(integrate, "_LOOPS", {})
    grid = np.logspace(-3, 0, 12)
    sweep = regime_sweep(1.5, grid, grid)
    assert len(sweep.cells) == 144
    assert len(integrate._LOOPS) == 1


@pytest.mark.parametrize("gamma", [1.3, 1.5, 1.8])
def test_sweep_epsilon0_positive(gamma):
    grid = np.array([1e-3, 3e-3])
    sweep = regime_sweep(gamma, grid, grid)
    assert sweep.epsilon0_estimate > 0.0


def test_parallel_sweep_with_a_warm_eos():
    # an EosSpec that has served a solve is still picklable into workers and
    # gives the serial cells
    eos = EosSpec(A=1.0, gamma=1.5)
    solve_scaled(1e-3, 1e-3, eos)
    grid = np.array([1e-3, 0.05])
    serial = regime_sweep(1.5, grid, grid, eos=eos)
    parallel = regime_sweep(1.5, grid, grid, eos=eos, jobs=2)
    assert parallel.cells == serial.cells
    assert {c.outcome for c in serial.cells} >= {MONOTONE_SHORT, NON_MONOTONE}


class RecordingPool:
    """ProcessPoolExecutor's stand-in: records max_workers and maps serially,
    so that no process starts."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


def test_sweep_workers_are_bounded(monkeypatch):
    # no more workers than cells or CPUs; an unknown CPU count counts as 1.
    # regime_sweep imports the pool from concurrent.futures when it starts one
    made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(made, max_workers))
    grid = [1e-3, 2e-3]
    serial = regime_sweep(1.5, grid, grid).cells
    for jobs, cpus, workers in ((10000, 8, [4]), (3, 8, [3]), (10000, 2, [2]),
                                (10000, None, []), (1, 8, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        made.clear()
        assert regime_sweep(1.5, grid, grid, jobs=jobs).cells == serial
        assert made == workers, (jobs, cpus)


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_refuses_jobs_below_1(jobs):
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        regime_sweep(1.5, [1e-3], [1e-3], jobs=jobs)


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        regime_sweep(1.5, [0.5, 1.5], [0.1])
    with pytest.raises(ValueError, match=r"within \[0, 1\]"):
        regime_sweep(1.5, [0.1], [0.1, math.nan])


@pytest.mark.parametrize("alpha_grid, beta_grid, empty", [
    ([], [0.1], "alpha_grid"),
    ([0.1], [], "beta_grid"),
])
def test_sweep_empty_grid_is_named(alpha_grid, beta_grid, empty):
    with pytest.raises(ValueError, match=f"{empty} is empty"):
        regime_sweep(1.5, alpha_grid, beta_grid)


def test_sweep_refuses_an_eos_of_another_gamma():
    # the result reports gamma, so an eos at another gamma would mislabel its cells
    with pytest.raises(ValueError, match=r"gamma = 1\.5 .*gamma = 1\.9"):
        regime_sweep(1.5, [1e-3], [1e-3, 0.05], eos=EosSpec(A=1.0, gamma=1.9))


def test_sweep_export(tmp_path):
    grid = np.array([1e-3, 3e-3])
    sweep = regime_sweep(1.5, grid, grid)
    path = tmp_path / "sweep.csv"
    sweep.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[1] == "alpha,beta,outcome,R_plus,extra"
    assert len(lines) == 2 + 4
    doc = sweep.to_json_dict()
    assert doc["epsilon0_estimate"] == 3e-3
    assert len(doc["cells"]) == 4


def test_sweep_records_a_failed_cell(tmp_path):
    # a solve that fails with a package error becomes an "error" cell
    sweep = regime_sweep(1.5, [1e-3], [1e-3], ctrl=StepControl(max_steps=5))
    (cell,) = sweep.cells
    assert cell.outcome == "error" and cell.R_plus is None
    assert cell.error.startswith("ModelError: solver failed: step_budget")
    path = tmp_path / "sweep.csv"
    sweep.to_csv(path)
    row = path.read_text().splitlines()[2]
    assert row.startswith("0.001,0.001,error,,initial_rise=0;error=ModelError: ")


def test_sweep_lets_a_programming_error_through(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken solve")

    monkeypatch.setattr(analysis, "solve_scaled", broken)
    with pytest.raises(TypeError, match="broken solve"):
        regime_sweep(1.5, [1e-3], [1e-3])


# -- persistence table ---------------------------------------------------------------


def test_perturbation_compare_rows():
    eos = EosSpec(A=1.0, gamma=1.5, c=1.0)
    rho_c = 1e-2
    u_c = eos.u_of_density(rho_c)
    lam_unit = FOUR_PI * GEOM.G * eos.A1 * u_c**eos.mu / GEOM.c2
    rows = perturbation_compare(rho_c, eos, [b * lam_unit for b in (1e-4, 1e-3, 1e-2)],
                                constants=GEOM)
    assert rows[0]["Lambda"] == 0.0
    assert rows[0]["radius_shift_rel"] == 0.0
    assert rows[1]["outcome"] == MONOTONE_SHORT
    assert rows[1]["radius_shift_rel"] < 0.05
    # trend observed (reported, not asserted as a theorem): shifts grow here
    shifts = [r["radius_shift_rel"] for r in rows[1:]]
    assert shifts == sorted(shifts)
