"""Star solves, outcome classification, boundary quantities."""

import json
import math
import re
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tovds.constants import SI, Constants
from tovds.eos import EosSpec, FermiEosParams, OmegaSeries, fermi_fit_eos
from tovds import integrate, model, odecore
from tovds.errors import EosDomainError, ModelError
from tovds.integrate import EventSpec, StepControl, integrate_adaptive
from tovds.model import (
    HORIZON_DEGENERATE,
    MONOTONE_SHORT,
    NON_MONOTONE,
    UNTERMINATED,
    ModelInput,
    boundary_quantities,
    d2u_at_boundary,
    smallness_condition,
    solve_scaled,
    solve_star,
)
from tovds.analysis import boundary_exponent_fit
from tovds.metric import MetricPatch, continuity_report
from tovds.odecore import FOUR_PI, ScalingParams, kappa

from oracles import (
    bind,
    called_events,
    called_rhs,
    dense_eval_scalar,
    du_dr_minus_pointwise,
    guard_call,
    interp,
    profile_row,
    profile_samples,
    rhs_tov,
    vacuum_continuation_lambda0,
)

GEOM = Constants(1.0, 1.0)
XI1_MU2 = 4.352874595946  # frozen from the fixed-step oracle in test_analysis


@pytest.fixture(scope="module")
def eos15():
    return EosSpec(A=1.0, gamma=1.5, c=1.0)


def lambda_from_beta(beta, u_c, eos, k=GEOM):
    return beta * FOUR_PI * k.G * eos.A1 * u_c**eos.mu / k.c2


@pytest.fixture(scope="module")
def star_m0(eos15):
    """gamma = 3/2 star with alpha = beta = 1e-3."""
    u_c = 1e-3
    inp = ModelInput(eos=eos15, Lambda=lambda_from_beta(1e-3, u_c, eos15),
                     constants=GEOM, u_c=u_c)
    return solve_star(inp)


def test_monotone_short_and_radius(star_m0):
    profile, outcome = star_m0
    assert outcome.kind == MONOTONE_SHORT
    R_plus = outcome.boundary.r_plus / profile.scaling.a
    assert abs(R_plus - XI1_MU2) / XI1_MU2 < 0.05


def test_step_counts_of_reference_solves(star_m0, eos15):
    # accepted steps and RHS calls of the DP5 step control on two fixed stars;
    # solve_star runs the scaled system, so both take the same steps
    profile, _ = star_m0
    assert (profile.dense.n_steps, profile.dense.n_rhs) == (349, 2138)
    star = solve_scaled(1e-3, 1e-3, eos15)
    assert (star.dense.n_steps, star.dense.n_rhs) == (349, 2138)


def test_rise_guard_reuses_the_fsal_slope(eos15, monkeypatch):
    # the guard at a step end reads the slope the integrator has just
    # computed there, and its refinement calls are counted.  When the solve
    # integrates a wrapper of the right-hand side, the loop calls the
    # wrapper from its stages and the guards from its guard block, and every
    # call of the wrapper is one of n_rhs; the fused path, which runs the
    # right-hand side and the guard expressions inside the step loop,
    # reports that count
    fused = {beta: solve_scaled(1e-3, beta, eos15) for beta in (1e-3, 0.05)}
    calls = 0
    integrate = model.integrate_adaptive

    def called_integrate(rhs, y0, span, ctrl, events):
        def counted(R, y):
            nonlocal calls
            calls += 1
            return rhs(R, y)
        guards, called = called_events(rhs, events)
        return integrate(bind(called_rhs(counted, 2), **guards), y0, span, ctrl, called)

    monkeypatch.setattr(model, "integrate_adaptive", called_integrate)
    # the second star has five located rises, each refined with calls
    for beta, kind, n_rises in ((1e-3, MONOTONE_SHORT, 0), (0.05, NON_MONOTONE, 5)):
        calls = 0
        star = solve_scaled(1e-3, beta, eos15)
        assert star.kind == fused[beta].kind == kind
        assert star.dense.n_steps > 0
        assert sum(ev.name == "pressure_rise" for ev in star.dense.events) == n_rises
        assert calls == star.dense.n_rhs == fused[beta].dense.n_rhs


SERIES_EOS = EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1)), eta_max=2.0)
# dP/drho of SERIES_EOS reaches 0 at zeta = 3.93, where eta peaks near
# 4.228.  At alpha = 4.15, beta = 200 the germ's U rises from 1, and the
# solution meets that edge before the horizon: the Z terms raise
# EosDomainError.  (At beta = 60 the horizon comes first.)
EDGE_STAR = (4.15, 200.0)


def _scaled_solve(rhs, alpha, beta, eos, R_max, guarded, text=False):
    """A scaled solve as _solve_core makes it, at the sweep tolerances; or
    with no guards, to run past the vacuum boundary.  The guards are
    lambdas bound as constants of rhs's stage, which the step loop calls on
    the stage's names, or with text=True expressions over the scaled
    stage's names, as _solve_core's are."""
    R0 = 1e-6
    if text:
        exprs = [eos.state_var, f"{model._HORIZON} - 1e-10", "dU - 1e-06"]
    else:
        # in Z, the slope dU is w dZ
        k_alpha = (eos.gamma - 1.0) / eos.gamma * alpha
        w = (lambda X: 1.0) if eos.state_var == "U" else (lambda X: eos._w(k_alpha * max(X, 0.0)))
        exprs = [guard_call(rhs.stage, f"guard_{i}", i == 2) for i in range(3)]
        rhs = bind(rhs, guard_0=lambda R, y: y[1],
                   guard_1=lambda R, y: odecore.kappa_scaled(R, y[0], alpha, beta) - 1e-10,
                   guard_2=lambda R, y, dy: dy[1] * w(y[1]) - 1e-6)
    events = [
        EventSpec(exprs[0], direction="falling", terminal=True, name="vacuum"),
        EventSpec(exprs[1], direction="falling", terminal=True, name="horizon"),
        EventSpec(exprs[2], direction="rising", root_tol=1e-10, name="pressure_rise"),
    ] if guarded else []
    return integrate_adaptive(rhs, odecore.center_germ_scaled(alpha, beta, eos, R0), (R0, R_max),
                              StepControl(rel_tol=1e-9, abs_tol=1e-12), events=events)


def _solution_bits(run):
    """Everything a solve returns, as comparable values; or what it raised."""
    try:
        d = run()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return (d.xs.tobytes(), d.ys.tobytes(), interp(d).tobytes(),
            [(ev.x, ev.y.tobytes(), ev.index, ev.name) for ev in d.events],
            d.status, d.message, d.x_end, d.y_end.tobytes(), d.n_steps, d.n_rhs, d.n_rejected,
            repr(d.failure))


@pytest.mark.parametrize("alpha, beta, eos, R_max, guarded, what", [
    (1e-3, 1.0, "polytrope", 50.0, True, "HorizonDegenerate, with kappa <= 0 retries"),
    (1e-3, 0.05, "polytrope", 50.0, True, "NonMonotone, with refined rises"),
    (0.0, 0.01, "polytrope", 50.0, True, "alpha = 0"),
    (0.05, 1e-3, "series", 50.0, True, "series Omega"),
    (0.3, 0.1, "series", 50.0, True, "series Omega, HorizonDegenerate"),
    (0.01, 0.0, "polytrope", 16.0, False, "past the vacuum, at eta = 0"),
    (0.01, 0.0, "series", 16.0, False, "series Omega past the vacuum, at eta = 0"),
    (*EDGE_STAR, "series", 2.0, False, "EosDomainError out of a stage"),
])
def test_fused_stages_match_the_called_right_hand_side(alpha, beta, eos, R_max, guarded, what):
    # the step loop with the right-hand side written into its stages gives
    # the bits, counts and outcome of the loop that calls it
    eos = {"polytrope": EosSpec(A=1.0, gamma=1.5), "series": SERIES_EOS}[eos]
    f = odecore.scaled_rhs(alpha, beta, eos)
    fused = _solution_bits(lambda: _scaled_solve(f, alpha, beta, eos, R_max, guarded))
    called = _solution_bits(lambda: _scaled_solve(called_rhs(f, 2), alpha, beta, eos,
                                                  R_max, guarded))
    assert fused == called
    if what.startswith("EosDomainError"):
        assert fused[0] is EosDomainError
    else:
        assert fused[4] in ("event", "completed")


@pytest.mark.parametrize("alpha, beta, eos, what", [
    (1e-3, 1.0, "polytrope", "HorizonDegenerate, with kappa <= 0 retries"),
    (1e-3, 0.05, "polytrope", "NonMonotone, with refined rises"),
    (1e-3, 1e-3, "polytrope", "MonotoneShort"),
    (*EDGE_STAR, "series", "EosDomainError out of a stage, past guarded steps"),
])
def test_written_in_guards_match_called_guards(alpha, beta, eos, what):
    # the guards written into the step loop as their expressions give the
    # bits, counts, events and outcome of the same guards as lambdas, which
    # the loop writes in as calls on the stage's names
    eos = {"polytrope": EosSpec(A=1.0, gamma=1.5), "series": SERIES_EOS}[eos]
    f = odecore.scaled_rhs(alpha, beta, eos)
    text = _solution_bits(lambda: _scaled_solve(f, alpha, beta, eos, 50.0, True, text=True))
    called = _solution_bits(lambda: _scaled_solve(f, alpha, beta, eos, 50.0, True))
    assert text == called
    exprs = {tuple(g.expr for g in guards) for _, stage, guards in integrate._LOOPS
             if stage.body == f.stage.body}
    X = eos.state_var
    assert exprs >= {(X, f"{model._HORIZON} - 1e-10", "dU - 1e-06"),
                     (f"float(guard_0(R, [M, {X}]))", f"float(guard_1(R, [M, {X}]))",
                      f"float(guard_2(R, [M, {X}], (dM, d{X},)))")}
    if what.startswith("EosDomainError"):
        assert text[0] is EosDomainError
    else:
        assert {ev[3] for ev in text[3]} >= {"HorizonDegenerate": {"horizon"},
                                             "NonMonotone": {"pressure_rise"},
                                             "MonotoneShort": {"vacuum"}}[what.split(",")[0]]


@pytest.mark.parametrize("beta, kind", [
    (0.0, MONOTONE_SHORT), (1e-3, MONOTONE_SHORT), (0.1, NON_MONOTONE), (1.0, UNTERMINATED),
])
def test_series_and_fermi_stars_at_alpha_0_are_the_polytrope_s(beta, kind):
    # at alpha = 0 the Z stage is the U stage, as zeta = 0, Omega = 1.0 and
    # dZ/dU = 1 there, and the germ's Z is its U: a series Omega and the
    # Fermi fit, both at gamma = 5/3, give the bits of Omega == 1 at 5/3,
    # the dense solution and its counts, the rises' refinement included
    g = 5.0 / 3.0
    want = solve_scaled(0.0, beta, EosSpec(A=1.0, gamma=g))
    assert want.kind == kind
    for eos in (EosSpec(A=1.0, gamma=g, omega=OmegaSeries((1.0, 0.3, -0.1))),
                fermi_fit_eos(FermiEosParams(K=1.0))):
        assert eos.state_var == "Z" and eos.gamma == g
        star = solve_scaled(0.0, beta, eos)
        assert (star.kind, star.R_plus, star.M_plus, star.first_rise_R, star.initial_rise) == (
            want.kind, want.R_plus, want.M_plus, want.first_rise_R, want.initial_rise)
        assert _solution_bits(lambda: star.dense) == _solution_bits(lambda: want.dense)


def test_fused_stage_error_shows_its_line():
    # the Z terms' EosDomainError is not a DomainSignalError: it leaves the
    # loop, and the traceback shows the loop's stage line
    f = odecore.scaled_rhs(*EDGE_STAR, SERIES_EOS)
    with pytest.raises(EosDomainError, match="1 \\+ zeta\\*Omega") as info:
        _scaled_solve(f, *EDGE_STAR, SERIES_EOS, 2.0, False)
    text = "".join(traceback.format_exception(info.value))
    assert 'File "<dp5 loop, dim 2, scaled, series Omega, degree 2>"' in text
    assert "raise outside(zeta)" in text


def outcome_radius(outcome):
    """r_+, the horizon radius or the end radius, whichever the outcome has."""
    if outcome.boundary is not None:
        return outcome.boundary.r_plus
    return outcome.horizon_r if outcome.horizon_r is not None else outcome.end_r


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    gamma=st.floats(1.1, 1.9),
    log_A=st.floats(-12.0, 12.0),
    log_u_c=st.floats(-4.0, -1.0),
    beta=st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
)
def test_solve_star_is_the_scaled_solve(gamma, log_A, log_u_c, beta):
    # the outcome depends on (alpha, beta) alone, whatever the length scale a
    eos = EosSpec(A=10.0**log_A, gamma=gamma, c=1.0)
    u_c = 10.0**log_u_c
    inp = ModelInput(eos=eos, Lambda=lambda_from_beta(beta, u_c, eos), constants=GEOM, u_c=u_c)
    sp = inp.scaling()
    _, outcome = solve_star(inp)
    star = solve_scaled(sp.alpha, sp.beta, eos)
    assert outcome.kind == star.kind
    if star.R_plus is not None:
        assert outcome_radius(outcome) / sp.a == pytest.approx(star.R_plus, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("gamma, A, kind", [
    (1.1, 1.0, UNTERMINATED),       # a ~ 1.4e18
    (1.5, 1e-10, MONOTONE_SHORT),   # a ~ 2.7e-9
])
def test_extreme_length_scales(gamma, A, kind):
    eos = EosSpec(A=A, gamma=gamma, c=1.0)
    inp = ModelInput(eos=eos, constants=GEOM, u_c=1e-3)
    profile, outcome = solve_star(inp)
    star = solve_scaled(1e-3, 0.0, eos)
    assert outcome.kind == star.kind == kind
    R_end = star.R_plus if star.R_plus is not None else star.dense.x_end
    assert outcome_radius(outcome) / inp.scaling().a == pytest.approx(R_end, rel=1e-12, abs=0.0)
    assert profile.r_end == pytest.approx(outcome_radius(outcome), rel=1e-12)


def test_a_solution_cut_at_a_terminal_event_ends_there(star_m0, eos15):
    # the step that holds the vacuum event ends past R_+, where its
    # interpolant gives U < 0: no part of the solution
    dense = solve_scaled(1e-3, 1e-3, eos15).dense
    past = 0.5 * (dense.x_end + dense.xs[-1])
    assert dense.x_end < past < dense.xs[-1]
    for x in (past, dense.xs[-1]):
        with pytest.raises(ValueError, match="outside the solution span"):
            dense(x)
    profile, outcome = star_m0
    r_plus = outcome.boundary.r_plus
    assert profile.state_at(r_plus)[0] == pytest.approx(outcome.boundary.m_plus, rel=1e-12)
    with pytest.raises(ValueError, match="outside the solution span"):
        profile.state_at(0.5 * (r_plus + profile.dense.xs[-1]))


@pytest.mark.parametrize("eos", [
    EosSpec(A=1.0, gamma=1.5),
    EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1)), eta_max=2.0),
    fermi_fit_eos(FermiEosParams(K=1.0)),
], ids=["omega-one", "series", "fermi-fit"])
def test_profile_state_columns_are_the_eos_of_u(eos):
    u_c = 1e-2
    inp = ModelInput(eos=eos, Lambda=lambda_from_beta(1e-3, u_c, eos), constants=GEOM, u_c=u_c)
    profile, outcome = solve_star(inp)
    assert outcome.kind == MONOTONE_SHORT
    # for Omega == 1 bit for bit; a series Omega's columns are closed forms of
    # its state z, the enthalpy maps invert u, and they agree within 1e-13
    us = profile.u.tolist()
    rho = np.array([eos.density_of_u(u) for u in us])
    P = np.array([eos.pressure_of_u(u) for u in us])
    if eos.state_var == "U":
        assert profile.rho.tobytes() == rho.tobytes()
        assert profile.P.tobytes() == P.tobytes()
    else:
        assert profile.rho.tobytes() == np.array(eos.rho_P_of_state(profile.state)[0]).tobytes()
        assert np.all(np.abs(profile.rho - rho) <= 1e-13 * rho)
        assert np.all(np.abs(profile.P - P) <= 1e-13 * P)


def test_h_max_bounds_the_physical_step(eos15):
    u_c = 1e-3
    a = ScalingParams.from_center(u_c, 0.0, eos15, GEOM).a
    h_max = 0.05 * a
    inp = ModelInput(eos=eos15, constants=GEOM, u_c=u_c,
                     ctrl=StepControl(rel_tol=1e-12, abs_tol=1e-14, h_max=h_max))
    profile, outcome = solve_star(inp)
    assert outcome.kind == MONOTONE_SHORT
    assert np.diff(profile.dense.xs).max() <= h_max * (1.0 + 1e-12)
    assert profile.dense.n_steps > outcome.boundary.r_plus / h_max


def assert_profile_matches_rows(profile):
    """The sample grid is the oracle's and every column equals the per-sample
    oracle on scalar dense calls, bit for bit."""
    assert profile.r.tobytes() == profile_samples(profile.dense).tobytes()
    rows = []
    for r in profile.r.tolist():
        m, x = dense_eval_scalar(profile.dense, r).tolist()
        rows.append(profile_row(r, m, x, profile.Lambda, profile.eos, profile.constants))
    for name in ("r", "m", "u", "P", "rho", "kappa", "Q", "dPdr"):
        want = np.array([row[name] for row in rows])
        assert getattr(profile, name).tobytes() == want.tobytes(), name


def test_profile_columns_match_the_sample_oracle(star_m0, eos15):
    assert_profile_matches_rows(star_m0[0])
    u_c = 1e-3
    series = EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1)), eta_max=2.0)
    a = ScalingParams.from_center(u_c, 0.0, eos15, GEOM).a
    inputs = [
        (ModelInput(eos=series, constants=GEOM, u_c=u_c), MONOTONE_SHORT),
        (ModelInput(eos=eos15, constants=GEOM, u_c=u_c, r_max=3.0 * a), UNTERMINATED),
        (ModelInput(eos=eos15, Lambda=lambda_from_beta(1.2, u_c, eos15), constants=GEOM,
                    u_c=u_c, r_max=60.0 * a), HORIZON_DEGENERATE),
    ]
    for inp, kind in inputs:
        profile, outcome = solve_star(inp)
        assert outcome.kind == kind
        assert_profile_matches_rows(profile)
    # the partial profile of a failed solve
    inp = ModelInput(eos=eos15, constants=GEOM, u_c=u_c, ctrl=StepControl(max_steps=20))
    with pytest.raises(ModelError) as info:
        solve_star(inp)
    assert info.value.profile.dense.status == "step_budget"
    assert_profile_matches_rows(info.value.profile)


def synthetic_vacuum_solution(xs, x_end):
    """A DenseSolution on the nodes xs whose state is constant over each
    step, cut by a terminal vacuum event at x_end inside its last step."""
    xs = np.array(xs)
    ys = np.column_stack([np.linspace(0.1, 0.2, xs.size), np.linspace(1e-3, 1e-4, xs.size)])
    y_end = ys[-2].copy()
    vacuum = integrate.EventRecord(x=x_end, y=y_end, index=xs.size - 2, name="vacuum", terminal=True)
    return integrate.DenseSolution(xs=xs, ys=ys, slopes=np.zeros((xs.size - 1, 2, 6)),
                                   events=[vacuum], status="event", x_end=x_end, y_end=y_end)


# the tail radii of r_end = 10, in ascending order
TAIL_10 = (10.0 - 10.0 * np.logspace(-8.0, -1.2, 140))[::-1].tolist()


@pytest.mark.parametrize("xs, n_samples", [
    # a node equal to a tail radius, which the merge keeps once, and one
    # node among the tail radii below it
    ([1.0, 4.0, 9.5, TAIL_10[70], 11.0], 4 + 140),
    # a vacuum inside the first step, whose start equals a tail radius: that
    # radius and those below it are left out
    ([TAIL_10[10], 11.0], 1 + 1 + 129),
    # a first step that starts above every tail radius: no tail survives
    ([10.0 - 1e-9, 11.0], 2),
], ids=["node-on-tail", "first-step", "no-tail"])
def test_tail_splice_matches_the_sample_oracle(eos15, xs, n_samples):
    dense = synthetic_vacuum_solution(xs, 10.0)
    inp = ModelInput(eos=eos15, constants=GEOM, u_c=1e-3)
    profile = model._build_profile(dense, inp, inp.scaling())
    assert profile.r.size == n_samples
    assert np.all(np.diff(profile.r) > 0.0)
    assert_profile_matches_rows(profile)
    # the stencil reaches 2e-3 * r_+ = 0.02 below r_+ = 10
    radii, _ = model._stencil(10.0, -1.0)
    if min(radii) < xs[0]:
        assert profile.stencil is None
        with pytest.raises(ModelError, match="boundary stencil leaves the solution span"):
            model.boundary_quantities(profile)
    else:
        assert profile.stencil == [dense_eval_scalar(dense, r).tolist() for r in radii]


def test_metric_path_forms_only_what_it_reads(eos15, monkeypatch):
    # the star_m0 solve, its metric patch and continuity report, then the
    # exponent fit: the EOS state map sees only the fit window's samples and
    # one boundary pressure, which boundary_quantities and the fit share,
    # and the quartic coefficients are formed only for the step the vacuum
    # event falls in and the steps dense output's points fall in
    mapped = []
    state_map = EosSpec.rho_P_of_state

    def map_spy(self, us):
        mapped.append(len(us))
        return state_map(self, us)

    formed, read = [], []
    quartic, evaluate = integrate._quartic, integrate.DenseSolution.__call__

    def quartic_spy(slopes):
        formed.append(len(slopes) // 12)  # steps of two components, six slopes each
        return quartic(slopes)

    def call_spy(self, x):
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        i = np.searchsorted(self.xs, xq)
        read.append(len(set((i[self.xs[i] != xq] - 1).tolist())))
        return evaluate(self, x)

    monkeypatch.setattr(EosSpec, "rho_P_of_state", map_spy)
    monkeypatch.setattr(integrate, "_quartic", quartic_spy)
    monkeypatch.setattr(integrate.DenseSolution, "__call__", call_spy)
    inp = ModelInput(eos=eos15, Lambda=lambda_from_beta(1e-3, 1e-3, eos15), constants=GEOM,
                     u_c=1e-3)
    profile, outcome = solve_star(inp)
    assert outcome.kind == MONOTONE_SHORT
    assert [ev.name for ev in profile.dense.events] == ["vacuum"]
    continuity_report(MetricPatch.from_model(profile, outcome.boundary))
    fit = boundary_exponent_fit(profile)
    assert sorted(mapped) == [1, fit.n_samples]
    assert len(read) == 1
    assert formed == [1] + read
    assert sum(formed) < profile.dense.n_steps / 10
    # no reader of P, rho, kappa, Q or dPdr ran
    assert "_derived" not in vars(profile)


def test_metric_path_makes_one_dense_call(star_m0, monkeypatch):
    # the profile's tail and its boundary stencil come from one dense-output
    # call in the solve; boundary_quantities, the metric patch, the
    # continuity report and the exponent fit make none
    calls = []
    evaluate = integrate.DenseSolution.__call__

    def spy(self, x):
        calls.append(np.size(x))
        return evaluate(self, x)

    monkeypatch.setattr(integrate.DenseSolution, "__call__", spy)
    profile, outcome = solve_star(ModelInput(eos=star_m0[0].eos, Lambda=star_m0[0].Lambda,
                                             constants=GEOM, u_c=1e-3))
    assert outcome == star_m0[1]
    report = continuity_report(MetricPatch.from_model(profile, outcome.boundary))
    boundary_exponent_fit(profile)
    assert len(calls) == 1
    assert calls[0] >= 140 + 1 + 9  # the tail, r_+ and the stencil at least
    assert len(report.rows) == 12


def test_boundary_stencil_holds_the_dense_states(star_m0):
    # the stencil's pairs are dense output's states at model._stencil's radii
    profile, outcome = star_m0
    radii, _ = model._stencil(outcome.boundary.r_plus, -1.0)
    assert len(profile.stencil) == 9
    for r, pair in zip(radii, profile.stencil):
        assert all(type(v) is float for v in pair)
        assert np.array(pair).tobytes() == dense_eval_scalar(profile.dense, r).tobytes()


def test_profile_invariants(star_m0):
    profile, outcome = star_m0
    assert np.all(np.diff(profile.m) >= 0.0)
    assert np.all(profile.kappa > 0.0)
    assert np.all(profile.rho[profile.P > 0.0] > 0.0)
    # strictly decreasing pressure on the interior samples
    inside = profile.u > 0.0
    assert np.all(profile.dPdr[inside] < 0.0)
    assert np.all(np.diff(profile.r) > 0.0)


def test_boundary_quantities(star_m0):
    profile, outcome = star_m0
    b = outcome.boundary
    # du/dr at the boundary equals -B = -Q_+/(r_+^2 kappa_+)
    assert abs(b.du_dr_minus + b.B) / b.B < 1e-5
    # kappa_+ recomputed from (r_+, m_+, Lambda) matches to 1e-12
    kap = kappa(b.r_plus, b.m_plus, profile.Lambda, profile.constants)
    assert abs(kap - b.kappa_plus) <= 1e-12 * abs(kap)
    assert b.kappa_plus > 0.0 and b.Q_plus > 0.0 and b.B > 0.0


def test_boundary_slope_matches_pointwise_dense_calls(monkeypatch):
    # every MonotoneShort star of the benchmark's stars cycle at seed 7
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import STAR_A, Stars

    eoses = {}
    n_short = 0
    for item in Stars(7).items:
        eos = eoses.setdefault(item["gamma"], EosSpec(A=STAR_A, gamma=item["gamma"]))
        profile, outcome = solve_star(ModelInput(eos=eos, Lambda=item["Lambda"], u_c=item["u_c"]))
        if outcome.kind != MONOTONE_SHORT:
            continue
        n_short += 1
        b = outcome.boundary
        assert b.du_dr_minus.hex() == du_dr_minus_pointwise(profile, b.r_plus).hex()
        assert boundary_quantities(profile) == b
    assert n_short > 40


def test_lambda0_Q_plus_is_Gm(eos15):
    inp = ModelInput(eos=eos15, Lambda=0.0, constants=GEOM, rho_c=1e-2)
    profile, outcome = solve_star(inp)
    assert outcome.kind == MONOTONE_SHORT
    b = outcome.boundary
    assert b.Q_plus == pytest.approx(GEOM.G * b.m_plus, rel=1e-12)


def test_d2u_boundary_reduction_and_fd(star_m0):
    profile, outcome = star_m0
    b = outcome.boundary
    k = profile.constants
    val = d2u_at_boundary(b, profile.Lambda, k.c)
    # Lambda = 0 reduction
    red = d2u_at_boundary(b, 0.0, k.c)
    expected0 = (2 * b.Q_plus / (b.r_plus**3 * b.kappa_plus)
                 + 2 * b.Q_plus**2 / (k.c2 * b.r_plus**4 * b.kappa_plus**2))
    assert red == pytest.approx(expected0, rel=1e-14)
    # second finite difference of u near r_+ on the dense profile; one
    # Richardson level removes the O(h) term of the one-sided stencil
    u = profile.dense

    def second_diff(h):
        return (float(u(b.r_plus)[1]) - 2 * float(u(b.r_plus - h)[1])
                + float(u(b.r_plus - 2 * h)[1])) / h**2

    h = 1e-3 * b.r_plus
    fd = 2.0 * second_diff(h / 2) - second_diff(h)
    assert fd == pytest.approx(val, rel=1e-3)


def test_d2u_unit_conversion(star_m0):
    # converting the boundary data between unit systems scales the second
    # derivative by c_SI^2 / L0^2
    profile, outcome = star_m0
    b = outcome.boundary
    L0 = 7.3e3          # metres per geometrized length unit
    c_si = SI.c
    T0 = L0 / c_si
    M0 = c_si**2 * L0 / SI.G
    from tovds.model import BoundaryQuantities

    b_si = BoundaryQuantities(
        r_plus=b.r_plus * L0,
        m_plus=b.m_plus * M0,
        kappa_plus=b.kappa_plus,
        Q_plus=b.Q_plus * L0**3 / T0**2,
        B=b.B * L0 / T0**2,
        kappa_plus_prime=b.kappa_plus_prime / L0,
        du_dr_minus=b.du_dr_minus * L0 / T0**2,
    )
    Lam_si = profile.Lambda / L0**2
    val_geom = d2u_at_boundary(b, profile.Lambda, 1.0)
    val_si = d2u_at_boundary(b_si, Lam_si, c_si)
    assert val_si == pytest.approx(val_geom * c_si**2 / L0**2, rel=1e-10)


def test_einstein_static_unterminated(eos15):
    rho_c = 0.1
    P_c = eos15.pressure_of_density(rho_c)
    Lam = FOUR_PI * GEOM.G * (rho_c + 3 * P_c / GEOM.c2) / GEOM.c2
    L = 8 * math.pi * GEOM.G * rho_c / GEOM.c2 + Lam
    inp = ModelInput(eos=eos15, Lambda=Lam, constants=GEOM, rho_c=rho_c,
                     r_max=0.9 * math.sqrt(3.0 / L))
    profile, outcome = solve_star(inp)
    assert outcome.kind == UNTERMINATED
    assert float(np.max(np.abs(profile.P - P_c)) / P_c) < 1e-6
    assert not [ev for ev in profile.dense.events if ev.name == "pressure_rise"]


def test_nonmonotone_near_gamma2(eos15):
    # gamma near 2, c large (alpha tiny), beta in [1/2, 1): the scaled-limit
    # oscillation makes the prolongation non-monotone
    eos = EosSpec(A=1.0, gamma=1.95, c=1.0)
    star = solve_scaled(alpha=1e-8, beta=0.75, eos=eos, R_max=30.0)
    assert star.kind == NON_MONOTONE
    assert star.first_rise_R is not None and star.first_rise_R > math.pi


def test_subnormal_alpha_is_the_alpha0_star():
    # at alpha = 5e-324 the closed-form Omega sees k eta round to 0; it must take
    # its eta = 0 value, not divide by zero, and give the alpha = 0 star
    eos = EosSpec(A=1.0, gamma=1.5)
    tiny, limit = solve_scaled(5e-324, 0.01, eos), solve_scaled(0.0, 0.01, eos)
    assert tiny.kind == limit.kind == MONOTONE_SHORT
    assert (tiny.R_plus, tiny.M_plus) == (limit.R_plus, limit.M_plus)


def test_an_overflow_in_a_trial_stage_rejects_the_step():
    # at alpha = 24 a trial stage's expm1 overflows, far off the solution;
    # the step is retried smaller, and the star lies between its neighbours
    eos = EosSpec(A=1.0, gamma=1.5)
    lo, star, hi = (solve_scaled(alpha, 0.0, eos) for alpha in (23.0, 24.0, 30.0))
    assert star.kind == MONOTONE_SHORT
    assert star.dense.n_rejected > 0
    assert lo.R_plus < star.R_plus < hi.R_plus


@pytest.mark.parametrize("alpha, beta, name", [
    (math.nan, 0.1, "alpha"), (math.inf, 0.1, "alpha"), (-0.1, 0.1, "alpha"),
    (0.1, math.nan, "beta"), (0.1, math.inf, "beta"), (1e-3, -0.1, "beta"),
])
def test_solve_scaled_refuses_a_bad_argument_by_name(alpha, beta, name):
    # a NaN or inf once ended as "the center germ overflows", and a negative
    # alpha or beta solved to a tag of an unphysical star
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative"):
        solve_scaled(alpha, beta, EosSpec(A=1.0, gamma=1.5))


@pytest.mark.parametrize("alpha", [1e3, 1.2e3])
def test_an_overflowing_germ_is_a_model_error(alpha):
    # at alpha = 1e3 the germ's U is -inf, and at 1.2e3 its Omega overflows:
    # a typed error whose message ends with alpha and beta, with no partial
    # solution to carry
    eos = EosSpec(A=1.0, gamma=1.5)
    for solve in (lambda: solve_scaled(alpha, 0.0, eos),
                  lambda: solve_star(ModelInput(eos=eos, u_c=alpha))):
        with pytest.raises(ModelError, match=re.escape(f"for alpha = {alpha!r} and beta = 0.0")
                           + "$") as info:
            solve()
        assert info.value.profile is None


def test_initial_rise_recorded():
    # beta well above the germ coefficient: pressure rises from the center;
    # at the germ radius 1e-6 the rise dU/dR ~ (beta - 1) R/3 clears the
    # rise floor 1e-6
    eos = EosSpec(A=1.0, gamma=1.5, c=1.0)
    u_c = 1e-3
    star = solve_scaled(u_c, 5.0, eos, R_max=10.0)
    assert star.kind == NON_MONOTONE and star.initial_rise and star.first_rise_R == 1e-6
    a = ScalingParams.from_center(u_c, 0.0, eos, GEOM).a
    inp = ModelInput(eos=eos, Lambda=lambda_from_beta(5.0, u_c, eos), constants=GEOM, u_c=u_c,
                     r_max=10.0 * a)
    profile, outcome = solve_star(inp)
    assert outcome.kind == NON_MONOTONE
    assert outcome.diagnostics["initial_rise"]
    # an initial rise is recorded at the germ radius itself
    assert outcome.first_rise_r == profile.scaling.a * 1e-6


def test_horizon_degenerate_diagnostics(eos15):
    star = solve_scaled(alpha=1e-3, beta=1.2, eos=eos15, R_max=60.0)
    assert star.kind == HORIZON_DEGENERATE


def test_lambda0_short_grid_monotone(eos15):
    for rho_c in np.logspace(-3, -0.5, 5):
        inp = ModelInput(eos=eos15, Lambda=0.0, constants=GEOM, rho_c=float(rho_c),
                         ctrl=StepControl(rel_tol=1e-10, abs_tol=1e-12))
        _, outcome = solve_star(inp)
        assert outcome.kind == MONOTONE_SHORT


def test_small_lambda_persistence(eos15):
    u_c = eos15.u_of_density(1e-2)
    inp0 = ModelInput(eos=eos15, Lambda=0.0, constants=GEOM, rho_c=1e-2)
    _, out0 = solve_star(inp0)
    Lam = lambda_from_beta(1e-4, u_c, eos15)
    inp1 = ModelInput(eos=eos15, Lambda=Lam, constants=GEOM, rho_c=1e-2)
    _, out1 = solve_star(inp1)
    assert out1.kind == MONOTONE_SHORT
    shift = abs(out1.boundary.r_plus - out0.boundary.r_plus) / out0.boundary.r_plus
    assert shift < 0.05


def test_map_continuity_in_alpha_beta(eos15):
    # empirical Lipschitz bound of (alpha, beta) -> (M, U)(R0 = 0.5)
    R0 = 0.5
    ctrl = StepControl(rel_tol=1e-11, abs_tol=1e-13)

    def state(alpha, beta):
        star = solve_scaled(alpha, beta, eos15, ctrl=ctrl, R_max=R0 + 0.1)
        return np.asarray(star.dense(R0))

    grid = np.linspace(0.0, 1.0, 5)
    vals = {(a, b): state(float(a), float(b)) for a in grid for b in grid}
    h = grid[1] - grid[0]
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            if i + 1 < grid.size:
                d = np.linalg.norm(vals[(grid[i + 1], b)] - vals[(a, b)])
                assert d < 10.0 * h
            if j + 1 < grid.size:
                d = np.linalg.norm(vals[(a, grid[j + 1])] - vals[(a, b)])
                assert d < 10.0 * h


def test_vacuum_continuation():
    k = GEOM
    m0, r0 = 0.05, 10.0
    m, u = vacuum_continuation_lambda0(m0, r0, k, r0)
    assert m == m0
    assert u == 0.0
    # limit at infinity
    _, u_inf = vacuum_continuation_lambda0(m0, r0, k, 1e12)
    target = 0.5 * k.c2 * math.log1p(-2 * k.G * m0 / (k.c2 * r0))
    assert u_inf == pytest.approx(target, rel=1e-9)
    assert u_inf < 0.0
    with pytest.raises(ValueError):
        vacuum_continuation_lambda0(6.0, 10.0, k, 11.0)  # inside Schwarzschild radius
    with pytest.raises(ValueError):
        vacuum_continuation_lambda0(m0, r0, k, 9.0)


def test_vacuum_continuation_solves_lambda0_system(eos15):
    # the continued pair satisfies the Lambda = 0 enthalpy system in vacuum
    k = GEOM
    m0, r0 = 0.05, 10.0
    for r in np.linspace(r0, 3 * r0, 7):
        m, u = vacuum_continuation_lambda0(m0, r0, k, float(r))
        dm, du = rhs_tov(float(r), (m, u), eos15, k)
        h = 1e-6 * r
        _, u_hi = vacuum_continuation_lambda0(m0, r0, k, float(r) + h)
        _, u_lo = vacuum_continuation_lambda0(m0, r0, k, float(r) - h) if r > r0 else (m0, u)
        fd = (u_hi - u_lo) / (h if r == r0 else 2 * h)
        assert dm == 0.0
        assert abs(du - fd) < 1e-9 * max(1.0, abs(du))


def test_smallness_condition(eos15):
    k = GEOM
    # Lambda = 0: beta = 0, satisfied whenever u_c <= c^2 eps0
    res = smallness_condition(1e-3, 0.0, eos15, k, epsilon0=1.0)
    assert res.satisfied and res.beta == 0.0
    # boundary case alpha = eps0 exactly is inclusive
    res2 = smallness_condition(0.5 * k.c2, 0.0, eos15, k, epsilon0=0.5)
    assert res2.alpha == 0.5 and res2.satisfied
    # Lambda above the cap: no admissible u_c
    eps0 = 0.3
    cap = FOUR_PI * k.c ** (2 * (2 - 1.5) / 0.5) * k.G * eos15.A1 * eps0 ** (1.5 / 0.5)
    res3 = smallness_condition(1e-3, cap * 1.01, eos15, k, epsilon0=eps0)
    assert not res3.lambda_feasible
    assert res3.lambda_cap == pytest.approx(cap, rel=1e-12)
    res4 = smallness_condition(eps0 * k.c2, cap * 0.99, eos15, k, epsilon0=eps0)
    assert res4.lambda_feasible and res4.satisfied
    with pytest.raises(ValueError):
        smallness_condition(1e-3, 0.0, EosSpec(A=1.0, gamma=1.1), k)


def test_model_input_validation(eos15):
    with pytest.raises(ValueError):
        ModelInput(eos=eos15, rho_c=1.0, u_c=1.0)
    with pytest.raises(ValueError):
        ModelInput(eos=eos15)
    with pytest.raises(ValueError):
        ModelInput(eos=eos15, rho_c=-1.0)
    with pytest.raises(ValueError):
        ModelInput(eos=eos15, rho_c=1.0, Lambda=-1e-3)
    # r_max must lie beyond the germ, whose radius is 1e-6 a
    a = ModelInput(eos=eos15, u_c=1e-3).scaling().a
    with pytest.raises(ValueError, match="'r_max' must exceed the germ radius"):
        ModelInput(eos=eos15, u_c=1e-3, r_max=5e-7 * a)
    assert ModelInput(eos=eos15, u_c=1e-3, r_max=2e-6 * a).r_max == 2e-6 * a


def test_model_input_refuses_two_speeds_of_light():
    # the solve reads c from constants and the EOS its own: they must agree
    with pytest.raises(ValueError, match=r"EOS has c = 1\.0 but constants has c = 2\.0"):
        ModelInput(eos=EosSpec(A=1.0, gamma=1.5), constants=Constants(c=2.0), u_c=0.5)
    ModelInput(eos=EosSpec(A=1.0, gamma=1.5, c=2.0), constants=Constants(c=2.0), u_c=0.5)


@pytest.mark.parametrize("field, value", [
    ("c", 0.0), ("c", math.inf), ("G", -1.0), ("G", 0.0), ("G", math.nan),
])
def test_constants_refuse_a_bad_field_by_name(field, value):
    # a solve with G = -1 ended in a TypeError on a complex power, G = 0 in
    # a ZeroDivisionError and G = NaN in a step control's h_max
    with pytest.raises(ValueError, match=f"^{field} must be finite and positive, got"):
        Constants(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("u_c", math.nan), ("u_c", math.inf),
    ("rho_c", math.nan), ("rho_c", math.inf),
    ("Lambda", math.nan), ("Lambda", math.inf),
    ("r_max", math.nan), ("r_max", math.inf), ("r_max", 0.0),
])
def test_model_input_rejects_bad_field(eos15, field, value):
    kwargs = {} if field == "rho_c" else {"u_c": 1e-3}
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ModelInput(eos=eos15, **kwargs)


def test_one_sided_stencil_is_one_call():
    # the stencil is one list of radii, so its reader evaluates it in one
    # call, and the limits are formed from the values of that call
    def f(r):
        return np.column_stack([r**3, np.exp(r)])

    x0, h0 = 1.0, 1e-3
    for sign in (-1.0, 1.0):
        radii, hs = model._stencil(x0, sign)
        assert hs == (h0 / 2.0 ** np.arange(4)).tolist()
        want = np.concatenate([[x0], np.column_stack([x0 + sign * np.array(hs),
                                                      x0 + 2.0 * sign * np.array(hs)]).ravel()])
        assert np.array(radii).tobytes() == want.tobytes()
        rows = f(np.array(radii)).tolist()
        v0, v1, v2 = zip(*(model._stencil_limits(col, hs, sign) for col in zip(*rows)))
        # one float per column, as the row's float64 entries would give
        assert all(type(v) is float for v in (*v0, *v1, *v2))
        assert list(v0) == [1.0, math.e]
        assert v1 == pytest.approx([3.0, math.e], rel=1e-9)
        assert v2 == pytest.approx([6.0, math.e], rel=1e-6)
        # the first three levels take the first seven radii and no others
        assert model._stencil_limits([r**3 for r in radii[:7]], hs[:3], sign) == \
            model._stencil_limits([r**3 for r in radii], hs[:3], sign)


def test_outcome_json(star_m0, tmp_path):
    profile, outcome = star_m0
    doc = outcome.to_json_dict()
    assert doc["tag"] == "MonotoneShort"
    for key in ("r_plus", "m_plus", "kappa_plus", "Q_plus", "B"):
        assert key in doc["payload"]
    json.dumps(doc)  # serializable


def test_profile_csv(star_m0, tmp_path):
    profile, _ = star_m0
    path = tmp_path / "profile.csv"
    profile.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# units=")
    assert lines[1] == "r,m,u,P,rho,kappa,Q,dPdr"
    assert len(lines) == profile.r.size + 2
    # deterministic rewrite
    path2 = tmp_path / "profile2.csv"
    profile.write_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_profile_has_tail_samples_for_fit(star_m0):
    profile, outcome = star_m0
    r_plus = outcome.boundary.r_plus
    x = r_plus - profile.r
    in_window = (x >= 1e-6 * r_plus) & (x <= 1e-2 * r_plus)
    assert int(in_window.sum()) >= 50


def test_series_omega_at_default_eta_max():
    # 1 + zeta Omega(zeta) reaches 0 near eta = 5, below the default
    # eta_max = 8; a star with u_c = 1e-3 never goes there and must solve
    def solve(**kw):
        eos = EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1)), **kw)
        return solve_star(ModelInput(eos=eos, u_c=1e-3, constants=GEOM))[1]

    out, bounded = solve(), solve(eta_max=2.0)
    assert out.kind == bounded.kind == MONOTONE_SHORT
    assert out.boundary.r_plus == pytest.approx(bounded.boundary.r_plus, rel=1e-10, abs=0.0)
    assert out.boundary.m_plus == pytest.approx(bounded.boundary.m_plus, rel=1e-10, abs=0.0)
