"""Integrator accuracy, event location, statuses and determinism."""

import linecache
import math
import traceback
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from tovds import codegen, integrate
from tovds.eos import EosSpec, OmegaSeries
from tovds.errors import DomainSignalError, RootFindError
from tovds.integrate import (
    DenseSolution,
    EventSpec,
    Stage,
    StepControl,
    integrate_adaptive,
    stage_rhs,
)
from tovds.model import solve_scaled

from oracles import bind, called_rhs, dense_eval_scalar, dp5_integrate, interp, rhs_lane_emden


def locate_event(dense: DenseSolution, guard, direction="any", root_tol=1e-12):
    """Oracle: scan a dense solution for the first directed zero of guard(x, y(x)).

    Returns (x, y) at the located root, or None when the guard never
    crosses in the requested direction.
    """

    def crossed(g0, g1):
        falling = g0 > 0.0 >= g1
        rising = g0 < 0.0 <= g1
        return {"falling": falling, "rising": rising, "any": falling or rising}[direction]

    xs = dense.xs
    g0 = float(guard(xs[0], dense.ys[0]))
    for k in range(interp(dense).shape[0]):
        x_lo, x_hi = float(xs[k]), min(float(xs[k + 1]), dense.x_end)
        if x_hi <= x_lo:
            break
        g1 = float(guard(x_hi, dense(x_hi)))
        if crossed(g0, g1):
            x_ev = x_hi if g1 == 0.0 else brentq(lambda x: guard(x, dense(x)), x_lo, x_hi,
                                                 xtol=root_tol)
            return x_ev, dense(x_ev)
        g0 = g1
    return None


def test_exponential_decay():
    sol = integrate_adaptive(called_rhs(lambda x, y: [-y[0]], 1), [1.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-14))
    assert sol.status == "completed"
    assert abs(sol.y_end[0] - math.exp(-1.0)) < 1e-9


def test_harmonic_oscillator_energy_drift():
    def rhs(x, y):
        return np.array([y[1], -y[0]])

    T = 10 * 2 * math.pi
    sol = integrate_adaptive(called_rhs(rhs, 2), [1.0, 0.0], (0.0, T),
                             StepControl(rel_tol=1e-10, abs_tol=1e-13))
    E = sol.y_end[0] ** 2 + sol.y_end[1] ** 2
    assert abs(E - 1.0) < 1e-8
    assert abs(sol.y_end[0] - math.cos(T)) < 1e-7


def test_event_sin_zero_at_pi():
    sol = integrate_adaptive(
        called_rhs(lambda x, y: np.array([math.cos(x)]), 1), [math.sin(0.5)], (0.5, 6.0),
        StepControl(rel_tol=1e-13, abs_tol=1e-15),
        events=[EventSpec("s0_", direction="falling",
                          terminal=True, root_tol=1e-13, name="zero")],
    )
    assert sol.status == "event"
    assert abs(sol.x_end - math.pi) < 1e-10
    assert sol.events[0].name == "zero"


def test_event_direction_filter():
    # y = cos grows through zero at 3pi/2 going up; falling filter must skip it
    sol = integrate_adaptive(
        called_rhs(lambda x, y: np.array([math.cos(x)]), 1), [math.sin(2.0)], (2.0, 8.0),
        StepControl(rel_tol=1e-12, abs_tol=1e-14),
        events=[EventSpec("s0_", direction="rising",
                          terminal=True, root_tol=1e-12, name="up")],
    )
    assert sol.status == "event"
    assert abs(sol.x_end - 2.0 * math.pi) < 1e-9


# guards with a simple zero at c, from flat to steep, and one whose tails are linear
BRENT_FUNCTIONS = (
    lambda x, c: (x - c) ** 3,
    lambda x, c: (x - c) ** 5,
    lambda x, c: math.tanh(x - c) + 1e-3 * (x - c) ** 3,
    lambda x, c: math.expm1(x - c),
    lambda x, c: math.sin(x - c) if abs(x - c) < 3.0 else x - c,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    kind=st.integers(0, len(BRENT_FUNCTIONS) - 1),
    c=st.floats(-3.0, 3.0),
    left=st.floats(1e-9, 5.0),
    right=st.floats(1e-9, 5.0),
    xtol=st.sampled_from([1e-14, 1e-12, 2e-12, 1e-6]),
    maxiter=st.sampled_from([4, 80]),
)
def test_brentq_matches_scipy(kind, c, left, right, xtol, maxiter):
    # integrate.brentq takes scipy's steps: the same root bits and the same
    # number of calls, or it fails to converge where scipy does
    def f(x):
        return BRENT_FUNCTIONS[kind](x, c)

    a, b = c - left, c + right
    rtol = 4.0 * math.ulp(1.0)
    try:
        want, info = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter, full_output=True)
    except RuntimeError:
        with pytest.raises(RootFindError, match="no convergence"):
            integrate.brentq(f, a, b, xtol, rtol, maxiter)
        return
    got, calls = integrate.brentq(f, a, b, xtol, rtol, maxiter)
    assert got == want and calls == info.function_calls


def test_locate_event_linear_guard():
    sol = integrate_adaptive(called_rhs(lambda x, y: np.array([1.0]), 1), [0.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-12))
    hit = locate_event(sol, lambda x, y: x - 0.5, direction="any", root_tol=1e-14)
    assert hit is not None
    assert abs(hit[0] - 0.5) < 1e-12


def test_locate_event_rejects_tangential_touch():
    # (x-0.5)^2 (x+2) touches zero without a sign change: no event
    sol = integrate_adaptive(called_rhs(lambda x, y: np.array([1.0]), 1), [0.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-12))

    def guard(x, y):
        return (x - 0.5) ** 2 * (x + 2.0)

    assert locate_event(sol, guard, direction="falling", root_tol=1e-12) is None
    assert locate_event(sol, guard, direction="any", root_tol=1e-12) is None


def test_locate_event_lane_emden_mu1():
    # U = sin(R)/R crosses zero at pi
    R0 = 1e-6
    y0 = np.array([R0**3 / 3.0, 1.0 - R0**2 / 6.0])
    sol = integrate_adaptive(called_rhs(lambda R, y: rhs_lane_emden(R, y, 1.0, 0.0), 2),
                             y0, (R0, 6.0), StepControl(rel_tol=1e-12, abs_tol=1e-14))
    hit = locate_event(sol, lambda R, y: y[1], direction="falling", root_tol=1e-12)
    assert hit is not None
    assert abs(hit[0] - math.pi) < 1e-8


def test_error_scales_with_tolerance():
    errs = []
    for rtol in (1e-6, 1e-8, 1e-10, 1e-12):
        sol = integrate_adaptive(called_rhs(lambda x, y: [-y[0]], 1), [1.0], (0.0, 2.0),
                                 StepControl(rel_tol=rtol, abs_tol=rtol * 1e-3))
        errs.append(abs(sol.y_end[0] - math.exp(-2.0)))
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= coarse * 1.5 + 1e-15


def test_dense_output_matches_nodes_exactly():
    sol = integrate_adaptive(called_rhs(lambda x, y: np.array([-y[0], y[1]]), 2), [1.0, 0.5],
                             (0.0, 1.5), StepControl(rel_tol=1e-9, abs_tol=1e-12))
    for i, x in enumerate(sol.xs):
        assert np.array_equal(sol(float(x)), sol.ys[i])


def test_dense_output_accuracy_between_nodes():
    sol = integrate_adaptive(called_rhs(lambda x, y: [-y[0]], 1), [1.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-13))
    grid = np.linspace(0.0, 1.0, 257)
    worst = max(abs(float(sol(float(x))[0]) - math.exp(-x)) for x in grid)
    assert worst < 1e-8


def test_dense_array_call_matches_scalar_calls():
    # a two-component system stopped by a terminal event, so x_end is not a node
    sol = integrate_adaptive(
        called_rhs(lambda x, y: [math.cos(x) * y[1], -y[0]], 2), [0.3, 1.0], (0.5, 8.0),
        StepControl(rel_tol=1e-9, abs_tol=1e-12),
        events=[EventSpec("s1_", direction="falling",
                          terminal=True, root_tol=1e-12, name="zero")],
    )
    assert sol.status == "event" and sol.x_end < sol.xs[-1]
    mids = 0.5 * (sol.xs[:-1] + sol.xs[1:])
    thirds = sol.xs[:-1] + (sol.xs[1:] - sol.xs[:-1]) / 3.0
    x = np.concatenate([[sol.x_end, sol.xs[0]], mids, sol.xs, thirds[::-1], [sol.x_end]])
    x = x[x <= sol.x_end]  # the solution ends at x_end, inside its last step
    want = np.array([dense_eval_scalar(sol, float(xi)) for xi in x])
    got = sol(x)
    assert got.shape == want.shape == (x.size, 2)
    assert got.tobytes() == want.tobytes()
    assert sol(list(x[:3])).tobytes() == want[:3].tobytes()
    # a scalar goes through the same routine and returns one state
    scalars = np.array([sol(float(xi)) for xi in x])
    assert scalars.shape == (x.size, 2)
    assert scalars.tobytes() == want.tobytes()
    past_end = 0.5 * (sol.x_end + sol.xs[-1])
    assert sol.x_end < past_end <= sol.xs[-1]
    for bad in (sol.xs[0] - 1e-3, past_end, sol.xs[-1], sol.xs[-1] + 1e-3):
        with pytest.raises(ValueError, match="outside the solution span"):
            sol(bad)
        with pytest.raises(ValueError, match="outside the solution span"):
            dense_eval_scalar(sol, bad)
        with pytest.raises(ValueError, match="outside the solution span"):
            sol(np.array([sol.x_end, bad, sol.xs[0]]))


def test_bitwise_determinism():
    def run():
        return integrate_adaptive(
            called_rhs(lambda x, y: np.array([math.sin(x) * y[0]]), 1), [1.0], (0.0, 3.0),
            StepControl(rel_tol=1e-10, abs_tol=1e-13),
        )

    a, b = run(), run()
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.ys, b.ys)
    assert np.array_equal(interp(a), interp(b))


def test_step_budget_exhaustion():
    sol = integrate_adaptive(called_rhs(lambda x, y: [-y[0]], 1), [1.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-13, max_steps=3))
    assert sol.status == "step_budget"
    assert sol.x_end < 1.0


def test_domain_error_keeps_last_good_state():
    def rhs(x, y):
        if x > 0.5:
            raise DomainSignalError(f"left the domain at x = {x}")
        return np.array([1.0])

    sol = integrate_adaptive(called_rhs(rhs, 1), [0.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-12))
    assert sol.status == "domain_error"
    assert sol.failure is not None
    assert sol.x_end <= 0.5 + 1e-9
    assert abs(sol.y_end[0] - sol.x_end) < 1e-9


def test_h_max_respected():
    sol = integrate_adaptive(called_rhs(lambda x, y: [-y[0]], 1), [1.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-6, abs_tol=1e-9, h_max=0.01))
    assert np.max(np.diff(sol.xs)) <= 0.01 + 1e-12


def test_control_validation():
    with pytest.raises(ValueError):
        StepControl(rel_tol=0.0)
    with pytest.raises(ValueError):
        StepControl(h_init=1.0, h_max=0.5)
    with pytest.raises(ValueError):
        StepControl(max_steps=0)
    with pytest.raises(ValueError):
        EventSpec("t_", direction="sideways")
    with pytest.raises(ValueError):
        EventSpec("t_", root_tol=0.0)


@pytest.mark.parametrize("kwargs, field", [
    (dict(rel_tol=math.nan), "rel_tol"),
    (dict(rel_tol=math.inf), "rel_tol"),
    (dict(abs_tol=math.nan), "abs_tol"),
    (dict(abs_tol=math.inf), "abs_tol"),
    (dict(h_max=0.0), "h_max"),
    (dict(h_max=-1.0), "h_max"),
    (dict(h_max=math.nan), "h_max"),
    (dict(h_init=0.0), "h_init"),
    (dict(h_init=-0.1), "h_init"),
    (dict(max_steps=2.5), "max_steps"),
    (dict(max_steps=True), "max_steps"),
], ids=["rel_nan", "rel_inf", "abs_nan", "abs_inf", "h_max_zero", "h_max_negative",
        "h_max_nan", "h_init_zero", "h_init_negative", "max_steps_float", "max_steps_bool"])
def test_control_rejects_bad_field(kwargs, field):
    with pytest.raises(ValueError, match=field):
        StepControl(**kwargs)


def test_control_default_has_no_step_cap():
    assert StepControl().h_max == math.inf
    assert StepControl(max_steps=np.int64(10)).max_steps == 10


def _bits(*values):
    return np.asarray(values, dtype=float).tobytes()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    dim=st.integers(1, 4),
    data=st.data(),
    x=st.floats(-5.0, 5.0),
    length=st.floats(0.05, 2.0),
    h=st.floats(1e-4, 1.0),
    rtol=st.sampled_from([1e-12, 1e-6, 1e3]),
    atol=st.sampled_from([1e-14, 1e-12, 1e-10]),
)
def test_loop_matches_reference_loop(dim, data, x, length, h, rtol, atol):
    # whole trajectories of the generated loop against a reference loop built
    # on the comprehension attempt, bit for bit, with the same right-hand
    # side calls, on a nonlinear right-hand side with random coefficients
    vec = st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)
    y0 = data.draw(vec)
    a = [data.draw(vec) for _ in range(dim)]

    def make_rhs(log):
        def rhs(x, y):
            out = tuple(math.sin(a[i][0] * x) + sum(a[i][j] * y[j] for j in range(dim))
                        - 0.1 * y[i] * y[i] for i in range(dim))
            log.append((x, list(y), out))
            return out
        return rhs

    ctrl = StepControl(rel_tol=rtol, abs_tol=atol, h_init=h, max_steps=300)
    want_log, got_log = [], []
    xs, ys, q, status, message, n_rhs, n_rejected = dp5_integrate(
        make_rhs(want_log), y0, (x, x + length), ctrl)
    sol = integrate_adaptive(called_rhs(make_rhs(got_log), dim), y0, (x, x + length), ctrl)

    assert len(got_log) == len(want_log) == sol.n_rhs == n_rhs
    for (xa, ya, ka), (xb, yb, kb) in zip(got_log, want_log):
        assert _bits(xa, *ya, *ka) == _bits(xb, *yb, *kb)
    assert (sol.status, sol.message, sol.n_steps, sol.n_rejected) == (
        status, message, len(xs) - 1, n_rejected)
    assert sol.xs.tobytes() == _bits(*xs)
    assert sol.ys.tobytes() == _bits(*(c for y in ys for c in y))
    assert interp(sol).tobytes() == _bits(*(c for qs in q for qi in qs for c in qi))


@pytest.mark.parametrize("stage", [2, 3, 4, 5, 6, 7])
def test_domain_exit_at_each_stage_counts_calls(stage):
    # the first attempt's stage-th call raises: n_rhs counts that call and
    # the ones before it, and the retry after it; the start slope is call 1,
    # so the first attempt's stage s is call s
    calls = []

    def rhs(x, y):
        calls.append(x)
        if len(calls) == stage:
            raise DomainSignalError(f"call {stage}")
        return (-y[0], y[0] - y[1])

    sol = integrate_adaptive(called_rhs(rhs, 2), [1.0, 0.5], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-12, h_init=0.1))
    assert sol.status == "completed"
    assert sol.n_rejected >= 1
    assert sol.n_rhs == len(calls) == 1 + (stage - 1) + 6 * (sol.n_steps + sol.n_rejected - 1)
    # the retry starts again from x = 0 with a quarter of the step
    assert calls[stage] == integrate._C2 * 0.025


def test_overflow_in_a_stage_is_a_rejected_step():
    # an OverflowError in a trial stage is counted and retried as a domain
    # exit is; one that persists ends the run as domain_error
    calls = []

    def rhs(x, y):
        calls.append(x)
        if len(calls) == 4:
            raise OverflowError("math range error")
        return (-y[0], y[0] - y[1])

    sol = integrate_adaptive(called_rhs(rhs, 2), [1.0, 0.5], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-12, h_init=0.1))
    assert sol.status == "completed"
    assert sol.n_rhs == len(calls) == 1 + 3 + 6 * (sol.n_steps + sol.n_rejected - 1)
    assert calls[4] == integrate._C2 * 0.025

    def overflowing(x, y):
        if x > 0.5:
            raise OverflowError("math range error")
        return (1.0,)

    sol = integrate_adaptive(called_rhs(overflowing, 1), [0.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-12))
    assert sol.status == "domain_error"
    assert isinstance(sol.failure, OverflowError)
    assert 0.5 - 1e-9 < sol.x_end <= 0.5


def test_three_component_linear_system_against_closed_form():
    # a decaying rotation in (y0, y1) and a decay in y2:
    # y0 = exp(-d x) cos(w x), y1 = exp(-d x) sin(w x), y2 = 2 exp(-c x)
    d, w, c = 0.3, 2.0, 1.1

    def exact(x):
        return np.array([math.exp(-d * x) * math.cos(w * x), math.exp(-d * x) * math.sin(w * x),
                         2.0 * math.exp(-c * x)])

    sol = integrate_adaptive(
        called_rhs(lambda x, y: (-d * y[0] - w * y[1], w * y[0] - d * y[1], -c * y[2]), 3),
        [1.0, 0.0, 2.0], (0.0, 3.0), StepControl(rel_tol=1e-12, abs_tol=1e-14),
        events=[EventSpec("s0_", direction="falling", root_tol=1e-13,
                          name="down")],
    )
    assert sol.status == "completed"
    assert sol.ys.shape[1] == 3 and interp(sol).shape[1:] == (3, 4)
    assert np.max(np.abs(sol.y_end - exact(3.0))) < 1e-9
    grid = np.linspace(0.0, 3.0, 301)
    assert np.max(np.abs(sol(grid) - np.array([exact(x) for x in grid]))) < 1e-9
    assert [ev.name for ev in sol.events] == ["down"]  # the rising zero at 3 pi/4 is skipped
    ev = sol.events[0]
    assert abs(ev.x - math.pi / (2.0 * w)) < 1e-9
    assert np.max(np.abs(ev.y - exact(ev.x))) < 1e-9


def test_loop_built_once_per_dimension_and_stage(monkeypatch):
    built = []
    define = codegen.define

    def recording(source, filename, namespace):
        if filename.startswith("<dp5 loop"):
            built.append(filename)
        return define(source, filename, namespace)

    monkeypatch.setattr(integrate, "_LOOPS", {})
    monkeypatch.setattr(codegen, "define", recording)
    ctrl = StepControl()
    for _ in range(3):
        integrate_adaptive(called_rhs(lambda x, y: (y[1], -y[0], -y[2]), 3), [1.0, 0.0, 1.0],
                           (0.0, 1.0), ctrl)
    integrate_adaptive(called_rhs(lambda x, y: (-y[0],), 1), [1.0], (0.0, 1.0), ctrl)
    # the stages that call a function, one per dimension, are equal for
    # every function, and so share one loop
    rhs = called_rhs(lambda x, y: (y[1], -y[0], -y[2]), 3)
    make = integrate._loop(3, rhs.stage, ())
    integrate_adaptive(rhs, [1.0, 0.0, 1.0], (0.0, 1.0), ctrl)
    series = EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1)), eta_max=2.0)
    for eos in (EosSpec(A=1.0, gamma=1.5), EosSpec(A=2.0, gamma=1.7), series, series):
        solve_scaled(0.01, 0.001, eos)
    guards = "guards vacuum, horizon, pressure_rise"
    assert built == ["<dp5 loop, dim 3, call>", "<dp5 loop, dim 1, call>",
                     f"<dp5 loop, dim 2, scaled, closed-form Omega, {guards}>",
                     f"<dp5 loop, dim 2, scaled, series Omega, degree 2, {guards}>"]
    assert integrate._loop(3, called_rhs(print, 3).stage, ()) is make


def test_stage_may_not_use_the_loops_names():
    stage = Stage(name="clash", x="x", y=("u",), dy=("du",), body="h = -u\ndu = h\n", consts=())
    with pytest.raises(ValueError, match=r"names of the step loop: \['h', 'x'\]"):
        integrate_adaptive(stage_rhs(stage, {}), [1.0], (0.0, 1.0), StepControl())


@pytest.mark.parametrize("body, rebound", [
    ("u = 2.0 * u\ndu = -u\n", "u"),
    ("t += 0.0\ndu = -u\n", "t"),
])
def test_stage_may_not_assign_its_abscissa_or_state(body, rebound):
    # the guards read the abscissa and state the FSAL stage was
    # given, so a body that rebinds them would move the guards' values
    stage = Stage(name="rebinds", x="t", y=("u",), dy=("du",), body=body, consts=())
    with pytest.raises(ValueError, match=rf"assigns its own abscissa or state: \['{rebound}'\]"):
        integrate_adaptive(stage_rhs(stage, {}), [1.0], (0.0, 1.0), StepControl())


def test_plain_callable_is_not_a_right_hand_side():
    with pytest.raises(TypeError, match="made by stage_rhs"):
        integrate_adaptive(lambda x, y: [-y[0]], [1.0], (0.0, 1.0), StepControl())


@pytest.mark.parametrize("rhs, expr, name", [
    (called_rhs(lambda x, y: [-y[0]], 1), "s0_ - level", "level"),
], ids=["unknown_name"])
def test_bad_event_is_rejected(rhs, expr, name):
    message = rf"not its stage's abscissa, state, slopes, constants or locals: \['{name}'\]$"
    with pytest.raises(ValueError, match=message):
        integrate_adaptive(rhs, [1.0], (0.0, 1.0), StepControl(), events=[EventSpec(expr)])


def test_guard_may_read_a_stage_local():
    # a guard over a name the stage sets, here v = -u, reads the FSAL stage's
    # value at a step end and runs the stage where it is refined, one call
    # counted per point: the bits, events and counts of the same guard over
    # the slope du, which equals v; both guards' functions run the body
    local = stage_rhs(Stage("local", "t", ("u",), ("du",), "v = -u\ndu = v\n", ()), {})
    for expr in ("v + 0.5", "du + 0.5"):
        assert integrate._guard_text(local.stage, (EventSpec(expr),))[0] == (
            f"def guard0(t, y):\n    u, = y\n    v = -u\n    du = v\n    return {expr}\n"
            "guards = ((guard0, True), )\n")
    runs = [integrate_adaptive(local, [1.0], (0.0, 2.0), StepControl(),
                               events=[EventSpec(expr, direction="rising", name="half")])
            for expr in ("v + 0.5", "du + 0.5")]
    for d in runs:
        assert [ev.name for ev in d.events] == ["half"]
        assert abs(d.events[0].x - math.log(2.0)) < 1e-9
    assert [(ev.x, ev.y.tobytes()) for ev in runs[0].events] == [
        (ev.x, ev.y.tobytes()) for ev in runs[1].events]
    assert runs[0].n_rhs == runs[1].n_rhs > runs[0].n_steps * 6


def test_every_stage_run_is_counted():
    # the body calls tick once per run: the start run, the initial step's
    # probe, six runs per step attempt and one per refinement point of a
    # guard over a slope or a local are every run, and n_rhs counts each;
    # a guard over the state runs no stage, and all three locate the same
    # crossing, u = 1/2 at t = log 2
    runs = []
    stage = Stage("counted", "t", ("u",), ("du",), "v = -u + tick()\ndu = v\n", ("tick",))
    rhs = stage_rhs(stage, {"tick": lambda: runs.append(1) or 0.0})
    found = []
    for expr, direction in (("u - 0.5", "falling"), ("du + 0.5", "rising"), ("v + 0.5", "rising")):
        runs.clear()
        d = integrate_adaptive(rhs, [1.0], (0.0, 2.0), StepControl(),
                               events=[EventSpec(expr, direction=direction, name="half")])
        assert len(runs) == d.n_rhs, expr
        assert abs(d.events[0].x - math.log(2.0)) < 1e-9
        found.append([(ev.x, ev.y.tobytes(), ev.name) for ev in d.events])
    assert found[0] == found[1] == found[2]


def test_start_state_of_the_wrong_length_is_rejected():
    message = r"y0 has 2 components, but stage 'call' has the state s0_$"
    with pytest.raises(ValueError, match=message):
        integrate_adaptive(called_rhs(lambda x, y: [-y[0]], 1), [1.0, 2.0], (0.0, 1.0),
                           StepControl())


def test_interpolant_is_formed_on_first_read(monkeypatch):
    # a sweep reads only a solve's tag and end point: the solve forms the
    # quartic coefficients of only the step its vacuum event falls in, and
    # a dense-output call those of the distinct steps its points fall in,
    # each once, in one call of the row function
    formed = []
    quartic = integrate._quartic

    def spy(slopes):
        formed.append(len(slopes) // 12)  # steps of two components, six slopes each
        return quartic(slopes)

    monkeypatch.setattr(integrate, "_quartic", spy)
    dense = solve_scaled(0.01, 0.001, EosSpec(A=1.0, gamma=1.5)).dense
    assert [ev.name for ev in dense.events] == ["vacuum"]
    assert formed == [1]
    mid3, mid5 = (0.5 * (dense.xs[k] + dense.xs[k + 1]) for k in (3, 5))
    ys = dense([mid5, mid3, dense.xs[4], mid5])
    assert formed == [1, 2]
    y_mid = dense(mid3)
    assert formed == [1, 2, 1]
    assert y_mid.tobytes() == ys[1].tobytes()
    assert ys[2].tobytes() == dense.ys[4].tobytes()
    assert dense([dense.xs[4]]).tobytes() == dense.ys[4].tobytes()
    assert dense([]).shape == (0, 2)
    assert formed == [1, 2, 1, 0, 0]
    # the oracle reads every step's coefficients, through interp, per call
    for x, y in ((mid3, y_mid), (mid5, ys[0]), (mid5, ys[3])):
        assert y.tobytes() == np.asarray(dense_eval_scalar(dense, x)).tobytes()
    assert formed == [1, 2, 1, 0, 0] + [dense.n_steps] * 3


def test_generated_loop_lines_show_in_tracebacks():
    # the loop's source is registered with linecache, so a traceback through
    # it shows the stage's line
    calls = 0

    def rhs(x, y):
        nonlocal calls
        calls += 1
        if calls == 3:  # the start slope, then stages 2 and 3 of the first attempt
            raise ValueError("stage 3")
        return (-y[0],)

    with pytest.raises(ValueError, match="stage 3") as info:
        integrate_adaptive(called_rhs(rhs, 1), [1.0], (0.0, 1.0), StepControl(h_init=0.1))
    text = "".join(traceback.format_exception(info.value))
    assert 'File "<dp5 loop, dim 1, call>"' in text
    # the stage calls the right-hand side on its arguments, which the line
    # before it computes, with the tableau's constants written in as literals
    assert "d0_, = fn(t_, [s0_])" in text
    lines = linecache.getlines("<dp5 loop, dim 1, call>")
    call = lines.index("                d0_, = fn(t_, [s0_])\n", lines.index("                calls = 2\n"))
    assert lines[call - 2:call] == ["                t_ = x + 0.3 * h\n",
                                    "                s0_, = y0 + h * (0.075 * k1_0 + 0.225 * k2_0),\n"]


def test_nonterminal_events_recorded():
    sol = integrate_adaptive(
        called_rhs(lambda x, y: np.array([math.cos(x)]), 1), [0.0], (0.0, 10.0),
        StepControl(rel_tol=1e-11, abs_tol=1e-13),
        events=[EventSpec("s0_", direction="falling",
                          terminal=False, root_tol=1e-12, name="down")],
    )
    assert sol.status == "completed"
    downs = [ev.x for ev in sol.events if ev.name == "down"]
    assert len(downs) == 2
    assert abs(downs[0] - math.pi) < 1e-9
    assert abs(downs[1] - 3.0 * math.pi) < 1e-9


def test_slope_guard_reads_the_step_slope_and_counts_refinements():
    # dy/dx = cos x: the slope guard dy[0] falls through zero at pi/2 and
    # 5 pi/2.  At step ends it reads the slopes the steps computed, and each
    # refinement point makes one counted call, so every rhs call is in n_rhs
    calls = 0
    guard_calls = 0

    def rhs(x, y):
        nonlocal calls
        calls += 1
        return (math.cos(x),)

    def slope_guard(x, y, dy):
        nonlocal guard_calls
        guard_calls += 1
        return dy[0]

    ctrl = StepControl(rel_tol=1e-11, abs_tol=1e-13)
    sol = integrate_adaptive(bind(called_rhs(rhs, 1), g=slope_guard), [0.0], (0.0, 10.0), ctrl,
                             events=[EventSpec("float(g(t_, [s0_], (d0_,)))",
                                               direction="falling", name="top")])
    assert calls == sol.n_rhs
    tops = [ev.x for ev in sol.events]
    assert len(tops) == 2
    assert abs(tops[0] - 0.5 * math.pi) < 1e-9
    assert abs(tops[1] - 2.5 * math.pi) < 1e-9
    # the same guard spelled on (x, y) locates the same bits with no calls
    plain = integrate_adaptive(bind(called_rhs(rhs, 1), g=lambda x, y: math.cos(x)), [0.0],
                               (0.0, 10.0), ctrl,
                               events=[EventSpec("float(g(t_, [s0_]))", direction="falling",
                                                 name="top")])
    assert [ev.x for ev in plain.events] == tops
    assert np.array_equal(plain.ys, sol.ys)
    # refinement calls: guard calls beyond one at x0 and one per step end
    assert sol.n_rhs - plain.n_rhs == guard_calls - 1 - sol.n_steps > 0


def test_rhs_return_type_does_not_change_the_trajectory():
    # a function called from a stage may return a tuple, a list or an
    # ndarray of floats
    R0 = 1e-6
    y0 = [R0**3 / 3.0, 1.0 - R0**2 / 6.0]
    vacuum = EventSpec("s1_", direction="falling", terminal=True,
                       root_tol=1e-12, name="vacuum")

    def run(wrap):
        rhs = called_rhs(lambda R, y: wrap(rhs_lane_emden(R, y, 1.5, 0.0)), 2)
        return integrate_adaptive(rhs, y0, (R0, 6.0), StepControl(rel_tol=1e-10, abs_tol=1e-12),
                                  events=[vacuum])

    ref = run(tuple)
    assert ref.status == "event"
    for wrap in (list, np.array):
        sol = run(wrap)
        assert np.array_equal(sol.xs, ref.xs)
        assert np.array_equal(sol.ys, ref.ys)
        assert np.array_equal(interp(sol), interp(ref))
        assert sol.x_end == ref.x_end
        assert np.array_equal(sol.y_end, ref.y_end)


def test_rejections_counted():
    # every attempt is an accepted step or a rejection, and makes six RHS
    # calls after the start slope (and the initial-step probe, when there is one)
    def rhs(x, y):
        return [-50.0 * y[0]]

    sol = integrate_adaptive(called_rhs(rhs, 1), [1.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-13, h_init=0.5))
    assert sol.status == "completed"
    assert sol.n_rejected > 0  # the oversized first step cannot pass
    assert sol.n_rhs == 1 + 6 * (sol.n_steps + sol.n_rejected)

    sol = integrate_adaptive(called_rhs(rhs, 1), [1.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-13))
    assert sol.n_rhs == 2 + 6 * (sol.n_steps + sol.n_rejected)

    budget = 7
    sol = integrate_adaptive(called_rhs(rhs, 1), [1.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-13, h_init=0.5,
                                         max_steps=budget))
    assert sol.status == "step_budget"
    assert sol.n_rejected > 0
    assert sol.n_steps + sol.n_rejected == budget


def test_domain_retries_counted_as_rejections():
    def rhs(x, y):
        if x > 0.5:
            raise DomainSignalError(f"left the domain at x = {x}")
        return (1.0,)

    ctrl = StepControl(rel_tol=1e-10, abs_tol=1e-12)
    sol = integrate_adaptive(called_rhs(rhs, 1), [0.0], (0.0, 1.0), ctrl)
    assert sol.status == "domain_error"
    assert sol.n_rejected > 0
    # the run took exactly n_steps + n_rejected attempts
    attempts = sol.n_steps + sol.n_rejected
    capped = integrate_adaptive(called_rhs(rhs, 1), [0.0], (0.0, 1.0),
                                replace(ctrl, max_steps=attempts))
    assert capped.status == "domain_error"
    capped = integrate_adaptive(called_rhs(rhs, 1), [0.0], (0.0, 1.0),
                                replace(ctrl, max_steps=attempts - 1))
    assert capped.status == "step_budget"


def test_non_finite_slope_ends_in_underflow():
    # a slope that turns non-finite past x = 0.5 is retried smaller until the
    # step underflows; the state before it is kept
    def rhs(x, y):
        return (math.nan if x > 0.5 else 1.0,)

    sol = integrate_adaptive(called_rhs(rhs, 1), [0.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-12))
    assert sol.status == "step_underflow"
    assert "non-finite" in sol.message
    assert sol.n_rejected > 0
    assert sol.x_end <= 0.5
    assert abs(sol.y_end[0] - sol.x_end) < 1e-12


def test_non_finite_second_stage_slope_is_retried():
    # the error estimate does not weigh k2, so a non-finite k2 alone must
    # still be caught; this right-hand side ignores y, so only k2 is non-finite
    calls = []

    def rhs(x, y):
        calls.append(x)
        return (math.nan if len(calls) == 2 else 1.0,)

    sol = integrate_adaptive(called_rhs(rhs, 1), [0.0], (0.0, 1.0), StepControl(h_init=0.1))
    assert sol.status == "completed"
    assert sol.n_rejected == 1
    assert abs(sol.y_end[0] - 1.0) < 1e-12


def test_non_finite_start_state_is_rejected():
    with pytest.raises(ValueError, match=r"y0 must be finite, got \[nan\]"):
        integrate_adaptive(called_rhs(lambda x, y: [-y[0]], 1), [math.nan], (0.0, 1.0), StepControl())


@pytest.mark.parametrize("h_init", [None, 0.1])
def test_non_finite_start_slope_ends_at_once(h_init):
    # no step from x0 can pass, so the run ends before the first attempt
    sol = integrate_adaptive(called_rhs(lambda x, y: [math.nan], 1), [1.0], (0.0, 1.0),
                             StepControl(h_init=h_init))
    assert sol.status == "step_underflow"
    assert sol.message == "non-finite right-hand side at x = 0"
    assert (sol.n_steps, sol.n_rhs, sol.n_rejected) == (0, 1, 0)


def test_domain_error_at_the_start_takes_no_step():
    # an overflow in the start slope ends the run as a domain exit does
    for error in (DomainSignalError, OverflowError):
        def rhs(x, y):
            raise error("undefined here")

        sol = integrate_adaptive(called_rhs(rhs, 1), [1.0], (0.0, 1.0), StepControl())
        assert sol.status == "domain_error"
        assert sol.message == "right-hand side undefined at start: undefined here"
        assert isinstance(sol.failure, error)
        assert (sol.n_steps, sol.n_rhs, sol.n_rejected) == (0, 1, 0)
        assert sol.xs.tolist() == [0.0] and sol.y_end.tolist() == [1.0]


def test_initial_step_probe_without_a_finite_slope_falls_back():
    # a probe slope that is not finite, or a probe that leaves the domain or
    # overflows, leaves the start slope's estimate d1 in place of d2; an
    # infinite d2 would give a zero first step
    y0, f0, rtol, atol = [1.0], [2.0], 1e-6, 1e-9
    scale = atol + rtol * y0[0]
    d1 = f0[0] / scale
    h0 = 0.01 * (y0[0] / scale) / d1
    want = min(100.0 * h0, (0.01 / d1) ** 0.2)

    def domain_exit(x, y):
        raise DomainSignalError("probe left the domain")

    def overflow(x, y):
        raise OverflowError("math range error")

    for probe in (lambda x, y: [math.inf], lambda x, y: [math.nan], domain_exit, overflow):
        h = integrate._initial_step(probe, 0.0, y0, f0, rtol, atol, math.inf)
        assert h == pytest.approx(want, rel=1e-14)


def test_zero_slope_starts_with_the_floor_step():
    # d1 = d2 = 0: the first step is the 1e-6 floor, and a zero error then
    # grows each step by the largest factor
    sol = integrate_adaptive(called_rhs(lambda x, y: [0.0, 0.0], 2), [1.0, 2.0], (0.0, 1.0),
                             StepControl())
    assert sol.status == "completed"
    assert sol.xs[1] == 1e-6
    assert sol.xs[2] == 1e-6 + 1e-6 * 5.0
    assert sol.y_end.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("span", [(1.0, 1.0), (1.0, 0.5), (0.0, math.nan)])
def test_empty_or_reversed_span_is_rejected(span):
    with pytest.raises(ValueError, match="span must satisfy x1 > x0"):
        integrate_adaptive(called_rhs(lambda x, y: [-y[0]], 1), [1.0], span, StepControl())


@pytest.mark.parametrize("root_tol", [math.inf, math.nan, 0.0, -1e-12])
def test_event_rejects_bad_root_tol(root_tol):
    with pytest.raises(ValueError, match="root_tol must be finite and positive"):
        EventSpec("s0_", root_tol=root_tol)

