"""Integrator accuracy, event location, statuses and determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from tovds.errors import DomainSignalError
from tovds.integrate import (
    DenseSolution,
    EventSpec,
    StepControl,
    integrate_adaptive,
)
from tovds.odecore import rhs_lane_emden


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
    for k in range(dense.interp.shape[0]):
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
    sol = integrate_adaptive(lambda x, y: [-y[0]], [1.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-14))
    assert sol.status == "completed"
    assert abs(sol.y_end[0] - math.exp(-1.0)) < 1e-9


def test_harmonic_oscillator_energy_drift():
    def rhs(x, y):
        return np.array([y[1], -y[0]])

    T = 10 * 2 * math.pi
    sol = integrate_adaptive(rhs, [1.0, 0.0], (0.0, T),
                             StepControl(rel_tol=1e-10, abs_tol=1e-13))
    E = sol.y_end[0] ** 2 + sol.y_end[1] ** 2
    assert abs(E - 1.0) < 1e-8
    assert abs(sol.y_end[0] - math.cos(T)) < 1e-7


def test_event_sin_zero_at_pi():
    sol = integrate_adaptive(
        lambda x, y: np.array([math.cos(x)]), [math.sin(0.5)], (0.5, 6.0),
        StepControl(rel_tol=1e-13, abs_tol=1e-15),
        events=[EventSpec(guard=lambda x, y: y[0], direction="falling",
                          terminal=True, root_tol=1e-13, name="zero")],
    )
    assert sol.status == "event"
    assert abs(sol.x_end - math.pi) < 1e-10
    assert sol.events[0].name == "zero"


def test_event_direction_filter():
    # y = cos grows through zero at 3pi/2 going up; falling filter must skip it
    sol = integrate_adaptive(
        lambda x, y: np.array([math.cos(x)]), [math.sin(2.0)], (2.0, 8.0),
        StepControl(rel_tol=1e-12, abs_tol=1e-14),
        events=[EventSpec(guard=lambda x, y: y[0], direction="rising",
                          terminal=True, root_tol=1e-12, name="up")],
    )
    assert sol.status == "event"
    assert abs(sol.x_end - 2.0 * math.pi) < 1e-9


def test_locate_event_linear_guard():
    sol = integrate_adaptive(lambda x, y: np.array([1.0]), [0.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-12))
    hit = locate_event(sol, lambda x, y: x - 0.5, direction="any", root_tol=1e-14)
    assert hit is not None
    assert abs(hit[0] - 0.5) < 1e-12


def test_locate_event_rejects_tangential_touch():
    # (x-0.5)^2 (x+2) touches zero without a sign change: no event
    sol = integrate_adaptive(lambda x, y: np.array([1.0]), [0.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-12))

    def guard(x, y):
        return (x - 0.5) ** 2 * (x + 2.0)

    assert locate_event(sol, guard, direction="falling", root_tol=1e-12) is None
    assert locate_event(sol, guard, direction="any", root_tol=1e-12) is None


def test_locate_event_lane_emden_mu1():
    # U = sin(R)/R crosses zero at pi
    R0 = 1e-6
    y0 = np.array([R0**3 / 3.0, 1.0 - R0**2 / 6.0])
    sol = integrate_adaptive(lambda R, y: rhs_lane_emden(R, y, 1.0, 0.0),
                             y0, (R0, 6.0), StepControl(rel_tol=1e-12, abs_tol=1e-14))
    hit = locate_event(sol, lambda R, y: y[1], direction="falling", root_tol=1e-12)
    assert hit is not None
    assert abs(hit[0] - math.pi) < 1e-8


def test_error_scales_with_tolerance():
    errs = []
    for rtol in (1e-6, 1e-8, 1e-10, 1e-12):
        sol = integrate_adaptive(lambda x, y: [-y[0]], [1.0], (0.0, 2.0),
                                 StepControl(rel_tol=rtol, abs_tol=rtol * 1e-3))
        errs.append(abs(sol.y_end[0] - math.exp(-2.0)))
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= coarse * 1.5 + 1e-15


def test_dense_output_matches_nodes_exactly():
    sol = integrate_adaptive(lambda x, y: np.array([-y[0], y[1]]), [1.0, 0.5],
                             (0.0, 1.5), StepControl(rel_tol=1e-9, abs_tol=1e-12))
    for i, x in enumerate(sol.xs):
        assert np.array_equal(sol(float(x)), sol.ys[i])


def test_dense_output_accuracy_between_nodes():
    sol = integrate_adaptive(lambda x, y: [-y[0]], [1.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-13))
    grid = np.linspace(0.0, 1.0, 257)
    worst = max(abs(float(sol(float(x))[0]) - math.exp(-x)) for x in grid)
    assert worst < 1e-8


def test_dense_array_call_matches_scalar_calls():
    # a two-component system stopped by a terminal event, so x_end is not a node
    sol = integrate_adaptive(
        lambda x, y: [math.cos(x) * y[1], -y[0]], [0.3, 1.0], (0.5, 8.0),
        StepControl(rel_tol=1e-9, abs_tol=1e-12),
        events=[EventSpec(guard=lambda x, y: y[1], direction="falling",
                          terminal=True, root_tol=1e-12, name="zero")],
    )
    assert sol.status == "event" and sol.x_end < sol.xs[-1]
    mids = 0.5 * (sol.xs[:-1] + sol.xs[1:])
    thirds = sol.xs[:-1] + (sol.xs[1:] - sol.xs[:-1]) / 3.0
    x = np.concatenate([[sol.x_end, sol.x0], mids, sol.xs, thirds[::-1], [sol.x_end]])
    want = np.array([sol(float(xi)) for xi in x])
    got = sol(x)
    assert got.shape == want.shape == (x.size, 2)
    assert got.tobytes() == want.tobytes()
    assert sol(list(x[:3])).tobytes() == want[:3].tobytes()
    for bad in (sol.x0 - 1e-3, sol.xs[-1] + 1e-3):
        with pytest.raises(ValueError):
            sol(bad)
        with pytest.raises(ValueError, match="outside the solution span"):
            sol(np.array([sol.x_end, bad, sol.x0]))


def test_bitwise_determinism():
    def run():
        return integrate_adaptive(
            lambda x, y: np.array([math.sin(x) * y[0]]), [1.0], (0.0, 3.0),
            StepControl(rel_tol=1e-10, abs_tol=1e-13),
        )

    a, b = run(), run()
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.ys, b.ys)
    assert np.array_equal(a.interp, b.interp)


def test_step_budget_exhaustion():
    sol = integrate_adaptive(lambda x, y: [-y[0]], [1.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-13, max_steps=3))
    assert sol.status == "step_budget"
    assert sol.x_end < 1.0


def test_domain_error_keeps_last_good_state():
    def rhs(x, y):
        if x > 0.5:
            raise DomainSignalError(f"left the domain at x = {x}")
        return np.array([1.0])

    sol = integrate_adaptive(rhs, [0.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-12))
    assert sol.status == "domain_error"
    assert sol.failure is not None
    assert sol.x_end <= 0.5 + 1e-9
    assert abs(sol.y_end[0] - sol.x_end) < 1e-9


def test_h_max_respected():
    sol = integrate_adaptive(lambda x, y: [-y[0]], [1.0], (0.0, 1.0),
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
        EventSpec(guard=lambda x, y: x, direction="sideways")
    with pytest.raises(ValueError):
        EventSpec(guard=lambda x, y: x, root_tol=0.0)


def test_nonterminal_events_recorded():
    sol = integrate_adaptive(
        lambda x, y: np.array([math.cos(x)]), [0.0], (0.0, 10.0),
        StepControl(rel_tol=1e-11, abs_tol=1e-13),
        events=[EventSpec(guard=lambda x, y: y[0], direction="falling",
                          terminal=False, root_tol=1e-12, name="down")],
    )
    assert sol.status == "completed"
    downs = [ev.x for ev in sol.events if ev.name == "down"]
    assert len(downs) == 2
    assert abs(downs[0] - math.pi) < 1e-9
    assert abs(downs[1] - 3.0 * math.pi) < 1e-9


def test_rhs_return_type_does_not_change_the_trajectory():
    # the right-hand side may return a tuple, a list or an ndarray of floats
    R0 = 1e-6
    y0 = [R0**3 / 3.0, 1.0 - R0**2 / 6.0]
    vacuum = EventSpec(guard=lambda R, y: y[1], direction="falling", terminal=True,
                       root_tol=1e-12, name="vacuum")

    def run(wrap):
        return integrate_adaptive(lambda R, y: wrap(rhs_lane_emden(R, y, 1.5, 0.0)),
                                  y0, (R0, 6.0), StepControl(rel_tol=1e-10, abs_tol=1e-12),
                                  events=[vacuum])

    ref = run(tuple)
    assert ref.status == "event"
    for wrap in (list, np.array):
        sol = run(wrap)
        assert np.array_equal(sol.xs, ref.xs)
        assert np.array_equal(sol.ys, ref.ys)
        assert np.array_equal(sol.interp, ref.interp)
        assert sol.x_end == ref.x_end
        assert np.array_equal(sol.y_end, ref.y_end)


def test_rejections_counted():
    # every attempt is an accepted step or a rejection, and makes six RHS
    # calls after the start slope (and the initial-step probe, when there is one)
    def rhs(x, y):
        return [-50.0 * y[0]]

    sol = integrate_adaptive(rhs, [1.0], (0.0, 1.0),
                             StepControl(rel_tol=1e-10, abs_tol=1e-13, h_init=0.5))
    assert sol.status == "completed"
    assert sol.n_rejected > 0  # the oversized first step cannot pass
    assert sol.n_rhs == 1 + 6 * (sol.n_steps + sol.n_rejected)

    sol = integrate_adaptive(rhs, [1.0], (0.0, 1.0), StepControl(rel_tol=1e-10, abs_tol=1e-13))
    assert sol.n_rhs == 2 + 6 * (sol.n_steps + sol.n_rejected)

    budget = 7
    sol = integrate_adaptive(rhs, [1.0], (0.0, 1.0),
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
    sol = integrate_adaptive(rhs, [0.0], (0.0, 1.0), ctrl)
    assert sol.status == "domain_error"
    assert sol.n_rejected > 0
    # the run took exactly n_steps + n_rejected attempts
    attempts = sol.n_steps + sol.n_rejected
    capped = integrate_adaptive(rhs, [0.0], (0.0, 1.0), replace(ctrl, max_steps=attempts))
    assert capped.status == "domain_error"
    capped = integrate_adaptive(rhs, [0.0], (0.0, 1.0), replace(ctrl, max_steps=attempts - 1))
    assert capped.status == "step_budget"


def test_non_finite_slope_ends_in_underflow():
    # a slope that turns non-finite past x = 0.5 is retried smaller until the
    # step underflows; the state before it is kept
    def rhs(x, y):
        return (math.nan if x > 0.5 else 1.0,)

    sol = integrate_adaptive(rhs, [0.0], (0.0, 1.0), StepControl(rel_tol=1e-10, abs_tol=1e-12))
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

    sol = integrate_adaptive(rhs, [0.0], (0.0, 1.0), StepControl(h_init=0.1))
    assert sol.status == "completed"
    assert sol.n_rejected == 1
    assert abs(sol.y_end[0] - 1.0) < 1e-12
