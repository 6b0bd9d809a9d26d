"""Adaptive embedded Runge-Kutta 5(4) integration with dense output and events.

Dormand-Prince pair, FSAL, with the standard quartic free interpolant
(Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6).  Event guards are
root-located on the interpolant by a safeguarded bisection/secant hybrid
(scipy brentq), and a terminal event truncates the solution at the located
abscissa.  Everything is deterministic: identical inputs give
bitwise-identical trajectories within one build.

The systems solved here have two or three components, where a numpy
operation costs far more than the arithmetic it does.  So the step loop runs
on Python floats: the state, the seven stage slopes, the error norm and the
interpolant coefficients are floats in lists or tuples, the right-hand side
receives the state as a list of floats and may return any sequence of floats,
and the accepted nodes, states and coefficients go into flat ``array('d')``
buffers.  numpy appears only when those buffers become the ndarrays of the
returned DenseSolution.  Called on an array of points, a DenseSolution
evaluates them all in one vectorised pass, with the scalar path's
arithmetic, so each point gets the same bits as a scalar call would.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.optimize import brentq

from .errors import DomainSignalError

__all__ = [
    "StepControl",
    "EventSpec",
    "EventRecord",
    "DenseSolution",
    "integrate_adaptive",
]

# Dormand-Prince 5(4) tableau as float constants; the stage sums below are
# unrolled, and the zero entries (b2, e2, the k2 row of the interpolant) dropped.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9  # c6 = c7 = 1
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# fifth-order weights minus fourth-order weights: error estimate e = h * sum_s E_s k_s
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)
# quartic interpolant (Shampine): y(x0 + t h) = y0 + h t (q0 + q1 t + q2 t^2 + q3 t^3)
# with q0 = k1 and qj = sum_s Dj_s k_s over s = 1, 3, 4, 5, 6, 7
_D11, _D13, _D14, _D15, _D16, _D17 = (
    -8048581381 / 2820520608, 131558114200 / 32700410799, -1754552775 / 470086768,
    127303824393 / 49829197408, -282668133 / 205662961, 40617522 / 29380423,
)
_D21, _D23, _D24, _D25, _D26, _D27 = (
    8663915743 / 2820520608, -68118460800 / 10900136933, 14199869525 / 1410260304,
    -318862633887 / 49829197408, 2019193451 / 616988883, -110615467 / 29380423,
)
_D31, _D33, _D34, _D35, _D36, _D37 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_EPS = math.ulp(1.0)
_H_TINY = 16.0 * _EPS  # a step below this times max(|x|, 1) is an underflow
_BRENT_RTOL = 4.0 * _EPS
_EVENT_MAXITER = 80


@dataclass(frozen=True)
class StepControl:
    """Dimensionless tolerances and step bounds for one integration."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_init: float | None = None
    h_max: float = math.inf
    max_steps: int = 500_000

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.h_init is not None and self.h_init > self.h_max:
            raise ValueError("h_init must not exceed h_max")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


@dataclass(frozen=True)
class EventSpec:
    """Scalar guard g(x, y) whose directed zero crossing is an event."""

    guard: object
    direction: str = "any"  # "falling" | "rising" | "any"
    root_tol: float = 1e-12
    terminal: bool = False
    name: str = ""

    def __post_init__(self):
        if self.direction not in ("falling", "rising", "any"):
            raise ValueError(f"bad direction {self.direction!r}")
        if self.root_tol <= 0.0:
            raise ValueError("root_tol must be positive")


@dataclass(frozen=True)
class EventRecord:
    x: float
    y: np.ndarray
    index: int
    name: str
    terminal: bool


@dataclass
class DenseSolution:
    """Accepted steps, interpolants, event log and termination status."""

    xs: np.ndarray            # accepted nodes, shape (n+1,)
    ys: np.ndarray            # states at nodes, shape (n+1, dim)
    interp: np.ndarray        # per-step quartic coefficients, shape (n, dim, 4)
    events: list = field(default_factory=list)
    status: str = "completed"  # completed|event|step_budget|step_underflow|domain_error
    message: str = ""
    x_end: float = 0.0
    y_end: np.ndarray | None = None
    n_steps: int = 0
    n_rhs: int = 0
    n_rejected: int = 0       # error-test rejections plus domain and non-finite retries
    failure: Exception | None = None

    @property
    def x0(self) -> float:
        return float(self.xs[0])

    def _eval_scalar(self, x: float) -> np.ndarray:
        xs = self.xs
        # snap exactly onto stored nodes so endpoint states are reproduced exactly
        i = int(np.searchsorted(xs, x))
        if i < len(xs) and xs[i] == x:
            return self.ys[i].copy()
        if i == 0 or i > len(self.interp):
            raise ValueError(f"x = {x:g} outside the solution span [{xs[0]:g}, {self.x_end:g}]")
        k = i - 1
        x_lo, x_hi = xs[k:i + 1].tolist()
        h = x_hi - x_lo
        t = (x - x_lo) / h
        ht = h * t
        return np.array([
            y + ht * (((q3 * t + q2) * t + q1) * t + q0)
            for y, (q0, q1, q2, q3) in zip(self.ys[k].tolist(), self.interp[k].tolist())
        ])

    def __call__(self, x):
        """State at x: shape (dim,) for a scalar, (n, dim) for n points."""
        if np.ndim(x) == 0:
            return self._eval_scalar(float(x))
        # the scalar path over all points at once, with the same arithmetic
        x = np.asarray(x, dtype=float).ravel()
        xs = self.xs
        i = np.searchsorted(xs, x)
        on_node = xs[np.minimum(i, len(xs) - 1)] == x
        between = ~on_node
        outside = between & ((i == 0) | (i > len(self.interp)))
        if outside.any():
            raise ValueError(f"x = {x[outside][0]:g} outside the solution span "
                             f"[{xs[0]:g}, {self.x_end:g}]")
        out = np.empty((x.size, self.ys.shape[1]))
        out[on_node] = self.ys[i[on_node]]
        k = i[between] - 1
        x_lo = xs[k]
        h = xs[k + 1] - x_lo
        t = ((x[between] - x_lo) / h)[:, None]
        ht = h[:, None] * t
        q0, q1, q2, q3 = np.moveaxis(self.interp[k], -1, 0)
        out[between] = self.ys[k] + ht * (((q3 * t + q2) * t + q1) * t + q0)
        return out

    def span(self) -> tuple:
        return float(self.xs[0]), float(self.x_end)


def _rms(v) -> float:
    return math.sqrt(sum(e * e for e in v) / len(v))


def _finite(*vectors) -> bool:
    return all(map(math.isfinite, chain(*vectors)))


def _initial_step(f, x0, y0, f0, rtol, atol, h_max):
    # span-free on purpose: the same problem must start with the same step
    # whatever the integration cap is; the caller clamps to the span.
    scale = [a + rtol * abs(v) for a, v in zip(atol, y0)]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, h_max)
    try:
        f1 = f(x0 + h0, [v + h0 * d for v, d in zip(y0, f0)])
        d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
        if not math.isfinite(d2):
            d2 = d1
    except DomainSignalError:
        d2 = d1
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, h_max)


def _locate_in_step(sol_eval, guard, x_lo, x_hi, g_lo, g_hi, root_tol):
    """Refine a sign change of guard on one interpolant segment."""
    if g_lo == 0.0:
        return x_lo
    if g_hi == 0.0:
        return x_hi

    def g(x):
        return guard(x, sol_eval(x))

    return brentq(
        g, x_lo, x_hi, xtol=root_tol, rtol=_BRENT_RTOL, maxiter=_EVENT_MAXITER
    )


def _crossed(g0: float, g1: float, direction: str) -> bool:
    if direction == "falling":
        return g0 > 0.0 >= g1
    if direction == "rising":
        return g0 < 0.0 <= g1
    return (g0 > 0.0 >= g1) or (g0 < 0.0 <= g1)


def _step_interpolant(x0, y0, h, q, x1, y1):
    """State on one accepted step [x0, x1 = x0 + h], as a list of floats."""

    def step_eval(xq):
        if xq == x1:
            return list(y1)
        t = (xq - x0) / h
        ht = h * t
        return [y + ht * (((q3 * t + q2) * t + q1) * t + q0)
                for y, (q0, q1, q2, q3) in zip(y0, q)]

    return step_eval


def integrate_adaptive(rhs, y0, span, ctrl=None, events=(), y_scale=None) -> DenseSolution:
    """Integrate dy/dx = rhs(x, y) over span = (x0, x1), locating events.

    Parameters
    ----------
    rhs : callable (x, y) -> sequence of floats
        Receives the state y as a list of dim floats and returns dy/dx as any
        sequence of dim floats (a tuple, a list or an ndarray).  May raise
        DomainSignalError to signal a domain exit; the step is then retried
        smaller and the run ends with status ``domain_error`` if the boundary
        cannot be resolved.
    ctrl : StepControl
    events : sequence of EventSpec
        Guards receive the state as a list of floats, like rhs.  Terminal
        events truncate the solution at the located abscissa.
    y_scale : sequence of float, optional
        Per-component magnitude scale; the absolute tolerance for component
        i is ctrl.abs_tol * y_scale[i].

    The step loop works on Python floats and appends accepted nodes, states
    and interpolant coefficients to flat ``array('d')`` buffers; they become
    the xs, ys and interp ndarrays of the result once, when the run ends.
    """
    ctrl = ctrl or StepControl()
    x0, x1 = float(span[0]), float(span[1])
    if not x1 > x0:
        raise ValueError("span must satisfy x1 > x0")
    y0 = np.asarray(y0, dtype=float).ravel().tolist()
    dim = len(y0)
    rng = range(dim)
    if y_scale is None:
        atol = [ctrl.abs_tol] * dim
    else:
        atol = [ctrl.abs_tol * s for s in np.asarray(y_scale, dtype=float).ravel().tolist()]
    rtol, h_max = ctrl.rel_tol, ctrl.h_max

    xs = array("d", (x0,))
    ys = array("d", y0)
    coef = array("d")  # per step and component: q0, q1, q2, q3
    found = []  # (x, y, index) of located events
    n_rhs = 0
    n_rejected = 0

    def f(x, y):
        nonlocal n_rhs
        n_rhs += 1
        return rhs(x, y)

    def _finish(status, message="", failure=None, x_end=None, y_end=None):
        n = len(xs) - 1
        return DenseSolution(
            xs=np.frombuffer(xs, dtype=float),
            ys=np.frombuffer(ys, dtype=float).reshape(n + 1, dim),
            interp=np.frombuffer(coef, dtype=float).reshape(n, dim, 4),
            events=[
                EventRecord(x=x_ev, y=np.array(y_ev), index=idx,
                            name=events[idx].name, terminal=events[idx].terminal)
                for x_ev, y_ev, idx in found
            ],
            status=status,
            message=message,
            failure=failure,
            x_end=xs[-1] if x_end is None else x_end,
            y_end=np.array(ys[-dim:] if y_end is None else y_end),
            n_steps=n,
            n_rhs=n_rhs,
            n_rejected=n_rejected,
        )

    try:
        fy = f(x0, y0)
    except DomainSignalError as exc:
        return _finish("domain_error", f"right-hand side undefined at start: {exc}", exc)

    g_prev = [float(ev.guard(x0, y0)) for ev in events]

    h = ctrl.h_init
    if h is None:
        h = _initial_step(f, x0, y0, fy, rtol, atol, h_max)
    h = min(h, h_max, x1 - x0)

    x, y, k1 = x0, y0, fy
    attempts = 0
    rejected = False

    while x < x1:
        if attempts >= ctrl.max_steps:
            return _finish("step_budget", f"step budget {ctrl.max_steps} exhausted at x = {x:g}")
        h = min(h, x1 - x)
        if h <= _H_TINY * max(abs(x), 1.0):
            return _finish("step_underflow", f"step size underflow at x = {x:g}")
        attempts += 1

        domain_exc = None
        try:
            k2 = f(x + _C2 * h, [y[i] + h * (_A21 * k1[i]) for i in rng])
            k3 = f(x + _C3 * h, [y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in rng])
            k4 = f(x + _C4 * h, [y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i])
                                 for i in rng])
            k5 = f(x + _C5 * h, [y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i]
                                             + _A54 * k4[i]) for i in rng])
            k6 = f(x + h, [y[i] + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i]
                                       + _A64 * k4[i] + _A65 * k5[i]) for i in rng])
            y_new = [y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i]
                                 + _B6 * k6[i]) for i in rng]
            k7 = f(x + h, y_new)
        except DomainSignalError as exc:
            domain_exc = exc
        else:
            err = 0.0
            for i in rng:
                e = h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i] + _E6 * k6[i]
                         + _E7 * k7[i]) / (atol[i] + rtol * max(abs(y[i]), abs(y_new[i])))
                err += e * e
            err = math.sqrt(err / dim)

        # a non-finite slope makes err non-finite, except k2, which the error
        # estimate does not weigh; the full scan runs only when this test fails
        if domain_exc is not None or not (math.isfinite(err + sum(k2))
                                          or _finite(k1, k2, k3, k4, k5, k6, k7)):
            # boundary or blow-up inside the step: retry smaller
            h *= 0.25
            rejected = True
            n_rejected += 1
            if h <= _H_TINY * max(abs(x), 1.0):
                if domain_exc is not None:
                    return _finish("domain_error", f"domain exit at x = {x:g}: {domain_exc}", domain_exc)
                return _finish("step_underflow", f"non-finite right-hand side at x = {x:g}")
            continue

        if err > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            rejected = True
            n_rejected += 1
            continue

        # accepted
        factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2)
        if rejected:
            factor = min(1.0, factor)
        rejected = False

        q = [(k1[i],
              _D11 * k1[i] + _D13 * k3[i] + _D14 * k4[i] + _D15 * k5[i] + _D16 * k6[i] + _D17 * k7[i],
              _D21 * k1[i] + _D23 * k3[i] + _D24 * k4[i] + _D25 * k5[i] + _D26 * k6[i] + _D27 * k7[i],
              _D31 * k1[i] + _D33 * k3[i] + _D34 * k4[i] + _D35 * k5[i] + _D36 * k6[i] + _D37 * k7[i])
             for i in rng]
        x_new = x + h
        xs.append(x_new)
        ys.extend(y_new)
        for qi in q:
            coef.extend(qi)

        hit = []  # (x_event, index)
        step_eval = None
        for idx, ev in enumerate(events):
            g_new = float(ev.guard(x_new, y_new))
            if _crossed(g_prev[idx], g_new, ev.direction):
                if step_eval is None:
                    step_eval = _step_interpolant(x, y, h, q, x_new, y_new)
                x_ev = _locate_in_step(
                    step_eval, ev.guard, x, x_new, g_prev[idx], g_new, ev.root_tol
                )
                hit.append((x_ev, idx))
            g_prev[idx] = g_new

        if hit:
            hit.sort()
            for x_ev, idx in hit:
                found.append((x_ev, step_eval(x_ev), idx))
                if events[idx].terminal:
                    return _finish("event", f"terminal event at x = {x_ev:g}",
                                   x_end=x_ev, y_end=step_eval(x_ev))

        x, y, k1 = x_new, y_new, k7
        h = min(h * factor, h_max)

    return _finish("completed")
