"""Adaptive embedded Runge-Kutta 5(4) integration with dense output and events.

Dormand-Prince pair, FSAL, with the standard quartic free interpolant
(Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6).  Event guards are
root-located on the interpolant by Brent's method (brentq, a safeguarded
bisection/secant/inverse-quadratic hybrid), and a terminal event truncates
the solution at the located abscissa.  Everything is deterministic:
identical inputs give bitwise-identical trajectories within one build.

The right-hand side is a Stage's statements bound to its constants by
stage_rhs, and each event's guard an expression over the stage's names with its
own constants written in (EventSpec).  The stage may raise DomainSignalError to
have the step retried smaller.  An OverflowError in a step's stages rejects the
step the same way: a trial state far off the solution may overflow a pow or an
exponential that the accepted steps never reach.  The step loop runs on Python
floats, since for the small systems solved here a numpy operation costs far
more than its arithmetic.  The whole adaptive loop, with its step control and
event guards, is generated from one template, _LOOP, once per state dimension,
stage and set of guards; it keeps the state, the FSAL slope and the tolerances
in locals across steps, writes every stage sum and the error norm out per
component, and has the tableau's coefficients as literals.  The stage's
statements fill each stage slot, so a step makes no Python call for its stages,
and the guard expressions the guard block.  The guards read the names as the
FSAL stage, the last one a step runs, left them, so a stage may not assign its
own abscissa or state.  The stage's constants are bound, not written in, so one
loop serves every solve of a stage.

An accepted step appends its node, state and slopes to one flat buffer as
one packed record.  One function, _quartic, forms the quartic coefficients
of a step from its slopes on floats: the step loop calls it on a step where
a guard changes sign, and dense output once per call, for the distinct
steps the call's points fall in.
"""

from __future__ import annotations

import ast
import builtins
import math
import numbers
import re
import textwrap
import types
from array import array
from dataclasses import dataclass, field
from math import sqrt  # for the generated loop
from struct import Struct  # for the generated loop

import numpy as np

from . import codegen
from .errors import DomainSignalError, RootFindError

__all__ = [
    "StepControl",
    "EventSpec",
    "DenseSolution",
    "Stage",
    "stage_rhs",
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
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not self.h_max > 0.0:  # also rejects NaN; inf means no cap
            raise ValueError(f"h_max must be positive, got {self.h_max!r}")
        if self.h_init is not None:
            if not self.h_init > 0.0:
                raise ValueError(f"h_init must be positive, got {self.h_init!r}")
            if self.h_init > self.h_max:
                raise ValueError("h_init must not exceed h_max")
        if isinstance(self.max_steps, bool) or not isinstance(self.max_steps, numbers.Integral):
            raise ValueError(f"max_steps must be an integer, got {self.max_steps!r}")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


@dataclass(frozen=True)
class EventSpec:
    """An event: a directed zero crossing of the guard expr, an expression
    over the names of the solve's stage (abscissa, state, slopes, constants).
    Its own constants are written into expr, so they must be fixed per
    process: a value that varied from solve to solve would compile a new
    step loop for each value.

    A guard that reads a slope name reads at a step end the FSAL stage's
    slopes, and at x0 the start slope; refining its crossing costs one
    right-hand side call per point, counted in n_rhs.  A guard that reads a
    name the stage's body sets reads the FSAL stage's value at a step end;
    at x0 and in its refinement it runs the body, counted as in refinement.
    """

    expr: str
    direction: str = "any"  # "falling" | "rising" | "any"
    root_tol: float = 1e-12
    terminal: bool = False
    name: str = ""

    def __post_init__(self):
        if self.direction not in ("falling", "rising", "any"):
            raise ValueError(f"bad direction {self.direction!r}")
        if not (math.isfinite(self.root_tol) and self.root_tol > 0.0):
            raise ValueError(f"root_tol must be finite and positive, got {self.root_tol!r}")


@dataclass(frozen=True)
class EventRecord:
    x: float
    y: np.ndarray
    index: int
    name: str
    terminal: bool


@dataclass
class DenseSolution:
    """Accepted steps, their slopes, event log and termination status.

    Dense output forms the quartic coefficients of a step (its row) from the
    step's slopes when a point in that step is read: a call forms the rows
    of the distinct steps its points fall in by one call of _quartic, on
    floats, and evaluates the quartics in numpy.  A solution mapped to
    other units (odecore.ScalingParams) keeps the slopes it was solved with
    and carries their scale, slope_scale, by which each row is multiplied
    once it is formed.
    """

    xs: np.ndarray            # accepted nodes, shape (n+1,)
    ys: np.ndarray            # states at nodes, shape (n+1, dim)
    slopes: np.ndarray        # per-step slopes k1, k3, k4, k5, k6, k7, shape (n, dim, 6)
    events: list = field(default_factory=list)
    status: str = "completed"  # completed|event|step_budget|step_underflow|domain_error
    message: str = ""
    x_end: float = 0.0
    y_end: np.ndarray | None = None
    n_steps: int = 0
    n_rhs: int = 0
    n_rejected: int = 0       # error-test rejections plus domain, overflow and non-finite retries
    failure: Exception | None = None
    slope_scale: np.ndarray | None = None  # per component, shape (dim,); None for 1

    def _quartics(self, steps: np.ndarray) -> np.ndarray:
        """Quartic coefficients q0 ... q3 of the given steps, shape
        (len(steps), dim, 4): _quartic's floats, then times slope_scale."""
        q = np.array(_quartic(self.slopes[steps].ravel().tolist()))
        q = q.reshape(len(steps), self.ys.shape[1], 4)
        if self.slope_scale is not None:
            q *= self.slope_scale[:, None]
        return q

    def __call__(self, x):
        """State at x: shape (dim,) for a scalar, (n, dim) for n points.

        Every point is evaluated independently by the same arithmetic, so a
        point gets the same bits whether it comes alone or in an array.  A
        point on a node gets the node's stored state; the rows of the steps
        the other points fall in are formed once per step.  ValueError for
        a point outside [xs[0], x_end]: a solution cut at a terminal event
        ends inside its last step.
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = x.ravel()
        xs = self.xs
        outside = ~((x >= xs[0]) & (x <= self.x_end))
        if outside.any():
            raise ValueError(f"x = {x[outside][0]:g} outside the solution span "
                             f"[{xs[0]:g}, {self.x_end:g}]")
        i = np.searchsorted(xs, x)
        # snap exactly onto stored nodes so endpoint states are reproduced exactly
        on_node = xs[i] == x
        between = ~on_node
        out = np.empty((x.size, self.ys.shape[1]))
        out[on_node] = self.ys[i[on_node]]
        k = i[between] - 1
        steps = np.flatnonzero(np.bincount(k))  # distinct, ascending
        x_lo = xs[k]
        h = xs[k + 1] - x_lo
        t = ((x[between] - x_lo) / h)[:, None]
        ht = h[:, None] * t
        q = self._quartics(steps)[np.searchsorted(steps, k)]
        q0, q1, q2, q3 = q.transpose(2, 0, 1)
        out[between] = self.ys[k] + ht * (((q3 * t + q2) * t + q1) * t + q0)
        return out[0] if scalar else out


def _quartic(slopes) -> list:
    """The quartic coefficients q0, q1, q2, q3 of each component of each
    step in turn, as floats, from the slopes k1, k3, k4, k5, k6, k7 of each
    component of each step in turn.  Dense output and the step loop's event
    interpolant both form a step's coefficients here, so they have the
    same bits."""
    q = []
    for i in range(0, len(slopes), 6):
        k1, k3, k4, k5, k6, k7 = slopes[i:i + 6]
        q += (k1,
              _D11 * k1 + _D13 * k3 + _D14 * k4 + _D15 * k5 + _D16 * k6 + _D17 * k7,
              _D21 * k1 + _D23 * k3 + _D24 * k4 + _D25 * k5 + _D26 * k6 + _D27 * k7,
              _D31 * k1 + _D33 * k3 + _D34 * k4 + _D35 * k5 + _D36 * k6 + _D37 * k7)
    return q


def _rms(v) -> float:
    return math.sqrt(sum(e * e for e in v) / len(v))


def _finite(*values) -> bool:
    return all(map(math.isfinite, values))


@dataclass(frozen=True)
class Stage:
    """A right-hand side written as statements, for the step loop to inline.

    body sets the slope components named in dy from the abscissa named x and
    the state components named in y.  Every other free name of body is one
    of consts, whose values stage_rhs binds; a name body uses must not be one
    the step loop uses, and body must not assign x or a name of y, which
    the guards read after the step's last stage; _loop checks both.  name
    labels the generated sources in tracebacks, so each body needs its own.
    """

    name: str
    x: str
    y: tuple
    dy: tuple
    body: str
    consts: tuple


def stage_rhs(stage: Stage, values: dict):
    """The right-hand side (x, y) -> dy that runs stage's body with values
    bound to its constants.

    integrate_adaptive runs the same body inside its step loop instead of
    calling the function; the start slope, the initial-step probe and the
    refinement of slope guards call it, and compute the same bits.
    """
    rhs = codegen.closure_factory(
        f"<rhs: {stage.name}>", f"{stage.x}, y", f"{', '.join(stage.y)}, = y\n{stage.body}",
        f"{', '.join(stage.dy)},", stage.consts)(**values)
    rhs.stage, rhs.values = stage, values
    return rhs


# The adaptive DP5 loop, written out per state component.  In the template,
# `expr` stands for expr once per component, with @ replaced by the component
# index, joined by ", " (or by " + " when the closing backtick is followed by
# +).  Each `kN = STAGE(x, y...)` line is one right-hand side evaluation: it
# runs the stage's body on x and y and names its slopes kN_@.  CONSTS are the
# stage's constants, which make binds once per solve; GUARD_DEFS defines there
# a function per guard and the tuple guards of them, which give the guards'
# start values and refine a crossing (_step_events).  The tableau's _A, _B, _C
# and _E constants are written in as literals.  _loop generates the loop once
# per dimension, stage and set of guards.  Every component is computed by the
# same expression, term by term in the tableau's order, so the bits do not
# depend on the dimension.
#
# An accepted step appends one record to the flat array('d') buffer steps:
# its node, its state and the six slopes k1, k3 ... k7 its interpolant is
# made of, packed into bytes by a struct bound once per loop and appended by
# frombytes; _finish turns the buffer into the xs, ys and slopes of the
# DenseSolution once, when the run ends.  GUARD_TEXT stands for the guard
# block (_guard_text), which tests every guard at the step end, each
# against its value at the step start in a local; the guards read the
# stage's names as the FSAL stage left them.  Only on a step where a guard
# changes sign are the interpolant's coefficients formed, by _quartic, the
# function dense output forms them with, and the crossings located.
#
# loop(...) -> (status, message, failure, x_end, y_end, n_rhs, n_rejected),
# x_end and y_end None for the last node.  n_rhs counts a right-hand side
# call that raised, DomainSignalError or OverflowError, and the step is
# retried smaller.  A non-finite slope makes err non-finite, except k2,
# which the error estimate does not weigh; fin - fin is 0.0 exactly for a
# finite fin, and the full scan runs only when that test fails.  min and max
# of two floats, and the moduli ay@ and an@, are written as conditionals;
# only the larger modulus enters atol + rtol * max, so they give abs's
# result, NaN and a signed zero included.  ay@ is the modulus of the step's
# start state, carried over from an@ on acceptance.
_LOOP = """\
def make(CONSTS):
    GUARD_DEFS
    def loop(rhs, x, y, k1, h, x1, h_max, max_steps, atol, rtol, events, steps, found, n_rhs):
        `y@`, = y
        `k1_@`, = k1
        `ay@`, = `abs(y@)`,
        GUARD_INIT
        # one packed record per accepted step: struct packs the floats
        # faster than array.fromlist unboxes a list of them
        add_step = steps.frombytes
        pack = Struct(f"{1 + 7 * DIM}d").pack
        n_rejected = attempts = 0
        rejected = False
        while x < x1:
            if attempts >= max_steps:
                return ("step_budget", f"step budget {max_steps} exhausted at x = {x:g}",
                        None, None, None, n_rhs, n_rejected)
            if x1 - x < h:
                h = x1 - x
            ax = abs(x)
            h_tiny = _H_TINY * (1.0 if 1.0 > ax else ax)
            if h <= h_tiny:
                return ("step_underflow", f"step size underflow at x = {x:g}",
                        None, None, None, n_rhs, n_rejected)
            attempts += 1
            try:
                calls = 1
                k2 = STAGE(x + _C2 * h, `y@ + h * (_A21 * k1_@)`)
                calls = 2
                k3 = STAGE(x + _C3 * h, `y@ + h * (_A31 * k1_@ + _A32 * k2_@)`)
                calls = 3
                k4 = STAGE(x + _C4 * h, `y@ + h * (_A41 * k1_@ + _A42 * k2_@ + _A43 * k3_@)`)
                calls = 4
                k5 = STAGE(x + _C5 * h, `y@ + h * (_A51 * k1_@ + _A52 * k2_@ + _A53 * k3_@ + _A54 * k4_@)`)
                calls = 5
                k6 = STAGE(x + h, `y@ + h * (_A61 * k1_@ + _A62 * k2_@ + _A63 * k3_@ + _A64 * k4_@ + _A65 * k5_@)`)
                `yn@`, = `y@ + h * (_B1 * k1_@ + _B3 * k3_@ + _B4 * k4_@ + _B5 * k5_@ + _B6 * k6_@)`,
                calls = 6
                k7 = STAGE(x + h, `yn@`)
            except (DomainSignalError, OverflowError) as exc:
                n_rhs += calls
                failure = exc
            else:
                n_rhs += 6
                `an@`, = `yn@ if yn@ >= 0.0 else -yn@`,
                `e@`, = `h * (_E1 * k1_@ + _E3 * k3_@ + _E4 * k4_@ + _E5 * k5_@ + _E6 * k6_@ + _E7 * k7_@) / (atol + rtol * (an@ if an@ > ay@ else ay@))`,
                err = sqrt((`e@ * e@`+) / DIM)
                fin = err + (`k2_@`+)
                if fin - fin == 0.0 or _finite(`k1_@`, `k2_@`, `k3_@`, `k4_@`, `k5_@`, `k6_@`, `k7_@`):
                    if err > 1.0:
                        factor = _SAFETY * err ** -0.2
                        h *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
                        rejected = True
                        n_rejected += 1
                        continue
                    # accepted
                    if err == 0.0:
                        factor = _MAX_FACTOR
                    else:
                        factor = _SAFETY * err ** -0.2
                        if not factor < _MAX_FACTOR:
                            factor = _MAX_FACTOR
                    if rejected:
                        if not factor < 1.0:
                            factor = 1.0
                        rejected = False
                    x_new = x + h
                    add_step(pack(x_new, `yn@`, `k1_@, k3_@, k4_@, k5_@, k6_@, k7_@`))

                    # event guards: a sign change between the step's ends is
                    # refined on the step's interpolant
                    hit = []  # (index, value at x, value at x_new)
                    GUARD_TEXT
                    if hit:
                        step_eval = _step_interpolant(
                            x, [`y@`], h, _quartic([`k1_@, k3_@, k4_@, k5_@, k6_@, k7_@`]),
                            x_new, [`yn@`])
                        x_ev, calls = _step_events(step_eval, hit, events, guards, rhs, x, x_new,
                                                   found)
                        n_rhs += calls
                        if x_ev is not None:
                            return ("event", f"terminal event at x = {x_ev:g}", None,
                                    x_ev, step_eval(x_ev), n_rhs, n_rejected)

                    x = x_new
                    `y@`, = `yn@`,
                    `ay@`, = `an@`,
                    `k1_@`, = `k7_@`,
                    h *= factor
                    if h_max < h:
                        h = h_max
                    continue
                failure = None
            # boundary or blow-up inside the step: retry smaller
            h *= 0.25
            rejected = True
            n_rejected += 1
            if h <= h_tiny:
                if failure is not None:
                    return ("domain_error", f"domain exit at x = {x:g}: {failure}", failure,
                            None, None, n_rhs, n_rejected)
                return ("step_underflow", f"non-finite right-hand side at x = {x:g}", None,
                        None, None, n_rhs, n_rejected)
        return "completed", "", None, None, None, n_rhs, n_rejected
    return loop
"""

_LOOPS = {}  # (dim, stage, guards) -> make


@dataclass(frozen=True)
class _TextGuard:
    """A guard as the step loop writes it in: its event's name, expr and direction."""

    name: str
    expr: str
    falling: bool
    rising: bool


def _expr_names(expr: str) -> set:
    """The names the expression expr reads, builtins left out."""
    return {node.id for node in ast.walk(ast.parse(expr, mode="eval"))
            if isinstance(node, ast.Name)} - vars(builtins).keys()


def _stored(body: str) -> set:
    """The names the statements body assign."""
    return {node.id for node in ast.walk(ast.parse(body))
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}


def _guard_text(stage: Stage, guards: tuple) -> tuple:
    """(defs, init, block): make's statements that define guardJ(x, y), or
    guardJ(x, y, dy) for a guard that reads a slope, to return each guard's
    expression, and the tuple guards of (guardJ, kind) pairs, kind True for
    a slope guard and 'body' for one that reads a stage local, whose
    guardJ(x, y) runs the stage; the loop's statements that load each
    guard's value at x0 into gpJ; and those that evaluate the guards at a
    step end, on the names the FSAL stage left, and collect sign changes."""
    defs = init = block = pairs = ""
    locals_ = _stored(stage.body) - set(stage.dy)
    for j, g in enumerate(guards):
        names = _expr_names(g.expr)
        slope = bool(names & set(stage.dy))
        if names & locals_:
            defs += (f"def guard{j}({stage.x}, y):\n    {', '.join(stage.y)}, = y\n"
                     + textwrap.indent(stage.body, "    ") + f"    return {g.expr}\n")
            pairs += f"(guard{j}, 'body'), "
            init += f"gp{j} = float(guard{j}(x, y))\n"
        else:
            defs += (f"def guard{j}({stage.x}, y{', dy' * slope}):\n"
                     f"    {', '.join(stage.y)}, = y\n"
                     + f"    {', '.join(stage.dy)}, = dy\n" * slope
                     + f"    return {g.expr}\n")
            pairs += f"(guard{j}, {slope}), "
            init += f"gp{j} = float(guard{j}(x, y{', k1' * slope}))\n"
        tests = [f"gp{j} > 0.0 >= g1"] * g.falling + [f"gp{j} < 0.0 <= g1"] * g.rising
        block += (f"g1 = {g.expr}\n"
                  f"if {' or '.join(tests)}:\n"
                  f"    hit.append(({j}, gp{j}, g1))\n"
                  f"gp{j} = g1\n")
    return defs + f"guards = ({pairs})\n", init, block


def _loop_source(dim: int, stage: Stage, guards: tuple) -> str:
    def components(m):
        sep = " + " if m.group(2) else ", "
        return sep.join(m.group(1).replace("@", str(i)) for i in range(dim))

    def stage_call(m):
        indent, k, args = m.group(1), m.group(2), m.group(3).split(", ")
        return (f"{indent}{stage.x} = {args[0]}\n"
                f"{indent}{', '.join(stage.y)}, = {', '.join(args[1:])},\n"
                f"{textwrap.indent(stage.body, indent)}"
                f"{indent}{', '.join(f'{k}_{i}' for i in range(dim))}, = "
                f"{', '.join(stage.dy)},\n")

    defs, init, block = _guard_text(stage, guards)
    source = re.sub(r"`([^`]*)`(\+?)", components, _LOOP).replace("DIM", str(dim))
    source = re.sub(r"\b_[ABCE]\d+\b", lambda m: repr(globals()[m.group()]), source)
    for slot, text in (("GUARD_DEFS", defs), ("GUARD_INIT", init), ("GUARD_TEXT", block)):
        source = re.sub(rf"^( *){slot}\n", lambda m: textwrap.indent(text, m.group(1)), source,
                        flags=re.M)
    source = source.replace("CONSTS", ", ".join(stage.consts))
    return re.sub(r"^( *)(k\d) = STAGE\((.*)\)\n", stage_call, source, flags=re.M)


def _names(code) -> set:
    """The names code and the code nested in it use, builtins left out."""
    names = set(code.co_names + code.co_varnames + code.co_cellvars + code.co_freevars)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names - vars(builtins).keys()


# the step loop's own names, read once from its source for one component and
# one slope guard, its stage made of loop names, with a trailing index written N
_LOOP_NAMES = {re.sub(r"\d+$", "N", name) for name in _names(compile(_loop_source(
    1, Stage("", "x", ("y0",), ("k1_0",), "", ()), (_TextGuard("", "k1_0", True, True),)),
    "<loop>", "exec"))}


def _loop(dim: int, stage: Stage, guards: tuple):
    """The factory make(**constants) -> loop for a dim-component state,
    stage and guards, generated on first use."""
    key = (dim, stage, guards)
    make = _LOOPS.get(key)
    if make is None:
        # each loop its own name, so that tracebacks show its lines
        listed = f", guards {', '.join(g.name for g in guards)}" if guards else ""
        filename = f"<dp5 loop, dim {dim}, {stage.name}{listed}>"
        stage_names = {stage.x, *stage.y, *stage.dy, *stage.consts}
        stored = _stored(stage.body)
        for g in guards:
            if unknown := _expr_names(g.expr) - stage_names - stored:
                raise ValueError(f"guard {g.expr!r} uses names that are not its stage's "
                                 f"abscissa, state, slopes, constants or locals: "
                                 f"{sorted(unknown)}")
        names = _names(compile(stage.body, "<stage>", "exec")) | stage_names
        clash = {name for name in names if re.sub(r"\d+$", "N", name) in _LOOP_NAMES}
        if clash:
            raise ValueError(f"stage {stage.name!r} uses names of the step loop: {sorted(clash)}")
        # the guards read the abscissa and state the FSAL stage was given
        rebound = stored & {stage.x, *stage.y}
        if rebound:
            raise ValueError(f"stage {stage.name!r} assigns its own abscissa or state: "
                             f"{sorted(rebound)}")
        make = _LOOPS[key] = codegen.define(_loop_source(dim, stage, guards), filename, globals())
    return make


def _initial_step(rhs, x0, y0, f0, rtol, atol, h_max):
    # span-free on purpose: the same problem must start with the same step
    # whatever the integration cap is; the caller clamps to the span.  Makes
    # exactly one rhs call.
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, h_max)
    try:
        f1 = rhs(x0 + h0, [v + h0 * d for v, d in zip(y0, f0)])
        d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
        if not math.isfinite(d2):
            d2 = d1
    except (DomainSignalError, OverflowError):
        d2 = d1
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, h_max)


def brentq(f, xa, xb, xtol, rtol, maxiter):
    """Root of f in [xa, xb] by Brent's method: (root, calls).

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 4, in
    the form of scipy's brentq.c, statement for statement, so that it takes
    the same steps and returns the same bits; calls counts the evaluations
    of f, both ends included.  f(xa) and f(xb) must differ in sign.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    calls = 2
    if fpre != fpre or fcur != fcur:
        raise RootFindError(f"brentq: f is NaN at an end of [{xa:g}, {xb:g}]")
    if fpre == 0.0:
        return xpre, calls
    if fcur == 0.0:
        return xcur, calls
    if (fpre < 0.0) == (fcur < 0.0):
        raise RootFindError(f"brentq: f has the same sign at both ends of [{xa:g}, {xb:g}]")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, calls
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
        calls += 1
        if fcur != fcur:
            raise RootFindError(f"brentq: f is NaN at x = {xcur!r}")
    raise RootFindError(f"brentq: no convergence in {maxiter} iterations; last x = {xcur!r}")


def _locate_in_step(sol_eval, guard, kind, rhs, x_lo, x_hi, g_lo, g_hi, root_tol):
    """Refine a sign change of guard on one interpolant segment: (x, calls),
    the located abscissa and one right-hand side call per evaluation of a
    slope guard (kind True, passed rhs(x, y)) or a body guard (kind 'body').
    """
    if g_lo == 0.0:
        return x_lo, 0
    if g_hi == 0.0:
        return x_hi, 0

    def g(x):
        y = sol_eval(x)
        return guard(x, y, rhs(x, y)) if kind is True else guard(x, y)

    x, calls = brentq(g, x_lo, x_hi, root_tol, _BRENT_RTOL, _EVENT_MAXITER)
    return x, calls if kind else 0


def _step_events(step_eval, hit, events, guards, rhs, x_lo, x_hi, found):
    """Locate the crossings of one accepted step and record them in found,
    in order of x, up to the first terminal one.

    hit holds (index, value at x_lo, value at x_hi) of each guard that
    changed sign, and guards a (guard, kind) pair per event (_guard_text).
    Returns (x of the terminal event or None, right-hand side calls made).
    """
    located = []
    n_calls = 0
    for idx, g0, g1 in hit:
        guard, kind = guards[idx]
        x_ev, calls = _locate_in_step(step_eval, guard, kind, rhs,
                                      x_lo, x_hi, g0, g1, events[idx].root_tol)
        n_calls += calls
        located.append((x_ev, idx))
    located.sort()
    for x_ev, idx in located:
        found.append((x_ev, step_eval(x_ev), idx))
        if events[idx].terminal:
            return x_ev, n_calls
    return None, n_calls


def _step_interpolant(x0, y0, h, q, x1, y1):
    """State on one accepted step [x0, x1 = x0 + h], as a list of floats;
    q holds q0, q1, q2, q3 of each component in turn."""

    def step_eval(xq):
        if xq == x1:
            return list(y1)
        t = (xq - x0) / h
        ht = h * t
        return [y + ht * (((q3 * t + q2) * t + q1) * t + q0)
                for y, q0, q1, q2, q3 in zip(y0, q[::4], q[1::4], q[2::4], q[3::4])]

    return step_eval


def integrate_adaptive(rhs, y0, span, ctrl, events=()) -> DenseSolution:
    """Integrate dy/dx = rhs(x, y) over span = (x0, x1), locating events.

    Parameters
    ----------
    rhs : a right-hand side made by stage_rhs
        Its stage's body is written into the step loop.  The body may raise
        DomainSignalError to signal a domain exit; the step is then retried
        smaller and the run ends with status ``domain_error`` if the boundary
        cannot be resolved.  An OverflowError inside a step is handled the
        same way.  TypeError for any other callable.
    y0 : sequence of finite floats, one per state name of the stage
    ctrl : StepControl
        Its abs_tol is one absolute tolerance for every component; a system
        whose components differ in magnitude is integrated in scaled
        variables.
    events : sequence of EventSpec
        Each guard expression, over the stage's abscissa, state, slopes and
        constants only, is written into the step loop's guard block and
        into the function that refines its crossings.  Terminal events
        truncate the solution at the located abscissa.

    The run is one call of the step loop generated for the state's
    dimension, the stage and the guards.
    """
    stage = getattr(rhs, "stage", None)
    if not isinstance(stage, Stage):
        raise TypeError(f"rhs must be a right-hand side made by stage_rhs, got {rhs!r}")
    x0, x1 = float(span[0]), float(span[1])
    if not x1 > x0:
        raise ValueError("span must satisfy x1 > x0")
    y0 = np.asarray(y0, dtype=float).ravel().tolist()
    if not _finite(*y0):
        raise ValueError(f"y0 must be finite, got {y0!r}")
    dim = len(y0)
    if dim != len(stage.y):
        raise ValueError(f"y0 has {dim} components, but stage {stage.name!r} has the state "
                         f"{', '.join(stage.y)}")
    atol, rtol, h_max = ctrl.abs_tol, ctrl.rel_tol, ctrl.h_max
    texts = tuple(_TextGuard(ev.name, ev.expr, ev.direction != "rising", ev.direction != "falling")
                  for ev in events)
    loop = _loop(dim, stage, texts)(**rhs.values)

    # one record per node: x, the state, then the slopes of the step that
    # ends there (zeros at x0)
    steps = array("d", [x0, *y0] + [0.0] * (6 * dim))
    found = []  # (x, y, index) of located events

    def _finish(status, message="", failure=None, x_end=None, y_end=None, n_rhs=1, n_rejected=0):
        nodes = np.frombuffer(steps, dtype=float).reshape(-1, 1 + 7 * dim)
        ys = nodes[:, 1:1 + dim].copy()
        return DenseSolution(
            xs=nodes[:, 0].copy(),
            ys=ys,
            slopes=nodes[1:, 1 + dim:].reshape(-1, dim, 6),
            events=[
                EventRecord(x=x_ev, y=np.array(y_ev), index=idx,
                            name=events[idx].name, terminal=events[idx].terminal)
                for x_ev, y_ev, idx in found
            ],
            status=status,
            message=message,
            failure=failure,
            x_end=float(nodes[-1, 0]) if x_end is None else x_end,
            y_end=ys[-1].copy() if y_end is None else np.array(y_end),
            n_steps=len(nodes) - 1,
            n_rhs=n_rhs,
            n_rejected=n_rejected,
        )

    # the start slope is counted even when it raises
    try:
        fy = rhs(x0, y0)
    except (DomainSignalError, OverflowError) as exc:
        return _finish("domain_error", f"right-hand side undefined at start: {exc}", exc)
    if not _finite(*fy):
        # no step from x0 can pass, whatever its size
        return _finish("step_underflow", f"non-finite right-hand side at x = {x0:g}")

    n_rhs = 1
    h = ctrl.h_init
    if h is None:
        n_rhs += 1
        h = _initial_step(rhs, x0, y0, fy, rtol, atol, h_max)
    h = min(h, h_max, x1 - x0)

    return _finish(*loop(rhs, x0, y0, fy, h, x1, h_max, ctrl.max_steps, atol, rtol, events,
                         steps, found, n_rhs))
