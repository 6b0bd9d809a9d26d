"""Stellar models: germ prolongation, outcome classification, boundary data.

Every star is solved in the homology-scaled variables (M, X) of R = r/a, in
which a star's shape depends only on alpha = u_c/c^2 and the scaled
cosmological constant beta; X is the EOS's own state variable
(EosSpec.state_var), U, or Z = U / Omega_u for a series Omega.  One private
core integrates the scaled system from its center germ with three guards: X
falling through zero (vacuum boundary, terminal), kappa falling through
kappa_min (horizon contact, terminal), and dU/dR rising through a small
positive floor (monotonicity loss, recorded).  solve_scaled returns its
result as is; solve_star maps the solution back to (r, m, x) through
ScalingParams and adds the physical profile, boundary data and
diagnostics.  A profile stores the columns r, m and x; u, P, rho, kappa, Q
and dPdr are derived from them on first read, which the metric patch, the
boundary data and the continuity report never make.
A vacuum-terminated profile also carries the states of its boundary
stencil, from the dense-output call that forms its tail, so the boundary
data and the continuity report make no dense-output call.
The solve policy is module constants, not fields: the default step control
SOLVE_CTRL and prolongation cap R_MAX_SCALED, which a caller may override,
and the germ radius, the horizon guard kappa_min and the rise floor, which
every solve uses as they are.  The outcome is one of four tags:

    MonotoneShort      u -> 0 at finite radius with kappa_+ > 0, Q_+ > 0 and
                       du/dr < 0 throughout
    NonMonotone        du/dr >= 0 somewhere before termination
    HorizonDegenerate  kappa reached the horizon guard, or kappa_+ or Q_+ is
                       not safely positive at the vacuum boundary
    Unterminated       the prolongation cap was reached with u > 0
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .constants import Constants
from .eos import EosSpec
from .errors import ModelError
from .integrate import DenseSolution, EventSpec, StepControl, integrate_adaptive
from .odecore import (
    FOUR_PI,
    ScalingParams,
    center_germ_scaled,
    dkappa_dr,
    kappa,
    kappa_scaled,
    q_factor,
    scaled_rhs,
)

__all__ = [
    "ModelInput",
    "SolutionProfile",
    "BoundaryQuantities",
    "solve_star",
    "solve_scaled",
    "boundary_quantities",
    "d2u_at_boundary",
    "smallness_condition",
    "SmallnessResult",
    "PROFILE_COLUMNS",
    "SOLVE_CTRL",
    "R_MAX_SCALED",
    "MONOTONE_SHORT",
    "NON_MONOTONE",
    "HORIZON_DEGENERATE",
    "UNTERMINATED",
]

MONOTONE_SHORT = "MonotoneShort"
NON_MONOTONE = "NonMonotone"
HORIZON_DEGENERATE = "HorizonDegenerate"
UNTERMINATED = "Unterminated"

PROFILE_COLUMNS = ("r", "m", "u", "P", "rho", "kappa", "Q", "dPdr")

_N_TAIL = 140  # extra profile samples packed against a vacuum boundary
_TAIL_OFFSETS = np.logspace(-8.0, -1.2, _N_TAIL)

# solve policy defaults
SOLVE_CTRL = StepControl(rel_tol=1e-12, abs_tol=1e-14)
R_MAX_SCALED = 50.0   # prolongation cap in homology units
_GERM_R = 1e-6        # scaled radius of the center germ
_KAPPA_MIN = 1e-10    # horizon guard
_MONO_EPS = 1e-6      # dU/dR floor distinguishing a rise from roundoff
_KAPPA_FLOOR = max(1e3 * _KAPPA_MIN, 1e-8)  # kappa_+ that counts as safely positive
_STENCIL_H0 = 1e-3    # first step of the boundary stencil, as a fraction of r_+
_STENCIL_LEVELS = 4   # halvings of the boundary stencil's step


@dataclass(frozen=True)
class ModelInput:
    """Central data, cosmological constant and step control for one star.

    Exactly one of rho_c / u_c must be given; the other is derived through
    the EOS.  r_max is a physical prolongation cap, which must exceed the
    germ radius; when None the cap is R_MAX_SCALED homology units.  The
    solve reads c from constants and the EOS reads its own c, so eos.c must
    equal constants.c; a mismatch is refused.
    """

    eos: EosSpec
    Lambda: float = 0.0
    constants: Constants = Constants()
    rho_c: float | None = None
    u_c: float | None = None
    r_max: float | None = None
    ctrl: StepControl = SOLVE_CTRL

    def __post_init__(self):
        if self.eos.c != self.constants.c:
            raise ValueError(f"the EOS has c = {self.eos.c!r} but constants has "
                             f"c = {self.constants.c!r}; they must agree")
        if (self.rho_c is None) == (self.u_c is None):
            raise ValueError("give exactly one of rho_c or u_c")
        if not (math.isfinite(self.Lambda) and self.Lambda >= 0.0):
            raise ValueError(f"Lambda must be finite and nonnegative, got {self.Lambda!r}")
        for name in ("rho_c", "u_c", "r_max"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.r_max is not None:
            a = self.scaling().a
            if self.r_max / a <= _GERM_R:
                raise ValueError(f"'r_max' must exceed the germ radius {_GERM_R * a!r}, "
                                 f"got {self.r_max!r}")

    def center_enthalpy(self) -> float:
        if self.u_c is not None:
            return self.u_c
        return self.eos.u_of_density(self.rho_c)

    def scaling(self) -> ScalingParams:
        return ScalingParams.from_center(self.center_enthalpy(), self.Lambda, self.eos, self.constants)


@dataclass(frozen=True)
class BoundaryQuantities:
    """Limits at the vacuum boundary of a monotone-short model."""

    r_plus: float
    m_plus: float
    kappa_plus: float
    Q_plus: float
    B: float                    # Q_+ / (r_+^2 kappa_+) = -du/dr|_{r_+ - 0}
    kappa_plus_prime: float     # d kappa/dr at r_+ - 0
    du_dr_minus: float          # one-sided derivative measured on the profile


@dataclass(frozen=True)
class ModelOutcome:
    """Classification record; exactly one tag."""

    kind: str
    boundary: BoundaryQuantities | None = None
    first_rise_r: float | None = None
    horizon_r: float | None = None
    end_r: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        payload: dict = dict(self.diagnostics)
        if self.boundary is not None:
            b = self.boundary
            payload.update(
                r_plus=b.r_plus, m_plus=b.m_plus, kappa_plus=b.kappa_plus,
                Q_plus=b.Q_plus, B=b.B, kappa_plus_prime=b.kappa_plus_prime,
                du_dr_minus=b.du_dr_minus,
            )
        if self.first_rise_r is not None:
            payload["first_rise_r"] = self.first_rise_r
        if self.horizon_r is not None:
            payload["horizon_r"] = self.horizon_r
        if self.end_r is not None:
            payload["end_r"] = self.end_r
        return {"tag": self.kind, "payload": payload}


@dataclass
class SolutionProfile:
    """Dense radial trajectory of the PROFILE_COLUMNS; its events and status
    are those of dense, whose state is (m, x), x = u or z = b Z
    (EosSpec.state_var).  r, m and x, named state, are stored; P, rho,
    kappa, Q and dPdr are derived in closed form, all five on the first
    read of any, and kept, and so is u.  A replace copy derives its own.

    A vacuum-terminated profile also carries its boundary stencil: the
    (m, u) pairs, as floats, at the radii of _stencil(r_+, -1.0), r_+ and
    r_+ - h, r_+ - 2h for h = h0/2^l, l = 0 ... 3, h0 = _STENCIL_H0 * r_+.
    The dense-output call that forms the profile's tail forms it too.  It
    is None for any other profile, and when the stencil would leave the
    solution span.  The boundary limits that need no stencil are formed on
    first read and kept, like the derived columns.
    """

    r: np.ndarray
    m: np.ndarray
    state: np.ndarray
    eos: EosSpec
    constants: Constants
    Lambda: float
    scaling: ScalingParams
    dense: DenseSolution
    stencil: list | None = None

    @cached_property
    def _derived(self) -> dict:
        k = self.constants
        r, m, n = self.r, self.m, self.r.size
        # each sample keeps the bits of tests/oracles.py::profile_row, which
        # evaluates one sample on floats
        rho, P = (np.fromiter(col, float, n) for col in self.eos.rho_P_of_state(self.state.tolist()))
        kap = kappa(r, m, self.Lambda, k)
        Q = q_factor(r, m, P, self.Lambda, k)
        dPdr = (rho + P / k.c2) * (-Q / (r * r * kap))
        return {"P": P, "rho": rho, "kappa": kap, "Q": Q, "dPdr": dPdr}

    P = property(lambda self: self._derived["P"])
    rho = property(lambda self: self._derived["rho"])
    kappa = property(lambda self: self._derived["kappa"])
    Q = property(lambda self: self._derived["Q"])
    dPdr = property(lambda self: self._derived["dPdr"])

    @cached_property
    def u(self) -> np.ndarray:
        if self.eos.state_var == "U":
            return self.state
        return np.fromiter(self.eos.u_of_state(self.state.tolist()), float, self.state.size)

    @cached_property
    def boundary_limits(self) -> tuple:
        """(r_+, m_+, kappa_+, Q_+, B, kappa'_+) at the vacuum event: the
        boundary limits that need no stencil."""
        ev = self.vacuum_event()
        k = self.constants
        r_plus = ev.x
        m_plus = float(ev.y[0])
        P_plus = self.eos.rho_P_of_state((float(ev.y[1]),))[1][0]
        kappa_plus = kappa(r_plus, m_plus, self.Lambda, k)
        Q_plus = q_factor(r_plus, m_plus, P_plus, self.Lambda, k)
        B = Q_plus / (r_plus * r_plus * kappa_plus)
        # dm/dr -> 0 at the boundary, so only the explicit r-derivatives survive
        kappa_plus_prime = dkappa_dr(r_plus, m_plus, self.Lambda, k)
        return r_plus, m_plus, kappa_plus, Q_plus, B, kappa_plus_prime

    @property
    def r_end(self) -> float:
        return float(self.dense.x_end)

    def vacuum_event(self):
        return next((ev for ev in self.dense.events if ev.name == "vacuum"), None)

    def horizon_event(self):
        return next((ev for ev in self.dense.events if ev.name == "horizon"), None)

    def state_at(self, r: float) -> tuple:
        """(m, u) interpolated from the dense solution."""
        y = self.dense(r)
        return float(y[0]), self.eos.u_of_state((float(y[1]),))[0]

    def write_csv(self, path, units_label: str = "geom") -> None:
        k = self.constants
        lines = [f"# units={units_label} c={k.c!r} G={k.G!r} Lambda={self.Lambda!r}"]
        lines.append(",".join(PROFILE_COLUMNS))
        cols = [getattr(self, name) for name in PROFILE_COLUMNS]
        for i in range(self.r.size):
            lines.append(",".join(repr(float(c[i])) for c in cols))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _build_profile(dense, inp: ModelInput, scaling: ScalingParams) -> SolutionProfile:
    r_end = dense.x_end
    xs = dense.xs
    # the grid is formed on Python floats, which hash, compare and sort
    # faster than numpy scalars
    samples = xs[xs <= r_end].tolist()
    n_nodes = len(samples)  # samples[:n_nodes] are the nodes xs[:n_nodes]
    if not samples or samples[-1] < r_end:
        samples.append(r_end)
    vacuum = next((ev for ev in dense.events if ev.name == "vacuum" and ev.terminal), None)
    radii = []
    if vacuum is not None:
        # pack log-spaced samples against the boundary for the exponent fits,
        # at relative offsets _TAIL_OFFSETS below r_end, in ascending order
        tail = r_end - r_end * _TAIL_OFFSETS[::-1]
        tail = tail[tail > xs[0]].tolist()
        if tail:
            # the tail lies within the last 10^-1.2 (6.3%) of r_end, so it
            # meets only the nodes of the last steps: merge it into the
            # suffix of samples from its first radius on; the nodes below
            # that radius are sorted, distinct and not in the tail
            n_nodes = bisect_left(samples, tail[0])
            samples[n_nodes:] = sorted(set(samples[n_nodes:]).union(tail))
        radii, _ = _stencil(vacuum.x, -1.0)
        if min(radii) < xs[0]:
            radii = []
    n = len(samples)
    rr = np.fromiter(samples, float, n)
    # dense output gives a node its stored state, so the leading nodes take
    # their rows from dense.ys; the samples after them and the boundary
    # stencil are evaluated in one call
    states = dense(np.concatenate((rr[n_nodes:], radii)))
    m, x = np.ascontiguousarray(np.concatenate((dense.ys[:n_nodes], states[:n - n_nodes])).T)
    # the stencil's (m, x) pairs as (m, u), which the boundary data read
    stencil = states[n - n_nodes:].tolist()
    us = inp.eos.u_of_state([x_s for _, x_s in stencil])
    stencil = [[m_s, u_s] for (m_s, _), u_s in zip(stencil, us)]
    return SolutionProfile(r=rr, m=m, state=x, eos=inp.eos, constants=inp.constants,
                           Lambda=inp.Lambda, scaling=scaling, dense=dense,
                           stencil=stencil or None)


# -- the solve core ------------------------------------------------------------

_FAILED = ("step_budget", "step_underflow", "domain_error")
# kappa_scaled over the scaled stage's names, bit for bit
_HORIZON = "(R - two_alpha * M - ab3 * (R * R * R)) / R"


@dataclass
class ScaledStar:
    """Outcome of one homology-scaled solve."""

    kind: str
    R_plus: float | None
    M_plus: float | None
    first_rise_R: float | None
    initial_rise: bool
    dense: DenseSolution


def _solve_core(alpha, beta, eos, ctrl, R_max) -> ScaledStar:
    """Germ, guards, integration and outcome tag of one scaled star.

    A failed integration raises ModelError carrying the partial
    DenseSolution as its profile, and a germ that overflows ModelError
    with none; each message ends with the star's alpha and beta.
    """
    try:
        y0 = center_germ_scaled(alpha, beta, eos, _GERM_R)
    except OverflowError:  # in Omega_rho and Omega_P at eta = alpha
        y0 = None
    if y0 is None or not (math.isfinite(y0[0]) and math.isfinite(y0[1])):
        raise ModelError(f"the center germ overflows for alpha = {alpha!r} and beta = {beta!r}")
    f = scaled_rhs(alpha, beta, eos)
    # each guard is an expression over the scaled stage's names, its constant
    # written in by repr, which keeps the float's bits; the rise guard reads
    # the FSAL stage's dU, and its refinement calls are counted in n_rhs
    events = [
        EventSpec(eos.state_var, direction="falling", terminal=True, name="vacuum"),
        EventSpec(f"{_HORIZON} - {_KAPPA_MIN!r}", direction="falling", terminal=True,
                  name="horizon"),
        EventSpec(f"dU - {_MONO_EPS!r}", direction="rising", root_tol=1e-10,
                  name="pressure_rise"),
    ]
    dense = integrate_adaptive(f, y0, (_GERM_R, R_max), ctrl, events=events)
    if dense.status in _FAILED:
        raise ModelError(f"solver failed: {dense.status}: {dense.message} (x is the scaled radius R) "
                         f"for alpha = {alpha!r} and beta = {beta!r}", profile=dense)
    # the germ's dU/dR: the start slope, k1 of the first step, times w in Z
    dU0 = float(dense.slopes[0, 1, 0])
    if eos.state_var == "Z":
        dU0 *= eos._w((eos.gamma - 1.0) / eos.gamma * alpha * y0[1])
    initial_rise = dU0 - _MONO_EPS >= 0.0

    rises = [ev for ev in dense.events if ev.name == "pressure_rise"]
    first_rise = _GERM_R if initial_rise else (rises[0].x if rises else None)
    vacuum = next((ev for ev in dense.events if ev.name == "vacuum"), None)
    horizon = next((ev for ev in dense.events if ev.name == "horizon"), None)
    end = horizon if horizon is not None else vacuum

    if horizon is not None:
        kind = HORIZON_DEGENERATE
    elif first_rise is not None:
        kind = NON_MONOTONE
    elif vacuum is not None:
        R, M = vacuum.x, float(vacuum.y[0])
        safe = kappa_scaled(R, M, alpha, beta) > _KAPPA_FLOOR and M - beta * R**3 / 3.0 > 0.0
        kind = MONOTONE_SHORT if safe else HORIZON_DEGENERATE
    else:
        kind = UNTERMINATED

    return ScaledStar(
        kind=kind,
        R_plus=None if end is None else end.x,
        M_plus=None if end is None else float(end.y[0]),
        first_rise_R=first_rise, initial_rise=initial_rise, dense=dense,
    )


def solve_scaled(alpha: float, beta: float, eos: EosSpec, ctrl: StepControl = SOLVE_CTRL,
                 R_max: float = R_MAX_SCALED) -> ScaledStar:
    """Integrate the scaled system from its germ and classify the outcome.

    ValueError for an alpha or beta that is negative or not finite."""
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    return _solve_core(alpha, beta, eos, ctrl, R_max)


def solve_star(inp: ModelInput) -> tuple:
    """Prolong the center germ rightward and classify the outcome.

    The scaled system is solved and mapped back to physical units.  Returns
    (SolutionProfile, ModelOutcome).  Solver failures raise ModelError with
    the partial profile attached, its derived columns formed, or None when
    there is no solution or its state overflows.
    """
    scaling = inp.scaling()
    a = scaling.a
    R_max = inp.r_max / a if inp.r_max is not None else R_MAX_SCALED
    ctrl = replace(inp.ctrl, h_max=inp.ctrl.h_max / a,
                   h_init=None if inp.ctrl.h_init is None else inp.ctrl.h_init / a)
    try:
        star = _solve_core(scaling.alpha, scaling.beta, inp.eos, ctrl, R_max)
    except ModelError as exc:
        partial = None
        if exc.profile is not None:
            try:
                partial = _build_profile(scaling.unscale_solution(exc.profile), inp, scaling)
                partial.P  # derives the state columns
            except OverflowError:  # a germ state past the EOS state map's float range
                partial = None
        raise ModelError(str(exc), profile=partial) from None
    profile = _build_profile(scaling.unscale_solution(star.dense), inp, scaling)
    return profile, _physical_outcome(star, profile, inp)


def _physical_outcome(star: ScaledStar, profile: SolutionProfile, inp: ModelInput) -> ModelOutcome:
    """The scaled star's tag with the physical boundary data and diagnostics."""
    first_rise = None if star.first_rise_R is None else profile.scaling.a * star.first_rise_R
    if star.kind == MONOTONE_SHORT:
        return ModelOutcome(kind=MONOTONE_SHORT, boundary=boundary_quantities(profile))
    if star.kind == NON_MONOTONE:
        return ModelOutcome(
            kind=NON_MONOTONE, first_rise_r=first_rise, end_r=profile.r_end,
            diagnostics={"initial_rise": star.initial_rise},
        )
    if star.kind == UNTERMINATED:
        P_c = profile.P[0]
        return ModelOutcome(
            kind=UNTERMINATED, end_r=profile.r_end,
            diagnostics={"P_end_over_Pc": float(profile.P[-1] / P_c) if P_c else 0.0},
        )
    # HorizonDegenerate: at the horizon guard, or at a vacuum boundary whose
    # kappa_+ or Q_+ is not safely positive
    horizon = profile.horizon_event()
    ev = horizon if horizon is not None else profile.vacuum_event()
    r_h, m_h = ev.x, float(ev.y[0])
    x_h = float(ev.y[1]) if horizon is not None else 0.0
    u_h = inp.eos.u_of_state((x_h,))[0]
    diag = {
        "u_end": u_h,
        "Q_end": q_factor(r_h, m_h, inp.eos.rho_P_of_state((x_h,))[1][0], inp.Lambda, inp.constants),
        "lambda_r2": inp.Lambda * r_h * r_h,
        "simultaneous_vacuum": bool(abs(u_h) < 1e-8 * profile.scaling.b),
    }
    if first_rise is not None:
        diag["first_rise_r"] = first_rise
    return ModelOutcome(kind=HORIZON_DEGENERATE, horizon_r=r_h, diagnostics=diag)


# -- boundary data ---------------------------------------------------------------

def _richardson(table: list):
    """Richardson extrapolation of float estimates at h0, h0/2, h0/4, ...
    whose error series runs in integer powers of h; the table is
    overwritten."""
    n = len(table)
    fac = 2.0
    for col in range(1, n):
        for i in range(n - 1, col - 1, -1):
            table[i] = (fac * table[i] - table[i - 1]) / (fac - 1.0)
        fac *= 2.0
    return table[-1]


def _stencil(x0: float, sign: float) -> tuple:
    """(radii, hs): the one-sided stencil at x0 from the side sign*h > 0,
    x0, then x0 + sign*h and x0 + 2*sign*h for each h in hs = h0, h0/2, ...
    over _STENCIL_LEVELS halvings, h0 = _STENCIL_H0 * x0.  Its first
    1 + 2*l radii are the stencil of the first l levels."""
    h0 = _STENCIL_H0 * x0
    hs = [h0 / 2**lv for lv in range(_STENCIL_LEVELS)]
    radii = [x0]
    for h in hs:
        radii += [x0 + sign * h, x0 + 2.0 * sign * h]
    return radii, hs


def _stencil_limits(values, hs: list, sign: float) -> tuple:
    """(f, f', f'') at x0 from the side sign*h > 0, Richardson-extrapolated,
    from the float values of f on the stencil of _stencil, over the levels
    of hs.  First derivative from one-sided differences, second from the
    three-point one-sided stencil; the quotients and Richardson passes run
    on Python floats, which round as float64 arrays do."""
    f0, *fs = values
    d1 = []
    d2 = []
    for h, f1, f2 in zip(hs, fs[0::2], fs[1::2]):
        d1.append((f1 - f0) / (sign * h))
        d2.append((f2 - 2.0 * f1 + f0) / (h * h))
    return f0, _richardson(d1), _richardson(d2)


def _boundary_stencil(profile: SolutionProfile) -> list:
    """The profile's boundary stencil; ModelError when it has none."""
    if profile.stencil is None:
        raise ModelError("the boundary stencil leaves the solution span", profile=profile)
    return profile.stencil


def boundary_quantities(profile: SolutionProfile) -> BoundaryQuantities:
    """Limits at r_+ of a vacuum-terminated profile; du/dr from the inside
    over the first three levels of the profile's boundary stencil."""
    ev = profile.vacuum_event()
    if ev is None:
        raise ModelError("profile did not terminate at a vacuum boundary", profile=profile)
    r_plus, m_plus, kappa_plus, Q_plus, B, kappa_plus_prime = profile.boundary_limits
    _, hs = _stencil(r_plus, -1.0)
    _, du_dr_minus, _ = _stencil_limits([u for _, u in _boundary_stencil(profile)], hs[:3], -1.0)
    return BoundaryQuantities(
        r_plus=r_plus, m_plus=m_plus, kappa_plus=kappa_plus, Q_plus=Q_plus,
        B=B, kappa_plus_prime=kappa_plus_prime, du_dr_minus=du_dr_minus,
    )


def d2u_at_boundary(bq: BoundaryQuantities, Lambda: float, c: float) -> float:
    """Second derivative of u at the boundary from the right-hand side:
    c^2 Lambda / kappa_+ + 2 Q_+ / (r_+^3 kappa_+) + 2 Q_+^2 / (c^2 r_+^4 kappa_+^2)."""
    c2 = c * c
    kp = bq.kappa_plus
    return (
        c2 * Lambda / kp
        + 2.0 * bq.Q_plus / (bq.r_plus**3 * kp)
        + 2.0 * bq.Q_plus**2 / (c2 * bq.r_plus**4 * kp * kp)
    )


# -- regime condition ------------------------------------------------------------

@dataclass(frozen=True)
class SmallnessResult:
    alpha: float
    beta: float
    satisfied: bool
    epsilon0: float
    lambda_cap: float      # largest Lambda admitting any compliant u_c
    lambda_feasible: bool


def smallness_condition(u_c: float, Lambda: float, eos: EosSpec, k: Constants,
                        epsilon0: float = 1.0) -> SmallnessResult:
    """Check alpha <= epsilon0 and beta <= epsilon0 for the given center.

    Requires 6/5 < gamma < 2 and 0 < epsilon0 <= 1.  lambda_cap is the
    ceiling 4 pi c^(2(2-gamma)/(gamma-1)) G A1 epsilon0^(gamma/(gamma-1))
    above which no central enthalpy can satisfy both inequalities.
    """
    if not (1.2 < eos.gamma < 2.0):
        raise ValueError(f"smallness condition requires 6/5 < gamma < 2, got {eos.gamma}")
    if not (0.0 < epsilon0 <= 1.0):
        raise ValueError("epsilon0 must lie in (0, 1]")
    sp = ScalingParams.from_center(u_c, Lambda, eos, k)
    g = eos.gamma
    lambda_cap = (
        FOUR_PI * k.c ** (2.0 * (2.0 - g) / (g - 1.0)) * k.G * eos.A1
        * epsilon0 ** (g / (g - 1.0))
    )
    return SmallnessResult(
        alpha=sp.alpha,
        beta=sp.beta,
        satisfied=(sp.alpha <= epsilon0 and sp.beta <= epsilon0),
        epsilon0=epsilon0,
        lambda_cap=lambda_cap,
        lambda_feasible=(Lambda <= lambda_cap),
    )
