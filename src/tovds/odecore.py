"""Right-hand sides and center germs of the stellar-structure systems.

All functions are pure.  Right-hand sides take the state y as any sequence of
two floats (the integrator passes a list) and return the slopes as a tuple of
two floats.  State conventions:

    physical enthalpy form   y = (m, u),   x = r
    scaled form              y = (M, X),   x = R,  X = EosSpec.state_var

The solvers integrate the scaled form only; the enthalpy form is its
physical-unit reference.  The scaled right-hand side is written once, as the
stage text _SCALED around the EOS's terms text.  Its Newtonian limit,
Lane-Emden(-de Sitter), is the same text at alpha = 0 with lambda = beta,
which analysis.lane_emden_solution runs from center_germ_scaled.
scaled_rhs(alpha, beta, eos) binds the constants to the text and returns
the right-hand side compiled from it, which carries the text and its bound
values: the only kind integrate_adaptive takes.  Its step loop runs the text
in every stage, and a solve's guards are expressions over the stage's names
(integrate.EventSpec).  The start slope, the initial step and the refinement
of slope guards call the function, and rhs_scaled calls it once.

kappa(r, m) = 1 - 2Gm/(c^2 r) - Lambda r^2/3, its r-derivative at fixed m
and Q(r, m, P) = G(m + 4 pi r^3 P / c^2) - c^2 Lambda r^3 / 3 are spelled
out once, in kappa, dkappa_dr and q_factor.  The scaled form writes kappa
as R kappa (_SCALED).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import Constants
from .eos import EosSpec
from .errors import KappaNonPositiveError
from .integrate import DenseSolution, Stage, stage_rhs

# rhs_tovds_enthalpy and rhs_scaled, the called forms, are left out: no
# solve calls them, and the tests and perfbench/spans.py reach them by name
__all__ = [
    "FOUR_PI",
    "kappa",
    "q_factor",
    "dkappa_dr",
    "einstein_static_lambda",
    "kappa_scaled",
    "scaled_rhs",
    "center_germ_scaled",
    "ScalingParams",
]

FOUR_PI = 4.0 * math.pi


def kappa(r: float, m: float, Lambda: float, k: Constants) -> float:
    """Metric potential 1 - 2Gm/(c^2 r) - Lambda r^2 / 3."""
    return 1.0 - 2.0 * k.G * m / (k.c2 * r) - Lambda * r * r / 3.0


def q_factor(r: float, m: float, P: float, Lambda: float, k: Constants) -> float:
    """Effective gravitating numerator G(m + 4 pi r^3 P/c^2) - c^2 Lambda r^3/3."""
    r3 = r * r * r
    return k.G * (m + FOUR_PI * r3 * P / k.c2) - k.c2 * Lambda * r3 / 3.0


def dkappa_dr(r: float, m: float, Lambda: float, k: Constants) -> float:
    """Partial r-derivative of kappa at fixed m: 2Gm/(c^2 r^2) - 2 Lambda r / 3."""
    return 2.0 * k.G * m / (k.c2 * r * r) - 2.0 * Lambda * r / 3.0


def einstein_static_lambda(rho: float, P: float, k: Constants) -> float:
    """The Lambda = 4 pi G (rho + 3 P/c^2) / c^2 at which a fluid of constant
    rho and P is static (the Einstein static universe)."""
    return FOUR_PI * k.G * (rho + 3.0 * P / k.c2) / k.c2


def kappa_scaled(R: float, M: float, alpha: float, beta: float) -> float:
    """1 - 2 alpha M / R - alpha beta R^2 / 3, as R kappa / R: the bits of the
    scaled stage's kappa test and of the solve's horizon guard."""
    return (R - 2.0 * alpha * M - alpha * beta / 3.0 * (R * R * R)) / R


def _check_kappa(kap: float, r: float) -> None:
    if kap <= 0.0:
        raise KappaNonPositiveError(f"kappa = {kap:g} <= 0 at r = {r:g} (horizon contact)")


def rhs_tovds_enthalpy(r: float, y, Lambda: float, eos: EosSpec, k: Constants) -> tuple:
    """(dm/dr, du/dr) of the enthalpy-form system.

    rho and P are EosSpec.rho_P_of_u's, zero past the vacuum: they enter
    through the powers mu and mu+1 of u, both C^1 across u = 0 because
    mu > 1.
    """
    m, u = y
    (rho,), (P,) = eos.rho_P_of_u((u,))
    kap = kappa(r, m, Lambda, k)
    _check_kappa(kap, r)
    Q = q_factor(r, m, P, Lambda, k)
    dm = FOUR_PI * r * r * rho
    du = -Q / (r * r * kap)
    return dm, du


# The scaled right-hand side as statements: dM and dU from R, M and X_pos,
# the positive part of the state X, U or Z (EosSpec.state_var), set by the
# stage's first line; TERMS stands for the EOS's terms text
# (EosSpec.stage_terms_source), the one definition of rho_term and p_term.
# Past the vacuum both are 0, so neither X <= 0 nor alpha = 0 takes a branch
# of its own.  R^2 kappa is written R (R kappa), R kappa = R - 2 alpha M -
# alpha beta R^3 / 3, R^3 = (R R) R: no division for kappa and no pow.  In Z
# the stage ends with dZ = dU dZ_dU.  At alpha = 0 every text gives X#^mu,
# X#^(mu+1) and dZ_dU = 1, R kappa is R: the stage is Lane-Emden-de Sitter
# with lambda = beta (analysis.lane_emden_solution), in U or Z alike.
# kappa_scaled and model._HORIZON write R kappa / R by the same expression, so
# the stage's kappa test and the horizon guard share their bits.
_SCALED = """\
TERMS
RR = R * R
R3 = RR * R
dM = RR * rho_term
Rkap = R - two_alpha * M - ab3 * R3
if Rkap <= 0.0:
    raise KappaNonPositiveError(f"kappa = {Rkap / R:g} <= 0 at r = {R:g} (horizon contact)")
dU = -(M - R3 * (beta3 - p_alpha * p_term)) / (R * Rkap)
"""


@functools.cache
def _scaled_stage(label: str, var: str, terms_text: str, consts: tuple) -> Stage:
    body = f"{var}_pos = {var} if {var} > 0.0 else 0.0\n" + _SCALED.replace("TERMS\n", terms_text)
    if var == "Z":
        body += "dZ = dU * dZ_dU\n"
    return Stage(name=f"scaled, {label}", x="R", y=("M", var), dy=("dM", f"d{var}"), body=body,
                 consts=consts)


def scaled_rhs(alpha: float, beta: float, eos: EosSpec):
    """The right-hand side R, y -> (dM/dR, dX/dR) of the homology-scaled
    system in (M, X), X = eos.state_var, with alpha, beta and the EOS
    constants bound once, built from the stage text _SCALED
    (integrate.stage_rhs).  Raises KappaNonPositiveError where kappa <= 0
    (horizon contact), reporting kappa_scaled's value, and in Z an
    EosDomainError past the EOS domain.
    """
    label, terms_text, values = eos.stage_terms_source()
    g = eos.gamma
    values.update(
        alpha=alpha,
        beta3=beta / 3.0,
        mu=eos.mu,
        p_alpha=(g - 1.0) / g * alpha,
        two_alpha=2.0 * alpha,
        ab3=alpha * beta / 3.0,
        KappaNonPositiveError=KappaNonPositiveError,
    )
    return stage_rhs(_scaled_stage(label, eos.state_var, terms_text, tuple(values)), values)


def rhs_scaled(R: float, y, alpha: float, beta: float, eos: EosSpec) -> tuple:
    """(dM/dR, dX/dR) of the homology-scaled system at one point of (M, X),
    X = eos.state_var."""
    return scaled_rhs(alpha, beta, eos)(R, y)


# -- center germs -------------------------------------------------------------

def center_germ_scaled(alpha: float, beta: float, eos: EosSpec, R: float) -> tuple:
    """Leading series (M, X) at R -> +0, X = eos.state_var: M = Omega_rho R^3/3
    and X = X_c - c2 R^2/6 dX/dU, c2 = Omega_rho + 3 (gamma-1)/gamma alpha
    Omega_P - beta, from EosSpec.center_terms(alpha); U = 1 - c2 R^2/6."""
    omega_rho, omega_P, X_c, dX_dU = eos.center_terms(alpha)
    g = eos.gamma
    c2 = omega_rho + 3.0 * (g - 1.0) / g * alpha * omega_P - beta
    M = omega_rho * R**3 / 3.0
    X = X_c - c2 * R * R / 6.0 * dX_dU
    return M, X


# -- homology scaling ---------------------------------------------------------

@dataclass(frozen=True)
class ScalingParams:
    """Homology scales mapping the physical system onto the scaled one.

    r = a R,  u = b U,  m = mass_scale * M  with  mass_scale = 4 pi A1 a^3 b^mu,
    and 4 pi G A1 a^2 b^(mu-1) = 1.  alpha = b/c^2 measures how relativistic
    the star is; beta = lam * b^(-mu), lam = c^2 Lambda / (4 pi G A1), is the
    scaled cosmological constant.
    """

    a: float
    b: float
    alpha: float
    beta: float
    mass_scale: float

    @classmethod
    def from_center(cls, u_c: float, Lambda: float, eos: EosSpec, k: Constants) -> "ScalingParams":
        if u_c <= 0.0:
            raise ValueError("central enthalpy must be positive")
        if Lambda < 0.0:
            raise ValueError("Lambda must be nonnegative")
        b = u_c
        mu = eos.mu
        A1 = eos.A1
        a = (FOUR_PI * k.G * A1 * b ** (mu - 1.0)) ** -0.5
        lam = k.c2 * Lambda / (FOUR_PI * k.G * A1)
        return cls(a=a, b=b, alpha=b / k.c2, beta=lam * b**-mu,
                   mass_scale=FOUR_PI * A1 * a**3 * b**mu)

    @staticmethod
    def lambda_of_beta(beta: float, u_c: float, eos: EosSpec, k: Constants) -> float:
        """The Lambda whose scaled constant is beta at the central enthalpy
        u_c, the inverse of from_center's beta = lam u_c^(-mu)."""
        return beta * FOUR_PI * k.G * eos.A1 * u_c**eos.mu / k.c2

    def unscale_state(self, R: float, y) -> tuple:
        """(R, (M, U)) -> (r, (m, u))."""
        return self.a * R, np.array([self.mass_scale * y[0], self.b * y[1]])

    def unscale_solution(self, dense: DenseSolution) -> DenseSolution:
        """A solution of the scaled system in (r, (m, u)): nodes, states, end
        point and events.  It keeps the scaled step slopes and carries their
        scale (mass_scale, b)/a, so dense output forms the rows of the steps
        it reads and multiplies them by that scale: the scaled rows times
        the scale, as forming rows from unscaled slopes would round
        differently.  No row is formed here."""
        y_scale = np.array([self.mass_scale, self.b])
        events = []
        for ev in dense.events:
            x, y = self.unscale_state(ev.x, ev.y)
            events.append(replace(ev, x=x, y=y))
        return replace(
            dense,
            xs=self.a * dense.xs,
            ys=dense.ys * y_scale,
            slope_scale=y_scale / self.a,
            events=events,
            x_end=self.a * dense.x_end,
            y_end=dense.y_end * y_scale,
        )
