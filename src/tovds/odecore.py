"""Right-hand sides and center germs of the stellar-structure systems.

All functions are pure.  Right-hand sides take the state y as any sequence of
two floats (the integrator passes a list) and return the slopes as a tuple of
two floats.  State conventions:

    physical enthalpy form   y = (m, u),   x = r
    scaled form              y = (M, U),   x = R

The solvers integrate the scaled form only; the enthalpy form is its
physical-unit reference.  The scaled right-hand side is written once, as the
stage text _SCALED.  scaled_rhs(alpha, beta, eos) binds one star's
constants and the EOS fast path to it and returns the right-hand side
R, y -> (dM/dR, dU/dR) compiled from that text, which carries the text and
its bound values.  A solve passes it to integrate_adaptive, whose step loop
runs the same text in every stage instead of calling it; the germ check,
the initial step and the refinement of slope guards call it.  rhs_scaled is
that function called once.

kappa(r, m) = 1 - 2Gm/(c^2 r) - Lambda r^2/3 and
Q(r, m, P) = G(m + 4 pi r^3 P / c^2) - c^2 Lambda r^3 / 3 are spelled out in
kappa and q_factor, which the enthalpy form calls; the scaled form spells out
its own kappa, with the same expression as kappa_scaled.
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

# rhs_tovds_enthalpy and rhs_scaled are left out: no solve calls them, and
# the test oracles and perfbench/spans.py reach them by name
__all__ = [
    "FOUR_PI",
    "kappa",
    "q_factor",
    "kappa_scaled",
    "scaled_rhs",
    "rhs_lane_emden",
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


def kappa_scaled(R: float, M: float, alpha: float, beta: float) -> float:
    return 1.0 - 2.0 * alpha * M / R - alpha * beta * R * R / 3.0


def _check_kappa(kap: float, r: float) -> None:
    if kap <= 0.0:
        raise KappaNonPositiveError(f"kappa = {kap:g} <= 0 at r = {r:g} (horizon contact)")


def rhs_tovds_enthalpy(r: float, y, Lambda: float, eos: EosSpec, k: Constants) -> tuple:
    """(dm/dr, du/dr) of the enthalpy-form system.

    The positive part u# = max(u, 0) enters through the powers mu and mu+1,
    both C^1 across u = 0 because mu > 1; Omega_rho and Omega_P are
    evaluated at eta = u#/c^2: past the vacuum they multiply 0.
    """
    m, u = y
    u_pos = u if u > 0.0 else 0.0
    omega_rho, omega_P = eos.omega_rho_P_fast(u_pos / k.c2)
    rho = eos.A1 * u_pos**eos.mu * omega_rho
    P = eos.p_coeff * u_pos ** (eos.mu + 1.0) * omega_P
    kap = kappa(r, m, Lambda, k)
    _check_kappa(kap, r)
    Q = q_factor(r, m, P, Lambda, k)
    dm = FOUR_PI * r * r * rho
    du = -Q / (r * r * kap)
    return dm, du


# The scaled right-hand side as statements: dM and dU from R, M and U.  The
# line TERMS stands for the EOS's statements (EosSpec.stage_terms_source),
# which set rho_term = U#^mu Omega_rho and p_term = U#^(mu+1) Omega_P from
# U_pos = U# and eta = alpha U#: for Omega == 1 they are Z^mu and Z^(mu+1)
# with Z = U# / Omega_u, one pow; for a series Omega, the table's Omega_rho
# and Omega_P times U#^mu and U#^(mu+1).  Past the vacuum both terms are 0 and
# every path gives exactly Omega_rho = Omega_P = 1 at eta = 0, so neither
# U <= 0 nor alpha = 0 takes a branch of its own.  R3 stays R**3, the
# Lane-Emden right-hand side's power, so that alpha = beta = 0 reduces to it
# bit for bit.  The free names are the constants scaled_rhs binds; mu is the
# EOS's mu, as in the terms' text.
_SCALED = """\
U_pos = U if U > 0.0 else 0.0
eta = alpha * U_pos
TERMS
R3 = R**3
dM = R * R * rho_term
num = M + p_alpha * R3 * p_term - beta * R3 / 3.0
kap = 1.0 - two_alpha * M / R - alpha_beta * R * R / 3.0
if kap <= 0.0:
    raise KappaNonPositiveError(f"kappa = {kap:g} <= 0 at r = {R:g} (horizon contact)")
dU = -num / (R * R * kap)
"""


@functools.cache
def _scaled_stage(label: str, terms_text: str, consts: tuple) -> Stage:
    return Stage(name=f"scaled, {label}", x="R", y=("M", "U"), dy=("dM", "dU"),
                 body=_SCALED.replace("TERMS\n", terms_text),
                 consts=consts)


def scaled_rhs(alpha: float, beta: float, eos: EosSpec):
    """The right-hand side R, y -> (dM/dR, dU/dR) of the homology-scaled system.

    alpha, beta, the EOS constants and the EOS fast path are bound once, so
    a solve pays for them once and not at every stage.  The function is
    built from the stage text _SCALED (integrate.stage_rhs), which
    integrate_adaptive writes into its step loop; for Omega == 1 the closed
    form is written in too, by the identities U^mu Omega_rho = Z^mu and
    U^(mu+1) Omega_P = Z^(mu+1), Z = U / Omega_u, which make one pow of
    Z where Omega_rho, Omega_P and the two powers of U took three.  At
    alpha = beta = 0 this reduces exactly (bitwise) to the Lane-Emden
    right-hand side with lambda = 0, whose R**3 it keeps.  Raises
    KappaNonPositiveError where kappa <= 0 (horizon contact).
    """
    label, terms_text, values = eos.stage_terms_source()
    g = eos.gamma
    values.update(
        alpha=alpha,
        beta=beta,
        mu=eos.mu,
        mu1=eos.mu + 1.0,
        p_alpha=(g - 1.0) / g * alpha,
        two_alpha=2.0 * alpha,
        alpha_beta=alpha * beta,
        KappaNonPositiveError=KappaNonPositiveError,
    )
    return stage_rhs(_scaled_stage(label, terms_text, tuple(values)), values)


def rhs_scaled(R: float, y, alpha: float, beta: float, eos: EosSpec) -> tuple:
    """(dM/dR, dU/dR) of the homology-scaled system at one point."""
    return scaled_rhs(alpha, beta, eos)(R, y)


def rhs_lane_emden(R: float, y, mu: float, lam: float = 0.0) -> tuple:
    """(dM/dR, dU/dR) = (R^2 (U#)^mu, -(M - lam R^3/3)/R^2)."""
    M, U = y
    U_pos = U if U > 0.0 else 0.0
    dM = R * R * U_pos**mu
    dU = -(M - lam * R**3 / 3.0) / (R * R)
    return dM, dU


# -- center germs -------------------------------------------------------------

def scaled_germ_u_coeff(alpha: float, eos: EosSpec, beta: float) -> float:
    """Quadratic coefficient of the scaled germ:
    Omega_rho(alpha) + 3 (gamma-1)/gamma alpha Omega_P(alpha) - beta."""
    omega_rho, omega_P = eos.omega_rho_P_fast(alpha)
    g = eos.gamma
    return omega_rho + 3.0 * (g - 1.0) / g * alpha * omega_P - beta


def center_germ_scaled(alpha: float, beta: float, eos: EosSpec, R: float) -> tuple:
    """Leading series (M, U) at R -> +0 of the scaled system."""
    omega_rho, _ = eos.omega_rho_P_fast(alpha)
    M = omega_rho * R**3 / 3.0
    U = 1.0 - scaled_germ_u_coeff(alpha, eos, beta) * R * R / 6.0
    return M, U


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

    def unscale_state(self, R: float, y) -> tuple:
        """(R, (M, U)) -> (r, (m, u))."""
        return self.a * R, np.array([self.mass_scale * y[0], self.b * y[1]])

    def unscale_solution(self, dense: DenseSolution) -> DenseSolution:
        """A solution of the scaled system in (r, (m, u)): nodes, states,
        interpolant coefficients (slopes, so scaled by (mass_scale, b)/a),
        end point and events."""
        y_scale = np.array([self.mass_scale, self.b])
        events = []
        for ev in dense.events:
            x, y = self.unscale_state(ev.x, ev.y)
            events.append(replace(ev, x=x, y=y))
        return replace(
            dense,
            xs=self.a * dense.xs,
            ys=dense.ys * y_scale,
            interp=dense.interp * (y_scale / self.a)[:, None],
            events=events,
            x_end=self.a * dense.x_end,
            y_end=dense.y_end * y_scale,
        )
