"""Reference forms that only the tests use.

The solvers integrate the scaled system alone.  The pressure form of the
structure equations, the physical-unit germs, the Lambda = 0 enthalpy
system, the explicit-c scaled system, the density inversion of the EOS and
the per-sample profile row live here, as independent oracles for the code
in src/.
"""

import math
from dataclasses import dataclass

import numpy as np

from tovds.errors import KappaNonPositiveError, RootFindError
from tovds.odecore import kappa, q_factor, rhs_scaled, rhs_tovds_enthalpy

FOUR_PI = 4.0 * math.pi


# -- EOS -------------------------------------------------------------------------

@dataclass(frozen=True)
class ThermoState:
    """One thermodynamic state expressed in every variable used here."""

    rho: float
    P: float
    u: float
    zeta: float  # A rho^(gamma-1) / c^2
    eta: float   # u / c^2


def thermo_of_density(eos, rho: float) -> ThermoState:
    u = eos.u_of_density(rho)
    return ThermoState(
        rho=rho,
        P=eos._pressure_raw(rho) if rho > 0.0 else 0.0,
        u=u,
        zeta=eos.zeta_of_density(rho) if rho > 0.0 else 0.0,
        eta=u / eos.c2,
    )


def density_of_pressure(eos, P: float) -> float:
    """Invert P(rho) by bracketed Newton on the uncorrected polytrope seed."""
    if P <= 0.0:
        return 0.0
    rho = (P / eos.A) ** (1.0 / eos.gamma)
    lo, hi = 0.0, 0.0
    for _ in range(200):
        f = eos._pressure_raw(rho) - P
        if f == 0.0:
            break
        if f < 0.0:
            lo = rho
            if hi == 0.0:
                cand = rho * 2.0
            else:
                cand = rho - f / eos._dpdrho_raw(rho)
        else:
            hi = rho
            cand = rho - f / eos._dpdrho_raw(rho)
        if hi > 0.0 and not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        if abs(cand - rho) <= 1e-15 * max(abs(cand), 1e-300):
            rho = cand
            break
        rho = cand
    else:
        raise RootFindError(f"density_of_pressure did not converge for P = {P:g}")
    # final admissibility check at the found state
    eos.pressure_of_density(rho)
    return rho


# -- right-hand sides -----------------------------------------------------------

def rhs_tovds_pressure(r: float, y, Lambda: float, eos, k) -> tuple:
    """(dm/dr, dP/dr) of the pressure-form system."""
    m, P = y
    rho = density_of_pressure(eos, P)
    kap = kappa(r, m, Lambda, k)
    if kap <= 0.0:
        raise KappaNonPositiveError(f"kappa = {kap:g} <= 0 at r = {r:g} (horizon contact)")
    Q = q_factor(r, m, P, Lambda, k)
    dm = FOUR_PI * r * r * rho
    dP = -(rho + P / k.c2) * Q / (r * r * kap)
    return dm, dP


def rhs_tov(r: float, y, eos, k) -> tuple:
    """Enthalpy-form system with Lambda = 0."""
    return rhs_tovds_enthalpy(r, y, 0.0, eos, k)


def rhs_scaled_c(R: float, y, lam: float, c: float, eos) -> tuple:
    """Scaled system with the central enthalpy normalized to 1 and c explicit.

    Identical to rhs_scaled with alpha = 1/c^2 and beta = lam; as c -> inf it
    tends to the Lane-Emden-de Sitter right-hand side.
    """
    return rhs_scaled(R, y, 1.0 / (c * c), lam, eos)


# -- profile ------------------------------------------------------------------------

def profile_row(r, m, u, Lambda, eos, k) -> dict:
    """One sample of a SolutionProfile, from the state (m, u) at r on floats."""
    eta = u / k.c2
    if u > 0.0:
        omega_rho, omega_P = eos.omega_rho_P_fast(eta)
        rho = eos.A1 * u**eos.mu * omega_rho
        P = eos.p_coeff * u ** (eos.mu + 1.0) * omega_P
    else:
        rho = 0.0
        P = 0.0
    kap = kappa(r, m, Lambda, k)
    Q = q_factor(r, m, P, Lambda, k)
    du_dr = -Q / (r * r * kap)
    return {
        "r": r, "m": m, "u": u, "P": P, "rho": rho,
        "kappa": kap, "Q": Q, "dPdr": (rho + P / k.c2) * du_dr,
    }


# -- physical-unit germs ----------------------------------------------------------

def center_germ_physical(rho_c: float, Lambda: float, eos, k, r: float) -> tuple:
    """Leading series (m, P) at r -> +0; truncation errors O(r^5), O(r^4)."""
    P_c = eos.pressure_of_density(rho_c)
    m = FOUR_PI / 3.0 * rho_c * r**3
    coeff = (rho_c + P_c / k.c2) * (FOUR_PI * k.G * (rho_c + 3.0 * P_c / k.c2) - k.c2 * Lambda)
    P = P_c - coeff * r * r / 6.0
    return m, P


def center_germ_enthalpy(u_c: float, Lambda: float, eos, k, r: float) -> tuple:
    """Leading series (m, u) at r -> +0 for the enthalpy form.

    The quadratic coefficient is the pressure-form one divided by
    (rho_c + P_c/c^2), since du = dP / (rho + P/c^2).
    """
    rho_c = eos.density_of_u(u_c)
    P_c = eos.pressure_of_u(u_c)
    m = FOUR_PI / 3.0 * rho_c * r**3
    u = u_c - (FOUR_PI * k.G * (rho_c + 3.0 * P_c / k.c2) - k.c2 * Lambda) * r * r / 6.0
    return m, u


# -- homology scaling ---------------------------------------------------------------

def scale_state(sp, r: float, y) -> tuple:
    """(r, (m, u)) -> (R, (M, U)), the inverse of ScalingParams.unscale_state."""
    return r / sp.a, np.array([y[0] / sp.mass_scale, y[1] / sp.b])
