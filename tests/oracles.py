"""Reference forms that only the tests use.

The solvers integrate the scaled system alone.  The pressure form of the
structure equations, the physical-unit germs, the Lambda = 0 enthalpy
system, the explicit-c scaled system, the density inversion of the EOS, the
numpy and mpmath evaluations of a series Omega and of Omega_u, the scalar
eta -> zeta search, a table piece fitted node by node through the scalar
direct path, the per-density range check of an EOS, the EOS terms per point
on floats (the Z form of Omega == 1, a series Omega's tables summed by a
loop Horner), the mpmath closed form of Omega == 1, the Lane-Emden
right-hand side on floats, the profile's sample grid formed on numpy
scalars, the per-sample profile row, the pointwise boundary slope and
continuity report, the scaled right-hand side spelled through kappa_scaled
and _check_kappa, every step's quartic coefficients at once, one DP5 attempt
written with per-component comprehensions and the adaptive loop around it, a
scalar dense-output evaluation on Python floats, the Lambda = 0 vacuum
continuation, the second derivative of sin(R)/R, the residual of the mu = 1
closed form and the distance of scaled stars to the Lane-Emden orbit live
here, as independent oracles for the code in src/.  So does the stage that
calls a plain function as its right-hand side, with guards that call plain
functions bound as further constants of a stage, for comparisons of a
stage's written-in text with calls of it.
"""

import ast
import functools
import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npoly

from tovds import codegen
from tovds import integrate as ig
from tovds.analysis import _sinc_jet, lane_emden_solution
from tovds.eos import _OFF_DOMAIN, _TAB_DEG, _TAB_NODES, EosSpec
from tovds.errors import (
    AnalysisError,
    DomainSignalError,
    EosDomainError,
    KappaNonPositiveError,
    RootFindError,
)
from tovds.model import SOLVE_CTRL, solve_scaled
from tovds.odecore import (
    _check_kappa,
    kappa,
    kappa_scaled,
    q_factor,
    rhs_scaled,
    rhs_tovds_enthalpy,
)

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


def omega_series_numpy(coeffs, zeta: float, order: int = 0) -> float:
    """d^order Omega / dzeta^order of a series Omega by numpy.polynomial."""
    return float(npoly.polyval(zeta, npoly.polyder(coeffs, order)))


def omega_u_mpmath(eos, zeta: float, dps: int = 30) -> float:
    """Omega_u(zeta) = (1/zeta) int_0^zeta w of a series Omega by mpmath quad,
    with w = [Omega + (gamma-1)/gamma z Omega'] / (1 + z Omega)."""
    with mpmath.workdps(dps):
        c = [mpmath.mpf(x) for x in eos.omega.coeffs]
        dc = [j * c[j] for j in range(1, len(c))] or [mpmath.mpf(0)]
        k = mpmath.mpf(eos.gamma - 1.0) / mpmath.mpf(eos.gamma)

        def w(t):
            om = mpmath.polyval(c[::-1], t)
            return (om + k * t * mpmath.polyval(dc[::-1], t)) / (1 + t * om)

        z = mpmath.mpf(zeta)
        return float(mpmath.quad(w, [0, z]) / z)


def closed_form_omegas_mpmath(eos, eta, dps: int = 40) -> tuple:
    """(Omega_rho, Omega_P) of Omega == 1 at eta, two mpmath numbers of dps
    digits: Omega_u = x / expm1(x), x = k eta, k = (gamma-1)/gamma,
    Omega_rho = Omega_u^(-mu) and Omega_P = Omega_u^(-mu-1).  gamma and eta
    are exact; the exponent mu is the EOS's float, as a half-ulp change of
    it moves u^mu by up to ln(u) / 2 ulp."""
    with mpmath.workdps(dps):
        g, mu = mpmath.mpf(eos.gamma), mpmath.mpf(eos.mu)
        x = (g - 1) / g * mpmath.mpf(eta)
        omu = x / mpmath.expm1(x)
        return omu**-mu, omu ** (-mu - 1)


def closed_form_state_mpmath(eos, u: float, dps: int = 40) -> tuple:
    """(rho, P) of Omega == 1 at the enthalpy u > 0 by mpmath:
    rho = A1 u^mu Omega_rho(u/c^2) and P = A A1^gamma u^(mu+1) Omega_P(u/c^2),
    with u and c exact and A1, A A1^gamma and mu the EOS's floats."""
    with mpmath.workdps(dps):
        u, mu = mpmath.mpf(u), mpmath.mpf(eos.mu)
        omega_rho, omega_P = closed_form_omegas_mpmath(eos, u / mpmath.mpf(eos.c) ** 2, dps)
        return float(eos.A1 * u**mu * omega_rho), float(eos.p_coeff * u ** (mu + 1) * omega_P)


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


def validate_range_reference(eos, rho_lo: float, rho_hi: float) -> None:
    """EosSpec.validate_range one density at a time: the first of 64 log-spaced
    densities where the EOS is not admissible raises its NonPhysicalEosError."""
    if not (0.0 < rho_lo < rho_hi):
        raise ValueError("need 0 < rho_lo < rho_hi")
    for rho in np.geomspace(rho_lo, rho_hi, 64):
        eos.pressure_of_density(float(rho))


def zeta_of_eta_reference(eos, eta: float) -> float:
    """eta -> zeta by one scalar search: bracketing plus Newton safeguarded
    by bisection, each residual one eos.omega_u, each slope one eos._w on a
    float.  EosSpec's batched inversion must give the same bits."""
    if not eta >= 0.0:
        raise EosDomainError(f"eta = {eta!r}: the EOS is defined for eta >= 0 only")
    if eta == 0.0:
        return 0.0
    gfac = eos.gamma / (eos.gamma - 1.0)

    def F(z: float) -> float:
        return gfac * z * eos.omega_u(z) - eta

    z0 = eta / gfac
    if z0 == 0.0:
        return 0.0
    f = f_hi = F(z0)
    lo, hi = 0.0, z0
    for _ in range(199):
        if f_hi >= 0.0:
            break
        hi *= 2.0
        f_hi = F(hi)
    if f_hi < 0.0:
        raise RootFindError(f"could not bracket zeta(eta) for eta = {eta:g}")
    z = z0
    for i in range(100):
        if i:
            f = F(z)
        if f == 0.0:
            return z
        if f < 0.0:
            lo = z
        else:
            hi = z
        slope = gfac * eos._w(z)
        z_new = z - f / slope if slope > 0.0 else 0.5 * (lo + hi)
        if not (lo < z_new < hi):
            z_new = 0.5 * (lo + hi)
        if abs(z_new - z) <= 1e-15 * z_new:
            return z_new
        z = z_new
    raise RootFindError(f"zeta(eta) did not converge for eta = {eta:g}; last bracket [{lo:g}, {hi:g}]")


def piece_reference(eos, i: int):
    """Table piece i fitted node by node through the scalar eos.omega_rho_P:
    (coef_rho, coef_P), or _OFF_DOMAIN when a node leaves the EOS domain.
    _OmegaTables.build must give the same bits."""
    tab = eos._tables
    etas = tab.mids[i] + tab.halfw * _TAB_NODES
    try:
        vals = np.array([eos.omega_rho_P(float(e)) for e in etas])
    except EosDomainError:
        return _OFF_DOMAIN
    cr = npoly.polyfit(_TAB_NODES, vals[:, 0], _TAB_DEG)
    cP = npoly.polyfit(_TAB_NODES, vals[:, 1], _TAB_DEG)
    return tuple(float(x) for x in cr), tuple(float(x) for x in cP)


def terms_reference(eos, alpha: float, U_pos: float) -> tuple:
    """(U#^mu Omega_rho, U#^(mu+1) Omega_P) at eta = alpha U#, U# = U_pos,
    on floats with every constant formed at the call.  For Omega == 1 they
    are Z^mu and Z^mu Z with Z = U# / Omega_u = U# expm1(x) / x,
    x = k alpha U#, k = (gamma-1)/gamma, and Z = U# where x is 0; for a
    series Omega, the table's values times U#^mu and U#^mu U#.  The terms
    text of EosSpec.stage_terms_source must give the same bits."""
    if eos._tables is None:
        x = (eos.gamma - 1.0) / eos.gamma * alpha * U_pos
        Z = U_pos * (math.expm1(x) / x) if x != 0.0 else U_pos
        return Z**eos.mu, Z**eos.mu * Z
    omega_rho, omega_P = omega_table_reference(eos, alpha * U_pos)
    Um = U_pos**eos.mu
    return Um * omega_rho, Um * U_pos * omega_P


def omega_rho_P_fast_reference(eos, eta: float) -> tuple:
    """(Omega_rho, Omega_P) by the fast path: the terms at U# = 1, alpha = eta;
    EosSpec.fast_omega must give the same bits.  Both give exactly
    (1.0, 1.0) at eta = 0."""
    return terms_reference(eos, eta, 1.0)


def omega_table_reference(eos, eta: float) -> tuple:
    """(Omega_rho, Omega_P) of a series Omega by its piece tables, every
    constant read at the call and the piece polynomial summed by a Horner
    loop, or by the direct path off the grid or in an off-domain piece."""
    if eta == 0.0:
        return 1.0, 1.0
    tab = eos._tables
    if eta < 0.0 or eta > tab.hi:
        return eos.omega_rho_P(eta)
    i = int(eta * tab.inv_halfw * 0.5)
    if i >= tab.n:
        i = tab.n - 1
    s = (eta - tab.mids[i]) * tab.inv_halfw
    piece = tab.pieces[i] or tab.build(i, eos)
    if piece is _OFF_DOMAIN:
        return eos.omega_rho_P(eta)
    cr, cP = piece
    vr = cr[_TAB_DEG]
    vP = cP[_TAB_DEG]
    for k in range(_TAB_DEG - 1, -1, -1):
        vr = vr * s + cr[k]
        vP = vP * s + cP[k]
    return vr, vP


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


def rhs_scaled_reference(R: float, y, alpha: float, beta: float, eos) -> tuple:
    """(dM/dR, dU/dR) of the homology-scaled system, with every constant
    formed at the call; scaled_rhs must give the same bits.

    The stage needs U#^mu Omega_rho and U#^(mu+1) Omega_P, the terms of
    terms_reference.  The denominator R^2 kappa is R (R kappa), and
    kappa_scaled is R kappa / R, which _check_kappa tests."""
    M, U = y
    U_pos = U if U > 0.0 else 0.0
    g = eos.gamma
    rho_term, p_term = terms_reference(eos, alpha, U_pos)
    RR = R * R
    R3 = RR * R
    dM = RR * rho_term
    Rkap = R - 2.0 * alpha * M - alpha * beta / 3.0 * R3
    _check_kappa(kappa_scaled(R, M, alpha, beta), R)
    dU = -(M - R3 * (beta / 3.0 - (g - 1.0) / g * alpha * p_term)) / (R * Rkap)
    return dM, dU


def rhs_scaled_u_form(R: float, y, alpha: float, beta: float, eos) -> tuple:
    """(dM/dR, dU/dR) of the homology-scaled system in the powers of U#:
    Omega_rho and Omega_P by the fast path, times U#^mu and U#^(mu+1)."""
    M, U = y
    U_pos = U if U > 0.0 else 0.0
    if alpha == 0.0:
        omega_rho = 1.0
        omega_P = 1.0
    else:
        omega_rho, omega_P = eos.omega_rho_P_fast(alpha * U_pos)
    g = eos.gamma
    R3 = R**3
    dM = R * R * U_pos**eos.mu * omega_rho
    num = M + (g - 1.0) / g * alpha * R3 * U_pos ** (eos.mu + 1.0) * omega_P - beta * R3 / 3.0
    kap = kappa_scaled(R, M, alpha, beta)
    _check_kappa(kap, R)
    dU = -num / (R * R * kap)
    return dM, dU


def rhs_lane_emden(R: float, y, mu: float, lam: float = 0.0) -> tuple:
    """(dM/dR, dU/dR) = (R^2 (U#)^mu, -(M - lam R^3/3)/R^2) of the
    Lane-Emden(-de Sitter) system at one point."""
    M, U = y
    U_pos = U if U > 0.0 else 0.0
    return R * R * U_pos**mu, -(M - lam * R**3 / 3.0) / (R * R)


def rhs_scaled_c(R: float, y, lam: float, c: float, eos) -> tuple:
    """Scaled system with the central enthalpy normalized to 1 and c explicit.

    Identical to rhs_scaled with alpha = 1/c^2 and beta = lam; as c -> inf it
    tends to the Lane-Emden-de Sitter right-hand side.
    """
    return rhs_scaled(R, y, 1.0 / (c * c), lam, eos)


# -- profile ------------------------------------------------------------------------

def profile_samples(dense) -> np.ndarray:
    """The radii of a SolutionProfile of dense: its nodes up to x_end, then
    x_end, and past a terminal vacuum event 140 log-spaced radii packed
    against it, merged by a set union on numpy float64 scalars."""
    r_end = dense.x_end
    samples = [x for x in dense.xs if x <= r_end]
    if not samples or samples[-1] < r_end:
        samples.append(r_end)
    vacuum_hit = any(ev.name == "vacuum" and ev.terminal for ev in dense.events)
    if vacuum_hit:
        offsets = r_end * np.logspace(-8.0, -1.2, 140)
        tail = r_end - offsets
        samples = sorted(set(samples) | {float(t) for t in tail if t > dense.xs[0]})
    return np.array(samples)


def profile_row(r, m, u, Lambda, eos, k) -> dict:
    """One sample of a SolutionProfile, from the state (m, u) at r on floats:
    rho and P are A1 and A A1^gamma times the terms at U# = u, alpha = 1/c^2."""
    if u > 0.0:
        rho_term, p_term = terms_reference(eos, 1.0 / k.c2, u)
        rho = eos.A1 * rho_term
        P = eos.p_coeff * p_term
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


def du_dr_minus_pointwise(profile, r_plus: float) -> float:
    """du/dr at r_+ from inside, one scalar dense-output evaluation per stencil
    point: one-sided differences at h = 1e-3 r_+, h/2 and h/4, then two
    Richardson passes for errors in h and h^2."""
    u0 = dense_eval_scalar(profile.dense, r_plus)[1]
    d = []
    for lv in range(3):
        h = 1e-3 * r_plus / 2**lv
        d.append((dense_eval_scalar(profile.dense, r_plus - h)[1] - u0) / -h)
    e1 = 2.0 * d[1] - d[0]
    e2 = 2.0 * d[2] - d[1]
    return (4.0 * e2 - e1) / 3.0


def continuity_values_pointwise(patch) -> dict:
    """The values of metric.continuity_report's 12 rows, keyed by (quantity,
    side, order), from one scalar dense-output evaluation per interior
    stencil radius.  Each side evaluates (g00, g11) on floats at r_+ and at
    r_+ + sign h, r_+ + 2 sign h for h = 1e-3 r_+, h/2, h/4 and h/8, forms
    one-sided first and three-point second differences, and removes errors
    in h, h^2 and h^3 by three Richardson passes written out."""
    prof = patch.profile
    k = prof.constants
    bq = patch.bq
    r_p = bq.r_plus
    Lam = prof.Lambda

    def interior(r):
        m, u = dense_eval_scalar(prof.dense, r).tolist()
        return bq.kappa_plus * math.exp(-2.0 * u / k.c2), -1.0 / kappa(r, m, Lam, k)

    def exterior(r):
        g00 = kappa(r, bq.m_plus, Lam, k)
        return g00, -1.0 / g00

    def extrapolate(d0, d1, d2, d3):
        e1, e2, e3 = 2.0 * d1 - d0, 2.0 * d2 - d1, 2.0 * d3 - d2
        f2, f3 = (4.0 * e2 - e1) / 3.0, (4.0 * e3 - e2) / 3.0
        return (8.0 * f3 - f2) / 7.0

    h0 = 1e-3 * r_p
    hs = (h0, h0 / 2.0, h0 / 4.0, h0 / 8.0)
    values = {}
    for side, sign, g in (("interior", -1.0, interior), ("exterior", 1.0, exterior)):
        at_r_p = g(r_p)
        for col, quantity in enumerate(("g00", "g11")):
            v0 = at_r_p[col]
            first, second = [], []
            for h in hs:
                v1 = g(r_p + sign * h)[col]
                v2 = g(r_p + 2.0 * sign * h)[col]
                first.append((v1 - v0) / (sign * h))
                second.append((v2 - 2.0 * v1 + v0) / (h * h))
            values[quantity, side, 0] = v0
            values[quantity, side, 1] = extrapolate(*first)
            values[quantity, side, 2] = extrapolate(*second)
    return values


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


# -- the Lambda = 0 exterior ----------------------------------------------------------

def vacuum_continuation_lambda0(m_plus0: float, r_plus0: float, k, r) -> tuple:
    """Exterior continuation (m, u) of a Lambda = 0 star for r >= r_+.

    m stays at m_+; u = (c^2/2) [log(1 - 2Gm_+/(c^2 r_+)) - log(1 - 2Gm_+/(c^2 r))],
    which vanishes at r_+ and solves the Lambda = 0 enthalpy system in vacuum.
    """
    compactness = 2.0 * k.G * m_plus0 / (k.c2 * r_plus0)
    if compactness >= 1.0:
        raise ValueError("star inside its own Schwarzschild radius")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < r_plus0 * (1.0 - 1e-12)):
        raise ValueError("continuation is defined for r >= r_+")
    u = 0.5 * k.c2 * (
        math.log1p(-compactness)
        - np.log1p(-2.0 * k.G * m_plus0 / (k.c2 * r_arr))
    )
    m = np.full_like(u, m_plus0)
    if np.ndim(r) == 0:
        return float(m), float(u)
    return m, u


# -- scaled-limit equation ----------------------------------------------------------

def sinc_d2(R: float) -> float:
    """s''(R) of s(R) = sin(R)/R: below R = 0.5 the series of s differentiated
    term by term, above it the closed form."""
    if abs(R) < 0.5:
        R2 = R * R
        term = 1.0
        s2 = 0.0
        for n in range(1, 12):
            term *= -R2 / (2 * n * (2 * n + 1))  # (-1)^n R^(2n) / (2n+1)!
            s2 += term * (2 * n) * (2 * n - 1) / R2
        return s2
    return ((2.0 - R * R) * math.sin(R) - 2.0 * R * math.cos(R)) / R**3


def mu1_residual(lam: float, R: float) -> float:
    """Residual of the second-order form -(R^2 U')'/R^2 = U - lam at R of the
    mu = 1 closed form U = lam + (1 - lam) sin(R)/R."""
    s, s1 = _sinc_jet(R)
    s2 = sinc_d2(R)
    U = lam + (1.0 - lam) * s
    return -(1.0 - lam) * s2 - 2.0 * (1.0 - lam) * s1 / R - (U - lam)


def scaled_limit_convergence(gamma: float, alphas, betas) -> list:
    """Distance of the scaled solution to the limit orbit, per (alpha, beta).

    For each pair on the grid product, integrates the scaled system of the
    polytrope A = 1 and records sup |U - U_limit| over 400 points of
    [0.1, xi1] plus the located boundary radius.  Both integrations share
    germ radius, germ order and tolerances, so alpha = beta = 0 reproduces
    the limit orbit bitwise and reports distance 0.
    """
    eos = EosSpec(A=1.0, gamma=gamma)
    mu = 1.0 / (gamma - 1.0)
    ref = lane_emden_solution(mu, 0.0)
    vac = [ev for ev in ref.events if ev.name == "vacuum"]
    if not vac:
        raise AnalysisError(f"limit solution has no first zero for gamma = {gamma}")
    xi1 = vac[0].x
    R_grid = np.linspace(0.1, xi1 * (1.0 - 1e-9), 400)
    U_ref = ref(R_grid)[:, 1]

    rows = []
    for alpha in alphas:
        for beta in betas:
            star = solve_scaled(alpha, beta, eos, ctrl=SOLVE_CTRL)
            R_hi = star.R_plus if star.R_plus is not None else star.dense.x_end
            inside = R_grid <= R_hi
            dist = float(np.max(np.abs(star.dense(R_grid[inside])[:, 1] - U_ref[inside]),
                                initial=0.0))
            rows.append({
                "alpha": alpha, "beta": beta, "sup_distance": dist,
                "R_plus": star.R_plus, "outcome": star.kind,
            })
    return rows


# -- homology scaling ---------------------------------------------------------------

def scale_state(sp, r: float, y) -> tuple:
    """(r, (m, u)) -> (R, (M, U)), the inverse of ScalingParams.unscale_state."""
    return r / sp.a, np.array([y[0] / sp.mass_scale, y[1] / sp.b])


# -- integrator -----------------------------------------------------------------

@functools.cache
def _called_stage(dim: int) -> ig.Stage:
    # the names end in _, since x, yN and kN_M are the step loop's
    y, dy = (tuple(f"{c}{i}_" for i in range(dim)) for c in "sd")
    return ig.Stage("call", "t_", y, dy, f"{', '.join(dy)}, = fn(t_, [{', '.join(y)}])\n", ("fn",))


def called_rhs(fn, dim: int):
    """A plain function fn(x, y) -> dy of a dim-component state as a
    right-hand side: its stage's one statement is
    d0_, d1_, ..., = fn(t_, [s0_, s1_, ...]), so fn may return any sequence,
    and a guard over it reads t_, sN_ and dN_."""
    return ig.stage_rhs(_called_stage(dim), {"fn": fn})


def guard_call(stage, name: str, slope: bool = False) -> str:
    """The guard text float(name(x, [y...])) over stage's names, which calls
    the function bound as name; with slope, name(x, [y...], (dy...,))."""
    args = f"{stage.x}, [{', '.join(stage.y)}]" + f", ({', '.join(stage.dy)},)" * slope
    return f"float({name}({args}))"


def bind(rhs, **bound):
    """rhs with the names of bound added to its stage's constants and bound
    to their values, so that a guard may call a function bound to one."""
    stage = replace(rhs.stage, consts=rhs.stage.consts + tuple(bound))
    return ig.stage_rhs(stage, {**rhs.values, **bound})


def guard_of(rhs, ev):
    """(guard, slope): ev's guard for a solve of rhs, compiled on its own,
    a function (x, y) -> value, or (x, y, dy) -> value for a slope guard
    (one whose expression reads a slope name), with rhs's constants bound."""
    stage = rhs.stage
    names = {node.id for node in ast.walk(ast.parse(ev.expr, mode="eval"))
             if isinstance(node, ast.Name)}
    slope = bool(names & set(stage.dy))
    body = f"{', '.join(stage.y)}, = y\n" + f"{', '.join(stage.dy)}, = dy\n" * slope
    make = codegen.closure_factory(f"<guard: {stage.name}: {ev.expr}>",
                                   f"{stage.x}, y" + ", dy" * slope, body, ev.expr, stage.consts)
    return make(**rhs.values), slope


def called_events(rhs, events) -> tuple:
    """(guards, events) for a solve of bind(called_rhs(rhs, dim), **guards):
    the guard of each event for rhs, bound as guard_i and called on the
    called stage's names."""
    stage = _called_stage(len(rhs.stage.y))
    guards, called = {}, []
    for i, ev in enumerate(events):
        guards[f"guard_{i}"], slope = guard_of(rhs, ev)
        called.append(replace(ev, expr=guard_call(stage, f"guard_{i}", slope)))
    return guards, called


def interp(dense) -> np.ndarray:
    """Every step's quartic coefficients q0 ... q3, shape (n, dim, 4), formed
    by one row call over all steps, as dense output forms the rows it reads."""
    return dense._quartics(np.arange(len(dense.slopes)))


def dense_eval_scalar(sol, x: float) -> np.ndarray:
    """State of a DenseSolution at one point, on Python floats: the stored
    state on a node, else the step's quartic interpolant."""
    xs = sol.xs
    if not xs[0] <= x <= sol.x_end:
        raise ValueError(f"x = {x:g} outside the solution span [{xs[0]:g}, {sol.x_end:g}]")
    i = int(np.searchsorted(xs, x))
    if xs[i] == x:
        return sol.ys[i].copy()
    k = i - 1
    x_lo, x_hi = xs[k:i + 1].tolist()
    h = x_hi - x_lo
    t = (x - x_lo) / h
    ht = h * t
    return np.array([
        y + ht * (((q3 * t + q2) * t + q1) * t + q0)
        for y, (q0, q1, q2, q3) in zip(sol.ys[k].tolist(), interp(sol)[k].tolist())
    ])


def dp5_attempt(f, x, y, h, k1, atol, rtol):
    """One DP5 attempt from (x, y) with slope k1, one comprehension per vector.

    Returns (k2, k3, k4, k5, k6, k7, y_new, err, q), q as one (q0, q1, q2, q3)
    per component; a DomainSignalError from f propagates.
    """
    rng = range(len(y))
    k2 = f(x + ig._C2 * h, [y[i] + h * (ig._A21 * k1[i]) for i in rng])
    k3 = f(x + ig._C3 * h, [y[i] + h * (ig._A31 * k1[i] + ig._A32 * k2[i]) for i in rng])
    k4 = f(x + ig._C4 * h, [y[i] + h * (ig._A41 * k1[i] + ig._A42 * k2[i] + ig._A43 * k3[i])
                            for i in rng])
    k5 = f(x + ig._C5 * h, [y[i] + h * (ig._A51 * k1[i] + ig._A52 * k2[i] + ig._A53 * k3[i]
                                        + ig._A54 * k4[i]) for i in rng])
    k6 = f(x + h, [y[i] + h * (ig._A61 * k1[i] + ig._A62 * k2[i] + ig._A63 * k3[i]
                               + ig._A64 * k4[i] + ig._A65 * k5[i]) for i in rng])
    y_new = [y[i] + h * (ig._B1 * k1[i] + ig._B3 * k3[i] + ig._B4 * k4[i] + ig._B5 * k5[i]
                         + ig._B6 * k6[i]) for i in rng]
    k7 = f(x + h, y_new)
    err = 0.0
    for i in rng:
        e = h * (ig._E1 * k1[i] + ig._E3 * k3[i] + ig._E4 * k4[i] + ig._E5 * k5[i]
                 + ig._E6 * k6[i] + ig._E7 * k7[i]) / (atol + rtol * max(abs(y[i]), abs(y_new[i])))
        err += e * e
    err = math.sqrt(err / len(y))
    q = [(k1[i],
          ig._D11 * k1[i] + ig._D13 * k3[i] + ig._D14 * k4[i] + ig._D15 * k5[i]
          + ig._D16 * k6[i] + ig._D17 * k7[i],
          ig._D21 * k1[i] + ig._D23 * k3[i] + ig._D24 * k4[i] + ig._D25 * k5[i]
          + ig._D26 * k6[i] + ig._D27 * k7[i],
          ig._D31 * k1[i] + ig._D33 * k3[i] + ig._D34 * k4[i] + ig._D35 * k5[i]
          + ig._D36 * k6[i] + ig._D37 * k7[i])
         for i in rng]
    return k2, k3, k4, k5, k6, k7, y_new, err, q


def dp5_integrate(f, y0, span, ctrl):
    """The adaptive DP5 loop without events, one dp5_attempt per attempt.

    Starts from the step ctrl.h_init and follows integrate_adaptive's step
    control with builtin min and max.  n_rhs counts every call of f, one
    that raised included.  Returns (xs, ys, q, status, message, n_rhs, n_rejected), q as
    one (q0, q1, q2, q3) per step and component; the generated step loop of
    integrate_adaptive must give the same bits and counts.
    """
    n_rhs = 0

    def counted(x, y):
        nonlocal n_rhs
        n_rhs += 1
        return f(x, y)

    x, x1 = span
    y = list(y0)
    k1 = counted(x, y)
    h = min(ctrl.h_init, ctrl.h_max, x1 - x)
    xs, ys, qs = [x], [list(y)], []
    n_rejected = attempts = 0
    rejected = False

    def result(status, message=""):
        return xs, ys, qs, status, message, n_rhs, n_rejected

    while x < x1:
        if attempts >= ctrl.max_steps:
            return result("step_budget", f"step budget {ctrl.max_steps} exhausted at x = {x:g}")
        h = min(h, x1 - x)
        if h <= ig._H_TINY * max(abs(x), 1.0):
            return result("step_underflow", f"step size underflow at x = {x:g}")
        attempts += 1
        try:
            *ks, y_new, err, q = dp5_attempt(counted, x, y, h, k1, ctrl.abs_tol, ctrl.rel_tol)
            failure = None if all(map(math.isfinite, [*k1, *(c for k in ks for c in k)])) else "nan"
        except DomainSignalError as exc:
            failure = exc
        if failure is not None:
            h *= 0.25
            rejected = True
            n_rejected += 1
            if h <= ig._H_TINY * max(abs(x), 1.0):
                if failure == "nan":
                    return result("step_underflow", f"non-finite right-hand side at x = {x:g}")
                return result("domain_error", f"domain exit at x = {x:g}: {failure}")
            continue
        if err > 1.0:
            h *= max(ig._MIN_FACTOR, ig._SAFETY * err ** -0.2)
            rejected = True
            n_rejected += 1
            continue
        factor = ig._MAX_FACTOR if err == 0.0 else min(ig._MAX_FACTOR, ig._SAFETY * err ** -0.2)
        if rejected:
            factor = min(1.0, factor)
        rejected = False
        x = x + h
        y, k1 = y_new, ks[-1]
        xs.append(x)
        ys.append(list(y))
        qs.append(q)
        h = min(h * factor, ctrl.h_max)
    return result("completed")
