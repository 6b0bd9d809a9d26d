"""Barotropic equation of state with an analytic correction factor.

P(rho) = A rho^gamma Omega(zeta),  zeta = A rho^(gamma-1) / c^2,  Omega(0) = 1,
for rho >= 0: the EOS lives on finite zeta, eta >= 0; the direct path
refuses an argument below 0 or not finite, and the enthalpy maps a u that
is not finite.

The enthalpy variable u = int_0^rho dP / (rho + P/c^2) linearises the vacuum
boundary.  Three derived correction functions express the state through u:

    u   = gamma A / (gamma - 1) * rho^(gamma-1) * Omega_u(zeta)
    rho = A1 * u^(1/(gamma-1))     * Omega_rho(eta),   eta = u / c^2
    P   = A A1^gamma * u^(gamma/(gamma-1)) * Omega_P(eta)

with A1 = ((gamma-1)/(gamma A))^(1/(gamma-1)).  Omega_u(zeta), the mean over
[0, zeta] of the rational w = [Omega + (gamma-1)/gamma z Omega'] / (1 + z Omega),
is a closed form over the real factors of 1 + z Omega, found once per EOS on
its first need (EosSpec._fractions); the EOS domain ends at their least
positive root.  Omega_rho and Omega_P need the inverse map eta -> zeta, a
bracketed Newton search per eta: the direct path, omega_rho_P.  All three
equal 1 at argument 0, and every path gives (Omega_rho, Omega_P) =
(1.0, 1.0) exactly at eta = 0.  A series Omega and its derivative are
evaluated by Horner, on a float or elementwise on an array, in
numpy.polynomial's polyval operation order, so the values are bit-identical
to polyval's.

A solve needs no inversion: beside M it integrates the EOS's own state X
(EosSpec.state_var), U for Omega == 1 (OmegaSeries((1.0,)), the default)
and Z = U / Omega_u for a series Omega, with zeta = k alpha Z,
k = (gamma-1)/gamma, rho_term = Z^mu, p_term = Z^(mu+1) Omega(zeta) and
dZ/dU = 1/w.  The terms text of EosSpec.stage_terms_source is their one
definition, run by the scaled stage (odecore), by Omega == 1's germ
fast_omega() at U# = 1, and by the state map rho_P_of_state at X# = x, u or
z = b Z in physical units; each is compiled once per text.  A series
Omega's germ (center_terms) makes one inversion, and u = z Omega_u is closed.
"""

from __future__ import annotations

import functools
import math
import sys
import textwrap
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import codegen
from .errors import EosDomainError, NonPhysicalEosError, RootFindError

__all__ = [
    "OmegaSeries",
    "EosSpec",
    "FermiEosParams",
    "fermi_eos",
    "fermi_fit_eos",
]


def _polyder(c: tuple) -> tuple:
    """Coefficients of the derivative, j * c[j], as numpy.polynomial's polyder."""
    return tuple(j * c[j] for j in range(1, len(c))) or (0.0,)


def _horner(c: tuple, z: float) -> float:
    """sum_k c[k] z^k in numpy.polynomial's polyval operation order, on a float
    or elementwise on an array."""
    v = c[-1] + z * 0.0
    for ck in c[-2::-1]:
        # in place on an array: v is this function's own
        v *= z
        v += ck
    return v


@dataclass(frozen=True)
class OmegaSeries:
    """Polynomial correction Omega(zeta) = sum_k coeffs[k] zeta^k, coeffs[0] = 1;
    OmegaSeries((1.0,)) is the pure polytrope, Omega == 1."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not all(map(math.isfinite, self.coeffs)):
            raise NonPhysicalEosError(f"OmegaSeries coefficients must be finite, got {self.coeffs}")
        if not self.coeffs or abs(self.coeffs[0] - 1.0) > 1e-12:
            raise NonPhysicalEosError("OmegaSeries requires coeffs[0] == 1 (Omega(0) = 1)")

    # derivative coefficients, cached on first use; not a dataclass field, so
    # ==, hash and repr still see coeffs alone
    @cached_property
    def _d1(self) -> tuple:
        return _polyder(self.coeffs)

    def value(self, zeta: float) -> float:
        return _horner(self.coeffs, zeta)

    def deriv(self, zeta: float) -> float:
        return _horner(self._d1, zeta)


def _mulmod(a: tuple, b: tuple, p: float, s: float) -> tuple:
    """a b mod z^2 + p z + s, for a and b linear in z, each given as
    (coefficient of z, constant): the product at both roots at once."""
    t = a[0] * b[0]
    return a[0] * b[1] + a[1] * b[0] - t * p, a[1] * b[1] - t * s


def _invmod(a: tuple, p: float, s: float) -> tuple:
    """1/a mod z^2 + p z + s: a times (-a1 z + a0 - p a1) is the norm
    a0^2 - p a0 a1 + s a1^2, the product of a's values at the two roots."""
    a1, a0 = a
    n = a0 * a0 - p * a0 * a1 + s * a1 * a1
    return -a1 / n, (a0 - p * a1) / n


# The terms set rho_term and p_term, and for Z dZ_dU, from the EOS's own state
# variable (EosSpec.state_var) at X_pos, its positive part, and from mu and
# p_alpha = k alpha, k = (gamma-1)/gamma.  For Omega == 1 the state is U, and
# with Omega_rho = Omega_u^(-mu), Omega_P = Omega_u^(-mu-1) and
# Z = U# / Omega_u = U# expm1(keta) / keta, keta = k alpha U#, the terms
# U#^mu Omega_rho and U#^(mu+1) Omega_P are Z^mu and Z^(mu+1): one pow.
# expm1(keta) / keta is 1.0 exactly for a tiny or subnormal keta, where
# dividing by k alpha instead would not be.
_CLOSED_FORM_TERMS = """\
keta = p_alpha * U_pos
Z = U_pos * (expm1(keta) / keta) if keta != 0.0 else U_pos
rho_term = Z**mu
p_term = rho_term * Z
"""


@functools.cache
def _z_terms(degree: int) -> str:
    """The terms in Z of a series Omega of the given degree: zeta = k alpha Z#,
    Z#^mu, Z#^(mu+1) Omega and dZ_dU = 1/w.  Omega and Omega' are _horner's
    sums of coefficients bound as oc0 ... and od1 ..., so one text serves a
    degree; past the EOS domain, 1 + zeta Omega or dP/drho <= 0, they refuse."""
    def horner(name: str, lo: int) -> str:
        text = f"{name}{max(degree, lo)}"
        for j in range(max(degree, lo) - 1, lo - 1, -1):
            text = f"({text}) * zeta + {name}{j}" if "*" in text else f"{text} * zeta + {name}{j}"
        return text

    return f"""\
zeta = p_alpha * Z_pos
om = {horner("oc", 0)}
dom = {horner("od", 1)}
zom1 = 1.0 + zeta * om
den = om + k * zeta * dom
if zom1 <= 0.0 or den <= 0.0:
    raise outside(zeta)
dZ_dU = zom1 / den
rho_term = Z_pos**mu
p_term = rho_term * Z_pos * om
"""


# The germ and the state map, (name, params, body, result), run the terms at
# their line TERMS: Omega == 1's germ at U# = 1, alpha = eta, where they are
# Omega_rho and Omega_P, refusing an eta below 0 or not finite (NaN - NaN
# and inf - inf are NaN), and the state map at X# = x > 0, alpha = 1/c^2.
_GERM = ("germ", "eta", "if eta < 0.0 or eta - eta != 0.0:\n    raise refusal('eta', eta)\n"
         "U_pos = 1.0\nalpha = eta\np_alpha = k * eta\nTERMS\n", "rho_term, p_term")
_STATE_MAP = ("state map", "us", """\
rho, P = [0.0] * len(us), [0.0] * len(us)
for i, X_pos in enumerate(us):
    if X_pos > 0.0:
        TERMS
        rho[i] = A1 * rho_term
        P[i] = p_coeff * p_term
    elif X_pos - X_pos != 0.0:  # NaN or -inf: u - u is NaN just for a non-finite u
        raise nonfinite_u(X_pos)
""", "rho, P")


def _nonfinite_u(u: float) -> EosDomainError:
    return EosDomainError(f"u = {u!r}: the enthalpy maps are defined for finite u only")


def _refusal(name: str, value: float) -> EosDomainError:
    return EosDomainError(f"{name} = {value!r}: the EOS is defined for finite {name} >= 0 only")


def _outside(zeta: float) -> EosDomainError:
    return EosDomainError(f"zeta = {zeta!r}: past the EOS domain, which ends where "
                          "1 + zeta*Omega(zeta) or dP/drho reaches 0")


@functools.cache
def _terms_factory(form: tuple, var: str, label: str, terms: str, consts: tuple):
    """make(**values) of form's function with terms spliced in, in var."""
    name, params, body, result = form
    head, _, tail = body.replace("X_pos", f"{var}_pos").partition("TERMS\n")
    start = head.rfind("\n") + 1
    body = head[:start] + textwrap.indent(terms, head[start:]) + tail
    return codegen.closure_factory(f"<eos {name}: {label}>", params, body, result, consts)


@dataclass(frozen=True)
class EosSpec:
    """Immutable EOS description; safe to share across workers.

    gamma may equal 2 (mu = 1) for the linear limiting case used by the
    scaled-system studies; the regime conditions require gamma < 2 strictly.
    """

    A: float
    gamma: float
    omega: OmegaSeries = OmegaSeries((1.0,))
    c: float = 1.0
    eta_max: float = 8.0  # checked, but bounds nothing since a series Omega solves in Z

    def __post_init__(self):
        if not (1.0 < self.gamma <= 2.0):
            raise NonPhysicalEosError(f"gamma must satisfy 1 < gamma <= 2, got {self.gamma}")
        for name in ("A", "c", "eta_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise NonPhysicalEosError(f"{name} must be finite and positive, got {value!r}")

    # -- derived constants -------------------------------------------------

    @cached_property
    def mu(self) -> float:
        return 1.0 / (self.gamma - 1.0)

    @cached_property
    def A1(self) -> float:
        return ((self.gamma - 1.0) / (self.gamma * self.A)) ** (1.0 / (self.gamma - 1.0))

    @cached_property
    def p_coeff(self) -> float:
        # A * A1^gamma simplifies exactly to (gamma-1)/gamma * A1
        return (self.gamma - 1.0) / self.gamma * self.A1

    @property
    def c2(self) -> float:
        return self.c * self.c

    # -- raw polytrope-with-correction quantities ---------------------------

    def zeta_of_density(self, rho: float) -> float:
        return self.A * rho ** (self.gamma - 1.0) / self.c2

    def _pressure_raw(self, rho: float) -> float:
        return self.A * rho**self.gamma * self.omega.value(self.zeta_of_density(rho))

    def _dpdrho_raw(self, rho: float) -> float:
        zeta = self.zeta_of_density(rho)
        bracket = self.omega.value(zeta) + (self.gamma - 1.0) / self.gamma * zeta * self.omega.deriv(zeta)
        return self.A * self.gamma * rho ** (self.gamma - 1.0) * bracket

    def pressure_of_density(self, rho: float) -> float:
        """P(rho); NonPhysicalEosError unless 0 < P < inf and 0 < dP/drho < c^2."""
        if rho <= 0.0:
            return 0.0
        try:
            P, dP = self._pressure_raw(rho), self._dpdrho_raw(rho)
        except OverflowError:
            raise NonPhysicalEosError(
                f"EOS not admissible at rho = {rho:g}: P or dP/drho overflows") from None
        if not (0.0 < P < math.inf and 0.0 < dP < self.c2):
            raise NonPhysicalEosError(
                f"EOS not admissible at rho = {rho:g}: P = {P:g}, dP/drho = {dP:g} "
                f"(require P > 0 and 0 < dP/drho < c^2 = {self.c2:g})"
            )
        return P

    def validate_range(self, rho_lo: float, rho_hi: float) -> None:
        """Check P > 0 and 0 < dP/drho < c^2 on a log grid of 64 densities in
        one array pass; pressure_of_density raises at the first it flags."""
        if not (0.0 < rho_lo < rho_hi):
            raise ValueError("need 0 < rho_lo < rho_hi")
        rho = np.geomspace(rho_lo, rho_hi, 64)
        with np.errstate(all="ignore"):  # pressure_of_density raises an overflow
            P, dP = self._pressure_raw(rho), self._dpdrho_raw(rho)
        for bad in rho[~((0.0 < P) & (P < np.inf) & (0.0 < dP) & (dP < self.c2))].tolist():
            self.pressure_of_density(bad)

    # -- the enthalpy transform ---------------------------------------------

    @cached_property
    def _fractions(self) -> tuple:
        """(r0, quads, lones): Omega / D in real partial fractions, D = 1 + z Omega.
        D = d_n prod (z^2 + p z + s) [(z - r)], a quadratic per conjugate pair of
        np.roots and per real root paired with its nearest neighbour, so that a
        double or near-double root lies inside one factor.  Two Newton sweeps
        polish each factor f whole, f += (D mod f) / (E mod f) with E = D / f,
        well conditioned however close the roots of f lie.  As z Omega = -1 at
        the roots, the numerator over f is -1/(z E) mod f.  quads holds
        (p, s, alpha/2, beta - alpha h, h, delta, sqrt|delta|) per
        (alpha z + beta) / (z^2 + p z + s), h = p/2, delta = s - h^2, and lones
        (r, a) per a / (z - r); r0 is D's least positive root, or inf."""
        d = np.trim_zeros([1.0, *self.omega.coeffs], "b")
        lead = d[-1]
        roots = np.roots(d[::-1]).tolist() if len(d) > 2 else [-1.0 / lead]
        quads = [(-2.0 * r.real, r.real * r.real + r.imag * r.imag) for r in roots if r.imag > 0.0]
        reals = sorted(r.real for r in roots if r.imag == 0.0)
        while len(reals) > 1:
            i = min(range(len(reals) - 1), key=lambda j: reals[j + 1] - reals[j])
            a, b = reals.pop(i), reals.pop(i)
            quads.append((-(a + b), a * b))

        def cofactor(i: int) -> tuple:  # E mod quads[i]
            p, s = quads[i]
            e = (0.0, lead)
            for j, (pj, sj) in enumerate(quads):
                if j != i:
                    e = _mulmod(e, (pj - p, sj - s), p, s)
            for r in reals:
                e = _mulmod(e, (1.0, -r), p, s)
            return e

        def cofactor_at(r: float) -> float:  # E(r) of the linear factor z - r
            return lead * math.prod((r + p) * r + s for p, s in quads)

        for _ in range(2):
            for i, (p, s) in enumerate(quads):
                rem = (0.0, 0.0)
                for c in reversed(d):
                    rem = (rem[1] - p * rem[0], c - s * rem[0])
                dp, ds = _mulmod(rem, _invmod(cofactor(i), p, s), p, s)
                quads[i] = (p + dp, s + ds)
            reals = [r - _horner(d, r) / cofactor_at(r) for r in reals]

        terms, ends = [], [r for r in reals if r > 0.0]
        lones = tuple((r, -1.0 / (r * cofactor_at(r))) for r in reals)
        at0 = sum(-a / r for r, a in lones)
        for i, (p, s) in enumerate(quads):
            e1, e0 = cofactor(i)
            n1, n0 = _invmod((e0 - p * e1, -s * e1), p, s)
            h = 0.5 * p
            delta = s - h * h
            root = math.sqrt(abs(delta))
            terms.append((p, s, -0.5 * n1, h * n1 - n0, h, delta, root))
            at0 -= n0 / s
            if delta <= 0.0:
                ends += [x for x in (-h - root, -h + root) if x > 0.0]
        # at z = 0 the fractions sum to Omega(0) / D(0) = 1; where three or more
        # roots cluster they miss it, and Omega_u by as much: refused past 1e-10
        if not abs(at0 - 1.0) <= 1e-10:
            raise NonPhysicalEosError(
                f"1 + zeta*Omega(zeta) has roots too close together for the closed form of "
                f"Omega_u: its partial fractions miss Omega(0) = 1 by {at0 - 1.0:.1e}")
        return min(ends, default=math.inf), tuple(terms), lones

    def _w(self, z: float) -> float:
        """Integrand of Omega_u: [Omega + (gamma-1)/gamma z Omega'] / (1 + z Omega),
        the slope of zeta Omega_u at a z inside the EOS domain."""
        om = self.omega.value(z)
        return (om + (self.gamma - 1.0) / self.gamma * z * self.omega.deriv(z)) / (1.0 + z * om)

    def omega_u(self, zeta: float) -> float:
        """Omega_u(zeta) = (1/zeta) int_0^zeta w, the mean of w over [0, zeta],
        in closed form; 1 at zeta = 0.  With k = (gamma-1)/gamma and
        D = 1 + z Omega, zeta Omega_u = k log1p(zeta Omega) + (1-k) int Omega/D,
        where z - r adds a log1p(-zeta/r) and z^2 + p z + s adds
        (alpha/2) log1p(zeta (zeta + p) / s) + (beta - alpha h) J, with
        x = delta + h (zeta + h) and J = atan2(zeta sqrt(delta), x) / sqrt(delta),
        its atanh form for delta < 0 or zeta / x for delta = 0, stable through
        a double root.  Refuses zeta >= r0, where 1 + zeta Omega reaches 0."""
        if not 0.0 <= zeta < math.inf:
            raise _refusal("zeta", zeta)
        if zeta == 0.0:
            return 1.0
        r0, quads, lones = self._fractions
        if zeta >= r0:
            raise EosDomainError(f"zeta = {zeta!r}: the EOS domain ends at zeta = {r0!r}, "
                                 "where 1 + zeta*Omega(zeta) reaches 0")
        total = 0.0
        for p, s, half_alpha, b, h, delta, root in quads:
            x = delta + h * (zeta + h)
            if delta > 0.0:
                j = math.atan2(zeta * root, x) / root
            elif delta < 0.0:
                j = math.atanh(zeta * root / x) / root
            else:
                j = zeta / x
            total += half_alpha * math.log1p(zeta * (zeta + p) / s) + b * j
        for r, a in lones:
            total += a * math.log1p(-zeta / r)
        k = (self.gamma - 1.0) / self.gamma
        return (k * math.log1p(zeta * self.omega.value(zeta)) + (1.0 - k) * total) / zeta

    def u_of_density(self, rho: float) -> float:
        """Enthalpy u(rho) = gamma A/(gamma-1) rho^(gamma-1) Omega_u(zeta), with
        Omega_u in closed form; u(0) = 0."""
        if not 0.0 <= rho < math.inf:
            raise EosDomainError(f"rho = {rho!r}: u_of_density needs a finite rho >= 0")
        if rho == 0.0:
            return 0.0
        zeta = self.zeta_of_density(rho)
        return self.gamma * self.A / (self.gamma - 1.0) * rho ** (self.gamma - 1.0) * self.omega_u(zeta)

    # -- eta <-> zeta inversion ----------------------------------------------

    def zeta_of_eta(self, eta: float) -> float:
        """Solve F(zeta) = gamma/(gamma-1) zeta Omega_u(zeta) - eta = 0 by
        bracketing plus Newton safeguarded by bisection, on floats.  The Newton
        slope is the integrand _w; F(z0) is both the bracket's first test and
        Newton's first residual, and an exactly zero residual ends the search."""
        if not 0.0 <= eta < math.inf:
            raise _refusal("eta", eta)
        gfac = self.gamma / (self.gamma - 1.0)
        z0 = eta / gfac
        if z0 == 0.0:
            # eta is 0, or subnormal and zeta ~ eta / gfac rounds to 0: that is
            # the correctly rounded root, and no bracket [0, z0] is left to search
            return 0.0
        f = f_hi = gfac * z0 * self.omega_u(z0) - eta
        lo, hi = 0.0, z0
        for _ in range(199):
            if f_hi >= 0.0:
                break
            hi *= 2.0
            f_hi = gfac * hi * self.omega_u(hi) - eta
        if f_hi < 0.0:
            raise RootFindError(f"could not bracket zeta(eta) for eta = {eta:g}")

        z = z0
        for i in range(100):
            if i:
                f = gfac * z * self.omega_u(z) - eta
            if f == 0.0:
                return z
            if f < 0.0:
                lo = z
            else:
                hi = z
            slope = gfac * self._w(z)
            z_new = z - f / slope if slope > 0.0 else 0.5 * (lo + hi)
            if not (lo < z_new < hi):
                z_new = 0.5 * (lo + hi)
            if abs(z_new - z) <= 1e-15 * z_new:
                return z_new
            z = z_new
        raise RootFindError(
            f"zeta(eta) did not converge for eta = {eta:g}; last bracket [{lo:g}, {hi:g}]"
        )

    def omega_rho_P(self, eta: float) -> tuple:
        """(Omega_rho(eta), Omega_P(eta)) by direct inversion of eta -> zeta >= 0."""
        return self._omega_rho_P_at(eta, self.zeta_of_eta(eta))

    def _omega_rho_P_at(self, eta: float, zeta: float) -> tuple:
        """(Omega_rho, Omega_P) at eta from its root zeta, on Python floats:
        Omega_rho = Omega_u(zeta)^(-1/(gamma-1)), so that rho = A1 u^mu Omega_rho
        reproduces the density, and Omega_P = Omega(zeta) Omega_u(zeta)^(-mu-1)."""
        if zeta < sys.float_info.min:
            # zeta is 0 or subnormal: Omega_u(zeta) = 1 + O(zeta) rounds to 1,
            # which the ratio below, of two subnormals, would not give
            return 1.0, 1.0
        # at the root, Omega_u(zeta) = (gamma-1)/gamma * eta / zeta exactly
        omu = (self.gamma - 1.0) / self.gamma * eta / zeta
        omega_rho = omu ** (-self.mu)
        omega_P = self.omega.value(zeta) * omu ** (-(self.mu + 1.0))
        return omega_rho, omega_P

    # -- the terms in the EOS's own state variable (bound once per solve) -----

    @cached_property
    def state_var(self) -> str:
        """The state beside M: U for Omega == 1, Z = U / Omega_u for a series."""
        return "U" if self.omega.coeffs == (1.0,) else "Z"

    def stage_terms_source(self) -> tuple:
        """(label, text, values): the terms, which set rho_term, p_term and for Z
        dZ_dU from X_pos, X = state_var, and the values of their free names
        but alpha, mu and p_alpha = (gamma - 1) / gamma alpha."""
        if self.state_var == "U":
            return "closed-form Omega", _CLOSED_FORM_TERMS, {"expm1": math.expm1}
        c = self.omega.coeffs
        values = {f"oc{j}": cj for j, cj in enumerate(c)}
        values.update({f"od{j}": dj for j, dj in enumerate(self.omega._d1, 1)})
        values.update(k=(self.gamma - 1.0) / self.gamma, outside=_outside)
        return f"series Omega, degree {len(c) - 1}", _z_terms(len(c) - 1), values

    def _run_terms(self, form: tuple, **values):
        """form's function with the terms' values and values bound."""
        label, terms, bound = self.stage_terms_source()
        bound.update(values)
        return _terms_factory(form, self.state_var, label, terms, tuple(bound))(**bound)

    def fast_omega(self):
        """eta -> (Omega_rho, Omega_P): for Omega == 1 the terms at U_pos = 1
        (_GERM), within ~1e-13 of the direct path, else the direct path.  Not
        stored: an EosSpec is pickled into workers, a closure cannot be."""
        if self.state_var == "Z":
            return self.omega_rho_P
        return self._run_terms(_GERM, k=(self.gamma - 1.0) / self.gamma, mu=self.mu, refusal=_refusal)

    def omega_rho_P_fast(self, eta: float) -> tuple:
        """(Omega_rho, Omega_P) at one eta by fast_omega."""
        return self.fast_omega()(eta)

    def center_terms(self, eta: float) -> tuple:
        """(Omega_rho, Omega_P, X_c, dX/dU) at a centre, U = 1, alpha = eta; for
        Z one inversion gives zeta_c, Z_c = zeta_c / (k eta) (1 where zeta_c
        is 0 or subnormal), the terms at Z# = Z_c and 1 / w(zeta_c)."""
        if self.state_var == "U":
            return (*self.omega_rho_P_fast(eta), 1.0, 1.0)
        zeta = self.zeta_of_eta(eta)
        Z_c = 1.0 if zeta < sys.float_info.min else zeta / ((self.gamma - 1.0) / self.gamma * eta)
        Zm = Z_c**self.mu
        return Zm, Zm * Z_c * self.omega.value(zeta), Z_c, 1.0 / self._w(zeta)

    # -- state reconstruction ------------------------------------------------

    def rho_P_of_state(self, xs) -> tuple:
        """(rho, P), two lists, zero for x <= 0, at each x of xs, a state column
        in physical units: u, or z with rho = A1 z^mu and P = A A1^gamma
        z^(mu+1) Omega.  One loop (_STATE_MAP) runs the terms on Python
        floats, as numpy's vector pow may differ from libm's in the last bit,
        and refuses a NaN or -inf x in its x <= 0 branch; +inf gives NaN."""
        g, alpha = self.gamma, 1.0 / self.c2
        return self._run_terms(_STATE_MAP, alpha=alpha, p_alpha=(g - 1.0) / g * alpha, mu=self.mu,
                               A1=self.A1, p_coeff=self.p_coeff, nonfinite_u=_nonfinite_u)(xs)

    def u_of_state(self, xs) -> list:
        """u at each x of the state column xs: x, or z Omega_u(zeta) in closed
        form (z where zeta <= 0 or is subnormal, where Omega_u rounds to 1)."""
        if self.state_var == "U":
            return list(xs)
        g = self.gamma
        p_alpha = (g - 1.0) / g * (1.0 / self.c2)
        return [z * self.omega_u(p_alpha * z) if p_alpha * z >= sys.float_info.min else z
                for z in xs]

    def rho_P_of_u(self, us) -> tuple:
        """(rho, P) at each enthalpy u of us: rho_P_of_state of u, or of
        z = u / Omega_u with zeta_of_eta(u/c^2), which refuses +inf."""
        if self.state_var == "U":
            return self.rho_P_of_state(us)
        zs = []
        for u in us:
            if u > 0.0:
                eta = u / self.c2
                zeta = self.zeta_of_eta(eta)
                # at the root, Omega_u(zeta) = (gamma-1)/gamma * eta / zeta exactly
                if zeta >= sys.float_info.min:
                    u /= (self.gamma - 1.0) / self.gamma * eta / zeta
            zs.append(u)
        return self.rho_P_of_state(zs)

    def density_of_u(self, u: float) -> float:
        """rho(u) = A1 u^mu Omega_rho(u/c^2); zero for u <= 0."""
        if u == math.inf:
            raise _nonfinite_u(u)
        return self.rho_P_of_u((u,))[0][0]

    def pressure_of_u(self, u: float) -> float:
        """P(u) = A A1^gamma u^(mu+1) Omega_P(u/c^2); zero for u <= 0."""
        if u == math.inf:
            raise _nonfinite_u(u)
        return self.rho_P_of_u((u,))[1][0]


# -- relativistic zero-temperature Fermi gas ---------------------------------

@dataclass(frozen=True)
class FermiEosParams:
    """Scale constant of the ideal relativistic Fermi fluid.

    P  = K c^5 int_0^zeta q^4 / sqrt(1+q^2) dq
    rho = 3 K c^3 int_0^zeta sqrt(1+q^2) q^2 dq
    """

    K: float
    c: float = 1.0

    def __post_init__(self):
        for name in ("K", "c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise NonPhysicalEosError(f"Fermi {name} must be finite and positive, got {value!r}")


# binomial coefficients C(-1/2, k) and C(1/2, k) for the small-argument series
_BIN_M12 = [1.0]
_BIN_P12 = [1.0]
for _k in range(1, 16):
    _BIN_M12.append(_BIN_M12[-1] * (-0.5 - (_k - 1)) / _k)
    _BIN_P12.append(_BIN_P12[-1] * (0.5 - (_k - 1)) / _k)


def _fermi_pressure_dimless(z: float) -> float:
    """int_0^z q^4 / sqrt(1+q^2) dq, evaluated in closed form."""
    if z < 0.35:
        # the antiderivative cancels to O(z^5); sum the series instead
        acc = 0.0
        for k in range(15, -1, -1):
            acc += _BIN_M12[k] * z ** (5 + 2 * k) / (5 + 2 * k)
        return acc
    s = math.sqrt(1.0 + z * z)
    return 0.125 * (z * (2.0 * z * z - 3.0) * s + 3.0 * math.asinh(z))


def _fermi_density_dimless(z: float) -> float:
    """int_0^z sqrt(1+q^2) q^2 dq, evaluated in closed form."""
    if z < 0.35:
        acc = 0.0
        for k in range(15, -1, -1):
            acc += _BIN_P12[k] * z ** (3 + 2 * k) / (3 + 2 * k)
        return acc
    s = math.sqrt(1.0 + z * z)
    return 0.125 * (z * (2.0 * z * z + 1.0) * s - math.asinh(z))


def fermi_eos(zeta: float, params: FermiEosParams) -> tuple:
    """(rho, P) of the relativistic Fermi fluid at momentum parameter zeta."""
    if not 0.0 <= zeta < math.inf:  # NaN fails too
        raise EosDomainError(f"Fermi momentum parameter zeta must be finite and nonnegative, got {zeta!r}")
    c = params.c
    P = params.K * c**5 * _fermi_pressure_dimless(zeta)
    rho = 3.0 * params.K * c**3 * _fermi_density_dimless(zeta)
    return rho, P


# the Fermi fit: degree of Omega, and sample count and first sample of the window
_FERMI_DEG = 10
_FERMI_SAMPLES = 80
_FERMI_Z0 = 1e-3


def fermi_fit_eos(
    params: FermiEosParams,
    zeta_fit_max: float = 0.75,
) -> EosSpec:
    """EosSpec with gamma = 5/3 and a series Omega fitted to the Fermi fluid.

    The low-density expansion gives A = K^(-2/3)/5 and gamma = 5/3; the
    residual correction Omega(zeta) = P / (A rho^gamma) is fitted as a
    polynomial of degree _FERMI_DEG to _FERMI_SAMPLES points of the momentum
    window [_FERMI_Z0, zeta_fit_max], which must be finite and wider than 0.
    """
    if not (math.isfinite(zeta_fit_max) and zeta_fit_max > 0.0):
        raise ValueError(f"zeta_fit_max must be finite and positive, got {zeta_fit_max!r}")
    if zeta_fit_max <= _FERMI_Z0:  # a window of one point, or reversed
        raise ValueError(f"zeta_fit_max must exceed the first fit sample, zeta = {_FERMI_Z0!r}, "
                         f"got {zeta_fit_max!r}")
    gamma = 5.0 / 3.0
    A = params.K ** (-2.0 / 3.0) / 5.0
    c2 = params.c * params.c

    zs = np.linspace(_FERMI_Z0, zeta_fit_max, _FERMI_SAMPLES)
    rows = np.array([fermi_eos(float(z), params) for z in zs])
    rho, P = rows[:, 0], rows[:, 1]
    zeta_var = A * rho ** (gamma - 1.0) / c2
    omega_vals = P / (A * rho**gamma)

    # least squares in the scaled variable keeps the Vandermonde well conditioned;
    # the constant term is pinned to Omega(0) = 1
    smax = zeta_var.max()
    s = zeta_var / smax
    M = np.vander(s, _FERMI_DEG + 1, increasing=True)[:, 1:]
    coeffs_scaled, *_ = np.linalg.lstsq(M, omega_vals - 1.0, rcond=None)
    coeffs = [1.0] + [float(coeffs_scaled[k] / smax ** (k + 1)) for k in range(_FERMI_DEG)]

    return EosSpec(A=A, gamma=gamma, omega=OmegaSeries(tuple(coeffs)), c=params.c)
