"""Barotropic equation of state with an analytic correction factor.

P(rho) = A rho^gamma Omega(zeta),  zeta = A rho^(gamma-1) / c^2,  Omega(0) = 1,
for rho >= 0: the EOS lives on zeta, eta >= 0; the direct path refuses below 0.

The enthalpy variable u = int_0^rho dP / (rho + P/c^2) linearises the vacuum
boundary.  Three derived correction functions express the state through u:

    u   = gamma A / (gamma - 1) * rho^(gamma-1) * Omega_u(zeta)
    rho = A1 * u^(1/(gamma-1))     * Omega_rho(eta),   eta = u / c^2
    P   = A A1^gamma * u^(gamma/(gamma-1)) * Omega_P(eta)

with A1 = ((gamma-1)/(gamma A))^(1/(gamma-1)).  Omega_u(zeta) is the mean
over [0, zeta] of w = [Omega + (gamma-1)/gamma z Omega'] / (1 + z Omega),
computed by an adaptive Gauss-Legendre rule (_mean) that evaluates w on all
nodes of a level at once; Omega_rho and Omega_P need the inverse map
eta -> zeta, a bracketed Newton search per eta that _zetas_of_etas runs on
many etas at once, with their bits alone, by one batched quadrature per
round (_means).  All three equal 1 at argument 0, and every path gives
(Omega_rho, Omega_P) = (1.0, 1.0) exactly at eta = 0.  A series Omega and
its derivative are evaluated by Horner, on a float or elementwise on an
array, in numpy.polynomial's polyval operation order, so the values are
bit-identical to polyval's.

That direct path is slow.  The fast path has one definition, the terms
text of EosSpec.stage_terms_source, which sets rho_term = U#^mu Omega_rho
and p_term = U#^(mu+1) Omega_P at eta = alpha U#.  For the pure polytrope,
Omega == 1, which is OmegaSeries((1.0,)) and the default, it is the closed
form in Z = U# / Omega_u = U# (e^(k eta) - 1) / (k eta), k = (gamma-1)/gamma.
For a series Omega it calls piecewise Chebyshev interpolants on a grid over
[0, eta_max]; a piece is fitted to the direct path at its 13 nodes, inverted
in one batch, when an eta first lands in it.  Outside the grid, and in a
piece with a node outside the EOS domain, the direct path answers.  Three
consumers run the text, each compiled once per text: the scaled stage
(odecore), the germ fast_omega() at U# = 1, where the terms are Omega_rho
and Omega_P, and the state map rho_P_of_u at U# = u.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
import textwrap
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.legendre import leggauss

from . import codegen
from .errors import EosDomainError, NonPhysicalEosError, QuadratureError, RootFindError

_log = logging.getLogger("tovds")

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


def _gauss_legendre(n: int) -> tuple:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# _mean's rule pair: the 21-point rule gives a panel's mean and the 10-point
# rule's distance from it that mean's error estimate, a large overestimate for
# an analytic integrand (21 points integrate degree 41 exactly, 10 degree 19).
# Both rules' nodes in one row; column 0 of _GL_WEIGHTS weighs them for the
# 21-point mean, column 1 for the 10-point mean.
_GL21_NODES, _GL21_WEIGHTS = _gauss_legendre(21)
_GL10_NODES, _GL10_WEIGHTS = _gauss_legendre(10)
_GL_NODES = np.concatenate((_GL21_NODES, _GL10_NODES))
_GL_WEIGHTS = np.zeros((31, 2))
_GL_WEIGHTS[:21, 0] = _GL21_WEIGHTS
_GL_WEIGHTS[21:, 1] = _GL10_WEIGHTS
_QUAD_RTOL = 1e-10
_QUAD_PANELS = 400


def _means(f, bs) -> list:
    """_mean(f, b) at each b of bs, bit for bit: every first level in one call
    of f and one stacked matmul of _mean's own (1, 31) rows (an (n, 31) matmul
    can differ in the last bit); a b whose first level does not close is _mean's."""
    means = (f(np.asarray(bs)[:, None] * _GL_NODES)[:, None, :] @ _GL_WEIGHTS)[:, 0]
    done = np.abs(means[:, 0] - means[:, 1]) <= _QUAD_RTOL * np.abs(means[:, 0])
    out = (0.0 + means[:, 0]).tolist()  # _mean's total, 0.0 + 1.0 * m21
    for j in np.flatnonzero(~done).tolist():
        out[j] = _mean(f, bs[j])
    return out


def _mean(f, b: float) -> float:
    """(1 / b) int_0^b f, b > 0, by adaptive Gauss-Legendre quadrature.

    f maps an array of abscissae to the array of its values.  Each level
    evaluates every open panel at the nodes of both rules in one call of f;
    a panel closes when its two means differ by at most _QUAD_RTOL times the
    current mean over [0, b], and every other panel is halved.  Panels are
    kept as fractions of [0, b], so their weights are exact powers of 2 and
    nothing is divided by b, however small it is.  QuadratureError when
    more than _QUAD_PANELS panels would be needed.
    """
    lo = np.zeros(1)  # left ends of the open panels, as fractions of [0, b]
    width = 1.0
    total = 0.0
    evaluated = 1
    x = b * _GL_NODES[None, :]
    while True:
        means = f(x) @ _GL_WEIGHTS
        m21 = means[:, 0]
        err = np.abs(m21 - means[:, 1])
        done = err <= _QUAD_RTOL * abs(total + width * m21.sum())
        total += width * m21[done].sum()
        if done.all():
            return float(total)
        open_err = width * err[~done].sum()
        width *= 0.5
        lo = lo[~done]
        lo = np.concatenate((lo, lo + width))
        evaluated += lo.size
        if evaluated > _QUAD_PANELS:
            raise QuadratureError(
                f"quadrature over [0, {b:g}] did not converge in {_QUAD_PANELS} panels; "
                f"error estimate of the mean {open_err:.3e}"
            )
        x = b * (lo[:, None] + width * _GL_NODES)


# Sub-interval tables for the fast Omega_rho / Omega_P path: degree per piece
# and pieces per unit of eta are chosen so the tables reproduce the direct
# computation to ~1e-13 (asserted by the test suite).
_TAB_DEG = 12
_TAB_PIECES_MIN = 24
_TAB_PIECES_PER_UNIT = 6.0
# Chebyshev points of the first kind in the scaled piece variable
_TAB_NODES = np.cos(np.pi * (2.0 * np.arange(_TAB_DEG + 1) + 1.0) / (2.0 * (_TAB_DEG + 1)))
# marks a piece that cannot be fitted because a node lies outside the EOS domain
_OFF_DOMAIN = object()

# The terms rho_term = U#^mu Omega_rho and p_term = U#^(mu+1) Omega_P from
# U_pos = U# and alpha, mu and p_alpha = k alpha.  For Omega == 1,
# Omega_rho = Omega_u^(-mu) and Omega_P = Omega_u^(-mu-1), so with
# Z = U# / Omega_u = U# expm1(keta) / keta, keta = k alpha U#, they are Z^mu
# and Z^(mu+1): one pow.  expm1(keta) / keta is 1.0 exactly for a tiny or
# subnormal keta, where dividing by k alpha instead would not be.
_CLOSED_FORM_TERMS = """\
keta = p_alpha * U_pos
Z = U_pos * (expm1(keta) / keta) if keta != 0.0 else U_pos
rho_term = Z**mu
p_term = rho_term * Z
"""
# a series Omega calls its bound table evaluator at eta = alpha U#, and
# U#^(mu+1) is U#^mu U#: one pow
_TABLE_TERMS = """\
eta = alpha * U_pos
omega_rho, omega_P = omega_table(eta)
Um = U_pos**mu
rho_term = Um * omega_rho
p_term = Um * U_pos * omega_P
"""
# The germ and the state map, (name, params, body, result), run the terms at
# their line TERMS: the germ at U# = 1, alpha = eta, where the terms are
# Omega_rho(eta) and Omega_P(eta), for a series Omega the table's own bits
# (1.0**mu is 1.0), and the state map at U# = u > 0, alpha = 1/c^2.
_GERM = ("germ", "eta", "U_pos = 1.0\nalpha = eta\np_alpha = k * eta\nTERMS\n", "rho_term, p_term")
_STATE_MAP = ("state map", "us", """\
rho, P = [0.0] * len(us), [0.0] * len(us)
for i, U_pos in enumerate(us):
    if U_pos > 0.0:
        TERMS
        rho[i] = A1 * rho_term
        P[i] = p_coeff * p_term
""", "rho, P")


@functools.cache
def _terms_factory(form: tuple, label: str, terms: str, consts: tuple):
    """make(**values) of form's function with terms spliced in, compiled once per text."""
    name, params, body, result = form
    head, _, tail = body.partition("TERMS\n")
    start = head.rfind("\n") + 1
    body = head[:start] + textwrap.indent(terms, head[start:]) + tail
    return codegen.closure_factory(f"<eos {name}: {label}>", params, body, result, consts)


class _OmegaTables:
    """Piece grid over [0, hi]; pieces[i] is None until an eta first lands in it,
    then (coef_rho, coef_P), each deg+1 floats, lowest degree first, or
    _OFF_DOMAIN when a node of the piece lies outside the EOS domain."""

    def __init__(self, hi: float):
        n = max(_TAB_PIECES_MIN, int(math.ceil(hi * _TAB_PIECES_PER_UNIT)))
        edges = np.linspace(0.0, hi, n + 1)
        self.hi = float(hi)
        self.n = n
        self.mids = tuple(float(m) for m in 0.5 * (edges[:-1] + edges[1:]))
        self.halfw = float(0.5 * (edges[1] - edges[0]))
        self.inv_halfw = 1.0 / self.halfw
        self.pieces = [None] * n

    def build(self, i: int, eos: EosSpec) -> tuple:
        """Fit piece i to eos.omega_rho_P's bits at its nodes, from one batched
        inversion eos._zetas_of_etas; depends on no other piece."""
        etas = (self.mids[i] + self.halfw * _TAB_NODES).tolist()
        try:
            zetas = eos._zetas_of_etas(etas)
        except EosDomainError:
            self.pieces[i] = _OFF_DOMAIN
            return _OFF_DOMAIN
        vals = np.array([eos._omega_rho_P_at(eta, zeta) for eta, zeta in zip(etas, zetas)])
        cr = npoly.polyfit(_TAB_NODES, vals[:, 0], _TAB_DEG)
        cP = npoly.polyfit(_TAB_NODES, vals[:, 1], _TAB_DEG)
        piece = (tuple(float(x) for x in cr), tuple(float(x) for x in cP))
        self.pieces[i] = piece
        return piece


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
    eta_max: float = 8.0  # ceiling of the fast-path piece grid for a series Omega

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

    def _w(self, zp):
        """Integrand of Omega_u: [Omega + (gamma-1)/gamma z Omega'] / (1 + z Omega),
        at a float or elementwise on an array.  A float's test is a plain
        comparison, which costs far less than np.any on a bool."""
        om = self.omega.value(zp)
        den = 1.0 + zp * om
        bad = den <= 0.0
        if bad if isinstance(bad, bool) else bad.any():
            first = np.min(zp, where=bad, initial=np.inf)
            raise EosDomainError(f"1 + zeta*Omega(zeta) <= 0 at zeta = {first:g}")
        num = om + (self.gamma - 1.0) / self.gamma * zp * self.omega.deriv(zp)
        return num / den

    def omega_u(self, zeta: float) -> float:
        """Omega_u(zeta) = (1/zeta) int_0^zeta w, the mean of w over [0, zeta];
        the removable singularity at 0 takes its limit, 1."""
        if not zeta >= 0.0:
            raise EosDomainError(f"zeta = {zeta!r}: the EOS is defined for zeta >= 0 only")
        if zeta == 0.0:
            return 1.0
        return _mean(self._w, zeta)

    def u_of_density(self, rho: float) -> float:
        """Enthalpy u(rho) through the closed transform; u(0) = 0."""
        if rho < 0.0:
            raise EosDomainError("rho must be nonnegative")
        if rho == 0.0:
            return 0.0
        zeta = self.zeta_of_density(rho)
        return self.gamma * self.A / (self.gamma - 1.0) * rho ** (self.gamma - 1.0) * self.omega_u(zeta)

    # -- eta <-> zeta inversion ----------------------------------------------

    def zeta_of_eta(self, eta: float) -> float:
        """Solve eta = gamma/(gamma-1) * zeta * Omega_u(zeta) for zeta: the
        batched inversion _zetas_of_etas on one eta."""
        return self._zetas_of_etas((eta,))[0]

    def _zetas_of_etas(self, etas) -> list:
        """zeta_of_eta at each eta of etas, with its bits: each eta runs its own
        _zeta_search, and one _means call answers each round of their asks."""
        zetas, searches = [0.0] * len(etas), [self._zeta_search(eta) for eta in etas]
        replies = dict.fromkeys(range(len(etas)))
        while replies:
            asks = {}
            for j, reply in replies.items():
                try:
                    asks[j] = searches[j].send(reply)
                except StopIteration as stop:
                    zetas[j] = stop.value
            replies = dict(zip(asks, _means(self._w, list(asks.values())) if asks else ()))
        return zetas

    def _zeta_search(self, eta: float):
        """Bracketing plus Newton safeguarded by bisection, as a generator that
        yields each z whose Omega_u(z) it needs, is sent that value and returns
        zeta.  The Newton slope is the integrand w, which needs no quadrature;
        no z is integrated twice, F(z0) being the bracket's first test and
        Newton's first residual."""
        if not eta >= 0.0:
            raise EosDomainError(f"eta = {eta!r}: the EOS is defined for eta >= 0 only")
        gfac = self.gamma / (self.gamma - 1.0)
        z0 = eta / gfac
        if z0 == 0.0:
            # eta is 0, or subnormal and zeta ~ eta / gfac rounds to 0: that is
            # the correctly rounded root, and no bracket [0, z0] is left to search
            return 0.0
        f = f_hi = gfac * z0 * (yield z0) - eta
        lo, hi = 0.0, z0
        for _ in range(199):
            if f_hi >= 0.0:
                break
            hi *= 2.0
            f_hi = gfac * hi * (yield hi) - eta
        if f_hi < 0.0:
            raise RootFindError(f"could not bracket zeta(eta) for eta = {eta:g}")

        z = z0
        for i in range(100):
            if i:
                f = gfac * z * (yield z) - eta
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
        """(Omega_rho, Omega_P) at eta from its root zeta, on Python floats.

        Omega_rho = Omega_u(zeta)^(-1/(gamma-1)) so that
        rho = A1 u^(1/(gamma-1)) Omega_rho(eta) reproduces the density, and
        Omega_P = Omega(zeta) * Omega_u(zeta)^(-gamma/(gamma-1)).
        """
        if zeta < sys.float_info.min:
            # zeta is 0 or subnormal: Omega_u(zeta) = 1 + O(zeta) rounds to 1,
            # which the ratio below, of two subnormals, would not give
            return 1.0, 1.0
        # at the root, Omega_u(zeta) = (gamma-1)/gamma * eta / zeta exactly
        omu = (self.gamma - 1.0) / self.gamma * eta / zeta
        omega_rho = omu ** (-self.mu)
        omega_P = self.omega.value(zeta) * omu ** (-(self.mu + 1.0))
        return omega_rho, omega_P

    # -- fast path (bound once per solve) -------------------------------------

    @cached_property
    def _tables(self) -> _OmegaTables | None:
        """The fast path's piece grid; None for Omega == 1, which has a closed form."""
        return None if self.omega.coeffs == (1.0,) else _OmegaTables(self.eta_max)

    def stage_terms_source(self) -> tuple:
        """(label, text, values): the terms, statements that set rho_term and
        p_term from U_pos, and the values of their free names but alpha, mu
        and p_alpha = (gamma - 1) / gamma alpha, which each consumer sets;
        a series Omega's table evaluator is built afresh on every call."""
        if self._tables is None:
            return "closed-form Omega", _CLOSED_FORM_TERMS, {"expm1": math.expm1}
        return "table Omega", _TABLE_TERMS, {"omega_table": self._omega_table()}

    def _run_terms(self, form: tuple, **values):
        """form's function with the terms' values and values bound."""
        label, terms, bound = self.stage_terms_source()
        bound.update(values)
        return _terms_factory(form, label, terms, tuple(bound))(**bound)

    def _omega_table(self):
        """eta -> (Omega_rho, Omega_P) by the piece tables of a series Omega;
        below 0, above eta_max or in a piece that leaves the EOS domain, by
        the direct path, which refuses eta < 0."""
        direct, tab = self.omega_rho_P, self._tables
        hi, n, mids, inv_halfw, pieces, build = (
            tab.hi, tab.n, tab.mids, tab.inv_halfw, tab.pieces, tab.build)

        def omega_table(eta):
            if eta == 0.0:
                return 1.0, 1.0
            if eta < 0.0 or eta > hi:
                if eta > hi:
                    _log.debug("eta = %r above eta_max = %r: direct Omega_rho/Omega_P path", eta, hi)
                return direct(eta)
            i = int(eta * inv_halfw * 0.5)
            if i >= n:
                i = n - 1
            s = (eta - mids[i]) * inv_halfw
            piece = pieces[i] or build(i, self)
            if piece is _OFF_DOMAIN:
                _log.debug("eta = %r in a table piece that leaves the EOS domain: "
                           "direct Omega_rho/Omega_P path", eta)
                return direct(eta)
            # Horner in degree _TAB_DEG = 12, highest coefficient first
            cr, cP = piece
            return (
                ((((((((((((cr[12] * s + cr[11]) * s + cr[10]) * s + cr[9]) * s + cr[8]) * s
                        + cr[7]) * s + cr[6]) * s + cr[5]) * s + cr[4]) * s + cr[3]) * s
                   + cr[2]) * s + cr[1]) * s + cr[0]),
                ((((((((((((cP[12] * s + cP[11]) * s + cP[10]) * s + cP[9]) * s + cP[8]) * s
                        + cP[7]) * s + cP[6]) * s + cP[5]) * s + cP[4]) * s + cP[3]) * s
                   + cP[2]) * s + cP[1]) * s + cP[0]),
            )

        return omega_table

    def fast_omega(self):
        """The fast path eta -> (Omega_rho, Omega_P), the terms at U_pos = 1
        (_GERM), within ~1e-13 of the direct path on eta >= 0.  Never stored
        on the instance: an EosSpec is pickled into workers, a closure cannot be."""
        return self._run_terms(_GERM, k=(self.gamma - 1.0) / self.gamma, mu=self.mu)

    def omega_rho_P_fast(self, eta: float) -> tuple:
        """(Omega_rho, Omega_P) at one eta by the fast path (fast_omega)."""
        return self.fast_omega()(eta)

    # -- state reconstruction from u -----------------------------------------

    def rho_P_of_u(self, us) -> tuple:
        """(rho, P), two lists, at each enthalpy u of the sequence us:
        rho = A1 u^mu Omega_rho(u/c^2) and P = A A1^gamma u^(mu+1) Omega_P(u/c^2),
        both zero for u <= 0.  One loop (_STATE_MAP) runs the terms at
        U_pos = u on Python floats, as numpy's vector pow may differ from
        libm's in the last bit; for Omega == 1 a sample makes one pow."""
        g, alpha = self.gamma, 1.0 / self.c2
        return self._run_terms(_STATE_MAP, alpha=alpha, p_alpha=(g - 1.0) / g * alpha, mu=self.mu,
                               A1=self.A1, p_coeff=self.p_coeff)(us)

    def density_of_u(self, u: float) -> float:
        """rho(u) = A1 u^mu Omega_rho(u/c^2); zero for u <= 0."""
        return self.rho_P_of_u((u,))[0][0]

    def pressure_of_u(self, u: float) -> float:
        """P(u) = A A1^gamma u^(mu+1) Omega_P(u/c^2); zero for u <= 0."""
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
        if self.K <= 0.0:
            raise NonPhysicalEosError("Fermi constant K must be positive")


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
    if zeta < 0.0:
        raise EosDomainError("Fermi momentum parameter must be nonnegative")
    c = params.c
    P = params.K * c**5 * _fermi_pressure_dimless(zeta)
    rho = 3.0 * params.K * c**3 * _fermi_density_dimless(zeta)
    return rho, P


# the Fermi fit: polynomial degree of Omega and sample count in the window
_FERMI_DEG = 10
_FERMI_SAMPLES = 80


def fermi_fit_eos(
    params: FermiEosParams,
    zeta_fit_max: float = 0.75,
) -> EosSpec:
    """EosSpec with gamma = 5/3 and a series Omega fitted to the Fermi fluid.

    The low-density expansion gives A = K^(-2/3)/5 and gamma = 5/3; the
    residual correction Omega(zeta) = P / (A rho^gamma) is fitted as a
    polynomial of degree _FERMI_DEG to _FERMI_SAMPLES points of the momentum
    window [0, zeta_fit_max].
    """
    gamma = 5.0 / 3.0
    A = params.K ** (-2.0 / 3.0) / 5.0
    c2 = params.c * params.c

    zs = np.linspace(1e-3, zeta_fit_max, _FERMI_SAMPLES)
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

    u_top = 0.5 * c2 * math.log1p(zeta_fit_max**2)
    return EosSpec(
        A=A,
        gamma=gamma,
        omega=OmegaSeries(tuple(coeffs)),
        c=params.c,
        eta_max=1.25 * u_top / c2,
    )
