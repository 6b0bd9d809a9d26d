"""Patched interior/exterior metric and its regularity across the boundary.

Interior (r < r_+):   g00 = kappa_+ e^(-2u(r)/c^2),  -g11 = 1/kappa(r, m(r))
Exterior (r >= r_+):  the static vacuum metric with mass m_+ and the same
Lambda; its horizons r_I < r_E are the positive zeros of kappa(r, m_+),
which exist iff sqrt(Lambda) < c^2 / (3 G m_+).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import Constants
from .errors import ModelError, TovdsError
from .model import BoundaryQuantities, SolutionProfile, _one_sided_derivatives, boundary_quantities
from .odecore import kappa

__all__ = [
    "HorizonPair",
    "MetricPatch",
    "horizons",
    "horizon_condition",
    "continuity_report",
    "MetricReport",
    "ReportRow",
    "BeyondHorizonError",
]


class BeyondHorizonError(TovdsError):
    """Metric requested at or beyond the cosmological horizon."""


@dataclass(frozen=True)
class HorizonPair:
    r_I: float  # black-hole horizon
    r_E: float  # cosmological horizon


def horizon_condition(m_plus: float, Lambda: float, k: Constants) -> bool:
    """sqrt(Lambda) < c^2 / (3 G m_plus): horizons exist iff this holds."""
    return math.sqrt(Lambda) * 3.0 * k.G * m_plus < k.c2


def horizons(m_plus: float, Lambda: float, k: Constants) -> HorizonPair | None:
    """Positive roots of kappa(r, m_plus) = 0, i.e. of
    Lambda r^3/3 - r + 2 G m_plus/c^2 = 0, by the trigonometric method.

    Returns None when kappa(r, m_plus) <= 0 for all r > 0 (condition
    violated); at the condition boundary the two roots coincide.
    """
    if m_plus <= 0.0 or Lambda <= 0.0:
        raise ValueError("horizons need m_plus > 0 and Lambda > 0")
    # depressed cubic r^3 + p r + q
    p = -3.0 / Lambda
    q = 6.0 * k.G * m_plus / (k.c2 * Lambda)
    arg = 1.5 * q / p * math.sqrt(-3.0 / p)
    if arg < -1.0 - 1e-12:
        return None  # kappa < 0 everywhere: no static region
    if arg <= -1.0 + 1e-12:
        # discriminant boundary: double positive root
        r_d = -1.5 * q / p
        return HorizonPair(r_I=r_d, r_E=r_d)
    arg = min(arg, 1.0)
    phi = math.acos(arg)
    amp = 2.0 * math.sqrt(-p / 3.0)
    roots = sorted(amp * math.cos((phi - 2.0 * math.pi * j) / 3.0) for j in range(3))
    r_I, r_E = roots[1], roots[2]
    # one Newton polish per root (skipped when nearly degenerate)
    if r_E - r_I > 1e-6 * r_E:
        for _ in range(2):
            r_I -= _kappa_m(r_I, m_plus, Lambda, k) / _dkappa_m(r_I, m_plus, Lambda, k)
            r_E -= _kappa_m(r_E, m_plus, Lambda, k) / _dkappa_m(r_E, m_plus, Lambda, k)
    if not (0.0 < r_I <= r_E):
        return None
    return HorizonPair(r_I=r_I, r_E=r_E)


def _kappa_m(r, m_plus, Lambda, k):
    return kappa(r, m_plus, Lambda, k)


def _dkappa_m(r, m_plus, Lambda, k):
    return 2.0 * k.G * m_plus / (k.c2 * r * r) - 2.0 * Lambda * r / 3.0


@dataclass
class MetricPatch:
    """Piecewise metric built from a monotone-short model."""

    profile: SolutionProfile
    bq: BoundaryQuantities
    horizon_pair: HorizonPair | None = field(init=False, default=None)

    def __post_init__(self):
        if self.profile.Lambda > 0.0:
            self.horizon_pair = horizons(self.bq.m_plus, self.profile.Lambda, self.profile.constants)

    @classmethod
    def from_model(cls, profile: SolutionProfile, bq: BoundaryQuantities | None = None) -> "MetricPatch":
        if profile.vacuum_event() is None:
            raise ModelError("metric patching needs a vacuum-terminated profile", profile=profile)
        return cls(profile=profile, bq=bq if bq is not None else boundary_quantities(profile))

    @property
    def r_plus(self) -> float:
        return self.bq.r_plus

    @property
    def m_plus(self) -> float:
        return self.bq.m_plus

    @property
    def kappa_plus(self) -> float:
        return self.bq.kappa_plus

    @property
    def r_E(self) -> float:
        return self.horizon_pair.r_E if self.horizon_pair is not None else math.inf

    def mtilde(self, r: float) -> float:
        """Piecewise mass: m(r) inside, m_+ outside; C^2 across r_+."""
        if r < self.r_plus:
            return self.profile.state_at(r)[0]
        return self.m_plus

    def u_interior(self, r: float) -> float:
        return self.profile.state_at(r)[1]

    def g_components(self, r: float) -> tuple:
        """(g00, g11) at radius r; signature (+, -, -, -)."""
        if r >= self.r_E:
            raise BeyondHorizonError(f"r = {r:g} is at or beyond the cosmological horizon {self.r_E:g}")
        k = self.profile.constants
        if r < self.r_plus:
            g00 = self.kappa_plus * math.exp(-2.0 * self.u_interior(r) / k.c2)
        else:
            g00 = kappa(r, self.m_plus, self.profile.Lambda, k)
        kap_tilde = kappa(r, self.mtilde(r), self.profile.Lambda, k)
        if kap_tilde <= 0.0:
            raise BeyondHorizonError(f"kappa(r, mtilde) <= 0 at r = {r:g}")
        return g00, -1.0 / kap_tilde

    def g00_exterior(self, r: float) -> float:
        return kappa(r, self.m_plus, self.profile.Lambda, self.profile.constants)

    def brackets_star(self) -> bool:
        """r_I < r_+ < r_E for the attached model (Lambda > 0 only)."""
        hp = self.horizon_pair
        if hp is None:
            return False
        return hp.r_I < self.r_plus < hp.r_E


# -- twice-differentiability report --------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    quantity: str       # "g00" | "g11"
    side: str           # "interior" | "exterior"
    order: int          # 0 | 1 | 2
    value: float
    target: float
    rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.rel_err <= self.tol

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity, "side": self.side, "order": self.order,
            "value": self.value, "target": self.target,
            "rel_err": self.rel_err, "pass": self.passed,
        }


@dataclass
class MetricReport:
    rows: list

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def g00_rows(self):
        return [r for r in self.rows if r.quantity == "g00"]

    def row(self, quantity: str, side: str, order: int) -> ReportRow:
        for r in self.rows:
            if (r.quantity, r.side, r.order) == (quantity, side, order):
                return r
        raise KeyError((quantity, side, order))

    def to_json_dict(self) -> dict:
        return {"rows": [r.to_json_dict() for r in self.rows], "pass": self.passed}


def _rel_err(value: float, target: float) -> float:
    scale = max(abs(target), 1e-300)
    return abs(value - target) / scale


def continuity_report(
    patch: MetricPatch,
    h0_frac: float = 1e-3,
    tol_order0: float = 1e-12,
    tol_order1: float = 1e-5,
    tol_order2: float = 1e-3,
    tol_g11_order2: float = 1e-2,
) -> MetricReport:
    """One-sided values of g00, g11 and their first two r-derivatives at r_+,
    compared against the closed-form targets.

    Targets: g00 -> kappa_+, dg00/dr -> 2 Q_+/(c^2 r_+^2),
    d^2 g00/dr^2 -> -4 Q_+/(c^2 r_+^3) - 2 Lambda; g11 targets come from the
    exterior closed form evaluated at r_+.
    """
    prof = patch.profile
    if prof.vacuum_event() is None:
        raise ModelError("continuity report needs a vacuum-terminated profile", profile=prof)
    k = prof.constants
    bq = patch.bq
    r_p = bq.r_plus
    Lam = prof.Lambda
    h0 = h0_frac * r_p

    g00_target0 = bq.kappa_plus
    g00_target1 = 2.0 * bq.Q_plus / (k.c2 * r_p**2)
    g00_target2 = -4.0 * bq.Q_plus / (k.c2 * r_p**3) - 2.0 * Lam

    kp = bq.kappa_plus
    kp1 = bq.kappa_plus_prime
    kp2 = -4.0 * k.G * bq.m_plus / (k.c2 * r_p**3) - 2.0 * Lam / 3.0
    g11_target0 = -1.0 / kp
    g11_target1 = kp1 / kp**2
    g11_target2 = kp2 / kp**2 - 2.0 * kp1**2 / kp**3

    # side-specific closed forms so each one-sided limit is taken on its own
    # branch (the interior expressions remain valid at r_+ itself)
    def g00_int(r):
        return bq.kappa_plus * math.exp(-2.0 * patch.u_interior(r) / k.c2)

    def g00_ext(r):
        return kappa(r, bq.m_plus, Lam, k)

    def g11_int(r):
        return -1.0 / kappa(r, patch.profile.state_at(r)[0], Lam, k)

    def g11_ext(r):
        return -1.0 / kappa(r, bq.m_plus, Lam, k)

    rows = []
    tols = {0: tol_order0, 1: tol_order1, 2: tol_order2}
    g11_tols = {0: tol_order0, 1: tol_order1, 2: tol_g11_order2}
    for side, sign, f00, f11 in (("interior", -1.0, g00_int, g11_int),
                                 ("exterior", 1.0, g00_ext, g11_ext)):
        v0, v1, v2 = _one_sided_derivatives(f00, r_p, h0, sign)
        for order, value, target in ((0, v0, g00_target0), (1, v1, g00_target1), (2, v2, g00_target2)):
            rows.append(ReportRow("g00", side, order, value, target, _rel_err(value, target), tols[order]))
        w0, w1, w2 = _one_sided_derivatives(f11, r_p, h0, sign)
        for order, value, target in ((0, w0, g11_target0), (1, w1, g11_target1), (2, w2, g11_target2)):
            rows.append(ReportRow("g11", side, order, value, target, _rel_err(value, target), g11_tols[order]))
    return MetricReport(rows=rows)
