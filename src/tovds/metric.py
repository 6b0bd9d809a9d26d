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
from .model import (
    BoundaryQuantities,
    SolutionProfile,
    _boundary_stencil,
    _stencil,
    _stencil_limits,
)
from .odecore import dkappa_dr, kappa

__all__ = [
    "MetricPatch",
    "horizons",
    "continuity_report",
    "BeyondHorizonError",
]


class BeyondHorizonError(TovdsError):
    """Metric requested at or beyond the cosmological horizon."""


@dataclass(frozen=True)
class HorizonPair:
    r_I: float  # black-hole horizon
    r_E: float  # cosmological horizon


def horizons(m_plus: float, Lambda: float, k: Constants) -> HorizonPair | None:
    """Positive roots of kappa(r, m_plus) = 0, i.e. of
    Lambda r^3/3 - r + 2 G m_plus/c^2 = 0, by the trigonometric method.

    Returns None when kappa(r, m_plus) <= 0 for all r > 0 (condition
    violated); at the condition boundary the two roots coincide.
    """
    for name, value in (("m_plus", m_plus), ("Lambda", Lambda)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"horizons need a finite {name} > 0, got {value!r}")
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
            r_I -= kappa(r_I, m_plus, Lambda, k) / dkappa_dr(r_I, m_plus, Lambda, k)
            r_E -= kappa(r_E, m_plus, Lambda, k) / dkappa_dr(r_E, m_plus, Lambda, k)
    if not (0.0 < r_I <= r_E):
        return None
    return HorizonPair(r_I=r_I, r_E=r_E)


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
    def from_model(cls, profile: SolutionProfile, bq: BoundaryQuantities) -> "MetricPatch":
        if profile.vacuum_event() is None:
            raise ModelError("metric patching needs a vacuum-terminated profile", profile=profile)
        return cls(profile=profile, bq=bq)

    @property
    def r_E(self) -> float:
        return self.horizon_pair.r_E if self.horizon_pair is not None else math.inf

    def g_components(self, r: float) -> tuple:
        """(g00, g11) at radius r; signature (+, -, -, -).  g11 = -1/kappa(r, mtilde)
        with the piecewise mass mtilde: m(r) inside, m_+ outside."""
        if r >= self.r_E:
            raise BeyondHorizonError(f"r = {r:g} is at or beyond the cosmological horizon {self.r_E:g}")
        k = self.profile.constants
        if r < self.bq.r_plus:
            m, u = self.profile.state_at(r)  # one dense call gives both
            g00 = self.bq.kappa_plus * math.exp(-2.0 * u / k.c2)
        else:
            m = self.bq.m_plus
            g00 = kappa(r, m, self.profile.Lambda, k)
        kap_tilde = kappa(r, m, self.profile.Lambda, k)
        if kap_tilde <= 0.0:
            raise BeyondHorizonError(f"kappa(r, mtilde) <= 0 at r = {r:g}")
        return g00, -1.0 / kap_tilde

    def brackets_star(self) -> bool:
        """r_I < r_+ < r_E for the attached model (Lambda > 0 only)."""
        hp = self.horizon_pair
        if hp is None:
            return False
        return hp.r_I < self.bq.r_plus < hp.r_E


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

    def row(self, quantity: str, side: str, order: int) -> ReportRow:
        for r in self.rows:
            if (r.quantity, r.side, r.order) == (quantity, side, order):
                return r
        raise KeyError((quantity, side, order))

    def to_json_dict(self) -> dict:
        return {"rows": [r.to_json_dict() for r in self.rows], "pass": self.passed}


# the row tolerances by derivative order
_TOLS = (1e-12, 1e-5, 1e-3)
_G11_TOLS = (1e-12, 1e-5, 1e-2)


def _rel_err(value: float, target: float) -> float:
    scale = max(abs(target), 1e-300)
    return abs(value - target) / scale


def continuity_report(patch: MetricPatch) -> MetricReport:
    """One-sided values of g00, g11 and their first two r-derivatives at r_+,
    compared against the closed-form targets.

    Targets: g00 -> kappa_+, dg00/dr -> 2 Q_+/(c^2 r_+^2),
    d^2 g00/dr^2 -> -4 Q_+/(c^2 r_+^3) - 2 Lambda; g11 targets come from the
    exterior closed form evaluated at r_+.  Each side takes its limits on
    the four-level stencil of model._stencil, of first step
    _STENCIL_H0 * r_+; row tolerances by order are _TOLS for g00 and
    _G11_TOLS for g11.  The interior side reads its states from the
    profile's boundary stencil, so the report makes no dense-output call;
    the rows, the difference quotients and the Richardson passes are formed
    on Python floats.
    """
    prof = patch.profile
    if prof.vacuum_event() is None:
        raise ModelError("continuity report needs a vacuum-terminated profile", profile=prof)
    k = prof.constants
    bq = patch.bq
    r_p = bq.r_plus
    Lam = prof.Lambda

    kp = bq.kappa_plus
    kp1 = bq.kappa_plus_prime
    kp2 = -4.0 * k.G * bq.m_plus / (k.c2 * r_p**3) - 2.0 * Lam / 3.0
    g00_targets = (kp, 2.0 * bq.Q_plus / (k.c2 * r_p**2), -4.0 * bq.Q_plus / (k.c2 * r_p**3) - 2.0 * Lam)
    g11_targets = (-1.0 / kp, kp1 / kp**2, kp2 / kp**2 - 2.0 * kp1**2 / kp**3)

    # side-specific closed forms so each one-sided limit is taken on its own
    # branch (the interior expressions remain valid at r_+ itself); each side
    # is a list of rows (g00, g11) over its stencil radii
    inner, hs = _stencil(r_p, -1.0)
    outer, _ = _stencil(r_p, 1.0)
    interior = [(kp * math.exp(-2.0 * u / k.c2), -1.0 / kappa(r, m, Lam, k))
                for r, (m, u) in zip(inner, _boundary_stencil(prof))]
    exterior = [(g, -1.0 / g) for g in (kappa(r, bq.m_plus, Lam, k) for r in outer)]

    rows = []
    for side, sign, side_rows in (("interior", -1.0, interior), ("exterior", 1.0, exterior)):
        for col, (quantity, targets, tols) in enumerate((("g00", g00_targets, _TOLS),
                                                         ("g11", g11_targets, _G11_TOLS))):
            derivs = _stencil_limits([row[col] for row in side_rows], hs, sign)
            for order, (value, target, tol) in enumerate(zip(derivs, targets, tols)):
                rows.append(ReportRow(quantity, side, order, value, target, _rel_err(value, target), tol))
    return MetricReport(rows=rows)
