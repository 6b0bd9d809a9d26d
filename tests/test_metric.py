"""Patched metric, horizon cubic, and C^2 matching at the boundary."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tovds.constants import Constants
from tovds.eos import EosSpec
from tovds.errors import ModelError
from tovds.integrate import DenseSolution
from tovds.metric import (
    BeyondHorizonError,
    MetricPatch,
    continuity_report,
    horizons,
)
from tovds.model import ModelInput, solve_star
from tovds.odecore import FOUR_PI, kappa

from oracles import continuity_values_pointwise

GEOM = Constants(1.0, 1.0)


@pytest.fixture(scope="module")
def patch_m0():
    eos = EosSpec(A=1.0, gamma=1.5, c=1.0)
    u_c = 1e-3
    Lam = 1e-3 * FOUR_PI * GEOM.G * eos.A1 * u_c**eos.mu / GEOM.c2
    profile, outcome = solve_star(ModelInput(eos=eos, Lambda=Lam, constants=GEOM, u_c=u_c))
    return MetricPatch.from_model(profile, outcome.boundary)


@pytest.fixture(scope="module")
def patch_lambda0():
    eos = EosSpec(A=1.0, gamma=1.5, c=1.0)
    profile, outcome = solve_star(ModelInput(eos=eos, Lambda=0.0, constants=GEOM, rho_c=1e-2))
    return MetricPatch.from_model(profile, outcome.boundary)


def test_g00_continuous_at_boundary(patch_m0):
    r_p = patch_m0.bq.r_plus
    inner = patch_m0.bq.kappa_plus * math.exp(-2.0 * patch_m0.profile.state_at(r_p)[1] / GEOM.c2)
    outer = kappa(r_p, patch_m0.bq.m_plus, patch_m0.profile.Lambda, GEOM)
    assert abs(inner - outer) < 1e-14 * abs(outer)
    # the patch itself is continuous across the branch switch
    g_in = patch_m0.g_components(r_p * (1.0 - 1e-12))[0]
    g_out = patch_m0.g_components(r_p * (1.0 + 1e-12))[0]
    assert abs(g_in - g_out) < 1e-9 * abs(g_out)


def test_exterior_inverse_identity(patch_m0):
    for r in np.linspace(patch_m0.bq.r_plus, 3.0 * patch_m0.bq.r_plus, 9):
        g00, g11 = patch_m0.g_components(float(r))
        # same kappa float in both slots: product is 1 up to one rounding
        assert abs(g00 * (-g11) - 1.0) < 1e-15


def test_lambda0_schwarzschild_exterior(patch_lambda0):
    k = GEOM
    m_p = patch_lambda0.bq.m_plus
    r_p = patch_lambda0.bq.r_plus
    for r in (r_p, 2.0 * r_p, 10.0 * r_p):
        g00, g11 = patch_lambda0.g_components(float(r))
        assert g00 == pytest.approx(1.0 - 2.0 * k.G * m_p / (k.c2 * r), rel=1e-14)
    assert patch_lambda0.r_E == math.inf
    assert patch_lambda0.horizon_pair is None


def test_beyond_horizon_raises(patch_m0):
    with pytest.raises(BeyondHorizonError):
        patch_m0.g_components(patch_m0.r_E)


def test_horizon_condition_and_none():
    # horizons exist iff sqrt(Lambda) < c^2 / (3 G m_+)
    k = GEOM
    assert horizons(1.0, 1e-4, k) is not None  # sqrt(1e-4) < 1/3
    assert horizons(1.0, 0.2, k) is None  # sqrt(0.2) > 1/3
    with pytest.raises(ValueError):
        horizons(0.0, 1e-4, k)


@pytest.mark.parametrize("m_plus, Lambda, name", [
    (math.nan, 1e-3, "m_plus"), (math.inf, 1e-3, "m_plus"), (0.0, 1e-3, "m_plus"),
    (1.0, math.nan, "Lambda"), (1.0, math.inf, "Lambda"), (1.0, -1.0, "Lambda"),
])
def test_horizons_refuse_a_bad_argument_by_name(m_plus, Lambda, name):
    # NaN and +inf masses read "no static region", and Lambda = inf divided by zero
    with pytest.raises(ValueError, match=f"^horizons need a finite {name} > 0, got"):
        horizons(m_plus, Lambda, GEOM)


def test_double_root_at_condition_boundary():
    hp = horizons(1.0, 1.0 / 9.0, GEOM)
    assert abs(hp.r_I - 3.0) < 1e-8
    assert abs(hp.r_E - 3.0) < 1e-8


def test_horizons_small_lambda_limits():
    k = GEOM
    Lam = 1e-8
    hp = horizons(1.0, Lam, k)
    assert hp.r_I == pytest.approx(2.0 * k.G / k.c2, rel=1e-3)
    assert hp.r_E == pytest.approx(math.sqrt(3.0 / Lam), rel=1e-3)
    # residuals at the polished roots
    assert abs(kappa(hp.r_I, 1.0, Lam, k)) < 1e-12
    assert abs(kappa(hp.r_E, 1.0, Lam, k)) < 1e-12


def test_factorization_identity(patch_m0):
    hp = patch_m0.horizon_pair
    Lam = patch_m0.profile.Lambda
    m_p = patch_m0.bq.m_plus
    grid = np.linspace(hp.r_I, hp.r_E, 1000)
    kap = np.array([kappa(float(r), m_p, Lam, GEOM) for r in grid])
    fact = Lam / (3.0 * grid) * (grid - hp.r_I) * (hp.r_E - grid) * (grid + hp.r_I + hp.r_E)
    assert float(np.max(np.abs(kap - fact))) < 1e-10
    # kappa > 0 exactly between the horizons, <= 0 outside
    assert kappa(0.5 * hp.r_I, m_p, Lam, GEOM) < 0.0
    assert kappa(1.5 * hp.r_E, m_p, Lam, GEOM) < 0.0
    assert np.all(kap[1:-1] > 0.0)


def test_horizons_bracket_star(patch_m0):
    hp = patch_m0.horizon_pair
    assert hp.r_I < patch_m0.bq.r_plus < hp.r_E
    assert patch_m0.brackets_star()


def test_continuity_report(patch_m0):
    report = continuity_report(patch_m0)
    assert report.passed
    bq = patch_m0.bq
    k = patch_m0.profile.constants
    target1 = 2.0 * bq.Q_plus / (k.c2 * bq.r_plus**2)
    target2 = -4.0 * bq.Q_plus / (k.c2 * bq.r_plus**3) - 2.0 * patch_m0.profile.Lambda
    for side in ("interior", "exterior"):
        assert report.row("g00", side, 1).rel_err < 1e-5
        assert report.row("g00", side, 2).rel_err < 1e-3
        assert report.row("g00", side, 1).target == target1
        assert report.row("g00", side, 2).target == target2
    # interior first derivative equals -(2 kappa_+/c^2) du/dr at the boundary
    interior = report.row("g00", "interior", 1).value
    from_model = -2.0 * bq.kappa_plus / k.c2 * bq.du_dr_minus
    assert interior == pytest.approx(from_model, rel=1e-5)
    doc = report.to_json_dict()
    assert doc["pass"] is True
    assert len(doc["rows"]) == 12
    assert {"quantity", "side", "order", "value", "target", "rel_err", "pass"} <= set(doc["rows"][0])


@pytest.fixture(scope="module")
def patch_g17():
    """gamma = 1.7 star with alpha = beta = 1e-3, whose g11 interior 2 row
    fails: the density near r_+ goes as (r_+ - r)^mu with mu < 2."""
    eos = EosSpec(A=1.0, gamma=1.7, c=1.0)
    u_c = 1e-3
    Lam = 1e-3 * FOUR_PI * GEOM.G * eos.A1 * u_c**eos.mu / GEOM.c2
    profile, outcome = solve_star(ModelInput(eos=eos, Lambda=Lam, constants=GEOM, u_c=u_c))
    return MetricPatch.from_model(profile, outcome.boundary)


@pytest.mark.parametrize("name", ["patch_m0", "patch_g17"])
def test_continuity_rows_match_the_pointwise_oracle(name, request):
    # every row's value, bit for bit, against scalar dense calls and the
    # Richardson tables written out on floats
    patch = request.getfixturevalue(name)
    report = continuity_report(patch)
    want = continuity_values_pointwise(patch)
    assert [(r.quantity, r.side, r.order) for r in report.rows] == list(want)
    for row in report.rows:
        assert type(row.value) is float
        assert row.value.hex() == want[row.quantity, row.side, row.order].hex(), row
    failed = [(r.quantity, r.side, r.order) for r in report.rows if not r.passed]
    assert failed == ([] if name == "patch_m0" else [("g11", "interior", 2)])


def test_continuity_report_makes_no_dense_call(patch_m0, monkeypatch):
    # the interior side reads the profile's boundary stencil
    calls = 0
    evaluate = DenseSolution.__call__

    def spy(self, x):
        nonlocal calls
        calls += 1
        return evaluate(self, x)

    monkeypatch.setattr(DenseSolution, "__call__", spy)
    report = continuity_report(patch_m0)
    assert calls == 0
    assert len(report.rows) == 12
    # a profile without a stencil has no interior side
    patch = MetricPatch(replace(patch_m0.profile, stencil=None), patch_m0.bq)
    with pytest.raises(ModelError, match="boundary stencil leaves the solution span"):
        continuity_report(patch)


def test_g_components_makes_one_dense_call_per_radius(patch_m0, monkeypatch):
    calls = 0
    evaluate = DenseSolution.__call__

    def spy(self, x):
        nonlocal calls
        calls += 1
        return evaluate(self, x)

    monkeypatch.setattr(DenseSolution, "__call__", spy)
    r_p = patch_m0.bq.r_plus
    g00, g11 = patch_m0.g_components(0.5 * r_p)
    assert calls == 1
    m, u = patch_m0.profile.state_at(0.5 * r_p)
    k = patch_m0.profile.constants
    assert g00 == patch_m0.bq.kappa_plus * math.exp(-2.0 * u / k.c2)
    assert g11 == -1.0 / kappa(0.5 * r_p, m, patch_m0.profile.Lambda, k)
    calls = 0
    patch_m0.g_components(1.5 * r_p)
    assert calls == 0


def test_g11_no_jump_as_step_shrinks(patch_m0):
    # central differences of g11 across r_+ converge to the one-sided target:
    # no jump beyond discretization error
    r_p = patch_m0.bq.r_plus
    bq = patch_m0.bq
    target1 = bq.kappa_plus_prime / bq.kappa_plus**2
    errs = []
    for h in (1e-3 * r_p, 5e-4 * r_p, 2.5e-4 * r_p):
        g_hi = patch_m0.g_components(r_p + h)[1]
        g_lo = patch_m0.g_components(r_p - h)[1]
        errs.append(abs((g_hi - g_lo) / (2 * h) - target1))
    assert errs[-1] < errs[0] + 1e-12
    assert errs[-1] < 1e-4 * abs(target1)


def test_patch_requires_vacuum_termination():
    eos = EosSpec(A=1.0, gamma=1.5, c=1.0)
    rho_c = 0.1
    P_c = eos.pressure_of_density(rho_c)
    Lam = FOUR_PI * GEOM.G * (rho_c + 3 * P_c / GEOM.c2) / GEOM.c2
    L = 8 * math.pi * GEOM.G * rho_c / GEOM.c2 + Lam
    profile, outcome = solve_star(ModelInput(
        eos=eos, Lambda=Lam, constants=GEOM, rho_c=rho_c, r_max=0.9 * math.sqrt(3 / L)))
    with pytest.raises(ModelError, match="vacuum-terminated"):
        MetricPatch.from_model(profile, outcome.boundary)


def test_mtilde_c2_profile(patch_m0):
    # mtilde is continuous with a flat exterior: m(r) -> m_+ from inside, and
    # g11 outside is -1/kappa(r, m_+)
    r_p = patch_m0.bq.r_plus
    assert patch_m0.g_components(2.0 * r_p)[1] == -1.0 / kappa(2.0 * r_p, patch_m0.bq.m_plus,
                                                               patch_m0.profile.Lambda, GEOM)
    assert patch_m0.profile.state_at(r_p * (1 - 1e-10))[0] == pytest.approx(patch_m0.bq.m_plus, rel=1e-12)
