"""Right-hand sides and germs against independent oracles."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tovds import model
from tovds.constants import SI, Constants
from tovds.eos import EosSpec, FermiEosParams, OmegaSeries, fermi_fit_eos
from tovds.errors import KappaNonPositiveError
from tovds.integrate import EventSpec, StepControl, integrate_adaptive
from tovds.odecore import (
    ScalingParams,
    center_germ_scaled,
    dkappa_dr,
    kappa,
    kappa_scaled,
    q_factor,
    rhs_scaled,
    rhs_tovds_enthalpy,
    scaled_rhs,
)

from oracles import (
    called_rhs,
    center_germ_enthalpy,
    center_germ_physical,
    guard_of,
    rhs_lane_emden,
    rhs_scaled_c,
    rhs_scaled_reference,
    rhs_scaled_u_form,
    rhs_tov,
    rhs_tovds_pressure,
    scale_state,
    sinc_d2,
)

GEOM = Constants(1.0, 1.0)


def in_units(rhs, s):
    """The right-hand side of the same system in the state z = y / s, whose
    absolute tolerance then acts on each component y_i in units of s_i."""
    return called_rhs(lambda x, z: np.asarray(rhs(x, z * s)) / s, len(s))


@pytest.fixture(scope="module")
def eos15():
    return EosSpec(A=1.0, gamma=1.5, c=1.0)


def test_einstein_static_rhs_is_zero(eos15):
    rho_c = 0.1
    P_c = eos15.pressure_of_density(rho_c)
    Lam = 4 * math.pi * GEOM.G * (rho_c + 3 * P_c / GEOM.c2) / GEOM.c2
    for r in (0.01, 0.1, 0.3):
        m = 4 * math.pi * rho_c * r**3 / 3.0
        dm, dP = rhs_tovds_pressure(r, (m, P_c), Lam, eos15, GEOM)
        assert dm == pytest.approx(4 * math.pi * r * r * rho_c, rel=1e-12)
        # scale of the two cancelling Q terms
        scale = GEOM.G * (m + 4 * math.pi * r**3 * P_c / GEOM.c2)
        assert abs(dP) < 1e-12 * scale / (r * r)


def test_rhs_pressure_generic_point_sympy_oracle(eos15):
    sympy = pytest.importorskip("sympy")
    r_, m_, rho_, Lam_ = [sympy.Rational(x) for x in ("1/10", "1/2500", "3/10", "1/1000")]
    P_ = rho_ ** sympy.Rational(3, 2)
    Q_ = (m_ + 4 * sympy.pi * r_**3 * P_) - Lam_ / 3 * r_**3
    kap_ = 1 - 2 * m_ / r_ - Lam_ / 3 * r_**2
    dP_exact = float((-(rho_ + P_) * Q_ / (r_**2 * kap_)).evalf(30))
    dm_exact = float((4 * sympy.pi * r_**2 * rho_).evalf(30))
    dm, dP = rhs_tovds_pressure(0.1, (1.0 / 2500.0, 0.3**1.5), 1e-3, eos15, GEOM)
    assert dm == pytest.approx(dm_exact, rel=1e-12)
    assert dP == pytest.approx(dP_exact, rel=1e-12)


def test_chain_rule_pressure_vs_enthalpy(eos15):
    # (du/dr) (rho + P/c^2) = dP/dr at the same (r, m)
    r, m = 0.1, 4e-4
    for rho in (0.05, 0.3):
        u = eos15.u_of_density(rho)
        P = eos15.pressure_of_u(u)
        rho_u = eos15.density_of_u(u)
        _, du = rhs_tovds_enthalpy(r, (m, u), 1e-3, eos15, GEOM)
        _, dP = rhs_tovds_pressure(r, (m, P), 1e-3, eos15, GEOM)
        assert du * (rho_u + P / GEOM.c2) == pytest.approx(dP, rel=1e-10)


def test_negative_u_gives_zero_mass_growth(eos15):
    dm, du = rhs_tovds_enthalpy(1.0, (0.1, -0.01), 0.0, eos15, GEOM)
    assert dm == 0.0
    assert du == pytest.approx(-0.1 / (1.0 - 0.2), rel=1e-12)


def test_rhs_c1_across_u_zero(eos15):
    # one-sided derivatives of the RHS with respect to u agree at u = 0
    r, m = 0.5, 1e-3
    eps = 1e-7
    f0 = np.asarray(rhs_tovds_enthalpy(r, (m, 0.0), 1e-3, eos15, GEOM))
    fp = np.asarray(rhs_tovds_enthalpy(r, (m, eps), 1e-3, eos15, GEOM))
    fm = np.asarray(rhs_tovds_enthalpy(r, (m, -eps), 1e-3, eos15, GEOM))
    right = (fp - f0) / eps
    left = (f0 - fm) / eps
    assert np.all(np.abs(right - left) < 1e-6)


def test_kappa_guard(eos15):
    with pytest.raises(KappaNonPositiveError):
        rhs_tovds_enthalpy(1.0, (0.5, 0.1), 0.0, eos15, GEOM)


def test_rhs_tov_equals_lambda0_bitwise(eos15):
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = float(rng.uniform(0.05, 2.0))
        m = float(rng.uniform(0.0, 0.01))
        u = float(rng.uniform(-0.05, 0.5))
        a = rhs_tov(r, (m, u), eos15, GEOM)
        b = rhs_tovds_enthalpy(r, (m, u), 0.0, eos15, GEOM)
        assert np.array_equal(a, b)


def test_q_positive_where_m_positive_lambda0(eos15):
    for m in (1e-6, 1e-2):
        for r in (0.1, 1.0):
            assert q_factor(r, m, eos15.pressure_of_u(0.01), 0.0, GEOM) > 0.0


def test_scaled_reduces_to_lane_emden_bitwise(eos15):
    rng = np.random.default_rng(5)
    for _ in range(20):
        R = float(rng.uniform(0.05, 5.0))
        M = float(rng.uniform(0.0, 2.0))
        U = float(rng.uniform(-0.5, 1.0))
        a = rhs_scaled(R, (M, U), 0.0, 0.0, eos15)
        b = rhs_lane_emden(R, (M, U), eos15.mu, 0.0)
        assert np.array_equal(a, b)


SCALED_EOS = {
    "polytrope": EosSpec(A=1.0, gamma=1.5, c=1.0),
    "series": EosSpec(A=1.0, gamma=1.5, c=1.0, omega=OmegaSeries((1.0, 0.3, -0.1)), eta_max=2.0),
    "fermi": fermi_fit_eos(FermiEosParams(K=1.0)),
}


def _outcome(f, *args):
    """The slopes' bits, or the type and message of what f raised."""
    try:
        return np.asarray(f(*args), dtype=float).tobytes()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    eos=st.sampled_from(sorted(SCALED_EOS)),
    alpha=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)),
    beta=st.one_of(st.just(0.0), st.floats(1e-4, 5.0)),
    R=st.floats(1e-6, 4.0),
    M=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),  # M = beta = 0 isolates the pressure term
    U=st.floats(-0.5, 1.0),
)
def test_scaled_rhs_matches_reference_bitwise(eos, alpha, beta, R, M, U):
    # bound constants give the same bits as forming them at every call,
    # at alpha = 0, for U < 0, and in the error raised where kappa <= 0
    eos = SCALED_EOS[eos]
    want = _outcome(rhs_scaled_reference, R, [M, U], alpha, beta, eos)
    assert _outcome(scaled_rhs(alpha, beta, eos), R, [M, U]) == want
    assert _outcome(rhs_scaled, R, [M, U], alpha, beta, eos) == want


def test_scaled_rhs_matches_reference_on_random_points():
    # a last-ulp change in a bound constant seldom survives to the slopes,
    # so check many points, with M = beta = 0 at half of them
    rng = np.random.default_rng(11)
    for eos in SCALED_EOS.values():
        for k in range(1000):
            alpha, R, U = rng.uniform(1e-4, 0.5), rng.uniform(1e-3, 2.0), rng.uniform(-0.2, 1.0)
            beta, M = (0.0, 0.0) if k % 2 else (rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5))
            want = _outcome(rhs_scaled_reference, R, [M, U], alpha, beta, eos)
            assert _outcome(scaled_rhs(alpha, beta, eos), R, [M, U]) == want


def _assert_near_u_form(eos, alpha, beta, R, M, X):
    """scaled_rhs at (M, X), X = eos.state_var, against the stage in (M, U)
    and the powers of U#.  For Omega == 1, X = U: dM within 4e-15 relative,
    dU within 4e-15 of the sum of the moduli of its terms.  For a series
    Omega, X = Z and U = Z Omega_u(zeta), zeta = k alpha Z#, with Omega_u in
    closed form: dM and w dZ = dU within 1e-13 so."""
    dM, dX = scaled_rhs(alpha, beta, eos)(R, [M, X])
    p_alpha = (eos.gamma - 1.0) / eos.gamma * alpha
    U, w, bound = X, 1.0, 4e-15
    if eos.state_var == "Z":
        zeta, bound = p_alpha * max(X, 0.0), 1e-13
        if zeta >= sys.float_info.min:
            U, w = X * eos.omega_u(zeta), eos._w(zeta)
    dM_u, dU_u = rhs_scaled_u_form(R, [M, U], alpha, beta, eos)
    assert abs(dM - dM_u) <= bound * abs(dM_u)
    U_pos = max(U, 0.0)
    omega_P = eos.omega_rho_P_fast(alpha * U_pos)[1]
    p_term = U_pos ** (eos.mu + 1.0) * omega_P
    scale = (abs(M) + p_alpha * R**3 * p_term + beta * R**3 / 3.0) / (
        R * R * kappa_scaled(R, M, alpha, beta))
    assert abs(w * dX - dU_u) <= bound * scale


def test_scaled_rhs_is_near_the_u_form():
    # U#^mu Omega_rho = Z^mu and U#^(mu+1) Omega_P = Z^(mu+1) Omega,
    # Z = U# / Omega_u, change the stage's rounding only, in U for Omega == 1
    # and in the state Z for a series Omega, against its direct path
    rng = np.random.default_rng(17)
    for eos in SCALED_EOS.values():
        for _ in range(5000):
            alpha, beta = rng.uniform(1e-4, 1.0), rng.uniform(0.0, 1.0)
            R, M, U = rng.uniform(1e-3, 2.0), rng.uniform(0.0, 0.5), rng.uniform(-0.2, 1.5)
            if kappa_scaled(R, M, alpha, beta) > 0.0:
                _assert_near_u_form(eos, alpha, beta, R, M, U)


@pytest.mark.parametrize("alpha", [1e-320, 1e-310, 2.2e-308])
def test_scaled_rhs_at_a_subnormal_alpha(alpha):
    # k alpha U# is subnormal, and expm1(x) / x is 1.0 exactly there: dividing
    # by k alpha instead would be off by up to 14%
    rng = np.random.default_rng(19)
    for eos in SCALED_EOS.values():
        for _ in range(200):
            R, M, U = rng.uniform(1e-3, 2.0), rng.uniform(0.0, 0.5), rng.uniform(-0.2, 1.5)
            _assert_near_u_form(eos, alpha, rng.uniform(0.0, 1.0), R, M, U)


# one gamma, so that only Omega differs; the Fermi fit's Omega meets no domain
# edge on [0, eta_max], the series' one near eta = 4.228
PAST_VACUUM_EOS = (
    EosSpec(A=0.2, gamma=5.0 / 3.0),
    EosSpec(A=0.2, gamma=5.0 / 3.0, omega=OmegaSeries((1.0, 0.3, -0.1))),
    fermi_fit_eos(FermiEosParams(K=1.0)),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    alpha=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
    beta=st.one_of(st.just(0.0), st.floats(1e-4, 5.0)),
    R=st.floats(1e-6, 50.0),
    M=st.floats(0.0, 3.0),
    U=st.one_of(st.just(0.0), st.just(-0.0), st.floats(-2.0, 0.0)),
)
@example(alpha=1.0, beta=0.0, R=1.0, M=0.1, U=-0.1)
@example(alpha=0.5, beta=1e-3, R=20.0, M=2.0, U=-1.5)
def test_scaled_rhs_past_the_vacuum_does_not_ask_the_eos(alpha, beta, R, M, U):
    # at U <= 0 Omega enters only times U#^mu = 0 and eta = alpha U# = 0, so
    # every Omega gives the bits of the vacuum slopes and none raises
    assume(kappa_scaled(R, M, alpha, beta) > 0.0)
    R3 = R * R * R
    Rkap = R - 2.0 * alpha * M - alpha * beta / 3.0 * R3
    vacuum = (0.0, -(M - R3 * (beta / 3.0)) / (R * Rkap))
    for eos in PAST_VACUUM_EOS:
        assert scaled_rhs(alpha, beta, eos)(R, [M, U]) == vacuum


def test_scaled_rhs_kappa_nonpositive_raises(eos15):
    f = scaled_rhs(0.4, 0.3, eos15)
    # kappa = 1 - 0.8 M / R - 0.04 R^2 at R = 1 is -0.04 for M = 1.25
    for M in (1.25, 2.0):
        with pytest.raises(KappaNonPositiveError, match="horizon contact") as got:
            f(1.0, [M, 0.5])
        with pytest.raises(KappaNonPositiveError) as want:
            rhs_scaled_reference(1.0, [M, 0.5], 0.4, 0.3, eos15)
        assert str(got.value) == str(want.value)


def test_stage_kappa_test_and_horizon_guard_are_kappa_scaled(eos15):
    # the stage's kappa test, the horizon guard written into the step loop
    # and kappa_scaled share their bits: the stage raises exactly where
    # kappa_scaled <= 0 and reports its value, and the guard is
    # kappa_scaled - kappa_min, at random points and a few ulps either side
    # of the M where kappa = 0
    rng = np.random.default_rng(23)
    points = []
    for _ in range(300):
        alpha, beta, R = rng.uniform(1e-4, 1.0), rng.uniform(0.0, 2.0), rng.uniform(1e-3, 3.0)
        points.append((alpha, beta, R, rng.uniform(0.0, 2.0), False))
        M0 = (R - alpha * beta / 3.0 * R**3) / (2.0 * alpha)
        if M0 > 0.0:
            points += [(alpha, beta, R, M0 + k * math.ulp(M0), True) for k in range(-3, 4)]
    signs = set()
    for alpha, beta, R, M, straddles in points:
        f = scaled_rhs(alpha, beta, eos15)
        kap = kappa_scaled(R, M, alpha, beta)
        if straddles:
            signs.add(kap > 0.0)
        want = (kap - 1e-10).hex()
        names = {**f.values, "R": R, "M": M, "U": 0.5}
        assert eval(model._HORIZON, names).hex() == kap.hex()
        horizon = f"{model._HORIZON} - {model._KAPPA_MIN!r}"  # the text the loop writes in
        assert eval(horizon, names).hex() == want
        guard, _ = guard_of(f, EventSpec(horizon))
        assert guard(R, [M, 0.5]).hex() == want
        if kap <= 0.0:
            with pytest.raises(KappaNonPositiveError) as info:
                f(R, [M, 0.5])
            assert str(info.value) == f"kappa = {kap:g} <= 0 at r = {R:g} (horizon contact)"
        else:
            f(R, [M, 0.5])
    assert signs == {True, False}


def test_scaled_negative_u(eos15):
    dM, dU = rhs_scaled(2.0, (0.5, -0.1), 1e-3, 1e-3, eos15)
    assert dM == 0.0
    dM2, dU2 = rhs_lane_emden(2.0, (0.5, -0.1), 2.0, 0.5)
    assert dM2 == 0.0
    assert dU2 == pytest.approx(-(0.5 - 0.5 * 8.0 / 3.0) / 4.0, rel=1e-12)


def test_rhs_scaled_pointwise_homology(eos15):
    # rhs in scaled variables maps through the homology onto the physical rhs
    u_c = 1e-2
    Lam = 2e-7
    sp = ScalingParams.from_center(u_c, Lam, eos15, GEOM)
    for R, M, U in ((0.5, 0.04, 0.9), (2.0, 1.5, 0.3)):
        r, y = sp.unscale_state(R, (M, U))
        dm_du = rhs_tovds_enthalpy(r, y, Lam, eos15, GEOM)
        dM_dU = rhs_scaled(R, (M, U), sp.alpha, sp.beta, eos15)
        # dm/dr = (mass_scale/a) dM/dR, du/dr = (b/a) dU/dR
        assert dm_du[0] == pytest.approx(sp.mass_scale / sp.a * dM_dU[0], rel=1e-10)
        assert dm_du[1] == pytest.approx(sp.b / sp.a * dM_dU[1], rel=1e-10)


def test_homology_trajectory_consistency(eos15):
    # integrating the physical system and unscaling the scaled system agree
    u_c = 1e-2
    Lam = 2e-7
    sp = ScalingParams.from_center(u_c, Lam, eos15, GEOM)
    ctrl = StepControl(rel_tol=1e-12, abs_tol=1e-14)
    R0, R1 = 1e-6, 2.0
    y0s = np.array(center_germ_scaled(sp.alpha, sp.beta, eos15, R0))
    f = called_rhs(lambda R, y: rhs_scaled(R, y, sp.alpha, sp.beta, eos15), 2)
    sol_s = integrate_adaptive(f, y0s, (R0, R1), ctrl)
    r0, y0p = sp.unscale_state(R0, y0s)
    s = np.array([sp.mass_scale, sp.b])
    sol_p = integrate_adaptive(in_units(lambda r, y: rhs_tovds_enthalpy(r, y, Lam, eos15, GEOM), s),
                               y0p / s, (r0, sp.a * R1), ctrl)
    for R in (0.5, 1.0, 1.9):
        ys = sol_s(R)
        yp = sol_p(sp.a * R) * s
        assert yp[0] == pytest.approx(sp.mass_scale * ys[0], rel=1e-8)
        assert yp[1] == pytest.approx(sp.b * ys[1], rel=1e-8)


def test_rhs_scaled_c_limit_cases():
    eos2 = EosSpec(A=1.0, gamma=2.0, c=1.0)  # mu = 1
    lam = 0.75
    for R, M, U in ((1.0, 0.2, 0.8), (3.0, 2.0, 0.5)):
        big_c = np.asarray(rhs_scaled_c(R, (M, U), lam, 1e6, eos2))
        limit = np.asarray(rhs_lane_emden(R, (M, U), 1.0, lam))
        assert np.all(np.abs(big_c - limit) < 1e-5 * np.maximum(np.abs(limit), 1.0))
    # lam = 0 and c -> inf: classical limit
    a = np.asarray(rhs_scaled_c(1.3, (0.4, 0.6), 0.0, 1e8, eos2))
    b = np.asarray(rhs_lane_emden(1.3, (0.4, 0.6), 1.0, 0.0))
    assert np.all(np.abs(a - b) < 1e-10)
    # balance point M = lam R^3/3 makes dU/dR vanish in the limit
    R = 2.0
    M = lam * R**3 / 3.0
    assert rhs_lane_emden(R, (M, 0.5), 1.0, lam)[1] == 0.0
    assert abs(rhs_scaled_c(R, (M, 0.5), lam, 1e8, eos2)[1]) < 1e-12


def test_lane_emden_mu1_analytic_residual():
    from tovds.analysis import _sinc_jet

    # U = sin(R)/R solves the mu = 1, lam = 0 equation; with M(R) recovered
    # from dU/dR = -M/R^2 the first-order system residual vanishes.
    # Valid while U > 0 (the positive-part cutoff is inactive).
    for lam, Rs in ((0.0, (0.3, 1.0, 2.5, 3.0)), (0.75, (0.3, 1.0, 4.0, 8.0))):
        for R in Rs:
            s, s1 = _sinc_jet(R)
            s2 = sinc_d2(R)
            U = lam + (1 - lam) * s
            dU = (1 - lam) * s1
            M = lam * R**3 / 3.0 - R * R * dU
            dM_exact = lam * R * R - 2 * R * dU - R * R * (1 - lam) * s2
            out = rhs_lane_emden(R, (M, U), 1.0, lam)
            assert out[1] == pytest.approx(dU, rel=1e-12)
            assert dM_exact == pytest.approx(out[0], abs=1e-10)


# -- germs ----------------------------------------------------------------------


def test_physical_germ_small_r(eos15):
    m, P = center_germ_physical(0.1, 1e-3, eos15, GEOM, 1e-12)
    assert m == pytest.approx(0.0, abs=1e-30)
    assert P == pytest.approx(eos15.pressure_of_density(0.1), rel=1e-15)


def test_physical_germ_einstein_constant(eos15):
    rho_c = 0.1
    P_c = eos15.pressure_of_density(rho_c)
    Lam = 4 * math.pi * GEOM.G * (rho_c + 3 * P_c / GEOM.c2) / GEOM.c2
    _, P = center_germ_physical(rho_c, Lam, eos15, GEOM, 0.05)
    assert abs(P - P_c) < 1e-16 * P_c / 1e-3  # quadratic coefficient cancels


def test_scaled_germ_trivials(eos15):
    M, U = center_germ_scaled(0.0, 0.0, eos15, 0.3)
    assert M == pytest.approx(0.3**3 / 3.0, rel=1e-15)
    assert U == pytest.approx(1.0 - 0.3**2 / 6.0, rel=1e-15)
    # beta equal to the germ coefficient freezes U through O(R^4)
    alpha = 0.2
    omega_rho, omega_P = eos15.omega_rho_P_fast(alpha)
    beta = omega_rho + 3.0 * (eos15.gamma - 1.0) / eos15.gamma * alpha * omega_P
    _, U2 = center_germ_scaled(alpha, beta, eos15, 0.1)
    assert U2 == 1.0


@pytest.mark.parametrize("eos", [
    EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1))),
    fermi_fit_eos(FermiEosParams(K=1.0)),
], ids=["series", "fermi"])
def test_scaled_germ_in_z_is_the_state_of_the_u_germ(eos):
    # Z = Z_c - c2 R^2 / (6 w(zeta_c)) is the germ U = 1 - c2 R^2 / 6 in Z,
    # U = Z Omega_u(k alpha Z), through O(R^4), with M and c2 of the direct
    # path's Omega_rho and Omega_P at eta = alpha
    k = (eos.gamma - 1.0) / eos.gamma
    for alpha in (1e-3, 0.1, 0.5):
        omega_rho, omega_P = eos.omega_rho_P(alpha)
        c2 = omega_rho + 3.0 * k * alpha * omega_P
        for R in (1e-6, 1e-3, 1e-2):
            M, Z = center_germ_scaled(alpha, 0.0, eos, R)
            assert M == pytest.approx(omega_rho * R**3 / 3.0, rel=1e-14)
            U = Z * eos.omega_u(k * alpha * Z)
            assert abs(U - (1.0 - c2 * R * R / 6.0)) <= 1e-15 + R**4


def test_physical_germ_matches_integration(eos15):
    u_c = 1e-2
    Lam = 1e-8
    sp = ScalingParams.from_center(u_c, Lam, eos15, GEOM)
    r0 = 1e-6 * sp.a
    r1 = 1e-2 * sp.a
    y0 = np.array(center_germ_enthalpy(u_c, Lam, eos15, GEOM, r0))
    s = np.array([sp.mass_scale, sp.b])
    sol = integrate_adaptive(in_units(lambda r, y: rhs_tovds_enthalpy(r, y, Lam, eos15, GEOM), s),
                             y0 / s, (r0, r1), StepControl(rel_tol=1e-13, abs_tol=1e-16))
    m_end, u_end = sol.y_end * s
    m_g, u_g = center_germ_enthalpy(u_c, Lam, eos15, GEOM, r1)
    # germ truncation is O(r^4) in u and O(r^5) in m: at R = 1e-2 the defects
    # are ~1e-8 u_c absolute and ~1e-4 relative to m(R)
    assert abs(u_end - u_g) < 1e-8 * u_c
    assert abs(m_end - m_g) / m_g < 1e-4

    P_g = eos15.pressure_of_u(u_g)
    P_num = eos15.pressure_of_u(u_end)
    P_c = eos15.pressure_of_u(u_c)
    assert abs(P_num - P_g) / P_c < 1e-8


def test_scaled_germ_matches_integration(eos15):
    alpha, beta = 0.3, 0.1
    R0, R1 = 1e-6, 1e-2
    y0 = np.array(center_germ_scaled(alpha, beta, eos15, R0))
    sol = integrate_adaptive(called_rhs(lambda R, y: rhs_scaled(R, y, alpha, beta, eos15), 2),
                             y0, (R0, R1), StepControl(rel_tol=1e-13, abs_tol=1e-16))
    _, U_g = center_germ_scaled(alpha, beta, eos15, R1)
    assert abs(sol.y_end[1] - U_g) < 1e-9


def test_scaling_params_invariants(eos15):
    for u_c, Lam in ((1e-3, 0.0), (0.5, 1e-6)):
        sp = ScalingParams.from_center(u_c, Lam, eos15, GEOM)
        unit = 4 * math.pi * GEOM.G * eos15.A1 * sp.a**2 * sp.b ** ((2 - eos15.gamma) / (eos15.gamma - 1))
        assert unit == pytest.approx(1.0, rel=1e-12)
        assert sp.alpha == u_c / GEOM.c2
        lam = GEOM.c2 * Lam / (4 * math.pi * GEOM.G * eos15.A1)
        assert sp.beta * sp.b**eos15.mu == pytest.approx(lam, rel=1e-12)
        r, y = sp.unscale_state(1.2, (0.3, 0.7))
        R, ys = scale_state(sp, r, y)
        assert R == pytest.approx(1.2, rel=1e-14)
        assert np.allclose(ys, (0.3, 0.7), rtol=1e-14)


def test_kappa_q_definitions():
    k = Constants(2.0, 3.0)
    r, m, P, Lam = 1.5, 0.2, 0.05, 0.01
    assert kappa(r, m, Lam, k) == pytest.approx(
        1 - 2 * 3.0 * m / (4.0 * r) - Lam * r**2 / 3, rel=1e-15)
    assert q_factor(r, m, P, Lam, k) == pytest.approx(
        3.0 * (m + 4 * math.pi * r**3 * P / 4.0) - 4.0 * Lam * r**3 / 3, rel=1e-15)


@pytest.mark.parametrize("k", [GEOM, SI], ids=["geom", "si"])
@given(r=st.floats(1e-2, 1e2), compactness=st.floats(1e-6, 0.4), lambda_r2=st.floats(1e-6, 0.5))
@settings(derandomize=True, deadline=None, max_examples=100)
def test_dkappa_dr_is_the_r_derivative_of_kappa(k, r, compactness, lambda_r2):
    # 2Gm/(c^2 r) = compactness and Lambda r^2 = lambda_r2 at r, both well
    # above the 40-digit rounding of kappa ~ 1; the tolerance is relative to
    # the two terms, which cancel where dkappa/dr crosses 0
    m = compactness * k.c2 * r / (2.0 * k.G)
    Lam = lambda_r2 / (r * r)
    with mpmath.workdps(40):
        want = float(mpmath.diff(lambda x: kappa(x, m, Lam, k), mpmath.mpf(r)))
    scale = 2.0 * k.G * m / (k.c2 * r * r) + 2.0 * Lam * r / 3.0
    assert abs(dkappa_dr(r, m, Lam, k) - want) <= 1e-14 * scale
