"""Equation-of-state transforms against closed-form and quadrature oracles."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

from tovds.eos import (
    EosSpec,
    FermiEosParams,
    OmegaSeries,
    _fermi_density_dimless,
    _fermi_pressure_dimless,
    fermi_eos,
    fermi_fit_eos,
)
from tovds.errors import EosDomainError, NonPhysicalEosError

from oracles import (
    closed_form_omegas_mpmath,
    closed_form_state_mpmath,
    density_of_pressure,
    omega_rho_P_fast_reference,
    omega_series_numpy,
    omega_u_mpmath,
    terms_reference,
    thermo_of_density,
    validate_range_reference,
    zeta_of_eta_reference,
)

FERMI_COEFFS = fermi_fit_eos(FermiEosParams(K=1.0)).omega.coeffs


@pytest.fixture(scope="module")
def eos15():
    # c = 1 keeps the classic geometrized numbers; transforms do not require
    # causality, which for this instance fails above rho = (2/3)^2
    return EosSpec(A=1.0, gamma=1.5, c=1.0)


def test_pure_polytrope_pressure():
    eos = EosSpec(A=1.0, gamma=1.5, c=10.0)
    assert eos.pressure_of_density(4.0) == pytest.approx(8.0, rel=1e-14)


def test_pressure_vanishes_at_low_density():
    eos = EosSpec(A=1.0, gamma=1.5, c=10.0)
    assert eos.pressure_of_density(0.0) == 0.0
    assert 0.0 < eos.pressure_of_density(1e-20) < 1e-29


def test_dpdrho_matches_finite_difference():
    eos = EosSpec(A=2.3, gamma=1.4, c=10.0)
    for rho in (1e-3, 0.1, 1.0):
        h = 1e-6 * rho
        fd = (eos.pressure_of_density(rho + h) - eos.pressure_of_density(rho - h)) / (2 * h)
        assert eos._dpdrho_raw(rho) == pytest.approx(fd, rel=1e-8)


def test_pure_polytrope_is_the_one_term_series():
    # the default Omega is OmegaSeries((1.0,)): Horner returns exactly 1 and 0,
    # and only that series takes the closed form in U instead of the state Z
    one = OmegaSeries((1.0,))
    assert EosSpec(A=1.0, gamma=1.5).omega == one
    for z in (0.0, -0.0, 1e-300, -0.05, 0.3, 7.5):
        assert one.value(z) == 1.0
        assert one.deriv(z) == 0.0
    assert EosSpec(A=1.0, gamma=1.5).state_var == "U"
    assert EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.0))).state_var == "Z"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    tail=st.lists(st.floats(-2.0, 2.0), max_size=3),
    gamma=st.floats(1.05, 2.0),
    A=st.floats(0.1, 3.0),
    c=st.sampled_from([1.0, 3.0]),
    log_hi=st.floats(-3.0, 1.0),
)
def test_validate_range_is_the_per_density_check(tail, gamma, A, c, log_hi):
    # one array pass passes or fails as the per-density loop does, at the
    # same first density and with the same message
    eos = EosSpec(A=A, gamma=gamma, omega=OmegaSeries((1.0, *tail)), c=c)
    hi = 10.0**log_hi
    outcomes = []
    for check in (eos.validate_range, partial(validate_range_reference, eos)):
        try:
            check(1e-6 * hi, hi)
            outcomes.append(None)
        except NonPhysicalEosError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_causality_violation_raises():
    eos = EosSpec(A=1.0, gamma=1.5, c=1.0)
    # dP/drho = 1.5 sqrt(rho) exceeds c^2 = 1 for rho > 4/9
    with pytest.raises(NonPhysicalEosError):
        eos.pressure_of_density(4.0)
    eos.validate_range(1e-4, 0.4)
    with pytest.raises(NonPhysicalEosError):
        eos.validate_range(1e-4, 1.0)


def test_overflowing_density_is_not_admissible():
    # rho**gamma overflows the float range: a typed error that names rho
    eos = EosSpec(A=1.0, gamma=2.0)
    with pytest.raises(NonPhysicalEosError, match=r"rho = 1e\+200: P or dP/drho overflows"):
        eos.pressure_of_density(1e200)
    with pytest.raises(NonPhysicalEosError, match=r"rho = 1e\+194: P or dP/drho overflows"):
        eos.validate_range(1e194, 1e200)


@pytest.mark.parametrize("eos", [
    EosSpec(A=1.0, gamma=1.5),
    EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1))),
    fermi_fit_eos(FermiEosParams(K=1.0)),
], ids=["polytrope", "series", "fermi_fit"])
def test_direct_path_refuses_negative_arguments(eos):
    # the EOS lives on finite zeta, eta >= 0; each refusal names the value
    for x in (-5e-324, -1e-9, -0.05, -0.2, math.nan, math.inf):
        for method in (eos.omega_u, eos.zeta_of_eta, eos.omega_rho_P):
            with pytest.raises(EosDomainError, match=f"= {x!r}: the EOS is defined for"):
                method(x)
    assert eos.omega_u(0.0) == 1.0 and eos.zeta_of_eta(0.0) == 0.0
    assert eos.omega_rho_P(0.0) == (1.0, 1.0)


def test_omega_series_normalization():
    with pytest.raises(NonPhysicalEosError):
        OmegaSeries((0.9, 1.0))
    om = OmegaSeries((1.0, -0.5, 0.25))
    assert om.value(0.0) == 1.0
    assert om.deriv(0.0) == -0.5


@pytest.mark.parametrize("coeffs", [(math.nan,), (1.0, math.nan), (1.0, math.inf)],
                         ids=["nan_constant", "nan", "inf"])
def test_omega_series_rejects_non_finite_coefficients(coeffs):
    with pytest.raises(NonPhysicalEosError, match="finite"):
        OmegaSeries(coeffs)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    tail=st.lists(st.floats(-1e3, 1e3), max_size=11),
    zeta=st.floats(-0.1, 10.0),
)
@example(tail=list(FERMI_COEFFS[1:]), zeta=-0.05)
@example(tail=list(FERMI_COEFFS[1:]), zeta=0.3)
@example(tail=list(FERMI_COEFFS[1:]), zeta=10.0)
@example(tail=[], zeta=-0.1)
@example(tail=[-0.5], zeta=-0.1)
def test_omega_series_bitwise_equals_numpy_polynomial(tail, zeta):
    coeffs = (1.0, *tail)
    om = OmegaSeries(coeffs)
    for order, got in enumerate((om.value(zeta), om.deriv(zeta))):
        want = omega_series_numpy(coeffs, zeta, order)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _series(*coeffs):
    return EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries(coeffs))


@pytest.mark.parametrize("eos", [
    EosSpec(A=1.0, gamma=1.5),
    _series(1.0, 0.3, -0.1),
    _series(1.0, 1.0, -2.0),
    _series(1.0, -0.5),
    # 1 + zeta Omega = (1 + zeta/2)^2 has a double root at zeta = -2 (nearly
    # double in the next two): a closed form for Omega_u that assumes simple
    # roots of 1 + zeta Omega goes wrong here
    _series(1.0, 0.25),
    _series(1.0, 0.25 - 1e-13),
    _series(1.0, 0.25 + 1e-13),
    fermi_fit_eos(FermiEosParams(K=1.0)),
    fermi_fit_eos(FermiEosParams(K=0.5)),
    fermi_fit_eos(FermiEosParams(K=2.0)),
], ids=["polytrope", "series", "cubic", "linear", "double_root", "near_double_root",
        "near_double_root_above", "fermi_fit", "fermi_fit_K0.5", "fermi_fit_K2"])
def test_omega_u_matches_mpmath_quadrature(eos):
    # the closed form within 5e-15 of mpmath from zeta = 1e-12 up to 3, or up
    # to 0.9 of the least positive root r0 of 1 + zeta Omega, where the EOS
    # domain ends; unpolished roots of the degree-11 Fermi fits read 1e-13
    d = [1.0, *eos.omega.coeffs]
    ends = [r.real for r in np.roots(d[::-1]).tolist() if r.imag == 0.0 and r.real > 0.0]
    r0 = min(ends, default=math.inf)
    for zeta in np.geomspace(1e-12, min(3.0, 0.9 * r0), 13).tolist():
        want = omega_u_mpmath(eos, zeta, dps=40)
        assert abs(eos.omega_u(zeta) - want) <= 5e-15 * abs(want), zeta
    with pytest.raises(EosDomainError, match="zeta = -0.09"):
        eos.omega_u(-0.09)
    if r0 < math.inf:
        assert eos._fractions[0] == pytest.approx(r0, rel=1e-14, abs=0.0)
        for zeta in (eos._fractions[0], 1.5 * r0):
            with pytest.raises(EosDomainError, match=f"^zeta = {zeta!r}: the EOS domain ends at "
                                                     f"zeta = {eos._fractions[0]!r}, where"):
                eos.omega_u(zeta)
    else:
        assert eos._fractions[0] == math.inf


@pytest.mark.parametrize("offset, refused", [(0.0, True), (1e-8, True), (1e-6, False)])
def test_omega_u_refuses_a_triple_root(offset, refused):
    # 1 + zeta Omega = (1 + zeta/3)^3 + offset zeta^3: np.roots splits a triple
    # root by about 1e-5, and the partial fractions, which sum to 1 at zeta = 0,
    # miss by 2e3 at offset 0, 9e-10 at 1e-8 and 1e-11 at 1e-6; Omega_u misses
    # by about as much, so the first two are refused at the first Omega_u need
    eos = _series(1.0, 1.0 / 3.0, 1.0 / 27.0 + offset)
    if refused:
        with pytest.raises(NonPhysicalEosError, match="roots too close together"):
            eos.omega_u(0.5)
    else:
        assert eos.omega_u(0.5) == pytest.approx(omega_u_mpmath(eos, 0.5, dps=40), rel=1e-10)


@pytest.mark.parametrize("omega", [OmegaSeries((1.0,)), OmegaSeries((1.0, 0.3, -0.1)),
                                   OmegaSeries((1.0, -2.0))])
def test_w_float_and_array_paths_agree(omega):
    # the Newton slope _w on a float has the bits of the integrand formed from
    # Omega's Horner on an array; for Omega = 1 - 2 zeta, 1 + zeta Omega =
    # (1 - zeta)(1 + 2 zeta) ends the domain at zeta = 1, where Omega_u refuses
    eos = EosSpec(A=1.0, gamma=1.5, omega=omega)
    zs = np.array([0.0, 1e-3, 0.25, 0.5, 0.75])
    om = omega.value(zs)
    on_array = (om + (eos.gamma - 1.0) / eos.gamma * zs * omega.deriv(zs)) / (1.0 + zs * om)
    for z, w in zip(zs.tolist(), on_array.tolist()):
        on_float = eos._w(z)
        assert type(on_float) is float
        assert np.float64(on_float).tobytes() == np.float64(w).tobytes()
    if omega.value(1.0) == -1.0:
        assert eos._fractions[0] == 1.0
        for z in (1.0, 1.5):
            with pytest.raises(EosDomainError, match=f"^zeta = {z!r}: the EOS domain ends at zeta = 1.0,"):
                eos.omega_u(z)
        assert eos.omega_u(0.999) < 0.0


def test_omega_u_closed_form(eos15):
    # Omega == 1: Omega_u(z) = log(1+z)/z
    assert eos15.omega_u(0.0) == 1.0
    assert eos15.omega_u(1.0) == pytest.approx(math.log(2.0), rel=1e-12)
    assert eos15.omega_u(3.0) == pytest.approx(math.log(4.0) / 3.0, rel=1e-12)


def test_omega_u_series_matches_quadrature_branch(eos15):
    # either side of zeta = 1e-6 the closed form is log1p(z) / z
    for z in (9.9e-7, 1.01e-6):
        assert eos15.omega_u(z) == pytest.approx(math.log1p(z) / z, rel=1e-12)


def test_u_of_density_closed_form_and_quadrature(eos15):
    g, A, c2 = eos15.gamma, eos15.A, eos15.c2

    for rho in (1e-3, 0.3, 1.0, 1e3):
        closed = g / (g - 1.0) * c2 * math.log1p(A * rho ** (g - 1.0) / c2)
        assert eos15.u_of_density(rho) == pytest.approx(closed, rel=1e-8)

    def integrand(rp):
        return eos15._dpdrho_raw(rp) / (rp + eos15._pressure_raw(rp) / c2)

    for rho in (0.3, 1.0):
        quad = sp_integrate.quad(integrand, 0.0, rho, epsabs=1e-14, epsrel=1e-12)[0]
        assert eos15.u_of_density(rho) == pytest.approx(quad, rel=1e-8)


def test_u_trivial_values(eos15):
    assert eos15.u_of_density(0.0) == 0.0
    # nonrelativistic limit: u -> gamma A/(gamma-1) rho^(gamma-1)
    eos_big_c = EosSpec(A=1.0, gamma=1.5, c=1e8)
    rho = 2.0
    newtonian = 1.5 / 0.5 * rho**0.5
    assert eos_big_c.u_of_density(rho) == pytest.approx(newtonian, rel=1e-12)


def test_u_strictly_increasing(eos15):
    rhos = np.geomspace(1e-4, 10.0, 40)
    us = [eos15.u_of_density(float(r)) for r in rhos]
    assert all(u2 > u1 for u1, u2 in zip(us, us[1:]))


def test_omega_rho_P_normalization(eos15):
    assert eos15.omega_rho_P(0.0) == (1.0, 1.0)


@pytest.mark.parametrize("gamma", [1.3, 1.5, 2.0])
def test_tiny_eta_gives_the_eta0_limit(gamma):
    # where k eta rounds to 0 the closed form takes its eta = 0 value instead of
    # dividing by zero; the direct path converges to zeta, not to a bisection
    # midpoint, however far below 1 zeta lies
    eos = EosSpec(A=1.0, gamma=gamma)
    for eta in (5e-324, 1e-320, 1e-300, 1e-40):
        assert eos.omega_rho_P_fast(eta) == (1.0, 1.0)
    for eta in (1e-300, 1e-40):
        assert eos.omega_rho_P(eta) == pytest.approx((1.0, 1.0), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("eos", [
    EosSpec(A=1.0, gamma=1.5),
    EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1))),
    fermi_fit_eos(FermiEosParams(K=1.0)),
], ids=["polytrope", "series", "fermi"])
def test_subnormal_eta_in_the_direct_path(eos):
    # at a subnormal eta the start point eta (gamma-1)/gamma rounds to 0,
    # which is then the correctly rounded zeta, and Omega_u(zeta) rounds to 1
    # wherever zeta is subnormal, as the ratio k eta / zeta of two subnormals
    # does not
    assert eos.zeta_of_eta(5e-324) == 0.0
    for eta in (5e-324, 1e-320, 1e-310, 2.2e-308):
        assert eos.omega_rho_P(eta) == (1.0, 1.0)


def test_zeta_eta_analytic_inversion(eos15):
    # Omega == 1, gamma = 3/2: eta = 3 log(1+zeta)  =>  zeta = e^(eta/3) - 1
    g = eos15.gamma
    for eta in (1e-8, 1e-3, 0.3, 1.0, 5.0):
        zeta_exact = math.expm1(eta * (g - 1.0) / g)
        assert eos15.zeta_of_eta(eta) == pytest.approx(zeta_exact, rel=1e-10)
        omu = (g - 1.0) / g * eta / zeta_exact
        omega_rho_exact = omu ** (-eos15.mu)
        assert eos15.omega_rho_P(eta)[0] == pytest.approx(omega_rho_exact, rel=1e-10)
    # the closed form continues below 0, but the EOS does not
    for method in (eos15.zeta_of_eta, eos15.omega_rho_P):
        with pytest.raises(EosDomainError, match="eta = -0.05"):
            method(-0.05)


# three series Omega, the Fermi fit's among them
SERIES_EOS = [
    EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1)), eta_max=2.0),
    fermi_fit_eos(FermiEosParams(K=1.0)),
    EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, -0.8, 0.3)), eta_max=4.0),
]


@pytest.mark.parametrize("eos", SERIES_EOS + [EosSpec(A=1.0, gamma=1.3)],
                         ids=["series", "fermi_fit", "series_eta_max_4", "polytrope"])
def test_zeta_of_eta_is_the_scalar_search(eos):
    # each eta takes the reference search's steps
    etas = [5e-324, 1e-320, 1e-300, 1e-40, 1e-9] + np.geomspace(1e-6, 4.0, 40).tolist()
    want = [zeta_of_eta_reference(eos, eta) for eta in etas]
    assert [eos.zeta_of_eta(eta) for eta in etas] == want


def test_round_trip_density(eos15):
    for rho in [1e-3, 1.0, 1e3] + list(np.logspace(-3, 3, 13)):
        u = eos15.u_of_density(float(rho))
        assert eos15.density_of_u(u) == pytest.approx(float(rho), rel=1e-8)


def test_thermo_state_round_trip(eos15):
    g = eos15.gamma
    st = thermo_of_density(eos15, 0.7)
    # eta = gamma/(gamma-1) zeta Omega_u(zeta) and the inverse map agree
    assert st.eta == pytest.approx(g / (g - 1.0) * st.zeta * eos15.omega_u(st.zeta), rel=1e-10)
    assert eos15.zeta_of_eta(st.eta) == pytest.approx(st.zeta, rel=1e-10)
    # rho = A1 u^mu Omega_rho(eta)
    omega_rho, omega_P = eos15.omega_rho_P(st.eta)
    assert eos15.A1 * st.u**eos15.mu * omega_rho == pytest.approx(st.rho, rel=1e-10)
    assert eos15.p_coeff * st.u ** (eos15.mu + 1.0) * omega_P == pytest.approx(st.P, rel=1e-10)


def test_fast_pieces_independent_of_access_order():
    # there are no pieces since a series Omega solves in Z: per EOS, the
    # germ's path of two fresh instances, one forward per point and one
    # backward through one bound evaluator, keeps the bits of the per-point
    # reference, for a series Omega the direct path, and below eta = 0 both
    # refuse
    for make, hi in (
        (lambda: EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, -0.8, 0.3)), eta_max=4.0), 4.5),
        (lambda: fermi_fit_eos(FermiEosParams(K=1.0)), 0.78),
        (lambda: EosSpec(A=1.0, gamma=1.5), 12.0),
    ):
        forward, backward = make(), make()
        etas = [0.0, hi] + [float(e) for e in np.random.default_rng(11).uniform(0.0, hi, 398)]
        fwd = [forward.omega_rho_P_fast(e) for e in etas]
        fast = backward.fast_omega()
        bwd = [fast(e) for e in reversed(etas)][::-1]
        assert fwd == bwd == [omega_rho_P_fast_reference(forward, e) for e in etas]
        if forward.state_var == "Z":
            assert fwd == [forward.omega_rho_P(e) for e in etas]
        for evaluate in (forward.omega_rho_P_fast, fast):
            with pytest.raises(EosDomainError, match="eta = -0.01"):
                evaluate(-0.01)


@pytest.mark.parametrize("eos", [
    EosSpec(A=1.0, gamma=1.5),
    EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1))),
], ids=["polytrope", "series"])
def test_fast_path_refuses_a_bad_eta_by_name(eos):
    # the germ tests eta once, as the direct path does, which is a series
    # Omega's germ path
    for eta in (-1.0, -1e-9, -5e-324, math.nan, math.inf, -math.inf):
        for fast in (eos.omega_rho_P_fast, eos.fast_omega()):
            with pytest.raises(EosDomainError, match=f"^eta = {eta!r}: the EOS is defined for "
                                                     "finite eta >= 0 only$"):
                fast(eta)
    assert eos.omega_rho_P_fast(-0.0) == (1.0, 1.0)


def test_fast_piece_past_the_domain_edge_uses_direct_path():
    # dP/drho of this Omega reaches 0 at zeta = 3.93, where eta peaks near
    # 4.228: the germ's path is the direct path up to there, and refuses
    # past it; in the state Z the terms refuse a zeta past that edge by name
    eos = EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1)))
    assert eos.omega_rho_P_fast(4.207) == eos.omega_rho_P(4.207)
    assert eos.omega_rho_P_fast(4.2) == eos.omega_rho_P(4.2)
    with pytest.raises(EosDomainError):
        eos.omega_rho_P_fast(4.25)
    k = (eos.gamma - 1.0) / eos.gamma
    rho_term, p_term = terms_reference(eos, 1.0, 3.9 / k)
    assert eos.rho_P_of_state([3.9 / k]) == ([eos.A1 * rho_term], [eos.p_coeff * p_term])
    for refuse in (eos.rho_P_of_state, lambda zs: terms_reference(eos, 1.0, zs[0])):
        with pytest.raises(EosDomainError, match=f"^zeta = {k * (3.95 / k)!r}: past the EOS "
                                                 "domain, which ends where 1 \\+ zeta"):
            refuse([3.95 / k])


def test_dP_du_identity(eos15):
    # dP/du = rho + P/c^2, from u's definition
    for u in (0.05, 0.8, 2.0):
        h = 1e-7 * u
        fd = (eos15.pressure_of_u(u + h) - eos15.pressure_of_u(u - h)) / (2 * h)
        target = eos15.density_of_u(u) + eos15.pressure_of_u(u) / eos15.c2
        assert fd == pytest.approx(target, rel=1e-6)


def test_density_of_pressure_inverts(eos15):
    for rho in (1e-3, 0.2, 0.4):
        P = eos15._pressure_raw(rho)
        assert density_of_pressure(eos15, P) == pytest.approx(rho, rel=1e-12)
    assert density_of_pressure(eos15, 0.0) == 0.0


def test_pressure_density_of_u_vanish_below_zero(eos15):
    assert eos15.density_of_u(-0.1) == 0.0
    assert eos15.pressure_of_u(-0.1) == 0.0
    assert eos15.density_of_u(0.0) == 0.0


@pytest.mark.parametrize("eos", [
    EosSpec(A=1.0, gamma=1.5),
    EosSpec(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1))),
], ids=["polytrope", "series"])
def test_enthalpy_maps_refuse_a_non_finite_argument_by_name(eos):
    # NaN is not vacuum, and inf gives no NaN
    for u in (math.nan, math.inf, -math.inf):
        for method in (eos.density_of_u, eos.pressure_of_u):
            with pytest.raises(EosDomainError, match=f"^u = {u!r}: the enthalpy maps are "
                                                     "defined for finite u only$"):
                method(u)
    for us in ([math.nan], [1e-3, math.nan, -1.0], [-math.inf]):
        with pytest.raises(EosDomainError, match="^u = (nan|-inf): the enthalpy maps"):
            eos.rho_P_of_u(us)
    for rho in (math.nan, math.inf):
        with pytest.raises(EosDomainError, match=f"^rho = {rho!r}: u_of_density needs a finite"):
            eos.u_of_density(rho)


@pytest.mark.parametrize("c", [1.0, 2.5, 299792458.0])
@pytest.mark.parametrize("gamma", [1.2, 1.5, 5.0 / 3.0, 2.0])
def test_closed_form_state_map_is_the_fast_path_per_sample(gamma, c):
    # for Omega == 1 the state map runs the terms text in its loop: each
    # sample has the bits of the Z form at U# = u, alpha = 1/c^2, written on
    # floats, at u <= 0, where k u / c^2 rounds to 0, and over the range of
    # a star
    eos = EosSpec(A=0.7, gamma=gamma, c=c)
    c2 = c * c
    rng = np.random.default_rng(20)
    us = [-1.0, 0.0, 5e-324, 1e-300 * c2] + (c2 * 10.0 ** rng.uniform(-12.0, 1.5, 400)).tolist()
    want = []
    for u in us:
        if u > 0.0:
            rho_term, p_term = terms_reference(eos, 1.0 / c2, u)
            want.append((eos.A1 * rho_term, eos.p_coeff * p_term))
        else:
            want.append((0.0, 0.0))
    rho, P = eos.rho_P_of_u(us)
    assert np.array([rho, P]).T.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("c", [1.0, 2.5, 299792458.0])
@pytest.mark.parametrize("gamma", [1.2, 1.5, 5.0 / 3.0, 2.0])
def test_closed_form_is_accurate_against_mpmath(gamma, c):
    # the state map and the germ within 24 ulp of mpmath over u / c^2 in
    # [1e-12, 30]
    eos = EosSpec(A=0.7, gamma=gamma, c=c)
    c2 = c * c
    rng = np.random.default_rng(24)
    etas = [1e-12, 30.0] + (10.0 ** rng.uniform(-12.0, math.log10(30.0), 200)).tolist()
    us = [c2 * eta for eta in etas]
    bound = 24 * 2.0**-52
    rho, P = eos.rho_P_of_u(us)
    for u, got in zip(us, zip(rho, P)):
        want = closed_form_state_mpmath(eos, u)
        assert all(abs(g - w) <= bound * w for g, w in zip(got, want))
        got = eos.omega_rho_P_fast(u / c2)
        want = [float(w) for w in closed_form_omegas_mpmath(eos, u / c2)]
        assert all(abs(g - w) <= bound * w for g, w in zip(got, want))


# -- Fermi fluid ---------------------------------------------------------------


def test_fermi_zero():
    params = FermiEosParams(K=1.0, c=1.0)
    assert fermi_eos(0.0, params) == (0.0, 0.0)


@pytest.mark.parametrize("field, value", [
    ("K", math.nan), ("K", math.inf), ("K", 0.0), ("c", math.nan), ("c", -1.0),
])
def test_fermi_params_refuse_a_bad_field_by_name(field, value):
    with pytest.raises(NonPhysicalEosError, match=f"^Fermi {field} must be finite and positive"):
        FermiEosParams(**{"K": 1.0, field: value})


@pytest.mark.parametrize("zeta", [math.nan, math.inf, -1.0])
def test_fermi_eos_refuses_a_bad_zeta_by_name(zeta):
    # NaN gave (nan, nan) and +inf gave (nan, inf)
    with pytest.raises(EosDomainError, match="^Fermi momentum parameter zeta must be finite"):
        fermi_eos(zeta, FermiEosParams(K=1.0))


@pytest.mark.parametrize("zeta_fit_max", [1e-3, 5e-4, 5e-324])
def test_fermi_fit_refuses_a_window_at_or_below_its_first_sample(zeta_fit_max):
    # the window [1e-3, zeta_fit_max] was one point or reversed, and the fit
    # returned (1.0, -0.43, -2.1e6, -1.1e13, ...) at 1e-3 without a word
    with pytest.raises(ValueError, match=f"^zeta_fit_max must exceed the first fit sample, "
                                         f"zeta = 0.001, got {zeta_fit_max!r}$"):
        fermi_fit_eos(FermiEosParams(K=1.0), zeta_fit_max=zeta_fit_max)


@pytest.mark.parametrize("zeta_fit_max", [math.nan, math.inf, 0.0, -1.0])
def test_fermi_fit_refuses_a_bad_window_by_name(zeta_fit_max):
    # NaN ended in a LinAlgError, -1 in the momentum parameter's refusal
    with pytest.raises(ValueError, match="^zeta_fit_max must be finite and positive"):
        fermi_fit_eos(FermiEosParams(K=1.0), zeta_fit_max=zeta_fit_max)


def test_fermi_low_density_slope():
    params = FermiEosParams(K=1.0, c=1.0)
    z0 = 1e-3
    dz = 1e-5
    r1, P1 = fermi_eos(z0 - dz, params)
    r2, P2 = fermi_eos(z0 + dz, params)
    slope = (math.log(P2) - math.log(P1)) / (math.log(r2) - math.log(r1))
    assert slope == pytest.approx(5.0 / 3.0, abs=1e-3)
    # leading amplitudes of the series
    rho, P = fermi_eos(z0, params)
    assert P == pytest.approx(z0**5 / 5.0, rel=1e-5)
    assert rho == pytest.approx(3.0 * z0**3 / 3.0, rel=1e-5)


@pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
def test_fermi_closed_forms_vs_quadrature(z):
    qP = sp_integrate.quad(lambda q: q**4 / math.sqrt(1 + q * q), 0, z,
                           epsabs=1e-15, epsrel=1e-13)[0]
    qR = sp_integrate.quad(lambda q: math.sqrt(1 + q * q) * q * q, 0, z,
                           epsabs=1e-15, epsrel=1e-13)[0]
    assert _fermi_pressure_dimless(z) == pytest.approx(qP, rel=1e-10)
    assert _fermi_density_dimless(z) == pytest.approx(qR, rel=1e-10)


def test_fermi_series_closed_form_continuity():
    # across the series/closed-form switch at z = 0.35
    for z in (0.349, 0.351):
        qP = sp_integrate.quad(lambda q: q**4 / math.sqrt(1 + q * q), 0, z,
                               epsabs=1e-16, epsrel=1e-14)[0]
        assert _fermi_pressure_dimless(z) == pytest.approx(qP, rel=1e-12)


def test_fermi_monotone():
    params = FermiEosParams(K=2.0, c=3.0)
    zs = np.linspace(0.0, 3.0, 30)
    rows = [fermi_eos(float(z), params) for z in zs]
    assert all(b[0] > a[0] and b[1] > a[1] for a, b in zip(rows, rows[1:]))


def test_fermi_fit_enthalpy_consistency():
    # u for the Fermi fluid is exactly (c^2/2) log(1 + zeta^2): the fitted
    # (A, gamma, Omega) EOS must reproduce it at low density to 1e-7
    params = FermiEosParams(K=1.0, c=1.0)
    feos = fermi_fit_eos(params)
    assert feos.gamma == pytest.approx(5.0 / 3.0)
    assert feos.A == pytest.approx(0.2, rel=1e-14)
    # leading series coefficient of the correction is -30/7
    assert feos.omega.coeffs[1] == pytest.approx(-30.0 / 7.0, rel=1e-4)
    for z in np.linspace(0.01, 0.6, 15):
        rho, _ = fermi_eos(float(z), params)
        u_exact = 0.5 * math.log1p(float(z) ** 2)
        assert feos.u_of_density(rho) == pytest.approx(u_exact, rel=1e-7)


def test_fermi_fit_quadrature_consistency():
    # same check phrased against direct quadrature of dP/(rho + P/c^2)
    params = FermiEosParams(K=1.0, c=1.0)
    feos = fermi_fit_eos(params)

    def du_dz(z):
        rho, P = fermi_eos(z, params)
        dP = params.K * z**4 / math.sqrt(1.0 + z * z)
        return dP / (rho + P)

    z_top = 0.4
    u_quad = sp_integrate.quad(du_dz, 0.0, z_top, epsabs=1e-14, epsrel=1e-12)[0]
    rho_top, _ = fermi_eos(z_top, params)
    assert feos.u_of_density(rho_top) == pytest.approx(u_quad, rel=1e-7)


@pytest.mark.parametrize("field, value", [
    ("A", math.nan), ("A", math.inf),
    ("c", math.nan), ("c", math.inf),
    ("delta_omega", math.nan), ("delta_omega", math.inf),
    ("eta_max", math.nan), ("eta_max", math.inf), ("eta_max", 0.0), ("eta_max", -1.0),
])
def test_eos_spec_rejects_bad_field(field, value):
    kwargs = dict(A=1.0, gamma=1.5, omega=OmegaSeries((1.0, 0.3, -0.1)))
    kwargs[field] = value
    # delta_omega is no field at all: the EOS is never evaluated below eta = 0
    error, match = ((TypeError, "unexpected keyword argument 'delta_omega'")
                    if field == "delta_omega" else
                    (NonPhysicalEosError, f"^{field} must be finite and positive"))
    with pytest.raises(error, match=match):
        EosSpec(**kwargs)


def test_gamma_range_validation():
    with pytest.raises(NonPhysicalEosError):
        EosSpec(A=1.0, gamma=1.0)
    with pytest.raises(NonPhysicalEosError):
        EosSpec(A=1.0, gamma=2.2)
    EosSpec(A=1.0, gamma=2.0)  # the linear limiting case is admitted
