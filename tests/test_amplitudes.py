import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectchain.lax_defect import RegimeParams
from defectchain.special_functions import (FloatRangeError, PoleError, _half_line_rule,
                                           _mode_rule, amplitude_integral, gamma_ratio,
                                           gamma_ratio_bound, half_line_sums, q_gamma_ratio)
from defectchain.transmission_amplitudes import (_critical_anchor, _critical_ln_product,
                                                 _critical_ln_ratio, amplitude, amplitude_pair,
                                                 breather_amplitude, kernel, soliton_s_amplitude,
                                                 type2_amplitude)
from kernel_oracles import oracle_kernel

mp.mp.dps = 30

XXX = RegimeParams.xxx()
CRIT = RegimeParams.critical(0.7)         # gamma = pi/0.7 - 1 ~ 3.488
CRIT_SAMPLE = RegimeParams.critical(np.pi / 2.5)   # gamma = 1.5 exactly
NC = RegimeParams.noncritical(0.5)

GAMMA_QUARTER_RATIO = 2.9586751191886389


# ---------------------------------------------------------------- kernels

def test_xxx_sigma0_kernel_and_inversion():
    k = oracle_kernel(XXX, "sigma0")
    assert k.hat(0.0) == pytest.approx(0.5)

    # the bulk density sigma0(0) = 1/2 as the cosine transform of the
    # kernel's even part, int_0^inf K_e(w) dw / pi, on the half-line rule
    def terms(w):
        zero = np.zeros((w.size, 1))
        return zero, zero, (k.even_odd(w)[0].real / np.pi)[:, None]

    dens = half_line_sums(np.zeros(1), k.decay, terms)[0].real
    assert dens[0, 0] == pytest.approx(0.5, abs=1e-8)


def test_xxx_rt_kernels_reflection():
    kp = kernel(XXX, "rt_plus")
    km = kernel(XXX, "rt_minus")
    w = np.linspace(-3, 3, 31)
    np.testing.assert_allclose(kp.hat(w), km.hat(-w), atol=1e-14)
    # half-line support as displayed, two-sided limit average at the origin
    pos = np.linspace(0.1, 5, 9)
    assert np.all(kp.hat(pos) == 0.0)
    assert np.all(km.hat(-pos) == 0.0)
    np.testing.assert_allclose(kp.hat(-pos), 1.0 / (2 * np.cosh(pos / 2)))
    assert kp.hat(0.0) == pytest.approx(0.25)


def test_critical_rt_origin_pole():
    k = kernel(CRIT_SAMPLE, "rt_plus")
    w = np.array([1e-6, 1e-7])
    np.testing.assert_allclose(w * k.hat(w), -0.5, rtol=1e-4)
    k = kernel(CRIT_SAMPLE, "rt_minus")
    np.testing.assert_allclose(w * k.hat(w), 0.5, rtol=1e-4)


def test_critical_a_n_support_condition():
    nu = CRIT_SAMPLE.nu
    oracle_kernel(CRIT_SAMPLE, "a_n", n=2)
    with pytest.raises(ValueError):
        oracle_kernel(CRIT_SAMPLE, "a_n", n=int(2 * nu) + 1)


def test_noncritical_r_kernel_values():
    k = kernel(NC, "r")
    assert k.hat(0.0) == pytest.approx(0.5)
    kk = np.array([1.0, 2.0, -3.0])
    want = np.exp(-2 * 0.5 * np.abs(kk)) / (1 + np.exp(-2 * 0.5 * np.abs(kk)))
    np.testing.assert_allclose(k.hat(kk), want)


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError):
        kernel(XXX, "nope")
    # the oracle-only names are not the package's
    for params, name in ((XXX, "sigma0"), (CRIT_SAMPLE, "B_plus"), (NC, "a_n")):
        with pytest.raises(ValueError):
            kernel(params, name)


def test_kernel_table_covers_each_regime():
    names = {
        XXX: ["sigma0", "rt_plus", "rt_minus", "a_n", "frak_a_plus", "frak_a_minus", "r"],
        CRIT_SAMPLE: ["sigma0", "rt_plus", "rt_minus", "a_n", "b_n", "frak_b_plus",
                      "frak_b_minus", "B_plus", "B_minus", "sigma0_bar", "tb_plus",
                      "tb_minus", "r"],
        NC: ["sigma0", "rt_plus", "rt_minus", "a_n", "frak_a_plus", "frak_a_minus", "r",
             "rt_spin"],
    }
    table = {params: {name: oracle_kernel(params, name, n=2, spin=1.0)
                      for name in regime_names}
             for params, regime_names in names.items()}
    crit = table[CRIT_SAMPLE]
    # B as displayed and the package's rt in decaying exponentials coincide
    # (away from their origin pole)
    w = np.linspace(-2, 2, 9)
    w = w[np.abs(w) > 1e-9]
    np.testing.assert_allclose(crit["B_plus"].hat(w), crit["rt_plus"].hat(w))
    np.testing.assert_allclose(crit["B_minus"].hat(w), crit["rt_minus"].hat(w))
    assert table[NC]["rt_spin"].eta == NC.eta


# ----------------------------------------------------------- state densities

def test_density_convolution_vs_resolved_fourier():
    # the convolution form of the string density, solved in Fourier space,
    # must reproduce the resolved kernels pointwise in frequency
    params = CRIT_SAMPLE
    nu = params.nu
    w = np.linspace(-20, 20, 401)
    w = w[np.abs(w) > 1e-9]
    a2 = oracle_kernel(params, "a_n", n=2).hat(w)
    b1 = oracle_kernel(params, "b_n", n=1).hat(w)
    for sgn, name in (("plus", "frak_b_plus"), ("minus", "frak_b_minus")):
        fb = oracle_kernel(params, name).hat(w)
        sigma_resolved = oracle_kernel(params, "sigma0").hat(w)
        rt_resolved = kernel(params, f"rt_{sgn}").hat(w)
        r_resolved = kernel(params, "r").hat(w)
        denom = a2 - 1.0
        np.testing.assert_allclose(b1 / denom, sigma_resolved, atol=1e-8)
        np.testing.assert_allclose(fb / denom, rt_resolved, atol=1e-8)
        np.testing.assert_allclose(a2 / denom, r_resolved, atol=1e-8)


# ------------------------------------------------------------- hole amplitude

def test_xxx_t_plus_at_zero():
    assert amplitude(XXX, "+", 0.0).value == pytest.approx(GAMMA_QUARTER_RATIO,
                                                           rel=1e-12)


def test_xxx_closed_vs_oracle():
    # frozen against the high-precision Gamma oracle
    want = 1.8198661087958295 + 1.1934576437159853j
    assert amplitude(XXX, "+", 0.5).value == pytest.approx(want, rel=1e-12)


def test_xxx_integral_route_reproduces_quarter_ratio():
    val = amplitude(XXX, "+", 0.0, route="integral").value
    assert val == pytest.approx(GAMMA_QUARTER_RATIO, rel=1e-8)


def test_xxx_kernel_reflection_symmetry_of_routes():
    # T-(lam) at lam = 1 equals 1 / T+(-lam) by the omega -> -omega kernel map
    tm = amplitude(XXX, "-", 1.0, route="integral").value
    tp = amplitude(XXX, "+", -1.0, route="integral").value
    assert tm * tp == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("params,second",
                         [(XXX, "integral"), (CRIT_SAMPLE, "integral"), (NC, "sum")],
                         ids=["xxx", "crit", "nc"])
def test_cross_route_agreement_grid(params, second):
    tol = 1e-6 if second == "integral" else 1e-8
    for sign in ("+", "-"):
        for lh in np.linspace(-2.0, 2.0, 21):
            a = amplitude(params, sign, lh, "closed").value
            b = amplitude(params, sign, lh, second).value
            assert abs(a - b) < tol, (sign, lh, abs(a - b))


def test_critical_product_route_matches_closed():
    for lh in (0.5, -1.1, 1.7):
        a = amplitude(CRIT_SAMPLE, "+", lh, "closed").value
        b = amplitude(CRIT_SAMPLE, "+", lh, "product").value
        assert abs(a - b) < 1e-6


@pytest.mark.parametrize("mu", [0.3, 0.7, 2.0])
def test_critical_product_estimate_bounds_the_route_gap(mu):
    # the literal product's estimate (tail past c2/k^2 plus the rounding of
    # its summed log-Gammas) covers its distance to the closed route, whose
    # own estimate is a million times smaller
    params = RegimeParams.critical(mu)
    for lh in (-10.0, -2.5, 0.4):
        product = amplitude(params, "+", lh, "product")
        closed = amplitude(params, "+", lh, "closed")
        gap = abs(product.value - closed.value)
        assert gap <= product.error_estimate + closed.error_estimate, lh


@pytest.mark.parametrize("mu", [0.3, 0.7, 1.2])
def test_critical_product_route_breather_bootstrap(mu):
    # the lightest breather is a bound state of two holes: at x = lam_hat -
    # i (gamma - 1)/2, T+(x) T-(x) = T+(x) / T+(-x) is the hyperbolic
    # breather amplitude, which shares no code with the Gamma product; the
    # product meets it to 6e-15 here, inside its estimates of about 1e-12
    params = RegimeParams.critical(mu)
    g = params.gamma
    lam = np.linspace(-2.0, 2.0, 9)
    plus, minus = amplitude_pair(params, lam - 0.5j * (g - 1.0), "product")
    breather = breather_amplitude("+", 1, lam, g)
    gap = np.abs(plus.value * minus.value - breather.value)
    bound = (np.abs(minus.value) * plus.error_estimate + np.abs(plus.value) * minus.error_estimate
             + breather.error_estimate)
    assert np.all(gap <= bound), gap / bound
    assert np.all(gap <= 1e-13 * np.abs(breather.value))


@pytest.mark.parametrize("lam_hat", ["i gamma/2", "5i gamma/2", "-i (gamma/2 + 1)"])
def test_critical_product_route_pole_names_lam_hat(lam_hat):
    # a Gamma of the product at 0 (k = 0) or at 0 after one step (k = 1):
    # a PoleError naming lam_hat, with no division by zero or other warning
    g = CRIT.gamma
    x = {"i gamma/2": 0.5j * g, "5i gamma/2": 2.5j * g, "-i (gamma/2 + 1)": -1j * (g / 2 + 1)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleError, match="has a pole at lam_hat = ") as info:
            amplitude(CRIT, "+", np.array([0.4, x[lam_hat]]), "product")
    assert info.value.location == pytest.approx(x[lam_hat])


def test_critical_sample_cross_route_spotcheck():
    # gamma = 1.5, lam_hat = 0.5: Gamma-product route vs quadrature route
    a = amplitude(CRIT_SAMPLE, "+", 0.5, "product").value
    b = amplitude(CRIT_SAMPLE, "+", 0.5, "integral").value
    assert abs(a - b) < 1e-6


@pytest.mark.parametrize("params", [XXX, CRIT_SAMPLE, NC], ids=["xxx", "crit", "nc"])
def test_amplitude_unitarity(params):
    for lh in np.linspace(-2.0, 2.0, 9):
        prod = (amplitude(params, "-", lh).value
                * amplitude(params, "+", -lh).value)
        assert abs(prod - 1.0) < 1e-10


@given(st.floats(-4.0, 4.0), st.floats(0.3, 2.8))
@settings(max_examples=40, deadline=None)
def test_amplitude_unitarity_random_parameters(lh, mu):
    params = RegimeParams.critical(mu)
    prod = amplitude(params, "-", lh).value * amplitude(params, "+", -lh).value
    assert abs(prod - 1.0) < 1e-9


@given(st.floats(-4.0, 4.0), st.floats(0.05, 1.5))
@settings(max_examples=40, deadline=None)
def test_noncritical_unitarity_random_parameters(lh, eta):
    params = RegimeParams.noncritical(eta)
    prod = amplitude(params, "-", lh).value * amplitude(params, "+", -lh).value
    assert abs(prod - 1.0) < 1e-10


def test_nc_t_minus_at_zero_is_q_gamma_ratio():
    q4 = np.exp(-4 * 0.5)
    want = q_gamma_ratio([0.25], [0.75], q4, np.zeros(1))[0][0]
    got = amplitude(NC, "-", 0.0, route="sum").value
    assert got == pytest.approx(want, rel=1e-8)


def test_bad_sign_and_route():
    with pytest.raises(ValueError):
        amplitude(XXX, "x", 0.0)
    with pytest.raises(ValueError):
        amplitude(XXX, "+", 0.0, route="sum")
    with pytest.raises(ValueError):
        amplitude(NC, "+", 0.0, route="integral")


@pytest.mark.parametrize("params,route",
                         [(XXX, "integral"), (CRIT_SAMPLE, "integral"), (NC, "sum")],
                         ids=["xxx", "crit", "nc"])
def test_amplitude_bounded_and_smooth_on_real_axis(params, route):
    # |T| stays bounded over the real axis and the quadrature/sum evaluation
    # shows no oscillation beyond its error estimate against the closed form
    grid = np.linspace(-3.0, 3.0, 61)
    vals = np.array([amplitude(params, "+", x, route).value for x in grid])
    assert np.all(np.isfinite(vals.view(float)))
    assert np.abs(vals).max() < 50.0
    closed = np.array([amplitude(params, "+", x, "closed").value for x in grid])
    err = max(amplitude(params, "+", 0.0, route).error_estimate, 1e-9)
    assert np.abs(vals - closed).max() < 10.0 * err
    # smoothness: second differences stay of the size the closed form sets
    d2 = np.abs(np.diff(vals, 2))
    d2_closed = np.abs(np.diff(closed, 2))
    assert d2.max() < d2_closed.max() + 100.0 * err


# ------------------------------------------------ T- as T+ reflected

EPS = np.finfo(float).eps


def second_column_t_minus(params, lam, route):
    """T- and its estimate evaluated on its own, as every route did before
    it reflected T+: the a = 3/4 ratio row (xxx, non-critical), the rt_minus
    kernel's transform (integral, sum), or 1 / (A r(-lam)) with the ratio
    integral's b negated, i.e. taken at -lam (critical closed and product)."""
    z = 1j * lam / 2
    if route in ("integral", "sum"):
        res = amplitude_integral(kernel(params, "rt_minus"), lam)
        return res.value, res.error_estimate
    if params is XXX:
        return gamma_ratio_bound([z + 0.75], [z + 0.25])
    if params is NC:
        return q_gamma_ratio([z + 0.25], [z + 0.75], float(np.exp(-4.0 * params.eta)), lam)
    ln_a, err_a = _critical_anchor(params.gamma)
    ratio = _critical_ln_ratio if route == "closed" else _critical_ln_product
    ln_r, err_r = ratio(-lam, params.gamma)
    value = np.exp(-(ln_a + ln_r))
    return value, np.abs(value) * (err_a + err_r)


REAL = np.linspace(-4.0, 4.0, 81)
STRIP = (np.linspace(-3.0, 3.0, 9) + 1j * np.linspace(-0.9, 0.9, 9) * CRIT.gamma / 2.0)
OFF_AXIS = np.linspace(-3.0, 3.0, 9) + 1j * np.linspace(-0.9, 0.9, 9)
REFLECTION_CASES = [(XXX, "closed", REAL), (XXX, "integral", REAL), (CRIT, "closed", REAL),
                    (CRIT, "product", REAL), (CRIT, "integral", REAL), (NC, "closed", REAL),
                    (NC, "sum", REAL), (CRIT, "closed", STRIP), (CRIT, "product", STRIP),
                    (XXX, "closed", OFF_AXIS), (NC, "closed", OFF_AXIS)]


@pytest.mark.parametrize("params,route,lam", REFLECTION_CASES,
                         ids=["xxx-closed", "xxx-integral", "crit-closed", "crit-product",
                              "crit-integral", "nc-closed", "nc-sum", "crit-strip",
                              "crit-strip-product", "xxx-complex", "nc-complex"])
def test_reflected_t_minus_matches_its_second_column(params, route, lam):
    # T-(lam) = 1 / conj T+(conj lam) against T- evaluated on its own: a
    # few eps of |T-| apart (4.4 at most here), inside the summed estimates
    minus = amplitude_pair(params, lam, route)[1]
    value, err = second_column_t_minus(params, lam, route)
    gap = np.abs(minus.value - value)
    assert np.all(gap <= 8.0 * EPS * np.abs(value))
    assert np.all(gap <= minus.error_estimate + err)


@pytest.mark.parametrize("params", [XXX, CRIT, CRIT_SAMPLE, RegimeParams.critical(2.5), NC,
                                    RegimeParams.noncritical(0.01)],
                         ids=["xxx", "crit-0.7", "crit-g1.5", "crit-2.5", "nc-0.5", "nc-0.01"])
def test_rt_minus_is_rt_plus_reflected_bit_for_bit_on_the_rule(params):
    # the hole routes' premise: K-(w) = K+(-w), on every node of the rule
    # (half-line rule or modes) the routes take, and on its mirror image
    plus, minus = kernel(params, "rt_plus"), kernel(params, "rt_minus")
    if plus.eta is None:
        nodes = _half_line_rule(plus.decay, 4.0)[0]
    else:
        nodes = _mode_rule(plus.eta, plus.eta)[0]
    for w in (nodes, -nodes):
        assert np.array_equal(minus.hat(w), plus.hat(-w))


def test_free_fermion_point_is_exact_in_every_critical_route():
    # at mu = pi/2 (gamma = 1) the anchor's integrand vanishes and the
    # product's factors are 1: T+(0) = 2^(-1/2), and T-(0) = 2^(1/2)
    params = RegimeParams.critical(np.pi / 2)
    assert params.gamma == 1.0
    for route in ("closed", "product", "integral"):
        plus, minus = amplitude_pair(params, 0.0, route)
        assert abs(plus.value - 2 ** -0.5) <= plus.error_estimate + 4 * EPS, route
        assert abs(minus.value - 2 ** 0.5) <= minus.error_estimate + 8 * EPS, route


@pytest.mark.parametrize("eta", [1e-2, 1e-3, 1e-4])
def test_noncritical_t_plus_tends_to_the_inverse_isotropic_t_plus(eta):
    # T+_nc(lam) T+_xxx(lam) = 1 + eta (1 + i lam/2) + O(eta^2): the measured
    # eta^2 coefficient is about 0.5 at lam = -1, so the gap to the linear
    # term stays below eta (eta = 1e-5 would need 978601 q-series terms)
    lam = np.array([-1.0, 0.0, 0.7])
    product = (amplitude_pair(RegimeParams.noncritical(eta), lam)[0].value
               * amplitude_pair(XXX, lam)[0].value)
    assert np.all(np.abs((product - 1.0) / eta - (1.0 + 0.5j * lam)) <= eta)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_breather_reflection_carries_the_sign_of_n(n):
    # T-_n(lam) conj T+_n(lam) = (-1)^n on the real axis, unlike the holes'
    # +1: a breather table cannot be reflected the way the hole routes are
    g = CRIT.gamma
    lam = np.linspace(-2.0, 2.0, 41)
    plus, minus = (breather_amplitude(s, n, lam, g).value for s in "+-")
    away = np.isfinite(plus) & np.isfinite(minus)
    assert away.sum() >= 40
    assert np.all(np.abs(minus[away] * np.conj(plus[away]) - (-1) ** n) < 1e-14)


# ------------------------------------------------------------------ breathers

def test_breather_tan_value():
    for g in (1.2, 1.5, 3.0):
        val = breather_amplitude("+", 1, 0.0, g).value
        assert val == pytest.approx(np.tan(np.pi / (4 * g)), rel=1e-12)


def test_breather_crossing_on_grid():
    g = 1.5
    for lh in np.linspace(-1.5, 1.5, 11):
        lhs = breather_amplitude("-", 1, lh, g).value
        rhs = breather_amplitude("+", 1, -lh + 1j * g, g).value  # theta -> -theta + i pi
        assert abs(lhs - rhs) < 1e-10


def test_breather_integral_route():
    g = 1.5
    for lh in (-0.9, 0.0, 0.8):
        a = breather_amplitude("+", 1, lh, g).value
        b = breather_amplitude("+", 1, lh, g, route="integral").value
        assert abs(a - b) < 1e-8


def test_breather_fusion_reduces_and_factorises():
    g = 1.5
    # n = 1 fusion product is the n = 1 closed form
    assert (breather_amplitude("+", 1, 0.6, g).value
            == breather_amplitude("+", 1, 0.6 + 0.0j, g).value)
    # n = 2, 3 equal the explicit shifted products
    for n in (2, 3):
        lh = 0.42
        prod = 1.0 + 0.0j
        for ell in range(1, n + 1):
            prod *= breather_amplitude("+", 1, lh + 0.5j * (n + 1 - 2 * ell), g).value
        got = breather_amplitude("+", n, lh, g).value
        assert got == pytest.approx(prod, rel=1e-13)


def test_breather_rejects_bad_arguments():
    with pytest.raises(ValueError):
        breather_amplitude("+", 0, 0.0, 1.5)
    with pytest.raises(ValueError):
        breather_amplitude("+", 2, 0.0, 1.5, route="integral")
    with pytest.raises(ValueError):
        breather_amplitude("+", 1, 0.0, -1.0)


# -------------------------------------------------------------------- type-II

def test_type2_sum_vs_closed():
    got = type2_amplitude(0.3, 0.5, 1.0, route="sum").value
    want = type2_amplitude(0.3, 0.5, 1.0, route="closed").value
    assert abs(got - want) < 1e-8


def test_type2_unitarity_in_lam():
    for lh in (0.2, 0.9, -1.3):
        prod = (type2_amplitude(lh, 0.5, 1.0).value
                * type2_amplitude(-lh, 0.5, 1.0).value)
        assert abs(prod - 1.0) < 1e-10


def test_type2_isotropic_limit():
    eta = 1e-4
    s = 1.0
    lh = 0.5
    got = type2_amplitude(lh, eta, s).value
    want = gamma_ratio(
        [-1j * lh / 2 + s / 2, 1j * lh / 2 + s / 2 + 0.5],
        [-1j * lh / 2 + s / 2 + 0.5, 1j * lh / 2 + s / 2])
    assert abs(got - want) / abs(want) < 1e-3


def test_type2_domain():
    with pytest.raises(ValueError):
        type2_amplitude(0.3, 0.5, 0.3)
    with pytest.raises(ValueError):
        type2_amplitude(0.3, -0.5, 1.0)


@pytest.mark.parametrize("spin", [2000.0, 5000.0, 20000.0])
def test_type2_large_spin_is_finite_and_agrees_with_the_sum(spin):
    # at eta = 0.5 the two numerator q-Gamma factors overflow together from
    # S ~ 4900, and each alone from S ~ 9800: the ratio comes from their logs
    lam = np.linspace(-4.0, 4.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = type2_amplitude(lam, 0.5, spin)
        summed = type2_amplitude(lam, 0.5, spin, "sum")
        mirrored = type2_amplitude(-lam, 0.5, spin)
    assert np.all(np.isfinite(closed.value)) and np.all(closed.error_estimate < 1e-11)
    assert np.abs(closed.value - summed.value).max() < 1e-10
    assert np.abs(closed.value * mirrored.value - 1.0).max() < 1e-10


def test_q_gamma_ratio_past_the_float_range_of_its_factors():
    # Gamma_q(x + 1) / Gamma_q(x) = (1 - q^x) / (1 - q), which is 2 at q = 1/2
    # and x = 2000, where each factor is about 2^2000 and the balanced sum
    # forms neither
    lam = np.zeros(1)
    value, err = q_gamma_ratio([np.array([2001.0 + 0j])], [np.array([2000.0 + 0j])], 0.5, lam)
    assert abs(value[0] - 2.0) <= err[0] < 1e-11
    # about 2^2000 itself: one error naming the point
    with pytest.raises(FloatRangeError, match="lam_hat = 0 is outside the float range"):
        q_gamma_ratio([np.array([2001.0 + 0j])], [np.array([1.0 + 0j])], 0.5, lam)


# ------------------------------------------------------------ bulk amplitude

def test_xxx_s_amplitude_trivial_and_oracle():
    assert soliton_s_amplitude(XXX, 0.0) == pytest.approx(1.0, rel=1e-13)
    want = 0.6875720741944641 + 0.7261161358818040j   # frozen (mpmath)
    assert soliton_s_amplitude(XXX, 0.7) == pytest.approx(want, rel=1e-12)


def test_noncritical_s_amplitude_sum_vs_closed():
    a = soliton_s_amplitude(NC, 0.7, "closed")
    b = soliton_s_amplitude(NC, 0.7, "sum")
    assert abs(a - b) < 1e-8


def test_critical_s_amplitude_product_vs_integral():
    a = soliton_s_amplitude(CRIT_SAMPLE, 0.7, "closed")
    b = soliton_s_amplitude(CRIT_SAMPLE, 0.7, "integral")
    assert abs(a - b) < 1e-6


def test_s_amplitude_isotropic_limit():
    pn = RegimeParams.noncritical(1e-4)
    lam = 0.7
    got = soliton_s_amplitude(pn, lam, "closed")
    want = soliton_s_amplitude(XXX, lam, "closed")
    assert abs(got - want) / abs(want) < 1e-3
