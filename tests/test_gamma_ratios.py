"""The two closed-form evaluators, finite Gamma ratios (gamma_ratio_bound)
and q-Gamma ratios (q_gamma_ratio), against 30-digit mpmath: accuracy,
error estimates that bound the error, grid points that equal scalar calls
bit for bit, and poles that name their side."""
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectchain import special_functions
from defectchain.lax_defect import RegimeParams
from defectchain.special_functions import (PoleError, _exactly_no_d2, gamma_ratio_bound,
                                           infinite_gamma_product, q_gamma_ratio)
from defectchain.transmission_amplitudes import amplitude, amplitude_pair, type2_amplitude

EPS = np.finfo(float).eps
LAMS = (2.5, 37.0, 160.0, 1000.0, 3000.0)


def _hole_args(lam, sign):
    """xxx T+ = Gamma(1/4 - i lam/2) / Gamma(3/4 - i lam/2), T- its mirror."""
    z = (-1j if sign == "+" else 1j) * lam / 2
    return ([z + 0.25], [z + 0.75]) if sign == "+" else ([z + 0.75], [z + 0.25])


def _s_args(lam):
    return ([-1j * lam / 2 + 0.5, 1j * lam / 2 + 1.0], [-1j * lam / 2 + 1.0, 1j * lam / 2 + 0.5])


def _crossing_args(lam, gamma):
    """transmission_matrices._critical_crossing_scalar's ratio."""
    return ([1j * lam - gamma / 2, -1j * lam + gamma / 2 + 1],
            [1j * lam + gamma / 2, -1j * lam - gamma / 2 + 1])


def finite_box():
    box = []
    for lam in LAMS + tuple(-x for x in LAMS):
        box += [_hole_args(lam, "+"), _hole_args(lam, "-"), _s_args(lam)]
    box += [([z], [1.0]) for z in (1 - 8.5j, 0.5, -2.5 + 0.3j, 0.25 + 200j, 0.25 - 200j)]
    return box


def crossing_box():
    box = []
    for mu in (0.1, 0.7, 2.9):
        g = RegimeParams.critical(mu).gamma
        box += [_crossing_args(lam, g) for lam in (0.0, 0.44, -3.0, 10.0)]
    return box


def _exact_log(num, den):
    """The principal log of the ratio, at 30 digits."""
    with mp.workdps(30):
        ln = (sum(mp.loggamma(mp.mpc(a)) for a in num)
              - sum(mp.loggamma(mp.mpc(b)) for b in den))
        return mp.mpc(ln.real, (ln.imag + mp.pi) % (2 * mp.pi) - mp.pi)


def _check_ratio(num, den, within):
    value, err = gamma_ratio_bound(num, den)
    exact = _exact_log(num, den)
    with mp.workdps(30):
        gap = mp.log(mp.mpc(value)) - exact
        gap = abs(mp.mpc(gap.real, (gap.imag + mp.pi) % (2 * mp.pi) - mp.pi))
        assert gap <= within * EPS * max(1.0, abs(exact)), (num, den)
        assert abs(mp.mpc(value) - mp.exp(exact)) <= err, (num, den)


@pytest.mark.parametrize("num,den", finite_box())
def test_finite_ratio_matches_mpmath(num, den):
    _check_ratio(num, den, 4.0)


@pytest.mark.parametrize("num,den", crossing_box())
def test_crossing_ratio_matches_mpmath(num, den):
    # each pair's |delta| is gamma/2 or |i lam - 1/2|, up to 10 here against
    # |log ratio| <= pi: 2 delta log W and the recurrence, each near 80 at mu
    # = 0.1 and lam = 10, cancel to 1.3 and leave up to 42 eps (the
    # per-Gamma Lanczos route left 16 eps at worst on this box)
    _check_ratio(num, den, 48.0)


@pytest.mark.parametrize("lam", LAMS)
def test_xxx_closed_amplitudes_at_large_lam(lam):
    # the Lanczos route it replaced read 1.7e-13 to 1.6e-12 here
    plus, minus = amplitude_pair(RegimeParams.xxx(), lam)
    for sign, res in zip("+-", (plus, minus)):
        want = mp.exp(_exact_log(*_hole_args(lam, sign)))
        assert abs(mp.mpc(res.value) / want - 1) <= 1e-14, sign


def _exact_log_q(num, den, q):
    """log of the q-Gamma ratio from the defining products, at 30 digits."""
    with mp.workdps(30):
        q = mp.mpf(q)

        def log_q_gamma(x):
            x, total, j = mp.mpc(x), (1 - mp.mpc(x)) * mp.log(1 - q), 0
            while True:
                term = mp.log(1 - q ** (1 + j)) - mp.log(1 - q ** (x + j))
                total += term
                if abs(term) < mp.mpf(10) ** -34 and j > 10:
                    return total
                j += 1

        return sum(map(log_q_gamma, num)) - sum(map(log_q_gamma, den))


def q_box():
    lam = np.array([-4.0, 0.4, 2.5, 37.0])
    box = []
    for eta in (0.1, 0.5, 1.5):
        z = -1j * lam / 2
        box += [(eta, [z + 0.75], [z + 0.25]), (eta, [-z + 0.25], [-z + 0.75]),
                (eta, *_s_args(lam))]
        for spin in (1.0, 1.5):
            s = (spin - 0.5) / 2
            box.append((eta, [z + s + 0.25, -z + s + 0.75], [z + s + 0.75, -z + s + 0.25]))
    return lam, box


@pytest.mark.parametrize("case", range(len(q_box()[1])))
def test_q_ratio_matches_mpmath(case):
    # the per-Gamma_q route it replaced read up to 3.2e-13 here (eta = 0.1)
    lam, box = q_box()
    eta, num, den = box[case]
    q = float(np.exp(-4 * eta))
    value, err = q_gamma_ratio(num, den, q, lam)
    for k in range(lam.size):
        exact = mp.exp(_exact_log_q([a[k] for a in num], [b[k] for b in den], q))
        gap = abs(mp.mpc(value[k]) - exact)
        assert gap <= err[k] and gap <= 3e-14 * abs(exact), (eta, lam[k])


def test_q_ratio_whose_factors_overflow():
    # the spin-4900 type-II ratio at eta = 0.5: each Gamma_q above is about
    # e^355 and their product past the float range; the sum forms neither
    lam, q = np.array([-4.0, 0.4, 2.5]), float(np.exp(-2.0))
    s = (4900.0 - 0.5) / 2
    z = -1j * lam / 2
    num, den = [z + s + 0.25, -z + s + 0.75], [z + s + 0.75, -z + s + 0.25]
    value, err = q_gamma_ratio(num, den, q, lam)
    for k in range(lam.size):
        exact = mp.exp(_exact_log_q([a[k] for a in num], [b[k] for b in den], q))
        assert abs(mp.mpc(value[k]) - exact) <= err[k] <= 1e-11 * abs(exact)


def test_a_long_q_series_is_summed_a_block_of_terms_at_a_time():
    # at eta = 1e-4 a spin-1 type-II point sums about 1e5 terms, which once
    # made (pairs, terms) temporaries at once: type2_amplitude(0.2, 1e-4, 1)
    # peaked at 15.8 MB under tracemalloc and the type-I pair at 12.5 MB
    for compute in (lambda: type2_amplitude(0.2, 1e-4, 1.0),
                    lambda: amplitude_pair(RegimeParams.noncritical(1e-4), 0.2)):
        compute()
        tracemalloc.start()
        try:
            compute()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6
    # the blocks add up to the whole series, summed at once in long double
    lam, q = np.array([0.2, -3.0]), float(np.exp(-4e-4))
    z = -1j * lam / 2
    num, den = [z + 0.5, -z + 1.0], [z + 1.0, -z + 0.5]
    value, err = q_gamma_ratio(num, den, q, lam)
    j, lq = np.arange(200_000, dtype=np.longdouble), np.log(np.longdouble(q))
    for k in range(lam.size):
        ln = np.clongdouble(0.0)
        for a, b in zip(num, den):
            a, b = np.clongdouble(a[k]), np.clongdouble(b[k])
            u_a, u_b = np.exp((a + j) * lq), np.exp((b + j) * lq)
            ln += (b - a) * np.log1p(-np.longdouble(q)) - np.log1p((u_b - u_a) / (1 - u_b)).sum()
        gap = abs(value[k] - complex(np.exp(ln)))
        assert gap <= err[k] and gap <= 1e-12, lam[k]


def test_grid_points_equal_scalar_calls_bit_for_bit():
    # the grids mix points of different M (recurrence steps) and N (q terms)
    lam = np.concatenate([np.linspace(-40.0, 40.0, 41), [0.0, 3000.0]])
    q = float(np.exp(-1.0))
    ratios = [lambda x: gamma_ratio_bound(*_hole_args(x, "+")),
              lambda x: gamma_ratio_bound(*_s_args(x)),
              lambda x: gamma_ratio_bound(*_crossing_args(x, 30.4)),
              lambda x: gamma_ratio_bound([0.25 + 5j * x], [1.0]),
              lambda x: q_gamma_ratio(*_s_args(x), q, np.atleast_1d(x)),
              lambda x: q_gamma_ratio([0.3 + 0.1 * np.abs(x) - 0.5j * x], [1.0], q,
                                      np.atleast_1d(x))]
    for ratio in ratios:
        value, err = ratio(lam)
        for k, x in enumerate(lam):
            one, one_err = ratio(np.array([x]))
            assert value[k] == one[0] and err[k] == one_err[0], x


def test_poles_name_their_side_on_a_grid():
    grid = np.array([0.5, 1.5, -2.0])
    with pytest.raises(PoleError, match="numerator pole at") as info:
        gamma_ratio_bound([grid], [0.75])
    assert info.value.location == -2.0
    with pytest.raises(PoleError, match="denominator pole at") as info:
        gamma_ratio_bound([0.75], [grid - 0.5])
    assert info.value.location == 0.0
    with pytest.raises(PoleError, match="denominator pole") as info:
        q_gamma_ratio([0.75], [grid], 0.5, grid)
    assert info.value.location == -2.0


def test_product_estimate_at_large_lam():
    # the T+ product at lam_hat = 100, mu = 2: 2.5M log1p terms, whose
    # roundings are independent and charged as a root-sum-square; the
    # estimate read 9.0e-9 when they were charged linearly
    params = RegimeParams.critical(2.0)
    product = amplitude(params, "+", 100.0, "product")
    closed = amplitude(params, "+", 100.0)
    gap = abs(product.value - closed.value)
    assert gap <= product.error_estimate + closed.error_estimate
    # D_2 of this product is exactly 0, and summed error-free it costs
    # nothing: the estimate read 1.05e-9 when its rounding was charged, and
    # 2.5e-10 when the log1p arguments' rounding was charged linearly; as a
    # root-sum-square too it reads 1.7e-11
    assert product.error_estimate <= 1e-10 * abs(product.value)
    g, x = params.gamma, 100j
    _, err = infinite_gamma_product(2 * g, [g / 2 + x, g / 2 + 1 - x, 1.5 * g, 1.5 * g + 1],
                                    [1.5 * g + x, 1.5 * g + 1 - x, g / 2, g / 2 + 1])
    assert err <= 1e-10


@settings(max_examples=200, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                min_size=2, max_size=2),
       st.sampled_from([0.0, 1.0, 2.0 ** -40, 3e-7j]))
def test_zero_d2_is_decided_exactly(h, nudge):
    # 2 D_2 = sum_i s_i (h_i^2 - h_i) in rationals: 0 for a mirrored set of
    # offsets, and not 0 once one of them moves
    sign = np.array([1.0, 1.0, -1.0, -1.0])
    h = np.array(h + [h[0] + nudge, h[1]])
    exact = [sum(Fraction(s) * part for s, part in zip(sign, parts)) for parts in zip(*(
        (Fraction(z.real) ** 2 - Fraction(z.imag) ** 2 - Fraction(z.real),
         2 * Fraction(z.real) * Fraction(z.imag) - Fraction(z.imag)) for z in h))]
    assert _exactly_no_d2(h, sign) is (exact == [0, 0])


def test_ratio_plans_are_fixed_once_per_tuple_of_shifts(monkeypatch):
    # the hole amplitudes' pairs keep one shift on every grid (+-1/4): their
    # series is stacked once and read by every later grid, which gets the
    # bits an uncached series gives; mixed shifts (S_s swaps its pairs below
    # |lam| = 1/2) are checked by test_grid_points_equal_scalar_calls_bit_for_bit
    grids = (np.linspace(-3.0, 3.0, 7), np.array([0.44]), np.array([20.0, -1.0, 0.0]))
    special_functions._pair_series.cache_clear()
    cached = [gamma_ratio_bound(*_hole_args(lam, "+")) for lam in grids]
    info = special_functions._pair_series.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    monkeypatch.setattr(special_functions, "_pair_series",
                        special_functions._pair_series.__wrapped__)
    for lam, (value, err) in zip(grids, cached):
        fresh = gamma_ratio_bound(*_hole_args(lam, "+"))
        assert np.array_equal(value, fresh[0]) and np.array_equal(err, fresh[1])