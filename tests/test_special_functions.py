import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectchain import special_functions
from defectchain.special_functions import (ConvergenceError, FourierKernel, PoleError,
                                           _hurwitz_tail, amplitude_integral,
                                           gamma_ratio, infinite_gamma_product, q_gamma_ratio)

mp.mp.dps = 30

# frozen with the high-precision oracle (mpmath, 30 digits)
GAMMA_QUARTER_RATIO = 2.9586751191886389


def test_single_gamma_at_one_and_half():
    assert gamma_ratio([1.0], [1.0]) == 1.0
    assert gamma_ratio([0.5], [1.0]) == pytest.approx(np.sqrt(np.pi), rel=4e-16)


def test_gamma_ratio_recurrence_at_sample_point():
    z = 0.3 + 0.7j
    assert gamma_ratio([z + 1], [z]) == pytest.approx(z, rel=1e-15)


@given(st.floats(-3.0, 6.0), st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_gamma_ratio_recurrence_grid(re, im):
    z = complex(re, im)
    if min(abs(z - k) for k in range(-4, 8)) < 0.05:
        return  # stay away from poles of Gamma(z) and Gamma(z+1)
    assert abs(gamma_ratio([z + 1], [z]) - z) < 1e-14 * max(1.0, abs(z))


@given(st.floats(-2.5, 3.5), st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_reflection_formula(re, im):
    # Gamma(z) Gamma(1 - z) sin(pi z) = pi, with no reflection inside the ratio
    z = complex(re, im)
    if min(abs(z - k) for k in range(-4, 6)) < 0.05:
        return
    lhs = gamma_ratio([z, 1 - z], [1.0, 1.0]) * np.sin(np.pi * z)
    assert abs(lhs - np.pi) < 1e-13 * np.pi


@pytest.mark.parametrize("im", [230.0, 1e3, 1e4])
def test_gamma_ratio_far_from_the_real_axis(im):
    # left of Re z = 1/2, where sin(pi z) overflows: the pair needs no
    # recurrence (M = 0) and nothing is reflected
    for re in (-3.3, -0.25, 0.25, 0.49):
        for z in (complex(re, im), complex(re, -im)):
            value, err = special_functions.gamma_ratio_bound([z], [z + 0.5])
            exact = mp.exp(mp.loggamma(z) - mp.loggamma(z + 0.5))
            gap = float(abs(mp.mpc(value) - exact))
            assert gap <= err <= 1e-14 * abs(value), z


def test_gamma_ratio_quarter():
    assert gamma_ratio([0.25], [0.75]) == pytest.approx(GAMMA_QUARTER_RATIO, rel=1e-15)


def test_gamma_ratio_cancellation_and_reciprocal():
    args = [0.3 + 0.4j, 1.7]
    assert gamma_ratio(args, args) == 1.0
    rng = np.random.default_rng(2)
    a = list(rng.uniform(0.2, 3.0, 3))
    b = list(rng.uniform(0.2, 3.0, 3))
    assert gamma_ratio(a, b) * gamma_ratio(b, a) == pytest.approx(1.0, rel=1e-14)


def test_gamma_ratio_overflow_safe():
    # individual Gammas overflow float64 but the ratio is tame
    val = gamma_ratio([500.25], [500.75])
    want = complex(mp.gamma(mp.mpf("500.25")) / mp.gamma(mp.mpf("500.75")))
    assert val == pytest.approx(want, rel=1e-15)


def test_gamma_ratio_pole_sides_reported():
    with pytest.raises(PoleError, match="numerator") as err:
        gamma_ratio([-1.0], [0.5])
    assert err.value.location == -1.0
    with pytest.raises(PoleError, match="denominator") as err:
        gamma_ratio([0.5, 2.0], [3.0, 0.0])
    assert err.value.location == 0.0
    with pytest.raises(ValueError, match="as many"):
        gamma_ratio([0.5, 2.0], [3.0])


def test_q_gamma_ratio_trivial_values():
    # Gamma_q(1) = Gamma_q(2) = 1
    for q in (0.2, 0.7, 0.95):
        value, err = q_gamma_ratio([2.0], [1.0], q, np.zeros(1))
        assert abs(value[0] - 1.0) <= err[0] < 1e-11


def test_q_gamma_ratio_classical_limit():
    # q -> 1 recovers the ordinary Gamma function
    val = q_gamma_ratio([0.5], [1.0], 1.0 - 1e-4, np.zeros(1))[0][0]
    assert val == pytest.approx(np.sqrt(np.pi), rel=1e-3)


def test_q_gamma_ratio_monotone_refinement(monkeypatch):
    # refining the truncation converges toward the Gamma value
    errs = []
    for tol in (1e-4, 1e-8, 1e-12):
        monkeypatch.setattr(special_functions, "TAIL_TOL", tol)
        val = q_gamma_ratio([0.5], [1.0], 1.0 - 1e-3, np.zeros(1))[0][0]
        errs.append(abs(val - np.sqrt(np.pi)))
    assert errs[2] <= errs[1] + 1e-12 <= errs[0] + 2e-12


def test_q_gamma_ratio_recurrence():
    # Gamma_q(x+1) = [x]_q Gamma_q(x) with [x]_q = (1-q^x)/(1-q)
    q, x = 0.6, 1.3 + 0.4j
    value, err = q_gamma_ratio([x + 1], [x], q, np.zeros(1))
    assert abs(value[0] - (1 - q ** x) / (1 - q)) <= err[0] < 1e-11


def test_q_gamma_ratio_pole_and_domain(monkeypatch):
    lam = np.zeros(1)
    with pytest.raises(PoleError, match="numerator") as err:
        q_gamma_ratio([0.0], [0.5], 0.5, lam)
    assert err.value.location == 0.0
    with pytest.raises(PoleError, match="denominator") as err:
        q_gamma_ratio([0.5, 1.5], [2.5, -1.0], 0.5, lam)
    assert err.value.location == -1.0
    with pytest.raises(ValueError, match="as many"):
        q_gamma_ratio([0.5], [], 0.5, lam)
    monkeypatch.setattr(special_functions, "MAX_TERMS", 100)
    with pytest.raises(ConvergenceError):
        q_gamma_ratio([0.5], [1.0], 1 - 1e-6, lam)


def test_infinite_product_of_ones():
    ln, err = infinite_gamma_product(1.0, [1.0], [1.0])
    assert ln == 0.0 and 0.0 <= err <= 1e-14


# prod_{k>=0} (k+a)(k+b) / ((k+c)(k+d)) with a+b = c+d equals
# Gamma(c) Gamma(d) / (Gamma(a) Gamma(b)), written in Gamma-ratio factors
_A, _B, _C, _D = 0.5, 2.5, 1.0, 2.0
CLASSICAL = ([_A + 1, _B + 1, _C, _D], [_A, _B, _C + 1, _D + 1])


def test_infinite_product_classical_value():
    # Gamma(1) Gamma(2) / (Gamma(1/2) Gamma(5/2)) = 4 / (3 pi) at 30 digits
    ln, err = infinite_gamma_product(1.0, *CLASSICAL)
    with mp.workdps(30):
        gap = abs(complex(ln - mp.log(mp.mpf(4) / (3 * mp.pi))))
    assert gap <= 1e-15
    assert gap <= err < 1e-11


def test_infinite_product_rejects_unbalanced_factors():
    with pytest.raises(ValueError, match="as many"):
        infinite_gamma_product(1.0, [1.0, 2.0], [1.5])
    with pytest.raises(ValueError, match="diverges"):
        infinite_gamma_product(1.0, [1.0, 2.0], [1.5, 1.0])
    with pytest.raises(ValueError, match="mean with Re > 0"):
        infinite_gamma_product(1.0, [-1.5, 0.5], [-0.5, -0.5])


@pytest.mark.parametrize("k0", [1, 4, 16, 2048])
def test_hurwitz_tail_matches_mpmath(k0):
    # mpmath's own zeta(s, a) loses digits at large a below ~60 digits
    with mp.workdps(60):
        for s in range(2, 16):
            want = mp.zeta(s, k0)
            assert abs(_hurwitz_tail(float(s), k0) - want) <= 1e-15 * want, s


def test_hurwitz_tail_array_and_complex_offsets():
    s = np.arange(1.0, 20.0)
    with mp.workdps(60):
        for k0 in (9, 0.547 + 106.4j, 3.99 - 8.0j, 130.5 + 2.0j):
            got = _hurwitz_tail(s, k0)
            assert got.shape == s.shape
            for order, value in zip(range(1, 20), got):
                if order == 1:   # the finite part -psi(k0), exact in its imaginary part
                    want = -mp.digamma(k0)
                    assert abs(value.imag - float(mp.im(want))) <= 1e-15 * abs(want), k0
                else:
                    want = mp.zeta(order, k0)
                    assert abs(value - complex(want)) <= 2e-15 * abs(want), (k0, order)


def test_hurwitz_tail_large_offset_keeps_four_terms():
    # the Euler-Maclaurin formula, bit for bit, once no term is summed directly
    for s in (2.0, 3.0, 4.0):
        for k0 in (2048, 4096, 400000):
            k = float(k0)
            four = (k ** (1 - s) / (s - 1) + 0.5 * k ** -s + s / 12.0 * k ** (-s - 1)
                    - s * (s + 1) * (s + 2) / 720.0 * k ** (-s - 3))
            assert _hurwitz_tail(s, k0) == four


def test_zero_kernel_gives_unit_amplitude():
    zero = FourierKernel("zero", lambda w: np.zeros_like(np.asarray(w, dtype=float)),
                         decay=1.0)
    assert amplitude_integral(zero, 0.7).value == pytest.approx(1.0, abs=1e-14)
    zero_d = FourierKernel("zero", lambda k: np.zeros_like(np.asarray(k, dtype=float)),
                           decay=0.5, eta=0.5)
    result = amplitude_integral(zero_d, 0.7)
    assert result.value == pytest.approx(1.0, abs=1e-14)
    # a pole at the origin has no mode-sum prescription
    pole_d = FourierKernel("pole", zero_d.hat, odd_kind="pole", odd_origin=0.5, decay=0.5,
                           eta=0.5)
    with pytest.raises(ValueError, match="origin prescription"):
        amplitude_integral(pole_d, 0.7)
    # a kernel without a finite origin prescription is rejected
    bad = FourierKernel("bad", lambda w: 1.0 / np.asarray(w, dtype=float),
                        odd_kind="divergent", decay=1.0)
    with pytest.raises(ValueError, match="origin"):
        amplitude_integral(bad, 0.7)
