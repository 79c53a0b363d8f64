import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectchain import special_functions
from defectchain.special_functions import (_LOG_GAMMA_REL, _SIN_DIRECT, ConvergenceError,
                                           FourierKernel, PoleError, _hurwitz_tail,
                                           _log_gamma_right, amplitude_integral,
                                           amplitude_sum, gamma_ratio,
                                           infinite_gamma_product, log_gamma,
                                           q_gamma)

mp.mp.dps = 30

# frozen with the high-precision oracle (mpmath, 30 digits)
GAMMA_QUARTER_RATIO = 2.9586751191886389


def test_log_gamma_at_one_and_half():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(0.5723649429247001, abs=1e-13)


def test_log_gamma_matches_oracle_off_axis():
    for z in (2.5 + 1.3j, 0.25 - 0.8j, -1.7 + 0.4j, 6.0 + 3.0j):
        want = complex(mp.loggamma(z)) if z.real >= 0.5 else complex(
            mp.log(mp.gamma(z)))
        got = log_gamma(z)
        assert np.exp(got) == pytest.approx(complex(mp.gamma(z)), rel=1e-11)


def test_log_gamma_recurrence_at_sample_point():
    z = 0.3 + 0.7j
    ratio = np.exp(log_gamma(z + 1) - log_gamma(z))
    assert ratio == pytest.approx(z, rel=1e-12)


@given(st.floats(-3.0, 6.0), st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_log_gamma_recurrence_grid(re, im):
    z = complex(re, im)
    if min(abs(z - k) for k in range(-4, 8)) < 0.05:
        return  # stay away from poles of Gamma(z) and Gamma(z+1)
    assert abs(np.exp(log_gamma(z + 1) - log_gamma(z)) - z) < 1e-11 * max(1.0, abs(z))


def test_log_gamma_recurrence_literal_form():
    # |logG(z+1) - logG(z) - log z| on a grid where both sides sit on the
    # principal branch (right of the reflection strip)
    re, im = np.meshgrid(np.linspace(0.5, 6.0, 12), np.linspace(-3.0, 3.0, 13))
    z = (re + 1j * im).ravel()
    res = np.abs(log_gamma(z + 1) - log_gamma(z) - np.log(z))
    assert res.max() < 1e-12


@given(st.floats(-2.5, 3.5), st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_reflection_formula(re, im):
    z = complex(re, im)
    if min(abs(z - k) for k in range(-4, 6)) < 0.05:
        return
    if min(abs((1 - z) - k) for k in range(-4, 6)) < 0.05:
        return
    lhs = np.exp(log_gamma(z)) * np.exp(log_gamma(1 - z)) * np.sin(np.pi * z)
    assert abs(lhs - np.pi) < 1e-10 * abs(np.pi)


def _mod_2pi_i(d: complex) -> complex:
    return complex(d.real, (d.imag + np.pi) % (2 * np.pi) - np.pi)


@pytest.mark.parametrize("im", [230.0, 1e3, 1e4])
def test_log_gamma_far_from_the_real_axis(im):
    # the reflection side at |Im z| past ~226, where sin(pi z) overflows
    for re in (-3.3, -0.25, 0.25, 0.49):
        for z in (complex(re, im), complex(re, -im)):
            lg = complex(log_gamma(z))
            d = _mod_2pi_i(lg - complex(mp.loggamma(z)))
            assert abs(d) <= _LOG_GAMMA_REL * (1.0 + abs(lg)), z


def test_log_gamma_reflection_keeps_log_sin_where_it_is_finite():
    # log pi - log(sin(pi z)) - log Gamma(1 - z) as it stands: the same
    # bits up to |Im z| = _SIN_DIRECT, the same value modulo 2 pi i beyond
    re, im = np.meshgrid(np.linspace(-4.9, 0.45, 23), np.linspace(-225.0, 225.0, 91))
    z = (re + 1j * im).ravel()
    literal = np.log(np.pi) - np.log(np.sin(np.pi * z)) - _log_gamma_right(1.0 - z)
    got = log_gamma(z)
    near = np.abs(z.imag) <= _SIN_DIRECT
    assert near.any() and not near.all()
    assert np.array_equal(got[near], literal[near])
    for g, want in zip(got[~near], literal[~near]):
        assert abs(_mod_2pi_i(g - want)) <= 4e-16 * abs(want)


def test_log_gamma_pole_reported():
    with pytest.raises(PoleError) as err:
        log_gamma(-2.0)
    assert err.value.location == -2.0


def test_gamma_ratio_quarter():
    assert gamma_ratio([0.25], [0.75]) == pytest.approx(GAMMA_QUARTER_RATIO, rel=1e-12)


def test_gamma_ratio_cancellation_and_reciprocal():
    args = [0.3 + 0.4j, 1.7]
    assert gamma_ratio(args, args) == pytest.approx(1.0, rel=1e-14)
    rng = np.random.default_rng(2)
    a = list(rng.uniform(0.2, 3.0, 3))
    b = list(rng.uniform(0.2, 3.0, 3))
    assert gamma_ratio(a, b) * gamma_ratio(b, a) == pytest.approx(1.0, rel=1e-12)


def test_gamma_ratio_overflow_safe():
    # individual Gammas overflow float64 but the ratio is tame
    val = gamma_ratio([500.25], [500.75])
    want = complex(mp.gamma(mp.mpf("500.25")) / mp.gamma(mp.mpf("500.75")))
    assert val == pytest.approx(want, rel=1e-11)


def test_gamma_ratio_pole_sides_reported():
    with pytest.raises(PoleError, match="numerator"):
        gamma_ratio([-1.0], [0.5])
    with pytest.raises(PoleError, match="denominator"):
        gamma_ratio([0.5], [0.0])


def test_q_gamma_trivial_values():
    for q in (0.2, 0.7, 0.95):
        assert q_gamma(1.0, q) == pytest.approx(1.0, rel=1e-12)
        assert q_gamma(2.0, q) == pytest.approx(1.0, rel=1e-12)


def test_q_gamma_classical_limit():
    # q -> 1 recovers the ordinary Gamma function
    val = q_gamma(0.5, 1.0 - 1e-4)
    assert val == pytest.approx(np.sqrt(np.pi), rel=1e-3)


def test_q_gamma_monotone_refinement(monkeypatch):
    # refining the truncation converges toward the Gamma value
    errs = []
    for tol in (1e-4, 1e-8, 1e-12):
        monkeypatch.setattr(special_functions, "TAIL_TOL", tol)
        val = q_gamma(0.5, 1.0 - 1e-3)
        errs.append(abs(val - np.sqrt(np.pi)))
    assert errs[2] <= errs[1] + 1e-12 <= errs[0] + 2e-12


def test_q_gamma_recurrence():
    # Gamma_q(x+1) = [x]_q Gamma_q(x) with [x]_q = (1-q^x)/(1-q)
    q, x = 0.6, 1.3 + 0.4j
    lhs = q_gamma(x + 1, q)
    rhs = (1 - q ** x) / (1 - q) * q_gamma(x, q)
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_q_gamma_pole_and_domain(monkeypatch):
    with pytest.raises(PoleError):
        q_gamma(0.0, 0.5)
    with pytest.raises(ValueError):
        q_gamma(0.5, 1.5)
    monkeypatch.setattr(special_functions, "MAX_TERMS", 100)
    with pytest.raises(ConvergenceError):
        q_gamma(0.5, 1 - 1e-6)


def test_infinite_product_of_ones():
    val, tail = infinite_gamma_product(1.0, [1.0], [1.0], 0.0)
    assert val == pytest.approx(1.0, abs=1e-14)


# prod_{k>=0} (k+a)(k+b) / ((k+c)(k+d)) with a+b = c+d equals
# Gamma(c) Gamma(d) / (Gamma(a) Gamma(b)); written in Gamma-ratio factors
# the log terms decay like c2/k^2 with c2 = -(a^2+b^2-c^2-d^2)/2
_A, _B, _C, _D = 0.5, 2.5, 1.0, 2.0
CLASSICAL = ([_A + 1, _B + 1, _C, _D], [_A, _B, _C + 1, _D + 1],
             -(_A * _A + _B * _B - _C * _C - _D * _D) / 2.0)
CLASSICAL_VALUE = 4.0 / (3.0 * np.pi)   # Gamma(1)Gamma(2) / (Gamma(1/2)Gamma(5/2))


def test_infinite_product_classical_value():
    # each log-Gamma is of size k log k; only the balanced sum of a
    # factor's log-Gammas keeps its log to the rounding of the offsets
    val, tail = infinite_gamma_product(1.0, *CLASSICAL)
    assert val == pytest.approx(CLASSICAL_VALUE, rel=1e-7)
    assert tail < 1e-9
    assert abs(np.log(val / CLASSICAL_VALUE)) <= tail


def test_infinite_product_rejects_unbalanced_factors():
    with pytest.raises(ValueError, match="as many"):
        infinite_gamma_product(1.0, [1.0, 2.0], [1.5], 0.0)


def test_infinite_product_tail_tol_sets_where_it_stops(monkeypatch):
    # a looser tail_tol (the critical T+- product passes 1e-9) stops at an
    # earlier factor; the completed tail keeps each value within its
    # estimate.  The tail is completed from the first factor not taken
    reach = []
    tail_from = special_functions._hurwitz_tail
    monkeypatch.setattr(special_functions, "_hurwitz_tail",
                        lambda s, k0: reach.append(k0) or tail_from(s, k0))
    for tol in (1e-6, 1e-9, 1e-12):
        val, tail = infinite_gamma_product(1.0, *CLASSICAL, tol)
        assert 0 < tail < 1e3 * tol
        assert abs(val / CLASSICAL_VALUE - 1) <= 3 * tail, tol
        assert abs(np.log(val / CLASSICAL_VALUE)) <= tail, tol
    assert reach[0] < reach[1] < reach[2]


def test_infinite_product_completes_the_tail_with_its_coefficient():
    # with the true c2 the truncated product is completed; with c2 = 0 the
    # same factors leave the neglected tail, orders of magnitude larger,
    # which its estimate still bounds
    num, den, c2 = CLASSICAL
    completed, tail = infinite_gamma_product(1.0, num, den, c2, 1e-9)
    bare, bare_tail = infinite_gamma_product(1.0, num, den, 0.0, 1e-9)
    assert abs(completed / CLASSICAL_VALUE - 1) < 1e-8
    assert abs(np.log(completed / CLASSICAL_VALUE)) <= tail
    assert abs(np.log(bare / CLASSICAL_VALUE)) <= bare_tail
    assert abs(bare / CLASSICAL_VALUE - 1) > 1e3 * abs(completed / CLASSICAL_VALUE - 1)


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
    # the path behind infinite_gamma_product, bit for bit
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
                           decay=1.0, discrete=True)
    assert amplitude_sum(zero_d, 0.7, 0.5).value == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        amplitude_sum(zero_d, 0.7, -0.5)
    with pytest.raises(ValueError):
        amplitude_integral(zero_d, 0.7)
    # a kernel without a finite origin prescription is rejected
    bad = FourierKernel("bad", lambda w: 1.0 / np.asarray(w, dtype=float),
                        odd_kind="divergent", decay=1.0)
    with pytest.raises(ValueError, match="origin"):
        amplitude_integral(bad, 0.7)


def test_quadrature_spec_validation():
    # the half-line rule is sized from the kernel's decay, which must be
    # positive for a finite cutoff
    flat = FourierKernel("flat", lambda w: np.exp(-np.abs(np.asarray(w, dtype=float))),
                         decay=0.0)
    with pytest.raises(ValueError, match="decay"):
        amplitude_integral(flat, 0.7)
