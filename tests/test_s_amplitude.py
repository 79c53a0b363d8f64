"""The closed route of the critical bulk S-matrix prefactor S_s: its Gamma
product summed by infinite_gamma_product (a short exact head and a
Stirling-Bernoulli tail), the i lam half at real lam and the whole product
at complex lam, checked against mpmath sums of the exact log-factors and
against each other."""
import warnings

import mpmath as mp
import numpy as np
import pytest
from product_oracle import log_gamma_product

from defectchain import special_functions
from defectchain.lax_defect import RegimeParams
from defectchain.special_functions import ConvergenceError, PoleError, infinite_gamma_product
from defectchain.transmission_amplitudes import soliton_s_amplitude


def _log_factor(k, lam, g):
    """Im of the k-th log-factor of S_s at real lam (the -i lam half is its
    conjugate), from mpmath's loggamma."""
    z = 2 * g * k + 1j * lam
    return mp.im(mp.loggamma(z + 2 * g) + mp.loggamma(z + 1)
                 - mp.loggamma(z + g) - mp.loggamma(z + g + 1))


def _nsum_oracle(lam: float, g: float) -> complex:
    """S_s(lam) = exp(2i sum_k Im w_k) by a 30-digit mpmath sum: the first
    (|lam| + 1 + 2g) / 2g factors one by one, the rest by mpmath.nsum over
    blocks of 1 / 2g factors, so the summand varies on a unit scale (nsum's
    extrapolation fails on the raw factors once 2g is small)."""
    with mp.workdps(30):
        lam, g = mp.mpf(lam), mp.mpf(g)
        head_len = int(mp.ceil((abs(lam) + 1 + 2 * g) / (2 * g)))
        block = int(mp.ceil(1 / (2 * g)))
        head = mp.fsum(_log_factor(k, lam, g) for k in range(head_len))
        tail = mp.nsum(lambda j: mp.fsum(_log_factor(head_len + int(j) * block + i, lam, g)
                                         for i in range(block)), [0, mp.inf])
        return complex(mp.expj(2 * (head + tail)))


# |lam| per mu; S_s(-lam) is the conjugate of S_s(lam), so each oracle value
# checks both signs.  An oracle point costs about 0.15 s at mu <= 1.5, 0.7 s
# at mu = 2.5 and 3.5 s at mu = 3 (the blocks grow like 1 / 2g), so the two
# largest mu take fewer points, the widest |lam| among them.
ORACLE_GRID = {0.3: (0.45, 1.7, 4.2, 10.0), 0.7: (0.45, 1.7, 4.2, 10.0),
               1.5: (0.45, 1.7, 4.2, 10.0), 2.5: (1.7, 10.0), 3.0: (10.0,)}


@pytest.mark.parametrize("mu", sorted(ORACLE_GRID))
def test_closed_critical_s_amplitude_matches_mpmath(mu):
    params = RegimeParams.critical(mu)
    assert soliton_s_amplitude(params, 0.0) == 1.0
    for lam in ORACLE_GRID[mu]:
        want = _nsum_oracle(lam, params.gamma)
        for x, w in ((lam, want), (-lam, want.conjugate())):
            got = soliton_s_amplitude(params, x)
            assert abs(got - w) <= 1e-13 * abs(w), (mu, x, abs(got - w))


def _full_product(g, lam):
    """The whole S_s Gamma product at lam, i lam half over -i lam half, as
    offsets above and below (il = i lam)."""
    il = 1j * lam
    return ([il + 2 * g, il + 1, -il + g, -il + g + 1],
            [il + g, il + g + 1, -il + 2 * g, -il + 1])


@pytest.mark.parametrize("mu, lam", [(0.3, -10.0), (1.5, -1.7), (3.0, 0.45)])
def test_closed_critical_s_amplitude_matches_literal_product(mu, lam):
    # at real lam the route sums the i lam half alone; the whole product,
    # both halves, lands within 6.0e-15 of it here
    params = RegimeParams.critical(mu)
    full, _ = infinite_gamma_product(2.0 * params.gamma, *_full_product(params.gamma, lam))
    assert abs(soliton_s_amplitude(params, lam) - np.exp(full)) <= 2e-14


@pytest.mark.parametrize("mu, lam", [(0.3, 0.4 + 0.3j), (0.7, -1.3 + 1.1j), (1.5, 2.0 - 0.2j)])
def test_complex_critical_s_amplitude_matches_mpmath(mu, lam):
    # the whole product at complex lam against a 30-digit sum of its
    # log-Gammas, built from the same gamma and lam so that they balance
    params = RegimeParams.critical(mu)
    g = params.gamma
    ln, err = infinite_gamma_product(2.0 * g, *_full_product(g, lam))
    with mp.workdps(30):
        gap = abs(complex(ln - log_gamma_product(2 * mp.mpf(g),
                                                 *_full_product(mp.mpf(g), mp.mpc(lam)))))
    assert gap <= 1e-14 and gap <= err, (gap, err)
    assert soliton_s_amplitude(params, lam) == np.exp(ln)


@pytest.mark.parametrize("shift", [0.0, 1.0])
def test_complex_critical_s_amplitude_pole_names_lam(shift):
    # at lam = i (gamma + shift) a Gamma below sits at 0 or -1: a PoleError
    # naming lam, with no division by zero or other warning
    params = RegimeParams.critical(0.7)
    lam = 1j * (params.gamma + shift)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleError, match="S_s: a Gamma pole at lam = ") as info:
            soliton_s_amplitude(params, np.array([0.3, lam]))
    assert info.value.location == pytest.approx(lam)


def _head_factors(monkeypatch, params, lam) -> tuple[int, int]:
    """(K, finite Gamma-ratio pairs) of one closed S_s call: K is read off
    the offset of the tail's Hurwitz zeta, K + (gamma + 1/2 + i lam) / (2
    gamma); a pair is a call of the finite ratios' series coefficients."""
    offsets, points = [], []
    tail = special_functions._hurwitz_tail
    pair_series = special_functions._pair_series

    def spy_tail(s, k0):
        offsets.extend(np.ravel(k0))
        return tail(s, k0)

    def spy_pair_series(delta):
        points.append(1)
        return pair_series(delta)

    with monkeypatch.context() as m:
        m.setattr(special_functions, "_hurwitz_tail", spy_tail)
        m.setattr(special_functions, "_pair_series", spy_pair_series)
        soliton_s_amplitude(params, lam)
    g = params.gamma
    (k0,) = offsets
    return round(k0.real - (g + 0.5) / (2.0 * g)), sum(points)


def test_closed_critical_s_amplitude_work_bound(monkeypatch):
    # the route it replaced summed 2048 or more factors of four log-Gammas
    for mu in np.linspace(0.6, 0.8, 5):
        params = RegimeParams.critical(mu)
        for lam in np.linspace(-3.0, 3.0, 13):
            head, points = _head_factors(monkeypatch, params, lam)
            assert 0 <= head <= 64, (mu, lam, head)
            assert points == 0


def test_closed_critical_s_amplitude_cap_raises(monkeypatch):
    # K = 58 near factors at lam = 0.3, each moved out by M = 6
    params = RegimeParams.critical(3.0)
    monkeypatch.setattr(special_functions, "MAX_TERMS", 347)
    with pytest.raises(ConvergenceError, match="cap is 347"):
        soliton_s_amplitude(params, 0.3)
    monkeypatch.setattr(special_functions, "MAX_TERMS", 348)
    assert abs(soliton_s_amplitude(params, 0.3)) == pytest.approx(1.0, abs=1e-15)


def test_closed_critical_s_amplitude_tight_tail_tol_adds_factors(monkeypatch):
    # at TAIL_TOL 1e-12 the fixed reach 6 max(max|h|, 1) already bounds the
    # omitted n = 21, 22 terms for every gamma; a tighter TAIL_TOL moves the
    # reach out, so more factors are summed exactly
    params = RegimeParams.critical(2.5)
    default, _ = _head_factors(monkeypatch, params, 0.3)
    value = soliton_s_amplitude(params, 0.3)
    monkeypatch.setattr(special_functions, "TAIL_TOL", 1e-16)
    more, _ = _head_factors(monkeypatch, params, 0.3)
    assert more > default
    assert abs(soliton_s_amplitude(params, 0.3) - value) <= 1e-14


@pytest.mark.parametrize("params", [RegimeParams.xxx(), RegimeParams.critical(0.7),
                                    RegimeParams.noncritical(0.5)])
def test_s_amplitude_has_no_product_route(params):
    # S_s has no literal-product route at real lam, so no regime offers one
    with pytest.raises(ValueError, match="route 'product' not available"):
        soliton_s_amplitude(params, 0.3, route="product")
