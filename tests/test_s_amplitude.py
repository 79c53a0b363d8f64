"""The closed route of the critical bulk S-matrix prefactor S_s at real lam:
a short exact head and a Stirling-Bernoulli tail, checked against an mpmath
sum of the exact log-factors and against the literal Gamma product."""
import mpmath as mp
import numpy as np
import pytest

import defectchain.transmission_amplitudes as ta
from defectchain import special_functions
from defectchain.lax_defect import RegimeParams
from defectchain.special_functions import ConvergenceError
from defectchain.transmission_amplitudes import (_s2_critical_product,
                                                 soliton_s_amplitude)


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


@pytest.mark.parametrize("mu, lam", [(0.3, -10.0), (1.5, -1.7), (3.0, 0.45)])
def test_closed_critical_s_amplitude_matches_literal_product(mu, lam):
    # at tail_tol 1e-12 the literal product runs until its residuals sink
    # into their rounding, 3e4 to 1.2e5 factors here, and lands within
    # 2e-10 of the closed value; the gate is 5e-5
    params = RegimeParams.critical(mu)
    literal = _s2_critical_product(complex(lam), params.gamma)
    assert abs(soliton_s_amplitude(params, lam) - literal) <= 5e-5


def _head_factors(monkeypatch, params, lam) -> tuple[int, int]:
    """(K, log-Gamma points) of one closed S_s call: K is read off the
    offset of the tail's Hurwitz zeta, K + (gamma + 1/2 + i lam) / (2 gamma)."""
    offsets, points = [], []
    tail = ta._hurwitz_tail
    log_gamma = special_functions.log_gamma

    def spy_tail(s, k0):
        offsets.append(k0)
        return tail(s, k0)

    def spy_log_gamma(z):
        points.append(np.size(z))
        return log_gamma(z)

    with monkeypatch.context() as m:
        m.setattr(ta, "_hurwitz_tail", spy_tail)
        m.setattr(special_functions, "log_gamma", spy_log_gamma)
        m.setattr(ta, "log_gamma", spy_log_gamma, raising=False)
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
    params = RegimeParams.critical(3.0)      # K = 58 at lam = 0.3
    monkeypatch.setattr(ta, "MAX_TERMS", 40)
    with pytest.raises(ConvergenceError, match="cap is 40"):
        soliton_s_amplitude(params, 0.3)
    monkeypatch.setattr(ta, "MAX_TERMS", 64)
    assert abs(soliton_s_amplitude(params, 0.3)) == pytest.approx(1.0, abs=1e-15)


def test_closed_critical_s_amplitude_tight_tail_tol_adds_factors(monkeypatch):
    # at TAIL_TOL 1e-12 the fixed reach 6 max(max|h|, 1) already bounds the
    # omitted n = 21, 22 terms for every gamma; a tighter TAIL_TOL moves the
    # reach out, so more factors are summed exactly
    params = RegimeParams.critical(2.5)
    default, _ = _head_factors(monkeypatch, params, 0.3)
    value = soliton_s_amplitude(params, 0.3)
    monkeypatch.setattr(ta, "TAIL_TOL", 1e-16)
    more, _ = _head_factors(monkeypatch, params, 0.3)
    assert more > default
    assert abs(soliton_s_amplitude(params, 0.3) - value) <= 1e-14


@pytest.mark.parametrize("params", [RegimeParams.xxx(), RegimeParams.critical(0.7),
                                    RegimeParams.noncritical(0.5)])
def test_s_amplitude_has_no_product_route(params):
    # S_s has no literal-product route at real lam, so no regime offers one
    with pytest.raises(ValueError, match="route 'product' not available"):
        soliton_s_amplitude(params, 0.3, route="product")
