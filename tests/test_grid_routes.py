"""Grid evaluation of the amplitude routes: a grid call equals per-point
scalar calls, every error estimate is measured and bounds the observed
error, and the critical anchor holds out to slowly decaying kernels."""
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectchain.cli import main
from defectchain.lax_defect import RegimeParams
from defectchain.special_functions import (_LOG_GAMMA_REL, ConvergenceError,
                                           amplitude_sum, log_gamma, q_gamma)
from defectchain.transmission_amplitudes import (amplitude,
                                                 breather_amplitude, kernel,
                                                 soliton_s_amplitude, type2_amplitude)

mp.mp.dps = 30

XXX = RegimeParams.xxx()
CRIT_G15 = RegimeParams.critical(np.pi / 2.5)    # gamma = 1.5, the acceptance 5a grid


def _crit_ln_anchor(gamma):
    """ln T+(0) = -ln(2)/2 - 2 int_0^inf (cosh(g w/2) - cosh(w/2))
    / (4 sinh(w/2) cosh(g w/2)) dw/w, by mpmath."""
    g = mp.mpf(gamma)

    def f(w):
        return (mp.cosh(g * w / 2) - mp.cosh(w / 2)) / (4 * mp.sinh(w / 2) * mp.cosh(g * w / 2)) / w

    return -mp.log(2) / 2 - 2 * mp.quad(f, [0, 1, 10, 100, 1000, mp.inf])


@pytest.mark.parametrize("mu", [0.7, 2.5, 2.9])
def test_critical_anchor_matches_mpmath(mu):
    # the anchor's kernel decays like e^{-min(gamma, 1) w / 2}; near mu = pi
    # (gamma -> 0) a fixed cutoff truncates it
    params = RegimeParams.critical(mu)
    want = complex(mp.exp(_crit_ln_anchor(params.gamma)))
    got = amplitude(params, "+", 0.0).value
    assert abs(got - want) / abs(want) < 1e-10


def test_critical_table_route_gap_at_mu_2_5(tmp_path):
    out = tmp_path / "crit.csv"
    assert main(["amplitude", "--regime", "critical", "--mu", "2.5", "--grid=-2:2:41",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    cols = lines[0].split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    assert len(rows) == 41
    for row in rows:
        scale = max(abs(complex(float(row["re_t_plus"]), float(row["im_t_plus"]))),
                    abs(complex(float(row["re_t_minus"]), float(row["im_t_minus"]))))
        assert float(row["route_discrepancy"]) / scale <= 1e-6, row


# ------------------------------------------------------- grid equals scalars

def _cases():
    """(label, fn(lam) -> value(s)) for every family, route and regime."""
    crit = RegimeParams.critical(0.7)
    nc = RegimeParams.noncritical(0.5)
    g = crit.gamma
    cases = []
    for sign in ("+", "-"):
        cases += [(f"xxx {sign} {r}", lambda x, s=sign, r=r: amplitude(XXX, s, x, r).value)
                  for r in ("closed", "integral")]
        cases += [(f"crit {sign} {r}", lambda x, s=sign, r=r: amplitude(crit, s, x, r).value)
                  for r in ("closed", "integral", "product")]
        cases += [(f"nc {sign} {r}", lambda x, s=sign, r=r: amplitude(nc, s, x, r).value)
                  for r in ("closed", "sum")]
        cases += [(f"breather {sign} n={n}",
                   lambda x, s=sign, n=n: breather_amplitude(s, n, x, g).value)
                  for n in (1, 2, 3)]
    cases.append(("breather + integral",
                  lambda x: breather_amplitude("+", 1, x, g, "integral").value))
    cases += [(f"type2 {r}", lambda x, r=r: type2_amplitude(x, 0.5, 1.5, r).value)
              for r in ("closed", "sum")]
    for params, routes in ((XXX, ("closed", "integral")), (crit, ("closed", "integral")),
                           (nc, ("closed", "sum"))):
        cases += [(f"S_s {params.regime} {r}",
                   lambda x, p=params, r=r: soliton_s_amplitude(p, x, r)) for r in routes]
    cases.append(("q_gamma", lambda x: q_gamma(0.3 - 0.5j * np.asarray(x), 0.2)))
    return cases


CASES = _cases()


def _scalar(fn, x):
    try:
        return complex(fn(x))
    except ZeroDivisionError:
        return None   # a pole


@given(st.sampled_from(range(len(CASES))),
       st.lists(st.sampled_from([0.0, -4.0, 3.9]) | st.floats(-4.0, 4.0),
                min_size=1, max_size=5))
@settings(max_examples=120, deadline=None)
def test_grid_equals_scalar_calls(case, points):
    label, fn = CASES[case]
    grid = np.array(points)
    values = np.asarray(fn(grid))
    assert values.shape == grid.shape, label
    for x, v in zip(grid, values):
        one = _scalar(fn, float(x))
        if one is None:
            assert not np.isfinite(v), (label, x)   # the pole row reads NaN
            continue
        assert abs(v - one) <= 1e-13 * abs(one), (label, x, v, one)


def test_pole_row_does_not_blank_its_table(tmp_path):
    out = tmp_path / "b2.csv"
    main(["amplitude", "--regime", "critical", "--mu", "0.7", "--family", "breather",
          "--breather-n", "2", "--grid=-2:2:41", "--out", str(out)])
    lines = out.read_text().splitlines()[1:]
    cols = lines[0].split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    noted = [row for row in rows if row["note"]]
    assert [float(row["lam_hat"]) for row in noted] == [0.0]
    assert noted[0]["note"].startswith("pole:breather amplitude pole: sinh zero at theta_hat =")
    assert all(np.isfinite(float(row["re_t_plus"])) for row in rows if not row["note"])


def test_critical_closed_route_in_the_complex_strip():
    # the resummed integral converges for |Im lam| < gamma/2 and must agree
    # there with the literal Gamma-ratio product
    params = RegimeParams.critical(0.7)
    half = params.gamma / 2.0
    z = np.array([0.3 + 0.2j, -1.1 + 0.9j, 0.3 + 0.94j * half])
    closed = amplitude(params, "+", z)
    product = amplitude(params, "+", z, "product").value
    assert np.all(np.isfinite(closed.value)) and np.all(np.isfinite(closed.error_estimate))
    assert np.all(np.abs(closed.value - product) < 1e-6 * np.abs(product))
    # nearer the edge the phases e^{|Im lam| t} would overflow before the
    # rule's cutoff: a clear error, not a NaN
    with pytest.raises(ValueError, match="overflow"):
        amplitude(params, "+", 0.3 + 0.97j * half)
    with pytest.raises(ValueError, match="gamma/2"):
        amplitude(params, "+", 0.3 + 2.0j)


# --------------------------------------------------------- error estimates

GRIDS = [(XXX, np.linspace(-2.0, 2.0, 21)), (CRIT_G15, np.linspace(-2.0, 2.0, 21)),
         (RegimeParams.critical(2.0), np.linspace(-2.0, 2.0, 41)),
         (RegimeParams.critical(2.5), np.linspace(-2.0, 2.0, 41))]


@pytest.mark.parametrize("params,grid", GRIDS, ids=["xxx", "crit-g1.5", "mu2.0", "mu2.5"])
def test_error_estimates_bound_the_route_gap(params, grid):
    for sign in ("+", "-"):
        closed = amplitude(params, sign, grid, "closed")
        quad = amplitude(params, sign, grid, "integral")
        gap = np.abs(closed.value - quad.value)
        assert np.all(gap <= closed.error_estimate + quad.error_estimate), sign
        # measured, not a blanket constant: far below the 1e-6 route gate
        for res in (closed, quad):
            assert np.all(res.error_estimate < 1e-10 * np.abs(res.value))


@pytest.mark.parametrize("mu", [0.7, 2.5])
def test_each_estimate_bounds_its_own_error(mu):
    # the exact T+(lam) from the same integrals at 30 digits
    params = RegimeParams.critical(mu)
    g = mp.mpf(params.gamma)
    ln_a = _crit_ln_anchor(params.gamma)
    for x in (-1.7, 0.4):
        lam = mp.mpf(x)

        def f(t):
            num = ((mp.exp(-g * t / 2) * (mp.exp(-1j * lam * t) - 1)
                    + mp.exp(-(g / 2 + 1) * t) * (mp.exp(1j * lam * t) - 1))
                   * (1 - mp.exp(-g * t)))
            return num / ((1 - mp.exp(-t)) * (1 - mp.exp(-2 * g * t)) * t)

        exact = complex(mp.exp(ln_a + mp.quad(f, [0, 1, 10, 100, 1000, mp.inf])))
        for route in ("closed", "integral"):
            res = amplitude(params, "+", x, route)
            assert abs(res.value - exact) <= res.error_estimate, (route, x)


def test_log_gamma_error_model():
    # the closed routes charge _LOG_GAMMA_REL * (1 + |log Gamma|) per value
    for re in (0.25, 0.5, 0.75, 1.0):
        for im in np.linspace(-60.0, 60.0, 61):
            z = complex(re, im)
            lg = complex(log_gamma(z))
            d = lg - complex(mp.loggamma(z))
            d = complex(d.real, (d.imag + np.pi) % (2 * np.pi) - np.pi)   # branch
            assert abs(d) <= _LOG_GAMMA_REL * (1.0 + abs(lg)), z


def test_mode_sum_cap_raises_before_allocating():
    kern = kernel(RegimeParams.noncritical(1e-6), "rt_plus")
    with pytest.raises(ConvergenceError, match="modes"):
        amplitude_sum(kern, np.linspace(-2.0, 2.0, 41), 1e-6)
