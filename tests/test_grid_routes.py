"""Grid evaluation of the amplitude routes: a grid call equals per-point
scalar calls, a pair of signs equals two single-sign calls, every error
estimate is measured and bounds the observed error, and the critical anchor
holds out to slowly decaying kernels."""
import csv
import os
import resource
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from product_oracle import log_gamma_product

from defectchain import special_functions, transmission_amplitudes
from defectchain.cli import main
from defectchain.lax_defect import RegimeParams
from defectchain.special_functions import (_KRONROD, BLOCK, ConvergenceError,
                                           FloatRangeError, _half_line_rule, _half_sin_cos,
                                           _mode_rule,
                                           amplitude_integral, gamma_ratio, q_gamma_ratio)
from defectchain.transmission_amplitudes import (_critical_anchor, amplitude, amplitude_pair,
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
    cases.append(("gamma_ratio", lambda x: gamma_ratio([0.3 - 3.5j * np.asarray(x)], [1.0])))
    cases.append(("q_gamma_ratio", lambda x: q_gamma_ratio(
        [0.3 - 0.5j * np.atleast_1d(x)], [1.0], 0.2, np.atleast_1d(x))[0].reshape(np.shape(x))))
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


def _rule_routes():
    """(label, fn(lam) -> list of value arrays) for every route that sums a
    half-line rule or modes: its values at every point of lam."""
    crit, nc = RegimeParams.critical(0.7), RegimeParams.noncritical(0.5)
    return {
        "integral pair": lambda x: [r.value for r in amplitude_pair(crit, x, "integral")]
        + [r.value for r in amplitude_pair(XXX, x, "integral")],
        "critical closed pair": lambda x: [r.value for r in amplitude_pair(crit, x)],
        "breather integral": lambda x: [breather_amplitude("+", 1, x, crit.gamma,
                                                           "integral").value],
        "S_s integral": lambda x: [soliton_s_amplitude(crit, x, "integral"),
                                   soliton_s_amplitude(XXX, x, "integral")],
        "mode sums": lambda x: [r.value for r in amplitude_pair(nc, x, "sum")]
        + [type2_amplitude(x, 0.5, 1.5, "sum").value, soliton_s_amplitude(nc, x, "sum")],
    }


RULE_ROUTES = _rule_routes()


@pytest.mark.parametrize("route", list(RULE_ROUTES))
def test_grid_rows_are_lone_points_bit_for_bit(monkeypatch, route):
    # every block of rows goes through the same matrix product (a lone row
    # as a row of two, mode sums with two rule columns), so the grid walked
    # in blocks of 1, 2, 3 and 7 rows, and each point alone, read the whole
    # grid's bits; |lam| <= 3 keeps every call on the same rules
    fn, grid = RULE_ROUTES[route], np.linspace(-2.9, 2.7, 23)
    rule_sums, rows, rules = special_functions._rule_sums, [0], [[]]

    def spy(lam, freq, *rest):
        rules[-1].append((freq.size, freq[-1]))
        monkeypatch.setattr(special_functions, "BLOCK", rows[0] * freq.size or BLOCK)
        return rule_sums(lam, freq, *rest)

    monkeypatch.setattr(special_functions, "_rule_sums", spy)
    fn(grid)        # the critical anchor is cached from here on
    rules.append([])
    whole = np.array(fn(grid))
    assert whole.shape[1:] == grid.shape
    for rows[0] in (1, 2, 3, 7):
        rules.append([])
        assert np.array_equal(np.array(fn(grid)), whole), (route, rows[0])
    rows[0] = 0
    for k, x in enumerate(grid):
        rules.append([])
        assert np.array_equal(np.array(fn(np.array([x])))[:, 0], whole[:, k]), (route, x)
        rules.append([])
        assert np.array_equal(np.array(fn(float(x)), dtype=complex), whole[:, k]), (route, x)
    assert all(seen == rules[1] for seen in rules[1:])


@pytest.mark.parametrize("rule", ["xxx", "critical", "modes"])
def test_blas_rounds_every_row_block_of_a_rule_product_alike(rule):
    # the precondition of the lone-point tests above and of CI's lone-row
    # step: _rule_sums takes (rows, nodes) x (nodes, 4) products (2 rules x
    # re/im) in blocks of 1 (as 2 equal rows) to BLOCK // nodes rows, and
    # each row must come out of every block alike
    if rule == "modes":
        _, freq, weights, groups = _mode_rule(0.5, 0.5)
    else:
        decay = kernel(RegimeParams.xxx() if rule == "xxx" else CRIT_07, "rt_plus").decay
        freq, weights, groups = _half_line_rule(decay, 3.0)
    step = BLOCK // freq.size
    sin, _ = _half_sin_cos(0.5 * np.linspace(-2.9, 2.7, step), groups)
    nodes = freq[:-1, None]
    cols = np.concatenate([weights[:-1], weights[:-1] * np.exp(-nodes) / (1.0 + nodes)], axis=1)
    product = sin * sin @ cols
    checked = 0
    for rows in range(1, step + 1):
        for at in range(0, step, rows):
            block = sin[at:at + rows] ** 2
            got = (block.repeat(2, axis=0) if len(block) == 1 else block) @ cols
            if not np.array_equal(got[:len(block)], product[at:at + rows]):
                blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
                pytest.fail(f"this BLAS rounds a ({len(block)}, {nodes.size}) x ({nodes.size}, "
                            f"4) product unlike the same rows of a ({step}, {nodes.size}) one, "
                            f"so a lone point cannot read its grid row bit for bit: {blas}")
            checked += 1
    assert checked > step


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
    product = amplitude(params, "+", z, "product")
    assert np.all(np.isfinite(closed.value)) and np.all(np.isfinite(closed.error_estimate))
    gap = np.abs(closed.value - product.value)
    assert np.all(gap < 1e-6 * np.abs(product.value))
    assert np.all(gap <= product.error_estimate + closed.error_estimate)
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


@pytest.mark.parametrize("mu", [0.3, 0.7, 2.0])
def test_product_route_matches_mpmath(mu):
    # the literal product route at lam_hat = -10, -2.5, 0.4 against T+ = A r from a
    # 30-digit anchor and a 30-digit sum of the product's log-Gammas
    params = RegimeParams.critical(mu)
    g = mp.mpf(params.gamma)
    ln_a = _crit_ln_anchor(params.gamma)
    for x in (-10.0, -2.5, 0.4):
        il = 1j * mp.mpf(x)
        ln_r = log_gamma_product(2 * g, [g / 2 + il, g / 2 + 1 - il, 3 * g / 2, 3 * g / 2 + 1],
                                 [3 * g / 2 + il, 3 * g / 2 + 1 - il, g / 2, g / 2 + 1])
        exact = complex(mp.exp(ln_a + ln_r))
        res = amplitude(params, "+", x, "product")
        assert abs(res.value - exact) <= min(res.error_estimate, 1e-13 * abs(exact)), x


def test_mode_sum_cap_raises_before_allocating():
    kern = kernel(RegimeParams.noncritical(1e-6), "rt_plus")
    with pytest.raises(ConvergenceError, match="modes"):
        amplitude_integral(kern, np.linspace(-2.0, 2.0, 41))


# ------------------------------------- angle addition against direct trig

def direct_trig_sums(lam, freq, weights, a, b, c):
    """The fine rule's sums with sin and cos taken at every (lam, node)
    pair, in the blocks and products the rule used before it shared them
    across panels (a lone point, as there, a row of two): the oracle for
    the angle-addition evaluation."""
    real = not np.iscomplexobj(lam)
    wa = np.multiply(weights, 4.0 * a[:, None], dtype=np.complex128)
    wb = np.multiply(weights, 2.0 * b[:, None], dtype=np.complex128)
    if real:
        wa, wb = wa.view(float), wb.view(float)
    ln = np.empty((lam.size, weights.shape[1]), dtype=np.complex128)
    step = max(1, BLOCK // freq.size)
    for i in range(0, lam.size, step):
        half = np.multiply.outer(np.resize(lam[i:i + step], max(2, lam[i:i + step].size)),
                                 0.5 * freq)
        s, sin_phi = np.sin(half), np.cos(half)
        sin_phi *= 2.0 * s
        s *= s
        sa, sb = s @ wa, sin_phi @ wb
        if real:
            sa, sb = sa.view(np.complex128), sb.view(np.complex128)
        ln[i:i + step] = (sa + 1j * sb)[:ln[i:i + step].shape[0]]
    ln += weights.T @ c
    return ln[:, 0]


def exact_phase_sums(lam, freq, weights, a, b, c):
    """The fine rule's sums on the same nodes, weights and terms, with the
    phases, sin and cos and the sums in long double: the rule's value less
    the float rounding its error estimate must charge."""
    ld = np.longdouble
    half = np.multiply.outer(np.asarray(lam, dtype=ld), np.asarray(freq, dtype=ld)) / 2
    s2, sin_phi = 4 * np.sin(half) ** 2, 2 * np.sin(2 * half)
    w = weights[:, 0].astype(ld)
    a, b, c = (np.asarray(t, dtype=np.complex128) for t in (a, b, c))
    re = (s2 @ (w * a.real.astype(ld)) - sin_phi @ (w * b.imag.astype(ld))
          + (w * c.real.astype(ld)).sum())
    im = (s2 @ (w * a.imag.astype(ld)) + sin_phi @ (w * b.real.astype(ld))
          + (w * c.imag.astype(ld)).sum())
    return re.astype(float) + 1j * im.astype(float)


def rule_calls(monkeypatch, compute, oracle=direct_trig_sums):
    """Run compute() and return, for every rule evaluation it made, the
    values and error bounds the rule returned and the oracle's values."""
    seen = []
    rule_sums = special_functions._rule_sums

    def spy(lam, freq, groups, weights, tail_length, a, b, c, c_size=None):
        value, err = rule_sums(lam, freq, groups, weights, tail_length, a, b, c, c_size)
        seen.append((value, err, oracle(lam, freq, weights, a, b, c)))
        return value, err

    monkeypatch.setattr(special_functions, "_rule_sums", spy)
    compute()
    assert seen
    return seen


CRIT_07 = RegimeParams.critical(0.7)
ANGLE_CASES = {
    "1 point": lambda: amplitude(CRIT_07, "+", 0.37, "integral"),
    "5 points": lambda: amplitude(XXX, "-", np.linspace(-1.0, 1.0, 5), "integral"),
    "121 points": lambda: amplitude(CRIT_07, "+", np.linspace(-4.0, 4.0, 121), "integral"),
    "breather 121": lambda: breather_amplitude("+", 1, np.linspace(-4.0, 4.0, 121),
                                               CRIT_07.gamma, "integral"),
    # 601 points at |lam| <= 12 walk the rule in 61 blocks of BLOCK elements
    "601 points": lambda: amplitude(CRIT_07, "-", np.linspace(-12.0, 12.0, 601), "integral"),
    # the closed route's ratio integral, whose phases grow like e^{|Im lam| w}
    "complex strip": lambda: amplitude(
        CRIT_07, "+", np.linspace(-3.0, 3.0, 9) + 1j * np.linspace(-0.94, 0.94, 9)
        * CRIT_07.gamma / 2.0),
    "mode sums": lambda: (
        amplitude(RegimeParams.noncritical(0.5), "+", np.linspace(-4.0, 4.0, 121), "sum"),
        amplitude(RegimeParams.noncritical(0.01), "-", 0.3, "sum"),
        type2_amplitude(np.linspace(-2.0, 2.0, 41), 0.5, 1.5, "sum")),
}


@pytest.mark.parametrize("case", list(ANGLE_CASES))
def test_angle_addition_matches_direct_trig(monkeypatch, case):
    for value, err, direct in rule_calls(monkeypatch, ANGLE_CASES[case]):
        assert value.shape == direct.shape and np.all(np.isfinite(value))
        assert np.all(np.abs(value - direct) <= err), case


def test_mode_sums_are_bit_identical_to_direct_trig(monkeypatch):
    # a single group with base 0: sin(0) = 0 and cos(0) = 1 leave the
    # offsets' sin and cos untouched
    nc = RegimeParams.noncritical(0.5)
    for value, _, direct in rule_calls(
            monkeypatch, lambda: (amplitude(nc, "+", np.linspace(-4.0, 4.0, 121), "sum"),
                                  amplitude(nc, "-", 0.3, "sum"),
                                  type2_amplitude(np.linspace(-2.0, 2.0, 41), 0.5, 1.5, "sum"))):
        assert value.shape == direct.shape and np.array_equal(value, direct)


def test_mode_groups_rebuild_the_frequencies(monkeypatch):
    # at every eta the modes are one group with the base 0, whose offsets
    # are the frequencies 2 eta k to an ulp or two
    seen = []
    rule_sums = special_functions._rule_sums

    def spy(lam, freq, groups, *rest):
        value, err = rule_sums(lam, freq, groups, *rest)
        seen.append((freq, groups))
        return value, err

    monkeypatch.setattr(special_functions, "_rule_sums", spy)
    for eta in (0.5, 0.01):
        seen.clear()
        nc = RegimeParams.noncritical(eta)
        amplitude(nc, "+", np.linspace(-4.0, 4.0, 121), "sum")
        type2_amplitude(np.linspace(-2.0, 2.0, 41), eta, 1.5, "sum")
        assert len(seen) == 2
        for freq, groups in seen:
            ((bases, offsets, scales),) = groups
            assert scales is None
            assert np.array_equal((bases[:, None] + offsets).ravel(), freq[:-1])
            k = np.arange(1, freq.size + 1)
            assert np.all(np.abs(freq - 2.0 * eta * k) <= 4.0 * np.spacing(2.0 * eta * k))
            assert not bases.any() and bases.size == 1 and offsets.size == freq.size - 1


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
@pytest.mark.parametrize("case", ["mu 2.9", "eta 0.01", "eta 0.5", "phase 24", "lam 0"])
def test_estimates_charge_the_phase_rounding(monkeypatch, case):
    # near mu = pi the cutoff reaches w ~ 900, so the half phases lam w / 2
    # reach ~1800 and their rounding, ~eps * 1800 each, outweighs the
    # rounding of the summed terms; at max|lam| = 6 every panel of 4 carries
    # the largest phase, 24, and the doubled angles of the narrow panels
    # reach theirs.  The critical anchors are one-point rules at lam = 0
    # summing thousands of terms of one sign, whose rounding outgrows eps
    # times their sizes (2.4 times at mu = 2.5)
    grid = np.linspace(-4.0, 4.0, 121)
    if case in ("phase 24", "lam 0"):
        grid = np.linspace(-6.0, 6.0, 121) if case == "phase 24" else np.zeros(1)
        _critical_anchor.cache_clear()
        compute = lambda: ([amplitude(RegimeParams.critical(mu), "+", grid)
                            for mu in (0.7, 1.0, 2.5, 2.9)],
                           amplitude(CRIT_07, "-", grid, "integral"),
                           amplitude(XXX, "+", grid, "integral"),
                           breather_amplitude("+", 1, grid + 0.1, CRIT_07.gamma, "integral"))
    elif case == "mu 2.9":
        params = RegimeParams.critical(2.9)
        compute = lambda: (amplitude(params, "+", grid), amplitude(params, "-", grid))
    else:
        eta = float(case.split()[1])
        params = RegimeParams.noncritical(eta)
        compute = lambda: (amplitude(params, "+", grid, "sum"),
                           type2_amplitude(grid[::3], eta, 1.5, "sum"))
    for value, err, exact in rule_calls(monkeypatch, compute, exact_phase_sums):
        assert np.all(np.abs(value - exact) <= err), case


RULE_CASES = [(0.5, 4.0), (0.5, 0.7), (0.05, 1.0), (1.0, 60.0), (10.0, 1.0), (2.0, 0.0),
              (0.5, 6.0), (0.5, 48.0)]


def _direct_panels(decay, lam_max):
    """The panel edges of the rule, from its own formula."""
    cutoff = -np.log(1e-16) / decay
    width = 8.0 if lam_max * 8.0 <= 24.0 else 2.0 ** np.floor(np.log2(24.0 / lam_max))
    edges, h = [0.0], min(0.25, width)
    while edges[-1] < cutoff:
        edges.append(edges[-1] + h)
        h = min(2.0 * h, width)
    return np.array(edges)


@pytest.mark.parametrize("decay,lam_max", RULE_CASES)
def test_groups_rebuild_the_panel_nodes(decay, lam_max):
    nodes, weights, groups = _half_line_rule(decay, lam_max)
    assert np.array_equal(np.concatenate([(b[:, None] + u).ravel() for b, u, _ in groups]),
                          nodes[:-1])
    # the nodes and weights of the composite rule built panel by panel from
    # the one-panel rule (checked against mpmath below), in some order, then
    # the cutoff with zero weight
    edges = _direct_panels(decay, lam_max)
    left, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    want = np.column_stack([(left + half * (_KRONROD[:, 0] + 1.0)).ravel(),
                            (half[:, :, None] * _KRONROD[:, 1:]).reshape(-1, 2)])
    got = np.column_stack([nodes, weights])[:-1]
    assert nodes[-1] == edges[-1] and not weights[-1].any()
    assert np.array_equal(got[np.lexsort(got.T[::-1])], want[np.lexsort(want.T[::-1])])


@pytest.mark.parametrize("decay,lam_max", RULE_CASES)
def test_doubled_panels_match_the_direct_ones(decay, lam_max):
    # the narrow panels are the last group, with scales 1, 2, 4, ...: their
    # offset rows double exactly, so x * row k is 2^k times x * row 0 bit
    # for bit, and their sin/cos by doubling stay within a few ulp (per
    # doubling) of the direct ones; no other group has scales
    nodes, _, groups = _half_line_rule(decay, lam_max)
    assert all(scales is None for _, _, scales in groups[:-1])
    _, rows, scales = groups[-1]
    if scales is None:      # every panel as wide as the first
        assert lam_max * 0.25 > 24.0 / 2.0
        return
    assert np.array_equal(scales, 2.0 ** np.arange(rows.shape[0]))
    assert np.array_equal(rows, np.multiply.outer(scales, rows[0]))
    x = 0.5 * np.linspace(-lam_max, lam_max, 7)
    assert np.array_equal(np.multiply.outer(x, rows[1:]), 2.0 * np.multiply.outer(x, rows[:-1]))
    sin, cos = _half_sin_cos(x, groups)
    narrow = slice(sin.shape[1] - rows.size, sin.shape[1])
    phase = np.multiply.outer(x, nodes[:-1][narrow])
    depth = 1.0 + np.arange(rows.shape[0]).repeat(rows.shape[1])
    tol = 8.0 * depth * np.finfo(float).eps * (1.0 + np.abs(phase))
    assert np.all(np.abs(sin[:, narrow] - np.sin(phase)) <= tol)
    assert np.all(np.abs(cos[:, narrow] - np.cos(phase)) <= tol)


def test_legendre_rule_matches_mpmath():
    # the 20 nodes that carry a Gauss weight are the 20-point Gauss-Legendre
    # rule, nodes and weights correctly rounded
    x, kronrod, gauss = _KRONROD.T
    assert x.size == 41 and np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    with mp.workdps(40):
        nodes, weights = mp.gauss_quadrature(20, "legendre")
        want = sorted((float(a), float(b)) for a, b in zip(nodes, weights))
    want_x, want_w = np.array(want).T
    assert np.array_equal(x[gauss > 0], want_x)
    assert np.array_equal(gauss[gauss > 0], want_w)


@pytest.mark.parametrize("col,degree", [(1, 61), (2, 39)], ids=["kronrod41", "gauss20"])
def test_kronrod_rule_integrates_monomials(col, degree):
    # 41 Kronrod nodes are exact to degree 3 * 20 + 1, the 20 embedded Gauss
    # nodes to 2 * 20 - 1: the sums at 40 digits of the float nodes and
    # weights miss 2 / (m + 1) by their rounding only
    with mp.workdps(40):
        x = [mp.mpf(float(v)) for v in _KRONROD[:, 0]]
        w = [mp.mpf(float(v)) for v in _KRONROD[:, col]]
        for m in range(degree + 1):
            terms = [wi * xi ** m for wi, xi in zip(w, x)]
            want = mp.mpf(2) / (m + 1) if m % 2 == 0 else mp.mpf(0)
            size = mp.fsum(abs(t) for t in terms)
            assert abs(mp.fsum(terms) - want) <= (m + 1) * np.finfo(float).eps * size, m


def test_table_rule_shares_its_trig_work():
    # 22 panels of 4 at the 0.5 decay rate's cutoff: 41 nodes each and the
    # cutoff, with sin and cos per point at each panel's left edge (and its
    # negative), the wide panels' offsets and the first narrow panel's
    nodes, _, groups = _half_line_rule(0.5, 4.0)
    panels = _direct_panels(0.5, 4.0).size - 1
    assert panels == 22
    assert nodes.size == 41 * panels + 1
    assert sum(2 * b.size + u.shape[-1] for b, u, _ in groups) == 2 * panels + 2 * 41


# ------------------------------------------------ both signs from one pass

CRIT_STRIP = (np.linspace(-3.0, 3.0, 9)
              + 1j * np.linspace(-0.94, 0.94, 9) * CRIT_07.gamma / 2.0)
PAIR_CASES = [(XXX, "closed", np.linspace(-4.0, 4.0, 121)),
              (XXX, "integral", np.linspace(-4.0, 4.0, 121)),
              (CRIT_07, "closed", np.linspace(-4.0, 4.0, 121)),
              (CRIT_07, "integral", np.linspace(-4.0, 4.0, 121)),
              (RegimeParams.critical(2.9), "integral", np.linspace(-4.0, 4.0, 41)),
              (CRIT_07, "closed", CRIT_STRIP),
              (RegimeParams.noncritical(0.5), "closed", np.linspace(-4.0, 4.0, 121)),
              (RegimeParams.noncritical(0.5), "sum", np.linspace(-4.0, 4.0, 121)),
              (RegimeParams.noncritical(0.01), "sum", np.linspace(-4.0, 4.0, 41)),
              (XXX, "integral", 0.37)]


@pytest.mark.parametrize("params,route,grid", PAIR_CASES,
                         ids=["xxx-closed", "xxx-integral", "crit-closed", "crit-integral",
                              "mu2.9-integral", "crit-strip", "nc-closed", "nc-sum",
                              "eta0.01-sum", "scalar"])
def test_pair_equals_single_sign_calls(params, route, grid):
    pair = amplitude_pair(params, grid, route)
    assert len(pair) == 2
    for sign, res in zip("+-", pair):
        one = amplitude(params, sign, grid, route)
        assert np.shape(res.value) == np.shape(one.value) == np.shape(grid)
        gap = np.abs(res.value - one.value)
        assert np.all(gap <= 1e-14 * np.abs(one.value)), sign
        assert np.all(gap <= res.error_estimate), sign


def test_critical_pair_includes_the_product_route():
    grid = np.array([0.3, -1.2])
    for sign, res in zip("+-", amplitude_pair(CRIT_07, grid, "product")):
        one = amplitude(CRIT_07, sign, grid, "product")
        assert np.array_equal(res.value, one.value)


@pytest.mark.parametrize("args,rules", [(["--regime", "xxx"], 1),
                                        (["--regime", "critical", "--mu", "0.7"], 2),
                                        (["--regime", "noncritical", "--eta", "0.5"], 1)],
                         ids=["xxx", "critical", "noncritical"])
def test_type1_table_takes_one_trig_pass_per_block_per_rule(monkeypatch, tmp_path, args, rules):
    # T+ and T- are columns of one rule: the sin/cos table of each block of
    # points is built once per rule (the critical closed route's ratio
    # integral and the quadrature route are one rule each, never shared)
    calls, passes = [], []
    rule_sums, half_sin_cos = special_functions._rule_sums, special_functions._half_sin_cos

    def rule_spy(lam, freq, *rest):
        calls.append((lam.size, freq.size))
        return rule_sums(lam, freq, *rest)

    def trig_spy(x, groups):
        passes.append(x.size)
        return half_sin_cos(x, groups)

    monkeypatch.setattr(special_functions, "_rule_sums", rule_spy)
    monkeypatch.setattr(special_functions, "_half_sin_cos", trig_spy)
    _critical_anchor.cache_clear()      # its one-point rule runs in the table too
    assert main(["amplitude", *args, "--grid=-4:4:121", "--out", str(tmp_path / "t.csv")]) == 0
    table = [size for size, _ in calls if size == 121]
    assert len(table) == rules
    assert len(calls) - len(table) == (1 if "critical" in args else 0)
    assert len(passes) == sum(-(-size // max(1, BLOCK // nodes)) for size, nodes in calls)
    assert sum(passes) == sum(size for size, _ in calls)


# ------------------------------------------------ the amplitude domain

def test_xxx_routes_agree_where_sin_pi_z_overflows():
    # the closed route's Gamma arguments reach |Im z| = 500, where
    # log(sin(pi z)) itself overflows
    grid = np.array([-1000.0, -460.0, 460.0, 1000.0])
    for closed, quad in zip(amplitude_pair(XXX, grid), amplitude_pair(XXX, grid, "integral")):
        assert np.all(np.isfinite(closed.value)) and np.all(np.abs(closed.value) > 0.04)
        assert np.all(np.abs(closed.value - quad.value)
                      <= closed.error_estimate + quad.error_estimate)


@pytest.mark.parametrize("params,lam,route",
                         [(CRIT_07, 455.0, "closed"), (CRIT_07, -455.0, "integral"),
                          (CRIT_07, 460.0, "closed"),
                          (RegimeParams.critical(1e-3), 0.0, "closed"),
                          (RegimeParams.critical(1e-3), 0.0, "integral")])
def test_amplitude_outside_the_float_range_raises(params, lam, route):
    # ln|T-(lam)| = -ln|T+(lam)| at real lam, and the normal range reaches
    # lower on the log scale below than above (-708.4, 709.8), so T+ is the
    # column that leaves it first
    with pytest.raises(FloatRangeError, match=rf"T\+ at lam_hat = {lam:g} is outside the "
                                              rf"float range at mu = {params.mu}"):
        amplitude_pair(params, lam, route)


def test_float_range_errors_met_at_conj_lam_hat_name_t_minus(monkeypatch):
    # T- is T+ at conj lam_hat reflected: T+ leaving the float range at a
    # conjugate point, or T- = 1 / conj T+ leaving it, is T-'s error at the
    # caller's lam_hat; a conjugate that is itself a grid point is T+'s
    t_plus = transmission_amplitudes._t_plus

    def far(where, value):
        def patched(params, lam, route):
            plus, err = t_plus(params, lam, route)
            if value is None:
                raise FloatRangeError("", location=lam[where].item())
            plus[where] = value
            return plus, err
        return patched

    cases = [([0.4, 0.3 + 0.2j], -1, None, r"T- at lam_hat = 0\.3\+0\.2j"),
             ([0.3 - 0.2j, 0.3 + 0.2j], -1, None, r"T\+ at lam_hat = 0\.3-0\.2j"),
             ([0.4, 0.3 + 0.2j], 0, None, r"T\+ at lam_hat = 0\.4\+0j "),
             ([0.4, 0.3 + 0.2j], 2, 1e308, r"T- at lam_hat = 0\.3\+0\.2j"),
             ([0.4, -0.5], 1, -1e308j, r"T- at lam_hat = -0\.5 ")]
    for grid, where, value, message in cases:
        monkeypatch.setattr(transmission_amplitudes, "_t_plus", far(where, value))
        with pytest.raises(FloatRangeError, match=message + ".*outside the float range at mu"):
            amplitude_pair(CRIT_07, np.array(grid))


@pytest.mark.parametrize("args", [["--mu", "0.7", "--grid=-1000:1000:3"],
                                  ["--mu", "1e-3", "--grid=0:0:1"]])
def test_amplitude_table_outside_the_float_range_is_one_error_line(capsys, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["amplitude", "--regime", "critical", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: T") and "float range" in err


@pytest.mark.parametrize("grid", ["-1.7e308:1.7e308:3", "1.7e308:-1e308:1"])
def test_grid_ends_whose_difference_overflows_are_a_usage_error(capsys, grid):
    # numpy.linspace steps by stop - start, which overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["amplitude", f"--grid={grid}"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.endswith(f"argument --grid: grid ends must differ by a finite float, "
                        f"got '{grid}'\n")


@pytest.mark.parametrize("argv, message", [
    # the phase 2 eta k lam_hat of the mode sum's last mode overflows
    (["--regime", "noncritical", "--grid=1e307:1e307:1"], "|lam| = 1e+307 puts the phase "),
    (["--regime", "noncritical", "--grid=1.7e308:1.7e308:1"], "|lam| = 1.7e+308 puts the phase "),
    (["--regime", "noncritical", "--family", "type2", "--grid=1e307:1e307:1"],
     "|lam| = 1e+307 puts the phase "),
    (["--regime", "noncritical", "--family", "type2", "--grid=1.7e308:1.7e308:1"],
     "|lam| = 1.7e+308 puts the phase "),
    # the phase x log q of the q-Gamma ratio overflows first
    (["--regime", "noncritical", "--eta", "50", "--family", "type2",
      "--grid=1.7e308:1.7e308:1"], "the phase of a q-Gamma ratio at lam = 1.7e+308 is past "),
    (["--regime", "noncritical", "--grid=1e306:1e306:1"], None),
    (["--regime", "noncritical", "--eta", "0.01", "--grid=1e305:1e305:1"], None),
    (["--regime", "noncritical", "--family", "type2", "--spin", "0.5",
      "--grid=1e306:1e306:1"], None),
], ids=["nc-1e307", "nc-1.7e308", "type2-1e307", "type2-1.7e308", "type2-eta50-1.7e308",
        "nc-1e306", "nc-eta0.01-1e305", "type2-1e306"])
def test_q_gamma_and_mode_sums_at_far_grid_ends_end_cleanly(capsys, argv, message):
    # one error line naming the overflowing phase, or finite rows, and no
    # RuntimeWarning: the error bounds past the float range read inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["amplitude", *argv])
    out, err = capsys.readouterr()
    if message is not None:
        assert (code, out) == (2, "") and err.startswith(f"error: {message}")
        assert err.count("\n") == 1
    else:
        assert code == 0 and err == ""
        rows = list(csv.DictReader(out.splitlines()[1:]))
        assert rows and all(np.isfinite(float(v)) for row in rows for k, v in row.items()
                            if k != "note")


def test_breather_fusion_at_far_grid_ends_is_finite(capsys):
    # the sinh ratio is evaluated with theta_hat clipped where it is at its
    # limit: five RuntimeWarnings and NaN rows with exit 0 before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["amplitude", "--regime", "critical", "--mu", "0.7", "--family", "breather",
                    "--breather-n", "2", "--grid=-1e300:1e300:3"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        rows = list(csv.DictReader(out.splitlines()[1:]))
        far = [row for row in rows if not row["note"]]
        assert len(far) == 2 and all(abs(float(row[k]) + 1.0) < 1e-15 for row in far
                                     for k in ("re_t_plus", "re_t_minus"))
        assert rows[1]["note"].startswith("pole:")     # lam_hat = 0
        # the lightest breather's quadrature route still refuses the grid
        code = main(["amplitude", "--regime", "critical", "--mu", "0.7", "--family", "breather",
                    "--breather-n", "1", "--grid=-1e300:1e300:3"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("error: the half-line rule needs ")
    assert err.count("\n") == 1


def _limit_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_half_line_rule_cap_raises_before_allocating():
    # 2.0e8 nodes would take several GB: under a 1 GB address space a
    # missing cap fails fast with a MemoryError traceback instead.  The xxx
    # kernels decay like e^{-w/2}, so the cutoff is -ln(1e-16) / 0.5 = 73.7
    # and the rule has 41 ceil(73.7 / width) + 1 nodes: 4828871 panels of
    # 2^-16 at lam = 1e6, 18862 of 2^-8 past lam = 3072 (773343 nodes)
    # and 9431 of 2^-7 at lam = 3072 (386672 nodes)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-W", "error", "-m", "defectchain", "amplitude",
                           "--regime", "xxx", "--grid=-1e6:1e6:3"], capture_output=True,
                          text=True, env=env, timeout=120, preexec_fn=_limit_address_space)
    assert done.returncode == 2, done.stderr[-2000:]
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("error: the half-line rule needs 1.98e+08 nodes")
    with pytest.raises(ConvergenceError, match="cap is 400000"):
        amplitude(XXX, "+", 3200.0, "integral")
    assert np.isfinite(amplitude(XXX, "+", 3072.0, "integral").value)
