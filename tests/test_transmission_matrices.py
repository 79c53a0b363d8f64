import numpy as np
import pytest

from defectchain import lax_defect, transmission_matrices
from defectchain.lax_defect import RegimeParams, s_matrix_part
from defectchain.oscillator_reps import spin_rep
from defectchain.tensor_core import aux_transpose, exchange_residual, identity_residual
from defectchain.transmission_amplitudes import amplitude
from defectchain.transmission_matrices import (default_rep,
                                               quadratic_algebra_residual,
                                               t_matrix_part,
                                               t_prefactor,
                                               type2_algebra_residual,
                                               type2_matrix_part,
                                               unitarity_crossing_residual)

XXX = RegimeParams.xxx()
CRIT = RegimeParams.critical(0.7)
NC = RegimeParams.noncritical(0.35)

ALL = [XXX, CRIT, NC]
IDS = ["xxx", "crit", "nc"]


def prefactor(params, lh, which="t"):
    """t_prefactor at one lam_hat, or at each point of a 1-d array, with
    one which for every point."""
    pref = t_prefactor(params, np.ravel(lh), [which] * np.size(lh))
    return pref[0] if np.ndim(lh) == 0 else pref


def t_matrix(params, lh, rep, which="t"):
    """T (or Tbar) at lam_hat, or a stack: prefactor times matrix part."""
    return (np.asarray(prefactor(params, lh, which))[..., None, None]
            * t_matrix_part(params, lh, rep, which))


def test_xxx_entries_read_off():
    rep = default_rep(XXX, 6)
    lh = 0.44
    d = rep.dim
    t = t_matrix(XXX, lh, rep)
    pref = amplitude(XXX, "-", lh).value / (1j * lh + 0.5)
    # (2,2) block = prefactor * identity, (1,2) block = prefactor * a
    np.testing.assert_allclose(t[d:, d:], pref * np.eye(d), atol=1e-13)
    np.testing.assert_allclose(t[:d, d:], pref * rep.a, atol=1e-13)
    # (1,1) block = prefactor * (i lam + 1 + a a_dag - 1/2)
    want = pref * (1j * lh * np.eye(d) + np.eye(d) + rep.a @ rep.a_dag - 0.5 * np.eye(d))
    np.testing.assert_allclose(t[:d, :d], want, atol=1e-13)
    tbar = t_matrix(XXX, lh, rep, "t_bar")
    np.testing.assert_allclose(tbar[:d, :d],
                               amplitude(XXX, "+", lh).value * np.eye(d), atol=1e-13)


def test_critical_entries_spot_check():
    params = RegimeParams.critical(np.pi / 2.5)   # gamma = 1.5
    rep = default_rep(params, 6)
    g = params.gamma
    mu_t = np.pi * g
    q_t = np.exp(1j * mu_t)
    lh = 0.4
    u = lh / g
    part = t_matrix_part(params, lh, rep)
    d = rep.dim
    want_11 = np.exp(-mu_t * u) * q_t * rep.v - np.exp(mu_t * u) / q_t * rep.v_inv
    np.testing.assert_allclose(part[:d, :d], want_11, atol=1e-12)
    np.testing.assert_allclose(part[d:, d:], -np.exp(mu_t * u) / q_t * rep.v, atol=1e-12)
    assert rep.q == pytest.approx(q_t)
    # prefactor: elementary factor in u times the hole amplitude T-
    want = (np.exp(-mu_t * u / 2) / (q_t ** 0.5 / np.exp(mu_t * u) - np.exp(mu_t * u) / q_t ** 0.5)
            * amplitude(params, "-", lh).value)
    assert prefactor(params, lh) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("params", ALL, ids=IDS)
def test_which_names_t_or_t_bar(params):
    # any other which once gave Tbar silently ("T" bit for bit)
    rep = default_rep(params, 6)
    for call in (lambda w: t_matrix_part(params, 0.3, rep, w),
                 lambda w: t_prefactor(params, [0.3], [w]),
                 lambda w: quadratic_algebra_residual(params, 0.3, -0.2, rep, w)):
        for which in ("T", "tbar", ""):
            with pytest.raises(ValueError, match="which must be 't' or 't_bar'"):
                call(which)


@pytest.mark.parametrize("params", ALL, ids=IDS)
@pytest.mark.parametrize("which", ["t", "t_bar"])
def test_quadratic_algebra(params, which):
    rep = default_rep(params, 8)
    rng = np.random.default_rng(11)
    for l1, l2 in rng.uniform(-1.2, 1.2, size=(5, 2)):
        res = quadratic_algebra_residual(params, l1, l2, rep, which=which)
        assert res < 1e-9, (params.regime, which, l1, l2, res)


def test_quadratic_algebra_prefactor_invariance():
    # the residual is bilinear, so attaching the scalar prefactors must not
    # change whether it vanishes (quadratic_algebra_residual uses the matrix
    # parts only)
    rep = default_rep(XXX, 6)
    l1, l2 = 0.9, -0.6
    a = quadratic_algebra_residual(XXX, l1, l2, rep)
    res, scale = exchange_residual(s_matrix_part(XXX, l1 - l2),
                                   t_matrix(XXX, l1, rep),
                                   t_matrix(XXX, l2, rep), keep=rep.interior())
    assert a < 1e-11 and res / max(scale, 1.0) < 1e-11


@pytest.mark.parametrize("params", ALL + [RegimeParams.noncritical(0.5)],
                         ids=IDS + ["nc-eta05"])
def test_unitarity_and_crossing(params):
    rep = default_rep(params, 8)
    for lh in (0.44, -0.9, 1.3):
        unit, cross = unitarity_crossing_residual(params, lh, rep)
        assert unit < 1e-9, (params.regime, lh, unit)
        assert cross < 1e-9, (params.regime, lh, cross)


def test_scalar_unitarity_consistency_reuse():
    # the scalar piece of tt-unitarity is exactly the amplitude identity
    for params in ALL:
        prod = (amplitude(params, "-", 0.7).value * amplitude(params, "+", -0.7).value)
        assert abs(prod - 1.0) < 1e-10


# ------------------------------------------------------------------- type-II

def test_type2_spin_half_entries():
    eta = 0.35
    s_plus = spin_rep(0.5, np.exp(-eta)).s_plus
    lh = 0.3
    part = type2_matrix_part(eta, 0.5, lh)
    # S+ entry = sin(i eta) sigma+, lower-left block
    np.testing.assert_allclose(part[2:, :2], np.sin(1j * eta) * s_plus, atol=1e-14)


@pytest.mark.parametrize("spin", [1.0, 1.5])
def test_type2_quadratic_algebra(spin, eta=0.35):
    rng = np.random.default_rng(4)
    for l1, l2 in rng.uniform(-1.2, 1.2, size=(5, 2)):
        res = type2_algebra_residual(eta, spin, l1, l2)
        assert res < 1e-9, (spin, l1, l2, res)


def test_type2_isotropic_limit_of_entries():
    # eta -> 0: entries / eta tend to the rational spin-defect structure
    spin, lh = 1.0, 0.4
    eta = 1e-5
    part = type2_matrix_part(eta, spin, lh) / eta
    rep1 = spin_rep(spin, 1.0)
    d = rep1.dim
    sz = np.diag(rep1.s_z)
    want = np.block([
        [np.diag(-lh + 1j * sz + 0.5j), 1j * rep1.s_minus],
        [1j * rep1.s_plus, np.diag(-lh - 1j * sz + 0.5j)]])
    np.testing.assert_allclose(part, want, atol=1e-4)


def np_block2(a11, a12, a21, a22):
    """The block assembly as it was written, through numpy.block."""
    return np.block([[a11, a12], [a21, a22]])


def test_transmission_blocks_match_np_block(monkeypatch):
    def build():
        out = []
        for params in ALL:
            rep = default_rep(params, 6)
            for lh in (0.44, -0.9 + 0.2j):
                out += [t_matrix_part(params, lh, rep, which)
                        for which in ("t", "t_bar")]
        return out + [type2_matrix_part(0.35, spin, 0.4) for spin in (0.5, 1.0, 1.5)]

    fast = build()
    # T and Tbar are assembled by lax_defect's Lax helpers, type II here
    monkeypatch.setattr(lax_defect, "block2", np_block2)
    monkeypatch.setattr(transmission_matrices, "block2", np_block2)
    for got, want in zip(fast, build()):
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ------------------------------------------------------------- grid calls

GRID = np.array([0.44, -0.44, 0.44 + 1j, -0.44 + 1j, 1.3, -2.1])


@pytest.mark.parametrize("params", ALL, ids=IDS)
@pytest.mark.parametrize("which", ["t", "t_bar"])
def test_prefactor_and_matrix_grids_are_their_scalar_calls(params, which):
    # one amplitude call per grid; each point's elementary factor in scalar
    # arithmetic, so a point is its lone call bit for bit (the critical grid
    # is real: the closed route sizes its rule from the largest |Im lam_hat|)
    rep = default_rep(params, 6)
    grid = GRID.real[[0, 1, 4, 5]] if params.regime == lax_defect.CRITICAL else GRID
    pref, mats = prefactor(params, grid, which), t_matrix(params, grid, rep, which)
    assert pref.shape == grid.shape and mats.shape == grid.shape + (2 * rep.dim,) * 2
    for k, x in enumerate(grid.tolist()):
        assert pref[k] == prefactor(params, x, which)
        assert np.array_equal(mats[k], t_matrix(params, x, rep, which))
    # one T or Tbar per point: the same values from one amplitude_pair call
    whiches = ["t", "t_bar"] * (grid.size // 2)
    mixed = t_prefactor(params, grid, whiches)
    assert [complex(v) for v in mixed] == [prefactor(params, x, w)
                                           for x, w in zip(grid.tolist(), whiches)]
    with pytest.raises(ValueError):
        t_prefactor(params, grid, whiches[:-1])


@pytest.mark.parametrize("params", ALL, ids=IDS)
def test_unitarity_crossing_residual_is_its_scalar_formula(params):
    # T(l) Tbar(-l) and the crossing product from lone t_matrix and
    # t_prefactor calls, bit for bit (critical crossing: the closed form,
    # its scalar carried by the first factor)
    rep, lam = default_rep(params, 6), 0.44
    keep = rep.interior()
    unit = t_matrix(params, lam, rep), t_matrix(params, -lam, rep, "t_bar")
    if params.regime == lax_defect.CRITICAL:
        g = params.gamma
        shift = 1j * g
        scalars = (transmission_matrices._critical_crossing_scalar(lam, g)
                   * transmission_matrices._critical_elementary(lam + shift, g, "t_bar")
                   * transmission_matrices._critical_elementary(-lam + shift, g, "t"))
    else:
        shift = 1j
        scalars = prefactor(params, lam + shift, "t_bar") * prefactor(params, -lam + shift)
    crossing = (scalars * aux_transpose(t_matrix_part(params, lam + shift, rep, "t_bar")),
                aux_transpose(t_matrix_part(params, -lam + shift, rep)))
    assert unitarity_crossing_residual(params, lam, rep) == (
        identity_residual(*unit, 1, keep), identity_residual(*crossing, 1, keep))
