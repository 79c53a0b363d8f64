import numpy as np
import pytest

from defectchain import lax_defect
from defectchain.lax_defect import (RegimeParams, crossing_transform, make_l,
                                    make_l_hat, make_r, s_matrix_part,
                                    scalar_crossing, scalar_unitarity,
                                    unitarity_residuals)
from defectchain.oscillator_reps import harmonic_rep, q_oscillator_rep
from defectchain.tensor_core import identity_residual
from defectchain.transmission_amplitudes import soliton_s_amplitude

XXX = RegimeParams.xxx()
CRIT = RegimeParams.critical(0.7)
NC = RegimeParams.noncritical(0.4)


def rep_for(params, d=8):
    if params.regime == "XXX":
        return harmonic_rep(d)
    return q_oscillator_rep(d, params.q)


# P (|a> (x) |b>) = |b> (x) |a> on C^2 (x) C^2
SWAP = np.eye(4).reshape(2, 2, 2, 2).transpose(0, 1, 3, 2).reshape(4, 4)


def embed3(m, pos):
    eye = np.eye(2, dtype=complex)
    t = m.reshape(2, 2, 2, 2)
    if pos == (0, 1):
        return np.einsum("abcd,ef->abecdf", t, eye).reshape(8, 8)
    if pos == (0, 2):
        return np.einsum("abcd,ef->aebcfd", t, eye).reshape(8, 8)
    return np.einsum("abcd,ef->eabfcd", t, eye).reshape(8, 8)


def ybe_residual(mat, l1, l2):
    r12 = embed3(mat(l1 - l2), (0, 1))
    r13 = embed3(mat(l1), (0, 2))
    r23 = embed3(mat(l2), (1, 2))
    return np.linalg.norm(r12 @ r13 @ r23 - r23 @ r13 @ r12)


def rll_residual(params, rep, l1, l2):
    d = rep.dim
    eye2 = np.eye(2, dtype=complex)
    lm1 = make_l(params, l1, rep).reshape(2, d, 2, d)
    lm2 = make_l(params, l2, rep).reshape(2, d, 2, d)
    m1 = np.einsum("aibj,cd->acibdj", lm1, eye2).reshape(4 * d, 4 * d)
    m2 = np.einsum("aibj,cd->caidbj", lm2, eye2).reshape(4 * d, 4 * d)
    r12 = np.kron(make_r(params, l1 - l2), np.eye(d, dtype=complex))
    proj = np.kron(np.eye(4, dtype=complex), np.diag(rep.interior()))
    return np.linalg.norm((r12 @ m1 @ m2 - m2 @ m1 @ r12) @ proj)


# ------------------------------------------------------------------ R-matrix

@pytest.mark.parametrize("make, match", [
    (lambda: RegimeParams.xxx(theta=float("nan")), "theta must be finite, got nan"),
    (lambda: RegimeParams.critical(0.7, theta=float("inf")), "theta must be finite, got inf"),
    (lambda: RegimeParams.noncritical(0.5, theta=-float("inf")), "theta must be finite"),
    (lambda: RegimeParams.noncritical(float("inf")), "eta must be positive and finite, got inf"),
    (lambda: RegimeParams.noncritical(float("nan")), "eta must be positive and finite, got nan"),
    (lambda: RegimeParams.noncritical(0.0), "eta must be positive and finite, got 0.0"),
])
def test_regime_params_reject_non_finite_values(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_xxx_r_at_zero_is_permutation():
    r = make_r(XXX, 0.0)
    np.testing.assert_allclose(r, 1j * SWAP)


def test_xxz_r_entries_by_substitution():
    mu = 0.6
    params = RegimeParams.critical(mu)
    q = np.exp(1j * mu)
    r = make_r(params, 0.0)
    # diagonal sinh weights at lam = 0: (a, b, b, a) with a = 2 sinh(i mu), b = 0
    np.testing.assert_allclose(r[0, 0], 2 * np.sinh(1j * mu), atol=1e-14)
    np.testing.assert_allclose(r[1, 1], 0.0, atol=1e-14)
    # off-diagonal entries (q - 1/q) sigma^-/+
    np.testing.assert_allclose(r[1, 2], q - 1 / q, atol=1e-14)
    np.testing.assert_allclose(r[2, 1], q - 1 / q, atol=1e-14)


@pytest.mark.parametrize("params", [XXX, CRIT, NC], ids=["xxx", "crit", "nc"])
def test_r_yang_baxter(params):
    rng = np.random.default_rng(42)
    for l1, l2 in rng.uniform(-1.5, 1.5, size=(20, 2)):
        assert ybe_residual(lambda x: make_r(params, x), l1, l2) < 1e-12


# ------------------------------------------------------------------ L-matrix

def test_xxx_l_corner_entry():
    rep = harmonic_rep(6)
    l = make_l(XXX, 0.0, rep)
    np.testing.assert_allclose(l[6:, 6:], 1j * np.eye(6), atol=1e-14)


@pytest.mark.parametrize("params", [XXX, CRIT, NC], ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("d", [4, 8, 12])
def test_rll_quadratic_algebra(params, d):
    rep = rep_for(params, d)
    rng = np.random.default_rng(1)
    for l1, l2 in rng.uniform(-1.2, 1.2, size=(5, 2)):
        assert rll_residual(params, rep, l1, l2) < 1e-11


# ------------------------------------------------------------------ crossing

@pytest.mark.parametrize("params", [XXX, CRIT, NC], ids=["xxx", "crit", "nc"])
def test_l_hat_two_routes_agree(params):
    rep = rep_for(params)
    for lam in (0.0, 0.37, -1.1, 0.2 + 0.5j):
        explicit = make_l_hat(params, lam, rep)
        crossed = crossing_transform(make_l(params, -lam - 1j, rep))
        assert np.abs(crossed - explicit).max() < 1e-13


def test_crossing_is_involution():
    rep = rep_for(XXX)
    op = make_l(XXX, 0.83, rep)
    np.testing.assert_allclose(crossing_transform(crossing_transform(op)),
                               op, atol=1e-13)


def test_v1_square_and_sign_convention():
    # antidiag(i, -i) squares to +identity; the overall sign of the crossing
    # conjugation is pinned by agreement with the explicit conjugate operator
    v1 = np.array([[0, 1j], [-1j, 0]])
    np.testing.assert_allclose(v1 @ v1, np.eye(2))
    rep = rep_for(XXX, 4)
    np.testing.assert_allclose(crossing_transform(make_l(XXX, -0.3 - 1j, rep)),
                               make_l_hat(XXX, 0.3, rep), atol=1e-14)


# ------------------------------------------------------- unitarity identities

def test_xxx_unitarity_at_zero():
    rep = rep_for(XXX)
    prod = make_l(XXX, 0.0, rep) @ make_l_hat(XXX, 0.0, rep)
    proj = np.kron(np.eye(2), np.diag(rep.interior()))
    # scalar i(lam + i) at lam = 0 is -1
    assert np.linalg.norm((prod + np.eye(2 * rep.dim)) @ proj) < 1e-13


def test_xxz_unitarity_scalar_value():
    rep = rep_for(NC)
    lam = 0.6
    mu = 1j * NC.eta
    prod = make_l(NC, lam, rep) @ make_l_hat(NC, -lam, rep)
    scalar = -np.exp(-mu * lam) * (np.exp(mu * lam) - np.exp(-mu * lam))
    proj = np.kron(np.eye(2), np.diag(rep.interior()))
    assert np.linalg.norm((prod - scalar * np.eye(2 * rep.dim)) @ proj) < 1e-12
    assert scalar == pytest.approx(scalar_unitarity(NC, lam))


@pytest.mark.parametrize("params", [XXX, CRIT, NC], ids=["xxx", "crit", "nc"])
def test_unitarity_residuals_on_grid(params):
    rep = rep_for(params)
    unit, crossing = unitarity_residuals(params, np.linspace(-2.0, 2.0, 9), rep)
    assert unit.shape == crossing.shape == (9,)
    assert (unit < 1e-11).all() and (crossing < 1e-11).all()


ZEROS = [(XXX, [-1j, 1j]), (CRIT, [0.0]), (NC, [0.0])]


@pytest.mark.parametrize("params, zeros", ZEROS, ids=["xxx", "crit", "nc"])
def test_unitarity_identities_hold_at_scalar_zeros(params, zeros):
    # s_u(-i) = 0 and s_c(i) = 0 (isotropic), s_u(0) = s_c(0) = 0 (anisotropic):
    # the products vanish on the interior there, with no division to skip
    rep = rep_for(params)
    for lam in zeros:
        assert min(abs(scalar_unitarity(params, lam)), abs(scalar_crossing(params, lam))) == 0
    unit, crossing = unitarity_residuals(params, zeros, rep)
    assert (unit < 1e-13).all() and (crossing < 1e-13).all(), (unit, crossing)


def unitarity_oracle(params, lam, rep):
    """(residual, scale) of unitarity and of crossing-unitarity at one lam,
    from one pair of operators each: make_l and make_l_hat, their auxiliary
    transposes by einsum, and the scales the norms of their products."""
    keep, d = rep.interior(), rep.dim

    def t1(m):
        return np.einsum("aibj->biaj", m.reshape(2, d, 2, d)).reshape(2 * d, 2 * d)

    unit = make_l(params, lam, rep), make_l_hat(params, -lam, rep)
    crossing = t1(make_l(params, -lam - 1j, rep)), t1(make_l_hat(params, lam - 1j, rep))
    return ((identity_residual(*unit, scalar_unitarity(params, lam), keep),
             np.linalg.norm(unit[0] @ unit[1])),
            (identity_residual(*crossing, scalar_crossing(params, lam), keep),
             np.linalg.norm(crossing[0] @ crossing[1])))


@pytest.mark.parametrize("params, zeros", ZEROS, ids=["xxx", "crit", "nc"])
def test_stacked_unitarity_equals_per_lam_calls(params, zeros):
    # the whole grid and the scalar zeros in one pass, against one call per
    # lam and against the one-operator oracle, to 1e-13 of the products
    rep = rep_for(params)
    lams = np.concatenate([np.linspace(-2.0, 2.0, 9), zeros])
    stacked = unitarity_residuals(params, lams, rep)
    for k, lam in enumerate(lams):
        alone = unitarity_residuals(params, [lam], rep)
        for got, one, (want, scale) in zip(stacked, alone, unitarity_oracle(params, lam, rep)):
            assert abs(got[k] - one[0]) <= 1e-13 * scale
            assert abs(got[k] - want) <= 1e-13 * scale, (lam, got[k], want)


@pytest.mark.parametrize("params", [XXX, CRIT, NC], ids=["xxx", "crit", "nc"])
def test_operator_stacks_are_the_scalar_operators(params):
    # make_r, make_l and make_l_hat at a 1-d array of lams: the stack of the
    # operators at each lam, bit for bit at real lams; the overflow guard
    # applies to every lam of the array
    rep = rep_for(params)
    lams = np.linspace(-2.0, 2.0, 7)
    for make, args in ((make_r, ()), (make_l, (rep,)), (make_l_hat, (rep,))):
        stack = make(params, lams, *args)
        assert stack.shape == (7,) + make(params, 0.3, *args).shape
        for lam, m in zip(lams, stack):
            assert m.tobytes() == make(params, lam, *args).tobytes()
        if params is not XXX:
            far = np.array([0.0, 701.0 / params.mu_complex])     # mu lam = 701
            with pytest.raises(ValueError, match="overflows"):
                make(params, far, *args)


def test_crossing_scalar_xxx():
    assert scalar_crossing(XXX, 0.5) == pytest.approx(-1j * (0.5 - 1j))


# ------------------------------------------------------------------- S-matrix

def s_matrix(params, lam):
    """The bulk S-matrix with its scalar prefactor."""
    return soliton_s_amplitude(params, lam) * s_matrix_part(params, lam)


def test_xxx_s_matrix_at_zero_is_permutation():
    s = s_matrix(XXX, 0.0)
    np.testing.assert_allclose(s, SWAP, atol=1e-12)


def test_critical_s_prefactor_is_one_at_zero():
    assert soliton_s_amplitude(CRIT, 0.0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("params", [XXX, CRIT, NC], ids=["xxx", "crit", "nc"])
def test_s_matrix_yang_baxter(params):
    rng = np.random.default_rng(7)
    for l1, l2 in rng.uniform(-1.2, 1.2, size=(4, 2)):
        res = ybe_residual(lambda x: s_matrix(params, x), l1, l2)
        assert res < 1e-10


@pytest.mark.parametrize("lam", [300.0, -300.0, 233.0], ids=["pos", "neg", "edge"])
def test_overflowing_exponent_is_a_value_error(lam):
    # mu lam past 700 would overflow e^(+-mu lam) into Inf/NaN entries;
    # 233 * 3 = 699 stays finite (e^-699 underflows harmlessly)
    params = RegimeParams.critical(3.0)
    rep = rep_for(params, 4)
    builders = [lambda x: make_r(params, x), lambda x: make_l(params, x, rep),
                lambda x: make_l_hat(params, x, rep)]
    with np.errstate(over="raise", invalid="raise"):
        for build in builders:
            if abs(3.0 * lam) > 700:
                with pytest.raises(ValueError, match="overflows"):
                    build(lam)
            else:
                assert np.isfinite(build(lam)).all()


def np_block2(a11, a12, a21, a22):
    """The block assembly as it was written, through numpy.block."""
    return np.block([[a11, a12], [a21, a22]])


@pytest.mark.parametrize("params", [XXX, CRIT, NC], ids=["xxx", "crit", "nc"])
def test_lax_blocks_match_np_block(params, monkeypatch):
    rep = rep_for(params, 6)

    def build():
        out = []
        for lam in (0.37, -1.2 + 0.3j):
            out += [make_r(params, lam), make_l(params, lam, rep),
                    make_l_hat(params, lam, rep)]
        return out

    fast = build()
    monkeypatch.setattr(lax_defect, "block2", np_block2)
    for got, want in zip(fast, build()):
        assert got.dtype == want.dtype and np.array_equal(got, want)
