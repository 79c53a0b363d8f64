import math
import warnings

import numpy as np
import pytest

from defectchain.oscillator_reps import (QOscRep, algebra_residuals, harmonic_rep,
                                         q_oscillator_rep, spin_rep)
from spin_oracle import spin_algebra_residuals


def test_harmonic_number_operator_spectrum():
    rep = harmonic_rep(3)
    np.testing.assert_allclose(rep.n_op, np.diag([0.0, -1.0, -2.0]))


def test_harmonic_commutator_on_interior():
    rep = harmonic_rep(8)
    comm = rep.a @ rep.a_dag - rep.a_dag @ rep.a
    for n in range(rep.dim - 1):
        e = np.zeros(rep.dim)
        e[n] = 1.0
        np.testing.assert_allclose(comm @ e, e, atol=1e-13)


def test_harmonic_grading_support():
    rep = harmonic_rep(6)
    # a raises the level index by one, a_dag lowers it by one
    assert all(rep.a[i, j] == 0 for i in range(6) for j in range(6) if i != j + 1)
    assert all(rep.a_dag[i, j] == 0 for i in range(6) for j in range(6) if i != j - 1)


def test_interior_masks():
    # the top state is dropped from truncated oscillators; spins are not
    # truncated, and their relations are measured on the full space
    np.testing.assert_array_equal(harmonic_rep(4).interior(), [1.0, 1.0, 1.0, 0.0])
    np.testing.assert_array_equal(q_oscillator_rep(4, 0.6).interior(), [1.0, 1.0, 1.0, 0.0])
    assert {sub for _, _, sub in spin_algebra_residuals(spin_rep(1.0))} == {"full (no truncation)"}
    with pytest.raises(TypeError, match="unknown representation type"):
        algebra_residuals(spin_rep(1.0))


def test_harmonic_interior_residuals():
    rep = harmonic_rep(8)
    for relation, residual, _ in algebra_residuals(rep):
        assert residual < 1e-13, relation


def test_harmonic_boundary_violation_magnitude():
    d = 8
    rep = harmonic_rep(d)
    comm = rep.a @ rep.a_dag - rep.a_dag @ rep.a - np.eye(d)
    # analytically the unprojected violation is confined to the top state
    # with magnitude exactly D
    assert np.linalg.norm(comm) == pytest.approx(d, rel=1e-13)
    assert np.linalg.norm(comm) >= d - 2
    top = np.zeros(d)
    top[-1] = 1.0
    np.testing.assert_allclose(comm @ top, -d * top, atol=1e-12)


def test_harmonic_rejects_small_dimension():
    with pytest.raises(ValueError):
        harmonic_rep(2)


@pytest.mark.parametrize("q", [0.6, np.exp(0.7j)])
def test_q_oscillator_ladder_actions(q):
    d = 7
    rep = q_oscillator_rep(d, q)
    for n in range(d):
        e = np.zeros(d, dtype=complex)
        e[n] = 1.0
        # a|n> = q^(n+1/2) |n+1>
        if n < d - 1:
            up = np.zeros(d, dtype=complex)
            up[n + 1] = q ** (n + 0.5)
            np.testing.assert_allclose(rep.a @ e, up, atol=1e-13)
        # a_dag a |n> = (1 - q^(2n+2)) |n> on the interior
        if n < d - 1:
            np.testing.assert_allclose(
                rep.a_dag @ rep.a @ e, (1 - q ** (2 * n + 2)) * e, atol=1e-12)
    ref = np.zeros(d, dtype=complex)
    ref[0] = 1.0
    assert np.linalg.norm(rep.a_dag @ ref) == 0.0
    np.testing.assert_allclose(rep.v @ ref, q ** 0.5 * ref, atol=1e-14)
    np.testing.assert_allclose(rep.a @ rep.a_dag @ ref, 0.0 * ref, atol=1e-14)


@pytest.mark.parametrize("q", [0.6, np.exp(0.7j)])
def test_q_oscillator_weyl_and_algebra(q):
    rep = q_oscillator_rep(8, q)
    p = np.diag(rep.interior())
    assert np.linalg.norm((rep.v @ rep.y - q * rep.y @ rep.v) @ p) < 1e-13
    for relation, residual, _ in algebra_residuals(rep):
        assert residual < 1e-12, relation


@pytest.mark.parametrize("q", [0.6, np.exp(0.7j)])
def test_q_oscillator_boundary_confined_to_top_state(q):
    # the only truncation-broken relation acts out of the top basis state
    d = 8
    rep = q_oscillator_rep(d, q)
    eye = np.eye(d, dtype=complex)
    viol = rep.a_dag @ rep.a - (eye - q * rep.v @ rep.v)
    assert np.abs(viol[:, :d - 1]).max() < 1e-13
    assert np.abs(viol[:, d - 1]).max() > 0.1


def test_harmonic_boundary_confined_to_top_state():
    d = 8
    rep = harmonic_rep(d)
    viol = rep.a @ rep.a_dag - rep.a_dag @ rep.a - np.eye(d)
    assert np.abs(viol[:, :d - 1]).max() < 1e-13
    assert np.abs(viol[:, d - 1]).max() == pytest.approx(d)


def test_q_oscillator_at_a_root_of_unity_is_an_ordinary_rep():
    # q = i is a root of unity of order 4 < D = 6: X's spectrum repeats, yet
    # every relation holds on its subspace, and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = q_oscillator_rep(6, 1j)
    residuals = algebra_residuals(rep)
    assert "interior" in {subspace for _, _, subspace in residuals}
    for relation, residual, _ in residuals:
        assert residual < 1e-12, relation


def test_spin_half_is_pauli():
    rep = spin_rep(0.5, 0.9)
    np.testing.assert_allclose(rep.s_z, np.diag([0.5, -0.5]))
    np.testing.assert_allclose(rep.s_plus, [[0, 1], [0, 0]])
    np.testing.assert_allclose(rep.s_minus, [[0, 0], [1, 0]])


def test_spin_relations_exact():
    q = np.exp(-0.5)
    rep = spin_rep(1.0, q)
    comm = rep.s_z @ rep.s_plus - rep.s_plus @ rep.s_z
    np.testing.assert_allclose(comm, rep.s_plus, atol=1e-14)
    for relation, residual, _ in spin_algebra_residuals(rep, q):
        assert residual < 1e-13, relation


def test_spin_classical_limit():
    rep = spin_rep(1.0, 1.0)
    comm = rep.s_plus @ rep.s_minus - rep.s_minus @ rep.s_plus
    np.testing.assert_allclose(comm, 2.0 * rep.s_z, atol=1e-13)


# the q-oscillator relations that are homogeneous in (X, X^-1, a, a_dag) at
# Y = 0, with their degree
HOMOGENEOUS = {"Va-qaV": 2, "Va_dag-a_dagV/q": 2, "a-YX": 1, "a_dagY-(X^-1-qX)": 1,
               "a_dag|0>": 1}


def test_algebra_residuals_scale_by_powers_of_two_without_overflow():
    # random operands in place of X, X^-1, a and a_dag (Y = 0): times 2^510
    # each homogeneous relation reads the unit one times 2^(510 k), k its
    # degree, bit for bit, where the unscaled norm of a quadratic one would
    # pass the float range; an a with finite entries near 2^1023 reads inf
    # in a - YX; nothing warns
    rng = np.random.default_rng(33)
    d, q = 6, 0.7
    v, v_inv, a, a_dag = (rng.uniform(-0.25, 0.25, (d, d)) + 1j * rng.uniform(-0.25, 0.25, (d, d))
                          for _ in range(4))
    zero = np.zeros((d, d), dtype=complex)

    def residuals(*ops):
        return {name: res for name, res, _ in algebra_residuals(QOscRep(d, q, *ops, zero))}

    unit = residuals(v, v_inv, a, a_dag)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = residuals(*(m * 2.0 ** 510 for m in (v, v_inv, a, a_dag)))
        near_top = residuals(zero, zero, np.ldexp(rng.uniform(0.5, 1.0, (d, d)), 1023) + 0j, zero)
    for name, k in HOMOGENEOUS.items():
        assert 0 < unit[name] and big[name] == math.ldexp(unit[name], 510 * k), name
    assert near_top["a-YX"] == math.inf
