import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectchain.lax_defect import RegimeParams, defect_rep, make_l, make_r
from defectchain.tensor_core import (TensorOperator, TensorSpace, block2,
                                     commutator_residual, exchange_residual,
                                     identity_residual, partial_transpose,
                                     permutation_operator)
from dense_oracle import embed, exchange_oracle


def op(dims, entries):
    return TensorOperator(TensorSpace(tuple(dims)), np.asarray(entries, dtype=complex))


def random_op(rng, d):
    return op([d], rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


SZ = np.diag([1.0, -1.0]).astype(complex)


def test_permutation_matrix_d2():
    p = permutation_operator(2)
    expected = np.zeros((4, 4))
    for r, c in [(0, 0), (1, 2), (2, 1), (3, 3)]:
        expected[r, c] = 1.0
    np.testing.assert_allclose(p.entries, expected)


@pytest.mark.parametrize("d", [2, 3])
def test_permutation_involution(d):
    p = permutation_operator(d)
    np.testing.assert_allclose((p @ p).entries, np.eye(d * d), atol=1e-14)


def test_permutation_swaps_factors():
    rng = np.random.default_rng(11)
    a, b = random_op(rng, 2), random_op(rng, 2)
    p = permutation_operator(2)
    lhs = p.entries @ np.kron(a.entries, b.entries) @ p.entries
    np.testing.assert_allclose(lhs, np.kron(b.entries, a.entries), atol=1e-12)


def test_permutation_rejects_small():
    with pytest.raises(ValueError):
        permutation_operator(1)


def test_partial_transpose_identity_and_involution():
    space = TensorSpace((2, 3))
    ident = TensorOperator.identity(space)
    np.testing.assert_allclose(partial_transpose(ident, 1).entries, np.eye(6))
    rng = np.random.default_rng(5)
    m = op([2, 3], rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    twice = partial_transpose(partial_transpose(m, 0), 0)
    np.testing.assert_allclose(twice.entries, m.entries)


def test_partial_transpose_on_product():
    rng = np.random.default_rng(6)
    a, b = random_op(rng, 2), random_op(rng, 3)
    m = op([2, 3], np.kron(a.entries, b.entries))
    expected = np.kron(a.entries.T, b.entries)
    np.testing.assert_allclose(partial_transpose(m, 0).entries, expected)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_partial_transpose_preserves_frobenius(seed):
    rng = np.random.default_rng(seed)
    m = op([2, 2], rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    norm = np.linalg.norm(partial_transpose(m, 1).entries)
    assert norm == pytest.approx(np.linalg.norm(m.entries), rel=1e-12)


def test_partial_transpose_bad_index():
    m = TensorOperator.identity(TensorSpace((2, 2)))
    with pytest.raises(IndexError):
        partial_transpose(m, 2)


def test_embed_identity_and_kron_ordering():
    dims = TensorSpace((2, 3, 2)).factor_dims
    np.testing.assert_array_equal(embed(np.eye(6), (0, 1), dims), np.eye(12))
    np.testing.assert_array_equal(embed(np.kron(SZ, SZ), (0, 2), dims),
                                  np.kron(np.kron(SZ, np.eye(3)), SZ))


def test_embed_two_site_matches_kron():
    rng = np.random.default_rng(9)
    dims = TensorSpace((2, 3, 2)).factor_dims
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    # second route: contract by hand with an explicit reordering
    want = np.einsum("acbd,ef->aecbfd", m.reshape(2, 2, 2, 2), np.eye(3)).reshape(12, 12)
    np.testing.assert_allclose(embed(m, (0, 2), dims), want)


def test_block2_is_np_block():
    rng = np.random.default_rng(3)
    for d in (1, 2, 5):
        real = [rng.normal(size=(d, d)) for _ in range(4)]
        mixed = [real[0], real[1] + 1j * real[2], np.eye(d), 1j * real[3]]
        for blocks in (real, mixed):
            want = np.block([blocks[:2], blocks[2:]])
            got = block2(*blocks)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_operator_rejects_nan():
    space = TensorSpace((2,))
    bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(ValueError):
        TensorOperator(space, bad)


def test_space_mismatch_rejected():
    a = TensorOperator.identity(TensorSpace((2, 2)))
    b = TensorOperator.identity(TensorSpace((4,)))
    with pytest.raises(ValueError):
        a @ b


# ------------------------------------------------------------ exchange relation

def assert_matches_oracle(r12, m1, m2, keep=None):
    full = np.ones(len(m1) // 2) if keep is None else keep
    want = exchange_oracle(r12, m1, m2, full)
    got = exchange_residual(r12, m1, m2, keep=keep)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    # the same relation in a stack, between two others: one pair of norms
    # per sample, each that of the lone call
    samples = [(r12.conj().T, m2, m1), (r12, m1, m2), (r12, m2, m1)]
    stacked = exchange_residual(*(np.stack(a) for a in zip(*samples)), keep=keep)
    assert all(norms.shape == (3,) for norms in stacked)
    for i, sample in enumerate(samples):
        np.testing.assert_allclose([norms[i] for norms in stacked],
                                   exchange_residual(*sample, keep=keep), rtol=1e-15, atol=0)
    return got


@pytest.mark.parametrize("params", [RegimeParams.xxx(), RegimeParams.critical(0.7),
                                    RegimeParams.noncritical(0.4)],
                         ids=["xxx", "crit", "nc"])
def test_exchange_residual_failing_rll_matches_oracle(params):
    # R at l1 + l2 instead of l1 - l2: the relation fails at O(1), so a
    # kernel returning roundoff cannot pass
    rep = defect_rep(params, 8)
    l1, l2 = 0.63, -0.41
    res, scale = assert_matches_oracle(
        make_r(params, l1 + l2).entries, make_l(params, l1, rep).entries,
        make_l(params, l2, rep).entries, keep=rep.interior())
    assert res > 1e-3 * scale > 0


def test_exchange_residual_is_yang_baxter_on_c2():
    params = RegimeParams.critical(0.7)
    l1, l2 = 0.9, -0.35

    def r(x):
        return make_r(params, x).entries

    eye = np.eye(2, dtype=complex)
    r13 = np.einsum("abcd,ef->aebcfd", r(l1).reshape(2, 2, 2, 2), eye).reshape(8, 8)
    r23 = np.kron(eye, r(l2))
    # R12 at l1 - l2 satisfies Yang-Baxter; at l1 + l2 it fails at O(1)
    for r12, holds in ((r(l1 - l2), True), (r(l1 + l2), False)):
        r12_full = np.kron(r12, eye)
        lhs = r12_full @ r13 @ r23
        want_res = np.linalg.norm(lhs - r23 @ r13 @ r12_full)
        res, scale = exchange_residual(r12, r(l1), r(l2))
        assert scale == pytest.approx(np.linalg.norm(lhs), rel=1e-12)
        assert res == pytest.approx(want_res, rel=1e-12, abs=1e-13 * scale)
        assert (res < 1e-13 * scale) == holds
    assert_matches_oracle(r(l1 + l2), r(l1), r(l2))


def test_exchange_residual_odd_dimension_with_mask():
    rng = np.random.default_rng(12)
    d = 5
    r12, m1, m2 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                   for n in (4, 2 * d, 2 * d))
    keep = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    res, _ = assert_matches_oracle(r12, m1, m2, keep)
    assert 0.0 < res < exchange_residual(r12, m1, m2)[0]
    assert exchange_residual(r12, m1, m2, keep=np.zeros(d)) == (0.0, 0.0)
    assert exchange_residual(r12, m1, m2, keep=np.ones(d)) == exchange_residual(r12, m1, m2)
    with pytest.raises(ValueError, match="stacks of different lengths"):
        exchange_residual(np.stack([r12, r12]), m1, m2)


def test_exchange_residual_keep_all_and_keep_none_on_a_stack():
    # slicing the kept columns: every column kept is the unmasked relation
    # bit for bit, no column kept gives zero norms, on a stack as on one
    rng = np.random.default_rng(21)
    d, n = 4, 3
    r12, m1, m2 = (rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k))
                   for k in (4, 2 * d, 2 * d))
    unmasked = exchange_residual(r12, m1, m2)
    for got, want in zip(exchange_residual(r12, m1, m2, keep=np.ones(d)), unmasked):
        assert np.array_equal(got, want)
    assert all(x.all() for x in unmasked)
    for norms in exchange_residual(r12, m1, m2, keep=np.zeros(d)):
        assert norms.shape == (n,) and not norms.any()
    assert exchange_residual(r12[0], m1[0], m2[0], keep=np.zeros(d)) == (0.0, 0.0)


# ------------------------------------------------------------- masked kernels

@pytest.mark.parametrize("d", [1, 4, 5])
def test_identity_residual_equals_dense_projector_product(d):
    rng = np.random.default_rng(20 + d)
    m = rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d))
    s = complex(rng.standard_normal(), rng.standard_normal())
    keep = (rng.uniform(size=d) < 0.6).astype(float)
    keep[0] = 1.0
    proj = np.kron(np.eye(2, dtype=complex), np.diag(keep).astype(complex))
    want = np.linalg.norm((m - s * np.eye(2 * d, dtype=complex)) @ proj)
    assert identity_residual(m, s, keep) == want
    # M = s 1 on the kept columns only: the residual sees none of the rest
    m_ok = s * np.eye(2 * d, dtype=complex) + m * (1.0 - np.tile(keep, 2))
    assert identity_residual(m_ok, s, keep) == 0.0


@pytest.mark.parametrize("n", [3, 12])
def test_commutator_residual_equals_dense_product(n):
    rng = np.random.default_rng(40 + n)
    a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(2))
    a_op, b_op = op([n], a), op([n], b)
    assert commutator_residual(a_op, b_op) == np.linalg.norm(a @ b - b @ a)
    assert commutator_residual(a, b) == np.linalg.norm(a @ b - b @ a)
    assert commutator_residual(a_op, a_op @ a_op) < 1e-12 * np.linalg.norm(a) ** 3
    assert commutator_residual(a_op, np.eye(n)) == 0.0


def test_commutator_residual_scales_by_powers_of_two_without_overflow():
    # entries near 2^520: the unscaled products would overflow, but the
    # operands are scaled first, so the value is the unit one times 2^1040
    # for commuting operands and inf for non-commuting ones, without warnings
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = a @ a
    unit = commutator_residual(op([6], a), op([6], b))
    big = 2.0 ** 520
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert commutator_residual(op([6], a * big), op([6], b * big)) == unit * big * big
        c = rng.standard_normal((6, 6))
        assert commutator_residual(op([6], a * big), op([6], c * big)) == np.inf
