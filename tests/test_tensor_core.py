import warnings

import numpy as np
import pytest

from defectchain.lax_defect import RegimeParams, defect_rep, make_l, make_r
from defectchain.tensor_core import (TensorOperator, TensorSpace, aux_transpose, block2,
                                     commutator_residual, exchange_residual,
                                     identity_residual)
from dense_oracle import embed, exchange_oracle


def random_matrix(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


SZ = np.diag([1.0, -1.0]).astype(complex)


def einsum_aux_transpose(m, d):
    """The transpose in the leading C^2 factor of m on C^2 (x) C^d, or of
    each matrix of a stack, by an explicit index exchange."""
    t = np.einsum("...aibj->...biaj", m.reshape(m.shape[:-2] + (2, d, 2, d)))
    return t.reshape(m.shape)


@pytest.mark.parametrize("shape", [(6, 6), (4, 6, 6)], ids=["matrix", "stack"])
def test_aux_transpose_is_the_einsum_transpose(shape):
    m = random_matrix(np.random.default_rng(5), *shape)
    got = aux_transpose(m)
    assert got.shape == m.shape and np.array_equal(got, einsum_aux_transpose(m, 3))
    assert np.array_equal(aux_transpose(got), m)
    if m.ndim == 3:
        assert all(np.array_equal(g, aux_transpose(x)) for g, x in zip(got, m))


def test_aux_transpose_on_product():
    rng = np.random.default_rng(6)
    a, b = random_matrix(rng, 2, 2), random_matrix(rng, 3, 3)
    np.testing.assert_array_equal(aux_transpose(np.kron(a, b)), np.kron(a.T, b))


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
        make_r(params, l1 + l2), make_l(params, l1, rep),
        make_l(params, l2, rep), keep=rep.interior())
    assert res > 1e-3 * scale > 0


def test_exchange_residual_is_yang_baxter_on_c2():
    params = RegimeParams.critical(0.7)
    l1, l2 = 0.9, -0.35

    def r(x):
        return make_r(params, x)

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
    # || (A B - s 1) P || is that of the dense projector product bit for bit
    rng = np.random.default_rng(20 + d)
    a, b = (rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d))
            for _ in range(2))
    s = complex(rng.standard_normal(), rng.standard_normal())
    keep = (rng.uniform(size=d) < 0.6).astype(float)
    keep[0] = 1.0
    proj = np.kron(np.eye(2, dtype=complex), np.diag(keep).astype(complex))
    want = np.linalg.norm((a @ b - s * np.eye(2 * d, dtype=complex)) @ proj)
    assert identity_residual(a, b, s, keep) == want
    # A = 1 and B = s 1 on the kept columns only: the residual sees none of
    # the rest
    eye = np.eye(2 * d, dtype=complex)
    b_ok = s * eye + b * (1.0 - np.tile(keep, 2))
    assert identity_residual(eye, b_ok, s, keep) == 0.0


@pytest.mark.parametrize("n", [3, 12])
def test_commutator_residual_equals_dense_product(n):
    rng = np.random.default_rng(40 + n)
    a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(2))
    assert commutator_residual(a, b) == np.linalg.norm(a @ b - b @ a)
    assert commutator_residual(a, a @ a) < 1e-12 * np.linalg.norm(a) ** 3
    assert commutator_residual(a, np.eye(n)) == 0.0


def test_commutator_residual_scales_by_powers_of_two_without_overflow():
    # entries near 2^520: the unscaled products would overflow, but the
    # operands are scaled first, so the value is the unit one times 2^1040
    # for commuting operands and inf for non-commuting ones, without warnings
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = a @ a
    unit = commutator_residual(a, b)
    big = 2.0 ** 520
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert commutator_residual(a * big, b * big) == unit * big * big
        c = rng.standard_normal((6, 6))
        assert commutator_residual(a * big, c * big) == np.inf


def random_operands(rng, *shapes):
    """Random complex operands of the given shapes, entries below 1 in size."""
    return [(rng.uniform(-0.5, 0.5, shape) + 1j * rng.uniform(-0.5, 0.5, shape)) / 2
            for shape in shapes]


@pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stack"])
def test_exchange_residual_scales_by_powers_of_two_without_overflow(stacked):
    # A1 and A2 times 2^510: the unscaled products would pass 2^1020, but
    # every operand is scaled first, so both norms are the unit ones times
    # 2^1020 bit for bit; times 2^600 they are past the float range and
    # read inf; on a stack each sample scales alone; nothing warns
    rng = np.random.default_rng(31)
    d, lead = 3, (4,) if stacked else ()
    r12, m1, m2 = random_operands(rng, lead + (4, 4), lead + (2 * d,) * 2, lead + (2 * d,) * 2)
    keep = np.array([1.0, 0.0, 1.0])
    unit = exchange_residual(r12, m1, m2, keep=keep)
    assert all(np.all((0 < x) & np.isfinite(np.ldexp(x, 1020))) for x in unit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for power, want in ((510, [np.ldexp(x, 1020) for x in unit]), (600, [np.inf] * 2)):
            big = 2.0 ** power
            got = exchange_residual(r12, m1 * big, m2 * big, keep=keep)
            for g, w in zip(got, want):
                assert np.array_equal(g, np.broadcast_to(w, np.shape(g)))
        if stacked:     # a sample past the range leaves the others' bits alone
            m1[1] *= 2.0 ** 600
            m2[1] *= 2.0 ** 600
            got = exchange_residual(r12, m1, m2, keep=keep)
            for g, x in zip(got, unit):
                assert g[1] == np.inf and np.array_equal(np.delete(g, 1), np.delete(x, 1))


@pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stack"])
def test_identity_residual_scales_by_powers_of_two_without_overflow(stacked):
    # A and B times 2^510 and s times 2^1020: the residual is the unit one
    # times 2^1020 bit for bit, where the unscaled product A B would pass
    # the float range; A and B times 2^600 read inf; nothing warns
    rng = np.random.default_rng(32)
    d, lead = 4, (3,) if stacked else ()
    a, b = random_operands(rng, lead + (2 * d,) * 2, lead + (2 * d,) * 2)
    s = np.full(lead + (1, 1), 0.3 - 0.2j) if stacked else 0.3 - 0.2j
    keep = np.array([1.0, 1.0, 0.0, 1.0])
    unit = identity_residual(a, b, s, keep)
    assert np.all((0 < unit) & np.isfinite(np.ldexp(unit, 1020)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = 2.0 ** 510
        assert np.array_equal(identity_residual(a * big, b * big, s * big * big, keep),
                              np.ldexp(unit, 1020))
        big = 2.0 ** 600
        assert np.all(identity_residual(a * big, b * big, s, keep) == np.inf)
    if stacked:
        assert identity_residual(a, b, s, keep).tolist() == [
            identity_residual(x, y, z[0, 0], keep) for x, y, z in zip(a, b, s)]


def test_commutator_residual_of_a_stack_is_each_lone_call():
    # a stack of A against one B: each value is the lone call's bit for bit,
    # scaled by its own power of two, up to inf past the float range
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    b = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) * 2.0 ** 520
    a[1] = np.linalg.matrix_power(b * 2.0 ** -520, 2)      # commutes with b
    a[2] *= 2.0 ** -600
    a[3] *= 2.0 ** 520
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = commutator_residual(a, b)
    want = [commutator_residual(x, b) for x in a]
    assert got.shape == (4,) and got.tolist() == want and want[3] == np.inf
    assert commutator_residual(a[:0], b).shape == (0,)
