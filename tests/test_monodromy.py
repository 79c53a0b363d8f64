import contextlib
import io
import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from defectchain import cli, lax_defect, monodromy, oscillator_reps
from defectchain.cli import main
from defectchain.lax_defect import RegimeParams, defect_rep, make_l, make_l_hat, make_r
from defectchain.monodromy import (BATCH_ENTRIES, ChainSpec, bae_residual, bae_root,
                                   charge_leak, charge_vector, contract, local_tensors,
                                   reference_eigenvalue, reference_residual, rtt_residual,
                                   sector_blocks, sector_commutator, sector_eigenvalues,
                                   transfer_matrix)
from defectchain.oscillator_reps import harmonic_rep, q_oscillator_rep
from dense_oracle import (dense_monodromy, dense_transfer, embed, exchange_oracle,
                          masked_commutator, mpmath_bethe_roots, reference_state, sector_mask,
                          xxx_bethe_polynomial)

XXX = RegimeParams.xxx(theta=0.2)
NC = RegimeParams.noncritical(0.5, theta=0.2)


def diagonal_blocks(t, sectors):
    """(charge, block) of t on each of the sectors, with the check that t is
    exactly 0 between them."""
    blocks = [(sector, t[np.ix_(idx, idx)]) for sector, idx in sectors]
    assert sum(np.count_nonzero(block) for _, block in blocks) == np.count_nonzero(t)
    return blocks


def xxx_chain(n_sites=3, d=6, theta=0.2):
    return ChainSpec(n_sites=n_sites, params=RegimeParams.xxx(theta=theta), rep=harmonic_rep(d))


def nc_chain(n_sites=3, d=6, theta=0.2, eta=0.5):
    params = RegimeParams.noncritical(eta, theta=theta)
    return ChainSpec(n_sites=n_sites, params=params, rep=q_oscillator_rep(d, params.q))


REGIMES = [RegimeParams.xxx(theta=0.2), RegimeParams.critical(0.7, theta=0.2),
           RegimeParams.noncritical(0.5, theta=0.2)]


def contracted_monodromy(spec, lam):
    """The whole monodromy the package's contraction implies: `contract`'s
    pair, multiplied out over the defect step by einsum."""
    bulk, defect = contract(spec, lam)
    m = np.einsum("arbq,bsct->asrctq", bulk, defect)
    d = 2 * spec.chain_dim
    return m.reshape(d, d)


def assert_roundoff_close(got, want):
    """Entrywise within 8 eps of the largest |entry| of want: t(lam) read
    from the defect against the product in the order N+1 ... 1 with the
    defect at any site (measured:
    at most 2.7 eps over N <= 4, D = 3 ... 6, every defect site and regime)."""
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * np.abs(want).max()


def commuting_family(spec, lam1, lam2):
    """verify's commuting-family residual: the commutator of t(lam1) and
    t(lam2) on the blocks of the exact sectors."""
    exact = sector_blocks(spec)[:spec.max_exact_charge + 1]
    return sector_commutator(spec, *(transfer_matrix(spec, x, exact) for x in (lam1, lam2)))


def rtt(spec, lam1, lam2):
    """verify's rtt residual: on the `contract`ed pair at lam1 and lam2 and
    every sector block."""
    lams = np.array([lam1, lam2])
    return rtt_residual(spec, lams, contract(spec, lams), sector_blocks(spec))


def stacked(pairs):
    """The `contract`ed pairs at lam1 and lam2 as the pair of their stacks."""
    return tuple(np.stack(m) for m in zip(*pairs))


def same_bits(a, b):
    """Equal shape, dtype and bytes: equal values with equal signed zeros."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ------------------------------------------------------------ dense oracle

def test_oracle_embedding_on_disjoint_sites_commutes():
    rng = np.random.default_rng(8)
    dims = (2, 2, 3, 2)
    a = embed(rng.standard_normal((4, 4)), (0, 1), dims)
    b = embed(rng.standard_normal((6, 6)), (2, 3), dims)
    np.testing.assert_allclose(a @ b, b @ a, atol=1e-12)


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("d", [3, 6])
def test_monodromy_equals_dense_product_bit_for_bit(params, d):
    # the product read from the defect, R ... R L, against the dense
    # product in the order N+1 ... 1 with the defect at site 1
    for n_sites in range(5):
        spec = ChainSpec(n_sites=n_sites, params=params, rep=defect_rep(params, d))
        for lam in (0.37, -1.2):
            assert np.array_equal(contracted_monodromy(spec, lam), dense_monodromy(spec, lam, 1))


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("d", [3, 6])
def test_transfer_matrix_is_monodromy_trace_bit_for_bit(params, d):
    # t(lam) is built sector block by sector block, traced inside the last
    # contraction step; each block must equal the block of the auxiliary
    # trace of the whole contracted monodromy exactly, signed zeros
    # included, and the trace must vanish between the blocks
    for n_sites in range(5):
        spec = ChainSpec(n_sites=n_sites, params=params, rep=defect_rep(params, d))
        dim = spec.chain_dim
        sectors = sector_blocks(spec)
        for lam in (0.37, -1.2):
            blocks = contracted_monodromy(spec, lam).reshape(2, dim, 2, dim)
            t = np.einsum("aiaj->ij", blocks)
            assert np.array_equal(dense_transfer(spec, lam, 1), t)
            # the cyclic trace: the trace of the product in the order N+1
            # ... 1 with the defect at any site, up to roundoff
            for site in range(1, n_sites + 2):
                assert_roundoff_close(t, dense_transfer(spec, lam, site))
            got = transfer_matrix(spec, lam, sectors)
            want = diagonal_blocks(t, sectors)
            assert [k for k, _ in got] == [k for k, _ in want]
            assert all(same_bits(a, b) for (_, a), (_, b) in zip(got, want))


def test_defect_only_chain_is_lax_operator():
    spec = xxx_chain(n_sites=0, d=5)
    lam = 0.9
    t = contracted_monodromy(spec, lam)
    l = make_l(spec.params, lam - spec.theta, spec.rep)
    np.testing.assert_allclose(t, l, atol=1e-14)


@pytest.mark.parametrize("grid", [0.9, np.array([0.9, -0.3, 1.7])], ids=["lam", "grid"])
def test_contract_of_no_bulk_sites_is_the_identity(grid):
    # N = 0: the product of no R is the (2, 1, 2, 1) identity (a stack of
    # them at a grid), read in place, and the defect tensor is L
    spec = xxx_chain(n_sites=0, d=5)
    bulk, defect = contract(spec, grid)
    assert bulk.shape == np.shape(grid) + (2, 1, 2, 1) and bulk.dtype == complex
    assert (bulk == np.eye(2).reshape(2, 1, 2, 1)).all()
    assert same_bits(defect, local_tensors(spec, grid)[0])


def test_monodromy_matches_hand_composed_contraction():
    spec = xxx_chain(n_sites=2, d=4)
    lam = 0.613
    d = spec.rep.dim
    r = make_r(spec.params, lam).reshape(2, 2, 2, 2)
    l = make_l(spec.params, lam - spec.theta, spec.rep).reshape(2, d, 2, d)
    # read from the defect, T = R_{0,2} R_{0,1} L_{0,d}; the auxiliary index
    # chains through the product:
    # T^{a e}_{(s2 s1 sd),(t2 t1 td)} = R^{ab}_{s2 t2} R^{bc}_{s1 t1} L^{ce}_{sd td}
    oracle = np.einsum("aubv,bwcx,cyez->auwyevxz", r, r, l)
    # reorder chain indices to the chain basis (d, 1, 2)
    dim = 2 * 2 * d * 2
    oracle = oracle.transpose(0, 3, 2, 1, 4, 7, 6, 5).reshape(dim, dim)
    np.testing.assert_allclose(contracted_monodromy(spec, lam), oracle, atol=1e-13)
    # with the defect at site 2 of 3, in the order 3, 2, 1, R_{0,3} L_{0,2}
    # R_{0,1}, the monodromy differs, its auxiliary trace does not
    ordered = np.einsum("aubv,bwcx,cyez->auwyevxz", r, l, r)
    ordered = ordered.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(dim, dim)
    assert np.abs(ordered - oracle).max() > 0.1
    half = dim // 2
    np.testing.assert_allclose(oracle[:half, :half] + oracle[half:, half:],
                               ordered[:half, :half] + ordered[half:, half:], atol=1e-13)


@pytest.mark.parametrize("chain", [xxx_chain, nc_chain], ids=["xxx", "nc"])
def test_rtt_relation_on_sectors(chain):
    spec = chain()
    rng = np.random.default_rng(3)
    for l1, l2 in rng.uniform(-1.0, 1.0, size=(3, 2)):
        assert rtt(spec, l1, l2) < 1e-10


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
def test_rtt_residual_scales_exactly_past_the_product_range(monkeypatch, params):
    # T(lam) scales with the defect's L and the residual with its square:
    # L times 2^510 takes the block products past the float range, yet the
    # residual is the unscaled one times 2^1020 bit for bit; times 2^600 the
    # residual itself is past the float range and reads inf; neither warns
    spec = ChainSpec(n_sites=3, params=params, rep=defect_rep(params, 6))
    base = rtt(spec, 0.58, -0.33)
    make = monodromy.make_l
    for power, want in ((510, math.ldexp(base, 1020)), (600, math.inf)):
        monkeypatch.setattr(monodromy, "make_l", lambda *args, p=power: make(*args) * 2.0 ** p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rtt(spec, 0.58, -0.33) == want
    assert 0 < base and math.isfinite(math.ldexp(base, 1020))


@pytest.mark.parametrize("chain", [xxx_chain, nc_chain], ids=["xxx", "nc"])
def test_commuting_family_on_sectors(chain):
    spec = chain()
    rng = np.random.default_rng(5)
    for l1, l2 in rng.uniform(-1.2, 1.2, size=(4, 2)):
        assert commuting_family(spec, l1, l2) < 1e-10


def test_commuting_family_fails_without_projection():
    # the truncation leak is real: the unprojected commutator is large
    spec = xxx_chain()
    t1 = dense_transfer(spec, 0.63, 2)
    t2 = dense_transfer(spec, -0.82, 2)
    assert np.linalg.norm(t1 @ t2 - t2 @ t1) > 1.0


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("n_sites", [3, 1, 0])
def test_local_tensors_are_r_and_l_and_feed_every_contraction(monkeypatch, params, n_sites):
    # one make_r per lam, shared by the bulk sites, none for N = 0, then the
    # defect's L; handing the tensors to the contractions gives the bits of
    # building them there
    spec = ChainSpec(n_sites=n_sites, params=params, rep=defect_rep(params, 5))
    built = []

    def counted(*args, make=make_r):
        built.append(args[1])
        return make(*args)

    monkeypatch.setattr(monodromy, "make_r", counted)
    local = local_tensors(spec, 0.41)
    assert built == ([0.41] if n_sites else [])
    *bulk, defect = local
    assert len(bulk) == (n_sites > 0) and all(m.shape == (2, 2, 2, 2) for m in bulk)
    assert same_bits(defect, make_l(params, 0.41 - spec.theta, spec.rep).reshape(2, 5, 2, 5))
    sectors = sector_blocks(spec)
    pair = contract(spec, 0.41, local)
    for (_, mine), (_, theirs) in zip(transfer_matrix(spec, 0.41, sectors, pair),
                                      transfer_matrix(spec, 0.41, sectors)):
        assert same_bits(mine, theirs)
    assert (rtt_residual(spec, (0.41, -0.3), stacked([pair, contract(spec, -0.3)]), sectors)
            == rtt(spec, 0.41, -0.3))


def test_charge_conservation():
    spec = xxx_chain()
    assert charge_leak(spec, local_tensors(spec, 0.77)) == 0.0
    # exact commutation on the full space as well (grading is exact)
    t = dense_transfer(spec, 0.77, 2)
    qd = np.diag(charge_vector(spec)).astype(complex)
    assert np.linalg.norm(t @ qd - qd @ t) < 1e-10


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_chain_residuals_match_dense_oracles(params, n_sites):
    # RTT on the charge blocks of the monodromy pair read from the defect,
    # against the relation on the explicit 4 dim x 4 dim dense pair in that
    # order with the sector projector; the commuting family on the
    # exact-sector blocks of transfer_matrix, against the sector-masked
    # dense commutator; and the charge measure, 0 on every local tensor
    rng = np.random.default_rng(n_sites)
    spec = ChainSpec(n_sites=n_sites, params=params, rep=defect_rep(params, 6))
    keep = sector_mask(spec)
    dim = spec.chain_dim
    l1, l2 = 0.58, -0.33
    local = [local_tensors(spec, x) for x in (l1, l2)]
    m1, m2 = (dense_monodromy(spec, x, 1) for x in (l1, l2))
    t1, t2 = (dense_transfer(spec, x, 1) for x in (l1, l2))
    # RTT holds: equal to the oracle up to roundoff of the oracle's scale,
    # with the defect at site 1 or 2; T(lam2) and T(lam1) in the places of T1 and T2
    # break it at O(1): equal to rtol 1e-12
    pairs = [contract(spec, x, t) for x, t in zip((l1, l2), local)]
    res, scale = exchange_oracle(make_r(params, l1 - l2), m1, m2, keep)
    sectors = sector_blocks(spec)
    assert abs(rtt_residual(spec, (l1, l2), stacked(pairs), sectors) - res) <= 1e-12 * scale
    res, scale = exchange_oracle(make_r(params, l1 - l2),
                                 *(dense_monodromy(spec, x, 2) for x in (l1, l2)), keep)
    assert abs(rtt_residual(spec, (l1, l2), stacked(pairs), sectors) - res) <= 1e-12 * scale
    want, scale = exchange_oracle(make_r(params, l1 - l2), m2, m1, keep)
    assert want > 1e-3 * scale
    np.testing.assert_allclose(rtt_residual(spec, (l1, l2), stacked(pairs[::-1]), sectors), want,
                               rtol=1e-12)
    # the commuting family, and a block-diagonal partner t(lam2) + x that
    # does not commute with t(lam1)
    scale = np.linalg.norm(t1) * np.linalg.norm(t2)
    assert abs(commuting_family(spec, l1, l2) - masked_commutator(t1, t2, keep)) <= 1e-12 * scale
    dense = [dense_transfer(spec, x, 2) for x in (l1, l2)]
    assert abs(commuting_family(spec, l1, l2) - masked_commutator(*dense, keep)) <= 1e-12 * scale
    x = np.zeros((dim, dim), dtype=complex)
    for _, idx in sector_blocks(spec):
        x[np.ix_(idx, idx)] = rng.standard_normal((len(idx),) * 2)
    want = masked_commutator(t1, t2 + x, keep)
    assert want > 1e-3 * scale
    exact = sector_blocks(spec)[:spec.max_exact_charge + 1]
    b1, b2 = (transfer_matrix(spec, lam, exact) for lam in (l1, l2))
    partner = [(k, b + x[np.ix_(idx, idx)]) for (k, b), (_, idx) in zip(b2, exact)]
    np.testing.assert_allclose(sector_commutator(spec, b1, partner), want, rtol=1e-12)
    assert all(charge_leak(spec, local_tensors(spec, x)) == 0.0 for x in (l1, l2))


def test_sector_mask_counts():
    # the oracle's mask of the sectors the chain residuals keep
    spec = xxx_chain()
    keep = sector_mask(spec)                # Q <= D - 2 = 4
    q = charge_vector(spec)
    assert set(keep) == {0.0, 1.0}
    assert int(keep.sum()) == int(np.sum(q <= 4))


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
def test_rtt_sees_a_defect_entry_off_by_one_part_in_1e9(params):
    # one charge-conserving entry of the defect tensor at lam2, scaled by
    # 1 + 1e-9: RTT breaks by far more than its 1e-10 gate, and the block
    # route reads what the dense pair of the same local tensors reads
    spec = ChainSpec(n_sites=3, params=params, rep=defect_rep(params, 6))
    l1, l2 = 0.58, -0.33
    local = [local_tensors(spec, x) for x in (l1, l2)]
    local[1][-1] = local[1][-1].copy()      # the defect's L
    local[1][-1][0, 1, 0, 1] *= 1 + 1e-9
    assert charge_leak(spec, local[1]) == 0.0
    got = rtt_residual(spec, (l1, l2), stacked([contract(spec, x, t)
                                                for x, t in zip((l1, l2), local)]),
                       sector_blocks(spec))
    m1, m2 = (dense_monodromy(spec, x, 1, t) for x, t in zip((l1, l2), local))
    want, scale = exchange_oracle(make_r(params, l1 - l2), m1, m2, sector_mask(spec))
    assert got > 1e-9
    assert abs(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("chain", [xxx_chain, nc_chain], ids=["xxx", "nc"])
def test_charge_vector_matches_index_loop(chain):
    # oracle: the grading summed site by site over the unravelled basis index
    spec = chain(n_sites=3, d=5)
    spin = [0.0, 1.0] if spec.params.regime == "XXX" else [1.0, 0.0]
    gradings = [spin if d == 2 else list(range(d)) for d in spec.dims]
    want = [sum(g[k] for g, k in zip(gradings, np.unravel_index(i, spec.dims)))
            for i in range(spec.chain_dim)]
    np.testing.assert_array_equal(charge_vector(spec), want)


@pytest.mark.parametrize("chain", [xxx_chain, nc_chain], ids=["xxx", "nc"])
def test_reference_state_eigenvalue(chain):
    spec = chain()
    vec = reference_state(spec)
    for lam in (0.77, -0.4, 1.3):
        tv = dense_transfer(spec, lam, 2) @ vec
        ev = reference_eigenvalue(spec, lam)
        assert np.linalg.norm(tv - ev * vec) / abs(ev) < 1e-10
        blocks = transfer_matrix(spec, lam, sector_blocks(spec))
        assert_roundoff_close(blocks[0][1][:, 0], tv @ vec)
        tv = dense_transfer(spec, lam, 1) @ vec
        assert reference_residual(spec, blocks, lam) == np.linalg.norm(tv - ev * vec) / abs(ev)


def test_xxx_reference_eigenvalue_formula():
    spec = xxx_chain()
    lam, th, n = 0.77, spec.theta, spec.n_sites
    want = (lam + 1j) ** n * (lam - th + 1j) + 1j * lam ** n
    assert reference_eigenvalue(spec, lam) == pytest.approx(want)


def test_resource_bound_rejected():
    with pytest.raises(ValueError, match="resource bound"):
        ChainSpec(n_sites=12, params=RegimeParams.xxx(), rep=harmonic_rep(8))


# ------------------------------------------------------------------ BAE

def test_bae_empty_roots():
    assert bae_residual(XXX, 1, "+", []).size == 0


def test_bae_coincident_roots_rejected():
    with pytest.raises(ValueError):
        bae_residual(XXX, 1, "+", [0.5, 0.5])


def test_bae_root_from_independent_polynomial_oracle_xxx():
    # N = 1, M = 1: a(u) = d(u) is quadratic; its roots are found
    # independently with numpy and must yield vanishing residuals
    params = RegimeParams.xxx(theta=0.2)
    for sign in "+-":
        roots = np.roots(xxx_bethe_polynomial(sign, params.theta))
        for r in roots:
            assert abs(bae_residual(params, 1, sign, [r])[0]) < 1e-10
        assert bae_root(params, sign) == pytest.approx(max(roots, key=lambda z: z.real),
                                                          abs=1e-13)


def chain_q1_block(params, sign, lam, d=8):
    """The charge-0 entry and the charge-1 block of t(lam) on the one-site
    chain: `transfer_matrix` with L for '+', the dense oracle with the
    defect's Lhat(lam - theta) for '-'."""
    spec = ChainSpec(1, params, defect_rep(params, d))
    sectors = sector_blocks(spec)
    if sign == "+":
        blocks = dict(transfer_matrix(spec, lam, sectors))
        return blocks[0][0, 0], blocks[1]
    local = [make_r(params, lam).reshape(2, 2, 2, 2),
             make_l_hat(params, lam - params.theta, spec.rep).reshape(2, d, 2, d)]
    m, n = dense_monodromy(spec, lam, 1, local), spec.chain_dim
    t = m[:n, :n] + m[n:, n:]
    (_, zero), (_, one) = sectors[:2]
    return t[zero[0], zero[0]], t[np.ix_(one, one)]


def tq_eigenvalue(params, sign, roots, lam):
    """Lambda(lam) from T-Q with the vacuum weights written out by hand:
    (a Q(lam - i) + d Q(lam + i)) / Q(lam) in xxx, the shifts swapped and Q a
    product of sinh mu (lam - u) otherwise; and a + d."""
    x, th = lam, params.theta
    if params.regime == "XXX":
        a, d = ((x + 1j) * (x - th + 1j), 1j * x) if sign == "+" else \
            (1j * (x + 1j), -x * (x - th))
        q, step = (lambda y: np.prod([y - u for u in roots])), -1j
    else:
        mu = params.mu_complex
        sh = lambda y: 2.0 * np.sinh(mu * y)
        a, d = ((sh(x) * sh(x - th + 1j), -sh(x + 1j) * np.exp(-mu * (x - th))) if sign == "+"
                else (-sh(x) * np.exp(mu * (x - th + 1j)), -sh(x + 1j) * sh(x - th)))
        q, step = (lambda y: np.prod([np.sinh(mu * (y - u)) for u in roots])), 1j
    return (a * q(lam + step) + d * q(lam - step)) / q(lam), a + d


@pytest.mark.parametrize("make", [
    RegimeParams.xxx, lambda theta: RegimeParams.critical(0.7, theta=theta),
    lambda theta: RegimeParams.noncritical(0.5, theta=theta)], ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("theta", [0.0, 0.3, -0.2])
def test_bae_root_gives_an_eigenvalue_of_the_chain(make, theta):
    # the root bae_root returns is checked on the chain itself, which
    # bae_residual cannot do: through T-Q it must give an eigenvalue of the
    # Q = 1 block of t(lam), for L and for Lhat, at two lam (at theta = 0 in
    # the anisotropic regimes the root is singular, a(u) = d(u) = 0); in xxx
    # both roots of the quadratic give the block's two eigenvalues
    params = make(theta)
    for sign in "+-":
        root = bae_root(params, sign)
        for lam in (0.41 + 0.07j, -0.63 + 0.2j):
            vacuum, block = chain_q1_block(params, sign, lam)
            ev = np.linalg.eigvals(block)
            tq, ref = tq_eigenvalue(params, sign, [root], lam)
            assert np.abs(ev - tq).min() <= 1e-12 * abs(tq), (sign, lam)
            assert abs(vacuum - ref) <= 1e-12 * abs(ref)
            if params.regime == "XXX":
                both = [tq_eigenvalue(params, sign, [u], lam)[0]
                        for u in np.roots(xxx_bethe_polynomial(sign, theta))]
                gap = np.abs(ev[:, None] - np.array(both))     # matched one to one
                assert min(max(gap[0, 0], gap[1, 1]), max(gap[0, 1], gap[1, 0])) \
                    <= 1e-12 * np.abs(ev).max()
    if params.regime == "XXX" and theta == 0.3:
        # the root of the equation bae_root solved before gives no eigenvalue
        old = 1.5183577250253748 - 1.0757995646153655j
        for lam in (0.41 + 0.07j, -0.63 + 0.2j):
            tq = tq_eigenvalue(params, "+", [old], lam)[0]
            assert np.abs(np.linalg.eigvals(chain_q1_block(params, "+", lam)[1]) - tq).min() \
                > 1e-2 * abs(tq)


@pytest.mark.parametrize("regime", ["xxx", "critical", "noncritical"])
def test_bae_root_products_are_polymul_bit_for_bit(monkeypatch, regime):
    # the quadratic's products are np.convolve of the linear factors, which
    # is all np.polymul does with them: the same coefficients, so the same
    # roots, at every theta of a sweep
    make = {"xxx": lambda th: RegimeParams.xxx(theta=th),
            "critical": lambda th: RegimeParams.critical(0.7, theta=th),
            "noncritical": lambda th: RegimeParams.noncritical(0.5, theta=th)}[regime]

    def roots():
        out = []
        for th in np.linspace(-0.25, 0.25, 11):
            out.append([bae_root(make(th), sign) for sign in "+-"])
        return out

    ours = roots()
    monkeypatch.setattr(np, "convolve", np.polymul)
    assert roots() == ours


@pytest.mark.parametrize("p", [
    [1.0, 2.0, 1.0], [1.0, 0.0, -4.0], [1.0, 0.0, 0.0], [2.0, -3.0, 0.0], [0.0, 3.0, -6.0],
    [0.0, 0.0, 1.0, 2.0], [1e-300, 1.0, 1.0], [1.0, 1e300, 1.0], [3.0 + 1j, 1e-8j, -2.0],
    [1.0, -(1e8 + 1e-8), 1.0], [1j, 1.0 - 2j, 0.5 + 1e-12j], [0.0, 0.0, 0.0]])
def test_quadratic_roots_are_numpy_roots(p):
    # leading zeros trimmed, a zero constant term a root at 0, a double root,
    # no root of a constant, and the cancelling b^2 >> 4 a c case, in which
    # the closed form keeps both roots to the last bits
    from defectchain.monodromy import _quadratic_roots
    ours, theirs = np.sort_complex(_quadratic_roots(p)), np.sort_complex(np.roots(p))
    tol = 1e-7 if p == [1.0, 2.0, 1.0] else 1e-13   # np.roots splits a double root by ~sqrt(eps)
    assert len(ours) == len(theirs)
    assert (np.abs(ours - theirs) <= tol * np.maximum(np.abs(theirs), 1.0)).all()


@pytest.mark.parametrize("make", [
    RegimeParams.xxx, *(lambda theta, mu=mu: RegimeParams.critical(mu, theta=theta)
                        for mu in (0.05, 0.7, 1.5, 3.1)),
    *(lambda theta, eta=eta: RegimeParams.noncritical(eta, theta=theta)
      for eta in (0.01, 0.5, 5.0, 50.0))],
    ids=["xxx", "crit-0.05", "crit-0.7", "crit-1.5", "crit-3.1", "nc-0.01", "nc-0.5", "nc-5",
         "nc-50"])
def test_bae_root_is_the_numpy_roots_root(monkeypatch, make):
    # np.roots, the eigensolver the closed form replaced, is the oracle: the
    # same root to 1e-13 at every theta of a sweep, in both orientations
    thetas = [*np.linspace(-3.0, 3.0, 25), 0.06, -10.0, 10.0]
    ours = [bae_root(params, sign) for params in map(make, thetas) for sign in "+-"]
    monkeypatch.setattr(monodromy, "_quadratic_roots", lambda p: list(np.roots(p)))
    theirs = [bae_root(params, sign) for params in map(make, thetas) for sign in "+-"]
    assert max(abs(a - b) for a, b in zip(ours, theirs)) <= 1e-13


def test_bae_root_far_out_in_theta_is_exact():
    # the isotropic roots at theta = +-1e6 against their 30-digit values,
    # part by part: the real part to an ulp, and the imaginary part,
    # 1e-12 beside a real part of 1e6 or -1 beside 1e-6, to 1e-15 relative
    import mpmath as mp
    far, near = "1000000.000000999999999998", "0.000000999999999998000000000009"
    small, unit = "-9.99999999996000000000021e-13", "-0.999999999999000000000004"
    for theta, sign, exact in [(1e6, "+", (far, small)), (1e6, "-", (far, unit)),
                               (-1e6, "+", (near, unit)), (-1e6, "-", (near, small))]:
        re, im = map(mp.mpf, exact)
        root = bae_root(RegimeParams.xxx(theta=theta), sign)
        assert abs(root.real - re) <= math.ulp(root.real), (theta, sign)
        assert abs(root.imag - im) <= 1e-15 * abs(im), (theta, sign)


@pytest.mark.parametrize("theta", [2000.0, -2000.0, 600.0, 1e300])
def test_bae_root_past_the_exponent_bound_is_a_value_error_naming_theta(theta):
    params = RegimeParams.critical(0.7, theta=theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"theta = {theta} puts")):
            bae_root(params, "+")
    # just inside the bound both roots are found, valid to roundoff
    params = RegimeParams.critical(0.7, theta=math.copysign(499.0, theta))
    for sign in "+-":
        assert abs(bae_residual(params, 1, sign, [bae_root(params, sign)])[0]) < 1e-12


def test_bae_root_noncritical_newton_oracle():
    # mpmath's root of a(u) = d(u) is bae_root's, up to the period pi / eta
    # of the non-critical weights, and its residual vanishes
    params = RegimeParams.noncritical(0.5, theta=0.2)
    roots = mpmath_bethe_roots(0.5, 0.2)
    assert set(roots) == {"+", "-"}
    for sign, root in roots.items():
        assert abs(bae_residual(params, 1, sign, [root])[0]) < 1e-10
        gap = (bae_root(params, sign) - root) / (math.pi / 0.5)
        assert abs(gap - round(gap.real)) < 1e-13


@pytest.mark.parametrize("regime, guess", [
    ("xxx", [1.0 - 0.4j, -0.8 - 0.6j]), ("critical", [-0.7 - 0.4j, 0.2 - 1.0j]),
    ("noncritical", [0.0 - 0.8j, 0.2 + 0.4j])], ids=["xxx", "crit", "nc"])
def test_bae_two_root_consistency(regime, guess):
    # N = 2, M = 2: solve the coupled two-root system with a generic 2d
    # Newton iteration written directly on the chain's T-Q equation (the
    # anisotropic shifts swapped), then check the residual vector and that
    # Lambda from T-Q is an eigenvalue of the Q = 2 block of t(lam): with
    # two roots the orientation of the shifts matters
    th = 0.2
    if regime == "xxx":
        params = RegimeParams.xxx(theta=th)
        a = lambda u: (u + 1j) ** 2 * (u - th + 1j)
        d = lambda u: 1j * u ** 2
        factor, step = (lambda x: x), -1j
    else:
        params = (RegimeParams.critical(0.7, theta=th) if regime == "critical"
                  else RegimeParams.noncritical(0.5, theta=th))
        mu = params.mu_complex
        sh = lambda x: 2.0 * np.sinh(mu * x)
        a = lambda u: sh(u) ** 2 * sh(u - th + 1j)
        d = lambda u: -sh(u + 1j) ** 2 * np.exp(-mu * (u - th))
        factor, step = (lambda x: np.sinh(mu * x)), 1j

    def tq(x, z):       # a(x) Q(x + step) + d(x) Q(x - step), and Q(x)
        q = lambda y: factor(y - z[0]) * factor(y - z[1])
        return a(x) * q(x + step) + d(x) * q(x - step), q(x)

    def eqs(z):
        return np.array([tq(u, z)[0] for u in z])

    z = np.array(guess)
    for _ in range(60):
        f = eqs(z)
        if np.abs(f).max() < 1e-13:
            break
        jac = np.zeros((2, 2), dtype=complex)
        h = 1e-7
        for j in range(2):
            dz = np.zeros(2, dtype=complex)
            dz[j] = h
            jac[:, j] = (eqs(z + dz) - eqs(z - dz)) / (2 * h)
        z = z - np.linalg.solve(jac, f)
    res = bae_residual(params, 2, "+", list(z))
    assert np.abs(res).max() < 1e-9
    spec = ChainSpec(2, params, defect_rep(params, 6))
    for lam in (0.41 + 0.07j, -0.63 + 0.2j):
        ev = np.linalg.eigvals(dict(transfer_matrix(spec, lam, sector_blocks(spec)))[2])
        num, den = tq(lam, z)
        assert np.abs(ev - num / den).min() <= 1e-12 * abs(num / den)


def test_overflowing_chain_product_is_a_value_error():
    # e^(mu lam) = e^300 at each of three sites: every site is in range,
    # their product is not
    params = RegimeParams.critical(3.0)
    spec = ChainSpec(n_sites=2, params=params, rep=defect_rep(params, 4))
    sectors = sector_blocks(spec)
    for build in (lambda *args: rtt(*args, 0.0),
                  lambda *args: transfer_matrix(*args, sectors)):
        with pytest.raises(ValueError, match="monodromy of 3 sites overflows at lam = 100"):
            build(spec, 100.0)
    assert all(np.isfinite(block).all() for _, block in transfer_matrix(spec, 60.0, sectors))


# ------------------------------------------------------------ lam grids

def grid_chains(params, d=4):
    """Chains of N = 0, 1 and 3 sites."""
    for n in (0, 1, 3):
        yield ChainSpec(n_sites=n, params=params, rep=defect_rep(params, d))


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
def test_grid_blocks_equal_the_scalar_blocks_bit_for_bit(params):
    # one contraction for the whole grid, every slice the lone lam's
    grid = np.linspace(-1.3, 0.9, 4)
    for spec in grid_chains(params):
        sectors = sector_blocks(spec)
        local = local_tensors(spec, grid)
        total, first = contract(spec, grid, local)
        blocks = transfer_matrix(spec, grid, sectors, (total, first))
        assert [k for k, _ in blocks] == [k for k, _ in sectors]
        for k, lam in enumerate(grid):
            assert all(same_bits(m[k], lone) for m, lone in zip(local, local_tensors(spec, lam)))
            lone_total, lone_first = contract(spec, lam)
            assert same_bits(first[k], lone_first) and same_bits(total[k], lone_total)
            for (_, mine), (_, theirs) in zip(blocks, transfer_matrix(spec, lam, sectors)):
                assert same_bits(mine[k], theirs)
        # the commutators of the grid's blocks with one lam's, lam by lam
        one = [(sector, block[0]) for sector, block in blocks]
        want = [sector_commutator(spec, [(q, b[k]) for q, b in blocks], one)
                for k in range(len(grid))]
        assert sector_commutator(spec, blocks, one) == want and want[0] == 0.0


def test_grid_guards_name_the_first_lam_they_stop_at(monkeypatch):
    params = RegimeParams.critical(3.0)
    spec = ChainSpec(n_sites=2, params=params, rep=defect_rep(params, 4))
    sectors = sector_blocks(spec)
    # each guard names the first lam it fails at: the blocks overflow from
    # lam = 100, the product of the two R from lam = 120
    with pytest.raises(ValueError, match="monodromy of 3 sites overflows at lam = 100.0: "):
        transfer_matrix(spec, np.array([60.0, 100.0]), sectors)
    with pytest.raises(ValueError, match="monodromy of 3 sites overflows at lam = 120.0: "):
        contract(spec, np.array([60.0, 100.0, 120.0]))
    # a leak at the second lam of a grid, in the bulk R
    make = monodromy.make_r

    def leaky(params, lam):
        m = make(params, lam).copy()
        m[1, 0, 1] = 1e-300
        return m

    monkeypatch.setattr(monodromy, "make_r", leaky)
    grid = np.array([0.25, 0.5, 0.75])
    with pytest.raises(ValueError, match="leaks charge at lam = 0.5: the bulk R-matrix has "):
        contract(spec, grid)
    local = local_tensors(spec, grid)
    assert [charge_leak(spec, [m[k] for m in local]) > 0 for k in range(3)] == [
        False, True, False]


def traced_peak(argv):
    """The largest traced allocation of a `spectrum` run, in bytes."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_sites, defect_site, d, batch", [
    (4, 1, 6, 26), (4, 3, 8, 22), (5, 1, 8, 6), (5, 4, 8, 6), (6, 1, 8, 2), (6, 4, 8, 2),
    (8, 1, 8, 1), (0, 1, 8, 198), (2, 1, 4, 301), (3, 2, 5, 94), (0, 1, 16, 51),
    (0, 1, 2048, 1)])
def test_a_batch_holds_at_most_batch_entries(n_sites, defect_site, d, batch):
    # what a spectrum batch holds beyond a one-lam run, every array traced
    # (product, gathers, blocks, eigvals stacks, eigenbasis products,
    # commutator temporaries and sort keys), fits in BATCH_ENTRIES complex
    # entries, or the batch is one lam.  Measured: 0.89, 0.88, 0.79, 0.79,
    # 0.57, 0.57, 0.89, 0.79, 0.89 and 0.93 of it at the batches above 1
    spec = ChainSpec(n_sites=n_sites, params=XXX, rep=types.SimpleNamespace(dim=d))
    assert spec.batch == batch
    if batch > 1:
        argv = ["spectrum", "--sites", str(n_sites), "--defect-site", str(defect_site),
                "--fock-dim", str(d)]
        one, full = (traced_peak([*argv, f"--grid=-1:1:{k}"]) for k in (1, batch))
        assert full - one <= BATCH_ENTRIES * 16


# ------------------------------------------------------ sector eigenvalues

def per_lam_eigvals(blocks):
    """The oracle: each sector's eigenvalues, eigvals at one lam at a time."""
    return [np.array([np.linalg.eigvals(m) for m in b]) for _, b in blocks]


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("smallest", [1, monodromy.MIN_EIGENBASIS_SIZE], ids=["all", "default"])
def test_sector_eigenvalues_are_the_per_lam_eigvals(monkeypatch, params, smallest):
    # every eigenvalue within 1e-12 of the largest |eigenvalue| at its lam of
    # one of the oracle's, and back, on N = 1 ... 5, D = 3 ... 8 and 1-, 2-,
    # 3- and 5-point grids, with the eigenbasis on every exact sector (`all`)
    # or on those of at least MIN_EIGENBASIS_SIZE states; the first lam's
    # rows are the oracle's bits, and so are every lam's rows of a one-lam
    # grid, of a sector above the ceiling and of a smaller exact sector
    monkeypatch.setattr(monodromy, "MIN_EIGENBASIS_SIZE", smallest)
    for n_sites in range(1, 6):
        for d in range(3, 9):
            spec = ChainSpec(n_sites=n_sites, params=params, rep=defect_rep(params, d))
            for count in (1, 2, 3, 5):
                blocks = transfer_matrix(spec, np.linspace(-1.3, 0.9, count), sector_blocks(spec))
                got, want = sector_eigenvalues(spec, blocks), per_lam_eigvals(blocks)
                scale = np.abs(np.concatenate(want, axis=1)).max(1)
                for (q, _), g, w in zip(blocks, got, want):
                    assert g.shape == w.shape
                    dist = np.abs(g[:, :, None] - w[:, None, :])
                    worst = np.maximum(dist.min(1).max(1), dist.min(2).max(1))
                    assert (worst <= 1e-12 * scale).all(), (n_sites, d, count, q, worst / scale)
                    assert same_bits(g[0], w[0])
                    if q > spec.max_exact_charge or count == 1 or w.shape[-1] < smallest:
                        assert same_bits(g, w)


def test_sector_eigenvalues_read_a_commuting_stack_off_one_eigenbasis(monkeypatch):
    # one eig and no eigvals on an exact sector of a commuting stack, one
    # matrix near 1e200: the first lam's eigenvalues are eigvals' bits, every
    # other lam's within 1e-13 of its largest |eigenvalue| of the exact ones
    spec = xxx_chain()
    n = monodromy.MIN_EIGENBASIS_SIZE
    lams = np.arange(1.0, 3 * n + 1).reshape(3, n) * np.array([[1.0], [0.5j], [-1e200]])
    v = np.random.default_rng(n).standard_normal((n, n)) + 1j * np.eye(n)
    stack = np.einsum("ij,kj,jl->kil", v, lams, np.linalg.inv(v))
    first = np.linalg.eigvals(stack[0])

    def refuse(*args):
        raise AssertionError("eigvals ran")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (got,) = sector_eigenvalues(spec, [(0, stack)])
    assert same_bits(got[0], first)
    for row, want in zip(got[1:], lams[1:]):
        dist = np.abs(row[:, None] - want[None, :])
        assert max(dist.min(0).max(), dist.min(1).max()) <= 1e-13 * np.abs(want).max()


def coupled(diagonal):
    """diag(diagonal) with its first two states coupled by 1 both ways."""
    m = np.diag(np.asarray(diagonal, dtype=complex))
    m[0, 1] = m[1, 0] = 1.0
    return m


@pytest.mark.parametrize("t0, split", [
    # t0 repeats its first eigenvalue, and t1, which commutes with it,
    # splits it: V = 1 does not diagonalise t1, whose diagonal is not its
    # spectrum
    (np.diag([2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]) + 0j, coupled(np.arange(1.0, 9.0))),
    # a Jordan block: eig's V is singular, and inv raises
    (np.eye(8, k=1) + 0j, np.diag(np.arange(1.0, 9.0)) + 0j),
    # nearly so: cond(V) is about 3e19
    (np.eye(8, k=1) + np.diag(np.arange(8) * 1e-3) + 0j, np.diag(np.arange(1.0, 9.0)) + 0j),
], ids=["degenerate", "singular", "ill-conditioned"])
def test_sector_eigenvalues_fall_back_to_eigvals_where_the_eigenbasis_fails(t0, split):
    # a stack the first lam's eigenbasis does not diagonalise returns
    # eigvals' bits at every lam, without a warning
    spec = xxx_chain()
    stack = np.stack([t0, split, 2.0 * split])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (got,) = sector_eigenvalues(spec, [(0, stack)])
    assert same_bits(got, np.linalg.eigvals(stack))


# ------------------------------------------------------------ sector blocks

def every_chain(params, n_max=4, d=4):
    """Chains of N = 0 ... n_max sites."""
    for n in range(n_max + 1):
        yield ChainSpec(n_sites=n, params=params, rep=defect_rep(params, d))


def test_sector_blocks_partition_the_basis_by_charge():
    for params in REGIMES:
        for spec in every_chain(params):
            q = charge_vector(spec)
            sectors = sector_blocks(spec)
            assert [k for k, _ in sectors] == list(range(len(sectors)))
            assert sorted(np.concatenate([idx for _, idx in sectors])) == list(range(len(q)))
            assert all((q[idx] == k).all() for k, idx in sectors)


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
def test_sector_commutator_matches_dense_masked_commutator(params):
    rng = np.random.default_rng(11)
    lam, lam0 = 0.63, -0.41
    for spec in every_chain(params):
        sectors = sector_blocks(spec)
        t, t0 = (dense_transfer(spec, x, 1) for x in (lam, lam0))
        blocks, blocks0 = (transfer_matrix(spec, x, sectors) for x in (lam, lam0))
        scale = np.linalg.norm(t) * np.linalg.norm(t0)
        got = sector_commutator(spec, blocks, blocks0)
        assert abs(got - masked_commutator(t, t0, sector_mask(spec))) <= 1e-12 * scale
        # and the traces in the order N+1 ... 1 with the defect at every site
        for site in range(1, spec.n_sites + 2):
            dense = [dense_transfer(spec, x, site) for x in (lam, lam0)]
            assert abs(got - masked_commutator(*dense, sector_mask(spec))) <= 1e-12 * scale
        # the blocks of the dense trace, and the exact sectors' blocks alone,
        # give the same bits
        assert sector_commutator(spec, diagonal_blocks(t, sectors),
                                 diagonal_blocks(t0, sectors)) == got
        assert commuting_family(spec, lam, lam0) == got
        # a block-diagonal partner that does not commute with t: the blocks
        # above the ceiling are left out, the others all count
        other = np.zeros_like(t)
        for _, idx in sectors:
            n = len(idx)
            other[np.ix_(idx, idx)] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        want = masked_commutator(t, other, sector_mask(spec))
        got = sector_commutator(spec, blocks, diagonal_blocks(other, sectors))
        assert abs(got - want) <= 1e-12 * np.linalg.norm(t) * np.linalg.norm(other)


def test_sector_commutator_past_the_float_range_is_inf():
    spec = xxx_chain(n_sites=2, d=4)
    sectors = sector_blocks(spec)
    block = np.array([[1.0, 2.0], [3.0, 4.0]]) * 1e200
    a = np.zeros((spec.chain_dim,) * 2, dtype=complex)
    b = np.zeros_like(a)
    idx = sectors[1][1][:2]
    a[np.ix_(idx, idx)] = block
    b[np.ix_(idx, idx)] = block.T
    got = sector_commutator(spec, diagonal_blocks(a, sectors), diagonal_blocks(b, sectors))
    assert got == np.inf


def with_leak(make):
    """`make` with one more entry, 1e-300 at (aux 0, state 0; aux 0, state
    1): it raises the charge by one, from row to column."""
    def leaky(*args):
        m = make(*args).copy()
        m[0, 1] = 1e-300
        return m
    return leaky


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("name, n_sites, operator", [
    ("make_r", 3, "the bulk R-matrix"), ("make_l", 3, "the defect Lax operator"),
    ("make_l", 0, "the defect Lax operator")])
def test_local_charge_leak_is_a_value_error_naming_lam(monkeypatch, params, name, n_sites,
                                                       operator):
    # the block route forms no entry between sectors, so the local R and L
    # are checked before they are contracted, and the error names the one
    # that leaks
    spec = ChainSpec(n_sites=n_sites, params=params, rep=defect_rep(params, 5))
    sectors = sector_blocks(spec)
    make = getattr(monodromy, name)
    monkeypatch.setattr(monodromy, name, with_leak(make))
    message = f"leaks charge at lam = 0.37: {operator} has a nonzero entry between charge "
    for build in (lambda *args: rtt(*args, 0.0),
                  lambda *args: transfer_matrix(*args, sectors)):
        with pytest.raises(ValueError, match=message):
            build(spec, 0.37)
    # the charge measure reads the leak the guard stopped at, relative to
    # the leaky tensor's largest entry
    args = (params, 0.37 - spec.theta, spec.rep) if name == "make_l" else (params, 0.37)
    leak = charge_leak(spec, local_tensors(spec, 0.37))
    assert leak == 1e-300 / np.abs(make(*args)).max() > 0


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
def test_charge_leak_below_the_float_range_still_reads_and_stops(monkeypatch, params):
    # a leak of 1e-300 beside entries of 1e300: the ratio rounds to 0, so
    # it reads the smallest positive float, and the guard still stops
    spec = ChainSpec(n_sites=2, params=params, rep=defect_rep(params, 4))
    assert charge_leak(spec, local_tensors(spec, 0.37)) == 0.0
    make = monodromy.make_r

    def loud(*args):
        return make(*args) * 1e300

    monkeypatch.setattr(monodromy, "make_r", with_leak(loud))
    assert charge_leak(spec, local_tensors(spec, 0.37)) == 5e-324
    with pytest.raises(ValueError, match="leaks charge at lam = 0.37: the bulk R-matrix has "):
        transfer_matrix(spec, 0.37, sector_blocks(spec))


@pytest.mark.parametrize("params, n_max, lams", [
    (REGIMES[0], 4, (0.77, -0.4, 1.3)),
    (REGIMES[1], 4, (0.77, -0.4, 1.3)),
    (REGIMES[2], 4, (0.77, -0.4, 1.3)),
    (RegimeParams.critical(3.0), 1, (100.0, -0.4)),      # entries near 1e260
], ids=["xxx", "crit", "nc", "crit-mu3"])
def test_reference_residual_column_equals_matvec_bit_for_bit(params, n_max, lams):
    for spec in every_chain(params, n_max=n_max):
        vec = reference_state(spec)
        sectors = sector_blocks(spec)
        for lam in lams:
            t = dense_transfer(spec, lam, 1)
            ev = reference_eigenvalue(spec, lam)
            size = max(abs(ev), 1e-30)
            scale = 2.0 ** -np.frexp(size)[1]
            want = float(np.linalg.norm((t @ vec - ev * vec) * scale) / (size * scale))
            blocks = transfer_matrix(spec, lam, sectors)
            assert reference_residual(spec, blocks, lam) == want
            # the charge-0 block alone is the reference state's column
            assert reference_residual(spec, blocks[:1], lam) == want
            # which is t v in the order N+1 ... 1 with the defect at any
            # site, up to roundoff
            for site in range(1, spec.n_sites + 2):
                assert_roundoff_close(blocks[0][1][:, 0],
                                      dense_transfer(spec, lam, site) @ vec @ vec)


@pytest.mark.parametrize("argv", [
    ["--regime", "xxx", "--theta", "0.3"], ["--regime", "critical", "--mu", "0.7"],
    ["--regime", "critical", "--mu", "2.0943951023931957"],
    ["--regime", "critical", "--mu", "1e-10"],
    ["--regime", "noncritical", "--eta", "0.5", "--theta", "0.3"]],
    ids=["xxx", "crit", "crit-order-3", "crit-order-1", "nc"])
def test_bae_builds_no_representation(monkeypatch, capsys, argv):
    # the Bethe equation reads the regime and N alone: no representation is
    # built, so a q that is a root of unity of low order, which degenerates
    # one, warns of nothing
    def refuse(*args, **kwargs):
        raise AssertionError("a representation was built")

    for owner in (lax_defect, oscillator_reps):
        for name in ("harmonic_rep", "q_oscillator_rep"):
            monkeypatch.setattr(owner, name, refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bae", *argv]) == 0
    out, err = capsys.readouterr()
    assert err == "" and len(out.splitlines()) == 4     # header, column names, two roots


@pytest.mark.parametrize("site", [0, 5])
def test_spectrum_defect_site_outside_the_chain_is_one_line_before_any_representation(
        monkeypatch, capsys, site):
    monkeypatch.setattr(cli, "defect_rep", lambda *args: pytest.fail("representation built"))
    code = main(["spectrum", "--sites", "3", "--defect-site", str(site), "--grid=0:0:1"])
    assert (code, *capsys.readouterr()) == (
        2, "", f"error: defect_site must lie in 1..4, got {site}\n")
