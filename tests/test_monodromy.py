import numpy as np
import pytest

from defectchain import monodromy
from defectchain.lax_defect import RegimeParams, defect_rep, make_l, make_r
from defectchain.monodromy import (ChainSpec, _contract, bae_residual, bae_root, charge_leak,
                                   charge_vector, local_tensors, reference_eigenvalue,
                                   reference_residual, rtt_residual, sector_blocks,
                                   sector_commutator, transfer_matrix)
from defectchain.oscillator_reps import harmonic_rep, q_oscillator_rep
from defectchain.tensor_core import TensorOperator
from dense_oracle import (dense_monodromy, dense_transfer, embed, exchange_oracle,
                          masked_commutator, reference_state, sector_mask)

XXX = RegimeParams.xxx(theta=0.2)
NC = RegimeParams.noncritical(0.5, theta=0.2)


def diagonal_blocks(t, sectors):
    """(charge, block) of t on each of the sectors, with the check that t is
    exactly 0 between them."""
    blocks = [(sector, t[np.ix_(idx, idx)]) for sector, idx in sectors]
    assert sum(np.count_nonzero(block) for _, block in blocks) == np.count_nonzero(t)
    return blocks


def xxx_chain(n_sites=3, defect_site=2, d=6, theta=0.2):
    return ChainSpec(n_sites=n_sites, defect_site=defect_site,
                     params=RegimeParams.xxx(theta=theta), rep=harmonic_rep(d))


def nc_chain(n_sites=3, defect_site=2, d=6, theta=0.2, eta=0.5):
    params = RegimeParams.noncritical(eta, theta=theta)
    return ChainSpec(n_sites=n_sites, defect_site=defect_site, params=params,
                     rep=q_oscillator_rep(d, params.q))


REGIMES = [RegimeParams.xxx(theta=0.2), RegimeParams.critical(0.7, theta=0.2),
           RegimeParams.noncritical(0.5, theta=0.2)]


def contracted_monodromy(spec, lam):
    """The whole monodromy the package's contraction implies: `_contract`'s
    pair, multiplied out over the site-1 step by einsum."""
    total, first = _contract(spec, lam, None)
    m = first if total is None else np.einsum("arbq,bsct->asrctq", total, first)
    d = 2 * spec.chain_dim
    return m.reshape(d, d)


def commuting_family(spec, lam1, lam2):
    """verify's commuting-family residual: the commutator of t(lam1) and
    t(lam2) on the blocks of the exact sectors."""
    exact = sector_blocks(spec)[:spec.max_exact_charge + 1]
    return sector_commutator(spec, *(transfer_matrix(spec, x, exact) for x in (lam1, lam2)))


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
    for n_sites in range(5):
        for site in range(1, n_sites + 2):
            spec = ChainSpec(n_sites=n_sites, defect_site=site, params=params,
                             rep=defect_rep(params, d))
            for lam in (0.37, -1.2):
                assert np.array_equal(contracted_monodromy(spec, lam),
                                      dense_monodromy(spec, lam))


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("d", [3, 6])
def test_transfer_matrix_is_monodromy_trace_bit_for_bit(params, d):
    # t(lam) is built sector block by sector block, traced inside the last
    # contraction step; each block must equal the block of the auxiliary
    # trace of the whole contracted monodromy exactly, signed zeros
    # included, and the trace must vanish between the blocks
    for n_sites in range(5):
        for site in range(1, n_sites + 2):
            spec = ChainSpec(n_sites=n_sites, defect_site=site, params=params,
                             rep=defect_rep(params, d))
            dim = spec.chain_dim
            sectors = sector_blocks(spec)
            for lam in (0.37, -1.2):
                blocks = contracted_monodromy(spec, lam).reshape(2, dim, 2, dim)
                t = np.einsum("aiaj->ij", blocks)
                assert np.array_equal(dense_transfer(spec, lam), t)
                got = transfer_matrix(spec, lam, sectors)
                want = diagonal_blocks(t, sectors)
                assert [k for k, _ in got] == [k for k, _ in want]
                assert all(same_bits(a, b) for (_, a), (_, b) in zip(got, want))


def test_defect_only_chain_is_lax_operator():
    spec = xxx_chain(n_sites=0, defect_site=1, d=5)
    lam = 0.9
    t = contracted_monodromy(spec, lam)
    l = make_l(spec.params, lam - spec.theta, spec.rep)
    np.testing.assert_allclose(t, l.entries, atol=1e-14)


def test_monodromy_matches_hand_composed_contraction():
    spec = xxx_chain(n_sites=2, defect_site=2, d=4)
    lam = 0.613
    d = spec.rep.dim
    r = make_r(spec.params, lam).entries.reshape(2, 2, 2, 2)
    l = make_l(spec.params, lam - spec.theta, spec.rep).entries.reshape(2, d, 2, d)
    # T = R_{0,3} L_{0,2} R_{0,1}; auxiliary index chains through the product:
    # T^{a e}_{(s3 s2 s1),(t3 t2 t1)} = R^{ab}_{s3 t3} L^{bc}_{s2 t2} R^{ce}_{s1 t1}
    # with chain factors ordered (site1, site2, site3)
    oracle = np.einsum("aubv,bwcx,cyez->auwyevxz", r, l, r)
    # reorder chain indices to (site1, defect, site3)
    oracle = oracle.transpose(0, 3, 2, 1, 4, 7, 6, 5).reshape(2 * 2 * d * 2, 2 * 2 * d * 2)
    np.testing.assert_allclose(contracted_monodromy(spec, lam), oracle, atol=1e-13)


@pytest.mark.parametrize("chain", [xxx_chain, nc_chain], ids=["xxx", "nc"])
def test_rtt_relation_on_sectors(chain):
    spec = chain()
    rng = np.random.default_rng(3)
    for l1, l2 in rng.uniform(-1.0, 1.0, size=(3, 2)):
        assert rtt_residual(spec, l1, l2) < 1e-10


@pytest.mark.parametrize("chain", [xxx_chain, nc_chain], ids=["xxx", "nc"])
def test_commuting_family_on_sectors(chain):
    spec = chain()
    rng = np.random.default_rng(5)
    for l1, l2 in rng.uniform(-1.2, 1.2, size=(4, 2)):
        assert commuting_family(spec, l1, l2) < 1e-10


def test_commuting_family_fails_without_projection():
    # the truncation leak is real: the unprojected commutator is large
    spec = xxx_chain()
    t1 = dense_transfer(spec, 0.63)
    t2 = dense_transfer(spec, -0.82)
    assert np.linalg.norm(t1 @ t2 - t2 @ t1) > 1.0


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("n_sites, defect_site", [(3, 2), (3, 4), (0, 1)])
def test_local_tensors_build_r_once_and_feed_every_contraction(monkeypatch, params, n_sites,
                                                               defect_site):
    # one make_r per lam, shared by the bulk sites; handing the tensors to
    # the contractions gives the bits of building them there
    spec = ChainSpec(n_sites=n_sites, defect_site=defect_site, params=params,
                     rep=defect_rep(params, 5))
    built = []

    def counted(*args, make=make_r):
        built.append(args[1])
        return make(*args)

    monkeypatch.setattr(monodromy, "make_r", counted)
    local = local_tensors(spec, 0.41)
    assert built == ([0.41] if n_sites else [])
    bulk = [m for j, m in zip(range(n_sites + 1, 0, -1), local) if j != defect_site]
    assert len(local) == n_sites + 1 and all(m is bulk[0] for m in bulk)
    sectors = sector_blocks(spec)
    for (_, mine), (_, theirs) in zip(transfer_matrix(spec, 0.41, sectors, local),
                                      transfer_matrix(spec, 0.41, sectors)):
        assert same_bits(mine, theirs)
    assert rtt_residual(spec, 0.41, -0.3, (local, None)) == rtt_residual(spec, 0.41, -0.3)


def test_charge_conservation():
    spec = xxx_chain()
    assert charge_leak(spec, local_tensors(spec, 0.77)) == 0.0
    # exact commutation on the full space as well (grading is exact)
    t = dense_transfer(spec, 0.77)
    qd = np.diag(charge_vector(spec)).astype(complex)
    assert np.linalg.norm(t @ qd - qd @ t) < 1e-10


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_chain_residuals_match_dense_oracles(params, n_sites):
    # RTT on the charge blocks of the monodromy pair, against the relation
    # on the explicit 4 dim x 4 dim dense pair with the sector projector;
    # the commuting family on the exact-sector blocks of transfer_matrix,
    # against the sector-masked dense commutator; and the charge measure,
    # 0 on every local tensor
    rng = np.random.default_rng(n_sites)
    spec = ChainSpec(n_sites=n_sites, defect_site=2, params=params,
                     rep=defect_rep(params, 6))
    keep = sector_mask(spec)
    dim = spec.chain_dim
    l1, l2 = 0.58, -0.33
    local = [local_tensors(spec, x) for x in (l1, l2)]
    m1, m2 = (dense_monodromy(spec, x) for x in (l1, l2))
    t1, t2 = (dense_transfer(spec, x) for x in (l1, l2))
    # RTT holds: equal to the oracle up to roundoff of the oracle's scale;
    # T(lam2) and T(lam1) in the places of T1 and T2 break it at O(1):
    # equal to rtol 1e-12
    res, scale = exchange_oracle(make_r(params, l1 - l2).entries, m1, m2, keep)
    assert abs(rtt_residual(spec, l1, l2, local) - res) <= 1e-12 * scale
    want, scale = exchange_oracle(make_r(params, l1 - l2).entries, m2, m1, keep)
    assert want > 1e-3 * scale
    np.testing.assert_allclose(rtt_residual(spec, l1, l2, local[::-1]), want, rtol=1e-12)
    # the commuting family, and a block-diagonal partner t(lam2) + x that
    # does not commute with t(lam1)
    scale = np.linalg.norm(t1) * np.linalg.norm(t2)
    assert abs(commuting_family(spec, l1, l2) - masked_commutator(t1, t2, keep)) <= 1e-12 * scale
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
    spec = ChainSpec(n_sites=3, defect_site=2, params=params, rep=defect_rep(params, 6))
    l1, l2 = 0.58, -0.33
    local = [local_tensors(spec, x) for x in (l1, l2)]
    at = spec.n_sites + 1 - spec.defect_site       # the defect's place in the list
    local[1][at] = local[1][at].copy()
    local[1][at][0, 1, 0, 1] *= 1 + 1e-9
    assert charge_leak(spec, local[1]) == 0.0
    got = rtt_residual(spec, l1, l2, local)
    m1, m2 = (dense_monodromy(spec, x, t) for x, t in zip((l1, l2), local))
    want, scale = exchange_oracle(make_r(params, l1 - l2).entries, m1, m2, sector_mask(spec))
    assert got > 1e-9
    assert abs(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("chain", [xxx_chain, nc_chain], ids=["xxx", "nc"])
def test_charge_vector_matches_index_loop(chain):
    # oracle: the grading summed site by site over the unravelled basis index
    spec = chain(n_sites=3, defect_site=3, d=5)
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
        tv = dense_transfer(spec, lam) @ vec
        ev = reference_eigenvalue(spec, lam)
        assert np.linalg.norm(tv - ev * vec) / abs(ev) < 1e-10
        blocks = transfer_matrix(spec, lam, sector_blocks(spec))
        assert reference_residual(spec, blocks, lam) == np.linalg.norm(tv - ev * vec) / abs(ev)


def test_xxx_reference_eigenvalue_formula():
    spec = xxx_chain()
    lam, th, n = 0.77, spec.theta, spec.n_sites
    want = (lam + 1j) ** n * (lam - th + 1j) + 1j * lam ** n
    assert reference_eigenvalue(spec, lam) == pytest.approx(want)


def test_resource_bound_rejected():
    with pytest.raises(ValueError, match="resource bound"):
        ChainSpec(n_sites=12, defect_site=1, params=RegimeParams.xxx(),
                  rep=harmonic_rep(8))


# ------------------------------------------------------------------ BAE

def test_bae_empty_roots():
    spec = xxx_chain(n_sites=1, defect_site=1, d=4)
    assert bae_residual(spec, "+", []).size == 0


def test_bae_coincident_roots_rejected():
    spec = xxx_chain(n_sites=1, defect_site=1, d=4)
    with pytest.raises(ValueError):
        bae_residual(spec, "+", [0.5, 0.5])


def test_bae_defect_factor_reflection():
    # e+(lam) e-(lam) = (lam + i/2)/(lam - i/2) = e1(lam) for the rational chain
    from defectchain.monodromy import _defect_fn, _e_fn
    ep = _defect_fn(RegimeParams.xxx(), "+")
    em = _defect_fn(RegimeParams.xxx(), "-")
    e1 = _e_fn(RegimeParams.xxx(), 1)
    for lam in (0.3 + 0.2j, -1.1 + 0.7j):
        assert ep(lam) * em(lam) == pytest.approx(e1(lam), rel=1e-13)


def test_bae_root_from_independent_polynomial_oracle_xxx():
    # N = 1, M = 1: the plus equation (lam - th + i/2)(lam + i/2) = lam - i/2
    # is quadratic; its roots are found independently with numpy and must
    # yield vanishing residuals
    th = 0.2
    spec = xxx_chain(n_sites=1, defect_site=1, d=4, theta=th)
    roots = np.roots([1.0, 1j - th - 1.0, -0.5j * th - 0.25 + 0.5j])
    for r in roots:
        assert abs(bae_residual(spec, "+", [r])[0]) < 1e-10
    assert bae_root(spec, "+") == pytest.approx(max(roots, key=lambda z: z.real), abs=1e-13)
    # minus: (lam + i/2) = (lam - i/2)(lam - th - i/2)
    roots = np.roots([1.0, -(th + 1j + 1.0), 0.5j * th - 0.25 - 0.5j])
    for r in roots:
        assert abs(bae_residual(spec, "-", [r])[0]) < 1e-10
    assert bae_root(spec, "-") == pytest.approx(max(roots, key=lambda z: z.real), abs=1e-13)


@pytest.mark.parametrize("params", [RegimeParams.critical(0.7), RegimeParams.noncritical(0.5)],
                         ids=["crit", "nc"])
def test_bae_root_rejects_the_pole_root(params):
    # at theta = 0 clearing the denominators adds a root where sinh (sin) of
    # mu(lam -+ i/2) vanishes, i.e. lam = -+ i/2 up to the period i pi / mu
    spec = ChainSpec(n_sites=1, defect_site=1, params=params,
                     rep=q_oscillator_rep(4, params.q))
    period = np.pi / params.mu_complex * 1j
    for sign, pole in (("+", -0.5j), ("-", 0.5j)):
        root = bae_root(spec, sign)
        assert abs(bae_residual(spec, sign, [root])[0]) < 1e-13
        offset = (root - pole) / period
        assert abs(offset - round(offset.real)) > 1e-3


def test_bae_root_noncritical_newton_oracle():
    import mpmath as mp
    th, eta = 0.2, 0.5
    spec = nc_chain(n_sites=1, defect_site=1, d=4, theta=th, eta=eta)

    def e1(lam):
        return mp.sin(eta * (lam + 0.5j)) / mp.sin(eta * (lam - 0.5j))

    sources = {
        "+": lambda lam: mp.exp(-1j * eta * lam) / mp.sin(eta * (lam + 0.5j)),
        "-": lambda lam: mp.exp(-1j * eta * lam) * mp.sin(eta * (lam - 0.5j)),
    }
    for sign, src in sources.items():
        f = lambda lam: src(lam - th) * e1(lam) - 1.0
        root = None
        for guess in (0.3 + 0.4j, 0.3 - 0.4j, 1.4 - 0.7j, 1.4 + 0.7j):
            try:
                root = complex(mp.findroot(f, mp.mpc(guess)))
                break
            except (ValueError, ZeroDivisionError):
                continue
        assert root is not None
        assert abs(bae_residual(spec, sign, [root])[0]) < 1e-10


def test_bae_two_root_consistency():
    # solve the coupled two-root system with a generic 2d Newton iteration
    # written directly on the equations, then check the residual vector
    th = 0.2
    spec = xxx_chain(n_sites=2, defect_site=1, d=4, theta=th)

    def eqs(z):
        l1, l2 = z
        e2 = lambda x: (x + 1j) / (x - 1j)
        f1 = (l1 - th + 0.5j) * ((l1 + 0.5j) / (l1 - 0.5j)) ** 2 + e2(l1 - l2) * e2(0)
        f2 = (l2 - th + 0.5j) * ((l2 + 0.5j) / (l2 - 0.5j)) ** 2 + e2(l2 - l1) * e2(0)
        return np.array([f1, f2])

    z = np.array([1.2 + 0.8j, -0.9 - 0.7j])
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
    res = bae_residual(spec, "+", list(z))
    assert np.abs(res).max() < 1e-9


def test_overflowing_chain_product_is_a_value_error():
    # e^(mu lam) = e^300 at each of three sites: every site is in range,
    # their product is not
    params = RegimeParams.critical(3.0)
    spec = ChainSpec(n_sites=2, defect_site=1, params=params, rep=defect_rep(params, 4))
    sectors = sector_blocks(spec)
    for build in (lambda *args: rtt_residual(*args, 0.0),
                  lambda *args: transfer_matrix(*args, sectors)):
        with pytest.raises(ValueError, match="monodromy of 3 sites overflows at lam = 100"):
            build(spec, 100.0)
    assert all(np.isfinite(block).all() for _, block in transfer_matrix(spec, 60.0, sectors))


# ------------------------------------------------------------ sector blocks

def every_chain(params, n_max=4, d=4):
    """Chains of N = 0 ... n_max sites with the defect at every site."""
    for n in range(n_max + 1):
        for site in range(1, n + 2):
            yield ChainSpec(n_sites=n, defect_site=site, params=params,
                            rep=defect_rep(params, d))


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
        t, t0 = (dense_transfer(spec, x) for x in (lam, lam0))
        blocks, blocks0 = (transfer_matrix(spec, x, sectors) for x in (lam, lam0))
        scale = np.linalg.norm(t) * np.linalg.norm(t0)
        got = sector_commutator(spec, blocks, blocks0)
        assert abs(got - masked_commutator(t, t0, sector_mask(spec))) <= 1e-12 * scale
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
        op = make(*args)
        m = op.entries.copy()
        m[0, 1] = 1e-300
        return TensorOperator(op.space, m)
    return leaky


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("name, defect_site, site", [
    ("make_r", 2, 4), ("make_l", 2, 2), ("make_l", 1, 1)])
def test_local_charge_leak_is_a_value_error_naming_lam(monkeypatch, params, name,
                                                       defect_site, site):
    # the block route forms no entry between sectors, so every local R and
    # L is checked before it is contracted, the site-1 tensor included
    spec = ChainSpec(n_sites=3, defect_site=defect_site, params=params,
                     rep=defect_rep(params, 5))
    sectors = sector_blocks(spec)
    make = getattr(monodromy, name)
    monkeypatch.setattr(monodromy, name, with_leak(make))
    message = f"leaks charge at lam = 0.37: the local operator of site {site} "
    for build in (lambda *args: rtt_residual(*args, 0.0),
                  lambda *args: transfer_matrix(*args, sectors)):
        with pytest.raises(ValueError, match=message):
            build(spec, 0.37)
    # the charge measure reads the leak the guard stopped at, relative to
    # the leaky tensor's largest entry
    args = (params, 0.37 - spec.theta, spec.rep) if name == "make_l" else (params, 0.37)
    leak = charge_leak(spec, local_tensors(spec, 0.37))
    assert leak == 1e-300 / np.abs(make(*args).entries).max() > 0


@pytest.mark.parametrize("params", REGIMES, ids=["xxx", "crit", "nc"])
def test_charge_leak_below_the_float_range_still_reads_and_stops(monkeypatch, params):
    # a leak of 1e-300 beside entries of 1e300: the ratio rounds to 0, so
    # it reads the smallest positive float, and the guard still stops
    spec = ChainSpec(n_sites=2, defect_site=1, params=params, rep=defect_rep(params, 4))
    assert charge_leak(spec, local_tensors(spec, 0.37)) == 0.0
    make = monodromy.make_r

    def loud(*args):
        op = make(*args)
        return TensorOperator(op.space, op.entries * 1e300)

    monkeypatch.setattr(monodromy, "make_r", with_leak(loud))
    assert charge_leak(spec, local_tensors(spec, 0.37)) == 5e-324
    with pytest.raises(ValueError, match="leaks charge at lam = 0.37: the local operator of "
                                         "site 3 "):
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
            t = dense_transfer(spec, lam)
            ev = reference_eigenvalue(spec, lam)
            size = max(abs(ev), 1e-30)
            scale = 2.0 ** -np.frexp(size)[1]
            want = float(np.linalg.norm((t @ vec - ev * vec) * scale) / (size * scale))
            blocks = transfer_matrix(spec, lam, sectors)
            assert reference_residual(spec, blocks, lam) == want
            # the charge-0 block alone is the reference state's column
            assert reference_residual(spec, blocks[:1], lam) == want
