"""Acceptance suite: every criterion at its stated tolerance, one test per
criterion, each printing a single PASS line with the worst observed residual.

All randomness is seeded; everything runs at desk scale.
"""
import numpy as np

from defectchain.lax_defect import (RegimeParams, crossing_transform,
                                    make_l, make_l_hat, make_r,
                                    s_matrix_part, unitarity_residuals)
from defectchain.monodromy import (ChainSpec, bae_residual, contract, reference_eigenvalue,
                                   rtt_residual, sector_blocks, sector_commutator,
                                   transfer_matrix)
from defectchain.oscillator_reps import harmonic_rep, q_oscillator_rep
from defectchain.special_functions import gamma_ratio
from defectchain.transmission_amplitudes import (amplitude,
                                                 breather_amplitude,
                                                 soliton_s_amplitude,
                                                 type2_amplitude)
from defectchain.transmission_matrices import (default_rep,
                                               quadratic_algebra_residual,
                                               type2_algebra_residual,
                                               unitarity_crossing_residual)
from dense_oracle import (dense_monodromy, dense_transfer, exchange_oracle, mpmath_bethe_roots,
                          reference_state, sector_mask, xxx_bethe_polynomial)

XXX = RegimeParams.xxx()
CRIT = RegimeParams.critical(0.7)            # attractive, gamma ~ 3.488
CRIT_G15 = RegimeParams.critical(np.pi / 2.5)  # gamma = 1.5
NC = RegimeParams.noncritical(0.3)

REGIMES = [XXX, CRIT, NC]
SEED = 20240811


def _report(num, text, worst, tol):
    status = "PASS" if worst < tol else "FAIL"
    print(f"ACCEPTANCE {num}: {status}  {text}  (worst {worst:.3e} < {tol:.0e})")
    assert worst < tol


def rep_for(params, d):
    if params.regime == "XXX":
        return harmonic_rep(d)
    return q_oscillator_rep(d, params.q)


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


def test_criterion_1_yang_baxter():
    """R-matrices (three regimes) and prefactored S-matrices satisfy the
    Yang-Baxter equation at 20 seeded random spectral pairs each."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for params in REGIMES:
        pairs = rng.uniform(-1.5, 1.5, size=(20, 2))
        for l1, l2 in pairs:
            worst = max(worst, ybe_residual(
                lambda x: make_r(params, x), l1, l2))
        for l1, l2 in pairs:
            worst = max(worst, ybe_residual(
                lambda x: (soliton_s_amplitude(params, x)
                           * s_matrix_part(params, x)), l1, l2))
    _report(1, "Yang-Baxter for R and S, 20 seeded pairs per regime", worst, 1e-10)


def test_criterion_2_rll():
    """Quadratic RLL algebra on the interior projector at D = 8."""
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for params in REGIMES:
        rep = rep_for(params, 8)
        d = rep.dim
        eye2 = np.eye(2, dtype=complex)
        proj = np.kron(np.eye(4, dtype=complex), np.diag(rep.interior()))
        for l1, l2 in rng.uniform(-1.2, 1.2, size=(5, 2)):
            lm1 = make_l(params, l1, rep).reshape(2, d, 2, d)
            lm2 = make_l(params, l2, rep).reshape(2, d, 2, d)
            m1 = np.einsum("aibj,cd->acibdj", lm1, eye2).reshape(4 * d, 4 * d)
            m2 = np.einsum("aibj,cd->caidbj", lm2, eye2).reshape(4 * d, 4 * d)
            r12 = np.kron(make_r(params, l1 - l2),
                          np.eye(d, dtype=complex))
            worst = max(worst, np.linalg.norm(
                (r12 @ m1 @ m2 - m2 @ m1 @ r12) @ proj))
    _report(2, "RLL on interior, harmonic and q-oscillator D=8", worst, 1e-11)


def test_criterion_3_conjugate_and_unitarity():
    """Explicit conjugate operator equals the crossing transform entrywise;
    scalar unitarity and crossing-unitarity hold on a 9-point grid."""
    worst_two_route = 0.0
    worst_scalar = 0.0
    grid = [x for x in np.linspace(-2.0, 2.0, 9)]
    for params in REGIMES:
        rep = rep_for(params, 8)
        for lam in (0.0, 0.37, -1.1):
            diff = np.abs(crossing_transform(make_l(params, -lam - 1j, rep))
                          - make_l_hat(params, lam, rep)).max()
            worst_two_route = max(worst_two_route, diff)
        worst_scalar = max(worst_scalar, *map(np.max, unitarity_residuals(params, grid, rep)))
    print(f"ACCEPTANCE 3a: {'PASS' if worst_two_route < 1e-13 else 'FAIL'}  "
          f"conjugate operator two-route agreement (worst {worst_two_route:.3e} < 1e-13)")
    assert worst_two_route < 1e-13
    _report("3b", "unitarity / crossing-unitarity scalars on 9-point grid",
            worst_scalar, 1e-11)


def test_criterion_4_transfer_matrix_structure():
    """Commuting family and RTT on charge sectors Q <= D-2 for N=3, D=6,
    RTT equal to the relation on the dense monodromy pair; the reference
    state is an eigenvector with the derived eigenvalue."""
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    worst_ref = 0.0
    for params in REGIMES:
        spec = ChainSpec(n_sites=3, params=params, rep=rep_for(params, 6))
        sectors = sector_blocks(spec)
        for l1, l2 in rng.uniform(-1.0, 1.0, size=(3, 2)):
            rtt = rtt_residual(spec, (l1, l2), contract(spec, np.array([l1, l2])), sectors)
            m1, m2 = (dense_monodromy(spec, x, 2) for x in (l1, l2))
            dense, scale = exchange_oracle(make_r(params, l1 - l2), m1, m2,
                                           sector_mask(spec))
            assert abs(rtt - dense) <= 1e-12 * scale
            worst = max(worst, rtt)
            t1, t2 = (transfer_matrix(spec, x, sectors) for x in (l1, l2))
            worst = max(worst, sector_commutator(spec, t1, t2))
        vec = reference_state(spec)
        for lam in (0.77, -0.4):
            ev = reference_eigenvalue(spec, lam)
            tv = dense_transfer(spec, lam, 2) @ vec
            worst_ref = max(worst_ref, float(np.linalg.norm(tv - ev * vec) / abs(ev)))
    _report("4a", "RTT and commuting family on sectors Q <= D-2 (N=3, D=6)",
            worst, 1e-10)
    _report("4b", "reference-state eigenvalue, relative", worst_ref, 1e-10)


def test_criterion_5_cross_route_amplitudes():
    """Quadrature vs closed forms (1e-6, continuous) and discrete sums vs
    q-Gamma closed forms (1e-8) over 21-point grids."""
    grid = np.linspace(-2.0, 2.0, 21)
    worst_cont = 0.0
    for params in (XXX, CRIT_G15):
        for sign in ("+", "-"):
            for lh in grid:
                a = amplitude(params, sign, lh, "closed").value
                b = amplitude(params, sign, lh, "integral").value
                worst_cont = max(worst_cont, abs(a - b))
    worst_disc = 0.0
    for sign in ("+", "-"):
        for lh in grid:
            a = amplitude(NC, sign, lh, "closed").value
            b = amplitude(NC, sign, lh, "sum").value
            worst_disc = max(worst_disc, abs(a - b))
    for lh in grid:
        a = type2_amplitude(lh, NC.eta, 1.0, "closed").value
        b = type2_amplitude(lh, NC.eta, 1.0, "sum").value
        worst_disc = max(worst_disc, abs(a - b))
        worst_disc = max(worst_disc, abs(
            soliton_s_amplitude(NC, lh, "closed") - soliton_s_amplitude(NC, lh, "sum")))
    _report("5a", "quadrature vs closed hole amplitudes (XXX, critical)",
            worst_cont, 1e-6)
    _report("5b", "discrete sum vs q-Gamma closed forms (type-I, type-II, bulk)",
            worst_disc, 1e-8)


def test_criterion_6_unitarity_crossing_fusion():
    """Amplitude unitarity in all regimes, breather crossing, and exact
    n = 2, 3 fusion products."""
    grid = np.linspace(-2.0, 2.0, 9)
    worst_uni = 0.0
    for params in REGIMES:
        for lh in grid:
            prod = (amplitude(params, "-", lh).value
                    * amplitude(params, "+", -lh).value)
            worst_uni = max(worst_uni, abs(prod - 1.0))
    g = CRIT.gamma
    worst_cross = 0.0
    for lh in np.linspace(-1.5, 1.5, 11):
        lhs = breather_amplitude("-", 1, lh, g).value
        rhs = breather_amplitude("+", 1, -lh + 1j * g, g).value
        worst_cross = max(worst_cross, abs(lhs - rhs))
    worst_fus = 0.0
    for n in (2, 3):
        for lh in (0.42, -0.9):
            prod = 1.0 + 0.0j
            for ell in range(1, n + 1):
                prod *= breather_amplitude(
                    "+", 1, lh + 0.5j * (n + 1 - 2 * ell), g).value
            got = breather_amplitude("+", n, lh, g).value
            worst_fus = max(worst_fus, abs(got - prod) / abs(prod))
    _report("6a", "amplitude unitarity T-(x) T+(-x) = 1, three regimes",
            worst_uni, 1e-10)
    _report("6b", "lightest-breather crossing", worst_cross, 1e-10)
    _report("6c", "n = 2, 3 fusion equals shifted products", worst_fus, 1e-13)


def test_criterion_7_transmission_matrix_algebra():
    """Exchange algebra and unitarity/crossing for all four matrix families
    at D in {6, 10}, 10 seeded spectral pairs each."""
    rng = np.random.default_rng(SEED + 3)
    worst_alg = 0.0
    worst_uc = 0.0
    for params in REGIMES:
        for d in (6, 10):
            rep = default_rep(params, d)
            pairs = rng.uniform(-1.2, 1.2, size=(10, 2))
            for l1, l2 in pairs:
                for which in ("t", "t_bar"):
                    worst_alg = max(worst_alg, quadratic_algebra_residual(
                        params, l1, l2, rep, which=which))
            for lh in (0.44, -0.9):
                worst_uc = max(worst_uc, *unitarity_crossing_residual(params, lh, rep))
    for spin in (1.0, 1.5):
        pairs = rng.uniform(-1.2, 1.2, size=(10, 2))
        for l1, l2 in pairs:
            worst_alg = max(worst_alg, type2_algebra_residual(NC.eta, spin, l1, l2))
    _report("7a", "exchange algebra, four matrix families, D in {6,10}",
            worst_alg, 1e-9)
    _report("7b", "transmission unitarity and crossing", worst_uc, 1e-9)


def test_criterion_8_isotropic_limit():
    """q = 1 - 1e-4: the non-critical bulk amplitude and the spin-defect
    amplitude converge to their isotropic counterparts (1e-3 relative), and
    the type-I labels match only after the documented lam -> -lam
    reflection."""
    eta = 1e-4   # q = e^-eta = 1 - 1e-4 + O(1e-8)
    pn = RegimeParams.noncritical(eta)
    worst = 0.0
    for lam in (0.3, 0.7, 1.2):
        a = soliton_s_amplitude(pn, lam, "closed")
        b = soliton_s_amplitude(XXX, lam, "closed")
        worst = max(worst, abs(a - b) / abs(b))
    for lh in (0.2, 0.5, 1.1):
        s = 1.0
        a = type2_amplitude(lh, eta, s).value
        b = gamma_ratio([-1j * lh / 2 + s / 2, 1j * lh / 2 + s / 2 + 0.5],
                        [-1j * lh / 2 + s / 2 + 0.5, 1j * lh / 2 + s / 2])
        worst = max(worst, abs(a - b) / abs(b))
    _report("8a", "isotropic limit of bulk and spin-defect amplitudes",
            worst, 1e-3)
    # the +- labels are reflected between the regimes: the non-critical T+
    # tends to the isotropic T- evaluated at -lam, and NOT to T+ itself
    worst_refl = 0.0
    for lh in (0.5, 1.1):
        a = amplitude(pn, "+", lh).value
        b = amplitude(XXX, "-", -lh).value
        worst_refl = max(worst_refl, abs(a - b) / abs(b))
        not_counterpart = amplitude(XXX, "+", lh).value
        assert abs(a - not_counterpart) / abs(not_counterpart) > 1e-2
    _report("8b", "type-I label reflection lam -> -lam in the isotropic limit",
            worst_refl, 1e-3)


def test_criterion_9_bethe_roots():
    """N = 1, M = 1 Bethe roots of the chain's equation a(u) = d(u), found by
    independent one-unknown searches, give vanishing residuals for both
    defect orientations (L and Lhat)."""
    worst = 0.0
    th = 0.3
    # isotropic: a - d expanded by hand and solved by numpy.roots;
    # non-critical: mpmath's findroot on the vacuum weights written from its
    # own sinh and exp; both independent of the package's table
    px, pn = RegimeParams.xxx(theta=th), RegimeParams.noncritical(0.5, theta=th)
    for sign in "+-":
        for r in np.roots(xxx_bethe_polynomial(sign, th)):
            worst = max(worst, float(abs(bae_residual(px, 1, sign, [r])[0])))
    roots = mpmath_bethe_roots(0.5, th)
    assert set(roots) == {"+", "-"}
    for sign, root in roots.items():
        worst = max(worst, float(abs(bae_residual(pn, 1, sign, [root])[0])))
    _report(9, "one-root Bethe residuals from independent searches", worst, 1e-10)
