"""Dense two-site embedding, the dense monodromy and transfer matrix, the
projected commutator, the reference state and the exchange relation on
explicit matrices, used as test oracles for the monodromy and the residual
kernels; and the one-site chain's Bethe equation a(u) = d(u), written out
by hand, as the oracle for its Bethe roots.

The package never forms an embedded operator or the dense monodromy: it
contracts the local tensors site by site, gathers the monodromy's charge
blocks for the RTT relation, builds the transfer matrix sector block by
sector block and reads the reference check off its charge-0 block; these
helpers build the same objects the slow way, in the numpy.kron basis order
of ``defectchain.tensor_core``.

The package reads every chain from its defect: the chain basis is the
numpy.kron basis of the sites d, 1, ..., N (`ChainSpec.dims`), the chain
with the defect at site 1.  These helpers build the chain with the defect
at a given site n of 1 ... N+1 the slow way: `dense_monodromy` and
`dense_transfer` multiply the sites in the order N+1 ... 1, embedded at
their actual places, and hand the result over in the package's basis:
permuted by P^T, P the factor permutation of `defect_order`.  t(lam) agrees
with them up to roundoff at every site (the trace is cyclic, and operators
on disjoint sites commute); at site 1 the monodromy and t(lam) match the
package bit for bit.
"""
import numpy as np

from defectchain.monodromy import charge_vector, local_tensors


def embed(m, sites, dims):
    """m on factors (i, j) of the kron-ordered space with factor dims ``dims``,
    identity elsewhere: kron(m, 1) on (i, j, rest), then permuted."""
    i, j = sites
    rest = [k for k in range(len(dims)) if k not in sites]
    order = [i, j] + rest
    full = np.kron(m, np.eye(int(np.prod([dims[k] for k in rest])), dtype=complex))
    n = len(dims)
    perm = np.argsort(order)
    t = full.reshape([dims[k] for k in order] * 2).transpose(list(perm) + list(perm + n))
    d = int(np.prod(dims))
    return t.reshape(d, d)


def site_dims(spec, site):
    """The site dimensions in the order 1 ... N+1, the defect at `site`."""
    return tuple(spec.rep.dim if j == site else 2 for j in range(1, spec.n_sites + 2))


def defect_order(spec, site):
    """The index in the order 1 ... N+1 (site 1 slowest) of each state of
    spec's basis, the sites read from the defect at `site` (n ... N+1,
    1 ... n-1, site n slowest): the permutation P, from the unravelled site
    states."""
    n, dims = site - 1, site_dims(spec, site)
    states = np.unravel_index(np.arange(spec.chain_dim), dims[n:] + dims[:n])
    return np.ravel_multi_index(states[len(dims) - n:] + states[:len(dims) - n], dims)


def dense_monodromy(spec, lam, site, local=None):
    """M_{0,N+1} ... M_{0,1} as the left-to-right product of embedded
    (2 dim) x (2 dim) matrices, the defect's L at `site` and the bulk R at
    every other site of 1 ... N+1, from the chain's `local_tensors` at lam
    (or `local`, a list of the same form), on spec's basis (P^T m P, the
    auxiliary factor kept first)."""
    *bulk, defect = local_tensors(spec, lam) if local is None else local
    dims = (2,) + site_dims(spec, site)
    total = np.eye(int(np.prod(dims)), dtype=complex)
    for j in range(spec.n_sites + 1, 0, -1):
        m = defect if j == site else bulk[0]
        n = 2 * dims[j]
        total = total @ embed(m.reshape(n, n), (0, j), dims)
    p = defect_order(spec, site)
    p = np.concatenate([p, p + spec.chain_dim])
    return total[np.ix_(p, p)]


def dense_transfer(spec, lam, site):
    """t(lam) as a dense dim x dim array: the auxiliary trace of
    dense_monodromy with the defect at `site`."""
    m = dense_monodromy(spec, lam, site)
    d = spec.chain_dim
    return m[:d, :d] + m[d:, d:]


def sector_mask(spec):
    """0/1 mask of the charge sectors Q <= D - 2 over the chain basis."""
    return (charge_vector(spec) <= spec.max_exact_charge).astype(float)


def masked_commutator(a, b, keep):
    """|| P [A, B] P || with the projector P = diag(keep) as a dense matrix."""
    proj = np.diag(keep).astype(complex)
    return np.linalg.norm(proj @ (a @ b - b @ a) @ proj)


def reference_state(spec):
    """All spins in the regime's reference orientation (isotropic: up,
    anisotropic: down), the defect in its vacuum, as a numpy.kron product."""
    vec = np.array([1.0 + 0.0j])
    for d in spec.dims:
        local = np.zeros(d, dtype=complex)
        local[1 if d == 2 and spec.params.regime != "XXX" else 0] = 1.0
        vec = np.kron(vec, local)
    return vec


def exchange_oracle(r12, m1, m2, keep):
    """The relation on explicit 4d x 4d matrices: A1, A2 embedded by einsum
    with a 2x2 identity, R12 and the projector by kron."""
    d = m1.shape[0] // 2
    eye2 = np.eye(2, dtype=complex)
    a1 = np.einsum("aibj,cd->acibdj", m1.reshape(2, d, 2, d), eye2).reshape(4 * d, 4 * d)
    a2 = np.einsum("aibj,cd->caidbj", m2.reshape(2, d, 2, d), eye2).reshape(4 * d, 4 * d)
    r = np.kron(r12, np.eye(d, dtype=complex))
    proj = np.kron(np.eye(4, dtype=complex), np.diag(keep))
    return (np.linalg.norm((r @ a1 @ a2 - a2 @ a1 @ r) @ proj),
            np.linalg.norm(r @ a1 @ a2 @ proj))


def xxx_bethe_polynomial(sign, th):
    """a(u) - d(u) of the one-site isotropic chain, expanded by hand: (u + i)
    (u - th + i) - i u for L, i (u + i) + u (u - th) for Lhat."""
    return [1.0, 1j - th, -1.0 - 1j * th if sign == "+" else -1.0]


def mpmath_bethe_roots(eta, th):
    """The one-site non-critical root of a(u) = d(u) for L and Lhat, found by
    mpmath's findroot on the vacuum weights written from its own sinh and
    exp (mu = i eta)."""
    import mpmath as mp
    mu = 1j * eta
    sh = lambda x: 2 * mp.sinh(mu * x)
    equations = {
        "+": lambda u: sh(u) * sh(u - th + 1j) + sh(u + 1j) * mp.exp(-mu * (u - th)),
        "-": lambda u: -sh(u) * mp.exp(mu * (u - th + 1j)) + sh(u + 1j) * sh(u - th),
    }
    roots = {}
    for sign, f in equations.items():
        for guess in (0.3 + 0.4j, 0.3 - 0.4j, 1.4 - 0.7j, 1.4 + 0.7j):
            try:
                roots[sign] = complex(mp.findroot(f, mp.mpc(guess)))
                break
            except (ValueError, ZeroDivisionError):
                continue
    return roots
