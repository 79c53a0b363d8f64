"""Dense two-site embedding, the dense monodromy and transfer matrix, the
projected commutator, the reference state and the exchange relation on
explicit matrices, used as test oracles for the monodromy and the residual
kernels.

The package never forms an embedded operator or the dense monodromy: it
contracts the local tensors site by site, gathers the monodromy's charge
blocks for the RTT relation, builds the transfer matrix sector block by
sector block and reads the reference check off its charge-0 block; these
helpers build the same objects the slow way, in the numpy.kron basis order
of ``defectchain.tensor_core``.
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


def dense_monodromy(spec, lam, local=None):
    """M_{0,N+1} ... M_{0,1} as the left-to-right product of embedded
    (2 dim) x (2 dim) matrices, from the chain's local tensors at lam (those
    of `local_tensors` where `local` is None)."""
    dims = (2,) + spec.dims
    total = np.eye(int(np.prod(dims)), dtype=complex)
    sites = range(spec.n_sites + 1, 0, -1)
    for j, m in zip(sites, local_tensors(spec, lam) if local is None else local):
        n = 2 * dims[j]
        total = total @ embed(m.reshape(n, n), (0, j), dims)
    return total


def dense_transfer(spec, lam):
    """t(lam) as a dense dim x dim array: the auxiliary trace of
    dense_monodromy."""
    m = dense_monodromy(spec, lam)
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
