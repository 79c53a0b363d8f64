"""Dense two-site embedding and the reference state, used as test oracles
for the monodromy.

The package builds the monodromy by local contraction and never forms an
embedded operator, and reads the reference check off one column of the
transfer matrix; these helpers build the same objects the slow way, in the
numpy.kron basis order of ``defectchain.tensor_core``.
"""
import numpy as np


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


def reference_state(spec):
    """All spins in the regime's reference orientation (isotropic: up,
    anisotropic: down), the defect in its vacuum, as a numpy.kron product."""
    vec = np.array([1.0 + 0.0j])
    for d in spec.dims:
        local = np.zeros(d, dtype=complex)
        local[1 if d == 2 and spec.params.regime != "XXX" else 0] = 1.0
        vec = np.kron(vec, local)
    return vec
