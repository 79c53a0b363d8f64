"""Dense two-site embedding used as a test oracle for the monodromy.

The package builds the monodromy by local contraction and never forms an
embedded operator; these helpers build the same objects the slow way, in
the numpy.kron basis order of ``defectchain.tensor_core``.
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
