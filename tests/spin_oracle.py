"""The defining relations of the quantum-group spin representations, used as
a test oracle.

``defectchain.oscillator_reps.spin_rep`` builds the (2S+1)-dimensional spin
matrices for the type-II transmission matrix, and the package measures the
exchange algebra of that matrix, not the relations of the representation
itself; ``algebra_residuals`` there covers the truncated oscillators only.
The spin representations are not truncated, so every relation here is
measured on the full space.
"""
import numpy as np


def _matrix_power_diag(q: complex, diag_op: np.ndarray) -> np.ndarray:
    """q ** M for diagonal M."""
    return np.diag(q ** np.diag(diag_op)).astype(np.complex128)


def spin_algebra_residuals(rep) -> list[tuple[str, float, str]]:
    """(relation, Frobenius residual, subspace) of every defining relation
    of the spin representation `rep`: [S+, S-] = [2 Sz]_q and the Sz
    ladder relations."""
    two_sz = 2.0 * rep.s_z
    q = rep.q
    if abs(q - 1.0) < 1e-14:
        qnum = two_sz
    else:
        qnum = (_matrix_power_diag(q, two_sz) - _matrix_power_diag(q, -two_sz)) / (q - 1.0 / q)
    relations = [
        ("[S+,S-]-[2Sz]_q", rep.s_plus @ rep.s_minus - rep.s_minus @ rep.s_plus - qnum),
        ("[Sz,S+]-S+", rep.s_z @ rep.s_plus - rep.s_plus @ rep.s_z - rep.s_plus),
        ("[Sz,S-]+S-", rep.s_z @ rep.s_minus - rep.s_minus @ rep.s_z + rep.s_minus),
    ]
    return [(name, float(np.linalg.norm(m)), "full (no truncation)") for name, m in relations]
