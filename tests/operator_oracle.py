"""The bulk S-matrix part and the transmission matrices as the paper
displays them, used as a test oracle.

``defectchain`` builds these operators from the chain's own R-matrix and
Lax operators at shifted arguments (``lax_defect.s_matrix_part``,
``transmission_matrices.t_matrix_part``).  Here they are written out
entry by entry instead: the S weights in their sin/sinh forms, and T, Tbar
as explicit 2x2 blocks over the defect representation.
"""
import numpy as np


def s_weights(regime: str, lam: complex, mu=None, eta=None) -> np.ndarray:
    """The matrix part of the bulk S-matrix, normalised to a (1,1) entry of
    1: a on the outer diagonal, b on the inner one, c off it."""
    if regime == "XXX":
        a, b, c = 1j * lam + 1.0, 1j * lam, 1.0
    elif regime == "XXZ_critical":
        g = np.pi / mu - 1.0
        a, b, c = np.sin(np.pi * (1j * lam + g)), np.sin(1j * np.pi * lam), np.sin(np.pi * g)
    else:
        a, b, c = np.sin(eta * (-lam + 1j)), -np.sin(eta * lam), np.sin(1j * eta)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = a
    m[1, 1] = m[2, 2] = b
    m[1, 2] = m[2, 1] = c
    return m / a


def t_blocks(regime: str, lh: complex, rep, which: str, mu=None, eta=None) -> np.ndarray:
    """T (``which="t"``) or Tbar at lam_hat as its displayed blocks over rep:
    the harmonic oscillator (isotropic) or the q-oscillator at q = rep.q,
    with e = e^{pi lam_hat} (critical, q = e^{i pi gamma}) or e^{i eta lam_hat}."""
    eye = np.eye(rep.dim, dtype=complex)
    if regime == "XXX":
        n_bar = rep.a @ rep.a_dag - 0.5 * eye
        if which == "t":
            return np.block([[1j * lh * eye + eye + n_bar, rep.a], [rep.a_dag, eye]])
        return np.block([[eye, -rep.a], [-rep.a_dag, -1j * lh * eye + n_bar]])
    e = np.exp(np.pi * lh) if regime == "XXZ_critical" else np.exp(1j * eta * lh)
    q, v, v_inv = rep.q, rep.v, rep.v_inv
    if which == "t":
        return np.block([[q / e * v - e / q * v_inv, rep.a_dag], [rep.a, -e / q * v]])
    return np.block([[-v / e, -rep.a_dag], [-rep.a, e * v - v_inv / e]])
