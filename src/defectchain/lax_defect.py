"""R-matrices, defect representations and Lax operators, crossing, and the
matrix part of the bulk S-matrix.

Two block formulas serve every anisotropic operator, each written in the
deformation q and x = e^(mu (lam + i/2)): six_vertex builds R, q_lax builds
L and Lhat.  The bulk S-matrix part is R(-lam) / R_11 and the
transmission matrices T, Tbar are L, Lhat at shifted arguments; in the
critical regime both are taken at q~ = e^(i pi gamma), whose angle pi gamma
may exceed pi, so the helpers take q and x rather than a RegimeParams.
Every builder returns a plain complex array: a matrix at a scalar lam, an
(n, dim, dim) stack at a 1-d array of lams.

Conventions used throughout (validated numerically by the test suite):

* the isotropic R-matrix is R(lam) = lam I + i P on C^2 (x) C^2;
* the anisotropic R-matrix is the symmetric six-vertex operator written in
  2x2 auxiliary blocks with q^(sigma_z/2) weights, with q = e^(i mu) in the
  critical regime and mu = i eta, q = e^(-eta) in the non-critical one;
* the defect Lax operator L lives on (auxiliary C^2) (x) (defect space),
  auxiliary factor first;
* the conjugate operator is Lhat(lam) = V1 L^{t1}(-lam - i) V1 with
  V1 = antidiag(i, -i), and both regimes admit an explicit closed form for
  it which the crossing transform must reproduce entrywise;
* scalar unitarity:          L(lam) Lhat(-lam) = s_u(lam) I,
  scalar crossing-unitarity: L^{t1}(-lam-i) Lhat^{t1}(lam-i) = s_c(lam) I,
  with s_u = i(lam + i), s_c = -i(lam - i) in the isotropic case and
  s_u = -e^{-mu lam}(e^{mu lam} - e^{-mu lam}), s_c = e^{mu lam}
  (e^{mu lam} - e^{-mu lam}) in the anisotropic ones (sign pinned by
  requiring the identities to hold numerically).
"""
from __future__ import annotations

import numpy as np

from . import EXP_REACH, LN_MAX
from .oscillator_reps import QOscRep, harmonic_rep, q_oscillator_rep
from .tensor_core import aux_transpose, block2, identity_residual

__all__ = [
    "RegimeParams",
    "defect_rep",
    "six_vertex",
    "q_lax",
    "make_r",
    "make_l",
    "make_l_hat",
    "crossing_transform",
    "unitarity_residuals",
    "s_matrix_part",
]

XXX = "XXX"
CRITICAL = "XXZ_critical"
NONCRITICAL = "XXZ_noncritical"


class RegimeParams:
    """Regime tag plus the anisotropy data that selects every formula variant.

    Exactly the fields of the active regime are set: mu for the critical
    chain (q = e^(i mu) on the unit circle), eta for the non-critical one
    (q = e^(-eta) in (0,1)), neither for the isotropic chain; either way q
    lies more than 1e-12 from 1, so mu >= 1e-12.  theta is the defect
    rapidity; it and eta must be finite.  The layers below take this domain
    as given: the critical gamma = pi / mu - 1 lies in (0, 3.2e12) and the
    non-critical nome e^(-4 eta) in (0, 1), and none checks them again.
    """

    __slots__ = ("regime", "mu", "eta", "theta")

    def __init__(self, regime: str, mu: float | None = None, eta: float | None = None,
                 theta: float = 0.0):
        if regime == XXX:
            if mu is not None or eta is not None:
                raise ValueError("isotropic regime takes no anisotropy parameter")
        elif regime == CRITICAL:
            if mu is None or eta is not None:
                raise ValueError("critical regime needs mu only")
            if not 0.0 < mu < np.pi:
                raise ValueError(f"mu must lie in (0, pi), got {mu}")
        elif regime == NONCRITICAL:
            if eta is None or mu is not None:
                raise ValueError("non-critical regime needs eta only")
            if not 0.0 < eta < np.inf:
                raise ValueError(f"eta must be positive and finite, got {eta}")
        else:
            raise ValueError(f"unknown regime {regime!r}")
        if not np.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        self.regime, self.mu, self.eta, self.theta = regime, mu, eta, theta
        if regime != XXX and abs(self.q - 1.0) < 1e-12:
            rule = ("mu must put q = e^(i mu) more than 1e-12 from 1" if regime == CRITICAL
                    else "eta must put q = e^(-eta) more than 1e-12 below 1")
            raise ValueError(f"{rule}, got {mu if regime == CRITICAL else eta}")

    @classmethod
    def xxx(cls, theta: float = 0.0) -> "RegimeParams":
        return cls(XXX, theta=theta)

    @classmethod
    def critical(cls, mu: float, theta: float = 0.0) -> "RegimeParams":
        return cls(CRITICAL, mu=mu, theta=theta)

    @classmethod
    def noncritical(cls, eta: float, theta: float = 0.0) -> "RegimeParams":
        return cls(NONCRITICAL, eta=eta, theta=theta)

    @property
    def mu_complex(self) -> complex:
        """mu as it enters e^(mu lam): real in the critical regime, i*eta otherwise."""
        if self.regime == CRITICAL:
            return complex(self.mu)
        if self.regime == NONCRITICAL:
            return 1j * self.eta
        raise ValueError("isotropic regime has no anisotropy")

    @property
    def q(self) -> complex:
        return complex(np.exp(1j * self.mu_complex))

    @property
    def nu(self) -> float:
        """nu = pi / mu, the unique choice consistent with the critical kernel
        support conditions 0 < n < 2 nu and the isotropic limit."""
        if self.regime != CRITICAL:
            raise ValueError("nu is defined in the critical regime only")
        return float(np.pi / self.mu)

    @property
    def gamma(self) -> float:
        return self.nu - 1.0

    def is_attractive(self) -> bool:
        return self.regime == CRITICAL and self.mu < np.pi / 2


_SP = np.array([[0, 1], [0, 0]], dtype=np.complex128)
_SM = np.array([[0, 0], [1, 0]], dtype=np.complex128)
_P4 = np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]     # P (|a> (x) |b>) = |b> (x) |a>


def _x_pair(mu: complex, lam):
    """q = e^(i mu), x = e^(mu (lam + i/2)) and 1/x (as e^(+-mu lam) q^(+-1/2)),
    or a ValueError where |Re mu lam| passes EXP_REACH."""
    growth = np.abs((mu * lam).real).max()
    if growth > EXP_REACH:
        raise ValueError(f"|Re mu lam| = {growth:.4g} overflows e^(+-mu lam); "
                         f"keep it below {EXP_REACH:g}")
    q = complex(np.exp(1j * mu))
    return q, np.exp(mu * lam) * q ** 0.5, np.exp(-mu * lam) * q ** -0.5


def lam_stack(lam):
    """lam as a complex, or a 1-d array of lams as (n, 1, 1): every builder
    then broadcasts over it and returns an (n, dim, dim) stack."""
    return lam.astype(np.complex128)[:, None, None] if isinstance(lam, np.ndarray) else complex(lam)


def six_vertex(q: complex, x, x_inv) -> np.ndarray:
    """The symmetric six-vertex R-matrix at deformation q in 2x2 auxiliary
    blocks, x q^(+-sigma_z/2) - q^(-+sigma_z/2) / x on the diagonal and
    q - 1/q off it (x may be an (n, 1, 1) stack)."""
    qsz = np.diag([q ** 0.5, q ** -0.5])
    qszi = np.diag([q ** -0.5, q ** 0.5])
    off = q - 1.0 / q
    return block2(x * qsz - x_inv * qszi, off * _SM, off * _SP, x * qszi - x_inv * qsz)


def q_lax(rep: QOscRep, x, x_inv, hat: bool) -> np.ndarray:
    """The q-oscillator Lax operator L = [[x V - V^-1/x, a_dag], [a, -V/x]]
    or (hat) its conjugate Lhat = [[-x V, -a_dag], [-a, V/x - x V^-1]] over
    rep (x may be an (n, 1, 1) stack)."""
    if hat:
        return block2(-x * rep.v, -rep.a_dag, -rep.a, x_inv * rep.v - x * rep.v_inv)
    return block2(x * rep.v - x_inv * rep.v_inv, rep.a_dag, rep.a, -x_inv * rep.v)


def make_r(params: RegimeParams, lam) -> np.ndarray:
    """Bulk R-matrix on C^2 (x) C^2 (first factor = block space), or a stack."""
    lam = lam_stack(lam)
    if params.regime == XXX:
        return lam * np.eye(4, dtype=np.complex128) + 1j * _P4
    return six_vertex(*_x_pair(params.mu_complex, lam))


def defect_rep(params: RegimeParams, dim: int):
    """The D-level defect representation the regime's Lax operator acts on.
    The non-critical q-oscillator's largest entry is q^(-(D - 1/2)) =
    e^(eta (D - 1/2)): an (eta, D) that puts it past the float range is a
    ValueError naming both."""
    if params.regime == XXX:
        return harmonic_rep(dim)
    if params.regime == NONCRITICAL and params.eta * (dim - 0.5) > LN_MAX:
        raise ValueError(f"eta = {params.eta} and D = {dim} put the q-oscillator's entry "
                         f"e^(eta (D - 1/2)) past the float range; keep eta (D - 1/2) "
                         f"below {LN_MAX:.6g}")
    return q_oscillator_rep(dim, params.q)


def make_l(params: RegimeParams, lam, rep) -> np.ndarray:
    """Defect Lax operator over `defect_rep` on (aux C^2) (x) (defect space), or a stack."""
    lam = lam_stack(lam)
    if params.regime == XXX:
        eye = np.eye(rep.dim, dtype=np.complex128)
        return block2(lam * eye + 1j * rep.n_op + 1j * eye, 1j * rep.a, 1j * rep.a_dag, 1j * eye)
    return q_lax(rep, *_x_pair(params.mu_complex, lam)[1:], False)


def make_l_hat(params: RegimeParams, lam, rep) -> np.ndarray:
    """Conjugate Lax operator, explicit closed form, or a stack.

    Must agree entrywise with crossing_transform applied to make_l at
    -lam - i; the `lhat-two-route` record of `verify` compares the two.
    """
    lam = lam_stack(lam)
    if params.regime == XXX:
        eye = np.eye(rep.dim, dtype=np.complex128)
        return block2(1j * eye, -1j * rep.a, -1j * rep.a_dag, -lam * eye + 1j * rep.n_op)
    return q_lax(rep, *_x_pair(params.mu_complex, lam)[1:], True)


_V1 = np.array([[0.0, 1j], [-1j, 0.0]], dtype=np.complex128)


def crossing_transform(m: np.ndarray) -> np.ndarray:
    """V1 L^{t1} V1 for a matrix L on (C^2 aux) (x) (anything), or a stack:
    given L(-lam - i) it returns the conjugate operator Lhat(lam)."""
    v1 = np.kron(_V1, np.eye(m.shape[-1] // 2, dtype=np.complex128))
    return v1 @ aux_transpose(m) @ v1


def scalar_unitarity(params: RegimeParams, lam):
    lam = lam_stack(lam)
    if params.regime == XXX:
        return 1j * (lam + 1j)
    mu = params.mu_complex
    return -np.exp(-mu * lam) * (np.exp(mu * lam) - np.exp(-mu * lam))


def scalar_crossing(params: RegimeParams, lam):
    lam = lam_stack(lam)
    if params.regime == XXX:
        return -1j * (lam - 1j)
    mu = params.mu_complex
    return np.exp(mu * lam) * (np.exp(mu * lam) - np.exp(-mu * lam))


def unitarity_residuals(params: RegimeParams, lams, rep) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of scalar unitarity L(lam) Lhat(-lam) = s_u(lam) I and
    crossing-unitarity L^{t1}(-lam-i) Lhat^{t1}(lam-i) = s_c(lam) I at each
    lam of the 1-d array lams, on the interior of the defect space.

    Nothing divides by the scalars, so the identities are checked at their
    zeros too (lam = -i and i for the isotropic chain, lam = 0 otherwise).
    """
    lams, keep = np.asarray(lams, dtype=np.complex128), rep.interior()
    lt = aux_transpose(make_l(params, -lams - 1j, rep))
    lht = aux_transpose(make_l_hat(params, lams - 1j, rep))
    return (identity_residual(make_l(params, lams, rep), make_l_hat(params, -lams, rep),
                              scalar_unitarity(params, lams), keep),
            identity_residual(lt, lht, scalar_crossing(params, lams), keep))


def s_matrix_part(params: RegimeParams, lam) -> np.ndarray:
    """Matrix part of the bulk S-matrix, or a stack: the chain's R-matrix at
    -lam (critical: at q~ = e^(i pi gamma) and -lam/gamma) divided by its
    (1,1) entry."""
    if params.regime == CRITICAL:
        g = params.gamma
        m = six_vertex(*_x_pair(np.pi * g, -lam_stack(lam) / g))
    else:
        m = make_r(params, -lam)
    return m / m[..., :1, :1]
