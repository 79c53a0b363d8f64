"""R-matrices, defect representations and Lax operators, crossing, and the
matrix part of the bulk S-matrix.

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

from .oscillator_reps import HarmonicRep, QOscRep, harmonic_rep, q_oscillator_rep
from .tensor_core import (TensorOperator, TensorSpace, block2, identity_residual,
                          partial_transpose, permutation_operator)

__all__ = [
    "RegimeParams",
    "defect_rep",
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
    (q = e^(-eta) in (0,1)), neither for the isotropic chain.  theta is the
    defect rapidity; it and eta must be finite.
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


AUX_SPACE = TensorSpace((2, 2))

_SP = np.array([[0, 1], [0, 0]], dtype=np.complex128)
_SM = np.array([[0, 0], [1, 0]], dtype=np.complex128)
_P4 = permutation_operator(2).entries


# largest |Re mu lam| the Lax entries e^{+-mu lam} may take (exp overflows past 709)
_MAX_EXPONENT = 700.0


def _exp_pair(params: RegimeParams, lam):
    """e^{mu lam} and e^{-mu lam}, or a ValueError where either overflows."""
    mu = params.mu_complex
    growth = abs((mu * lam).real).max() if isinstance(lam, np.ndarray) else abs((mu * lam).real)
    if growth > _MAX_EXPONENT:
        raise ValueError(f"|Re mu lam| = {growth:.4g} overflows e^(+-mu lam); "
                         f"keep it below {_MAX_EXPONENT:g}")
    return np.exp(mu * lam), np.exp(-mu * lam)


def _lams(lam):
    """lam as a complex, or a 1-d array of lams as (n, 1, 1): make_r, make_l and
    make_l_hat then broadcast over it and return an (n, dim, dim) stack."""
    return lam.astype(np.complex128)[:, None, None] if isinstance(lam, np.ndarray) else complex(lam)


def _operator(space: TensorSpace, m: np.ndarray):
    """m as an operator on space, or a stack of them as an array checked finite."""
    if m.ndim == 3 and not np.isfinite(m).all():
        raise ValueError("operator entries contain NaN or Inf")
    return m if m.ndim == 3 else TensorOperator(space, m)


def make_r(params: RegimeParams, lam) -> TensorOperator | np.ndarray:
    """Bulk R-matrix on C^2 (x) C^2 (first factor = block space), or a stack."""
    lam = _lams(lam)
    if params.regime == XXX:
        return _operator(AUX_SPACE, lam * np.eye(4, dtype=np.complex128) + 1j * _P4)
    q = params.q
    ep, em = _exp_pair(params, lam)
    qsz = np.diag([q ** 0.5, q ** -0.5])
    qszi = np.diag([q ** -0.5, q ** 0.5])
    e11 = ep * q ** 0.5 * qsz - em * q ** -0.5 * qszi
    e22 = ep * q ** 0.5 * qszi - em * q ** -0.5 * qsz
    off = q - 1.0 / q
    return _operator(AUX_SPACE, block2(e11, off * _SM, off * _SP, e22))


def defect_rep(params: RegimeParams, dim: int):
    """The D-level defect representation the regime's Lax operator acts on."""
    return harmonic_rep(dim) if params.regime == XXX else q_oscillator_rep(dim, params.q)


def _check_rep(params: RegimeParams, rep):
    if params.regime == XXX:
        if not isinstance(rep, HarmonicRep):
            raise TypeError("isotropic defect needs a HarmonicRep")
    elif not isinstance(rep, QOscRep):
        raise TypeError("anisotropic defect needs a QOscRep")
    elif abs(rep.q - params.q) > 1e-12:
        raise ValueError(f"representation deformation {rep.q} does not match regime q {params.q}")


def make_l(params: RegimeParams, lam, rep) -> TensorOperator | np.ndarray:
    """Defect Lax operator on (aux C^2) (x) (defect space), or a stack."""
    _check_rep(params, rep)
    lam = _lams(lam)
    eye = np.eye(rep.dim, dtype=np.complex128)
    if params.regime == XXX:
        m = block2(lam * eye + 1j * rep.n_op + 1j * eye, 1j * rep.a,
                   1j * rep.a_dag, 1j * eye)
    else:
        q = params.q
        ep, em = _exp_pair(params, lam)
        m = block2(ep * q ** 0.5 * rep.v - em * q ** -0.5 * rep.v_inv, rep.a_dag,
                   rep.a, -em * q ** -0.5 * rep.v)
    return _operator(TensorSpace((2, rep.dim)), m)


def make_l_hat(params: RegimeParams, lam, rep) -> TensorOperator | np.ndarray:
    """Conjugate Lax operator, explicit closed form, or a stack.

    Must agree entrywise with crossing_transform applied to make_l at
    -lam - i; the `lhat-two-route` record of `verify` compares the two.
    """
    _check_rep(params, rep)
    lam = _lams(lam)
    eye = np.eye(rep.dim, dtype=np.complex128)
    if params.regime == XXX:
        m = block2(1j * eye, -1j * rep.a,
                   -1j * rep.a_dag, -lam * eye + 1j * rep.n_op)
    else:
        q = params.q
        ep, em = _exp_pair(params, lam)
        m = block2(-ep * q ** 0.5 * rep.v, -rep.a_dag,
                   -rep.a, em * q ** -0.5 * rep.v - ep * q ** 0.5 * rep.v_inv)
    return _operator(TensorSpace((2, rep.dim)), m)


_V1 = np.array([[0.0, 1j], [-1j, 0.0]], dtype=np.complex128)


def crossing_transform(op: TensorOperator) -> TensorOperator:
    """V1 L^{t1} V1 for an operator L on (C^2 aux) (x) (anything): given
    L(-lam - i) it returns the conjugate operator Lhat(lam)."""
    if op.space.factor_dims[0] != 2:
        raise ValueError("crossing transform needs a 2-dimensional auxiliary factor")
    v1 = np.kron(_V1, np.eye(op.space.dim // 2, dtype=np.complex128))
    return TensorOperator(op.space, v1 @ partial_transpose(op, 0).entries @ v1)


def scalar_unitarity(params: RegimeParams, lam):
    lam = _lams(lam)
    if params.regime == XXX:
        return 1j * (lam + 1j)
    mu = params.mu_complex
    return -np.exp(-mu * lam) * (np.exp(mu * lam) - np.exp(-mu * lam))


def scalar_crossing(params: RegimeParams, lam):
    lam = _lams(lam)
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
    lams, keep, d = np.asarray(lams, dtype=np.complex128), rep.interior(), rep.dim
    unit = make_l(params, lams, rep) @ make_l_hat(params, -lams, rep)
    lt, lht = (m.reshape(-1, 2, d, 2, d).swapaxes(1, 3).reshape(m.shape)    # transposed in aux
               for m in (make_l(params, -lams - 1j, rep), make_l_hat(params, lams - 1j, rep)))
    return (identity_residual(unit, scalar_unitarity(params, lams), keep),
            identity_residual(lt @ lht, scalar_crossing(params, lams), keep))


def s_matrix_part(params: RegimeParams, lam: complex) -> TensorOperator:
    """Matrix part of the bulk S-matrix (scalar prefactor normalised away so
    that the (1,1) entry is 1)."""
    lam = complex(lam)
    m = np.zeros((4, 4), dtype=np.complex128)
    if params.regime == XXX:
        aw = 1j * lam + 1.0
        bw = 1j * lam
        cw = 1.0
    elif params.regime == CRITICAL:
        g = params.gamma
        aw = np.sin(np.pi * (1j * lam + g))
        bw = np.sin(1j * np.pi * lam)
        cw = np.sin(np.pi * g)
    else:
        eta = params.eta
        aw = np.sin(eta * (-lam + 1j))
        bw = -np.sin(eta * lam)
        cw = np.sin(1j * eta)
    m[0, 0] = m[3, 3] = aw
    m[1, 1] = m[2, 2] = bw
    m[1, 2] = m[2, 1] = cw
    return TensorOperator(AUX_SPACE, m / aw)
