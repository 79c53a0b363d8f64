"""Operator-valued transmission matrices and their algebra checks.

Four matrix families are built: the isotropic pair (T, Tbar) over the
harmonic oscillator, the critical pair over a rescaled-deformation
oscillator, the non-critical pair over the q-oscillator, and the matrix
part of the spin (type-II) matrix over the quantum-group spin
representation, whose scalar prefactor cancels in the exchange algebra.
Each family satisfies the quadratic exchange algebra with its bulk S-matrix,

    S12(l1 - l2) T1(l1) T2(l2) = T2(l2) T1(l1) S12(l1 - l2),

and the three (T, Tbar) pairs also the unitarity and crossing identities

    T(l) Tbar(-l) = 1,     Tbar^{t1}(l + i) T^{t1}(-l + i) = 1

(the critical family in the rescaled variable u = lam / gamma, so crossing
shifts lam by i*gamma there).

The critical matrices use a fresh oscillator representation at the rescaled
deformation q~ = e^{i pi gamma}: the displayed entries close the exchange
algebra with the critical bulk S-matrix only under the q~-algebra.  For the
crossing check the two amplitude prefactors enter only through the product
T+(lam + i gamma) T-(-lam + i gamma), which telescopes to the elementary
ratio Gamma(i lam - g/2) Gamma(-i lam + g/2 + 1) / [Gamma(i lam + g/2)
Gamma(-i lam - g/2 + 1)]; that closed combination is used directly, keeping
every evaluation on the real axis of the amplitude routines.
"""
from __future__ import annotations

import warnings

import numpy as np

from .lax_defect import CRITICAL, XXX, RegimeParams, defect_rep, s_matrix_part
from .oscillator_reps import HarmonicRep, QOscRep, q_oscillator_rep, spin_rep
from .tensor_core import (TensorOperator, TensorSpace, block2, exchange_residual,
                          identity_residual, partial_transpose)

__all__ = [
    "default_rep",
    "t_matrix_part",
    "t_prefactor",
    "t_matrix",
    "quadratic_algebra_residual",
    "unitarity_crossing_residual",
    "type2_matrix_part",
    "type2_algebra_residual",
]


def default_rep(params: RegimeParams, dim: int):
    """The defect representation each regime's transmission matrices act on:
    the Lax operator's, except at the rescaled deformation q~ = e^{i pi gamma}
    in the critical regime."""
    if params.regime != CRITICAL:
        return defect_rep(params, dim)
    q_tilde = complex(np.exp(1j * np.pi * params.gamma))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # root-of-unity flag is expected here
        return q_oscillator_rep(dim, q_tilde)


def t_matrix_part(params: RegimeParams, lh: complex, rep, which: str = "t") -> TensorOperator:
    """Matrix part of T (``which="t"``) or Tbar (``"t_bar"``) at lam_hat on
    (aux C^2) (x) (defect space); complex lam_hat is allowed.

    The anisotropic parts are one block formula in q = rep.q and
    e = e^{mu~ u} (critical, u = lam_hat / gamma, mu~ = pi gamma) or
    e = e^{i eta lam_hat} (non-critical).
    """
    if params.regime == XXX:
        if not isinstance(rep, HarmonicRep):
            raise TypeError("isotropic transmission matrices need a HarmonicRep")
        eye = np.eye(rep.dim, dtype=np.complex128)
        n_bar = rep.a @ rep.a_dag - 0.5 * eye
        blocks = ((1j * lh * eye + eye + n_bar, rep.a, rep.a_dag, eye) if which == "t"
                  else (eye, -rep.a, -rep.a_dag, -1j * lh * eye + n_bar))
    else:
        if not isinstance(rep, QOscRep):
            raise TypeError("anisotropic transmission matrices need a QOscRep")
        if params.regime == CRITICAL:
            g = params.gamma
            q_t = complex(np.exp(1j * np.pi * g))
            if abs(rep.q - q_t) > 1e-9:
                raise ValueError(
                    "critical transmission matrices need the rescaled-deformation "
                    f"oscillator with q = e^(i pi gamma) = {q_t}, got {rep.q}")
            e = np.exp(np.pi * g * (lh / g))
        else:
            e = np.exp(1j * params.eta * lh)
        q = rep.q
        blocks = ((q / e * rep.v - e / q * rep.v_inv, rep.a_dag, rep.a, -e / q * rep.v)
                  if which == "t"
                  else (-rep.v / e, -rep.a_dag, -rep.a, e * rep.v - rep.v_inv / e))
    return TensorOperator(TensorSpace((2, rep.dim)), block2(*blocks))


def _critical_elementary(lh: complex, gamma: float, which: str) -> complex:
    """The elementary factor of the critical T (or Tbar) prefactor, in the
    rescaled variable u = lam_hat / gamma."""
    mu_t = np.pi * gamma
    q_t = complex(np.exp(1j * mu_t))
    u = lh / gamma
    if which == "t":
        e = np.exp(mu_t * u)
        return np.exp(-mu_t * u / 2.0) / (q_t ** 0.5 / e - e / q_t ** 0.5)
    return -np.exp(mu_t * u / 2.0) * q_t ** 0.5


def t_prefactor(params: RegimeParams, lh: complex, which: str = "t") -> complex:
    """Scalar prefactor of T (or Tbar): the elementary factor of each regime
    times the hole amplitude, as displayed."""
    # imported here so that a command that builds no prefactor (spectrum,
    # bae) does not compile the amplitude layer
    from .transmission_amplitudes import amplitude
    if params.regime == XXX:
        if which == "t":
            return amplitude(params, "-", lh).value / (1j * lh + 0.5)
        return amplitude(params, "+", lh).value
    if params.regime == CRITICAL:
        sign = "-" if which == "t" else "+"
        return _critical_elementary(lh, params.gamma, which) * amplitude(params, sign, lh).value
    q = params.q
    if which == "t":
        e = np.exp(1j * params.eta * lh)
        return amplitude(params, "+", lh).value / e / (q ** 0.5 / e - e / q ** 0.5)
    return -q ** 0.5 * amplitude(params, "-", lh).value


def t_matrix(params: RegimeParams, lh: complex, rep, which: str = "t") -> TensorOperator:
    """T (or Tbar) at lam_hat: prefactor times matrix part."""
    return t_prefactor(params, lh, which) * t_matrix_part(params, lh, rep, which)


# --------------------------------------------------------------------------
# exchange algebra residual
# --------------------------------------------------------------------------


def quadratic_algebra_residual(params: RegimeParams, lam1: float, lam2: float,
                               rep, which: str = "t") -> float:
    """|| S12 T1 T2 - T2 T1 S12 || on the interior of the defect space,
    relative to || S12 T1 T2 || (floored at 1).

    The scalar prefactors cancel in this bilinear residual, so it is
    evaluated on the matrix parts.
    """
    res, scale = exchange_residual(s_matrix_part(params, lam1 - lam2).entries,
                                   t_matrix_part(params, lam1, rep, which).entries,
                                   t_matrix_part(params, lam2, rep, which).entries,
                                   keep=rep.interior())
    return res / max(scale, 1.0)


def _critical_crossing_scalar(lam: float, gamma: float) -> complex:
    """T+(lam + i gamma) T-(-lam + i gamma), telescoped to an elementary
    Gamma ratio (valid in any normalisation with T-(x) = 1/T+(-x))."""
    from .special_functions import gamma_ratio     # see t_prefactor
    return gamma_ratio(
        [1j * lam - gamma / 2.0, -1j * lam + gamma / 2.0 + 1.0],
        [1j * lam + gamma / 2.0, -1j * lam - gamma / 2.0 + 1.0])


def unitarity_crossing_residual(params: RegimeParams, lam: float,
                                rep) -> tuple[float, float]:
    """Residuals of T(l) Tbar(-l) = 1 and Tbar^{t1}(l+i) T^{t1}(-l+i) = 1 on
    the interior of the defect space.

    In the critical regime both identities hold in the rescaled variable,
    so the crossing shift is lam -> lam + i gamma and the amplitude product
    is evaluated through its closed elementary form.
    """
    keep = rep.interior()
    unit = (t_matrix(params, lam, rep).entries
            @ t_matrix(params, -lam, rep, "t_bar").entries)
    if params.regime == CRITICAL:
        g = params.gamma
        shift = 1j * g
        amp = _critical_crossing_scalar(lam, g)
        scalars = (amp * _critical_elementary(lam + shift, g, "t_bar")
                   * _critical_elementary(-lam + shift, g, "t"))
    else:
        shift = 1j
        scalars = t_prefactor(params, lam + shift, "t_bar") * t_prefactor(params, -lam + shift)
    mb = partial_transpose(t_matrix_part(params, lam + shift, rep, "t_bar"), 0).entries
    mt = partial_transpose(t_matrix_part(params, -lam + shift, rep), 0).entries
    return (identity_residual(unit, 1, keep),
            identity_residual(scalars * (mb @ mt), 1, keep))


# --------------------------------------------------------------------------
# type-II (spin) transmission matrix
# --------------------------------------------------------------------------


def type2_matrix_part(eta: float, spin: float, lh: complex) -> TensorOperator:
    """Matrix part of the spin-defect transmission matrix (non-critical):
    sin(eta(-lam +- i Sz + i/2)) on the diagonal and sin(i eta) S-+ off it,
    over the spin representation at q = e^{-eta}."""
    rep = spin_rep(spin, complex(np.exp(-eta)))
    sz_diag = np.diag(rep.s_z)
    a11 = np.diag(np.sin(eta * (-lh + 1j * sz_diag + 0.5j)))
    a22 = np.diag(np.sin(eta * (-lh - 1j * sz_diag + 0.5j)))
    off = np.sin(1j * eta)
    return TensorOperator(TensorSpace((2, rep.dim)),
                          block2(a11, off * rep.s_minus, off * rep.s_plus, a22))


def type2_algebra_residual(eta: float, spin: float, lam1: float, lam2: float) -> float:
    """Exchange-algebra residual of the spin matrix with the non-critical
    bulk S-matrix, relative (prefactors cancel; matrix parts used)."""
    s12 = s_matrix_part(RegimeParams.noncritical(eta), lam1 - lam2).entries
    res, scale = exchange_residual(s12, type2_matrix_part(eta, spin, lam1).entries,
                                   type2_matrix_part(eta, spin, lam2).entries)
    return res / max(scale, 1.0)
