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

No matrix here has a formula of its own: the S-matrix part is the chain's
R-matrix and T, Tbar are its Lax operators L, Lhat, each at a shifted
argument (lax_defect.s_matrix_part, t_matrix_part).  The critical ones
are those of the chain at the rescaled deformation q~ = e^{i pi gamma},
over a fresh oscillator representation at q~: the displayed entries close
the exchange algebra with the critical bulk S-matrix only under the
q~-algebra.  For the
crossing check the two amplitude prefactors enter only through the product
T+(lam + i gamma) T-(-lam + i gamma), which telescopes to the elementary
ratio Gamma(i lam - g/2) Gamma(-i lam + g/2 + 1) / [Gamma(i lam + g/2)
Gamma(-i lam - g/2 + 1)]; that closed combination is used directly, keeping
every evaluation on the real axis of the amplitude routines.
"""
from __future__ import annotations

import numpy as np

from .lax_defect import (CRITICAL, NONCRITICAL, XXX, RegimeParams, defect_rep, lam_stack,
                         make_l, make_l_hat, q_lax, s_matrix_part)
from .oscillator_reps import q_oscillator_rep, spin_rep
from .tensor_core import aux_transpose, block2, exchange_residual, identity_residual

__all__ = [
    "default_rep",
    "t_matrix_part",
    "t_prefactor",
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
    return q_oscillator_rep(dim, complex(np.exp(1j * np.pi * params.gamma)))


def t_matrix_part(params: RegimeParams, lh, rep, which: str = "t") -> np.ndarray:
    """Matrix part of T (``which="t"``) or Tbar (``"t_bar"``) at lam_hat on
    (aux C^2) (x) (defect space), or a stack; complex lam_hat is allowed.
    rep is the regime's `default_rep`, whose deformation q the formulas take
    as given (the critical one at q~): nothing here checks it again.

    Each is the chain's Lax operator at a shifted argument: T = -i L(-lam_hat
    - i/2) and Tbar = -i Lhat(-lam_hat + i/2) in the isotropic regime, else
    T = L(-lam_hat + i/2) and Tbar = Lhat(-lam_hat - i/2) over rep (critical:
    at q~ and u = lam_hat / gamma), i.e. q_lax at x = q/e and x = 1/e with
    q = rep.q and e = e^{pi lam_hat} (critical) or e = e^{i eta lam_hat}.
    A ``which`` other than these two raises ValueError.
    """
    if which not in ("t", "t_bar"):
        raise ValueError(f"which must be 't' or 't_bar', got {which!r}")
    hat = which == "t_bar"
    if params.regime == XXX:
        lax = make_l_hat if hat else make_l
        return -1j * lax(params, -lh + (0.5j if hat else -0.5j), rep)
    e = np.exp((np.pi if params.regime == CRITICAL else 1j * params.eta) * lam_stack(lh))
    return q_lax(rep, 1 / e, e, True) if hat else q_lax(rep, rep.q / e, e / rep.q, False)


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


def _hole_prefactor(params: RegimeParams, lh, which: str, amp: complex):
    """The prefactor of T (or Tbar) at one lam_hat: the elementary factor of
    each regime times the hole amplitude amp there, as displayed."""
    if params.regime == XXX:
        return amp / (1j * lh + 0.5) if which == "t" else amp
    if params.regime == CRITICAL:
        return _critical_elementary(lh, params.gamma, which) * amp
    q = params.q
    if which == "t":
        e = np.exp(1j * params.eta * lh)
        return amp / e / (q ** 0.5 / e - e / q ** 0.5)
    return -q ** 0.5 * amp


def t_prefactor(params: RegimeParams, lh, which):
    """Scalar prefactors of T or Tbar at each point of the 1-d lam_hat lh,
    which naming T ("t") or Tbar ("t_bar") per point; T carries T- and Tbar
    T+, swapped in the non-critical regime.  One amplitude_pair call serves
    the grid; the elementary factors are scalar arithmetic (numpy's complex
    arrays fuse multiply-adds), so a point is its lone call bit for bit."""
    # imported here so that a command that builds no prefactor (spectrum,
    # bae) does not compile the amplitude layer
    from .transmission_amplitudes import amplitude_pair
    if not set(which) <= {"t", "t_bar"}:
        raise ValueError(f"which must be 't' or 't_bar', got {which!r}")
    minus = [(w == "t") != (params.regime == NONCRITICAL) for w in which]    # T-, else T+
    amps = [r.value.tolist() for r in amplitude_pair(params, lh)]
    return np.array([_hole_prefactor(params, x, w, amps[m][k]) for k, (x, w, m)
                     in enumerate(zip(np.asarray(lh).tolist(), which, minus, strict=True))])


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
    res, scale = exchange_residual(s_matrix_part(params, lam1 - lam2),
                                   t_matrix_part(params, lam1, rep, which),
                                   t_matrix_part(params, lam2, rep, which), keep=rep.interior())
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
    is evaluated through its closed elementary form.  The prefactors come
    from one amplitude grid: T(lam) and Tbar(-lam), and but in the critical
    regime those of the crossing identity too.
    """
    keep = rep.interior()
    if params.regime == CRITICAL:
        g = params.gamma
        shift = 1j * g
        t, t_bar = t_prefactor(params, [lam, -lam], ("t", "t_bar"))
        amp = _critical_crossing_scalar(lam, g)
        scalars = (amp * _critical_elementary(lam + shift, g, "t_bar")
                   * _critical_elementary(-lam + shift, g, "t"))
    else:
        shift = 1j
        t, t_bar, cross_bar, cross = t_prefactor(params, [lam, -lam, lam + shift, -lam + shift],
                                                 ("t", "t_bar", "t_bar", "t"))
        scalars = cross_bar * cross
    mb = aux_transpose(t_matrix_part(params, lam + shift, rep, "t_bar"))
    mt = aux_transpose(t_matrix_part(params, -lam + shift, rep))
    return (identity_residual(t * t_matrix_part(params, lam, rep),
                              t_bar * t_matrix_part(params, -lam, rep, "t_bar"), 1, keep),
            identity_residual(scalars * mb, mt, 1, keep))


# --------------------------------------------------------------------------
# type-II (spin) transmission matrix
# --------------------------------------------------------------------------


def type2_matrix_part(eta: float, spin: float, lh) -> np.ndarray:
    """Matrix part of the spin-defect transmission matrix (non-critical), or
    a stack: sin(eta(-lam +- i Sz + i/2)) on the diagonal and sin(i eta) S-+
    off it, over the spin representation at q = e^{-eta}."""
    rep = spin_rep(spin, complex(np.exp(-eta)))
    lh, sz, eye = lam_stack(lh), rep.s_z.diagonal(), np.eye(rep.dim)
    a11 = eye * np.sin(eta * (-lh + 1j * sz + 0.5j))
    a22 = eye * np.sin(eta * (-lh - 1j * sz + 0.5j))
    off = np.sin(1j * eta)
    return block2(a11, off * rep.s_minus, off * rep.s_plus, a22)


def type2_algebra_residual(eta: float, spin: float, lam1: float, lam2: float) -> float:
    """Exchange-algebra residual of the spin matrix with the non-critical
    bulk S-matrix, relative (prefactors cancel; matrix parts used)."""
    res, scale = exchange_residual(s_matrix_part(RegimeParams.noncritical(eta), lam1 - lam2),
                                   type2_matrix_part(eta, spin, lam1),
                                   type2_matrix_part(eta, spin, lam2))
    return res / max(scale, 1.0)
