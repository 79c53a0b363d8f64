"""Operator-valued transmission matrices and their algebra checks.

Four matrix families are built: the isotropic pair (T, Tbar) over the
harmonic oscillator, the critical pair over a rescaled-deformation
oscillator, the non-critical pair over the q-oscillator, and the spin
(type-II) matrix over the quantum-group spin representation.  Each family
satisfies the quadratic exchange algebra with its bulk S-matrix,

    S12(l1 - l2) T1(l1) T2(l2) = T2(l2) T1(l1) S12(l1 - l2),

plus the unitarity and crossing identities

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
from dataclasses import dataclass

import numpy as np

from .lax_defect import CRITICAL, XXX, RegimeParams, defect_rep, s_matrix_part
from .oscillator_reps import (HarmonicRep, QOscRep, SpinRep, q_oscillator_rep,
                              spin_rep)
from .reporting import ResidualReport
from .special_functions import gamma_ratio
from .tensor_core import (TensorOperator, TensorSpace, exchange_residual,
                          partial_transpose)
from .transmission_amplitudes import amplitude, type2_amplitude

__all__ = [
    "TransmissionPair",
    "TypeIIMatrix",
    "make_t_pair",
    "default_rep",
    "quadratic_algebra_residual",
    "unitarity_crossing_residual",
    "make_type2",
    "type2_algebra_residual",
]


@dataclass(frozen=True)
class TransmissionPair:
    """lam_hat-parametrised T and Tbar on (aux C^2) (x) (defect space).

    renorm carries the critical-regime rescaling (u = lam/gamma,
    mu~ = pi gamma, q~ = e^{i mu~}); it is None otherwise.
    """

    params: RegimeParams
    rep: object
    t: object
    t_bar: object
    t_matrix_part: object
    t_bar_matrix_part: object
    t_prefactor: object
    t_bar_prefactor: object
    renorm: dict | None = None


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


def _space(rep) -> TensorSpace:
    return TensorSpace((2, rep.dim))


def make_t_pair(params: RegimeParams, rep) -> TransmissionPair:
    """Both transmission matrices, scalar amplitude prefactors attached.

    The matrix parts and the elementary prefactor pieces accept complex
    arguments (needed by the crossing check); the amplitude factors are
    attached exactly as displayed for each regime.
    """
    d = rep.dim
    eye = np.eye(d, dtype=np.complex128)
    space = _space(rep)

    if params.regime == XXX:
        if not isinstance(rep, HarmonicRep):
            raise TypeError("isotropic transmission matrices need a HarmonicRep")
        n_bar = rep.a @ rep.a_dag - 0.5 * eye

        def t_part(lh):
            return TensorOperator(space, np.block([
                [1j * lh * eye + eye + n_bar, rep.a],
                [rep.a_dag, eye]]))

        def t_bar_part(lh):
            return TensorOperator(space, np.block([
                [eye, -rep.a],
                [-rep.a_dag, -1j * lh * eye + n_bar]]))

        def t_pref(lh):
            return amplitude(params, "-", lh).value / (1j * lh + 0.5)

        def t_bar_pref(lh):
            return amplitude(params, "+", lh).value

        renorm = None

    elif params.regime == CRITICAL:
        if not isinstance(rep, QOscRep):
            raise TypeError("critical transmission matrices need a QOscRep")
        g = params.gamma
        mu_t = np.pi * g
        q_t = complex(np.exp(1j * mu_t))
        if abs(rep.q - q_t) > 1e-9:
            raise ValueError(
                "critical transmission matrices need the rescaled-deformation "
                f"oscillator with q = e^(i pi gamma) = {q_t}, got {rep.q}")

        def t_part(lh):
            u = lh / g
            e = np.exp(mu_t * u)
            return TensorOperator(space, np.block([
                [q_t / e * rep.v - e / q_t * rep.v_inv, rep.a_dag],
                [rep.a, -e / q_t * rep.v]]))

        def t_bar_part(lh):
            u = lh / g
            e = np.exp(mu_t * u)
            return TensorOperator(space, np.block([
                [-rep.v / e, -rep.a_dag],
                [-rep.a, e * rep.v - rep.v_inv / e]]))

        def t_pref(lh, elementary_only=False):
            u = lh / g
            e = np.exp(mu_t * u)
            base = np.exp(-mu_t * u / 2.0) / (q_t ** 0.5 / e - e / q_t ** 0.5)
            if elementary_only:
                return base
            return base * amplitude(params, "-", lh).value

        def t_bar_pref(lh, elementary_only=False):
            u = lh / g
            base = -np.exp(mu_t * u / 2.0) * q_t ** 0.5
            if elementary_only:
                return base
            return base * amplitude(params, "+", lh).value

        renorm = {"gamma": g, "mu_tilde": mu_t, "q_tilde": q_t}

    else:
        if not isinstance(rep, QOscRep):
            raise TypeError("non-critical transmission matrices need a QOscRep")
        eta = params.eta
        q = params.q

        def t_part(lh):
            e = np.exp(1j * eta * lh)
            return TensorOperator(space, np.block([
                [q / e * rep.v - e / q * rep.v_inv, rep.a_dag],
                [rep.a, -e / q * rep.v]]))

        def t_bar_part(lh):
            e = np.exp(1j * eta * lh)
            return TensorOperator(space, np.block([
                [-rep.v / e, -rep.a_dag],
                [-rep.a, e * rep.v - rep.v_inv / e]]))

        def t_pref(lh):
            e = np.exp(1j * eta * lh)
            return (amplitude(params, "+", lh).value / e
                    / (q ** 0.5 / e - e / q ** 0.5))

        def t_bar_pref(lh):
            return -q ** 0.5 * amplitude(params, "-", lh).value

        renorm = None

    def t(lh):
        return t_pref(lh) * t_part(lh)

    def t_bar(lh):
        return t_bar_pref(lh) * t_bar_part(lh)

    return TransmissionPair(params=params, rep=rep, t=t, t_bar=t_bar,
                            t_matrix_part=t_part, t_bar_matrix_part=t_bar_part,
                            t_prefactor=t_pref, t_bar_prefactor=t_bar_pref,
                            renorm=renorm)


# --------------------------------------------------------------------------
# exchange algebra residual
# --------------------------------------------------------------------------


def quadratic_algebra_residual(params: RegimeParams, lam1: float, lam2: float,
                               rep, which: str = "t") -> ResidualReport:
    """|| S12 T1 T2 - T2 T1 S12 || on the interior (buffer 1) of the defect
    space, relative to || S12 T1 T2 || (floored at 1).

    The scalar prefactors cancel in this bilinear residual, so it is
    evaluated on the matrix parts.
    """
    pair = make_t_pair(params, rep)
    part = pair.t_matrix_part if which == "t" else pair.t_bar_matrix_part
    res, scale = exchange_residual(s_matrix_part(params, lam1 - lam2).entries,
                                   part(lam1).entries, part(lam2).entries,
                                   keep=np.diag(rep.interior(1)))
    return ResidualReport(
        f"quadratic-algebra[{which}]", res / max(scale, 1.0),
        params={"lam1": lam1, "lam2": lam2, "dim": rep.dim},
        subspace="interior(buffer=1), relative")


def _critical_crossing_scalar(lam: float, gamma: float) -> complex:
    """T+(lam + i gamma) T-(-lam + i gamma), telescoped to an elementary
    Gamma ratio (valid in any normalisation with T-(x) = 1/T+(-x))."""
    return gamma_ratio(
        [1j * lam - gamma / 2.0, -1j * lam + gamma / 2.0 + 1.0],
        [1j * lam + gamma / 2.0, -1j * lam - gamma / 2.0 + 1.0])


def unitarity_crossing_residual(params: RegimeParams, lam: float,
                                rep) -> tuple[ResidualReport, ResidualReport]:
    """Residuals of T(l) Tbar(-l) = 1 and Tbar^{t1}(l+i) T^{t1}(-l+i) = 1 on
    the interior (buffer 1) of the defect space.

    In the critical regime both identities hold in the rescaled variable,
    so the crossing shift is lam -> lam + i gamma and the amplitude product
    is evaluated through its closed elementary form.
    """
    d = rep.dim
    pair = make_t_pair(params, rep)
    proj = np.kron(np.eye(2, dtype=np.complex128), rep.interior(1))
    eye = np.eye(2 * d, dtype=np.complex128)
    sub = "interior(buffer=1)"

    u = (pair.t(lam).entries @ pair.t_bar(-lam).entries) - eye
    unit = ResidualReport("tt-unitarity", float(np.linalg.norm(u @ proj)),
                          params={"lam": lam, "dim": d}, subspace=sub)

    shift = 1j * (params.gamma if params.regime == CRITICAL else 1.0)
    if params.regime == CRITICAL:
        amp = _critical_crossing_scalar(lam, params.gamma)
        pb = pair.t_bar_prefactor(lam + shift, elementary_only=True)
        pt = pair.t_prefactor(-lam + shift, elementary_only=True)
        scalars = amp * pb * pt
    else:
        scalars = (pair.t_bar_prefactor(lam + shift)
                   * pair.t_prefactor(-lam + shift))
    mb = partial_transpose(pair.t_bar_matrix_part(lam + shift), 0).entries
    mt = partial_transpose(pair.t_matrix_part(-lam + shift), 0).entries
    c = scalars * (mb @ mt) - eye
    cross = ResidualReport("tt-crossing", float(np.linalg.norm(c @ proj)),
                           params={"lam": lam, "dim": d}, subspace=sub)
    return unit, cross


# --------------------------------------------------------------------------
# type-II (spin) transmission matrix
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeIIMatrix:
    eta: float
    spin: float
    rep: SpinRep
    t: object
    matrix_part: object
    prefactor: object

    @property
    def s_tilde(self) -> float:
        return self.spin - 0.5


def make_type2(eta: float, spin: float, rep: SpinRep | None = None) -> TypeIIMatrix:
    """Spin-defect transmission matrix in the non-critical regime.

    Entries are sin(eta(-lam +- i Sz + i/2)) on the diagonal and
    sin(i eta) S -+ off it, with prefactor T(lam) / sin(eta(-lam + i S~ + i/2)).
    """
    if rep is None:
        rep = spin_rep(spin, complex(np.exp(-eta)))
    if rep.dim != round(2 * spin) + 1:
        raise ValueError("representation dimension does not match the spin")
    s_tilde = spin - 0.5
    d = rep.dim
    eye = np.eye(d, dtype=np.complex128)
    space = TensorSpace((2, d))
    sz_diag = np.diag(rep.s_z)

    def matrix_part(lh):
        a11 = np.diag(np.sin(eta * (-lh + 1j * sz_diag + 0.5j)))
        a22 = np.diag(np.sin(eta * (-lh - 1j * sz_diag + 0.5j)))
        off = np.sin(1j * eta)
        return TensorOperator(space, np.block([
            [a11, off * rep.s_minus],
            [off * rep.s_plus, a22]]))

    def prefactor(lh):
        den = np.sin(eta * (-lh + 1j * s_tilde + 0.5j))
        if abs(den) < 1e-12:
            raise ZeroDivisionError(
                f"type-II prefactor denominator vanishes at lam_hat = {lh}")
        return type2_amplitude(lh, eta, spin).value / den

    def t(lh):
        return prefactor(lh) * matrix_part(lh)

    return TypeIIMatrix(eta=eta, spin=spin, rep=rep, t=t,
                        matrix_part=matrix_part, prefactor=prefactor)


def type2_algebra_residual(eta: float, spin: float, lam1: float,
                           lam2: float) -> ResidualReport:
    """Exchange-algebra residual of the spin matrix with the non-critical
    bulk S-matrix (prefactors cancel; matrix parts used)."""
    mat = make_type2(eta, spin)
    s12 = s_matrix_part(RegimeParams.noncritical(eta), lam1 - lam2).entries
    res, scale = exchange_residual(s12, mat.matrix_part(lam1).entries,
                                   mat.matrix_part(lam2).entries)
    return ResidualReport(
        "quadratic-algebra[type2]", res / max(scale, 1.0),
        params={"lam1": lam1, "lam2": lam2, "spin": spin},
        subspace="full (no truncation), relative")
