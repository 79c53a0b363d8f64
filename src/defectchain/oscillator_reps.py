"""Truncated matrix representations of the oscillator-type defect algebras.

Three families are built here:

* the harmonic oscillator with number operator N = a a_dag,
* the q-deformed oscillator parametrised by a Weyl pair X Y = q Y X,
* the (2S+1)-dimensional quantum-group spin representations.

Truncation to D levels breaks some defining relations of the oscillators
on the top basis state; the ``interior`` 0/1 mask (every state below the
top one) selects the subspace where they hold exactly, and
``algebra_residuals`` measures each relation on it.  The spin
representations are not truncated.

Sign conventions.  The harmonic representation is fixed by requiring
a_dag |0> = 0 together with [a, a_dag] = 1, which forces

    a |n> = |n+1>,   a_dag |n> = -n |n-1>,

the polynomial-model pair (x, -d/dx); it is not unitary, which is fine
since nothing downstream needs an inner product.  For the q-oscillator the
diagonal offset in X |n> = q^(n + 1/2) |n> is forced jointly by
a_dag |0> = 0 and V |0> = q^(1/2) |0>: writing X |n> = q^(n+c) |n> and
Y |n> = |n+1>, the lowering operator a_dag = (X^-1 - q X) Y^-1 kills |0>
iff the j = 0 coefficient q^(-c) - q^(1+c) vanishes at n = 0 shifted by
one, i.e. q^(1-c) = q^(c), giving c = 1/2, which simultaneously makes
V |0> = q^(1/2) |0>.
"""
from __future__ import annotations

import numpy as np

from .tensor_core import pow2_norm, pow2_scaled

__all__ = [
    "HarmonicRep",
    "QOscRep",
    "SpinRep",
    "harmonic_rep",
    "q_oscillator_rep",
    "spin_rep",
    "algebra_residuals",
]


def _below_top(dim: int) -> np.ndarray:
    keep = np.ones(dim)
    keep[-1] = 0.0
    return keep


class HarmonicRep:
    __slots__ = ("dim", "a", "a_dag", "n_op")

    def __init__(self, dim: int, a: np.ndarray, a_dag: np.ndarray, n_op: np.ndarray):
        self.dim, self.a, self.a_dag, self.n_op = dim, a, a_dag, n_op

    def interior(self) -> np.ndarray:
        """0/1 mask of the basis states below the top one, where every
        relation checked in this package holds exactly."""
        return _below_top(self.dim)


class QOscRep:
    __slots__ = ("dim", "q", "v", "v_inv", "a", "a_dag", "y")

    def __init__(self, dim: int, q: complex, v: np.ndarray, v_inv: np.ndarray, a: np.ndarray,
                 a_dag: np.ndarray, y: np.ndarray):
        self.dim, self.q, self.v, self.v_inv = dim, q, v, v_inv
        self.a, self.a_dag, self.y = a, a_dag, y

    def interior(self) -> np.ndarray:
        return _below_top(self.dim)


class SpinRep:
    __slots__ = ("s_z", "s_plus", "s_minus")

    def __init__(self, s_z: np.ndarray, s_plus: np.ndarray, s_minus: np.ndarray):
        self.s_z, self.s_plus, self.s_minus = s_z, s_plus, s_minus

    @property
    def dim(self) -> int:
        return self.s_z.shape[0]


def harmonic_rep(d: int) -> HarmonicRep:
    """Harmonic oscillator truncated to D levels: a raises, a_dag lowers."""
    if d < 3:
        raise ValueError(f"harmonic_rep needs D >= 3, got {d}")
    a = np.zeros((d, d), dtype=np.complex128)
    a_dag = np.zeros((d, d), dtype=np.complex128)
    for n in range(d - 1):
        a[n + 1, n] = 1.0
    for n in range(1, d):
        a_dag[n - 1, n] = -float(n)
    return HarmonicRep(dim=d, a=a, a_dag=a_dag, n_op=a @ a_dag)


def q_oscillator_rep(d: int, q: complex) -> QOscRep:
    """q-oscillator via the Weyl pair X Y = q Y X, truncated to D levels.

    X |n> = q^(n+1/2) |n>,  Y |n> = |n+1> (top state truncated) so that
    a = Y X raises and a_dag = (X^-1 - q X) Y^-1 lowers with a_dag |0> = 0.
    q is unimodular or real in (0, 1), as RegimeParams fixes it.
    """
    if d < 3:
        raise ValueError(f"q_oscillator_rep needs D >= 3, got {d}")
    q = complex(q)
    n = np.arange(d)
    x = np.diag(q ** (n + 0.5)).astype(np.complex128)
    x_inv = np.diag(q ** (-(n + 0.5))).astype(np.complex128)
    y = np.zeros((d, d), dtype=np.complex128)
    for m in range(d - 1):
        y[m + 1, m] = 1.0
    a = y @ x
    a_dag = np.zeros((d, d), dtype=np.complex128)
    for m in range(1, d):
        a_dag[m - 1, m] = q ** (-m + 0.5) - q ** (m + 0.5)
    return QOscRep(dim=d, q=q, v=x, v_inv=x_inv, a=a, a_dag=a_dag, y=y)


def _q_number(z, q: complex):
    if abs(q - 1.0) < 1e-14:
        return z
    return (q ** z - q ** (-z)) / (q - 1.0 / q)


def spin_rep(spin: float, q: complex = 1.0) -> SpinRep:
    """Standard (2S+1)-dimensional quantum-group spin matrices, 2S a
    non-negative integer; q -> 1 gives the classical ones."""
    d = round(2 * spin) + 1
    q = complex(q)
    m = spin - np.arange(d)
    s_z = np.diag(m).astype(np.complex128)
    s_plus = np.zeros((d, d), dtype=np.complex128)
    for i in range(1, d):
        mm = m[i]
        s_plus[i - 1, i] = np.sqrt(_q_number(spin - mm, q) * _q_number(spin + mm + 1, q))
    s_minus = s_plus.T.copy()
    return SpinRep(s_z=s_z, s_plus=s_plus, s_minus=s_minus)


def algebra_residuals(rep) -> list[tuple[str, float, str]]:
    """(relation, Frobenius residual, subspace) of every defining relation
    of an oscillator representation, measured on the columns the interior
    mask keeps (`pow2_norm`: inf past the float range)."""
    reports = []

    def add(name, lhs_minus_rhs, keep, subspace):
        reports.append((name, pow2_norm(*pow2_scaled(lhs_minus_rhs * keep)), subspace))

    if isinstance(rep, HarmonicRep):
        keep = rep.interior()
        eye = np.eye(rep.dim, dtype=np.complex128)
        sub = "interior"
        add("[a,a_dag]-1", rep.a @ rep.a_dag - rep.a_dag @ rep.a - eye, keep, sub)
        add("[N,a]+a", rep.n_op @ rep.a - rep.a @ rep.n_op + rep.a, keep, sub)
        add("[N,a_dag]-a_dag", rep.n_op @ rep.a_dag - rep.a_dag @ rep.n_op - rep.a_dag, keep, sub)
        add("N-a.a_dag", rep.n_op - rep.a @ rep.a_dag, keep, sub)
        ref = np.zeros(rep.dim, dtype=np.complex128)
        ref[0] = 1.0
        reports.append(("a_dag|0>", float(np.linalg.norm(rep.a_dag @ ref)), "reference state"))
        reports.append(("N|0>", float(np.linalg.norm(rep.n_op @ ref)), "reference state"))
    elif isinstance(rep, QOscRep):
        keep = rep.interior()
        eye = np.eye(rep.dim, dtype=np.complex128)
        q = rep.q
        sub = "interior"
        add("a_dag.a-(1-qV^2)", rep.a_dag @ rep.a - (eye - q * rep.v @ rep.v), keep, sub)
        add("a.a_dag-(1-V^2/q)", rep.a @ rep.a_dag - (eye - rep.v @ rep.v / q), keep, sub)
        add("Va-qaV", rep.v @ rep.a - q * rep.a @ rep.v, keep, sub)
        add("Va_dag-a_dagV/q", rep.v @ rep.a_dag - rep.a_dag @ rep.v / q, keep, sub)
        add("XY-qYX", rep.v @ rep.y - q * rep.y @ rep.v, keep, sub)
        add("a-YX", rep.a - rep.y @ rep.v, keep, sub)
        # a_dag = (X^-1 - qX) Y^-1 checked as a_dag Y = X^-1 - qX (Y is a
        # truncated shift, so its inverse never appears as a matrix)
        add("a_dagY-(X^-1-qX)", rep.a_dag @ rep.y - (rep.v_inv - q * rep.v), keep, sub)
        ref = np.zeros(rep.dim, dtype=np.complex128)
        ref[0] = 1.0
        reports.append(("a_dag|0>", float(np.linalg.norm(rep.a_dag @ ref)), "reference state"))
        reports.append(("V|0>-q^(1/2)|0>", float(np.linalg.norm(rep.v @ ref - q ** 0.5 * ref)),
                        "reference state"))
    else:
        raise TypeError(f"unknown representation type {type(rep)!r}")
    return reports
