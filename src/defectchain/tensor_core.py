"""Complex linear algebra on explicit tensor-product spaces.

Operators are complex matrices acting on an ordered tensor product of
factor spaces.  The basis ordering convention, fixed once here and used
everywhere, is row-major with the leftmost factor slowest: for factors
(d1, d2) the product basis index is ``i1 * d2 + i2``, which is exactly what
``numpy.kron`` produces.  Values are never modified after construction and
all operations are pure.

The module also holds the three residual kernels of the operator
identities: the exchange relation works on (2, d, 2, d) tensors without
building 4d x 4d products and multiplies only the columns its mask keeps,
the identity kernel multiplies by a 0/1 mask in place of a dense
projector, and the commutator kernel scales its operands by powers of two.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "TensorSpace",
    "TensorOperator",
    "permutation_operator",
    "partial_transpose",
    "exchange_residual",
    "identity_residual",
    "commutator_residual",
]


class TensorSpace:
    """An ordered list of factor dimensions (auxiliary spaces listed explicitly)."""

    __slots__ = ("factor_dims",)

    def __init__(self, factor_dims: tuple[int, ...]):
        self.factor_dims = factor_dims
        self.__post_init__()  # a method of its own: clibench/tracer.py wraps it by name

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        self.factor_dims = dims

    @property
    def dim(self) -> int:
        return math.prod(self.factor_dims)

    @property
    def n_factors(self) -> int:
        return len(self.factor_dims)

    def check_factor(self, factor: int) -> int:
        if not 0 <= factor < self.n_factors:
            raise IndexError(f"factor {factor} out of range for {self.factor_dims}")
        return factor

    def __mul__(self, other: "TensorSpace") -> "TensorSpace":
        return TensorSpace(self.factor_dims + other.factor_dims)


class TensorOperator:
    """A square complex matrix acting on a TensorSpace."""

    __slots__ = ("space", "entries")

    def __init__(self, space: TensorSpace, entries: np.ndarray):
        self.space, self.entries = space, entries
        self.__post_init__()  # a method of its own: clibench/tracer.py wraps it by name

    def __post_init__(self):
        m = np.ascontiguousarray(self.entries, dtype=np.complex128)
        d = self.space.dim
        if m.shape != (d, d):
            raise ValueError(f"entries shape {m.shape} does not match space dim {d}")
        if not np.isfinite(m).all():
            raise ValueError("operator entries contain NaN or Inf")
        m.setflags(write=False)
        self.entries = m

    @classmethod
    def identity(cls, space: TensorSpace) -> "TensorOperator":
        return cls(space, np.eye(space.dim, dtype=np.complex128))

    def _check_same_space(self, other: "TensorOperator"):
        if self.space.factor_dims != other.space.factor_dims:
            raise ValueError(
                f"space mismatch: {self.space.factor_dims} vs {other.space.factor_dims}"
            )

    def __matmul__(self, other: "TensorOperator") -> "TensorOperator":
        self._check_same_space(other)
        return TensorOperator(self.space, self.entries @ other.entries)

    def __add__(self, other: "TensorOperator") -> "TensorOperator":
        self._check_same_space(other)
        return TensorOperator(self.space, self.entries + other.entries)

    def __sub__(self, other: "TensorOperator") -> "TensorOperator":
        self._check_same_space(other)
        return TensorOperator(self.space, self.entries - other.entries)

    def __mul__(self, scalar) -> "TensorOperator":
        return TensorOperator(self.space, complex(scalar) * self.entries)

    __rmul__ = __mul__

    def __neg__(self) -> "TensorOperator":
        return TensorOperator(self.space, -self.entries)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.entries))

    def reshaped(self) -> np.ndarray:
        """Entries as a 2n-index tensor (row factors, then column factors)."""
        dims = self.space.factor_dims
        return self.entries.reshape(dims + dims)


def block2(a11, a12, a21, a22) -> np.ndarray:
    """The block matrix [[a11, a12], [a21, a22]] of four equal square blocks,
    numpy.block's result assembled by slice assignment.  a11 or a22 may be
    a stack along a leading axis; the other blocks broadcast against it."""
    d = a11.shape[-1]
    lead = (a11 if a11.ndim > 2 else a22).shape[:-2]
    m = np.empty(lead + (2 * d, 2 * d), dtype=np.result_type(a11, a12, a21, a22))
    m[..., :d, :d] = a11
    m[..., :d, d:] = a12
    m[..., d:, :d] = a21
    m[..., d:, d:] = a22
    return m


def permutation_operator(d: int) -> TensorOperator:
    """P on C^d (x) C^d with P(|a> (x) |b>) = |b> (x) |a>."""
    if d < 2:
        raise ValueError(f"permutation operator needs dimension >= 2, got {d}")
    p = np.zeros((d * d, d * d), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            p[b * d + a, a * d + b] = 1.0
    return TensorOperator(TensorSpace((d, d)), p)


def partial_transpose(m: TensorOperator, factor: int) -> TensorOperator:
    """Transpose in the indicated factor only."""
    f = m.space.check_factor(factor)
    n = m.space.n_factors
    t = m.reshaped()
    axes = list(range(2 * n))
    axes[f], axes[n + f] = axes[n + f], axes[f]
    d = m.space.dim
    return TensorOperator(m.space, np.ascontiguousarray(t.transpose(axes)).reshape(d, d))


def _as_matrix(op, expected_dim: int) -> np.ndarray:
    """A matrix, or a stack of them along a leading axis, of the expected
    size as a 3-d complex array (a lone matrix is a stack of one)."""
    m = op.entries if isinstance(op, TensorOperator) else np.asarray(op, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-2:] != (expected_dim, expected_dim):
        raise ValueError(f"local operator shape {m.shape}, expected {(expected_dim,) * 2} "
                         "or a stack of those")
    return m.reshape(-1, expected_dim, expected_dim)


def exchange_residual(r12, a1, a2, keep=None):
    """The exchange relation R12 A1 A2 = A2 A1 R12 on C^2 (x) C^2 (x) V.

    The arguments are matrices: ``r12`` acts on the two auxiliary factors,
    ``a1`` and ``a2`` act on (auxiliary C^2) (x) V and sit at auxiliary
    factor 1 and 2.  Yang-Baxter (A = R, V = C^2), RLL (A = L) and the
    transmission-matrix exchange algebra (R = S) are this relation; RTT (A =
    the monodromy) is measured on its charge blocks instead
    (`monodromy.rtt_residual`).  ``keep`` is a 0/1 mask over the basis of V:
    the residual is measured on the subspace it selects (all of V by default).

    Returns (|| (R12 A1 A2 - A2 A1 R12) P ||, || R12 A1 A2 P ||), computed from
    the (2, d, 2, d) tensors without building 4d x 4d matrices: A1 (A2 P) and
    A2 (A1 P) are batched products of auxiliary blocks on the k kept columns
    only (d x d times d x k), R12 is contracted into them with einsum, and
    the norms equal the dense projector product's up to summation order.
    The arguments may instead be stacks of matrices along a leading axis of
    one length (one relation per sample); the norms are then arrays over it.
    """
    stacked = np.ndim(a1) == 3
    d = np.shape(a1)[-1] // 2
    r = _as_matrix(r12, 4).reshape(-1, 2, 2, 2, 2)
    # blocks[row aux, col aux] as d x d matrices on V, broadcast so that the
    # products carry indices (sample, row1, col1, row2, col2, V row, V col)
    t1 = _as_matrix(a1, 2 * d).reshape(-1, 2, d, 2, d).transpose(0, 1, 3, 2, 4)
    t2 = _as_matrix(a2, 2 * d).reshape(-1, 2, d, 2, d).transpose(0, 1, 3, 2, 4)
    if not len(r) == len(t1) == len(t2):
        raise ValueError(f"stacks of different lengths: {len(r)}, {len(t1)}, {len(t2)}")
    cols = slice(None) if keep is None else np.flatnonzero(keep)
    t1, t2 = t1[:, :, :, None, None], t2[:, None, None]
    lhs = np.einsum("nacef,nebfdij->nacbdij", r, t1 @ t2[..., cols])
    res = lhs - np.einsum("naecfij,nefbd->nacbdij", t2 @ t1[..., cols], r)
    # np.linalg.norm of each sample's whole array: a stack of one gives the
    # lone relation's norms bit for bit
    norms = [np.array([np.linalg.norm(x) for x in xs]) for xs in (res, lhs)]
    return tuple(norms) if stacked else (float(norms[0][0]), float(norms[1][0]))


def identity_residual(m, s, keep):
    """|| (M - s 1) P || for M on C^n (x) V and P = 1 (x) diag(keep).

    Unitarity and crossing-unitarity of the Lax and transmission matrices
    are this relation; ``keep`` is the 0/1 mask over the basis of V.
    Multiplying by the mask (instead of slicing) keeps the zeros in place,
    so the norm equals the one of the dense projector product bit for bit.
    ``m`` may instead be a stack of matrices along a leading axis, with
    ``s`` an (n, 1, 1) array over it; the residuals are then an array, each
    the lone relation's bit for bit.
    """
    size = m.shape[-1]
    res = (m - s * np.eye(size, dtype=np.complex128)) * np.tile(keep, size // len(keep))
    if res.ndim == 2:
        return float(np.linalg.norm(res))
    return np.array([np.linalg.norm(x) for x in res])


def commutator_residual(a, b) -> float:
    """|| [A, B] || for square matrices or TensorOperators A and B.

    Each operand is scaled by the power of two nearest the inverse of its
    largest entry before the products, and the norm is scaled back after.
    The scaling is exact, so the value keeps its bits wherever the unscaled
    products stay in the normal range, while operands near 1e260 give a
    finite value or, past the float range, inf.
    """
    mats = [x.entries if isinstance(x, TensorOperator) else np.asarray(x) for x in (a, b)]
    exps = [math.frexp(max(float(np.abs(m).max()), 1e-30))[1] for m in mats]
    space = TensorSpace((len(mats[0]),))
    a, b = (TensorOperator(space, m * 2.0 ** -e) for m, e in zip(mats, exps))
    c = (a @ b - b @ a).entries
    try:
        return math.ldexp(float(np.linalg.norm(c)), sum(exps))
    except OverflowError:
        return math.inf
