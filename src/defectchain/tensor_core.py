"""Complex linear algebra on explicit tensor-product spaces.

Operators are plain complex arrays: a matrix, or a stack of them along a
leading axis, acting on an ordered tensor product of factor spaces.  The
basis ordering convention, fixed once here and used everywhere, is
row-major with the leftmost factor slowest: for factors (d1, d2) the
product basis index is ``i1 * d2 + i2``, which is exactly what
``numpy.kron`` produces.  ``aux_transpose`` transposes the leading C^2
factor, the auxiliary space of every R, Lax and transmission matrix.

The module also holds the residual kernels of the operator identities:
the exchange relation works on (2, d, 2, d) tensors without building
4d x 4d products and multiplies only the columns its mask keeps, and the
identity kernel multiplies by a 0/1 mask in place of a dense projector.
Every residual norm of the package is taken on `pow2_scaled` operands and
scaled back by `pow2_norm`, exactly: a norm keeps its bits while every value
stays in the normal range, and reads inf past the float range.

``TensorSpace`` and ``TensorOperator`` remain only for the commutator
kernel's product: clibench/tracer.py wraps their methods by name and counts
the flops of ``TensorOperator.__matmul__``, the one operator product of a
`spectrum` run it sees.  No other module names them.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "TensorSpace",
    "TensorOperator",
    "aux_transpose",
    "exchange_residual",
    "identity_residual",
    "commutator_residual",
    "pow2_scaled",
    "pow2_factor",
    "pow2_norm",
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
    """A square complex matrix, or a stack of them, acting on a TensorSpace."""

    __slots__ = ("space", "entries")

    def __init__(self, space: TensorSpace, entries: np.ndarray):
        self.space, self.entries = space, entries
        self.__post_init__()  # a method of its own: clibench/tracer.py wraps it by name

    def __post_init__(self):
        m = np.ascontiguousarray(self.entries, dtype=np.complex128)
        d = self.space.dim
        if m.shape != (d, d) and m.shape[1:] != (d, d):
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


def aux_transpose(m: np.ndarray) -> np.ndarray:
    """m^{t1}: the transpose in the leading C^2 factor of a matrix on
    C^2 (x) V, or of each matrix of a stack."""
    d = m.shape[-1] // 2
    return m.reshape(-1, 2, d, 2, d).swapaxes(1, 3).reshape(m.shape)


def pow2_scaled(m):
    """(m 2^-e, e): m times the power of two nearest the inverse of its
    largest |entry| (floored at 1e-30), so that the largest becomes one in
    [1/2, 1), and the exponent e.  At a stack of matrices (a 3-d m) each
    matrix takes its own power, and e is an array over the stack."""
    m = np.asarray(m)
    if m.ndim == 3:
        e = np.frexp(np.maximum(np.abs(m).max((-2, -1)), 1e-30))[1]
        return m * np.ldexp(1.0, -e)[:, None, None], e
    e = math.frexp(max(float(np.abs(m).max()), 1e-30))[1]
    return m * math.ldexp(1.0, -e), e


def pow2_factor(m):
    """`pow2_scaled` of a product's factor, NaN where it flushes a nonzero entry to zero."""
    y, e = pow2_scaled(m)
    return np.where((y == 0) & (m != 0), np.nan, y), e


def pow2_norm(x, e):
    """|| x ||_F 2^e, x formed from `pow2_scaled` operands whose exponents
    add up to e: inf past the float range or at a NaN, without a warning.
    At an array of exponents, each x[k]'s norm (over all axes) times 2^e[k]."""
    if isinstance(e, np.ndarray):
        with np.errstate(over="ignore"):
            norms = np.ldexp([np.linalg.norm(y) for y in x], e)
        return np.where(np.isnan(norms), np.inf, norms)
    try:
        return norm if (norm := math.ldexp(float(np.linalg.norm(x)), e)) == norm else math.inf
    except OverflowError:
        return math.inf


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
    The callers build them so: R12 is 4 x 4 and A1, A2 are 2d x 2d, each
    alone or all stacked alike, and no shape is checked here.
    """
    stacked = np.ndim(a1) == 3
    d = np.shape(a1)[-1] // 2
    (r, er), (t1, e1), (t2, e2) = (
        pow2_factor(np.asarray(m, dtype=np.complex128).reshape(-1, n, n))
        for m, n in ((r12, 4), (a1, 2 * d), (a2, 2 * d)))
    # blocks[row aux, col aux] as d x d matrices on V, broadcast so that the
    # products carry indices (sample, row1, col1, row2, col2, V row, V col)
    r = r.reshape(-1, 2, 2, 2, 2)
    t1, t2 = (t.reshape(-1, 2, d, 2, d).transpose(0, 1, 3, 2, 4) for t in (t1, t2))
    cols = slice(None) if keep is None else np.flatnonzero(keep)
    t1, t2 = t1[:, :, :, None, None], t2[:, None, None]
    lhs = np.einsum("nacef,nebfdij->nacbdij", r, t1 @ t2[..., cols])
    res = lhs - np.einsum("naecfij,nefbd->nacbdij", t2 @ t1[..., cols], r)
    # each sample's whole array: a stack of one gives the lone relation's
    # norms bit for bit
    norms = [pow2_norm(x, er + e1 + e2) for x in (res, lhs)]
    return tuple(norms) if stacked else (float(norms[0][0]), float(norms[1][0]))


def identity_residual(a, b, s, keep):
    """|| (A B - s 1) P || for A and B on C^n (x) V and P = 1 (x) diag(keep).

    Unitarity and crossing-unitarity of the Lax and transmission matrices
    are this relation; ``keep`` is the 0/1 mask over the basis of V.  The
    product is formed from `pow2_factor`s, s scaled alike (NaN if lost).
    Multiplying by the mask (instead of slicing) keeps the zeros in place,
    so the norm equals the one of the dense projector product bit for bit.
    ``a`` may instead be a stack of matrices along a leading axis, with
    ``s`` an (n, 1, 1) array over it; the residuals are then an array, each
    the lone relation's bit for bit.
    """
    (a, ea), (b, eb) = pow2_factor(a), pow2_factor(b)
    size = a.shape[-1]
    scaled = s * np.ldexp(1.0, -(ea + eb))[..., None, None]
    s = np.where((scaled == 0) & (s != 0), np.nan, scaled)
    res = (a @ b - s * np.eye(size, dtype=np.complex128)) * np.tile(keep, size // len(keep))
    return pow2_norm(res, ea + eb)


def commutator_residual(a, b):
    """|| [A, B] || for square matrices A and B, from `pow2_scaled`
    operands.  At a stack A, the norms are an array over it, each the lone
    call's bit for bit."""
    (a, ea), (b, eb) = pow2_scaled(a), pow2_scaled(b)
    space = TensorSpace((b.shape[-1],))
    a, b = TensorOperator(space, a), TensorOperator(space, b)
    return pow2_norm((a @ b).entries - (b @ a).entries, ea + eb)
