"""Defect-bearing monodromy and transfer matrices for small chains, with the
structural integrability checks (RTT, commuting family, charge grading,
reference-state eigenvalue) and Bethe-equation residuals.

The chain has N bulk spin-1/2 sites plus one defect site of dimension D at
position n (1-based, 1 <= n <= N+1); the monodromy is the ordered product

    T(lam) = M_{0,N+1}(lam) M_{0,N}(lam) ... M_{0,1}(lam)

over the auxiliary space 0, where M is the bulk R-matrix except at the
defect site, which contributes L(lam - theta).

Truncation-leak policy: the defect occupation together with the site
grading defines a conserved charge Q; on charge sectors whose occupation
never reaches the truncation ceiling the transfer matrix acts exactly as in
the untruncated representation, so all operator identities are measured on
the sectors Q <= D - 2, on blocks, never on a dense T(lam) or t(lam): the
sector blocks of T(lam) (RTT) and the diagonal blocks of t(lam) (commuting
family).  The charge itself is checked on the local tensors (`charge_leak`),
before any contraction.  The local tensors at one lam (`local_tensors`) can
be built once and passed to every contraction at that lam.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .lax_defect import CRITICAL, XXX, RegimeParams, make_l, make_r
from .tensor_core import commutator_residual

__all__ = [
    "ChainSpec",
    "local_tensors",
    "charge_vector",
    "sector_blocks",
    "sector_commutator",
    "transfer_matrix",
    "reference_eigenvalue",
    "reference_residual",
    "rtt_residual",
    "charge_leak",
    "bae_residual",
    "bae_root",
]

# largest chain dimension 2^N D a ChainSpec accepts
RESOURCE_BOUND = 4096


class ChainSpec:
    """N bulk sites, defect of dimension rep.dim at site defect_site; the
    chain dimension 2^N rep.dim is at most RESOURCE_BOUND."""

    __slots__ = ("n_sites", "defect_site", "params", "rep")

    def __init__(self, n_sites: int, defect_site: int, params: RegimeParams, rep):
        if n_sites < 0:
            raise ValueError("n_sites must be >= 0")
        if not 1 <= defect_site <= n_sites + 1:
            raise ValueError(f"defect_site must lie in 1..{n_sites + 1}, got {defect_site}")
        self.check_dim(n_sites, rep.dim)
        self.n_sites, self.defect_site, self.params, self.rep = n_sites, defect_site, params, rep

    @staticmethod
    def check_dim(n_sites: int, d: int):
        """A ValueError where the chain dimension 2^N d passes RESOURCE_BOUND."""
        if (dim := 2 ** n_sites * d) > RESOURCE_BOUND:
            raise ValueError(f"chain dimension {dim} exceeds resource bound {RESOURCE_BOUND}")

    @property
    def theta(self) -> float:
        return self.params.theta

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self.rep.dim if j == self.defect_site else 2
                     for j in range(1, self.n_sites + 2))

    @property
    def chain_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def max_exact_charge(self) -> int:
        """D - 2: the charge sectors up to it never reach the truncation
        ceiling of the defect, so t(lam) acts on them exactly."""
        return self.rep.dim - 2


def local_tensors(spec: ChainSpec, lam: complex) -> list[np.ndarray]:
    """M_{0,j}(lam) for the sites j = N+1, ..., 1 as (aux, site, aux, site)
    tensors: the bulk R, built once and shared by every bulk site, or
    L(lam - theta) at the defect site."""
    d = spec.rep.dim
    # built at the first bulk site, so the sites are built (and an overflow
    # is reported) in their order
    bulk = functools.cache(lambda: make_r(spec.params, lam).entries.reshape(2, 2, 2, 2))
    return [make_l(spec.params, lam - spec.theta, spec.rep).entries.reshape(2, d, 2, d)
            if j == spec.defect_site else bulk() for j in range(spec.n_sites + 1, 0, -1)]


def _contract(spec: ChainSpec, lam: complex, local):
    """M_{0,N+1}(lam) ... M_{0,2}(lam) and M_{0,1}(lam) as (aux, chain, aux,
    chain) tensors; the product is None for the one-site chain (N = 0).

    Built by local contraction: starting from M_{0,N+1} as a (2, d, 2, d)
    tensor, each step j = N, ..., 2 contracts the open column-auxiliary index
    with the row-auxiliary index of M_{0,j} and prepends site j as the
    slowest chain factor, so the tensor stays in numpy.kron order.  This is
    the association ((M_{N+1} M_N) M_{N-1}) ... of the dense left-to-right
    product, each entry summing the same two nonzero terms.  The site-1
    step, the only one at full size, is left to the caller.  A local tensor
    with a nonzero `_leak` is a ValueError naming lam, so a finite t(lam) is
    exactly 0 between charge sectors.  `local` is `local_tensors(spec, lam)`,
    or None to build it.
    """
    if local is None:
        local = local_tensors(spec, lam)
    for j, m in zip(range(spec.n_sites + 1, 0, -1), local):
        if _leak(spec.params.regime, m) > 0:
            raise ValueError(f"the transfer matrix leaks charge at lam = {lam}: the local "
                             f"operator of site {j} has a nonzero entry between charge sectors")
    total, first = local[0], local[-1]
    if spec.n_sites == 0:
        return None, first
    for m in local[1:-1]:
        total = np.einsum("arbq,bsct->asrctq", total, m, order="C")
        total = total.reshape(2, total.shape[1] * total.shape[2], 2, -1)
    return total, first


def transfer_matrix(spec: ChainSpec, lam: complex, sectors,
                    local=None) -> list[tuple[int, np.ndarray]]:
    """(charge, block) of the transfer matrix t(lam) on each of the given
    `sector_blocks`, from the `local_tensors` at lam (built here where
    `local` is None); the dense t(lam) is never formed.  With the chain index
    s R + r (s at site 1), a block gathers the product of sites N+1 ... 2 at
    its r's and the site-1 tensor at its s's and traces the auxiliary space
    in the site-1 step: the blocks of the auxiliary trace of the monodromy.
    """
    total, first = _contract(spec, lam, local)
    if total is not None:
        _finite(spec, lam, total)
    rest = spec.chain_dim // spec.dims[0]       # R, the dimension of sites N+1 ... 2
    blocks = []
    with np.errstate(over="ignore", invalid="ignore"):   # _finite reports it
        for sector, idx in sectors:
            s, r = np.divmod(idx, rest)
            f = first[:, s][:, :, :, s]
            if total is None:
                block = np.einsum("aiaj->ij", f)
            else:
                x = np.einsum("aibj,biaj->aij", total[:, r][:, :, :, r], f)
                block = x[0] + x[1]
            blocks.append((sector, _finite(spec, lam, block)))
    return blocks


def _finite(spec: ChainSpec, lam: complex, m: np.ndarray) -> np.ndarray:
    """m, or a ValueError where the chain product has overflowed: every
    site's exponent can be in range while their product is not."""
    if not np.isfinite(m).all():
        raise ValueError(f"the monodromy of {spec.n_sites + 1} sites overflows at "
                         f"lam = {lam}: each site's entries are finite, their product is not")
    return m


# --------------------------------------------------------------------------
# charge grading
# --------------------------------------------------------------------------


def _grading(regime: str, d: int) -> list[float]:
    """The charge of each state of a site of dimension d: the defect's
    occupation, or a spin flipped from the reference (isotropic: up, else down)."""
    return [float(k) for k in range(d)] if d > 2 else [0.0, 1.0] if regime == XXX else [1.0, 0.0]


@functools.lru_cache(maxsize=None)
def _moves_charge(regime: str, d: int) -> np.ndarray:
    """The entries of a local (2, d, 2, d) tensor whose row and column
    charges differ, the auxiliary space graded like a spin site."""
    q = np.add.outer(_grading(regime, 2), _grading(regime, d))
    return np.not_equal.outer(q, q)


def _leak(regime: str, m: np.ndarray) -> float:
    """The largest |entry| of the local (2, d, 2, d) tensor m that moves the
    charge, relative to m's largest |entry|: 0 iff no entry moves it, and
    floored at the smallest positive float where the ratio would round to 0."""
    moving = float(np.abs(m[_moves_charge(regime, m.shape[1])]).max())
    return max(moving / float(np.abs(m).max()), math.ulp(0.0)) if moving else 0.0


def charge_leak(spec: ChainSpec, local) -> float:
    """The largest `_leak` of the chain's `local_tensors` at one lam: what
    `_contract`'s guard tests, so 0 wherever t(lam) can be built."""
    return max(_leak(spec.params.regime, m) for m in local)


def charge_vector(spec: ChainSpec) -> np.ndarray:
    """Diagonal of the conserved charge: site grading plus defect occupation.

    The off-diagonal Lax entries shift Q by exactly +-1, so sectors below
    the truncation ceiling are exact.
    """
    q = np.zeros(())
    for d in spec.dims:
        q = np.add.outer(q, _grading(spec.params.regime, d))
    return q.ravel()


def sector_blocks(spec: ChainSpec) -> list[tuple[int, np.ndarray]]:
    """(charge, basis indices) of every charge sector, by increasing charge."""
    q = charge_vector(spec)
    return [(sector, np.flatnonzero(q == sector)) for sector in range(int(q.max()) + 1)]


def sector_commutator(spec: ChainSpec, a_blocks, b_blocks) -> float:
    """|| [A, B] || on the charge sectors Q <= D - 2 of two block-diagonal
    operators given by their (charge, block) pairs on `sector_blocks`: the
    root of the sum of the kept blocks' squared `commutator_residual`s, the
    sector-masked dense commutator up to roundoff.  Past the float range it
    reads inf."""
    return math.hypot(*(commutator_residual(a, b)
                        for (sector, a), (_, b) in zip(a_blocks, b_blocks)
                        if sector <= spec.max_exact_charge))


# --------------------------------------------------------------------------
# reference state
# --------------------------------------------------------------------------


def reference_eigenvalue(spec: ChainSpec, lam: complex) -> complex:
    """Transfer-matrix eigenvalue on the reference state: the product of the
    (1,1) local weights plus the product of the (2,2) weights (derived, and
    verified numerically by the test suite)."""
    lam = complex(lam)
    th = spec.theta
    if spec.params.regime == XXX:
        a_bulk, d_bulk = lam + 1j, lam
        a_def, d_def = lam - th + 1j, 1j
    else:
        mu = spec.params.mu_complex
        a_bulk = 2.0 * np.sinh(mu * lam)
        d_bulk = 2.0 * np.sinh(mu * (lam + 1j))
        a_def = 2.0 * np.sinh(mu * (lam - th + 1j))
        d_def = -np.exp(-mu * (lam - th))
    return a_bulk ** spec.n_sites * a_def + d_bulk ** spec.n_sites * d_def


def reference_residual(spec: ChainSpec, blocks, lam: complex) -> float:
    """|| t v - e v || / |e| for the transfer matrix t = t(lam) given by its
    `transfer_matrix` blocks, the reference state v and its derived
    eigenvalue e.  v has every site in its reference orientation and the
    defect in its vacuum (annihilated by a_dag): the one state of charge 0,
    so t v is the 1 x 1 block of that sector, bit for bit the mat-vec.
    """
    ev = reference_eigenvalue(spec, lam)
    res = blocks[0][1][:, 0] - ev
    size = max(abs(ev), 1e-30)
    # scaled by the power of two nearest 1/|e| before the norm squares
    # entries that may reach ~1e260; the scaling is exact, so the residual
    # keeps its bits wherever the unscaled norm is finite
    scale = 2.0 ** -math.frexp(size)[1]
    return float(np.linalg.norm(res * scale) / (size * scale))


# --------------------------------------------------------------------------
# structural residuals
# --------------------------------------------------------------------------


def rtt_residual(spec: ChainSpec, lam1: complex, lam2: complex, local=(None, None)) -> float:
    """|| (R12 T1 T2 - T2 T1 R12) P || for the monodromies T1 = T(lam1), T2 =
    T(lam2) and the projector P on the sectors Q <= D - 2, from the
    `local_tensors` at lam1 and lam2 (built here where None).  `_contract`'s
    leak guard makes the auxiliary block T_ab map sector Q into Q + g_b - g_a
    (g the auxiliary grading) and vanish elsewhere, and R12 conserves
    g_1 + g_2, so each term of entry (a c, b d) maps sector Q into
    Q + g_b + g_d - g_a - g_c: batched products of zero-padded sector blocks.
    """
    g = np.array(_grading(spec.params.regime, 2), dtype=int)
    shift, d, sectors = g - g[:, None], spec.rep.dim, sector_blocks(spec)
    # the basis indices of the sectors -2 ... D, padded with the index past the chain
    idx = np.full((d + 3, max(len(i) for _, i in sectors)), spec.chain_dim)
    for q, i in sectors[:d + 1]:
        idx[q + 2, :len(i)] = i
    # block k = 0 ... D: T_ac from the sector k - 1 into the sector k - 1 + shift[a, c]
    rows = idx[np.arange(1, d + 2)[:, None, None] + shift][..., None]
    b1, b2 = (_charge_blocks(spec, x, t, rows, idx[1:-1, None, None, None])
              for x, t in zip((lam1, lam2), local))
    k = np.arange(1, d)[:, None, None] + shift      # the kept column sectors 0 ... D - 2
    r = make_r(spec.params, lam1 - lam2).entries.reshape(2, 2, 2, 2)
    lhs = np.tensordot(r, b1[k] @ b2[1:d, :, :, None, None], ([2, 3], [3, 1]))
    rhs = np.tensordot(b2[k] @ b1[1:d, :, :, None, None], r, ([2, 4], [0, 1]))
    return float(np.linalg.norm(lhs.transpose(2, 0, 1, 5, 6, 4, 3) - rhs))


def _charge_blocks(spec: ChainSpec, lam: complex, local, rows, cols) -> np.ndarray:
    """T(lam)'s auxiliary blocks [k, a, c] at the chain indices rows[k, a, c, :]
    and cols[k, :], gathered from `_contract`'s pair as in `transfer_matrix`;
    the index past the chain reads a zero state appended to site 1."""
    total, first = _contract(spec, lam, local)
    total = np.eye(2).reshape(2, 1, 2, 1) if total is None else _finite(spec, lam, total)
    n, m = total.shape[1], first.shape[1] + 1
    padded = np.zeros((2, m, 2, m), dtype=complex)
    padded[:, :-1, :, :-1] = first
    (s, r), (t, u) = np.divmod(rows, n), np.divmod(cols, n)
    a = np.arange(2)[:, None, None, None]
    x = total.transpose(0, 1, 3, 2).reshape(-1, 2).take((a * n + r) * n + u, axis=0)
    y = padded.transpose(2, 1, 3, 0).reshape(-1, 2).take((a[..., 0] * m + s) * m + t, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):   # _finite reports it
        blocks = x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1]
    return _finite(spec, lam, blocks)


# --------------------------------------------------------------------------
# Bethe equations
# --------------------------------------------------------------------------


def _e_fn(params: RegimeParams, n: float):
    if params.regime == XXX:
        return lambda lam: (lam + 0.5j * n) / (lam - 0.5j * n)
    f, k = (np.sinh, params.mu) if params.regime == CRITICAL else (np.sin, params.eta)
    return lambda lam: f(k * (lam + 0.5j * n)) / f(k * (lam - 0.5j * n))


def _defect_fn(params: RegimeParams, sign: str):
    """The defect source factor: plus for L, minus for the conjugate Lhat."""
    if params.regime == XXX:
        return (lambda lam: lam + 0.5j) if sign == "+" else (lambda lam: 1.0 / (lam - 0.5j))
    if params.regime == CRITICAL:
        mu = params.mu
        if sign == "+":
            return lambda lam: np.exp(-mu * lam) / np.sinh(mu * (lam + 0.5j))
        return lambda lam: np.exp(-mu * lam) * np.sinh(mu * (lam - 0.5j))
    eta = params.eta
    if sign == "+":
        return lambda lam: np.exp(-1j * eta * lam) / np.sin(eta * (lam + 0.5j))
    return lambda lam: np.exp(-1j * eta * lam) * np.sin(eta * (lam - 0.5j))


def bae_residual(spec: ChainSpec, sign: str, roots) -> np.ndarray:
    """Bethe-equation residuals for a supplied root set.

    For each root lam_i this returns

        defect(lam_i - theta) e_1(lam_i)^N + prod_j e_2(lam_i - lam_j),

    the product running over all supplied roots including j = i (the i = j
    factor e_2(0) = -1 carries the sign of the quantisation condition);
    the residuals vanish iff the roots satisfy the equations.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    roots = [complex(r) for r in roots]
    if any(abs(a - b) < 1e-12 for a, b in itertools.combinations(roots, 2)):
        raise ValueError("coincident Bethe roots")
    e1, e2, src = _e_fn(spec.params, 1), _e_fn(spec.params, 2), _defect_fn(spec.params, sign)
    return np.array([src(lam - spec.theta) * e1(lam) ** spec.n_sites
                     + np.prod([e2(lam - other) for other in roots]) for lam in roots],
                    dtype=np.complex128)


def bae_root(spec: ChainSpec, sign: str) -> complex:
    """The Bethe root of the one-site chain (N = 1, M = 1), solved exactly.

    Its equation defect(lam - theta) e_1(lam) = 1 is cleared of denominators
    into a quadratic in z = lam (isotropic) or z = e^{2 mu lam} (anisotropic,
    mu = mu_complex), where each sinh (sin) factor of lam + a times 2 e^{mu lam}
    is linear in z.  Clearing adds roots at the poles of the equation; they
    are rejected by their bae_residual, and of the valid roots the one with
    the larger real part is returned.
    """
    if spec.n_sites != 1:
        raise ValueError(f"the exact root needs a one-site chain, got N = {spec.n_sites}")
    th = spec.theta
    if spec.params.regime == XXX:
        def lin(a):                 # lam + a
            return np.array([1.0, a])

        if sign == "+":
            num, den = np.polymul(lin(0.5j - th), lin(0.5j)), lin(-0.5j)
        else:
            num, den = lin(0.5j), np.polymul(lin(-0.5j - th), lin(-0.5j))
        to_lam = complex
    else:
        mu = spec.params.mu_complex
        kappa = 1.0 if spec.params.regime == CRITICAL else -1j   # sin(eta x) = -i sinh(mu x)

        def lin(a):                 # 2 e^{mu lam} sinh(mu (lam + a)), or sin(eta (lam + a))
            return kappa * np.array([np.exp(mu * a), -np.exp(-mu * a)])

        shift = np.exp(mu * th)     # e^{-mu (lam - theta)} = shift / sqrt(z)
        if sign == "+":
            num = 2.0 * shift * lin(0.5j)
            den = np.polymul(lin(0.5j - th), lin(-0.5j))
        else:
            num = shift * np.polymul(lin(-0.5j - th), lin(0.5j))
            den = np.polymul([2.0, 0.0], lin(-0.5j))

        def to_lam(z):
            return complex(np.log(z) / (2.0 * mu))

    def residual(lam):
        try:
            return abs(bae_residual(spec, sign, [lam])[0])
        except ZeroDivisionError:
            return np.inf

    with np.errstate(all="ignore"):
        roots = [to_lam(z) for z in np.roots(np.polysub(num, den))]
        # a root at a pole reads NaN, Inf or O(1); a valid one reads roundoff
        return min(roots, key=lambda lam: (not residual(lam) <= 1e-6, -lam.real))
