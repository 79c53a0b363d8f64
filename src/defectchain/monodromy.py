"""Defect-bearing monodromy and transfer matrices for small chains, with the
structural integrability checks (RTT, commuting family, charge grading,
reference-state eigenvalue) and Bethe-equation residuals.

The chain has N bulk spin-1/2 sites, each carrying the bulk R-matrix, and
one defect site of dimension D, which carries L(lam - theta).  It is read
from its defect: the monodromy over the auxiliary space 0 is

    T(lam) = R_{0,N}(lam) ... R_{0,1}(lam) L_{0,d}(lam - theta),

and the chain basis is the numpy.kron basis of the sites d, 1, ..., N (the
defect slowest, `ChainSpec.dims`): the chain with the defect at site 1.  A
chain with the defect at its site n of N + 1 has the transfer matrix
P t(lam) P^T, P a permutation of the tensor factors: the trace is cyclic,
operators on disjoint sites commute, and every bulk site carries the same
R.  So the site only relabels the basis, and no number computed here
depends on it.

Truncation-leak policy: the defect occupation together with the site
grading defines a conserved charge Q; on charge sectors whose occupation
never reaches the truncation ceiling the transfer matrix acts exactly as in
the untruncated representation, so all operator identities are measured on
the sectors Q <= D - 2, on blocks, never on a dense T(lam) or t(lam): the
sector blocks of T(lam) (RTT) and the diagonal blocks of t(lam) (commuting
family), one gather (`_aux_blocks`).  The charge itself is checked on the
local tensors (`charge_leak`), before any contraction.  The local tensors at
one lam (`local_tensors`) can be built once and contracted once
(`contract`), and the contracted pair passed to every residual at that lam.
They also take a 1-d grid of lams, adding a leading lam axis (each slice
the lone lam's bits), in batches of `ChainSpec.batch` lams: at most
BATCH_ENTRIES complex entries (2 MB) of what a batch holds beyond one lam,
so chains of N >= 7 bulk sites take one lam a batch.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from . import EXP_REACH, LN_MAX
from .lax_defect import NONCRITICAL, XXX, RegimeParams, make_l, make_r
from .tensor_core import commutator_residual, pow2_factor, pow2_norm, pow2_scaled

__all__ = [
    "ChainSpec",
    "local_tensors",
    "contract",
    "charge_vector",
    "sector_blocks",
    "sector_commutator",
    "transfer_matrix",
    "sector_eigenvalues",
    "reference_eigenvalue",
    "reference_residual",
    "rtt_residual",
    "charge_leak",
    "bae_residual",
    "bae_root",
    "bae_solutions",
]

# largest chain dimension 2^N D a ChainSpec accepts
RESOURCE_BOUND = 4096
BATCH_ENTRIES = 2 ** 17    # most complex entries one batch of lams holds (`ChainSpec.batch`)
# largest |Re mu theta| `bae_root` takes: its root z ~ e^(2 mu theta) stays below e^EXP_REACH
MAX_BAE_EXPONENT = EXP_REACH / 2
# largest non-critical eta `bae_root` takes: its root z = e^(2 mu u), u near
# -i, has |z| near e^(2 eta), which stays below the largest float
MAX_BAE_ETA = LN_MAX / 2
# largest off-diagonal residual || D - diag D ||_F / || t ||_F of D = V^-1 t V
# at which `sector_eigenvalues` reads t's eigenvalues off diag D (the
# chain-spectrum workload's seeds 1-10 read at most 6.3e-13)
EIGENBASIS_TOL = 1e-12
# smallest exact sector `sector_eigenvalues` diagonalises once: at 3 lams a
# batch, eig, inv and the products take about 1.5, 1.05 and 0.85 of the
# time of eigvals lam by lam at 5, 8 and 11 states
MIN_EIGENBASIS_SIZE = 8


class ChainSpec:
    """N bulk sites and a defect of dimension rep.dim; the chain dimension
    2^N rep.dim is at most RESOURCE_BOUND."""

    __slots__ = ("n_sites", "params", "rep")

    def __init__(self, n_sites: int, params: RegimeParams, rep):
        self.check_dim(n_sites, rep.dim)
        self.n_sites, self.params, self.rep = n_sites, params, rep

    @staticmethod
    def check_dim(n_sites: int, d: int):
        """A ValueError where N is negative or the chain dimension 2^N d
        passes RESOURCE_BOUND."""
        if n_sites < 0:
            raise ValueError("n_sites must be >= 0")
        if (dim := 2 ** n_sites * d) > RESOURCE_BOUND:
            raise ValueError(f"chain dimension {dim} exceeds resource bound {RESOURCE_BOUND}")

    @property
    def theta(self) -> float:
        return self.params.theta

    @property
    def dims(self) -> tuple[int, ...]:
        """The site dimensions in chain-basis order: d, 1, ..., N."""
        return (self.rep.dim,) + (2,) * self.n_sites

    @property
    def chain_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def batch(self) -> int:
        """Lams a batch: one, and as many more as fit in BATCH_ENTRIES, one
        `spectrum` lam holding, while `transfer_matrix` gathers its largest
        sector of n states, 4 R^2 entries of bulk product (R = 2^N), 10 D^2
        of defect tensor and its build, 10 n^2 of gathered entries and their
        products, and at most sum n^2 of blocks.  That is its peak: the later
        stages (eigenvalues, eigenbasis products, sort keys) hold the blocks
        and at most 6 n^2 + 8 R D more."""
        n = np.bincount(charge_vector(self).astype(int))
        r, d = 2 ** self.n_sites, self.rep.dim
        held = 4 * r * r + 10 * d * d + 10 * n.max() ** 2 + n @ n
        return 1 + BATCH_ENTRIES // int(held)

    @property
    def max_exact_charge(self) -> int:
        """D - 2: the charge sectors up to it never reach the truncation
        ceiling of the defect, so t(lam) acts on them exactly."""
        return self.rep.dim - 2


def local_tensors(spec: ChainSpec, lam) -> list[np.ndarray]:
    """The chain's distinct local operators at lam as (aux, site, aux, site)
    tensors (or their stacks at a grid): the bulk R, which every bulk site
    shares and a chain of N = 0 does not build, then L(lam - theta)."""
    def tensor(m, n):       # a matrix at a lam, a stack at a grid
        return m.reshape(np.shape(lam) + (2, n, 2, n))

    bulk = [tensor(make_r(spec.params, lam), 2)] if spec.n_sites else []
    return bulk + [tensor(make_l(spec.params, lam - spec.theta, spec.rep), spec.rep.dim)]


def contract(spec: ChainSpec, lam, local=None):
    """The pair (R_{0,N}(lam) ... R_{0,1}(lam), L_{0,d}(lam - theta)) whose
    auxiliary product is T(lam), as (aux, chain, aux, chain) tensors (or
    their stacks): N copies of the bulk R (the (2, 1, 2, 1) identity for
    N = 0) and the defect tensor.  Each step contracts the open
    column-auxiliary index with the next R and prepends its site as the
    slowest chain factor, so the product stays in numpy.kron order; the
    defect step is left to `_aux_blocks`.  A local tensor with a nonzero
    `_leak` is a ValueError naming lam and the operator (the bulk R first),
    so a finite t(lam) is exactly 0 between charge sectors; a product that
    overflows is one too (`_finite`).  `local` is `local_tensors(spec, lam)`,
    or None to build it.
    """
    if local is None:
        local = local_tensors(spec, lam)
    leaks = np.array([_leak(spec.params.regime, m) for m in local]).reshape(len(local), -1)
    if leaks.any():
        k, j = np.argwhere(leaks.T)[0]      # the first lam, then its first operator
        names = ("the bulk R-matrix", "the defect Lax operator")[-len(local):]
        raise ValueError(f"the transfer matrix leaks charge at lam = {np.atleast_1d(lam)[k]}: "
                         f"{names[j]} has a nonzero entry between charge sectors")
    *bulk, defect = local
    if not bulk:
        eye = np.eye(2, dtype=complex).reshape(2, 1, 2, 1)
        return np.broadcast_to(eye, np.shape(lam) + eye.shape), defect
    total = bulk[0]
    for _ in range(spec.n_sites - 1):
        total = np.einsum("...arbq,...bsct->...asrctq", total, bulk[0], order="C")
        total = total.reshape(total.shape[:-6] + (2, total.shape[-5] * total.shape[-4], 2, -1))
    return _finite(spec, lam, total), defect


def _aux_blocks(pair, a, c, rows, cols) -> np.ndarray:
    """The entries (rows, cols) of the auxiliary blocks T_ac(lam) from the
    `contract`ed pair (or their stacks), a, c, rows and cols index arrays
    that broadcast together: with the chain index s R + r (s the defect's
    state, R = 2^N), the sum over b of bulk[a, r, b, r'] L[b, s, c, s'],
    read in place at flat indices with b leading, so the sum over b runs
    outside einsum's inner loop."""
    bulk, defect = pair
    n, d = bulk.shape[-1], defect.shape[-1]
    b = np.arange(2).reshape((2,) + (1,) * max(map(np.ndim, (a, c, rows, cols))))
    (s, r), (t, u) = np.divmod(rows, n), np.divmod(cols, n)
    x, y = (m.reshape(m.shape[:-4] + (-1,)).take(i, axis=-1)
            for m, i in ((bulk, ((a * n + r) * 2 + b) * n + u),
                         (defect, ((b * d + s) * 2 + c) * d + t)))
    axes = list(range(1, b.ndim))
    return np.einsum(x, [..., 0, *axes], y, [..., 0, *axes], [..., *axes])


def transfer_matrix(spec: ChainSpec, lam, sectors, pair=None) -> list[tuple[int, np.ndarray]]:
    """(charge, block) of the transfer matrix t(lam) (or block stacks) on
    each of the given `sector_blocks`, from the `contract`ed pair at lam
    (built here where `pair` is None); the dense t(lam) is never formed.
    A block is T_00 + T_11 at its entries (`_aux_blocks`): the blocks of the
    auxiliary trace of the monodromy.
    """
    pair = contract(spec, lam) if pair is None else pair
    aux = np.arange(2)[:, None, None]
    blocks = []
    with np.errstate(over="ignore", invalid="ignore"):   # _finite reports it
        for sector, idx in sectors:
            x = _aux_blocks(pair, aux, aux, idx[:, None], idx)
            blocks.append((sector, _finite(spec, lam, x[..., 0, :, :] + x[..., 1, :, :])))
    return blocks


def _finite(spec: ChainSpec, lam, m: np.ndarray) -> np.ndarray:
    """m, or a ValueError naming the first lam where the chain product has
    overflowed: every site's exponent can be in range, their product not."""
    if not np.isfinite(m).all():
        bad = ~np.isfinite(m).reshape(np.shape(lam) + (-1,)).all(-1)
        raise ValueError(f"the monodromy of {spec.n_sites + 1} sites overflows at lam = "
                         f"{np.atleast_1d(lam)[bad.argmax()]}: each site's entries are finite, "
                         "their product is not")
    return m


def sector_eigenvalues(spec: ChainSpec, blocks) -> list[np.ndarray]:
    """The eigenvalues of the `transfer_matrix` block stacks at a grid of
    lams, one (lams, n) array a sector.  t(lam) commute on the exact
    sectors (Q <= D - 2), so there the eigenbasis of the first lam's block
    serves the whole grid (`_common_eigenvalues`); the other sectors, a
    one-lam grid and a sector of fewer than MIN_EIGENBASIS_SIZE states take
    eigvals lam by lam."""
    return [_common_eigenvalues(b) if q <= spec.max_exact_charge and len(b) > 1
            and b.shape[-1] >= MIN_EIGENBASIS_SIZE else np.linalg.eigvals(b) for q, b in blocks]


def _common_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """The eigenvalues of a stack of commuting matrices t_0, t_1, ...: eig's
    eigenvalues and eigenvectors V at t_0 (eigvals' bits), then each other
    t_k's as the diagonal of D_k = V^-1 t_k V, t_k `pow2_scaled` first and
    the scaling undone after.  The stack goes through eigvals lam by lam
    where V is singular, an entry is not finite, or some k's off-diagonal
    residual || D_k - diag D_k ||_F / || t_k ||_F passes EIGENBASIS_TOL: a
    degeneracy at t_0 that t_k splits, or an ill-conditioned V, costs speed,
    never accuracy."""
    w, v = np.linalg.eig(stack[0])
    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:       # singular V
        return np.linalg.eigvals(stack)
    t, exp = pow2_scaled(stack[1:])
    with np.errstate(over="ignore", invalid="ignore"):     # a non-finite entry falls back
        d = v_inv @ (t @ v)
        diag = np.einsum("...ii->...i", d)
        evs = np.concatenate([w[None], diag * np.ldexp(1.0, exp)[:, None]])
        diag[...] = 0.0                 # d is now D - diag D
        off = np.linalg.norm(d, axis=(-2, -1)) / np.linalg.norm(t, axis=(-2, -1))
    if not ((off <= EIGENBASIS_TOL).all() and np.isfinite(evs).all()):
        return np.linalg.eigvals(stack)
    return evs


# --------------------------------------------------------------------------
# charge grading
# --------------------------------------------------------------------------


def _grading(regime: str, d: int) -> list[float]:
    """The charge of each state of a site of dimension d: the defect's
    occupation, or a spin flipped from the reference (isotropic: up, else down)."""
    return [float(k) for k in range(d)] if d > 2 else [0.0, 1.0] if regime == XXX else [1.0, 0.0]


def _moves_charge(regime: str, d: int) -> np.ndarray:
    """The entries of a local (2, d, 2, d) tensor whose row and column
    charges differ, the auxiliary space graded like a spin site."""
    q = np.add.outer(_grading(regime, 2), _grading(regime, d))
    return np.not_equal.outer(q, q)


def _leak(regime: str, m: np.ndarray):
    """The largest |entry| of the local (2, d, 2, d) tensor m that moves the
    charge, relative to m's largest |entry|: 0 iff no entry moves it, and
    floored at the smallest positive float where the ratio would round to 0.
    At a stack of tensors, the leak of each."""
    moving = np.abs(m[..., _moves_charge(regime, m.shape[-3])]).max(-1)
    if not moving.any():
        return moving
    largest = np.abs(m).reshape(moving.shape + (-1,)).max(-1)    # > 0: no R or L is 0
    return np.where(moving > 0, np.maximum(moving / largest, math.ulp(0.0)), 0.0)


def charge_leak(spec: ChainSpec, local) -> float:
    """The largest `_leak` of the chain's `local_tensors` at one lam: what
    `contract`'s guard tests, so 0 wherever t(lam) can be built."""
    return float(max(_leak(spec.params.regime, m) for m in local))


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


def sector_commutator(spec: ChainSpec, a_blocks, b_blocks):
    """|| [A, B] || on the charge sectors Q <= D - 2 of two block-diagonal
    operators given by their (charge, block) pairs on `sector_blocks`: the
    root of the sum of the kept blocks' squared `commutator_residual`s, the
    sector-masked dense commutator up to roundoff (inf past the float
    range), or a list of them where A's blocks are stacks over a grid."""
    terms = [commutator_residual(a, b) for (sector, a), (_, b) in zip(a_blocks, b_blocks)
             if sector <= spec.max_exact_charge]        # sector 0 at least
    return math.hypot(*terms) if np.ndim(terms[0]) == 0 else list(map(math.hypot, *terms))


# --------------------------------------------------------------------------
# structural residuals
# --------------------------------------------------------------------------


def rtt_residual(spec: ChainSpec, lams, pair, sectors) -> float:
    """|| (R12 T1 T2 - T2 T1 R12) P || for the monodromies T1 = T(lam1), T2 =
    T(lam2) and the projector P on the sectors Q <= D - 2, from the
    `contract`ed pair at lams = (lam1, lam2) and the `sector_blocks`.
    `contract`'s leak guard makes the auxiliary block T_ab map sector Q into
    Q + g_b - g_a (g the auxiliary grading) and vanish elsewhere, and R12
    conserves g_1 + g_2, so each term of entry (a c, b d) maps sector Q into
    Q + g_b + g_d - g_a - g_c: batched products of zero-padded sector
    blocks, each operand a `pow2_factor`.
    """
    g = np.array(_grading(spec.params.regime, 2), dtype=int)
    shift, d, dim = g - g[:, None], spec.rep.dim, spec.chain_dim
    # the basis indices of the sectors -2 ... D, padded with the index past the chain
    idx = np.full((d + 3, max(len(i) for _, i in sectors)), dim)
    for q, i in sectors[:d + 1]:
        idx[q + 2, :len(i)] = i
    # block k = 0 ... D: T_ac from the sector k - 1 into the sector k - 1 + shift[a, c],
    # read at index 0 and masked where an index is past the chain
    rows = idx[np.arange(1, d + 2)[:, None, None] + shift][..., None]
    cols = idx[1:-1, None, None, None]
    aux = np.arange(2)[:, None, None, None]
    with np.errstate(over="ignore", invalid="ignore"):   # _finite reports it
        blocks = _aux_blocks(pair, aux, aux[..., 0], rows % dim, cols % dim)
    b1, b2 = _finite(spec, lams, np.where((rows == dim) | (cols == dim), 0, blocks))
    k = np.arange(1, d)[:, None, None] + shift      # the kept column sectors 0 ... D - 2
    r = make_r(spec.params, lams[0] - lams[1]).reshape(2, 2, 2, 2)
    (b1, e1), (b2, e2), (r, er) = map(pow2_factor, (b1, b2, r))
    lhs = np.tensordot(r, b1[k] @ b2[1:d, :, :, None, None], ([2, 3], [3, 1]))
    rhs = np.tensordot(b2[k] @ b1[1:d, :, :, None, None], r, ([2, 4], [0, 1]))
    return pow2_norm(lhs.transpose(2, 0, 1, 5, 6, 4, 3) - rhs, e1 + e2 + er)


# --------------------------------------------------------------------------
# vacuum weights: the reference state and the Bethe equations
# --------------------------------------------------------------------------


def _weights(params: RegimeParams, sign: str) -> list:
    """The chain's vacuum weights as [site][a, d][c1, c0]: the diagonal
    entries a, d of one bulk R on its reference spin at u, then of the
    defect's L (sign '+') or Lhat (sign '-', `make_l_hat`) on its vacuum at
    u - theta, each the linear factor c1 w + c0 w' of (w, w') = (x, 1)
    (isotropic) or (e^(mu x), e^(-mu x)) at the argument x."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if params.regime == XXX:        # R = u + i P; L: u + i n + i and i; Lhat: i and i n - u
        bulk, defect = [[1, 1j], [1, 0]], [[1, 1j], [0, 1j]] if sign == "+" else [[0, 1j], [-1, 0]]
    else:                           # x q^(+-sigma_z/2) - q^(-+sigma_z/2) / x, V|0> = q^(1/2)|0>
        q = params.q
        bulk = [[1, -1], [q, -1 / q]]
        defect = [[q, -1 / q], [0, -1]] if sign == "+" else [[-q, 0], [-1, 1]]
    return [bulk, defect]


def _linear(params: RegimeParams, c, x) -> tuple[complex, float]:
    """The linear factor c = (c1, c0) at x, c1 w + c0 w', and |c1 w| + |c0 w'|."""
    w = (x, 1.0) if params.regime == XXX else (np.exp(m := params.mu_complex * x), np.exp(-m))
    t1, t0 = complex(c[0]) * w[0], complex(c[1]) * w[1]
    return t1 + t0, abs(t1) + abs(t0)


def _vacuum(params: RegimeParams, n_sites: int, sign: str, u) -> list[tuple[complex, float]]:
    """(a, |a|) and (d, |d|) at u: the products of the `_weights` of N =
    n_sites bulk sites at u and the defect at u - theta, and of their scales.
    A chain of no bulk sites reads no bulk weight, whose e^(mu u) may
    overflow where the defect's e^(mu (u - theta)) does not."""
    pairs = [(_linear(params, bulk, u) if n_sites else (1.0, 1.0),
              _linear(params, defect, u - params.theta))
             for bulk, defect in zip(*_weights(params, sign))]
    return [(b ** n_sites * f, sb ** n_sites * sf) for (b, sb), (f, sf) in pairs]


def reference_eigenvalue(spec: ChainSpec, lam: complex) -> complex:
    """Transfer-matrix eigenvalue on the reference state: a(lam) + d(lam),
    the chain's `_vacuum` weights (verified by the test suite)."""
    (a, _), (d, _) = _vacuum(spec.params, spec.n_sites, "+", complex(lam))
    return a + d


def reference_residual(spec: ChainSpec, blocks, lam: complex) -> float:
    """|| t v - e v || / |e| for the transfer matrix t = t(lam) given by its
    `transfer_matrix` blocks, the reference state v and its derived
    eigenvalue e.  v has every site in its reference orientation and the
    defect in its vacuum (annihilated by a_dag): the one state of charge 0,
    so t v is the 1 x 1 block of that sector, bit for bit the mat-vec.
    """
    ev = reference_eigenvalue(spec, lam)
    return pow2_norm(*pow2_scaled(blocks[0][1][:, 0] - ev)) / max(abs(ev), 1e-30)


def bae_residual(params: RegimeParams, n_sites: int, sign: str, roots) -> np.ndarray:
    """The chain's T-Q equation at each of a set of Bethe roots u_k,

        a(u_k) Q(u_k - i) + d(u_k) Q(u_k + i),  Q(x) = prod_j (x - u_j)

    (anisotropic: the shifts swapped, Q(x) = prod_j sinh mu (x - u_j)), a and
    d the `_vacuum` weights of N = n_sites bulk sites and the defect's L
    (sign '+') or Lhat (sign '-'), over its running-error scale: the same
    sum with each linear factor c1 w + c0 w' as |c1 w| + |c0 w'|, positive
    where a and d both vanish (a singular root).  Past the float range it is
    a ValueError naming theta."""
    roots = [complex(r) for r in roots]
    if any(abs(a - b) < 1e-12 for a, b in itertools.combinations(roots, 2)):
        raise ValueError("coincident Bethe roots")
    # the shift a's Q takes, and Q's factor: x or sinh mu x
    step, factor = (-1j, (1.0, 0.0)) if params.regime == XXX else (1j, (0.5, -0.5))
    terms = []          # the equation at each root, and its scale
    with np.errstate(over="ignore", invalid="ignore"):
        for u in roots:
            (a, sa), (d, sd) = _vacuum(params, n_sites, sign, u)
            (qa, sqa), (qd, sqd) = (np.prod([_linear(params, factor, x - v) for v in roots], axis=0)
                                    for x in (u + step, u - step))
            terms.append((a * qa + d * qd, sa * sqa + sd * sqd))
    terms = np.array(terms, dtype=complex).reshape(-1, 2)
    if not np.isfinite(terms).all():
        raise ValueError(f"at theta = {params.theta} the Bethe equation at the roots {roots} "
                         "passes the float range")
    return terms[:, 0] / terms[:, 1].real


def bae_root(params: RegimeParams, sign: str) -> complex:
    """The Bethe root of the one-site chain (N = 1, M = 1), solved exactly:
    a(u) = d(u), the products of the `_weights` factors, cleared into a
    polynomial in v = u - max(theta, 0) (isotropic: a root near theta or 0
    keeps the bits of both parts) or z = e^{2 mu u} (mu = mu_complex) and
    solved in closed form (`_quadratic_roots`); of the finite roots, the one
    with the larger real part.  In the anisotropic regimes a and d share
    their e^{-2 mu u} term (L) or their e^{2 mu u} term (Lhat) identically,
    so the equation is linear in z.  A root z ~ e^{2 mu theta} past
    |Re mu theta| = MAX_BAE_EXPONENT is a ValueError naming theta, and one
    of |z| ~ e^(2 eta) past eta = MAX_BAE_ETA (non-critical) one naming eta."""
    if params.regime == NONCRITICAL and params.eta > MAX_BAE_ETA:
        raise ValueError(f"eta = {params.eta} puts the one-site Bethe root e^(2 mu lam) ~ "
                         f"e^(2 eta) past the float range; keep eta below {MAX_BAE_ETA:.6g}")
    w = np.array(_weights(params, sign), dtype=complex)     # [bulk, defect][a, d][c1, c0]
    th, mu = params.theta, 0.0 if params.regime == XXX else params.mu_complex
    if params.regime == XXX:        # c1 (u - t) + c0 = c1 v + c0 + c1 (s - t)
        s = max(th, 0.0)
        w[..., 1] += w[..., 0] * np.array([[s], [s - th]])
    elif (growth := abs((mu * th).real)) > MAX_BAE_EXPONENT:
        raise ValueError(f"theta = {th} puts |Re mu theta| = {growth:.4g} past "
                         f"{MAX_BAE_EXPONENT:g}: the one-site Bethe root e^(2 mu lam) overflows")
    else:                           # c1 e^(mu (u - theta)) + c0 e^(-mu (u - theta))
        w[1] *= np.exp(mu * th * np.array([-1.0, 1.0]))
    p = np.polysub(*map(np.convolve, *w))      # a - d
    if mu:                          # the shared term, dropped
        p = p[:-1] if sign == "+" else p[1:]
    roots = np.array(_quadratic_roots(p))
    with np.errstate(all="ignore"):     # z = 0 or past the float range: no finite u
        roots = [u for u in (np.log(roots) / (2.0 * mu) if mu else s + roots) if np.isfinite(u)]
    if not roots:
        raise ValueError(f"at theta = {th} the one-site Bethe equation has no finite root: "
                         "theta is past what double precision resolves")
    return complex(max(roots, key=lambda u: u.real))


def bae_solutions(params: RegimeParams) -> list[tuple[str, complex, float, bool]]:
    """(sign, root, residual, singular) of the chain's N=1, M=1 Bethe equation
    with the defect's L (+) and L-hat (-): `bae_root`'s root, its scaled T-Q
    residual, and whether a and d (`_vacuum`) vanish there to 16 eps of scale."""
    roots = [(sign, bae_root(params, sign)) for sign in "+-"]
    return [(sign, root, float(np.abs(bae_residual(params, 1, sign, [root])).max()),
             all(abs(w) <= 16 * 2.0 ** -52 * s for w, s in _vacuum(params, 1, sign, root)))
            for sign, root in roots]


def _quadratic_roots(p) -> list[complex]:
    """The roots of the polynomial p of degree <= 2 (highest coefficient
    first) as numpy.roots finds them, without its eigensolver: p
    `pow2_scaled`, so b^2 cannot overflow, q = -(b + s sqrt(b^2 - 4 a c)) / 2
    with the sign s that adds to b, and the roots q / a and c / q (Higham,
    Accuracy and Stability of Numerical Algorithms, 1.8)."""
    p = np.trim_zeros(np.asarray(p, dtype=complex), "f")
    if p.size < 2:
        return []
    p = pow2_scaled(p)[0]
    if p.size == 2:
        b, c = map(complex, p)
        return [-c / b]
    a, b, c = map(complex, p)
    root = complex(np.sqrt(b * b - 4.0 * a * c))
    q = -0.5 * (b - root if (b.conjugate() * root).real < 0 else b + root)
    return [q / a, c / q] if q else [0j, 0j]
