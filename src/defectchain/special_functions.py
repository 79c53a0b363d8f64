"""Complex Gamma machinery and the quadrature/summation engine for amplitudes.

The transmission amplitudes in this package are exponentials of integrals

    T(x) = exp[ -(PV) int dw/w  e^{-i w x}  K(w) ]            (continuous)
    T(x) = exp[ -sum_{k != 0} (1/k) e^{-2i eta k x} K(k) ]    (discrete)

over scattering kernels K.  Since 1/k = 2 eta / w, the discrete one is the
continuous transform taken on the mode lattice w = 2 eta k: one engine,
``amplitude_integral``, runs both, on the half-line rule or on the modes.
Splitting K into even and odd parts and folding the integral onto w > 0
gives

    ln T(x) = -int_0^inf dw/w [ 2(cos(wx) - 1) K_o(w) - 2i sin(wx) K_e(w) ]
              - 2 int_0^inf dw/w K_o(w)

where the first integrand is regular at the origin.  The second ("anchor")
integral is finite only when the odd part vanishes at w = 0.  Kernels whose
odd part has a jump or a simple pole at the origin get a canonical
counterterm which is exactly the one that turns the regularised exponent
into the classical Gamma-function integral identities:

    jump p at 0+ :  anchor = -2 int [K_o(w) - p e^{-2w}] dw/w
    pole  p/w    :  anchor = -2 int [K_o(w) - p/(2 sinh(w/2))] dw/w + p ln 2

(a mode sum takes the same p e^{-2w} at w = 2 eta k, and has no pole
prescription).  With these subtractions the engine reproduces the closed
Gamma / q-Gamma forms of every amplitude in the package to quadrature
accuracy; the choices are exercised against independent high-precision
oracles in the test suite.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable

import numpy as np

from . import ConvergenceError

__all__ = [
    "PoleError",
    "ConvergenceError",
    "FloatRangeError",
    "AmplitudeResult",
    "gamma_ratio",
    "gamma_ratio_bound",
    "q_gamma_ratio",
    "infinite_gamma_product",
    "FourierKernel",
    "amplitude_integral",
    "half_line_sums",
]


class PoleError(ValueError):
    """An argument landed on (or numerically at) a pole."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class FloatRangeError(ValueError):
    """An amplitude lies outside the normal float range: location is the
    first lam_hat where it does."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


# --------------------------------------------------------------------------
# truncation; finite Gamma and q-Gamma ratios
# --------------------------------------------------------------------------


# hard cap on the terms of a product or sum, and on the nodes of a rule
MAX_TERMS = 400_000
# a truncated product or series leaves at most about this much of its log
TAIL_TOL = 1e-12
# elements per (points x nodes) temporary: grids are walked in blocks of
# max(1, BLOCK // nodes) points so no temporary outgrows this
BLOCK = 16384
_EPS = float(np.finfo(float).eps)


def _count(n) -> str:
    """A term or node count for an error message: exact up to 1e6, else %.3g."""
    return str(int(n)) if n <= 1e6 else f"{n:.3g}"


# the series of Gamma ratios runs over n = 2 .. _STIRLING_ORDER, where |Z| >=
# _STIRLING_REACH max(max|h|, 1) or farther
_STIRLING_ORDER = 20
_STIRLING_REACH = 6.0
# the Bernoulli numbers B_0 .. B_(_STIRLING_ORDER + 2); the odd ones past B_1 vanish
_BERNOULLI = (1.0, -1 / 2, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0, 5 / 66,
              0.0, -691 / 2730, 0.0, 7 / 6, 0.0, -3617 / 510, 0.0, 43867 / 798, 0.0,
              -174611 / 330, 0.0, 854513 / 138)


def _stirling_table():
    """n = 2 .. _STIRLING_ORDER + 2 and the table taking the power sums p_j =
    sum_i s_i h_i^j to D_n, the coefficient of Z^(1-n) in sum_i s_i log
    Gamma(Z + h_i), (-1)^n sum_i s_i B_n(h_i) / (n (n-1)) (DLMF 5.11.8)."""
    n, j = np.arange(2, _STIRLING_ORDER + 3)[:, None], np.arange(1, _STIRLING_ORDER + 3)
    factorial = np.concatenate([[1.0], np.cumprod(np.arange(1.0, _STIRLING_ORDER + 3.0))])
    table = np.where(j <= n, (-1.0) ** n * factorial[n - 2] * np.array(_BERNOULLI)[n - j]
                     / (factorial[n - j] * factorial[j]), 0.0)
    table.flags.writeable = False
    return n, table


_STIRLING_N, _STIRLING_TABLE = _stirling_table()


def _pairs(num, den, *grid):
    """The (2, pairs, points) arguments of a ratio and their grid's shape: at
    each point num_i pairs with the den_i that makes sum |num_i - den_i| least."""
    if len(num) != len(den):
        raise ValueError(f"a ratio needs as many factors above as below: {len(num)}, {len(den)}")
    args = np.array(np.broadcast_arrays(*num, *den, *grid)[:2 * len(num)], dtype=np.complex128)
    shape, args = args.shape[1:], args.reshape(2, len(num), -1)
    if len(num) > 1:
        orders = np.array(list(itertools.permutations(range(len(num)))))
        with np.errstate(over="ignore"):    # a cost past the float range is never the least
            cost = [sum(np.abs(args[0] - args[1, order])) for order in orders]
        args[1] = args[1, orders[np.argmin(cost, axis=0)].T, np.arange(args.shape[2])]
    return args, shape


@lru_cache(maxsize=64)
def _pair_series(deltas: tuple):
    """For each shift delta of a ratio's pairs, stacked: D_n (n = 2 .. 20) of
    the shifts +-delta, the rounding of D_n W^(1-n) in eps |W|^(n-1), 2 |D_n|
    for n = 21, 22 and the reach, 6 max(|delta|, 1) or where those pass eps/4."""
    rows = []
    for delta in deltas:
        d, size = np.zeros(len(_STIRLING_TABLE), dtype=complex), np.zeros(len(_STIRLING_TABLE))
        power = 2.0 * delta                  # p_j = 2 delta^j at odd j, 0 at even j
        for i in range(0, _STIRLING_TABLE.shape[1], 2):
            d += _STIRLING_TABLE[:, i] * power
            size += (i + 3) * np.abs(_STIRLING_TABLE[:, i] * power)
            power *= delta * delta
        omitted = 2.0 * np.abs(d[-2:])
        reach = max(_STIRLING_REACH * max(abs(delta), 1.0),
                    *(4.0 * omitted / _EPS) ** (1.0 / (_STIRLING_N[-2:, 0] - 1.0)))
        rows.append((d[:-2], size[:-2] + _STIRLING_N[:-2, 0] * np.abs(d[:-2]), omitted, reach))
    return tuple(map(np.array, zip(*rows)))


def gamma_ratio_bound(num, den):
    """prod_i Gamma(num_i) / prod_i Gamma(den_i), as many above as below,
    each a scalar or an array of one shape (a grid), and a bound on its
    error.  No lone log Gamma is formed: num_i pairs with a den_i (_pairs),
    and with Z = (num_i + den_i) / 2, delta = (num_i - den_i) / 2, W = Z + M,

        log Gamma(Z + delta) / Gamma(Z - delta) = 2 delta log W
            + sum_{n=2}^{20} D_n W^(1-n) - sum_{j<M} log1p(2 delta / (den_i + j))

    (DLMF 5.11.13; D_n from _pair_series).  M puts |W| at the reach: M = 0
    for the hole amplitudes from |lam_hat| = 15 on.  No term divides by Z,
    which may be 0 (the critical crossing pair i lam -+ gamma/2 at lam = 0).
    A grid point's value is its scalar value bit for bit.  A Gamma at a pole
    raises PoleError naming its side.
    """
    args, shape = _pairs(num, den)
    if np.abs(args.imag).min(initial=1.0) < 1e-13:      # a pole is all but real
        pole = np.argwhere((np.abs(args - np.round(args.real)) < 1e-13)
                           & (np.round(args.real) <= 0))
        if pole.size:
            at = tuple(pole[0])
            raise PoleError(f"gamma_ratio: {('numerator', 'denominator')[at[0]]} pole at "
                            f"{args[at]}", location=complex(args[at]))
    two_delta, z = (args[0] - args[1]).ravel(), (0.5 * (args[0] + args[1])).ravel()
    deltas, which = np.unique(0.5 * two_delta, return_inverse=True)
    d, size, omitted, reach = _pair_series(tuple(deltas.tolist()))
    # Im z is squared only below the reach R: past it the level is -Re z, no overflow
    r = reach[which]
    level = np.sqrt(r ** 2 - np.minimum(np.abs(z.imag), r) ** 2) - z.real
    moved = np.maximum(np.ceil(level), 0.0).astype(int)
    if moved.max(initial=0) > MAX_TERMS:
        raise ConvergenceError(f"a Gamma ratio needs {_count(moved.max())} steps, "
                               f"cap is {MAX_TERMS}")
    ln, err, step = np.empty(z.shape, dtype=complex), np.empty(z.shape), BLOCK // len(_STIRLING_N)
    for start in range(0, z.size, step):
        at = slice(start, start + step)
        w, pair = z[at] + moved[at], which[at]
        log_w = np.log(w)
        power = np.cumprod(np.repeat(1.0 / w[:, None], len(_STIRLING_N), axis=1), axis=1)
        size_w = np.abs(power)
        ln[at] = two_delta[at] * log_w + (d[pair] * power[:, :-2]).sum(axis=-1)
        err[at] = ((omitted[pair] * size_w[:, -2:]).sum(axis=-1) + _EPS * (
            (size[pair] * size_w[:, :-2]).sum(axis=-1)
            + np.abs(two_delta[at]) * (3.0 * np.abs(log_w) + 4.0)))
        # the recurrence, per group of points with one M: each sums its own terms
        for m in set(moved[at].tolist()) - {0}:
            k = start + np.flatnonzero(moved[at] == m)
            t = two_delta[k, None] / (args[1].ravel()[k, None] + np.arange(m))
            logs = np.log1p(t)
            ln[k] -= logs.sum(axis=-1)
            err[k] += _EPS * (4.0 * np.abs(t / (1.0 + t))
                              + (3.0 + math.log2(m)) * np.abs(logs)).sum(axis=-1)
    ln, err = sum(ln.reshape(args[0].shape)), sum(err.reshape(args[0].shape))
    value = np.exp(ln)
    err = np.abs(value) * (err + _EPS * (len(num) * np.abs(ln) + 2.0))
    return value.reshape(shape)[()], err.reshape(shape)[()]


def gamma_ratio(num, den):
    """The value of gamma_ratio_bound: a complex for scalar arguments."""
    value = gamma_ratio_bound(num, den)[0]
    return complex(value) if np.ndim(value) == 0 else value


def q_gamma_ratio(num, den, q: float, lam):
    """prod_i Gamma_q(num_i) / prod_i Gamma_q(den_i), 0 < q < 1, as many
    above as below, each a scalar or an array of the shape of lam (a grid),
    and a bound on its error.  With Gamma_q(x) = (1-q)^(1-x) prod_{j>=0} (1 -
    q^(1+j)) / (1 - q^(x+j)), num_i = a paired with den_i = b (_pairs) and
    u_j(x) = q^(x+j), the factors 1 - q^(1+j) cancel and nothing overflows:

        log Gamma_q(a) / Gamma_q(b) = (b - a) log(1-q)
            - sum_{j>=0} log1p((u_j(b) - u_j(a)) / (1 - u_j(b)))

    A point sums j < N, the least N >= 8 with c q^(N-2) <= TAIL_TOL, c =
    sum_x (|q^x| + q) / (1 - q): no fewer terms than each Gamma_q alone
    needs, BLOCK // 4 terms at a time: however many terms a point needs,
    its temporaries hold about BLOCK elements per pair.  Its value is its
    scalar value bit for bit.  FloatRangeError names lam, PoleError the side
    of a pole.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    x, shape = _pairs(num, den, lam)
    lq = np.log(q)
    with np.errstate(over="ignore"):
        phase = x * lq
    if not np.isfinite(phase).all():
        at = np.ravel(lam)[np.argwhere(~np.isfinite(phase))[0, -1]]
        raise ValueError(f"the phase of a q-Gamma ratio at lam = {at:.4g} is past the float "
                         "range")
    q_x = np.exp(phase)
    c = sum(sum(np.abs(q_x) + q)) / (1.0 - q)
    count = (np.maximum(np.ceil((np.log(TAIL_TOL) - np.log(c)) / lq), 6.0) + 2.0).astype(int)
    if count.max(initial=0) > MAX_TERMS:
        raise ConvergenceError(f"a q-Gamma ratio needs {_count(count.max())} terms, "
                               f"cap is {MAX_TERMS}")
    ln = sum(x[1] - x[0]) * np.log1p(-q)
    # a bound past the float range reads inf
    with np.errstate(over="ignore"):
        err = 2.0 * c * q ** count - _EPS * 2 * len(num) * sum(sum(np.abs(x))) * np.log1p(-q)
        size = sum(np.abs(q_x) * (np.abs(phase) + 7.0))    # |u_j| rel. rounding / q^j, in eps
    diff, terms = q_x[1] - q_x[0], BLOCK // 4
    step = max(1, BLOCK // (len(num) * min(count.max(initial=0), terms)))
    for start in range(0, ln.size, step):
        block = count[start:start + step]
        for n in set(block.tolist()):
            at = start + np.flatnonzero(block == n)
            for j in range(0, n, terms):
                q_j = q ** np.arange(j, min(j + terms, n))
                rest = 1.0 - q_x[:, :, at, None] * q_j      # 1 - u_j, above and below
                gap = np.abs(rest)
                if np.any(gap < 1e-13):
                    side, i, point, _ = np.argwhere(gap < 1e-13)[0]
                    pole = complex(x[side, i, at[point]])
                    raise PoleError(f"q_gamma_ratio: {('numerator', 'denominator')[side]} "
                                    f"pole at {pole}", location=pole)
                logs = np.log1p(diff[:, at, None] * q_j / rest[1])
                ln[at] -= sum(logs).sum(axis=-1)
                with np.errstate(over="ignore"):
                    err[at] += _EPS * sum((size[:, at, None] * q_j / gap[0] + (
                        len(num) + 2.0 + math.log2(n)) * np.abs(logs)).sum(axis=-1))
    value = _exp_in_range(ln, np.ravel(lam))
    return value.reshape(shape), (np.abs(value) * (err + _EPS * (np.abs(ln) + 2.0))).reshape(shape)


# --------------------------------------------------------------------------
# infinite products of Gamma ratios
# --------------------------------------------------------------------------


# below this real part the first terms of a Hurwitz tail are summed directly
_HURWITZ_DIRECT = 128


def _hurwitz_tail(s, k0):
    """zeta(s, k0) = sum_{k >= 0} (k0 + k)^-s for integer orders s >= 1 (a
    float or a 1-d array, the result's first axis) and each k0, an integer
    >= 1 or a complex with Re k0 > 0 (or an array, the other axes).  At s =
    1 it is the finite part -psi(k0), whose imaginary part is the sum's.

    The terms are summed directly, as running products of 1 / (k0 + k), a
    BLOCK at a time, until every y = k0 + m has Re y >= _HURWITZ_DIRECT;
    Euler-Maclaurin to the y^(-s-7) term takes the rest.  From k0 >= 2048
    the last two corrections fall below half an ulp for s <= 15, so there it
    equals the four-term formula bit for bit.
    """
    k0 = np.asarray(k0)
    s = np.asarray(s, dtype=float).reshape(np.shape(s) + (1,) * k0.ndim)
    m = max(0, math.ceil(_HURWITZ_DIRECT - np.real(k0).min(initial=_HURWITZ_DIRECT)))
    y = k0 + m
    lead = np.where(s > 1.0, y ** (1.0 - s) / np.where(s > 1.0, s - 1.0, 1.0), -np.log(y))
    rising = s * (s + 1.0) * (s + 2.0)
    tail = (lead + 0.5 * y ** -s + s / 12.0 * y ** (-s - 1.0)
            - rising / 720.0 * y ** (-s - 3.0)
            + rising * (s + 3.0) * (s + 4.0) * (y ** (-s - 5.0) / 30240.0
                                                 - (s + 5.0) * (s + 6.0) / 1209600.0
                                                 * y ** (-s - 7.0)))
    flat, top = k0.reshape(-1), int(s.max(initial=1.0))
    direct = np.zeros((top, flat.size), dtype=tail.dtype)
    step = max(1, BLOCK // max(m, 1))
    for i in range(0, flat.size, step):
        power = inverse = 1.0 / np.add.outer(flat[i:i + step], np.arange(m))
        for n in range(top):
            direct[n, i:i + step] = power.sum(axis=-1)
            power = power * inverse
    return tail + direct[s.astype(int).ravel() - 1].reshape(tail.shape)


def _exactly_no_d2(h, sign) -> bool:
    """Whether 2 D_2 = p_2 - p_1 = sum_i s_i (h_i^2 - h_i) is exactly 0: each
    h_i^2 is a sum of exact products of 26-bit halves (Dekker's split), and
    math.fsum sums them error-free."""
    def halves(x):      # x = hi + lo, each of at most 26 significant bits
        hi = x * 134217729.0 - (x * 134217729.0 - x)
        return hi, x - hi
    re, im = [], []
    for s, z in zip(sign.tolist(), h.tolist()):
        a, b = halves(z.real), halves(z.imag)
        re += ([s * x * y for x in a for y in a] + [-s * x * y for x in b for y in b]
               + [-s * z.real])
        im += [2 * s * x * y for x in a for y in b] + [-s * z.imag]
    return math.fsum(re) == 0.0 == math.fsum(im)


def infinite_gamma_product(scale: float, num, den):
    """sum_{k>=0} [sum_i log Gamma(x_k + num_i) - sum_j log Gamma(x_k + den_j)],
    x_k = scale k, the log (modulo 2 pi i) of a Gamma-ratio product with as
    many Gammas above as below, and a bound on its error, for offsets that
    are scalars or arrays of one shape (a grid of points; so are the results).

    With the offsets' mean m (Re m > 0), h_i = c_i - m, s_i = +1 above and -1
    below, factor k is W(Z_k) = sum_i s_i log Gamma(Z_k + h_i), Z_k = x_k + m.
    As sum_i s_i h_i = 0 (else ValueError), W(Z) ~ sum_{n>=2} D_n Z^(1-n),
    D_n = (-1)^n sum_i s_i B_n(h_i) / (n (n-1)) (DLMF 5.11.8), taken to
    _STIRLING_ORDER once |Z_k| >= R = _STIRLING_REACH max(max|h|, 1), or
    farther if the omitted terms would pass TAIL_TOL.  The factors from K on
    sum to Hurwitz zetas, sum_n D_n scale^(1-n) zeta(n-1, Z_K / scale), the
    n = 2 term taken as its finite part -psi where D_2 != 0 (its imaginary
    part is the sum's for a real D_2); the K before are moved out by M,
    W(Z) = W(Z + M) - sum_{j<M} sum_i s_i log1p(h_i / (Z + j)), so no Gamma
    is evaluated.  The estimate adds the omitted terms and the rounding of
    every term, the independent log1p terms, their arguments and their sum
    as root-sum-squares.  K M past MAX_TERMS raises ConvergenceError before
    any term is summed; a Gamma at a pole raises PoleError located at the
    grid index.
    """
    if len(num) != len(den):
        raise ValueError(f"a Gamma-ratio product needs as many Gammas above as below, "
                         f"got {len(num)} and {len(den)}")
    offsets = np.array(np.broadcast_arrays(*num, *den), dtype=np.complex128)
    shape, offsets = offsets.shape[1:], offsets.reshape(len(offsets), -1)
    sign = np.repeat([1.0, -1.0], len(num))[:, None]
    mean = offsets.mean(axis=0)
    h = offsets - mean
    # rounding leaves sum_i s_i c_i near eps sum_i |c_i|
    if np.any(np.abs((sign * offsets).sum(axis=0)) > 1e-12 * np.abs(offsets).sum(axis=0)):
        raise ValueError("a Gamma-ratio product diverges: its offsets above and below differ")
    if not np.all(mean.real > 0):
        raise ValueError("the offsets of a Gamma-ratio product need a mean with Re > 0")

    # D_n, n = 2 .. _STIRLING_ORDER + 2, from the power sums (_stirling_table),
    # and bounds on their rounding; elementwise, not `@` or einsum: they add
    # ~0.2 MB to a critical verify's peak RSS
    power, d = np.ones_like(h), np.zeros((len(_STIRLING_TABLE),) + mean.shape, dtype=complex)
    for i in range(_STIRLING_TABLE.shape[1]):
        power = power * h
        d += _STIRLING_TABLE[:, i, None] * (sign * power).sum(axis=0)
    # p_j is rounded by at most (2 j + 2 + len h) eps sum_i |h_i|^j
    j, hmax = np.arange(1, _STIRLING_TABLE.shape[1] + 1), np.abs(h).max(axis=0, initial=0.0)
    powers = np.cumprod(np.broadcast_to(np.abs(h), (j.size,) + h.shape), axis=0).sum(axis=1)
    size = ((np.abs(_STIRLING_TABLE) * (2 * j + 2 + len(h)))[:, :, None] * powers).sum(axis=1)
    zero = np.flatnonzero(np.abs(d[0]) <= 32.0 * _EPS * size[0])   # D_2 = 0 but for rounding
    d[0, zero] = 0.0
    size[0, [k for k in zero if _exactly_no_d2(h[:, k], sign[:, 0])]] = 0.0    # or exactly
    # an omitted D_n Z^(1-n), n = 21, 22, summed over all factors, is at
    # most 2 |D_n| R^(2-n) (1 + scale / R) / scale
    reach = _STIRLING_REACH * np.maximum(hmax, 1.0)
    omitted = 2.0 * np.abs(d[-2:]) * (1.0 + scale / reach) / scale
    decay = np.array([[_STIRLING_ORDER - 1.0], [_STIRLING_ORDER]])
    reach = np.maximum(reach, ((omitted / TAIL_TOL) ** (1.0 / decay)).max(axis=0))
    omitted = (omitted * reach ** -decay).sum(axis=0)
    d, size = d[:-2], size[:-2]
    level = (np.sqrt(reach * reach - np.minimum(np.abs(mean.imag), reach) ** 2)
             - mean.real).max(initial=0)
    count, moved = max(0, math.ceil(level / scale)), max(0, math.ceil(level))
    if count * moved > MAX_TERMS:
        raise ConvergenceError(f"a Gamma-ratio product needs {_count(count)} near factors "
                               f"moved out by {_count(moved)}, cap is {MAX_TERMS}")

    # the near factors' log1p terms and their rounding, and the series at Z_k
    # + M, by blocks of (k, j); a Gamma within 1e-13 |Z + j| of 0, -1, ... is a pole
    orders = np.arange(1.0, _STIRLING_ORDER)             # zeta orders n - 1
    summing = math.log2(count * moved * len(h) + 2) + 1.0
    partials = [np.zeros((4, mean.size), dtype=complex)]
    step = max(1, BLOCK // (max(len(h), orders.size) * max(mean.size, 1)))
    for start in range(0, count * moved, step):
        k, j = np.divmod(np.arange(start, min(start + step, count * moved)), moved)
        w = mean[:, None] + (scale * k + j)             # Z_k + j at every point
        arg = np.abs(w + h[:, :, None])
        if np.any(arg < 1e-13 * np.abs(w)):
            _, point, at = np.argwhere(arg < 1e-13 * np.abs(w))[0]
            raise PoleError(f"a Gamma of factor {k[at]} has a pole at {-j[at]}",
                            location=np.unravel_index(point, shape))
        logs = np.log1p(h[:, :, None] / w)
        inverse = np.power.outer(w[:, j == 0] + moved, -orders)
        # each (k, j) is summed over i first: the log1p terms cancel there
        partials.append(np.stack([
            -(sign[:, :, None] * logs).sum(axis=0).sum(axis=-1),
            ((4.0 * np.abs(h)[:, :, None] / arg) ** 2).sum(axis=0).sum(axis=-1),
            (np.abs(logs) ** 2).sum(axis=0).sum(axis=-1),
            (inverse * d.T[:, None]).sum(axis=(1, 2))]))
    near = np.sum(partials, axis=0)
    tail = scale ** -orders[:, None] * _hurwitz_tail(orders, count + mean / scale)
    # the series terms at the K points Z_k + M, |Z_k + M| >= R, and the tail
    rounding = (np.sqrt(near[1].real) + summing * np.sqrt(near[2].real)
                + 2.0 * (size * (count * reach ** -orders[:, None] + np.abs(tail))).sum(axis=0))
    ln = near[0] + near[3] + (d * tail).sum(axis=0)
    return ln.reshape(shape)[()], (_EPS * rounding + omitted).reshape(shape)[()]


# --------------------------------------------------------------------------
# half-line quadrature
# --------------------------------------------------------------------------

_FIRST_PANEL = 0.25    # panel at the origin; widths double from it
_MAX_WIDTH = 8.0       # widest panel
_PANEL_PHASE = 24.0    # largest phase max|lam| * width one panel carries
_TAIL = 1e-16          # the cutoff (or last mode) leaves at most this much of e^{-decay w}
_MAX_GROWTH = 700.0    # largest exponent |Im lam| w the phases may reach (exp overflows past 709)

# The 41-point Gauss-Kronrod rule on [-1, 1] and its embedded 20-point Gauss
# rule (QUADPACK's qk41; Piessens et al. 1983, Laurie 1997): the
# non-negative nodes, descending, each with its Kronrod weight and, at every
# second node, its Gauss weight, correctly rounded to double; the tests
# check them against mpmath.
_KRONROD_HALF = np.array([
    (0.9988590315882777, 0.0030735837185205317, 0.0),
    (0.9931285991850949, 0.008600269855642943, 0.017614007139152118),
    (0.9815078774502503, 0.014626169256971253, 0.0),
    (0.9639719272779138, 0.020388373461266523, 0.04060142980038694),
    (0.9408226338317548, 0.02588213360495116, 0.0),
    (0.912234428251326, 0.0312873067770328, 0.06267204833410907),
    (0.878276811252282, 0.036600169758200796, 0.0),
    (0.8391169718222188, 0.041668873327973685, 0.08327674157670475),
    (0.7950414288375512, 0.04643482186749767, 0.0),
    (0.7463319064601508, 0.05094457392372869, 0.10193011981724044),
    (0.6932376563347514, 0.05519510534828599, 0.0),
    (0.636053680726515, 0.05911140088063957, 0.11819453196151841),
    (0.5751404468197103, 0.06265323755478117, 0.0),
    (0.5108670019508271, 0.06583459713361842, 0.13168863844917664),
    (0.4435931752387251, 0.06864867292852161, 0.0),
    (0.37370608871541955, 0.07105442355344407, 0.14209610931838204),
    (0.301627868114913, 0.07303069033278667, 0.0),
    (0.22778585114164507, 0.07458287540049918, 0.14917298647260374),
    (0.15260546524092267, 0.07570449768455667, 0.0),
    (0.07652652113349734, 0.07637786767208074, 0.15275338713072584),
    (0.0, 0.07660071191799965, 0.0),
])
# ascending nodes and their (41, 2) weights: the Kronrod rule, then Gauss
_KRONROD = np.concatenate([_KRONROD_HALF[:-1] * (-1.0, 1.0, 1.0), _KRONROD_HALF[::-1]])
_KRONROD.flags.writeable = False


@lru_cache(maxsize=64)
def _panel_rule(cutoff: float, width: float):
    """Composite Gauss-Kronrod rule on (0, cutoff].

    Panels start at (0, _FIRST_PANEL] and double in width up to ``width``,
    then stay that wide: the kernels' singularities lie on the imaginary
    axis, so a panel as wide as its distance from the origin resolves them,
    and past that the oscillation e^{i lam w} sets the width.

    Each panel carries the 41-point Kronrod rule, whose value is the fine
    one, and the 20-point Gauss rule on 20 of the same nodes, the
    comparison: node j of a panel is left + half (x_j + 1).  All but the
    last node come in (bases, offsets, scales) groups (see _half_sin_cos),
    so that _rule_sums takes sin/cos once per base and once per offset:
      * the equal-width panels: their left edges and the offsets within one
        panel, which they share; no scales;
      * last, the narrower panels near the origin: their left edges, one
        row of offsets each, and the scales 2^k: panel k is 2^k times as
        wide as panel 0, so its row is exactly 2^k times panel 0's.
    The last node, the cutoff itself with zero weight, is where callers read
    the tail.

    Returns the nodes group by group, then the cutoff, a (nodes, 2) weight
    matrix (column 0 the Kronrod rule, column 1 the Gauss rule) and the
    groups.
    """
    edges = [0.0]
    h = min(_FIRST_PANEL, width)
    while edges[-1] < cutoff:
        edges.append(edges[-1] + h)
        h = min(2.0 * h, width)
    edges = np.array(edges)
    left, half = edges[:-1], 0.5 * np.diff(edges)[:, None]
    offsets = half * (_KRONROD[:, 0] + 1.0)
    panel_weights = half[:, :, None] * _KRONROD[:, 1:]
    wide = half[:, 0] == 0.5 * width
    groups = [(left[wide], offsets[wide][0], None)] if wide.any() else []
    if not wide.all():
        groups.append((left[~wide], offsets[~wide], half[~wide, 0] / half[0, 0]))
    nodes = np.concatenate([(b[:, None] + u).ravel() for b, u, _ in groups] + [edges[-1:]])
    weights = np.concatenate([panel_weights[wide].reshape(-1, 2),
                              panel_weights[~wide].reshape(-1, 2), np.zeros((1, 2))])
    for arr in (nodes, weights, *(a for g in groups for a in g if a is not None)):
        arr.flags.writeable = False
    return nodes, weights, tuple(groups)


def _half_line_rule(decay: float, lam_max: float = 0.0):
    """(nodes, weights, groups) of the rule for integrands that decay like
    e^{-decay w} and oscillate like e^{i lam w} with |lam| <= lam_max.

    The cutoff leaves a tail below _TAIL; the panel width is the largest
    power of two that keeps lam_max * width <= _PANEL_PHASE, at most
    _MAX_WIDTH.  See _panel_rule for the layout.  A rule of more than
    MAX_TERMS nodes (counting 41 nodes on each of cutoff / width panels,
    a few panels short of the doubling ones near the origin) raises
    ConvergenceError before anything is allocated, as _mode_rule does.
    """
    if not decay > 0:
        raise ValueError(f"decay rate must be positive, got {decay}")
    cutoff = float(-np.log(_TAIL) / decay)
    width = _MAX_WIDTH
    if lam_max * width > _PANEL_PHASE:
        width = float(2.0 ** np.floor(np.log2(_PANEL_PHASE / lam_max)))
    size = len(_KRONROD) * np.ceil(cutoff / width) + 1.0     # inf past the float range
    if size > MAX_TERMS:
        raise ConvergenceError(f"the half-line rule needs {_count(size)} nodes at max|lam_hat| = "
                               f"{lam_max:.6g} and decay rate {decay:.6g}, cap is {MAX_TERMS}")
    return _panel_rule(cutoff, width)


def _half_sin_cos(x, groups):
    """sin and cos of x * node for every point of x (a 1-d array) and every
    node of the (bases, offsets, scales) groups, a node being base +
    offset.

    sin/cos are taken at x * base, x * -base and x * offset only and
    combined by angle addition (DLMF 4.21.2) as two stacked products per
    group, sin = (sb, cb).(cu, su) and cos = (cb, -sb).(cu, su), so a group
    costs 2 bases + offsets evaluations per point instead of bases * offsets.
    A base of 0 gives the offsets' own sin/cos exactly.  Scales, if a group
    has them (only the last group may), are 1, 2, 4, ...: the offsets are
    then one row per base, row k exactly scales[k] times row 0, so that
    x * row k is 2 (x * row k-1) in floating point, and at real x only the
    first row is evaluated: each further row is the square of the one
    before as cos + i sin.
    """
    if any(scales is not None for _, _, scales in groups[:-1]):
        raise ValueError("only the last group of a rule may have scales")
    angles = np.concatenate([a for b, u, _ in groups for a in (b, -b, u.ravel())])
    _, last, scales = groups[-1]
    step = last.shape[-1]
    direct = angles.size
    if scales is not None and not np.iscomplexobj(x):
        direct -= last.size - step
    # (cos, sin) per angle and point: angle-major, so that each row of
    # offsets is one contiguous block of complex numbers cos + i sin
    pairs = np.empty((angles.size, x.size, 2), dtype=x.dtype)
    h = np.multiply.outer(angles[:direct], x)
    np.cos(h, out=pairs[:direct, :, 0])
    np.sin(h, out=pairs[:direct, :, 1])
    if direct < angles.size:
        z = pairs.view(np.complex128)[..., 0]
        for k in range(direct, angles.size, step):
            np.square(z[k - step:k], out=z[k:k + step])
    sin = np.empty((x.size, sum(b.size * u.shape[-1] for b, u, _ in groups)), dtype=x.dtype)
    cos = np.empty_like(sin)
    at = start = 0
    for bases, offsets, _ in groups:
        nb, nu = bases.size, offsets.shape[-1]
        rows = offsets.size // nu
        shape = (x.size, rows, nb // rows)
        plus = pairs[at:at + nb, :, ::-1].transpose(1, 0, 2).reshape(shape + (2,))
        minus = pairs[at + nb:at + 2 * nb].transpose(1, 0, 2).reshape(shape + (2,))
        off = pairs[at + 2 * nb:at + 2 * nb + offsets.size].reshape(
            rows, nu, x.size, 2).transpose(2, 0, 3, 1)
        at += 2 * nb + offsets.size
        stop = start + nb * nu
        np.matmul(plus, off, out=sin[:, start:stop].reshape(shape + (nu,)))
        np.matmul(minus, off, out=cos[:, start:stop].reshape(shape + (nu,)))
        start = stop
    return sin, cos


def _rule_sums(lam, freq, groups, weights, tail_length, a, b, c, c_size=None):
    """sum_j weights_j [4 sin^2(freq_j lam / 2) a_j + 2i sin(freq_j lam) b_j + c_j]
    at every lam (a 1-d array) for the first rule and every column of the
    terms, with a bound on the error of each value.

    a, b, c (and c_size) are (nodes, k): k integrands on the same nodes.
    weights is (nodes, m), m >= 2, one column per rule, the fine rule
    first; every rule gives the last node zero weight, and only its terms
    are read there.  Every block of points takes its sin/cos table once
    (_half_sin_cos, with freq, but for its last node, the nodes, group by
    group, of the groups) and folds all k integrands of all rules into the
    same two stacked products, one (nodes, m) weight matrix per integrand,
    so that a column's value is the one it gets alone, bit for bit; the
    values and bounds are (points, k).  4 sin^2(phi/2) = 2 (1 - cos phi)
    keeps small phases exact.  The points are walked in blocks so no
    temporary exceeds BLOCK elements.  A block of one point is summed as
    two equal rows, since numpy takes a one-row product through its
    matrix-vector path; so, with m >= 2 (at real lam four real columns or
    more, whose products OpenBLAS rounds alike in blocks of any size), a
    point's value is the same in any grid on the same rule, bit for bit.
    The bound of a column adds
      * the largest spread between the rules,
      * the tail past the last node: the largest term there, grown by
        e^{|Im lam| freq}, times tail_length,
      * rounding: eps times the summed term sizes, where c_size (default
        |c|) is the size of the operands c was formed from, so a c that
        cancels near the origin is charged for it, and where a phase phi
        = freq lam, whose half is off by eps slip, with slip about |phi| / 2
        and, on a node of a group with scales (see _half_sin_cos), its
        scale times min(1, |phi|) more, moves the terms by
        4 eps slip (|a| min(1, |phi|) + |b|) at most; and the sum itself:
        eps sqrt(nodes) times the summed magnitudes of the terms, as the
        rounding of a sum of n terms grows like sqrt(n) eps times their
        sizes (the tests compare with long-double sums).
    """
    real = not np.iscomplexobj(lam)
    growth = 0.0 if real else float(np.abs(lam.imag).max(initial=0.0)) * freq[-1]
    if growth > _MAX_GROWTH:
        raise ValueError(f"|Im lam| = {np.abs(lam.imag).max():.4g} lets the phases overflow "
                         f"before the last node {freq[-1]:.4g}; keep it below "
                         f"{_MAX_GROWTH / freq[-1]:.4g}")
    reach = float(np.abs(lam).max(initial=0.0))
    with np.errstate(over="ignore"):
        top = reach * freq[-1]
    if not math.isfinite(top):
        raise ValueError(f"|lam| = {reach:.4g} puts the phase past the float range at the "
                         f"last node (frequency {freq[-1]:.4g})")
    rules, cols = weights.shape[1], a.shape[1]
    # (k, nodes, rules), C-ordered so that every column's matrix is the
    # contiguous one a single column would have
    wa = np.multiply(weights[:-1], 4.0 * a[:-1].T[:, :, None], dtype=np.complex128, order="C")
    wb = np.multiply(weights[:-1], 2.0 * b[:-1].T[:, :, None], dtype=np.complex128, order="C")
    if real:
        # complex columns as pairs of real columns: one real product each
        wa, wb = wa.view(float), wb.view(float)
    ln = np.empty((cols, lam.size, rules), dtype=np.complex128)
    step = max(1, BLOCK // freq.size)
    for i in range(0, lam.size, step):
        s, sin_phi = _half_sin_cos(0.5 * lam[i:i + step], groups)
        if len(s) == 1:     # two equal rows: one would take the matrix-vector path
            s, sin_phi = s.repeat(2, axis=0), sin_phi.repeat(2, axis=0)
        sin_phi *= 2.0 * s
        s *= s
        sa, sb = s @ wa, sin_phi @ wb
        if real:
            sa, sb = sa.view(np.complex128), sb.view(np.complex128)
        block = ln[:, i:i + step]
        block[...] = (sa + 1j * sb)[:, :block.shape[1]]
    ln += (weights.T @ np.ascontiguousarray(c.T)[..., None]).transpose(0, 2, 1)
    ln = ln.transpose(1, 2, 0)      # (points, rules, k)

    phase = freq[:, None] * reach
    turn = np.minimum(1.0, phase)
    slip = 0.5 * phase
    _, rows, scales = groups[-1]
    if scales is not None:
        doubled = slice(-1 - rows.size, -1)
        slip[doubled] += scales.repeat(rows.shape[1])[:, None] * turn[doubled]
    last = 4.0 * np.abs(a[-1]) + 2.0 * np.abs(b[-1]) + np.abs(c[-1])
    terms = 4.0 * np.abs(a) * np.minimum(1.0, 0.5 * phase) ** 2 + 2.0 * np.abs(b) * turn
    with np.errstate(over="ignore"):    # a bound past the float range reads inf
        sizes = (terms + (np.abs(c) if c_size is None else c_size)
                 + 4.0 * slip * (np.abs(a) * turn + np.abs(b))
                 + math.sqrt(freq.size) * (terms + np.abs(c)))
        err = last * math.exp(growth) * tail_length + _EPS * (weights[:, 0] @ sizes)
    return ln[:, 0], err + np.abs(ln[:, 1:] - ln[:, :1]).max(axis=1)


def half_line_sums(lam, decay: float, terms):
    """The half-line rule applied at every lam (an array):

        int_0^inf dw [4 sin^2(w lam / 2) a(w) + 2i sin(w lam) b(w) + c(w)]

    for k integrands that decay like e^{-decay w}; terms(w) returns a, b
    and c at the rule's nodes, each (nodes, k), and optionally the size of
    the operands c was formed from (see _rule_sums).  Returns the (points,
    k) values and a bound on each one's error: the gap to the comparison
    rule, the tail past the cutoff and rounding.
    """
    w, weights, groups = _half_line_rule(decay, float(np.abs(lam).max(initial=0.0)))
    return _rule_sums(lam, w, groups, weights, 1.0 / decay, *terms(w))


def _mode_rule(eta: float, rate: float):
    """(modes, frequencies, weights, groups) of the sum over the modes k =
    1, 2, ... at the frequencies 2 eta k, for terms that decay like
    e^{-rate k}, the mode past the last one included to read the tail.
    The modes are one group with the base 0: _half_sin_cos takes sin/cos at
    every mode.

    The mode count leaves a tail below _TAIL; more modes than MAX_TERMS
    raise ConvergenceError before anything is allocated.
    """
    k_max = math.ceil(-math.log(_TAIL) / rate) + 8
    if k_max > MAX_TERMS:
        raise ConvergenceError(f"a mode sum needs {_count(k_max)} modes at eta = {eta}, "
                               f"cap is {MAX_TERMS}")
    modes = np.arange(1, k_max + 2, dtype=np.float64)
    freq = 2.0 * eta * modes
    # the sum is its own comparison rule: two columns, so that a point
    # rounds the same in any block of points (see _rule_sums)
    weights = np.ones((k_max + 1, 2))
    weights[-1] = 0.0
    return modes, freq, weights, ((np.zeros(1), freq[:-1], None),)


# --------------------------------------------------------------------------
# amplitude integrals and sums
# --------------------------------------------------------------------------


class AmplitudeResult:
    """An amplitude (scalar or per grid point) and a measured bound on its
    absolute error."""

    __slots__ = ("value", "error_estimate")

    def __init__(self, value: complex, error_estimate: float = 0.0):
        if (np.min(error_estimate) if np.ndim(error_estimate) else error_estimate) < 0:
            raise ValueError("error_estimate must be >= 0")
        self.value, self.error_estimate = value, error_estimate

    @classmethod
    def on_grid(cls, value, error, scalar: bool) -> AmplitudeResult:
        """Per-point values and errors; for a scalar input (a grid of one)
        Python scalars."""
        if scalar:
            return cls(complex(value[0]), float(error[0]))
        return cls(value, error)


def as_grid(lam, real: bool = False):
    """(1-d array of points, whether lam was a scalar)."""
    arr = np.asarray(lam)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).ravel()
    if real:
        if np.iscomplexobj(arr):
            if np.any(arr.imag != 0):
                raise ValueError("the quadrature and sum routes require real lam_hat")
            arr = arr.real
        arr = arr.astype(float)
    elif not np.iscomplexobj(arr):
        arr = arr.astype(float)
    return arr, scalar


class FourierKernel:
    """A scattering kernel in frequency space.

    hat        -- vectorised kernel of its own argument x, defined away from
                  the origin
    odd_kind   -- behaviour of the odd part at the origin:
                  "none" (vanishes / integrable), "jump" (finite one-sided
                  limit), "pole" (simple pole)
    odd_origin -- the jump value K_o(0+) or the pole coefficient p
    decay      -- asymptotic decay rate r in x: |hat(x)| <~ e^{-r |x|}
    eta        -- None for a kernel of the real frequency x = w (integrated);
                  else the lattice of an integer-mode kernel, whose mode
                  x = k sits at the frequency w = 2 eta k (summed)
    """

    __slots__ = ("name", "hat", "odd_kind", "odd_origin", "decay", "eta")

    def __init__(self, name: str, hat: Callable, odd_kind: str = "none",
                 odd_origin: complex = 0.0, decay: float = 0.5, eta: float | None = None):
        if eta is not None and not eta > 0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.name, self.hat, self.odd_kind, self.odd_origin = name, hat, odd_kind, odd_origin
        self.decay, self.eta = decay, eta

    def even_odd(self, w):
        plus = np.asarray(self.hat(w), dtype=np.complex128)
        minus = np.asarray(self.hat(-w), dtype=np.complex128)
        return 0.5 * (plus + minus), 0.5 * (plus - minus)


# the exponents whose exp is a normal float
_LN_RANGE = (math.log(np.finfo(float).tiny), math.log(np.finfo(float).max))


def _exp_in_range(ln, lam):
    """exp(ln) for the exponents ln at the points lam; FloatRangeError names
    the first point whose exp would leave the normal float range (or whose
    exponent is NaN)."""
    outside = ~((ln.real >= _LN_RANGE[0]) & (ln.real <= _LN_RANGE[1]))
    if outside.any():
        i = np.argmax(outside)
        raise FloatRangeError(f"an amplitude at lam_hat = {lam[i]:.10g} is outside the "
                              f"float range: ln|T| = {ln[i].real:.6g}", location=lam[i].item())
    return np.exp(ln)


def _origin_prescription(kernel: FourierKernel):
    """(decay rate the rule needs, constant shift, counterterm(x)) of a
    kernel's odd part at the origin, in its own argument x = w / s, s = 1
    or 2 eta: the jump counterterm is p e^{-2w} = p e^{-2 s x}."""
    p, s = kernel.odd_origin, 1.0 if kernel.eta is None else 2.0 * kernel.eta
    if kernel.odd_kind == "none":
        return kernel.decay, 0.0, np.zeros_like
    if kernel.odd_kind == "jump":
        return min(kernel.decay, 2.0 * s), 0.0, lambda x: p * np.exp(-2.0 * s * x)
    if kernel.odd_kind == "pole" and kernel.eta is None:
        # p / (2 sinh(w/2))
        return (min(kernel.decay, 0.5), p * np.log(2.0),
                lambda w: -p * np.exp(-w / 2.0) / np.expm1(-w))
    raise ValueError(f"kernel {kernel.name!r}: no finite origin prescription "
                     f"({kernel.odd_kind!r}, eta = {kernel.eta})")


def amplitude_integral(kernel: FourierKernel, lam_hat) -> AmplitudeResult:
    """exp of the regularised 1/x-weighted Fourier transform of a kernel,
    at a real lam_hat or a real grid of them.

    A kernel of the frequency (eta None) takes the half-line rule, route
    "integral", whose panels are sized from max|lam_hat|; the error
    estimate is the gap to the comparison rule on the same panels plus the
    measured tail and rounding.  An integer-mode kernel takes the modes of
    its eta, route "sum": sum_{k != 0} (1/k) e^{-2i eta k lam} K(k); the
    error estimate is the tail past the last mode, summed geometrically,
    plus rounding.  An amplitude outside the normal float range raises
    FloatRangeError.  Analytic continuation is handled in closed form by
    the callers that need it.
    """
    rate, shift, counter = _origin_prescription(kernel)
    lam, scalar = as_grid(lam_hat, real=True)

    def terms(x):
        # (nodes, 1) each
        ke, ko = (part[:, None] for part in kernel.even_odd(x))
        cx, x = counter(x)[:, None], x[:, None]
        return ko / x, ke / x, -2.0 * (ko - cx) / x, 2.0 * (np.abs(ko) + np.abs(cx)) / x

    if kernel.eta is None:
        ln, err = half_line_sums(lam, rate, terms)
    else:
        modes, freq, weights, groups = _mode_rule(kernel.eta, rate)
        ln, err = _rule_sums(lam, freq, groups, weights, 1.0 / -np.expm1(-rate), *terms(modes))
    value = _exp_in_range(ln[:, 0] + shift, lam)
    return AmplitudeResult.on_grid(value, np.abs(value) * err[:, 0], scalar)
