"""Complex Gamma machinery and the quadrature/summation engine for amplitudes.

The transmission amplitudes in this package are exponentials of integrals

    T(x) = exp[ -(PV) int dw/w  e^{-i w x}  K(w) ]            (continuous)
    T(x) = exp[ -sum_{k != 0} (1/k) e^{-2i eta k x} K(k) ]    (discrete)

over scattering kernels K.  Splitting K into even and odd parts and folding
the integral onto w > 0 gives

    ln T(x) = -int_0^inf dw/w [ 2(cos(wx) - 1) K_o(w) - 2i sin(wx) K_e(w) ]
              - 2 int_0^inf dw/w K_o(w)

where the first integrand is regular at the origin.  The second ("anchor")
integral is finite only when the odd part vanishes at w = 0.  Kernels whose
odd part has a jump or a simple pole at the origin get a canonical
counterterm which is exactly the one that turns the regularised exponent
into the classical Gamma-function integral identities:

    jump s at 0+ :  anchor = -2 int [K_o(w) - s e^{-2w}] dw/w
    pole  p/w    :  anchor = -2 int [K_o(w) - p/(2 sinh(w/2))] dw/w + p ln 2

(in the discrete case the jump counterterm is s e^{-4 eta k}).  With these
subtractions the engine reproduces the closed Gamma / q-Gamma forms of every
amplitude in the package to quadrature accuracy; the choices are exercised
against independent high-precision oracles in the test suite.
"""
from __future__ import annotations

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
    "log_gamma",
    "gamma_ratio",
    "gamma_ratio_bound",
    "q_gamma",
    "infinite_gamma_product",
    "FourierKernel",
    "amplitude_integral",
    "amplitude_sum",
    "half_line_sums",
    "mode_sums",
]


class PoleError(ValueError):
    """An argument landed on (or numerically at) a pole."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class FloatRangeError(ValueError):
    """An amplitude lies outside the normal float range: location is the
    first lam_hat where it does, column the amplitude's column there."""

    def __init__(self, message, location=None, column=0):
        super().__init__(message)
        self.location = location
        self.column = column


# --------------------------------------------------------------------------
# complex log-Gamma, Lanczos g=7 with reflection for Re z < 1/2
# --------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_LOG_2 = math.log(2.0)
# the reflection formula takes log(sin(pi z)) as it is up to this |Im z|
_SIN_DIRECT = 100.0


def _lanczos_series(zm1):
    """The Lanczos series c_0 + sum_i c_i / (z - 1 + i), from zm1 = z - 1."""
    series = np.full_like(zm1, _LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        series = series + _LANCZOS_C[i] / (zm1 + i)
    return series


def _log_gamma_right(z):
    """Lanczos sum, valid for Re z >= 0.5."""
    zm1 = z - 1.0
    t = zm1 + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (zm1 + 0.5) * np.log(t) - t + np.log(_lanczos_series(zm1))


def log_gamma(z):
    """Principal branch of log Gamma(z) for complex z (scalar or array).

    Uses a Lanczos approximation on Re z >= 1/2 and the reflection formula
    elsewhere.  There log sin(pi z) is log(sin(pi z)) up to |Im z| =
    _SIN_DIRECT.  Past it, where sin(pi z) would overflow from |Im z| ~ 226
    on, it is i pi s (1/2 - z) - log 2 with s the sign of Im z: sin(pi z) =
    e^{i pi s (1/2 - z)} (1 - e^{2 i pi s z}) / 2 (DLMF 4.14.1), and
    |e^{2 i pi s z}| < 1e-272 there; it equals log(sin(pi z)) modulo
    2 pi i.  Raises PoleError if any argument sits
    at a non-positive integer.  exp(log_gamma(x)) matches Gamma(x) on the
    real axis.
    """
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)

    near_int = np.abs(z - np.round(z.real)) < 1e-13
    at_pole = near_int & (np.round(z.real) <= 0)
    if np.any(at_pole):
        loc = z[at_pole][0]
        raise PoleError(f"log_gamma pole at z = {loc}", location=complex(loc))

    out = np.empty_like(z)
    right = z.real >= 0.5
    if np.any(right):
        out[right] = _log_gamma_right(z[right])
    if np.any(~right):
        zl = z[~right]
        log_sin = np.empty_like(zl)
        far = np.abs(zl.imag) > _SIN_DIRECT
        log_sin[~far] = np.log(np.sin(np.pi * zl[~far]))
        log_sin[far] = 1j * np.pi * np.sign(zl.imag[far]) * (0.5 - zl[far]) - _LOG_2
        # log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z)
        out[~right] = np.log(np.pi) - log_sin - _log_gamma_right(1.0 - zl)
    return out[0] if scalar else out


# the absolute error of one log_gamma value (Lanczos g = 7, nine terms) is
# below _LOG_GAMMA_REL * (1 + |log Gamma|) on the arguments the amplitudes
# use; the tests measure it against mpmath (about 4.6e-15 at worst)
_LOG_GAMMA_REL = 1e-14
_EPS = float(np.finfo(float).eps)


def gamma_ratio_bound(num, den):
    """prod_i Gamma(num_i) / prod_j Gamma(den_j) and a bound on its absolute
    error, with every num_i and den_j a scalar or an array of one shape (a
    grid of points); the result has that shape.

    Overflow-safe: the log-gammas are summed before exponentiating.  Poles
    in numerator and denominator are reported separately.
    """
    args = np.array([*num, *den], dtype=np.complex128)
    try:
        lg = log_gamma(args)
    except PoleError as exc:
        side = "numerator" if np.any(args[:len(num)] == exc.location) else "denominator"
        raise PoleError(f"gamma_ratio: {side} pole at {exc.location}",
                        location=exc.location) from None
    value = np.exp(lg[:len(num)].sum(axis=0) - lg[len(num):].sum(axis=0))
    return value, np.abs(value) * _LOG_GAMMA_REL * (1.0 + np.abs(lg)).sum(axis=0)


def gamma_ratio(num, den):
    """The value of gamma_ratio_bound: a complex for scalar arguments."""
    value = gamma_ratio_bound(num, den)[0]
    return complex(value) if np.ndim(value) == 0 else value


# --------------------------------------------------------------------------
# truncation
# --------------------------------------------------------------------------


# hard cap on the terms of a product or sum, and on the nodes of a rule
MAX_TERMS = 400_000
# a product stops once a factor's |log| (or its tail bound) drops below this
TAIL_TOL = 1e-12

# elements per (points x nodes) temporary: grids are walked in blocks of
# max(1, BLOCK // nodes) points so no temporary outgrows this
BLOCK = 16384


# --------------------------------------------------------------------------
# q-Gamma
# --------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _q_powers(q: float, n: int):
    """q^j and log(1 - q^(1+j)) for j < n, the x-independent parts of the
    q-Gamma product."""
    q_j = np.power(q, np.arange(n, dtype=float))
    head = np.log1p(-q * q_j)
    q_j.flags.writeable = head.flags.writeable = False
    return q_j, head


def q_gamma(x, q: float):
    """Gamma_q(x) = (1-q)^(1-x) prod_{j>=0} (1-q^(1+j))/(1-q^(x+j)),  0 < q < 1.

    x may be a scalar or an array.  The tail of each log-product is bounded
    geometrically; a point's truncation stops once its bound drops below
    TAIL_TOL, so every point sums the terms it would sum on its own.
    """
    x = np.asarray(x, dtype=np.complex128)
    out = np.exp(_log_q_gamma(x, q))
    return complex(out) if x.ndim == 0 else out


def _log_q_gamma(x, q: float) -> np.ndarray:
    """log Gamma_q(x) as an array of x's shape: the exponent q_gamma takes
    exp of, finite where Gamma_q(x) itself is past the float range."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    x = np.asarray(x, dtype=np.complex128)
    flat = x.reshape(-1)
    lq = np.log(q)

    # |log term_j| <= C q^j with C ~ |q^x - q| / (1 - q); solve for j
    q_x = np.exp(flat * lq)
    c = np.maximum(np.abs(q_x - q), 1e-30) / (1.0 - q)
    j_needed = np.maximum(np.ceil((np.log(TAIL_TOL) - np.log(c)) / lq), 6.0) + 2.0
    n_max = int(j_needed.max(initial=0.0))
    if n_max > MAX_TERMS:
        raise ConvergenceError(
            f"q_gamma needs ~{n_max} terms for tail {TAIL_TOL}, cap is {MAX_TERMS}")

    q_j, head = _q_powers(q, n_max)
    ragged = flat.size > 1 and j_needed.min() < n_max
    out = np.empty_like(flat)
    step = max(1, BLOCK // max(n_max, 1))
    for i in range(0, flat.size, step):
        qx = np.multiply.outer(q_x[i:i + step], q_j)      # q^(x+j)
        bad = np.abs(1.0 - qx) < 1e-13
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise PoleError(f"q_gamma pole: 1 - q^(x+j) = 0 at j = {int(col)}",
                            location=complex(flat[i + row]))
        terms = head - np.log1p(-qx)
        if ragged:
            terms[np.arange(n_max) >= j_needed[i:i + step, None]] = 0.0   # each point's own terms
        out[i:i + step] = (1.0 - flat[i:i + step]) * np.log1p(-q) + terms.sum(axis=-1)
    return out.reshape(x.shape)


# --------------------------------------------------------------------------
# infinite products of Gamma ratios
# --------------------------------------------------------------------------


# below this real part the first terms of a Hurwitz tail are summed directly
_HURWITZ_DIRECT = 128


def _hurwitz_tail(s, k0):
    """zeta(s, k0) = sum_{k >= 0} (k0 + k)^-s for s >= 1, a float or an
    array of them, and k0 an integer >= 1 or a complex with Re k0 > 0.  At
    s = 1 it is the finite part -psi(k0), whose imaginary part is that of
    the sum.

    The first terms are summed directly until y = k0 + m has Re y >=
    _HURWITZ_DIRECT, and Euler-Maclaurin to the y^(-s-7) term takes the
    rest from y.  From k0 >= 2048 the last two corrections fall below half
    an ulp for s <= 15, so there it equals the four-term formula bit for bit.
    """
    s = np.asarray(s, dtype=float)
    m = max(0, math.ceil(_HURWITZ_DIRECT - np.real(k0)))
    y = k0 + m
    lead = np.where(s > 1.0, y ** (1.0 - s) / np.where(s > 1.0, s - 1.0, 1.0), -np.log(y))
    rising = s * (s + 1.0) * (s + 2.0)
    tail = (lead + 0.5 * y ** -s + s / 12.0 * y ** (-s - 1.0)
            - rising / 720.0 * y ** (-s - 3.0)
            + rising * (s + 3.0) * (s + 4.0) * (y ** (-s - 5.0) / 30240.0
                                                 - (s + 5.0) * (s + 6.0) / 1209600.0
                                                 * y ** (-s - 7.0)))
    return tail + np.power.outer(k0 + np.arange(m), -s).sum(axis=0)


# factors evaluated in the first step of infinite_gamma_product; each
# further step doubles that, up to PRODUCT_BLOCK
_PRODUCT_FIRST = 512
PRODUCT_BLOCK = 4096
# factors over which infinite_gamma_product averages the residuals of its
# factors
_PRODUCT_RUN = 256
# from this shift x on, a factor's log-Gammas are summed in balanced form
_PRODUCT_BALANCED = 1.0


def _log_gamma_balanced(x, a):
    """log Gamma(x + a) less 1/2 log 2 pi + (x - 1/2) log x - x + a (log x - 1),
    for real x >= 1 and Re(x + a) >= 1/2, and the size of its parts.

    It is log_gamma's Lanczos sum with log t = log x + log(1 + u), u = (a +
    g - 1/2) / x, and log(1 + u) taken to relative precision: what is left
    is of the size of a, not of x log x, so the parts that grow with x
    cancel exactly between factors with as many Gammas above as below.
    """
    z = x + a
    u = (a + (_LANCZOS_G - 0.5)) / x
    log1p_u = (0.5 * np.log1p(u.real * (2.0 + u.real) + u.imag * u.imag)
               + 1j * np.arctan2(u.imag, 1.0 + u.real))
    head, log_s = (z - 0.5) * log1p_u, np.log(_lanczos_series(z - 1.0))
    return head + log_s - (_LANCZOS_G - 0.5), np.abs(head) + np.abs(log_s) + _LANCZOS_G


def _factor_logs(x, num, den):
    """log of prod Gamma(x + num_i) / prod Gamma(x + den_j) at every x, for
    complex offsets num and den, as many of each, and a bound on each
    value's rounding; the mask of the values summed in balanced form (see
    _log_gamma_balanced), where x >= _PRODUCT_BALANCED and every argument
    has Re >= 1/2, the rest by log_gamma.  The offsets' shift sum(num) -
    sum(den) is summed exactly.  The balanced form errs by at most 0.31 eps
    times the size of its parts on the test and amplitude products (against
    40-digit mpmath); it is charged 2 eps.
    """
    shift = complex(math.fsum(np.concatenate([num.real, -den.real])),
                    math.fsum(np.concatenate([num.imag, -den.imag])))
    far = x >= _PRODUCT_BALANCED
    for a in (*num, *den):
        far &= x + a.real >= 0.5
    logf = np.empty(x.shape, dtype=np.complex128)
    err = np.empty(x.shape)
    xf = x[far]
    logf[far] = shift * (np.log(xf) - 1.0)
    size = abs(shift) * (np.log(xf) + 1.0)
    for sign, offsets in ((1.0, num), (-1.0, den)):
        for a in offsets:
            rest, part = _log_gamma_balanced(xf, a)
            logf[far] += sign * rest
            size += part
    err[far] = 2.0 * _EPS * size
    xn = x[~far]
    lg = [log_gamma(xn + a) for a in (*num, *den)]
    logf[~far] = sum(lg[:len(num)]) - sum(lg[len(num):])
    err[~far] = sum(_LOG_GAMMA_REL * (1.0 + np.abs(v)) for v in lg)
    return logf, err, far


def infinite_gamma_product(scale: float, num, den, tail_coefficient,
                           tail_tol: float = TAIL_TOL):
    """prod_{k>=0} prod_i Gamma(x_k + num_i) / prod_j Gamma(x_k + den_j),
    x_k = scale k, for complex offsets num and den, as many of each.

    Taking the offsets apart from x_k keeps each factor's log accurate to
    the size of the offsets, not of x_k log x_k (see _factor_logs).  Far
    out the factors' logs follow c2/k^2, c2 = ``tail_coefficient``, and the
    tail from the first factor not taken, K, is completed analytically as
    c2 zeta(2, K).  What the completion leaves is bounded from the
    residuals rho_k = (log factor_k - c2/k^2) k^2: as long as |rho_k|
    falls from K on, the tail is at most |rho_K| / (K - 1), and |rho_K|
    is taken as the modulus of their mean over the last _PRODUCT_RUN
    factors plus the rounding of that mean.  The product stops at the
    first K where that bound falls below tail_tol, or where the mean sinks
    below its own rounding (past it another factor only adds rounding), or
    at MAX_TERMS factors.  The rounding of the summed logs is charged
    linearly for the factors taken by log_gamma and as the root of the
    summed squares for the balanced ones, whose rounding errors are
    independent.

    Returns (value, error estimate): the estimate bounds the error of the
    value's log, the tail bound plus the rounding.
    """
    if len(num) != len(den):
        raise ValueError(f"a Gamma-ratio product needs as many Gammas above as below, "
                         f"got {len(num)} and {len(den)}")
    num, den = np.asarray(num, dtype=np.complex128), np.asarray(den, dtype=np.complex128)
    c2 = complex(tail_coefficient)
    total, linear, squares, k0 = 0.0 + 0.0j, 0.0, 0.0, 0
    # rho_k and the square of its rounding for the factors before the block
    rho_run = np.zeros(_PRODUCT_RUN - 1, dtype=np.complex128)
    noise_run = np.zeros(_PRODUCT_RUN - 1)
    size = _PRODUCT_FIRST
    while k0 < MAX_TERMS:
        k = np.arange(k0, min(k0 + size, MAX_TERMS), dtype=np.float64)
        logf, err, far = _factor_logs(scale * k, num, den)
        kk = np.maximum(k, 1.0) ** 2
        rho_run = np.concatenate([rho_run, (logf - c2 / kk) * kk])
        noise_run = np.concatenate([noise_run, (err * kk) ** 2])
        mean = np.abs(_run_sums(rho_run)) / _PRODUCT_RUN
        noise = np.sqrt(np.maximum(_run_sums(noise_run), 0.0)) / _PRODUCT_RUN
        rho_run, noise_run = rho_run[1 - _PRODUCT_RUN:], noise_run[1 - _PRODUCT_RUN:]
        tail = (mean + noise) / np.maximum(k, 1.0)
        done = np.flatnonzero((k >= _PRODUCT_RUN) & ((tail <= tail_tol) | (mean <= noise)))
        stop = int(done[0]) + 1 if done.size else k.size
        total += np.sum(logf[:stop])
        linear += float(err[:stop][~far[:stop]].sum())
        squares += float(np.square(err[:stop][far[:stop]]).sum())
        k0 += stop
        size = min(2 * size, PRODUCT_BLOCK)
        if done.size:
            break
    total += c2 * _hurwitz_tail(2.0, k0)
    return complex(np.exp(total)), float(tail[stop - 1]) + linear + math.sqrt(squares)


def _run_sums(values):
    """Sums of every _PRODUCT_RUN consecutive values, the window ending at
    each of the last values.size - _PRODUCT_RUN + 1."""
    csum = np.cumsum(values)
    return csum[_PRODUCT_RUN - 1:] - np.concatenate([[0.0], csum[:-_PRODUCT_RUN]])


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
    ConvergenceError before anything is allocated, as mode_sums does.
    """
    if not decay > 0:
        raise ValueError(f"decay rate must be positive, got {decay}")
    cutoff = float(-np.log(_TAIL) / decay)
    width = _MAX_WIDTH
    if lam_max * width > _PANEL_PHASE:
        width = float(2.0 ** np.floor(np.log2(_PANEL_PHASE / lam_max)))
    size = len(_KRONROD) * math.ceil(cutoff / width) + 1
    if size > MAX_TERMS:
        raise ConvergenceError(f"the half-line rule needs {size} nodes at max|lam_hat| = "
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
    weights is (nodes, m), one column per rule, the fine rule first; every
    rule gives the last node zero weight, and only its terms are read
    there.  Every block of points takes its sin/cos table once
    (_half_sin_cos, with freq, but for its last node, the nodes, group by
    group, of the groups) and folds all k integrands of all rules into the
    same two stacked products, one (nodes, m) weight matrix per integrand,
    so that a column's value is the one it gets alone, bit for bit; the
    values and bounds are (points, k).  4 sin^2(phi/2) = 2 (1 - cos phi)
    keeps small phases exact.  The points are walked in blocks so no
    temporary exceeds BLOCK elements.  The bound of a column adds
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
        sin_phi *= 2.0 * s
        s *= s
        sa, sb = s @ wa, sin_phi @ wb
        if real:
            sa, sb = sa.view(np.complex128), sb.view(np.complex128)
        ln[:, i:i + step] = sa + 1j * sb
    ln += (weights.T @ np.ascontiguousarray(c.T)[..., None]).transpose(0, 2, 1)
    ln = ln.transpose(1, 2, 0)      # (points, rules, k)

    phase = freq[:, None] * float(np.abs(lam).max(initial=0.0))
    turn = np.minimum(1.0, phase)
    slip = 0.5 * phase
    _, rows, scales = groups[-1]
    if scales is not None:
        doubled = slice(-1 - rows.size, -1)
        slip[doubled] += scales.repeat(rows.shape[1])[:, None] * turn[doubled]
    last = 4.0 * np.abs(a[-1]) + 2.0 * np.abs(b[-1]) + np.abs(c[-1])
    terms = 4.0 * np.abs(a) * np.minimum(1.0, phase * phase / 4.0) + 2.0 * np.abs(b) * turn
    sizes = (terms + (np.abs(c) if c_size is None else c_size)
             + 4.0 * slip * (np.abs(a) * turn + np.abs(b))
             + math.sqrt(freq.size) * (terms + np.abs(c)))
    err = last * math.exp(growth) * tail_length + _EPS * (weights[:, 0] @ sizes)
    if rules > 1:
        return ln[:, 0], err + np.abs(ln[:, 1:] - ln[:, :1]).max(axis=1)
    return ln[:, 0], np.full((lam.size, cols), err)


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


# a mode sum of fewer modes takes sin/cos at every mode: grouping them
# saves too few evaluations to pay for the products that add the angles
_GROUPED_MODES = 512


@lru_cache(maxsize=16)
def _mode_rule(eta: float, rate: float):
    """(modes, frequencies, weights, groups) of mode_sums at eta and decay
    rate per mode, the mode past the last one included to read the tail."""
    need = math.ceil(-math.log(_TAIL) / rate) + 8
    rows = 1 if need < _GROUPED_MODES else -(-need // math.ceil(math.sqrt(2.0 * need)))
    cols = -(-need // rows)
    k_max = rows * cols
    if k_max > MAX_TERMS:
        raise ConvergenceError(f"a mode sum needs {k_max} modes at eta = {eta}, "
                               f"cap is {MAX_TERMS}")
    bases = 2.0 * eta * cols * np.arange(rows)
    offsets = 2.0 * eta * np.arange(1, cols + 1)
    groups = ((bases, offsets, None),)
    freq = np.concatenate([(bases[:, None] + offsets).ravel(), [2.0 * eta * (k_max + 1)]])
    weights = np.ones((k_max + 1, 1))
    weights[-1] = 0.0
    modes = np.arange(1, k_max + 2, dtype=np.float64)
    for arr in (modes, freq, weights, bases, offsets):
        arr.flags.writeable = False
    return modes, freq, weights, groups


def mode_sums(lam, eta: float, decay: float, terms):
    """The discrete analogue of half_line_sums over the modes k = 1, 2, ...
    at frequencies 2 eta k, for terms that decay like e^{-decay eta k}:

        sum_{k >= 1} [4 sin^2(eta k lam) a(k) + 2i sin(2 eta k lam) b(k) + c(k)]

    terms(k) returns a, b and c at the modes, each (modes, columns) with
    one column per integrand, and the values and bounds are (points,
    columns).  The mode count leaves a tail below _TAIL; more modes than
    MAX_TERMS raise ConvergenceError before anything is allocated.  From
    _GROUPED_MODES modes on, the modes k = B i + j, i < R, j = 1, ..., B,
    are one (bases, offsets) group: each frequency is 2 eta B i + 2 eta j,
    so _half_sin_cos takes 2 R + B, about 2 sqrt(2 K), sin/cos per point
    for the K modes the tail needs, which R B rounds up by less than R;
    fewer modes are one group with the base 0.  The error bound is the
    tail, read at the next mode and summed geometrically, plus rounding.
    """
    rate = decay * eta
    modes, freq, weights, groups = _mode_rule(eta, rate)
    return _rule_sums(lam, freq, groups, weights, 1.0 / -np.expm1(-rate), *terms(modes))


# --------------------------------------------------------------------------
# amplitude integrals and sums
# --------------------------------------------------------------------------


class AmplitudeResult:
    """An amplitude (scalar or per grid point), the route that produced it
    and a measured bound on its absolute error."""

    __slots__ = ("value", "route", "error_estimate")

    def __init__(self, value: complex, route: str, error_estimate: float = 0.0):
        if (np.min(error_estimate) if np.ndim(error_estimate) else error_estimate) < 0:
            raise ValueError("error_estimate must be >= 0")
        self.value, self.route, self.error_estimate = value, route, error_estimate

    @classmethod
    def on_grid(cls, value, route: str, error, scalar: bool) -> AmplitudeResult:
        """Per-point values and errors; for a scalar input (a grid of one)
        Python scalars."""
        if scalar:
            return cls(complex(value[0]), route, float(error[0]))
        return cls(value, route, error)


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

    hat        -- vectorised kernel, defined away from the origin
    odd_kind   -- behaviour of the odd part at the origin:
                  "none" (vanishes / integrable), "jump" (finite one-sided
                  limit), "pole" (simple pole)
    odd_origin -- the jump value K_o(0+) or the pole coefficient p
    decay      -- asymptotic decay rate r: |hat(w)| <~ e^{-r |w|}
    discrete   -- True for integer-mode kernels (summed by amplitude_sum)
    """

    __slots__ = ("name", "hat", "odd_kind", "odd_origin", "decay", "discrete")

    def __init__(self, name: str, hat: Callable, odd_kind: str = "none",
                 odd_origin: complex = 0.0, decay: float = 0.5, discrete: bool = False):
        self.name, self.hat, self.odd_kind, self.odd_origin = name, hat, odd_kind, odd_origin
        self.decay, self.discrete = decay, discrete

    def even_odd(self, w):
        plus = np.asarray(self.hat(w), dtype=np.complex128)
        minus = np.asarray(self.hat(-w), dtype=np.complex128)
        return 0.5 * (plus + minus), 0.5 * (plus - minus)


# the exponents whose exp is a normal float
_LN_RANGE = (math.log(np.finfo(float).tiny), math.log(np.finfo(float).max))


def _exp_in_range(ln, lam):
    """exp(ln) for (points, columns) exponents ln at the points lam;
    FloatRangeError names the first point and column whose exp would leave
    the normal float range (or whose exponent is NaN)."""
    outside = ~((ln.real >= _LN_RANGE[0]) & (ln.real <= _LN_RANGE[1]))
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise FloatRangeError(f"an amplitude at lam_hat = {lam[i]:.10g} is outside the "
                              f"float range: ln|T| = {ln[i, j].real:.6g}",
                              location=lam[i].item(), column=int(j))
    return np.exp(ln)


def _kernel_results(kernels, single: bool, ln, lam, err, route: str, scalar: bool):
    """exp(ln) per kernel column as AmplitudeResults, with error |value| err:
    the one result of a single kernel, else a tuple of them."""
    value = _exp_in_range(ln, lam)
    out = tuple(AmplitudeResult.on_grid(value[:, j], route, np.abs(value[:, j]) * err[:, j],
                                        scalar) for j in range(len(kernels)))
    return out[0] if single else out


def _origin_prescription(kernel: FourierKernel):
    """(decay rate the rule needs, constant shift, counterterm(w)) of a
    continuous kernel's odd part at the origin."""
    if kernel.discrete:
        raise ValueError("discrete kernel passed to amplitude_integral")
    p = kernel.odd_origin
    if kernel.odd_kind == "none":
        return kernel.decay, 0.0, np.zeros_like
    if kernel.odd_kind == "jump":
        return min(kernel.decay, 2.0), 0.0, lambda w: p * np.exp(-2.0 * w)
    if kernel.odd_kind == "pole":
        # p / (2 sinh(w/2))
        return (min(kernel.decay, 0.5), p * np.log(2.0),
                lambda w: -p * np.exp(-w / 2.0) / np.expm1(-w))
    raise ValueError(
        f"kernel {kernel.name!r}: no finite origin prescription ({kernel.odd_kind!r})")


def amplitude_integral(kernels, lam_hat):
    """exp of the regularised 1/w-weighted Fourier transform of a kernel,
    at a real lam_hat or a real grid of them.

    kernels is one FourierKernel, giving one AmplitudeResult, or a sequence
    of them, giving a tuple: the kernels are columns of one half-line rule,
    which is sized from their slowest decay (cutoff) and from max|lam_hat|
    (panel width).  Each error estimate is its column's gap to the
    comparison rule on the same panels plus the measured tail and rounding.
    An amplitude outside the normal float range raises FloatRangeError.
    Analytic continuation is handled in closed form by the callers that
    need it.
    """
    single = isinstance(kernels, FourierKernel)
    kernels = (kernels,) if single else tuple(kernels)
    rates, shifts, counters = zip(*map(_origin_prescription, kernels))
    lam, scalar = as_grid(lam_hat, real=True)

    def terms(w):
        cols = []
        for kern, counter in zip(kernels, counters):
            ke, ko = kern.even_odd(w)
            cw = counter(w)
            cols.append((ko / w, ke / w, -2.0 * (ko - cw) / w,
                         2.0 * (np.abs(ko) + np.abs(cw)) / w))
        return [np.array(parts).T for parts in zip(*cols)]

    ln, err = half_line_sums(lam, min(rates), terms)
    return _kernel_results(kernels, single, ln + np.array(shifts), lam, err, "integral", scalar)


def amplitude_sum(kernels, lam_hat, eta: float):
    """Discrete analogue: exp[-sum_{k != 0} (1/k) e^{-2i eta k lam} K(k)] at a
    real lam_hat or a real grid of them.

    kernels is one discrete FourierKernel or a sequence of them, as in
    amplitude_integral: the kernels are columns of one mode sum.  The k = 0
    term is excluded by the 1/k weight.  The modes run out where the
    slowest kernel has decayed (see mode_sums, which also caps their
    number); each error estimate is its column's tail past the last mode
    plus rounding.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    single = isinstance(kernels, FourierKernel)
    kernels = (kernels,) if single else tuple(kernels)
    for kern in kernels:
        if not kern.discrete:
            raise ValueError("continuous kernel passed to amplitude_sum")
        if kern.odd_kind == "pole":
            raise ValueError("pole-type discrete kernels are not defined")
    lam, scalar = as_grid(lam_hat, real=True)
    decay = min(min(kern.decay, 4.0) if kern.odd_kind == "jump" else kern.decay
                for kern in kernels)

    def terms(k):
        cols = []
        for kern in kernels:
            ke, ko = kern.even_odd(k)
            counter = kern.odd_origin * np.exp(-4.0 * eta * k) if kern.odd_kind == "jump" else 0.0
            cols.append((ko / k, ke / k, -2.0 * (ko - counter) / k))
        return [np.array(parts).T for parts in zip(*cols)]

    ln, err = mode_sums(lam, eta, decay, terms)
    return _kernel_results(kernels, single, ln, lam, err, "sum", scalar)
