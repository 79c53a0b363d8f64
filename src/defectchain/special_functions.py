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

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "PoleError",
    "ConvergenceError",
    "ProductTruncation",
    "QuadratureSpec",
    "log_gamma",
    "gamma",
    "gamma_ratio",
    "q_gamma",
    "infinite_gamma_product",
    "FourierKernel",
    "amplitude_integral",
    "amplitude_sum",
]


class PoleError(ValueError):
    """An argument landed on (or numerically at) a pole."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class ConvergenceError(RuntimeError):
    """A truncated product or sum failed to reach its tail tolerance."""


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


def _log_gamma_right(z):
    """Lanczos sum, valid for Re z >= 0.5."""
    zm1 = z - 1.0
    series = np.full_like(z, _LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        series = series + _LANCZOS_C[i] / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (zm1 + 0.5) * np.log(t) - t + np.log(series)


def log_gamma(z):
    """Principal branch of log Gamma(z) for complex z (scalar or array).

    Uses a Lanczos approximation on Re z >= 1/2 and the reflection formula
    elsewhere.  Raises PoleError if any argument sits at a non-positive
    integer.  exp(log_gamma(x)) matches Gamma(x) on the real axis.
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
        # log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z)
        out[~right] = (np.log(np.pi) - np.log(np.sin(np.pi * zl))
                       - _log_gamma_right(1.0 - zl))
    return out[0] if scalar else out


def gamma(z):
    return np.exp(log_gamma(z))


def gamma_ratio(num, den):
    """prod Gamma(num_i) / prod Gamma(den_j) via summed log-Gammas.

    Overflow-safe: the log-gammas are summed before exponentiating.  Poles
    in numerator and denominator are reported separately.
    """
    num = np.atleast_1d(np.asarray(num, dtype=np.complex128))
    den = np.atleast_1d(np.asarray(den, dtype=np.complex128))
    try:
        ln = np.sum(log_gamma(num)) if num.size else 0.0
    except PoleError as err:
        raise PoleError(f"gamma_ratio: numerator pole at {err.location}",
                        location=err.location) from None
    try:
        ld = np.sum(log_gamma(den)) if den.size else 0.0
    except PoleError as err:
        raise PoleError(f"gamma_ratio: denominator pole at {err.location}",
                        location=err.location) from None
    return complex(np.exp(ln - ld))


# --------------------------------------------------------------------------
# truncation / quadrature configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductTruncation:
    """Stopping data for infinite products: hard term cap and a tail bound
    on |log factor|."""

    max_terms: int = 400_000
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")


@dataclass(frozen=True)
class QuadratureSpec:
    """Frequency-cutoff quadrature for the amplitude integrals.

    Gauss-Legendre, by default with 4096 nodes on (0, 40].  The kernels here
    decay at least like e^{-|w|/2}, so the cutoff alone contributes < 1e-9;
    Gauss nodes keep the discretisation error at a comparable level (an
    equispaced 4096-node rule would leave ~1e-5 endpoint error).
    """

    cutoff: float = 40.0
    nodes: int = 4096

    def __post_init__(self):
        if not self.cutoff > 0:
            raise ValueError("cutoff must be positive")
        if self.nodes < 16:
            raise ValueError("nodes must be >= 16")


DEFAULT_QUADRATURE = QuadratureSpec()


@lru_cache(maxsize=8)
def _legendre_nodes(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] by vectorised Newton
    iteration on the three-term recurrence (much faster than the
    companion-matrix route for the node counts used here)."""
    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (i - 0.25) / (n + 0.5))
    for _ in range(100):
        p0 = np.ones_like(x)
        p1 = x.copy()
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        dx = p1 / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p0 = np.ones_like(x)
    p1 = x.copy()
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, w


@lru_cache(maxsize=32)
def _gauss_nodes(cutoff: float, n: int):
    x, w = _legendre_nodes(n)
    return 0.5 * cutoff * (x + 1.0), 0.5 * cutoff * w


# --------------------------------------------------------------------------
# q-Gamma
# --------------------------------------------------------------------------

DEFAULT_TRUNCATION = ProductTruncation()


def q_gamma(x, q: float, trunc: ProductTruncation = DEFAULT_TRUNCATION):
    """Gamma_q(x) = (1-q)^(1-x) prod_{j>=0} (1-q^(1+j))/(1-q^(x+j)),  0 < q < 1.

    The tail of the log-product is bounded geometrically; truncation stops
    once the bound drops below trunc.tail_tol.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    x = complex(x)
    lq = np.log(q)

    # |log term_j| <= C q^j with C ~ |q^x - q| / (1 - q); solve for j
    c = max(abs(np.exp(x * lq) - q), 1e-30) / (1.0 - q)
    j_needed = int(np.ceil((np.log(trunc.tail_tol) - np.log(c)) / lq)) + 2
    j_needed = max(j_needed, 8)
    if j_needed > trunc.max_terms:
        raise ConvergenceError(
            f"q_gamma needs ~{j_needed} terms for tail {trunc.tail_tol}, "
            f"cap is {trunc.max_terms}")

    j = np.arange(j_needed)
    qx = np.exp((x + j) * lq)
    bad = np.abs(1.0 - qx) < 1e-13
    if np.any(bad):
        raise PoleError(f"q_gamma pole: 1 - q^(x+j) = 0 at j = {int(np.where(bad)[0][0])}",
                        location=x)
    log_prod = np.sum(np.log1p(-np.power(q, 1.0 + j)) - np.log1p(-qx))
    return complex(np.exp((1.0 - x) * np.log1p(-q) + log_prod))


# --------------------------------------------------------------------------
# infinite products of Gamma ratios
# --------------------------------------------------------------------------


def _hurwitz_tail(s: float, k0: int) -> float:
    """sum_{k >= k0} k^-s by Euler-Maclaurin (k0 large)."""
    k0 = float(k0)
    return (k0 ** (1 - s) / (s - 1) + 0.5 * k0 ** -s + s / 12.0 * k0 ** (-s - 1)
            - s * (s + 1) * (s + 2) / 720.0 * k0 ** (-s - 3))


def infinite_gamma_product(term, trunc: ProductTruncation = DEFAULT_TRUNCATION,
                           tail_coefficient=None, block: int = 4096):
    """Evaluate prod_{k>=0} of Gamma-ratio factors.

    term(k_array) must return (num_args, den_args) where each is a sequence
    of arrays of Gamma arguments; factor_k = prod Gamma(num)/prod Gamma(den).
    Stops once |log factor_k| < trunc.tail_tol (or at max_terms, reporting
    failure).  If ``tail_coefficient`` c2 is given, the neglected tail is
    completed analytically as sum_{k>K} c2/k^2; the returned tail estimate
    is then the size of the next (1/k^3) correction.

    Returns (value, tail_estimate).
    """
    total = 0.0 + 0.0j
    k0 = 0
    last = np.inf
    while k0 < trunc.max_terms:
        k = np.arange(k0, min(k0 + block, trunc.max_terms), dtype=np.float64)
        num, den = term(k)
        logf = np.zeros(k.size, dtype=np.complex128)
        for arr in num:
            logf += log_gamma(np.asarray(arr, dtype=np.complex128))
        for arr in den:
            logf -= log_gamma(np.asarray(arr, dtype=np.complex128))
        small = np.abs(logf) < trunc.tail_tol
        if np.any(small):
            stop = int(np.argmax(small))
            total += np.sum(logf[:stop + 1])
            k0 += stop + 1
            last = abs(logf[stop])
            break
        total += np.sum(logf)
        k0 += k.size
        last = abs(logf[-1])
    else:
        if tail_coefficient is None:
            raise ConvergenceError(
                f"gamma product not converged after {trunc.max_terms} factors "
                f"(last |log factor| = {last:.3e})")

    if tail_coefficient is not None and k0 > 2:
        c2 = complex(tail_coefficient)
        total += c2 * _hurwitz_tail(2.0, k0)
        tail_est = abs(c2) / k0 ** 2  # size of the first neglected correction
    else:
        # plain integral-test bound on the neglected 1/k^2-type tail
        tail_est = last * k0 if np.isfinite(last) else np.inf
    return complex(np.exp(total)), float(tail_est)


# --------------------------------------------------------------------------
# amplitude integrals and sums
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierKernel:
    """A scattering kernel in frequency space.

    hat        -- vectorised kernel, defined away from the origin
    odd_kind   -- behaviour of the odd part at the origin:
                  "none" (vanishes / integrable), "jump" (finite one-sided
                  limit), "pole" (simple pole)
    odd_origin -- the jump value K_o(0+) or the pole coefficient p
    decay      -- asymptotic decay rate r: |hat(w)| <~ e^{-r |w|}
    discrete   -- True for integer-mode kernels (uses eta)
    """

    name: str
    hat: Callable
    odd_kind: str = "none"
    odd_origin: complex = 0.0
    decay: float = 0.5
    discrete: bool = False
    eta: float | None = None

    def even_odd(self, w):
        plus = np.asarray(self.hat(w), dtype=np.complex128)
        minus = np.asarray(self.hat(-w), dtype=np.complex128)
        return 0.5 * (plus + minus), 0.5 * (plus - minus)


def _ln_amplitude_nodes(kernel: FourierKernel, lam_hat: float, w, wt):
    ke, ko = kernel.even_odd(w)
    phi = w * lam_hat
    core = -np.sum(wt * (2.0 * (np.cos(phi) - 1.0) * ko - 2.0j * np.sin(phi) * ke) / w)
    if kernel.odd_kind == "none":
        anchor = -2.0 * np.sum(wt * ko / w)
    elif kernel.odd_kind == "jump":
        s = kernel.odd_origin
        anchor = -2.0 * np.sum(wt * (ko - s * np.exp(-2.0 * w)) / w)
    elif kernel.odd_kind == "pole":
        p = kernel.odd_origin
        anchor = -2.0 * np.sum(wt * (ko - p / (2.0 * np.sinh(w / 2.0))) / w) + p * np.log(2.0)
    else:
        raise ValueError(
            f"kernel {kernel.name!r}: no finite origin prescription ({kernel.odd_kind!r})")
    return core + anchor


def amplitude_integral(kernel: FourierKernel, lam_hat: float,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> complex:
    """exp of the regularised 1/w-weighted Fourier transform of the kernel.

    lam_hat must be real; analytic continuation is handled in closed form by
    the callers that need it.
    """
    if kernel.discrete:
        raise ValueError("discrete kernel passed to amplitude_integral")
    if abs(complex(lam_hat).imag) > 0:
        raise ValueError("amplitude_integral requires real lam_hat")
    w, wt = _gauss_nodes(spec.cutoff, spec.nodes)
    return complex(np.exp(_ln_amplitude_nodes(kernel, float(np.real(lam_hat)), w, wt)))


def amplitude_sum(kernel: FourierKernel, lam_hat: float, eta: float,
                  k_max: int | None = None, tail_tol: float = 1e-15) -> complex:
    """Discrete analogue: exp[-sum_{k != 0} (1/k) e^{-2i eta k lam} K(k)].

    The k = 0 term is excluded by the 1/k weight.  Kernels decay at least
    like e^{-decay * eta * |k|}, fixing k_max from tail_tol.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not kernel.discrete:
        raise ValueError("continuous kernel passed to amplitude_sum")
    if kernel.odd_kind == "pole":
        raise ValueError("pole-type discrete kernels are not defined")
    if k_max is None:
        k_max = int(np.ceil(-np.log(tail_tol) / (kernel.decay * eta))) + 8
    k = np.arange(1, k_max + 1, dtype=np.float64)
    ke, ko = kernel.even_odd(k)
    phi = 2.0 * eta * k * float(np.real(lam_hat))
    core = -np.sum((2.0 * (np.cos(phi) - 1.0) * ko - 2.0j * np.sin(phi) * ke) / k)
    if kernel.odd_kind == "jump":
        s = kernel.odd_origin
        anchor = -2.0 * np.sum((ko - s * np.exp(-4.0 * eta * k)) / k)
    else:
        anchor = -2.0 * np.sum(ko / k)
    return complex(np.exp(core + anchor))
