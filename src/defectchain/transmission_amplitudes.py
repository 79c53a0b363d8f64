"""Scalar thermodynamic objects: Fourier kernels, state densities, defect
transmission amplitudes (hole, breather, spin-defect), bulk scattering
amplitudes with the full bulk S-matrix, and the coupling-constant map.

Amplitude routes
----------------
Every amplitude is an exponential of a 1/w-weighted kernel transform and is
evaluated by two independent routes that the test suite compares:

* ``integral`` / ``sum`` -- direct quadrature (or discrete summation) of the
  regularised exponent, see ``special_functions``;
* ``closed`` -- Gamma-function, q-Gamma-function or hyperbolic closed forms.

In the isotropic and non-critical regimes the closed forms are plain (q-)Gamma
ratios.  In the critical regime the hole amplitudes have a closed form only
as an infinite product of Gamma ratios whose factors decay like k^(-2 gamma);
its absolutely convergent part is the ratio-product

    T+(x) = A(gamma) * prod_k [ f_k(x) / f_k(0) ],

which this module evaluates exactly through an equivalent single Malmsten-type
integral (route ``closed``) or through the literal Gamma-ratio product with an
analytic 1/k^2 tail completion (route ``product``).  The normalisation
A(gamma) = T+(0) is fixed by the same origin prescription the quadrature route
uses, so the two routes share only that one constant and are otherwise
independent evaluations of the lam-dependence.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lax_defect import CRITICAL, NONCRITICAL, XXX, RegimeParams, s_matrix_part
from .special_functions import (DEFAULT_QUADRATURE, DEFAULT_TRUNCATION,
                                FourierKernel, ProductTruncation,
                                QuadratureSpec, amplitude_integral,
                                amplitude_sum, gamma_ratio,
                                infinite_gamma_product, log_gamma, q_gamma,
                                _gauss_nodes, _hurwitz_tail)
from .tensor_core import TensorOperator

__all__ = [
    "AmplitudeResult",
    "DensityParts",
    "kernel",
    "kernel_table",
    "state_density",
    "amplitude",
    "breather_amplitude",
    "type2_amplitude",
    "soliton_s_amplitude",
    "make_s_matrix",
    "coupling_map",
]


@dataclass(frozen=True)
class AmplitudeResult:
    value: complex
    route: str
    error_estimate: float = 0.0

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")


# --------------------------------------------------------------------------
# kernel table
# --------------------------------------------------------------------------


def _sech2(x):
    """1 / (2 cosh x), overflow-safe."""
    ax = np.abs(x)
    return np.exp(-ax) / (1.0 + np.exp(-2.0 * ax))


def kernel(params: RegimeParams, name: str, n: int | None = None,
           spin: float | None = None) -> FourierKernel:
    """Named Fourier kernel of the regime.

    Continuous regimes (isotropic, critical) give functions of a real
    frequency w; the non-critical regime gives discrete integer-mode kernels.
    Parametric families take ``n`` (a_n, b_n) or ``spin`` (the spin-defect
    kernel rt).
    """
    if params.regime == XXX:
        return _kernel_xxx(name, n)
    if params.regime == CRITICAL:
        return _kernel_critical(params, name, n)
    return _kernel_noncritical(params, name, n, spin)


def kernel_table(params: RegimeParams, n: int = 2, spin: float = 1.0) -> dict:
    """Every named kernel of the regime (parametric families at the given
    n and spin), keyed by name."""
    if params.regime == XXX:
        names = ["sigma0", "rt_plus", "rt_minus", "a_n", "frak_a_plus",
                 "frak_a_minus", "r"]
    elif params.regime == CRITICAL:
        names = ["sigma0", "rt_plus", "rt_minus", "a_n", "b_n", "frak_b_plus",
                 "frak_b_minus", "B_plus", "B_minus", "sigma0_bar", "tb_plus",
                 "tb_minus", "r"]
    else:
        names = ["sigma0", "rt_plus", "rt_minus", "a_n", "frak_a_plus",
                 "frak_a_minus", "r", "rt_spin"]
    return {name: kernel(params, name, n=n, spin=spin) for name in names}


def _half_line(values, support_sign: float):
    """Kernel supported on one frequency half-line, with the two-sided limit
    average at the origin.  The odd part then jumps at 0+, with value
    support_sign * v(0) / 2 where v is the one-sided limit."""

    def hat(w):
        w = np.asarray(w, dtype=float)
        val = values(w)
        return np.where(support_sign * w > 0, val, np.where(w == 0.0, 0.5 * val, 0.0))

    return hat


def _kernel_xxx(name: str, n) -> FourierKernel:
    if name == "sigma0":
        return FourierKernel("sigma0", lambda w: _sech2(w / 2.0), decay=0.5)
    if name in ("rt_plus", "rt_minus"):
        support = -1.0 if name == "rt_plus" else 1.0
        hat = _half_line(lambda w: _sech2(w / 2.0), support)
        return FourierKernel(name, hat, odd_kind="jump",
                             odd_origin=support * 0.25, decay=0.5)
    if name == "a_n":
        if n is None:
            raise ValueError("a_n needs n")
        return FourierKernel(f"a_{n}", lambda w: np.exp(-n * np.abs(w) / 2.0), decay=n / 2.0)
    if name in ("frak_a_plus", "frak_a_minus"):
        sgn = 1.0 if name.endswith("plus") else -1.0
        hat = _half_line(lambda w, sgn=sgn: np.exp(sgn * w / 2.0), -sgn)
        return FourierKernel(name, hat, odd_kind="jump",
                             odd_origin=-sgn * 0.5, decay=0.5)
    if name == "r":
        return FourierKernel(
            "r", lambda w: np.exp(-np.abs(w)) / (1.0 + np.exp(-np.abs(w))), decay=1.0)
    raise ValueError(f"unknown isotropic kernel {name!r}")


def _kernel_critical(params: RegimeParams, name: str, n) -> FourierKernel:
    nu = params.nu
    g = params.gamma

    if name == "sigma0":
        return FourierKernel("sigma0", lambda w: _sech2(g * w / 2.0), decay=g / 2.0)
    if name in ("rt_plus", "rt_minus", "B_plus", "B_minus"):
        sgn = 1.0 if name.endswith("plus") else -1.0

        def hat(w, sgn=sgn):
            w = np.asarray(w, dtype=float)
            return -sgn * np.exp(sgn * w / 2.0) / (4.0 * np.sinh(w / 2.0) * np.cosh(g * w / 2.0))

        # odd-part Laurent coefficient: K_o ~ (-sgn/2) / w near the origin
        return FourierKernel(name, hat, odd_kind="pole", odd_origin=-0.5 * sgn,
                             decay=min(g, 1.0) / 2.0)
    if name in ("frak_b_plus", "frak_b_minus"):
        sgn = 1.0 if name.endswith("plus") else -1.0

        def hat(w, sgn=sgn):
            w = np.asarray(w, dtype=float)
            return sgn * np.exp(sgn * w / 2.0) / (2.0 * np.sinh(nu * w / 2.0))

        return FourierKernel(name, hat, odd_kind="pole", odd_origin=sgn / nu,
                             decay=(nu - 1.0) / 2.0)
    if name == "a_n":
        if n is None or not 0 < n < 2 * nu:
            raise ValueError(f"a_n needs 0 < n < 2*nu = {2 * nu}, got {n}")
        return FourierKernel(
            f"a_{n}", lambda w: _sinh_ratio((nu - n) / 2.0, nu / 2.0, w), decay=min(n, 2 * nu - n) / 2.0)
    if name == "b_n":
        if n is None or not 0 < n < 2 * nu or n == nu:
            raise ValueError(f"b_n needs 0 < n < 2*nu, n != nu, got {n}")
        a = n / 2.0 if n < nu else (n - 2 * nu) / 2.0
        return FourierKernel(
            f"b_{n}", lambda w: -_sinh_ratio(a, nu / 2.0, w), decay=nu / 2.0 - abs(a))
    if name == "sigma0_bar":
        return FourierKernel(
            "sigma0_bar",
            lambda w: np.cosh((nu - 2.0) * w / 2.0) / np.cosh((nu - 1.0) * w / 2.0),
            decay=0.5)
    if name in ("tb_plus", "tb_minus"):
        sgn = 1.0 if name.endswith("plus") else -1.0

        def hat(w, sgn=sgn):
            w = np.asarray(w, dtype=float)
            return -np.exp(-sgn * (nu - 2.0) * w / 2.0) / (2.0 * np.cosh((nu - 1.0) * w / 2.0))

        return FourierKernel(name, hat, odd_kind="none", decay=0.5)
    if name == "r":

        def hat(w):
            u = np.abs(np.asarray(w, dtype=float))
            return (np.exp(-g * u) - np.exp(-u)) / ((1.0 - np.exp(-u)) * (1.0 + np.exp(-g * u)))

        return FourierKernel("r", hat, decay=min(g, 1.0))
    raise ValueError(f"unknown critical kernel {name!r}")


def _sinh_ratio(a: float, b: float, w):
    """sinh(a w) / sinh(b w) with the w -> 0 limit a/b filled in."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-12
    out[small] = a / b
    ws = w[~small]
    out[~small] = np.sinh(a * ws) / np.sinh(b * ws)
    return out


def _kernel_noncritical(params: RegimeParams, name: str, n, spin) -> FourierKernel:
    eta = params.eta

    if name == "sigma0":
        return FourierKernel("sigma0", lambda k: _sech2(eta * np.asarray(k, dtype=float)),
                             decay=1.0, discrete=True, eta=eta)
    if name in ("rt_plus", "rt_minus"):
        support = -1.0 if name == "rt_plus" else 1.0
        hat = _half_line(lambda k: -_sech2(eta * k), support)
        return FourierKernel(name, hat, odd_kind="jump", odd_origin=support * -0.25,
                             decay=1.0, discrete=True, eta=eta)
    if name == "a_n":
        if n is None:
            raise ValueError("a_n needs n")
        return FourierKernel(f"a_{n}", lambda k: np.exp(-n * eta * np.abs(np.asarray(k, dtype=float))),
                             decay=float(n), discrete=True, eta=eta)
    if name in ("frak_a_plus", "frak_a_minus"):
        sgn = 1.0 if name.endswith("plus") else -1.0
        hat = _half_line(lambda k, sgn=sgn: -np.exp(sgn * eta * k), -sgn)
        return FourierKernel(name, hat, odd_kind="jump",
                             odd_origin=sgn * 0.5, decay=1.0,
                             discrete=True, eta=eta)
    if name == "r":

        def hat(k):
            u = np.abs(np.asarray(k, dtype=float))
            return np.exp(-2.0 * eta * u) / (1.0 + np.exp(-2.0 * eta * u))

        return FourierKernel("r", hat, decay=2.0, discrete=True, eta=eta)
    if name == "rt_spin":
        if spin is None:
            raise ValueError("rt_spin needs spin")
        y = 2.0 * spin

        def hat(k, y=y):
            u = np.abs(np.asarray(k, dtype=float))
            return np.exp(-eta * y * u) / (1.0 + np.exp(-2.0 * eta * u))

        return FourierKernel("rt_spin", hat, decay=y, discrete=True, eta=eta)
    raise ValueError(f"unknown non-critical kernel {name!r}")


# --------------------------------------------------------------------------
# state densities
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityParts:
    """sigma(lam) split into the leading bulk part and the 1/N correction."""

    leading: float
    correction: float

    def total(self, n_sites: int) -> float:
        return self.leading + self.correction / float(n_sites)


def state_density(params: RegimeParams, lam: float, theta: float | None = None,
                  holes=(), sign: str = "+",
                  spec: QuadratureSpec = DEFAULT_QUADRATURE) -> DensityParts:
    """Root density of the one-hole (or multi-hole) state.

    Returns the bulk density sigma0(lam) and the 1/N correction
    sum_j r(lam - hole_j) + rt^{sign}(lam - theta); theta=None omits the
    defect term.  The formal 1/N is left to the caller via DensityParts.
    """
    sgn = "plus" if sign == "+" else "minus"
    if params.regime == NONCRITICAL:
        eta = params.eta
        k_max = int(np.ceil(40.0 / eta)) + 8

        def invert(kern, x):
            k = np.arange(-k_max, k_max + 1)
            vals = kern.hat(k.astype(float))
            return float(np.real(eta / np.pi * np.sum(np.exp(-2j * eta * k * x) * vals)))

        lead = invert(kernel(params, "sigma0"), lam)
        corr = 0.0
        for h in holes:
            corr += invert(kernel(params, "r"), lam - h)
        if theta is not None:
            corr += invert(kernel(params, f"rt_{sgn}"), lam - theta)
        return DensityParts(lead, corr)

    w, wt = _gauss_nodes(spec.cutoff, spec.nodes)

    def invert(kern, x):
        # real density: cosine transform of the even part (the odd part of a
        # real kernel only contributes an imaginary piece to the inversion)
        ke, _ = kern.even_odd(w)
        return float((1.0 / np.pi) * np.sum(wt * np.cos(w * x) * ke.real))

    lead = invert(kernel(params, "sigma0"), lam)
    corr = 0.0
    for h in holes:
        corr += invert(kernel(params, "r"), lam - h)
    if theta is not None:
        corr += invert(kernel(params, f"rt_{sgn}"), lam - theta)
    return DensityParts(lead, corr)


# --------------------------------------------------------------------------
# critical-regime hole amplitude: anchor + resummed ratio product
# --------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _critical_anchor(gamma: float) -> complex:
    """ln T+(0, gamma): the origin normalisation shared by both routes.

    ln A = -ln(2)/2 - 2 int_0^inf [cosh(g w/2) - cosh(w/2)]
                                  / (4 sinh(w/2) cosh(g w/2)) dw/w
    """
    w, wt = _gauss_nodes(80.0, 4096)
    rho_o = (np.cosh(gamma * w / 2.0) - np.cosh(w / 2.0)) / (
        4.0 * np.sinh(w / 2.0) * np.cosh(gamma * w / 2.0))
    return complex(-0.5 * np.log(2.0) - 2.0 * np.sum(wt * rho_o / w))


def _critical_ln_ratio(lam_hat: float, gamma: float, nodes: int = 4096) -> complex:
    """ln prod_k [f_k(lam)/f_k(0)] for the critical T+ Gamma-ratio product,
    resummed as one absolutely convergent Malmsten-type integral."""
    tmax = max(80.0, 200.0 / gamma)
    t, wt = _gauss_nodes(tmax, nodes)
    num = (np.exp(-gamma * t / 2.0) * (np.exp(-1j * lam_hat * t) - 1.0)
           + np.exp(-(gamma / 2.0 + 1.0) * t) * (np.exp(1j * lam_hat * t) - 1.0))
    num *= (1.0 - np.exp(-gamma * t))
    den = (1.0 - np.exp(-t)) * (1.0 - np.exp(-2.0 * gamma * t)) * t
    return complex(np.sum(wt * num / den))


def _critical_ratio_product(lam_hat: float, gamma: float,
                            trunc: ProductTruncation) -> tuple[complex, float]:
    """The same ratio product evaluated literally, factor by factor."""

    def term(k):
        x = 2.0 * gamma * k
        a = gamma / 2.0 + 1j * lam_hat
        b = gamma / 2.0 + 1.0 - 1j * lam_hat
        a0 = gamma / 2.0
        b0 = gamma / 2.0 + 1.0
        num = [a + x, b + x, a0 + gamma + x, b0 + gamma + x]
        den = [a + gamma + x, b + gamma + x, a0 + x, b0 + x]
        return num, den

    c2 = -(lam_hat ** 2 + 1j * lam_hat) / (4.0 * gamma)
    return infinite_gamma_product(term, trunc, tail_coefficient=c2)


def _t_plus_critical_closed(lam_hat: float, gamma: float) -> complex:
    return complex(np.exp(_critical_anchor(gamma) + _critical_ln_ratio(lam_hat, gamma)))


# --------------------------------------------------------------------------
# hole (type-I) transmission amplitudes
# --------------------------------------------------------------------------


def amplitude(params: RegimeParams, sign: str, lam_hat, route: str = "closed",
              spec: QuadratureSpec = DEFAULT_QUADRATURE,
              trunc: ProductTruncation = DEFAULT_TRUNCATION) -> AmplitudeResult:
    """Hole-defect transmission amplitude T^{sign}(lam_hat).

    Routes: "closed" everywhere; "integral" (continuous regimes) and "sum"
    (non-critical) are the independent quadrature/summation routes;
    "product" additionally gives the literal Gamma-ratio product in the
    critical regime.  Closed routes accept complex lam_hat; the quadrature
    routes require it real.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")

    if params.regime == XXX:
        if route == "closed":
            if sign == "+":
                val = gamma_ratio([-1j * lam_hat / 2 + 0.25], [-1j * lam_hat / 2 + 0.75])
            else:
                val = gamma_ratio([1j * lam_hat / 2 + 0.75], [1j * lam_hat / 2 + 0.25])
            return AmplitudeResult(val, "closed", 1e-13)
        if route == "integral":
            kern = kernel(params, "rt_plus" if sign == "+" else "rt_minus")
            val = amplitude_integral(kern, lam_hat, spec)
            return AmplitudeResult(val, "integral", _quad_err(kern, spec, val))
        raise ValueError(f"route {route!r} not available in the isotropic regime")

    if params.regime == CRITICAL:
        g = params.gamma
        if route == "closed":
            if sign == "+":
                val = _t_plus_critical_closed(lam_hat, g)
            else:
                val = 1.0 / _t_plus_critical_closed(-lam_hat, g)
            return AmplitudeResult(val, "closed", 1e-11)
        if route == "product":
            # past ~1e4 factors the float noise of the summed log-Gammas
            # dominates the analytically completed 1/k^2 tail, so the literal
            # product stops earlier than the generic default
            ptrunc = trunc if trunc is not DEFAULT_TRUNCATION else \
                ProductTruncation(max_terms=trunc.max_terms, tail_tol=1e-9)
            if sign == "+":
                prod, tail = _critical_ratio_product(lam_hat, g, ptrunc)
                val = complex(np.exp(_critical_anchor(g)) * prod)
            else:
                prod, tail = _critical_ratio_product(-lam_hat, g, ptrunc)
                val = complex(1.0 / (np.exp(_critical_anchor(g)) * prod))
            return AmplitudeResult(val, "product", tail * abs(val))
        if route == "integral":
            kern = kernel(params, "rt_plus" if sign == "+" else "rt_minus")
            val = amplitude_integral(kern, lam_hat, spec)
            return AmplitudeResult(val, "integral", _quad_err(kern, spec, val))
        raise ValueError(f"route {route!r} not available in the critical regime")

    # non-critical
    eta = params.eta
    if route == "closed":
        q4 = float(np.exp(-4.0 * eta))
        if sign == "+":
            val = (q_gamma(-1j * lam_hat / 2 + 0.75, q4, trunc)
                   / q_gamma(-1j * lam_hat / 2 + 0.25, q4, trunc))
        else:
            val = (q_gamma(1j * lam_hat / 2 + 0.25, q4, trunc)
                   / q_gamma(1j * lam_hat / 2 + 0.75, q4, trunc))
        return AmplitudeResult(complex(val), "closed", trunc.tail_tol * abs(val))
    if route == "sum":
        kern = kernel(params, "rt_plus" if sign == "+" else "rt_minus")
        val = amplitude_sum(kern, lam_hat, eta)
        return AmplitudeResult(val, "sum", 1e-13 * abs(val))
    raise ValueError(f"route {route!r} not available in the non-critical regime")


def _quad_err(kern, spec, val) -> float:
    tail = float(np.exp(-kern.decay * spec.cutoff) / max(kern.decay, 1e-3))
    return (tail + 1e-11) * max(abs(val), 1.0)


# --------------------------------------------------------------------------
# breathers
# --------------------------------------------------------------------------


def _breather_one(sign: str, theta_hat, gamma: float) -> complex:
    """Lightest-breather amplitude in the rapidity variable theta_hat."""
    shift = 1j * np.pi / (4.0 * gamma)
    if sign == "+":
        num = -np.sinh(theta_hat / 2.0 + shift)
        den = np.sinh(theta_hat / 2.0 + shift - 1j * np.pi / 2.0)
    else:
        num = -np.sinh(theta_hat / 2.0 - shift - 1j * np.pi / 2.0)
        den = np.sinh(theta_hat / 2.0 - shift)
    if abs(den) < 1e-12:
        raise ZeroDivisionError(
            f"breather amplitude pole: sinh zero at theta_hat = {theta_hat}")
    return complex(num / den)


def breather_amplitude(sign: str, n: int, lam_hat, gamma: float,
                       route: str = "closed",
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> AmplitudeResult:
    """n-breather transmission amplitude.

    n = 1 has both the hyperbolic closed form (in theta_hat = pi lam_hat /
    gamma) and a quadrature route; n > 1 is the fusion product of shifted
    n = 1 closed forms, lam_hat -> lam_hat + (i/2)(n + 1 - 2l).
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if n < 1:
        raise ValueError(f"breather index must be >= 1, got {n}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")

    if route == "closed":
        val = 1.0 + 0.0j
        for ell in range(1, n + 1):
            shifted = lam_hat + 0.5j * (n + 1 - 2 * ell)
            theta = np.pi * shifted / gamma
            val *= _breather_one(sign, theta, gamma)
        return AmplitudeResult(complex(val), "closed", 1e-13 * abs(val))
    if route == "integral":
        if n != 1:
            raise ValueError("the integral route exists for the lightest breather only")
        nu = gamma + 1.0
        params = RegimeParams.critical(float(np.pi / nu))
        kern = kernel(params, "tb_plus" if sign == "+" else "tb_minus")
        val = amplitude_integral(kern, lam_hat, spec)
        return AmplitudeResult(val, "integral", _quad_err(kern, spec, val))
    raise ValueError(f"unknown breather route {route!r}")


# --------------------------------------------------------------------------
# spin (type-II) defect amplitude, non-critical regime
# --------------------------------------------------------------------------


def type2_amplitude(lam_hat, eta: float, spin: float, route: str = "closed",
                    trunc: ProductTruncation = DEFAULT_TRUNCATION) -> AmplitudeResult:
    """Transmission amplitude of the spin-S defect in the non-critical regime.

    Closed form: Gamma_{q^4} ratios with the shifted spin S~ = S - 1/2; sum
    route: the even kernel e^{-eta y|k|} / (1 + e^{-2 eta |k|}), y = 2S.
    """
    two_s = round(2 * spin)
    if abs(2 * spin - two_s) > 1e-12 or two_s < 1:
        raise ValueError(f"2*spin must be a positive integer, got {spin}")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    s_tilde = spin - 0.5
    if route == "closed":
        q4 = float(np.exp(-4.0 * eta))
        val = (q_gamma(-1j * lam_hat / 2 + s_tilde / 2 + 0.25, q4, trunc)
               * q_gamma(1j * lam_hat / 2 + s_tilde / 2 + 0.75, q4, trunc)
               / (q_gamma(-1j * lam_hat / 2 + s_tilde / 2 + 0.75, q4, trunc)
                  * q_gamma(1j * lam_hat / 2 + s_tilde / 2 + 0.25, q4, trunc)))
        return AmplitudeResult(complex(val), "closed", trunc.tail_tol * abs(val))
    if route == "sum":
        params = RegimeParams.noncritical(eta)
        kern = kernel(params, "rt_spin", spin=spin)
        val = amplitude_sum(kern, lam_hat, eta)
        return AmplitudeResult(val, "sum", 1e-13 * abs(val))
    raise ValueError(f"unknown type-II route {route!r}")


# --------------------------------------------------------------------------
# bulk scattering amplitude S_s
# --------------------------------------------------------------------------


def _s2_log_factor(k, lam, gamma):
    """log of the k-th critical S_s factor for real lam, using Schwarz
    reflection to halve the Gamma evaluations (the -i lam arguments are the
    conjugates of the +i lam ones)."""
    x = 2.0 * gamma * np.asarray(k, dtype=float)
    il = 1j * lam
    w = (log_gamma(il + x + 2.0 * gamma) + log_gamma(il + x + 1.0)
         - log_gamma(il + x + gamma) - log_gamma(il + x + gamma + 1.0))
    return 2j * w.imag


def soliton_s_amplitude(params: RegimeParams, lam, route: str = "closed",
                        trunc: ProductTruncation | None = None,
                        spec: QuadratureSpec = DEFAULT_QUADRATURE) -> complex:
    """Scalar prefactor of the bulk S-matrix."""
    trunc = trunc or DEFAULT_TRUNCATION
    if params.regime == XXX:
        if route in ("closed", "product"):
            return gamma_ratio(
                [-1j * lam / 2 + 0.5, 1j * lam / 2 + 1.0],
                [-1j * lam / 2 + 1.0, 1j * lam / 2 + 0.5])
        if route == "integral":
            return amplitude_integral(kernel(params, "r"), lam, spec)
        raise ValueError(f"route {route!r} not available for the isotropic S_s")

    if params.regime == CRITICAL:
        g = params.gamma
        if route in ("closed", "product"):
            lam_c = complex(lam)
            if abs(lam_c.imag) < 1e-14:
                # fast path at real lam: Schwarz reflection halves the Gamma
                # evaluations, and the log-factor tail c2/k^2 + c3/k^3 with
                # c3 = -c2 is completed analytically, so the product can stop
                # once the next-order remainder falls below the tail bound
                lam_r = lam_c.real
                c2 = -1j * lam_r * (g - 1.0) / (2.0 * g)
                c4 = -1j * lam_r * (g - 1.0) * (g * (7.0 * g - 1.0)
                                                - 2.0 * lam_r ** 2) / (16.0 * g ** 3)
                k_stop = 2048
                while (abs(c4) * _hurwitz_tail(4.0, k_stop) > trunc.tail_tol
                       and 2 * k_stop <= trunc.max_terms):
                    k_stop *= 2
                k = np.arange(k_stop, dtype=np.float64)
                total = np.sum(_s2_log_factor(k, lam_r, g))
                total += c2 * (_hurwitz_tail(2.0, k_stop) - _hurwitz_tail(3.0, k_stop))
                return complex(np.exp(total))

            def term(kk):
                x = 2.0 * g * kk
                il = 1j * lam_c
                num = [il + x + 2 * g, il + x + 1, -il + x + g, -il + x + g + 1]
                den = [il + x + g, il + x + g + 1, -il + x + 2 * g, -il + x + 1]
                return num, den

            c2 = -1j * lam_c * (g - 1.0) / (2.0 * g)
            val, _ = infinite_gamma_product(term, trunc, tail_coefficient=c2)
            return val
        if route == "integral":
            return amplitude_integral(kernel(params, "r"), lam, spec)
        raise ValueError(f"route {route!r} not available for the critical S_s")

    # non-critical
    eta = params.eta
    if route in ("closed", "product"):
        q4 = float(np.exp(-4.0 * eta))
        return complex(
            q_gamma(-1j * lam / 2 + 0.5, q4, trunc) * q_gamma(1j * lam / 2 + 1.0, q4, trunc)
            / (q_gamma(-1j * lam / 2 + 1.0, q4, trunc) * q_gamma(1j * lam / 2 + 0.5, q4, trunc)))
    if route == "sum":
        return amplitude_sum(kernel(params, "r"), lam, eta)
    raise ValueError(f"route {route!r} not available for the non-critical S_s")


def make_s_matrix(params: RegimeParams, lam: complex, trunc=None) -> TensorOperator:
    """Bulk S-matrix including its scalar prefactor."""
    return soliton_s_amplitude(params, lam, trunc=trunc) * s_matrix_part(params, lam)


# --------------------------------------------------------------------------
# coupling map
# --------------------------------------------------------------------------


def coupling_map(mu: float) -> dict:
    """Map the critical anisotropy mu to the boson coupling beta^2.

    Both candidate values are returned with their sector ranges; the sector
    is selected by whether 8 mu falls in the attractive window (0, 4 pi).
    At mu = pi/2 the two formulas coincide (boundary).
    """
    if not 0.0 < mu < np.pi:
        raise ValueError(f"mu must lie in (0, pi), got {mu}")
    attractive = 8.0 * mu
    repulsive = 8.0 * (np.pi - mu)
    if abs(mu - np.pi / 2) < 1e-14:
        sector = "boundary"
        beta_sq = 4.0 * np.pi
    elif attractive < 4.0 * np.pi:
        sector = "attractive"
        beta_sq = attractive
    else:
        sector = "repulsive"
        beta_sq = repulsive
    return {
        "sector": sector,
        "beta_sq": beta_sq,
        "candidates": {
            "attractive": {"beta_sq": attractive, "range": (0.0, 4.0 * np.pi)},
            "repulsive": {"beta_sq": repulsive, "range": (4.0 * np.pi, 8.0 * np.pi)},
        },
    }
