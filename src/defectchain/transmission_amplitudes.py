"""Scalar thermodynamic objects: Fourier kernels, defect transmission
amplitudes (hole, breather, spin-defect) and the scalar prefactor of the
bulk S-matrix.

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

import math
from functools import lru_cache

import numpy as np

from .lax_defect import CRITICAL, NONCRITICAL, XXX, RegimeParams
from .special_functions import (MAX_TERMS, TAIL_TOL, AmplitudeResult, ConvergenceError,
                                FloatRangeError, FourierKernel, amplitude_integral,
                                amplitude_sum, as_grid, gamma_ratio, gamma_ratio_bound,
                                half_line_sums, infinite_gamma_product, q_gamma,
                                _exp_in_range, _hurwitz_tail, _log_q_gamma)

__all__ = [
    "AmplitudeResult",
    "kernel",
    "amplitude",
    "amplitude_pair",
    "breather_amplitude",
    "type2_amplitude",
    "soliton_s_amplitude",
]


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------


def _sech2(x):
    """1 / (2 cosh x), overflow-safe."""
    ax = np.abs(x)
    return np.exp(-ax) / (1.0 + np.exp(-2.0 * ax))


def kernel(params: RegimeParams, name: str, spin: float | None = None) -> FourierKernel:
    """Named Fourier kernel of the regime: the hole kernels rt_plus and
    rt_minus, the bulk kernel r, and in the critical regime the breather
    kernels tb_plus and tb_minus, in the non-critical one the spin-defect
    kernel rt_spin (which takes ``spin``).

    Continuous regimes (isotropic, critical) give functions of a real
    frequency w; the non-critical regime gives discrete integer-mode kernels.
    """
    if params.regime == XXX:
        return _kernel_xxx(name)
    if params.regime == CRITICAL:
        return _kernel_critical(params, name)
    return _kernel_noncritical(params, name, spin)


def _half_line(values, support_sign: float):
    """Kernel supported on one frequency half-line, with the two-sided limit
    average at the origin.  The odd part then jumps at 0+, with value
    support_sign * v(0) / 2 where v is the one-sided limit."""

    def hat(w):
        w = np.asarray(w, dtype=float)
        val = values(w)
        return np.where(support_sign * w > 0, val, np.where(w == 0.0, 0.5 * val, 0.0))

    return hat


def _kernel_xxx(name: str) -> FourierKernel:
    if name in ("rt_plus", "rt_minus"):
        support = -1.0 if name == "rt_plus" else 1.0
        hat = _half_line(lambda w: _sech2(w / 2.0), support)
        return FourierKernel(name, hat, odd_kind="jump",
                             odd_origin=support * 0.25, decay=0.5)
    if name == "r":
        return FourierKernel(
            "r", lambda w: np.exp(-np.abs(w)) / (1.0 + np.exp(-np.abs(w))), decay=1.0)
    raise ValueError(f"unknown isotropic kernel {name!r}")


def _kernel_critical(params: RegimeParams, name: str) -> FourierKernel:
    nu = params.nu
    g = params.gamma

    if name in ("rt_plus", "rt_minus"):
        sgn = 1.0 if name.endswith("plus") else -1.0

        def hat(w, sgn=sgn):
            # -sgn e^{sgn w/2} / (4 sinh(w/2) cosh(g w/2)) in decaying exponentials
            w = np.asarray(w, dtype=float)
            a = np.abs(w)
            return (sgn * np.sign(w) * np.exp(sgn * w / 2.0 - (1.0 + g) * a / 2.0)
                    / (np.expm1(-a) * (1.0 + np.exp(-g * a))))

        # odd-part Laurent coefficient: K_o ~ (-sgn/2) / w near the origin
        return FourierKernel(name, hat, odd_kind="pole", odd_origin=-0.5 * sgn,
                             decay=min(g, 1.0) / 2.0)
    if name in ("tb_plus", "tb_minus"):
        sgn = 1.0 if name.endswith("plus") else -1.0

        def hat(w, sgn=sgn):
            # -e^{-sgn (nu-2) w/2} / (2 cosh((nu-1) w/2)) in decaying exponentials
            w = np.asarray(w, dtype=float)
            a = (nu - 1.0) * np.abs(w)
            return (-np.exp(-sgn * (nu - 2.0) * w / 2.0 - a / 2.0)
                    / (1.0 + np.exp(-a)))

        return FourierKernel(name, hat, odd_kind="none", decay=0.5)
    if name == "r":

        def hat(w):
            u = np.abs(np.asarray(w, dtype=float))
            return (np.exp(-g * u) - np.exp(-u)) / ((1.0 - np.exp(-u)) * (1.0 + np.exp(-g * u)))

        return FourierKernel("r", hat, decay=min(g, 1.0))
    raise ValueError(f"unknown critical kernel {name!r}")


def _kernel_noncritical(params: RegimeParams, name: str, spin) -> FourierKernel:
    eta = params.eta

    if name in ("rt_plus", "rt_minus"):
        support = -1.0 if name == "rt_plus" else 1.0
        hat = _half_line(lambda k: -_sech2(eta * k), support)
        return FourierKernel(name, hat, odd_kind="jump", odd_origin=support * -0.25,
                             decay=1.0, discrete=True)
    if name == "r":

        def hat(k):
            u = np.abs(np.asarray(k, dtype=float))
            return np.exp(-2.0 * eta * u) / (1.0 + np.exp(-2.0 * eta * u))

        return FourierKernel("r", hat, decay=2.0, discrete=True)
    if name == "rt_spin":
        if spin is None:
            raise ValueError("rt_spin needs spin")
        y = 2.0 * spin

        def hat(k, y=y):
            u = np.abs(np.asarray(k, dtype=float))
            return np.exp(-eta * y * u) / (1.0 + np.exp(-2.0 * eta * u))

        return FourierKernel("rt_spin", hat, decay=y, discrete=True)
    raise ValueError(f"unknown non-critical kernel {name!r}")


# --------------------------------------------------------------------------
# critical-regime hole amplitude: anchor + resummed ratio product
# --------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _critical_anchor(gamma: float) -> tuple[float, float]:
    """ln T+(0, gamma), the origin normalisation shared by both routes, and
    a bound on its error.

    ln A = -ln(2)/2 - 2 int_0^inf [cosh(g w/2) - cosh(w/2)]
                                  / (4 sinh(w/2) cosh(g w/2)) dw/w

    with the integrand written in decaying exponentials (cosh a - cosh b =
    2 sinh((a+b)/2) sinh((a-b)/2)), so it neither cancels near the origin
    nor overflows out to the cutoff of a slowly decaying (small gamma) kernel.
    """

    def terms(w):
        u, v = w / 2.0, gamma * w / 2.0
        rho_o = (0.5 * np.sign(gamma - 1.0) * np.exp(-np.minimum(u, v))
                 * np.expm1(-(u + v)) * np.expm1(-np.abs(v - u))
                 / (-np.expm1(-2.0 * u) * (1.0 + np.exp(-2.0 * v))))
        zero = np.zeros((w.size, 1))
        return zero, zero, (-2.0 * rho_o / w)[:, None]

    ln, err = half_line_sums(np.zeros(1), min(gamma, 1.0) / 2.0, terms)
    return float(ln[0, 0].real - 0.5 * np.log(2.0)), float(err[0, 0])


def _critical_ln_ratio(lam, gamma: float, sides):
    """ln prod_k [f_k(s lam)/f_k(0)] for the critical T+ Gamma-ratio product at
    every lam and each s in sides (+1 or -1, a column each), resummed as one
    absolutely convergent Malmsten-type integral, and a bound on its error:

        int_0^inf dt [e^{-g t/2} (e^{-i lam t} - 1) + e^{-(g/2+1) t} (e^{i lam t} - 1)]
                     (1 - e^{-g t}) / ((1 - e^{-t}) (1 - e^{-2 g t}) t)

    The bracket is 4 sin^2(lam t/2) a(t) + 2i sin(lam t) b(t), even and odd
    in lam, so the column at -lam is the one at lam with b negated, in the
    complex strip too.  The integrand decays like e^{-(g/2 - |Im lam|) t}.
    Its phases grow like e^{|Im lam| t} out to the rule's cutoff, so the
    rule reaches |Im lam| up to about 0.95 g/2 and raises ValueError beyond.
    """
    rate = gamma / 2.0 - float(np.abs(np.imag(lam)).max(initial=0.0))
    if not rate > 0:
        raise ValueError(f"|Im lam_hat| must stay below gamma/2 = {gamma / 2.0}")

    def terms(t):
        a_t = np.exp(-gamma * t / 2.0)
        b_t = a_t * np.exp(-t)
        g_t = -np.expm1(-gamma * t) / (np.expm1(-t) * np.expm1(-2.0 * gamma * t) * t)
        # the bracket is -2 sin^2(lam t/2) (A + B) + i sin(lam t) (B - A)
        a = (-0.5 * (a_t + b_t) * g_t)[:, None].repeat(sides.size, axis=1)
        b = np.multiply.outer(0.5 * a_t * np.expm1(-t) * g_t, sides)
        return a, b, np.zeros(a.shape)

    return half_line_sums(lam, rate, terms)


def _critical_ratio_product(lam_hat: float, gamma: float) -> tuple[complex, float]:
    """The same ratio product evaluated literally, factor by factor."""
    a = gamma / 2.0 + 1j * lam_hat
    b = gamma / 2.0 + 1.0 - 1j * lam_hat
    a0 = gamma / 2.0
    b0 = gamma / 2.0 + 1.0
    c2 = -(lam_hat ** 2 + 1j * lam_hat) / (4.0 * gamma)
    # the tail bound falls like 1/K^2, so K grows like tail_tol^(-1/2): at
    # 1e-9 this oracle takes 3e3 to 2e5 factors on mu in [0.3, 2], lam_hat in
    # [-10, 0.4], where the generic TAIL_TOL would run into its rounding
    # floor or MAX_TERMS
    return infinite_gamma_product(2.0 * gamma, [a, b, a0 + gamma, b0 + gamma],
                                  [a + gamma, b + gamma, a0, b0], c2, tail_tol=1e-9)


# --------------------------------------------------------------------------
# closed q-Gamma ratios on a grid
# --------------------------------------------------------------------------


def _q_gamma_ratio(num, den, q: float, lam):
    """prod Gamma_q(num_i) / prod Gamma_q(den_j) at every point lam, with the
    truncation bounds of the products as its error.  Where the factors or
    their products leave the float range (the spin-S amplitude from S ~ 4900
    at eta = 0.5) the ratio is the exp of the log-Gamma_q sum, whose
    rounding joins the error; a ratio past the float range itself raises
    FloatRangeError naming lam."""
    args = np.array(num + den)
    with np.errstate(over="ignore", invalid="ignore"):
        factors = q_gamma(args, q)
        value = factors[:len(num)].prod(axis=0) / factors[len(num):].prod(axis=0)
    err = len(factors) * TAIL_TOL * np.abs(value)
    far = ~np.isfinite(value)
    if far.any():
        logs = _log_q_gamma(args[:, far], q)
        ln = logs[:len(num)].sum(axis=0) - logs[len(num):].sum(axis=0)
        value[far] = _exp_in_range(ln[:, None], lam[far])[:, 0]
        err[far] = (len(logs) * TAIL_TOL + np.finfo(float).eps * np.abs(logs).sum(axis=0)
                    ) * np.abs(value[far])
    return value, err


# --------------------------------------------------------------------------
# hole (type-I) transmission amplitudes
# --------------------------------------------------------------------------


_ROUTES = {XXX: ("isotropic", ("closed", "integral")),
           CRITICAL: ("critical", ("closed", "product", "integral")),
           NONCRITICAL: ("non-critical", ("closed", "sum"))}


def amplitude(params: RegimeParams, sign: str, lam_hat, route: str = "closed"
              ) -> AmplitudeResult:
    """Hole-defect transmission amplitude T^{sign}(lam_hat) at a scalar or on
    a grid (value and error_estimate then have the grid's length).

    Routes: "closed" everywhere; "integral" (continuous regimes) and "sum"
    (non-critical) are the independent quadrature/summation routes;
    "product" additionally gives the literal Gamma-ratio product in the
    critical regime.  Closed routes accept complex lam_hat (the critical
    one inside its strip |Im lam_hat| < gamma/2, up to about 0.95 gamma/2,
    see _critical_ln_ratio); the quadrature routes require it real.  An
    amplitude outside the normal float range raises FloatRangeError naming
    lam_hat and the anisotropy.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return _hole_amplitudes(params, sign, lam_hat, route)[0]


def amplitude_pair(params: RegimeParams, lam_hat, route: str = "closed"
                   ) -> tuple[AmplitudeResult, AmplitudeResult]:
    """(T+, T-) of `amplitude` on the same lam_hat and route, from one pass:
    the quadrature and sum routes take both as columns of one rule, and the
    critical closed route reads its ratio integral at +lam_hat and -lam_hat
    as two columns of one rule."""
    return _hole_amplitudes(params, "+-", lam_hat, route)


def _hole_amplitudes(params: RegimeParams, signs: str, lam_hat, route: str
                     ) -> tuple[AmplitudeResult, ...]:
    """T^s(lam_hat) for each sign s in signs, each computed once."""
    regime, routes = _ROUTES[params.regime]
    if route not in routes:
        raise ValueError(f"route {route!r} not available in the {regime} regime")
    try:
        if route in ("integral", "sum"):
            kernels = [kernel(params, "rt_plus" if s == "+" else "rt_minus") for s in signs]
            return (amplitude_integral(kernels, lam_hat) if route == "integral"
                    else amplitude_sum(kernels, lam_hat, params.eta))
        lam, scalar = as_grid(lam_hat)
        columns = _closed_amplitudes(params, signs, lam, route)
    except FloatRangeError as exc:
        where = {CRITICAL: f"mu = {params.mu}",
                 NONCRITICAL: f"eta = {params.eta}"}.get(params.regime, "the isotropic point")
        raise FloatRangeError(f"T{signs[exc.column]} at lam_hat = {exc.location:.10g} is "
                              f"outside the float range at {where}",
                              location=exc.location, column=exc.column) from None
    return tuple(AmplitudeResult.on_grid(val, route, err, scalar) for val, err in columns)


def _closed_amplitudes(params: RegimeParams, signs: str, lam, route: str):
    """(values, errors) per sign of the closed (or, critical, the literal
    product) route.  xxx: Gamma ratios; non-critical: q-Gamma ratios;
    critical: T+(lam) = A r(lam) and T-(lam) = 1 / T+(-lam), with A the
    anchor and r the ratio product."""
    if params.regime != CRITICAL:
        out = []
        for s in signs:
            z = (-1j if s == "+" else 1j) * lam / 2
            a, b = (0.25, 0.75) if (s == "+") == (params.regime == XXX) else (0.75, 0.25)
            out.append(gamma_ratio_bound([z + a], [z + b]) if params.regime == XXX else
                       _q_gamma_ratio([z + a], [z + b], float(np.exp(-4.0 * params.eta)), lam))
        return out
    sides = np.array([1.0 if s == "+" else -1.0 for s in signs])
    ln_a, err_a = _critical_anchor(params.gamma)
    if route == "closed":
        ln_r, err_r = _critical_ln_ratio(lam, params.gamma, sides)
        val = _exp_in_range(sides * (ln_a + ln_r), lam)
        err = np.abs(val) * (err_a + err_r)
    else:
        prods = np.array([[_critical_ratio_product(side * x, params.gamma)
                           for side in sides] for x in lam]).reshape(lam.size, sides.size, 2)
        val = np.exp(ln_a) * prods[..., 0]
        val[:, sides < 0] = 1.0 / val[:, sides < 0]
        err = prods[..., 1].real * np.abs(val)
    return [(val[:, j], err[:, j]) for j in range(sides.size)]


# --------------------------------------------------------------------------
# breathers
# --------------------------------------------------------------------------


def _breather_one(sign: str, theta_hat, gamma: float):
    """Lightest-breather amplitude at every rapidity theta_hat, NaN where its
    denominator vanishes, and the mask of those poles."""
    shift = 1j * np.pi / (4.0 * gamma)
    if sign == "+":
        num = -np.sinh(theta_hat / 2.0 + shift)
        den = np.sinh(theta_hat / 2.0 + shift - 1j * np.pi / 2.0)
    else:
        num = -np.sinh(theta_hat / 2.0 - shift - 1j * np.pi / 2.0)
        den = np.sinh(theta_hat / 2.0 - shift)
    pole = np.abs(den) < 1e-12
    val = num / np.where(pole, 1.0, den)
    val[pole] = np.nan
    return val, pole


def breather_amplitude(sign: str, n: int, lam_hat, gamma: float,
                       route: str = "closed") -> AmplitudeResult:
    """n-breather transmission amplitude at a scalar or on a grid.

    n = 1 has both the hyperbolic closed form (in theta_hat = pi lam_hat /
    gamma) and a quadrature route; n > 1 is the fusion product of shifted
    n = 1 closed forms, lam_hat -> lam_hat + (i/2)(n + 1 - 2l).  A scalar on
    a pole raises ZeroDivisionError; on a grid the pole points read NaN.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if n < 1:
        raise ValueError(f"breather index must be >= 1, got {n}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")

    if route == "closed":
        lam, scalar = as_grid(lam_hat)
        val = np.ones(lam.shape, dtype=np.complex128)
        err = np.zeros(lam.shape)
        for ell in range(1, n + 1):
            theta = np.pi * (lam + 0.5j * (n + 1 - 2 * ell)) / gamma
            factor, pole = _breather_one(sign, theta, gamma)
            if scalar and pole[0]:
                raise ZeroDivisionError(
                    f"breather amplitude pole: sinh zero at theta_hat = {theta[0]}")
            val = val * factor
            # rounding of two sinh values whose arguments carry |theta|/2
            err += 4.0 * np.finfo(float).eps * (2.0 + np.abs(theta))
        return AmplitudeResult.on_grid(val, "closed", np.abs(val) * err, scalar)
    if route == "integral":
        if n != 1:
            raise ValueError("the integral route exists for the lightest breather only")
        nu = gamma + 1.0
        params = RegimeParams.critical(float(np.pi / nu))
        return amplitude_integral(kernel(params, "tb_plus" if sign == "+" else "tb_minus"),
                                  lam_hat)
    raise ValueError(f"unknown breather route {route!r}")


# --------------------------------------------------------------------------
# spin (type-II) defect amplitude, non-critical regime
# --------------------------------------------------------------------------


def type2_amplitude(lam_hat, eta: float, spin: float, route: str = "closed"
                    ) -> AmplitudeResult:
    """Transmission amplitude of the spin-S defect in the non-critical regime,
    at a scalar or on a grid.

    Closed form: Gamma_{q^4} ratios with the shifted spin S~ = S - 1/2; sum
    route: the even kernel e^{-eta y|k|} / (1 + e^{-2 eta |k|}), y = 2S.
    """
    two_s = round(2 * spin) if np.isfinite(spin) else 0
    if abs(2 * spin - two_s) > 1e-12 or two_s < 1:
        raise ValueError(f"2*spin must be a positive integer, got {spin}")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    s_tilde = spin - 0.5
    if route == "closed":
        lam, scalar = as_grid(lam_hat)
        q4 = float(np.exp(-4.0 * eta))
        val, err = _q_gamma_ratio(
            [-1j * lam / 2 + s_tilde / 2 + 0.25, 1j * lam / 2 + s_tilde / 2 + 0.75],
            [-1j * lam / 2 + s_tilde / 2 + 0.75, 1j * lam / 2 + s_tilde / 2 + 0.25],
            q4, lam)
        return AmplitudeResult.on_grid(val, "closed", err, scalar)
    if route == "sum":
        params = RegimeParams.noncritical(eta)
        return amplitude_sum(kernel(params, "rt_spin", spin=spin), lam_hat, eta)
    raise ValueError(f"unknown type-II route {route!r}")


# --------------------------------------------------------------------------
# bulk scattering amplitude S_s
# --------------------------------------------------------------------------


# critical S_s: the Stirling-Bernoulli series runs over n = 2 .. _S2_ORDER
# and is used where |Z| >= _S2_REACH max(max|h|, 1)
_S2_ORDER = 20
_S2_REACH = 6.0

# the Bernoulli numbers B_0 .. B_(_S2_ORDER + 2); the odd ones past B_1 vanish
_BERNOULLI = (1.0, -1 / 2, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0, 5 / 66,
              0.0, -691 / 2730, 0.0, 7 / 6, 0.0, -3617 / 510, 0.0, 43867 / 798, 0.0,
              -174611 / 330, 0.0, 854513 / 138)


@lru_cache(maxsize=16)
def _s2_series(g: float, tail_tol: float) -> tuple[np.ndarray, float]:
    """The coefficients D_n, n = 2 .. _S2_ORDER, of W(Z) ~ sum_n D_n Z^(1-n)
    (see _s2_critical_real) and the reach |Z| from which the series is used.

    The reach is _S2_REACH max(max|h|, 1), since the D_n grow like |h|^n
    and like the Bernoulli numbers, (n-2)! / (2 pi)^n, and at least so far
    that the first omitted terms, n = _S2_ORDER + 1 and + 2 (with small h
    the odd D_n nearly vanish), summed over every factor from |Z_K| on,
    stay below tail_tol: sum_k |Z_k|^(1-n) <= |Z_K|^(2-n) (1/(n-2) + 2g/|Z_K|) / (2g).
    At tail_tol = TAIL_TOL = 1e-12 the fixed reach already does so for
    every 0 < mu < pi; only a tail_tol below about 1e-15 moves it out.
    """
    h = (g - 0.5, 0.5 - g, -0.5, 0.5)
    sign = (1.0, 1.0, -1.0, -1.0)

    def bernoulli_poly(n, x):      # B_n(x) = sum_j C(n, j) B_(n-j) x^j
        return sum(math.comb(n, j) * _BERNOULLI[n - j] * x ** j for j in range(n + 1))

    d = [(-1) ** n * sum(s * bernoulli_poly(n, x) for s, x in zip(sign, h)) / (n * (n - 1))
         for n in range(2, _S2_ORDER + 3)]
    reach = _S2_REACH * max(abs(g - 0.5), 1.0)      # max|h| = max(|g - 1/2|, 1/2)
    for n in (_S2_ORDER + 1, _S2_ORDER + 2):
        omitted = abs(d[n - 2]) * (1.0 / (n - 2) + 2.0 * g / reach) / (2.0 * g)
        reach = max(reach, (omitted / tail_tol) ** (1.0 / (n - 2)))
    d = np.array(d[:-2])
    d.flags.writeable = False
    return d, reach


def _s2_critical_real(lam, g: float):
    """Critical S_s at real lam (an array): exp(2i Im sum_{k>=0} W(Z_k)) with

        W(Z) = sum_i s_i log Gamma(Z + h_i),   Z_k = 2 g k + i lam + g + 1/2,
        h = (g - 1/2, 1/2 - g, -1/2, 1/2),     s = (+, +, -, -),

    the factors of the Gamma product at the arguments i lam + 2 g k +
    (2g, 1, g, g+1) (Schwarz reflection gives their -i lam half).  As
    sum s_i = sum s_i h_i = 0, the Stirling series (DLMF 5.11.8) leaves

        W(Z) ~ sum_{n>=2} D_n Z^(1-n),   D_n = (-1)^n sum_i s_i B_n(h_i) / (n (n-1)),

    with real D_n (_s2_series).  From the first factor K with |Z_K| at the
    series' reach, the factors sum in closed form to

        sum_n D_n (2g)^(1-n) zeta(n-1, Z_K / (2g)),

    a Hurwitz zeta at a complex offset, whose n = 2 term (zeta(1, y) =
    -psi(y)) is finite in its imaginary part, the only part used.  The
    nearer factors k < K are summed exactly: the recurrence log Gamma(x+1)
    = log Gamma(x) + log x moves each one out by M to the reach,

        W(Z) = W(Z + M) - sum_{j<M} log(1 + g (1-g) / ((Z+j)^2 - 1/4)),

    so no Gamma function is evaluated.  K past MAX_TERMS raises
    ConvergenceError.  Points are evaluated one by one, so a grid call
    equals per-point calls.
    """
    d, reach = _s2_series(g, TAIL_TOL)
    s = np.arange(1.0, d.size + 1.0)        # zeta orders n - 1
    scale = d * (2.0 * g) ** -s
    out = np.empty(lam.shape, dtype=np.complex128)
    for i, x in enumerate(lam.tolist()):
        z0 = complex(g + 0.5, x)
        near = math.sqrt(max(reach ** 2 - x ** 2, 0.0)) - z0.real   # Re Z to reach
        stop = max(0, math.ceil(near / (2.0 * g)))
        if stop > MAX_TERMS:
            raise ConvergenceError(
                f"critical S_s needs {stop} exact factors for tail {TAIL_TOL}, "
                f"cap is {MAX_TERMS}")
        moved = max(0, math.ceil(near))
        z = z0 + 2.0 * g * np.arange(stop)
        # elementwise sums, not `@`: a BLAS product here touches BLAS code and
        # buffers the rest of a critical verify does not (~0.2 MB peak RSS)
        head = (np.power.outer(z + moved, -s) * d).sum() - np.log1p(
            g * (1.0 - g) / (np.add.outer(z, np.arange(moved)) ** 2 - 0.25)).sum()
        tail = (scale * _hurwitz_tail(s, stop + z0 / (2.0 * g))).sum()
        out[i] = np.exp(2j * (head + tail).imag)
    return out


def _s2_critical_product(lam: complex, g: float) -> complex:
    """Critical S_s at one complex lam, as the literal Gamma-ratio product."""
    il = 1j * lam
    c2 = -1j * lam * (g - 1.0) / (2.0 * g)
    return infinite_gamma_product(2.0 * g, [il + 2 * g, il + 1, -il + g, -il + g + 1],
                                  [il + g, il + g + 1, -il + 2 * g, -il + 1], c2)[0]


def soliton_s_amplitude(params: RegimeParams, lam, route: str = "closed"):
    """Scalar prefactor of the bulk S-matrix, at a scalar lam (a complex is
    returned) or on a grid (an array)."""
    second = "sum" if params.regime == NONCRITICAL else "integral"
    if route not in ("closed", second):
        regime = {XXX: "isotropic", CRITICAL: "critical"}.get(params.regime, "non-critical")
        raise ValueError(f"route {route!r} not available for the {regime} S_s")
    if route == "sum":
        return amplitude_sum(kernel(params, "r"), lam, params.eta).value
    if route == "integral":
        return amplitude_integral(kernel(params, "r"), lam).value

    grid, scalar = as_grid(lam)
    if params.regime == XXX:
        val = gamma_ratio([-1j * grid / 2 + 0.5, 1j * grid / 2 + 1.0],
                          [-1j * grid / 2 + 1.0, 1j * grid / 2 + 0.5])
    elif params.regime == CRITICAL:
        val = np.empty(grid.shape, dtype=np.complex128)
        near_real = np.abs(np.imag(grid)) < 1e-14
        if np.any(near_real):
            val[near_real] = _s2_critical_real(np.real(grid[near_real]), params.gamma)
        for i in np.flatnonzero(~near_real):
            val[i] = _s2_critical_product(complex(grid[i]), params.gamma)
    else:
        q4 = float(np.exp(-4.0 * params.eta))
        val, _ = _q_gamma_ratio([-1j * grid / 2 + 0.5, 1j * grid / 2 + 1.0],
                                [-1j * grid / 2 + 1.0, 1j * grid / 2 + 0.5], q4, grid)
    return complex(val[0]) if scalar else val
