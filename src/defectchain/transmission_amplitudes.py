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
integral (route ``closed``) or through the literal Gamma-ratio product (route
``product``).  The normalisation A(gamma) = T+(0) is fixed by the same origin
prescription the quadrature route uses, so the two routes share only that one
constant and are otherwise independent evaluations of the lam-dependence.

Each route evaluates the hole amplitude T+ alone.  Unitarity T-(x) T+(-x) = 1
and real analyticity T+(-x) = conj T+(conj x) (the kernel rt_minus is rt_plus
at -w) make T-(x) = 1 / conj T+(conj x) in every regime: T- is T+ reflected.

The critical bulk prefactor S_s is an infinite Gamma-ratio product too; one
engine, ``special_functions.infinite_gamma_product``, sums both products.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import EXP_REACH, LN_TINY
from .lax_defect import CRITICAL, NONCRITICAL, XXX, RegimeParams
from .special_functions import (AmplitudeResult, FloatRangeError, FourierKernel, PoleError,
                                amplitude_integral, as_grid, exp_in_range, gamma_ratio,
                                gamma_ratio_bound, half_line_sums, infinite_gamma_product,
                                q_gamma_ratio)

__all__ = [
    "AmplitudeResult",
    "kernel",
    "amplitude_pair",
    "breather_amplitude",
    "type2_amplitude",
    "soliton_s_amplitude",
    "second_route",
]


# largest eta whose nome q^4 = e^(-4 eta) is a normal float
_MAX_NOME_ETA = -0.25 * LN_TINY


def _nome(eta: float) -> float:
    """q^4 = e^(-4 eta), the nome of the non-critical q-Gamma ratios, or a
    ValueError naming eta where it underflows (below the smallest normal)."""
    if eta > _MAX_NOME_ETA:
        raise ValueError(f"eta = {eta} puts q^4 = e^(-4 eta) below the smallest normal float; "
                         f"the q-Gamma ratios need eta <= {_MAX_NOME_ETA:.6g}")
    return float(np.exp(-4.0 * eta))


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------


def _sech2(x):
    """1 / (2 cosh x), overflow-safe."""
    ax = np.abs(x)
    return np.exp(-ax) / (1.0 + np.exp(-2.0 * ax))


def kernel(params: RegimeParams, name: str) -> FourierKernel:
    """Named Fourier kernel of the regime: the hole kernels rt_plus and
    rt_minus, the bulk kernel r, and in the critical regime the breather
    kernels tb_plus and tb_minus (the spin defect's kernel is _kernel_spin).

    Continuous regimes (isotropic, critical) give functions of a real
    frequency w; the non-critical regime gives integer-mode kernels on the
    lattice w = 2 eta k, with decay rates per mode.
    """
    if params.regime == XXX:
        return _kernel_xxx(name)
    if params.regime == CRITICAL:
        return _kernel_critical(params.gamma, name)
    return _kernel_noncritical(params.eta, name)


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


def _kernel_critical(g: float, name: str) -> FourierKernel:
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
            # -e^{-sgn (g-1) w/2} / (2 cosh(g w/2)) in decaying exponentials
            w = np.asarray(w, dtype=float)
            a = g * np.abs(w)
            return (-np.exp(-sgn * (g - 1.0) * w / 2.0 - a / 2.0)
                    / (1.0 + np.exp(-a)))

        return FourierKernel(name, hat, odd_kind="none", decay=0.5)
    if name == "r":

        def hat(w):
            u = np.abs(np.asarray(w, dtype=float))
            return (np.exp(-g * u) - np.exp(-u)) / ((1.0 - np.exp(-u)) * (1.0 + np.exp(-g * u)))

        return FourierKernel("r", hat, decay=min(g, 1.0))
    raise ValueError(f"unknown critical kernel {name!r}")


def _kernel_noncritical(eta: float, name: str) -> FourierKernel:
    if name in ("rt_plus", "rt_minus"):
        support = -1.0 if name == "rt_plus" else 1.0
        hat = _half_line(lambda k: -_sech2(eta * k), support)
        return FourierKernel(name, hat, odd_kind="jump", odd_origin=support * -0.25,
                             decay=1.0 * eta, eta=eta)
    if name == "r":

        def hat(k):
            u = np.abs(np.asarray(k, dtype=float))
            return np.exp(-2.0 * eta * u) / (1.0 + np.exp(-2.0 * eta * u))

        return FourierKernel("r", hat, decay=2.0 * eta, eta=eta)
    raise ValueError(f"unknown non-critical kernel {name!r}")


def _kernel_spin(eta: float, spin: float) -> FourierKernel:
    """The spin-S defect's even mode kernel e^{-eta y|k|} / (1 + e^{-2 eta |k|}),
    y = 2S."""
    y = 2.0 * spin

    def hat(k):
        u = np.abs(np.asarray(k, dtype=float))
        return np.exp(-eta * y * u) / (1.0 + np.exp(-2.0 * eta * u))

    return FourierKernel("rt_spin", hat, decay=y * eta, eta=eta)


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
        zero = np.zeros(w.size)
        return zero, zero, -2.0 * rho_o / w

    ln, err = half_line_sums(np.zeros(1), min(gamma, 1.0) / 2.0, terms)
    return float(ln[0].real - 0.5 * np.log(2.0)), float(err[0])


def _critical_ln_ratio(lam, gamma: float):
    """ln prod_k [f_k(lam)/f_k(0)] for the critical T+ Gamma-ratio product at
    every lam, resummed as one absolutely convergent Malmsten-type integral,
    and a bound on its error:

        int_0^inf dt [e^{-g t/2} (e^{-i lam t} - 1) + e^{-(g/2+1) t} (e^{i lam t} - 1)]
                     (1 - e^{-g t}) / ((1 - e^{-t}) (1 - e^{-2 g t}) t)

    The bracket is 4 sin^2(lam t/2) a(t) + 2i sin(lam t) b(t) with real a
    and b, so the integral at -lam is the conjugate of the one at conj lam.
    The integrand decays like e^{-(g/2 - |Im lam|) t}.  Its phases grow like
    e^{|Im lam| t} out to the rule's cutoff, so the rule reaches |Im lam| up
    to about 0.95 g/2 and raises ValueError beyond.
    """
    rate = gamma / 2.0 - float(np.abs(np.imag(lam)).max(initial=0.0))
    if not rate > 0:
        raise ValueError(f"|Im lam_hat| must stay below gamma/2 = {gamma / 2.0}")

    def terms(t):
        a_t = np.exp(-gamma * t / 2.0)
        b_t = a_t * np.exp(-t)
        g_t = -np.expm1(-gamma * t) / (np.expm1(-t) * np.expm1(-2.0 * gamma * t) * t)
        # the bracket is -2 sin^2(lam t/2) (A + B) + i sin(lam t) (B - A)
        a = -0.5 * (a_t + b_t) * g_t
        return a, 0.5 * a_t * np.expm1(-t) * g_t, np.zeros(a.shape)

    return half_line_sums(lam, rate, terms)


def _critical_ln_product(lam, gamma: float):
    """_critical_ln_ratio's ln prod_k [f_k(lam)/f_k(0)] and its error bound by the
    literal Gamma-ratio product; a pole raises PoleError at the index of its lam."""
    x, half = 1j * lam, gamma / 2.0
    return infinite_gamma_product(2.0 * gamma,
                                  [half + x, half + 1.0 - x, 3.0 * half, 3.0 * half + 1.0],
                                  [3.0 * half + x, 3.0 * half + 1.0 - x, half, half + 1.0])


# --------------------------------------------------------------------------
# hole (type-I) transmission amplitudes
# --------------------------------------------------------------------------


_ROUTES = {XXX: ("isotropic", ("closed", "integral")),
           CRITICAL: ("critical", ("closed", "product", "integral")),
           NONCRITICAL: ("non-critical", ("closed", "sum"))}


def second_route(params: RegimeParams) -> str:
    """The regime's route independent of the closed forms: the mode sum in
    the non-critical regime, the half-line quadrature otherwise."""
    return "sum" if params.regime == NONCRITICAL else "integral"


def amplitude_pair(params: RegimeParams, lam_hat, route: str = "closed"
                   ) -> tuple[AmplitudeResult, AmplitudeResult]:
    """The hole-defect transmission amplitudes (T+, T-)(lam_hat) at a scalar
    or on a grid (value and error_estimate then have the grid's length):
    T+ at lam_hat and, off the real axis, at conj lam_hat, and T-(lam_hat) =
    1 / conj T+(conj lam_hat) with T+'s relative estimate and its rounding.

    Routes: "closed" everywhere; "integral" (continuous regimes) and "sum"
    (non-critical) are the independent quadrature/summation routes;
    "product" additionally gives the literal Gamma-ratio product in the
    critical regime.  Closed routes accept complex lam_hat (the critical
    one inside its strip |Im lam_hat| < gamma/2, up to about 0.95 gamma/2,
    see _critical_ln_ratio), the product route any complex lam_hat off the
    poles of its Gammas; the quadrature routes require it real.  A pole of
    the product raises PoleError, an amplitude outside the normal float
    range FloatRangeError, each naming the amplitude and lam_hat.
    """
    regime, routes = _ROUTES[params.regime]
    if route not in routes:
        raise ValueError(f"route {route!r} not available in the {regime} regime")
    lam, scalar = as_grid(lam_hat, real=route in ("integral", "sum"))
    off, n = np.flatnonzero(np.imag(lam)), lam.size
    at = np.concatenate([lam, lam[off].conj()])

    def named(x):
        # (column, lam_hat) of the point x: every point of `at` with x's value
        # reads the same T+, bit for bit, so the first one names it
        return (0, x) if np.argmax(at == x) < n else (1, np.conj(x))

    def out_of_range(column, x):
        where = {CRITICAL: f"mu = {params.mu}",
                 NONCRITICAL: f"eta = {params.eta}"}.get(params.regime, "the isotropic point")
        return FloatRangeError(f"T{'+-'[column]} at lam_hat = {x:.10g} is outside the float "
                               f"range at {where}", location=x)

    try:
        plus, err = _t_plus(params, at, route)
    except FloatRangeError as exc:
        raise out_of_range(*named(exc.location)) from None
    except PoleError as exc:
        if route != "product":
            raise
        column, x = named(at[exc.location[0]])
        raise PoleError(f"a Gamma of the product for T{'+-'[column]} has a pole at lam_hat = "
                        f"{x:.10g}", location=x) from None
    mirror = np.arange(n)       # where T+(conj lam_hat) is
    mirror[off] = n + np.arange(off.size)
    with np.errstate(over="ignore"):
        minus = 1.0 / plus[mirror].conj()
    small = np.abs(minus) < np.finfo(float).tiny
    if small.any():
        raise out_of_range(1, lam[np.argmax(small)].item())
    minus_err = np.abs(minus) * (err[mirror] / np.abs(plus[mirror]) + 2.0 * np.finfo(float).eps)
    return (AmplitudeResult.on_grid(plus[:n], err[:n], scalar),
            AmplitudeResult.on_grid(minus, minus_err, scalar))


# left out of __all__: the package reads both signs wherever it reads one;
# clibench/worker.py times its first call, and the tests read one sign
def amplitude(params: RegimeParams, sign: str, lam_hat, route: str = "closed"
              ) -> AmplitudeResult:
    """T^sign(lam_hat) by `route`: the column of `amplitude_pair` for sign."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return amplitude_pair(params, lam_hat, route)["+-".index(sign)]


def _t_plus(params: RegimeParams, lam, route: str):
    """(values, errors) of T+ at every lam by `route`: the rt_plus kernel's transform
    (integral, sum), Gamma (xxx) or q-Gamma (non-critical) ratios, or critically A
    r(lam), A the anchor and r the ratio product, resummed (closed) or literal."""
    if route in ("integral", "sum"):
        res = amplitude_integral(kernel(params, "rt_plus"), lam)
        return res.value, res.error_estimate
    z = -1j * lam / 2
    if params.regime == XXX:
        return gamma_ratio_bound([z + 0.25], [z + 0.75])
    if params.regime == NONCRITICAL:
        return q_gamma_ratio([z + 0.75], [z + 0.25], _nome(params.eta), lam)
    ln_a, err_a = _critical_anchor(params.gamma)
    ratio = _critical_ln_ratio if route == "closed" else _critical_ln_product
    ln_r, err_r = ratio(lam, params.gamma)
    val = exp_in_range(ln_a + ln_r, lam)
    return val, np.abs(val) * (err_a + err_r)


# --------------------------------------------------------------------------
# breathers
# --------------------------------------------------------------------------


# past |Re theta_hat| = 2 EXP_REACH the sinh ratio of `_breather_one` is its limit
# to e^(-2 EXP_REACH) relative, and its sinh values, about e^EXP_REACH, near overflow
_BREATHER_REACH = 2 * EXP_REACH


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
    """n-breather transmission amplitude at a scalar or on a grid, at the
    gamma of a critical RegimeParams.

    n = 1 has both the hyperbolic closed form (in theta_hat = pi lam_hat /
    gamma) and a quadrature route; n > 1 is the fusion product of shifted
    n = 1 closed forms, lam_hat -> lam_hat + (i/2)(n + 1 - 2l).  A scalar on
    a pole raises ZeroDivisionError; on a grid the pole points read NaN.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if n < 1:
        raise ValueError(f"breather index must be >= 1, got {n}")

    if route == "closed":
        lam, scalar = as_grid(lam_hat)
        # the real part clipped where the ratio is at its limit, so neither
        # pi lam_hat nor a sinh overflows
        reach = _BREATHER_REACH * gamma / np.pi
        lam = np.clip(lam.real, -reach, reach) + 1j * lam.imag if np.iscomplexobj(lam) \
            else np.clip(lam, -reach, reach)
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
        return AmplitudeResult.on_grid(val, np.abs(val) * err, scalar)
    if route == "integral":
        if n != 1:
            raise ValueError("the integral route exists for the lightest breather only")
        tb = _kernel_critical(gamma, "tb_plus" if sign == "+" else "tb_minus")
        return amplitude_integral(tb, lam_hat)
    raise ValueError(f"unknown breather route {route!r}")


# --------------------------------------------------------------------------
# spin (type-II) defect amplitude, non-critical regime
# --------------------------------------------------------------------------


def type2_amplitude(lam_hat, eta: float, spin: float, route: str = "closed"
                    ) -> AmplitudeResult:
    """Transmission amplitude of the spin-S defect in the non-critical regime,
    at a scalar or on a grid, at the eta of a RegimeParams.

    Closed form: Gamma_{q^4} ratios with the shifted spin S~ = S - 1/2; sum
    route: the mode sum of _kernel_spin.
    """
    two_s = round(2 * spin) if np.isfinite(spin) else 0
    if abs(2 * spin - two_s) > 1e-12 or two_s < 1:
        raise ValueError(f"2*spin must be a positive integer, got {spin}")
    s_tilde = spin - 0.5
    if route == "closed":
        lam, scalar = as_grid(lam_hat)
        z, s = -1j * lam / 2, s_tilde / 2
        val, err = q_gamma_ratio([z + s + 0.25, -z + s + 0.75], [z + s + 0.75, -z + s + 0.25],
                                 _nome(eta), lam)
        return AmplitudeResult.on_grid(val, err, scalar)
    if route == "sum":
        return amplitude_integral(_kernel_spin(eta, spin), lam_hat)
    raise ValueError(f"unknown type-II route {route!r}")


# --------------------------------------------------------------------------
# bulk scattering amplitude S_s
# --------------------------------------------------------------------------


def _s_critical(lam, g: float):
    """Critical S_s = prod_k G(2 g k + i lam) / G(2 g k - i lam) at every lam,
    G(z) = Gamma(z + 2g) Gamma(z + 1) / (Gamma(z + g) Gamma(z + g + 1)); at
    real lam, where the halves are conjugate, exp(2i Im log) of the first."""
    val = np.empty(lam.shape, dtype=np.complex128)
    near_real = np.abs(np.imag(lam)) < 1e-14
    il = 1j * np.real(lam[near_real])
    half, _ = infinite_gamma_product(2 * g, [il + 2 * g, il + 1], [il + g, il + g + 1])
    val[near_real] = np.exp(2j * half.imag)
    if not near_real.all():
        il = 1j * lam[~near_real]
        try:
            full, _ = infinite_gamma_product(2 * g, [il + 2 * g, il + 1, g - il, g + 1 - il],
                                             [il + g, il + g + 1, 2 * g - il, 1 - il])
        except PoleError as exc:
            at = lam[~near_real][exc.location]
            raise PoleError(f"S_s: a Gamma pole at lam = {at:.10g}", location=at) from None
        val[~near_real] = np.exp(full)
    return val


def soliton_s_amplitude(params: RegimeParams, lam, route: str = "closed"):
    """Scalar prefactor of the bulk S-matrix, at a scalar lam (a complex is
    returned) or on a grid (an array)."""
    second = second_route(params)
    if route not in ("closed", second):
        regime = {XXX: "isotropic", CRITICAL: "critical"}.get(params.regime, "non-critical")
        raise ValueError(f"route {route!r} not available for the {regime} S_s")
    if route == second:
        return amplitude_integral(kernel(params, "r"), lam).value

    grid, scalar = as_grid(lam)
    z = -1j * grid / 2
    num, den = [z + 0.5, -z + 1.0], [z + 1.0, -z + 0.5]
    if params.regime == XXX:
        val = gamma_ratio(num, den)
    elif params.regime == CRITICAL:
        val = _s_critical(grid, params.gamma)
    else:
        val = q_gamma_ratio(num, den, _nome(params.eta), grid)[0]
    return complex(val[0]) if scalar else val
