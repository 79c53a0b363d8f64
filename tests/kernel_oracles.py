"""Fourier kernels of the thermodynamic description that the package does
not evaluate, used as test oracles for the ones it does.

``defectchain.transmission_amplitudes.kernel`` computes the hole kernels
rt_plus/rt_minus, the bulk kernel r, the breather kernels tb_plus/tb_minus
and the spin-defect kernel rt_spin.  The bulk density sigma0, the string
kernels a_n and b_n, the one-sided kernels frak_a and frak_b, sigma0_bar and
the displayed critical kernel B (rt before its rewriting in decaying
exponentials) live here; ``oracle_kernel`` gives them under the same
(params, name) scheme and passes every other name to the package.
"""
import numpy as np

from defectchain.lax_defect import CRITICAL, XXX
from defectchain.special_functions import FourierKernel
from defectchain.transmission_amplitudes import _half_line, _sech2, kernel


def _sinh_ratio(a: float, b: float, w):
    """sinh(a w) / sinh(b w) with the w -> 0 limit a/b filled in."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-12
    out[small] = a / b
    ws = w[~small]
    out[~small] = np.sinh(a * ws) / np.sinh(b * ws)
    return out


def _oracle_xxx(name, n):
    if name == "sigma0":
        return FourierKernel("sigma0", lambda w: _sech2(w / 2.0), decay=0.5)
    if name == "a_n":
        if n is None:
            raise ValueError("a_n needs n")
        return FourierKernel(f"a_{n}", lambda w: np.exp(-n * np.abs(w) / 2.0), decay=n / 2.0)
    if name in ("frak_a_plus", "frak_a_minus"):
        sgn = 1.0 if name.endswith("plus") else -1.0
        hat = _half_line(lambda w, sgn=sgn: np.exp(sgn * w / 2.0), -sgn)
        return FourierKernel(name, hat, odd_kind="jump", odd_origin=-sgn * 0.5, decay=0.5)
    return None


def _oracle_critical(params, name, n):
    nu, g = params.nu, params.gamma
    if name == "sigma0":
        return FourierKernel("sigma0", lambda w: _sech2(g * w / 2.0), decay=g / 2.0)
    if name in ("B_plus", "B_minus"):
        sgn = 1.0 if name.endswith("plus") else -1.0

        def hat(w, sgn=sgn):
            # as displayed: -sgn e^{sgn w/2} / (4 sinh(w/2) cosh(g w/2))
            w = np.asarray(w, dtype=float)
            return -sgn * np.exp(sgn * w / 2.0) / (4.0 * np.sinh(w / 2.0) * np.cosh(g * w / 2.0))

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
        return FourierKernel(f"a_{n}", lambda w: _sinh_ratio((nu - n) / 2.0, nu / 2.0, w),
                             decay=min(n, 2 * nu - n) / 2.0)
    if name == "b_n":
        if n is None or not 0 < n < 2 * nu or n == nu:
            raise ValueError(f"b_n needs 0 < n < 2*nu, n != nu, got {n}")
        a = n / 2.0 if n < nu else (n - 2 * nu) / 2.0
        return FourierKernel(f"b_{n}", lambda w: -_sinh_ratio(a, nu / 2.0, w),
                             decay=nu / 2.0 - abs(a))
    if name == "sigma0_bar":
        return FourierKernel(
            "sigma0_bar",
            lambda w: np.cosh((nu - 2.0) * w / 2.0) / np.cosh((nu - 1.0) * w / 2.0),
            decay=0.5)
    return None


def _oracle_noncritical(params, name, n):
    eta = params.eta
    if name == "sigma0":
        return FourierKernel("sigma0", lambda k: _sech2(eta * np.asarray(k, dtype=float)),
                             decay=1.0, discrete=True)
    if name == "a_n":
        if n is None:
            raise ValueError("a_n needs n")
        return FourierKernel(f"a_{n}",
                             lambda k: np.exp(-n * eta * np.abs(np.asarray(k, dtype=float))),
                             decay=float(n), discrete=True)
    if name in ("frak_a_plus", "frak_a_minus"):
        sgn = 1.0 if name.endswith("plus") else -1.0
        hat = _half_line(lambda k, sgn=sgn: -np.exp(sgn * eta * k), -sgn)
        return FourierKernel(name, hat, odd_kind="jump", odd_origin=sgn * 0.5, decay=1.0,
                             discrete=True)
    return None


def oracle_kernel(params, name: str, n=None, spin=None) -> FourierKernel:
    """The named kernel of the regime: an oracle kernel of this module, or
    the package's ``kernel`` for the names it computes.  ``n`` indexes the
    string kernels a_n and b_n."""
    if params.regime == XXX:
        found = _oracle_xxx(name, n)
    elif params.regime == CRITICAL:
        found = _oracle_critical(params, name, n)
    else:
        found = _oracle_noncritical(params, name, n)
    return found if found is not None else kernel(params, name, spin=spin)
