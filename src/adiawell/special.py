"""Special functions for the transition and aftermath regimes.

Three objects live here.  The Airy pair inside the transition profile comes
from scipy.special.airy (AMOS; Amos, ACM TOMS 12 (1986) 265); the moment
integral and the lattice sum have no scipy form and are evaluated here.  The
test suite checks each against direct contour quadrature or frozen mpmath
values:

``f_transition(z)``
    The combination sqrt(pi) * exp(-2*z**3/3 - i*pi/12) * (z*Ai(z**2) -
    Ai'(z**2)) that interpolates between the bound-state phase and the decayed
    tail.  On the ray z = exp(i*pi/6)*Z, Z real, it limits to
    Z**(1/2) * exp(-4i*Z**3/3) as Z -> +inf and to (-i/8)*(-Z)**(-5/2) as
    Z -> -inf.  AMOS returns NaN where Ai overflows or |z**2| > 2**20 (on
    the ray, |Z| > 1024); AccuracyLoss is raised there.

``a_fn(z, deriv)``
    The moment integral a(z) = int_0^inf exp(-u**3/3 + i*z*u**2) * u du for
    real z, plus its first two z-derivatives.  The defining ray is rotated to
    u = exp(+i*pi/12)*r for z > 0 and exp(-i*pi/12)*r for z < 0, which makes
    both exponentials decay (Re(i*z*u**2) = -|z|*r**2/2), and the integral is
    done by graded Gauss-Legendre panels; for |z| >= 30 a termwise Mellin
    expansion in powers of z**(-3/2) takes over (leading term i/(2*z)).

``zeta_fn(t)``
    The renormalized lattice sum lim_{L->inf} [sum_{l<L} (l + 1/2 - t)**(-1/2)
    - 2*sqrt(L)], analytic off the cut [1/2, inf).  Computed by summing the
    first L terms and closing with an Euler-Maclaurin tail through the fifth
    derivative, giving ~1e-12 absolute accuracy for moderate |t|.
"""

from __future__ import annotations

from math import gamma

import numpy as np
import scipy.special

from ._panels import gl_panels
from .errors import AccuracyLoss, OnCut

__all__ = ["f_transition", "a_fn", "zeta_fn"]

_SQRT_PI = np.sqrt(np.pi)


def f_transition(z):
    """sqrt(pi) * exp(-2 z^3/3 - i pi/12) * (z Ai(z^2) - Ai'(z^2))."""
    zz = np.asarray(z, dtype=complex)
    ai, aip, _, _ = scipy.special.airy(zz * zz)
    if not (np.all(np.isfinite(ai)) and np.all(np.isfinite(aip))):
        raise AccuracyLoss("scipy.special.airy gave a non-finite value: z^2 out of range")
    out = _SQRT_PI * np.exp(-2.0 * zz**3 / 3.0 - 1j * np.pi / 12.0) * (zz * ai - aip)
    return complex(out) if np.ndim(z) == 0 else out


# =====================================================================
# the moment integral a(z)
# =====================================================================

_A_ASY_CUTOFF = 30.0
_A_ASY_TERMS = 9


def _a_fn_quad(z: float, deriv: int) -> complex:
    """Rotated-ray panel quadrature of the defining integral."""
    theta = np.pi / 12.0 * np.sign(z)
    rot = np.exp(1j * theta)
    # graded breakpoints: fine near 0 on the oscillation scale, out to decay
    step = 0.6 / np.sqrt(1.0 + abs(z))
    pts = [0.0, step]
    while pts[-1] < 6.5:
        pts.append(min(pts[-1] * 1.7, 6.5))
    nodes, weights = gl_panels(np.array(pts), 16)
    u = rot * nodes
    f = np.exp(-(u**3) / 3.0 + 1j * z * u * u) * u * (1j * u * u) ** deriv
    return complex(np.sum(weights * f) * rot)


def _a_fn_asymp(z: np.ndarray, deriv: int) -> np.ndarray:
    """Termwise Mellin expansion; leading term i/(2z), valid |z| >> 1."""
    miz = -1j * z
    out = np.zeros_like(z, dtype=complex)
    coef = 1.0
    for m in range(_A_ASY_TERMS):
        s_m = 0.5 * (3 * m + 2)
        term = 0.5 * coef * (1j**deriv) * gamma(s_m + deriv) * miz ** -(s_m + deriv)
        out += term
        coef *= -1.0 / (3.0 * (m + 1.0))
    return out


def a_fn(z, deriv: int = 0):
    """a(z) = int_0^inf exp(-u^3/3 + i z u^2) u du and d/dz derivatives.

    Real z, scalar or array; deriv in {0, 1, 2}.
    """
    if deriv not in (0, 1, 2):
        raise ValueError("deriv must be 0, 1 or 2")
    zz = np.asarray(z, dtype=float)
    scalar = np.ndim(z) == 0
    flat = np.atleast_1d(zz).astype(float)
    out = np.zeros(flat.shape, dtype=complex)
    far = np.abs(flat) >= _A_ASY_CUTOFF
    if np.any(far):
        out[far] = _a_fn_asymp(flat[far].astype(complex), deriv)
    for i in np.nonzero(~far)[0]:
        out[i] = _a_fn_quad(float(flat[i]), deriv)
    out = out.reshape(zz.shape)
    return complex(out) if scalar else out


# =====================================================================
# the renormalized lattice sum zeta(t)
# =====================================================================


def zeta_fn(t):
    """lim_L [sum_{l=0}^{L-1} (l + 1/2 - t)^{-1/2} - 2 sqrt(L)] off [1/2, inf).

    Scalar or array argument; principal square roots throughout.  Satisfies
    zeta(0) = (sqrt(2) - 1) * zeta_R(1/2) and zeta(t) = -2 sqrt(-t) + O(|t|^{-3/2})
    as t -> -inf in the cut plane.
    """
    tt = np.asarray(t, dtype=complex)
    scalar = np.ndim(t) == 0
    flat = np.atleast_1d(tt)
    if np.any((flat.imag == 0.0) & (flat.real >= 0.5)):
        raise OnCut("zeta_fn is not defined on the cut [1/2, inf)")
    big = float(np.max(np.abs(flat))) if flat.size else 0.0
    count = int(max(100, np.ceil(10.0 * big)))
    ell = np.arange(count, dtype=float)
    base = ell.reshape((-1,) + (1,) * flat.ndim) + (0.5 - flat)[None, ...]
    partial = np.sum(1.0 / np.sqrt(base), axis=0)
    g = count + 0.5 - flat
    tail = (
        -2.0 * np.sqrt(g)
        + 0.5 * g**-0.5
        + g**-1.5 / 24.0
        - g**-3.5 / 384.0
        + g**-5.5 / 1024.0
    )
    out = (partial + tail).reshape(tt.shape)
    return complex(out) if scalar else out
