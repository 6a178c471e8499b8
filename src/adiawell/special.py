"""Special functions for the transition and aftermath regimes.

Four objects live here, all evaluated to roughly 1e-9 absolute accuracy or
better without leaning on scipy.special (the test suite cross-checks against
scipy and against direct contour quadrature, keeping two independent routes):

``airy_ai(s, deriv)``
    The Airy function Ai and its derivative on the complex plane.  Maclaurin
    series inside ``switch_radius``, the compound large-argument expansion
    outside; arguments deep in the left half plane are folded back with the
    three-fold rotation identity Ai(z) + w*Ai(w*z) + w^2*Ai(w^2*z) = 0,
    w = exp(2*pi*i/3).

``f_transition(z)``
    The combination sqrt(pi) * exp(-2*z**3/3 - i*pi/12) * (z*Ai(z**2) -
    Ai'(z**2)) that interpolates between the bound-state phase and the decayed
    tail.  On the ray z = exp(i*pi/6)*Z, Z real, it limits to
    Z**(1/2) * exp(-4i*Z**3/3) as Z -> +inf and to (-i/8)*(-Z)**(-5/2) as
    Z -> -inf.

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

from ._panels import gl_panels
from .errors import AccuracyLoss, OnCut

__all__ = ["airy_ai", "f_transition", "a_fn", "zeta_fn"]

_EPS_MACH = 2.3e-16
_OMEGA = np.exp(2j * np.pi / 3.0)
_AI0 = 3.0 ** (-2.0 / 3.0) / gamma(2.0 / 3.0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / gamma(1.0 / 3.0)
_SQRT_PI = np.sqrt(np.pi)

# Airy evaluation: Maclaurin terms kept inside the switch radius, the |z| at
# which the large-z expansion takes over, and the error estimate above which
# AccuracyLoss is raised
_TRUNCATION_ORDER = 60
_SWITCH_RADIUS = 6.0
_TARGET_ABS_TOL = 1e-8


# =====================================================================
# Airy
# =====================================================================


def _airy_series(z: np.ndarray, n_terms: int):
    """Maclaurin evaluation; returns (ai, aip, max_term_magnitude)."""
    z = np.asarray(z, dtype=complex)
    z3 = z * z * z
    tf = np.ones_like(z)          # term of f  = sum z^{3k} prod
    tg = z.copy()                 # term of g  = sum z^{3k+1} prod
    tfp = 0.5 * z * z             # term of f' starting at k = 1
    tgp = np.ones_like(z)         # term of g' starting at k = 0
    f, g, fp, gp = tf.copy(), tg.copy(), np.zeros_like(z), tgp.copy()
    peak = np.maximum(np.abs(tf), np.abs(tg))
    for k in range(1, n_terms + 1):
        tf = tf * z3 / ((3 * k) * (3 * k - 1.0))
        tg = tg * z3 / ((3 * k + 1) * (3 * k))
        f += tf
        g += tg
        if k == 1:
            fp += tfp
        else:
            tfp = tfp * z3 / ((3 * k - 1.0) * (3 * k - 3.0))
            fp += tfp
        tgp = tgp * z3 / ((3 * k) * (3 * k - 2.0))
        gp += tgp
        peak = np.maximum(peak, np.maximum(np.abs(tf), np.abs(tg)))
    ai = _AI0 * f + _AIP0 * g
    aip = _AI0 * fp + _AIP0 * gp
    return ai, aip, peak


def _airy_asymp(z: np.ndarray, max_terms: int = 36):
    """Compound expansion for |arg z| < pi; returns (ai, aip, err_est)."""
    z = np.asarray(z, dtype=complex)
    zeta = (2.0 / 3.0) * z ** 1.5
    inv = 1.0 / zeta
    su = np.ones_like(z)
    sv = np.ones_like(z)
    u_k = 1.0
    term = np.ones_like(z)
    last = np.full(z.shape, np.inf)
    err = np.zeros(z.shape)
    alive = np.ones(z.shape, dtype=bool)
    for k in range(1, max_terms + 1):
        u_k = u_k * (6 * k - 5.0) * (6 * k - 3.0) * (6 * k - 1.0) / (216.0 * k * (2 * k - 1.0))
        v_k = u_k * (6 * k + 1.0) / (1.0 - 6.0 * k)
        term = term * (-inv)
        mag = np.abs(term) * u_k
        grew = mag > last
        # freeze entries whose terms started growing (optimal truncation)
        err = np.where(alive & grew, last, err)
        alive = alive & ~grew
        su = np.where(alive, su + term * u_k, su)
        sv = np.where(alive, sv + term * v_k, sv)
        last = mag
    err = np.where(alive, last, err)
    quarter = z ** 0.25
    damp = np.exp(-zeta)
    pref = damp / (2.0 * _SQRT_PI * quarter)
    ai = pref * su
    aip = -quarter * damp / (2.0 * _SQRT_PI) * sv
    scale = np.maximum(np.abs(pref), np.abs(quarter * damp / (2.0 * _SQRT_PI)))
    floor = np.exp(-2.0 * np.abs(zeta).clip(max=600))
    return ai, aip, scale * (err + floor)


def _airy_pair(z: np.ndarray):
    """(ai, aip, err_est) on the full plane, dispatching by |z| and arg z."""
    z = np.asarray(z, dtype=complex)
    ai = np.zeros_like(z)
    aip = np.zeros_like(z)
    err = np.zeros(z.shape)

    near = np.abs(z) <= _SWITCH_RADIUS
    if np.any(near):
        a, ap, peak = _airy_series(z[near], _TRUNCATION_ORDER)
        ai[near], aip[near] = a, ap
        err[near] = peak * _EPS_MACH

    far = ~near
    if np.any(far):
        zf = z[far]
        # the expansion sector: beyond 2*pi/3 both rotated children land
        # strictly inside it, so the connection recursion terminates at depth 1
        good = np.abs(np.angle(zf)) <= 2.0 * np.pi / 3.0
        af = np.zeros_like(zf)
        apf = np.zeros_like(zf)
        ef = np.zeros(zf.shape)
        if np.any(good):
            af[good], apf[good], ef[good] = _airy_asymp(zf[good])
        if np.any(~good):
            # rotate into the good sector: Ai(z) = -w*Ai(w z) - w^2*Ai(w^2 z)
            zb = zf[~good]
            a1, ap1, e1 = _airy_pair(_OMEGA * zb)
            a2, ap2, e2 = _airy_pair(zb / _OMEGA)
            af[~good] = -_OMEGA * a1 - _OMEGA**2 * a2
            apf[~good] = -_OMEGA**2 * ap1 - _OMEGA * ap2
            ef[~good] = e1 + e2
        ai[far], aip[far], err[far] = af, apf, ef
    return ai, aip, err


def airy_ai(s, deriv: int = 0):
    """Ai(s) (deriv=0) or Ai'(s) (deriv=1) for complex s, scalar or array."""
    if deriv not in (0, 1):
        raise ValueError("deriv must be 0 or 1")
    z = np.asarray(s, dtype=complex)
    scalar = np.ndim(s) == 0
    ai, aip, err = _airy_pair(np.atleast_1d(z))
    val = ai if deriv == 0 else aip
    bad = err > _TARGET_ABS_TOL * np.maximum(1.0, np.abs(val))
    if np.any(bad):
        worst = float(np.max(err))
        raise AccuracyLoss(
            f"airy_ai error estimate {worst:.2e} exceeds target "
            f"{_TARGET_ABS_TOL:.2e}"
        )
    out = val.reshape(z.shape)
    return complex(out) if scalar else out


def f_transition(z):
    """sqrt(pi) * exp(-2 z^3/3 - i pi/12) * (z Ai(z^2) - Ai'(z^2))."""
    zz = np.asarray(z, dtype=complex)
    scalar = np.ndim(z) == 0
    w = zz * zz
    ai = airy_ai(w, 0)
    aip = airy_ai(w, 1)
    out = _SQRT_PI * np.exp(-2.0 * zz**3 / 3.0 - 1j * np.pi / 12.0) * (zz * ai - aip)
    return complex(out) if scalar else np.asarray(out)


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
