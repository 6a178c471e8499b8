"""Special functions for the transition and aftermath regimes.

Three objects live here, all computed with numpy and the standard library
alone.  The test suite checks each against an independent reference:
scipy.special.airy (AMOS; Amos, ACM TOMS 12 (1986) 265) and frozen 30-digit
mpmath values for the transition profile, plain quadrature for the moment
integral, and frozen mpmath Hurwitz-zeta values for the lattice sum.

``f_transition(z)``
    The combination sqrt(pi) * exp(-2*z**3/3 - i*pi/12) * (z*Ai(z**2) -
    Ai'(z**2)) that interpolates between the bound-state phase and the decayed
    tail.  On the ray z = exp(i*pi/6)*Z, Z real, it limits to
    Z**(1/2) * exp(-4i*Z**3/3) as Z -> +inf and to (-i/8)*(-Z)**(-5/2) as
    Z -> -inf.  The Airy pair follows Gil, Segura & Temme, Numer. Algorithms
    30 (2002) 11: the Maclaurin series near w = z**2 = 0 and near the Stokes
    lines |arg w| = 2*pi/3, and elsewhere K_{1/3}, K_{2/3} (DLMF 9.6.1-2) by
    generalized Gauss-Laguerre quadrature of DLMF 10.32.8, continued past
    |arg w| = 2*pi/3 by DLMF 9.2.11.  The exponential factor exp(-4*z**3/3)
    is taken in exact integer arithmetic, so F keeps its digits on the ray
    out to |Z| = 1024.  AccuracyLoss is raised where |z**2| > 2**20 (the
    range AMOS accepts) or where F itself overflows.

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

import cmath
from math import gamma, pi, sqrt

import numpy as np

from ._panels import gl_panels
from .errors import AccuracyLoss, OnCut

__all__ = ["f_transition", "a_fn", "zeta_fn"]


# =====================================================================
# the transition profile F(z)
# =====================================================================

# the range AMOS accepts, |w| <= 2**20 for w = z**2; on the ray |Z| <= 1024
_W_MAX = 2.0**20
# With zeta = (2/3) w**1.5 and kappa = (|zeta| + Re zeta)/2, w takes the
# Maclaurin series where kappa <= _SERIES_KAPPA and |zeta| <= _SERIES_ZETA.
# There the series loses at most about exp(2 kappa) = 20 ulps to cancellation;
# past that seam the quadrature below is good to 1e-15 (against mpmath).  Near
# the Stokes lines kappa is small, and the quadrature needs |zeta| > 20.
_SERIES_KAPPA = 1.5
_SERIES_ZETA = 22.0
_SERIES_TERMS = 40
_LAGUERRE_NODES = 32

_C_SERIES = sqrt(pi) * cmath.exp(-1j * pi / 12.0)
_C_BESSEL = cmath.exp(-1j * pi / 12.0) / sqrt(3.0 * pi)


def _series_table(terms: int) -> np.ndarray:
    """Columns c_j with z Ai(w) - Ai'(w) = sum_k w**(3k) (c_0 z + c_1 w z + c_2 w**2 + c_3).

    Ai = Ai(0) f + Ai'(0) g with the Maclaurin series f and g of DLMF 9.4.1.
    """
    ai0 = 1.0 / (3.0 ** (2.0 / 3.0) * gamma(2.0 / 3.0))
    aip0 = -1.0 / (3.0 ** (1.0 / 3.0) * gamma(1.0 / 3.0))
    f = np.ones(terms + 1)
    g = np.ones(terms + 1)
    for k in range(terms):
        f[k + 1] = f[k] / ((3 * k + 2) * (3 * k + 3))
        g[k + 1] = g[k] / ((3 * k + 3) * (3 * k + 4))
    k = np.arange(terms)
    return np.stack(
        [ai0 * f[:-1], aip0 * g[:-1], -3.0 * (k + 1) * ai0 * f[1:], -(3 * k + 1) * aip0 * g[:-1]],
        axis=1,
    )


def _laguerre_rule(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for t**alpha e**-t on (0, inf), weights summing to 1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    generalized Laguerre polynomials, and each weight is the squared first
    component of the normalized eigenvector, whose components are the
    orthonormal polynomials p_k at the node.  Taking them from the three-term
    recurrence, not from eigh, keeps the smallest weights (1e-48 at n = 32)
    to relative precision, and skips an eigenvector solve that costs 15 ms
    when BLAS runs two threads.
    """
    diag = 2.0 * np.arange(n) + alpha + 1.0
    k = np.arange(1.0, n)
    off = np.sqrt(k * (k + alpha))
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    prev, cur = np.zeros(n), np.ones(n)
    norm2 = np.ones(n)
    for j in range(n - 1):
        prev, cur = cur, ((nodes - diag[j]) * cur - (off[j - 1] if j else 0.0) * prev) / off[j]
        norm2 += cur * cur
    return nodes, 1.0 / norm2


_SERIES = _series_table(_SERIES_TERMS)
_POWERS = np.arange(_SERIES_TERMS)
# the alpha = +1/6 rule (K_{2/3}) and the alpha = -1/6 rule (K_{1/3}) side
# by side; weight column 0 averages over the first, column 1 over the second
_RULES = [_laguerre_rule(alpha, _LAGUERRE_NODES) for alpha in (1.0 / 6.0, -1.0 / 6.0)]
_NODES = np.concatenate([nodes for nodes, _ in _RULES])
_WEIGHTS = np.zeros((2 * _LAGUERRE_NODES, 2))
_WEIGHTS[:_LAGUERRE_NODES, 0] = _RULES[0][1]
_WEIGHTS[_LAGUERRE_NODES:, 1] = _RULES[1][1]


def _bessel_pair(zeta: complex, sign: float) -> complex:
    """exp(zeta) (K_{2/3}(zeta) + sign K_{1/3}(zeta)) for |arg zeta| < pi, sign = +-1.

    DLMF 10.32.8 gives exp(zeta) K_nu(zeta) = sqrt(pi/(2 zeta)) (1 + d_nu),
    where d_nu is the mean of (1 + t/(2 zeta))**(nu - 1/2) - 1 under the
    weight t**(nu - 1/2) e**-t.  Both d_nu are O(1/zeta), and they are summed
    as (1 + s)**(1/6) - 1 = s / sum_{j<6} (1 + s)**(j/6), so the difference
    for sign = -1, of relative size 1/(6 zeta), keeps its digits.
    """
    s = _NODES * (0.5 / zeta)
    r = (1.0 + s) ** (1.0 / 6.0)
    r2 = r * r
    d = s / ((1.0 + r) * (1.0 + r2 + r2 * r2))
    d[_LAGUERRE_NODES:] /= -r[_LAGUERRE_NODES:]  # (1 + s)**(-1/6) - 1
    d_plus, d_minus = (d @ _WEIGHTS).tolist()
    return cmath.sqrt(pi / (2.0 * zeta)) * (1.0 + sign + d_plus + sign * d_minus)


def _ratio_dd(num: int, den: int) -> tuple[float, float]:
    """num/den (den > 0) as hi + lo, each rounded to nearest."""
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - den * p) / (den * q)


def _exp_cube(z: complex, scale: int) -> complex:
    """exp(-(2 scale/3) z**3), its exponent taken in exact integer arithmetic.

    At |z| = 1024 the phase of exp(-4 z**3/3) is 1.4e9 radians, and one
    rounding of z**3 moves it by 1e-7.  Here the exponent is split exactly
    into hi + lo, so only the two exponentials round.
    """
    a, p = z.real.as_integer_ratio()
    b, q = z.imag.as_integer_ratio()
    den = max(p, q)
    a *= den // p
    b *= den // q
    re_hi, re_lo = _ratio_dd(-2 * scale * a * (a * a - 3 * b * b), 3 * den**3)
    im_hi, im_lo = _ratio_dd(-2 * scale * b * (3 * a * a - b * b), 3 * den**3)
    return cmath.exp(complex(re_hi, im_hi)) * cmath.exp(complex(re_lo, im_lo))


def _f_series(z: complex) -> complex:
    """F from the Maclaurin series of Ai and Ai' at w = z**2."""
    w = z * z
    c = (w**3) ** _POWERS @ _SERIES
    return _C_SERIES * _exp_cube(z, 1) * complex(c[0] * z + c[1] * w * z + c[2] * w * w + c[3])


def _f_bessel(z: complex) -> complex:
    """F from K_{1/3} and K_{2/3}, for w = z**2 off the series region."""
    # With z = sigma sqrt(w) and zeta = (2/3) w**1.5, DLMF 9.6.1-2 give
    # z Ai(w) - Ai'(w) = (w/(pi sqrt 3)) e**-zeta (K_{2/3} + sigma K_{1/3})(zeta),
    # and exp(-2 z**3/3) e**-zeta is exp(-4 z**3/3) for sigma = 1 and 1 for
    # sigma = -1.  Past the Stokes line DLMF 9.2.11 adds the same pair at
    # -zeta with -sigma, and the sum changes sign.
    w = z * z
    root = cmath.sqrt(w)
    sigma = 1.0 if z.real * root.real + z.imag * root.imag >= 0.0 else -1.0
    zeta = 2.0 / 3.0 * w * root
    past = abs(cmath.phase(w)) > 2.0 * pi / 3.0
    grow = _exp_cube(z, 2) if sigma > 0.0 or past else 0.0
    total = _bessel_pair(zeta, sigma) * (grow if sigma > 0.0 else 1.0)
    if past:
        total = -(total + _bessel_pair(-zeta, -sigma) * (grow if sigma < 0.0 else 1.0))
    return _C_BESSEL * w * total


def _f_point(z: complex) -> complex:
    w = z * z
    if abs(w) > _W_MAX:
        raise AccuracyLoss(f"|z^2| = {abs(w):.6g} is past 2^20, where F is not evaluated")
    zeta = 2.0 / 3.0 * w * cmath.sqrt(w)
    series = abs(zeta) + zeta.real <= 2.0 * _SERIES_KAPPA and abs(zeta) <= _SERIES_ZETA
    try:
        out = _f_series(z) if series else _f_bessel(z)
    except OverflowError:
        out = complex("inf")
    if not cmath.isfinite(out):
        raise AccuracyLoss(f"F overflows at z = {z}")
    return out


def f_transition(z):
    """sqrt(pi) * exp(-2 z^3/3 - i pi/12) * (z Ai(z^2) - Ai'(z^2)).

    Scalar or array argument; AccuracyLoss where |z^2| > 2^20 or F overflows.
    """
    zz = np.asarray(z, dtype=complex)
    if zz.ndim == 0:
        return _f_point(complex(zz))
    return np.array([_f_point(v) for v in zz.ravel().tolist()], dtype=complex).reshape(zz.shape)


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
    count = int(np.ceil(big)) + 30  # the tail starts 30 past |t|: next term < 1e-14
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
