"""The slow-drive resummation layer: the smoothed branch function L0 and amplitudes.

Problem
-------
The drive enters the exact mode integrals through a smoothing of the branch
function l0 over the fast scale eps:

    L0(p) = (pi/2) * int sech^2(pi s) * l0(p + i eps s) ds

which satisfies the difference equation L0(p + eps/2) - L0(p - eps/2) =
eps * l0'(p) and reduces to l0 up to O(eps^2) away from the branch points.
Derived objects: R0(p) = exp((i/eps) int_0^p L0), with its values on the
real cuts, and the amplitude A(p) = exp((i/eps) int_0^p (L0 - l0)).

Evaluation strategy
-------------------
* At anchors q at least 6 eps from the cuts, the kernel integral of the
  Taylor expansion of l0 about q gives L0 - l0 as a moment series:

      L0 - l0 = sum_{k=1..10} (-1)^k eps^2k mu_2k/(2k)! l0^(2k)(q),

  with mu_2k = (1 - 2^(1-2k)) |B_2k| the even moments of the kernel
  (mu_2 = 1/12, mu_4 = 7/240) and l0^(m) = P_m(q) (1 - q^2)^(-(2m-1)/2)
  for fixed polynomials P_m, folded at import into one polynomial in
  1/(1 - q^2) per power of eps.  The series is asymptotic; at distance d
  from the cuts its error is about exp(-2 pi d/eps) (Trefethen and
  Weideman, The exponentially convergent trapezoidal rule, SIAM Rev. 56
  (2014) 385), 4e-17 at the switch, and ten terms truncate below
  rounding there.  It gives L0 - l0 directly, so the amplitude's
  integrand (i/eps)(L0 - l0) carries no cancellation of two O(1) numbers.
  A side tag matters only on a cut, and no series anchor lies there.
* Any point is carried to another anchor by an integer number of eps
  steps of the exact difference equation, e.g.

      L0(p) = L0(p - M eps) + eps * sum_{j=1..M} l0'(p - (j - 1/2) eps).

  This is an identity, not an approximation: no clearance tuning or pole
  dodging is needed.  The sum is taken in blocks of steps, so a point far
  along a cut costs one l0' call per block and a bounded working set.
  Below eps = 2/13 the points 6 eps clear of both cuts span more than one
  step at every height, so every point short of that clearance moves by
  the fewest steps that reach it and L0 is always the series plus the
  relocation sum.
* At eps >= 2/13 the series serves few anchors, and the rest take one
  fixed pole-corrected trapezoid ladder along the straight vertical
  kernel contour (step h = 0.2, 61 nodes up to |s| = 6), which also gives
  l0 at the anchor (its node s = 0).  A point is relocated when that
  contour would cross a cut (|Re p| >= 1 with |Im p| <~ 6.5 eps) or pass
  within eps of a branch point (the collar 1 - |Re p| < eps, where the
  branch-point preimages come closer to the s-axis than the kernel poles
  and the ladder loses digits); its anchor then sits near Re p = +-0.5.
  Within the kernel's reach the ladder's integrand is meromorphic in the
  strip |Im s| < 1: its only poles there are the kernel's double poles at
  s = +-i/2, where l0 takes the values l0(p -+ eps/2), and the
  branch-point preimages sit at vertical distance (1 - |Re p|)/eps >= 1.
  The trapezoid rule's error from the poles is a closed form in
  exp(-pi/h) and l0, l0' at p -+ eps/2 (Trefethen and Weideman, as
  above), which the ladder subtracts.  The branch points leave
  O(exp(-2 pi/h)) = 2e-14 at most, below rounding against 30-digit
  references, so the ladder is accurate to rounding.  The two pole values
  ride in the same batched l0 call as the nodes.
* Every amplitude is reached from the origin by one route (`_ln_amplitude`):
  a polyline from 0 whose pieces are halved until each is within 0.3 of its
  distance to the singularities of g = (i/eps)(L0 - l0), +-1 and the lattice
  points +-(1 + (l + 1/2) eps), swept once by the 16-point rule.
  `path_cumulative` bounds a sweep's error by the top Legendre coefficients
  of the degree-15 interpolants of g, whose partial integrals give ln A
  anywhere inside a piece (dense output).
* On the upper edge of [1, inf), which the hook and the lattice route read,
  ln R0 is carried from the real axis just below 1 by the exact difference
  equation R0(p + eps/2) = rho0(p) R0(p - eps/2): ln rho0 = i l0 there, so
  each period adds i l0, summed by the stepper that relocates L0.  One sweep
  along the interval gives ln A at every starting point in [1 - eps, 1), so
  no quadrature meets the edge's inverse-sqrt singularities at the lattice
  points 1 + (l + 1/2) eps, and R0 is one exp, so it underflows only where
  its value does.

All heavy entry points are vectorized over arrays of evaluation points and
share one batched kernel call; scalar wrappers return a QuadratureReport with
an honest error estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import legint, legvander
from numpy.polynomial.polynomial import polyval

from ._panels import gl_panels, gl_rule
from .branches import _l0_raw, _q0_raw, int_l0, l0, l0_prime
from .errors import AccuracyLoss, AdiawellError, ContourClash
from .spectrum import _check_eps

__all__ = [
    "QuadratureReport",
    "big_l0",
    "r0",
    "amplitude_a",
    "amplitude_along",
    "upper_edge_amplitude",
]

# ---------------------------------------------------------------------
# kernel ladder constants
# ---------------------------------------------------------------------

_S_MAX = 6.0          # kernel truncation; sech^2(pi*6) ~ 2e-16
_S_STEP = 0.2         # trapezoid step; the kernel's double poles sit at s = +-i/2
_CROSS_S = 6.5        # relocate if a cut crossing is within this many eps
# anchors within _COLLAR_D eps of a branch point relocate, so that no ladder
# meets a branch-point preimage nearer the s-axis than the kernel poles
_COLLAR_D = 1.0

_S_GRID = np.arange(-int(round(_S_MAX / _S_STEP)), int(round(_S_MAX / _S_STEP)) + 1) * _S_STEP
# the ladder's columns: the 61 nodes, then the kernel's double poles
# s = +i/2 and -i/2, where the integrand takes l0(q - eps/2) and l0(q + eps/2)
_S_COLUMNS = np.concatenate([_S_GRID, [0.5j, -0.5j]])
# The rule's error from the poles, summed over all aliases (see the module
# docstring), is (2 pi/h) w1 (l0(q - eps/2) + l0(q + eps/2)) + eps w0
# (l0'(q - eps/2) - l0'(q + eps/2)) with u0 = exp(-pi/h), w0 = u0/(1 - u0)
# and w1 = w0/(1 - u0).  Its first part rides on the pole columns as weights;
# for l0 = 1 it is the ladder's excess 9.5e-6 over the kernel's 1.
_U0 = np.exp(-np.pi / _S_STEP)
_POLE_W0 = _U0 / (1.0 - _U0)
_KERNEL_W = np.append(
    0.5 * np.pi * _S_STEP / np.cosh(np.pi * _S_GRID) ** 2,
    [-2.0 * np.pi / _S_STEP * _POLE_W0 / (1.0 - _U0)] * 2,
)

# L0 error bars, sized against 30-digit mpmath kernel integrals: with the
# pole error taken out, the rule's error is rounding, a few units in the
# last place of the ladder's values
_ROUNDING_EST = 1e-15
# relative error allowed in A for the ladder's own error, which no refinement
# of the path quadrature sees (it also makes A slightly path dependent where
# a route enters the relocated region)
_LADDER_EST = 2e-11

# ladder anchors per block: each (anchors x 63) complex temporary stays near
# 0.5 MB, so a sweep's working set stays a few MB however many anchors it has
_ANCHOR_BLOCK = 512
# relocation steps per block: each complex temporary of l0' stays at 0.5 MB
_STEP_BLOCK = 32768
# refusal bounds, checked before any large allocation: difference-equation
# steps of one L0 or edge R0 batch (about 0.05 s per million) and graded
# pieces of one amplitude route (16 L0 points each)
_MAX_STEPS = 10**7
_MAX_PIECES = 2**14

# ---------------------------------------------------------------------
# moment series constants
# ---------------------------------------------------------------------

# anchors this many eps clear of the cuts take the moment series,
# whose error there is about exp(-2 pi * 6) = 4e-17 besides truncation
_SERIES_D = 6.0
_SERIES_TERMS = 10    # eight terms left 3.7e-15 at the switch distance
# |B_2k| for k = 1..10 as (numerator, denominator)
_BERNOULLI = [(1, 6), (1, 30), (1, 42), (1, 30), (5, 66), (691, 2730), (7, 6),
              (3617, 510), (43867, 798), (174611, 330)]


def _series_table(terms: int) -> np.ndarray:
    """Column k - 1: term k of the moment series as a polynomial in z = 1/(1 - q^2).

    Term k is (-1)^k eps^2k mu_2k/(2k)! l0^(2k)(q), with mu_2k = (1 - 2^(1-2k))
    |B_2k| the moments of (pi/2) sech^2(pi s) and l0^(m) = P_m(q) (1 -
    q^2)^(-(2m-1)/2), P_1 = 2, P_{m+1} = (1 - q^2) P_m' + (2m - 1) q P_m.
    P_2k is odd, and q^(2j+1) = q (1 - 1/z)^j, so term k divided by
    eps^2k q sqrt(1 - q^2) is a polynomial in z (powers k + 1 to 2k).  The
    integer algebra is exact; each entry is rounded once.
    """
    table = np.zeros((2 * terms + 1, terms))
    poly = [2]  # P_m by powers of q
    for m in range(1, 2 * terms):
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] += (2 * m - 1) * c
            if i:
                nxt[i - 1] += i * c
                nxt[i + 1] -= i * c
        poly = nxt
        if m % 2:
            k = (m + 1) // 2
            num, den = _BERNOULLI[k - 1]
            half = 2 ** (2 * k - 1)
            by_z = [0] * (2 * terms + 1)
            for j, c in enumerate(poly[1::2]):
                for l in range(j + 1):
                    by_z[2 * k - l] += (-1) ** l * comb(j, l) * c
            scale = den * half * factorial(2 * k)
            for n, c in enumerate(by_z):
                table[n, k - 1] = (-1) ** k * c * num * (half - 1) / scale
    return table


_SERIES_TABLE = _series_table(_SERIES_TERMS)


@dataclass(frozen=True)
class QuadratureReport:
    """Value of a quadrature together with an error estimate."""

    value: complex
    est_error: float


# =====================================================================
# batched kernel evaluation of L0
# =====================================================================


def _kernel_straight(z: np.ndarray, eps: float, side) -> tuple[np.ndarray, np.ndarray]:
    """Pole-corrected trapezoid ladder at anchors whose vertical contour clears the cuts.

    Returns L0 and l0 at the anchors; l0 is the ladder's node s = 0.
    """
    side_arr = np.broadcast_to(np.asarray(side), z.shape)
    out = np.empty(z.shape, dtype=complex)
    centre = np.empty(z.shape, dtype=complex)
    for lo in range(0, z.size, _ANCHOR_BLOCK):
        block = slice(lo, lo + _ANCHOR_BLOCK)
        args = z[block, None] + 1j * eps * _S_COLUMNS[None, :]
        vals = _l0_raw(args, np.broadcast_to(side_arr[block, None], args.shape))
        # l0' = 2i / q0 at the poles' images q -+ eps/2
        slopes = 2j / _q0_raw(args[:, -2:], side_arr[block, None])
        out[block] = vals @ _KERNEL_W - eps * _POLE_W0 * (slopes[:, 0] - slopes[:, 1])
        centre[block] = vals[:, _S_GRID.size // 2]
    return out, centre


def _moment_series(q, eps: float, first: int = 1):
    """Terms first..10 of L0 - l0 = sum_k (-1)^k eps^2k mu_2k/(2k)! l0^(2k)(q).

    The series integrates the Taylor expansion of l0 about q against the
    kernel; q must lie off the cuts.  Summed in full it is L0 - l0 to
    rounding wherever q is _SERIES_D eps clear of the cuts; from
    first = _SERIES_TERMS it is the last term, which bounds the truncation.
    Every term carries z^2 with z = 1/(1 - q^2), and q sqrt(1 - q^2) z^2 =
    q z sqrt(z) off the cuts; z is formed as 1/(1 - q) times 1/(1 + q), so
    no q^2 overflows when |q| is large.
    """
    k = np.arange(1, _SERIES_TERMS + 1)
    coef = _SERIES_TABLE[2:] @ np.where(k >= first, eps ** (2 * k), 0.0)
    z = (1.0 / (1.0 - q)) * (1.0 / (1.0 + q))
    return q * z * np.sqrt(z) * polyval(z, coef)


def _relocation(z: np.ndarray, eps: float):
    """Where L0 at the points z is evaluated: (anchor, sgn, m_steps).

    A point is moved by m_steps eps toward the origin (sgn is the sign of
    Re p).  While (2 _SERIES_D + 1) eps < 2, the points _SERIES_D eps clear
    of both cuts span more than one step at every height, so every point
    short of that clearance moves by the fewest steps that reach it and its
    anchor takes the moment series: at b = |Im p| < _SERIES_D eps the anchor
    must end at |Re| <= 1 - sqrt((_SERIES_D eps)^2 - b^2).  Where rounding
    leaves an anchor a hair short, it takes one more step.
    At larger eps a point moves only when its straight kernel contour would
    cross a cut or pass within _COLLAR_D eps of a branch point, which puts
    the anchor near Re p = +-0.5.  Other points are their own anchors (m_steps
    0): their branch-point preimages sit no nearer the s-axis than the kernel
    poles, or beyond |s| = _CROSS_S, where the kernel weight is about 1e-17.
    A batch that needs more than _MAX_STEPS steps in all is refused.
    """
    a, b = np.abs(z.real), np.abs(z.imag)
    sgn = np.where(z.real >= 0.0, 1.0, -1.0)
    if (2.0 * _SERIES_D + 1.0) * eps < 2.0:
        d = _SERIES_D * eps
        reach = np.sqrt(d * d - np.minimum(b, d) ** 2)
        short = (b < d) & (a > 1.0 - reach)
        m_steps = np.where(short, np.ceil((a - 1.0 + reach) / eps), 0.0)
        m_steps += ~_by_series(z - sgn * m_steps * eps, eps)
    else:
        moved = (a > 1.0 - _COLLAR_D * eps) & (b <= _CROSS_S * eps)
        m_steps = np.where(moved, np.ceil((a - 0.5) / eps), 0.0)
    if not np.sum(m_steps) <= _MAX_STEPS:
        raise AdiawellError(f"L0 needs more than {_MAX_STEPS} relocation steps; "
                            "the points lie too far along a cut")
    m_steps = m_steps.astype(int)
    return z - sgn * m_steps * eps, sgn, m_steps


def _by_series(anchor: np.ndarray, eps: float) -> np.ndarray:
    """True at the anchors _SERIES_D eps or more from the cuts.

    An anchor on a cut is 0 from it, so a side tag never reaches the series.
    """
    clear = np.hypot(np.maximum(1.0 - np.abs(anchor.real), 0.0), anchor.imag)
    return clear >= _SERIES_D * eps


def _relocation_sum(z: np.ndarray, eps: float, side, sgn: np.ndarray, m_steps, summand):
    """sum_{j=1..M} summand(p - s (j - 1/2) eps) at each point, M = m_steps >= 1.

    The summand is l0' to relocate L0, and l0 to step ln R0 along the upper
    edge (`_ln_r0_real`).  The steps of all points are laid end to end and
    taken _STEP_BLOCK at a time, so the summand is called once per block and
    the working set stays a few MB however many steps a point needs.  Each
    point's steps within a block are summed pairwise (np.add.reduceat), then
    the blocks are added.
    """
    ends = np.cumsum(m_steps)
    starts = ends - m_steps
    total = np.zeros(z.shape, dtype=complex)
    for lo in range(0, int(ends[-1]), _STEP_BLOCK):
        hi = min(lo + _STEP_BLOCK, int(ends[-1]))
        pts = np.arange(np.searchsorted(ends, lo, side="right"), np.searchsorted(starts, hi))
        first = np.maximum(starts[pts], lo)
        owner = np.repeat(pts, np.minimum(ends[pts], hi) - first)
        j = np.arange(lo, hi) - starts[owner] + 1
        mids = z[owner] - sgn[owner] * (j - 0.5) * eps
        total[pts] += np.add.reduceat(summand(mids, side[owner]), first - lo)
    return total


def _big_l_values(p, eps: float, side=0) -> np.ndarray:
    """L0 - l0 on an array of points, cuts handled exactly."""
    z = np.atleast_1d(np.asarray(p, dtype=complex))
    side_arr = np.broadcast_to(np.asarray(side), z.shape)
    anchor, sgn, m_steps = _relocation(z, eps)
    series = _by_series(anchor, eps)

    # L0 - l0 at the anchors: the moment series, or the ladder less its centre
    out = np.empty_like(z)
    out[series] = _moment_series(anchor[series], eps)
    big, small = _kernel_straight(anchor[~series], eps, side_arr[~series])
    out[~series] = big - small

    # telescoping the difference equation: with anchor q = p - s M eps,
    # L0(p) = L0(q) + s * eps * sum_{j=1..M} l0'(p - s (j - 1/2) eps)
    moved = m_steps > 0
    if np.any(moved):
        zm, sm, gm = z[moved], side_arr[moved], sgn[moved]
        steps = _relocation_sum(zm, eps, sm, gm, m_steps[moved], l0_prime)
        out[moved] += l0(anchor[moved]) - l0(zm, sm) + gm * eps * steps
    return out


def big_l0(p, eps: float, side=0) -> QuadratureReport:
    """Smoothed branch function L0(p); see module docstring for the method."""
    _check_eps(eps)
    val = _big_l_values(p, eps, side)[0] + l0(complex(p), side)
    return QuadratureReport(complex(val), _estimate_l_error(p, eps))


def _estimate_l_error(p, eps: float) -> float:
    """Error bar of L0(p), following the route _big_l_values takes at p."""
    z = complex(p)
    anchor, sgn, m_steps = _relocation(np.asarray(z), eps)
    q = complex(anchor)
    # the ladder and the series round in proportion to their values, about
    # l0 at the anchor; the series adds its last term for its truncation;
    # the relocation sum rounds once per step, and |l0''(m)| = 2|m|/|q0(m)|^3
    # carries the rounding of the midpoint m nearest the branch point (|q0|
    # floored at 1e-100, so that its cube cannot underflow)
    series = _by_series(anchor, eps)
    truncation = abs(_moment_series(q, eps, _SERIES_TERMS)) if series else 0.0
    relocation = 0.0
    if m_steps:
        m = z - sgn * (min(max(round((abs(z.real) - 1.0) / eps + 0.5), 1), m_steps) - 0.5) * eps
        tip = 2.0 * abs(m) / max(abs(_q0_raw(m, 1)), 1e-100) ** 3
        relocation = 1e-15 * (abs(z.real) + 1.0) / eps + eps * np.spacing(abs(z)) * tip
    return _ROUNDING_EST * (1.0 + abs(l0(q))) + truncation + relocation


# =====================================================================
# path integrals of (i/eps)(L0 - l0) and the derived amplitudes
# =====================================================================


# row k maps g at the 16-point nodes of a segment to the k-th Legendre
# coefficient of its degree-15 interpolant.  The Legendre Vandermonde matrix
# at Gauss nodes stays well conditioned at 16 nodes, where the monomial one
# loses four digits.
_LEG_COEF = np.linalg.inv(legvander(gl_rule(16)[0], 15))
_LEG_INT = legint(np.eye(16), lbnd=-1)  # column k: int_{-1}^u P_k, in Legendre terms

# amplitude_along's targets: the 8- then the 16-point nodes of a segment, as
# fractions of it
_TARGETS = 0.5 * (np.concatenate([gl_rule(8)[0], gl_rule(16)[0]]) + 1.0)


def _partial_integral_matrix(targets: np.ndarray) -> np.ndarray:
    """B[j, m] = int_{-1}^{targets[j]} of the m-th Lagrange basis polynomial."""
    return legvander(targets, 16) @ _LEG_INT @ _LEG_COEF


def _g_values(q: np.ndarray, eps: float, side) -> np.ndarray:
    """(i/eps) * (L0(q) - l0(q)) batched."""
    shape = q.shape
    flat = q.ravel()
    side_flat = np.broadcast_to(np.asarray(side), shape).ravel()
    return ((1j / eps) * _big_l_values(flat, eps, side_flat)).reshape(shape)


def _dense(sweep, seg: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Dense output of a sweep: its values at u in [-1, 1] on the segments seg."""
    half, g, cum = sweep
    b = _partial_integral_matrix(np.ravel(u)).reshape(np.shape(u) + (16,))
    return cum[seg] + half[seg] * np.sum(b * g[seg], axis=-1)


def path_cumulative(points: Sequence[complex] | np.ndarray, eps: float, side=0):
    """Integrate (i/eps)(L0 - l0) cumulatively along the polyline `points`.

    One kernel sweep of the 16-point rule.  Returns (half, g, cum), the
    half-lengths of the segments, g at the rule's nodes (one row per segment)
    and the values at the vertices, with an error estimate that holds at
    every vertex: the sum over segments of |half| (|c_14| + |c_15|), the top
    two Legendre coefficients of the degree-15 interpolant of g there.  They
    decay geometrically for g analytic about the segment, and the rule's own
    error sits far below them (Trefethen, Approximation Theory and
    Approximation Practice, SIAM 2013, ch. 8).
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1 or pts.size < 2:
        raise ValueError("need at least two polyline vertices")
    nodes, _ = gl_panels(pts, 16)
    half = 0.5 * (pts[1:] - pts[:-1])
    g = _g_values(nodes, eps, side)
    cum = np.concatenate([[0.0 + 0.0j], np.cumsum(half * (g @ gl_rule(16)[1]))])
    tail = np.sum(np.abs(g @ _LEG_COEF[14:].T), axis=1)
    return (half, g, cum), float(np.sum(np.abs(half) * tail))


def _meets_cut(points: np.ndarray) -> bool:
    """True if the polyline touches or crosses the cuts |Re p| >= 1, Im p = 0."""
    a, b = points[:-1], points[1:]
    on_cut = (points.imag == 0.0) & (np.abs(points.real) >= 1.0)
    across = a.imag * b.imag < 0.0
    t = a.imag[across] / (a.imag[across] - b.imag[across])
    x = a.real[across] + t * (b.real[across] - a.real[across])
    return bool(np.any(on_cut) or np.any(np.abs(x) >= 1.0))


def _graded_route(pts: np.ndarray, eps: float):
    """The polyline pts cut into graded pieces: (vertices, segment, lo, hi) per piece.

    A piece, the fractions [lo, hi] of its segment, is halved while it is
    longer than 0.3 of its distance to the nearest singularity of g: +-1 or
    a lattice point +-(1 + (l + 1/2) eps) of L0, taken as its midpoint's
    distance less half its length, with a floor of 1e-9.  So the 16-point
    rule converges geometrically on every piece (Trefethen, as above), and a
    piece far from them is as long as that allows.  A route that hugs a cut
    far out needs pieces in proportion to its length over eps; past
    _MAX_PIECES it is refused before the sweep.
    """
    on = np.arange(pts.size - 1)
    lo, hi = np.zeros(on.size), np.ones(on.size)
    while True:
        step = pts[on + 1] - pts[on]
        length = (hi - lo) * np.abs(step)
        w = pts[on] + 0.5 * (lo + hi) * step
        w = np.abs(w.real) + 1j * w.imag
        lattice = 1.0 + (np.maximum(np.round((w.real - 1.0) / eps - 0.5), 0.0) + 0.5) * eps
        near = np.minimum(np.abs(w - 1.0), np.abs(w - lattice)) - 0.5 * length
        split = length > np.maximum(0.3 * near, 1e-9)
        if not np.any(split):
            break
        if on.size + np.count_nonzero(split) > _MAX_PIECES:
            raise AdiawellError(f"amplitude route needs more than {_MAX_PIECES} graded "
                                "pieces; the point lies too far along a cut")
        # each split piece becomes its two halves, in order
        first = np.flatnonzero(split) + np.arange(np.count_nonzero(split))
        centre = 0.5 * (lo + hi)[split]
        on, lo, hi = (np.repeat(v, 1 + split) for v in (on, lo, hi))
        hi[first] = centre
        lo[first + 1] = centre
    return np.append(pts[on] + lo * (pts[on + 1] - pts[on]), pts[-1]), on, lo, hi


def _ln_amplitude(pts: np.ndarray, seg, frac, eps: float):
    """ln A at the fractions frac of the segments seg (broadcast together) of pts.

    The one route from the origin to A: the polyline pts, which starts at 0,
    is graded (`_graded_route`) and swept once (`path_cumulative`), and ln A
    at each target is the dense output of the piece that holds it.  Returns
    ln A in the broadcast shape, and the sweep's bar.  A polyline that meets
    a cut would carry A onto another sheet, so it raises ContourClash.
    """
    if _meets_cut(pts):
        raise ContourClash("amplitude polyline meets a cut |Re p| >= 1 of the real axis")
    verts, on, lo, hi = _graded_route(pts, eps)
    sweep, est = path_cumulative(verts, eps)
    piece = np.searchsorted(on + lo, seg + frac, side="right") - 1
    piece -= on[piece] > seg  # a target at the end of its segment
    u = 2.0 * (frac - lo[piece]) / (hi[piece] - lo[piece]) - 1.0
    return _dense(sweep, piece, u), est


def amplitude_a(p, eps: float) -> QuadratureReport:
    """A(p) = exp((i/eps) int_0^p (L0 - l0)), off the cuts or on the upper edge of [1, inf)."""
    _check_eps(eps)
    z = complex(p)
    if z == 0.0:
        return QuadratureReport(1.0 + 0.0j, 0.0)
    if z.imag == 0.0 and z.real >= 1.0:
        ln_r0, est = _ln_r0_real(eps, np.array([z.real]))
        ln_a = ln_r0[0] - (1j / eps) * int_l0(z.real, side=1)
    else:
        ln_a, est = _ln_amplitude(np.array([0.0, z]), 0, 1.0, eps)
    return QuadratureReport(complex(np.exp(ln_a)), est + _LADDER_EST)


def r0(p, eps: float) -> QuadratureReport:
    """R0(p) = exp((i/eps) int_0^p L0) = A(p) exp((i/eps) int_l0(p)).

    R0 is even; on the real cuts |p| >= 1 it is exp(ln R0(|p|)) on the upper
    edge.  Elsewhere the two factors stay apart: a phase reaches 2.4e7 rad at
    1e5 i.  The bar adds the exponent's rounding, 2^-52 |ln R0| or 2^-52
    |(i/eps) int_l0(p)|.  Where R0 comes out inf or nan, AccuracyLoss is raised.
    """
    _check_eps(eps)
    z = complex(p)
    if z.imag == 0.0 and abs(z.real) >= 1.0:
        ln_r0, est = _ln_r0_real(eps, np.array([abs(z.real)]))
        exponent, val, est = ln_r0[0], np.exp(ln_r0[0]), est + _LADDER_EST
    else:
        # a factor that over- or underflows is caught by the check below
        with np.errstate(all="ignore"):
            rep = amplitude_a(z, eps)
            exponent = 1j / eps * int_l0(z)
            val, est = rep.value * np.exp(exponent), rep.est_error
    if not np.isfinite(val):
        raise AccuracyLoss(f"R0 at p = {complex(p)}, eps = {eps} is not finite in double precision")
    return QuadratureReport(complex(val), est + 2.0**-52 * abs(exponent))


# =====================================================================
# the real axis and the upper edge of [1, inf): one sweep + exact steps
# =====================================================================


def _ln_r0_real(eps: float, xs: np.ndarray) -> tuple[np.ndarray, float]:
    """ln R0 at real points xs >= 0, on the upper edge past 1, and the bar of its sweep.

    Every x is written as x0 + m eps with x0 in [0, 1) and m as small as
    that allows, so m = 0 below 1 - eps and x0 is in [1 - eps, 1) on the
    edge.  ln A(x0) comes from `_ln_amplitude` on the segment from the
    origin to the largest x0, at the fractions x0 / max x0, and each period
    is one step of the difference equation (module docstring), so

        ln R0(x) = ln A(x0) + (i/eps) int_l0(x0) + i sum_{j=1..m} l0(x - (j - 1/2) eps),

    the sum taken by `_relocation_sum` in one pass, at the midpoints where
    the relocation of L0 places its singularities: at the sqrt cusps
    1 + (l + 1/2) eps a shift of one ulp moves R0 by about 1e-8.  More than
    _MAX_STEPS steps in all are refused before the sweep.
    """
    xs = np.asarray(xs, dtype=float)
    m = np.maximum(np.floor((xs - 1.0) / eps + 1e-12) + 1.0, 0.0)
    if not np.sum(m) <= _MAX_STEPS:
        raise AdiawellError(f"R0 on the cut needs more than {_MAX_STEPS} steps; "
                            "the points lie too far along it")
    m = m.astype(int)
    x0 = xs - m * eps
    ln_a, est = _ln_amplitude(np.array([0.0, x0.max()]), 0, x0 / x0.max(), eps)
    out = ln_a + (1j / eps) * int_l0(x0, side=1)
    on = m > 0
    if np.any(on):
        up = np.ones(np.count_nonzero(on))  # upper edge, stepping toward the origin
        out[on] += 1j * _relocation_sum(xs[on], eps, up, up, m[on], l0)
    return out, est


def upper_edge_amplitude(eps: float, xs: np.ndarray) -> np.ndarray:
    """A on the upper edge of [1, inf) at the points xs (array, each >= 1).

    exp(ln R0 - (i/eps) int_l0), with ln R0 from `_ln_r0_real`: one sweep
    below 1 and one l0 value per eps-period, none of them a quadrature at
    the lattice singularities 1 + (l + 1/2) eps of L0.
    """
    if np.any(np.asarray(xs) < 1.0 - 1e-12):
        raise ContourClash("upper_edge_amplitude expects points at or past 1")
    return np.exp(_ln_r0_real(eps, xs)[0] - (1j / eps) * int_l0(xs, side=1))


def _lnA_at_one(eps: float) -> complex:
    """A logarithm of A(1): ln R0(1), one step from 1 - eps, less (i/eps) int_l0(1).

    A reference, not memoized: the hook reads A(1) from `wavefield._hook_tables`."""
    return complex(_ln_r0_real(eps, np.array([1.0]))[0][0] - (1j / eps) * int_l0(1.0))


def amplitude_along(verts, eps: float) -> tuple[dict[int, np.ndarray], float]:
    """A at the nodes of the 8- and 16-point Gauss rules on a contour.

    `_ln_amplitude` on the polyline from the origin to the first vertex and
    on along `verts`, at the nodes of both rules on every contour segment.
    The error estimate (relative, as for ln A) adds the ladder allowance to
    the sweep's own.

    Returns ({8: A, 16: A}, est_error), each A in the node order of
    gl_panels(verts, rule).ravel().  A polyline that meets a cut raises
    ContourClash.
    """
    pts = np.concatenate([[0.0], np.asarray(verts, dtype=complex)])
    ln_a, est = _ln_amplitude(pts, np.arange(1, pts.size - 1)[:, None], _TARGETS, eps)
    amps = np.exp(ln_a)
    return {8: amps[:, :8].ravel(), 16: amps[:, 8:].ravel()}, est + _LADDER_EST
