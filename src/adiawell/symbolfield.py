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
* Straight vertical kernel contour whenever it stays clear of the cuts:
  one fixed pole-corrected trapezoid ladder (step h = 0.2, 61 nodes up to
  |s| = 6).  Within the kernel's reach the integrand is meromorphic in the
  strip |Im s| < 1: its only poles there are the kernel's double poles at
  s = +-i/2, where l0 takes the values l0(p -+ eps/2), and the branch-point
  preimages sit at vertical distance (1 - |Re p|)/eps >= 1.  The trapezoid
  rule's error from the poles is a closed form in exp(-pi/h) and l0, l0' at
  p -+ eps/2 (Trefethen and Weideman, The exponentially convergent
  trapezoidal rule, SIAM Rev. 56 (2014) 385), which the ladder subtracts.
  The branch points leave O(exp(-2 pi/h)) = 2e-14 at most, below rounding
  against 30-digit references, so the ladder is accurate to rounding.  The
  two pole values ride in the same batched l0 call as the nodes.
* When the straight contour would cross a cut (|Re p| >= 1 with
  |Im p| <~ 6.5 eps), or would pass within eps of a branch point (the
  collar 1 - |Re p| < eps, where the branch-point preimages come closer to
  the s-axis than the kernel poles and the ladder loses digits), the
  evaluation point is relocated horizontally by an integer
  number of eps steps using the exact difference equation, e.g.

      L0(p) = L0(p - M eps) + eps * sum_{j=1..M} l0'(p - (j - 1/2) eps),

  placing the kernel anchor near Re p = +-0.5 where the straight ladder is
  valid.  This is an identity, not an approximation: every strip
  [Re p - eps, Re p] it steps across is free of cuts, and no clearance
  tuning or pole dodging is needed.  So every L0 value is one ladder sum at
  its anchor plus the relocation sum.
* Every path integral of g = (i/eps)(L0 - l0) is one kernel sweep of the
  16-point rule along a polyline: its weights give ln A at the vertices, and
  partial integrals of the degree-15 interpolant of g give it anywhere inside
  a segment (dense output).  `path_cumulative` sweeps each polyline once and
  bounds its error by the top Legendre coefficients of those interpolants;
  `amplitude_along` grades a contour's segments toward +-1 before it sweeps.
* The amplitude on the upper edge of [1, inf) - needed by the post-threshold
  contour - is carried there from the real axis just below 1 by the exact
  recursion A(p + eps) = rho0(p + eps/2) A(p) exp((i/eps)(int_l0(p) -
  int_l0(p + eps))), which follows from the R0 difference equation.  One
  sweep along the interval gives A at the real points asked for below 1 and
  at every starting point in [1 - eps, 1), so no quadrature runs along the
  edge, where the integrand has inverse-sqrt singularities at the lattice
  points 1 + (l + 1/2) eps.

All heavy entry points are vectorized over arrays of evaluation points and
share one batched kernel call; scalar wrappers return a QuadratureReport with
an honest error estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import legint, legvander

from ._panels import gl_panels, gl_rule
from .branches import _l0_raw, _q0_raw, int_l0, l0, l0_prime, rho0
from .errors import ContourClash
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


@dataclass(frozen=True)
class QuadratureReport:
    """Value of a quadrature together with an error estimate."""

    value: complex
    est_error: float


# =====================================================================
# batched kernel evaluation of L0
# =====================================================================


def _kernel_straight(z: np.ndarray, eps: float, side) -> np.ndarray:
    """Pole-corrected trapezoid ladder at anchors whose vertical contour clears the cuts."""
    side_arr = np.broadcast_to(np.asarray(side), z.shape)
    out = np.empty(z.shape, dtype=complex)
    for lo in range(0, z.size, _ANCHOR_BLOCK):
        block = slice(lo, lo + _ANCHOR_BLOCK)
        args = z[block, None] + 1j * eps * _S_COLUMNS[None, :]
        vals = _l0_raw(args, np.broadcast_to(side_arr[block, None], args.shape))
        # l0' = 2i / q0 at the poles' images q -+ eps/2
        slopes = 2j / _q0_raw(args[:, -2:], side_arr[block, None])
        out[block] = vals @ _KERNEL_W - eps * _POLE_W0 * (slopes[:, 0] - slopes[:, 1])
    return out


def _relocation(z: np.ndarray, eps: float):
    """Where L0 at the points z is evaluated: (anchor, sgn, m_steps).

    A point is moved by m_steps eps toward the origin (sgn is the sign of
    Re p) when its straight kernel contour would cross a cut or pass within
    _COLLAR_D eps of a branch point, which puts the anchor near
    Re p = +-0.5.  Other points are their own anchors (m_steps 0): their
    branch-point preimages sit no nearer the s-axis than the kernel poles,
    or beyond |s| = _CROSS_S, where the kernel weight is about 1e-17.
    """
    a = np.abs(z.real)
    moved = (a > 1.0 - _COLLAR_D * eps) & (np.abs(z.imag) <= _CROSS_S * eps)
    sgn = np.where(z.real >= 0.0, 1.0, -1.0)
    m_steps = np.where(moved, np.ceil((a - 0.5) / eps), 0).astype(int)
    return z - sgn * m_steps * eps, sgn, m_steps


def _big_l_values(p, eps: float, side=0) -> np.ndarray:
    """L0 on an array of points, cuts handled exactly."""
    z = np.atleast_1d(np.asarray(p, dtype=complex))
    side_arr = np.broadcast_to(np.asarray(side), z.shape)
    anchor, sgn, m_steps = _relocation(z, eps)

    # telescoping the difference equation: with anchor q = p - s M eps,
    # L0(p) = L0(q) + s * eps * sum_{j=1..M} l0'(p - s (j - 1/2) eps)
    corr = np.zeros_like(z)
    for j in range(1, int(m_steps.max(initial=0)) + 1):
        mask = m_steps >= j
        mids = z[mask] - sgn[mask] * (j - 0.5) * eps
        corr[mask] += sgn[mask] * eps * np.asarray(l0_prime(mids, side_arr[mask]))
    return _kernel_straight(anchor, eps, side_arr) + corr


def big_l0(p, eps: float, side=0) -> QuadratureReport:
    """Smoothed branch function L0(p); see module docstring for the method."""
    _check_eps(eps)
    val = _big_l_values(p, eps, side)
    return QuadratureReport(complex(val[0]), _estimate_l_error(p, eps))


def _estimate_l_error(p, eps: float) -> float:
    """Error bar of L0(p), following the route _big_l_values takes at p."""
    z = complex(p)
    anchor, _, m_steps = _relocation(np.asarray(z), eps)
    # the ladder rounds in proportion to its values, about l0 at the anchor;
    # the relocation sum rounds once per step
    relocation = 1e-15 * (abs(z.real) + 1.0) / eps if m_steps else 0.0
    return _ROUNDING_EST * (1.0 + abs(l0(complex(anchor)))) + relocation


# =====================================================================
# path integrals of (i/eps)(L0 - l0) and the derived amplitudes
# =====================================================================


# row k maps g at the 16-point nodes of a segment to the k-th Legendre
# coefficient of its degree-15 interpolant.  The Legendre Vandermonde matrix
# at Gauss nodes stays well conditioned at 16 nodes, where the monomial one
# loses four digits.
_LEG_COEF = np.linalg.inv(legvander(gl_rule(16)[0], 15))
_LEG_INT = legint(np.eye(16), lbnd=-1)  # column k: int_{-1}^u P_k, in Legendre terms

# amplitude_along's targets: the 8- then the 16-point nodes of a segment
_TARGETS = np.concatenate([gl_rule(8)[0], gl_rule(16)[0]])


def _partial_integral_matrix(targets: np.ndarray) -> np.ndarray:
    """B[j, m] = int_{-1}^{targets[j]} of the m-th Lagrange basis polynomial."""
    return legvander(targets, 16) @ _LEG_INT @ _LEG_COEF


def _g_values(q: np.ndarray, eps: float, side) -> np.ndarray:
    """(i/eps) * (L0(q) - l0(q)) batched."""
    shape = q.shape
    flat = q.ravel()
    side_flat = np.broadcast_to(np.asarray(side), shape).ravel()
    big = _big_l_values(flat, eps, side_flat)
    small = _l0_raw(flat, side_flat)
    return ((1j / eps) * (big - small)).reshape(shape)


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


def _route_from_origin(p: complex, eps: float) -> np.ndarray:
    """A polyline from 0 to p staying inside C0 (p off the cuts).

    Vertex spacing shrinks with the distance to the branch points at +-1 and
    to the nearest lattice singularity +-(1 + (l + 1/2) eps) of L0, so the
    quadrature resolves the eps-scale structure when the route grazes or
    ends near one.
    """
    a, b = p.real, p.imag
    if b == 0.0 and abs(a) >= 1.0:
        raise ContourClash("point lies on a cut; use the upper-edge entry points")
    length = abs(p)
    if length == 0.0:
        raise ValueError("route target must differ from the origin")
    direction = p / length
    pts = [0.0 + 0.0j]
    t = 0.0
    while t < length:
        here = direction * t
        w = complex(abs(here.real), here.imag)
        lattice = 1.0 + (max(round((w.real - 1.0) / eps - 0.5), 0) + 0.5) * eps
        d_sing = min(abs(w - 1.0), abs(w - lattice))
        step = min(0.25, max(0.3 * d_sing, 1e-9))
        t = min(t + step, length)
        pts.append(direction * t)
    return np.array(pts, dtype=complex)


def amplitude_a(p, eps: float) -> QuadratureReport:
    """A(p) = exp((i/eps) int_0^p (L0 - l0)) for p off the cuts.

    Points on the upper edge of [1, inf) are served by upper_edge_amplitude.
    """
    _check_eps(eps)
    z = complex(p)
    if z == 0.0:
        return QuadratureReport(1.0 + 0.0j, 0.0)
    if z.imag == 0.0 and z.real >= 1.0:
        val, est = _real_amplitude(eps, np.array([z.real]))
        return QuadratureReport(complex(val[0]), est + _LADDER_EST)
    (_, _, cum), est = path_cumulative(_route_from_origin(z, eps), eps)
    return QuadratureReport(complex(np.exp(cum[-1])), est + _LADDER_EST)


def r0(p, eps: float) -> QuadratureReport:
    """R0(p) = exp((i/eps) int_0^p L0) = A(p) exp((i/eps) int_l0(p)).

    R0 is even; on the real cuts |p| >= 1 it takes its upper-edge value at |p|.
    """
    z = complex(p)
    side = 0
    if z.imag == 0.0 and abs(z.real) >= 1.0:
        z, side = complex(abs(z.real)), 1
    rep = amplitude_a(z, eps)
    val = rep.value * np.exp(1j / eps * int_l0(z, side=side))
    return QuadratureReport(complex(val), rep.est_error)


# =====================================================================
# the real axis and the upper edge of [1, inf): one sweep + exact recursion
# =====================================================================


def _real_amplitude(eps: float, xs: np.ndarray) -> tuple[np.ndarray, float]:
    """A at real points xs >= 0, on the upper edge past 1, and the bar of its sweep.

    Every x is written as x0 + m eps with x0 in [0, 1) and m as small as
    that allows, so m = 0 below 1 - eps and x0 is in [1 - eps, 1) on the
    edge.  ln A(x0) comes from one `path_cumulative` sweep along the route
    from the origin to the largest x0, with every x0 a vertex; the x0 are
    keyed by x0/eps to 12 digits, so edge points at the same place in
    different periods share one vertex.  Each period is then one exact step
    of the R0 difference equation,
    A(p + eps) = rho0(p + eps/2) A(p) exp((i/eps)(int_l0(p) - int_l0(p + eps))).
    The steps use the exact x0 and take their rho0 midpoints as
    x - (m - j - 1/2) eps, the rounding by which the relocation sum of L0
    places its singularities, so A stays consistent with L0 at the sqrt cusps
    1 + (l + 1/2) eps, where a shift of one ulp moves A by about 1e-8.
    """
    xs = np.asarray(xs, dtype=float)
    m = np.maximum(np.floor((xs - 1.0) / eps + 1e-12).astype(int) + 1, 0)
    x0 = xs - m * eps
    _, first, inverse = np.unique(
        np.round(x0 / eps, 12), return_index=True, return_inverse=True
    )
    below = x0[first]
    pts = np.union1d(_route_from_origin(complex(below[-1]), eps).real, below)
    (_, _, cum), est = path_cumulative(pts, eps)
    out = np.exp(cum[np.searchsorted(pts, below)])[inverse]
    for j in range(int(m.max())):
        mask = m > j
        out[mask] *= rho0(xs[mask] - (m[mask] - j - 0.5) * eps, side=1)
    # the int_l0 phases of the steps telescope into one closed form
    phase = (1j / eps) * (int_l0(x0, side=1) - int_l0(xs, side=1))
    return out * np.exp(phase), est


def upper_edge_amplitude(eps: float, xs: np.ndarray) -> np.ndarray:
    """A on the upper edge of [1, inf) at the points xs (array, each >= 1).

    One amplitude sweep along the real axis just below 1, then one exact
    recursion step per eps-period (see `_real_amplitude`), so an edge segment
    of any length costs O(length/eps) closed-form factors.  The lattice
    singularities 1 + (l + 1/2) eps of L0 are never met by a quadrature:
    A is evaluated there as anywhere else.
    """
    if np.any(np.asarray(xs) < 1.0 - 1e-12):
        raise ContourClash("upper_edge_amplitude expects points at or past 1")
    return _real_amplitude(eps, xs)[0]


def _lnA_at_one(eps: float) -> complex:
    """A logarithm of A(1): one recursion step from A(1 - eps) on the real axis.

    A reference, not memoized: the hook reads A(1) from `wavefield._hook_tables`."""
    return complex(np.log(upper_edge_amplitude(eps, np.array([1.0]))[0]))


def _meets_cut(points: np.ndarray) -> bool:
    """True if the polyline touches or crosses the cuts |Re p| >= 1, Im p = 0."""
    a, b = points[:-1], points[1:]
    on_cut = (points.imag == 0.0) & (np.abs(points.real) >= 1.0)
    across = a.imag * b.imag < 0.0
    t = a.imag[across] / (a.imag[across] - b.imag[across])
    x = a.real[across] + t * (b.real[across] - a.real[across])
    return bool(np.any(on_cut) or np.any(np.abs(x) >= 1.0))


def _graded_breaks(a: complex, b: complex, lo: float = 0.0, hi: float = 1.0) -> list[float]:
    """Left ends, as fractions of [a, b], of graded pieces of its part [lo, hi].

    A piece is halved while it is longer than 0.3 of its distance to +-1
    (taken as its midpoint's, less half its length; with the floor of
    `_route_from_origin`), so that the 16-point rule resolves the sqrt
    structure of L0 next to the branch points.
    """
    mid, length = a + 0.5 * (lo + hi) * (b - a), (hi - lo) * abs(b - a)
    near = min(abs(mid - 1.0), abs(mid + 1.0)) - 0.5 * length
    if length <= max(0.3 * near, 1e-9):
        return [lo]
    half = 0.5 * (lo + hi)
    return _graded_breaks(a, b, lo, half) + _graded_breaks(a, b, half, hi)


def amplitude_along(verts, eps: float) -> tuple[dict[int, np.ndarray], float]:
    """A at the nodes of the 8- and 16-point Gauss rules on a contour.

    One `path_cumulative` over the straight route from 0 to the first vertex
    followed by the vertex polyline `verts`, its segments cut into graded
    pieces near +-1 (`_graded_breaks`); ln A at the nodes of both rules on
    the uncut segments comes from the dense output of its sweep on the pieces.
    The error estimate (relative, as for ln A) adds the ladder allowance to
    the sweep's own.

    Returns ({8: A, 16: A}, est_error), each A in the node order of
    gl_panels(verts, rule).ravel().  A polyline that meets a cut would carry
    A onto another sheet, so it raises ContourClash.
    """
    pts = np.asarray(verts, dtype=complex)
    if _meets_cut(pts):
        raise ContourClash("amplitude polyline meets a cut |Re p| >= 1 of the real axis")
    route = _route_from_origin(complex(pts[0]), eps)
    frac = 0.5 * (_TARGETS + 1.0)
    pieces, seg, u = [route], [], []
    first = route.size - 1
    for a, b in zip(pts[:-1], pts[1:]):
        breaks = np.array(_graded_breaks(a, b) + [1.0])
        pieces.append(a + breaks[1:] * (b - a))
        # each node of the segment on the piece that holds it, rescaled to it
        k = np.searchsorted(breaks, frac, side="right") - 1
        seg.append(first + k)
        u.append(2.0 * (frac - breaks[k]) / (breaks[k + 1] - breaks[k]) - 1.0)
        first += breaks.size - 1
    sweep, est = path_cumulative(np.concatenate(pieces), eps)
    amps = np.exp(_dense(sweep, np.array(seg), np.array(u)))
    return {8: amps[:, :8].ravel(), 16: amps[:, 8:].ravel()}, est + _LADDER_EST
