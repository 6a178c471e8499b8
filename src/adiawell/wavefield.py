"""Exact mode solutions of the shrinking well as contour integrals.

Problem
-------
The drive admits a family of exact solutions Psi_n(x, t), one per mode
index n, that start out as the adiabatic approximation of the n-th bound
state and stay exact for all times.  Inside the well (0 <= x <= 1 - tau,
tau = eps*t) each solution is a contour integral in the spectral variable,

    Psi_n = e^{it} / sqrt(eps*pi) * int_C A(p) sin(px) e^{i S(p,tau)/eps} dp,
    S(p, tau) = p^2 (1 - tau) - 2 pi n p + int_0^p l0(q) dq,

where A is the smoothed-symbol amplitude of `symbolfield` and l0 the branch
function of `branches`.  Outside the well, with xi = eps*(x - (1 - tau)),

    Psi_n = (-1)^{n+1} e^{it - i xi/2 - i eps (1-tau)/4} / sqrt(eps*pi)
            * int_C At(p) p e^{i St(p,tau,xi)/eps} dp,
    St = S + q0(p) xi,
    At(p) = A(p - eps/2) exp(-(i/eps) [int_0^p l0 - int_0^{p-eps/2} l0
                                       - (eps/2) l0(p)]),

that is A on the contour shifted by -eps/2 (which must stay clear of the
cuts, as the contour does) times a closed form.  St is linear in xi, so a
contour chosen for one xi_c serves every nearby xi as well: with weights
W_j built at xi_c, the field at xi is pref(xi) * sum_j W_j
e^{i q0(p_j)(xi - xi_c)/eps}, one matrix-vector product per band of x, as
the sine basis is inside the well.

Any line e^{i theta} R with 0 < theta < pi/2 is an admissible contour; all
choices give the same value, so the freedom is spent purely on numerical
conditioning.

Contours
--------
Three interchangeable evaluation contours are provided.

* ``sd``       steepest descent through the saddle point p_n(tau) (or its
               complex continuation outside).  Im S increases monotonically
               along the two traced branches, so the integrand is a clean
               positive-decay profile.  Used while the saddle is well below
               the branch point at p = 1.
* ``gamma``    a hook through the branch point: down the vertical ray
               1 - i[0, Y] and out along the upper edge of the cut [1, oo).
               Near and past the threshold tau_n the saddle collides with
               p = 1 and the hook is the numerically stable choice; its node
               tables depend only on eps and are cached and reused for every
               (n, tau, x).
* ``ray``      the fixed line e^{i pi/4} R.  Simple and saddle-free, but the
               integrand climbs to e^{(pi n)^2/(2(1-tau) eps)} before it
               cancels, so it is only a cross-check at moderate eps.

The automatic dispatch uses ``gamma`` once tau_n - tau <= 2 eps^{1/3} (the
saddle enters the eps^{1/3} collision neighbourhood of p = 1, where the
descent geometry degenerates) and ``sd`` otherwise.

The lattice sum behind the integral
-----------------------------------
The contour representation is the Poisson resummation of a lattice sum: for
any offset p the superposition over k in p + eps Z,

    Psi(x, t; p) = 1/sqrt(pi) * sum_k e^{i k^2 (1-tau)/eps} sin(kx) R(k)
                                                        (inside the well),

with matching outgoing terms outside, solves the problem exactly, and the
mode solution is recovered as the n-th Fourier coefficient in p.  Both the
lattice sum (`generating_series`, `fourier_mode`) and the interface algebra
tying R to the outgoing factors (`scattering_residuals`) are implemented
independently of the contour machinery, which makes strong mutual
cross-checks possible: the two routes share no quadrature code.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._panels import bisect_polyline, gl_panels
from .branches import int_l0, l0, l0_prime, q0
from .errors import ContourClash, TraceDiverged, TruncationTooSmall
from .spectrum import (
    ModelParams,
    dlnpn_dtau,
    int_e_n,
    p_n,
    p_n_tilde,
    tau_threshold,
)
from .symbolfield import (
    _g_values,  # noqa: F401  (unused here; adiabench/tracing.py wraps it)
    _lnA_at_one,
    _meets_cut,
    amplitude_along,
    path_cumulative,
    r0,
    upper_edge_amplitude,
)

__all__ = [
    "ActionEval",
    "FieldSample",
    "action",
    "action_identities",
    "trace_steepest",
    "mode_inside",
    "mode_outside",
    "mode_solution",
    "generating_series",
    "fourier_mode",
    "interface_residuals",
    "scattering_residuals",
    "outgoing_momentum",
    "outgoing_factor",
]

# =====================================================================
# tuning constants
# =====================================================================

_DECAY_LEVEL = 45.0     # contours are truncated once Im S climbed this * eps
_STEP_FRACTION = 0.35   # arc step as a fraction of the local saddle width
_PHASE_PER_STEP = 2.0   # max radians of e^{iS/eps} per stored vertex
_MAX_STEPS = 4000
_TRACE_RADIUS = 30.0
_GAMMA_SWITCH = 2.0     # hook contour once tau_n - tau <= this * eps^(1/3)
_GAMMA_CAP = 0.6        # ... but never further below threshold than this
_MINUS_DEPTH = 12.0     # hard cap on the depth of the hook's vertical leg
_MINUS_TIP = 1e-7       # innermost panel boundary at the branch point
_PANEL_PHASE = 4.5      # max radians of e^{iS/eps} per vertical-leg panel
_RAY_ANGLE = 0.25 * np.pi
# widest x span that shares one exterior contour; values do not move with the
# width, but the error bar's |basis| scale grows (2% at 2, twofold at 16)
_BAND_WIDTH = 2.0
# memo bounds: hook-edge tables per (eps, rule) and per eps, and vertical-leg
# tables per (eps, n, tau) at about 1.2 MB each
_EPS_SLOTS = 8
_MINUS_SLOTS = 32


# =====================================================================
# phase function (action) of the mode integral
# =====================================================================


@dataclass(frozen=True)
class ActionEval:
    """S and its first two p-derivatives at one point or an array."""

    value: complex | np.ndarray
    d1: complex | np.ndarray
    d2: complex | np.ndarray


def action(p, n: int, tau: float, xi: float = 0.0, side=0) -> ActionEval:
    """Phase S = p^2(1-tau) - 2 pi n p + int_0^p l0 (+ q0(p) xi outside).

    d1 vanishes exactly at the saddle p_n(tau) (inside) or its continuation
    p~_n(tau, xi) (outside); d2 = 2(1-tau) + 2i/q0 - xi/q0^3 is the sweep
    rate that sets the steepest-descent step size.
    """
    z = np.asarray(p, dtype=complex)
    one_m_tau = 1.0 - tau
    two_pi_n = 2.0 * np.pi * n
    s = z * z * one_m_tau - two_pi_n * z + int_l0(z, side)
    d1 = 2.0 * z * one_m_tau - two_pi_n + l0(z, side)
    # the curvature is infinite at the branch points; S and S_p stay finite
    tip = (z.imag == 0.0) & (np.abs(z.real) == 1.0)
    d2 = np.full(z.shape, complex(np.inf), dtype=complex)
    if np.any(~tip):
        side_arr = np.broadcast_to(np.asarray(side), z.shape)
        d2[~tip] = 2.0 * one_m_tau + l0_prime(z[~tip], side_arr[~tip])
    if xi != 0.0:
        q = q0(z, side)
        s = s + q * xi
        d1 = d1 + xi * z / q
        d2 = d2 - xi / q**3
    if np.ndim(p) == 0:
        return ActionEval(complex(s), complex(d1), complex(d2))
    return ActionEval(s, d1, d2)


def action_identities(n: int, tau: float) -> tuple[float, float]:
    """Residuals of the two saddle/adiabatic duality relations.

    The Legendre structure of the phase ties the saddle value and curvature
    to spectral quantities:

        tau + S(p_n, tau) = int_tau^{tau_n} E_n + (2 tau_n - 3),
        1 / S_pp(p_n, tau) = (1/2) d ln p_n / d tau.

    Both residuals vanish identically; the return feeds accuracy checks.
    """
    thr = tau_threshold(n)
    pn = p_n(n, tau)
    act = action(pn, n, tau)
    lhs1 = tau + act.value
    rhs1 = int_e_n(n, tau, thr) + 2.0 * thr - 3.0
    res1 = abs(lhs1 - rhs1)
    res2 = abs(1.0 / act.d2 - 0.5 * dlnpn_dtau(n, tau))
    return float(res1), float(res2)


# =====================================================================
# steepest-descent tracing
# =====================================================================


def _local_step(ev: ActionEval, eps: float) -> float:
    width = np.sqrt(eps / abs(ev.d2))
    return min(
        _STEP_FRACTION * width,
        _PHASE_PER_STEP * eps / abs(ev.d1),
        0.5 * abs(ev.d1) / abs(ev.d2),
        0.25,
    )


def trace_steepest(
    n: int,
    tau: float,
    eps: float,
    xi: float = 0.0,
    level: float = _DECAY_LEVEL,
) -> np.ndarray:
    """Vertices of the steepest-descent contour through the saddle.

    Both branches are traced by arc-length stepping along
    dp/ds = i conj(S_p)/|S_p| (which keeps Re S frozen and drives Im S up at
    unit rate) with a Heun predictor and a Newton re-projection onto
    Re S = Re S(saddle) after every step.  Tracing stops once
    Im S - Im S(saddle) >= level * eps; the returned polyline is ordered
    like the original line contour, from the lower-left end to the
    upper-right end, saddle in the middle.
    """
    p0 = p_n_tilde(n, tau, xi) if xi != 0.0 else complex(p_n(n, tau))
    base = action(p0, n, tau, xi=xi)
    c_re = base.value.real
    im0 = base.value.imag
    beta = np.angle(base.d2)
    first_dir = np.exp(1j * (0.25 * np.pi - 0.5 * beta))

    branches: list[list[complex]] = []
    for sgn in (1.0, -1.0):
        direction = sgn * first_dir
        step0 = _STEP_FRACTION * np.sqrt(eps / abs(base.d2))
        p = p0 + direction * step0
        pts: list[complex] = []
        prev = p0
        while True:
            ev = action(p, n, tau, xi=xi)
            # re-project onto the constant-Re S curve
            for _ in range(2):
                drift = ev.value.real - c_re
                if abs(drift) < 1e-13 * (1.0 + abs(c_re)):
                    break
                p = p - drift * np.conj(ev.d1) / abs(ev.d1) ** 2
                ev = action(p, n, tau, xi=xi)
            if _meets_cut(np.array([prev, p])):
                raise TraceDiverged("descent path attempted to cross a cut")
            pts.append(p)
            if ev.value.imag - im0 >= level * eps:
                break
            if len(pts) > _MAX_STEPS or abs(p) > _TRACE_RADIUS:
                raise TraceDiverged(
                    f"descent trace did not reach the decay level "
                    f"(|p|={abs(p):.2f}, steps={len(pts)})"
                )
            ds = _local_step(ev, eps)
            v1 = 1j * np.conj(ev.d1) / abs(ev.d1)
            mid = action(p + ds * v1, n, tau, xi=xi)
            v2 = 1j * np.conj(mid.d1) / abs(mid.d1)
            prev = p
            p = p + 0.5 * ds * (v1 + v2)
        branches.append(pts)

    # orient: the branch ending farther up-right plays the +infinity role
    end_a, end_b = branches[0][-1], branches[1][-1]
    if (end_a.real + end_a.imag) >= (end_b.real + end_b.imag):
        plus, minus = branches[0], branches[1]
    else:
        plus, minus = branches[1], branches[0]
    return np.array(minus[::-1] + [p0] + plus, dtype=complex)


def _ray_vertices(n: int, tau: float, eps: float, level: float = _DECAY_LEVEL) -> np.ndarray:
    """Vertices along the fixed line e^{i pi/4} R, truncated by Im S."""
    direction = np.exp(1j * _RAY_ANGLE)
    sides: list[list[complex]] = []
    for sgn in (-1.0, 1.0):
        pts: list[complex] = []
        s = 0.0
        while True:
            ev = action(sgn * direction * max(s, 1e-9), n, tau)
            if ev.value.imag >= level * eps:
                pts.append(sgn * direction * s)
                break
            if s > _TRACE_RADIUS:
                raise TraceDiverged("ray quadrature does not decay; check tau < 1")
            pts.append(sgn * direction * s)
            s += _local_step(ev, eps)
        sides.append(pts)
    left, right = sides
    return np.array(left[::-1] + right[1:], dtype=complex)


# =====================================================================
# quadrature over traced polylines (sd & ray)
# =====================================================================


def _gl_nodes(verts: np.ndarray, rule: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = gl_panels(verts, rule)
    return nodes.ravel(), weights.ravel()


def _inside_weights(
    verts: np.ndarray, n: int, tau: float, eps: float
) -> tuple[list[tuple[np.ndarray, np.ndarray]], float]:
    """Nodes p_j and complex weights W_j with Psi(x) = pref * sum_j W_j sin(p_j x),
    for the 8- and 16-point rules, from one amplitude pass over the contour."""
    amps, amp_est = amplitude_along(verts, eps)
    rules = []
    for rule in (8, 16):
        nodes, w = _gl_nodes(verts, rule)
        act = action(nodes, n, tau)
        rules.append((nodes, w * amps[rule] * np.exp(1j * act.value / eps)))
    return rules, amp_est


# =====================================================================
# the hook contour through p = 1 (cached node tables)
# =====================================================================

def _period_fractions(first: bool) -> np.ndarray:
    """Panel boundaries of one edge period, graded into both cusp points.

    The edge integrand carries a bounded sqrt cusp at mid-period (the
    half-lattice point of the smoothed symbol) and, in the first period, the
    3/2-power cusp of the action at the branch point itself, so panels
    shrink geometrically toward both.
    """
    mid = (
        [0.25]
        + [0.5 - 0.25 * 0.5**j for j in range(1, 8)]
        + [0.5]
        + [0.5 + 0.25 * 0.5**j for j in range(7, 0, -1)]
        + [0.75, 1.0]
    )
    head = [0.25 * 0.5**j for j in range(10, 0, -1)] if first else []
    return np.array([0.0] + head + mid)


def _edge_periods(eps: float, level: float) -> int:
    """Number of eps-periods of the upper edge before Im S outruns level."""
    m = 1
    while m < 100000:
        tail = complex(int_l0(1.0 + m * eps, side=1)).imag
        if tail >= (level + 5.0) * eps:
            return m
        m += 1
    raise TruncationTooSmall("upper edge decay level not reached; eps too large?")


@lru_cache(maxsize=_EPS_SLOTS)
def _plus_tables(eps: float, rule: int) -> dict[str, np.ndarray]:
    periods = [
        _gl_nodes(1.0 + m * eps + _period_fractions(m == 0) * eps, rule)
        for m in range(_edge_periods(eps, _DECAY_LEVEL))
    ]
    xs = np.concatenate([nodes for nodes, _ in periods])
    return {
        "xs": xs,
        "w": np.concatenate([w for _, w in periods]),
        "amp": upper_edge_amplitude(eps, xs),
        "il": np.asarray(int_l0(xs, side=1)),
    }


def _minus_depth(n: int, tau: float, eps: float) -> float:
    """Depth of the vertical leg needed at (n, tau).

    Probes the net exponent Im S / eps - (1 - tau) y on a coarse grid (the
    basis sine grows like e^{(1 - tau) y} at the well edge, so raw Im S
    overstates the decay) and returns the first depth where it clears the
    working level with margin.  Raises when even the master depth cannot,
    which happens when the saddle sits too far below threshold for the hook
    to be a sensible contour.
    """
    one_m_tau = 1.0 - tau
    ys = np.geomspace(1e-4, _MINUS_DEPTH, 400)
    p = 1.0 - 1j * ys
    s = p**2 * one_m_tau - 2.0 * np.pi * n * p + np.asarray(int_l0(p))
    net = s.imag / eps - one_m_tau * ys
    past = np.nonzero(net >= _DECAY_LEVEL + 14.0)[0]
    if past.size == 0:
        raise TruncationTooSmall(
            "vertical hook leg is too short for this (n, tau); the saddle "
            "sits too far below threshold for the hook contour"
        )
    return float(ys[past[0]])


def _minus_panels(n: int, tau: float, eps: float, depth: float) -> np.ndarray:
    """Panel boundaries on the vertical leg, graded for cusp and phase.

    Near the tip the 3/2-power cusp of the action asks for geometric
    refinement; away from it the quadratic phase p^2 (1 - tau) / eps
    oscillates with local frequency |Im S_p| / eps, which grows linearly
    in depth, so panel widths shrink to keep the phase swing per panel
    around _PANEL_PHASE radians (comfortable for an 8-point rule).
    """
    one_m_tau = 1.0 - tau
    two_pi_n = 2.0 * np.pi * n

    def freq(y: float) -> float:
        # |Im S_p(1 - iy)| / eps, with S_p = 2p(1 - tau) - 2 pi n + 2 asin(p)
        p = complex(1.0, -y)
        return abs((2.0 * p * one_m_tau - two_pi_n + 2.0 * cmath.asin(p)).imag) / eps

    bounds = [0.0, min(_MINUS_TIP, depth)]
    while bounds[-1] < depth:
        y = bounds[-1]
        h = min(0.6 * y, _PANEL_PHASE * eps / (freq(y) + 1e-3), 0.5)
        h = min(0.6 * y, _PANEL_PHASE * eps / (freq(y + h) + 1e-3), 0.5)
        bounds.append(min(y + h, depth))
    return np.array(bounds)


@lru_cache(maxsize=_EPS_SLOTS)
def _leg_amplitude_tables(eps: float) -> dict[str, np.ndarray]:
    """Cumulative amplitude integral down the vertical leg, cached per eps.

    The amplitude integrand does not depend on (n, tau); only the phase
    does.  One geometric vertex stack down to the master depth therefore
    serves every mode and every time.  Each fine segment stores its eight
    cumulative values (two ends plus six interior quadrature nodes) and the
    barycentric weights of the degree-7 interpolant through them, which is
    later evaluated at the oscillation-graded phase nodes.  The coarse pass
    at half resolution supplies the error estimate.
    """
    verts = [0.0, _MINUS_TIP]
    while verts[-1] < _MINUS_DEPTH:
        verts.append(min(verts[-1] * 1.3, _MINUS_DEPTH))
    v = np.array(verts)
    dense = bisect_polyline(v)
    coarse = path_cumulative(1.0 - 1j * v, eps, side=1, refine=False)
    fine = path_cumulative(1.0 - 1j * dense, eps, side=1, refine=False)
    est = float(np.max(np.abs(fine.lnA_points[0::2] - coarse.lnA_points)))

    nodes_y = np.concatenate(
        [dense[:-1, None], -fine.gauss.imag, dense[1:, None]], axis=1
    )
    nodes_c = np.concatenate(
        [fine.lnA_points[:-1, None], fine.lnA_gauss, fine.lnA_points[1:, None]],
        axis=1,
    )
    diff = nodes_y[:, :, None] - nodes_y[:, None, :]
    diff[:, np.arange(8), np.arange(8)] = 1.0
    bary = 1.0 / np.prod(diff, axis=2)
    return {
        "edges": dense,
        "y": nodes_y,
        "c": nodes_c,
        "bary": bary,
        "est": np.array([est]),
    }


def _leg_ln_amplitude(eps: float, ys: np.ndarray) -> np.ndarray:
    """ln A(1 - i y) - ln A(1) at arbitrary leg depths, by interpolation."""
    tab = _leg_amplitude_tables(eps)
    idx = np.clip(np.searchsorted(tab["edges"], ys) - 1, 0, tab["y"].shape[0] - 1)
    xs = tab["y"][idx]
    cs = tab["c"][idx]
    d = ys[:, None] - xs
    hit = d == 0.0
    d[hit] = 1.0
    q = tab["bary"][idx] / d
    val = np.sum(q * cs, axis=1) / np.sum(q, axis=1)
    exact = np.any(hit, axis=1)
    if np.any(exact):
        val[exact] = cs[exact][hit[exact]]
    return val


@lru_cache(maxsize=_MINUS_SLOTS)
def _minus_tables(eps: float, n: int, tau: float) -> dict[int, dict[str, np.ndarray]]:
    edges = _minus_panels(n, tau, eps, _minus_depth(n, tau, eps))
    amp_tab = _leg_amplitude_tables(eps)
    ln_one = _lnA_at_one(eps)
    table: dict[int, dict[str, np.ndarray]] = {}
    for rule in (8, 16):
        ys, w = _gl_nodes(edges, rule)
        table[rule] = {
            "ys": ys,
            "w": w,
            "p": 1.0 - 1j * ys,
            "amp": np.exp(ln_one + _leg_ln_amplitude(eps, ys)),
            "il": np.asarray(int_l0(1.0 - 1j * ys)),
            "amp_est": amp_tab["est"] + 5e-11,
        }
    return table


def _gamma_weights(
    n: int, tau: float, eps: float, rule: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Hook-contour nodes and weights for the inside integral at (n, tau).

    On the vertical leg |sin(px)| grows like e^{y x}, so truncation is
    decided by the net exponent Im S / eps - (1 - tau) y, not by Im S
    alone; nodes past net decay level + 10 contribute below 5e-20 and are
    dropped, which also keeps the basis sines out of overflow range.
    """
    plus = _plus_tables(eps, rule)
    minus = _minus_tables(eps, n, tau)[rule]
    one_m_tau = 1.0 - tau
    two_pi_n = 2.0 * np.pi * n

    s_minus = minus["p"] ** 2 * one_m_tau - two_pi_n * minus["p"] + minus["il"]
    net = s_minus.imag / eps - one_m_tau * minus["ys"]
    live = net < _DECAY_LEVEL + 10.0
    if live[-1]:
        raise TruncationTooSmall(
            "vertical hook leg is too short for this (n, tau); the saddle "
            "sits too far below threshold for the hook contour"
        )
    keep = int(np.nonzero(live)[0].max()) + 2 if np.any(live) else 1
    p_m = minus["p"][:keep]
    w_minus = (
        1j * minus["w"][:keep] * minus["amp"][:keep] * np.exp(1j * s_minus[:keep] / eps)
    )

    s_plus = plus["xs"] ** 2 * one_m_tau - two_pi_n * plus["xs"] + plus["il"]
    w_plus = plus["w"] * plus["amp"] * np.exp(1j * s_plus / eps)

    nodes = np.concatenate([p_m, plus["xs"]])
    weights = np.concatenate([w_minus, w_plus])
    amp_est = float(minus["amp_est"][0]) + 2e-9
    return nodes, weights, amp_est


# =====================================================================
# inside-the-well evaluation
# =====================================================================


@dataclass(frozen=True)
class FieldSample:
    """A batch of field values at fixed t: Psi_n(x_j, t) with error bars."""

    x: np.ndarray
    t: float
    psi: np.ndarray
    est_error: np.ndarray
    method: str


def _pick_inside_method(n: int, tau: float, eps: float) -> str:
    delta = tau_threshold(n) - tau
    window = min(_GAMMA_SWITCH * eps ** (1.0 / 3.0), _GAMMA_CAP)
    return "gamma" if delta <= window else "sd"


def mode_inside(
    params: ModelParams, t: float, x, method: str = "auto"
) -> FieldSample:
    """Psi_n(x, t) for x inside the well, by contour quadrature.

    x may be scalar or an array (all entries <= 1 - eps*t); the nodes and
    weights are built once and shared across the whole x batch.  The error
    estimate combines an embedded 8-vs-16 point quadrature comparison with
    the amplitude table's own accuracy report.
    """
    eps, n = params.eps, params.n
    tau = eps * t
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr > 1.0 - tau + 1e-12):
        raise ContourClash("mode_inside expects x <= 1 - eps*t; use mode_outside")
    if method == "auto":
        method = _pick_inside_method(n, tau, eps)

    if method == "gamma":
        nodes8, w8, _ = _gamma_weights(n, tau, eps, 8)
        nodes16, w16, amp_est = _gamma_weights(n, tau, eps, 16)
    elif method in ("sd", "ray"):
        verts = (
            trace_steepest(n, tau, eps)
            if method == "sd"
            else _ray_vertices(n, tau, eps)
        )
        [(nodes8, w8), (nodes16, w16)], amp_est = _inside_weights(verts, n, tau, eps)
    else:
        raise ValueError(f"unknown method {method!r}")

    pref = np.exp(1j * t) / np.sqrt(eps * np.pi)
    coarse = np.sin(np.multiply.outer(x_arr, nodes8)) @ w8
    # one sine matrix serves the sum and its error scale; taking the sine in
    # place keeps a single copy of it alive
    basis16 = np.multiply.outer(x_arr, nodes16)
    np.sin(basis16, out=basis16)
    fine = basis16 @ w16
    scale = np.abs(basis16) @ np.abs(w16)
    est = np.abs(pref) * (np.abs(fine - coarse) + amp_est * scale)
    return FieldSample(x_arr, t, pref * fine, est, method)


# =====================================================================
# outside-the-well evaluation
# =====================================================================


# One call evaluates one band.  It keeps its per-point name because the
# benchmark's tracer wraps wavefield._outside_single by that name.
def _outside_single(
    params: ModelParams, t: float, xi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Psi_n and its error bar at the sorted stretched coordinates xi of one band.

    The descent contour runs through the saddle at the band centre xi_c;
    the weights carry the phase St(p, xi_c) and the basis e^{i q0(p)(xi -
    xi_c)/eps} moves it to each xi.  A one-point band has xi = xi_c, so its
    basis is exactly one.
    """
    eps, n = params.eps, params.n
    tau = eps * t
    xi_c = 0.5 * (xi[0] + xi[-1])
    verts = trace_steepest(n, tau, eps, xi=xi_c)
    # At(p) = A(p - eps/2) e^{-part_l(p)}: one amplitude pass on the shifted
    # contour, which must stay clear of the cuts like the contour itself
    amps, amp_est = amplitude_along(verts - 0.5 * eps, eps)

    results = []
    for rule in (8, 16):
        nodes, w = _gl_nodes(verts, rule)
        part_l = (1j / eps) * (
            np.asarray(int_l0(nodes))
            - np.asarray(int_l0(nodes - 0.5 * eps))
            - 0.5 * eps * np.asarray(l0(nodes))
        )
        act = action(nodes, n, tau, xi=xi_c)
        weights = w * amps[rule] * nodes * np.exp(1j * act.value / eps - part_l)
        basis = np.exp((1j / eps) * np.multiply.outer(xi - xi_c, np.asarray(q0(nodes))))
        results.append((basis * weights).sum(axis=1))
    scale = np.abs(basis) @ np.abs(weights)
    pref = (-1.0) ** (n + 1) * np.exp(
        1j * t - 0.5j * xi - 0.25j * eps * (1.0 - tau)
    ) / np.sqrt(eps * np.pi)
    est = np.abs(pref) * (np.abs(results[1] - results[0]) + amp_est * scale)
    return pref * results[1], est


def mode_outside(params: ModelParams, t: float, x) -> FieldSample:
    """Psi_n(x, t) past the well edge, by descent through p~_n(tau, xi).

    Every admissible contour gives the same value, so nearby points share
    one: the sorted batch is cut into bands at most _BAND_WIDTH wide in x,
    and each band is summed on the contour through the saddle at its centre.
    The error estimate has `mode_inside`'s form: the 8-vs-16 point gap plus
    the amplitude's accuracy times the |basis| @ |weights| scale.  A shifted
    contour (module docstring) that meets a cut raises ContourClash.
    """
    eps = params.eps
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    xi = eps * (x_arr - (1.0 - eps * t))
    if np.any(xi < -1e-12):
        raise ContourClash("mode_outside expects x >= 1 - eps*t; use mode_inside")
    xi = np.maximum(xi, 0.0)
    order = np.argsort(x_arr, kind="stable")
    x_sorted = x_arr[order]
    vals = np.empty(x_arr.shape, dtype=complex)
    ests = np.empty(x_arr.shape, dtype=float)
    start = 0
    while start < order.size:
        stop = int(np.searchsorted(x_sorted, x_sorted[start] + _BAND_WIDTH, "right"))
        band = order[start:stop]
        vals[band], ests[band] = _outside_single(params, t, xi[band])
        start = stop
    return FieldSample(x_arr, float(t), vals, ests, "sd-outside")


def mode_solution(params: ModelParams, t: float, x, method: str = "auto") -> FieldSample:
    """Psi_n(x, t) on the whole half-line; splits the batch at the edge."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    edge = 1.0 - params.eps * t
    inside = x_arr <= edge
    psi = np.empty(x_arr.shape, dtype=complex)
    est = np.empty(x_arr.shape, dtype=float)
    labels = []
    if np.any(inside):
        s_in = mode_inside(params, t, x_arr[inside], method=method)
        psi[inside], est[inside] = s_in.psi, s_in.est_error
        labels.append(s_in.method)
    if np.any(~inside):
        s_out = mode_outside(params, t, x_arr[~inside])
        psi[~inside], est[~inside] = s_out.psi, s_out.est_error
        labels.append(s_out.method)
    return FieldSample(x_arr, float(t), psi, est, "+".join(labels))


# =====================================================================
# the generating lattice sum and its Fourier modes
# =====================================================================


def _q_edge(q: np.ndarray) -> np.ndarray:
    """Branch q0 on the real axis with outgoing-wave boundary values.

    For |q| > 1 the limit is taken from the side that makes the outgoing
    momentum positive: from above for q > 0, from below for q < 0.  Both
    give q0 = +sqrt(q^2 - 1).
    """
    q = np.asarray(q, dtype=float)
    out = np.empty(q.shape, dtype=complex)
    inner = np.abs(q) < 1.0
    out[inner] = 1j * np.sqrt(1.0 - q[inner] ** 2)
    out[~inner] = np.sqrt(q[~inner] ** 2 - 1.0)
    return out


def outgoing_momentum(p, eps: float):
    """Momentum of the transmitted wave attached to lattice point p."""
    q = np.asarray(p, dtype=float) + 0.5 * eps
    out = -0.5 * eps + _q_edge(q)
    return complex(out) if np.ndim(p) == 0 else out


def outgoing_factor(p, eps: float):
    """Transmission factor T(p) = -i q e^{i/eps} / (q0(q) + q), q = p + eps/2."""
    q = np.asarray(p, dtype=float) + 0.5 * eps
    qq = _q_edge(q)
    out = -1j * q * np.exp(1j / eps) / (qq + q)
    return complex(out) if np.ndim(p) == 0 else out


def _r_real(ks: np.ndarray, eps: float) -> np.ndarray:
    """Boundary values R(k) on the real axis, batched (R is even).

    Interior points share one cumulative amplitude polyline from the
    origin; edge points go through the cached per-period recursion.
    """
    av = np.abs(np.asarray(ks, dtype=float))
    uniq, inverse = np.unique(av, return_inverse=True)
    vals = np.empty(uniq.shape, dtype=complex)
    interior = uniq < 1.0
    if np.any(interior):
        pts = np.concatenate([[0.0], uniq[interior]])
        cum = path_cumulative(pts.astype(complex), eps, refine=True)
        amps = np.exp(cum.lnA_points[1:])
        vals[interior] = amps * np.exp(1j / eps * np.asarray(int_l0(uniq[interior])))
    if np.any(~interior):
        xs = uniq[~interior]
        amps = upper_edge_amplitude(eps, xs)
        vals[~interior] = amps * np.exp(1j / eps * np.asarray(int_l0(xs, side=1)))
    return vals[inverse]


def _lattice(p: float, eps: float) -> np.ndarray:
    reach = 1.0 + 16.0 * eps
    l_lo = int(np.ceil((-reach - p) / eps))
    l_hi = int(np.floor((reach - p) / eps))
    return p + eps * np.arange(l_lo, l_hi + 1)


def generating_series(params: ModelParams, t: float, x, p: float) -> np.ndarray:
    """The exact lattice-sum solution Psi(x, t; p) for one offset p.

    Inside the well the k-sum superposes standing waves sin(kx) R(k) with
    quadratic-in-k phases; outside it superposes the matched outgoing waves.
    Terms beyond |k| = 1 + 16 eps are dropped (R decays superexponentially
    past the branch point, reaching ~1e-3 per step of eps).
    """
    eps = params.eps
    tau = eps * t
    edge = 1.0 - tau
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    ks = _lattice(p, eps)
    r_k = _r_real(ks, eps)
    out = np.zeros(x_arr.shape, dtype=complex)

    inside = x_arr <= edge
    if np.any(inside):
        phase = np.exp(1j * ks**2 * edge / eps) * r_k
        waves = np.sin(np.multiply.outer(x_arr[inside], ks))
        out[inside] = np.exp(1j * t) * (waves @ phase)
    if np.any(~inside):
        p1 = outgoing_momentum(ks, eps)
        t_k = outgoing_factor(ks, eps)
        phase = np.exp(1j * p1**2 * edge / eps) * t_k * r_k
        waves = np.exp(1j * np.multiply.outer(x_arr[~inside], p1))
        out[~inside] = waves @ phase
    return out / np.sqrt(np.pi)


def fourier_mode(
    params: ModelParams, t: float, x, samples: int = 64
) -> np.ndarray:
    """Mode amplitude recovered from the lattice sum: the n-th p-Fourier
    coefficient of the generating series, times sqrt(eps).

    Entirely independent of the contour quadratures, so agreement with
    `mode_solution` validates both pipelines at once.
    """
    eps, n = params.eps, params.n
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    acc = np.zeros(x_arr.shape, dtype=complex)
    offsets = eps * (np.arange(samples) + 0.5) / samples
    for p in offsets:
        acc += generating_series(params, t, x_arr, float(p)) * np.exp(
            -2j * np.pi * n * p / eps
        )
    return np.sqrt(eps) * acc / samples


def interface_residuals(params: ModelParams, t: float, p: float) -> tuple[float, float]:
    """Mismatch of the lattice sum and its x-derivative at the well edge.

    Both vanish identically (the interface algebra below guarantees it);
    the numbers returned are a direct numerical check of that algebra with
    every branch convention in play.
    """
    eps = params.eps
    tau = eps * t
    edge = 1.0 - tau
    ks = _lattice(p, eps)
    r_k = _r_real(ks, eps)

    phase_in = np.exp(1j * ks**2 * edge / eps) * r_k
    val_in = np.exp(1j * t) * np.sum(np.sin(ks * edge) * phase_in)
    der_in = np.exp(1j * t) * np.sum(ks * np.cos(ks * edge) * phase_in)

    p1 = outgoing_momentum(ks, eps)
    t_k = outgoing_factor(ks, eps)
    phase_out = np.exp(1j * p1**2 * edge / eps) * t_k * r_k
    wave = np.exp(1j * p1 * edge)
    val_out = np.sum(wave * phase_out)
    der_out = np.sum(1j * p1 * wave * phase_out)
    return float(abs(val_in - val_out)), float(abs(der_in - der_out))


def scattering_residuals(p: float, eps: float) -> tuple[float, float]:
    """Residuals of the two-point interface relations of R, T and p1:

        R(p) - R(p+eps)            = 2i e^{-i/eps} T(p) R(p),
        p R(p) + (p+eps) R(p+eps)  = 2i e^{-i/eps} p1(p) T(p) R(p).

    These encode continuity of the lattice sum at the well edge pair by
    pair; they hold exactly, so the residuals measure quadrature noise.
    """
    r_here = r0(abs(p), eps).value
    r_next = r0(abs(p + eps), eps).value
    t_fac = outgoing_factor(p, eps)
    p1 = outgoing_momentum(p, eps)
    rhs = 2j * np.exp(-1j / eps) * t_fac * r_here
    res1 = abs(r_here - r_next - rhs)
    res2 = abs(p * r_here + (p + eps) * r_next - p1 * rhs)
    return float(res1), float(res2)
