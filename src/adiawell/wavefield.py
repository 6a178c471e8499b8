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
function of `branches`; `spectrum.phase` gives S at one point, `action` on
arrays and on the cuts.  Outside the well, with xi = eps*(x - (1 - tau)),

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
               p = 1 and the hook is the numerically stable choice.  Its
               eps-only parts (edge nodes with A there, A(1), the amplitude
               down the vertical leg) are built once per eps; the leg's nodes
               follow the phase of each (n, tau) and are built per call.
               Its sine basis is summed in closed form from real matrices,
               e^{xy} on the leg and sin(px) on the edge (`_hook_sums`).
* ``ray``      the fixed line e^{i pi/4} R.  Simple and saddle-free, but the
               integrand climbs to e^{(pi n)^2/(2(1-tau) eps)} before it
               cancels, so it is only a cross-check at moderate eps.

The automatic dispatch uses ``gamma`` once tau_n - tau <= 2 eps^{1/3} (the
saddle enters the eps^{1/3} collision neighbourhood of p = 1, where the
descent geometry degenerates), capped at 0.6, and while the hook's vertical
leg can reach the decay level, decided by one evaluation of S at the leg's
full depth (at larger eps and n it cannot over part of that window); ``sd``
otherwise.

The lattice sum behind the integral
-----------------------------------
The contour representation is the Poisson resummation of a lattice sum: for
any offset p the superposition over k in p + eps Z,

    Psi(x, t; p) = 1/sqrt(pi) * sum_k e^{i k^2 (1-tau)/eps} sin(kx) R(k)
                                                        (inside the well),

with matching outgoing terms outside, solves the problem exactly, and the
mode solution is recovered as the n-th Fourier coefficient in p, inside the
well and past its edge, before and after tau_n (`fourier_mode`).  Both the
lattice sum (`generating_series`, `fourier_mode`) and the interface algebra
tying R to the outgoing factors (`scattering_residuals`) are implemented
independently of the contour machinery, which makes strong mutual
cross-checks possible: the two routes share only the Gauss-Legendre panels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from ._panels import cusp_panels, gl_panels
from .branches import int_l0, l0, l0_prime, q0
from .errors import ContinuationFailure, ContourClash, TraceDiverged, TruncationTooSmall
from .spectrum import (
    ModelParams,
    dlnpn_dtau,
    int_e_n,
    p_n,
    p_n_tilde,
    phase,
    tau_threshold,
)
from .symbolfield import (
    _LADDER_EST,
    _dense,
    _g_values,  # noqa: F401  (unused here; adiabench/tracing.py wraps it)
    _ln_r0_real,
    _lnA_at_one,  # noqa: F401  (unused here; adiabench/tracing.py wraps it)
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
_PANEL_PHASE = 4.5      # max radians of e^{iS/eps} per vertical-leg panel
_RAY_ANGLE = 0.25 * np.pi
_LEG_TOO_SHORT = ("vertical hook leg is too short for this (n, tau); the saddle "
                  "sits too far below threshold for the hook contour")
# widest x span that shares one exterior contour; values do not move with the
# width, but the error bar's |basis| scale grows (2% at 2, twofold at 16)
_BAND_WIDTH = 2.0
# memo bound: hook tables per eps
_EPS_SLOTS = 8
# first degree of the Chebyshev sum in x (`_contour_sum`), doubled until its
# coefficient tail reaches rounding
_CHEB_START = 24
# points per offset piece of the lattice route's two levels (`fourier_mode`)
_LATTICE_RULES = (32, 40)


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

    An untagged scalar p off the cuts is `spectrum.phase`, on principal
    branches.  Arrays, side tags, points on a cut or at a tip, and points so
    near a tip that q0^3 underflows to 0 go through the `branches`
    functions.
    """
    if np.ndim(p) == 0 and np.ndim(side) == 0 and side == 0:
        ev = phase(p, n, tau, xi)
        if ev is not None:
            return ActionEval(*ev)
    one_m_tau = 1.0 - tau
    two_pi_n = 2.0 * np.pi * n
    z = np.asarray(p, dtype=complex)
    s = z * z * one_m_tau - two_pi_n * z + int_l0(z, side)
    d1 = 2.0 * z * one_m_tau - two_pi_n + l0(z, side)
    # the curvature is infinite at the branch points; S and S_p stay finite
    tip = (z.imag == 0.0) & (np.abs(z.real) == 1.0)
    d2 = np.full(z.shape, complex(np.inf), dtype=complex)
    if np.any(~tip):
        side_arr = np.broadcast_to(np.asarray(side), z.shape)
        d2[~tip] = 2.0 * one_m_tau + l0_prime(z[~tip], side_arr[~tip])
    if xi != 0.0:
        # an array, so that a q0^3 that underflows gives d2 = inf, not a raise
        q = np.asarray(q0(z, side))
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
    width = math.sqrt(eps / abs(ev.d2))
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
) -> np.ndarray:
    """Vertices of the steepest-descent contour through the saddle.

    Both branches are traced by arc-length stepping along
    dp/ds = i conj(S_p)/|S_p| (which keeps Re S frozen and drives Im S up at
    unit rate) with a Heun predictor and a Newton re-projection onto
    Re S = Re S(saddle) after every step.  Tracing stops once
    Im S - Im S(saddle) >= _DECAY_LEVEL * eps; the returned polyline is ordered
    like the original line contour, from the lower-left end to the
    upper-right end, saddle in the middle.

    The steps run on scalar `action` calls, which are `spectrum.phase` off
    the cuts.  Each branch's polyline, saddle first, is checked against the
    cuts once it is traced; one that meets a cut raises TraceDiverged.  A
    saddle on the branch point p = 1 (tau = tau_n) raises ContinuationFailure.
    """
    tau, xi = float(tau), float(xi)
    p0 = complex(p_n_tilde(n, tau, xi) if xi != 0.0 else p_n(n, tau))
    base = action(p0, n, tau, xi=xi)
    if not cmath.isfinite(base.d2):
        # p_n = 1 at tau_n; p_n_tilde refuses it for xi > 0
        raise ContinuationFailure(
            f"saddle p_n sits on the branch point p = 1 (n={n}, tau={tau:.6f}); "
            "no descent contour passes through it"
        )
    c_re = base.value.real
    im0 = base.value.imag
    first_dir = cmath.exp(1j * (0.25 * math.pi - 0.5 * cmath.phase(base.d2)))
    step0 = _STEP_FRACTION * math.sqrt(eps / abs(base.d2))

    branches: list[list[complex]] = []
    for sgn in (1.0, -1.0):
        p = p0 + sgn * first_dir * step0
        pts: list[complex] = []
        while True:
            ev = action(p, n, tau, xi=xi)
            # re-project onto the constant-Re S curve
            for _ in range(2):
                drift = ev.value.real - c_re
                if abs(drift) < 1e-13 * (1.0 + abs(c_re)):
                    break
                p = p - drift * ev.d1.conjugate() / abs(ev.d1) ** 2
                ev = action(p, n, tau, xi=xi)
            pts.append(p)
            if ev.value.imag - im0 >= _DECAY_LEVEL * eps:
                break
            if len(pts) > _MAX_STEPS or abs(p) > _TRACE_RADIUS:
                raise TraceDiverged(
                    f"descent trace did not reach the decay level "
                    f"(|p|={abs(p):.2f}, steps={len(pts)})"
                )
            ds = _local_step(ev, eps)
            v1 = 1j * ev.d1.conjugate() / abs(ev.d1)
            mid = action(p + ds * v1, n, tau, xi=xi)
            v2 = 1j * mid.d1.conjugate() / abs(mid.d1)
            p = p + 0.5 * ds * (v1 + v2)
        if _meets_cut(np.array([p0] + pts)):
            raise TraceDiverged("descent path attempted to cross a cut")
        branches.append(pts)

    # orient: the branch ending farther up-right plays the +infinity role
    end_a, end_b = branches[0][-1], branches[1][-1]
    if (end_a.real + end_a.imag) >= (end_b.real + end_b.imag):
        plus, minus = branches[0], branches[1]
    else:
        plus, minus = branches[1], branches[0]
    return np.array(minus[::-1] + [p0] + plus, dtype=complex)


def _ray_vertices(n: int, tau: float, eps: float) -> np.ndarray:
    """Vertices along the fixed line e^{i pi/4} R, truncated by Im S."""
    direction = np.exp(1j * _RAY_ANGLE)
    sides: list[list[complex]] = []
    for sgn in (-1.0, 1.0):
        pts: list[complex] = []
        s = 0.0
        while True:
            ev = action(sgn * direction * max(s, 1e-9), n, tau)
            if ev.value.imag >= _DECAY_LEVEL * eps:
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
# the hook contour through p = 1 (its eps-only parts built once per eps)
# =====================================================================

def _edge_periods(eps: float) -> int:
    """Number of eps-periods of the upper edge before Im S outruns the decay level."""
    m = 1
    while m < 100000:
        tail = complex(int_l0(1.0 + m * eps, side=1)).imag
        if tail >= (_DECAY_LEVEL + 5.0) * eps:
            return m
        m += 1
    raise TruncationTooSmall("upper edge decay level not reached; eps too large?")


@lru_cache(maxsize=_EPS_SLOTS)
def _hook_tables(eps: float) -> dict:
    """The parts of the hook that depend on eps alone, built once per eps.

    "edge": per rule (8, 16), the upper-edge nodes "xs" on one mapped panel
    per half-period (A has a sqrt cusp at each mid-period point, and the
    first half-period meets the action's 3/2-power cusp at 1), their weights
    times A ("wa") and int_l0 ("il").  One `upper_edge_amplitude` call gives
    A there and at 1 ("a_one", the factor of the leg's values), each one exp
    of ln R0 less its phase.  "leg": one sweep down the vertical leg at
    depths "leg_y" doubling from 1e-7, with its bar "leg_est"; its dense
    output serves the phase-graded nodes of every (n, tau).
    """
    xs, w = {}, {}
    halves_count = 2 * _edge_periods(eps)
    for rule in (8, 16):
        halves = [
            cusp_panels(
                1.0 + 0.5 * eps * np.array([k, k + 1]), rule,
                at_start=k % 2 == 1 or k == 0, at_end=k % 2 == 0,
            )
            for k in range(halves_count)
        ]
        xs[rule] = np.concatenate([nodes.ravel() for nodes, _ in halves])
        w[rule] = np.concatenate([wk.ravel() for _, wk in halves])
    amp8, amp16, amp_one = np.split(
        upper_edge_amplitude(eps, np.concatenate([xs[8], xs[16], [1.0]])),
        [xs[8].size, xs[8].size + xs[16].size],
    )
    leg_y = [0.0, 1e-7]
    while leg_y[-1] < _MINUS_DEPTH:
        leg_y.append(min(leg_y[-1] * 2.0, _MINUS_DEPTH))
    leg, leg_est = path_cumulative(1.0 - 1j * np.array(leg_y), eps, side=1)
    edge = {
        rule: {"xs": xs[rule], "wa": w[rule] * a, "il": np.asarray(int_l0(xs[rule], side=1))}
        for rule, a in ((8, amp8), (16, amp16))
    }
    return {
        "edge": edge, "a_one": complex(amp_one[0]),
        "leg": leg, "leg_y": np.array(leg_y), "leg_est": leg_est,
    }


def _leg_phase(n: int, tau: float, eps: float, y: float) -> tuple[float, float]:
    """(|Im S_p| / eps, N) at depth y > 0 of the vertical leg p = 1 - iy: the local
    frequency of e^{iS/eps} and the net exponent N = Im S / eps - (1 - tau) y (the
    basis sine grows like e^{(1 - tau) y} at the well edge).  N is convex: its slope
    (2 pi n - 2(1 - tau) - 2 Re asin(1 - iy)) / eps - (1 - tau) grows as Re asin falls.
    """
    s, s_p, _ = phase(complex(1.0, -y), n, tau)
    return abs(s_p.imag) / eps, s.imag / eps - (1.0 - tau) * y


def _leg_too_short(n: int, tau: float, eps: float) -> bool:
    """Whether N misses the decay level + 14 at _MINUS_DEPTH, where the leg's
    table ends and, N being convex, largest: the saddle is too far below
    threshold for the hook."""
    return _leg_phase(n, tau, eps, _MINUS_DEPTH)[1] < _DECAY_LEVEL + 14.0


def _minus_panels(n: int, tau: float, eps: float) -> np.ndarray:
    """Panel boundaries on the vertical leg, sized for the phase.

    The tip panel [0, eps/4] holds the 3/2-power cusp of the action at the
    branch point, which `cusp_panels` maps away, and stays well inside the
    distance eps/2 to the nearest singularities of L0 at 1 +- eps/2.  Below
    it panels grow by at most 0.6 y, and the quadratic phase
    p^2 (1 - tau) / eps oscillates with local frequency |Im S_p| / eps, which
    grows linearly in depth, so panel widths shrink to keep the phase swing
    per panel around _PANEL_PHASE radians (comfortable for an 8-point rule).
    The walk ends at the first panel end where the net exponent N reaches
    the decay level + 10 (nodes past it contribute below 5e-20), or at
    _MINUS_DEPTH; a leg too short to reach the level raises.
    """
    if _leg_too_short(n, tau, eps):
        raise TruncationTooSmall(_LEG_TOO_SHORT)
    bounds = [0.0, 0.25 * eps]
    while bounds[-1] < _MINUS_DEPTH:
        y = bounds[-1]
        freq, net = _leg_phase(n, tau, eps, y)
        if net >= _DECAY_LEVEL + 10.0:
            break
        h = min(0.6 * y, _PANEL_PHASE / (freq + 1e-3), 0.5)
        h = min(0.6 * y, _PANEL_PHASE / (_leg_phase(n, tau, eps, y + h)[0] + 1e-3), 0.5)
        bounds.append(min(y + h, _MINUS_DEPTH))
    return np.array(bounds)


def _leg_ln_amplitude(eps: float, ys: np.ndarray) -> np.ndarray:
    """ln A(1 - i y) - ln A(1) at arbitrary leg depths, by dense output."""
    tables = _hook_tables(eps)
    edges = tables["leg_y"]
    seg = np.clip(np.searchsorted(edges, ys) - 1, 0, edges.size - 2)
    u = (2.0 * ys - edges[seg] - edges[seg + 1]) / (edges[seg + 1] - edges[seg])
    return _dense(tables["leg"], seg, u)


def _gamma_weights(n: int, tau: float, eps: float) -> tuple[list[tuple], float]:
    """Hook weights W_j at (n, tau) for the 8- and 16-point rules, each rule a leg
    block (depths y_j of p_j = 1 - i y_j, W_j) and an edge block (p_j >= 1, W_j).

    On the vertical leg |sin(px)| grows like e^{xy}, so the leg ends where
    the net exponent Im S / eps - (1 - tau) y has cleared the decay level
    (`_minus_panels`), by _MINUS_DEPTH at the latest.  So x y <= 12 (1 - tau):
    e^{xy} stays finite while 1 - tau < 59 (at n <= 3 x y reaches 86, at
    eps 0.2, tau_3).
    """
    edges = _minus_panels(n, tau, eps)
    one_m_tau = 1.0 - tau
    two_pi_n = 2.0 * np.pi * n
    tables = _hook_tables(eps)
    rules = []
    for rule in (8, 16):
        ys, w = (a.ravel() for a in cusp_panels(edges, rule, at_start=True))
        p_m = 1.0 - 1j * ys
        s_minus = p_m**2 * one_m_tau - two_pi_n * p_m + np.asarray(int_l0(p_m))
        amp = tables["a_one"] * np.exp(_leg_ln_amplitude(eps, ys))
        w_minus = 1j * w * amp * np.exp(1j * s_minus / eps)

        plus = tables["edge"][rule]
        s_plus = plus["xs"] ** 2 * one_m_tau - two_pi_n * plus["xs"] + plus["il"]
        w_plus = plus["wa"] * np.exp(1j * s_plus / eps)
        rules.append(((ys, w_minus), (plus["xs"], w_plus)))
    return rules, tables["leg_est"] + _LADDER_EST


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
    """The hook within its window below threshold, where its leg can reach the
    decay level (`_leg_too_short`); descent otherwise."""
    delta = tau_threshold(n) - tau
    window = min(_GAMMA_SWITCH * eps ** (1.0 / 3.0), _GAMMA_CAP)
    if delta > window or _leg_too_short(n, tau, eps):
        return "sd"
    return "gamma"


def _matrix_sums(fn, coords, rule, scale: bool):
    """basis @ W for the basis fn(c k_j), rule = (k, W), and |basis| @ |W| if scale."""
    k, w = rule
    basis = np.multiply.outer(coords, k)
    fn(basis, out=basis)  # in place, so one copy of the basis lives
    return basis @ w, np.abs(basis) @ np.abs(w) if scale else None


def _real_times(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """m @ w for a real matrix m and a complex vector w, without a complex copy of m."""
    return m @ np.column_stack([w.real, w.imag]) @ [1.0, 1.0j]


def _hook_sums(x, rule, scale: bool):
    """`_matrix_sums` for sin on a hook rule ((y, W) of the leg, (k, W) of the edge)
    by real matrices: sin(px) = sin x cosh(xy) - i cos x sinh(xy) and |sin(px)|^2
    = sin^2 x + sinh^2(xy) at p = 1 - iy, and sin(px) is real on the edge."""
    (ys, w_leg), (ks, w_edge) = rule
    grow = np.exp(np.multiply.outer(x, ys))
    decay = 1.0 / grow
    up, down = _real_times(grow, w_leg), _real_times(decay, w_leg)
    edge = np.sin(np.multiply.outer(x, ks))
    total = 0.5 * (np.sin(x) * (up + down) - 1j * np.cos(x) * (up - down))
    total += _real_times(edge, w_edge)
    if not scale:
        return total, None
    grow -= decay  # 2 sinh(xy); in place, so the leg never holds more than two matrices
    np.hypot(2.0 * np.sin(x)[:, None], grow, out=grow)
    return total, 0.5 * (grow @ np.abs(w_leg)) + np.abs(edge, out=edge) @ np.abs(w_edge)


def _cheb_points(lo: float, hi: float, m: int) -> np.ndarray:
    """The m + 1 Chebyshev points of the second kind on [lo, hi], ascending; the
    points of degree m are the even-indexed points of degree 2m, bit for bit."""
    pts = lo + 0.5 * (hi - lo) * (1.0 - np.cos(np.pi * np.arange(m + 1) / m))
    pts[-1] = hi
    return pts


def _cheb_tail(vals: np.ndarray) -> np.ndarray:
    """|c_k| for k > 3m/4 of the Chebyshev series through vals at `_cheb_points`,
    by the cosine sums of a DCT-I.  j k is reduced mod 2m first: cos of a rounded
    argument near m pi would be off by ~m pi eps, far above the tail sought."""
    m = vals.size - 1
    k = np.arange(3 * m // 4 + 1, m + 1)
    ends = np.ones(m + 1)
    ends[[0, -1]] = 0.5
    cos = np.cos(np.pi / m * (np.multiply.outer(k, np.arange(m + 1)) % (2 * m)))
    tail = np.abs(cos @ (ends * vals)) * (2.0 / m)
    tail[-1] *= 0.5
    return tail


def _barycentric(pts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rows that carry values at the Chebyshev points pts to the points u, by the
    barycentric formula (Berrut & Trefethen, SIAM Rev. 46 (2004) 501)."""
    w = (-1.0) ** np.arange(pts.size)
    w[[0, -1]] *= 0.5
    rows = np.subtract.outer(u, pts)
    hit = np.nonzero(rows == 0.0)
    with np.errstate(divide="ignore"):
        np.divide(w, rows, out=rows)
    rows[hit[0]] = 0.0
    rows[hit] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def _chebyshev_sum(sums, lo: float, hi: float, rule, limit: int):
    """sums(pts, rule, True) at the Chebyshev points pts of [lo, hi], for the first
    degree m = _CHEB_START * 2^k whose coefficient tail is at rounding.

    A value's rounding is about eps |basis| @ |W|, and the transform to
    coefficients at most doubles it, so the tail is at rounding once it is
    below 2 eps times the largest scale; Aurentz & Trefethen, ACM TOMS 43
    (2017) 33, chop a series where its coefficients reach rounding.  Each
    doubling sums at its m / 2 new points only, so it goes on while they
    number fewer than limit, the batch size (m < 2 limit).  Returns (pts,
    values, scale, tail sum), or None once the new points would reach limit.
    """
    m = _CHEB_START
    pts = _cheb_points(lo, hi, m)
    vals, scale = sums(pts, rule, True)
    while True:
        tail = _cheb_tail(vals)
        if tail.max() <= 2.0 * np.finfo(float).eps * scale.max():
            return pts, vals, scale, tail.sum()
        m *= 2
        if m >= 2 * limit:
            return None
        pts = _cheb_points(lo, hi, m)
        new_vals, new_scale = sums(pts[1::2], rule, True)
        # interleave: the old points are the even-indexed ones
        vals = np.insert(new_vals, np.arange(vals.size), vals)
        scale = np.insert(new_scale, np.arange(scale.size), scale)


def _contour_sum(sums, u, rules, amp_est: float, pref) -> tuple[np.ndarray, np.ndarray]:
    """pref * sum_j W_j b_j(u) at each real u by the 16-point rule of rules (8
    points, 16 points), and its bar: the 8-vs-16 point gap plus amp_est carried
    through |basis| @ |W|, which sums(u, rule, scale=True) also gives.

    The sums are analytic in u.  A batch of more than _CHEB_START + 1 points on
    a non-degenerate interval takes them at Chebyshev points of that interval
    (`_chebyshev_sum`, which picks the degree from the coefficient tail) and
    interpolates both rules barycentrically, and the bar adds the coefficient
    tail.  The scale |basis| @ |W| has kinks where one node's |b_j| dips to 0
    (n >= 2), below which its polynomial interpolant rings; the bar takes the
    larger of that interpolant and the piecewise-linear one, which spans each
    kink from above.  Smaller batches, and batches the degree cannot undercut,
    sum at u directly.
    """
    cheb = None
    if u.size > _CHEB_START + 1 and u.max() > u.min():
        cheb = _chebyshev_sum(sums, u.min(), u.max(), rules[1], u.size)
    if cheb is None:
        coarse, _ = sums(u, rules[0], False)
        fine, scale = sums(u, rules[1], True)
        return pref * fine, np.abs(pref) * (np.abs(fine - coarse) + amp_est * scale)
    pts, vals, scale, tail = cheb
    coarse, _ = sums(pts, rules[0], False)
    rows = _barycentric(pts, u)
    fine = _real_times(rows, vals)
    # the interpolant of the gap, not the gap of two interpolants of size |psi|
    gap = np.abs(_real_times(rows, vals - coarse))
    scale = np.maximum(rows @ scale, np.interp(u, pts, scale))
    return pref * fine, np.abs(pref) * (gap + amp_est * scale + tail)


def mode_inside(
    params: ModelParams, t: float, x, method: str = "auto"
) -> FieldSample:
    """Psi_n(x, t) for x inside the well, by contour quadrature.

    x may be scalar or an array (all entries <= 1 - eps*t); the nodes and
    weights are built once and shared across the whole x batch.  A batch of
    more than _CHEB_START + 1 points, not all equal, is summed at m + 1 Chebyshev points
    of [min x, max x], m doubled from _CHEB_START until the coefficient tail
    reaches rounding, and interpolated barycentrically (`_contour_sum`); so
    the basis never holds more than (m + 1) x nodes entries.  The error
    estimate combines an embedded 8-vs-16 point quadrature comparison with
    the amplitude table's own accuracy report, carried through |basis| @ |W|,
    plus the coefficient tail where the batch was interpolated.
    """
    eps, n = params.eps, params.n
    tau = eps * t
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr > 1.0 - tau + 1e-12):
        raise ContourClash("mode_inside expects x <= 1 - eps*t; use mode_outside")
    if method == "auto":
        method = _pick_inside_method(n, tau, eps)

    if method == "gamma":
        rules, amp_est = _gamma_weights(n, tau, eps)
    elif method in ("sd", "ray"):
        verts = trace_steepest(n, tau, eps) if method == "sd" else _ray_vertices(n, tau, eps)
        rules, amp_est = _inside_weights(verts, n, tau, eps)
    else:
        raise ValueError(f"unknown method {method!r}")

    pref = np.exp(1j * t) / np.sqrt(eps * np.pi)
    sums = _hook_sums if method == "gamma" else partial(_matrix_sums, np.sin)
    psi, est = _contour_sum(sums, x_arr, rules, amp_est, pref)
    return FieldSample(x_arr, t, psi, est, method)


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

    rules = []
    for rule in (8, 16):
        nodes, w = _gl_nodes(verts, rule)
        part_l = (1j / eps) * (
            np.asarray(int_l0(nodes))
            - np.asarray(int_l0(nodes - 0.5 * eps))
            - 0.5 * eps * np.asarray(l0(nodes))
        )
        act = action(nodes, n, tau, xi=xi_c)
        weights = w * amps[rule] * nodes * np.exp(1j * act.value / eps - part_l)
        rules.append((np.asarray(q0(nodes)), weights))
    pref = (-1.0) ** (n + 1) * np.exp(
        1j * t - 0.5j * xi - 0.25j * eps * (1.0 - tau)
    ) / np.sqrt(eps * np.pi)

    def band_sums(xs, rule, scale):
        return _matrix_sums(np.exp, (1j / eps) * (xs - xi_c), rule, scale)

    return _contour_sum(band_sums, xi, rules, amp_est, pref)


def mode_outside(params: ModelParams, t: float, x) -> FieldSample:
    """Psi_n(x, t) past the well edge, by descent through p~_n(tau, xi).

    Every admissible contour gives the same value, so nearby points share
    one: the sorted batch is cut into bands at most _BAND_WIDTH wide in x,
    and each band is summed on the contour through the saddle at its centre,
    with `mode_inside`'s error bar (`_contour_sum`).  A shifted contour
    (module docstring) that meets a cut raises ContourClash.
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


def mode_solution(params: ModelParams, t: float, x) -> FieldSample:
    """Psi_n(x, t) on the whole half-line; splits the batch at the edge."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    edge = 1.0 - params.eps * t
    inside = x_arr <= edge
    psi = np.empty(x_arr.shape, dtype=complex)
    est = np.empty(x_arr.shape, dtype=float)
    labels = []
    if np.any(inside):
        s_in = mode_inside(params, t, x_arr[inside])
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


def outgoing_momentum(p, eps: float):
    """Momentum -eps/2 + q0(q), q = p + eps/2, of the transmitted wave attached to
    lattice point p.  On the cut q0 is taken from above for q > 0 and from below
    for q < 0, the sides that make the wave outgoing: both give +sqrt(q^2 - 1)."""
    q = np.asarray(p, dtype=float) + 0.5 * eps
    out = -0.5 * eps + q0(q, np.sign(q))
    return complex(out) if np.ndim(p) == 0 else out


def outgoing_factor(p, eps: float):
    """Transmission factor T(p) = -i q e^{i/eps} / (q0(q) + q), q = p + eps/2 (q0 as in
    `outgoing_momentum`)."""
    q = np.asarray(p, dtype=float) + 0.5 * eps
    out = -1j * q * np.exp(1j / eps) / (q0(q, np.sign(q)) + q)
    return complex(out) if np.ndim(p) == 0 else out


def _lattice_terms(eps: float, t: float, offsets):
    """Offsets p (a column) and steps eps l (a row) of k = p + eps l, p1(k) and the
    phases of sin(kx) and e^{i p1 x}, a row per offset p.

    Terms beyond |k| = 1 + m eps are dropped, m = `_edge_periods`(eps), the
    hook's own truncation: there Im int_l0 has passed the decay level, so |R|
    is below e^-50.  Shorter rows are padded with terms of phase 0.  R, which
    is even, comes from one `_ln_r0_real` call at |k|.
    """
    p = np.atleast_1d(np.asarray(offsets, dtype=float))[:, None]
    edge = 1.0 - eps * t
    reach = 1.0 + _edge_periods(eps) * eps
    lo, hi = (-reach - p) / eps, (reach - p) / eps
    ell = np.arange(int(np.ceil(lo.min())), int(np.floor(hi.max())) + 1)
    ks = p + eps * ell
    live = (lo <= ell) & (ell <= hi)
    r_k = np.zeros(ks.shape, dtype=complex)
    r_k[live] = np.exp(_ln_r0_real(eps, np.abs(ks[live]))[0])
    p1 = outgoing_momentum(ks, eps)
    phase_in = np.exp(1j * t) * np.exp(1j * ks**2 * edge / eps) * r_k
    phase_out = np.exp(1j * p1**2 * edge / eps) * outgoing_factor(ks, eps) * r_k
    return p, eps * ell, p1, phase_in, phase_out


def generating_series(params: ModelParams, t: float, x, p) -> np.ndarray:
    """The exact lattice-sum solution Psi(x, t; p) for one offset p, or a row per offset.

    Inside the well the k-sum superposes standing waves sin(kx) R(k) with
    quadratic-in-k phases; outside it superposes the matched outgoing waves
    (`_lattice_terms` builds the terms of all offsets in one pass).
    """
    eps = params.eps
    edge = 1.0 - eps * t
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    offsets, shifts, p1, phase_in, phase_out = _lattice_terms(eps, t, p)
    out = np.empty((p1.shape[0], x_arr.size), dtype=complex)

    inside = x_arr <= edge
    # sin(kx) = sin(px) cos(eps l x) + cos(px) sin(eps l x): the k-sums of all
    # offsets are products with one pair of (lattice, x) matrices
    px, lx = offsets * x_arr[inside], np.multiply.outer(shifts, x_arr[inside])
    out[:, inside] = np.sin(px) * (phase_in @ np.cos(lx)) + np.cos(px) * (phase_in @ np.sin(lx))
    # past the edge one offset at a time, so the wave matrix stays (x, lattice) in size
    for row, q, ph_out in zip(out, p1, phase_out):
        row[~inside] = np.exp(1j * np.multiply.outer(x_arr[~inside], q)) @ ph_out
    out /= np.sqrt(np.pi)
    return out[0] if np.ndim(p) == 0 else out


def fourier_mode(params: ModelParams, t: float, x) -> FieldSample:
    """Psi_n(x, t) from the lattice sum: sqrt(eps) times the n-th p-Fourier
    coefficient of the generating series, inside the well and past its edge.

    In p the series has square-root cusps, those of R and of the outgoing
    factor, at p = +-1 and +-(1 + eps/2) mod eps.  One `cusp_panels` panel
    with both ends mapped on each piece of the period between them converges
    spectrally (Davis & Rabinowitz, sec. 2.12), where a midpoint rule
    converges only algebraically.  Both levels of
    _LATTICE_RULES come from one `generating_series` call; the finer gives
    the value and their gap the bar.  No contour code is involved, so
    agreement with `mode_solution` validates both pipelines at once.
    """
    eps, n = params.eps, params.n
    # the cusps mod eps, on the circle: one within rounding of the next is dropped
    cuts = np.sort(np.mod([1.0, -1.0, 1.0 + 0.5 * eps, -1.0 - 0.5 * eps], eps))
    cuts = cuts[np.diff(cuts, append=cuts[0] + eps) > 1e-14]
    ends = np.append(cuts, cuts[0] + eps)
    levels = []
    for rule in _LATTICE_RULES:
        pieces = [cusp_panels(ends[j:j + 2], rule, at_start=True, at_end=True)
                  for j in range(cuts.size)]
        p, w = (np.concatenate(a, axis=None) for a in zip(*pieces))
        levels.append((p, w * np.exp(-2j * np.pi * n * p / eps) / np.sqrt(eps)))
    (p_coarse, w_coarse), (p_fine, w_fine) = levels
    rows = generating_series(params, t, x, np.concatenate([p_coarse, p_fine]))
    coarse, fine = w_coarse @ rows[:p_coarse.size], w_fine @ rows[p_coarse.size:]
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    return FieldSample(x_arr, float(t), fine, np.abs(fine - coarse), "lattice")


def interface_residuals(params: ModelParams, t: float, p: float) -> tuple[float, float]:
    """Mismatch of the lattice sum and its x-derivative at the well edge.

    Both vanish identically (the interface algebra below guarantees it);
    the numbers returned are a direct numerical check of that algebra with
    every branch convention in play.
    """
    edge = 1.0 - params.eps * t
    offsets, shifts, p1, phase_in, phase_out = _lattice_terms(params.eps, t, p)
    ks = offsets + shifts
    val_in = np.sum(np.sin(ks * edge) * phase_in)
    der_in = np.sum(ks * np.cos(ks * edge) * phase_in)
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
