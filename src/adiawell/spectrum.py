"""Instantaneous bound-state data of the shrinking well.

The well has depth 1 on 0 <= x <= 1 - tau (Dirichlet wall at x = 0) and the
slow time is tau = eps * t.  Mode n exists while tau <= tau_n = 1 - pi*(n - 1/2)
and its momentum p_n(tau) in (0, 1] solves the dispersion relation

    (1 - tau) * p + arcsin(p) = pi * n,

with energy E_n = p_n**2 - 1.  At the threshold p_n(tau_n) = 1 and E_n
vanishes quadratically: E_n = -(tau_n - tau)**2 * (1 + O(tau_n - tau)); the
momentum is analytic across tau_n, so no integrable-singularity handling is
needed anywhere downstream.

The relation is S_p = 0 for the mode integral's phase S(p; n, tau, xi) =
p^2 (1 - tau) - 2 pi n p + int_0^p l0 + q0(p) xi at xi = 0; `phase` gives S,
S_p and S_pp, and 2 / S_pp is d ln p / d tau at the saddle.

Everything here is scalar-exact and array-friendly: the dispersion relation is
solved by Newton's method in theta = arcsin p, where it is increasing and
concave, so the iterates from theta = 0 rise monotonically to the root; the
solve is vectorized over slow-time arrays for the adiabatic-phase integrals.

The outside-the-well coordinate is xi = eps * (x - (1 - tau)); the momentum
continues to complex values there as the saddle p~_n(tau, xi), the root of

    (1 - tau) * p + arcsin(p) - i * p * xi / (2 * sqrt(1 - p^2)) = pi * n,

found by Newton continuation in xi from the real root, staying in the first
quadrant with Re sqrt(1 - p~^2) > 0 (the branch that makes the outside field
decay).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._panels import gl_panels
from .errors import ContinuationFailure, NoEigenvalue

__all__ = [
    "ModelParams",
    "tau_threshold",
    "p_n",
    "e_n",
    "dlnpn_dtau",
    "int_e_n",
    "psi_n",
    "c_n_phase",
    "phase",
    "p_n_tilde",
]

_NEWTON_STEPS = 16
_NEWTON_TOL = 1e-13


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


@dataclass(frozen=True)
class ModelParams:
    """Slow-drive parameters: rate eps in (0, 1), mode index n >= 1."""

    eps: float
    n: int

    def __post_init__(self) -> None:
        _check_eps(self.eps)
        if self.n < 1:
            raise ValueError(f"mode index must be >= 1, got {self.n}")


def tau_threshold(n: int) -> float:
    """Slow time at which mode n stops existing: 1 - pi*(n - 1/2)."""
    return 1.0 - np.pi * (n - 0.5)


def _p_n_raw(n: int, tau: np.ndarray) -> np.ndarray:
    """Vectorized Newton solve of the dispersion relation; tau <= tau_n assumed.

    In theta = arcsin p the relation reads (1 - tau) sin(theta) + theta = pi n,
    whose left side is increasing and concave on [0, pi/2] (1 - tau >= pi/2).
    So Newton's iterates from theta = 0 climb to the root without overshoot;
    with tau_n - tau up to 1e5, 10 of the _NEWTON_STEPS reach it to rounding
    for n <= 5 and all 16 for n = 100.
    """
    one_m_tau = 1.0 - tau
    theta = np.zeros_like(tau)
    for _ in range(_NEWTON_STEPS):
        residual = one_m_tau * np.sin(theta) + theta - np.pi * n
        theta = theta - residual / (one_m_tau * np.cos(theta) + 1.0)
    return np.sin(theta)


def p_n(n: int, tau):
    """Bound-state momentum p_n(tau) in (0, 1]; NoEigenvalue past threshold."""
    tau_arr = np.asarray(tau, dtype=float)
    scalar = np.ndim(tau) == 0
    thr = tau_threshold(n)
    if np.any(tau_arr > thr + 1e-12):
        raise NoEigenvalue(
            f"mode n={n} only exists for tau <= {thr:.6f}, got tau={tau_arr.max():.6f}"
        )
    out = _p_n_raw(n, np.minimum(np.atleast_1d(tau_arr), thr)).reshape(tau_arr.shape)
    return float(out) if scalar else out


def e_n(n: int, tau):
    """Bound-state energy E_n(tau) = p_n**2 - 1 (negative below threshold)."""
    p = p_n(n, tau)
    return p * p - 1.0


def dlnpn_dtau(n: int, tau):
    """Logarithmic slope of the momentum, d ln p_n / d tau.

    Implicit differentiation of the dispersion relation gives
    1 / [(1 - tau) + (1 - p^2)^{-1/2}]; it is computed in the rearranged form
    sqrt(1-p^2) / [(1-tau) sqrt(1-p^2) + 1], which stays finite at the
    threshold where the slope vanishes linearly in tau_n - tau.
    """
    p = p_n(n, tau)
    tau_arr = np.asarray(tau, dtype=float)
    root = np.sqrt(np.maximum(1.0 - p * p, 0.0))
    return root / ((1.0 - tau_arr) * root + 1.0)


def int_e_n(n: int, tau_lo: float, tau_hi: float) -> float:
    """Integral of E_n over [tau_lo, tau_hi] by composite Gauss-Legendre.

    Both endpoints must be <= tau_n.  The integrand is smooth up to and
    including the threshold (quadratic zero), so fixed panels converge fast.
    """
    if tau_hi == tau_lo:
        return 0.0
    n_panels = max(4, int(np.ceil(abs(tau_hi - tau_lo) / 0.1)))
    edges = np.linspace(tau_lo, tau_hi, n_panels + 1)
    ts, weights = gl_panels(edges, 20)
    return float(np.sum(weights * e_n(n, ts.ravel()).reshape(ts.shape)))


def psi_n(n: int, tau, x):
    """Instantaneous eigenfunction: sin(p_n x) inside, decaying tail outside.

    Continuously differentiable across the edge x = 1 - tau by construction;
    the outside amplitude carries the sign (-1)^{n+1} and factor p_n.
    """
    p = p_n(n, tau)
    x_arr = np.asarray(x, dtype=float)
    scalar = np.ndim(x) == 0 and np.ndim(tau) == 0
    edge = 1.0 - np.asarray(tau, dtype=float)
    decay = np.sqrt(np.maximum(1.0 - p * p, 0.0))
    inside = np.sin(p * x_arr)
    outside = (-1.0) ** (n + 1) * p * np.exp(-decay * np.maximum(x_arr - edge, 0.0))
    out = np.where(x_arr <= edge, inside, outside)
    return float(out) if scalar else out


def c_n_phase(params: ModelParams) -> complex:
    """Fixed phase exp((i/eps)(2 tau_n - 3) + i pi/4) carried by mode n."""
    thr = tau_threshold(params.n)
    return complex(np.exp(1j * (2.0 * thr - 3.0) / params.eps + 1j * np.pi / 4.0))


# =====================================================================
# the phase of the mode integral, and its saddle continued outside
# =====================================================================


def phase(p: complex, n: int, tau: float, xi: float = 0.0):
    """(S, S_p, S_pp) at one point p off the cuts, on the principal branches
    2 asin p and i sqrt(1 - p^2), which are l0 and q0 there (see `branches`);
    None on a cut or where q0^3 underflows.  S_p / 2 is the residual of the
    dispersion relation continued to xi."""
    w = complex(p)
    q = 1j * cmath.sqrt((1.0 - w) * (1.0 + w))  # as `branches.q0`
    if (w.imag == 0.0 and abs(w.real) >= 1.0) or not abs(q) > 1e-100:
        return None
    one_m_tau = 1.0 - tau
    two_pi_n = 2.0 * math.pi * n
    el = 2.0 * cmath.asin(w)
    s = w * w * one_m_tau - two_pi_n * w + (w * el - 2j * q - 2.0)
    s_p = 2.0 * w * one_m_tau - two_pi_n + el
    s_pp = 2.0 * one_m_tau + 2j / q
    if xi != 0.0:
        s += q * xi
        s_p += xi * w / q
        s_pp -= xi / (q * q * q)  # q**3 would raise OverflowError, not give inf
    return s, s_p, s_pp


def p_n_tilde(n: int, tau: float, xi: float) -> complex:
    """Momentum continued to the outside coordinate xi >= 0.

    Newton continuation in xi from the real root p_n(tau), on S_p = 0 with
    slope S_pp (`phase`); the step is halved until every Newton solve
    converges.  The root must stay in the closed first quadrant with
    Re sqrt(1 - p~^2) > 0, else ContinuationFailure (so p_n = 1 fails).
    """
    if xi < 0.0:
        raise ContinuationFailure("xi must be >= 0 (outside the well)")
    p = complex(p_n(n, tau))
    done = 0.0
    step = max(xi / 8.0, min(xi, 0.25))
    while done < xi:
        target = min(xi, done + step)
        trial = p
        ok = False
        for _ in range(50):
            ev = phase(trial, n, tau, target)
            if ev is None:
                break
            _, s_p, s_pp = ev
            if abs(s_p) < 2.0 * _NEWTON_TOL:
                ok = True
                break
            trial = trial - s_p / s_pp
            if not cmath.isfinite(trial):
                break
        if ok and trial.real > 0.0 and trial.imag > -1e-12:
            p, done = trial, target
            continue
        step *= 0.5
        if step < 1e-8 * max(1.0, xi):
            raise ContinuationFailure(
                f"Newton continuation stalled at xi={done:.3g} of {xi:.3g} "
                f"(n={n}, tau={tau:.3g})"
            )
    if np.sqrt(1.0 - p * p).real <= 0.0:
        raise ContinuationFailure("continued root left the decaying branch")
    return p
