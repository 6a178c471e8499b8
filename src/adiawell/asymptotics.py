"""Leading-order closed forms for each stage of the mode's life.

While the bound state of mode n is far from its threshold slow time
tau_n = 1 - pi*(n - 1/2), the field is adiabatic: the instantaneous
eigenfunction carries a slowly varying amplitude sqrt(d ln p_n / d tau)
and the accumulated dynamical phase exp(-(i/eps) int E_n).  Outside the
well the same structure survives with the momentum continued to complex
values, p~_n(tau, xi), which both tilts the phase and sets the decay
rate of the tail.

Within an eps^(1/3)-wide window around tau_n the adiabatic amplitude is
no longer slow; the mode drains into the continuum and the field is
governed by the parabolic-barrier profile F evaluated at the rescaled
distance to threshold,

    Z_n = ((3/(4 eps)) * int_{tau_n}^{tau} E_n dtau')^(1/3) >= 0.

Past the threshold the surviving field inside the well is a sum of three
small pieces: the continuation of the transition profile (t0), a
resonance sum over the thresholds of the lower modes (r0), and a smooth
background integral (g0).  All three are proportional to sin(x), so the
spatial shape is frozen and only the complex amplitudes evolve.

`classify_regime` picks the window for a given slow time and
`best_leading` evaluates the matching formula; the window half-width
defaults to 5 * eps^(1/3) and can be overridden per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._panels import gl_panels
from .errors import ContinuationFailure
from .special import a_fn, f_transition, zeta_fn
from .spectrum import (
    ModelParams,
    c_n_phase,
    dlnpn_dtau,
    int_e_n,
    p_n,
    p_n_tilde,
    phase,
    psi_n,
    tau_threshold,
)

__all__ = [
    "RegimeLabel",
    "AftermathTerms",
    "regime_width",
    "classify_regime",
    "adiabatic_leading",
    "outside_leading",
    "transition_leading",
    "aftermath_terms",
    "aftermath_sum",
    "best_leading",
    "resonance_weights",
]

# regime window half-width, in units of eps^(1/3)
_WIDTH_UNITS = 5.0
# below this Z_n the transition amplitude uses its threshold limit (4 eps)^(1/3)
_Z_FLOOR = 1e-9
# the background integral is cut at s* = _G0_SPLIT / (tau - tau_n); the
# neglected tail is O(exp(-2 _G0_SPLIT)) times an O(1) constant
_G0_SPLIT = 20.0
# panel width (in the substituted variable u = sqrt(s)) and rule order
_G0_PANEL_U = 0.5
# f_0 = sum_{k>=1} (-1)^(k+1) k^(-3/2) = (1 - 2^(-1/2)) zeta_R(3/2), with
# zeta_R(3/2) = 2.612375348685488343348567567924071752
_F0 = (1.0 - 2.0**-0.5) * 2.612375348685488343348567567924071752


class RegimeLabel(Enum):
    """Which asymptotic window a slow time falls into."""

    ADIABATIC = "adiabatic"
    TRANSITION = "transition"
    AFTERMATH = "aftermath"


@dataclass(frozen=True)
class AftermathTerms:
    """The three pieces of the post-threshold field at one (x, t).

    t0 is the continued transition profile, r0 the resonance sum over
    lower-mode thresholds, g0 the smooth background; z_scaled is the
    rescaled distance to threshold (tau_n - tau) / (4 eps)^(1/3),
    negative once the mode is gone.
    """

    t0: complex | np.ndarray
    r0: complex | np.ndarray
    g0: complex | np.ndarray
    z_scaled: float


def regime_width(eps: float, delta_reg: float | None = None) -> float:
    """Half-width of the transition window around tau_n."""
    if delta_reg is not None:
        return float(delta_reg)
    return _WIDTH_UNITS * float(eps) ** (1.0 / 3.0)


def classify_regime(
    params: ModelParams, t: float, delta_reg: float | None = None
) -> RegimeLabel:
    """Label the slow time tau = eps*t; tau = tau_n itself is Transition."""
    tau = params.eps * t
    thr = tau_threshold(params.n)
    if tau > thr:
        return RegimeLabel.AFTERMATH
    if thr - tau >= regime_width(params.eps, delta_reg):
        return RegimeLabel.ADIABATIC
    return RegimeLabel.TRANSITION


# =====================================================================
# below threshold: slow amplitude on the instantaneous mode
# =====================================================================


def _dynamical_phase(params: ModelParams, tau: float) -> complex:
    """exp(-(i/eps) int_{tau_n}^{tau} E_n dtau'), a unimodular factor."""
    thr = tau_threshold(params.n)
    return complex(np.exp(-1j * int_e_n(params.n, thr, tau) / params.eps))


def adiabatic_leading(params: ModelParams, x, t: float):
    """Slowly-modulated instantaneous mode, valid far below threshold.

    The amplitude sqrt(d ln p_n / d tau) is real and shrinks to zero at
    the threshold; the x-dependence is the instantaneous eigenfunction,
    including its decaying tail past the well edge.  Vectorized over x.
    """
    tau = params.eps * t
    coeff = (
        c_n_phase(params)
        * np.sqrt(dlnpn_dtau(params.n, tau))
        * _dynamical_phase(params, tau)
    )
    out = coeff * psi_n(params.n, tau, x)
    return complex(out) if np.ndim(x) == 0 else out


def _decay_integral(n: int, tau: float, xi: float, pt: complex) -> complex:
    """int_0^xi sqrt(1 - p~_n(tau, xi')^2) dxi' on the Re-positive branch.

    pt is p~_n(tau, xi).  Along the saddle S_p = 0, so dS(p~, xi')/dxi' =
    q0(p~) = i sqrt(1 - p~^2) and the integral is -i [S(p~, xi) - S(p_n, 0)]
    (`phase`, principal branches, as in the dispersion relation).
    """
    return -1j * (phase(pt, n, tau, xi)[0] - phase(p_n(n, tau), n, tau)[0])


def outside_leading(params: ModelParams, x, t: float):
    """Adiabatic field past the well edge, through the continued momentum.

    At xi = eps*(x - (1 - tau)) the momentum root p~_n(tau, xi) replaces
    p_n; its logarithmic slow-time slope supplies the amplitude and the
    accumulated sqrt(1 - p~^2) supplies the decay; 2 / S_pp at p~ is that
    slope.  Points left of the edge are rejected by the continuation, and
    so is any point at or past the threshold.
    """
    tau = params.eps * t
    n, eps = params.n, params.eps
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    coeff = c_n_phase(params) * _dynamical_phase(params, tau)
    sign = (-1.0) ** (n + 1)
    out = np.empty(x_arr.shape, dtype=complex)
    for i, xv in enumerate(x_arr):
        xi = eps * (xv - (1.0 - tau))
        if xi < 0.0:
            raise ContinuationFailure(
                f"x = {xv} lies inside the well edge 1 - tau = {1.0 - tau}"
            )
        pt = p_n_tilde(n, tau, xi)
        dln = 2.0 / phase(pt, n, tau, xi)[2]
        damp = _decay_integral(n, tau, xi, pt)
        out[i] = (
            coeff
            * np.sqrt(dln)
            * sign
            * pt
            * np.exp(-damp / eps - 0.5j * xi)
        )
    return complex(out[0]) if np.ndim(x) == 0 else out


# =====================================================================
# the threshold window
# =====================================================================


def scaled_threshold_distance(params: ModelParams, t: float) -> float:
    """Z_n = ((3/(4 eps)) int_{tau_n}^{tau} E_n)^(1/3), real and >= 0."""
    tau = params.eps * t
    thr = tau_threshold(params.n)
    acc = int_e_n(params.n, thr, tau)
    return float(np.cbrt(0.75 * acc / params.eps))


def transition_leading(params: ModelParams, x, t: float):
    """Parabolic-profile formula valid up to the threshold itself.

    The amplitude sqrt((1/Z_n) d ln p_n / d tau) tends to (4 eps)^(1/6)
    as Z_n -> 0 (both factors vanish linearly in tau_n - tau); the limit
    value is substituted below the _Z_FLOOR cut to avoid a 0/0.
    """
    tau = params.eps * t
    big_z = scaled_threshold_distance(params, t)
    if big_z < _Z_FLOOR:
        ratio = np.cbrt(4.0 * params.eps)
    else:
        ratio = dlnpn_dtau(params.n, tau) / big_z
    profile = f_transition(np.exp(1j * np.pi / 6.0) * big_z)
    out = (
        c_n_phase(params)
        * np.sqrt(ratio)
        * profile
        * psi_n(params.n, tau, x)
    )
    return complex(out) if np.ndim(x) == 0 else out


# =====================================================================
# past the threshold
# =====================================================================

def resonance_weights(n: int) -> np.ndarray:
    """Weights f_0..f_{n-1}: f_k = (-1)^k k^(-3/2), f_0 = -sum_{k>=1} f_k."""
    ks = np.arange(n, dtype=float)
    out = np.empty(n, dtype=float)
    out[0] = _F0
    if n > 1:
        out[1:] = (-1.0) ** ks[1:] * ks[1:] ** -1.5
    return out


def _background_integral(gap: float) -> float:
    """Re int_0^inf exp(-2 s gap) (e^{i pi/4} zeta(i s) + 2 sqrt(s)) ds.

    The substitution s = u^2 removes the sqrt kink at the origin, leaving
    a smooth integrand on [0, sqrt(s*)]; past s* = _G0_SPLIT / gap the
    damping factor alone is exp(-2 _G0_SPLIT) and the bracket is already
    decaying like s^(-3/2), so the tail is dropped.
    """
    u_top = np.sqrt(_G0_SPLIT / gap)
    n_panels = max(4, int(np.ceil(u_top / _G0_PANEL_U)))
    nodes, weights = gl_panels(np.linspace(0.0, u_top, n_panels + 1), 16)
    us = nodes.ravel()
    s = us * us
    bracket = np.exp(0.25j * np.pi) * zeta_fn(1j * s) + 2.0 * us
    vals = np.exp(-2.0 * s * gap) * bracket * 2.0 * us
    return float(np.sum(weights.ravel() * vals.real))


def aftermath_terms(params: ModelParams, x, t: float) -> AftermathTerms:
    """The three post-threshold pieces at (x, t), each proportional to sin x.

    r0 sums over the thresholds of modes n, n-1, ..., 1 (the only ones a
    field started in mode n can shed into); the neglected remainder of
    the alternating series is below k^(-5/2) times the eps-sized term
    scale.  g0 switches on only once tau - tau_n exceeds eps^(1/3).
    """
    n, eps = params.n, params.eps
    tau = eps * t
    thr = tau_threshold(n)
    cn = c_n_phase(params)
    sin_x = np.sin(np.asarray(x, dtype=float))
    cbrt4e = np.cbrt(4.0 * eps)
    z_scaled = (thr - tau) / cbrt4e

    t0 = cbrt4e ** 0.5 * cn * sin_x * f_transition(
        np.exp(1j * np.pi / 6.0) * z_scaled
    )

    ks = np.arange(n, dtype=float)
    zs = (thr + np.pi * ks - tau) / cbrt4e
    series = resonance_weights(n) * (
        (0.5 * eps) ** (2.0 / 3.0) * a_fn(zs)
        - 0.125j * (1.0 - tau) * eps / 2.0 * a_fn(zs, 2)
    )
    r0 = cn * sin_x / np.pi**1.5 * np.sum(series)

    gap = tau - thr
    if gap <= eps ** (1.0 / 3.0):
        g0 = 0.0 * sin_x + 0.0j
    else:
        g0 = (
            1j
            * cn
            * np.sqrt(2.0 / np.pi)
            * eps
            * sin_x
            / gap
            * _background_integral(gap)
        )

    if np.ndim(x) == 0:
        return AftermathTerms(complex(t0), complex(r0), complex(g0), z_scaled)
    return AftermathTerms(t0, r0, g0, z_scaled)


def aftermath_sum(params: ModelParams, x, t: float):
    """Sum t0 + r0 + g0 of the post-threshold pieces."""
    terms = aftermath_terms(params, x, t)
    return terms.t0 + terms.r0 + terms.g0


# =====================================================================
# dispatch
# =====================================================================


def best_leading(
    params: ModelParams, x, t: float, delta_reg: float | None = None
):
    """Evaluate the formula matching the regime of t; returns (value, label).

    In the adiabatic regime points past the well edge use the continued
    momentum; the transition and aftermath formulas already cover the
    whole of [0, 1 - tau] and are used as-is.
    """
    label = classify_regime(params, t, delta_reg)
    tau = params.eps * t
    if label is RegimeLabel.TRANSITION:
        return transition_leading(params, x, t), label
    if label is RegimeLabel.AFTERMATH:
        return aftermath_sum(params, x, t), label
    edge = 1.0 - tau
    if np.ndim(x) == 0:
        if x > edge:
            return outside_leading(params, x, t), label
        return adiabatic_leading(params, x, t), label
    x_arr = np.asarray(x, dtype=float)
    out = np.asarray(adiabatic_leading(params, x_arr, t), dtype=complex)
    far = x_arr > edge
    if np.any(far):
        out[far] = outside_leading(params, x_arr[far], t)
    return out, label
