"""Regime formulas: frozen values, matching laws, convergence spot checks."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import zeta as riemann_zeta

from adiawell import asymptotics as asy
from adiawell import wavefield as wf
from adiawell._panels import gl_panels
from adiawell.errors import ContinuationFailure
from adiawell.special import a_fn
from adiawell.spectrum import (
    ModelParams,
    c_n_phase,
    dlnpn_dtau,
    p_n_tilde,
    psi_n,
    tau_threshold,
)

THR1 = tau_threshold(1)
THR2 = tau_threshold(2)

# frozen on first build; regression guards, not derivations
ADIABATIC_REF = {
    0.5: 0.15561974067981 + 0.07793706171605j,
    2.0: 0.41919167488730 + 0.20993845185596j,
}
OUTSIDE_REF = 0.01105815046179 + 0.00664861369910j
TRANSITION_REF = -0.30804384379491 + 0.01591636990801j
AFTERMATH_REF = {
    "t0": 0.01667239301622 - 0.06927025973905j,
    "r0": 0.00197742030436 - 0.00751377510715j,
    "g0": 0.00062896940273 + 0.00164576419515j,
    "z": -0.76948917600451,
}
BACKGROUND_REF = {0.4: 0.033174594491, 0.8: 0.019245864859}


# ---------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------


def test_classify_regime_rule():
    params = ModelParams(eps=0.05, n=1)
    width = 5.0 * 0.05 ** (1.0 / 3.0)
    cases = [
        (THR1 - 10.0 * 0.05 ** (1.0 / 3.0), asy.RegimeLabel.ADIABATIC),
        (THR1 - 1.001 * width, asy.RegimeLabel.ADIABATIC),
        (THR1 - 0.5 * width, asy.RegimeLabel.TRANSITION),
        (THR1, asy.RegimeLabel.TRANSITION),
        (THR1 + 1e-9, asy.RegimeLabel.AFTERMATH),
        (THR1 + 0.5, asy.RegimeLabel.AFTERMATH),
    ]
    for tau, want in cases:
        assert asy.classify_regime(params, tau / 0.05) is want


def test_classify_regime_width_override():
    params = ModelParams(eps=0.05, n=1)
    tau = THR1 - 0.3
    assert asy.classify_regime(params, tau / 0.05) is asy.RegimeLabel.TRANSITION
    assert (
        asy.classify_regime(params, tau / 0.05, delta_reg=0.1)
        is asy.RegimeLabel.ADIABATIC
    )


# ---------------------------------------------------------------------
# adiabatic window
# ---------------------------------------------------------------------


def test_adiabatic_frozen_values():
    params = ModelParams(eps=0.1, n=1)
    for x, ref in ADIABATIC_REF.items():
        got = asy.adiabatic_leading(params, x, -2.0 / 0.1)
        assert abs(got - ref) < 1e-12


def test_adiabatic_amplitude_is_scaled_mode():
    params = ModelParams(eps=0.1, n=1)
    tau = -2.0
    xs = np.linspace(0.1, 2.9, 9)
    got = np.abs(asy.adiabatic_leading(params, xs, tau / 0.1))
    want = np.sqrt(dlnpn_dtau(1, tau)) * np.abs(psi_n(1, tau, xs))
    assert np.max(np.abs(got - want)) < 1e-13


def test_adiabatic_first_order():
    xs = np.linspace(0.3, 2.5, 4)
    errs = []
    for eps in (0.1, 0.05):
        params = ModelParams(eps=eps, n=1)
        t = -2.0 / eps
        worst = 0.0
        for x in xs:
            exact = wf.mode_inside(params, t, x).psi.item()
            worst = max(worst, abs(exact - asy.adiabatic_leading(params, x, t)))
        errs.append(worst)
    assert 1.6 < errs[0] / errs[1] < 2.5


# ---------------------------------------------------------------------
# outside the well
# ---------------------------------------------------------------------


def test_outside_frozen_value():
    params = ModelParams(eps=0.1, n=1)
    got = asy.outside_leading(params, 3.0 + 0.5 / 0.1, -2.0 / 0.1)
    assert abs(got - OUTSIDE_REF) < 1e-12


def _decay_by_quadrature(n, tau, xi):
    """int_0^xi sqrt(1 - p~^2): a frozen copy of the quadrature the closed form
    replaced, 12 Gauss nodes per 0.2 of xi, each node continued from xi = 0."""
    nodes, weights = gl_panels(np.linspace(0.0, xi, max(1, int(np.ceil(xi / 0.2))) + 1), 12)
    return sum(
        w * np.sqrt(1.0 - p_n_tilde(n, tau, u) ** 2)
        for u, w in zip(nodes.ravel(), weights.ravel())
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_decay_integral_closed_form_matches_quadrature(n):
    for gap in (0.6, 1.2, 3.0):
        tau = tau_threshold(n) - gap
        for xi in (1e-3, 0.5, 2.0, 6.0):
            closed = asy._decay_integral(n, tau, xi, p_n_tilde(n, tau, xi))
            assert abs(closed - _decay_by_quadrature(n, tau, xi)) <= 1e-13
    assert asy._decay_integral(n, tau, 0.0, p_n_tilde(n, tau, 0.0)) == 0.0


def test_outside_matches_interior_tail_at_small_xi():
    params = ModelParams(eps=0.05, n=1)
    t = -2.0 / 0.05
    for xi, tol in ((1e-4, 1e-4), (1e-2, 5e-3)):
        x = 3.0 + xi / 0.05
        ratio = asy.outside_leading(params, x, t) / asy.adiabatic_leading(
            params, x, t
        )
        assert abs(ratio - 1.0) < tol


def test_outside_magnitude_decreasing():
    params = ModelParams(eps=0.05, n=1)
    t = -2.0 / 0.05
    vals = [
        abs(asy.outside_leading(params, 3.0 + s, t)) for s in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))


def test_outside_first_order_relative():
    rel = []
    for eps in (0.1, 0.05):
        params = ModelParams(eps=eps, n=1)
        t = -2.0 / eps
        x = 3.0 + 0.5 / eps
        exact = wf.mode_outside(params, t, x).psi.item()
        rel.append(abs(exact - asy.outside_leading(params, x, t)) / abs(exact))
    assert 1.6 < rel[0] / rel[1] < 2.5


def test_outside_rejects_interior_point():
    params = ModelParams(eps=0.1, n=1)
    with pytest.raises(ContinuationFailure):
        asy.outside_leading(params, 2.5, -2.0 / 0.1)


# ---------------------------------------------------------------------
# transition window
# ---------------------------------------------------------------------


def test_transition_frozen_value():
    params = ModelParams(eps=0.1, n=1)
    got = asy.transition_leading(params, 0.9, THR1 / 0.1)
    assert abs(got - TRANSITION_REF) < 1e-12


def test_scaled_distance_zero_at_threshold():
    params = ModelParams(eps=0.1, n=1)
    assert asy.scaled_threshold_distance(params, THR1 / 0.1) == 0.0
    assert asy.scaled_threshold_distance(params, (THR1 - 0.2) / 0.1) > 0.2


def test_transition_threshold_limit():
    # at tau_n the amplitude collapses to (4 eps)^(1/6) and the profile to F(0)
    from adiawell.special import f_transition

    params = ModelParams(eps=0.1, n=1)
    got = asy.transition_leading(params, 0.7, THR1 / 0.1)
    want = (
        c_n_phase(params)
        * (4.0 * 0.1) ** (1.0 / 6.0)
        * f_transition(0.0)
        * psi_n(1, THR1, 0.7)
    )
    assert abs(got - want) < 1e-10


def test_transition_matches_exact_at_threshold():
    eps = 0.1
    params = ModelParams(eps=eps, n=1)
    t = THR1 / eps
    exact = wf.mode_inside(params, t, 0.9, method="gamma").psi.item()
    got = asy.transition_leading(params, 0.9, t)
    assert abs(got - exact) < 0.5 * eps ** (2.0 / 3.0)


def test_transition_large_z_reduction():
    devs = []
    for eps in (0.02, 0.01):
        params = ModelParams(eps=eps, n=1)
        t = (THR1 - 0.3) / eps
        big_z = asy.scaled_threshold_distance(params, t)
        ratio = asy.transition_leading(params, 0.8, t) / asy.adiabatic_leading(
            params, 0.8, t
        )
        assert abs(ratio - 1.0) < big_z**-3
        devs.append(abs(ratio - 1.0))
    assert devs[1] < devs[0]


def test_transition_adiabatic_overlap_band():
    for eps in (0.05, 0.025):
        params = ModelParams(eps=eps, n=1)
        width = asy.regime_width(eps)
        for frac in (1.0, 1.5, 2.0):
            tau = THR1 - frac * width
            t = tau / eps
            ad = asy.adiabatic_leading(params, 0.9, t)
            tr = asy.transition_leading(params, 0.9, t)
            assert abs(tr - ad) <= 0.1 * max(abs(ad), eps)


# ---------------------------------------------------------------------
# aftermath
# ---------------------------------------------------------------------


def test_aftermath_frozen_terms():
    params = ModelParams(eps=0.05, n=2)
    terms = asy.aftermath_terms(params, 0.7, (THR2 + 0.45) / 0.05)
    assert abs(terms.t0 - AFTERMATH_REF["t0"]) < 1e-12
    assert abs(terms.r0 - AFTERMATH_REF["r0"]) < 1e-12
    assert abs(terms.g0 - AFTERMATH_REF["g0"]) < 1e-12
    assert abs(terms.z_scaled - AFTERMATH_REF["z"]) < 1e-12


def test_aftermath_sum_is_term_sum():
    params = ModelParams(eps=0.05, n=2)
    t = (THR2 + 0.45) / 0.05
    terms = asy.aftermath_terms(params, 0.7, t)
    assert asy.aftermath_sum(params, 0.7, t) == terms.t0 + terms.r0 + terms.g0


def test_resonance_weights():
    fk = asy.resonance_weights(4)
    assert abs(fk[0] - (1.0 - 2.0**-0.5) * riemann_zeta(1.5)) < 1e-12
    ks = np.arange(1.0, 4.0)
    assert np.allclose(fk[1:], (-1.0) ** ks * ks**-1.5, rtol=0, atol=1e-15)


def test_background_integral_frozen():
    for gap, ref in BACKGROUND_REF.items():
        assert abs(asy._background_integral(gap) - ref) < 1e-10


def test_g0_switch():
    eps = 0.05
    params = ModelParams(eps=eps, n=2)
    below = asy.aftermath_terms(params, 0.7, (THR2 + 0.9 * eps ** (1 / 3)) / eps)
    above = asy.aftermath_terms(params, 0.7, (THR2 + 1.1 * eps ** (1 / 3)) / eps)
    assert below.g0 == 0.0
    assert abs(above.g0) > 0.0


def test_r0_far_from_thresholds_form():
    # between consecutive thresholds the sum collapses to simple poles
    n, eps = 2, 0.05
    params = ModelParams(eps=eps, n=n)
    tau = THR2 + np.pi / 2.0
    terms = asy.aftermath_terms(params, 0.7, tau / eps)
    fk = asy.resonance_weights(n)
    taus = THR2 + np.pi * np.arange(n)
    far = (
        1j
        * eps
        * c_n_phase(params)
        * np.sin(0.7)
        / (2.0 * np.pi**1.5)
        * np.sum(fk / (taus - tau))
    )
    assert abs(terms.r0 - far) < eps**1.5


def test_t0_late_time_tail():
    eps = 0.05
    params = ModelParams(eps=eps, n=1)
    gap = 1.5
    terms = asy.aftermath_terms(params, 0.5, (THR1 + gap) / eps)
    tail = -1j * c_n_phase(params) * eps * np.sin(0.5) / (2.0 * gap**2.5)
    assert abs(terms.t0 / tail - 1.0) < 0.1


def test_t0_matches_transition_approaching_threshold():
    rel = []
    for eps in (0.1, 0.0125):
        params = ModelParams(eps=eps, n=1)
        t = (THR1 - 0.5 * eps ** (1.0 / 3.0)) / eps
        tr = asy.transition_leading(params, 0.9, t)
        t0 = asy.aftermath_terms(params, 0.9, t).t0
        rel.append(abs(tr - t0) / abs(tr))
    assert rel[1] < rel[0]
    assert rel[1] < 0.15


def test_resonance_single_term_at_lower_threshold():
    # mode 3 evaluated while mode 1 dies: that threshold's term dominates r0
    n, eps = 3, 0.05
    params = ModelParams(eps=eps, n=n)
    terms = asy.aftermath_terms(params, 0.7, THR1 / eps)
    fk = asy.resonance_weights(n)
    single = (
        c_n_phase(params)
        * np.sin(0.7)
        / np.pi**1.5
        * (0.5 * eps) ** (2.0 / 3.0)
        * fk[2]
        * a_fn(0.0)
    )
    assert abs(terms.r0 - single) < 0.5 * eps


def test_aftermath_vs_exact_field():
    eps, n = 0.05, 2
    params = ModelParams(eps=eps, n=n)
    t = (THR2 + 0.2) / eps
    exact = wf.mode_inside(params, t, 0.7, method="gamma").psi.item()
    total = asy.aftermath_sum(params, 0.7, t)
    z = asy.aftermath_terms(params, 0.7, t).z_scaled
    bound = eps ** (7.0 / 6.0) + eps ** (2.0 / 3.0) / (1.0 + abs(z)) ** 2.5
    assert abs(exact - total) < bound


# ---------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------


def test_best_leading_adiabatic_split():
    params = ModelParams(eps=0.1, n=1)
    t = -2.0 / 0.1
    xs = np.array([0.4, 1.8, 3.2, 4.0])
    got, label = asy.best_leading(params, xs, t, delta_reg=1.0)
    assert label is asy.RegimeLabel.ADIABATIC
    want_in = asy.adiabatic_leading(params, xs[:2], t)
    want_out = asy.outside_leading(params, xs[2:], t)
    assert np.max(np.abs(got[:2] - want_in)) < 1e-14
    assert np.max(np.abs(got[2:] - want_out)) < 1e-14


def test_best_leading_scalar_paths():
    params = ModelParams(eps=0.1, n=1)
    t = -2.0 / 0.1
    v_in, lab = asy.best_leading(params, 0.5, t, delta_reg=1.0)
    assert lab is asy.RegimeLabel.ADIABATIC
    assert v_in == asy.adiabatic_leading(params, 0.5, t)
    v_out, _ = asy.best_leading(params, 3.7, t, delta_reg=1.0)
    assert v_out == asy.outside_leading(params, 3.7, t)
    v_tr, lab = asy.best_leading(params, 0.5, THR1 / 0.1)
    assert lab is asy.RegimeLabel.TRANSITION
    assert v_tr == asy.transition_leading(params, 0.5, THR1 / 0.1)
    t_after = (THR1 + 0.5) / 0.1
    v_af, lab = asy.best_leading(params, 0.5, t_after)
    assert lab is asy.RegimeLabel.AFTERMATH
    assert v_af == asy.aftermath_sum(params, 0.5, t_after)
