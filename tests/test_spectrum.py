"""Tests for the instantaneous bound-state layer."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

from adiawell.errors import ContinuationFailure, NoEigenvalue
from adiawell.spectrum import (
    ModelParams,
    c_n_phase,
    dlnpn_dtau,
    e_n,
    int_e_n,
    p_n,
    p_n_tilde,
    psi_n,
    tau_threshold,
)

RNG = np.random.default_rng(11)

# mpmath bisection at 30 digits, frozen
P_FROZEN = {
    (1, -2.0): 0.7596208866919427709,
    (2, -6.0): 0.77167380655559186009,
}
PT_FROZEN = {(1, -2.0, 0.5): 0.74938230183335706168 + 0.061115398623640980784j}
INT_E1_FROZEN = -0.28874675252601068435  # int of E_1 over [-2, tau_1]


def test_thresholds():
    assert abs(tau_threshold(1) - (1.0 - np.pi / 2.0)) < 1e-15
    assert abs(tau_threshold(2) - (1.0 - 1.5 * np.pi)) < 1e-15
    assert tau_threshold(3) < tau_threshold(2) < tau_threshold(1)


def test_p_n_frozen_and_residual():
    for (n, tau), want in P_FROZEN.items():
        p = p_n(n, tau)
        assert abs(p - want) < 1e-13
        assert abs((1.0 - tau) * p + np.arcsin(p) - np.pi * n) < 1e-12


def test_p_n_array_and_monotonicity():
    taus = np.linspace(-8.0, tau_threshold(1), 60)
    ps = p_n(1, taus)
    assert np.all(np.diff(ps) > 0.0)  # momentum climbs toward 1
    assert np.all((ps > 0.0) & (ps <= 1.0))
    assert abs(p_n(1, tau_threshold(1)) - 1.0) < 1e-12


def _bisected_p_n(n, tau):
    """The 64-step bisection on [0, 1] that the Newton solve replaced, frozen."""
    lo, hi = np.zeros_like(tau), np.ones_like(tau)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        low_side = (1.0 - tau) * mid + np.arcsin(mid) < np.pi * n
        lo, hi = np.where(low_side, mid, lo), np.where(low_side, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_p_n_matches_frozen_bisection(n):
    # at the threshold and from 1e-12 to 50 below it; against 40-digit
    # mpmath roots the bisection is off by up to 2.5e-16, the Newton solve
    # by up to 1.9e-16, so two units at p = 1 cover both
    below = np.concatenate([[0.0], np.geomspace(1e-12, 50.0, 400)])
    tau = tau_threshold(n) - below
    assert np.max(np.abs(p_n(n, tau) - _bisected_p_n(n, tau))) <= 4.5e-16
    assert p_n(n, tau_threshold(n)) == 1.0


def test_p_n_past_threshold_raises():
    with pytest.raises(NoEigenvalue):
        p_n(1, tau_threshold(1) + 0.01)


def test_e_n_quadratic_near_threshold():
    thr = tau_threshold(1)
    for delta in (1e-2, 1e-3, 1e-4):
        ratio = e_n(1, thr - delta) / (-(delta**2))
        assert abs(ratio - 1.0) < 5.0 * delta + 1e-6


def test_dlnpn_matches_finite_difference():
    for n, tau in ((1, -2.0), (2, -6.0), (1, -0.8)):
        h = 1e-6
        fd = (np.log(p_n(n, tau + h)) - np.log(p_n(n, tau - h))) / (2 * h)
        assert abs(fd - dlnpn_dtau(n, tau)) < 1e-8


def test_dlnpn_vanishes_at_threshold():
    thr = tau_threshold(1)
    assert dlnpn_dtau(1, thr) < 1e-6
    # linear approach: slope ratio to (tau_n - tau) tends to 1
    d = 1e-3
    assert abs(dlnpn_dtau(1, thr - d) / d - 1.0) < 0.05


def test_int_e_n_against_scipy_quad():
    got = int_e_n(1, -2.0, tau_threshold(1))
    assert abs(got - INT_E1_FROZEN) < 1e-11
    want, _ = quad(lambda t: e_n(1, t), -2.0, -1.2, epsabs=1e-12)
    assert abs(int_e_n(1, -2.0, -1.2) - want) < 1e-10
    assert int_e_n(1, -2.0, -2.0) == 0.0


def test_psi_n_shape():
    n, tau = 2, -6.0
    p = p_n(n, tau)
    edge = 1.0 - tau
    x = np.linspace(0.0, edge + 8.0, 2000)
    v = psi_n(n, tau, x)
    assert abs(v[0]) == 0.0
    # continuity and C^1 matching at the edge
    h = 1e-6
    assert abs(psi_n(n, tau, edge - h) - psi_n(n, tau, edge + h)) < 1e-5
    dm = (psi_n(n, tau, edge) - psi_n(n, tau, edge - h)) / h
    dp = (psi_n(n, tau, edge + h) - psi_n(n, tau, edge)) / h
    assert abs(dm - dp) < 1e-4
    # decay rate outside
    far = psi_n(n, tau, edge + 3.0) / psi_n(n, tau, edge + 2.0)
    assert abs(far - np.exp(-np.sqrt(1.0 - p * p))) < 1e-9


def test_c_n_phase_value():
    params = ModelParams(eps=0.1, n=1)
    c = c_n_phase(params)
    assert abs(abs(c) - 1.0) < 1e-15
    want = np.exp(1j * (2.0 * tau_threshold(1) - 3.0) / 0.1 + 0.25j * np.pi)
    assert abs(c - want) < 1e-12


def test_p_n_tilde_frozen_and_residual():
    got = p_n_tilde(1, -2.0, 0.5)
    assert abs(got - PT_FROZEN[(1, -2.0, 0.5)]) < 1e-11
    f = (1.0 + 2.0) * got + np.arcsin(got) - 0.5j * got * 0.5 / np.sqrt(1 - got * got) - np.pi
    assert abs(f) < 1e-11


def test_p_n_tilde_limits_and_branch():
    p0 = p_n_tilde(1, -2.0, 0.0)
    assert abs(p0 - p_n(1, -2.0)) < 1e-13
    for xi in (0.3, 1.0, 2.5):
        pt = p_n_tilde(1, -2.0, xi)
        assert pt.real > 0.0 and pt.imag > 0.0  # first quadrant
        assert np.sqrt(1.0 - pt * pt).real > 0.0  # decaying branch
    with pytest.raises(ContinuationFailure):
        p_n_tilde(1, -2.0, -1.0)


def test_p_n_tilde_continuous_in_xi():
    a = p_n_tilde(1, -2.0, 0.999)
    b = p_n_tilde(1, -2.0, 1.001)
    assert abs(a - b) < 5e-3


def test_params_validation_and_point():
    with pytest.raises(ValueError):
        ModelParams(eps=1.5, n=1)
    with pytest.raises(ValueError):
        ModelParams(eps=0.1, n=0)
