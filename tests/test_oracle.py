"""Checks for the Crank-Nicolson walker and its exact-field sampling.

The walker is exercised against closed-form references that share none of
its machinery: a frozen-well eigenstate (time dependence is a pure phase),
a free Gaussian packet after the well has left the domain (imaged to meet
the wall condition), and the contour solution itself over a trivial time
window.  Unitarity and the second-order convergence of the scheme are
pinned down numerically.
"""

from __future__ import annotations

import numpy as np
import pytest

from adiawell import oracle as orc
from adiawell import wavefield as wfd
from adiawell.errors import LinearSolveFailure
from adiawell.spectrum import ModelParams, p_n, psi_n

# =====================================================================
# frozen references
# =====================================================================

# potential_on_grid on x_max=4, nx=8 (dx=0.5)
CELL_AVG_TAU_03 = [-0.5, -0.9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
CELL_AVG_TAU_M01 = [-0.5, -1.0, -0.7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
NEAREST_TAU_03 = [-1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

# measured walker errors (see module history): frozen with ~2x headroom
EIGENSTATE_DEV_BOUND = 2e-4      # dx=0.02, dt=0.01, T=5
GAUSSIAN_ERR_COARSE = 5e-4       # dx=0.01, dt=1e-3, T=1 (measured 2.30e-4)
SUGGESTED_X_MAX = 35.0           # eps=0.2, n=1, t=-7.5, default target


def _free_gaussian(x, t, x0=12.0, sigma=1.0, k0=2.0):
    """Closed-form free packet for i psi_t = -psi_xx (checked by stencil)."""
    a = 1.0 / (4.0 * sigma**2)
    xp = np.asarray(x, dtype=float) - x0
    den = 1.0 + 4j * a * t
    return den**-0.5 * np.exp(
        1j * k0 * xp - 1j * k0**2 * t - a * (xp - 2.0 * k0 * t) ** 2 / den
    )


def _imaged_gaussian(x, t, **kw):
    """Gaussian minus its mirror image: vanishes at the x=0 wall."""
    return _free_gaussian(x, t, **kw) - _free_gaussian(-np.asarray(x), t, **kw)


def _walk(state, grid, params, n_steps):
    for _ in range(n_steps):
        state = orc.step(state, grid, params)
    return state


# =====================================================================
# grid and potential
# =====================================================================


def test_grid_spec_geometry():
    grid = orc.GridSpec(x_max=4.0, nx=8, dt=0.01)
    assert grid.dx == pytest.approx(0.5)
    xs = grid.nodes()
    assert xs.size == 9
    assert xs[0] == 0.0
    assert xs[-1] == 4.0


def test_potential_cell_average_fractional_edge():
    grid = orc.GridSpec(x_max=4.0, nx=8, dt=0.01)
    np.testing.assert_allclose(
        orc.potential_on_grid(grid, 0.3), CELL_AVG_TAU_03, atol=1e-14
    )
    np.testing.assert_allclose(
        orc.potential_on_grid(grid, -0.1), CELL_AVG_TAU_M01, atol=1e-14
    )


def test_potential_nearest_node_staircase():
    grid = orc.GridSpec(
        x_max=4.0, nx=8, dt=0.01, snap_policy=orc.SnapPolicy.NEAREST_NODE
    )
    np.testing.assert_allclose(
        orc.potential_on_grid(grid, 0.3), NEAREST_TAU_03, atol=1e-14
    )


def test_potential_vanishes_once_well_is_gone():
    grid = orc.GridSpec(x_max=4.0, nx=8, dt=0.01)
    np.testing.assert_allclose(orc.potential_on_grid(grid, 1.2), 0.0, atol=1e-14)


# =====================================================================
# stepping: unitarity, failure path
# =====================================================================


def test_walk_is_unitary_to_roundoff():
    params = ModelParams(eps=0.5, n=1)
    grid = orc.GridSpec(x_max=20.0, nx=500, dt=0.01)
    xs = grid.nodes()
    vals = _imaged_gaussian(xs, 0.0, x0=8.0, sigma=1.0, k0=1.0).astype(complex)
    vals[0] = vals[-1] = 0.0
    state = orc.WaveVector(values=vals, time=2.0)
    n0 = state.norm()
    state = _walk(state, grid, params, 1000)
    assert abs(state.norm() / n0 - 1.0) <= 1e-12


def test_step_rejects_non_finite_state():
    params = ModelParams(eps=0.5, n=1)
    grid = orc.GridSpec(x_max=4.0, nx=8, dt=0.01)
    vals = np.zeros(9, dtype=complex)
    vals[4] = np.nan
    state = orc.WaveVector(values=vals, time=2.0)
    with pytest.raises(LinearSolveFailure):
        orc.step(state, grid, params)


# =====================================================================
# frozen-well eigenstate: time dependence is a pure phase
# =====================================================================


def _frozen_eigenstate_deviation(snap_policy):
    # eps so small the edge cannot move during the walk; the edge is put
    # mid-cell so the two snap policies actually differ
    eps, tau_star = 1e-12, -2.011
    params = ModelParams(eps=eps, n=1)
    grid = orc.GridSpec(x_max=35.0, nx=1750, dt=0.01, snap_policy=snap_policy)
    xs = grid.nodes()
    p = p_n(1, tau_star)
    energy = p * p - 1.0
    vals = np.asarray(psi_n(1, tau_star, xs), dtype=complex)
    vals[0] = vals[-1] = 0.0
    state = orc.WaveVector(values=vals, time=tau_star / eps)
    n_steps, horizon = 500, 5.0
    state = _walk(state, grid, params, n_steps)
    exact = np.exp(-1j * energy * horizon) * vals
    dev = np.linalg.norm(state.values - exact) / np.linalg.norm(exact)
    fid = abs(np.vdot(state.values, vals)) / (
        np.linalg.norm(state.values) * np.linalg.norm(vals)
    )
    return dev, fid


def test_frozen_eigenstate_is_stationary():
    dev, fid = _frozen_eigenstate_deviation(orc.SnapPolicy.CELL_AVERAGE)
    assert dev <= EIGENSTATE_DEV_BOUND
    assert fid >= 1.0 - 1e-6


def test_cell_average_beats_nearest_node():
    dev_cell, _ = _frozen_eigenstate_deviation(orc.SnapPolicy.CELL_AVERAGE)
    dev_node, _ = _frozen_eigenstate_deviation(orc.SnapPolicy.NEAREST_NODE)
    assert dev_cell < 0.25 * dev_node


# =====================================================================
# free packet once the well has left: closed form with an image charge
# =====================================================================


def _gaussian_walk_error(nx, dt):
    params = ModelParams(eps=0.5, n=1)  # tau >= 1 over the walk: v = 0
    grid = orc.GridSpec(x_max=40.0, nx=nx, dt=dt)
    xs = grid.nodes()
    vals = _imaged_gaussian(xs, 0.0).astype(complex)
    vals[0] = vals[-1] = 0.0
    state = orc.WaveVector(values=vals, time=2.0)
    horizon = 1.0
    state = _walk(state, grid, params, round(horizon / dt))
    return float(np.max(np.abs(state.values - _imaged_gaussian(xs, horizon))))


def test_free_packet_matches_closed_form():
    assert _gaussian_walk_error(4000, 1e-3) <= GAUSSIAN_ERR_COARSE


def test_free_packet_second_order_convergence():
    coarse = _gaussian_walk_error(4000, 1e-3)
    fine = _gaussian_walk_error(8000, 5e-4)
    ratio = coarse / fine
    assert 3.0 <= ratio <= 5.0


# =====================================================================
# exact-field sampling and the full report
# =====================================================================


def test_trivial_window_reproduces_sample():
    # t1 == t0 takes no steps, so any deviation would come from the
    # sampler disagreeing with itself
    params = ModelParams(eps=0.2, n=1)
    grid = orc.GridSpec(x_max=40.0, nx=500, dt=0.01)
    report = orc.propagate_report(params, -10.0, -10.0, grid)
    assert report.deviation == 0.0
    assert report.norm_drift == 0.0


def test_sampled_state_is_wall_pinned_and_tailed():
    params = ModelParams(eps=0.2, n=1)
    grid = orc.GridSpec(x_max=40.0, nx=500, dt=0.01)
    state = orc.sample_exact(params, -10.0, grid)
    xs = grid.nodes()
    assert state.values[0] == 0.0
    assert state.values[-1] == 0.0
    # interior magnitude is order one, far tail decays below 1e-8
    assert np.max(np.abs(state.values)) > 0.1
    assert np.max(np.abs(state.values[xs > 30.0])) < 1e-8


def test_suggest_x_max_bounds_the_tail():
    from adiawell.asymptotics import outside_leading

    params = ModelParams(eps=0.2, n=1)
    x_max = orc.suggest_x_max(params, -7.5)
    assert x_max == pytest.approx(SUGGESTED_X_MAX)
    assert abs(outside_leading(params, x_max, -7.5)) < 1e-10


def test_exterior_samples_are_the_contour_field():
    # past the edge every node carries mode_outside's own value, not a fit
    params = ModelParams(eps=0.2, n=1)
    grid = orc.GridSpec(x_max=12.0, nx=120, dt=0.01)
    xs = grid.nodes()
    past = (xs > 1.0 - params.eps * -10.0) & (xs < grid.x_max)
    state = orc.sample_exact(params, -10.0, grid)
    exact = wfd.mode_outside(params, -10.0, xs[past]).psi
    assert past.sum() > 80
    assert np.array_equal(state.values[past], exact)
