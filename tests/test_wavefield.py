"""Tests for the contour evaluation of the mode fields.

The strongest checks here are structural rather than value-based: the field
must solve the Schrodinger equation (verified by finite-difference stencils
in both regions), the inside and outside representations must join
continuously at the moving well edge, independent contours (steepest
descent, rotated ray, hook) must agree, and the contour route must agree
with the completely independent lattice-sum route recovered by discrete
Fourier averaging.  Frozen complex values pin down the overall
normalization and phase conventions against accidental sign drift.
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from adiawell import symbolfield as sf
from adiawell import wavefield as wfd
from adiawell._panels import gl_rule
from adiawell.branches import int_l0, l0
from adiawell.cli import run
from adiawell.errors import (
    BranchViolation,
    ContinuationFailure,
    ContourClash,
    TraceDiverged,
    TruncationTooSmall,
)
from adiawell.spectrum import ModelParams, p_n, p_n_tilde, tau_threshold

P02 = ModelParams(eps=0.2, n=1)
P01 = ModelParams(eps=0.1, n=1)

# frozen field values, double-checked against the lattice-sum route
INSIDE_REF = {
    0.5: -0.14473287813289 - 0.09883024970871j,
    1.5: -0.35857174621114 - 0.23492888394735j,
    2.5: -0.38067620756350 - 0.23043763347300j,
}  # eps=0.2, n=1, tau=-2, steepest descent
OUTSIDE_REF = {
    0.25: -0.13639594627273 - 0.07348174363116j,
    0.50: -0.05817633373550 - 0.03155354704957j,
}  # eps=0.2, n=1, tau=-2, keyed by xi
GAMMA_THRESHOLD_REF = {
    0.4: -0.15488642495809 + 0.01000719931054j,
    0.9: -0.30834497788443 + 0.01770840937757j,
    1.4: -0.37991326321149 + 0.01586593606461j,
}  # eps=0.1, n=1, tau exactly at threshold


# ---------------------------------------------------------------------
# action: closed forms, saddle, Legendre-type identities
# ---------------------------------------------------------------------


@pytest.mark.parametrize("n,tau", [(1, -2.0), (2, -6.0)])
def test_action_closed_form_at_branch_point(n, tau):
    ev = wfd.action(1.0, n, tau, side=1)
    expected = -3.0 + 2.0 * tau_threshold(n) - tau
    assert abs(complex(ev.value) - expected) < 1e-12
    # first derivative there equals twice the distance to threshold
    assert abs(complex(ev.d1) - 2.0 * (tau_threshold(n) - tau)) < 1e-12
    # second derivative has the square-root blowup
    assert np.isinf(complex(ev.d2).real)


@pytest.mark.parametrize("n,tau", [(1, -2.0), (2, -6.0)])
def test_action_stationary_at_eigenmomentum(n, tau):
    ev = wfd.action(p_n(n, tau), n, tau)
    assert abs(complex(ev.d1)) < 1e-12


@pytest.mark.parametrize("n,tau", [(1, -2.0), (2, -6.0)])
def test_action_identities(n, tau):
    res_value, res_curvature = wfd.action_identities(n, tau)
    assert res_value < 1e-9
    assert res_curvature < 1e-9


def test_action_derivatives_by_finite_differences():
    p = 0.62 - 0.31j
    h = 1e-5
    for xi in (0.0, 0.8):
        ev = wfd.action(p, 1, -2.0, xi=xi)
        evp = wfd.action(p + h, 1, -2.0, xi=xi)
        evm = wfd.action(p - h, 1, -2.0, xi=xi)
        d1_fd = (complex(evp.value) - complex(evm.value)) / (2 * h)
        d2_fd = (complex(evp.value) - 2 * complex(ev.value) + complex(evm.value)) / h**2
        assert abs(complex(ev.d1) - d1_fd) < 1e-8
        assert abs(complex(ev.d2) - d2_fd) < 1e-5


def _action_gap(p, xi):
    # largest relative gap between the scalar path and a 1-element array
    scalar = wfd.action(p, 2, -4.0, xi=xi)
    array = wfd.action(np.array([p]), 2, -4.0, xi=xi)
    gaps = []
    for name in ("value", "d1", "d2"):
        a, b = complex(getattr(scalar, name)), complex(getattr(array, name)[0])
        gaps.append(0.0 if a == b else abs(a - b) / abs(b))
    return max(gaps)


@pytest.mark.parametrize("xi", [0.0, 0.7])
def test_scalar_action_matches_array_path(xi):
    rng = np.random.default_rng(20261019)
    pts = list(rng.uniform(-3.0, 3.0, 400) + 1j * rng.uniform(-3.0, 3.0, 400))
    pts += [0.999999 + 0j, complex(-0.5, -0.0), 1.0000001 + 1e-12j, 2.0 + 1e-17j]
    pts += [1.0 + 1e-9j, -1.0 - 1e-9j]
    assert max(_action_gap(p, xi) for p in pts) <= 1e-14


def test_scalar_action_near_tip_underflow():
    # q0 underflows to 0 at 1 + 1e-300i; the array path keeps S finite
    p = 1.0 + 1e-300j
    with np.errstate(divide="ignore", invalid="ignore"):
        scalar = wfd.action(p, 2, -4.0, xi=0.7)
        array = wfd.action(np.array([p]), 2, -4.0, xi=0.7)
    assert np.isfinite(complex(scalar.value))
    for name in ("value", "d1", "d2"):
        np.testing.assert_equal(complex(getattr(scalar, name)), getattr(array, name)[0])


def test_scalar_action_keeps_the_cut_rules():
    for p in (1.5, -2.0):
        with pytest.raises(BranchViolation):
            wfd.action(p, 1, -2.0)
    assert np.isinf(complex(wfd.action(1.0, 1, -2.0, side=1).d2))


# ---------------------------------------------------------------------
# steepest-descent tracer
# ---------------------------------------------------------------------


def _saddle_and_direction(n, tau, xi):
    saddle = complex(p_n_tilde(n, tau, xi) if xi else p_n(n, tau))
    d2 = complex(wfd.action(saddle, n, tau, xi=xi).d2)
    return saddle, np.exp(1j * (0.25 * np.pi - 0.5 * np.angle(d2)))


def _rises_from_the_saddle(verts, n, tau, eps, xi):
    """Im S at the vertices and at the 16-point nodes, ordered along the line,
    falls to the saddle and rises past it."""
    saddle, direction = _saddle_and_direction(n, tau, xi)
    pts = np.concatenate([verts, wfd._gl_nodes(verts, 16)[0]])
    along = ((pts - saddle) * np.conj(direction)).real
    order = np.argsort(along)
    im_s = wfd.action(pts[order], n, tau, xi=xi).value.imag
    k = int(np.flatnonzero(along[order] == 0.0)[0])  # the saddle
    return np.all(np.diff(im_s[:k + 1]) < 0.0) and np.all(np.diff(im_s[k:]) > 0.0)


@pytest.mark.parametrize("xi", [0.0, 2.0])  # arg S_pp is 0 inside, -0.25 at xi 2
def test_trace_is_the_saddle_line_and_rises_from_the_saddle(xi):
    n, tau, eps = 1, -2.0, 0.2
    verts = wfd.trace_steepest(n, tau, eps, xi=xi)
    saddle, direction = _saddle_and_direction(n, tau, xi)
    # one straight line through the saddle, at the steepest-descent angle,
    # run from the -direction end to the +direction end
    along = (verts - saddle) * np.conj(direction)
    assert saddle in verts
    assert np.max(np.abs(along.imag)) <= 1e-15 * np.max(np.abs(along))
    assert np.all(np.diff(along.real) > 0.0)
    # Im S rises along both halves, and both ends reach the truncation level
    assert _rises_from_the_saddle(verts, n, tau, eps, xi)
    ev = wfd.action(verts, n, tau, xi=xi)
    base = complex(wfd.action(saddle, n, tau, xi=xi).value).imag
    level = 45.0 * eps
    assert ev.value.imag[0] - base >= level
    assert ev.value.imag[-1] - base >= level
    assert ev.value.imag[1] - base < level and ev.value.imag[-2] - base < level


def test_saddle_lines_rise_on_a_grid():
    # every line of the grid stays clear of the cuts and Im S is monotone on
    # each half at every vertex and 16-point node
    for eps in (0.6, 0.2, 0.05, 0.0125):
        for n in (1, 3):
            for dt in (-6.0, -1.5, -0.3, -0.05):
                tau = tau_threshold(n) + dt
                for xi in (0.0, 0.5, 8.0):
                    verts = wfd.trace_steepest(n, tau, eps, xi=xi)
                    assert _rises_from_the_saddle(verts, n, tau, eps, xi), (eps, n, dt, xi)


def test_trace_diverges_on_unreachable_level(monkeypatch):
    monkeypatch.setattr(wfd, "_DECAY_LEVEL", 1e7)
    with pytest.raises(TraceDiverged):
        wfd.trace_steepest(1, -2.0, 0.2)


def test_ray_refuses_past_the_step_cap(monkeypatch):
    # the ray shares the saddle line's stepper and so its step cap
    assert wfd._ray_vertices(1, -2.0, 0.2).size > 2 * 8
    monkeypatch.setattr(wfd, "_MAX_STEPS", 8)
    with pytest.raises(TraceDiverged):
        wfd._ray_vertices(1, -2.0, 0.2)


@pytest.mark.parametrize("xi", [0.0, 0.05])
def test_trace_work(monkeypatch, xi):
    # the stepper calls no branch function, and it checks the cuts once, on
    # the whole line with the saddle in it; the ray keeps the finer steps
    assert wfd._ray_vertices(1, -2.0, 0.2).size == 74
    counts = {}
    for name in ("l0", "int_l0", "l0_prime", "q0"):
        raw = getattr(wfd, name)

        def counted(*args, _name=name, _raw=raw, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _raw(*args, **kwargs)

        monkeypatch.setattr(wfd, name, counted)
    polylines = []
    meets = sf._meets_cut

    def recorded(points):
        polylines.append(points)
        return meets(points)

    monkeypatch.setattr(wfd, "_meets_cut", recorded)
    verts = wfd.trace_steepest(1, -3.0, 0.1, xi=xi)
    assert counts == {}
    # panels sized for the 8- and 16-point rules (65 vertices at half length)
    assert verts.size <= 35
    saddle = p_n_tilde(1, -3.0, xi) if xi else p_n(1, -3.0)
    assert len(polylines) == 1
    assert np.array_equal(polylines[0], verts)
    assert saddle in polylines[0]
    monkeypatch.setattr(wfd, "_meets_cut", lambda points: True)
    with pytest.raises(TraceDiverged):
        wfd.trace_steepest(1, -3.0, 0.1, xi=xi)


# ---------------------------------------------------------------------
# inside field: frozen values and contour cross-agreement
# ---------------------------------------------------------------------


def test_mode_inside_frozen_reference():
    xs = np.array(sorted(INSIDE_REF))
    out = wfd.mode_inside(P02, -10.0, xs)
    assert out.method == "sd"
    for x, val in zip(xs, out.psi):
        assert abs(val - INSIDE_REF[x]) < 1e-10
    assert np.all(out.est_error < 1e-9)


def test_mode_inside_vanishes_at_origin():
    out = wfd.mode_inside(P02, -10.0, np.array([0.0]))
    assert out.psi[0] == 0.0


def test_sd_and_ray_agree():
    xs = np.array([0.5, 1.5, 2.5])
    sd = wfd.mode_inside(P02, -10.0, xs, method="sd")
    ray = wfd.mode_inside(P02, -10.0, xs, method="ray")
    assert np.max(np.abs(sd.psi - ray.psi)) < 1e-10


def test_saddle_line_panels_reach_rounding(monkeypatch):
    # the saddle line's panels are sized for its 8- and 16-point rules: inside
    # the well and on one exterior band, the value against the lattice route and
    # the 8-vs-16 point gap alone (the amplitude's floor set to 0) stay at
    # rounding level, relative to max|psi| in the well
    along = sf.amplitude_along
    monkeypatch.setattr(wfd, "amplitude_along", lambda verts, eps: (along(verts, eps)[0], 0.0))
    cases = [(eps, n, dt, False) for eps in (0.2, 0.05, 0.0125) for n in (1, 3)
             for dt in (-3.0, -1.2)]
    cases += [(eps, n, -1.2, True) for eps in (0.2, 0.1) for n in (1, 3)]
    for eps, n, dt, outside in cases:
        params = ModelParams(eps=eps, n=n)
        tau = tau_threshold(n) + dt
        t, edge = tau / eps, 1.0 - tau
        x_in = np.linspace(0.0, edge, 41)[1:]
        xs = edge + np.linspace(0.0, 2.0, 9) if outside else x_in
        lat = wfd.fourier_mode(params, t, np.concatenate([x_in, xs]))
        scale = np.max(np.abs(lat.psi[:x_in.size]))
        got = wfd.mode_outside(params, t, xs) if outside else wfd.mode_inside(params, t, xs, "sd")
        assert np.max(np.abs(got.psi - lat.psi[x_in.size:])) <= 1e-13 * scale, (eps, n, dt)
        assert np.max(got.est_error) <= 1e-13 * scale, (eps, n, dt)


@pytest.mark.parametrize("delta", [0.45, 0.2])
def test_sd_and_gamma_agree_near_threshold(delta):
    tau = tau_threshold(1) - delta
    xs = np.array([0.25, 0.55, 0.85])
    sd = wfd.mode_inside(P01, tau / 0.1, xs, method="sd")
    gamma = wfd.mode_inside(P01, tau / 0.1, xs, method="gamma")
    assert np.max(np.abs(sd.psi - gamma.psi)) <= 1e-12 * np.max(np.abs(sd.psi))


def test_hook_agrees_with_descent_to_its_rule():
    # the hook's upper edge and vertical leg resolve their cusps to rounding,
    # so the two contours agree far inside either one's error bar
    eps, tau = 0.125, tau_threshold(1) - 0.5
    xs = np.linspace(0.0, 1.0 - tau, 200)
    params = ModelParams(eps=eps, n=1)
    sd = wfd.mode_inside(params, tau / eps, xs, method="sd")
    gamma = wfd.mode_inside(params, tau / eps, xs, method="gamma")
    assert np.max(np.abs(sd.psi - gamma.psi)) <= 1e-12 * np.max(np.abs(sd.psi))


@pytest.mark.parametrize("eps, n, delta", [(0.2, 1, 0.1), (0.125, 2, 0.03), (0.125, 1, 0.1)])
def test_descent_near_threshold_agrees_with_hook(eps, n, delta):
    # descent contours here pass close to the branch point 1; their sweep is
    # graded there, without which the two missed each other by up to 1.3e-6
    tau = tau_threshold(n) - delta
    xs = np.linspace(0.0, 1.0 - tau, 200)
    params = ModelParams(eps=eps, n=n)
    sd = wfd.mode_inside(params, tau / eps, xs, method="sd")
    gamma = wfd.mode_inside(params, tau / eps, xs, method="gamma")
    gap = np.abs(sd.psi - gamma.psi)
    assert np.max(gap) <= 1e-12 * np.max(np.abs(sd.psi))
    assert np.all(gap <= sd.est_error + gamma.est_error)


def test_gamma_at_and_past_threshold():
    thr = tau_threshold(1)
    xs = np.array(sorted(GAMMA_THRESHOLD_REF))
    out = wfd.mode_inside(P01, thr / 0.1, xs, method="gamma")
    for x, val in zip(xs, out.psi):
        assert abs(val - GAMMA_THRESHOLD_REF[x]) < 1e-7
    # past threshold the mode keeps leaking out: finite values, small error
    late = wfd.mode_inside(P01, (thr + 1.0) / 0.1, xs * 0.3)
    assert late.method == "gamma"
    assert np.all(np.isfinite(late.psi))
    assert np.all(np.abs(late.psi) < 0.1)
    assert np.all(late.est_error < 1e-7)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("eps", [0.2, 0.125, 0.05])
def test_hook_sum_matches_complex_sine_basis(eps, n):
    # the hook's closed-form sums against the complex sine basis on the same
    # nodes; n = 3 at threshold gives the deepest leg in x y (86 at eps 0.2)
    for delta in (-0.5, 0.0, 0.5, 1.0):
        tau = tau_threshold(n) + delta
        try:
            rules, amp_est = wfd._gamma_weights(n, tau, eps)
        except TruncationTooSmall:
            assert delta < 0.0  # the leg can be too short below threshold only
            continue
        x = np.linspace(0.0, 1.0 - tau, 200)
        ref = []
        for (ys, w_leg), (ks, w_edge) in rules:
            w = np.concatenate([w_leg, w_edge])
            basis = np.sin(np.multiply.outer(x, np.concatenate([1.0 - 1j * ys, ks])))
            ref.append((basis @ w, np.abs(basis) @ np.abs(w)))
        (coarse_ref, _), (fine_ref, scale_ref) = ref
        coarse, _ = wfd._hook_sums(x, rules[0], False)
        fine, scale = wfd._hook_sums(x, rules[1], True)
        size = np.max(np.abs(fine_ref))
        assert np.max(np.abs(fine - fine_ref)) <= 1e-14 * size
        assert np.max(np.abs(coarse - coarse_ref)) <= 1e-14 * size
        assert np.all(np.abs(scale - scale_ref) <= 1e-10 * scale_ref)
        # the bar's gap |fine - coarse| differs from the two sums above, each held
        # to 1e-14 max|psi|; on a gap near 1e-10 max|psi| that is up to 1e-4 of
        # it, so the bar is held to 1e-10 relative in its scale term only.  A
        # batch of _CHEB_START + 1 points sums directly, bit for bit
        est_ref = np.abs(fine_ref - coarse_ref) + amp_est * scale_ref
        few = np.linspace(0, x.size - 1, wfd._CHEB_START + 1).astype(int)
        psi, est = wfd._contour_sum(wfd._hook_sums, x[few], rules, amp_est, 1.0)
        assert np.array_equal(psi, wfd._hook_sums(x[few], rules[1], True)[0])
        assert np.all(np.abs(est - est_ref[few]) <= 2e-14 * size + 1e-10 * est_ref[few])
        # all 200 interpolate from Chebyshev points in x
        psi, est = wfd._contour_sum(wfd._hook_sums, x, rules, amp_est, 1.0)
        assert np.max(np.abs(psi - fine_ref)) <= 1e-14 * size
        assert np.all(est >= 0.99 * est_ref)


def _leg_by_action(n, tau, eps, y):
    # |Im S_p| / eps and the net exponent N = Im S / eps - (1 - tau) y at the leg
    # point 1 - iy, on action's array path (the branches functions)
    ev = wfd.action(np.array([1.0 - 1j * y]), n, tau)
    return abs(ev.d1[0].imag) / eps, ev.value[0].imag / eps - (1.0 - tau) * y


@pytest.mark.parametrize(
    "n, tau", [(1, tau_threshold(1) - 0.2), (2, tau_threshold(2)), (3, tau_threshold(3) + 0.5)]
)
def test_vertical_leg_panels_match_action_form(n, tau):
    # one tip panel of eps/4, then _PANEL_PHASE radians of e^{iS/eps} per panel,
    # until a panel end reaches N >= decay level + 10
    eps = 0.1
    level = wfd._DECAY_LEVEL + 10.0
    bounds = [0.0, 0.25 * eps]
    while bounds[-1] < wfd._MINUS_DEPTH:
        y = bounds[-1]
        freq, net = _leg_by_action(n, tau, eps, y)
        if net >= level:
            break
        h = min(0.6 * y, wfd._PANEL_PHASE / (freq + 1e-3), 0.5)
        h = min(0.6 * y, wfd._PANEL_PHASE / (_leg_by_action(n, tau, eps, y + h)[0] + 1e-3), 0.5)
        bounds.append(min(y + h, wfd._MINUS_DEPTH))
    panels = wfd._minus_panels(n, tau, eps)
    assert panels.size == len(bounds)
    assert np.max(np.abs(panels - np.array(bounds))) <= 1e-15
    # the level is reached at the last panel end, before the leg's table ends
    nets = [_leg_by_action(n, tau, eps, y)[1] for y in panels[1:]]
    assert max(nets[:-1]) < level <= nets[-1]
    assert panels[-1] < wfd._MINUS_DEPTH


def _probe_reaches(n, tau, eps):
    # the 400-point probe that sized the leg before the one-point check
    ys = np.geomspace(1e-4, wfd._MINUS_DEPTH, 400)
    p = 1.0 - 1j * ys
    s = p**2 * (1.0 - tau) - 2.0 * np.pi * n * p + np.asarray(int_l0(p))
    return bool(np.any(s.imag / eps - (1.0 - tau) * ys >= wfd._DECAY_LEVEL + 14.0))


def test_leg_net_exponent_is_convex():
    # N(y) = Im S(1 - iy) / eps - (1 - tau) y has slope (2 pi n - 2 (1 - tau)
    # - 2 Re asin(1 - iy)) / eps - (1 - tau), rising as Re asin(1 - iy) falls
    ys = np.linspace(1e-3, wfd._MINUS_DEPTH, 3000)
    assert np.all(np.diff(np.arcsin(1.0 - 1j * ys).real) < 0.0)
    for eps in (0.2, 0.05):
        for n in (1, 3):
            for delta in (-0.6, 0.0, 1.0):
                tau = tau_threshold(n) + delta
                ev = wfd.action(1.0 - 1j * ys, n, tau)
                net = ev.value.imag / eps - (1.0 - tau) * ys
                assert np.all(np.diff(net, 2) > 0.0)
                # dS/dy = -i S_p on the leg
                slope = (2.0 * np.pi * n - 2.0 * (1.0 - tau)
                         - 2.0 * np.arcsin(1.0 - 1j * ys).real) / eps - (1.0 - tau)
                np.testing.assert_allclose(
                    slope, -ev.d1.real / eps - (1.0 - tau), rtol=1e-12, atol=1e-9)


def test_one_point_leg_check_matches_the_probe():
    # by convexity N is largest at _MINUS_DEPTH, where the probe ended: the one
    # evaluation there decides as the 400 points did, across each hook window
    for eps in (0.2, 0.15, 0.125, 0.1, 0.07, 0.05):
        window = min(wfd._GAMMA_SWITCH * eps ** (1.0 / 3.0), wfd._GAMMA_CAP)
        for n in (1, 2, 3):
            for delta in np.linspace(0.0, window, 61):
                tau = tau_threshold(n) - delta
                assert wfd._leg_too_short(n, tau, eps) is not _probe_reaches(n, tau, eps)


@pytest.mark.parametrize("eps", [0.2, 0.125, 0.05])
def test_leg_amplitude_matches_independent_route(eps):
    # the leg table's dense output against A(1 - iy) on its own route from 0
    ys = np.array([1e-4, 1e-2, 0.3, 2.0, 8.0])
    leg = np.exp(sf._lnA_at_one(eps) + wfd._leg_ln_amplitude(eps, ys))
    ref = np.array([sf.amplitude_a(1.0 - 1j * y, eps).value for y in ys])
    assert np.max(np.abs(leg - ref) / np.abs(ref)) <= 2e-12


def test_auto_dispatch_picks_gamma_only_near_threshold():
    thr = tau_threshold(1)
    assert wfd.mode_inside(P01, (thr - 0.1) / 0.1, np.array([0.5])).method == "gamma"
    assert wfd.mode_inside(P01, -20.0, np.array([0.5])).method == "sd"


@pytest.mark.parametrize("eps, n, delta", [(0.2, 2, 0.5), (0.2, 3, 0.3), (0.125, 3, 0.5)])
def test_auto_dispatch_falls_back_to_descent_when_leg_is_short(tmp_path, eps, n, delta):
    # inside the hook's window, but its leg cannot reach the decay level here
    tau = tau_threshold(n) - delta
    params = ModelParams(eps=eps, n=n)
    xs = np.linspace(0.0, 1.0 - tau, 3)
    with pytest.raises(TruncationTooSmall):
        wfd.mode_inside(params, tau / eps, xs, method="gamma")
    auto = wfd.mode_inside(params, tau / eps, xs)
    sd = wfd.mode_inside(params, tau / eps, xs, method="sd")
    assert auto.method == "sd"
    assert np.array_equal(auto.psi, sd.psi) and np.array_equal(auto.est_error, sd.est_error)
    out = tmp_path / "field.csv"
    code = run(["field", "--eps", str(eps), "--n", str(n), "--t", repr(tau / eps),
                "--x-steps", "3", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [complex(float(r[2]), float(r[3])) for r in rows] == list(sd.psi)


# ---------------------------------------------------------------------
# the contour sums at Chebyshev points in x
# ---------------------------------------------------------------------


def _both_ways(monkeypatch, evaluate):
    """evaluate() by the Chebyshev sum, which must take it, and then summed at
    every point of the batch."""
    taken = []
    chebyshev_sum = wfd._chebyshev_sum

    def recorded(*args):
        result = chebyshev_sum(*args)
        taken.append(result is not None)
        return result

    with monkeypatch.context() as m:
        m.setattr(wfd, "_chebyshev_sum", recorded)
        cheb = evaluate()
    assert taken and all(taken)
    with monkeypatch.context() as m:
        m.setattr(wfd, "_CHEB_START", 10**9)
        return cheb, evaluate()


def _assert_matches_direct(cheb, direct):
    size = np.max(np.abs(direct.psi))
    assert np.max(np.abs(cheb.psi - direct.psi)) <= 1e-14 * size
    assert np.all(cheb.est_error >= 0.99 * direct.est_error)
    assert abs(np.max(cheb.est_error) / np.max(direct.est_error) - 1.0) <= 0.01


@pytest.mark.parametrize(
    "method, eps, n, delta",
    [("sd", eps, n, delta) for eps in (0.2, 0.1, 0.05) for n in (1, 2, 3)
     for delta in (-2.0, -2.7, -3.5)]
    + [("gamma", 0.125, n, delta) for n in (1, 2) for delta in (-0.5, 0.0, 0.5, 1.0)],
)
def test_chebyshev_sum_matches_direct_sum(monkeypatch, method, eps, n, delta):
    tau = tau_threshold(n) + delta
    xs = np.linspace(0.0, 1.0 - tau, 200)
    params = ModelParams(eps=eps, n=n)
    cheb, direct = _both_ways(
        monkeypatch, lambda: wfd.mode_inside(params, tau / eps, xs, method=method))
    _assert_matches_direct(cheb, direct)


def test_chebyshev_sum_on_an_exterior_band(monkeypatch):
    # one band: 60 points spanning exactly _BAND_WIDTH, summed in xi
    edge = 1.0 - 0.2 * -10.0
    xs = edge + np.linspace(0.0, wfd._BAND_WIDTH, 60)
    cheb, direct = _both_ways(monkeypatch, lambda: wfd.mode_outside(P02, -10.0, xs))
    _assert_matches_direct(cheb, direct)


def test_small_and_degenerate_batches_sum_directly(monkeypatch):
    def refuse(*args):
        raise AssertionError("a small or degenerate batch took the Chebyshev sum")

    few = np.linspace(0.0, 3.0, wfd._CHEB_START + 1)
    rules, amp_est = wfd._inside_weights(wfd.trace_steepest(1, -2.0, 0.2), 1, -2.0, 0.2)
    coarse, _ = wfd._matrix_sums(np.sin, few, rules[0], False)
    fine, scale = wfd._matrix_sums(np.sin, few, rules[1], True)
    pref = np.exp(-10j) / np.sqrt(0.2 * np.pi)
    with monkeypatch.context() as m:
        m.setattr(wfd, "_chebyshev_sum", refuse)
        out = wfd.mode_inside(P02, -10.0, few)
        assert np.array_equal(out.psi, pref * fine)
        assert np.array_equal(out.est_error, abs(pref) * (np.abs(fine - coarse) + amp_est * scale))
        # a 4-point exterior band, single points, and a batch of one repeated x
        wfd.mode_outside(P02, -10.0, 3.0 + np.linspace(0.0, 1.5, 4))
        wfd.mode_outside(P02, -10.0, 3.5)
        wfd.mode_inside(P02, -10.0, 1.2)
        same = wfd.mode_inside(P02, -10.0, np.full(40, 1.2))
        assert np.all(same.psi == same.psi[0])

    # a shuffled batch with repeated x: the sorted batch's values, to rounding
    # (a row's matrix product may round by its position in the batch)
    xs = np.linspace(0.0, 3.0, 200)
    ref = wfd.mode_inside(P02, -10.0, xs)
    perm = np.random.default_rng(7).permutation(xs.size)
    perm = np.concatenate([perm, perm[:25]])
    shuffled = wfd.mode_inside(P02, -10.0, xs[perm])
    assert np.max(np.abs(shuffled.psi - ref.psi[perm])) <= 1e-15 * np.max(np.abs(ref.psi))
    np.testing.assert_allclose(shuffled.est_error, ref.est_error[perm], rtol=1e-12)


@pytest.mark.parametrize(
    "params, t, count",
    [(P02, -10.0, 200), (ModelParams(eps=0.1, n=2), -45.0, 200),
     (ModelParams(eps=0.1, n=2), -45.0, 30)],
    ids=["params0--10.0", "params1--45.0", "params1--45.0-30"],
)
def test_chebyshev_sum_work(monkeypatch, params, t, count):
    # each rule's basis is evaluated at Chebyshev points only, each point once;
    # 30 points need degree 48, whose 24 new points still undercut the batch
    rows = {}
    matrix_sums = wfd._matrix_sums

    def counted(fn, coords, rule, scale):
        rows.setdefault(rule[0].size, []).append(coords)
        return matrix_sums(fn, coords, rule, scale)

    xs = np.linspace(0.0, 1.0 - params.eps * t, count)
    with monkeypatch.context() as m:
        m.setattr(wfd, "_matrix_sums", counted)
        wfd.mode_inside(params, t, xs, method="sd")
    assert len(rows) == 2  # the 8- and 16-point rules
    points = np.unique(np.concatenate([c for calls in rows.values() for c in calls]))
    m_max = points.size - 1
    assert m_max <= 64
    for calls in rows.values():
        assert sum(c.size for c in calls) == m_max + 1
    _assert_matches_direct(*_both_ways(
        monkeypatch, lambda: wfd.mode_inside(params, t, xs, method="sd")))


def test_mode_inside_peak_memory():
    # the basis is (Chebyshev points) x (nodes), not (x points) x (nodes)
    xs = np.linspace(0.0, 3.0, 20000)
    tracemalloc.start()
    try:
        wfd.mode_inside(P02, -10.0, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_mode_outside_at_threshold_refuses_without_warnings():
    # at tau_1 the continuation starts at the branch point p = 1, where q0 = 0
    t = tau_threshold(1) / 0.1
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ContinuationFailure, match="Newton continuation stalled"):
            wfd.mode_outside(P01, t, np.array([2.6, 3.0]))
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


def test_mode_inside_rejects_outside_points():
    with pytest.raises(ContourClash):
        wfd.mode_inside(P02, -10.0, np.array([3.2]))


# ---------------------------------------------------------------------
# outside field: frozen values, edge continuity, decay
# ---------------------------------------------------------------------


def test_mode_outside_frozen_reference():
    eps = 0.2
    edge = 3.0  # 1 - tau at tau = -2
    xs = edge + np.array(sorted(OUTSIDE_REF)) / eps
    out = wfd.mode_outside(P02, -10.0, xs)
    for xi, val in zip(sorted(OUTSIDE_REF), out.psi):
        assert abs(val - OUTSIDE_REF[xi]) < 1e-10
    assert np.all(out.est_error < 1e-9)


def test_inside_outside_continuity_at_edge():
    eps = 0.1
    for tau in (-2.0, -1.0):
        t = tau / eps
        edge = 1.0 - tau
        inn = wfd.mode_inside(P01, t, np.array([edge]))
        out = wfd.mode_outside(P01, t, np.array([edge + 1e-6 / eps]))
        # the gap is the field gradient times the x offset, about 1e-5 |psi'|
        assert abs(out.psi[0] - inn.psi[0]) < 5e-5


def test_outside_decay_in_xi():
    eps = 0.1
    tau = -2.0
    xi = np.array([1.0, 1.5, 2.0, 2.5, 3.0])
    out = wfd.mode_outside(P01, tau / eps, (1.0 - tau) + xi / eps)
    mags = np.abs(out.psi)
    ratios = mags[1:] / mags[:-1]
    assert np.all(ratios < 0.05)
    # the local decay rate keeps strengthening with xi
    assert np.all(np.diff(ratios) < 0.0)


@pytest.mark.parametrize("params,t", [(P02, -10.0), (ModelParams(eps=0.1, n=2), -45.0)])
def test_outside_bands_match_one_point_contours(params, t):
    # a band shares one contour through its centre saddle; every admissible
    # contour gives the same field, so only the error bar may move
    edge = 1.0 - params.eps * t
    one_band = edge + np.linspace(0.0, 2.0, 9)
    several = edge + np.linspace(0.0, 16.0, 9)
    single = {
        x: wfd.mode_outside(params, t, np.array([x]))
        for x in np.union1d(one_band, several)
    }
    for xs in (one_band, several):
        batch = wfd.mode_outside(params, t, xs)
        ref = np.array([single[x].psi[0] for x in xs])
        ref_est = np.array([single[x].est_error[0] for x in xs])
        assert np.all(np.abs(batch.psi / ref - 1.0) <= 1e-13)
        ratio = batch.est_error / ref_est
        assert np.all((0.9 <= ratio) & (ratio <= 1.1))

    # a shuffled batch with one x repeated: each x keeps its value
    perm = [5, 0, 8, 3, 5, 1, 7, 2, 6, 4]
    shuffled = wfd.mode_outside(params, t, several[perm])
    assert shuffled.psi[0] == shuffled.psi[4]
    np.testing.assert_allclose(shuffled.psi, batch.psi[perm], rtol=1e-14)
    with pytest.raises(ContourClash):
        wfd.mode_outside(params, t, np.append(several, edge - 0.5))


def test_mode_solution_splits_regions():
    eps = 0.2
    xs = np.array([0.5, 2.9, 3.5, 4.0])
    full = wfd.mode_solution(P02, -10.0, xs)
    inn = wfd.mode_inside(P02, -10.0, xs[:2])
    out = wfd.mode_outside(P02, -10.0, xs[2:])
    assert np.allclose(full.psi[:2], inn.psi, rtol=0, atol=1e-14)
    assert np.allclose(full.psi[2:], out.psi, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------
# one amplitude pass per contour, and the exterior amplitude by identity
# ---------------------------------------------------------------------


def _contours(eps, tau=-1.2):
    """Descent and ray contours inside, and an exterior contour shifted by
    -eps/2, as the exterior field evaluates A on it."""
    return {
        "descent": wfd.trace_steepest(1, tau, eps),
        "ray": wfd._ray_vertices(1, tau, eps),
        "exterior": wfd.trace_steepest(1, tau, eps, xi=0.5 * eps) - 0.5 * eps,
    }


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
def test_amplitude_pass_agrees_with_independent_route(eps):
    # amplitude_a integrates along its own straight route from 0; the gap
    # to the contour pass, at nodes spread over each whole contour, stays
    # within the sum of the two error estimates
    for verts in _contours(eps).values():
        amps, est = sf.amplitude_along(verts, eps)
        for rule in (8, 16):
            nodes, _ = wfd._gl_nodes(verts, rule)
            for j in np.linspace(0, nodes.size - 1, 5).astype(int):
                ref = sf.amplitude_a(nodes[j], eps)
                gap = abs(amps[rule][j] / ref.value - 1.0)
                assert gap <= est + ref.est_error


def _old_shift_integral(nodes, eps):
    """The exterior shift of ln A as a direct 8-point quadrature:
    (i/eps) int_{p - eps/2}^{p} (L0(q) - l0(p)) dq at every node p."""
    x8, w8 = gl_rule(8)
    q = (nodes[:, None] - 0.25 * eps + 0.25 * eps * x8).ravel()
    g = sf._g_values(q, eps, 0).reshape(nodes.size, x8.size)
    part_l = (1j / eps) * (
        np.asarray(int_l0(nodes))
        - np.asarray(int_l0(nodes - 0.5 * eps))
        - 0.5 * eps * np.asarray(l0(nodes))
    )
    return 0.25 * eps * (g @ w8) + part_l, part_l


@pytest.mark.parametrize("eps,tau,xi", [(0.2, -2.0, 0.25), (0.1, -1.2, 0.05)])
def test_shifted_amplitude_identity(eps, tau, xi):
    # At(p) = A(p) e^{-shift(p)} = A(p - eps/2) e^{-part_l(p)}
    verts = wfd.trace_steepest(1, tau, eps, xi=xi)
    amps, _ = sf.amplitude_along(verts, eps)
    shifted, _ = sf.amplitude_along(verts - 0.5 * eps, eps)
    for rule in (8, 16):
        nodes, _ = wfd._gl_nodes(verts, rule)
        shift, part_l = _old_shift_integral(nodes, eps)
        direct = amps[rule] * np.exp(-shift)
        by_identity = shifted[rule] * np.exp(-part_l)
        assert np.max(np.abs(by_identity / direct - 1.0)) < 2e-11


def test_shifted_contour_meeting_the_cut_is_refused(monkeypatch):
    # crossing the real axis at Re p in (-1, -1 + eps/2): the contour is
    # admissible, its shift by -eps/2 crosses the cut (-inf, -1]
    eps = 0.2
    verts = np.array([-0.95 - 0.4j, -0.95 + 0.3j, 0.4 + 0.6j])
    amps, _ = sf.amplitude_along(verts, eps)
    assert np.all(np.isfinite(amps[16]))
    with pytest.raises(ContourClash):
        sf.amplitude_along(verts - 0.5 * eps, eps)
    monkeypatch.setattr(wfd, "trace_steepest", lambda *args, **kwargs: verts)
    with pytest.raises(ContourClash):
        wfd.mode_outside(P02, -10.0, np.array([3.5]))


def test_amplitude_work_per_contour(monkeypatch):
    # L0 ladder points and relocation steps, counted where the kernel and the
    # relocation sum evaluate them; a count does not depend on the speed of
    # the machine.  At eps 0.1 every anchor is carried onto the moment
    # series, so no ladder point is left (27.3k and 33.1k when anchors near
    # the cuts took the ladder); the carrying costs 2,480 and 3,604 steps on
    # the saddle line's panels (3,125 and 3,982 at half their length)
    points, steps = [0], [0]
    raw, prime = sf._l0_raw, sf.l0_prime

    def counted(z, side):
        points[0] += np.size(z)
        return raw(z, side)

    def stepped(p, side=0):
        steps[0] += np.size(p)
        return prime(p, side)

    monkeypatch.setattr(sf, "_l0_raw", counted)
    monkeypatch.setattr(sf, "l0_prime", stepped)
    t = -12.0  # eps = 0.1, n = 1, edge at 2.2
    wfd.mode_outside(P01, t, np.array([2.7]))
    assert points[0] == 0
    assert steps[0] <= 2_750
    steps[0] = 0
    wfd.mode_inside(P01, t, np.linspace(0.0, 2.2, 200), method="sd")
    assert points[0] == 0
    assert steps[0] <= 3_950


# ---------------------------------------------------------------------
# the field solves the equation
# ---------------------------------------------------------------------


@pytest.mark.parametrize("x0,v", [(0.7, -1.0), (5.0, 0.0)])
def test_schrodinger_residual(x0, v):
    t0 = -10.0
    h = 1e-3

    def psi(t, x):
        return wfd.mode_solution(P02, t, np.array([x])).psi[0]

    c = psi(t0, x0)
    dt = (psi(t0 + h, x0) - psi(t0 - h, x0)) / (2 * h)
    dxx = (psi(t0, x0 + h) - 2 * c + psi(t0, x0 - h)) / h**2
    assert abs(1j * dt + dxx - v * c) < 1e-6


# ---------------------------------------------------------------------
# lattice-sum route: periodicity, interface algebra, Fourier recovery
# ---------------------------------------------------------------------


def test_generating_series_is_eps_periodic():
    xs = np.array([0.5, 1.5])
    a = wfd.generating_series(P02, -10.0, xs, 0.37 * 0.2)
    b = wfd.generating_series(P02, -10.0, xs, 1.37 * 0.2)
    assert np.max(np.abs(a - b)) < 1e-12


def test_one_lattice_pass_serves_every_offset(tmp_path, monkeypatch):
    # an offset array gives the per-offset rows, inside and past the edge at 3
    xs = np.array([0.5, 1.5, 2.9, 3.5, 4.5])
    offsets = 0.2 * np.array([0.111, 0.287, 0.455])
    rows = wfd.generating_series(P02, -10.0, xs, offsets)
    assert rows.shape == (offsets.size, xs.size)
    for p, row in zip(offsets, rows):
        assert np.max(np.abs(row - wfd.generating_series(P02, -10.0, xs, p))) <= 1e-15
    # a series request takes R for all offsets of both levels from one sweep
    calls = [0]
    sweep = sf.path_cumulative

    def counted(*args, **kwargs):
        calls[0] += 1
        return sweep(*args, **kwargs)

    monkeypatch.setattr(sf, "path_cumulative", counted)
    argv = ["field", "--eps", "0.2", "--n", "1", "--t", "-10", "--x-steps", "5",
            "--method", "series", "--out", str(tmp_path / "series.csv")]
    assert run(argv) == 0
    assert calls[0] <= 1


@pytest.mark.parametrize("eps,t", [(0.2, -10.0), (0.1, tau_threshold(3) / 0.1)])
def test_generating_series_matches_the_term_by_term_sum(eps, t):
    # inside the well the rows take sin(kx) by angle addition; against the
    # plain k-sum of sin((p + eps l) x) R-phases, out to x = 8.9 at tau_3,
    # within a few units of rounding of the terms' sizes and arguments
    xs = np.linspace(0.0, 1.0 - eps * t, 7)
    offsets = eps * np.array([0.111, 0.287, 0.455, 1.3])
    p, shifts, _, phase_in, _ = wfd._lattice_terms(eps, t, offsets)
    ks = p + shifts
    direct = np.einsum("jl,jlx->jx", phase_in, np.sin(ks[:, :, None] * xs)) / np.sqrt(np.pi)
    rows = wfd.generating_series(ModelParams(eps=eps, n=1), t, xs, offsets)
    size = np.abs(phase_in).sum(axis=1)[:, None] * (1.0 + np.abs(ks).max() * xs)
    assert np.all(np.abs(rows - direct) <= 4.0 * np.finfo(float).eps * size)


@pytest.mark.parametrize("frac", [0.111, 0.287, 0.455])
def test_scattering_interface_relations(frac):
    res1, res2 = wfd.scattering_residuals(frac * 0.2, 0.2)
    assert res1 < 1e-10
    assert res2 < 1e-10


def test_series_continuous_at_well_edge():
    # the first three offsets put a lattice point close to the sqrt cusp at k = 1
    for p in (0.2 * 63.5 / 64, 0.2 * 0.5 / 64, 0.198, 0.37 * 0.2):
        val_gap, der_gap = wfd.interface_residuals(P02, -10.0, p)
        assert val_gap < 1e-9
        assert der_gap < 1e-8


def test_fourier_mode_peak_memory():
    # the lattice pass sweeps every offset at once; its ladder works in blocks,
    # so the traced peak stays a few MiB (it was about 12 with 4096-anchor blocks)
    xs = np.linspace(0.0, 3.0, 200)
    tracemalloc.start()
    try:
        wfd.fourier_mode(P02, -10.0, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_fourier_recovery_matches_contour():
    xs = np.array(sorted(INSIDE_REF))
    fm = wfd.fourier_mode(P02, -10.0, xs)
    sd = wfd.mode_inside(P02, -10.0, xs)
    assert np.max(np.abs(fm.psi - sd.psi)) < 1e-13


@pytest.mark.parametrize("eps", [0.025, 0.03])
def test_lattice_keeps_every_term_above_the_decay_level(eps):
    # the k-sum runs out to the hook's own edge truncation: at |k| = 1 + 16 eps
    # |R| is still 7e-9 at eps 0.025 and 1e-9 at 0.03, and stopping there puts
    # the lattice 1e-10 to 5e-10 max|psi| off the contour routes
    params = ModelParams(eps=eps, n=1)
    for dt in (-2.0, -0.5):  # descent, then the hook, inside the well
        tau = tau_threshold(1) + dt
        t, edge = tau / eps, 1.0 - tau
        x_in, x_out = np.linspace(0.1, edge, 9), edge + np.array([0.25, 1.0, 3.0])
        lat = wfd.fourier_mode(params, t, np.concatenate([x_in, x_out])).psi
        inside = wfd.mode_inside(params, t, x_in)
        scale = np.max(np.abs(inside.psi))
        assert np.max(np.abs(lat[:9] - inside.psi)) <= 1e-12 * scale, (eps, dt)
        outside = wfd.mode_outside(params, t, x_out).psi
        assert np.max(np.abs(lat[9:] - outside)) <= 1e-12 * scale, (eps, dt)


# 1/eps an integer (two offset pieces), generic (four), and two cusps that
# nearly coincide: 2e-10 apart at 0.1 (1 +- 1e-9), 2e-13 apart at 0.1 (1 + 1e-13)
LATTICE_EPS = [0.2, 0.125, 0.1, 0.07, 0.05, 0.025,
               0.1 * (1 + 1e-9), 0.1 * (1 - 1e-9), 0.1 * (1 + 1e-13)]


@pytest.mark.parametrize("eps", LATTICE_EPS)
def test_lattice_bar_bounds_its_gap_to_the_contour(eps):
    # |lattice - contour| <= the sum of both bars, below, at and past tau_n,
    # wherever the contour route exists inside the well; the lattice bar is
    # the 32-vs-40 point gap, at most 2.7e-13 max|psi| on this grid
    for n in (1, 2, 3):
        params = ModelParams(eps=eps, n=n)
        for dt in (-1.5, -0.5, 0.0, 1.0):
            tau = tau_threshold(n) + dt
            xs = np.linspace(0.0, 1.0 - tau, 13)[1:]
            lat = wfd.fourier_mode(params, tau / eps, xs)
            contour = wfd.mode_inside(params, tau / eps, xs)
            gap = np.abs(lat.psi - contour.psi)
            assert np.all(gap <= lat.est_error + contour.est_error), (n, dt)
            assert np.max(lat.est_error) <= 1e-12 * np.max(np.abs(lat.psi)), (n, dt)


def _assert_lattice_bar_counts_its_rounding(eps, n, tau, xs):
    """The bar covers its own level's rounding term and, with the 64-point
    level's, the gap to that level."""
    t = tau / eps
    lat = wfd.fourier_mode(ModelParams(eps=eps, n=n), t, xs)
    levels = {}  # value and rounding term per rule
    for rule in (40, 64):
        p, w = wfd._lattice_rule(eps, n, rule)
        rows, sizes = wfd._series_rows(eps, t, xs, p)
        levels[rule] = (w @ rows, np.finfo(float).eps * (np.abs(w) @ sizes))
    np.testing.assert_array_equal(levels[40][0], lat.psi)
    assert np.all(lat.est_error >= levels[40][1])
    assert np.all(np.abs(lat.psi - levels[64][0]) <= lat.est_error + levels[64][1])


@pytest.mark.parametrize("eps,dt", [(0.2, -1.5), (0.1, 0.0), (0.05, 0.5)])
def test_lattice_bar_counts_the_k_sum_rounding(eps, dt):
    # once both levels converge their gap is rounding noise, below the gap to a
    # 64-point level at every x here; the bar adds the k-sum's rounding
    tau = tau_threshold(1) + dt
    _assert_lattice_bar_counts_its_rounding(eps, 1, tau, np.linspace(0.0, 1.0 - tau, 13)[1:])


@pytest.mark.parametrize("eps,n,dt", [(0.2, 1, 0.0), (0.2, 3, 1.0), (0.05, 3, 1.0)])
def test_lattice_bar_counts_the_exponents_past_the_edge(eps, n, dt):
    # past the edge each term is a product of exponentials whose arguments,
    # |p1|^2 edge / eps and |p1| x, grow with |k|; counting 2^-52 per term
    # alone left the bar short of the 64-point gap here by up to 2.5x
    tau = tau_threshold(n) + dt
    _assert_lattice_bar_counts_its_rounding(eps, n, tau, 1.0 - tau + np.array([0.5, 2.0, 8.0]))


def test_lattice_bar_far_outside_past_threshold():
    # the exterior after the eigenvalue has gone, out to edge + 40, where |psi|
    # has fallen to 1e-9 of its size in the well at eps 0.1
    for eps, n, dt in [(0.2, 1, 0.5), (0.1, 1, 0.5), (0.05, 1, 0.3), (0.1, 3, 0.5),
                       (0.07, 3, 0.05), (0.2, 3, -1.5)]:
        tau = tau_threshold(n) + dt
        edge = 1.0 - tau
        xs = np.concatenate([np.linspace(0.0, edge, 13)[1:], edge + np.array([0.5, 2, 8, 20, 40])])
        lat = wfd.fourier_mode(ModelParams(eps=eps, n=n), tau / eps, xs)
        assert np.max(lat.est_error) <= 1e-12 * np.max(np.abs(lat.psi[:12])), (eps, n, dt)


@pytest.mark.parametrize("eps,dt", [(0.1, 0.5), (0.2, 1.0)])
def test_lattice_joins_at_the_edge_past_threshold(eps, dt):
    # past tau_1 no contour reaches the exterior; the lattice route's standing
    # and outgoing sums meet at the edge in value and in slope (one-sided
    # second-order differences, h = 1e-4)
    tau = tau_threshold(1) + dt
    edge, h = 1.0 - tau, 1e-4
    xs = edge + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    xs[2] = edge
    xs = np.append(xs, np.nextafter(edge, 2 * edge))  # the first point past the edge
    lat = wfd.fourier_mode(ModelParams(eps=eps, n=1), tau / eps, xs)
    f = lat.psi
    assert abs(f[5] - f[2]) <= lat.est_error[5] + lat.est_error[2] + 1e-14
    left = (3.0 * f[2] - 4.0 * f[1] + f[0]) / (2.0 * h)
    right = (-3.0 * f[2] + 4.0 * f[3] - f[4]) / (2.0 * h)
    assert abs(left - right) <= 1e-7 * abs(left)


def test_outgoing_momentum_branches():
    eps = 0.2
    # inside the gap the outgoing root is a decaying exponential
    q = wfd.outgoing_momentum(0.5, eps)
    assert q.imag > 0.0
    # outside the gap every transmitted wave travels rightward, whichever
    # side of the gap the lattice momentum came from
    assert wfd.outgoing_momentum(1.4, eps).real > 0.0
    assert wfd.outgoing_momentum(-1.8, eps).real > 0.0
