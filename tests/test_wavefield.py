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

import numpy as np
import pytest

from adiawell import symbolfield as sf
from adiawell import wavefield as wfd
from adiawell._panels import gl_rule
from adiawell.branches import int_l0, l0
from adiawell.errors import ContourClash, TraceDiverged
from adiawell.spectrum import ModelParams, p_n, tau_threshold

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


# ---------------------------------------------------------------------
# steepest-descent tracer
# ---------------------------------------------------------------------


def test_trace_constant_real_part_and_rising_imag():
    verts = wfd.trace_steepest(1, -2.0, 0.2)
    ev = wfd.action(verts, 1, -2.0)
    saddle = wfd.action(p_n(1, -2.0), 1, -2.0)
    assert np.max(np.abs(ev.value.real - complex(saddle.value).real)) < 1e-9
    # both ends must have climbed to the truncation level
    level = 45.0 * 0.2
    base = complex(saddle.value).imag
    assert ev.value.imag[0] - base >= level - 1e-9
    assert ev.value.imag[-1] - base >= level - 1e-9


def test_trace_diverges_on_unreachable_level():
    with pytest.raises(TraceDiverged):
        wfd.trace_steepest(1, -2.0, 0.2, level=1e7)


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


@pytest.mark.parametrize("delta", [0.45, 0.2])
def test_sd_and_gamma_agree_near_threshold(delta):
    tau = tau_threshold(1) - delta
    xs = np.array([0.25, 0.55, 0.85])
    sd = wfd.mode_inside(P01, tau / 0.1, xs, method="sd")
    gamma = wfd.mode_inside(P01, tau / 0.1, xs, method="gamma")
    assert np.max(np.abs(sd.psi - gamma.psi)) < 1e-7


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


@pytest.mark.parametrize(
    "n, tau", [(1, tau_threshold(1) - 0.2), (2, tau_threshold(2)), (3, tau_threshold(3) + 0.5)]
)
def test_vertical_leg_panels_match_action_form(n, tau):
    # the panel rule's frequency |Im S_p(1 - iy)| / eps, taken from action()
    eps = 0.1
    depth = wfd._minus_depth(n, tau, eps)

    def freq(y):
        return abs(complex(wfd.action(1.0 - 1j * y, n, tau).d1).imag) / eps

    bounds = [0.0, min(wfd._MINUS_TIP, depth)]
    while bounds[-1] < depth:
        y = bounds[-1]
        h = min(0.6 * y, wfd._PANEL_PHASE * eps / (freq(y) + 1e-3), 0.5)
        h = min(0.6 * y, wfd._PANEL_PHASE * eps / (freq(y + h) + 1e-3), 0.5)
        bounds.append(min(y + h, depth))
    panels = wfd._minus_panels(n, tau, eps, depth)
    assert panels.size == len(bounds)
    assert np.max(np.abs(panels - np.array(bounds))) <= 1e-15


def test_auto_dispatch_picks_gamma_only_near_threshold():
    thr = tau_threshold(1)
    assert wfd.mode_inside(P01, (thr - 0.1) / 0.1, np.array([0.5])).method == "gamma"
    assert wfd.mode_inside(P01, -20.0, np.array([0.5])).method == "sd"


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
    # L0 ladder points, counted where the kernel evaluates them; a count
    # does not depend on the speed of the machine
    count = [0]
    raw = sf._l0_raw

    def counted(z, side):
        count[0] += np.size(z)
        return raw(z, side)

    monkeypatch.setattr(sf, "_l0_raw", counted)
    t = -12.0  # eps = 0.1, n = 1, edge at 2.2
    wfd.mode_outside(P01, t, np.array([2.7]))
    assert count[0] <= 1_000_000
    count[0] = 0
    wfd.mode_inside(P01, t, np.linspace(0.0, 2.2, 200), method="sd")
    assert count[0] <= 1_000_000


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


@pytest.mark.parametrize("frac", [0.111, 0.287, 0.455])
def test_scattering_interface_relations(frac):
    res1, res2 = wfd.scattering_residuals(frac * 0.2, 0.2)
    assert res1 < 1e-10
    assert res2 < 1e-10


def test_series_continuous_at_well_edge():
    val_gap, der_gap = wfd.interface_residuals(P02, -10.0, 0.37 * 0.2)
    assert val_gap < 1e-9
    assert der_gap < 1e-8


def test_fourier_recovery_matches_contour():
    xs = np.array(sorted(INSIDE_REF))
    fm = wfd.fourier_mode(P02, -10.0, xs, samples=64)
    sd = wfd.mode_inside(P02, -10.0, xs)
    assert np.max(np.abs(fm - sd.psi)) < 1e-5


def test_outgoing_momentum_branches():
    eps = 0.2
    # inside the gap the outgoing root is a decaying exponential
    q = wfd.outgoing_momentum(0.5, eps)
    assert q.imag > 0.0
    # outside the gap every transmitted wave travels rightward, whichever
    # side of the gap the lattice momentum came from
    assert wfd.outgoing_momentum(1.4, eps).real > 0.0
    assert wfd.outgoing_momentum(-1.8, eps).real > 0.0
