"""Tests for the slow-drive resummation layer.

Reference values were generated independently with mpmath at 20-30 digits:
straight-ladder kernel integrals by mp.quad on [-14, 14] (interior and
post-relocation anchors, relocation corrections summed in mpmath), kernel
integrals by mp.quad on the whole line split at the singular column
(interior and collar points, and one point on either side of the old
seam 1 - |Re p| = 0.45 eps past which anchors were relocated; the two
collar points nearest the tip and the seam points also at every
quarter-integer s, around the kernel poles at s = +-i/2), and the
nested R0 value by a 20-digit double quadrature of the kernel inside the
path integral.  Everything else is checked against defining identities
(difference equations, symmetry laws) or scaling forms whose
constants the tests measure rather than assume.
"""

from __future__ import annotations

import numpy as np
import pytest

from adiawell import symbolfield as sf
from adiawell import wavefield as wfd
from adiawell._panels import gl_panels
from adiawell.branches import int_l0, l0, l0_prime, rho0
from adiawell.errors import ContourClash, QuadratureFailure
from adiawell.special import zeta_fn

# mpmath references (see module docstring)
L0_INTERIOR_REF = 0.5611473420277146809637 + 0.8098801341855701512976j  # p=0.3+0.4j, eps=0.1
L0_RELOCATED_REF = 3.006308680843562636191 + 2.140589985995586533438j  # p=1.7+0.02j, eps=0.1
R0_NESTED_REF = -0.00029317010883591661691 + 0.00047730702917243011217j  # p=0.5+0.8j, eps=0.1
# straight-ladder and collar points, 30 digits (40 digits agree to 1e-30)
L0_LADDER_REFS = {
    (0.8 + 0.05j, 0.2): 1.835301832463188497091 + 0.1616922320604303181053j,
    (0.8 + 0.05j, 0.1): 1.842833143068102836045 + 0.1644137500471479635885j,
    (0.8 + 0.05j, 0.05): 1.844836103598903691262 + 0.1652015116955643942389j,
    (0.9 + 0.3j, 0.2): 1.869207712017601977468 + 0.9633377743379861187604j,
    (0.9 + 0.3j, 0.1): 1.867451272456894091995 + 0.9682306977205391708957j,
    (0.9 + 0.3j, 0.05): 1.866982676135382569233 + 0.9694032338286380412963j,
    (-0.6 + 1.2j, 0.2): -0.7532123054384690514674 + 2.144058355493547082599j,
    (-0.6 + 1.2j, 0.1): -0.7528540965617778554036 + 2.144812550091381410039j,
    (-0.6 + 1.2j, 0.05): -0.7527644761470450586667 + 2.145000781618203722251j,
    (0.5 + 2.0j, 0.2): 0.4422403979964368568863 + 2.930879137048494030414j,
    (0.5 + 2.0j, 0.1): 0.4420880171878093971796 + 2.931292892045529387295j,
    (0.5 + 2.0j, 0.05): 0.4420499554908963974265 + 2.931396255913992371605j,
    (0.97 + 0.02j, 0.1): 2.601197338566070174397 + 0.1384758806083356961077j,
    (-0.99 + 0.02j, 0.05): -2.776076092645020862722 + 0.2032526958827584890043j,
    (0.995 + 0.01j, 0.1): 2.812441405871375912061 + 0.0966822695739305390663j,
    (0.998 + 0.075j, 0.05): 2.592474104156194809684 + 0.5411987687563963793567j,
    # 1 - 0.45 eps -/+ 1e-9 + 0.3i eps, both inside the relocated collar now
    (0.977499999 + 0.015j, 0.05): 2.685198303179625167562 + 0.1264732720369168013008j,
    (0.977500001 + 0.015j, 0.05): 2.685198319217663640100 + 0.1264732758181035057076j,
}


# ---------------------------------------------------------------------
# kernel values against independent quadratures
# ---------------------------------------------------------------------


def test_big_l0_interior_reference():
    rep = sf.big_l0(0.3 + 0.4j, 0.1)
    assert abs(rep.value - L0_INTERIOR_REF) < 1e-10
    assert rep.est_error < 1e-8


def test_big_l0_error_is_within_its_estimate():
    # the estimate bounds the error and overstates it by at most 100x (the
    # error is taken no smaller than rounding, 1e-15 |L0|)
    for (p, eps), ref in L0_LADDER_REFS.items():
        rep = sf.big_l0(p, eps)
        err = abs(rep.value - ref)
        assert err <= rep.est_error <= 100.0 * max(err, 1e-15 * abs(ref)), (p, eps)


def test_old_collar_seam_is_accurate():
    # a ladder anchored 0.45 eps from the tip lost two digits (1.7e-13)
    for p in (0.977499999 + 0.015j, 0.977500001 + 0.015j):
        assert abs(sf.big_l0(p, 0.05).value - L0_LADDER_REFS[(p, 0.05)]) <= 1e-14


def test_big_l_values_make_one_kernel_call(monkeypatch):
    # collar points are relocated like points past the cut, so a batch
    # holding them still goes through one blocked ladder call
    calls = [0]
    raw = sf._l0_raw

    def counted(z, side):
        calls[0] += 1
        return raw(z, side)

    monkeypatch.setattr(sf, "_l0_raw", counted)
    sf._big_l_values(np.array([0.97 + 0.02j, -0.99 + 0.02j, 0.3 + 0.4j]), 0.1)
    assert calls[0] == 1


def test_big_l0_relocated_reference():
    rep = sf.big_l0(1.7 + 0.02j, 0.1)
    assert abs(rep.value - L0_RELOCATED_REF) < 1e-10


# ---------------------------------------------------------------------
# defining difference equations
# ---------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_l0_difference_equation(eps):
    rng = np.random.default_rng(20260816)
    pts = list(rng.uniform(-0.8, 0.8, 8) + 1j * rng.uniform(-2.0, 2.0, 8))
    pts += list(rng.uniform(1.2, 3.0, 8) + 1j * rng.uniform(-1.5, 1.5, 8))
    pts += [1.9 + 0.01j, -1.3 - 0.02j, 0.97 + 0.3j]
    for p in pts:
        lhs = sf.big_l0(p + eps / 2, eps).value - sf.big_l0(p - eps / 2, eps).value
        rhs = eps * l0_prime(p)
        assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(rhs))


def test_l0_difference_equation_on_upper_edge():
    eps = 0.1
    for x in [1.83, 2.47, 3.11]:
        lhs = sf.big_l0(x + eps / 2, eps, side=1).value - sf.big_l0(x - eps / 2, eps, side=1).value
        rhs = eps * l0_prime(x, side=1)
        assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------
# symmetries and limits
# ---------------------------------------------------------------------


def test_l0_symmetries():
    eps = 0.1
    assert abs(sf.big_l0(0.0, eps).value) < 1e-14
    for p in [0.4 + 0.7j, -0.2 + 1.3j, 1.6 + 0.9j]:
        v = sf.big_l0(p, eps).value
        assert abs(sf.big_l0(-p, eps).value + v) < 1e-11  # odd
        assert abs(sf.big_l0(np.conj(p), eps).value - np.conj(v)) < 1e-11
    for x in [0.2, 0.65, 0.9]:
        assert abs(sf.big_l0(x, eps).value.imag) < 1e-13  # real on the interval
    for y in [0.3, 1.1]:
        assert abs(sf.big_l0(1j * y, eps).value.real) < 1e-13  # imaginary on the axis


def test_l0_approaches_branch_function_at_order_eps2():
    pts = [0.3 + 0.4j, -0.5 + 1.0j, 2.0 + 1.5j]
    for p in pts:
        d1 = abs(sf.big_l0(p, 0.1).value - l0(p))
        d2 = abs(sf.big_l0(p, 0.05).value - l0(p))
        assert d2 < d1
        assert 3.5 < d1 / d2 < 4.5  # halving eps quarters the defect


def test_l0_scaling_form_near_branch_point():
    """L0(1 + eps w) = pi + sqrt(2 eps) zeta(w) + O(eps^{3/2}) uniformly."""
    w = -0.3 + 0.2j
    defects = []
    for eps in [0.1, 0.05, 0.025]:
        val = sf.big_l0(1.0 + eps * w, eps).value
        defects.append(abs(val - (np.pi + np.sqrt(2.0 * eps) * zeta_fn(w))) / eps**1.5)
    # the scaled defect is a single constant across octaves (measured ~0.047)
    assert max(defects) < 0.2
    assert max(defects) / min(defects) < 1.2


# ---------------------------------------------------------------------
# R0 and the amplitude
# ---------------------------------------------------------------------


def test_r0_nested_reference_and_basics():
    rep = sf.r0(0.5 + 0.8j, 0.1)
    assert abs(rep.value - R0_NESTED_REF) / abs(R0_NESTED_REF) < 1e-9
    assert sf.r0(0.0 + 0.0j, 0.1).value == 1.0 + 0.0j
    assert abs(sf.amplitude_a(1e-12, 0.1).value - 1.0) < 1e-9


def test_r0_difference_equation():
    eps = 0.1
    rng = np.random.default_rng(42)
    for _ in range(20):
        p = rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.9, 0.9)
        lhs = sf.r0(p + eps / 2, eps).value
        rhs = rho0(p) * sf.r0(p - eps / 2, eps).value
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), abs(rhs))


def test_r0_unimodular_on_interval_and_even():
    eps = 0.1
    for x in [-0.9, -0.3, 0.5, 0.95]:
        rep = sf.r0(x, eps)
        assert abs(abs(rep.value) - 1.0) < 1e-12
    for p in [0.4 + 0.5j, 0.85 + 0.1j]:
        assert abs(sf.r0(p, eps).value - sf.r0(-p, eps).value) < 1e-10


def test_path_independence_of_amplitude_integral():
    eps = 0.1
    p = 0.5 + 0.8j
    (_, _, direct), _ = sf.path_cumulative(np.linspace(0, p, 9), eps)
    (_, _, dogleg), _ = sf.path_cumulative(np.array([0, 0.5j, 0.5 + 0.5j, p]), eps)
    assert abs(direct[-1] - dogleg[-1]) < 1e-11


def _cut_in(pts, n):
    frac = np.linspace(0.0, 1.0, n + 1)[:-1]
    inner = pts[:-1, None] + frac * (pts[1:, None] - pts[:-1, None])
    return np.concatenate([inner.ravel(), pts[-1:]])


@pytest.mark.parametrize("eps", [0.2, 0.125, 0.05])
def test_sweep_estimate_bounds_its_error(eps):
    # the reference sweeps every segment cut into four; the contours the
    # field sums over must stay within the ladder allowance, so that
    # amplitude_along's bar remains the ladder's
    tau = -1.2
    contours = [
        wfd.trace_steepest(1, tau, eps),
        wfd.trace_steepest(1, tau, eps, xi=0.05) - 0.5 * eps,
    ]
    polylines = [
        (np.concatenate([sf._route_from_origin(complex(v[0]), eps), v[1:]]), 0, True)
        for v in contours
    ]
    depths = [0.0, 1e-7]
    while depths[-1] < 12.0:
        depths.append(min(2.0 * depths[-1], 12.0))
    polylines.append((1.0 - 1j * np.array(depths), 1, False))
    for z in (0.999 + 0.001j, 1.0 - 0.001j, 1.05 + 0.01j, -0.99 - 0.02j):
        polylines.append((sf._route_from_origin(z, eps), 0, False))
    for pts, side, on_contour in polylines:
        (_, _, cum), est = sf.path_cumulative(pts, eps, side)
        (_, _, ref), _ = sf.path_cumulative(_cut_in(pts, 4), eps, side)
        assert np.max(np.abs(cum - ref[0::4])) <= est
        if on_contour:
            assert est <= sf._LADDER_EST


def test_route_grades_toward_lattice_singularities():
    # routes ending next to 1 + eps/2 and 1 + 3 eps/2, singularities of L0 on
    # the edge, against the same route cut into 16
    eps = 0.1
    for z in (1.15 + 0.003j, 1.05 + 0.01j):
        route = sf._route_from_origin(z, eps)
        (_, _, cum), est = sf.path_cumulative(route, eps)
        (_, _, ref), _ = sf.path_cumulative(_cut_in(route, 16), eps)
        assert abs(cum[-1] - ref[-1]) <= 1e-13, z
        assert est <= 1e-12, z


def test_amplitude_near_identity_and_reflection_law():
    for p in [0.4 + 0.3j, -0.6 + 0.8j]:
        devs = []
        for eps in [0.1, 0.05]:
            rep = sf.amplitude_a(p, eps)
            devs.append(abs(rep.value - 1.0))
            assert devs[-1] < 0.5 * np.sqrt(eps)
            mirror = sf.amplitude_a(np.conj(p), eps).value
            assert abs(mirror * np.conj(rep.value) - 1.0) < 1e-9
        assert devs[1] < devs[0]


def test_amplitude_unimodular_on_interval():
    for x in [0.3, 0.8, 0.99]:
        assert abs(abs(sf.amplitude_a(x, 0.1).value) - 1.0) < 1e-12


# ---------------------------------------------------------------------
# the upper edge machinery
# ---------------------------------------------------------------------


def test_upper_edge_recursion_matches_direct_quadrature():
    eps = 0.1
    frac = 0.23 * eps
    direct = np.exp(
        sf._lnA_at_one(eps) + sf._int_g_first_period(eps, np.array([frac + eps]))[0]
    )
    recursed = sf.upper_edge_amplitude(eps, np.array([1.0 + frac + eps]))[0]
    assert abs(direct - recursed) < 1e-9


def test_upper_edge_continuity_from_above():
    eps = 0.1
    x = 1.0 + 0.37 * eps
    above = sf.amplitude_a(x + 1e-7j, eps).value
    on_edge = sf.upper_edge_amplitude(eps, np.array([x]))[0]
    assert abs(above - on_edge) < 3e-6


def test_boundary_r_decays_superexponentially():
    eps = 0.1
    xs = np.array([1.0 + 0.3 * eps, 1.0 + 0.3 * eps + 5 * eps, 1.0 + 0.3 * eps + 10 * eps])
    mags = np.array([abs(sf.r0(x, eps).value) for x in xs])
    assert mags[0] < 1.0
    assert mags[1] < 0.05 * mags[0]
    assert mags[2] < 0.05 * mags[1]
    # the decay exponent is the edge phase volume; amplitude stays O(1)
    amps = np.abs(sf.upper_edge_amplitude(eps, xs))
    assert np.all((amps > 0.3) & (amps < 3.0))
    # R0 is exactly even on the cuts
    assert abs(sf.r0(-xs[0], eps).value - sf.r0(xs[0], eps).value) == 0.0


def _per_target_route(eps, frac_targets):
    """The first-period edge integral, each target on its own polyline.

    A frozen copy of the route the batched pass replaced: up from 1 to
    1 + 0.45i eps, across in ceil(frac / 0.15 eps) equal steps, down onto
    the target with panels graded from 1e-10 eps.  The up leg is the same
    for every target, so it is integrated once; all nodes go through one
    kernel call.
    """
    h = 0.45 * eps
    up = sf._geometric_leg(1.0 + 0.0j, 1.0 + 1j * h, 1e-9, 0.2 * eps)
    up_nodes, up_w = gl_panels(np.array(up), 8)
    legs = []
    for frac in frac_targets:
        across_n = max(2, int(np.ceil(frac / (0.15 * eps))))
        across = list(1.0 + 1j * h + frac * np.arange(1, across_n + 1) / across_n)
        down = sf._geometric_leg(1.0 + frac + 0.0j, 1.0 + frac + 1j * h, 1e-10 * eps, 0.2 * eps)
        legs.append(gl_panels(np.array([1.0 + 1j * h] + across + list(reversed(down))[1:]), 8))
    owner = np.repeat(np.arange(len(legs)), [nodes.size for nodes, _ in legs])
    nodes = np.concatenate([up_nodes.ravel()] + [nodes.ravel() for nodes, _ in legs])
    weights = np.concatenate([w.ravel() for _, w in legs])
    g = sf._g_values(nodes, eps, 1)
    wg = weights * g[up_nodes.size:]
    rest = np.bincount(owner, wg.real) + 1j * np.bincount(owner, wg.imag)
    return np.sum(up_w.ravel() * g[: up_nodes.size]) + rest


def _hook_edge_keys(eps):
    """frac / eps of every node of both hook-edge tables, as upper_edge_amplitude keys them."""
    xs = np.concatenate([wfd._plus_tables(eps, rule)["xs"] for rule in (8, 16)])
    m = np.floor((xs - 1.0) / eps + 1e-12).astype(int)
    frac = xs - 1.0 - m * eps
    frac[frac < 0.0] += eps
    return np.unique(np.round(frac / eps, 12))


@pytest.mark.parametrize("eps", [0.2, 0.125, 0.05])
def test_hook_edge_nodes_clear_the_lattice_singularities(eps):
    # the edge amplitude refuses targets within 1e-5 eps of 1 + (l + 1/2) eps
    for rule in (8, 16):
        u = (wfd._plus_tables(eps, rule)["xs"] - 1.0) / eps - 0.5
        assert np.min(np.abs(u - np.round(u))) >= 1e-5


@pytest.mark.parametrize("eps", [0.2, 0.125, 0.05])
def test_batched_edge_integral_matches_per_target_route(eps, monkeypatch):
    keys = _hook_edge_keys(eps)
    # one mapped panel per half-period: 72 keys (the graded periods had ~700)
    assert keys.size <= 100
    count = [0]
    raw = sf._l0_raw

    def counted(z, side):
        count[0] += np.size(z)
        return raw(z, side)

    monkeypatch.setattr(sf, "_l0_raw", counted)
    batched = sf._int_g_first_period(eps, keys * eps)
    # L0 ladder points of the whole table (1.06M); the per-target route took 57M
    # on the graded periods' 700 keys
    assert count[0] <= 1_500_000
    monkeypatch.undo()
    assert np.max(np.abs(batched - _per_target_route(eps, keys * eps))) <= 1e-12


def test_batched_edge_integral_targets_are_independent():
    eps = 0.1
    lone = [0.23 * eps, 0.5 * eps + 3e-5 * eps, 0.23 * eps + eps, 0.999 * eps]
    batch = np.concatenate([np.linspace(0.01, 0.97, 37) * eps, lone, [0.0, 1e-15]])
    vals = sf._int_g_first_period(eps, batch)
    for frac, val in zip(lone, vals[37:41]):
        assert abs(val - sf._int_g_first_period(eps, np.array([frac]))[0]) <= 1e-14
    # targets past one period are accepted and agree with the per-target route
    assert abs(vals[39] - _per_target_route(eps, [0.23 * eps + eps])[0]) <= 1e-12
    # targets at the branch point itself give 0
    assert vals[-2] == 0.0 and vals[-1] == 0.0


def test_eps_memo_stays_within_its_bound():
    memo = sf._lnA_at_one
    bound = memo.cache_info().maxsize
    values = [memo(0.3 + 0.01 * k) for k in range(bound + 3)]
    info = memo.cache_info()
    assert info.currsize <= info.maxsize == bound
    # an evicted eps is recomputed to the same value
    assert memo(0.3) == values[0]


# ---------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------


def test_contour_guards():
    with pytest.raises(ContourClash):
        sf.upper_edge_amplitude(0.1, np.array([0.8]))
    with pytest.raises(QuadratureFailure):
        sf._int_g_first_period(0.1, np.array([0.5 * 0.1]))
    # one target near a lattice point fails the whole batch
    with pytest.raises(QuadratureFailure):
        sf._int_g_first_period(0.1, np.array([0.02, 0.05 + 0.5e-6, 0.08]))
    with pytest.raises(ContourClash):
        sf.amplitude_a(-1.7, 0.1)


def test_bent_vertical_is_accepted_via_relocation():
    rep = sf.big_l0(1.7 + 0.02j, 0.1)
    assert abs(rep.value - L0_RELOCATED_REF) < 1e-10
