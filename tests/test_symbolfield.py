"""Tests for the slow-drive resummation layer.

Reference values were generated independently with mpmath at 20-30 digits:
straight-ladder kernel integrals by mp.quad on [-14, 14] (interior and
post-relocation anchors, relocation corrections summed in mpmath; split at
the column where a straight contour meets a cut or a branch point), kernel
integrals by mp.quad on the whole line split at the singular column
(interior and collar points, and one point on either side of the old
seam 1 - |Re p| = 0.45 eps past which anchors were relocated; the two
collar points nearest the tip and the seam points also at every
quarter-integer s, around the kernel poles at s = +-i/2), and the
nested R0 value by a 20-digit double quadrature of the kernel inside the
path integral.  The near-cut references at eps <= 0.125 are mp.quad kernel
integrals at 36 digits along the vertical line through the point where
that line clears the cuts, split at the column nearest the branch point;
past the cuts the line runs through the anchor near Re p = +-0.5 instead,
and the relocation sum is added in mpmath (48 digits agree to 1e-36).  The
upper-edge amplitude, which the code carries from the real axis by a
recursion, is checked against a quadrature along a graded route through
the upper half plane built here.  Its logarithmic stepper is checked
against the per-period rho0 loop kept here as a reference, and at R0(15)
and beside the edge cusps against rho0 products in 30-40 digit mpmath,
at the code's own float midpoints.  Everything else is checked
against defining identities (difference equations, symmetry laws) or
scaling forms whose constants the tests measure rather than assume.
"""

from __future__ import annotations

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiawell import symbolfield as sf
from adiawell import wavefield as wfd
from adiawell._panels import cusp_panels
from adiawell.branches import int_l0, l0, l0_prime, rho0
from adiawell.errors import AdiawellError, ContourClash
from adiawell.special import zeta_fn

# mpmath references (see module docstring)
L0_INTERIOR_REF = 0.5611473420277146809637 + 0.8098801341855701512976j  # p=0.3+0.4j, eps=0.1
L0_RELOCATED_REF = 3.006308680843562636191 + 2.140589985995586533438j  # p=1.7+0.02j, eps=0.1
R0_NESTED_REF = -0.00029317010883591661691 + 0.00047730702917243011217j  # p=0.5+0.8j, eps=0.1
# R0(15) at eps 0.1 and its logarithm by the per-period rho0 recursion in
# 30-digit mpmath, from the double sweep's ln A(15 - 141 eps) at the same float
# midpoints; mpmath numbers do not underflow, and R0 is subnormal here
R0_15_REF = 3.5202869023637e-314 - 8.96685179369447e-314j
LN_R0_15_REF = -720.74651284730536134 + 451.19264704719326041j
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

# the hardest places for the ladder, (point, side) at each eps: the collar
# edge, the lowest anchor a relocation reaches, points just inside and just
# outside the relocated band past the cut, and the vertical hook leg through
# the branch point 1; 30 digits as above (40 digits agree to 6e-31)
HARD_ANCHORS = {
    "collar edge": lambda eps: (1.0 - 1.0001 * eps, 0),
    "lowest anchor": lambda eps: (0.5 - eps, 0),
    "relocated past the cut": lambda eps: (1.3 + 6.4j * eps, 0),
    "ladder past the cut": lambda eps: (1.3 + 6.6j * eps, 0),
    "hook leg": lambda eps: (1.0 - 6.6j * eps, 1),
    "deep hook leg": lambda eps: (1.0 - 12j, 1),
}
L0_HARD_REFS = {
    ("collar edge", 0.2): 1.843256266155481210327,
    ("lowest anchor", 0.2): 0.6082482904638629930193,
    ("relocated past the cut", 0.2): 1.439174061480453828116 + 2.602578385721788227258j,
    ("ladder past the cut", 0.2): 1.413632619549077033174 + 2.636719602301881159556j,
    ("hook leg", 0.2): 1.137244958517586069869 - 2.461132905442787216593j,
    ("deep hook leg", 0.2): 0.1657183385192529488399 - 6.366397968092764297498j,
    ("collar edge", 0.1): 2.231203945675743781553,
    ("lowest anchor", 0.1): 0.8226024815695514559391,
    ("relocated past the cut", 0.1): 1.99614822340046709924 + 2.00678939317708622254j,
    ("ladder past the cut", 0.1): 1.972875705709266585273 + 2.026642202656858909937j,
    ("hook leg", 0.1): 1.61686978199701026838 - 1.698595389885237215689j,
    ("deep hook leg", 0.1): 0.1657155419513364314818 - 6.366414805366569218368j,
    ("collar edge", 0.05): 2.500482431396489124212,
    ("lowest anchor", 0.05): 0.9333991955415021275338,
    ("relocated past the cut", 0.05): 2.455904155261961540971 + 1.693523624049290623367j,
    ("ladder past the cut", 0.05): 2.438424549843273943278 + 1.70267740203275337553j,
    ("hook leg", 0.05): 2.026672661304355627439 - 1.177697196407143073251j,
    ("deep hook leg", 0.05): 0.1657148428699167677975 - 6.366419014506410794176j,
    ("collar edge", 0.025): 2.689175957369776510549,
    ("lowest anchor", 0.025): 0.9898917699369883370264,
    ("relocated past the cut", 0.025): 2.769954017747239324178 + 1.566650701023039910411j,
    ("ladder past the cut", 0.025): 2.759130141121676116088 + 1.569802134542990581943j,
    ("hook leg", 0.025): 2.340956722669405463769 - 0.8229521425818044155782j,
    ("deep hook leg", 0.025): 0.1657146681033460582035 - 6.366420066780209521176j,
}


# points 6 eps to 6.3 eps from the cuts, where the moment series takes over
# from the ladder: past the cut off the axis, below the cut past -1, below
# the tip at 1, beside -1 and on the interval (too near -1 at eps 0.2)
SERIES_POINTS = {
    "past the cut": lambda eps: 1.3 + 6.1j * eps,
    "below the cut past -1": lambda eps: -1.5 - 6.2j * eps,
    "below the tip": lambda eps: 1.0 - 6.2 * eps * np.exp(0.25j * np.pi),
    "beside -1": lambda eps: -1.0 + 6.3 * eps * np.exp(1j * np.pi / 3),
    "on the interval": lambda eps: 1.0 - 6.0 * eps,
}
# L0 - l0 there, 30 digits as above (45 digits agree to 4e-41)
SERIES_REFS = {
    ("past the cut", 0.2): 0.0009269758795290494970476 - 0.0003922326992793171988129j,
    ("below the cut past -1", 0.2): -0.0008818296056980405918479 + 0.0001867114177240882620911j,
    ("below the tip", 0.2): 0.00005443521095233985496118 + 0.001253561198511113047934j,
    ("beside -1", 0.2): -0.0002713689675417124745195 - 0.001140046413816564685831j,
    ("past the cut", 0.1): 0.0005817808909448121007985 - 0.00002807274443726015464559j,
    ("below the cut past -1", 0.1): -0.0004447834672220400249241 - 0.0001190234604844346602758j,
    ("below the tip", 0.1): -0.00008398678617439164138946 + 0.0005822669677259827897794j,
    ("beside -1", 0.1): -0.0001233601494238730209175 - 0.0006072434439586545794705j,
    ("on the interval", 0.1): -0.0004312105654246310968201,
    ("past the cut", 0.05): 0.0002575070459959509177537 + 0.000113273380661196750461j,
    ("below the cut past -1", 0.05): -0.0001284355013041609415159 - 0.0001215143786313278949667j,
    ("below the tip", 0.05): -0.0001225314878805360578121 + 0.0003883127165334166716465j,
    ("beside -1", 0.05): -0.00003699204632358653856057 - 0.0004093375720117751385828j,
    ("on the interval", 0.05): -0.0003990818165301540325564,
    ("past the cut", 0.025): 0.00006329993428764255640721 + 0.00007708691932886859812738j,
    ("below the cut past -1", 0.025): -0.0000223094809585892979203 - 0.00004730394448003490154185j,
    ("below the tip", 0.025): -0.000103503240616985318761 + 0.0002749833661797446308099j,
    ("beside -1", 0.025): -0.00001110026070699012036052 - 0.000290466697824467400723j,
    ("on the interval", 0.025): -0.0003019017511210915121067,
}


# points beside the cuts, where below eps = 2/13 the relocation carries every
# anchor onto the moment series: the collar, the hook leg 1 - iy (tagged as
# the hook passes it), points just above the cut past 1 and on its upper
# edge, and points beside -1; (point, side) at each eps
NEAR_CUT_POINTS = {
    "collar": lambda eps: (1.0 - 0.3 * eps + 0.2j * eps, 0),
    "collar on the interval": lambda eps: (1.0 - 0.7 * eps, 0),
    "hook leg 1e-6": lambda eps: (1.0 - 1e-6j, 1),
    "hook leg 0.05": lambda eps: (1.0 - 0.05j, 1),
    "hook leg 0.5": lambda eps: (1.0 - 0.5j, 1),
    "hook leg 3": lambda eps: (1.0 - 3j, 1),
    "above the cut": lambda eps: (1.0 + 0.3 * eps + 0.2j * eps, 0),
    "just above the cut": lambda eps: (1.5 + 1e-3j * eps, 0),
    "upper edge": lambda eps: (1.5, 1),
    "beside -1": lambda eps: (-1.0 + 0.5 * eps * np.exp(1j * np.pi / 3), 0),
    "below the cut past -1": lambda eps: (-1.0 - 0.4 * eps - 0.3j * eps, 0),
}
# L0 there, to 22 digits (see the module docstring)
L0_NEAR_CUT_REFS = {
    ("collar", 0.125): 2.537233463231033535451 + 0.1551967865360378022962j,
    ("collar on the interval", 0.125): 2.283839067469962143697,
    ("hook leg 1e-6", 0.125): 2.840106505055834420684 - 0.000009590334763304883727855j,
    ("hook leg 0.05", 0.125): 2.70690631653126426746 - 0.4008727725849939080907j,
    ("hook leg 0.5", 0.125): 1.792895065868843391228 - 1.46482447667027064593j,
    ("hook leg 3", 0.125): 0.6152688256740926908564 - 3.728225025880122180099j,
    ("above the cut", 0.125): 3.153539928018031741315 + 0.4724479000331429577706j,
    ("just above the cut", 0.125): 2.841071582898264749607 + 1.624045141071449264074j,
    ("upper edge", 0.125): 2.840106505130192335973 + 1.622847514907248691742j,
    ("beside -1", 0.125): -2.521013287321053621779 + 0.3308745621937764508591j,
    ("below the cut past -1", 0.125): -3.054998488395753693437 - 0.6974186989366757911476j,
    ("collar", 0.1): 2.601197338566070169781 + 0.1384758806083357192967j,
    ("collar on the interval", 0.1): 2.375445145725119840158,
    ("hook leg 1e-6", 0.1): 2.871761291796140107836 - 0.00001071408848286313890054j,
    ("hook leg 0.05", 0.1): 2.708676420016595149808 - 0.4183888183553043962861j,
    ("hook leg 0.5", 0.1): 1.792504690327181542128 - 1.465146658109388671112j,
    ("hook leg 3", 0.1): 0.615246671477430628068 - 3.728260331379863063706j,
    ("above the cut", 0.1): 3.151904337691092009939 + 0.4226685002785101320499j,
    ("just above the cut", 0.1): 2.872646271072306771575 + 1.655615769446123898802j,
    ("upper edge", 0.1): 2.871761291900230193596 + 1.654545405795519722566j,
    ("beside -1", 0.1): -2.586431590126156196437 + 0.2952461001297487536888j,
    ("below the cut past -1", 0.1): -3.063598406365478202362 - 0.6240494674126663588768j,
    ("collar", 0.05): 2.759705669583283120779 + 0.09744377178503587288291j,
    ("collar on the interval", 0.05): 2.601317719071289964406,
    ("hook leg 1e-6", 0.05): 2.950548799497142428754 - 0.00001512851331451326628427j,
    ("hook leg 0.05", 0.05): 2.701404388898683185405 - 0.4434442074822088289093j,
    ("hook leg 0.5", 0.05): 1.791986893573551407131 - 1.465573655628922074692j,
    ("hook leg 3", 0.05): 0.6152171406274870881228 - 3.728307400089119433964j,
    ("above the cut", 0.05): 3.1483515519070286945 + 0.2990075124157362649104j,
    ("just above the cut", 0.05): 2.951212684922441547635 + 1.734301159506425482874j,
    ("upper edge", 0.05): 2.95054879979251778492 + 1.733545475465168783731j,
    ("beside -1", 0.05): -2.74890721086552938604 + 0.2077856049380281411882j,
    ("below the cut past -1", 0.05): -3.085668819566117411205 - 0.4416315028981732671461j,
    ("collar", 0.025): 2.871640547571282464581 + 0.06873655571890535915092j,
    ("collar on the interval", 0.025): 2.760076994667585711151,
    ("hook leg 1e-6", 0.025): 3.006418513241315826516 - 0.00002137818638595572628738j,
    ("hook leg 0.05", 0.025): 2.697479180462646585207 - 0.4478680785866151784407j,
    ("hook leg 0.5", 0.025): 1.791857914406305537058 - 1.46567995720123035876j,
    ("hook leg 3", 0.025): 0.6152097593568515773917 - 3.728319166322047969178j,
    ("above the cut", 0.025): 3.146182497249705102532 + 0.2114770824663832179099j,
    ("just above the cut", 0.025): 3.006906882306183478834 + 1.790092791099379879574j,
    ("upper edge", 0.025): 3.006418514078113259037 + 1.789558861245543278976j,
    ("beside -1", 0.025): -2.863881084649203380536 + 0.1465788096296996349363j,
    ("below the cut past -1", 0.025): -3.101772582302113635169 - 0.3124068644092718027443j,
}
# L0(1e5 + 0.01i) at eps 0.1, a relocation of about 1e6 steps: the kernel
# integral at 0.5 + 0.01i plus 999,995 steps summed at 30 digits
L0_FAR_REF = 2.96650622045635853472728204399 + 24.2362500633557987954849310896j


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


def test_big_l0_at_hard_anchors():
    # the pole-corrected ladder holds rounding level at the collar edge and
    # next to the cuts, where the ladder without the pole term lost up to 1.4e-13
    for (where, eps), ref in L0_HARD_REFS.items():
        p, side = HARD_ANCHORS[where](eps)
        rep = sf.big_l0(p, eps, side)
        err = abs(rep.value - ref)
        assert err <= 2e-15 * max(1.0, abs(ref)), (where, eps)
        assert err <= rep.est_error <= 100.0 * max(err, 1e-15 * abs(ref)), (where, eps)


def test_big_l0_bar_beside_a_lattice_cusp():
    # 1e-6 past the singular point 1 + eps/2 on the upper edge: L0 is the series
    # at 0.35 + 1e-6 plus seven relocation steps, the first 1e-6 past 1, where
    # a q0 that rounded x*x - 1 would cost 3.1e-9.  What is left is the
    # rounding of that midpoint, which l0'' carries (error 2.9e-9, bar 1.6e-8).
    # Reference: the exact steps at 40 digits from the float input
    eps, p = 0.1, 1.05 + 1e-6
    rep = sf.big_l0(p, eps, side=1)
    with mpmath.workdps(40):
        z, e = mpmath.mpf(p), mpmath.mpf(eps)
        steps = sum(2j / mpmath.sqrt((z - (j - 0.5) * e) ** 2 - 1) for j in (1, 2))
        steps += sum(2 / mpmath.sqrt(1 - (z - (j - 0.5) * e) ** 2) for j in range(3, 8))
        ref = complex(sf.big_l0(float(z - 7 * e), eps).value) + complex(e * steps)
    err = abs(rep.value - ref)
    assert err <= rep.est_error <= 100.0 * err


def test_old_collar_seam_is_accurate():
    # a ladder anchored 0.45 eps from the tip lost two digits (1.7e-13)
    for p in (0.977499999 + 0.015j, 0.977500001 + 0.015j):
        assert abs(sf.big_l0(p, 0.05).value - L0_LADDER_REFS[(p, 0.05)]) <= 1e-14


def test_big_l_values_make_one_kernel_call(monkeypatch):
    # at eps 0.2 collar points are relocated like points past the cut, so a
    # batch holding them still goes through one blocked ladder call
    calls = [0]
    raw = sf._l0_raw

    def counted(z, side):
        calls[0] += 1
        return raw(z, side)

    monkeypatch.setattr(sf, "_l0_raw", counted)
    sf._big_l_values(np.array([0.97 + 0.02j, -0.99 + 0.02j, 0.3 + 0.4j]), 0.2)
    assert calls[0] == 1


def test_big_l_values_take_no_ladder_below_two_thirteenths(monkeypatch):
    # at eps 0.1 the same batch is carried onto the moment series: no ladder
    # column is evaluated
    columns = [0]
    raw = sf._l0_raw

    def counted(z, side):
        columns[0] += np.size(z)
        return raw(z, side)

    monkeypatch.setattr(sf, "_l0_raw", counted)
    sf._big_l_values(np.array([0.97 + 0.02j, -0.99 + 0.02j, 0.3 + 0.4j]), 0.1)
    assert columns[0] == 0



def test_big_l0_at_near_cut_anchors():
    # relocated by the fewest steps that clear the cuts by 6 eps, then the
    # moment series: rounding level, with a bar that bounds the error
    for (where, eps), ref in L0_NEAR_CUT_REFS.items():
        p, side = NEAR_CUT_POINTS[where](eps)
        rep = sf.big_l0(p, eps, side)
        err = abs(rep.value - ref)
        assert err <= 2e-15 * max(1.0, abs(ref)), (where, eps)
        assert err <= rep.est_error <= 100.0 * max(err, 1e-15 * abs(ref)), (where, eps)


def _hard_points(eps):
    """The named points above at one eps, with their side tags."""
    named = [f(eps) for f in (*HARD_ANCHORS.values(), *NEAR_CUT_POINTS.values())]
    named += [(f(eps), 0) for f in SERIES_POINTS.values()]
    return [complex(p) for p, _ in named], [side for _, side in named]


@pytest.mark.parametrize("eps", [0.15, 0.125, 0.1, 0.05, 0.025])
def test_every_anchor_takes_the_series_below_two_thirteenths(eps, monkeypatch):
    # among the named points, those exactly 6 eps from a cut can fall a
    # rounding short of the clearance; they take one more step
    rng = np.random.default_rng(2413)
    pts, sides = _hard_points(eps)
    pts += [1.0 - 6.0 * eps, -1.0 + 6.0 * eps, 1.0 - 6j * eps, 1.0 - 6.0 * eps * np.exp(0.3j)]
    sides += [0, 0, 1, 0]
    z = np.concatenate([pts, rng.uniform(-3.0, 3.0, 4000) + 1j * rng.uniform(-8, 8, 4000) * eps])
    side = np.concatenate([sides, np.zeros(4000, dtype=int)])
    anchor, _, _ = sf._relocation(z, eps)
    assert np.all(sf._by_series(anchor, eps))
    columns = [0]
    raw = sf._l0_raw

    def counted(w, tag):
        columns[0] += np.size(w)
        return raw(w, tag)

    monkeypatch.setattr(sf, "_l0_raw", counted)
    sf._big_l_values(z, eps, side)
    assert columns[0] == 0


def test_no_step_count_clears_some_points_above_two_thirteenths():
    # past eps = 2/13 the band 6 eps clear of both cuts is narrower than a
    # step on the real axis: at eps 0.16 no relocation of 0.42 reaches it
    eps = 0.16
    shifted = 0.42 - eps * np.arange(0, 10)
    assert not np.any(sf._by_series(shifted + 0j, eps))


def _ladder_route(p, eps, side):
    """L0 by the straight ladder at the anchor of the collar rule, which
    every near-cut point took before the series reached it; the relocation
    sum is taken one step at a time"""
    a = np.abs(p.real)
    moved = (a > 1.0 - eps) & (np.abs(p.imag) <= 6.5 * eps)
    sgn = np.where(p.real >= 0.0, 1.0, -1.0)
    m = np.where(moved, np.ceil((a - 0.5) / eps), 0).astype(int)
    val = sf._kernel_straight(p - sgn * m * eps, eps, side)[0]
    for j in range(1, int(m.max()) + 1):
        step = m >= j
        mids = p[step] - sgn[step] * (j - 0.5) * eps
        val[step] += sgn[step] * eps * l0_prime(mids, side[step])
    return val


@pytest.mark.parametrize("eps", [0.125, 0.1, 0.05, 0.025])
def test_relocated_series_agrees_with_the_ladder(eps):
    # random points within 8 eps of the cuts, some of them on the real axis
    # with a side tag: the two routes agree to rounding
    rng = np.random.default_rng(int(1000 * eps))
    z = rng.uniform(-2.5, 2.5, 12000) + 1j * rng.uniform(-8.0, 8.0, 12000) * eps
    z[:1200] = z[:1200].real * np.where(np.abs(z[:1200].real) > 1.0, 1.0, 2.0)
    dist = np.hypot(np.maximum(1.0 - np.abs(z.real), 0.0), z.imag)
    z = z[(dist <= 8.0 * eps) & (np.abs(z.real) != 1.0)][:3000]
    assert z.size == 3000
    side = np.where(z.imag == 0.0, rng.choice([-1, 1], z.size), 0)
    ref = _ladder_route(z, eps, side)
    val = sf._big_l_values(z, eps, side) + l0(z, side)
    assert np.all(np.abs(val - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))


def test_relocation_sum_is_blocked(monkeypatch):
    # 1e5 + 0.01i at eps 0.1 is about 1e6 steps from its anchor: l0' is
    # called once per block of steps, and the working set stays bounded
    calls, largest = [0], [0]
    prime = sf.l0_prime

    def counted(p, side=0):
        calls[0] += 1
        largest[0] = max(largest[0], np.size(p))
        return prime(p, side)

    monkeypatch.setattr(sf, "l0_prime", counted)
    z = np.array([1e5 + 0.01j, 2.0 + 0.01j, -3.0])
    _, _, m_steps = sf._relocation(z, 0.1)
    tracemalloc.start()
    try:
        sf._big_l_values(z, 0.1, np.array([0, 0, -1]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls[0] == -(-int(m_steps.sum()) // sf._STEP_BLOCK) == 31
    assert largest[0] == sf._STEP_BLOCK
    assert peak < 8 * 2**20


def test_big_l0_far_along_the_cut():
    # the million-step relocation sum against mpmath, within its bar
    rep = sf.big_l0(1e5 + 0.01j, 0.1)
    assert abs(rep.value - L0_FAR_REF) <= rep.est_error <= 1.1e-9


def test_moment_series_far_from_the_cuts():
    # past |q| = 1.3e154, q^2 overflowed and the series came out nan
    eps = 0.1
    q = np.array([1e100j, 1e100 * (1.0 + 1.0j)])
    w = 1.0 - q * q
    second = -(eps**2) / 12.0 * q / (w * np.sqrt(w))
    assert np.allclose(sf._moment_series(q, eps), second, rtol=1e-14, atol=0.0)
    far = sf._moment_series(np.array([1e155j, 1e200 * (1.0 + 1.0j), -1e300 + 1j]), eps)
    assert np.all(np.abs(far) <= 1e-300)
    rep = sf.big_l0(1e155j, eps)
    assert np.isfinite(rep.value) and np.isfinite(rep.est_error)

def test_moment_series_leading_terms():
    # mu_2 = 1/12 and mu_4 = 7/240, with the derivatives
    # l0^(2) = 2q (1 - q^2)^(-3/2) and l0^(4) = (18q + 12q^3) (1 - q^2)^(-7/2)
    eps = 0.1
    q = np.array([0.3 + 0.9j, -1.7 - 0.8j, 0.2])
    w = 1.0 - q * q
    terms = [sf._moment_series(q, eps, k) - sf._moment_series(q, eps, k + 1) for k in (1, 2)]
    second = -(eps**2) / 12.0 / 2.0 * 2.0 * q * w**-1.5
    fourth = eps**4 * 7.0 / 240.0 / 24.0 * (18.0 * q + 12.0 * q**3) * w**-3.5
    assert np.allclose(terms[0], second, rtol=1e-14, atol=0.0)
    assert np.allclose(terms[1], fourth, rtol=1e-14, atol=0.0)


def test_moment_series_at_the_switch_distance():
    # ten terms hold L0 - l0 to 1e-15 where the series takes over (eight
    # left 6.6e-15)
    for (where, eps), ref in SERIES_REFS.items():
        p = SERIES_POINTS[where](eps)
        assert abs(sf._moment_series(p, eps) - ref) <= 1e-15, (where, eps)


def test_ladder_and_series_meet_at_the_seam():
    # at the same anchor the two routes to L0 agree to rounding
    for where, eps in SERIES_REFS:
        p = np.array([SERIES_POINTS[where](eps)])
        ladder = sf._kernel_straight(p, eps, 0)[0][0]
        series = sf._moment_series(p, eps)[0] + l0(p[0])
        assert abs(ladder - series) <= 2e-15 * max(1.0, abs(ladder)), (where, eps)


def test_big_l0_bar_on_series_anchors():
    # points that are their own series anchors: the bar bounds the error
    # within 100x, as on the ladder
    routed = 0
    for (where, eps), ref in SERIES_REFS.items():
        p = SERIES_POINTS[where](eps)
        anchor, _, _ = sf._relocation(np.array([p]), eps)
        if anchor[0] != p or not sf._by_series(anchor, eps)[0]:
            continue
        routed += 1
        full = ref + l0(p)
        rep = sf.big_l0(p, eps)
        err = abs(rep.value - full)
        assert err <= rep.est_error <= 100.0 * max(err, 1e-15 * abs(full)), (where, eps)
    assert routed == 17


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
    points = [rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.9, 0.9) for _ in range(20)]
    # beside the lattice singularities +-(1 + (l + 1/2) eps), above and below the cuts
    for lo, hi in ((1.0, 1.25), (-1.1, -1.05)):
        for sign in (1.0, -1.0):
            points += [complex(rng.uniform(lo, hi), sign * rng.uniform(0.003, 0.05))
                       for _ in range(5)]
    for p in points:
        lhs = sf.r0(p + eps / 2, eps).value
        rhs = rho0(p) * sf.r0(p - eps / 2, eps).value
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), abs(rhs)), p


def test_r0_far_up_the_imaginary_axis(monkeypatch):
    # a piece of the route grows with its distance from +-1, so the route to
    # 1e5 i takes 71 pieces; a fixed step cap once took 400,000
    pieces = []
    grade = sf._graded_route

    def counted(pts, eps):
        out = grade(pts, eps)
        pieces.append(out[1].size)
        return out

    monkeypatch.setattr(sf, "_graded_route", counted)
    rep = sf.r0(1e5j, 0.1)
    assert abs(rep.value / (0.7710376897515885 + 0.6367895107353239j) - 1.0) <= 1e-12
    assert pieces == [71]


def test_points_far_along_a_cut_are_refused_before_any_work(monkeypatch):
    # 1e301 and 1e10 relocation steps, and a route to 1e5 + 0.01i that would
    # take about 3.7e7 graded pieces
    def refuse(*args, **kwargs):
        raise AssertionError("work started on a refused point")

    monkeypatch.setattr(sf, "_relocation_sum", refuse)
    monkeypatch.setattr(sf, "path_cumulative", refuse)
    for p in (1e300 + 0.01j, 1e9 + 0.01j, -1e9 - 0.01j):
        with pytest.raises(AdiawellError, match="relocation steps"):
            sf.big_l0(p, 0.1)
    # 1e10 steps of R0's difference equation along the cut
    with pytest.raises(AdiawellError, match="R0 on the cut needs more than"):
        sf.r0(1e9, 0.1)
    with pytest.raises(AdiawellError, match="graded pieces"):
        sf.r0(1e5 + 0.01j, 0.1)


@pytest.mark.parametrize("p", [1e3j, 1e5j])
def test_r0_bar_counts_the_rounding_of_its_phase(p):
    # the phase (i/eps) int_l0 reaches 1.3e5 rad at 1e3 i and 2.2e7 rad at
    # 1e5 i; against 40-digit mpmath, the rounding of int_l0 alone moves it
    # by 6.9e-12 and 1.2e-9, which the bar must cover without overstating
    eps = 0.1
    with mpmath.workdps(40):
        z = mpmath.mpc(p)
        exact = 2.0 * z * mpmath.asin(z) + 2.0 * mpmath.sqrt(1.0 - z * z) - 2.0
        err = float(abs(mpmath.mpc(int_l0(p)) - exact)) / eps
    bar = sf.r0(p, eps).est_error
    assert err <= bar <= 100.0 * err


def test_r0_on_the_cut_is_one_exp_of_its_logarithm():
    # the product of rho0 factors and the separate phase exp once gave nan here
    ln_r0 = sf._ln_r0_real(0.1, np.array([15.0]))[0][0]
    assert abs(ln_r0 - LN_R0_15_REF) <= 1e-15 * abs(LN_R0_15_REF)
    # to the last of the subnormal's places (4.9e-324)
    assert abs(sf.r0(15.0, 0.1).value - R0_15_REF) <= 1e-323
    assert sf.r0(30.0, 0.1).value == 0.0  # exp(-1856.8 + 922.4i)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(1.0, 400.0), eps=st.sampled_from([0.05, 0.1, 0.2]))
def test_r0_on_the_cut_is_finite_or_refused(x, eps):
    # pytest turns a RuntimeWarning into an error
    try:
        val = sf.r0(x, eps).value
    except AdiawellError:
        return
    assert np.isfinite(val)


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
        (sf._graded_route(np.concatenate([[0.0], v]), eps)[0], True) for v in contours
    ]
    depths = [0.0, 1e-7]
    while depths[-1] < 12.0:
        depths.append(min(2.0 * depths[-1], 12.0))
    polylines.append((1.0 - 1j * np.array(depths), False))
    for z in (0.999 + 0.001j, 1.0 - 0.001j, 1.05 + 0.01j, -0.99 - 0.02j):
        polylines.append((sf._graded_route(np.array([0.0, z]), eps)[0], False))
    for pts, on_contour in polylines:
        (_, _, cum), est = sf.path_cumulative(pts, eps)
        (_, _, ref), _ = sf.path_cumulative(_cut_in(pts, 4), eps)
        assert np.max(np.abs(cum - ref[0::4])) <= est
        if on_contour:
            assert est <= sf._LADDER_EST


def test_route_grades_toward_lattice_singularities():
    # routes ending next to 1 + eps/2 and 1 + 3 eps/2, singularities of L0 on
    # the edge, against the same route cut into 16
    eps = 0.1
    for z in (1.15 + 0.003j, 1.05 + 0.01j):
        route = sf._graded_route(np.array([0.0, z]), eps)[0]
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
    # |R0| = 1 exactly up to 1 + eps/2: R0(x) = R0(x - eps) rho0(x - eps/2) there
    assert abs(mags[0] - 1.0) <= 1e-14
    assert mags[1] < 0.05 * mags[0]
    assert mags[2] < 0.05 * mags[1]
    # the decay exponent is the edge phase volume; amplitude stays O(1)
    amps = np.abs(sf.upper_edge_amplitude(eps, xs))
    assert np.all((amps > 0.3) & (amps < 3.0))
    # R0 is exactly even on the cuts
    assert abs(sf.r0(-xs[0], eps).value - sf.r0(xs[0], eps).value) == 0.0


def _graded_route_ln_a(eps, xs):
    """ln A on the upper edge by a graded route through the upper half plane.

    Along the real axis from 0 to 1 (panels halving toward the sqrt cusp at 1
    down to 1e-6 eps, the last one mapped into it), up to 1 + 0.45i eps
    (panels halving toward 1 down to 1e-6 of the leg, the first one mapped),
    across at that height in steps of at most 0.1 eps, and down onto x in
    panels halving until they are a quarter of the distance from x to the
    nearest singularity on the edge (1 or a lattice point 1 + (l + 1/2) eps),
    the last one mapped into x, which may be that singularity itself.  Every
    leg takes the 16-point rule.
    """

    def integral(edges, side, **cusp):
        nodes, w = cusp_panels(np.asarray(edges, dtype=complex), 16, **cusp)
        return np.sum(w * sf._g_values(nodes, eps, side))

    to_one = 0.3 * 0.5 ** np.arange(int(np.log2(0.3 / (1e-6 * eps))) + 1)
    h = 0.45 * eps
    heights = h * 0.5 ** np.arange(21)
    base = integral(np.concatenate([[0.0, 0.35], 1.0 - to_one, [1.0]]), 0, at_end=True)
    base += integral(1.0 + 1j * np.concatenate([[0.0], heights[::-1]]), 1, at_start=True)
    out = []
    for x in xs:
        steps = max(2, int(np.ceil((x - 1.0) / (0.1 * eps))))
        across = integral(1.0 + 1j * h + (x - 1.0) * np.arange(steps + 1) / steps, 1)
        u = (x - 1.0) / eps - 0.5
        r = min(x - 1.0, eps * abs(u - np.round(u)))
        down = [h]
        while down[-1] > 0.25 * r and len(down) < 45:
            down.append(0.5 * down[-1])
        out.append(base + across + integral(x + 1j * np.array(down + [0.0]), 1, at_end=True))
    return np.array(out)


def _nearest_hook_nodes(eps, count=4):
    """The hook's 16-point upper-edge nodes nearest the lattice singularity 1 + eps/2."""
    xs = wfd._hook_tables(eps)["edge"][16]["xs"]
    return xs[np.argsort(np.abs(xs - 1.0 - 0.5 * eps))[:count]]


@pytest.mark.parametrize("eps", [0.2, 0.125, 0.1, 0.05])
def test_upper_edge_matches_graded_route(eps):
    # generic places in the first three periods, and the hook nodes 1.4e-5 eps
    # to 1.1e-3 eps from 1 + eps/2, where the first-period quadrature that the
    # real-axis recursion replaced was off by up to 6.4e-11
    xs = np.concatenate(
        [1.0 + eps * np.array([0.01, 0.23, 0.37, 0.62, 0.9, 1.23, 2.3]), _nearest_hook_nodes(eps)]
    )
    ref = np.exp(_graded_route_ln_a(eps, xs))
    assert np.max(np.abs(sf.upper_edge_amplitude(eps, xs) / ref - 1.0)) <= 1e-12


def test_upper_edge_at_lattice_singularities():
    # the integrand has inverse-sqrt singularities there; A is finite
    eps = 0.1
    xs = 1.0 + eps * np.array([0.5, 0.5 + 5e-6, 1.5])
    vals = sf.upper_edge_amplitude(eps, xs)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals / np.exp(_graded_route_ln_a(eps, xs)) - 1.0)) <= 1e-12


def test_upper_edge_batch_matches_single_calls():
    eps = 0.1
    lone = 1.0 + eps * np.array([0.0, 0.23, 0.5, 0.5 + 3e-5, 1.23, 0.999, 7.5])
    batch = np.concatenate([1.0 + np.linspace(0.01, 3.97, 37) * eps, lone])
    vals = sf.upper_edge_amplitude(eps, batch)
    for x, val in zip(lone, vals[37:]):
        assert abs(val - sf.upper_edge_amplitude(eps, np.array([x]))[0]) <= 1e-14
    # A(1) is the one-step value
    assert abs(vals[37] - np.exp(sf._lnA_at_one(eps))) <= 1e-14


def _per_period_amplitude(eps, xs):
    """A at real xs >= 0 by a per-period loop: the reference for `_ln_r0_real`.

    The same sweep gives A(x0); each period then multiplies A by rho0 at its
    midpoint, and the int_l0 phases of the steps telescope into one exp.
    """
    m = np.maximum(np.floor((xs - 1.0) / eps + 1e-12).astype(int) + 1, 0)
    x0 = xs - m * eps
    ln_a, _ = sf._ln_amplitude(np.array([0.0, x0.max()]), 0, x0 / x0.max(), eps)
    out = np.exp(ln_a)
    for j in range(int(m.max())):
        mask = m > j
        out[mask] *= rho0(xs[mask] - (m[mask] - j - 0.5) * eps, side=1)
    return out * np.exp((1j / eps) * (int_l0(x0, side=1) - int_l0(xs, side=1)))


@pytest.mark.parametrize("eps", [0.2, 0.125, 0.1, 0.05])
def test_edge_stepper_matches_the_per_period_loop(eps):
    # R0 is the exp of a number of size |ln R0|, so past |ln R0| = 20 its
    # rounding grows with it.  On this grid every step's midpoint is on 1 or
    # 2.5e-3 or more from it; nearer, the loop's rho0 loses digits (next test)
    xs = 0.01 * np.arange(1, 351)
    ln_r0, _ = sf._ln_r0_real(eps, xs)
    phase = (1j / eps) * int_l0(xs, side=1)
    amp = _per_period_amplitude(eps, xs)
    size = np.abs(ln_r0)
    bound = np.where(size <= 20.0, 1e-14, 1e-15 * size)
    assert np.all(np.abs(np.exp(ln_r0) / (amp * np.exp(phase)) - 1.0) <= bound)
    assert np.all(np.abs(np.exp(ln_r0 - phase) / amp - 1.0) <= bound)
    edge = xs >= 1.0
    assert np.all(sf.upper_edge_amplitude(eps, xs[edge]) == np.exp(ln_r0 - phase)[edge])


def test_edge_steps_keep_their_digits_beside_the_cusps():
    # just past the cusp 1 + 3.5 eps one step's midpoint sits as far past 1,
    # where the per-period loop's rho0 = -(q0 - x)^2 would lose digits (up to
    # 9.3e-14) if q0 rounded x*x - 1; ln rho0 = i l0 takes arccosh, and q0
    # takes (x - 1)(x + 1), so both keep them.  Both against the rho0
    # product at the same float midpoints in 40-digit mpmath
    eps = 0.2
    xs = 1.0 + 3.5 * eps + np.array([5e-6, 3e-7, 1e-9])
    m = np.full(xs.size, 4)
    steps = sf._relocation_sum(xs, eps, np.ones(3), np.ones(3), m, l0)
    loop_errs = []
    for x, step in zip(xs, steps):
        mids = x - (np.arange(1, 5) - 0.5) * eps
        with mpmath.workdps(40):
            exact = mpmath.fprod(
                -(mpmath.sqrt(mpmath.mpf(t) ** 2 - 1) - mpmath.mpf(t)) ** 2 for t in mids
            )
            assert float(abs(np.exp(1j * step) / exact - 1)) <= 2e-15
            loop_errs.append(float(abs(np.prod(rho0(mids, side=1)) / exact - 1)))
    assert max(loop_errs) <= 2e-15


def test_edge_amplitude_bar_bounds_its_error():
    eps = 0.125
    xs = np.concatenate([1.0 + eps * np.array([0.3, 0.5, 2.7]), _nearest_hook_nodes(eps, 2)])
    ref = np.exp(_graded_route_ln_a(eps, xs))
    for x, a in zip(xs, ref):
        rep = sf.amplitude_a(x, eps)
        assert abs(rep.value / a - 1.0) <= rep.est_error <= 1e-10


@pytest.mark.parametrize("eps", [0.2, 0.125, 0.05])
def test_hook_edge_nodes_clear_the_lattice_singularities(eps):
    # the cusps of A at 1 + (l + 1/2) eps are panel ends, so the mapped panels
    # keep every node off them (the nearest sits 1.4e-5 eps away)
    for rule in (8, 16):
        u = (wfd._hook_tables(eps)["edge"][rule]["xs"] - 1.0) / eps - 0.5
        assert np.min(np.abs(u - np.round(u))) >= 1e-5


@pytest.mark.parametrize("eps", [0.2, 0.125, 0.05])
def test_edge_tables_work(eps, monkeypatch):
    # L0 ladder points for one build of the hook tables (both edge rules, A(1)
    # and the vertical leg): one real-axis sweep serves the edge and A(1).
    # Below eps = 2/13 every anchor is carried onto the moment series; at
    # eps 0.2 the leg nodes 6 eps deep take it, and the real-axis route is
    # graded by distance alone, with the edge's starting points as targets
    # of its dense output rather than vertices (64,827 points, against
    # 117,243 with a fixed step cap and a vertex per starting point)
    count = [0]
    raw = sf._l0_raw

    def counted(z, side):
        count[0] += np.size(z)
        return raw(z, side)

    monkeypatch.setattr(sf, "_l0_raw", counted)
    wfd._hook_tables.__wrapped__(eps)
    assert count[0] <= {0.2: 70_000, 0.125: 0, 0.05: 0}[eps]


def test_eps_memo_stays_within_its_bound():
    memo = wfd._hook_tables
    bound = memo.cache_info().maxsize
    values = [memo(0.3 + 0.01 * k)["a_one"] for k in range(bound + 3)]
    info = memo.cache_info()
    assert info.currsize <= info.maxsize == bound
    # an evicted eps is recomputed to the same value
    assert memo(0.3)["a_one"] == values[0]


# ---------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.0, -0.1, 1.5])
@pytest.mark.parametrize("fn", [sf.big_l0, sf.amplitude_a, sf.r0])
def test_entry_points_reject_eps_outside_unit_interval(fn, eps):
    # the range ModelParams enforces; r0(0.5, 0) used to divide by zero and
    # big_l0(0.5, 0) to return 1.047
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
        fn(0.5, eps)


def test_contour_guards():
    with pytest.raises(ContourClash):
        sf.upper_edge_amplitude(0.1, np.array([0.8]))
    with pytest.raises(ContourClash):
        sf.amplitude_a(-1.7, 0.1)


def test_bent_vertical_is_accepted_via_relocation():
    rep = sf.big_l0(1.7 + 0.02j, 0.1)
    assert abs(rep.value - L0_RELOCATED_REF) < 1e-10
