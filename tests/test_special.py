"""Tests for the special functions.

The transition profile is computed with numpy alone.  It is checked against
three references that share none of its code: direct contour quadrature of
the Airy integrals (scipy.integrate.quad), scipy.special.airy (AMOS), and
frozen 30-digit mpmath values.  scipy is used by the tests only.  The
moment integral is checked against plain quadrature, and the lattice sum
against mpmath Hurwitz-zeta values, frozen and live.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from adiawell.errors import AccuracyLoss, OnCut
from adiawell.special import (
    _SERIES_KAPPA,
    _SERIES_ZETA,
    _f_bessel,
    _f_series,
    a_fn,
    f_transition,
    zeta_fn,
)

# mpmath 30 digits, frozen:
#   zeta references via the Hurwitz identity zeta(t) = zeta_H(1/2, 1/2 - t)
ZETA_FROZEN = {
    0.0: -0.60489864342163037025,
    -5.0: -4.4739913233720077705,
    2j: -1.9946305063631239998 + 1.9946270190293672856j,
    -3.0 + 4j: -4.0003414887276826198 + 1.9981659490395812731j,
}
#   F(exp(i pi/6) Z) by mpmath.airyai, keyed by Z; Z^2 = 6 at +-2.4495
F_FROZEN = {
    -6.0: 4.7849108177743886434e-6 - 1.4174957909262263441e-3j,
    -2.4495: 6.5067166584789046514e-4 - 1.3246180516575350594e-2j,
    -1.0: 4.0145656147689854545e-2 - 8.8539425968959244644e-2j,
    0.5: 7.2239079713312445163e-1 - 1.7191057146663127919e-1j,
    2.4495: 1.1473050825099985404 - 1.0645970751033556541j,
    6.0: 1.268537305176844473 + 2.0954271914556902632j,
}
A0_FROZEN = 0.93889294010174456634  # a(0) = Gamma(2/3) / 3^{1/3}
#   F at the double nearest exp(i pi/6) Z (ROT * Z below), out to |z^2| = 2^20
F_FROZEN_FAR = {
    -1024.0: 2.5298058001969569267e-18 - 3.7252902984619138267e-9j,
    -512.0: 1.1448591258122006231e-16 - 2.1073424255447013309e-8j,
    -100.0: 9.1145833370786275615e-13 - 1.249999999998642097e-6j,
    -30.0: 6.8480972168388417782e-10 - 2.5357525772643574591e-5j,
    -10.0: 2.8822746954427408539e-7 - 3.9528427818366208174e-4j,
    10.0: 8.5178769139443982373e-1 - 3.0453994623085489309j,
    30.0: -4.8332946139086203876 + 2.5766767696774456434j,
    100.0: -8.4166056640114169045 + 5.4000693513947826868j,
    512.0: -2.2488438649718473625e+1 - 2.5040135669338690382j,
    1024.0: 2.0212721824128994615e+1 + 2.4808167727368164555e+1j,
}
#   F off the ray, keyed by z
F_FROZEN_OFF = {
    -1.5 + 1.6j: -2.9312431911218161055e-3 + 1.8278923059812934608e-2j,
    -3.3 - 10j: -3.3668531150476318259e-4 + 8.6217113524772237562e-5j,
    -10.0 + 0j: 3.8153771422822307868e-4 - 1.0223272240946884951e-4j,
    -12.0 + 0j: 2.4194549236948997352e-4 - 6.4829099292755199345e-5j,
    7j: 1.81277381354184331 - 1.9268347404408921906j,
    3 + 4j: -4.2562272399258298185e+67 - 1.182813178862880417e+68j,
    -5 + 5j: -1.21525794766330759e-4 + 9.3364696939615791296e-4j,
    -8.4 + 4.85j: 2.1357521141211471071e-4 + 3.6929046709366094178e-4j,
    2.5 - 1.2j: -1.3017398504417326092e-3 + 2.3390085887477326651e-3j,
}
#   F at r exp(i (k pi/3 + side 1e-6)), keyed by (r, k, side): both sides of
#   the Stokes line |arg z^2| = 2 pi/3, where the quadrature switches formula
F_FROZEN_STOKES = {
    (3.3, 1, -1): 1.1314033305934926105e+21 + 3.0298369325907953849e+20j,
    (3.3, 1, 1): 1.1313158728498249383e+21 + 3.0331009000192102788e+20j,
    (5.0, 1, -1): 5.209883518776051297e+72 + 1.3931896930946155111e+72j,
    (5.0, 1, 1): 5.2084863245653133612e+72 + 1.3984040928771989964e+72j,
    (8.0, 1, -1): 8.2238428686458611121e+296 + 2.1855258650369058706e+296j,
    (8.0, 1, 1): 8.2148197734979074437e+296 + 2.2192005145699656234e+296j,
    (3.3, 2, -1): -4.562650645864983752e-3 + 4.5626272388809898379e-3j,
    (3.3, 2, 1): -4.5626272388809955804e-3 + 4.5626506458649780358e-3j,
    (8.0, 2, -1): -4.8897989410178680714e-4 + 4.8897744501167482996e-4j,
    (8.0, 2, 1): -4.8897744501167535594e-4 + 4.889798941017863204e-4j,
    (30.0, 2, -1): -1.7931007543785101941e-5 + 1.7930917886065775574e-5j,
    (30.0, 2, 1): -1.7930917886065792895e-5 + 1.7931007543785081127e-5j,
}
ROT = np.exp(1j * np.pi / 6.0)
ULP = np.finfo(float).eps


def airy_contour_oracle(z: complex) -> tuple[complex, complex]:
    """(Ai(z), Ai'(z)) = (1/2 pi i) int_C (1, -t) exp(t^3/3 - z t) dt, C along
    the rays r*exp(+-i pi/3); fully independent of scipy.special.airy."""
    rot_p = np.exp(1j * np.pi / 3.0)
    rot_m = np.exp(-1j * np.pi / 3.0)

    def leg(rot, deriv, part):
        def f(r):
            t = rot * r
            v = (-t) ** deriv * np.exp(t**3 / 3.0 - z * t) * rot
            return v.real if part == 0 else v.imag

        return f

    pair = []
    for deriv in (0, 1):
        out = 0.0 + 0.0j
        for rot, sgn in ((rot_p, 1.0), (rot_m, -1.0)):
            re, _ = quad(leg(rot, deriv, 0), 0.0, 14.0, epsabs=1e-13, limit=300)
            im, _ = quad(leg(rot, deriv, 1), 0.0, 14.0, epsabs=1e-13, limit=300)
            out += sgn * complex(re, im)
        pair.append(out / (2j * np.pi))
    return pair[0], pair[1]


# ---------------------------------------------------------------------
# the transition combination F
# ---------------------------------------------------------------------


def test_airy_matches_contour_oracle():
    # F built from the contour Airy pair at z^2, on the ray exp(i pi/6) Z and off it
    rot = np.exp(1j * np.pi / 6.0)
    for z in (0.5, 1.5 - 0.3j, 1.2 * rot, -1.5 * rot, -0.8 + 0.6j):
        ai, aip = airy_contour_oracle(complex(z * z))
        want = np.sqrt(np.pi) * np.exp(-2.0 * z**3 / 3.0 - 1j * np.pi / 12.0) * (z * ai - aip)
        assert abs(f_transition(complex(z)) - want) < 1e-10 * max(1.0, abs(want))


def test_f_transition_matches_mpmath_on_the_ray():
    rot = np.exp(1j * np.pi / 6.0)
    for big_z, want in F_FROZEN.items():
        assert abs(f_transition(rot * big_z) - want) < 1e-11 * abs(want), big_z
    # the array path gives the same values
    got = f_transition(rot * np.array(list(F_FROZEN)))
    want = np.array(list(F_FROZEN.values()))
    assert np.all(np.abs(got - want) < 1e-11 * np.abs(want))


def test_f_transition_out_of_airy_range_raises():
    # |z^2| = 1e10 is past the range 2^20 that AMOS accepts; the true |F| is about 316
    with pytest.raises(AccuracyLoss):
        f_transition(np.exp(1j * np.pi / 6.0) * 1e5)


def test_f_transition_large_positive_limit():
    rot = np.exp(1j * np.pi / 6.0)
    errs = []
    for t in (4.0, 6.0, 8.0, 10.0):
        want = np.sqrt(t) * np.exp(-4j * t**3 / 3.0)
        got = f_transition(rot * t)
        errs.append(abs(got - want) / abs(want))
    # relative error decays like t^{-3}
    assert errs[-1] < 2e-4
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def test_f_transition_large_negative_limit():
    rot = np.exp(1j * np.pi / 6.0)
    errs = []
    for t in (4.0, 6.0, 8.0, 10.0):
        want = (-1j / 8.0) * t ** (-2.5)
        got = f_transition(-rot * t)
        errs.append(abs(got - want) / abs(want))
    assert errs[-1] < 2e-2
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def test_f_transition_at_zero():
    # F(0) = -sqrt(pi) e^{-i pi/12} Ai'(0) > 0 up to the phase factor
    want = -np.sqrt(np.pi) * np.exp(-1j * np.pi / 12.0) * scipy.special.airy(0)[1]
    assert abs(f_transition(0.0) - want) < 1e-13


def scipy_transition(z):
    """F from scipy.special.airy, and the rounding scale of that evaluation.

    The scale is eps times S = sqrt(pi) |exp(-2 z^3/3)| (|z Ai| + |Ai'|), the
    size of the two terms the formula subtracts, and |z|^3 |F|, the size of
    the phases it rounds.  Against mpmath at the same double z, scipy's own
    error reaches 5.4e-11 relative on the ray (Z = -30) and 3.0e-10 off it
    (z = -10), so a bare relative bound cannot hold against it.
    """
    with np.errstate(all="ignore"):
        ai, aip, _, _ = scipy.special.airy(z * z)
        pref = np.sqrt(np.pi) * np.exp(-2.0 * z**3 / 3.0 - 1j * np.pi / 12.0)
        f = pref * (z * ai - aip)
        terms = np.abs(pref) * (np.abs(z * ai) + np.abs(aip))
    return f, terms, np.abs(z) ** 3


def test_f_transition_matches_scipy_on_the_ray():
    # 1e-12 relative, plus scipy's own rounding: eps (S + |z|^3 |F|), which
    # bounds scipy's measured error within a factor 3.7 here
    z = ROT * np.linspace(-30.0, 30.0, 601)
    want, terms, cube = scipy_transition(z)
    tol = 1e-12 * np.abs(want) + 8.0 * ULP * (terms + cube * np.abs(want))
    assert np.all(np.abs(f_transition(z) - want) <= tol)


def test_f_transition_matches_scipy_off_the_ray():
    # |z| <= 10 at every phase, wherever scipy's F is finite and normal.  Off
    # the ray scipy's error also grows with |z|^3 where the terms cancel (on
    # the negative real axis it is 3.0e-10 at z = -10): eps S (1 + |z|^3)
    # bounds its measured error within a factor 21
    radius = np.linspace(0.1, 10.0, 34)
    phase = np.linspace(-np.pi, np.pi, 145)
    z = (radius[:, None] * np.exp(1j * phase)).ravel()
    want, terms, cube = scipy_transition(z)
    keep = np.isfinite(want) & (np.abs(want) >= np.finfo(float).tiny)
    z, want, terms, cube = z[keep], want[keep], terms[keep], cube[keep]
    assert z.size > 4600
    tol = 1e-11 * np.abs(want) + 32.0 * ULP * terms * (1.0 + cube)
    assert np.all(np.abs(f_transition(z) - want) <= tol)


def series_seam_points():
    """Points z on the seam of the Maclaurin series.

    The series serves w = z^2 where kappa = (|zeta| + Re zeta)/2 <= _SERIES_KAPPA
    and |zeta| <= _SERIES_ZETA, with zeta = (2/3) w^1.5.  Both signs of z and
    both half-planes of w are taken.
    """
    out = []
    for arg_w in (0.0, 0.6, 1.2, 1.7, 2.0, 2.3, 2.6, 3.0):
        half = np.cos(0.75 * arg_w) ** 2  # (1 + cos(arg zeta))/2
        size = min(_SERIES_KAPPA / half, _SERIES_ZETA)
        root = (1.5 * size) ** (1.0 / 3.0) * np.exp(0.5j * arg_w)
        out += [root, -root, np.conj(root), -np.conj(root)]
    return out


def test_f_transition_routes_agree_on_the_series_seam():
    # both routes hold on the seam.  Where z = -sqrt(w) the series subtracts
    # terms up to 6 |zeta| exp(2 kappa) times larger than F, so it is good to
    # about 1e-13 there
    for z in series_seam_points():
        bessel = _f_bessel(complex(z))
        assert abs(_f_series(complex(z)) - bessel) <= 5e-13 * abs(bessel), z


def test_f_transition_matches_scipy_on_both_sides_of_the_series_seam():
    for z in series_seam_points():
        side = z * np.array([1.0 - 1e-9, 1.0 + 1e-9])
        want, terms, cube = scipy_transition(side)
        tol = 1e-12 * np.abs(want) + 32.0 * ULP * terms * (1.0 + cube)
        assert np.all(np.abs(f_transition(side) - want) <= tol), z


def test_f_transition_matches_frozen_mpmath_across_the_stokes_switch():
    for (radius, k, side), want in F_FROZEN_STOKES.items():
        z = radius * np.exp(1j * (k * np.pi / 3.0 + side * 1e-6))
        assert abs(f_transition(z) - want) <= 1e-13 * abs(want), (radius, k, side)


def test_f_transition_matches_frozen_mpmath_far_out():
    # each value within twice scipy's own error there, or 1e-13 where scipy
    # is better than that or gives no value (|z^2| = 2^20, the negative axis)
    cases = [(ROT * big_z, want) for big_z, want in F_FROZEN_FAR.items()]
    cases += list(F_FROZEN_OFF.items())
    for z, want in cases:
        own, _, _ = scipy_transition(np.complex128(z))
        scipy_err = abs(own - want) if np.isfinite(own) else 0.0
        tol = max(2.0 * scipy_err, 1e-13 * abs(want))
        assert abs(f_transition(z) - want) <= tol, z


def test_f_transition_overflow_raises():
    # at z = 10 exp(i pi/3) the factor exp(-4 z^3/3) is exp(1333)
    with pytest.raises(AccuracyLoss):
        f_transition(10.0 * np.exp(1j * np.pi / 3.0))


# ---------------------------------------------------------------------
# the moment integral a(z)
# ---------------------------------------------------------------------


def test_a_at_zero():
    assert abs(a_fn(0.0) - A0_FROZEN) < 1e-11


def test_a_against_plain_quadrature_small_z():
    # for |z| <= 2 the unrotated integral converges well enough for quad
    for z in (-2.0, -0.7, 0.4, 1.8):
        def f(u, part):
            v = np.exp(-(u**3) / 3.0 + 1j * z * u * u) * u
            return v.real if part == 0 else v.imag

        re, _ = quad(f, 0.0, 12.0, args=(0,), epsabs=1e-12, limit=400)
        im, _ = quad(f, 0.0, 12.0, args=(1,), epsabs=1e-12, limit=400)
        assert abs(a_fn(z) - complex(re, im)) < 1e-9


def test_a_quadrature_asymptotic_overlap():
    # the two internal routes agree in the handover window
    for z in (-45.0, -31.0, 29.0, 45.0):
        direct = a_fn(z)  # asymptotic when |z| >= 30
        # force the quadrature route by splitting z below the cutoff threshold
        from adiawell.special import _a_fn_quad

        assert abs(direct - _a_fn_quad(z, 0)) < 1e-9


def test_a_leading_asymptote_bound():
    zs = np.concatenate([np.linspace(10, 60, 21), -np.linspace(10, 60, 21)])
    vals = a_fn(zs)
    rel = np.abs(2.0 * zs * vals / 1j - 1.0)
    assert np.all(rel <= 5.0 * np.abs(zs) ** -1.5)


def test_a_derivatives_match_finite_differences():
    h = 1e-4
    for z in (-6.0, 1.5, 12.0):
        d1 = (a_fn(z + h) - a_fn(z - h)) / (2 * h)
        assert abs(d1 - a_fn(z, 1)) < 1e-6
        d2 = (a_fn(z + h, 1) - a_fn(z - h, 1)) / (2 * h)
        assert abs(d2 - a_fn(z, 2)) < 1e-6


# ---------------------------------------------------------------------
# the lattice sum zeta
# ---------------------------------------------------------------------


def test_zeta_frozen_values():
    for t, want in ZETA_FROZEN.items():
        assert abs(zeta_fn(t) - want) < 1e-13, f"zeta({t})"


def test_zeta_batch_on_the_imaginary_axis():
    # a batch as the background integral takes it, out to |t| = 400, against
    # 30-digit mpmath; summing 10 |t| terms for every point left 5e-13
    s = np.linspace(0.0, 400.0, 208)
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.zeta(0.5, 0.5 - mpmath.mpc(0.0, v))) for v in s])
    assert np.max(np.abs(zeta_fn(1j * s) - want)) < 2e-13


def test_zeta_conjugation_on_imaginary_axis():
    s = np.linspace(0.2, 40.0, 23)
    up = zeta_fn(1j * s)
    dn = zeta_fn(-1j * s)
    assert np.max(np.abs(dn - np.conj(up))) < 1e-12


def test_zeta_asymptotic_on_negative_axis():
    t = -np.linspace(10.0, 100.0, 31)
    resid = np.abs(zeta_fn(t) + 2.0 * np.sqrt(-t))
    scaled = np.abs(t) ** 1.5 * resid
    # scaled residual is bounded and varies by less than a factor 3
    assert np.max(scaled) / np.min(scaled) < 3.0


def test_zeta_raises_on_cut():
    with pytest.raises(OnCut):
        zeta_fn(0.7)
    with pytest.raises(OnCut):
        zeta_fn(np.array([0.2 + 1j, 3.0 + 0j]))
