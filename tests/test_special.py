"""Tests for the special functions.

The Airy pair comes from scipy.special.airy; the transition profile built
on it is checked against direct contour quadrature of the Airy integrals
(scipy.integrate.quad) and against frozen 30-digit mpmath values.  The
moment integral is checked against plain quadrature, and the lattice sum
against frozen mpmath Hurwitz-zeta values.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from adiawell.errors import AccuracyLoss, OnCut
from adiawell.special import a_fn, f_transition, zeta_fn

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
    # scipy.special.airy gives NaN at |z^2| = 1e10; the true |F| is about 316
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
        assert abs(zeta_fn(t) - want) < 1e-11, f"zeta({t})"


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
