"""Tests for the slit-plane branch functions.

Reference values were produced with mpmath at 30 digits (principal branches
agree with ours off the cuts) and frozen below; path integrals are checked
against direct quadrature along explicit segments.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from adiawell.branches import (
    int_l0,
    l0,
    l0_prime,
    q0,
    rho0,
)
from adiawell.errors import BranchViolation, PoleAt

RNG = np.random.default_rng(20260816)

# mpmath, 30 digits, frozen
FROZEN = {
    "l0(0.3+0.7j)": 0.49146401220215944021 + 1.3406734859755794802j,
    "l0(-1.4+0.2j)": -2.7465159320582938296 + 1.7895968713635361911j,
    "q0(-0.2+1.5j)": -0.16672336532524892341 + 1.7993878627314835856j,
    "q0(0.99)": 0.14106735979665884425j,
    "int_l0(0.5+2j)": -3.1912513435981433778 + 1.4510329395037604482j,
}


def _random_offcut(n: int, box: float = 3.0) -> np.ndarray:
    """Random points with |Im| bounded away from 0 (clear of both cuts)."""
    re = RNG.uniform(-box, box, n)
    im = RNG.uniform(0.05, box, n) * RNG.choice([-1.0, 1.0], n)
    return re + 1j * im


# ---------------------------------------------------------------------
# pinned values and closed forms
# ---------------------------------------------------------------------


def test_frozen_values():
    assert abs(l0(0.3 + 0.7j) - FROZEN["l0(0.3+0.7j)"]) < 1e-14
    assert abs(l0(-1.4 + 0.2j) - FROZEN["l0(-1.4+0.2j)"]) < 1e-14
    assert abs(q0(-0.2 + 1.5j) - FROZEN["q0(-0.2+1.5j)"]) < 1e-14
    assert abs(q0(0.99) - FROZEN["q0(0.99)"]) < 1e-14
    assert abs(int_l0(0.5 + 2j) - FROZEN["int_l0(0.5+2j)"]) < 1e-13


def test_special_points():
    assert q0(0.0) == 1j
    assert abs(q0(2.0, side=1) - np.sqrt(3.0)) < 1e-15
    assert abs(q0(-2.0, side=1) + np.sqrt(3.0)) < 1e-15
    assert abs(q0(2.0, side=-1) + np.sqrt(3.0)) < 1e-15
    assert l0(0.0) == 0.0
    assert abs(l0(1.0) - np.pi) < 1e-15
    assert abs(l0(-1.0) + np.pi) < 1e-15
    assert abs(l0(1j) - 2j * np.arcsinh(1.0)) < 1e-15
    assert abs(int_l0(1.0) - (np.pi - 2.0)) < 1e-15
    assert abs(int_l0(0.0)) == 0.0
    assert abs(rho0(0.0) - 1.0) < 1e-15


def test_upper_edge_closed_forms():
    xs = np.linspace(1.001, 6.0, 40)
    got = l0(xs, side=1)
    want = np.pi + 2j * np.arccosh(xs)
    assert np.max(np.abs(got - want)) < 1e-13
    # lower edge is the conjugate
    got_m = l0(xs, side=-1)
    assert np.max(np.abs(got_m - np.conj(want))) < 1e-13


# ---------------------------------------------------------------------
# algebraic identities (random and property based)
# ---------------------------------------------------------------------


def test_q0_keeps_its_digits_beside_the_branch_points():
    # q0 takes (1 - z)(1 + z) under one square root; 1 - z*z would lose up to
    # 2.5e-9 relative within 1e-8 of +-1, where the lattice route clusters its nodes
    for p, side in [(1 + 1e-9, 1), (1 + 1e-6, 1), (-1 - 1e-8, 1), (0.999999999 + 1e-12j, 0)]:
        with mpmath.workdps(40):
            z = mpmath.mpc(p)
            if z.imag == 0:
                ref = mpmath.sign(z.real) * mpmath.sqrt(z.real**2 - 1)
            else:
                ref = 1j * mpmath.sqrt(1 - z * z)
            for got, want in ((q0(p, side), ref), (l0_prime(p, side), 2j / ref)):
                assert float(abs(got - want) / abs(want)) <= 4e-16, p


def test_q0_even_l0_odd():
    z = _random_offcut(200)
    assert np.max(np.abs(q0(-z) - q0(z))) < 1e-13
    assert np.max(np.abs(l0(-z) + l0(z))) < 1e-13


def test_conjugation_rules():
    z = _random_offcut(200)
    # l0 is conjugate symmetric; q0 is conjugate antisymmetric
    assert np.max(np.abs(l0(np.conj(z)) - np.conj(l0(z)))) < 1e-13
    assert np.max(np.abs(q0(np.conj(z)) + np.conj(q0(z)))) < 1e-13
    # rho0(conj p) = conj(1/rho0(p))
    assert np.max(np.abs(rho0(np.conj(z)) - np.conj(1.0 / rho0(z)))) < 1e-12


def test_rho0_identities():
    z = _random_offcut(200)
    r = rho0(z)
    # reciprocal under reflection and exponential form
    assert np.max(np.abs(r * rho0(-z) - 1.0)) < 1e-12
    assert np.max(np.abs(r - np.exp(1j * l0(z)))) < 1e-12
    # (q0 - p)(q0 + p) = -1
    assert np.max(np.abs((q0(z) - z) * (q0(z) + z) + 1.0)) < 1e-12
    # unit modulus on the spectral interval
    x = np.linspace(-0.99, 0.99, 101)
    assert np.max(np.abs(np.abs(rho0(x)) - 1.0)) < 1e-14


def test_q0_minus_p_exponential_form():
    # q0(p) - p = i * exp(i*l0(p)/2) everywhere on C0
    z = _random_offcut(200)
    assert np.max(np.abs((q0(z) - z) - 1j * np.exp(0.5j * l0(z)))) < 1e-12


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.05, max_value=3.0),
    st.booleans(),
)
def test_branch_relation_everywhere(re, im, flip):
    z = complex(re, -im if flip else im)
    assert abs(q0(z) ** 2 - (z * z - 1.0)) < 1e-12
    assert abs(np.sin(l0(z) / 2.0) - z) < 1e-12


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-0.999, max_value=0.999))
def test_real_interval_values(x):
    # l0 real, q0 on the positive imaginary axis, rho0 unimodular
    assert abs(complex(l0(x)).imag) < 1e-14
    v = complex(q0(x))
    assert abs(v.real) < 1e-14 and v.imag > 0.0
    assert abs(abs(complex(rho0(x))) - 1.0) < 1e-13


# ---------------------------------------------------------------------
# derivatives and path integrals against quadrature oracles
# ---------------------------------------------------------------------


def test_l0_prime_matches_finite_difference():
    z = _random_offcut(50, box=2.0)
    h = 1e-6
    fd = (l0(z + h) - l0(z - h)) / (2 * h)
    assert np.max(np.abs(fd - l0_prime(z))) < 1e-8


def test_int_l0_matches_quadrature_on_random_segments():
    for _ in range(5):
        a = complex(RNG.uniform(-0.8, 0.8), RNG.uniform(0.1, 2.0))
        b = complex(RNG.uniform(-0.8, 0.8), RNG.uniform(0.1, 2.0))
        seg = b - a

        def f(t, part):
            v = l0(a + t * seg) * seg
            return v.real if part == 0 else v.imag

        re, _ = quad(f, 0.0, 1.0, args=(0,), epsabs=1e-12, epsrel=1e-12)
        im, _ = quad(f, 0.0, 1.0, args=(1,), epsabs=1e-12, epsrel=1e-12)
        want = complex(re, im)
        got = int_l0(b) - int_l0(a)
        assert abs(got - want) < 1e-10


def test_int_l0_upper_edge_consistent_with_quadrature():
    # along the upper edge from 1 to 3 the closed form must keep integrating l0
    def f(x, part):
        v = complex(l0(float(x), side=1))
        return v.real if part == 0 else v.imag

    re, _ = quad(f, 1.0, 3.0, args=(0,), epsabs=1e-12)
    im, _ = quad(f, 1.0, 3.0, args=(1,), epsabs=1e-12)
    got = int_l0(3.0, side=1) - int_l0(1.0, side=1)
    assert abs(got - complex(re, im)) < 1e-9


# ---------------------------------------------------------------------
# mapping properties and asymptotics
# ---------------------------------------------------------------------


def test_first_quadrant_maps_into_half_strip():
    re = RNG.uniform(1e-3, 8.0, 500)
    im = RNG.uniform(1e-3, 8.0, 500)
    w = l0(re + 1j * im)
    assert np.all(w.real > 0.0)
    assert np.all(w.real < np.pi)
    assert np.all(w.imag > 0.0)


def test_l0_expansion_near_one():
    # l0(p) = pi - 2*sqrt(2)*sqrt(1-p) + O((1-p)^{3/2}) from the left/above
    for dz in (1e-3, 1e-3 + 1e-3j, 2e-3j):
        p = 1.0 - dz
        lead = np.pi - 2.0 * np.sqrt(2.0) * np.sqrt(dz)
        assert abs(l0(p) - lead) < 2.0 * abs(dz) ** 1.5


def test_l0_large_p_log_growth():
    ys = np.array([10.0, 30.0, 100.0, 300.0, 1000.0])
    got = l0(1j * ys)
    want = np.pi + 2j * (np.log(2.0 * ys) + 1j * np.pi / 2.0)
    err = np.abs(got - want)
    assert np.all(err < 10.0 / ys**2)


# ---------------------------------------------------------------------
# error behavior
# ---------------------------------------------------------------------


def test_cut_requires_side_tag():
    with pytest.raises(BranchViolation):
        q0(2.0)
    with pytest.raises(BranchViolation):
        l0(np.array([0.5, -3.0]))
    with pytest.raises(BranchViolation):
        int_l0(-1.5)


def test_poles_raise():
    with pytest.raises(PoleAt):
        l0_prime(1.0)


def test_cxpoint_edges():
    # the two edges of the cut are complex conjugates of each other
    assert abs(l0(2.0, side=1) - np.conj(l0(2.0, side=-1))) < 1e-15
