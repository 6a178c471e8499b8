"""Tests for the shared composite Gauss-Legendre panels."""

from __future__ import annotations

import numpy as np
import pytest

from adiawell._panels import cusp_panels, gl_panels

CUSPS = [  # integrand, exact integral on [0, 1], end carrying the cusp
    pytest.param(np.sqrt, 2.0 / 3.0, "start", id="sqrt(x)"),
    pytest.param(lambda x: np.sqrt(1.0 - x), 2.0 / 3.0, "end", id="sqrt(1-x)"),
    pytest.param(lambda x: x**1.5, 0.4, "start", id="x^1.5"),
]


@pytest.mark.parametrize("order", [8, 16])
@pytest.mark.parametrize("f, exact, end", CUSPS)
def test_cusp_panels_integrate_endpoint_cusps(order, f, exact, end):
    # s^2 takes a sqrt or 3/2-power cusp to a polynomial: exact at any order
    nodes, weights = cusp_panels(
        np.array([0.0, 1.0]), order, at_start=end == "start", at_end=end == "end"
    )
    assert abs(np.sum(weights * f(nodes)) - exact) <= 1e-15
    # with both ends flagged, 3s^2 - 2s^3 leaves sqrt(3 - 2s) (or its mirror),
    # whose branch point at s = 3/2 holds the 8-point rule near 5e-11
    nodes, weights = cusp_panels(np.array([0.0, 1.0]), order, at_start=True, at_end=True)
    assert abs(np.sum(weights * f(nodes)) - exact) <= (1e-15 if order == 16 else 1e-10)


def test_cusp_panels_map_only_the_flagged_end_panels():
    edges = np.array([1.0, 1.5, 2.5, 3.0])
    plain = gl_panels(edges, 8)
    nodes, weights = cusp_panels(edges, 8, at_start=True, at_end=True)
    assert np.array_equal(nodes[1], plain[0][1]) and np.array_equal(weights[1], plain[1][1])
    for panel in (0, 2):
        assert np.all((nodes[panel] > edges[panel]) & (nodes[panel] < edges[panel + 1]))
        assert abs(weights[panel].sum() - (edges[panel + 1] - edges[panel])) <= 1e-15
