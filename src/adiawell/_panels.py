"""Composite Gauss-Legendre quadrature on panels, shared by every module.

Each rule table is computed once per order and handed out read-only.  On
every panel the nodes are mid + half * x and the weights half * w.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# rule orders in use: 8, 16, 20
_RULE_SLOTS = 8


@lru_cache(maxsize=_RULE_SLOTS)
def gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (read-only arrays)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gl_panels(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point rule on each panel of `edges`.

    Panel i runs from edges[i] to edges[i + 1]; both arrays have shape
    (panels, order).  Edges may be complex, for panels along a polyline.
    """
    x, w = gl_rule(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * x, half[:, None] * w


def cusp_panels(
    edges: np.ndarray, order: int, at_start: bool = False, at_end: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """`gl_panels` with its end panels pulled into cusps at edges[0], edges[-1].

    The first panel [a, b] maps x = a + (b - a) s^2 (s in [0, 1]) when
    at_start, the last panel the mirror image when at_end, and a single
    panel with both takes x = a + (b - a)(3 s^2 - 2 s^3).  A sqrt or
    3/2-power endpoint singularity becomes smooth in s (Davis & Rabinowitz,
    Methods of Numerical Integration, 2nd ed., 1984, sec. 2.12).
    """
    nodes, weights = gl_panels(edges, order)
    x, w = gl_rule(order)
    s, t = 0.5 * (1.0 + x), 0.5 * (1.0 - x)
    if at_start and at_end and edges.size == 2:
        h = edges[1] - edges[0]
        return (edges[0] + h * s * s * (1.0 + 2.0 * t))[None], (3.0 * h * s * t * w)[None]
    if at_start:
        h = edges[1] - edges[0]
        nodes[0], weights[0] = edges[0] + h * s * s, h * s * w
    if at_end:
        h = edges[-1] - edges[-2]
        nodes[-1], weights[-1] = edges[-1] - h * t * t, h * t * w
    return nodes, weights

