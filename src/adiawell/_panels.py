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


def bisect_polyline(points: np.ndarray) -> np.ndarray:
    """The polyline `points` with the midpoint of every segment inserted."""
    dense = np.empty(2 * points.size - 1, dtype=points.dtype)
    dense[0::2] = points
    dense[1::2] = 0.5 * (points[:-1] + points[1:])
    return dense
