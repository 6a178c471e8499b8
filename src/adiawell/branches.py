"""Branch-managed elementary functions on the slit momentum plane.

Problem
-------
All contour work in this package happens in a complex momentum plane cut along
the real rays |Re p| >= 1, Im p = 0 (domain ``C0``).  The basic objects are

* ``q0(p)``   : the square root of p**2 - 1 fixed by q0(0) = +i,
* ``l0(p)``   : the branch of 2*arcsin(p) with l0(0) = 0,
* ``rho0(p)`` : the reflection ratio (q0 - p)/(q0 + p),
* ``int_l0(p)``: the antiderivative of l0 vanishing at 0.

Boundary values on the cuts matter as much as interior values: the wavefield
contours run along the upper edge of [1, inf).  Floating point cannot
represent "1.7 approached from above" reliably (signed zeros get lost in
arithmetic), so boundary evaluation is explicit: every function takes an
optional ``side`` tag (+1 upper edge, -1 lower edge) that is consulted only
where the argument sits exactly on a cut.

Approach
--------
Interior values come from numpy's principal branches, which are cut exactly
along the right sets:

* ``i*sqrt(1 - p*p)`` is analytic precisely off |Re p| >= 1 and equals q0
  there (even, q0(0) = i, upper-edge limits sign(x)*sqrt(x*x - 1)),
* ``2*arcsin(p)`` is analytic off the same set and agrees with l0 on (-1, 1),
  hence everywhere on C0 by uniqueness of analytic continuation.

Edge values are closed forms in arccosh, never sign-of-zero tricks.

Conventions
-----------
* side = +1 means the limit from Im p > 0, side = -1 from Im p < 0; side = 0
  means "no tag", which raises BranchViolation if the point is on a cut.
* At the branch points p = +-1 themselves all functions below are continuous
  (q0 = 0, l0 = +-pi) and both side tags give the limiting value; their
  derivatives are infinite there and raise PoleAt.
* Array arguments are supported everywhere; ``side`` may then be a scalar
  applied to all entries or an array of per-entry tags.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchViolation, PoleAt

__all__ = [
    "q0",
    "l0",
    "l0_prime",
    "int_l0",
    "rho0",
]

# =====================================================================
# argument normalization
# =====================================================================


def _as_z_side(p, side):
    """Return (z, side, scalar) with z complex array, side int array."""
    return np.asarray(p, dtype=complex), np.asarray(side), np.ndim(p) == 0


def _need_side(mask: np.ndarray, side: np.ndarray, what: str) -> None:
    untagged = mask & (np.broadcast_to(side, mask.shape) == 0)
    if np.any(untagged):
        raise BranchViolation(
            f"{what} evaluated on its cut without a side tag; "
            "pass side=+1/-1"
        )


def _upper(side) -> np.ndarray:
    """Boolean 'treat as upper edge' from a side tag (0 counts as upper)."""
    return np.asarray(side) >= 0


# =====================================================================
# raw array kernels (no scalar sugar)
# =====================================================================


def _q0_raw(z: np.ndarray, side) -> np.ndarray:
    # (1 - z)(1 + z), not 1 - z*z: the product keeps its digits near +-1
    out = np.asarray(1j * np.sqrt((1.0 - z) * (1.0 + z)))
    cut = (z.imag == 0.0) & (np.abs(z.real) > 1.0)
    if np.any(cut):
        x = z.real
        edge = np.sign(x) * np.sqrt(np.maximum((x - 1.0) * (x + 1.0), 0.0)) + 0.0j
        out = np.where(cut, np.where(_upper(side), edge, -edge), out)
    return out


def _l0_raw(z: np.ndarray, side) -> np.ndarray:
    out = np.asarray(2.0 * np.arcsin(z))
    cut = (z.imag == 0.0) & (np.abs(z.real) > 1.0)
    if np.any(cut):
        x = z.real
        half = 2.0 * np.arccosh(np.maximum(np.abs(x), 1.0))
        sgn = np.where(_upper(side), 1.0, -1.0)
        edge = np.sign(x) * np.pi + 1j * sgn * half
        out = np.where(cut, edge, out)
    return out


# =====================================================================
# public functions
# =====================================================================


def q0(p, side=0):
    """Square root of p**2 - 1 on the slit plane C0, fixed by q0(0) = +i.

    Even in p; equals i*sqrt(1 - p**2) off the cuts, takes positive values on
    the upper edge of (1, inf) and negative on the upper edge of (-inf, -1).
    """
    z, side, scalar = _as_z_side(p, side)
    _need_side((z.imag == 0.0) & (np.abs(z.real) > 1.0), side, "q0")
    out = _q0_raw(z, side)
    return complex(out) if scalar else out


def l0(p, side=0):
    """The branch of 2*arcsin(p) on C0 with l0(0) = 0.

    Odd, conjugate symmetric, real on [-1, 1]; on the upper edge of (1, inf)
    equals pi + 2i*arccosh(x).
    """
    z, side, scalar = _as_z_side(p, side)
    _need_side((z.imag == 0.0) & (np.abs(z.real) > 1.0), side, "l0")
    out = _l0_raw(z, side)
    return complex(out) if scalar else out


def l0_prime(p, side=0):
    """Derivative of l0, equal to 2i/q0(p).  Raises PoleAt at p = +-1."""
    z, side, scalar = _as_z_side(p, side)
    if np.any((z.imag == 0.0) & (np.abs(z.real) == 1.0)):
        raise PoleAt("l0_prime has square-root singularities at p = +-1")
    _need_side((z.imag == 0.0) & (np.abs(z.real) > 1.0), side, "l0_prime")
    out = 2j / _q0_raw(z, side)
    return complex(out) if scalar else out


def int_l0(p, side=0):
    """Antiderivative of l0 along paths in C0, normalized to int_l0(0) = 0.

    Closed form p*l0(p) - 2i*q0(p) - 2; in particular int_l0(1) = pi - 2.
    """
    z, side, scalar = _as_z_side(p, side)
    _need_side((z.imag == 0.0) & (np.abs(z.real) > 1.0), side, "int_l0")
    out = z * _l0_raw(z, side) - 2j * _q0_raw(z, side) - 2.0
    return complex(out) if scalar else out


def rho0(p, side=0):
    """Reflection ratio (q0 - p)/(q0 + p), computed in pole-proof form.

    Since (q0 - p)(q0 + p) = -1 identically, the ratio equals -(q0 - p)**2,
    which stays finite and accurate even where q0 + p nearly cancels.
    Satisfies rho0(-p) = 1/rho0(p) and rho0 = exp(i*l0) on C0.
    """
    z, side, scalar = _as_z_side(p, side)
    _need_side((z.imag == 0.0) & (np.abs(z.real) > 1.0), side, "rho0")
    d = _q0_raw(z, side) - z
    out = -d * d
    return complex(out) if scalar else out
