"""Direct time propagation as an independent check of the contour solution.

A Crank-Nicolson walker for i psi_t = -psi_xx + v(x, eps t) psi on a
truncated half-line with Dirichlet walls at both ends.  Nothing here
knows about contours or saddle points; the only shared ingredients are
the potential shape and the spectral data used to size the domain.  If
the propagated field stays on top of the contour evaluation, the two
constructions validate each other.

The moving edge x = 1 - eps*t generally falls between grid nodes; the
edge cell can either average the potential over the cell (second-order
accurate) or snap to the nearest node (first-order staircase, kept for
comparison).  The scheme itself is unconditionally stable and unitary up
to solver roundoff, since the discrete Hamiltonian is Hermitian.

The walk starts from, and is compared against, the contour solution
evaluated at every grid node, inside the well and past its edge alike.
Domain truncation is certified by the exterior decay of the field: the
leading-order outside magnitude is marched until it falls below a fixed
target, and the reported boundary telemetry confirms nothing reached the wall.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .asymptotics import outside_leading
from .errors import LinearSolveFailure
from .spectrum import ModelParams
from . import wavefield

__all__ = [
    "SnapPolicy",
    "GridSpec",
    "WaveVector",
    "OracleReport",
    "potential_on_grid",
    "step",
    "sample_exact",
    "suggest_x_max",
    "propagate_report",
]

# x_max is sized for an exterior magnitude _SIZE_TARGET, with a safety margin
_SIZE_TARGET = 1e-10
_SIZE_MARGIN = 10.0


class SnapPolicy(Enum):
    """How the edge cell sees the moving potential step."""

    CELL_AVERAGE = "cell-average"
    NEAREST_NODE = "nearest-node"


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0, x_max] with nx cells and time step dt."""

    x_max: float
    nx: int
    dt: float
    snap_policy: SnapPolicy = SnapPolicy.CELL_AVERAGE

    @property
    def dx(self) -> float:
        return self.x_max / self.nx

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.x_max, self.nx + 1)


@dataclass(frozen=True)
class WaveVector:
    """Field values on the full node set at one time; both walls are zero."""

    values: np.ndarray
    time: float

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2)))


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one propagation run against the contour solution."""

    deviation: float
    norm_drift: float
    runtime_ms: float
    boundary_amp: float


def potential_on_grid(grid: GridSpec, tau: float) -> np.ndarray:
    """Depth-one well on [0, 1 - tau] seen by the grid's snap policy."""
    xs = grid.nodes()
    edge = 1.0 - tau
    if grid.snap_policy is SnapPolicy.NEAREST_NODE:
        return np.where(xs <= edge, -1.0, 0.0)
    dx = grid.dx
    lo = np.maximum(xs - 0.5 * dx, 0.0)
    hi = np.minimum(xs + 0.5 * dx, edge)
    overlap = np.clip((hi - lo) / dx, 0.0, 1.0)
    return -overlap


def step(state: WaveVector, grid: GridSpec, params: ModelParams) -> WaveVector:
    """One Crank-Nicolson step with the potential taken at the midpoint time."""
    # imported here: scipy.linalg costs a quarter second to import, and only
    # the walker needs it
    from scipy.linalg import solve_banded

    dx, dt = grid.dx, grid.dt
    tau_mid = params.eps * (state.time + 0.5 * dt)
    v = potential_on_grid(grid, tau_mid)[1:-1]
    inv2 = 1.0 / (dx * dx)
    diag = 2.0 * inv2 + v
    lam = 0.5j * dt

    psi = state.values
    inner = psi[1:-1]
    h_psi = diag * inner - inv2 * (psi[:-2] + psi[2:])
    rhs = inner - lam * h_psi

    m = inner.size
    ab = np.zeros((3, m), dtype=complex)
    ab[0, 1:] = -lam * inv2
    ab[1, :] = 1.0 + lam * diag
    ab[2, :-1] = -lam * inv2
    try:
        new_inner = solve_banded((1, 1), ab, rhs)
    except Exception as exc:  # pragma: no cover - scipy failure paths vary
        raise LinearSolveFailure(str(exc)) from exc
    if not np.all(np.isfinite(new_inner)):
        raise LinearSolveFailure("tridiagonal solve produced non-finite values")

    out = np.zeros_like(psi)
    out[1:-1] = new_inner
    return WaveVector(out, state.time + dt)


# =====================================================================
# exact-field sampling on oracle grids
# =====================================================================


def sample_exact(params: ModelParams, t: float, grid: GridSpec) -> WaveVector:
    """Contour solution on the grid nodes, walls zeroed.

    Every interior node, on either side of the edge, carries the exact
    field to the accuracy of the contour quadrature.
    """
    xs = grid.nodes()
    out = np.zeros(xs.shape, dtype=complex)
    out[1:-1] = wavefield.mode_solution(params, t, xs[1:-1]).psi
    return WaveVector(out, t)


def suggest_x_max(params: ModelParams, t_final: float) -> float:
    """Domain size at which the exterior magnitude stays under _SIZE_TARGET.

    Sized at the final time, where the momentum is closest to the band
    edge and the exterior decay is slowest, with a safety margin.
    """
    x = 1.0 - params.eps * t_final + 2.0
    while abs(outside_leading(params, x, t_final)) > _SIZE_TARGET / _SIZE_MARGIN:
        x += 2.0
        if x > 400.0:
            break
    return float(np.ceil(x))


# =====================================================================
# propagation runs
# =====================================================================


def propagate_report(
    params: ModelParams, t0: float, t1: float, grid: GridSpec
) -> OracleReport:
    """Propagate the contour solution from t0 to t1 and compare at arrival.

    The step count is rounded so the walk lands on t1 exactly; deviation
    is the relative l2 distance to the contour solution at t1, norm_drift
    the relative l2 norm change over the walk, boundary_amp the largest
    magnitude seen on the outermost interior node.
    """
    tic = time.perf_counter()
    state = sample_exact(params, t0, grid)
    norm0 = state.norm()
    boundary = 0.0
    n_steps = max(1, int(round((t1 - t0) / grid.dt))) if t1 > t0 else 0
    if n_steps:
        walk_grid = GridSpec(
            grid.x_max, grid.nx, (t1 - t0) / n_steps, grid.snap_policy
        )
        for _ in range(n_steps):
            state = step(state, walk_grid, params)
            boundary = max(boundary, float(np.abs(state.values[-2])))
    target = sample_exact(params, t1, grid)
    scale = target.norm()
    deviation = float(
        np.sqrt(np.sum(np.abs(state.values - target.values) ** 2)) / scale
    )
    drift = state.norm() / norm0 - 1.0
    ms = (time.perf_counter() - tic) * 1e3
    return OracleReport(deviation, float(drift), ms, boundary)
