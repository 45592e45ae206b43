"""Reconstruction of a quasiconformal map from a dilatation field.

The target map is reached by flowing the identity: along the schedule
mu_t = t * mu_star the tracked lattice images move with a velocity field
whose d/dzbar equals a source term sigma_t, obtained from one complex
Poisson solve with zero Dirichlet data on an enclosing box.  The source term
reaches the box by linear interpolation on the triangles of the tracked
lattice, so it is zero outside the image of the lattice.  Euler time
stepping advances both the images and the z-derivative of the map,
which the source term needs at the next step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn, idstn

from .errors import FlowError, OrientationError
from .fields import numeric_dilatation
from .grids import ComplexGrid, Grid, grid_sample

log = logging.getLogger(__name__)

BOX_MARGIN = 0.10
MU_STAR_CAP = 1.0 - 1e-3
# Triangles per batch of a scatter pass.  glibc gives freed heap above a
# threshold back to the system, twice the largest block the process freed
# before (6.5 MB after estimate at block 10), and each later flow step then
# faults its pages in again.  Small batches keep a step's temporaries below
# it: 5.7 MB at the peak on flow-fine, against 7.5 MB in whole passes.
_SCATTER_BATCH = 4096
_DEEP = 4  # lattice steps from the edge where the flow check reads max_mu_gap_deep


@dataclass
class FlowState:
    """Transported lattice at flow time t in [0, 1]."""

    t: float
    points: np.ndarray  # current images f_t(z_j) of the lattice sites z_j
    dz_f: np.ndarray  # d/dz of f_t at the sites

    @classmethod
    def identity(cls, mu_star: ComplexGrid) -> "FlowState":
        points = mu_star.locations()
        return cls(t=0.0, points=points, dz_f=np.ones(points.size, dtype=np.complex128))


def _enclosing_box(points: np.ndarray) -> tuple[float, float, float, float]:
    """Square box around the point cloud with a 10% margin per side."""
    x0, x1 = points.real.min(), points.real.max()
    y0, y1 = points.imag.min(), points.imag.max()
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    half = 0.5 * max(x1 - x0, y1 - y0, 1e-9) * (1.0 + 2.0 * BOX_MARGIN)
    return (cx - half, cx + half, cy - half, cy + half)


def poisson_solve_dirichlet(rhs: np.ndarray, spacing: float) -> np.ndarray:
    """Solve the 5-point Laplacian with zero Dirichlet boundary values.

    Direct method: the interior block is diagonalized by the type-1
    discrete sine transform, so the discrete residual is at rounding
    level.  rhs is given on the full lattice; its boundary ring is
    ignored and the returned solution carries zeros there.  A complex rhs
    gives a complex128 solution, any other a float64 one.
    """
    rhs = np.asarray(rhs, dtype=np.complex128 if np.iscomplexobj(rhs) else np.float64)
    if rhs.ndim != 2 or rhs.shape[0] < 3 or rhs.shape[1] < 3:
        raise ValueError("rhs must be a lattice with at least 3 points per side")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    interior = rhs[1:-1, 1:-1]
    mx, my = interior.shape
    h2 = spacing * spacing
    lam_x = (2.0 * np.cos(np.pi * np.arange(1, mx + 1) / (mx + 1)) - 2.0) / h2
    lam_y = (2.0 * np.cos(np.pi * np.arange(1, my + 1) / (my + 1)) - 2.0) / h2
    coeff = dstn(interior, type=1)
    coeff /= lam_x[:, None] + lam_y[None, :]
    solution = np.zeros_like(rhs)
    solution[1:-1, 1:-1] = idstn(coeff, type=1)
    return solution


def _scatter_to_box(
    corners: np.ndarray, values: np.ndarray, area2: np.ndarray, box, n: int
) -> ComplexGrid:
    """Linear interpolation on triangles onto the box lattice, zero outside them.

    corners and values hold the vertices of each triangle, shape (3, count);
    area2, twice each area, must be positive so the triangles do not overlap.
    """
    x0, x1, y0, _ = box
    h = (x1 - x0) / (n - 1)
    origin = complex(x0, y0)
    e1, e2 = corners[1] - corners[0], corners[2] - corners[0]
    dv1, dv2 = values[1] - values[0], values[2] - values[0]
    # each triangle's bounding box holds box nodes i0..i0+wi by j0..j0+wj
    rel = (corners - origin) / h
    i0 = np.ceil(rel.real.min(axis=0) - 1e-9).astype(np.int64)
    j0 = np.ceil(rel.imag.min(axis=0) - 1e-9).astype(np.int64)
    wi = np.floor(rel.real.max(axis=0) + 1e-9).astype(np.int64) - i0
    wj = np.floor(rel.imag.max(axis=0) + 1e-9).astype(np.int64) - j0
    del rel  # freed before the passes, as _SCATTER_BATCH asks
    reach = max(wi.max(), wj.max(), 0)
    grid = np.zeros((n, n), dtype=np.complex128)
    # a node on a shared edge or vertex keeps the last write: passes run in
    # (di, dj) order and triangles in index order within a pass
    for di in range(reach + 1):
        for dj in range(reach + 1):
            cover = np.flatnonzero((wi >= di) & (wj >= dj))
            for start in range(0, cover.size, _SCATTER_BATCH):
                t = cover[start : start + _SCATTER_BATCH]
                i, j = np.minimum(i0[t] + di, n - 1), np.minimum(j0[t] + dj, n - 1)
                p = origin + h * (i + 1j * j) - corners[0, t]
                # barycentric weights of the second and third vertex
                lb = np.imag(np.conj(p) * e2[t]) / area2[t]
                lc = np.imag(np.conj(e1[t]) * p) / area2[t]
                hit = (lb >= -1e-12) & (lc >= -1e-12) & (lb + lc <= 1.0 + 1e-12)
                t = t[hit]
                grid[i[hit], j[hit]] = values[0, t] + lb[hit] * dv1[t] + lc[hit] * dv2[t]
    return ComplexGrid(n, n, (x0, y0), (h, h), grid)


def sigma_field(mu_star: ComplexGrid, state: FlowState) -> ComplexGrid:
    """Velocity source term on the enclosing box lattice at flow time t.

    Per tracked site, s_j = mu*(z_j) / (1 - t^2 |mu*(z_j)|^2) times the
    phase factor dz_f / conj(dz_f); the values are carried to the image
    points f_t(z_j) and interpolated linearly onto the box grid on the two
    triangles of each lattice cell (zero outside the image of the lattice).
    Raises OrientationError once a triangle's orientation is not positive.
    """
    mu = mu_star.values.ravel()
    if mu.size != state.points.size:
        raise ValueError("mu_star lattice does not match the tracked sites")
    tm = np.abs(state.t * mu)
    if np.any(tm >= 1.0):
        raise FlowError(f"|t mu| reaches {tm.max():.6f} >= 1: distortion blow-up")
    # cell (i, j) splits along p00-p11 into (p00, p10, p11) and (p00, p11, p01),
    # both counter-clockwise on the untouched lattice
    idx = np.arange(mu.size).reshape(mu_star.nx, mu_star.ny)
    p00, p10, p01, p11 = idx[:-1, :-1], idx[1:, :-1], idx[:-1, 1:], idx[1:, 1:]
    tri = np.concatenate([[p00, p10, p11], [p00, p11, p01]], axis=1).reshape(3, -1)
    corners = state.points[tri]
    area2 = np.imag(np.conj(corners[1] - corners[0]) * (corners[2] - corners[0]))
    if np.any(area2 <= 0):
        raise OrientationError(
            f"tracked lattice folds at t={state.t:.4f}: "
            f"{int(np.sum(area2 <= 0))} triangles with non-positive orientation"
        )
    source = mu / (1.0 - (state.t * np.abs(mu)) ** 2) * (state.dz_f / np.conj(state.dz_f))
    box = _enclosing_box(state.points)
    return _scatter_to_box(corners, source[tri], area2, box, _default_box_n(mu_star))


def _default_box_n(mu_star: ComplexGrid) -> int:
    return int(np.clip(2 * max(mu_star.nx, mu_star.ny) + 1, 65, 257))


def flow_step(state: FlowState, eps: float, mu_star: ComplexGrid) -> FlowState:
    """One Euler step of the reconstruction flow.

    Solves lap(Q) = 2 sigma for Q = Psi + i Phi with zero boundary data,
    takes the velocity w = u + i v = dQ/dx - i dQ/dy, that is
    (u, v) = (dPhi/dy + dPsi/dx, dPhi/dx - dPsi/dy), advances the tracked
    points by eps * w and updates dz_f multiplicatively with eps * dw/dz.
    """
    if eps <= 0:
        raise ValueError("step size must be positive")
    if state.t + eps > 1.0 + 1e-9:
        raise ValueError(f"flow time {state.t} + {eps} would pass 1")
    sig = sigma_field(mu_star, state)
    h = sig.spacing[0]
    q = poisson_solve_dirichlet(2.0 * sig.values, h)
    w = np.gradient(q, h, axis=0, edge_order=1) - 1j * np.gradient(q, h, axis=1, edge_order=1)
    wz = 0.5 * (
        np.gradient(w, h, axis=0, edge_order=1)
        - 1j * np.gradient(w, h, axis=1, edge_order=1)
    )
    new_points = state.points + eps * grid_sample(sig.with_values(w), state.points)
    new_dzf = state.dz_f * (1.0 + eps * grid_sample(sig.with_values(wz), state.points))
    if not (np.all(np.isfinite(new_points)) and np.all(np.isfinite(new_dzf))):
        raise FlowError(f"non-finite flow state after step at t={state.t:.4f}")
    return FlowState(t=state.t + eps, points=new_points, dz_f=new_dzf)


def reconstruct_map(
    mu_star: ComplexGrid, steps: int = 20, *, stats: dict | None = None
) -> tuple[ComplexGrid, Grid]:
    """Flow the identity to a map with dilatation mu_star; return (map, phi).

    A lattice point with |mu*| above MU_STAR_CAP raises FlowError, which
    names how many there are; mu* is never clipped.  The returned map
    samples the reconstruction on mu_star's lattice; phi = sqrt(det J) is
    measured from the final map by finite differences, so map and scale
    come from a single source.  A given stats dict gets the flow's check
    against its own target over the interior of the lattice: the smallest
    det J (min_det_j), the largest and the median |mu(map) - mu_star|
    (max_mu_gap, median_mu_gap), and the largest gap over the sites at
    least _DEEP = 4 steps from the edge (max_mu_gap_deep), so that a fault
    inside the lattice is not hidden by the larger error next to its edge.
    """
    if steps < 1:
        raise ValueError("need at least one flow step")
    over = np.abs(mu_star.values) > MU_STAR_CAP
    if np.any(over):
        raise FlowError(
            f"{int(over.sum())} of {over.size} flow-lattice points have |mu*| above the "
            f"distortion cap {MU_STAR_CAP} (max {np.max(np.abs(mu_star.values)):.6f})"
        )
    state = FlowState.identity(mu_star)
    eps = 1.0 / steps
    for _ in range(steps):
        state = flow_step(state, eps, mu_star)
    f_check = mu_star.with_values(state.points.reshape(mu_star.nx, mu_star.ny))
    mu_check, phi = numeric_dilatation(f_check, interior_only=True)
    if stats is not None:
        gap = np.abs(mu_check.values - mu_star.values)
        stats["min_det_j"] = float(np.min(_inset(phi.values, 1) ** 2))
        stats["max_mu_gap"] = float(np.max(_inset(gap, 1)))
        stats["median_mu_gap"] = float(np.median(_inset(gap, 1)))
        stats["max_mu_gap_deep"] = float(np.max(_inset(gap, _DEEP)))
    return f_check, phi


def _inset(values: np.ndarray, depth: int) -> np.ndarray:
    """The sites at least depth from the lattice edge, or the innermost ones."""
    depth = min(depth, (min(values.shape) - 1) // 2)
    return values[depth : values.shape[0] - depth, depth : values.shape[1] - depth]
