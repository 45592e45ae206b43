"""Reconstruction of a quasiconformal map from a dilatation field.

The target map is reached by flowing the identity: along the schedule
mu_t = t * mu_star the tracked lattice images move with a velocity field
whose d/dzbar equals a source term sigma_t, obtained from two Poisson
solves with zero Dirichlet data on an enclosing box.  Euler time
stepping advances both the images and the z-derivative of the map,
which the source term needs at the next step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn, idstn
from scipy.interpolate import (
    LinearNDInterpolator,
    NearestNDInterpolator,
    RegularGridInterpolator,
)
from scipy.spatial import QhullError

from .errors import FlowError
from .fields import numeric_dilatation
from .grids import ComplexGrid, Grid

log = logging.getLogger(__name__)

BOX_MARGIN = 0.10
MU_STAR_CAP = 1.0 - 1e-3


@dataclass
class FlowState:
    """Transported lattice at flow time t in [0, 1]."""

    t: float
    sites: np.ndarray  # original lattice sites z_j (fixed)
    points: np.ndarray  # current images f_t(z_j)
    dz_f: np.ndarray  # d/dz of f_t at the sites

    @classmethod
    def identity(cls, mu_star: ComplexGrid) -> "FlowState":
        sites = mu_star.locations()
        return cls(
            t=0.0,
            sites=sites,
            points=sites.copy(),
            dz_f=np.ones(sites.size, dtype=np.complex128),
        )


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
    ignored and the returned solution carries zeros there.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
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
    points: np.ndarray, values: np.ndarray, box, n: int
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Linear scattered interpolation onto the box lattice, zero outside the hull."""
    x0, x1, y0, y1 = box
    h = (x1 - x0) / (n - 1)
    xs = x0 + h * np.arange(n)
    ys = y0 + h * np.arange(n)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    xy = np.column_stack([points.real, points.imag])
    stacked = np.column_stack([values.real, values.imag])
    try:
        interp = LinearNDInterpolator(xy, stacked)
        grid = interp(np.column_stack([xx.ravel(), yy.ravel()]))
    except QhullError:  # degenerate cloud: fall back to nearest neighbor
        interp = NearestNDInterpolator(xy, stacked)
        grid = interp(np.column_stack([xx.ravel(), yy.ravel()]))
    grid = np.nan_to_num(grid, nan=0.0)
    sigma = (grid[:, 0] + 1j * grid[:, 1]).reshape(n, n)
    return sigma, h, xs, ys


def sigma_field(
    mu_star: ComplexGrid, state: FlowState, *, box_n: int | None = None
) -> ComplexGrid:
    """Velocity source term on the enclosing box lattice at flow time t.

    Per tracked site, s_j = mu*(z_j) / (1 - t^2 |mu*(z_j)|^2) times the
    phase factor dz_f / conj(dz_f); the values are carried to the image
    points f_t(z_j) and interpolated linearly onto the box grid (zero
    outside the convex hull of the images).
    """
    mu = mu_star.values.ravel()
    if mu.size != state.points.size:
        raise ValueError("mu_star lattice does not match the tracked sites")
    tm = np.abs(state.t * mu)
    if np.any(tm >= 1.0):
        raise FlowError(f"|t mu| reaches {tm.max():.6f} >= 1: distortion blow-up")
    source = mu / (1.0 - (state.t * np.abs(mu)) ** 2) * (state.dz_f / np.conj(state.dz_f))
    n = box_n or _default_box_n(mu_star)
    box = _enclosing_box(state.points)
    sigma, h, xs, ys = _scatter_to_box(state.points, source, box, n)
    return ComplexGrid(n, n, (xs[0], ys[0]), (h, h), sigma)


def _default_box_n(mu_star: ComplexGrid) -> int:
    return int(np.clip(2 * max(mu_star.nx, mu_star.ny) + 1, 65, 257))


def flow_step(
    state: FlowState, eps: float, mu_star: ComplexGrid, *, box_n: int | None = None
) -> FlowState:
    """One Euler step of the reconstruction flow.

    Solves lap(Psi) = 2 Re sigma and lap(Phi) = 2 Im sigma with zero
    boundary data, assembles the velocity (u, v) = (dPhi/dy + dPsi/dx,
    dPhi/dx - dPsi/dy), advances the tracked points by eps * (u + i v)
    and updates dz_f multiplicatively with eps * d/dz(u + i v).
    """
    if eps <= 0:
        raise ValueError("step size must be positive")
    if state.t + eps > 1.0 + 1e-9:
        raise ValueError(f"flow time {state.t} + {eps} would pass 1")
    sig = sigma_field(mu_star, state, box_n=box_n)
    h = sig.spacing[0]
    psi = poisson_solve_dirichlet(2.0 * sig.values.real, h)
    phi = poisson_solve_dirichlet(2.0 * sig.values.imag, h)
    phi_x = np.gradient(phi, h, axis=0, edge_order=1)
    phi_y = np.gradient(phi, h, axis=1, edge_order=1)
    psi_x = np.gradient(psi, h, axis=0, edge_order=1)
    psi_y = np.gradient(psi, h, axis=1, edge_order=1)
    w = (phi_y + psi_x) + 1j * (phi_x - psi_y)
    wz = 0.5 * (
        np.gradient(w, h, axis=0, edge_order=1)
        - 1j * np.gradient(w, h, axis=1, edge_order=1)
    )
    xs = sig.x()
    ys = sig.y()
    w_at = RegularGridInterpolator(
        (xs, ys), w, method="linear", bounds_error=False, fill_value=None
    )
    wz_at = RegularGridInterpolator(
        (xs, ys), wz, method="linear", bounds_error=False, fill_value=None
    )
    coords = np.column_stack([state.points.real, state.points.imag])
    new_points = state.points + eps * w_at(coords)
    new_dzf = state.dz_f * (1.0 + eps * wz_at(coords))
    if not (np.all(np.isfinite(new_points)) and np.all(np.isfinite(new_dzf))):
        raise FlowError(f"non-finite flow state after step at t={state.t:.4f}")
    return FlowState(
        t=state.t + eps,
        sites=state.sites,
        points=new_points,
        dz_f=new_dzf,
    )


def reconstruct_map(
    mu_star: ComplexGrid, steps: int = 20, *, box_n: int | None = None
) -> tuple[ComplexGrid, Grid]:
    """Flow the identity to a map with dilatation mu_star; return (map, phi).

    The returned map samples the reconstruction on mu_star's lattice;
    phi = sqrt(det J) is measured from the final map by finite
    differences, so map and scale come from a single source.
    """
    if steps < 1:
        raise ValueError("need at least one flow step")
    worst = float(np.max(np.abs(mu_star.values)))
    if worst > MU_STAR_CAP:
        raise FlowError(
            f"max |mu*| = {worst:.6f} exceeds the distortion cap {MU_STAR_CAP}"
        )
    state = FlowState.identity(mu_star)
    eps = 1.0 / steps
    for _ in range(steps):
        state = flow_step(state, eps, mu_star, box_n=box_n)
    values = state.points.reshape(mu_star.nx, mu_star.ny)
    f_check = ComplexGrid(
        mu_star.nx, mu_star.ny, mu_star.origin, mu_star.spacing, values
    )
    _, phi = numeric_dilatation(f_check, interior_only=True)
    return f_check, phi
