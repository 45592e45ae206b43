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
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dstn, idstn

from .errors import FlowError, OrientationError
from .fields import numeric_dilatation
from .grids import ComplexGrid, Grid, bilinear_sample, bilinear_weights

log = logging.getLogger(__name__)

BOX_MARGIN = 0.10
MU_STAR_CAP = 1.0 - 1e-3
# Cells per batch of a scatter pass and per row chunk of the cell geometry.
# glibc maps an allocation of 128 kB or more afresh until the process has
# freed a larger one, and gives freed heap back above a threshold, so a
# flow step's temporaries stay small (4096 complex values are 64 kB) and
# the box-sized arrays are allocated once per flow (_FlowArrays).
_SCATTER_BATCH = 4096
_DEEP = 4  # lattice steps from the edge where the flow check reads max_mu_gap_deep
_TOL = 1e-12  # barycentric slack: a node on an edge belongs to both triangles


class _FlowArrays:
    """The arrays one flow reuses at every step, for an nx x ny lattice and an n x n box.

    Box: q (the source term, then the Poisson solution; its boundary ring
    stays zero), w and wz, and the Poisson eigenvalues.  Cells: for
    triangle kind A = (p00, p10, p11) and B = (p00, p11, p01) of each cell,
    in index order, the affine barycentric weights (b0, bi, bj, c0, ci, cj)
    and the window (first box node, width in i, width in j); the source
    term at p00, p10, p11 and p01.  Sites: the source term, then a sampled
    field, and scratch.
    """

    def __init__(self, nx: int, ny: int, n: int):
        cells = (nx - 1) * (ny - 1)
        self.shape = (nx, ny, n)
        self.q = np.zeros((n, n), dtype=np.complex128)
        self.w = np.empty((n, n), dtype=np.complex128)
        self.wz = np.empty((n, n), dtype=np.complex128)
        self.eigen = np.empty((n - 2, n - 2))
        self.weights = np.empty((2, 6, cells))
        self.window = np.empty((2, 3, cells), dtype=np.int64)
        self.corners = np.empty((4, cells), dtype=np.complex128)
        self.site = np.empty(nx * ny, dtype=np.complex128)
        self.scratch = np.empty(nx * ny, dtype=np.complex128)


@dataclass
class FlowState:
    """Transported lattice at flow time t in [0, 1]."""

    t: float
    points: np.ndarray  # current images f_t(z_j) of the lattice sites z_j
    dz_f: np.ndarray  # d/dz of f_t at the sites
    # set by the first sigma_field call and handed on by flow_step
    _arrays: _FlowArrays | None = field(default=None, init=False, repr=False, compare=False)

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
    solution = np.zeros_like(rhs)
    solution[1:-1, 1:-1] = rhs[1:-1, 1:-1]
    _solve_interior(solution, spacing, np.empty((rhs.shape[0] - 2, rhs.shape[1] - 2)))
    return solution


def _solve_interior(q: np.ndarray, spacing: float, eigen: np.ndarray) -> None:
    """Overwrite the interior of q, which holds the rhs, with the Dirichlet solution.

    The sine transforms run in place; eigen, shaped like the interior, is
    overwritten with the Laplacian's eigenvalues.
    """
    interior = q[1:-1, 1:-1]
    mx, my = interior.shape
    h2 = spacing * spacing
    lam_x = (2.0 * np.cos(np.pi * np.arange(1, mx + 1) / (mx + 1)) - 2.0) / h2
    lam_y = (2.0 * np.cos(np.pi * np.arange(1, my + 1) / (my + 1)) - 2.0) / h2
    np.add(lam_x[:, None], lam_y[None, :], out=eigen)
    dstn(interior, type=1, overwrite_x=True)
    interior /= eigen
    idstn(interior, type=1, overwrite_x=True)


def _triangle_geometry(a, b, c, weights: np.ndarray, window: np.ndarray, n: int) -> int:
    """Affine barycentric weights and box-node windows of triangles (a, b, c).

    a, b and c are (x, y) pairs of equally shaped arrays in box-index units.
    Column t of weights gets (b0, bi, bj, c0, ci, cj): at box node
    (i0 + di, j0 + dj) the weights of the second and third vertex are
    lb = b0 + di*bi + dj*bj and lc = c0 + di*ci + dj*cj, where (i0, j0) is
    the first node of the triangle's bounding box.  Column t of window gets
    (i0*n + j0, width in i, width in j).  Returns how many triangles have a
    non-positive orientation.
    """
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    e1x, e1y, e2x, e2y = bx - ax, by - ay, cx - ax, cy - ay
    area2 = e1x * e2y - e1y * e2x
    i0 = np.ceil(np.minimum(np.minimum(ax, bx), cx) - 1e-9)
    j0 = np.ceil(np.minimum(np.minimum(ay, by), cy) - 1e-9)
    shape = area2.shape
    b0, bi, bj, c0, ci, cj = (row.reshape(shape) for row in weights)
    np.divide(e2y, area2, out=bi)
    np.divide(e2x, area2, out=bj)
    np.negative(bj, out=bj)
    np.divide(e1y, area2, out=ci)
    np.negative(ci, out=ci)
    np.divide(e1x, area2, out=cj)
    di, dj = i0 - ax, j0 - ay
    np.add(di * bi, dj * bj, out=b0)
    np.add(di * ci, dj * cj, out=c0)
    node, wi, wj = (row.reshape(shape) for row in window)
    i1 = np.floor(np.maximum(np.maximum(ax, bx), cx) + 1e-9)
    j1 = np.floor(np.maximum(np.maximum(ay, by), cy) + 1e-9)
    np.subtract(i1, i0, out=wi, casting="unsafe")
    np.subtract(j1, j0, out=wj, casting="unsafe")
    np.add(i0 * n, j0, out=node, casting="unsafe")
    return int(np.count_nonzero(area2 <= 0))


def _cell_geometry(points: np.ndarray, box, n: int, weights, window) -> int:
    """_triangle_geometry of both triangles of every cell of an (nx, ny) lattice.

    Cell (i, j) splits along p00-p11 into A = (p00, p10, p11) and
    B = (p00, p11, p01), both counter-clockwise on the untouched lattice;
    weights[0] and window[0] take the A triangles in cell index order,
    weights[1] and window[1] the B triangles.  The cells go through in row
    chunks.  Returns how many triangles have a non-positive orientation.
    """
    x0, x1, y0, _ = box
    scale = 1.0 / ((x1 - x0) / (n - 1))
    nx, ny = points.shape
    cols = ny - 1
    step = max(1, _SCATTER_BATCH // cols)
    folded = 0
    for r0 in range(0, nx - 1, step):
        r1 = min(r0 + step, nx - 1)
        chunk = points[r0 : r1 + 1]
        x, y = (chunk.real - x0) * scale, (chunk.imag - y0) * scale
        p00, p10 = (x[:-1, :-1], y[:-1, :-1]), (x[1:, :-1], y[1:, :-1])
        p01, p11 = (x[:-1, 1:], y[:-1, 1:]), (x[1:, 1:], y[1:, 1:])
        rows = slice(r0 * cols, r1 * cols)
        for kind, (b, c) in enumerate(((p10, p11), (p11, p01))):
            folded += _triangle_geometry(
                p00, b, c, weights[kind, :, rows], window[kind, :, rows], n
            )
    return folded


def _scatter(weights, window, values, grid: np.ndarray) -> None:
    """Linear interpolation on triangles onto the box lattice grid.

    weights and window hold one column per triangle, per kind, as
    _triangle_geometry writes them, and values[kind] the triangles' vertex
    values a, b and c as three arrays.  A box node that a triangle's window
    holds and whose weights lie in the closed triangle (with _TOL slack)
    gets a + lb (b - a) + lc (c - a); other nodes keep their value.  A node
    on a shared edge or vertex keeps the last write: passes run in (di, dj)
    order, kinds in order within a pass and triangles in index order within
    a kind.  Each pass takes the triangles in batches of _SCATTER_BATCH.
    """
    n = grid.shape[1]
    flat = grid.reshape(-1)
    widest = window[:, 1:].max(axis=2, initial=0)
    reach = int(widest.max(initial=0))
    for di in range(reach + 1):
        for dj in range(reach + 1):
            for kind in range(len(weights)):
                if di > widest[kind, 0] or dj > widest[kind, 1]:
                    continue
                first, wi, wj = window[kind]
                for start in range(0, wi.size, _SCATTER_BATCH):
                    part = slice(start, start + _SCATTER_BATCH)
                    b0, bi, bj, c0, ci, cj = weights[kind, :, part]
                    # lb = b0 + di bi + dj bj, lc likewise; a zero offset adds nothing
                    lb, lc = b0, c0
                    if di:
                        lb, lc = lb + di * bi, lc + di * ci
                    if dj:
                        lb, lc = lb + dj * bj, lc + dj * cj
                    hit = (lb >= -_TOL) & (lc >= -_TOL) & (lb + lc <= 1.0 + _TOL)
                    if di:
                        hit &= wi[part] >= di
                    if dj:
                        hit &= wj[part] >= dj
                    t = np.flatnonzero(hit)
                    a, b, c = (v[part][t] for v in values[kind])
                    node = first[part][t] + (di * n + dj)
                    flat[node] = a + lb[t] * (b - a) + lc[t] * (c - a)


def _flow_arrays(mu_star: ComplexGrid, state: FlowState) -> _FlowArrays:
    """The state's reusable arrays, made on first use for this lattice and box size."""
    shape = (mu_star.nx, mu_star.ny, _default_box_n(mu_star))
    if state._arrays is None or state._arrays.shape != shape:
        state._arrays = _FlowArrays(*shape)
    return state._arrays


def sigma_field(mu_star: ComplexGrid, state: FlowState) -> ComplexGrid:
    """Velocity source term on the enclosing box lattice at flow time t.

    Per tracked site, s_j = mu*(z_j) / (1 - t^2 |mu*(z_j)|^2) times the
    phase factor dz_f / conj(dz_f); the values are carried to the image
    points f_t(z_j) and interpolated linearly onto the box grid on the two
    triangles of each lattice cell (zero outside the image of the lattice).
    Raises OrientationError once a triangle's orientation is not positive.
    The returned values live in the box arrays that the state and every
    state flow_step makes from it share, so the next step overwrites them.
    """
    mu = mu_star.values.ravel()
    if mu.size != state.points.size:
        raise ValueError("mu_star lattice does not match the tracked sites")
    tm = np.abs(mu)
    tm *= state.t
    if np.any(tm >= 1.0):
        raise FlowError(f"|t mu| reaches {tm.max():.6f} >= 1: distortion blow-up")
    arrays = _flow_arrays(mu_star, state)
    nx, ny, n = arrays.shape
    box = _enclosing_box(state.points)
    folded = _cell_geometry(
        state.points.reshape(nx, ny), box, n, arrays.weights, arrays.window
    )
    if folded:
        raise OrientationError(
            f"tracked lattice folds at t={state.t:.4f}: "
            f"{folded} triangles with non-positive orientation"
        )
    # s_j = (mu / (1 - (t |mu|)^2)) * (dz_f / conj(dz_f))
    source = np.conjugate(state.dz_f, out=arrays.site)
    np.divide(state.dz_f, source, out=source)
    np.square(tm, out=tm)
    np.subtract(1.0, tm, out=tm)
    np.multiply(np.divide(mu, tm, out=arrays.scratch), source, out=source)
    s = source.reshape(nx, ny)
    for corner, view in zip(arrays.corners, (s[:-1, :-1], s[1:, :-1], s[1:, 1:], s[:-1, 1:])):
        corner.reshape(nx - 1, ny - 1)[...] = view
    p00, p10, p11, p01 = arrays.corners
    arrays.q.fill(0.0)
    _scatter(arrays.weights, arrays.window, ((p00, p10, p11), (p00, p11, p01)), arrays.q)
    x0, x1, y0, _ = box
    h = (x1 - x0) / (n - 1)
    return ComplexGrid(n, n, (x0, y0), (h, h), arrays.q)


def _default_box_n(mu_star: ComplexGrid) -> int:
    return int(np.clip(2 * max(mu_star.nx, mu_star.ny) + 1, 65, 257))


def _difference(f: np.ndarray, h: float, out: np.ndarray, axis: int) -> None:
    """np.gradient(f, h, axis=axis, edge_order=1) of a C-ordered f, written into out.

    The central differences run over the flat arrays, so along axis 1 the
    edge columns first take differences across rows, which the one-sided
    edge differences then replace.  numpy divides a complex array by a
    real number as a product with its reciprocal, so these products give
    np.gradient's bits.
    """
    step = f.strides[axis] // f.itemsize
    flat, into = f.reshape(-1), out.reshape(-1)
    np.subtract(flat[2 * step :], flat[: -2 * step], out=into[step:-step])
    into[step:-step] *= 1.0 / (2.0 * h)
    f, out = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(f[1], f[0], out=out[0])
    np.subtract(f[-1], f[-2], out=out[-1])
    out[0] *= 1.0 / h
    out[-1] *= 1.0 / h


def _twice_dz(f: np.ndarray, h: float, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = df/dx - i df/dy by central differences; scratch is overwritten."""
    _difference(f, h, out, 0)
    _difference(f, h, scratch, 1)
    scratch *= 1j
    out -= scratch


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
    sig = sigma_field(mu_star, state)  # its values are the arrays' q
    arrays = state._arrays
    h = sig.spacing[0]
    q = arrays.q
    q *= 2.0
    _solve_interior(q, h, arrays.eigen)
    _twice_dz(q, h, arrays.w, arrays.wz)
    _twice_dz(arrays.w, h, arrays.wz, q)
    arrays.wz *= 0.5
    weights = bilinear_weights(sig, state.points)
    move = bilinear_sample(arrays.w, weights, arrays.site, arrays.scratch)
    move *= eps
    new_points = state.points + move
    growth = bilinear_sample(arrays.wz, weights, arrays.site, arrays.scratch)
    growth *= eps
    growth += 1.0
    new_dzf = state.dz_f * growth
    if not (np.all(np.isfinite(new_points)) and np.all(np.isfinite(new_dzf))):
        raise FlowError(f"non-finite flow state after step at t={state.t:.4f}")
    new = FlowState(t=state.t + eps, points=new_points, dz_f=new_dzf)
    new._arrays = arrays
    return new


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
    state._arrays = None  # the box arrays go before the dilatation check
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
