"""Hyperbolic geometry of the open unit disk of dilatation values.

Dilatations live in |mu| < 1; averaging and interpolation use the
Poincare metric so that results respect the conformal structure rather
than the Euclidean one.  Every average is a weighted Frechet mean, and a
whole field's worth of them is computed by one batched Karcher iteration.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .likelihood import (
    STATUS_IMPUTED,
    STATUS_MISSING,
    DilatationScaleField,
)

log = logging.getLogger(__name__)


def _check_disk(z: np.ndarray | complex, name: str) -> None:
    if np.any(np.abs(z) >= 1.0):
        raise ValueError(f"{name} must lie strictly inside the unit disk")


def mobius_diff(a, b) -> np.ndarray | float:
    """Mobius-invariant difference |(a - b) / (1 - a conj(b))|, in [0, 1)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    _check_disk(a, "a")
    _check_disk(b, "b")
    out = np.abs((a - b) / (1.0 - a * np.conj(b)))
    return float(out) if out.ndim == 0 else out


def hyperbolic_distance(a, b) -> np.ndarray | float:
    """Poincare distance (1/2) log((1 + m)/(1 - m)) with m the Mobius difference."""
    m = mobius_diff(a, b)
    return 0.5 * np.log((1.0 + m) / (1.0 - m))


@dataclass(frozen=True)
class EllipseParams:
    """Distortion ellipse of a dilatation value.

    eccentricity = ratio of major to minor axis (>= 1), inclination =
    major-axis angle in [0, pi).
    """

    eccentricity: float
    inclination: float


def mu_to_ellipse(mu: complex) -> EllipseParams:
    m = abs(mu)
    if m >= 1.0:
        raise ValueError("dilatation must lie inside the unit disk")
    if m == 0.0:
        return EllipseParams(1.0, 0.0)  # circle: inclination by convention 0
    incl = float(np.angle(-complex(mu)) / 2.0) % np.pi
    return EllipseParams((1.0 + m) / (1.0 - m), incl)


KARCHER_MAX_ITER = 100
#: Points per chunk of interpolate_dilatation's corner means, and most
#: (point, block) pairs per chunk of its nearest-block search, so that its
#: temporaries stay near a few MiB however many points it is given.
INTERP_CHUNK = 2048
NEAREST_PAIRS = 1 << 16
_TOL = 1e-12  # Newton step length, in units of the metric, that counts as converged
_EPS = np.finfo(np.float64).eps


def _log_map(z: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log maps at the means m of the points z (last axis), and the distances.

    u = (z - m) / (1 - conj(m) z) moves m to 0, where the log map is artanh|u| u/|u|.
    """
    u = (z - m[..., None]) / (1.0 - np.conj(m[..., None]) * z)
    r = np.abs(u)
    d = np.arctanh(r)
    return d * u / np.where(r > 0, r, 1.0), d


def _exp_map(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Point reached from m along the tangent vector s (origin frame of m)."""
    n = np.abs(s)
    p = np.tanh(n) / np.where(n > 0, n, 1.0) * s
    return (p + m) / (1.0 + np.conj(m) * p)


def _objective(z: np.ndarray, w: np.ndarray, m: np.ndarray) -> np.ndarray:
    return np.sum(w * _log_map(z, m)[1] ** 2, axis=-1)


def _karcher_mean(z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Guarded Newton-Karcher iteration on sets stacked along axis 0.

    z and w have shape (n, k); returns the means (n,) and a converged mask.
    Each iteration recentres every set at its mean, averages the log maps
    into the gradient, solves the 2x2 Riemannian Newton system in closed
    form and moves along the exp map.  A step that would raise the
    objective by more than rounding is halved until it does not, per set,
    so the objective never increases.  A set converges when its accepted
    step is shorter than _TOL or than rounding can resolve at its mean,
    or when no halving descends at working precision.
    """
    m = np.sum(w * z, axis=-1) / np.sum(w, axis=-1)
    f = _objective(z, w, m)
    converged = np.zeros(m.shape, dtype=bool)
    for _ in range(KARCHER_MAX_ITER):
        act = np.flatnonzero(~converged)
        if act.size == 0:
            break
        za, wa, ma, fa = z[act], w[act], m[act], f[act] * (1.0 + 8 * _EPS)
        v, d = _log_map(za, ma)
        # Hessian of the halved objective at the mean: 1 along each geodesic
        # and 2d coth(2d) across it (the metric has curvature -4).  As a
        # complex-linear map it is s -> a s + b conj(s).
        c = np.where(d > 1e-8, 2.0 * d / np.tanh(np.maximum(2.0 * d, 1e-300)), 1.0)
        a = 0.5 * np.sum(wa * (1.0 + c), axis=-1)
        b = 0.5 * np.sum(wa * (1.0 - c) * (v / np.where(d > 0, d, 1.0)) ** 2, axis=-1)
        g = np.sum(wa * v, axis=-1)
        # named, so numpy cannot reuse it as the product's output: an in-place
        # multiply rounds differently, and means would depend on the call size
        g_conj = np.conj(g)
        s = (a * g - b * g_conj) / (a * a - np.abs(b) ** 2)
        cand, fc = ma.copy(), np.full(act.size, np.inf)
        for _ in range(60):
            bad = np.flatnonzero(~(fc <= fa))
            if bad.size == 0:
                break
            cand[bad] = _exp_map(ma[bad], s[bad])
            fc[bad] = _objective(za[bad], wa[bad], cand[bad])
            s[bad] *= np.where(fc[bad] <= fa[bad], 1.0, 0.5)
        moved = fc <= fa
        m[act[moved]] = cand[moved]
        f[act[moved]] = fc[moved]
        # near the boundary adjacent floats lie far apart in the metric
        resolvable = np.maximum(_TOL, 16 * _EPS / (1.0 - np.abs(ma) ** 2))
        converged[act] = ~moved | (np.abs(s) <= resolvable)
    return m, converged


def frechet_mean(points, weights=None, *, stats: dict | None = None):
    """Weighted Frechet mean argmin_mu sum_k w_k d(mu, mu_k)^2 in the disk.

    points and weights have shape (..., k): each index of the leading
    axes is one set of k points, and the result has the leading shape (a
    complex number for 1-D input).  Zero weights are allowed, so ragged
    sets can be padded; a padded point is ignored whatever its value.

    Computed by the Karcher iteration (Karcher 1977): recentre at the
    current mean with a Mobius map, average the artanh log maps, step
    along the tanh exp map and map back.  The step is the Riemannian
    Newton step, halved per set until the objective does not rise beyond
    rounding: the undamped Karcher step can cycle near the boundary.  A
    set stops when its step falls below 1e-12 or after KARCHER_MAX_ITER
    iterations.  A given stats dict gets the number of sets and of sets
    stopped by the cap added to "karcher_sets" and "karcher_not_converged".
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    w = np.ones(pts.shape) if weights is None else np.asarray(weights, dtype=np.float64)
    if pts.shape[-1] == 0:
        raise ValueError("need at least one point")
    if w.shape != pts.shape or not np.all(w >= 0) or np.any(w.sum(axis=-1) <= 0):
        raise ValueError("weights must be non-negative with positive sum per set")
    _check_disk(pts[w > 0], "points")
    k = pts.shape[-1]
    mean, converged = _karcher_mean(
        np.where(w > 0, pts, 0.0).reshape(-1, k), w.reshape(-1, k)
    )
    missed = int(np.sum(~converged))
    if missed:
        log.warning("%d of %d Karcher means hit the iteration cap", missed, mean.size)
    if stats is not None:
        stats["karcher_sets"] = stats.get("karcher_sets", 0) + mean.size
        stats["karcher_not_converged"] = stats.get("karcher_not_converged", 0) + missed
    return complex(mean[0]) if pts.ndim == 1 else mean.reshape(pts.shape[:-1])


def _window(n: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    # cells i - (window-1)//2 .. i + window//2 of each row i, clipped to the
    # lattice: indices (n, window) and a mask of the cells inside it
    idx = np.arange(n)[:, None] - (window - 1) // 2 + np.arange(window)
    return np.clip(idx, 0, n - 1), (idx >= 0) & (idx < n)


def smooth_dilatation(
    field: DilatationScaleField,
    window: int = 4,
    *,
    stats: dict | None = None,
) -> DilatationScaleField:
    """Sliding-window Frechet (p=2) smoothing of the dilatation field.

    Uniform weights over the window x window patch, clipped to the
    rectangle that overlaps the field near the boundary.  Missing blocks
    are imputed from the available entries of their patch: mu by the
    Frechet mean, phi by the geometric mean exp(mean log phi).  phi of an
    estimated block is left as it is.  Patches are padded to window^2
    entries with zero weights for one frechet_mean call (with stats).
    """
    nbx = field.geometry.get("nbx")
    nby = field.geometry.get("nby")
    if not nbx or not nby or nbx * nby != field.centers.size:
        raise ValueError("field geometry lacks a consistent block lattice")
    if window < 1 or window > min(nbx, nby):
        raise ValueError(f"window {window} does not fit the {nbx}x{nby} block lattice")
    (rows, row_in), (cols, col_in) = _window(nbx, window), _window(nby, window)
    patch = (rows[:, None, :, None] * nby + cols[None, :, None, :]).reshape(nbx * nby, -1)
    ok = field.ok_mask()
    use = (row_in[:, None, :, None] & col_in[None, :, None, :]).reshape(patch.shape)
    use &= ok[patch]
    has = use.any(axis=1)
    mu = field.mu.copy()
    mu[has] = frechet_mean(np.where(use, field.mu[patch], 0.0)[has], use[has], stats=stats)
    fill = has & ~ok
    phi = field.phi.copy()
    log_phi = np.log(np.where(use[fill], field.phi[patch[fill]], 1.0))
    phi[fill] = np.exp(log_phi.sum(axis=1) / use[fill].sum(axis=1))
    status = np.array(field.status, dtype=object)
    status[fill] = STATUS_IMPUTED
    status[~has] = STATUS_MISSING
    return replace(
        field,
        mu=mu,
        phi=phi,
        status=status,
        centers=field.centers.copy(),
        loglik=field.loglik.copy(),
    )


def interpolate_dilatation(
    field: DilatationScaleField,
    locations,
    *,
    stats: dict | None = None,
):
    """Dilatation at arbitrary points by bilinear-weighted Frechet means.

    The four block centers around each location contribute with bilinear
    weights, skipping unavailable corners, in one frechet_mean call (with
    stats) per chunk of INTERP_CHUNK points.  A location outside the
    center lattice, or with no available corner, takes the value of the
    nearest available block, searched NEAREST_PAIRS (point, block) pairs
    at a time; a given stats dict counts these (points_extrapolated).
    Scalar or array locations give values alike.
    """
    loc = np.asarray(locations, dtype=np.complex128)
    flat = loc.ravel()
    geo = field.geometry
    nbx, nby = geo["nbx"], geo["nby"]
    ok = field.ok_mask()
    avail = np.flatnonzero(ok)
    rows = max(1, NEAREST_PAIRS // max(avail.size, 1))
    di, dj = np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])
    values = np.empty(flat.size, dtype=np.complex128)
    for start in range(0, flat.size, INTERP_CHUNK):
        pts, out = flat[start : start + INTERP_CHUNK], values[start : start + INTERP_CHUNK]
        fx = (pts.real - field.centers[0].real) / (geo["block"] * geo["spacing"][0])
        fy = (pts.imag - field.centers[0].imag) / (geo["block"] * geo["spacing"][1])
        inside = np.flatnonzero((fx >= 0) & (fx <= nbx - 1) & (fy >= 0) & (fy <= nby - 1))
        # corners (i0, j0), (i0+1, j0), (i0, j0+1), (i0+1, j0+1), clipped on a
        # one-block-wide lattice, where their weight is 0
        i0 = np.clip(np.floor(fx[inside]), 0, max(nbx - 2, 0)).astype(np.intp)[:, None]
        j0 = np.clip(np.floor(fy[inside]), 0, max(nby - 2, 0)).astype(np.intp)[:, None]
        corner = np.minimum(i0 + di, nbx - 1) * nby + np.minimum(j0 + dj, nby - 1)
        tx, ty = fx[inside, None] - i0, fy[inside, None] - j0
        wgt = np.where(di, tx, 1 - tx) * np.where(dj, ty, 1 - ty)
        use = (wgt > 1e-12) & ok[corner]
        has = use.any(axis=1)
        out[inside[has]] = frechet_mean(
            np.where(use, field.mu[corner], 0.0)[has], np.where(use, wgt, 0.0)[has], stats=stats
        )
        nearest = np.ones(pts.size, dtype=bool)
        nearest[inside[has]] = False
        pick = np.flatnonzero(nearest)
        if pick.size and not avail.size:
            raise ValueError("no available block values to interpolate from")
        for first in range(0, pick.size, rows):
            near = pick[first : first + rows]
            dist = np.abs(pts[near, None] - field.centers[avail])
            out[near] = field.mu[avail[np.argmin(dist, axis=1)]]
        if stats is not None:
            stats["points_extrapolated"] = stats.get("points_extrapolated", 0) + int(pick.size)
    return complex(values[0]) if loc.ndim == 0 else values.reshape(loc.shape)
