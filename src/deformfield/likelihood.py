"""Blockwise approximate likelihoods for the fractal index and for the
local anisotropy of a deformed field.

The observation lattice is cut into small neighborhoods.  Within each,
contrasted values Ytilde = L Y are treated as zero-mean Gaussian with
covariance L G L', where G collects kernel values at pairwise lags.
Summing the resulting restricted log likelihoods across neighborhoods
(treated as independent) gives the objective for the global fractal
index alpha; per-neighborhood optimization over an anisotropic kernel
yields local dilatation and scale estimates.
"""

from __future__ import annotations

import importlib
import logging
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .errors import ArtifactError, EstimationError
from .fields import SampleField, g_alpha
from .grids import atomic_write_text
from .increments import increment_matrix

log = logging.getLogger(__name__)

ALPHA_FLOOR = 0.05
_ALPHA_TOL = 1e-3  # width of the final golden-section bracket on alpha
MU_CAP = 1.0 - 1e-6

STATUS_OK = "ok"
STATUS_MISSING = "missing"
STATUS_IMPUTED = "imputed"


def __getattr__(name: str):
    # No stage calls scipy.optimize, so it is imported only when read: the
    # benchmark tracer (perfbench/tracer.py) patches likelihood.optimize.minimize.
    # This hook goes once that patch does (ROADMAP item 6).
    if name == "optimize":
        return importlib.import_module("scipy.optimize")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class NeighborhoodPartition:
    """Disjoint square blocks of lattice sites, row-major in block coords."""

    blocks: list
    centers: np.ndarray
    geometry: dict

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def partition_grid(
    nx: int,
    ny: int,
    block: int,
    *,
    origin: tuple[float, float] = (0.0, 0.0),
    spacing: tuple[float, float] = (1.0, 1.0),
) -> NeighborhoodPartition:
    """Split an nx x ny lattice into floor(nx/block) * floor(ny/block) blocks.

    Sites in trailing partial rows/columns are dropped with a warning.
    Flat site indices use the row-major (i*ny + j) convention; block
    centers are the mean location of each block's sites.
    """
    if block < 3:
        raise ValueError("block side must be at least 3")
    if block > min(nx, ny):
        raise ValueError(f"block side {block} exceeds grid dims ({nx}, {ny})")
    nbx, nby = nx // block, ny // block
    dropped = nx * ny - nbx * nby * block * block
    if dropped:
        log.warning(
            "partition drops %d sites in partial blocks (%dx%d grid, block %d)",
            dropped,
            nx,
            ny,
            block,
        )
    blocks = []
    centers = np.empty(nbx * nby, dtype=np.complex128)
    half = (block - 1) / 2.0
    for bx in range(nbx):
        for by in range(nby):
            ii = np.arange(bx * block, (bx + 1) * block)
            jj = np.arange(by * block, (by + 1) * block)
            blocks.append((ii[:, None] * ny + jj[None, :]).ravel())
            centers[bx * nby + by] = complex(
                origin[0] + (bx * block + half) * spacing[0],
                origin[1] + (by * block + half) * spacing[1],
            )
    geometry = {
        "nx": nx,
        "ny": ny,
        "block": block,
        "nbx": nbx,
        "nby": nby,
        "origin": tuple(origin),
        "spacing": tuple(spacing),
        "dropped": dropped,
    }
    return NeighborhoodPartition(blocks, centers, geometry)


def _shared_blocks(data: SampleField, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Within-block coordinates shared by all blocks, and their values, one block per row.

    Raises ValueError unless every block is a translate of the first.
    """
    first = data.locations[np.asarray(blocks[0]).ravel()]
    rel = first - first.mean()
    scale = max(np.max(np.abs(rel)), 1.0)
    for block in blocks[1:]:
        z = data.locations[np.asarray(block).ravel()]
        if z.size != rel.size or np.max(np.abs((z - z.mean()) - rel)) > 1e-9 * scale:
            raise ValueError("the partition's blocks must be translates of one another")
    return rel, np.stack([data.values[np.asarray(b).ravel()] for b in blocks])


def _alpha_nll(alpha: float, dist: np.ndarray, rows: np.ndarray, ytilde: np.ndarray) -> float:
    """Summed negative restricted log likelihood at index alpha of blocks sharing one geometry.

    0.5 log|Sigma| + 0.5 Ytilde' Sigma^-1 Ytilde summed over the columns of
    ytilde (one block each), with Sigma = L G_alpha(dist) L' for contrast
    rows L and the pairwise distances dist of the shared sites.  Returns
    +inf when LAPACK cannot factorize Sigma.
    """
    sigma = rows @ g_alpha(alpha, dist) @ rows.T
    sigma = 0.5 * (sigma + sigma.T)
    factor, info = dpotrf(sigma.T, lower=1, clean=0, overwrite_a=1)
    if info:
        return np.inf
    w = dtrtrs(factor, ytilde, lower=1)[0]
    return ytilde.shape[1] * float(np.sum(np.log(np.diag(factor)))) + 0.5 * float(
        np.sum(w * w)
    )


def estimate_alpha(
    data: SampleField,
    partition: NeighborhoodPartition,
    alpha_max: float = 4.0,
    *,
    stats: dict | None = None,
) -> float:
    """Fractal index by golden-section search on the summed block likelihood.

    The search interval is (ALPHA_FLOOR, alpha_max]; the contrast degree
    is floor(alpha_max / 2) so one contrast matrix serves every candidate
    alpha.  The blocks must be translates of one another, as partition_grid
    makes them, so the kernel matrix and its factorization are computed
    once per candidate.  A given stats dict gets the number of candidates
    scored (alpha_evals) and of those whose likelihood was +inf
    (alpha_infeasible).
    """
    if alpha_max <= ALPHA_FLOOR:
        raise ValueError("alpha_max must exceed the search floor 0.05")
    rel, values = _shared_blocks(data, partition.blocks)
    rows = increment_matrix(rel, int(np.floor(alpha_max / 2.0))).rows
    dist = np.abs(rel[:, None] - rel[None, :])
    ystack = np.column_stack([rows @ v for v in values])

    scores = []

    def total(alpha: float) -> float:
        scores.append(_alpha_nll(alpha, dist, rows, ystack))
        return scores[-1]

    lo, hi = ALPHA_FLOOR, float(alpha_max)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = total(c), total(d)
    while b - a > _ALPHA_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = total(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = total(d)
    if stats is not None:
        stats["alpha_evals"] = stats.get("alpha_evals", 0) + len(scores)
        stats["alpha_infeasible"] = stats.get("alpha_infeasible", 0) + int(
            np.sum(np.isposinf(scores))
        )
    alpha_hat = 0.5 * (a + b)
    if not np.isfinite(min(fc, fd)):
        raise EstimationError("alpha likelihood was infeasible over the whole range")
    return float(alpha_hat)


# ---------------------------------------------------------------------------
# Local anisotropy
#
# The model kernel at a site offset h is G(|A| |h + mu conj(h)|).  Sign note:
# a map with dilatation mu acts locally as h + mu conj(h), so estimates carry
# the dilatation of the deformation itself, with no sign flip.  The kernel is
# alpha-homogeneous, G(s t) = s^alpha G(t), so for fixed mu the stretch enters
# as a pure scale Sigma = s Sigma_1 with s = |A|^alpha, minimized in closed
# form at s = Ytilde' Sigma_1^{-1} Ytilde / m.  The numerical search therefore
# runs over mu alone, with the scale profiled out.  It starts at mu = 0, where
# Sigma_1 is the isotropic generalized covariance, positive definite for the
# contrast degree in use.

_PHI_BOUNDS = (1e-3, 1e3)

# Damped Newton search in the coordinates t = (t1, t2): the stencil step for
# finite differences, the smallest move that continues a search, and the caps
# on iterations and on step halvings per iteration.
_STEP, _XTOL, _MAX_ITER, _MAX_HALVINGS = 1e-3, 1e-6, 50, 30

# the 8-point central-difference stencil: +-e1, +-e2 and the four diagonals
_STENCIL = np.array(
    [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.float64
)

# Likelihood rows per batched evaluation.  Each row holds one m x m factor
# (70 kB at block 10), so a call stays within a few MB.
_EVAL_ROWS = 64


def _clip_to_cap(mu: complex) -> complex:
    if abs(mu) <= MU_CAP:
        return mu
    scale = MU_CAP / abs(mu)
    # the rescaled modulus can round to just above the cap
    while abs(mu * scale) > MU_CAP:
        scale = np.nextafter(scale, 0.0)
    return mu * scale


def _mu_from_x(x):
    """mu = tanh(r) e^{i omega} at search coordinates x[..., 0:2] = (t1, t2).

    (r, omega) is the polar form of (t1, t2), and |mu| is clipped to
    MU_CAP.  One point (x of shape (2,)) gives a complex number.
    """
    x = np.asarray(x, dtype=np.float64)
    t1, t2 = x[..., 0], x[..., 1]
    r = np.hypot(t1, t2)
    mu = np.atleast_1d(
        np.where(r == 0.0, 0.0 + 0.0j, np.tanh(r) * np.exp(1j * np.arctan2(t2, t1)))
    )
    # only a modulus at the cap can need the clip
    for k in np.flatnonzero(np.abs(mu) > MU_CAP - 1e-12):
        mu.flat[k] = _clip_to_cap(complex(mu.flat[k]))
    return complex(mu[0]) if x.ndim == 1 else mu


@dataclass(frozen=True)
class _LagTable:
    """Sigma_1(mu) of one block geometry as a linear map of kernel values.

    A kernel entry depends on a site pair only through its offset h, and
    |h + mu conj(h)| is even in h, so the pairs fall into classes of offsets
    +-h; the zero offset adds nothing, since G(0) = 0.  Row l of weights is
    the upper triangle, row by row, of R P_l R' for contrast rows R and the
    0/1 matrix P_l of the pairs in class l, so the upper triangle of Sigma_1
    is G(|h_l + mu conj(h_l)|) @ weights.
    """

    lags: np.ndarray  # (classes,) one offset h_l per class
    weights: np.ndarray  # (classes, m (m + 1) / 2)


def _lag_table(z: np.ndarray, rows: np.ndarray) -> _LagTable:
    """The lag table of sites z with contrast rows `rows` (m x n).

    A b x b block has ((2b - 1)^2 - 1) / 2 classes, and the table holds
    about 0.8 b^6 float64 values: 6.4 MB at block 10, 81 MB at block 15
    and 0.47 GB at block 20.
    """
    n = z.size
    d = (z[:, None] - z[None, :]).ravel()
    # offsets of translated pairs agree to rounding; key each by the integer
    # multiple of a fine tolerance, with the sign chosen to merge h and -h
    tol = 1e-9 * max(float(np.max(np.abs(d))), 1e-300)
    key = np.column_stack([np.rint(d.real / tol), np.rint(d.imag / tol)])
    flip = (key[:, 0] < 0) | ((key[:, 0] == 0) & (key[:, 1] < 0))
    key[flip] *= -1.0
    pair = np.flatnonzero(key.any(axis=1))
    _, first, cls = np.unique(key[pair], axis=0, return_index=True, return_inverse=True)
    cls = cls.ravel()
    lags = np.where(flip, -d, d)[pair[first]]
    p, q = np.divmod(pair, n)
    order = np.argsort(cls, kind="stable")
    edges = np.searchsorted(cls[order], np.arange(first.size + 1))
    upper = np.triu_indices(rows.shape[0])
    weights = np.empty((first.size, upper[0].size))
    for cl in range(first.size):
        sel = order[edges[cl] : edges[cl + 1]]
        weights[cl] = (rows[:, p[sel]] @ rows[:, q[sel]].T)[upper]
    return _LagTable(lags, weights)


def _profiled_nll(
    table: _LagTable, ytilde: np.ndarray, alpha: float, which: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Profiled negative log likelihood and scale at search points x.

    Row i scores point x[i] on the contrasts ytilde[which[i]].  The value
    is +inf where LAPACK cannot factorize Sigma_1.
    """
    m = ytilde.shape[1]
    nll = np.full(len(which), np.inf)
    s_hat = np.ones(len(which))
    # one buffer for every chunk: fresh pages would be faulted in each time
    buffer = np.empty((min(len(which), _EVAL_ROWS), m, m))
    h, h_conj = table.lags, np.conj(table.lags)
    for start in range(0, len(which), _EVAL_ROWS):
        part = slice(start, start + _EVAL_ROWS)
        mu = _mu_from_x(x[part])
        upper = g_alpha(alpha, np.abs(h + mu[:, None] * h_conj)) @ table.weights
        # row j of the upper triangle is one contiguous run; in each C-ordered
        # slab it is column j of the lower triangle of the transposed slab, a
        # Fortran-ordered matrix that LAPACK factors in place
        slabs = buffer[: upper.shape[0]]
        at = 0
        for j in range(m):
            slabs[:, j, j:] = upper[:, at : at + m - j]
            at += m - j
        diag = np.ones((upper.shape[0], m))
        w = np.zeros((upper.shape[0], m))  # a row LAPACK refuses keeps w = 0 and scores +inf
        for r, k in enumerate(which[part]):
            factor, info = dpotrf(slabs[r].T, lower=1, clean=0, overwrite_a=1)
            if info == 0:
                w[r] = dtrtrs(factor, ytilde[k], lower=1)[0]
                diag[r] = np.diagonal(factor)
        quad = np.sum(w * w, axis=1)
        ok = quad > 0
        s_hat[start + np.flatnonzero(ok)] = s = quad[ok] / m
        nll[start + np.flatnonzero(ok)] = (
            np.sum(np.log(diag[ok]), axis=1) + 0.5 * m * np.log(s) + 0.5 * m
        )
    return nll, s_hat


def _newton_lockstep(fun, x0: np.ndarray):
    """Damped Newton descents from every row of x0 (searches x 2), in lockstep.

    fun(search, points) returns the objective at points[i] for search
    search[i].  Each iteration scores the stencil of step _STEP around every
    active search in one call, and takes the gradient and the 2 x 2 Hessian
    from it by central differences.  A Hessian that is not positive definite
    is shifted by twice its lowest eigenvalue (plus a small floor), which
    mirrors negative curvature.  The Newton step is then halved, one call per
    round and at most _MAX_HALVINGS times, until the objective does not rise.
    A search stops when its accepted move is below _XTOL, when no halving
    helps, when its stencil is not finite, or after _MAX_ITER iterations; a
    start where fun is +inf does not move.

    Returns the final points and values, and the evaluations and iterations
    of every search.
    """
    x = np.array(x0, dtype=np.float64)
    f = fun(np.arange(len(x)), x)
    nfev = np.ones(len(x), dtype=int)
    iters = np.zeros(len(x), dtype=int)
    go = np.flatnonzero(np.isfinite(f))
    while go.size:
        iters[go] += 1
        ring = fun(np.repeat(go, 8), (x[go, None] + _STEP * _STENCIL).reshape(-1, 2))
        ring = ring.reshape(go.size, 8)
        nfev[go] += 8
        with np.errstate(invalid="ignore"):  # a stencil point at +inf
            g1 = (ring[:, 0] - ring[:, 1]) / (2.0 * _STEP)
            g2 = (ring[:, 2] - ring[:, 3]) / (2.0 * _STEP)
            a = (ring[:, 0] - 2.0 * f[go] + ring[:, 1]) / _STEP**2
            c = (ring[:, 2] - 2.0 * f[go] + ring[:, 3]) / _STEP**2
            b = (ring[:, 4] - ring[:, 5] - ring[:, 6] + ring[:, 7]) / (4.0 * _STEP**2)
            rad = np.hypot(0.5 * (a - c), b)
            lo, hi = 0.5 * (a + c) - rad, 0.5 * (a + c) + rad
            shift = np.maximum(0.0, 1e-6 * np.maximum(np.abs(hi), 1.0) - 2.0 * lo)
            a, c = a + shift, c + shift
            det = a * c - b * b
            step = -np.column_stack([c * g1 - b * g2, a * g2 - b * g1]) / det[:, None]
        size = np.hypot(step[:, 0], step[:, 1])
        move = np.zeros(go.size)
        trying = np.flatnonzero(np.isfinite(size))
        for _ in range(_MAX_HALVINGS + 1):
            if trying.size == 0:
                break
            points = x[go[trying]] + step[trying]
            value = fun(go[trying], points)
            nfev[go[trying]] += 1
            down = value <= f[go[trying]]
            x[go[trying[down]]], f[go[trying[down]]] = points[down], value[down]
            move[trying[down]] = size[trying[down]]
            trying = trying[~down]
            step[trying] *= 0.5
            size[trying] *= 0.5
            trying = trying[size[trying] >= _XTOL]  # a shorter move would stop the search
        go = go[(move >= _XTOL) & (iters[go] < _MAX_ITER)]
    return x, f, nfev, iters


def _fit_blocks(
    z: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
    alpha: float,
    stats: dict | None = None,
):
    """Anisotropy fits of blocks that share within-block sites z.

    values holds one block per row.  The Newton searches of all blocks start
    at mu = 0 and run in lockstep on the lag table of z.  Returns mu, phi and
    loglik per block, and per block the reason it has no estimate (None when
    it has one).
    """
    n_blocks = values.shape[0]
    mu = np.full(n_blocks, complex(np.nan, np.nan))
    phi = np.full(n_blocks, np.nan)
    loglik = np.full(n_blocks, np.nan)
    reason = [None] * n_blocks
    ytilde = values @ rows.T
    signal = np.all(np.isfinite(ytilde), axis=1) & (np.sum(ytilde**2, axis=1) >= 1e-24)
    for k in np.flatnonzero(~signal):
        reason[k] = "degenerate neighborhood: contrasts carry no signal"
    fit = np.flatnonzero(signal)
    if fit.size == 0:
        return mu, phi, loglik, reason

    table = _lag_table(z, rows)
    ytilde = ytilde[fit]
    x, fval, nfev, iters = _newton_lockstep(
        lambda search, points: _profiled_nll(table, ytilde, alpha, search, points)[0],
        np.zeros((fit.size, 2)),
    )
    if stats is not None:
        stats["nll_evals"] = stats.get("nll_evals", 0) + int(nfev.sum())
        stats["fits_at_maxiter"] = stats.get("fits_at_maxiter", 0) + int(
            np.sum(iters >= _MAX_ITER)
        )
    _, s_hat = _profiled_nll(table, ytilde, alpha, np.arange(fit.size), x)
    for row, k in enumerate(fit):
        if not np.isfinite(fval[row]):
            reason[k] = "anisotropy likelihood infeasible at mu = 0"
            continue
        mu[k] = _mu_from_x(x[row])
        stretch = s_hat[row] ** (1.0 / alpha)
        phi[k] = np.clip(stretch * np.sqrt(1.0 - abs(mu[k]) ** 2), *_PHI_BOUNDS)
        loglik[k] = -float(fval[row])
    return mu, phi, loglik, reason


@dataclass
class DilatationScaleField:
    """Per-neighborhood estimates on the block-center lattice."""

    centers: np.ndarray
    mu: np.ndarray
    phi: np.ndarray
    loglik: np.ndarray
    status: np.ndarray
    alpha_used: float
    geometry: dict = dataclass_field(default_factory=dict)

    def ok_mask(self) -> np.ndarray:
        return np.isin(self.status, (STATUS_OK, STATUS_IMPUTED))

    def to_csv(self, path: str) -> None:
        lines = ["cx,cy,mu_re,mu_im,phi,loglik,status"]
        for k in range(self.centers.size):
            lines.append(
                f"{float(self.centers[k].real)!r},{float(self.centers[k].imag)!r},"
                f"{float(self.mu[k].real)!r},{float(self.mu[k].imag)!r},"
                f"{float(self.phi[k])!r},{float(self.loglik[k])!r},{self.status[k]}"
            )
        atomic_write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path: str, alpha_used: float, geometry: dict | None = None):
        with open(path, "r", encoding="utf-8") as handle:
            lines = [(n, ln.strip()) for n, ln in enumerate(handle, start=1) if ln.strip()]
        if not lines or lines[0][1] != "cx,cy,mu_re,mu_im,phi,loglik,status":
            raise ArtifactError(f"{path}: not a dilatation/scale CSV")
        rows = []
        for number, line in lines[1:]:
            row = line.split(",")
            if len(row) != 7:
                raise ArtifactError(f"{path}: line {number} has {len(row)} fields, expected 7")
            try:
                values = [float(v) for v in row[:6]]
            except ValueError as exc:
                raise ArtifactError(f"{path}: line {number}: {exc}") from None
            if row[6] not in (STATUS_OK, STATUS_MISSING, STATUS_IMPUTED):
                raise ArtifactError(f"{path}: line {number}: unknown status {row[6]!r}")
            if row[6] != STATUS_MISSING and not (
                np.all(np.isfinite(values[:5]))
                and abs(complex(values[2], values[3])) < 1
                and values[4] > 0
            ):
                raise ArtifactError(
                    f"{path}: line {number}: a block with status {row[6]} needs "
                    "a finite center, |mu| < 1 and phi > 0"
                )
            rows.append(values + row[6:])
        centers = np.array([r[0] + 1j * r[1] for r in rows])
        mu = np.array([r[2] + 1j * r[3] for r in rows])
        phi = np.array([r[4] for r in rows])
        loglik = np.array([r[5] for r in rows])
        status = np.array([r[6] for r in rows], dtype=object)
        return cls(centers, mu, phi, loglik, status, alpha_used, geometry or {})


def estimate_field(
    data: SampleField,
    partition: NeighborhoodPartition,
    alpha_hat: float,
    *,
    alpha_max: float = 4.0,
    stats: dict | None = None,
) -> DilatationScaleField:
    """Per-block anisotropy estimates over a whole partition.

    The contrasts have degree floor(alpha_max / 2), as in estimate_alpha.
    The blocks must be translates of one another, as partition_grid makes
    them, so one lag table serves every block (6.4 MB at block 10, growing
    as block^6: 81 MB at 15, 0.47 GB at 20).  Every block is fitted by a
    damped Newton search from mu = 0 on finite differences of the profiled
    likelihood, and the searches of all blocks advance together with one
    batched likelihood evaluation per stencil or step trial.  Blocks whose
    likelihood degenerates are marked missing rather than aborting the
    sweep.  A given stats dict gets the likelihood evaluations (nll_evals,
    stencils and step trials included) and the fits that used all
    _MAX_ITER iterations (fits_at_maxiter).
    """
    rel, values = _shared_blocks(data, partition.blocks)
    rows = increment_matrix(rel, int(np.floor(alpha_max / 2.0))).rows
    mu, phi, loglik, reason = _fit_blocks(rel, rows, values, alpha_hat, stats)
    for k, why in enumerate(reason):
        if why is not None:
            log.warning("block %d marked missing: %s", k, why)
    status = np.array(
        [STATUS_OK if why is None else STATUS_MISSING for why in reason], dtype=object
    )
    return DilatationScaleField(
        centers=partition.centers.copy(),
        mu=mu,
        phi=phi,
        loglik=loglik,
        status=status,
        alpha_used=float(alpha_hat),
        geometry=dict(partition.geometry),
    )
