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
from scipy.linalg.lapack import dpotrf, dtpttr, dtrtrs

from .errors import ArtifactError, EstimationError
from .fields import SampleField, g_alpha
from .grids import atomic_write_text
from .increments import increment_matrix

log = logging.getLogger(__name__)

ALPHA_FLOOR = 0.05
_ALPHA_TOL = 1e-3  # width of the final golden-section bracket on alpha
MU_CAP = 1.0 - 1e-6
# A block's contrasts carry signal when their norm exceeds this multiple of
# the norm of the block's values; below it they are rounding residue, as
# for a constant block, in whatever units the data come.
_SIGNAL_FLOOR = 1e-12

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

    blocks: np.ndarray  # (n_blocks, block * block) flat site indices
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
    sites = np.arange(nx * ny).reshape(nx, ny)[: nbx * block, : nby * block]
    blocks = sites.reshape(nbx, block, nby, block).swapaxes(1, 2).reshape(-1, block * block)
    bx, by = np.divmod(np.arange(nbx * nby), nby)
    half = (block - 1) / 2.0
    centers = np.empty(nbx * nby, dtype=np.complex128)
    centers.real = origin[0] + (bx * block + half) * spacing[0]
    centers.imag = origin[1] + (by * block + half) * spacing[1]
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


def contrast_degree(alpha_max: float, block: int) -> int:
    """Contrast degree floor(alpha_max / 2), which a b x b block holds iff it
    is below 2 (b - 1): the monomials of that degree span all b^2 sites."""
    degree = int(np.floor(alpha_max / 2.0))
    if degree >= 2 * (block - 1):
        raise ValueError(
            f"alpha_max must be below {4 * (block - 1)} for block = {block}, whose blocks "
            f"hold contrasts of degree below {2 * (block - 1)}, got {alpha_max}"
        )
    return degree


def _reflection(z: np.ndarray) -> np.ndarray | None:
    """The pairing of sites z under the point reflection through their mean.

    Returns perm with z[perm] - c = c - z for the mean c, to 1e-9 of the
    site spread, or None when the sites have no such pairing.
    """
    rel = z - z.mean()
    gap = np.abs(rel[:, None] + rel[None, :])
    perm = np.argmin(gap, axis=1)
    tol = 1e-9 * max(float(np.max(np.abs(rel))), 1.0)
    if np.max(gap[np.arange(z.size), perm]) > tol or np.any(perm[perm] != np.arange(z.size)):
        return None
    return perm


def _shared_blocks(
    data: SampleField, partition: NeighborhoodPartition, alpha_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Within-block sites shared by all blocks, contrast rows of degree
    contrast_degree(alpha_max, block), and the contrasts, one block per row.

    Where the sites pair up under their point reflection P, as a block of
    partition_grid's does, the rows are an orthonormal basis of the same
    space made of the eigenvectors of R P R' for increment_matrix's rows R:
    even rows (u[perm] = u) first, then odd ones.  A rotation of the rows
    changes neither the quadratic form nor log|Sigma|.

    Raises ValueError unless every block is a translate of the first.
    """
    degree = contrast_degree(alpha_max, partition.geometry["block"])
    not_translates = "the partition's blocks must be translates of one another"
    try:
        idx = np.asarray(partition.blocks, dtype=np.intp)
    except ValueError:  # a ragged list of blocks
        raise ValueError(not_translates) from None
    z = data.locations[idx]
    rel = z[0] - z[0].mean()
    scale = max(np.max(np.abs(rel)), 1.0)
    if np.max(np.abs(z - z.mean(axis=1, keepdims=True) - rel)) > 1e-9 * scale:
        raise ValueError(not_translates)
    rows = increment_matrix(rel, degree).rows
    perm = _reflection(rel)
    if perm is not None:
        # the polynomials of each degree are closed under z -> -z, so P maps
        # the contrast space to itself and R P R' has eigenvalues -1 and +1
        rows = np.linalg.eigh(rows @ rows[:, perm].T)[1][:, ::-1].T @ rows
    return rel, rows, data.values[idx] @ rows.T


@dataclass(frozen=True)
class BlockContrasts:
    """The contrasts of a partition's blocks, and what both estimators score them on."""

    partition: NeighborhoodPartition
    alpha_max: float
    ytilde: np.ndarray  # (n_blocks, m) contrasts, one block per row
    table: _LagTable  # Sigma_1(mu) of the shared block geometry
    signal: np.ndarray  # (n_blocks,) whether a block's contrasts are finite and above rounding


def block_contrasts(
    data: SampleField, partition: NeighborhoodPartition, alpha_max: float = 4.0
) -> BlockContrasts:
    """Contrasts of degree contrast_degree(alpha_max, block) of every block,
    with the lag table of their shared geometry (3.2 MB at block 10, growing
    as block^6: 41 MB at 15, 0.24 GB at 20).

    Raises ValueError, before any table is built, where the table would
    exceed MAX_LAG_TABLE_BYTES, and unless every block is a translate of
    the first, as partition_grid makes them.  estimate_alpha and
    estimate_field score only the blocks whose contrasts carry signal:
    finite, with a norm above _SIGNAL_FLOOR times that of the block's
    values.
    """
    check_lag_table(alpha_max, partition.geometry["block"])
    rel, rows, ytilde = _shared_blocks(data, partition, alpha_max)
    values = data.values[np.asarray(partition.blocks, dtype=np.intp)]
    signal = np.all(np.isfinite(ytilde), axis=1) & (
        np.sum(ytilde**2, axis=1) > _SIGNAL_FLOOR**2 * np.sum(values**2, axis=1)
    )
    return BlockContrasts(partition, float(alpha_max), ytilde, _lag_table(rel, rows), signal)


def _alpha_nll(alpha: float, table: _LagTable, ytilde: np.ndarray) -> float:
    """Negative restricted log likelihood 0.5 log|Sigma| + 0.5 Ytilde' Sigma^-1 Ytilde
    at index alpha and mu = 0, summed over blocks with contrasts Ytilde the
    rows of ytilde; +inf where LAPACK cannot factorize Sigma = L G_alpha L'."""
    n = len(ytilde)
    half_logdet, quad = _whiten(table, ytilde, alpha, np.arange(n), np.zeros((n, 2)))
    return float(np.sum(half_logdet)) + 0.5 * float(np.sum(quad))


def estimate_alpha(contrasts: BlockContrasts, *, stats: dict | None = None) -> float:
    """Fractal index by golden-section search on the summed block likelihood.

    The search interval is (ALPHA_FLOOR, contrasts.alpha_max].  Each
    candidate alpha is scored at mu = 0 on the lag table and the parity
    factors that estimate_field's fits use, over the blocks whose
    contrasts carry signal.  A given stats dict gets the number of
    candidates scored (alpha_evals) and of those whose likelihood was +inf
    (alpha_infeasible).
    """
    if contrasts.alpha_max <= ALPHA_FLOOR:
        raise ValueError("alpha_max must exceed the search floor 0.05")
    if not contrasts.signal.any():
        raise EstimationError("no block's contrasts carry signal: alpha cannot be estimated")
    ytilde = contrasts.ytilde[contrasts.signal]
    scores = []

    def total(alpha: float) -> float:
        scores.append(_alpha_nll(alpha, contrasts.table, ytilde))
        return scores[-1]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = ALPHA_FLOOR, float(contrasts.alpha_max)
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
    if not np.isfinite(min(fc, fd)):
        raise EstimationError("alpha likelihood was infeasible over the whole range")
    return float(0.5 * (a + b))


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

# A whole Newton step shorter than this, once accepted, ends its search:
# near the optimum each step is within a small factor of the square of the
# one before, so the next would fall below _XTOL.
_CONVERGED_STEP = 3e-4

# the symmetric 6-point stencil +-e1, +-e2, +-(e1 + e2): with the centre it
# gives every first and second derivative to second order
_STENCIL = np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]], dtype=np.float64)

# Distinct search points per batched evaluation.  Each holds one row of the
# kernel-to-Sigma product (46 * 47 / 2 + 48 * 49 / 2 = 2257 values, 18 kB
# at block 10), so a chunk stays near 1 MB.
_EVAL_ROWS = 64

# The largest lag table a block size and contrast degree may need, checked
# before any table is built (lag_table_bytes): block 25 at alpha_max 4 needs
# 0.86 GiB, block 30 2.7 GiB.
MAX_LAG_TABLE_BYTES = 1 << 30


def _modulus(z: np.ndarray) -> np.ndarray:
    # hypot, as Python's abs() of a complex uses; np.abs can round differently
    return np.hypot(z.real, z.imag)


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
    over = _modulus(mu) > MU_CAP
    scale = MU_CAP / _modulus(mu[over])
    # the rescaled modulus can round to just above the cap
    while np.any(high := _modulus(mu[over] * scale) > MU_CAP):
        scale[high] = np.nextafter(scale[high], 0.0)
    mu[over] *= scale
    return complex(mu[0]) if x.ndim == 1 else mu


@dataclass(frozen=True)
class _LagTable:
    """Sigma_1(mu) of one block geometry as a linear map of kernel values.

    A kernel entry depends on a site pair only through its offset h, and
    |h + mu conj(h)| is even in h, so the pairs fall into classes of offsets
    +-h; the zero offset adds nothing, since G(0) = 0.  For the same reason
    Sigma_1 has no entries between an even and an odd contrast row, and the
    rows split into groups: the even rows, then the odd ones, of rows that
    are each even or odd (as _shared_blocks makes them), else all rows.
    Row l of weights is, group by group, the upper triangle, row by row, of
    R_g P_l R_g' for the rows R_g of group g and the 0/1 matrix P_l of the
    pairs in class l, so the upper triangles of the diagonal blocks of
    Sigma_1 are G(|h_l + mu conj(h_l)|) @ weights.  Sigma_1 is symmetric,
    so a group's run of that product is also its lower triangle column by
    column: LAPACK's packed storage with uplo "L", which dtpttr unpacks.
    """

    lags: np.ndarray  # (classes,) one offset h_l per class
    groups: tuple[slice, ...]  # the rows of each diagonal block
    weights: np.ndarray  # (classes, sum over groups of m_g (m_g + 1) / 2)


def lag_table_bytes(alpha_max: float, block: int) -> int:
    """Bytes of the lag table of a block x block square of sites with
    contrasts of degree contrast_degree(alpha_max, block), as _lag_table
    shapes it: classes x packed columns of both parity groups x 8.

    On the square's sites the monomials x^i y^j with i, j < block are
    independent, and a higher power of x or y reduces to lower ones of its
    own parity, so the even contrasts number the even sites less the even
    monomials x^i y^j with i, j < block and i + j <= degree, and the odd
    ones likewise.  (increment_matrix's numerical rank can fall short of
    that count at degrees near 2 (block - 1) on large blocks, where the
    table is far below the cap.)  Raises ValueError where contrast_degree
    does.
    """
    degree = contrast_degree(alpha_max, block)
    monomials = [0, 0]  # even, odd
    for i in range(min(block, degree + 1)):
        for j in range(min(block, degree - i + 1)):
            monomials[(i + j) % 2] += 1
    sites = block * block
    even, odd = (sites + 1) // 2 - monomials[0], sites // 2 - monomials[1]
    classes = ((2 * block - 1) ** 2 - 1) // 2
    return classes * (even * (even + 1) // 2 + odd * (odd + 1) // 2) * 8


def check_lag_table(alpha_max: float, block: int) -> None:
    """Raise ValueError, naming the size, where lag_table_bytes exceeds
    MAX_LAG_TABLE_BYTES, or where contrast_degree raises."""
    size = lag_table_bytes(alpha_max, block)
    if size > MAX_LAG_TABLE_BYTES:
        raise ValueError(
            f"block = {block} with alpha_max = {alpha_max} needs a lag table of "
            f"{size / 2**30:.2f} GiB, above the cap of {MAX_LAG_TABLE_BYTES / 2**30:g} GiB; "
            "use a smaller block"
        )


def _lag_table(z: np.ndarray, rows: np.ndarray) -> _LagTable:
    """The lag table of sites z with contrast rows `rows` (m x n).

    A b x b block has ((2b - 1)^2 - 1) / 2 classes.  With the rows split
    into two groups the table holds about 0.4 b^6 float64 values: 3.2 MB at
    block 10, 41 MB at block 15 and 0.24 GB at block 20.
    """
    n, m = z.size, rows.shape[0]
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
    groups = (slice(0, m),)
    perm = _reflection(z)
    if perm is not None:
        parity = np.sum(rows * rows[:, perm], axis=1)  # +1 on an even row, -1 on an odd one
        even = int(np.sum(parity > 0))
        if np.max(np.abs(parity - np.where(np.arange(m) < even, 1.0, -1.0))) < 1e-9:
            groups = tuple(g for g in (slice(0, even), slice(even, m)) if g.stop > g.start)
    # flat indices, row by row, of the upper triangles of the diagonal blocks
    block = np.zeros((m, m), dtype=bool)
    for g in groups:
        block[g, g] = True
    upper = np.flatnonzero(np.triu(block))
    weights = np.empty((first.size, upper.size))
    for cl in range(first.size):
        sel = order[edges[cl] : edges[cl + 1]]
        weights[cl] = (rows[:, p[sel]] @ rows[:, q[sel]].T).ravel()[upper]
    return _LagTable(lags, groups, weights)


def _point_groups(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of x, sorted, and the index of each row's point among them.

    Rows that all sit at one point, as the alpha search's do, skip the sort.
    """
    if len(x) and np.all(x == x[0]):
        return x[:1], np.zeros(len(x), dtype=np.intp)
    points, point_of = np.unique(x, axis=0, return_inverse=True)
    return points, point_of.ravel()


def _whiten(
    table: _LagTable,
    ytilde: np.ndarray,
    alpha: float,
    which: np.ndarray,
    x: np.ndarray,
    product: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """0.5 log|Sigma_1| and the quadratic form Ytilde' Sigma_1^-1 Ytilde at search points x.

    Row i scores point x[i] on the contrasts ytilde[which[i]].  Sigma_1 is
    block-diagonal over the table's row groups, so each group at a point
    has its own factor and its own triangular solve of the contrasts of
    all rows at that point.  The points go in chunks of _EVAL_ROWS: a
    chunk gathers the contrasts of its rows, whitens them, and reduces
    them and its factor diagonals to the quadratic forms and log
    determinants.  The log determinant is +inf where LAPACK cannot
    factorize Sigma_1.  ``product``, of at least _EVAL_ROWS rows and a
    column per table weight, holds the kernel-to-Sigma product; without it
    the call allocates its own.
    """
    m = ytilde.shape[1]
    points, point_of = _point_groups(x)
    order = np.argsort(point_of, kind="stable")
    edges = np.searchsorted(point_of[order], np.arange(len(points) + 1))
    # one product and one diagonal buffer for every chunk, and with
    # `product` for every call of a fit: fresh pages would be faulted in
    # each time
    if product is None:
        product = np.empty((min(len(points), _EVAL_ROWS), table.weights.shape[1]))
    diag = np.empty((min(len(points), _EVAL_ROWS), m))
    half_logdet = np.empty(len(points))
    quad = np.empty(len(which))
    packs, at = [], 0
    for group in table.groups:
        size = group.stop - group.start
        packs.append((group, size, slice(at, at + size * (size + 1) // 2)))
        at += size * (size + 1) // 2
    h, h_conj = table.lags, np.conj(table.lags)
    for start in range(0, len(points), _EVAL_ROWS):
        mu = _mu_from_x(points[start : start + _EVAL_ROWS])
        kernel = g_alpha(alpha, np.abs(h + mu[:, None] * h_conj))
        upper = np.matmul(kernel, table.weights, out=product[: mu.size])
        first = edges[start]
        chunk = order[first : edges[start + mu.size]]
        white = ytilde[which[chunk]]  # the chunk's rows in point order, whitened in place
        for k in range(mu.size):
            rows = slice(edges[start + k] - first, edges[start + k + 1] - first)
            for group, size, pack in packs:
                lower = dtpttr(size, upper[k, pack], uplo="L")[0]
                factor, info = dpotrf(lower, lower=1, clean=0, overwrite_a=1)
                if info:
                    diag[k] = np.inf
                    break
                white[rows, group] = dtrtrs(factor, white[rows, group].T, lower=1)[0].T
                diag[k, group] = factor.diagonal()
        half_logdet[start : start + mu.size] = np.sum(np.log(diag[: mu.size]), axis=1)
        quad[chunk] = np.sum(white * white, axis=1)
    return half_logdet[point_of], quad


def _profiled_nll(
    table: _LagTable,
    ytilde: np.ndarray,
    alpha: float,
    which: np.ndarray,
    x: np.ndarray,
    product: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Profiled negative log likelihood and scale at search points x, as
    _whiten scores them.  The value is +inf where LAPACK cannot factorize
    Sigma_1."""
    m = ytilde.shape[1]
    half_logdet, quad = _whiten(table, ytilde, alpha, which, x, product)
    ok = np.isfinite(half_logdet) & (quad > 0)
    s_hat = np.where(ok, quad / m, 1.0)
    nll = np.full(len(which), np.inf)
    nll[ok] = half_logdet[ok] + 0.5 * m * np.log(s_hat[ok]) + 0.5 * m
    return nll, s_hat


def _newton_lockstep(fun, x0: np.ndarray):
    """Damped Newton descents from every row of x0 (searches x 2), in lockstep.

    fun(search, points) returns the objective at points[i] for search
    search[i].  Each iteration scores the 6-point stencil of step _STEP
    around every active search in one call, and takes the gradient and the
    2 x 2 Hessian from it by central differences, all to second order.  A
    Hessian that is not positive definite is shifted by twice its lowest
    eigenvalue (plus a small floor), which mirrors negative curvature.  The
    Newton step is then halved, one call per round and at most _MAX_HALVINGS
    times, until the objective does not rise; a step shorter than _XTOL is
    not scored.  A search stops when it accepts no move of at least _XTOL,
    when it accepts a whole Newton step shorter than _CONVERGED_STEP, when
    its stencil is not finite, or after _MAX_ITER iterations; a start where
    fun is +inf does not move.

    Returns the final points and values, and the evaluations and iterations
    of every search.
    """
    x = np.array(x0, dtype=np.float64)
    f = fun(np.arange(len(x)), x)
    nfev = np.ones(len(x), dtype=int)
    iters = np.zeros(len(x), dtype=int)
    go = np.flatnonzero(np.isfinite(f))
    ring_size = len(_STENCIL)
    while go.size:
        iters[go] += 1
        ring = fun(np.repeat(go, ring_size), (x[go, None] + _STEP * _STENCIL).reshape(-1, 2))
        ring = ring.reshape(go.size, ring_size)
        nfev[go] += ring_size
        with np.errstate(invalid="ignore"):  # a stencil point at +inf
            g1 = (ring[:, 0] - ring[:, 1]) / (2.0 * _STEP)
            g2 = (ring[:, 2] - ring[:, 3]) / (2.0 * _STEP)
            a = (ring[:, 0] - 2.0 * f[go] + ring[:, 1]) / _STEP**2
            c = (ring[:, 2] - 2.0 * f[go] + ring[:, 3]) / _STEP**2
            # the curvature along e1 + e2 is a + 2 b + c
            b = 0.5 * ((ring[:, 4] - 2.0 * f[go] + ring[:, 5]) / _STEP**2 - a - c)
            rad = np.hypot(0.5 * (a - c), b)
            lo, hi = 0.5 * (a + c) - rad, 0.5 * (a + c) + rad
            shift = np.maximum(0.0, 1e-6 * np.maximum(np.abs(hi), 1.0) - 2.0 * lo)
            a, c = a + shift, c + shift
            det = a * c - b * b
            step = -np.column_stack([c * g1 - b * g2, a * g2 - b * g1]) / det[:, None]
        size = np.hypot(step[:, 0], step[:, 1])
        newton = size.copy()
        move = np.zeros(go.size)
        trying = np.flatnonzero(np.isfinite(size) & (size >= _XTOL))
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
        converged = (move == newton) & (move < _CONVERGED_STEP)
        go = go[(move >= _XTOL) & ~converged & (iters[go] < _MAX_ITER)]
    return x, f, nfev, iters


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
        c, mu = self.centers, self.mu
        numbers = np.column_stack((c.real, c.imag, mu.real, mu.imag, self.phi, self.loglik))
        lines = [",".join([*map(repr, row), s]) for row, s in zip(numbers.tolist(), self.status)]
        atomic_write_text(path, "\n".join(["cx,cy,mu_re,mu_im,phi,loglik,status", *lines]) + "\n")

    @classmethod
    def from_csv(cls, path: str, alpha_used: float, geometry: dict | None = None):
        with open(path, "r", encoding="utf-8") as handle:
            lines = [(n, ln.strip()) for n, ln in enumerate(handle, start=1) if ln.strip()]
        if not lines or lines[0][1] != "cx,cy,mu_re,mu_im,phi,loglik,status":
            raise ArtifactError(f"{path}: not a dilatation/scale CSV")
        numbers, status = [], []
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
            numbers.append(values)
            status.append(row[6])
        cx, cy, mu_re, mu_im, phi, loglik = np.array(numbers).reshape(-1, 6).T.copy()
        centers, mu = cx + 1j * cy, mu_re + 1j * mu_im
        status = np.array(status, dtype=object)
        return cls(centers, mu, phi, loglik, status, alpha_used, geometry or {})


def estimate_field(
    contrasts: BlockContrasts, alpha_hat: float, *, stats: dict | None = None
) -> DilatationScaleField:
    """Per-block anisotropy estimates over a whole partition.

    Every block whose contrasts carry signal is fitted by a damped Newton
    search from mu = 0 on 6-point finite differences of the profiled
    likelihood (see _newton_lockstep).  The searches of all blocks advance
    together on the lag table of `contrasts`, with one batched likelihood
    evaluation per stencil or step trial, in which blocks at the same
    search point share one factor per parity group of the contrasts.
    Blocks without signal, or whose likelihood degenerates, are marked
    missing rather than aborting the sweep.  A given stats dict gets the
    likelihood evaluations (nll_evals: the starts, stencil points and step
    trials of at least _XTOL) and the fits that used all _MAX_ITER
    iterations (fits_at_maxiter).
    """
    table, partition = contrasts.table, contrasts.partition
    n_blocks = partition.n_blocks
    mu = np.full(n_blocks, complex(np.nan, np.nan))
    phi = np.full(n_blocks, np.nan)
    loglik = np.full(n_blocks, np.nan)
    status = np.full(n_blocks, STATUS_MISSING, dtype=object)
    fit = np.flatnonzero(contrasts.signal)
    ytilde = contrasts.ytilde[fit]
    product = np.empty((_EVAL_ROWS, table.weights.shape[1]))
    x, fval, nfev, iters = _newton_lockstep(
        lambda search, points: _profiled_nll(table, ytilde, alpha_hat, search, points, product)[0],
        np.zeros((fit.size, 2)),
    )
    if stats is not None:
        stats["nll_evals"] = stats.get("nll_evals", 0) + int(nfev.sum())
        stats["fits_at_maxiter"] = stats.get("fits_at_maxiter", 0) + int(
            np.sum(iters >= _MAX_ITER)
        )
    _, s_hat = _profiled_nll(table, ytilde, alpha_hat, np.arange(fit.size), x, product)
    found = np.isfinite(fval)
    done = fit[found]
    status[done] = STATUS_OK
    mu[done] = _mu_from_x(x[found])
    stretch = s_hat[found] ** (1.0 / alpha_hat)
    phi[done] = np.clip(stretch * np.sqrt(1.0 - _modulus(mu[done]) ** 2), *_PHI_BOUNDS)
    loglik[done] = -fval[found]
    for k in np.flatnonzero(~contrasts.signal):
        log.warning("block %d marked missing: contrasts carry no signal", k)
    for k in fit[~found]:
        log.warning("block %d marked missing: anisotropy likelihood infeasible at mu = 0", k)
    return DilatationScaleField(
        centers=partition.centers.copy(),
        mu=mu,
        phi=phi,
        loglik=loglik,
        status=status,
        alpha_used=float(alpha_hat),
        geometry=dict(partition.geometry),
    )
