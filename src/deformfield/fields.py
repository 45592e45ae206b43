"""Isotropic covariance families, Gaussian field simulation, planar
deformations, and finite-difference measurement of dilatation and scale.

Model: an isotropic Gaussian field Z on the plane whose covariance
K(t) behaves near the origin like

    K(t) = (even polynomial in t) + c * G_alpha(t) + o(|t|^alpha),

where G_alpha is the fractal-index kernel below.  Observations are
Y(z) = Z(finv(z)) for an orientation-preserving deformation finv, so
simulation evaluates Z at the deformed locations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dlange, dpotrf, dtrtrs

from .errors import OrientationError, SimulationError
from .grids import ComplexGrid, Grid, grid_sample

log = logging.getLogger(__name__)

POWERED_EXPONENTIAL = "powered-exponential"
MATERN = "matern"
POLY_FRACTIONAL = "polynomial-plus-fractional"

#: Jitter ladder of simulation's covariance factorizations, as multiples of
#: the covariance's largest diagonal entry (the variance).
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)

#: Simulation tiles that one rigid motion carries onto each other within
#: this multiple of the first tile's reach (its largest distance from its
#: first site) are congruent and share one covariance factor; see
#: congruent_tiles.  Strips of a tile that repeat as closely share one block
#: row of its covariance; see _strip.
CONGRUENCE_TOL = 1e-12

#: The Matern-form families sum K as a power series in (t / range)^2 up to
#: t / range = SERIES_X and take special.kv beyond it, where the series'
#: two sums cancel.  The series also gives way to kv for nu = alpha / 2
#: with |sin(nu pi)| < SERIES_SIN, as its error grows like 1 / |sin(nu pi)|.
#: Against kv on x in (0, SERIES_X], the series is within 1.6e-13 of the
#: variance over a grid of 8000 nu in (0, 40) that it serves, and within
#: 1.1e-14 at nu = 0.35.
SERIES_X = 3.0
SERIES_SIN = 0.1
#: Terms of each sum: at t / range = SERIES_X, 15 leave a truncation error of
#: 1.5e-13 of the variance (near nu = 8) and 16 reach the rounding floor.
SERIES_TERMS = 16
#: Entries summed per pass, so the Horner accumulators stay in cache.
SERIES_CHUNK = 32768

#: Rows of a simulation tile's covariance whose kernel values are evaluated
#: in one array, so the temporaries stay small against the tile's matrix.
SLAB_ROWS = 64

#: Fewest sites in one strip of a tile's block Schur draw, so the draw
#: takes few, large steps; see _strip.
MIN_STRIP = 32

#: Largest accuracy indicator of a block Schur pass, eps times the product
#: over its steps of ||C^-1||_1 (C = chol(I - K K'), whose inverse each
#: step solves for anyway).  Above it the rotations may have lost accuracy,
#: and the group is drawn again as one strip.  The tiles of the
#: benchmark workloads and of the 400 x 400 config stay below 7e-14.
SCHUR_INDICATOR_MAX = 1e-12

#: Most locations in one tile, drawn by one exact factorization; the config
#: refuses a lattice whose exact draw or largest tile is larger up front.
MAX_EXACT_SIM = 20000


def g_alpha(alpha: float, t) -> np.ndarray | float:
    """Fractal-index kernel G_alpha.

    G_alpha(t) = (-1)^(1+floor(alpha/2)) |t|^alpha          (alpha/2 not integer)
    G_alpha(t) = (-1)^(1+alpha/2) |t|^alpha log|t|           (alpha/2 integer)

    with G_alpha(0) = 0.  The sign is chosen so that contrast matrices of
    degree >= floor(alpha/2) turn G_alpha into a positive definite form.
    """
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    t = np.abs(np.asarray(t, dtype=np.float64))
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    half = alpha / 2.0
    if half == int(half):
        sign = (-1.0) ** (1 + int(half))
        out = np.zeros_like(t)
        nz = t > 0
        out[nz] = sign * t[nz] ** alpha * np.log(t[nz])
    else:
        sign = (-1.0) ** (1 + int(np.floor(half)))
        out = sign * t**alpha
    return out[0] if scalar else out


@dataclass(frozen=True)
class CovarianceModel:
    """Isotropic covariance with known fractal index alpha and coefficient c.

    Families and their (alpha, c):

    powered-exponential   K(t) = v * exp(-(t/rho)^gamma), gamma in (0, 2);
                          alpha = gamma, c = v / rho^gamma.
    matern                K(t) = v * 2^(1-nu)/Gamma(nu) * (t/rho)^nu K_nu(t/rho)
                          with non-integer nu; alpha = 2 nu and
                          c = v * |Gamma(1-nu)| / (Gamma(1+nu) * (2 rho)^alpha).
    polynomial-plus-fractional
                          the matern form re-parameterized by (v, alpha, c):
                          nu = alpha/2 and rho solved in closed form so the
                          fractional term has coefficient exactly c.  Its
                          expansion is v + (even polynomial) + c*G_alpha(t)
                          + o(|t|^alpha).
    """

    family: str
    variance: float
    range: float
    alpha: float
    c: float

    def __post_init__(self):
        # The family is built from range (powered-exponential, matern) or from
        # c (polynomial-plus-fractional); the other is derived only once every
        # rule below holds, over whatever was passed (the classmethods pass None).
        families = (POWERED_EXPONENTIAL, MATERN, POLY_FRACTIONAL)
        if self.family not in families:
            expected = ", ".join(families)
            raise ValueError(f"unknown family {self.family!r}; expected one of {expected}")
        given, derived = ("c", "range") if self.family == POLY_FRACTIONAL else ("range", "c")
        for name in ("variance", given, "alpha"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.family == POWERED_EXPONENTIAL and not self.alpha < 2.0:
            raise ValueError(f"alpha must be below 2 for {self.family}, got {self.alpha}")
        if self.family != POWERED_EXPONENTIAL and (self.alpha / 2.0).is_integer():
            raise ValueError(
                f"alpha must not be an even integer for {self.family}, got {self.alpha}"
            )
        v, a, nu = np.float64(self.variance), self.alpha, self.alpha / 2.0
        with np.errstate(all="ignore"):  # overflow and underflow end in the check below
            if self.family == POWERED_EXPONENTIAL:
                value = v / np.float64(self.range) ** a
            else:
                num, den = v * abs(special.gamma(1.0 - nu)), special.gamma(1.0 + nu)
                if self.family == MATERN:
                    value = num / (den * (2.0 * np.float64(self.range)) ** a)
                else:
                    value = 0.5 * (num / (den * self.c)) ** (1.0 / a)
        if not 0.0 < value < np.inf:
            raise ValueError(f"{given} must give a positive finite {derived}, got {value}")
        object.__setattr__(self, derived, float(value))

    @classmethod
    def powered_exponential(cls, variance: float, range: float, gamma: float):
        return cls(POWERED_EXPONENTIAL, variance, range, gamma, None)

    @classmethod
    def matern(cls, variance: float, range: float, nu: float):
        return cls(MATERN, variance, range, 2.0 * nu, None)

    @classmethod
    def polynomial_plus_fractional(cls, variance: float, alpha: float, c: float = 1.0):
        return cls(POLY_FRACTIONAL, variance, None, alpha, c)


def covariance_eval(model: CovarianceModel, t) -> np.ndarray | float:
    """Evaluate K(t) at distances t >= 0, entry by entry.

    Each entry's value depends on that entry alone, never on which other
    entries share the array.  Every family overwrites one private copy of
    t in place, except where special.kv serves the Matern form.
    """
    t = np.abs(np.asarray(t, dtype=np.float64), order="C")  # a private copy, reused in place
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    x = t.reshape(-1)  # a view of t, which is C-ordered
    x /= model.range
    out = t
    if model.family == POWERED_EXPONENTIAL:
        x **= model.alpha
        np.negative(x, out=x)
        np.exp(x, out=x)
        x *= model.variance
    elif abs(np.sin(np.pi * model.alpha / 2.0)) < SERIES_SIN:
        out = _matern_kv(model, x).reshape(t.shape)
    else:
        _matern_series(model, x)
    return out[0] if scalar else out


def _matern_kv(model: CovarianceModel, x: np.ndarray) -> np.ndarray:
    """The Matern form at scaled distances x = t / range, by special.kv."""
    nu = model.alpha / 2.0
    out = np.full_like(x, model.variance)
    nz = x > 0
    xnz = x[nz]
    out[nz] = (
        model.variance
        * 2.0 ** (1.0 - nu)
        / special.gamma(nu)
        * xnz**nu
        * special.kv(nu, xnz)
    )
    # kv underflows to 0 for large arguments, which is the right limit
    out[nz] = np.where(np.isfinite(out[nz]), out[nz], 0.0)
    return out


def _matern_series(model: CovarianceModel, x: np.ndarray) -> None:
    """Overwrite scaled distances x = t / range with the Matern form.

    With y = (x/2)^2 and Gamma(nu) Gamma(1-nu) = pi / sin(nu pi), the
    series of I_nu and I_-nu (DLMF 10.25.2, 10.27.4; Abramowitz & Stegun
    9.6.2, 9.6.10) give, for non-integer nu,

        K = v Gamma(1-nu) (sum_k a_k y^k - y^nu sum_k b_k y^k),
        a_k = 1 / (k! Gamma(k-nu+1)),  b_k = 1 / (k! Gamma(k+nu+1)).

    Both sums run to SERIES_TERMS by Horner, SERIES_CHUNK entries at a time
    so the accumulators stay in cache.  Entries past SERIES_X, where the
    sums cancel, take special.kv instead.
    """
    nu = model.alpha / 2.0
    # v Gamma(1-nu) a_k and v Gamma(1-nu) b_k by their term ratios, so a_0 = v
    # and the diagonal is exactly the variance
    a = np.empty(SERIES_TERMS)
    b = np.empty(SERIES_TERMS)
    a[0] = model.variance
    b[0] = model.variance * special.gamma(1.0 - nu) / special.gamma(1.0 + nu)
    for k in range(1, SERIES_TERMS):
        a[k] = a[k - 1] / (k * (k - nu))
        b[k] = b[k - 1] / (k * (k + nu))
    for start in range(0, x.size, SERIES_CHUNK):
        y = x[start : start + SERIES_CHUNK]
        far = y > SERIES_X
        far_k = _matern_kv(model, y[far]) if far.any() else None
        sa = np.full(y.size, a[-1])
        sb = np.full(y.size, b[-1])
        with np.errstate(over="ignore", invalid="ignore"):  # far entries are replaced below
            y *= 0.5
            np.square(y, out=y)
            for k in range(SERIES_TERMS - 2, -1, -1):
                sa *= y
                sa += a[k]
                sb *= y
                sb += b[k]
            np.power(y, nu, out=y)
            sb *= y
            np.subtract(sa, sb, out=y)
        if far_k is not None:
            y[far] = far_k


# ---------------------------------------------------------------------------
# Simulation


@dataclass
class SampleField:
    """Scattered observations: values Y_i at complex locations z_i."""

    locations: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.locations = np.asarray(self.locations, dtype=np.complex128).ravel()
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if self.locations.shape != self.values.shape:
            raise ValueError("locations and values must have equal length")

    def __len__(self) -> int:
        return self.locations.size


def _rigid_repeat(strips: np.ndarray, tol: float) -> bool:
    """Whether one proper rigid motion carries each row of strips onto the next.

    The motion z -> a z + c (|a| = 1) that best carries rows 0 .. m - 2
    onto rows 1 .. m - 1, site by site in least squares, must carry row 0
    onto every row r when applied r times, each site within tol; every
    distance between rows r and r + q then agrees within 2 tol with the
    same pair between rows 0 and q.
    """
    src, dst = strips[:-1].ravel(), strips[1:].ravel()
    a = np.vdot(src - src.mean(), dst - dst.mean())
    a = a / abs(a) if a else 1.0
    c = dst.mean() - a * src.mean()
    turn = a ** np.arange(len(strips))
    shift = c * np.cumsum(np.concatenate(([0.0], turn[:-1])))  # c (1 + a + ... + a^(r-1))
    return bool(np.max(np.abs(strips - (turn[:, None] * strips[0] + shift[:, None]))) <= tol)


def _strip(locations: np.ndarray) -> int:
    """Sites per strip of a tile's block Schur draw: the smallest s >= MIN_STRIP
    dividing n whose strips of s sites (strip r holds sites r s .. r s + s - 1)
    repeat under one rigid motion (_rigid_repeat) within CONGRUENCE_TOL times
    the tile's reach, its largest distance from its first site; n, one strip
    and the dense draw, when no s < n does."""
    n = locations.size
    tol = CONGRUENCE_TOL * float(np.max(np.abs(locations - locations[0])))
    for s in range(MIN_STRIP, n):
        if n % s == 0 and _rigid_repeat(locations.reshape(-1, s), tol):
            return s
    return n


def _covariance_upper(
    model: CovarianceModel,
    locations: np.ndarray,
    diagonal: float,
    stats: dict | None = None,
    rows: int | None = None,
) -> np.ndarray:
    """Covariance K(|z_i - z_j|) between complex locations, upper triangle only.

    Returns the first ``rows`` rows (every row by default) of a zeroed
    C-ordered matrix with ``diagonal`` on its diagonal.  K is evaluated
    SLAB_ROWS rows at a time on the distances from those rows to every
    later site, so every entry above the diagonal is bit-identical to
    covariance_eval on the full distance matrix.  Below the diagonal the
    matrix stays zero: the upper triangle is the lower triangle of the
    Fortran-ordered transpose that dpotrf reads.  A given stats dict gets
    the number of kernel values evaluated (kernel_entries).
    """
    n = locations.size
    cov = np.zeros((n if rows is None else rows, n))
    for top in range(0, cov.shape[0], SLAB_ROWS):
        band = slice(top, min(top + SLAB_ROWS, cov.shape[0]))
        slab = covariance_eval(model, np.abs(locations[top:] - locations[band, None]))
        head = slab[:, : band.stop - top]  # the slab's own square on the diagonal
        head[np.tril_indices_from(head, -1)] = 0.0
        np.fill_diagonal(head, diagonal)
        cov[band, top:] = slab
        if stats is not None:
            stats["kernel_entries"] = stats.get("kernel_entries", 0) + slab.size
    return cov


def _schur_draw(row: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, float] | None:
    """L z for each row z of normals, L the lower Cholesky factor of the
    symmetric block-Toeplitz matrix T with first block row ``row``, and the
    pass's accuracy indicator eps prod ||C^-1||_1; None when a step fails.

    ``row`` is [A_0 ... A_{m-1}] on strips of s sites, with A_0's upper
    triangle only.  It is overwritten by X and dropped once the generator
    holds X, so with the caller keeping no reference to it the working set
    peaks near 4 s n doubles and the draws; one strip (s = n) takes no
    steps, and its draws are z L0', the dense factor's.  The generalized Schur algorithm
    (Kailath & Sayed, SIAM Review 37, 1995; Golub & Van Loan 4.7) starts
    from A_0 = L0 L0' and the generator X = L0^-1 [A_0 ... A_{m-1}],
    Y = L0^-1 [0 A_1 ... A_{m-1}], for which T - Z T Z' = X'X - Y'Y with Z
    the shift down by one block; X is block row 0 of R = L'.  Step k
    shifts X right by one block and, with a and b the leading blocks of X
    and Y, applies the hyperbolic rotation that zeroes b:

        r = chol(a'a - b'b) upper,  K = b a^-1,  C = chol(I - K K') lower,
        [X; Y] <- [[r^-T a', -r^-T b'], [-C^-1 K, C^-1]] [X; Y].

    The new X is block row k of R, with leading block r, and the draws
    gain X' z_k for block k of each z, so L z = R' z is summed one block
    row at a time and no n x n matrix is built.  Each step's X goes to
    columns s.. of one of two 2s x n buffers and its Y to columns 0.., so
    the next step's pair, X shifted and Y past its zeroed block, is one
    view of that buffer.  A step fails when dpotrf or dtrtrs returns a
    nonzero info.  Each step's rotation has a norm near 2 / sigma_min(C),
    and the explicit form of the rotations passes that growth on to the
    next steps, so the indicator multiplies it up over the pass; it guides,
    it does not bound.
    """
    s, n = row.shape
    # in place where A_0 is contiguous, so one strip's factor is the row itself
    factor, info = dpotrf(row[:, :s].T, lower=1, clean=1, overwrite_a=1)
    if info:
        return None
    a = row[:, :s] = factor.T  # numpy copies nothing where the factor is the row
    row[:, s:] = dtrsm(1.0, factor, row[:, s:].T, side=1, lower=1, trans_a=1).T
    draws = normals[:, :s] @ row  # the row is X now
    if s == n:
        return draws, np.finfo(float).eps
    cur = np.empty((2 * s, n))
    cur[:s, s:] = row[:, : n - s]
    cur[s:, s:] = row[:, s:]
    del row  # before the second buffer is allocated
    nxt = np.empty((2 * s, n))
    eye = np.eye(s)
    growth = 1.0  # prod ||C^-1||_1 over the pass
    for k in range(1, n // s):
        width = n - k * s
        gen = cur[:, s : s + width]
        b = gen[s:, :s]
        k_t, info = dtrtrs(a, b.T, lower=0, trans=1)  # K' = a^-T b'
        if info:
            return None
        r, info = dpotrf(a.T @ a - b.T @ b, lower=0, clean=1)
        if info:
            return None
        c, info = dpotrf(eye - k_t.T @ k_t, lower=1, clean=1)
        if info:
            return None
        x, y = nxt[:s, s : s + width], nxt[s:, :width]
        np.matmul(dtrtrs(r, np.hstack([a.T, -b.T]), lower=0, trans=1)[0], gen, out=x)
        lower = dtrtrs(c, np.hstack([-k_t.T, eye]), lower=1)[0]  # [-C^-1 K, C^-1]
        growth *= dlange("1", lower[:, s:])
        np.matmul(lower, gen, out=y)
        x[:, :s] = r
        draws[:, k * s :] += normals[:, k * s : (k + 1) * s] @ x
        a = r
        cur, nxt = nxt, cur
    return draws, np.finfo(float).eps * growth


def _draw_tile(
    model: CovarianceModel,
    locations: np.ndarray,
    normals: np.ndarray,
    stats: dict | None = None,
    strip: int | None = None,
) -> tuple[np.ndarray, int]:
    """L z for each row z of normals, L the lower Cholesky factor of a
    tile's covariance, and the JITTER_LADDER rung it took.

    Each rung builds the first block row of the covariance afresh (s x n
    for _strip's s sites; the whole matrix for a tile of one strip), with
    jitter times the variance added to its diagonal, and draws by
    _schur_draw.  A draw whose indicator exceeds SCHUR_INDICATOR_MAX is
    drawn again as one strip (strip = n), from the first rung.  A failed
    rung's matrix is dropped, not restored.  When every rung fails, the
    dense unjittered matrix is built once more for the spectrum that the
    error reports.  A given stats dict gets the kernel values that every
    rung's build evaluated (kernel_entries) and the draws done again as
    one strip (schur_redrawn).
    """
    n = locations.size
    strip = _strip(locations) if strip is None else strip
    v = model.variance
    for rung, jitter in enumerate(JITTER_LADDER):
        # the row is passed on, not kept, so the draw can drop it early
        drawn = _schur_draw(
            _covariance_upper(model, locations, v + jitter * v, stats, rows=strip), normals
        )
        if drawn is None:
            continue
        if drawn[1] <= SCHUR_INDICATOR_MAX:
            return drawn[0], rung
        del drawn  # before the one strip's matrix is built
        if stats is not None:
            stats["schur_redrawn"] = stats.get("schur_redrawn", 0) + 1
        return _draw_tile(model, locations, normals, stats, strip=n)
    eigs = np.linalg.eigvalsh(_covariance_upper(model, locations, v), UPLO="U")
    raise SimulationError(
        f"covariance factorization failed for a {n}x{n} matrix "
        f"even with jitter {JITTER_LADDER[-1] * v:g}; "
        f"eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
    )


def simulate_isotropic(
    model: CovarianceModel,
    locations,
    seed: int,
    *,
    blocks=None,
    stats: dict | None = None,
) -> SampleField:
    """Draw one realization of the isotropic field at arbitrary locations.

    ``blocks``, a list of index arrays covering every location, splits them
    into tiles; without it all locations form one tile.  Each tile is drawn
    exactly as L z for the lower Cholesky factor L of its covariance,
    independently of the others as the block likelihood assumes, and none
    may exceed MAX_EXACT_SIM locations.  A tile whose strips of s sites
    repeat under one rigid motion (see _strip) is drawn from its first block
    row by the block Schur algorithm in O(s n) memory; any other tile as one
    strip, by its dense factor.  Congruent tiles (see
    congruent_tiles) are drawn together from their group's first tile, as
    their site distances agree within 2 * CONGRUENCE_TOL of the tile's
    reach; groups are drawn one after another, so one group's working set
    is alive at a time.  Tile k draws its z from
    SeedSequence(seed, spawn_key=(k,)) and the one tile of an untiled draw
    from SeedSequence(seed), with numpy's default PCG64, so output is
    reproducible across platforms and evaluation orders.  A given stats
    dict gets the number of factors, one per group (factors), of tiles
    whose factor needed jitter (jittered), of kernel values evaluated
    to build the factors (kernel_entries) and of groups whose block Schur
    draw was done again as one strip (schur_redrawn).
    """
    locations = np.asarray(locations, dtype=np.complex128).ravel()
    n = locations.size
    if n == 0:
        raise ValueError("no locations to simulate")
    if blocks is None:
        tiles = [((), np.arange(n))]
    else:
        tiles = [((k,), np.asarray(b).ravel()) for k, b in enumerate(blocks)]
        cover = np.concatenate([idx for _, idx in tiles])
        if not np.array_equal(np.sort(cover), np.arange(n)) or not all(i.size for _, i in tiles):
            raise ValueError("blocks must partition all location indices exactly")
    largest = max(idx.size for _, idx in tiles)
    if largest > MAX_EXACT_SIM:
        raise SimulationError(
            f"a tile of {largest} locations exceeds the exact-simulation cap "
            f"{MAX_EXACT_SIM}; pass blocks= whose tiles fit the cap"
        )
    groups = congruent_tiles(locations, [idx for _, idx in tiles])
    values = np.empty(n)
    for members in groups:
        first = tiles[members[0]][1]
        normals = np.empty((len(members), first.size))  # one row per tile of the group
        for k, z in zip(members, normals):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tiles[k][0]))
            z[:] = rng.standard_normal(z.size)
        draws, rung = _draw_tile(model, locations[first], normals, stats)
        for k, draw in zip(members, draws):
            values[tiles[k][1]] = draw
        if rung and stats is not None:
            stats["jittered"] = stats.get("jittered", 0) + len(members)
    if stats is not None:
        stats["factors"] = stats.get("factors", 0) + len(groups)
    return SampleField(locations, values)


def congruent_tiles(locations: np.ndarray, tiles: list[np.ndarray]) -> list[list[int]]:
    """Group tiles whose sites are proper rigid motions of each other, site for site.

    A tile joins the first earlier group whose first tile has as many
    sites and, followed by the tile as a second strip, passes _rigid_repeat
    within CONGRUENCE_TOL times that first tile's reach (its largest
    distance from its first site); every pairwise distance then agrees
    within twice that.  Mirror images, tiles of another size and tiles
    whose sites come in another order start groups of their own.  Returns
    the tile positions of each group, groups in order of their first tile.
    """
    groups: list[tuple[np.ndarray, float, list[int]]] = []
    for k, idx in enumerate(tiles):
        z = locations[idx]
        for first, tol, members in groups:
            if first.size == z.size and _rigid_repeat(np.stack([first, z]), tol):
                members.append(k)
                break
        else:
            groups.append((z, CONGRUENCE_TOL * float(np.max(np.abs(z - z[0]))), [k]))
    return [members for _, _, members in groups]


def simulation_blocks(nx: int, ny: int, max_side: int) -> list[np.ndarray]:
    """Partition lattice indices into roughly max_side x max_side tiles.

    Remainder rows/columns merge into the last tile, so the tiles cover
    every site.  Flat indices follow the row-major (i*ny + j) convention.
    """
    nbx = max(1, nx // max_side)
    nby = max(1, ny // max_side)
    i_id = np.minimum(np.arange(nx) // max_side, nbx - 1)
    j_id = np.minimum(np.arange(ny) // max_side, nby - 1)
    ids = (i_id[:, None] * nby + j_id[None, :]).ravel()
    return [np.flatnonzero(ids == b) for b in range(nbx * nby)]


def add_noise(field: SampleField, fraction: float, seed: int) -> SampleField:
    """Add white observation noise with sd = fraction * sd(values)."""
    if fraction < 0:
        raise ValueError("noise fraction must be non-negative")
    if fraction == 0.0:
        return SampleField(field.locations, field.values.copy())
    sd = fraction * np.std(field.values, ddof=1)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xA0,)))
    return SampleField(field.locations, field.values + sd * rng.standard_normal(len(field)))


# ---------------------------------------------------------------------------
# Deformations


@dataclass(frozen=True)
class DeformationSpec:
    """An orientation-preserving planar map applied to observation sites.

    kind is one of "rotational", "affine", "grid-map".
    The map plays the role of finv: observations are the isotropic field
    evaluated at the mapped locations.
    """

    kind: str
    params: dict
    domain: tuple[float, float, float, float]  # x0, x1, y0, y1

    PROBE = 21  # probe lattice resolution used to vet new specs

    @classmethod
    def rotational(cls, r0: float = 1.2, angle: float = np.pi / 2, domain=(0, 1, 0, 1)):
        """Bends the rectangle around i*r0: (r0 - y) e^{-i angle (1-x)} + i r0."""
        spec = cls("rotational", {"r0": float(r0), "angle": float(angle)}, tuple(domain))
        spec._validate()
        return spec

    @classmethod
    def affine(cls, a=1.0, b=0.0, d=0.0, domain=(0, 1, 0, 1)):
        """z -> a z + b conj(z) + d; orientation preserving iff |a| > |b|."""
        spec = cls("affine", {"a": complex(a), "b": complex(b), "d": complex(d)}, tuple(domain))
        spec._validate()
        return spec

    @classmethod
    def identity(cls, domain=(0, 1, 0, 1)):
        return cls.affine(1.0, 0.0, 0.0, domain)

    @classmethod
    def grid_map(cls, grid: ComplexGrid):
        """Map given by lattice samples; evaluated by bilinear interpolation."""
        domain = (
            grid.origin[0],
            grid.origin[0] + (grid.nx - 1) * grid.spacing[0],
            grid.origin[1],
            grid.origin[1] + (grid.ny - 1) * grid.spacing[1],
        )
        spec = cls("grid-map", {"grid": grid}, domain)
        spec._validate()
        return spec

    # -- evaluation --------------------------------------------------------

    def _validate(self) -> None:
        for name, value in self.params.items():
            if name != "grid" and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.kind == "affine":
            a, b = abs(self.params["a"]), abs(self.params["b"])
            if a <= b:
                raise OrientationError(
                    f"affine map with |a|={a:g} <= |b|={b:g} reverses orientation"
                )
        x0, x1, y0, y1 = self.domain
        xs = np.linspace(x0, x1, self.PROBE)
        ys = np.linspace(y0, y1, self.PROBE)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        vals = self._evaluate((xx + 1j * yy).ravel()).reshape(self.PROBE, self.PROBE)
        probe = ComplexGrid(
            self.PROBE,
            self.PROBE,
            (x0, y0),
            ((x1 - x0) / (self.PROBE - 1), (y1 - y0) / (self.PROBE - 1)),
            vals,
        )
        mu, _ = numeric_dilatation(probe)  # raises OrientationError on folds
        worst = np.max(np.abs(mu.values))
        if worst > 1 - 1e-6:
            raise OrientationError(
                f"deformation distortion |mu| reaches {worst:.8f} > 1 - 1e-6 on the probe lattice"
            )

    def _evaluate(self, pts: np.ndarray) -> np.ndarray:
        if self.kind == "rotational":
            r0 = self.params["r0"]
            angle = self.params["angle"]
            x = pts.real
            y = pts.imag
            return (r0 - y) * np.exp(-1j * angle * (1.0 - x)) + 1j * r0
        if self.kind == "affine":
            a, b, d = self.params["a"], self.params["b"], self.params["d"]
            return a * pts + b * np.conj(pts) + d
        if self.kind == "grid-map":
            return grid_sample(self.params["grid"], pts)
        raise ValueError(f"unknown deformation kind {self.kind!r}")


def apply_deformation(spec: DeformationSpec, locations) -> np.ndarray:
    """Evaluate the deformation at complex locations inside its domain."""
    pts = np.asarray(locations, dtype=np.complex128).ravel()
    x0, x1, y0, y1 = spec.domain
    tol = 1e-9 * max(x1 - x0, y1 - y0, 1.0)
    bad = (
        (pts.real < x0 - tol)
        | (pts.real > x1 + tol)
        | (pts.imag < y0 - tol)
        | (pts.imag > y1 + tol)
    )
    if np.any(bad):
        z = pts[bad][0]
        raise ValueError(
            f"location {z} lies outside the deformation domain "
            f"[{x0}, {x1}] x [{y0}, {y1}]"
        )
    return spec._evaluate(pts)


def numeric_dilatation(
    fmap: ComplexGrid, *, interior_only: bool = False
) -> tuple[ComplexGrid, Grid]:
    """Measure complex dilatation mu and scale phi of a lattice-sampled map.

    Wirtinger derivatives come from central differences in the interior
    and one-sided differences on the boundary:

        dz  = ((ux + vy) + i (vx - uy)) / 2
        dzb = ((ux - vy) + i (vx + uy)) / 2
        mu  = dzb / dz,   phi = sqrt(det J) = sqrt(|dz|^2 - |dzb|^2).

    Raises OrientationError when det J <= 0 anywhere (or anywhere in the
    interior when interior_only=True); the message lists offending cells.
    """
    f = fmap.values
    if fmap.nx < 2 or fmap.ny < 2:
        raise ValueError("need at least a 2x2 lattice to differentiate")
    fx = np.gradient(f, fmap.spacing[0], axis=0, edge_order=1)
    fy = np.gradient(f, fmap.spacing[1], axis=1, edge_order=1)
    dz = 0.5 * (fx - 1j * fy)
    dzb = 0.5 * (fx + 1j * fy)
    det = np.abs(dz) ** 2 - np.abs(dzb) ** 2
    check = det[1:-1, 1:-1] if interior_only and min(fmap.nx, fmap.ny) > 2 else det
    offset = 1 if check is not det else 0
    if np.any(check <= 0):
        cells = np.argwhere(check <= 0) + offset
        shown = ", ".join(f"({i}, {j})" for i, j in cells[:12])
        more = "" if len(cells) <= 12 else f" and {len(cells) - 12} more"
        raise OrientationError(
            f"map folds over: det J <= 0 at {len(cells)} cells: {shown}{more}"
        )
    safe = np.where(det > 0, det, np.nan)
    mu = np.where(det > 0, dzb / np.where(dz == 0, 1.0, dz), 0.0)
    phi = np.sqrt(np.where(np.isnan(safe), 1.0, safe))
    return fmap.with_values(mu), Grid(fmap.nx, fmap.ny, fmap.origin, fmap.spacing, phi)


# ---------------------------------------------------------------------------
# Empirical variograms


def empirical_variogram(
    values: np.ndarray,
    spacing: float,
    max_lag: int = 8,
    block_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared increment E(Y(x+h) - Y(x))^2 at axis-aligned lattice lags.

    block_ids, when given, restricts averaging to pairs inside one block;
    useful when the field was simulated block-independently.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 2:
        raise ValueError("values must be a 2-d lattice array")
    lags = np.arange(1, max_lag + 1) * float(spacing)
    msq = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        dx = (vals[k:, :] - vals[:-k, :]) ** 2
        dy = (vals[:, k:] - vals[:, :-k]) ** 2
        if block_ids is not None:
            keep_x = block_ids[k:, :] == block_ids[:-k, :]
            keep_y = block_ids[:, k:] == block_ids[:, :-k]
            total = dx[keep_x].sum() + dy[keep_y].sum()
            count = keep_x.sum() + keep_y.sum()
        else:
            total = dx.sum() + dy.sum()
            count = dx.size + dy.size
        msq[k - 1] = total / count
    return lags, msq


def variogram_slope(
    values: np.ndarray,
    spacing: float,
    max_lag: int = 8,
    block_ids: np.ndarray | None = None,
) -> float:
    """Log-log slope of the small-lag variogram; estimates the fractal index."""
    lags, msq = empirical_variogram(values, spacing, max_lag, block_ids)
    return float(np.polyfit(np.log(lags), np.log(msq), 1)[0])
