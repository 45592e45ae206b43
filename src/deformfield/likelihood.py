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

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import optimize
from scipy.linalg import solve_triangular

from .errors import EstimationError
from .fields import JITTER_LADDER, SampleField, g_alpha
from .grids import atomic_write_text
from .increments import ContrastMatrix, increment_matrix

log = logging.getLogger(__name__)

ALPHA_FLOOR = 0.05
MU_CAP = 1.0 - 1e-6

STATUS_OK = "ok"
STATUS_MISSING = "missing"
STATUS_IMPUTED = "imputed"


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


@dataclass(frozen=True)
class AnisotropyParams:
    """Local geometric-anisotropy parameters: dilatation mu, scale phi."""

    mu: complex
    phi: float

    def __post_init__(self):
        if abs(self.mu) > MU_CAP:
            raise ValueError(f"|mu| = {abs(self.mu):.8f} exceeds {MU_CAP}")
        if self.phi <= 0:
            raise ValueError("phi must be positive")

    @property
    def stretch(self) -> float:
        """|A| = phi / sqrt(1 - |mu|^2), the linear scale of the local map."""
        return self.phi / np.sqrt(1.0 - abs(self.mu) ** 2)


def aniso_g(theta: AnisotropyParams, alpha: float, z) -> np.ndarray | complex:
    """Anisotropic kernel G_alpha(|A| * |z - mu * conj(z)|)."""
    z = np.asarray(z, dtype=np.complex128)
    return g_alpha(alpha, theta.stretch * np.abs(z - theta.mu * np.conj(z)))


def _chol_or_none(sigma: np.ndarray):
    scale = float(np.mean(np.diag(sigma))) or 1.0
    for jitter in JITTER_LADDER:
        try:
            mat = sigma if jitter == 0.0 else sigma + jitter * scale * np.eye(len(sigma))
            return np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            continue
    return None


def _nll_from_sigma(sigma: np.ndarray, ytilde: np.ndarray) -> float:
    factor = _chol_or_none(sigma)
    if factor is None:
        return np.inf
    half_logdet = float(np.sum(np.log(np.diag(factor))))
    w = solve_triangular(factor, ytilde, lower=True)
    return half_logdet + 0.5 * float(np.sum(w * w))


def neg_loglik_alpha(
    alpha: float, block: np.ndarray, data: SampleField, L: ContrastMatrix
) -> float:
    """Negative restricted log likelihood of one neighborhood at index alpha.

    0.5 log|Sigma| + 0.5 Ytilde' Sigma^-1 Ytilde  with
    Sigma = L G_alpha(|z_p - z_q|) L'.  Returns +inf (with a warning)
    when Sigma cannot be factorized even with jitter.
    """
    idx = np.asarray(block).ravel()
    z = data.locations[idx]
    ytilde = L.rows @ data.values[idx]
    dist = np.abs(z[:, None] - z[None, :])
    sigma = L.rows @ g_alpha(alpha, dist) @ L.rows.T
    sigma = 0.5 * (sigma + sigma.T)
    value = _nll_from_sigma(sigma, ytilde)
    if not np.isfinite(value):
        log.warning("likelihood at alpha=%.4f not factorizable; treating as +inf", alpha)
    return value


def _relative_coords(data: SampleField, blocks) -> np.ndarray | None:
    """Shared within-block coordinates if every block is a translate of the first."""
    first = data.locations[np.asarray(blocks[0]).ravel()]
    rel = first - first.mean()
    scale = max(np.max(np.abs(rel)), 1.0)
    for block in blocks[1:]:
        z = data.locations[np.asarray(block).ravel()]
        if z.size != rel.size or np.max(np.abs((z - z.mean()) - rel)) > 1e-9 * scale:
            return None
    return rel


def estimate_alpha(
    data: SampleField,
    partition: NeighborhoodPartition,
    alpha_max: float = 4.0,
    tol: float = 1e-3,
    *,
    degree: int | None = None,
) -> float:
    """Fractal index by golden-section search on the summed block likelihood.

    The search interval is (ALPHA_FLOOR, alpha_max]; the contrast degree
    defaults to floor(alpha_max / 2) so one contrast matrix serves every
    candidate alpha.  When all blocks share translated geometry, the
    kernel matrix and its factorization are computed once per candidate.
    """
    if alpha_max <= ALPHA_FLOOR:
        raise ValueError("alpha_max must exceed the search floor 0.05")
    if degree is None:
        degree = int(np.floor(alpha_max / 2.0))
    rel = _relative_coords(data, partition.blocks)
    if rel is not None:
        L = increment_matrix(rel, degree)
        dist = np.abs(rel[:, None] - rel[None, :])
        ystack = np.column_stack(
            [L.rows @ data.values[np.asarray(b).ravel()] for b in partition.blocks]
        )
        n_blocks = partition.n_blocks

        def total(alpha: float) -> float:
            sigma = L.rows @ g_alpha(alpha, dist) @ L.rows.T
            sigma = 0.5 * (sigma + sigma.T)
            factor = _chol_or_none(sigma)
            if factor is None:
                return np.inf
            w = solve_triangular(factor, ystack, lower=True)
            return n_blocks * float(np.sum(np.log(np.diag(factor)))) + 0.5 * float(
                np.sum(w * w)
            )

    else:
        mats = [
            increment_matrix(data.locations[np.asarray(b).ravel()], degree)
            for b in partition.blocks
        ]

        def total(alpha: float) -> float:
            return sum(
                neg_loglik_alpha(alpha, b, data, L)
                for b, L in zip(partition.blocks, mats)
            )

    lo, hi = ALPHA_FLOOR, float(alpha_max)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = total(c), total(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = total(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = total(d)
    alpha_hat = 0.5 * (a + b)
    if not np.isfinite(min(fc, fd)):
        raise EstimationError("alpha likelihood was infeasible over the whole range")
    return float(alpha_hat)


# ---------------------------------------------------------------------------
# Local anisotropy


def _model_g(mu: complex, stretch: float, alpha: float, diff: np.ndarray) -> np.ndarray:
    """Kernel matrix of the local model Z(A (z + mu conj z)).

    Sign note: a map with dilatation mu acts locally as h + mu conj(h), so
    the matched kernel uses |h + mu conj(h)|.  Estimates then carry the
    dilatation of the deformation itself, with no sign flip.
    """
    return g_alpha(alpha, stretch * np.abs(diff + mu * np.conj(diff)))


_MU_STARTS = (0.0 + 0.0j, 0.3 + 0.0j, -0.3 + 0.0j, 0.3j, -0.3j)


def _mu_from_x(x: np.ndarray) -> complex:
    t1, t2 = x
    r = float(np.hypot(t1, t2))
    if r == 0.0:
        return 0.0 + 0.0j
    mu = np.tanh(r) * np.exp(1j * np.arctan2(t2, t1))
    if abs(mu) > MU_CAP:
        scale = MU_CAP / abs(mu)
        # the rescaled modulus can round to just above the cap
        while abs(complex(mu * scale)) > MU_CAP:
            scale = np.nextafter(scale, 0.0)
        mu *= scale
    return complex(mu)


def _estimate_theta(
    z: np.ndarray,
    values: np.ndarray,
    alpha: float,
    L: ContrastMatrix,
    phi_bounds=(1e-3, 1e3),
) -> tuple[AnisotropyParams, float]:
    ytilde = L.rows @ values
    if not np.all(np.isfinite(ytilde)) or float(np.sum(ytilde**2)) < 1e-24:
        raise EstimationError("degenerate neighborhood: contrasts carry no signal")
    diff = z[:, None] - z[None, :]
    rows = L.rows
    m = ytilde.size

    # The kernel is alpha-homogeneous, G(s t) = s^alpha G(t), so for fixed mu
    # the stretch enters as a pure scale Sigma = s Sigma_1 with s = stretch^alpha,
    # minimized in closed form at s = Ytilde' Sigma_1^{-1} Ytilde / m.  The
    # numerical search therefore runs over mu alone, with the scale profiled out.
    def profiled(x: np.ndarray) -> tuple[float, float]:
        mu = _mu_from_x(x)
        sigma1 = rows @ _model_g(mu, 1.0, alpha, diff) @ rows.T
        factor = _chol_or_none(0.5 * (sigma1 + sigma1.T))
        if factor is None:
            return np.inf, 1.0
        w = solve_triangular(factor, ytilde, lower=True)
        quad = float(np.sum(w * w))
        if quad <= 0:
            return np.inf, 1.0
        s_hat = quad / m
        nll = (
            float(np.sum(np.log(np.diag(factor))))
            + 0.5 * m * np.log(s_hat)
            + 0.5 * m
        )
        return nll, s_hat

    def nll_only(x: np.ndarray) -> float:
        return profiled(x)[0]

    best = None
    for mu0 in _MU_STARTS:
        r0 = np.arctanh(min(abs(mu0), 0.999))
        x0 = (
            np.array([r0 * np.cos(np.angle(mu0)), r0 * np.sin(np.angle(mu0))])
            if abs(mu0) > 0
            else np.zeros(2)
        )
        res = optimize.minimize(
            nll_only,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-4, "fatol": 1e-6, "maxfev": 400},
        )
        if best is None or res.fun < best.fun:
            best = res
    if best is None or not np.isfinite(best.fun):
        raise EstimationError("anisotropy likelihood infeasible at every start")
    mu = _mu_from_x(best.x)
    _, s_hat = profiled(best.x)
    stretch = s_hat ** (1.0 / alpha)
    phi = float(
        np.clip(stretch * np.sqrt(1.0 - abs(mu) ** 2), phi_bounds[0], phi_bounds[1])
    )
    return AnisotropyParams(mu=mu, phi=phi), -float(best.fun)


def estimate_theta(
    block: np.ndarray,
    data: SampleField,
    alpha_hat: float,
    L: ContrastMatrix,
    *,
    phi_bounds=(1e-3, 1e3),
) -> AnisotropyParams:
    """Local dilatation and scale of one neighborhood.

    Maximizes the contrast likelihood of a geometric-anisotropic kernel.
    mu is searched over unconstrained coordinates (t1, t2) with
    mu = tanh(r) e^{i omega}, (r, omega) the polar form of (t1, t2), by
    Nelder-Mead from the five-point multistart mu in {0, +-0.3, +-0.3i};
    the scale enters the homogeneous kernel as a pure covariance factor
    and is profiled out in closed form at each mu.  Returns the best
    local optimum found.
    """
    idx = np.asarray(block).ravel()
    theta, _ = _estimate_theta(
        data.locations[idx], data.values[idx], alpha_hat, L, phi_bounds
    )
    return theta


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

    def write_sidecar(self, path: str, extra: dict | None = None) -> None:
        meta = {"alpha": self.alpha_used, "geometry": self.geometry}
        if extra:
            meta.update(extra)
        atomic_write_text(path, json.dumps(meta, indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_csv(cls, path: str, alpha_used: float, geometry: dict | None = None):
        with open(path, "r", encoding="utf-8") as handle:
            lines = [ln.strip() for ln in handle if ln.strip()]
        if not lines or lines[0] != "cx,cy,mu_re,mu_im,phi,loglik,status":
            raise ValueError(f"{path}: not a dilatation/scale CSV")
        rows = [ln.split(",") for ln in lines[1:]]
        centers = np.array([float(r[0]) + 1j * float(r[1]) for r in rows])
        mu = np.array([float(r[2]) + 1j * float(r[3]) for r in rows])
        phi = np.array([float(r[4]) for r in rows])
        loglik = np.array([float(r[5]) for r in rows])
        status = np.array([r[6] for r in rows], dtype=object)
        return cls(centers, mu, phi, loglik, status, alpha_used, geometry or {})


def estimate_field(
    data: SampleField,
    partition: NeighborhoodPartition,
    alpha_hat: float,
    *,
    degree: int | None = None,
    alpha_max: float = 4.0,
    threads: int = 1,
    phi_bounds=(1e-3, 1e3),
) -> DilatationScaleField:
    """Per-block anisotropy estimates over a whole partition.

    Blocks are independent; with threads > 1 they are evaluated
    concurrently and merged by block index, so results are identical to
    the serial order.  Blocks whose likelihood degenerates are marked
    missing rather than aborting the sweep.
    """
    if degree is None:
        degree = int(np.floor(alpha_max / 2.0))
    rel = _relative_coords(data, partition.blocks)
    shared_L = increment_matrix(rel, degree) if rel is not None else None

    def work(k: int):
        idx = np.asarray(partition.blocks[k]).ravel()
        z = data.locations[idx]
        L = shared_L if shared_L is not None else increment_matrix(z, degree)
        try:
            theta, ll = _estimate_theta(z, data.values[idx], alpha_hat, L, phi_bounds)
            return theta.mu, theta.phi, ll, STATUS_OK
        except EstimationError as exc:
            log.warning("block %d marked missing: %s", k, exc)
            return np.nan + 1j * np.nan, np.nan, np.nan, STATUS_MISSING

    n = partition.n_blocks
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, range(n)))
    else:
        results = [work(k) for k in range(n)]

    mu = np.array([r[0] for r in results], dtype=np.complex128)
    phi = np.array([r[1] for r in results])
    loglik = np.array([r[2] for r in results])
    status = np.array([r[3] for r in results], dtype=object)
    geometry = dict(partition.geometry)
    return DilatationScaleField(
        centers=partition.centers.copy(),
        mu=mu,
        phi=phi,
        loglik=loglik,
        status=status,
        alpha_used=float(alpha_hat),
        geometry=geometry,
    )
