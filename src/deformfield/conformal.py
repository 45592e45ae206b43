"""Conformal correction of a reconstructed map, and map distances.

The flow reconstruction pins down the map only up to postcomposition
with a conformal factor.  That factor is recovered from the estimated
local scales: the log-derivative of an analytic correction h is a
harmonic polynomial fitted by least squares on the unit disk, and h
itself is rebuilt by integrating exp of that polynomial from 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .fields import DeformationSpec, apply_deformation, numeric_dilatation
from .grids import ComplexGrid, Grid, grid_sample
from .likelihood import DilatationScaleField

log = logging.getLogger(__name__)

GAUSS_NODES = 32  # Gauss-Legendre nodes of the one panel from 0 to each point
# Points per quadrature batch: each temporary holds 256 x 32 complex values
# (128 kB), where a 96 x 96 lattice at once would take 4.7 MB per array.
_QUAD_CHUNK = 256


@dataclass
class HarmonicFit:
    """Least-squares fit of Re log h'(w) = a_0 + sum Re(A_n w^n) on the disk."""

    coefficients: np.ndarray  # complex, A_0 .. A_N with Im A_0 = 0
    residual: float
    rank_deficient: bool = False


def fit_log_scale(w_points, targets, n_max: int) -> HarmonicFit:
    """Fit the harmonic expansion of a log conformal factor.

    With w = r e^{i theta}, the design columns are 1, r^n cos(n theta)
    and -r^n sin(n theta) for n = 1..N, i.e. the real part of
    sum (a_n + i b_n) w^n with b_0 fixed to 0.  Solved by least squares
    (minimal-norm solution, flagged, when the design is rank deficient).
    """
    w = np.asarray(w_points, dtype=np.complex128).ravel()
    ell = np.asarray(targets, dtype=np.float64).ravel()
    if w.shape != ell.shape:
        raise ValueError("points and targets must have equal length")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if w.size < 2 * n_max + 1:
        raise ValueError(
            f"need at least {2 * n_max + 1} points for degree {n_max}, got {w.size}"
        )
    if np.any(np.abs(w) >= 1.0):
        raise ValueError("design points must lie strictly inside the unit disk")
    r = np.abs(w)
    theta = np.angle(w)
    cols = [np.ones_like(r)]
    for n in range(1, n_max + 1):
        cols.append(r**n * np.cos(n * theta))
    for n in range(1, n_max + 1):
        cols.append(-(r**n) * np.sin(n * theta))
    design = np.column_stack(cols)
    coef, _, rank, _ = np.linalg.lstsq(design, ell, rcond=None)
    deficient = bool(rank < design.shape[1])
    if deficient:
        log.warning("log-scale design is rank deficient (rank %d < %d)", rank, design.shape[1])
    a = coef[: n_max + 1]
    b = np.concatenate([[0.0], coef[n_max + 1 :]])
    residual = float(np.sqrt(np.mean((design @ coef - ell) ** 2)))
    return HarmonicFit(coefficients=a + 1j * b, residual=residual, rank_deficient=deficient)


def integrate_hprime(fit: HarmonicFit, eval_points) -> np.ndarray:
    """h(w) = int_0^w exp(sum A_n zeta^n) d zeta along the straight ray from 0.

    One Gauss-Legendre panel of GAUSS_NODES nodes on each ray.  Disk points
    lie within distance 1 of the origin, and for these smooth integrands the
    single panel reaches quadrature-level accuracy.  Scalar or array points
    give values alike; the points go through the panel _QUAD_CHUNK at a time.
    """
    pts = np.asarray(eval_points, dtype=np.complex128)
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_NODES)
    fractions, half_weights = 0.5 * (nodes + 1.0), 0.5 * weights  # the nodes mapped onto [0, 1]
    flat = pts.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _QUAD_CHUNK):
        w = flat[start : start + _QUAD_CHUNK]
        vals = np.exp(np.polynomial.polynomial.polyval(w[:, None] * fractions, fit.coefficients))
        out[start : start + w.size] = w * np.sum(half_weights * vals, axis=-1)
    return out.reshape(pts.shape)[()]


def compose_estimate(
    f_check: ComplexGrid,
    phi_check: Grid,
    field: DilatationScaleField,
    n_max: int = 8,
    *,
    stats: dict | None = None,
) -> ComplexGrid:
    """Postcompose the reconstructed map with the fitted conformal factor.

    The disk chart w -> (w - center) / radius centers on the bounding box
    of f_check's values, with radius 1.05 x the largest distance to that
    center, so every image has modulus at most 1/1.05.  The targets
    log(phi_hat_j) - log(phi_check at the block center) are shifted by
    log(radius), which absorbs the chart's rescaling into the constant
    coefficient.  Returns the corrected map h(chart(f_check)) on f_check's
    lattice.  The correction is analytic, so the dilatation field of the
    result matches that of f_check; only local scales change.  A given
    stats dict gets the RMS residual of the log-scale fit
    (harmonic_residual) and whether its design was rank deficient
    (harmonic_rank_deficient).
    """
    pts = f_check.values.ravel()
    center = complex(
        0.5 * (pts.real.min() + pts.real.max()),
        0.5 * (pts.imag.min() + pts.imag.max()),
    )
    reach = float(np.max(np.abs(pts - center)))
    radius = 1.05 * reach if reach > 0 else 1.0
    ok = field.ok_mask()
    phi_hat = field.phi[ok]
    w_centers = grid_sample(f_check, field.centers[ok])
    phi_flow = grid_sample(phi_check, field.centers[ok])
    good = np.isfinite(phi_hat) & (phi_hat > 0) & (phi_flow > 0)
    targets = np.log(phi_hat[good]) - np.log(phi_flow[good]) + np.log(radius)
    fit = fit_log_scale((w_centers[good] - center) / radius, targets, n_max)
    if stats is not None:
        stats["harmonic_residual"] = fit.residual
        stats["harmonic_rank_deficient"] = fit.rank_deficient
    corrected = integrate_hprime(fit, (pts - center) / radius)
    return f_check.with_values(corrected.reshape(f_check.nx, f_check.ny))


# ---------------------------------------------------------------------------
# Distances between deformations


def distance_d1(
    f_hat: ComplexGrid,
    f_true: DeformationSpec,
    sample_count: int = 20000,
    seed: int = 0,
) -> float:
    """Interpoint-distance discrepancy, invariant to rigid motions of either map.

    Monte-Carlo average over seeded pairs of lattice sites of
    (|f_hat(z) - f_hat(w)| - |f(z) - f(w)|)^2, normalized as an
    integral over the squared domain, then square-rooted.
    """
    sites = f_hat.locations()
    values = f_hat.values.ravel()
    truth = apply_deformation(f_true, sites)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xD1,)))
    ia = rng.integers(0, sites.size, size=sample_count)
    ib = rng.integers(0, sites.size, size=sample_count)
    gap = np.abs(values[ia] - values[ib]) - np.abs(truth[ia] - truth[ib])
    return float(np.sqrt(np.mean(gap**2)))


def distance_d2(mu_hat: ComplexGrid, f_true: DeformationSpec) -> float:
    """Dilatation discrepancy: RMS of |mu_hat - mu_true| over interior cells.

    mu_true is measured from the true deformation sampled on mu_hat's
    lattice, with the same finite differences as any estimate, and the
    Riemann sum is normalized by the domain area.
    """
    truth = apply_deformation(f_true, mu_hat.locations()).reshape(mu_hat.nx, mu_hat.ny)
    mu_true, _ = numeric_dilatation(mu_hat.with_values(truth))
    gap = np.abs(mu_hat.values[1:-1, 1:-1] - mu_true.values[1:-1, 1:-1])
    return float(np.sqrt(np.mean(gap**2)))
