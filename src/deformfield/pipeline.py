"""File-oriented run stages: simulate, estimate, reconstruct, evaluate.

Each stage reads its predecessor's artifacts from the run directory,
writes its own together with a JSON sidecar stamped with the config
hash, and refuses to run on artifacts produced under a different
configuration unless forced.
"""

from __future__ import annotations

import json
import logging
import os

import numpy as np

from .config import PipelineConfig
from .conformal import compose_estimate, distance_d1, distance_d2
from .diskgeom import interpolate_dilatation, smooth_dilatation
from .errors import ArtifactError, ConfigError
from .fields import (
    SampleField,
    add_noise,
    apply_deformation,
    numeric_dilatation,
    simulate_isotropic,
)
from .flow import reconstruct_map
from .grids import (
    ComplexGrid,
    Grid,
    atomic_write_text,
    grid_sample,
    read_grd,
    write_grd,
)
from .likelihood import STATUS_IMPUTED, STATUS_MISSING, DilatationScaleField, block_contrasts
from .likelihood import estimate_alpha, estimate_field
from .svgplots import ellipse_field_svg, scatter_svg, warped_grid_svg

log = logging.getLogger(__name__)


def _write_meta(path: str, stage: str, cfg: PipelineConfig, extra: dict | None = None) -> None:
    meta = {"stage": stage, "config_hash": cfg.config_hash()}
    if extra:
        meta.update(extra)
    atomic_write_text(path, json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _read_meta(path: str, cfg: PipelineConfig, force: bool) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"missing upstream artifact {path}; run the earlier stage first")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    if not isinstance(meta, dict):
        raise ArtifactError(f"{path}: not a JSON object")
    if meta.get("config_hash") != cfg.config_hash():
        msg = (
            f"{path} was produced under config {meta.get('config_hash')}, "
            f"current config is {cfg.config_hash()}"
        )
        if not force:
            raise ConfigError(msg + "; pass force to override")
        log.warning("%s (forced)", msg)
    return meta


def _read_grid(out_dir: str, name: str, lattice: Grid) -> Grid:
    """The grid artifact out_dir/name, which must have the kind and lattice of lattice."""
    path = os.path.join(out_dir, name)
    grid = read_grd(path)
    if isinstance(grid, ComplexGrid) != isinstance(lattice, ComplexGrid):
        kind = "complex" if isinstance(lattice, ComplexGrid) else "real"
        raise ArtifactError(f"{path}: expected {kind} values")
    want = (lattice.nx, lattice.ny, lattice.origin, lattice.spacing)
    got = (grid.nx, grid.ny, grid.origin, grid.spacing)
    if got != want:
        raise ArtifactError(f"{path}: expected (nx, ny, origin, spacing) {want}, got {got}")
    return grid


def stage_simulate(cfg: PipelineConfig, out_dir: str) -> Grid:
    """Draw one deformed-field realization on the observation lattice."""
    cfg.validate()
    model = cfg.build_model()
    deform = cfg.build_deformation()
    os.makedirs(out_dir, exist_ok=True)
    lattice = cfg.observation_grid()
    blocks = cfg.sim_tiles()
    if blocks is not None:
        log.info("simulating %d independent tiles of side %d", len(blocks), cfg.sim_block)
    sites = lattice.locations()
    latent = apply_deformation(deform, sites)
    stats: dict = {}
    sample = simulate_isotropic(model, latent, cfg.seed, blocks=blocks, stats=stats)
    sample = add_noise(sample, cfg.noise_fraction, cfg.seed)
    grid = lattice.with_values(sample.values.reshape(lattice.nx, lattice.ny))
    write_grd(grid, os.path.join(out_dir, "field.grd"))
    _write_meta(
        os.path.join(out_dir, "field_meta.json"),
        "simulate",
        cfg,
        {
            "seed": cfg.seed,
            "noise_fraction": cfg.noise_fraction,
            "sim_tiles": 0 if blocks is None else len(blocks),
            # deterministic counts only: reruns must stay byte-identical
            "counts": {
                "factors": stats["factors"],
                "tiles_jittered": stats.get("jittered", 0),
                "kernel_entries": stats["kernel_entries"],
            },
        },
    )
    return grid


def stage_estimate(cfg: PipelineConfig, out_dir: str, force: bool = False) -> DilatationScaleField:
    """Estimate the fractal index and blockwise dilatation/scale field."""
    cfg.validate()
    _read_meta(os.path.join(out_dir, "field_meta.json"), cfg, force)
    grid = _read_grid(out_dir, "field.grd", cfg.observation_grid())
    data = SampleField(grid.locations(), grid.values.ravel())
    contrasts = block_contrasts(data, cfg.partition(), cfg.alpha_max)
    stats: dict = {}
    alpha_hat = estimate_alpha(contrasts, stats=stats)
    log.info("fractal index estimate: %.4f", alpha_hat)
    est = estimate_field(contrasts, alpha_hat, stats=stats)
    est.to_csv(os.path.join(out_dir, "estimates.csv"))
    ok = est.ok_mask()
    _write_meta(
        os.path.join(out_dir, "estimates_meta.json"),
        "estimate",
        cfg,
        {
            "alpha": est.alpha_used,
            "geometry": est.geometry,
            # deterministic counts only: reruns must stay byte-identical
            "counts": {
                "blocks_ok": int(ok.sum()),
                "blocks_missing": int((~ok).sum()),
                "nll_evals": stats.get("nll_evals", 0),
                "fits_at_maxiter": stats.get("fits_at_maxiter", 0),
                "alpha_evals": stats["alpha_evals"],
                "alpha_infeasible": stats["alpha_infeasible"],
            },
        },
    )
    return est


def _positive(value, kinds) -> bool:
    """Whether a JSON value is a finite positive number of the given types."""
    return not isinstance(value, bool) and isinstance(value, kinds) and 0 < value < np.inf


def _meta_alpha(meta: dict, path: str) -> float:
    """The fractal index a stage's sidecar, read from path, records as alpha."""
    alpha = meta.get("alpha")
    if not _positive(alpha, (int, float)):
        raise ArtifactError(f"{path}: key 'alpha' is missing or not a finite positive number")
    return float(alpha)


def _load_estimates(cfg: PipelineConfig, out_dir: str, force: bool) -> DilatationScaleField:
    path = os.path.join(out_dir, "estimates_meta.json")
    meta = _read_meta(path, cfg, force)
    alpha = _meta_alpha(meta, path)
    geometry = meta.get("geometry")
    for key in ("nbx", "nby", "block", "spacing"):
        if not isinstance(geometry, dict) or key not in geometry:
            raise ArtifactError(f"{path}: key 'geometry.{key}' is missing")
    for key in ("nbx", "nby", "block"):
        if not _positive(geometry[key], int):
            raise ArtifactError(f"{path}: key 'geometry.{key}' is not a positive integer")
    spacing = geometry["spacing"]
    pair = isinstance(spacing, list) and len(spacing) == 2
    if not pair or not all(_positive(v, (int, float)) for v in spacing):
        raise ArtifactError(f"{path}: key 'geometry.spacing' is not a pair of positive numbers")
    partition = cfg.partition()
    want = {key: partition.geometry[key] for key in ("nbx", "nby", "block")}
    want["spacing"] = list(partition.geometry["spacing"])
    got = {key: geometry[key] for key in want}
    if got != want:
        raise ArtifactError(f"{path}: geometry {got}, the configured partition has {want}")
    csv = os.path.join(out_dir, "estimates.csv")
    est = DilatationScaleField.from_csv(csv, alpha_used=alpha, geometry=geometry)
    nbx, nby = geometry["nbx"], geometry["nby"]
    if est.centers.size != nbx * nby:
        raise ArtifactError(f"{csv}: {est.centers.size} blocks, {path} expects {nbx}x{nby}")
    # centers are written by repr, so the configured ones come back exactly, in order
    off = np.flatnonzero(est.centers != partition.centers)
    if off.size:
        got, want = complex(est.centers[off[0]]), complex(partition.centers[off[0]])
        raise ArtifactError(
            f"{csv}: line {off[0] + 2}: center ({got.real!r}, {got.imag!r}), "
            f"the configured partition has ({want.real!r}, {want.imag!r})"
        )
    return est


def stage_reconstruct(cfg: PipelineConfig, out_dir: str, force: bool = False) -> ComplexGrid:
    """Smooth the dilatation field, flow to a map, correct the scale."""
    cfg.validate()
    est = _load_estimates(cfg, out_dir, force)
    stats: dict = {}
    smoothed = smooth_dilatation(est, cfg.smooth_window, stats=stats)

    lattice = cfg.flow_grid()
    mu_vals = interpolate_dilatation(smoothed, lattice.locations(), stats=stats)
    mu_star = lattice.with_values(mu_vals.reshape(lattice.nx, lattice.ny))
    write_grd(mu_star, os.path.join(out_dir, "mustar.grd"))

    f_check, phi_check = reconstruct_map(mu_star, steps=cfg.flow_steps, stats=stats)
    f_hat = compose_estimate(f_check, phi_check, smoothed, n_max=cfg.harmonic_n, stats=stats)
    # an interior fold would stop evaluate; refuse it here, before any map is written
    numeric_dilatation(f_hat, interior_only=True)
    write_grd(f_check, os.path.join(out_dir, "fcheck.grd"))
    write_grd(phi_check, os.path.join(out_dir, "phicheck.grd"))
    write_grd(f_hat, os.path.join(out_dir, "fhat.grd"))
    ellipse_field_svg(
        os.path.join(out_dir, "ellipses.svg"),
        smoothed.centers,
        smoothed.mu,
        title="local distortion ellipses",
    )
    warped_grid_svg(
        os.path.join(out_dir, "warped.svg"), f_hat, title="reconstructed map"
    )
    _write_meta(
        os.path.join(out_dir, "reconstruct_meta.json"),
        "reconstruct",
        cfg,
        {
            "alpha": est.alpha_used,
            # deterministic counts only: reruns must stay byte-identical
            "counts": {
                "blocks_imputed": int(np.sum(smoothed.status == STATUS_IMPUTED)),
                "blocks_missing": int(np.sum(smoothed.status == STATUS_MISSING)),
                "karcher_sets": stats.get("karcher_sets", 0),
                "karcher_not_converged": stats.get("karcher_not_converged", 0),
                "points_extrapolated": stats["points_extrapolated"],
            },
            # the flow against its own target, over the lattice interior
            "flow_check": {
                "min_det_j": stats["min_det_j"],
                "max_mu_gap": stats["max_mu_gap"],
                "max_mu_gap_deep": stats["max_mu_gap_deep"],
                "median_mu_gap": stats["median_mu_gap"],
            },
            # the log-scale fit of the conformal correction
            "harmonic_fit": {
                "residual": stats["harmonic_residual"],
                "rank_deficient": stats["harmonic_rank_deficient"],
            },
        },
    )
    return f_hat


def _isotropy_table(field_grid: Grid, f_hat: ComplexGrid, seed: int, bins: int = 24):
    """Binned squared increments of Y against distances in estimated latent coordinates."""
    sites = f_hat.locations()
    latent = f_hat.values.ravel()
    y = grid_sample(field_grid, sites)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x150,)))
    m = min(20000, 4 * sites.size)
    ia = rng.integers(0, sites.size, size=m)
    ib = rng.integers(0, sites.size, size=m)
    keep = ia != ib
    dist = np.abs(latent[ia] - latent[ib])[keep]
    sq = (y[ia] - y[ib])[keep] ** 2
    hi = np.quantile(dist, 0.5)
    edges = np.linspace(0.0, hi, bins + 1)
    which = np.digitize(dist, edges) - 1
    rows = []
    for b in range(bins):
        sel = which == b
        if sel.sum() < 10:
            continue
        rows.append((0.5 * (edges[b] + edges[b + 1]), float(sq[sel].mean()), int(sel.sum())))
    return rows


def stage_evaluate(cfg: PipelineConfig, out_dir: str, force: bool = False) -> dict:
    """Distances to the true deformation plus an isotropy diagnostic."""
    cfg.validate()
    path = os.path.join(out_dir, "reconstruct_meta.json")
    alpha = _meta_alpha(_read_meta(path, cfg, force), path)
    f_hat = _read_grid(out_dir, "fhat.grd", cfg.flow_grid())
    field_grid = _read_grid(out_dir, "field.grd", cfg.observation_grid())
    truth = cfg.build_deformation()
    d1 = distance_d1(f_hat, truth, sample_count=cfg.d1_samples, seed=cfg.seed)
    mu_grid, _ = numeric_dilatation(f_hat, interior_only=True)
    d2 = distance_d2(mu_grid, truth)
    metrics = {"alpha": alpha, "d1": float(d1), "d2": float(d2)}
    lines = ["metric,value,config_hash"]
    for name in ("alpha", "d1", "d2"):
        lines.append(f"{name},{metrics[name]!r},{cfg.config_hash()}")
    atomic_write_text(os.path.join(out_dir, "report.csv"), "\n".join(lines) + "\n")

    rows = _isotropy_table(field_grid, f_hat, cfg.seed)
    iso_lines = ["distance,mean_sq_increment,count"]
    iso_lines += [f"{float(d)!r},{float(v)!r},{int(n)}" for d, v, n in rows]
    atomic_write_text(os.path.join(out_dir, "isotropy.csv"), "\n".join(iso_lines) + "\n")
    if rows:
        scatter_svg(
            os.path.join(out_dir, "isotropy.svg"),
            [r[0] for r in rows],
            [r[1] for r in rows],
            title="variogram in estimated latent coordinates",
            labels=("distance", "mean squared increment"),
        )
    log.info("d1 = %.5f, d2 = %.5f", d1, d2)
    return metrics


def run_pipeline(cfg: PipelineConfig, out_dir: str, force: bool = False) -> dict:
    """All four stages in order; returns the evaluation metrics."""
    stage_simulate(cfg, out_dir)
    stage_estimate(cfg, out_dir, force)
    stage_reconstruct(cfg, out_dir, force)
    return stage_evaluate(cfg, out_dir, force)
