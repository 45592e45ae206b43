"""Flat key = value run configuration with exact round-trips.

One file describes a full pipeline run: lattice, covariance family,
deformation, seeds, and stage parameters.  Values are written with
repr so that parse(format(cfg)) reproduces cfg bit for bit, and the
config hash gives artifacts a provenance tag.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArtifactError, ConfigError, OrientationError
from .fields import (
    MAX_EXACT_SIM,
    POWERED_EXPONENTIAL,
    CovarianceModel,
    DeformationSpec,
    apply_deformation,
    simulation_blocks,
)
from .grids import ComplexGrid, Grid, atomic_write_text, read_grd
from .likelihood import ALPHA_FLOOR, NeighborhoodPartition, check_lag_table, partition_grid

_DEFORM_KINDS = ("identity", "rotational", "affine", "grid_map")


@dataclass
class PipelineConfig:
    # lattice
    grid_nx: int = 100
    grid_ny: int = 100
    origin_x: float = 0.0
    origin_y: float = 0.0
    spacing_x: float = 0.01
    spacing_y: float = 0.01
    # covariance: powered_exponential and matern take (variance, range, alpha),
    # polynomial_plus_fractional takes (variance, alpha, c)
    family: str = POWERED_EXPONENTIAL
    variance: float = 1.0
    range: float = 1.0
    alpha: float = 1.0
    c: float = 1.0
    # deformation
    deform: str = "rotational"
    deform_r0: float = 1.2
    deform_angle: float = 1.5707963267948966
    affine_a_re: float = 1.0
    affine_a_im: float = 0.0
    affine_b_re: float = 0.0
    affine_b_im: float = 0.0
    deform_path: str = ""
    # run
    seed: int = 0
    noise_fraction: float = 0.0
    alpha_max: float = 4.0
    block: int = 10
    sim_block: int = 50
    smooth_window: int = 4
    flow_steps: int = 20
    flow_lattice: int = 64
    harmonic_n: int = 8
    d1_samples: int = 20000
    out_dir: str = "out"
    threads: int = 1  # accepted for older configs; no stage reads it

    def validate(self) -> None:
        if self.deform not in _DEFORM_KINDS:
            raise ConfigError(
                f"unknown deform {self.deform!r}; expected one of {', '.join(_DEFORM_KINDS)}"
            )
        if self.grid_nx < 2 or self.grid_ny < 2:
            raise ConfigError("grid_nx and grid_ny must be at least 2")
        for name in ("origin_x", "origin_y", "spacing_x", "spacing_y"):
            value = getattr(self, name)
            spacing = name.startswith("spacing")
            if not (0.0 if spacing else -math.inf) < value < math.inf:
                rule = "positive and finite" if spacing else "finite"
                raise ConfigError(f"{name} must be {rule}, got {value}")
        if not 0.0 <= self.noise_fraction < 1.0:
            raise ConfigError("noise_fraction must be in [0, 1)")
        if self.deform == "grid_map" and not self.deform_path:
            raise ConfigError("deform = grid_map requires deform_path")
        # each bound comes from the stage that consumes the value
        side = min(self.grid_nx, self.grid_ny)
        per_side = side // max(self.block, 1)
        n_blocks = (self.grid_nx // max(self.block, 1)) * (self.grid_ny // max(self.block, 1))
        for name, lo, hi in (
            ("block", 3, side),  # partition_grid: the block fits the lattice
            ("smooth_window", 1, per_side),  # the window fits the block lattice
            ("flow_lattice", 3, None),  # spacing 1/(m-1); d2 reads interior cells
            ("flow_steps", 1, None),
            ("harmonic_n", 0, (n_blocks - 1) // 2),  # 2n+1 fit points among the blocks
            ("d1_samples", 1, None),
            ("sim_block", 0, None),  # 0 draws the lattice exactly
            ("seed", 0, None),  # numpy seeds are non-negative
            ("threads", 1, None),
        ):
            value = getattr(self, name)
            if value < lo or (hi is not None and value > hi):
                span = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
                raise ConfigError(f"{name} must be {span}, got {value}")
        if not ALPHA_FLOOR < self.alpha_max < math.inf:
            raise ConfigError(
                f"alpha_max must exceed {ALPHA_FLOOR} and be finite, got {self.alpha_max}"
            )
        # the covariance model, the contrasts with their lag table and the
        # deformation own their parameter rules; a grid map is read from its
        # file by the stages, whose read errors are I/O failures
        try:
            self.build_model()
            check_lag_table(self.alpha_max, self.block)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.deform != "grid_map":
            try:
                self.build_deformation()
            except (ValueError, OrientationError) as exc:
                raise ConfigError(f"deform = {self.deform}: {exc}") from None
        tiles = self.sim_tiles()
        largest = self.grid_nx * self.grid_ny if tiles is None else max(t.size for t in tiles)
        if largest > MAX_EXACT_SIM:
            raise ConfigError(
                f"sim_block = {self.sim_block} needs an exact draw of {largest} sites, above "
                f"the cap {MAX_EXACT_SIM}; use a positive sim_block whose tiles fit the cap"
            )

    def sim_tiles(self) -> list | None:
        """Lattice tiles drawn independently by simulate, or None for one exact draw.

        sim_block = 0 forces the exact draw; anything else tiles as soon as
        the lattice is bigger than a single tile, keeping the factors small.
        """
        if self.sim_block > 0 and max(self.grid_nx, self.grid_ny) > self.sim_block:
            return simulation_blocks(self.grid_nx, self.grid_ny, self.sim_block)
        return None

    def build_model(self) -> CovarianceModel:
        """The covariance model; it derives range or c by family, over the value given."""
        return CovarianceModel(self.family, self.variance, self.range, self.alpha, self.c)

    def domain(self) -> tuple[float, float, float, float]:
        """Lattice bounding box as (x0, x1, y0, y1)."""
        return (
            self.origin_x,
            self.origin_x + (self.grid_nx - 1) * self.spacing_x,
            self.origin_y,
            self.origin_y + (self.grid_ny - 1) * self.spacing_y,
        )

    def observation_grid(self) -> Grid:
        """The observation lattice, zero-valued: simulate writes field.grd on it."""
        nx, ny = self.grid_nx, self.grid_ny
        origin, spacing = (self.origin_x, self.origin_y), (self.spacing_x, self.spacing_y)
        return Grid(nx, ny, origin, spacing, np.zeros((nx, ny)))

    def partition(self) -> NeighborhoodPartition:
        """The estimation blocks of the observation lattice.

        estimate fits them, and reconstruct refuses estimates made on others.
        """
        origin, spacing = (self.origin_x, self.origin_y), (self.spacing_x, self.spacing_y)
        nx, ny = self.grid_nx, self.grid_ny
        return partition_grid(nx, ny, self.block, origin=origin, spacing=spacing)

    def flow_grid(self) -> ComplexGrid:
        """The m x m flow lattice over domain(), zero-valued: reconstruct writes its maps on it."""
        m = self.flow_lattice
        x0, x1, y0, y1 = self.domain()
        spacing = ((x1 - x0) / (m - 1), (y1 - y0) / (m - 1))
        return ComplexGrid(m, m, (x0, y0), spacing, np.zeros((m, m), dtype=np.complex128))

    def build_deformation(self) -> DeformationSpec:
        """The true deformation; a grid map its file cannot serve raises ArtifactError."""
        domain = self.domain()
        if self.deform == "identity":
            return DeformationSpec.identity(domain=domain)
        if self.deform == "rotational":
            return DeformationSpec.rotational(
                r0=self.deform_r0, angle=self.deform_angle, domain=domain
            )
        if self.deform == "affine":
            return DeformationSpec.affine(
                a=complex(self.affine_a_re, self.affine_a_im),
                b=complex(self.affine_b_re, self.affine_b_im),
                domain=domain,
            )
        grid = read_grd(self.deform_path)
        x0, x1, y0, y1 = domain
        try:
            spec = DeformationSpec.grid_map(grid)
            apply_deformation(spec, [complex(x0, y0), complex(x1, y1)])  # covers the lattice
        except (ValueError, OrientationError) as exc:
            raise ArtifactError(f"{self.deform_path}: deform = grid_map: {exc}") from None
        return spec

    def config_hash(self) -> str:
        """Provenance tag over everything that can change the artifacts.

        threads and out_dir are execution knobs: two runs differing only
        there produce identical files, so they stay out of the hash.
        """
        lines = [
            line
            for line in format_config(self).splitlines()
            if not line.startswith(("threads ", "out_dir "))
        ]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12]


def format_config(cfg: PipelineConfig) -> str:
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> PipelineConfig:
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in fields:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        ftype = fields[key].type
        try:
            if ftype == "int":
                seen[key] = int(value)
            elif ftype == "float":
                seen[key] = float(value)
            else:
                seen[key] = value
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    cfg = PipelineConfig(**seen)
    cfg.validate()
    return cfg


def read_config(path: str) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def write_config(path: str, cfg: PipelineConfig) -> None:
    atomic_write_text(path, format_config(cfg))
