"""Regular-lattice containers and their on-disk formats.

A grid stores values at locations (x0 + i*dx, y0 + j*dy) for
0 <= i < nx, 0 <= j < ny; arrays are indexed values[i, j] with i along
x.  The binary format GRD1 is a fixed little-endian header followed by
the value block in row-major order (complex values interleave re, im).
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArtifactError

GRD_MAGIC = b"GRD1"
_GRD_HEADER = struct.Struct("<4sBIIdddd")  # magic, kind, nx, ny, x0, y0, dx, dy


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write data to path via a temp file + rename so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-grd-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


@dataclass
class Grid:
    """Real-valued field sampled on a regular lattice."""

    nx: int
    ny: int
    origin: tuple[float, float]
    spacing: tuple[float, float]
    values: np.ndarray

    _dtype = np.float64

    def __post_init__(self):
        self.nx = int(self.nx)
        self.ny = int(self.ny)
        self.origin = (float(self.origin[0]), float(self.origin[1]))
        self.spacing = (float(self.spacing[0]), float(self.spacing[1]))
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid dimensions must be positive")
        if self.spacing[0] <= 0 or self.spacing[1] <= 0:
            raise ValueError("grid spacing must be positive")
        self.values = np.asarray(self.values, dtype=self._dtype)
        if self.values.shape != (self.nx, self.ny):
            raise ValueError(
                f"values shape {self.values.shape} does not match ({self.nx}, {self.ny})"
            )
        if not np.all(np.isfinite(self.values.view(np.float64))):
            raise ValueError("grid values must be finite")

    def x(self) -> np.ndarray:
        return self.origin[0] + self.spacing[0] * np.arange(self.nx)

    def y(self) -> np.ndarray:
        return self.origin[1] + self.spacing[1] * np.arange(self.ny)

    def locations(self) -> np.ndarray:
        """All lattice points as complex numbers, flattened row-major (i*ny + j)."""
        xx, yy = np.meshgrid(self.x(), self.y(), indexing="ij")
        return (xx + 1j * yy).ravel()

    def with_values(self, values: np.ndarray):
        return replace(self, values=values)


@dataclass
class ComplexGrid(Grid):
    """Complex-valued field (a planar map, a dilatation field, ...) on a lattice."""

    _dtype = np.complex128


def grid_sample(grid: Grid, points: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a grid at complex points.

    Points epsilon outside the lattice box are linearly extrapolated;
    this keeps evaluation stable for maps probed right at the boundary.
    """
    pts = np.asarray(points, dtype=np.complex128)
    fx = (pts.real - grid.origin[0]) / grid.spacing[0]
    fy = (pts.imag - grid.origin[1]) / grid.spacing[1]
    i0 = np.clip(np.floor(fx).astype(np.int64), 0, grid.nx - 2)
    j0 = np.clip(np.floor(fy).astype(np.int64), 0, grid.ny - 2)
    tx = fx - i0
    ty = fy - j0
    v = grid.values
    v00 = v[i0, j0]
    v10 = v[i0 + 1, j0]
    v01 = v[i0, j0 + 1]
    v11 = v[i0 + 1, j0 + 1]
    return (
        v00 * (1 - tx) * (1 - ty)
        + v10 * tx * (1 - ty)
        + v01 * (1 - tx) * ty
        + v11 * tx * ty
    )


def write_grd(grid: Grid, path: str) -> None:
    """Serialize a grid to the GRD1 binary format."""
    kind = 1 if isinstance(grid, ComplexGrid) else 0
    header = _GRD_HEADER.pack(
        GRD_MAGIC,
        kind,
        grid.nx,
        grid.ny,
        grid.origin[0],
        grid.origin[1],
        grid.spacing[0],
        grid.spacing[1],
    )
    if kind:
        body = np.ascontiguousarray(grid.values, dtype="<c16").tobytes()
    else:
        body = np.ascontiguousarray(grid.values, dtype="<f8").tobytes()
    atomic_write_bytes(path, header + body)


def read_grd(path: str) -> Grid:
    """Read a GRD1 file back into a Grid or ComplexGrid."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < _GRD_HEADER.size:
        raise ArtifactError(f"{path}: truncated GRD1 header")
    magic, kind, nx, ny, x0, y0, dx, dy = _GRD_HEADER.unpack_from(raw)
    if magic != GRD_MAGIC:
        raise ArtifactError(f"{path}: bad magic {magic!r}, expected {GRD_MAGIC!r}")
    if kind not in (0, 1):
        raise ArtifactError(f"{path}: unknown value kind {kind}")
    count = nx * ny
    itemsize = 16 if kind else 8
    body = raw[_GRD_HEADER.size:]
    if len(body) != count * itemsize:
        raise ArtifactError(
            f"{path}: value block holds {len(body)} bytes, expected {count * itemsize}"
        )
    dtype = "<c16" if kind else "<f8"
    values = np.frombuffer(body, dtype=dtype).reshape(nx, ny)
    cls = ComplexGrid if kind else Grid
    try:
        return cls(nx, ny, (x0, y0), (dx, dy), values.copy())
    except ValueError as exc:
        raise ArtifactError(f"{path}: {exc}") from None
