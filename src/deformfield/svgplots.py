"""Small self-contained SVG writers for run diagnostics.

No plotting dependency: each figure is a few hundred SVG elements
written as text.  Good enough for eyeballing a field, an ellipse
glyph map, or a warped lattice.
"""

from __future__ import annotations

import numpy as np

from .diskgeom import mu_to_ellipse
from .grids import ComplexGrid, atomic_write_text

_W = 640
_PAD = 40
# Rows per chunk of the smallest-gap search between glyph centers: with
# 1600 centers a chunk's differences and gaps take 1.2 MB, the whole
# matrix 61 MB.
_GAP_ROWS = 32


def _scene(xmin, xmax, ymin, ymax):
    """Return (width, height, to_pixels) mapping data to SVG coordinates."""
    spanx = xmax - xmin if xmax > xmin else 1.0
    spany = ymax - ymin if ymax > ymin else 1.0
    inner = _W - 2 * _PAD
    scale = inner / max(spanx, spany)
    width = spanx * scale + 2 * _PAD
    height = spany * scale + 2 * _PAD

    def to_pixels(x, y):
        px = _PAD + (np.asarray(x) - xmin) * scale
        py = height - _PAD - (np.asarray(y) - ymin) * scale
        return px, py

    return width, height, to_pixels


def _document(width, height, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    frame = (
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" '
        'fill="white" stroke="none"/>'
    )
    return "\n".join([head, frame, *body, "</svg>"]) + "\n"


def _smallest_gap(points: np.ndarray) -> float:
    """The smallest distance between two of points, _GAP_ROWS rows of gaps at a time."""
    lows = []
    for start in range(0, points.size, _GAP_ROWS):
        gaps = np.abs(points[start : start + _GAP_ROWS, None] - points[None, :])
        rows = np.arange(len(gaps))
        gaps[rows, start + rows] = np.inf  # a point's gap to itself
        lows.append(np.min(gaps))
    return float(np.min(lows))


def ellipse_field_svg(path: str, centers, mu, title: str = "") -> None:
    """One ellipse glyph per estimation block.

    Glyph eccentricity and tilt encode the complex dilatation; the
    area is held constant so only shape varies.
    """
    centers = np.asarray(centers, dtype=np.complex128).ravel()
    mu = np.asarray(mu, dtype=np.complex128).ravel()
    ok = np.isfinite(mu)
    if centers.size == 0:
        raise ValueError("no glyph centers")
    xs, ys = centers.real, centers.imag
    width, height, to_pix = _scene(xs.min(), xs.max(), ys.min(), ys.max())
    step = _smallest_gap(centers) if centers.size > 1 else 1.0
    rad = 0.4 * step * (width - 2 * _PAD) / max(xs.max() - xs.min(), step)
    body = []
    if title:
        body.append(f'<text x="{_PAD}" y="20" font-size="14">{title}</text>')
    for k in range(centers.size):
        px, py = to_pix(xs[k], ys[k])
        if not ok[k]:
            body.append(
                f'<circle cx="{px:.1f}" cy="{py:.1f}" r="1.5" fill="rgb(180,180,180)"/>'
            )
            continue
        ell = mu_to_ellipse(complex(mu[k]))
        a = rad * np.sqrt(ell.eccentricity)
        b = rad / np.sqrt(ell.eccentricity)
        deg = -np.degrees(ell.inclination)  # SVG y points down
        body.append(
            f'<ellipse cx="{px:.1f}" cy="{py:.1f}" rx="{a:.2f}" ry="{b:.2f}" '
            f'transform="rotate({deg:.1f} {px:.1f} {py:.1f})" '
            'fill="none" stroke="rgb(40,40,160)" stroke-width="1"/>'
        )
    atomic_write_text(path, _document(width, height, body))


def warped_grid_svg(path: str, fmap: ComplexGrid, every: int = 4, title: str = "") -> None:
    """Images of lattice rows and columns under a map, as polylines."""
    vals = fmap.values
    xs, ys = vals.real, vals.imag
    width, height, to_pix = _scene(xs.min(), xs.max(), ys.min(), ys.max())
    body = []
    if title:
        body.append(f'<text x="{_PAD}" y="20" font-size="14">{title}</text>')

    def polyline(zline):
        px, py = to_pix(zline.real, zline.imag)
        pts = " ".join(f"{a:.1f},{b:.1f}" for a, b in zip(px, py))
        return (
            f'<polyline points="{pts}" fill="none" '
            'stroke="rgb(60,60,60)" stroke-width="0.7"/>'
        )

    rows = sorted(set(range(0, fmap.nx, every)) | {fmap.nx - 1})
    cols = sorted(set(range(0, fmap.ny, every)) | {fmap.ny - 1})
    for i in rows:
        body.append(polyline(vals[i, :]))
    for j in cols:
        body.append(polyline(vals[:, j]))
    atomic_write_text(path, _document(width, height, body))


def scatter_svg(path: str, x, y, title: str = "", labels: tuple[str, str] = ("", "")) -> None:
    """Plain scatter with axis lines, for isotropy checks and residuals."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = x[keep], y[keep]
    if x.size == 0:
        raise ValueError("nothing to plot")
    width, height, to_pix = _scene(x.min(), x.max(), y.min(), y.max())
    body = []
    if title:
        body.append(f'<text x="{_PAD}" y="20" font-size="14">{title}</text>')
    x0, y0 = to_pix(x.min(), y.min())
    x1, y1 = to_pix(x.max(), y.max())
    body.append(
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x1:.1f}" y2="{y0:.1f}" '
        'stroke="rgb(120,120,120)" stroke-width="1"/>'
    )
    body.append(
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x0:.1f}" y2="{y1:.1f}" '
        'stroke="rgb(120,120,120)" stroke-width="1"/>'
    )
    if labels[0]:
        body.append(
            f'<text x="{(x0 + x1) / 2:.0f}" y="{height - 8:.0f}" '
            f'font-size="12" text-anchor="middle">{labels[0]}</text>'
        )
    if labels[1]:
        body.append(
            f'<text x="14" y="{(y0 + y1) / 2:.0f}" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 14 {(y0 + y1) / 2:.0f})">'
            f"{labels[1]}</text>"
        )
    px, py = to_pix(x, y)
    for a, b in zip(px, py):
        body.append(f'<circle cx="{a:.1f}" cy="{b:.1f}" r="2" fill="rgb(40,40,160)"/>')
    atomic_write_text(path, _document(width, height, body))
