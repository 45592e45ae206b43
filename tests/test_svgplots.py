"""SVG diagnostics: the ellipse glyph map's spacing search."""

import tracemalloc

import numpy as np
import pytest

from deformfield import svgplots
from deformfield.svgplots import ellipse_field_svg


def _whole_matrix_gap(points):
    # every pairwise gap at once, as a blocks x blocks matrix
    gaps = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(gaps, np.inf)
    return float(np.min(gaps))


def _glyphs(n, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 1, n) + 1j * rng.uniform(0, 1, n)
    if n > 40:
        # the closest pair lies past the first row chunk, one of it in the
        # last, partial chunk
        centers[-5] = centers[100] + 1e-3j
    mu = 0.5 * rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    mu[::7] = np.nan  # missing blocks
    return centers, mu


@pytest.mark.parametrize("n", [1, 2, 300])
def test_glyph_spacing_in_row_chunks_writes_the_same_bytes(n, tmp_path, monkeypatch):
    centers, mu = _glyphs(n, seed=n)
    if n > 1:
        assert svgplots._smallest_gap(centers) == _whole_matrix_gap(centers)
    if n > 40:
        assert abs(_whole_matrix_gap(centers) - 1e-3) < 1e-12
    ellipse_field_svg(str(tmp_path / "chunked.svg"), centers, mu, title="mu")
    monkeypatch.setattr(svgplots, "_smallest_gap", _whole_matrix_gap)
    ellipse_field_svg(str(tmp_path / "whole.svg"), centers, mu, title="mu")
    assert (tmp_path / "chunked.svg").read_bytes() == (tmp_path / "whole.svg").read_bytes()


def test_glyph_spacing_builds_no_blocks_by_blocks_matrix(tmp_path):
    # the 1600 block centers of a 400 x 400 lattice: the whole gap matrix
    # and its differences took 61 MB
    side = np.arange(40) * 0.025 + 0.0125
    centers = (side[:, None] + 1j * side[None, :]).ravel()
    mu = 0.3 * np.exp(1j * np.arange(centers.size))
    ellipse_field_svg(str(tmp_path / "warm.svg"), centers[:50], mu[:50])
    tracemalloc.start()
    try:
        ellipse_field_svg(str(tmp_path / "glyphs.svg"), centers, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6, peak
