"""Lattice containers, bilinear sampling, and the GRD1 format."""

import os

import numpy as np
import pytest

from deformfield.errors import ArtifactError
from deformfield.grids import (
    ComplexGrid,
    Grid,
    atomic_write_text,
    grid_sample,
    read_grd,
    write_grd,
)


def test_grid_axes_and_locations_order():
    g = Grid(3, 2, (1.0, -1.0), (0.5, 0.25), np.zeros((3, 2)))
    assert np.allclose(g.x(), [1.0, 1.5, 2.0])
    assert np.allclose(g.y(), [-1.0, -0.75])
    loc = g.locations()
    # row-major: x varies slowest, matching values.ravel()
    assert loc[0] == 1.0 - 1.0j
    assert loc[1] == 1.0 - 0.75j
    assert loc[2] == 1.5 - 1.0j
    assert loc.shape == (6,)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0, 5, (0.0, 0.0), (0.1, 0.1), np.zeros((0, 5)))
    with pytest.raises(ValueError):
        Grid(3, 3, (0.0, 0.0), (0.0, 0.1), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Grid(3, 3, (0.0, 0.0), (0.1, 0.1), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        Grid(2, 2, (0.0, 0.0), (0.1, 0.1), np.array([[0.0, 1.0], [np.nan, 2.0]]))


def test_with_values_keeps_lattice():
    g = Grid(3, 3, (0.0, 0.0), (1.0, 1.0), np.zeros((3, 3)))
    h = g.with_values(np.ones((3, 3)))
    assert h.origin == g.origin and h.spacing == g.spacing
    assert np.all(h.values == 1.0)
    assert np.all(g.values == 0.0)


def test_grid_sample_reproduces_bilinear_functions():
    # a function linear in x and y separately is interpolated exactly
    n = 9
    xs = np.linspace(0.0, 2.0, n)
    ys = np.linspace(-1.0, 1.0, n)
    vals = 2.0 * xs[:, None] - 3.0 * ys[None, :] + 0.5 * xs[:, None] * ys[None, :]
    g = Grid(n, n, (0.0, -1.0), (xs[1] - xs[0], ys[1] - ys[0]), vals)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 2, 50) + 1j * rng.uniform(-1, 1, 50)
    want = 2.0 * pts.real - 3.0 * pts.imag + 0.5 * pts.real * pts.imag
    assert np.allclose(grid_sample(g, pts), want, atol=1e-12)


def test_grid_sample_at_nodes_is_exact():
    rng = np.random.default_rng(2)
    g = Grid(4, 5, (0.0, 0.0), (0.3, 0.2), rng.standard_normal((4, 5)))
    got = grid_sample(g, g.locations()).reshape(4, 5)
    assert np.allclose(got, g.values, atol=1e-13)


def test_grid_sample_complex_values():
    vals = np.arange(9, dtype=float).reshape(3, 3) * (1 + 2j)
    g = ComplexGrid(3, 3, (0.0, 0.0), (1.0, 1.0), vals)
    out = grid_sample(g, np.array([0.5 + 0.5j]))
    assert np.iscomplexobj(out)


def test_grd_round_trip_real_and_complex(tmp_path):
    rng = np.random.default_rng(3)
    g = Grid(5, 7, (0.25, -1.0), (0.1, 0.2), rng.standard_normal((5, 7)))
    p = os.path.join(tmp_path, "g.grd")
    write_grd(g, p)
    g2 = read_grd(p)
    assert type(g2) is Grid
    assert np.array_equal(g.values, g2.values)
    assert g2.origin == g.origin and g2.spacing == g.spacing

    c = ComplexGrid(
        4, 3, (0.0, 0.0), (0.5, 0.5),
        rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)),
    )
    pc = os.path.join(tmp_path, "c.grd")
    write_grd(c, pc)
    c2 = read_grd(pc)
    assert type(c2) is ComplexGrid
    assert np.array_equal(c.values, c2.values)


def test_grd_write_is_deterministic(tmp_path):
    g = Grid(3, 3, (0.0, 0.0), (1.0, 1.0), np.arange(9, dtype=float).reshape(3, 3))
    pa = os.path.join(tmp_path, "a.grd")
    pb = os.path.join(tmp_path, "b.grd")
    write_grd(g, pa)
    write_grd(g, pb)
    assert open(pa, "rb").read() == open(pb, "rb").read()


def test_read_grd_rejects_garbage(tmp_path):
    p = os.path.join(tmp_path, "bad.grd")
    with open(p, "wb") as fh:
        fh.write(b"not a grid at all")
    with pytest.raises(ArtifactError):
        read_grd(p)


def test_atomic_write_replaces_existing(tmp_path):
    p = os.path.join(tmp_path, "t.txt")
    atomic_write_text(p, "one")
    atomic_write_text(p, "two")
    assert open(p).read() == "two"
    assert os.listdir(tmp_path) == ["t.txt"]
