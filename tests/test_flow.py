"""Poisson solver and flow-based map reconstruction."""

import numpy as np
import pytest

from deformfield import flow
from deformfield.errors import FlowError, OrientationError
from deformfield.fields import numeric_dilatation
from deformfield.flow import (
    FlowState,
    _scatter_to_box,
    flow_step,
    poisson_solve_dirichlet,
    reconstruct_map,
    sigma_field,
)
from deformfield.grids import ComplexGrid


def _const_mu(n, value, spacing=None):
    sp = spacing if spacing is not None else 1.0 / (n - 1)
    vals = np.full((n, n), value, dtype=np.complex128)
    return ComplexGrid(n, n, (0.0, 0.0), (sp, sp), vals)


# ---------------------------------------------------------------------------
# Poisson solver


def test_poisson_zero_rhs_gives_zero():
    sol = poisson_solve_dirichlet(np.zeros((17, 17)), 0.1)
    assert np.array_equal(sol, np.zeros((17, 17)))


def test_poisson_manufactured_solution():
    # u = sin(pi x) sin(2 pi y) on the unit square, lap u = -5 pi^2 u
    n = 65
    h = 1.0 / (n - 1)
    x = h * np.arange(n)
    exact = np.sin(np.pi * x)[:, None] * np.sin(2.0 * np.pi * x)[None, :]
    rhs = -5.0 * np.pi**2 * exact
    sol = poisson_solve_dirichlet(rhs, h)
    assert np.max(np.abs(sol - exact)) < 1e-3


def test_poisson_discrete_residual_at_rounding():
    # the 5-point stencil applied to the solution reproduces the rhs
    rng = np.random.default_rng(2)
    n = 33
    h = 0.05
    rhs = rng.standard_normal((n, n))
    sol = poisson_solve_dirichlet(rhs, h)
    lap = (
        sol[2:, 1:-1] + sol[:-2, 1:-1] + sol[1:-1, 2:] + sol[1:-1, :-2]
        - 4.0 * sol[1:-1, 1:-1]
    ) / h**2
    rel = np.max(np.abs(lap - rhs[1:-1, 1:-1])) / np.max(np.abs(rhs))
    assert rel < 1e-8
    assert np.all(sol[0, :] == 0) and np.all(sol[:, 0] == 0)
    assert np.all(sol[-1, :] == 0) and np.all(sol[:, -1] == 0)


def test_poisson_point_source_symmetry():
    # centered spike on an odd lattice: solution shares all square symmetries
    n = 31
    rhs = np.zeros((n, n))
    rhs[n // 2, n // 2] = 1.0
    sol = poisson_solve_dirichlet(rhs, 0.1)
    assert np.max(np.abs(sol - sol[::-1, :])) < 1e-12
    assert np.max(np.abs(sol - sol[:, ::-1])) < 1e-12
    assert np.max(np.abs(sol - sol.T)) < 1e-12
    assert sol[n // 2, n // 2] < 0  # negative spike response


def test_poisson_complex_rhs_is_two_real_solves():
    # one complex solve is the real part's solve plus i times the imaginary
    # part's; a real rhs, integer input included, still gives float64
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal((33, 41)) + 1j * rng.standard_normal((33, 41))
    want = poisson_solve_dirichlet(rhs.real, 0.05) + 1j * poisson_solve_dirichlet(rhs.imag, 0.05)
    got = poisson_solve_dirichlet(rhs, 0.05)
    assert got.dtype == np.complex128
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    ints = rng.integers(-5, 5, (9, 9))
    sol = poisson_solve_dirichlet(ints, 0.1)
    assert sol.dtype == np.float64
    assert np.array_equal(sol, poisson_solve_dirichlet(ints.astype(float), 0.1))


def test_poisson_validation():
    with pytest.raises(ValueError):
        poisson_solve_dirichlet(np.zeros((2, 5)), 0.1)
    with pytest.raises(ValueError):
        poisson_solve_dirichlet(np.zeros((5, 5)), 0.0)
    with pytest.raises(ValueError):
        poisson_solve_dirichlet(np.zeros(5), 0.1)


# ---------------------------------------------------------------------------
# Source term


def test_identity_state_matches_lattice():
    mu = _const_mu(9, 0.2)
    state = FlowState.identity(mu)
    assert state.t == 0.0
    assert np.array_equal(state.points, mu.locations())
    assert np.array_equal(state.dz_f, np.ones(81, dtype=np.complex128))


def test_sigma_field_zero_mu_is_zero():
    mu = _const_mu(9, 0.0)
    sig = sigma_field(mu, FlowState.identity(mu))
    assert np.max(np.abs(sig.values)) == 0.0


def test_sigma_field_at_time_zero_equals_mu():
    # t = 0: source reduces to mu* itself; constant fields interpolate
    # exactly inside the site hull and vanish outside it
    c = 0.25 - 0.15j
    mu = _const_mu(9, c)
    sig = sigma_field(mu, FlowState.identity(mu))
    xx, yy = np.meshgrid(sig.x(), sig.y(), indexing="ij")
    inside = (xx >= 0) & (xx <= 1) & (yy >= 0) & (yy <= 1)
    assert np.max(np.abs(sig.values[inside] - c)) < 1e-12
    far = (xx < -0.05) | (xx > 1.05) | (yy < -0.05) | (yy > 1.05)
    assert np.max(np.abs(sig.values[far])) == 0.0


def _bent_state(n, t, source):
    # lattice bent into a quarter annulus 1 <= r <= 2, 0 <= theta <= pi/2:
    # its image is not convex, and the concave part of its hull is a
    # region no triangle covers.  dz_f is set so the phase factor is 1
    # and the source term equals `source` at t = 0.
    mu = _const_mu(n, 0.0)
    s = np.linspace(0.0, 1.0, n)
    r = 1.0 + s[:, None]
    theta = 0.5 * np.pi * s[None, :]
    points = (r * np.exp(1j * theta)).ravel()
    state = FlowState(t=t, points=points, dz_f=np.ones(n * n, dtype=np.complex128))
    return mu.with_values(source(points).reshape(n, n)), state


def test_sigma_field_reproduces_linear_source_on_bent_lattice():
    def linear(z):
        return (0.3 - 0.2j) + (0.05 + 0.1j) * z.real - 0.07j * z.imag

    mu, state = _bent_state(21, 0.0, linear)
    sig = sigma_field(mu, state)
    nodes = sig.locations().reshape(sig.values.shape)
    r, theta = np.abs(nodes), np.angle(nodes)
    # polygon of the lattice image: chords between outer-ring sites lie
    # inside the disk of radius 2, so a margin keeps clear of them
    inside = (r > 1.02) & (r < 1.98) & (theta > 0.02) & (theta < 0.5 * np.pi - 0.02)
    assert inside.sum() > 100
    assert np.max(np.abs(sig.values[inside] - linear(nodes[inside]))) < 1e-12
    # inside the convex hull, whose inner edge is the chord x + y = 1 from
    # 1 to i, but inside the inner circle of radius 1: no triangle covers it
    concave = (r < 0.98) & (nodes.real + nodes.imag > 1.0 + 1e-9)
    concave &= (nodes.real > 0) & (nodes.imag > 0)
    assert concave.sum() > 20
    assert np.all(sig.values[concave] == 0.0)


def _scatter_full_window(corners, values, area2, box, n, reverse=False):
    # reference: every triangle tested against the same window of box nodes,
    # as wide as the widest triangle; reverse flips the write order in a pass
    x0, x1, y0, _ = box
    h = (x1 - x0) / (n - 1)
    origin = complex(x0, y0)
    e1, e2 = corners[1] - corners[0], corners[2] - corners[0]
    dv1, dv2 = values[1] - values[0], values[2] - values[0]
    rel = (corners - origin) / h
    i0 = np.ceil(rel.real.min(axis=0) - 1e-9).astype(np.int64)
    j0 = np.ceil(rel.imag.min(axis=0) - 1e-9).astype(np.int64)
    reach = int(np.ceil(max(np.ptp(rel.real, axis=0).max(), np.ptp(rel.imag, axis=0).max())))
    grid = np.zeros((n, n), dtype=np.complex128)
    for di in range(reach + 1):
        for dj in range(reach + 1):
            i, j = np.minimum(i0 + di, n - 1), np.minimum(j0 + dj, n - 1)
            p = origin + h * (i + 1j * j) - corners[0]
            lb = np.imag(np.conj(p) * e2) / area2
            lc = np.imag(np.conj(e1) * p) / area2
            hit = (lb >= -1e-12) & (lc >= -1e-12) & (lb + lc <= 1.0 + 1e-12)
            # gathered index arrays: numpy may write through a reversed view
            # in memory order, which would undo the reversal
            k = np.flatnonzero(hit)[::-1] if reverse else np.flatnonzero(hit)
            grid[i[k], j[k]] = (values[0] + lb * dv1 + lc * dv2)[k]
    return grid


def _scatter_inputs(mu, state, monkeypatch):
    # the (corners, values, area2, box, n) that sigma_field hands to the scatter
    seen = []
    monkeypatch.setattr(flow, "_scatter_to_box", lambda *args: seen.append(args) or None)
    sigma_field(mu, state)
    monkeypatch.undo()
    return seen[0]


def test_scatter_matches_full_window_on_bent_lattice(monkeypatch):
    n = 17
    s = np.linspace(0.0, 1.0, n)
    vals = 0.4 * np.exp(2j * np.pi * s[:, None]) * s[None, :]
    mu = ComplexGrid(n, n, (0.0, 0.0), (1.0 / 16, 1.0 / 16), vals)
    state = FlowState.identity(mu)
    for _ in range(3):
        state = flow_step(state, 0.25, mu)
    args = _scatter_inputs(mu, state, monkeypatch)
    assert np.array_equal(_scatter_to_box(*args).values, _scatter_full_window(*args))


def test_scatter_keeps_write_order_on_shared_edges(monkeypatch):
    # sites k/8 on box nodes 2k + 4 (spacing 1/16): every cell's diagonal,
    # edges and corners pass through nodes that two or more triangles hit.
    # Each triangle carries its own random values, so whichever writes last
    # decides the node.
    mu = _const_mu(9, 0.0)
    corners, values, area2, _, _ = _scatter_inputs(mu, FlowState.identity(mu), monkeypatch)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(values.shape) + 1j * rng.standard_normal(values.shape)
    args = (corners, values, area2, (-0.25, 1.25, -0.25, 1.25), 25)
    got = _scatter_to_box(*args).values
    assert np.array_equal(got, _scatter_full_window(*args))
    assert not np.array_equal(got, _scatter_full_window(*args, reverse=True))


def test_scatter_batches_keep_the_write_order(monkeypatch):
    # batches of 5 of the 128 triangles split every pass, and shared edges
    # between batches: the last write still decides each node
    mu = _const_mu(9, 0.0)
    corners, values, area2, _, _ = _scatter_inputs(mu, FlowState.identity(mu), monkeypatch)
    rng = np.random.default_rng(8)
    values = rng.standard_normal(values.shape) + 1j * rng.standard_normal(values.shape)
    args = (corners, values, area2, (-0.25, 1.25, -0.25, 1.25), 25)
    whole = _scatter_to_box(*args).values
    monkeypatch.setattr(flow, "_SCATTER_BATCH", 5)
    assert np.array_equal(_scatter_to_box(*args).values, whole)
    assert np.array_equal(whole, _scatter_full_window(*args))


def test_scatter_tests_a_sliver_across_its_whole_bounding_box():
    # one sliver from node (1, 1) to node (4, 4): it hits the four diagonal
    # nodes, at offsets 0 and reach = 3 from its box corner included
    box, n = (0.0, 1.0, 0.0, 1.0), 9
    h = 1.0 / 8
    corners = h * np.array([[1 + 1j], [4 + 4j], [1 + 1.3j]])
    area2 = np.imag(np.conj(corners[1] - corners[0]) * (corners[2] - corners[0]))
    values = np.array([[0.5 + 0.1j], [-0.2 + 0.3j], [0.7 - 0.4j]])
    got = _scatter_to_box(corners, values, area2, box, n).values
    assert np.array_equal(got, _scatter_full_window(corners, values, area2, box, n))
    assert [(k, k) for k in range(1, 5)] == [tuple(ij) for ij in np.argwhere(got != 0)]


def test_sigma_field_rejects_folded_lattice():
    mu, state = _bent_state(9, 0.35, lambda z: 0.1 + 0.0 * z)
    state.points[40] += 0.5  # push one interior site across its neighbours
    with pytest.raises(OrientationError, match="t=0.3500"):
        sigma_field(mu, state)


def test_sigma_field_rejects_blowup():
    mu = _const_mu(9, 0.999)
    state = FlowState.identity(mu)
    state.t = 1.0
    bad = ComplexGrid(9, 9, (0.0, 0.0), mu.spacing, np.full((9, 9), 1.001 + 0j))
    with pytest.raises(FlowError, match="blow-up"):
        sigma_field(bad, state)


def test_sigma_field_lattice_mismatch():
    mu = _const_mu(9, 0.1)
    state = FlowState.identity(_const_mu(7, 0.1))
    with pytest.raises(ValueError):
        sigma_field(mu, state)


# ---------------------------------------------------------------------------
# Flow stepping


def test_flow_step_validation():
    mu = _const_mu(9, 0.1)
    state = FlowState.identity(mu)
    with pytest.raises(ValueError):
        flow_step(state, 0.0, mu)
    state.t = 0.95
    with pytest.raises(ValueError):
        flow_step(state, 0.1, mu)


def test_reconstruct_zero_mu_is_identity():
    mu = _const_mu(17, 0.0, spacing=0.05)
    fmap, phi = reconstruct_map(mu, steps=4)
    assert np.max(np.abs(fmap.values - fmap.locations().reshape(17, 17))) < 1e-14
    assert np.max(np.abs(phi.values - 1.0)) < 1e-10


def test_reconstruct_constant_mu():
    # constant dilatation 0.3: reconstruction matches away from the hull edge
    n = 33
    mu = _const_mu(n, 0.3)
    fmap, phi = reconstruct_map(mu, steps=8)
    mu_hat, _ = numeric_dilatation(fmap, interior_only=True)
    err = np.abs(mu_hat.values - 0.3)[2:-2, 2:-2]
    assert np.median(err) < 0.01
    assert err.max() < 0.03
    assert np.all(phi.values > 0)


def test_reconstruct_rejects_extreme_mu():
    vals = np.full((9, 9), 0.1 + 0.0j)
    vals[4, 4] = 0.9995
    mu = ComplexGrid(9, 9, (0.0, 0.0), (0.125, 0.125), vals)
    with pytest.raises(FlowError, match="cap"):
        reconstruct_map(mu)
    with pytest.raises(ValueError):
        reconstruct_map(_const_mu(9, 0.1), steps=0)


def test_reconstruct_deterministic():
    mu = _const_mu(17, 0.2 + 0.1j, spacing=1.0 / 16)
    stats_a, stats_b = {}, {}
    a, pa = reconstruct_map(mu, steps=5, stats=stats_a)
    b, pb = reconstruct_map(mu, steps=5, stats=stats_b)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(pa.values, pb.values)
    assert stats_a == stats_b


def test_reconstruct_self_check_reacts_to_planted_spike():
    n = 17
    mu = _const_mu(n, 0.2 + 0.1j, spacing=1.0 / 16)
    smooth = {}
    _, phi = reconstruct_map(mu, steps=5, stats=smooth)
    assert set(smooth) == {"min_det_j", "max_mu_gap", "median_mu_gap", "max_mu_gap_deep"}
    assert smooth["min_det_j"] == pytest.approx(np.min(phi.values[1:-1, 1:-1] ** 2))
    assert 0.0 < smooth["max_mu_gap"] < 0.05
    # one site's target the flow cannot follow: the gap at that site grows
    spiked_vals = mu.values.copy()
    spiked_vals[8, 8] = -0.5
    spiked = {}
    reconstruct_map(mu.with_values(spiked_vals), steps=5, stats=spiked)
    assert spiked["max_mu_gap"] > 0.3
    assert spiked["max_mu_gap"] > 5 * smooth["max_mu_gap"]


def test_reconstruct_deep_gap_reacts_to_interior_spike_only():
    mu = _const_mu(17, 0.2 + 0.1j, spacing=1.0 / 16)
    smooth = {}
    reconstruct_map(mu, steps=5, stats=smooth)
    # on a smooth target the largest gap sits next to the edge
    assert smooth["max_mu_gap_deep"] < 0.5 * smooth["max_mu_gap"]
    assert 0.0 < smooth["median_mu_gap"] < smooth["max_mu_gap"]
    for depth, deep in ((4, True), (1, False)):
        vals = mu.values.copy()
        vals[depth, 8] = -0.5
        spiked = {}
        reconstruct_map(mu.with_values(vals), steps=5, stats=spiked)
        assert spiked["max_mu_gap"] > 0.3
        if deep:  # a spike 4 sites in shows in the deep gap
            assert spiked["max_mu_gap_deep"] > 0.3
        else:  # one on the first interior ring does not reach it
            assert spiked["max_mu_gap_deep"] < 2.0 * smooth["max_mu_gap_deep"]
