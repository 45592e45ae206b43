"""Hyperbolic metric, Frechet means, smoothing, and ellipse conversions."""

import tracemalloc

import numpy as np
import pytest

from deformfield import diskgeom
from deformfield.diskgeom import (
    frechet_mean,
    hyperbolic_distance,
    interpolate_dilatation,
    mobius_diff,
    mu_to_ellipse,
    smooth_dilatation,
)
from deformfield.likelihood import (
    STATUS_MISSING,
    STATUS_OK,
    DilatationScaleField,
    partition_grid,
)


def _random_disk_points(rng, n, rmax=0.95):
    r = rmax * np.sqrt(rng.uniform(0.0, 1.0, n))
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    return r * np.exp(1j * ang)


def _make_field(nbx, nby, mu, phi=None, status=None, block=4):
    part = partition_grid(nbx * block, nby * block, block, spacing=(0.01, 0.01))
    mu = np.asarray(mu, dtype=np.complex128).ravel()
    assert mu.size == nbx * nby
    if phi is None:
        phi = np.ones(mu.size)
    if status is None:
        status = np.array([STATUS_OK] * mu.size, dtype=object)
    return DilatationScaleField(
        centers=part.centers,
        mu=mu,
        phi=np.asarray(phi, dtype=np.float64),
        loglik=np.zeros(mu.size),
        status=np.asarray(status, dtype=object),
        alpha_used=0.7,
        geometry=part.geometry,
    )


# ---------------------------------------------------------------------------
# Metric


def test_distance_to_origin_is_artanh():
    for r in (0.0, 0.1, 0.5, 0.9, 0.999):
        assert hyperbolic_distance(0.0, r) == pytest.approx(np.arctanh(r), abs=1e-12)


def test_distance_metric_axioms():
    rng = np.random.default_rng(7)
    a = _random_disk_points(rng, 1000)
    b = _random_disk_points(rng, 1000)
    c = _random_disk_points(rng, 1000)
    dab = hyperbolic_distance(a, b)
    dba = hyperbolic_distance(b, a)
    assert np.max(np.abs(dab - dba)) < 1e-12
    assert np.all(dab >= 0.0)
    assert np.max(np.abs(hyperbolic_distance(a, a))) < 1e-12
    # triangle inequality with a little float slack
    dac = hyperbolic_distance(a, c)
    dcb = hyperbolic_distance(c, b)
    assert np.all(dab <= dac + dcb + 1e-10)


def test_distance_mobius_invariance():
    # disk automorphisms z -> e^{i t}(z - c)/(1 - conj(c) z) are isometries
    rng = np.random.default_rng(11)
    a = _random_disk_points(rng, 200)
    b = _random_disk_points(rng, 200)
    for c, t in ((0.3 + 0.4j, 0.7), (-0.8j, 2.1), (0.05 - 0.6j, -1.2)):
        ta = np.exp(1j * t) * (a - c) / (1.0 - np.conj(c) * a)
        tb = np.exp(1j * t) * (b - c) / (1.0 - np.conj(c) * b)
        assert np.max(np.abs(hyperbolic_distance(ta, tb) - hyperbolic_distance(a, b))) < 1e-10


def test_mobius_diff_range_and_scalar():
    rng = np.random.default_rng(3)
    a = _random_disk_points(rng, 500)
    b = _random_disk_points(rng, 500)
    m = mobius_diff(a, b)
    assert m.shape == (500,)
    assert np.all((m >= 0.0) & (m < 1.0))
    assert isinstance(mobius_diff(0.2 + 0.1j, -0.4j), float)


def test_distance_rejects_points_outside_disk():
    with pytest.raises(ValueError):
        hyperbolic_distance(1.0, 0.0)
    with pytest.raises(ValueError):
        mobius_diff(0.2, 1.2j)


# ---------------------------------------------------------------------------
# Ellipse conversions


def test_ellipse_round_trip():
    rng = np.random.default_rng(5)
    for mu in _random_disk_points(rng, 50):
        e = mu_to_ellipse(complex(mu))
        # invert: |mu| = (ecc - 1) / (ecc + 1), arg(-mu) = 2 inclination
        back = -(e.eccentricity - 1.0) / (e.eccentricity + 1.0) * np.exp(2j * e.inclination)
        assert abs(back - mu) < 1e-12


def test_ellipse_reference_values():
    # eccentricity (1+|mu|)/(1-|mu|): |mu| = 0.5 gives a 3:1 ellipse
    e = mu_to_ellipse(-0.5 + 0.0j)
    assert e.eccentricity == pytest.approx(3.0, abs=1e-12)
    assert e.inclination == pytest.approx(0.0, abs=1e-12)
    # circle: no distortion, inclination fixed at 0 by convention
    e0 = mu_to_ellipse(0.0j)
    assert e0.eccentricity == 1.0 and e0.inclination == 0.0


def test_ellipse_inclination_in_range():
    rng = np.random.default_rng(9)
    for mu in _random_disk_points(rng, 50):
        e = mu_to_ellipse(complex(mu))
        assert 0.0 <= e.inclination < np.pi
        assert e.eccentricity >= 1.0


def test_ellipse_validation():
    with pytest.raises(ValueError):
        mu_to_ellipse(1.0 + 0.0j)


# ---------------------------------------------------------------------------
# Frechet means


def _objective(m, pts, w):
    m = np.asarray(m)[..., None]
    return np.sum(w * hyperbolic_distance(m, pts) ** 2, axis=-1)


def _stress_sets(rng, n=500):
    # weighted 4-point sets with |mu| in [0.7, 0.999] spread around the
    # disk: the undamped Karcher step cycles on these
    r = rng.uniform(0.7, 0.999, (n, 4))
    pts = r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (n, 4)))
    return pts, rng.uniform(0.05, 1.0, (n, 4))


def test_frechet_mean_single_point():
    stats = {}
    assert frechet_mean([0.3 - 0.2j], stats=stats) == 0.3 - 0.2j
    assert stats == {"karcher_sets": 1, "karcher_not_converged": 0}


def test_frechet_mean_two_point_midpoint():
    # hyperbolic midpoint of 0 and 0.8 sits at tanh(artanh(0.8)/2) = 0.5
    m = frechet_mean([0.0, 0.8])
    assert abs(m - 0.5) < 1e-12


def test_frechet_mean_matches_grid_oracle():
    # brute force: a 0.005 grid over the disk, then a 1e-4 grid around its best
    rng = np.random.default_rng(19)
    coarse = np.arange(-0.95, 0.95 + 1e-9, 0.005)
    coarse = (coarse[:, None] + 1j * coarse[None, :]).ravel()
    coarse = coarse[np.abs(coarse) < 0.97]
    fine = np.arange(-0.01, 0.01 + 1e-9, 1e-4)
    fine = (fine[:, None] + 1j * fine[None, :]).ravel()
    for k in (2, 4):
        pts = _random_disk_points(rng, 5 * k, rmax=0.8).reshape(5, k)
        w = rng.uniform(0.2, 1.0, pts.shape)
        means = frechet_mean(pts, w)
        for m, z, wz in zip(means, pts, w):
            best = coarse[np.argmin(_objective(coarse, z, wz))]
            near = best + fine
            oracle = near[np.argmin(_objective(near, z, wz))]
            assert abs(m - oracle) < 2e-4
            assert _objective(m, z, wz) <= _objective(oracle, z, wz) + 1e-12


def test_frechet_mean_batched_equals_rows():
    rng = np.random.default_rng(23)
    pts = _random_disk_points(rng, 60, rmax=0.9).reshape(3, 5, 4)
    w = rng.uniform(0.0, 1.0, pts.shape)
    means = frechet_mean(pts, w)
    assert means.shape == (3, 5)
    rows = np.array([[frechet_mean(z, wz) for z, wz in zip(pz, pw)] for pz, pw in zip(pts, w)])
    assert np.max(np.abs(means - rows)) < 1e-14


@pytest.mark.parametrize("k", [4, 16])
def test_frechet_mean_bits_do_not_depend_on_the_call_size(k):
    # 20000 sets reach arrays of 256 KiB, where numpy may reuse a temporary
    # as the output of the next operation and multiply with another kernel;
    # each set's mean is the same bits in one call and in chunks
    rng = np.random.default_rng(31 + k)
    n = 20000
    pts = _random_disk_points(rng, n * k, rmax=0.9).reshape(n, k)
    w = rng.uniform(0.1, 1.0, pts.shape)
    whole = frechet_mean(pts, w)
    for chunk in (1024, 37):
        parts = [frechet_mean(pts[i : i + chunk], w[i : i + chunk]) for i in range(0, n, chunk)]
        assert np.array_equal(np.concatenate(parts), whole)


def test_frechet_mean_rotation_equivariance():
    # rotations are isometries, so the mean rotates with the data
    rng = np.random.default_rng(21)
    pts = _random_disk_points(rng, 60, rmax=0.8).reshape(10, 6)
    base = frechet_mean(pts)
    for t in (0.9, 2.4):
        rot = frechet_mean(pts * np.exp(1j * t))
        assert np.max(np.abs(rot - base * np.exp(1j * t))) < 1e-12


def test_frechet_mean_first_order_optimality():
    # finite-difference gradient at the reported mean is numerically zero
    rng = np.random.default_rng(17)
    for _ in range(20):
        pts = _random_disk_points(rng, rng.integers(2, 8), rmax=0.9)
        w = rng.uniform(0.2, 1.0, pts.size)
        m = frechet_mean(pts, w)

        def obj(x):
            d = hyperbolic_distance(x, pts)
            return float(np.sum(w * d**2))

        h = 1e-6
        g = complex(
            (obj(m + h) - obj(m - h)) / (2 * h),
            (obj(m + 1j * h) - obj(m - 1j * h)) / (2 * h),
        )
        assert abs(g) < 1e-6


def test_frechet_mean_zero_weight_drops_point():
    pts = [0.1, 0.2, 0.95j]
    w = [1.0, 1.0, 0.0]
    assert abs(frechet_mean(pts, w) - frechet_mean(pts[:2])) < 1e-14
    # padding is ignored whatever it holds, even values outside the disk
    rng = np.random.default_rng(29)
    core = _random_disk_points(rng, 12, rmax=0.9).reshape(4, 3)
    wc = rng.uniform(0.1, 1.0, core.shape)
    for pad in (0.0, 0.99j, 5.0, np.nan):
        padded = np.concatenate([core, np.full((4, 2), pad)], axis=1)
        wp = np.concatenate([wc, np.zeros((4, 2))], axis=1)
        assert np.max(np.abs(frechet_mean(padded, wp) - frechet_mean(core, wc))) < 1e-14


def test_frechet_mean_never_increases_objective(monkeypatch):
    pts, w = _stress_sets(np.random.default_rng(37))
    stats = {}
    final = frechet_mean(pts, w, stats=stats)
    assert np.all(np.isfinite(final)) and np.all(np.abs(final) < 1.0)
    assert stats == {"karcher_sets": 500, "karcher_not_converged": 0}
    # iterate by iterate the objective never rises from the Euclidean start;
    # 1e-12 allows for rounding, which artanh amplifies near the boundary
    prev = _objective(np.sum(w * pts, axis=1) / np.sum(w, axis=1), pts, w)
    for cap in range(1, 9):
        monkeypatch.setattr(diskgeom, "KARCHER_MAX_ITER", cap)
        cur = _objective(frechet_mean(pts, w), pts, w)
        assert np.all(cur <= prev + 1e-12)
        prev = cur
    assert np.all(_objective(final, pts, w) <= prev + 1e-12)
    # and the end point is a minimum: no probe step around it does better
    for step in (1e-6, 1e-3):
        for d in (1, -1, 1j, -1j):
            probe = final + step * d * (1.0 - np.abs(final) ** 2)
            assert np.all(_objective(final, pts, w) <= _objective(probe, pts, w) + 1e-12)


def test_frechet_mean_reports_flag(monkeypatch):
    # stats accumulate across calls; a set stopped by the cap is counted
    stats = {}
    frechet_mean([0.1, 0.3j, -0.2], stats=stats)
    frechet_mean(np.zeros((4, 2)), stats=stats)
    assert stats == {"karcher_sets": 5, "karcher_not_converged": 0}
    monkeypatch.setattr(diskgeom, "KARCHER_MAX_ITER", 1)
    pts, w = _stress_sets(np.random.default_rng(41), n=20)
    frechet_mean(pts, w, stats=stats)
    assert stats["karcher_sets"] == 25
    assert 0 < stats["karcher_not_converged"] <= 20


def test_frechet_mean_validation():
    with pytest.raises(ValueError):
        frechet_mean([])
    with pytest.raises(ValueError):
        frechet_mean([0.1, 0.2], [1.0, -0.5])
    with pytest.raises(ValueError):
        frechet_mean([0.1, 0.2], [0.0, 0.0])
    with pytest.raises(ValueError):
        frechet_mean([[0.1, 0.2], [0.3, 0.4]], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        frechet_mean([0.1, 0.2], [1.0, np.nan])
    with pytest.raises(ValueError):
        frechet_mean([1.0])


# ---------------------------------------------------------------------------
# Field smoothing


def test_smooth_constant_field_is_fixed_point():
    field = _make_field(4, 4, np.full(16, 0.2 + 0.1j))
    sm = smooth_dilatation(field, window=3)
    assert np.max(np.abs(sm.mu - (0.2 + 0.1j))) < 1e-9
    assert sm.status.tolist() == [STATUS_OK] * 16
    assert np.array_equal(sm.phi, field.phi)


def test_smooth_matches_direct_patch_mean():
    # the smoothed cell equals the Frechet mean of its own window patch
    rng = np.random.default_rng(31)
    mu = _random_disk_points(rng, 16, rmax=0.6)
    field = _make_field(4, 4, mu)
    sm = smooth_dilatation(field, window=3)
    mu2 = mu.reshape(4, 4)
    # interior cell (1, 1): window rows 0..2, cols 0..2
    expect = frechet_mean(mu2[0:3, 0:3].ravel())
    assert abs(sm.mu.reshape(4, 4)[1, 1] - expect) < 1e-12
    # corner cell (0, 0): clipped window rows 0..1, cols 0..1
    expect = frechet_mean(mu2[0:2, 0:2].ravel())
    assert abs(sm.mu.reshape(4, 4)[0, 0] - expect) < 1e-12


def test_smooth_pulls_in_outlier():
    mu = np.full(16, 0.1 + 0.0j)
    mu[5] = 0.7 + 0.0j  # cell (1, 1)
    field = _make_field(4, 4, mu)
    sm = smooth_dilatation(field, window=3)
    out = sm.mu[5]
    assert abs(out - 0.1) < abs(0.7 - 0.1)
    assert np.all(np.abs(sm.mu) < 1.0)


def test_smooth_imputes_missing_block():
    mu = np.full(16, 0.25 + 0.05j)
    mu[5] = np.nan
    status = np.array([STATUS_OK] * 16, dtype=object)
    status[5] = STATUS_MISSING
    phi = np.ones(16)
    phi[5] = np.nan
    field = _make_field(4, 4, mu, phi=phi, status=status)
    stats = {}
    sm = smooth_dilatation(field, window=3, stats=stats)
    assert sm.status[5] == "imputed"
    assert abs(sm.mu[5] - (0.25 + 0.05j)) < 1e-9
    assert np.isfinite(sm.phi[5])
    assert sm.status[0] == STATUS_OK
    assert stats == {"karcher_sets": 16, "karcher_not_converged": 0}
    # a block whose whole window is missing stays missing
    status[[0, 1, 4]] = STATUS_MISSING
    sm = smooth_dilatation(_make_field(4, 4, mu, phi=phi, status=status), window=2)
    assert sm.status[0] == STATUS_MISSING
    assert sm.status[[1, 4, 5]].tolist() == ["imputed"] * 3


def test_smooth_phi_geometric_mean():
    # block 5 is missing; its 2 x 2 window holds blocks 5, 6, 9 and 10, so it
    # is imputed with the geometric mean of phi over 6, 9 and 10, while every
    # estimated block keeps its own phi
    phi = np.linspace(0.5, 4.0, 16)
    status = np.array([STATUS_OK] * 16, dtype=object)
    status[5] = STATUS_MISSING
    phi[5] = np.nan
    sm = smooth_dilatation(_make_field(4, 4, np.zeros(16), phi=phi, status=status), window=2)
    assert sm.status[5] == "imputed"
    assert sm.phi[5] == pytest.approx(np.cbrt(phi[6] * phi[9] * phi[10]), rel=1e-12)
    keep = np.arange(16) != 5
    assert np.array_equal(sm.phi[keep], phi[keep])


def test_smooth_window_validation():
    field = _make_field(3, 3, np.zeros(9))
    with pytest.raises(ValueError):
        smooth_dilatation(field, window=4)
    with pytest.raises(ValueError):
        smooth_dilatation(field, window=0)
    bad = _make_field(3, 3, np.zeros(9))
    bad.geometry.pop("nbx")
    with pytest.raises(ValueError):
        smooth_dilatation(bad, window=2)


# ---------------------------------------------------------------------------
# Interpolation


def test_interpolate_exact_at_centers():
    rng = np.random.default_rng(41)
    mu = _random_disk_points(rng, 16, rmax=0.7)
    field = _make_field(4, 4, mu)
    for k in (0, 5, 15):
        stats = {}
        val = interpolate_dilatation(field, complex(field.centers[k]), stats=stats)
        assert abs(val - mu[k]) < 1e-12
        assert stats["points_extrapolated"] == 0


def test_interpolate_midpoint_of_equal_neighbors():
    mu = np.full(16, 0.3 - 0.2j)
    field = _make_field(4, 4, mu)
    mid = 0.5 * (field.centers[5] + field.centers[6])
    assert abs(interpolate_dilatation(field, complex(mid)) - (0.3 - 0.2j)) < 1e-9


def test_interpolate_midpoint_hyperbolic():
    # adjacent centers holding 0 and 0.8 average to the hyperbolic midpoint
    mu = np.zeros(16, dtype=np.complex128)
    mu[6] = 0.8  # cell (1, 2), y-neighbor of cell (1, 1)
    field = _make_field(4, 4, mu)
    mid = 0.5 * (field.centers[5] + field.centers[6])
    val = interpolate_dilatation(field, complex(mid))
    assert abs(val - 0.5) < 1e-3


def test_interpolate_outside_hull_uses_nearest():
    rng = np.random.default_rng(43)
    mu = _random_disk_points(rng, 16, rmax=0.7)
    field = _make_field(4, 4, mu)
    far = field.centers[0] - (1.0 + 1.0j)
    stats = {}
    val = interpolate_dilatation(field, complex(far), stats=stats)
    assert stats["points_extrapolated"] == 1
    assert abs(val - mu[0]) < 1e-12


def test_interpolate_skips_missing_corner():
    mu = np.full(16, 0.2 + 0.0j)
    mu[5] = np.nan
    status = np.array([STATUS_OK] * 16, dtype=object)
    status[5] = STATUS_MISSING
    field = _make_field(4, 4, mu, status=status)
    mid = 0.5 * (field.centers[5] + field.centers[6])
    val = interpolate_dilatation(field, complex(mid))
    assert abs(val - 0.2) < 1e-9


def test_interpolate_array_matches_pointwise_loop():
    rng = np.random.default_rng(47)
    mu = _random_disk_points(rng, 16, rmax=0.7)
    status = np.array([STATUS_OK] * 16, dtype=object)
    status[[5, 6, 9, 10]] = STATUS_MISSING  # the middle cell has no corner left
    mu[[5, 6, 9, 10]] = np.nan
    field = _make_field(4, 4, mu, status=status)
    c = field.centers
    # a lattice reaching past the centers on every side, plus the exact
    # centers and the middle of the cell whose four corners are missing
    xs = np.linspace(c.real.min() - 0.03, c.real.max() + 0.03, 23)
    ys = np.linspace(c.imag.min() - 0.03, c.imag.max() + 0.03, 19)
    locs = np.concatenate(
        [(xs[:, None] + 1j * ys[None, :]).ravel(), c, [0.25 * (c[5] + c[6] + c[9] + c[10])]]
    )
    stats = {}
    values = interpolate_dilatation(field, locs, stats=stats)
    point_stats = [{} for _ in locs]
    loop = [interpolate_dilatation(field, complex(z), stats=s) for z, s in zip(locs, point_stats)]
    assert np.max(np.abs(values - np.array(loop))) < 1e-14
    nearest = np.array([s["points_extrapolated"] for s in point_stats])
    assert stats["points_extrapolated"] == int(nearest.sum())
    assert nearest[-1] == 1 and nearest[-2] == 0  # no-corner point takes the nearest value
    assert stats["karcher_sets"] == int(np.sum(nearest == 0))
    grid = interpolate_dilatation(field, locs[: xs.size * ys.size].reshape(xs.size, ys.size))
    assert grid.shape == (xs.size, ys.size)
    assert np.array_equal(grid.ravel(), values[: xs.size * ys.size])


def test_interpolate_holds_one_chunk_at_a_time(monkeypatch):
    # a 40 x 40 block field (the 400 x 400 config's 1600 blocks) sampled at
    # 128 x 128 points reaching past the centers, 1008 of them extrapolated.
    # Held at once, the corner means and the nearest-block distances take
    # about 2.4 kB a point (39 MiB here); in chunks the peak is the input,
    # the values and one chunk's temporaries.  Each value depends on its
    # point alone, so other chunk sizes give the same bits and counts
    rng = np.random.default_rng(5)
    field = _make_field(40, 40, _random_disk_points(rng, 1600, rmax=0.7), block=10)
    ax = np.linspace(0.0, 4.0, 128)
    locs = (ax[:, None] + 1j * ax[None, :]).ravel()
    stats = {}
    tracemalloc.start()
    try:
        values = interpolate_dilatation(field, locs, stats=stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats["points_extrapolated"] == 1008
    assert peak < 4 * 2**20
    monkeypatch.setattr(diskgeom, "INTERP_CHUNK", 37)
    monkeypatch.setattr(diskgeom, "NEAREST_PAIRS", 5000)
    small = {}
    assert np.array_equal(interpolate_dilatation(field, locs, stats=small), values)
    assert small == stats
