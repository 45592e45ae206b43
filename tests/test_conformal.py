"""Conformal scale correction and deformation distances."""

import tracemalloc

import numpy as np
import pytest

from deformfield.conformal import (
    GAUSS_NODES,
    compose_estimate,
    distance_d1,
    distance_d2,
    fit_log_scale,
    integrate_hprime,
)
from deformfield.fields import (
    DeformationSpec,
    apply_deformation,
    numeric_dilatation,
)
from deformfield.grids import ComplexGrid, Grid
from deformfield.likelihood import STATUS_OK, DilatationScaleField, partition_grid


def _unit_square_grid(n):
    sp = 1.0 / (n - 1)
    sites = (
        np.arange(n)[:, None] * sp + 1j * np.arange(n)[None, :] * sp
    ).astype(np.complex128)
    return ComplexGrid(n, n, (0.0, 0.0), (sp, sp), sites)


def _disk_points(rng, n, rmax=0.9):
    r = rmax * np.sqrt(rng.uniform(0, 1, n))
    return r * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def _field_with_phi(n, block, phi_fn):
    part = partition_grid(n, n, block, spacing=(1.0 / (n - 1),) * 2)
    m = part.centers.size
    phi = np.array([phi_fn(c) for c in part.centers], dtype=np.float64)
    return DilatationScaleField(
        centers=part.centers,
        mu=np.zeros(m, dtype=np.complex128),
        phi=phi,
        loglik=np.zeros(m),
        status=np.array([STATUS_OK] * m, dtype=object),
        alpha_used=0.7,
        geometry=part.geometry,
    )


# ---------------------------------------------------------------------------
# Harmonic log-scale fit


def test_fit_zero_targets():
    rng = np.random.default_rng(1)
    w = _disk_points(rng, 60)
    fit = fit_log_scale(w, np.zeros(60), 3)
    assert np.max(np.abs(fit.coefficients)) < 1e-12
    assert fit.residual < 1e-12
    assert not fit.rank_deficient


def test_fit_recovers_planted_coefficients():
    rng = np.random.default_rng(2)
    w = _disk_points(rng, 120)
    a0, a1 = 0.2, 0.1 - 0.3j
    targets = a0 + (a1 * w).real
    fit = fit_log_scale(w, targets, 1)
    assert abs(fit.coefficients[0] - a0) < 1e-8
    assert abs(fit.coefficients[1] - a1) < 1e-8
    assert fit.residual < 1e-10
    assert fit.coefficients[0].imag == 0.0


def test_fit_residual_monotone_in_degree():
    rng = np.random.default_rng(3)
    w = _disk_points(rng, 200)
    targets = np.exp(w.real) * np.cos(w.imag)  # smooth but not polynomial
    res = [fit_log_scale(w, targets, n).residual for n in range(0, 5)]
    assert all(res[k + 1] <= res[k] + 1e-12 for k in range(4))


def test_fit_flags_rank_deficiency():
    w = np.full(8, 0.2 + 0.1j)  # repeated point: columns collapse
    fit = fit_log_scale(w, np.ones(8), 1)
    assert fit.rank_deficient


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_log_scale([0.1, 0.2], [1.0], 0)
    with pytest.raises(ValueError):
        fit_log_scale([0.1], [1.0], -1)
    with pytest.raises(ValueError):
        fit_log_scale([0.1, 0.2], [1.0, 2.0], 1)  # needs 3 points
    with pytest.raises(ValueError):
        fit_log_scale([0.5, 1.0], [1.0, 2.0], 0)  # on the circle


# ---------------------------------------------------------------------------
# Integration of the correction


def _fit_with(coefs):
    fit = fit_log_scale([0.1, 0.2j, -0.3], [0.0, 0.0, 0.0], 1)
    fit.coefficients = np.asarray(coefs, dtype=np.complex128)
    return fit


def test_integrate_identity():
    fit = _fit_with([0.0])
    rng = np.random.default_rng(4)
    w = _disk_points(rng, 30)
    assert np.max(np.abs(integrate_hprime(fit, w) - w)) < 1e-14


def test_integrate_constant_scale():
    fit = _fit_with([np.log(2.0)])
    rng = np.random.default_rng(5)
    w = _disk_points(rng, 30)
    assert np.max(np.abs(integrate_hprime(fit, w) - 2.0 * w)) < 1e-12


def test_integrate_exponential():
    # log h' = w integrates to e^w - 1
    fit = _fit_with([0.0, 1.0])
    rng = np.random.default_rng(6)
    w = _disk_points(rng, 30)
    assert np.max(np.abs(integrate_hprime(fit, w) - (np.exp(w) - 1.0))) < 1e-10


def test_integrate_scalar_input():
    fit = _fit_with([0.0, 1.0])
    out = integrate_hprime(fit, 0.3 + 0.2j)
    assert np.ndim(out) == 0
    assert abs(out - (np.exp(0.3 + 0.2j) - 1.0)) < 1e-10


def _one_panel(fit, pts):
    # the quadrature over every point at once, as one array per node
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_NODES)
    zeta = pts[..., None] * (0.5 * (nodes + 1.0))
    vals = np.exp(np.polynomial.polynomial.polyval(zeta, fit.coefficients))
    return pts * np.sum(0.5 * weights * vals, axis=-1)


@pytest.mark.parametrize("n", [1, 255, 256, 257, 9216])
def test_integrate_in_chunks_matches_one_panel_over_all_points(n):
    # points on either side of a chunk edge, in 1-d and 2-d arrays and
    # alone, get the bits of the whole-array quadrature
    rng = np.random.default_rng(n)
    fit = _fit_with(0.3 * (rng.normal(size=9) + 1j * rng.normal(size=9)))
    w = _disk_points(rng, n, rmax=0.95)
    want = _one_panel(fit, w)
    shapes = [(n,), (1, n), (n, 1)] + ([(96, 96)] if n == 9216 else [])
    for shape in shapes:
        got = integrate_hprime(fit, w.reshape(shape))
        assert got.shape == shape and np.array_equal(got.ravel(), want), shape
    one = integrate_hprime(fit, complex(w[-1]))
    assert isinstance(one, np.complex128) and one == want[-1]


def test_compose_holds_no_whole_lattice_quadrature():
    # a 96 x 96 map: the quadrature over all points at once held 9216 x 32
    # complex values per temporary, and the call peaked near 19 MB
    n = 96
    base = _unit_square_grid(n)
    f_check = base.with_values(base.values + 0.1 * base.values**2)
    phi_check = Grid(n, n, base.origin, base.spacing, np.ones((n, n)))
    field = _field_with_phi(n, 6, lambda c: 1.0 + 0.3 * c.real)
    compose_estimate(f_check, phi_check, field, n_max=8)  # warm up
    tracemalloc.start()
    try:
        compose_estimate(f_check, phi_check, field, n_max=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6, peak


# ---------------------------------------------------------------------------
# Composition


def test_compose_matched_scales_is_translation():
    # phi_hat == phi of the flow map: correction reduces to the chart
    # unscaling, so the composed map is the input up to a rigid motion,
    # which leaves every pairwise distance as it was
    n = 21
    f_check = _unit_square_grid(n)
    phi_check = Grid(n, n, f_check.origin, f_check.spacing, np.ones((n, n)))
    field = _field_with_phi(n, 7, lambda c: 1.0)
    out = compose_estimate(f_check, phi_check, field, n_max=4).values.ravel()
    ref = f_check.values.ravel()
    gap = np.abs(out[:, None] - out[None, :]) - np.abs(ref[:, None] - ref[None, :])
    assert np.max(np.abs(gap)) < 1e-6


def test_compose_charts_the_bounding_box_and_absorbs_the_radius():
    # with matched scales the fit is the constant log(radius), so h(w) is
    # radius * w and the result is f_check moved by its bounding-box center
    n = 21
    base = _unit_square_grid(n)
    f_check = base.with_values(2.0 * base.values + (3.0 - 1.0j))  # spans [3, 5] x [-1, 1]
    phi_check = Grid(n, n, base.origin, base.spacing, np.ones((n, n)))
    field = _field_with_phi(n, 7, lambda c: 1.0)
    out = compose_estimate(f_check, phi_check, field, n_max=4)
    assert np.max(np.abs(out.values - (f_check.values - 4.0))) < 1e-12


def test_compose_restores_pure_scaling():
    # truth 2z with a flow output stuck at the identity: the fitted factor
    # must supply the missing doubling
    n = 21
    f_check = _unit_square_grid(n)
    phi_check = Grid(n, n, f_check.origin, f_check.spacing, np.ones((n, n)))
    field = _field_with_phi(n, 7, lambda c: 2.0)
    out = compose_estimate(f_check, phi_check, field, n_max=4)
    truth = DeformationSpec.affine(2.0, 0.0, 0.0, (0, 1, 0, 1))
    assert distance_d1(out, truth) < 1e-3


def test_compose_preserves_dilatation():
    # the correction is analytic, so mu of the composed map is unchanged
    n = 31
    base = _unit_square_grid(n)
    warped = ComplexGrid(
        n, n, base.origin, base.spacing, base.values + 0.2 * np.conj(base.values)
    )
    _, phi_check = numeric_dilatation(warped)
    field = _field_with_phi(n, 6, lambda c: 1.0 + 0.3 * c.real)
    out = compose_estimate(warped, phi_check, field, n_max=4)
    mu_in, _ = numeric_dilatation(warped)
    mu_out, _ = numeric_dilatation(out)
    gap = np.abs(mu_in.values[2:-2, 2:-2] - mu_out.values[2:-2, 2:-2])
    assert np.max(gap) < 0.01


# ---------------------------------------------------------------------------
# Distances


def _truth_grid(spec, n=41):
    sp = 1.0 / (n - 1)
    sites = (np.arange(n)[:, None] * sp + 1j * np.arange(n)[None, :] * sp).ravel()
    vals = apply_deformation(spec, sites).reshape(n, n)
    return ComplexGrid(n, n, (0.0, 0.0), (sp, sp), vals)


def test_d1_vanishes_on_truth():
    spec = DeformationSpec.rotational()
    g = _truth_grid(spec)
    assert distance_d1(g, spec) < 1e-12


def test_d1_rigid_invariance():
    spec = DeformationSpec.rotational()
    g = _truth_grid(spec)
    moved = ComplexGrid(
        g.nx, g.ny, g.origin, g.spacing, np.exp(1.1j) * g.values + (2.0 - 0.5j)
    )
    assert abs(distance_d1(moved, spec) - distance_d1(g, spec)) < 1e-10


def test_d1_deterministic_and_sensitive():
    spec = DeformationSpec.rotational()
    g = _truth_grid(spec)
    warped = ComplexGrid(
        g.nx, g.ny, g.origin, g.spacing, g.values + 0.05 * np.conj(g.values)
    )
    a = distance_d1(warped, spec)
    b = distance_d1(warped, spec)
    assert a == b
    assert a > 1e-3


def test_d2_vanishes_on_truth():
    spec = DeformationSpec.rotational()
    g = _truth_grid(spec)
    mu_true, _ = numeric_dilatation(g)
    assert distance_d2(mu_true, spec) == 0.0


def test_d2_rigid_postcomposition_invariance():
    # rotating and shifting the map leaves its dilatation untouched
    spec = DeformationSpec.rotational()
    g = _truth_grid(spec)
    moved = ComplexGrid(
        g.nx, g.ny, g.origin, g.spacing, np.exp(0.7j) * g.values + (1.0 + 2.0j)
    )
    mu_moved, _ = numeric_dilatation(moved)
    assert distance_d2(mu_moved, spec) < 1e-10


def test_d2_detects_wrong_dilatation():
    spec = DeformationSpec.rotational()
    g = _truth_grid(spec)
    mu_true, _ = numeric_dilatation(g)
    shifted = ComplexGrid(
        g.nx, g.ny, g.origin, g.spacing, mu_true.values + 0.1
    )
    assert distance_d2(shifted, spec) == pytest.approx(0.1, abs=1e-6)
