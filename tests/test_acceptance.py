"""End-to-end acceptance checks for the deformation-recovery pipeline.

Each test covers one shipping criterion and prints a single PASS/FAIL
line with the measured values, so a bare run of this file doubles as a
scorecard.  Tolerances are the contract; do not loosen them to make a
failing build green.
"""

import os
import time

import numpy as np
import pytest

import deformfield as df
from deformfield import (
    ComplexGrid,
    DeformationSpec,
    Grid,
    PipelineConfig,
    SampleField,
)
from deformfield.likelihood import STATUS_OK


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def _lattice_sites(n: int, spacing: float) -> np.ndarray:
    ax = spacing * np.arange(n)
    return (ax[:, None] + 1j * ax[None, :]).ravel()


def _rotational_unit() -> DeformationSpec:
    return DeformationSpec.rotational(1.2, np.pi / 2, (0.0, 1.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# 1. Polynomial annihilation by increment matrices


def test_criterion_01_increment_annihilation():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_basis = 0.0
    worst_power = 0.0
    for trial in range(50):
        degree = trial % 4
        dim = (degree + 1) * (degree + 2) // 2
        m = int(rng.integers(max(12, dim + 2), 101))
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        L = df.increment_matrix(z, degree)
        basis = df.monomial_basis(z, degree)
        worst_basis = max(worst_basis, float(np.max(np.abs(L.rows @ basis))))
        diff = np.abs(z[:, None] - z[None, :])
        for k in range(degree + 1):
            d2k = diff ** (2 * k)
            form = L.rows @ d2k @ L.rows.T
            worst_power = max(worst_power, float(np.max(np.abs(form)) / np.max(d2k)))
    elapsed = time.monotonic() - t0
    ok = worst_basis < 1e-10 and worst_power < 1e-8 and elapsed < 10.0
    _report(
        1,
        ok,
        f"max basis residual {worst_basis:.2e}, max relative distance-power "
        f"form {worst_power:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. The variogram exponent survives the deformation


def test_criterion_02_variogram_index_invariance():
    t0 = time.monotonic()
    n = 200
    sp = 1.0 / (n - 1)
    model = df.CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0)
    sites = _lattice_sites(n, sp)
    blocks = df.simulation_blocks(n, n, 50)
    bid = np.empty(n * n, dtype=int)
    for k, idx in enumerate(blocks):
        bid[idx] = k
    bid2 = bid.reshape(n, n)

    sim_z = df.simulate_isotropic(model, sites, 11, blocks=blocks)
    slope_z = df.variogram_slope(
        sim_z.values.reshape(n, n), sp, max_lag=6, block_ids=bid2
    )
    latent = df.apply_deformation(_rotational_unit(), sites)
    sim_y = df.simulate_isotropic(model, latent, 12, blocks=blocks)
    slope_y = df.variogram_slope(
        sim_y.values.reshape(n, n), sp, max_lag=6, block_ids=bid2
    )
    elapsed = time.monotonic() - t0
    ok = abs(slope_z - 0.7) < 0.05 and abs(slope_y - 0.7) < 0.05 and elapsed < 120.0
    _report(
        2,
        ok,
        f"slope isotropic {slope_z:.4f}, slope deformed {slope_y:.4f}, "
        f"target 0.70 +- 0.05, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 3. Fractal index estimation at working scale


def test_criterion_03_fractal_index_band():
    t0 = time.monotonic()
    n = 100
    sp = 0.01
    model = df.CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0)
    sites = _lattice_sites(n, sp)
    blocks = df.simulation_blocks(n, n, 50)
    part = df.partition_grid(n, n, 10, spacing=(sp, sp))
    alphas = []
    for seed in range(10):
        sim = df.simulate_isotropic(model, sites, seed, blocks=blocks)
        data = SampleField(sites, sim.values)
        alphas.append(df.estimate_alpha(df.block_contrasts(data, part, alpha_max=4.0)))
    alphas = np.array(alphas)
    elapsed = time.monotonic() - t0
    ok = bool(np.all((alphas >= 0.6) & (alphas <= 0.8))) and elapsed < 300.0
    _report(
        3,
        ok,
        f"alpha-hat range [{alphas.min():.4f}, {alphas.max():.4f}] over 10 seeds, "
        f"band [0.6, 0.8], {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 4. Local anisotropy against the finite-difference oracle


def test_criterion_04_local_anisotropy_oracle():
    n = 100
    sp = 0.01
    mu_true = 0.3 + 0.0j
    phi_true = float(np.sqrt(1.0 - abs(mu_true) ** 2))  # det J of z + 0.3 conj z
    model = df.CovarianceModel.polynomial_plus_fractional(0.0231, 3.0, 1.0)
    deform = DeformationSpec.affine(1.0, mu_true, 0.0, (-0.5, 1.5, -0.5, 1.5))
    sites = _lattice_sites(n, sp)
    latent = df.apply_deformation(deform, sites)
    sim = df.simulate_isotropic(model, latent, 0, blocks=df.simulation_blocks(n, n, 50))
    part = df.partition_grid(n, n, 10, spacing=(sp, sp))
    field = df.estimate_field(df.block_contrasts(SampleField(sites, sim.values), part), 3.0)
    smoothed = df.smooth_dilatation(field, 4)

    ok_mask = smoothed.ok_mask()
    med_block = float(np.median(np.abs(smoothed.mu[ok_mask] - mu_true)))
    raw = field.mu[field.ok_mask()]
    med_raw = abs(complex(np.median(raw.real), np.median(raw.imag)) - mu_true)
    phi = field.phi[field.ok_mask()]
    med_phi = float(np.median(np.abs(np.log(phi / phi_true))))
    ok = med_block < 0.05 and med_raw < 0.05 and med_phi < 0.1
    _report(
        4,
        ok,
        f"median |mu-hat - 0.3| {med_block:.4f} (smoothed), median mu-hat off by "
        f"{med_raw:.4f} (raw), median |log phi ratio| {med_phi:.4f}",
    )


# ---------------------------------------------------------------------------
# 5. Hyperbolic disk geometry


def test_criterion_05_disk_geometry():
    t0 = time.monotonic()
    rng = np.random.default_rng(55)

    def draw(k, rmax):
        r = rmax * np.sqrt(rng.uniform(0, 1, k))
        return r * np.exp(2j * np.pi * rng.uniform(0, 1, k))

    a, b, c = draw(1000, 0.95), draw(1000, 0.95), draw(1000, 0.95)
    dab = df.hyperbolic_distance(a, b)
    sym = float(np.max(np.abs(dab - df.hyperbolic_distance(b, a))))
    idty = float(np.max(np.abs(df.hyperbolic_distance(a, a))))
    tri = float(
        np.max(dab - df.hyperbolic_distance(a, c) - df.hyperbolic_distance(c, b))
    )
    centers = draw(1000, 0.9)
    angles = rng.uniform(0, 2 * np.pi, 1000)
    ta = np.exp(1j * angles) * (a - centers) / (1.0 - np.conj(centers) * a)
    tb = np.exp(1j * angles) * (b - centers) / (1.0 - np.conj(centers) * b)
    inv = float(np.max(np.abs(df.hyperbolic_distance(ta, tb) - dab)))

    # brute-force oracle for the two-point mean
    xs = np.linspace(-0.95, 0.95, 381)
    grid = xs[:, None] + 1j * xs[None, :]
    mask = np.abs(grid) < 0.95
    pts = grid[mask]
    objective = (
        df.hyperbolic_distance(pts, np.zeros_like(pts)) ** 2
        + df.hyperbolic_distance(pts, np.full_like(pts, 0.8)) ** 2
    )
    brute = pts[int(np.argmin(objective))]
    mean = df.frechet_mean([0.0, 0.8])
    elapsed = time.monotonic() - t0
    ok = (
        sym < 1e-10
        and idty < 1e-10
        and tri < 1e-10
        and inv < 1e-10
        and abs(mean - 0.5) < 1e-3
        and abs(mean - brute) < 0.006
        and elapsed < 10.0
    )
    _report(
        5,
        ok,
        f"axiom residuals sym {sym:.1e} id {idty:.1e} tri {tri:.1e} "
        f"invariance {inv:.1e}; mean({{0, 0.8}}) = {mean.real:.6f} "
        f"(brute force {brute.real:.4f}), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. Poisson solver accuracy and order


def _poisson_error(n: int) -> float:
    h = 1.0 / (n - 1)
    x = h * np.arange(n)
    exact = np.sin(np.pi * x)[:, None] * np.sin(np.pi * x)[None, :]
    sol = df.poisson_solve_dirichlet(-2.0 * np.pi**2 * exact, h)
    return float(np.max(np.abs(sol - exact)))


def test_criterion_06_poisson_convergence():
    err_64 = _poisson_error(64)
    err_128 = _poisson_error(128)
    ratio = err_64 / err_128
    ok = err_128 < 1e-3 and 3.5 < ratio < 4.5
    _report(
        6,
        ok,
        f"max error {err_128:.2e} at 128x128, halving ratio {ratio:.2f} "
        f"(target 4 +- 0.5)",
    )


# ---------------------------------------------------------------------------
# 7. Flow reconstruction of a map from its dilatation


def test_criterion_07_flow_reconstruction():
    t0 = time.monotonic()
    n = 64
    sp = 1.0 / (n - 1)
    const = ComplexGrid(n, n, (0.0, 0.0), (sp, sp), np.full((n, n), 0.3 + 0.0j))
    fmap, _ = df.reconstruct_map(const, steps=20)
    mu_hat, _ = df.numeric_dilatation(fmap, interior_only=True)
    core = np.abs(mu_hat.values - 0.3)[2:-2, 2:-2]
    const_max = float(core.max())

    spec = _rotational_unit()
    sites = _lattice_sites(n, sp)
    truth = ComplexGrid(
        n, n, (0.0, 0.0), (sp, sp), df.apply_deformation(spec, sites).reshape(n, n)
    )
    mu_true, _ = df.numeric_dilatation(truth)
    frec, _ = df.reconstruct_map(
        ComplexGrid(n, n, (0.0, 0.0), (sp, sp), mu_true.values), steps=20
    )
    mu_rec, _ = df.numeric_dilatation(frec, interior_only=True)
    rot_med = float(
        np.median(np.abs(mu_rec.values - mu_true.values)[2:-2, 2:-2])
    )

    # halving the Euler step should halve the endpoint movement
    ends = {}
    for steps in (5, 10, 20):
        f_s, _ = df.reconstruct_map(const, steps=steps)
        ends[steps] = f_s.values
    gap_coarse = float(np.median(np.abs(ends[5] - ends[10])))
    gap_fine = float(np.median(np.abs(ends[10] - ends[20])))
    ratio = gap_coarse / gap_fine
    elapsed = time.monotonic() - t0
    ok = const_max < 0.02 and rot_med < 0.03 and 1.5 < ratio < 2.5 and elapsed < 120.0
    _report(
        7,
        ok,
        f"constant case interior max {const_max:.4f} (bar 0.02), bending case "
        f"median {rot_med:.5f} (bar 0.03), step-doubling ratio {ratio:.2f}, "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. Conformal scale correction


def test_criterion_08_conformal_correction():
    rng = np.random.default_rng(88)

    # planted harmonic coefficients come back exactly
    r = 0.9 * np.sqrt(rng.uniform(0, 1, 150))
    w = r * np.exp(2j * np.pi * rng.uniform(0, 1, 150))
    planted = np.array([0.2, 0.1 - 0.3j, -0.05 + 0.02j, 0.03j])
    targets = np.polynomial.polynomial.polyval(w, planted).real
    fit = df.fit_log_scale(w, targets, 3)
    coef_err = float(np.max(np.abs(fit.coefficients - planted)))

    # identity flow output plus doubled scales must recover 2z
    n = 21
    sp = 1.0 / (n - 1)
    sites = _lattice_sites(n, sp)
    ident = ComplexGrid(n, n, (0.0, 0.0), (sp, sp), sites.reshape(n, n))
    ones = Grid(n, n, (0.0, 0.0), (sp, sp), np.ones((n, n)))
    part = df.partition_grid(n, n, 7, spacing=(sp, sp))
    m = part.centers.size
    field = df.DilatationScaleField(
        centers=part.centers,
        mu=np.zeros(m, dtype=np.complex128),
        phi=np.full(m, 2.0),
        loglik=np.zeros(m),
        status=np.array([STATUS_OK] * m, dtype=object),
        alpha_used=0.7,
        geometry=part.geometry,
    )
    corrected = df.compose_estimate(ident, ones, field, n_max=4)
    d1_scaling = df.distance_d1(
        corrected, DeformationSpec.affine(2.0, 0.0, 0.0, (0, 1, 0, 1))
    )

    # the correction is conformal: measured dilatation stays put
    n2 = 31
    sp2 = 1.0 / (n2 - 1)
    sites2 = _lattice_sites(n2, sp2)
    warped = ComplexGrid(
        n2, n2, (0.0, 0.0), (sp2, sp2),
        (sites2 + 0.2 * np.conj(sites2)).reshape(n2, n2),
    )
    _, phi_w = df.numeric_dilatation(warped)
    part2 = df.partition_grid(n2, n2, 6, spacing=(sp2, sp2))
    m2 = part2.centers.size
    field2 = df.DilatationScaleField(
        centers=part2.centers,
        mu=np.zeros(m2, dtype=np.complex128),
        phi=1.0 + 0.3 * part2.centers.real,
        loglik=np.zeros(m2),
        status=np.array([STATUS_OK] * m2, dtype=object),
        alpha_used=0.7,
        geometry=part2.geometry,
    )
    out = df.compose_estimate(warped, phi_w, field2, n_max=4)
    mu_in, _ = df.numeric_dilatation(warped)
    mu_out, _ = df.numeric_dilatation(out)
    mu_shift = float(
        np.median(np.abs(mu_in.values[2:-2, 2:-2] - mu_out.values[2:-2, 2:-2]))
    )
    ok = coef_err < 1e-8 and d1_scaling < 1e-3 and mu_shift < 0.01
    _report(
        8,
        ok,
        f"planted-coefficient error {coef_err:.1e}, scaling-recovery d1 "
        f"{d1_scaling:.1e}, median dilatation shift {mu_shift:.1e}",
    )


# ---------------------------------------------------------------------------
# 9 and 11 share one set of full desk-scale runs


def _desk_config(noise: float) -> PipelineConfig:
    return PipelineConfig(
        grid_nx=100,
        grid_ny=100,
        spacing_x=0.01,
        spacing_y=0.01,
        family="polynomial-plus-fractional",
        variance=0.5151,
        alpha=0.7,
        c=1.0,
        deform="rotational",
        deform_r0=1.2,
        deform_angle=float(np.pi / 2),
        seed=1,
        noise_fraction=noise,
        alpha_max=4.0,
        block=10,
        sim_block=50,
        smooth_window=4,
        flow_steps=20,
        flow_lattice=64,
        harmonic_n=8,
        d1_samples=20000,
    )


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk")
    runs = {}
    for tag, noise in (("n00", 0.0), ("n10", 0.10), ("n25", 0.25)):
        out = str(base / tag)
        t0 = time.monotonic()
        metrics = df.run_pipeline(_desk_config(noise), out)
        runs[tag] = {
            "out": out,
            "metrics": metrics,
            "seconds": time.monotonic() - t0,
        }
    out_again = str(base / "n00_again")
    df.run_pipeline(_desk_config(0.0), out_again)
    runs["n00_again"] = {"out": out_again}
    return runs


def test_criterion_09_end_to_end_desk(desk_runs):
    m0 = desk_runs["n00"]["metrics"]
    m10 = desk_runs["n10"]["metrics"]
    m25 = desk_runs["n25"]["metrics"]
    total = sum(desk_runs[t]["seconds"] for t in ("n00", "n10", "n25"))
    d1s = (m0["d1"], m10["d1"], m25["d1"])
    d2s = (m0["d2"], m10["d2"], m25["d2"])
    monotone = d1s[0] <= d1s[1] <= d1s[2] and d2s[0] <= d2s[1] <= d2s[2]
    ok = m0["d2"] < 0.15 and monotone and total < 900.0
    _report(
        9,
        ok,
        f"clean d2 {m0['d2']:.4f} (bar 0.15); noise 0/10/25% gives d1 "
        f"{d1s[0]:.4f}/{d1s[1]:.4f}/{d1s[2]:.4f} and d2 "
        f"{d2s[0]:.4f}/{d2s[1]:.4f}/{d2s[2]:.4f}; {total:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. The distances ignore rigid motions


def test_criterion_10_rigid_invariance():
    spec = _rotational_unit()
    n = 41
    sp = 1.0 / (n - 1)
    sites = _lattice_sites(n, sp)
    vals = df.apply_deformation(spec, sites)
    vals = (vals + 0.03 * np.conj(vals)).reshape(n, n)  # imperfect estimate
    base = ComplexGrid(n, n, (0.0, 0.0), (sp, sp), vals)
    d1_base = df.distance_d1(base, spec)
    mu_base, _ = df.numeric_dilatation(base)
    d2_base = df.distance_d2(mu_base, spec)

    rng = np.random.default_rng(110)
    worst_d1 = 0.0
    worst_d2 = 0.0
    for _ in range(10):
        rot = np.exp(1j * rng.uniform(0, 2 * np.pi))
        shift = complex(*rng.uniform(-2, 2, 2))
        moved = ComplexGrid(n, n, base.origin, base.spacing, rot * vals + shift)
        worst_d1 = max(worst_d1, abs(df.distance_d1(moved, spec) - d1_base))
        mu_moved, _ = df.numeric_dilatation(moved)
        worst_d2 = max(worst_d2, abs(df.distance_d2(mu_moved, spec) - d2_base))
    ok = worst_d1 < 1e-10 and worst_d2 < 1e-10
    _report(
        10,
        ok,
        f"over 10 rigid motions: d1 shift {worst_d1:.1e}, d2 shift {worst_d2:.1e} "
        f"(base d1 {d1_base:.4f}, d2 {d2_base:.4f})",
    )


# ---------------------------------------------------------------------------
# 11. Reruns are byte-identical


def test_criterion_11_determinism(desk_runs):
    dir_a = desk_runs["n00"]["out"]
    dir_b = desk_runs["n00_again"]["out"]
    names_a = sorted(os.listdir(dir_a))
    names_b = sorted(os.listdir(dir_b))
    same_names = names_a == names_b
    diffs = []
    for name in names_a:
        with open(os.path.join(dir_a, name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(dir_b, name), "rb") as fh:
            blob_b = fh.read()
        if blob_a != blob_b:
            diffs.append(name)
    ok = same_names and not diffs
    _report(
        11,
        ok,
        f"{len(names_a)} artifacts compared, "
        + ("all byte-identical" if ok else f"differing: {', '.join(diffs) or 'file sets'}"),
    )
