"""Block partitioning, the fractal-index search, and local anisotropy fits."""

import numpy as np
import pytest
from scipy import optimize
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.lapack import dpotrf, dtpttr, dtrtrs

from deformfield import likelihood
from deformfield.errors import EstimationError
from deformfield.fields import (
    CovarianceModel,
    DeformationSpec,
    SampleField,
    apply_deformation,
    g_alpha,
    simulate_isotropic,
    simulation_blocks,
)
from deformfield.increments import increment_matrix, monomial_basis
from deformfield.likelihood import (
    MU_CAP,
    _EVAL_ROWS,
    _alpha_nll,
    _lag_table,
    _mu_from_x,
    _newton_lockstep,
    _point_groups,
    _profiled_nll,
    _shared_blocks,
    _whiten,
    DilatationScaleField,
    NeighborhoodPartition,
    MAX_LAG_TABLE_BYTES,
    block_contrasts,
    contrast_degree,
    lag_table_bytes,
    estimate_alpha,
    estimate_field,
    partition_grid,
)


def _lattice_sites(n: int, spacing: float = 0.01):
    xs = np.arange(n) * spacing
    return (xs[:, None] + 1j * xs[None, :]).ravel()


def _simulated_field(n, model, seed, deform=None, tile=None):
    sites = _lattice_sites(n)
    latent = sites if deform is None else apply_deformation(deform, sites)
    blocks = simulation_blocks(n, n, tile) if tile else None
    sim = simulate_isotropic(model, latent, seed, blocks=blocks)
    return SampleField(sites, sim.values)


# ---------------------------------------------------------------------------
# Partitioning


def test_partition_counts_and_centers():
    part = partition_grid(20, 30, 10, origin=(0.0, 0.0), spacing=(0.01, 0.01))
    assert part.n_blocks == 6
    assert part.geometry["nbx"] == 2 and part.geometry["nby"] == 3
    assert part.geometry["dropped"] == 0
    # first block covers sites (0..9) x (0..9); center at 4.5 * spacing
    assert part.centers[0] == pytest.approx(0.045 + 0.045j)
    idx = part.blocks[0]
    assert idx.size == 100
    assert idx[0] == 0 and idx[-1] == 9 * 30 + 9


def test_partition_matches_the_double_loop_formula():
    # every block and center, bit for bit, on a lattice with partial blocks
    nx, ny, block, origin, spacing = 23, 37, 5, (-0.3, 1.7), (0.013, 0.029)
    part = partition_grid(nx, ny, block, origin=origin, spacing=spacing)
    nbx, nby = nx // block, ny // block
    assert part.blocks.shape == (nbx * nby, block * block)
    half = (block - 1) / 2.0
    for bx in range(nbx):
        for by in range(nby):
            ii = np.arange(bx * block, (bx + 1) * block)
            jj = np.arange(by * block, (by + 1) * block)
            k = bx * nby + by
            assert np.array_equal(part.blocks[k], (ii[:, None] * ny + jj[None, :]).ravel())
            center = complex(
                origin[0] + (bx * block + half) * spacing[0],
                origin[1] + (by * block + half) * spacing[1],
            )
            assert part.centers[k].real == center.real and part.centers[k].imag == center.imag


def test_partition_drops_partial_blocks():
    part = partition_grid(25, 25, 10)
    assert part.n_blocks == 4
    assert part.geometry["dropped"] == 25 * 25 - 400
    covered = np.concatenate(part.blocks)
    assert covered.size == np.unique(covered).size == 400


def test_partition_validation():
    with pytest.raises(ValueError):
        partition_grid(20, 20, 2)
    with pytest.raises(ValueError):
        partition_grid(8, 20, 10)


# ---------------------------------------------------------------------------
# Search coordinates


def test_mu_from_search_coordinates_stays_under_cap():
    # far-out search coordinates clip to the cap; the rescaled modulus must
    # not round above it, and a value the plain rescaling already kept under
    # the cap stays bit-identical; the whole sweep as one array gives the
    # per-point values bit for bit
    clipped = 0
    points, values = [], []
    for r in (8.0, 10.0, 20.0):
        for a in np.linspace(-np.pi, np.pi, 2001):
            x = np.array([r * np.cos(a), r * np.sin(a)])
            mu = _mu_from_x(x)
            points.append(x)
            values.append(mu)
            assert MU_CAP - 1e-15 <= abs(mu) <= MU_CAP
            plain = np.tanh(np.hypot(*x)) * np.exp(1j * np.arctan2(x[1], x[0]))
            plain *= MU_CAP / abs(plain)
            if abs(plain) <= MU_CAP:
                assert mu == complex(plain)
            else:
                clipped += 1
    assert clipped > 0  # the sweep reaches the rounding case
    batch = _mu_from_x(np.array(points))
    assert np.array_equal(batch.view(np.float64), np.array(values).view(np.float64))


# ---------------------------------------------------------------------------
# Fractal index


def test_neg_loglik_alpha_matches_direct_computation():
    # the summed objective of two blocks equals the one-block dense formula
    # L G_alpha L', twice: on a block whose contrasts split into even and odd
    # rows, and on one with a site moved by 1e-4 of the spacing, which has no
    # point reflection and so one group of rows
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((25, 2))
    for moved, n_groups in ((0.0, 2), (1e-5, 1)):
        z = _lattice_sites(5, 0.1)
        z[0] += moved
        part = partition_grid(5, 5, 5, spacing=(0.1, 0.1))
        rel, rows, _ = _shared_blocks(SampleField(z, vals[:, 0]), part, 2.0)
        table = _lag_table(rel, rows)
        assert len(table.groups) == n_groups
        L = increment_matrix(rel, 1)
        sigma = L.rows @ g_alpha(0.9, np.abs(rel[:, None] - rel[None, :])) @ L.rows.T
        chol = cholesky(0.5 * (sigma + sigma.T), lower=True)
        want = 0.0
        for k in range(2):
            w = np.linalg.solve(chol, L.rows @ vals[:, k])
            want += float(np.sum(np.log(np.diag(chol))) + 0.5 * w @ w)
        got = _alpha_nll(0.9, table, (rows @ vals).T)
        assert got == pytest.approx(want, rel=1e-10), moved


def test_estimate_alpha_on_rough_field():
    model = CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0)
    data = _simulated_field(60, model, seed=0, tile=30)
    part = partition_grid(60, 60, 10, spacing=(0.01, 0.01))
    a_hat = estimate_alpha(block_contrasts(data, part))
    assert 0.6 <= a_hat <= 0.8


def test_estimate_alpha_on_smooth_field():
    model = CovarianceModel.polynomial_plus_fractional(0.0231, 3.0, 1.0)
    data = _simulated_field(60, model, seed=1, tile=30)
    part = partition_grid(60, 60, 10, spacing=(0.01, 0.01))
    a_hat = estimate_alpha(block_contrasts(data, part))
    assert 2.7 <= a_hat <= 3.3


def test_estimate_alpha_counts_infeasible_candidates(monkeypatch):
    model = CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0)
    data = _simulated_field(30, model, seed=0)
    part = partition_grid(30, 30, 10, spacing=(0.01, 0.01))
    contrasts = block_contrasts(data, part, alpha_max=2.0)
    real = {}
    estimate_alpha(contrasts, stats=real)
    assert real["alpha_infeasible"] == 0
    # an objective that cannot be factorized below alpha = 1
    nll = likelihood._alpha_nll
    monkeypatch.setattr(
        likelihood, "_alpha_nll", lambda alpha, *rest: np.inf if alpha < 1.0 else nll(alpha, *rest)
    )
    planted = {}
    a_hat = estimate_alpha(contrasts, stats=planted)
    assert 0 < planted["alpha_infeasible"] < planted["alpha_evals"]
    assert planted["alpha_evals"] == real["alpha_evals"]  # the bracket shrinks the same way
    assert a_hat >= 1.0 - 1e-3  # the midpoint of the final bracket


def test_estimate_alpha_rejects_bad_bound():
    model = CovarianceModel.powered_exponential(1.0, 1.0, 0.9)
    data = _simulated_field(10, model, seed=0)
    part = partition_grid(10, 10, 5, spacing=(0.01, 0.01))
    with pytest.raises(ValueError):
        estimate_alpha(block_contrasts(data, part, alpha_max=0.01))


def test_estimate_alpha_leaves_out_blocks_without_signal():
    # 20 of the 36 blocks made constant, and one site of another made NaN:
    # alpha-hat is that of the partition of the other 15 blocks
    model = CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0)
    data = _simulated_field(60, model, seed=0, tile=30)
    part = partition_grid(60, 60, 10, spacing=(0.01, 0.01))
    flat = np.arange(16, 36)
    data.values[part.blocks[flat]] = 0.25
    data.values[part.blocks[5][17]] = np.nan
    contrasts = block_contrasts(data, part)
    assert contrasts.signal.sum() == 15 and not contrasts.signal[flat].any()
    keep = np.flatnonzero(contrasts.signal)
    sub = NeighborhoodPartition(part.blocks[keep], part.centers[keep], part.geometry)
    assert estimate_alpha(contrasts) == estimate_alpha(block_contrasts(data, sub))


def test_signal_floor_is_relative_to_each_block():
    # constant blocks leave rounding residue in their contrasts that grows
    # with their level; they are left out at every level, with the same
    # alpha-hat, and a field scaled by 1e-13 keeps its signal mask
    model = CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0)
    data = _simulated_field(60, model, seed=0, tile=30)
    part = partition_grid(60, 60, 10, spacing=(0.01, 0.01))
    flat = np.arange(16, 36)
    alphas = []
    for level in (0.25, 10.0, 1000.0):
        values = data.values.copy()
        values[part.blocks[flat]] = level
        contrasts = block_contrasts(SampleField(data.locations, values), part)
        assert np.flatnonzero(~contrasts.signal).tolist() == flat.tolist()
        alphas.append(estimate_alpha(contrasts))
        scaled = block_contrasts(SampleField(data.locations, 1e-13 * values), part)
        assert np.array_equal(scaled.signal, contrasts.signal)
    assert alphas[0] == alphas[1] == alphas[2]
    assert block_contrasts(SampleField(data.locations, 1e-13 * data.values), part).signal.all()


def test_whiten_skips_the_grouping_when_rows_share_one_point(monkeypatch):
    # the alpha search scores every row at mu = 0: the call gives the same
    # bits as the sorted grouping of np.unique
    model = CovarianceModel.powered_exponential(1.0, 1.0, 0.7)
    contrasts = block_contrasts(
        _simulated_field(20, model, seed=5), partition_grid(20, 20, 10, spacing=(0.01, 0.01))
    )
    n = len(contrasts.ytilde)
    args = (contrasts.table, contrasts.ytilde, 0.9, np.arange(n)[::-1], np.zeros((n, 2)))
    quick = _whiten(*args)

    def grouped(x):
        points, point_of = np.unique(x, axis=0, return_inverse=True)
        return points, point_of.ravel()

    monkeypatch.setattr(likelihood, "_point_groups", grouped)
    for got, want in zip(quick, _whiten(*args)):
        assert np.array_equal(got, want)


def test_estimate_alpha_needs_a_block_with_signal():
    z = _lattice_sites(6, 0.01)
    part = partition_grid(6, 6, 3, spacing=(0.01, 0.01))
    with pytest.raises(EstimationError, match="no block"):
        estimate_alpha(block_contrasts(SampleField(z, np.ones(z.size)), part, 2.0))


def test_estimate_alpha_scores_two_parity_factors_per_candidate(monkeypatch):
    # at block 10 the 94 contrasts split into 46 even and 48 odd ones
    model = CovarianceModel.powered_exponential(1.0, 1.0, 0.7)
    data = _simulated_field(20, model, seed=5)
    contrasts = block_contrasts(data, partition_grid(20, 20, 10, spacing=(0.01, 0.01)))
    factors = []

    def counting(a, **kwargs):
        factors.append(a.shape[0])
        return dpotrf(a, **kwargs)

    monkeypatch.setattr(likelihood, "dpotrf", counting)
    stats = {}
    estimate_alpha(contrasts, stats=stats)
    assert stats["alpha_evals"] > 2 and stats["alpha_infeasible"] == 0
    assert factors == [46, 48] * stats["alpha_evals"]


# ---------------------------------------------------------------------------
# Local anisotropy estimates


def test_fit_blocks_recovers_planted_anisotropy():
    # draw contrasts directly from the anisotropic model on one block geometry
    # and check the average estimate over 24 blocks sits near the truth.  The
    # kernel acts on observation offsets as G(|A| |d + mu conj(d)|) with
    # stretch |A| = phi / sqrt(1 - |mu|^2), as in the estimator.
    alpha = 1.5
    mu_true = 0.3 + 0.0j
    phi_true = 0.9
    z = _lattice_sites(10, 0.01)
    z = z - z.mean()
    L = increment_matrix(z, 2)
    stretch = phi_true / np.sqrt(1.0 - abs(mu_true) ** 2)
    diff = z[:, None] - z[None, :]
    sigma = L.rows @ g_alpha(alpha, stretch * np.abs(diff + mu_true * np.conj(diff))) @ L.rows.T
    sigma = 0.5 * (sigma + sigma.T)
    chol = cholesky(sigma, lower=True)
    rng = np.random.default_rng(12)
    # fabricate the values of a row of 24 blocks consistent with the drawn contrasts
    xs, ys = np.arange(10) * 0.01, np.arange(240) * 0.01
    data = SampleField((xs[:, None] + 1j * ys[None, :]).ravel(), np.zeros(2400))
    part = partition_grid(10, 240, 10, spacing=(0.01, 0.01))
    for block in part.blocks:
        data.values[block] = L.rows.T @ (chol @ rng.standard_normal(chol.shape[0]))
    field = estimate_field(block_contrasts(data, part), alpha)
    assert field.status.tolist() == ["ok"] * 24
    assert abs(np.mean(field.mu) - mu_true) < 0.1
    assert abs(np.median(np.log(field.phi / phi_true))) < 0.25


def test_estimate_field_marks_a_lone_degenerate_block_missing():
    # no block carries signal, so no search runs at all
    z = _lattice_sites(6, 0.01)
    part = partition_grid(6, 6, 6, spacing=(0.01, 0.01))
    stats = {}
    contrasts = block_contrasts(SampleField(z, np.zeros(z.size)), part)
    field = estimate_field(contrasts, 0.7, stats=stats)
    assert field.status.tolist() == ["missing"]
    assert np.isnan(field.mu[0]) and np.isnan(field.phi[0]) and np.isnan(field.loglik[0])
    assert stats.get("nll_evals", 0) == 0


def test_estimate_field_affine_recovery():
    # differentiable field warped by z + 0.3 conj(z): per-block information
    # is high enough that the raw median lands near the truth
    model = CovarianceModel.polynomial_plus_fractional(0.0231, 3.0, 1.0)
    deform = DeformationSpec.affine(1.0, 0.3, 0.0, (-0.2, 1.2, -0.2, 1.2))
    data = _simulated_field(50, model, seed=0, deform=deform, tile=25)
    part = partition_grid(50, 50, 10, spacing=(0.01, 0.01))
    field = estimate_field(block_contrasts(data, part), 3.0)
    assert field.ok_mask().all()
    med = complex(np.median(field.mu.real), np.median(field.mu.imag))
    assert abs(med - 0.3) < 0.08
    # phi should track the truth's constant scale sqrt(1 - 0.09)
    assert abs(np.median(np.log(field.phi / np.sqrt(0.91)))) < 0.2


def test_estimate_field_marks_degenerate_blocks_missing():
    model = CovarianceModel.powered_exponential(1.0, 1.0, 0.7)
    data = _simulated_field(20, model, seed=5)
    part = partition_grid(20, 20, 10, spacing=(0.01, 0.01))
    data.values[part.blocks[0]] = 0.0  # first block carries no contrast signal
    field = estimate_field(block_contrasts(data, part), 0.7)
    assert field.status[0] == "missing"
    assert np.isnan(field.phi[0])
    assert field.status[1:].tolist() == ["ok"] * 3


def test_field_csv_round_trip(tmp_path):
    model = CovarianceModel.powered_exponential(1.0, 1.0, 0.7)
    data = _simulated_field(20, model, seed=6)
    part = partition_grid(20, 20, 10, spacing=(0.01, 0.01))
    field = estimate_field(block_contrasts(data, part), 0.7)
    path = str(tmp_path / "est.csv")
    field.to_csv(path)
    back = DilatationScaleField.from_csv(path, field.alpha_used, field.geometry)
    assert np.array_equal(back.mu, field.mu)
    assert np.array_equal(back.phi, field.phi)
    assert back.status.tolist() == field.status.tolist()
    assert np.array_equal(back.centers, field.centers)


# ---------------------------------------------------------------------------
# The Newton search and the lag-table likelihood


def _sandwich_nll(z, rows, ytilde, alpha, mu):
    """Reference profiled likelihood: Sigma_1 = R G R' from the full kernel matrix."""
    diff = z[:, None] - z[None, :]
    sigma1 = rows @ g_alpha(alpha, np.abs(diff + mu * np.conj(diff))) @ rows.T
    factor = np.linalg.cholesky(0.5 * (sigma1 + sigma1.T))
    w = solve_triangular(factor, ytilde, lower=True)
    m = ytilde.size
    s_hat = float(w @ w) / m
    return float(np.sum(np.log(np.diag(factor)))) + 0.5 * m * np.log(s_hat) + 0.5 * m, s_hat


def _walled_bowl(x):
    # a tilted bowl with a +inf region below the line x0 + x1 = -1
    x = np.asarray(x)
    bowl = (x[..., 0] - 3.0) ** 2 + 2.0 * (x[..., 1] - 2.0) ** 2 + 0.5 * x[..., 0] * x[..., 1]
    return np.where(x[..., 0] + x[..., 1] < -1.0, np.inf, bowl)


def test_newton_lockstep_descends():
    # the bowl's minimum solves [[2, 0.5], [0.5, 4]] x = [6, 8]; central
    # differences are exact on a quadratic, so every search lands on it
    starts = np.array([[0.0, 0.0], [5.0, -4.0], [-0.6, -0.39], [-2.0, -2.0]])
    x, f, nfev, iters = _newton_lockstep(lambda ids, pts: _walled_bowl(pts), starts)
    want = np.linalg.solve([[2.0, 0.5], [0.5, 4.0]], [6.0, 8.0])
    for k in range(3):
        assert np.max(np.abs(x[k] - want)) <= 1e-6, (k, x[k])
        assert f[k] == _walled_bowl(x[k]) and 1 <= iters[k] <= 3
    # a start inside the wall is +inf, stays put and costs one evaluation
    assert f[3] == np.inf and np.array_equal(x[3], starts[3])
    assert nfev[3] == 1 and iters[3] == 0
    assert not np.isnan(x).any() and not np.isnan(f).any()

    # x^2 + (y^2 - 1)^2 has a saddle at 0 and minima at (0, +-1); next to
    # the saddle the Hessian is indefinite, and the shifted step still
    # descends to the minimum on the side of the start
    def saddle(ids, pts):
        return pts[:, 0] ** 2 + (pts[:, 1] ** 2 - 1.0) ** 2

    starts = np.array([[0.3, 0.05], [-0.2, -0.02]])
    x, f, _, iters = _newton_lockstep(saddle, starts)
    assert np.all(f < saddle(None, starts))
    assert np.max(np.abs(x - [[0.0, 1.0], [0.0, -1.0]])) <= 1e-5
    assert np.all(iters < 50)


def test_newton_lockstep_at_the_minimum_scores_one_stencil():
    # the gradient there is at rounding level, so the Newton step is below
    # _XTOL and is not scored: the start and one 6-point stencil
    start = np.linalg.solve([[2.0, 0.5], [0.5, 4.0]], [6.0, 8.0])[None, :]
    x, f, nfev, iters = _newton_lockstep(lambda ids, pts: _walled_bowl(pts), start)
    assert np.array_equal(x, start) and f[0] == _walled_bowl(start[0])
    assert nfev[0] == 7 and iters[0] == 1


def _quartic_bowl(ids, pts):
    return _walled_bowl(pts) + 0.1 * pts[:, 0] ** 4


def _whole_steps(calls):
    """Length and acceptance of each iteration's whole Newton step, from the
    (points, values) calls of a one-search _newton_lockstep run."""
    (point,), (value,) = calls[0]
    steps, whole = [], False
    for pts, vals in calls[1:]:
        if len(pts) > 1:  # a stencil: the next call tries the whole step
            whole = True
            continue
        if whole:
            steps.append((float(np.hypot(*(pts[0] - point))), bool(vals[0] <= value)))
        whole = False
        if vals[0] <= value:
            point, value = pts[0], vals[0]
    return steps


def test_newton_lockstep_stops_on_a_short_whole_step():
    calls = []

    def recorded(ids, pts):
        calls.append((pts.copy(), _quartic_bowl(ids, pts)))
        return calls[-1][1].copy()  # the search writes into the values it is given

    x, f, nfev, iters = _newton_lockstep(recorded, np.zeros((1, 2)))
    steps = _whole_steps(calls)
    assert len(steps) == iters[0] >= 3 and nfev[0] == sum(len(p) for p, _ in calls)
    # the search ends on the first accepted whole step below _CONVERGED_STEP
    assert steps[-1][1] and steps[-1][0] < likelihood._CONVERGED_STEP
    assert all(not ok or size >= likelihood._CONVERGED_STEP for size, ok in steps[:-1])
    assert np.array_equal(x[0], calls[-1][0][0]) and f[0] == calls[-1][1][0]


def test_newton_lockstep_goes_on_after_a_short_halved_step():
    # trials more than 2e-4 from the stencil centre are refused, so from 1e-3
    # away every accepted move is a halved step below _CONVERGED_STEP; only
    # a whole step that short ends the search
    want = np.linalg.solve([[2.0, 0.5], [0.5, 4.0]], [6.0, 8.0])
    centre = []

    def short_leash(ids, pts):
        if len(pts) == len(likelihood._STENCIL):
            centre[:] = [0.5 * (pts[0] + pts[1])]
        elif centre and np.hypot(*(pts[0] - centre[0])) > 2e-4:
            return np.array([np.inf])
        return _walled_bowl(pts)

    x, _, _, iters = _newton_lockstep(short_leash, (want + [1e-3, 0.0])[None, :])
    assert np.max(np.abs(x[0] - want)) <= 1e-6 and iters[0] >= 5


def test_newton_lockstep_converged_stop_keeps_the_optimum(monkeypatch):
    # each of these searches ends on a whole step below _CONVERGED_STEP
    starts = np.array([[0.0, 0.0], [5.0, -4.0], [1.0, 3.0]])
    x, f, nfev, _ = _newton_lockstep(_quartic_bowl, starts)
    monkeypatch.setattr(likelihood, "_CONVERGED_STEP", 0.0)
    x_full, f_full, nfev_full, _ = _newton_lockstep(_quartic_bowl, starts)
    assert np.max(np.abs(x - x_full)) <= 1e-6
    assert np.all(f - f_full <= 1e-10)
    assert np.all(nfev < nfev_full)


def _block_contrasts():
    model = CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0)
    data = _simulated_field(20, model, seed=7, tile=20)
    part = partition_grid(20, 20, 10, spacing=(0.01, 0.01))
    return _shared_blocks(data, part, 4.0)  # degree 2


# Rough fields, as in the benchmark configs.  For smooth kernels Sigma_1 is
# ill-conditioned (condition number 4e5 at alpha 3, 2e8 near the cap), and
# the two assemblies, both within 1e-13 of an extended-precision Sigma_1,
# then agree only to 1e-9 (1e-7 near the cap).
@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5])
def test_lag_table_objective_matches_sandwich_formula(alpha, monkeypatch):
    rel, rows, ytilde = _block_contrasts()
    table = _lag_table(rel, rows)
    assert table.lags.size == (19 * 19 - 1) // 2
    rng = np.random.default_rng(11)
    x = rng.normal(scale=0.8, size=(40, 2))
    # |mu| = 0.999, the largest modulus the search can reach, and point 3
    # three more times: rows 3, 42, 43 and 44 score blocks 3, 2, 3 and 0
    x = np.vstack([x, [[np.arctanh(0.999), 0.2]], [[-20.0, 7.0]], x[[3, 3, 3]]])
    which = np.arange(x.shape[0]) % ytilde.shape[0]
    factors, unpacked = [], []

    def counting(a, **kwargs):
        factors.append(a.shape[0])
        return dpotrf(a, **kwargs)

    def counting_unpack(n, ap, **kwargs):
        unpacked.append(n)
        return dtpttr(n, ap, **kwargs)

    monkeypatch.setattr(likelihood, "dpotrf", counting)
    monkeypatch.setattr(likelihood, "dtpttr", counting_unpack)
    nll, s_hat = _profiled_nll(table, ytilde, alpha, which, x)
    # one unpack and one factor per parity group per distinct point
    assert factors == [46, 48] * 42
    assert unpacked == [46, 48] * 42
    for i in range(x.shape[0]):
        mu = _mu_from_x(x[i])
        want_nll, want_s = _sandwich_nll(rel, rows, ytilde[which[i]], alpha, mu)
        assert nll[i] == pytest.approx(want_nll, rel=1e-10), (i, mu)
        assert s_hat[i] == pytest.approx(want_s, rel=1e-10), (i, mu)
    # rows sharing a factor score as one-row calls do
    for i in (3, 42, 43, 44):
        one_nll, one_s = _profiled_nll(table, ytilde, alpha, which[i : i + 1], x[i : i + 1])
        assert nll[i] == pytest.approx(one_nll[0], rel=1e-12), i
        assert s_hat[i] == pytest.approx(one_s[0], rel=1e-12), i


def _whiten_at_once(table, ytilde, alpha, which, x):
    # every row gathered, whitened and reduced in one pass over all points
    m = ytilde.shape[1]
    points, point_of = _point_groups(x)
    order = np.argsort(point_of, kind="stable")
    edges = np.searchsorted(point_of[order], np.arange(len(points) + 1))
    white = ytilde[which[order]]
    diag = np.ones((len(points), m))
    # the kernel-to-Sigma product in the fits' chunks of points, whose bits
    # a product of another row count need not repeat
    h = table.lags
    upper = np.vstack([
        g_alpha(alpha, np.abs(h + mu[:, None] * np.conj(h))) @ table.weights
        for mu in (_mu_from_x(points[s : s + _EVAL_ROWS]) for s in range(0, len(points), _EVAL_ROWS))
    ])
    for point in range(len(points)):
        rows = slice(edges[point], edges[point + 1])
        at = 0
        for group in table.groups:
            size = group.stop - group.start
            pack = slice(at, at + size * (size + 1) // 2)
            at = pack.stop
            lower = dtpttr(size, upper[point, pack], uplo="L")[0]
            factor, info = likelihood.dpotrf(lower, lower=1, clean=0, overwrite_a=1)
            if info:
                diag[point] = np.inf
                break
            white[rows, group] = dtrtrs(factor, white[rows, group].T, lower=1)[0].T
            diag[point, group] = factor.diagonal()
    quad = np.empty(len(which))
    quad[order] = np.sum(white * white, axis=1)
    return np.sum(np.log(diag), axis=1)[point_of], quad


@pytest.mark.parametrize("n_points", [63, 64, 65, 130])
def test_whiten_in_chunks_matches_one_pass_over_all_points(n_points, monkeypatch):
    # one to three rows per point, shuffled, across the edges of the chunks
    # of _EVAL_ROWS points; the odd-row factor of the 40th point fails, so
    # its rows get +inf in both
    rel, rows, ytilde = _block_contrasts()
    table = _lag_table(rel, rows)
    rng = np.random.default_rng(n_points)
    points = rng.normal(scale=0.8, size=(n_points, 2))
    x = np.repeat(points, rng.integers(1, 4, size=n_points), axis=0)
    shuffle = rng.permutation(len(x))
    x = x[shuffle]
    which = rng.integers(0, ytilde.shape[0], size=len(x))
    calls = []

    def failing(a, **kwargs):
        calls.append(None)
        factor, info = dpotrf(a, **kwargs)
        return factor, (1 if len(calls) == 2 * 40 else info)

    monkeypatch.setattr(likelihood, "dpotrf", failing)
    got = _whiten(table, ytilde, 0.7, which, x)
    assert len(calls) == 2 * n_points
    calls.clear()
    want = _whiten_at_once(table, ytilde, 0.7, which, x)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    infeasible = np.isinf(got[0])
    assert infeasible.any() and np.all(np.isfinite(got[0][~infeasible]))
    assert np.all(x[infeasible] == _point_groups(x)[0][39])


def test_profiled_nll_reuses_one_set_of_work_arrays():
    # a fit's product array serves a call of more than one chunk, one of
    # fewer points than a chunk and one of none, with the bits of calls that
    # allocate their own
    rel, rows, ytilde = _block_contrasts()
    table = _lag_table(rel, rows)
    product = np.empty((_EVAL_ROWS, table.weights.shape[1]))
    rng = np.random.default_rng(12)
    for size in (_EVAL_ROWS + 9, 5, 0):
        x = rng.normal(scale=0.8, size=(size, 2))
        which = np.arange(size) % ytilde.shape[0]
        got = _profiled_nll(table, ytilde, 0.7, which, x, product)
        want = _profiled_nll(table, ytilde, 0.7, which, x)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert got[0].shape == (size,)


def test_product_rows_are_packed_lower_triangles():
    # a group's run of a product row, unpacked by dtpttr, is bit for bit the
    # lower triangle that a row-by-row copy of the upper triangle builds
    rel, rows, _ = _block_contrasts()
    table = _lag_table(rel, rows)
    mu = _mu_from_x(np.random.default_rng(6).normal(scale=1.5, size=(5, 2)))
    product = g_alpha(0.7, np.abs(table.lags + mu[:, None] * np.conj(table.lags))) @ table.weights
    for row in product:
        at = 0
        for group in table.groups:
            size = group.stop - group.start
            want = np.zeros((size, size))
            for j in range(size):
                want[j, j:] = row[at : at + size - j]
                at += size - j
            got, info = dtpttr(size, row[at - size * (size + 1) // 2 : at], uplo="L")
            assert info == 0
            assert np.array_equal(np.tril(got), want.T)
        assert at == row.size


def test_lag_table_objective_is_inf_where_no_factor_exists():
    # degree-1 contrasts do not make the alpha = 4.5 kernel positive definite:
    # LAPACK fails, and the value is +inf
    rel, _, _ = _block_contrasts()
    rows = increment_matrix(rel, 1).rows
    rng = np.random.default_rng(1)
    ytilde = rng.normal(size=(4, rows.shape[0]))
    x = rng.normal(scale=0.8, size=(8, 2))
    table = _lag_table(rel, rows)
    nll, _ = _profiled_nll(table, ytilde, 4.5, np.arange(8) % 4, x)
    assert np.all(np.isinf(nll))
    diff = rel[:, None] - rel[None, :]
    for xi in x:
        mu = _mu_from_x(xi)
        sigma = rows @ g_alpha(4.5, np.abs(diff + mu * np.conj(diff))) @ rows.T
        sigma = 0.5 * (sigma + sigma.T)
        assert dpotrf(sigma, lower=1)[1] != 0
    assert _alpha_nll(4.5, table, ytilde) == np.inf


@pytest.mark.parametrize(
    "side, alpha_max",
    # degrees 1 to 3; at degree 6 on a 5 x 5 block and at degree 3 on a
    # 3 x 3 one (a lone even contrast) powers of x and y reach the block side
    [(5, 2.0), (5, 4.0), (10, 4.0), (10, 7.9), (15, 4.0), (5, 12.0), (3, 7.9)],
)
def test_lag_table_size_is_known_before_the_table_is_built(side, alpha_max):
    # noise on a lattice of two blocks a side; the size counts the classes
    # and the packed columns of both parity groups, as _lag_table shapes them
    sites = _lattice_sites(2 * side)
    part = partition_grid(2 * side, 2 * side, side, spacing=(0.01, 0.01))
    data = SampleField(sites, np.random.default_rng(side).normal(size=sites.size))
    table = block_contrasts(data, part, alpha_max).table
    assert lag_table_bytes(alpha_max, side) == table.weights.nbytes


def test_block_contrasts_refuse_a_lag_table_above_the_cap():
    # block 30 at alpha_max 4 needs 2.6 GiB; the refusal comes before any
    # contrast or table is built
    assert lag_table_bytes(4.0, 30) > MAX_LAG_TABLE_BYTES > lag_table_bytes(4.0, 20)
    sites = _lattice_sites(30)
    data = SampleField(sites, np.random.default_rng(0).normal(size=sites.size))
    with pytest.raises(ValueError, match=r"block = 30 with alpha_max = 4.0 needs a lag table of 2.60 GiB"):
        block_contrasts(data, partition_grid(30, 30, 30, spacing=(0.01, 0.01)))


@pytest.mark.parametrize("side, n_even", [(10, 46), (5, 9)])
def test_shared_blocks_rows_are_even_then_odd_contrasts(side, n_even):
    # a 10 x 10 block pairs its sites; a 5 x 5 one pairs its centre with itself
    model = CovarianceModel.powered_exponential(1.0, 1.0, 0.7)
    data = _simulated_field(10, model, seed=3)
    part = partition_grid(10, 10, side, spacing=(0.01, 0.01))
    rel, rows, ytilde = _shared_blocks(data, part, 4.0)  # degree 2
    perm = likelihood._reflection(rel)
    assert np.max(np.abs(rel[perm] + rel)) < 1e-15
    assert np.sum(perm == np.arange(rel.size)) == side % 2
    plain = increment_matrix(rel, 2).rows
    assert rows.shape == plain.shape
    assert np.max(np.abs(rows @ rows.T - np.eye(len(rows)))) < 1e-12
    assert np.max(np.abs(rows @ monomial_basis(rel, 2))) < 1e-12
    assert np.max(np.abs(rows.T @ rows - plain.T @ plain)) < 1e-12
    assert np.max(np.abs(rows[:n_even, perm] - rows[:n_even])) < 1e-12
    assert np.max(np.abs(rows[n_even:, perm] + rows[n_even:])) < 1e-12
    assert np.array_equal(ytilde, data.values[part.blocks] @ rows.T)


def test_sigma1_has_no_entries_between_even_and_odd_rows():
    rel, rows, _ = _block_contrasts()
    table = _lag_table(rel, rows)
    assert table.groups == (slice(0, 46), slice(46, 94))
    assert table.weights.shape == (180, 46 * 47 // 2 + 48 * 49 // 2)
    diff = rel[:, None] - rel[None, :]
    rng = np.random.default_rng(5)
    for mu in _mu_from_x(rng.normal(scale=1.5, size=(8, 2))):
        kernel = g_alpha(0.7, np.abs(diff + mu * np.conj(diff)))
        cross = rows[:46] @ kernel @ rows[46:].T
        assert np.max(np.abs(cross)) <= 1e-12 * np.max(np.abs(kernel)), mu


# At alpha 1.5 Sigma_1 is worse conditioned, and the two agree to about 1e-11.
@pytest.mark.parametrize("alpha", [0.7, 1.0])
def test_split_objective_matches_the_rows_scored_as_one_group(alpha, monkeypatch):
    rel, rows, ytilde = _block_contrasts()
    split = _lag_table(rel, rows)
    monkeypatch.setattr(likelihood, "_reflection", lambda z: None)
    whole = _lag_table(rel, rows)
    assert len(split.groups) == 2 and whole.groups == (slice(0, 94),)
    rng = np.random.default_rng(9)
    x = np.vstack([rng.normal(scale=0.8, size=(30, 2)), [[np.arctanh(0.999), -0.4]]])
    which = np.arange(x.shape[0]) % ytilde.shape[0]
    nll, s_hat = _profiled_nll(split, ytilde, alpha, which, x)
    want_nll, want_s = _profiled_nll(whole, ytilde, alpha, which, x)
    np.testing.assert_allclose(nll, want_nll, rtol=1e-12, atol=0)
    np.testing.assert_allclose(s_hat, want_s, rtol=1e-12, atol=0)


@pytest.mark.parametrize("moved", [1e-6, 0.0], ids=["no-reflection", "mixed-rows"])
def test_lag_table_without_even_and_odd_rows_takes_one_group(moved):
    # one site of a 5 x 5 lattice moved by 1e-4 of the spacing: the sites have
    # no point reflection.  Unmoved, they have one, but increment_matrix's
    # rows are not each even or odd.
    z = _lattice_sites(5)
    z[0] += moved
    assert (likelihood._reflection(z) is None) == (moved > 0)
    rows = increment_matrix(z - z.mean(), 2).rows
    table = _lag_table(z, rows)
    assert table.groups == (slice(0, rows.shape[0]),)
    rng = np.random.default_rng(4)
    ytilde = rng.normal(size=(3, rows.shape[0]))
    x = rng.normal(scale=0.8, size=(6, 2))
    which = np.arange(6) % 3
    nll, s_hat = _profiled_nll(table, ytilde, 0.7, which, x)
    for i in range(6):
        want_nll, want_s = _sandwich_nll(z, rows, ytilde[which[i]], 0.7, _mu_from_x(x[i]))
        assert nll[i] == pytest.approx(want_nll, rel=1e-10), i
        assert s_hat[i] == pytest.approx(want_s, rel=1e-10), i


def test_a_lone_contrast_row_takes_one_group():
    # at degree 3 a 3 x 3 block keeps one contrast, an even one: no odd group
    model = CovarianceModel.powered_exponential(1.0, 1.0, 0.7)
    data = _simulated_field(6, model, seed=3)
    part = partition_grid(6, 6, 3, spacing=(0.01, 0.01))
    rel, rows, ytilde = _shared_blocks(data, part, 7.9)
    table = _lag_table(rel, rows)
    assert table.groups == (slice(0, 1),)
    x = np.array([[0.3, -0.2]] * 4)
    nll, s_hat = _profiled_nll(table, ytilde, 0.7, np.arange(4), x)
    for i in range(4):
        want_nll, want_s = _sandwich_nll(rel, rows, ytilde[i], 0.7, _mu_from_x(x[i]))
        assert nll[i] == pytest.approx(want_nll, rel=1e-10), i
        assert s_hat[i] == pytest.approx(want_s, rel=1e-10), i


def _oracle_fit(rel, rows, ytilde, alpha):
    """Per-block scipy Nelder-Mead from mu = 0 and mu = 0.3 on the sandwich likelihood.

    Returns the best mu and its value, or None where the block carries no
    signal or no start is feasible.
    """
    if float(np.sum(ytilde**2)) < 1e-24:
        return None

    def nll(x):
        try:
            return _sandwich_nll(rel, rows, ytilde, alpha, _mu_from_x(x))[0]
        except np.linalg.LinAlgError:
            return np.inf

    best = None
    for x0 in ([0.0, 0.0], [np.arctanh(0.3), 0.0]):
        res = optimize.minimize(
            nll, x0, method="Nelder-Mead", options={"xatol": 1e-4, "fatol": 1e-6, "maxfev": 400}
        )
        if best is None or res.fun < best.fun:
            best = res
    if not np.isfinite(best.fun):
        return None
    return _mu_from_x(best.x), best.fun


def test_estimate_field_matches_scipy_multistart_oracle():
    # the one Newton search per block must do as well as scipy's best of two
    # Nelder-Mead starts: no worse in likelihood than the oracle's own
    # tolerance fatol = 1e-6, and with mu inside 5e-4 of the oracle's
    model = CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0)
    deform = DeformationSpec.affine(1.0, 0.2 - 0.1j, 0.0, (-0.2, 0.5, -0.2, 0.5))
    data = _simulated_field(30, model, seed=4, deform=deform, tile=30)
    part = partition_grid(30, 30, 10, spacing=(0.01, 0.01))
    data.values[part.blocks[4]] = 0.25  # a constant block has no contrast signal
    field = estimate_field(block_contrasts(data, part), 0.7)
    rel, rows, _ = _shared_blocks(data, part, 4.0)  # degree 2, as estimate_field's default
    for k, block in enumerate(part.blocks):
        ytilde = rows @ data.values[block]
        oracle = _oracle_fit(rel, rows, ytilde, 0.7)
        assert field.status[k] == ("missing" if oracle is None else "ok"), k
        if oracle is not None:
            mu, best = oracle
            nll, _ = _sandwich_nll(rel, rows, ytilde, 0.7, field.mu[k])
            assert nll <= best + 1e-6, (k, nll, best)
            assert abs(field.mu[k] - mu) <= 5e-4, (k, field.mu[k], mu)
    assert field.status.tolist().count("missing") == 1


@pytest.mark.parametrize(
    "estimate",
    [
        lambda data, part: estimate_alpha(block_contrasts(data, part)),
        lambda data, part: estimate_field(block_contrasts(data, part), 0.9),
    ],
    ids=["estimate_alpha", "estimate_field"],
)
def test_estimate_field_rejects_blocks_that_are_not_translates(estimate):
    # one site moved by 1e-5: the blocks no longer share their geometry, and
    # block_contrasts, which both estimators take their input from, says so
    model = CovarianceModel.powered_exponential(1.0, 1.0, 0.9)
    data = _simulated_field(20, model, seed=2)
    part = partition_grid(20, 20, 10, spacing=(0.01, 0.01))
    data.locations[0] += 1e-5 + 1e-5j
    with pytest.raises(ValueError, match="translates"):
        estimate(data, part)


def test_shared_blocks_rejects_a_ragged_partition():
    # blocks given as a list of index arrays, the last one a site short
    model = CovarianceModel.powered_exponential(1.0, 1.0, 0.9)
    data = _simulated_field(20, model, seed=2)
    part = partition_grid(20, 20, 10, spacing=(0.01, 0.01))
    part.blocks = [*part.blocks[:-1], part.blocks[-1][:-1]]
    with pytest.raises(ValueError, match="translates"):
        _shared_blocks(data, part, 4.0)


def test_contrast_degree_needs_room_in_the_block():
    # a b x b block holds contrasts of degree d iff d < 2 (b - 1), as the rank
    # of its monomial basis says
    assert contrast_degree(7.9, 3) == 3
    for alpha_max, block in ((8.0, 3), (40.0, 10)):
        with pytest.raises(ValueError, match=f"alpha_max must be below {4 * (block - 1)}"):
            contrast_degree(alpha_max, block)
    for block in (3, 4, 5, 10):
        sites = _lattice_sites(block)
        rel = sites - sites.mean()  # centered, as _shared_blocks gives them
        top = 2 * (block - 1) - 1
        assert contrast_degree(2.0 * top + 1.9, block) == top
        assert increment_matrix(rel, top).n_contrasts == 1
        with pytest.raises(ValueError):
            contrast_degree(2.0 * top + 2.0, block)
        with pytest.raises(ValueError, match="smaller than polynomial space"):
            increment_matrix(rel, top + 1)
