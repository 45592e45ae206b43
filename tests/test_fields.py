"""Covariance families, simulation, deformations, and variograms."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.linalg.lapack import dpotrf

from deformfield import fields
from deformfield.errors import OrientationError, SimulationError
from deformfield.fields import (
    MAX_EXACT_SIM,
    MIN_STRIP,
    POWERED_EXPONENTIAL,
    SERIES_CHUNK,
    SERIES_SIN,
    SERIES_X,
    SLAB_ROWS,
    CovarianceModel,
    DeformationSpec,
    SampleField,
    _covariance_upper,
    _draw_tile,
    _strip,
    _tile_period,
    add_noise,
    apply_deformation,
    congruent_tiles,
    covariance_eval,
    empirical_variogram,
    g_alpha,
    numeric_dilatation,
    simulate_isotropic,
    simulation_blocks,
    variogram_slope,
)
from deformfield.grids import ComplexGrid


# ---------------------------------------------------------------------------
# Generalized covariance kernel


def test_g_alpha_reference_values():
    assert g_alpha(0.7, 1.0) == pytest.approx(-1.0, abs=1e-14)
    assert g_alpha(2.0, np.e) == pytest.approx(np.e**2, rel=1e-14)
    assert g_alpha(3.0, 2.0) == pytest.approx(8.0, rel=1e-14)
    # limit value at the origin, both branches
    assert g_alpha(0.7, 0.0) == 0.0
    assert g_alpha(2.0, 0.0) == 0.0


def test_g_alpha_sign_pattern():
    # sign flips with floor(alpha/2) on the fractional branch
    assert g_alpha(1.5, 1.3) < 0
    assert g_alpha(2.5, 1.3) > 0
    assert g_alpha(4.5, 1.3) < 0
    # log branch: negative just above t=1 times the (-1)^(1+alpha/2) sign
    assert g_alpha(4.0, 2.0) == pytest.approx(-(2.0**4) * np.log(2.0), rel=1e-14)


def test_g_alpha_vectorized():
    t = np.array([0.0, 0.5, 1.0, 2.0])
    out = g_alpha(0.7, t)
    assert out.shape == t.shape
    assert out[0] == 0.0


# ---------------------------------------------------------------------------
# Covariance families


def test_powered_exponential_values():
    m = CovarianceModel.powered_exponential(1.0, 1.0, 0.7)
    assert covariance_eval(m, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert covariance_eval(m, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-14)
    assert m.alpha == 0.7
    assert m.c == pytest.approx(1.0)


def test_rough_field_parameterization():
    # variance 0.5151 with unit fractional coefficient at alpha = 0.7
    m = CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0)
    assert covariance_eval(m, 0.0) == pytest.approx(0.5151, rel=1e-12)
    assert m.range == pytest.approx(0.36380080321851976, rel=1e-12)
    # K(t) ~ 0.5151 - |t|^0.7 near zero
    t = 1e-4
    assert covariance_eval(m, t) == pytest.approx(0.5151 - t**0.7, rel=1e-6)


def test_differentiable_field_parameterization():
    m = CovarianceModel.polynomial_plus_fractional(0.0231, 3.0, 1.0)
    assert covariance_eval(m, 0.0) == pytest.approx(0.0231, rel=1e-12)
    assert m.range == pytest.approx(0.19746808222123668, rel=1e-12)
    # expansion v - v/(2 rho^2) t^2 + t^3 + o(t^3); check both coefficients
    h = 1e-4
    second = 2.0 * (covariance_eval(m, h) - 0.0231) / h**2
    assert second / 2.0 == pytest.approx(-0.0231 / (2 * m.range**2), rel=1e-3)
    cubic = covariance_eval(m, h) - 0.0231 + 0.0231 / (2 * m.range**2) * h**2
    assert cubic == pytest.approx(h**3, rel=5e-3)


def test_matern_half_is_exponential():
    m = CovarianceModel.matern(1.3, 0.4, 0.5)
    t = np.linspace(0.01, 2.0, 40)
    assert np.allclose(covariance_eval(m, t), 1.3 * np.exp(-t / 0.4), rtol=1e-10)


def test_matern_rejects_integer_halves():
    with pytest.raises(ValueError):
        CovarianceModel.matern(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        CovarianceModel.polynomial_plus_fractional(1.0, 2.0, 1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CovarianceModel.powered_exponential(np.nan, 1.0, 0.7), "variance must be"),
        (lambda: CovarianceModel.powered_exponential(1.0, 0.0, 0.7), "range must be"),
        (lambda: CovarianceModel.matern(1.0, np.inf, 0.35), "range must be"),
        (lambda: CovarianceModel.matern(1.0, 1.0, 1.0), "alpha must not be an even integer"),
        (lambda: CovarianceModel.polynomial_plus_fractional(1.0, 0.7, 0.0), "c must be"),
        (lambda: CovarianceModel.powered_exponential(1.0, 1e-300, 1.9), "range must give"),
    ],
    ids=[
        "nan-variance", "zero-range", "matern-inf-range", "matern-even-alpha", "zero-c",
        "underflowing-range",
    ],
)
def test_covariance_rules_are_checked_before_the_derived_parameter(build, message):
    # the named rule refuses the model: no ZeroDivisionError, no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}"):
            build()


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: DeformationSpec.rotational(r0=np.nan), "r0"),
        (lambda: DeformationSpec.rotational(angle=np.inf), "angle"),
        (lambda: DeformationSpec.affine(a=np.nan), "a"),
    ],
    ids=["nan-r0", "inf-angle", "nan-a"],
)
def test_deformation_parameters_must_be_finite(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build()


def _polynomial_part(model: CovarianceModel, t: float) -> float:
    """The even-polynomial part sum_{k<=floor(alpha/2)} K^(2k)(0) t^(2k) / (2k)!, in closed form.

    Every model here has a non-even alpha, so floor(alpha/2) is the degree.
    """
    if model.family == POWERED_EXPONENTIAL:
        return model.variance  # alpha < 2: only the constant survives
    nu = model.alpha / 2.0
    return sum(
        model.variance
        * special.gamma(1.0 - nu)
        / (special.factorial(k) * special.gamma(k + 1.0 - nu))
        / (2.0 * model.range) ** (2 * k)
        * t ** (2 * k)
        for k in range(int(model.alpha // 2) + 1)
    )


@pytest.mark.parametrize(
    "model",
    [
        CovarianceModel.powered_exponential(1.0, 1.0, 0.7),
        CovarianceModel.powered_exponential(2.0, 0.5, 1.3),
        CovarianceModel.matern(1.0, 0.3, 0.35),
        CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0),
        CovarianceModel.polynomial_plus_fractional(0.0231, 3.0, 1.0),
    ],
)
def test_fractional_remainder_ratio(model):
    # (K(t) - even polynomial part) / (c G_alpha(t)) -> 1 as t -> 0
    def ratio(t: float) -> float:
        rem = covariance_eval(model, t) - _polynomial_part(model, t)
        return rem / (model.c * g_alpha(model.alpha, t))

    assert ratio(1e-3) == pytest.approx(1.0, abs=0.10)
    assert ratio(1e-4) == pytest.approx(1.0, abs=0.02)
    assert abs(ratio(1e-4) - 1.0) < abs(ratio(1e-2) - 1.0)


# ---------------------------------------------------------------------------
# Simulation


def test_single_location_marginal_variance():
    m = CovarianceModel.powered_exponential(1.7, 1.0, 0.9)
    draws = np.array(
        [simulate_isotropic(m, [0.3 + 0.4j], seed).values[0] for seed in range(20000)]
    )
    # sample variance of N(0, K(0)): se = K(0) * sqrt(2/n)
    se = 1.7 * np.sqrt(2.0 / draws.size)
    assert abs(np.var(draws, ddof=1) - 1.7) < 3.5 * se


def test_simulation_deterministic_per_seed():
    m = CovarianceModel.powered_exponential(1.0, 1.0, 1.0)
    pts = np.linspace(0, 1, 30) + 0.1j
    a = simulate_isotropic(m, pts, 7)
    b = simulate_isotropic(m, pts, 7)
    c = simulate_isotropic(m, pts, 8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize(
    "model",
    [
        CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0),
        CovarianceModel.matern(1.0, 0.4, 0.85),
        CovarianceModel.powered_exponential(1.0, 0.3, 1.0),
    ],
)
def test_covariance_matrix_matches_elementwise_kernel(model):
    # a tile with no period takes every entry from its own site pair, bit for
    # bit; the lattice and the bent lattice repeat column by column, and their
    # later block rows copy the first within rounding; nothing is written
    # below the diagonal
    ax = np.arange(12) / 11.0
    lattice = (ax[:, None] + 1j * ax[None, :]).ravel()
    bent = apply_deformation(DeformationSpec.rotational(), lattice)
    moved = bent.copy()
    moved[100] += 1e-6
    scattered = np.random.default_rng(5).uniform(size=(144, 2)) @ np.array([1.0, 1j])
    for sites, period in ((lattice, 12), (bent, 12), (moved, 144), (scattered, 144)):
        assert _tile_period(sites) == period
        dist = np.abs(sites[:, None] - sites[None, :])
        cov = _covariance_upper(model, sites, model.variance)
        want = np.triu(covariance_eval(model, dist))
        if period < sites.size:
            assert np.max(np.abs(np.triu(cov) - want)) <= 1e-13 * model.variance
        else:
            assert np.array_equal(np.triu(cov), want)
        assert np.all(np.tril(cov, -1) == 0.0)
        # the first block rows alone, as the block Schur draw builds them
        rows = min(2 * period, sites.size)
        top = _covariance_upper(model, sites, model.variance, rows=rows)
        assert np.array_equal(top, cov[:rows])


def _matern_by_kv(model, t):
    x = t / model.range
    nu = model.alpha / 2.0
    return model.variance * 2.0 ** (1.0 - nu) / special.gamma(nu) * x**nu * special.kv(nu, x)


_NUS = [0.05, 0.35, 0.5, 0.85, 0.95, 0.99, 0.999, 1.35, 1.65, 1.99]


@pytest.mark.parametrize(
    "model",
    [CovarianceModel.matern(1.3, 0.4, nu) for nu in _NUS]
    + [CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0)],
    ids=[f"matern-{nu}" for nu in _NUS] + ["paper"],
)
def test_matern_form_matches_bessel_k(model):
    # the series within 1e-12 of the variance up to SERIES_X; kv's own values
    # past it (both sides of it sampled) and wherever |sin(nu pi)| is small
    edge = SERIES_X * (1.0 + np.arange(-3, 4) * 1e-12)
    x = np.concatenate([np.linspace(1e-6, 2 * SERIES_X, 4001), edge])
    t = x * model.range
    got = covariance_eval(model, t)
    want = _matern_by_kv(model, t)
    assert np.max(np.abs(got - want)) <= 1e-12 * model.variance
    by_kv = (t / model.range > SERIES_X) | (abs(np.sin(model.alpha / 2 * np.pi)) < SERIES_SIN)
    assert np.array_equal(got[by_kv], want[by_kv])
    assert covariance_eval(model, 0.0) == model.variance


@pytest.mark.parametrize(
    "model",
    [
        CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0),
        CovarianceModel.matern(1.0, 0.4, 0.99),  # by kv alone
        CovarianceModel.powered_exponential(1.0, 0.3, 1.0),
    ],
)
def test_covariance_eval_is_elementwise(model):
    # every entry is the same bits alone, in a slice, in a 2-d array and in
    # an array across the series' chunk boundary
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 2 * SERIES_X, SERIES_CHUNK + 1000)
    x[:10] = 0.0
    t = x * model.range
    full = covariance_eval(model, t)
    for i in (0, 17, SERIES_CHUNK - 1, SERIES_CHUNK, t.size - 1):
        assert covariance_eval(model, t[i]) == full[i]
    cut = slice(SERIES_CHUNK - 50, SERIES_CHUNK + 50)
    assert np.array_equal(covariance_eval(model, t[cut]), full[cut])
    assert np.array_equal(covariance_eval(model, t[::-1]), full[::-1])
    grid = t[:1000].reshape(25, 40).T  # 2-d and not C-ordered
    assert np.array_equal(covariance_eval(model, grid), full[:1000].reshape(25, 40).T)
    for top in (0.5 * SERIES_X, 0.01 * SERIES_X):  # largest x far below SERIES_X
        near = x < top
        assert np.array_equal(covariance_eval(model, t[near]), full[near])


@pytest.mark.parametrize(
    "model",
    [
        CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0),
        CovarianceModel.matern(1.0, 0.4, 0.85),
        CovarianceModel.powered_exponential(1.0, 0.3, 1.0),
    ],
)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_draws_every_family(model, n):
    # tiles with no off-diagonal pair, one pair, and three pairs
    sites = np.array([0.1 + 0.2j, 0.4 + 0.2j, 0.1 + 0.7j])[:n]
    dist = np.abs(sites[:, None] - sites[None, :])
    cov = _covariance_upper(model, sites, model.variance)
    assert cov.shape == (n, n)
    for i in range(n):
        for j in range(n):
            assert cov[i, j] == (covariance_eval(model, dist[i, j]) if j >= i else 0.0)
    draw = simulate_isotropic(model, sites, 5)
    assert draw.values.shape == (n,) and np.all(np.isfinite(draw.values))


def _dense_factor(model, sites):
    # the oracle: LAPACK's dpotrf on the tile's whole covariance
    return dpotrf(_covariance_upper(model, sites, model.variance).T, lower=1)[0]


_PERIODIC_MODELS = (
    CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0),
    CovarianceModel.powered_exponential(1.0, 0.3, 1.5),
    CovarianceModel.matern(1.0, 0.4, 0.85),
)


def _check_schur_factor(model, sites, strip):
    # draws with z = I are z' L' = L' row by row: the factor itself.  It is
    # lower triangular, L L' is the covariance within 1e-12 of its largest
    # entry, and the factor and three draws are within rounding of the dense
    # oracle's; only the first block row of `strip` rows is built
    n = sites.size
    upper = _covariance_upper(model, sites, model.variance)
    cov = upper + np.triu(upper, 1).T
    shapes = []

    def build(*args, **kwargs):
        built = _covariance_upper(*args, **kwargs)
        shapes.append(built.shape)
        return built

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_covariance_upper", build)
        draws, rung = _draw_tile(model, sites, np.eye(n))
    assert shapes == [(strip, n)]
    assert rung == 0  # no jitter, so L L' is the matrix itself
    factor = draws.T
    assert np.all(np.triu(factor, 1) == 0.0)
    assert np.max(np.abs(factor @ factor.T - cov)) <= 1e-12 * np.max(np.abs(cov))
    oracle = _dense_factor(model, sites)
    scale = np.sqrt(np.max(np.abs(cov)))
    assert np.max(np.abs(factor - oracle)) <= 1e-11 * scale
    z = np.random.default_rng(2).standard_normal((3, n))
    assert np.max(np.abs(_draw_tile(model, sites, z)[0] - z @ oracle.T)) <= 1e-10 * scale


def test_cholesky_factor_contract():
    # a 20 x 10 lattice bent by the rotational map: 200 sites in strips of 10
    # that repeat under one rotation, drawn four strips (40 sites) a step
    lattice = (np.arange(20)[:, None] / 19.0 + 1j * np.arange(10)[None, :] / 9.0).ravel()
    sites = apply_deformation(DeformationSpec.rotational(), lattice)
    assert _tile_period(sites) == 10 and _strip(10, sites.size) == 40
    for model in _PERIODIC_MODELS:
        _check_schur_factor(model, sites, 40)


def test_evenly_spaced_line_draws_in_merged_strips():
    # a line repeats site by site (period 1); its draw takes strips of 40, the
    # smallest multiple of the period that divides 240 and holds MIN_STRIP
    # sites, so it runs 6 steps and not 240, from one kernel row of 240
    # distances copied into the strip's 40 rows
    line = np.linspace(0.0, 1.0, 240) * np.exp(0.3j) + 0.2
    assert _tile_period(line) == 1 and MIN_STRIP == 32 and _strip(1, 240) == 40
    for model in _PERIODIC_MODELS:
        _check_schur_factor(model, line, 40)
        stats = {}
        _draw_tile(model, line, np.ones((1, 240)), stats)
        assert stats == {"kernel_entries": 240}
    # periods that already reach MIN_STRIP stay; a tile that no smaller
    # multiple divides is one strip and is drawn densely
    cases = [(50, 2500), (60, 3600), (12, 144), (1, 8), (4, 16), (1, 997), (997, 997)]
    assert [_strip(p, n) for p, n in cases] == [50, 60, 36, 8, 16, 997, 997]


def test_tiles_with_no_period_draw_by_the_dense_factor():
    # scattered sites, and a bent lattice with one site moved, have no period:
    # each draw is dpotrf's factor times its seeded normals, bit for bit,
    # also for a translated copy that shares the first tile's factor
    m = CovarianceModel.matern(1.0, 0.4, 0.85)
    rng = np.random.default_rng(8)
    scattered = rng.uniform(size=60) + 1j * rng.uniform(size=60)
    ax = np.arange(8) / 7.0
    moved = apply_deformation(DeformationSpec.rotational(), (ax[:, None] + 1j * ax).ravel())
    moved[10] += 1e-6
    for sites in (scattered, moved):
        n = sites.size
        assert _tile_period(sites) == n
        factor = _dense_factor(m, sites)
        got = simulate_isotropic(m, sites, 3).values
        seq = np.random.SeedSequence(3)
        assert np.array_equal(got, factor @ np.random.default_rng(seq).standard_normal(n))
        both = np.concatenate([sites, sites + 5.0])
        got = simulate_isotropic(m, both, 3, blocks=[np.arange(n), np.arange(n, 2 * n)]).values
        for k in (0, 1):
            seq = np.random.SeedSequence(3, spawn_key=(k,))
            want = factor @ np.random.default_rng(seq).standard_normal(n)
            assert np.array_equal(got[k * n : (k + 1) * n], want)


def _repeated_strips():
    line = np.linspace(0.0, 1.0, 40) * np.exp(0.3j) + 0.2
    return np.tile(line, 2)  # period 40: the second strip is a copy of the first


def _doubled_sites():
    return np.repeat(np.linspace(0.0, 1.0, 64) + 0.5j, 2)  # period 2, strips of 32


def _doubled_bent_lattice():
    ax = np.arange(8) / 7.0
    sites = apply_deformation(DeformationSpec.rotational(), (ax[:, None] + 1j * ax).ravel())
    return np.repeat(sites, 2)  # period 16, strips of 32


@pytest.mark.parametrize(
    "case",
    [_repeated_strips, _doubled_sites, _doubled_bent_lattice],
    ids=["repeated-strips", "doubled-sites", "doubled-bent-lattice"],
)
def test_periodic_tiles_with_repeated_sites_take_the_dense_rung(case, monkeypatch):
    # a repeated site makes a periodic tile's covariance singular: the block
    # Schur draw fails at rung 0 and passes at 1e-12, as dpotrf does on the
    # dense matrix; the copies of a site draw the same value within 1e-5,
    # and with no rung left the error reports the whole matrix's spectrum
    m = CovarianceModel.powered_exponential(1.0, 0.3, 1.5)
    sites = case()
    n = sites.size
    strip = _strip(_tile_period(sites), n)
    assert strip < n
    v = m.variance
    upper = _covariance_upper(m, sites, v)
    assert dpotrf(upper.T, lower=1)[1] != 0
    assert dpotrf(_covariance_upper(m, sites, v + 1e-12 * v).T, lower=1)[1] == 0
    z = np.random.default_rng(1).standard_normal((1, n))
    draws, rung = _draw_tile(m, sites, z)
    assert rung == 1
    _, first, inverse = np.unique(sites, return_index=True, return_inverse=True)
    assert np.max(np.abs(draws[0] - draws[0][first][inverse])) <= 1e-5
    eigs = np.linalg.eigvalsh(upper, UPLO="U")
    monkeypatch.setattr(fields, "JITTER_LADDER", (0.0,))
    with pytest.raises(SimulationError) as err:
        _draw_tile(m, sites, z)
    assert f"eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]" in str(err.value)


@pytest.mark.parametrize(
    "model",
    [
        CovarianceModel.powered_exponential(1.0, 0.3, 1.0),
        CovarianceModel.powered_exponential(1.0, 0.3, 1.5),
        CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0),  # by the series
    ],
    ids=["powered-exponential-1.0", "powered-exponential-1.5", "paper"],
)
def test_covariance_eval_works_in_one_copy_of_its_input(model):
    t = np.random.default_rng(4).uniform(0.0, 2 * SERIES_X * model.range, 10**6)
    tracemalloc.start()
    try:
        covariance_eval(model, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * t.nbytes


def test_cholesky_allocates_no_copy_of_the_tile():
    # the evenly spaced line (period 1) is drawn in strips of s = 40 from its
    # first block row: the row, two 2s x n generator buffers and the draws,
    # about 5 s n doubles where a dense factor takes n^2.  The tile with a
    # repeated site has no period: its matrix (n^2 doubles), which the factor
    # then overwrites, and SLAB_ROWS rows of kernel slabs at a time (about
    # 0.25 n^2 at n = 1000); no second copy of the tile, and a failed rung's
    # matrix is dropped before the next rung's is built
    n = 1000
    model = CovarianceModel.powered_exponential(1.0, 0.3, 1.0)
    clean = np.linspace(0.0, 1.0, n) + 0.0j
    repeated = np.append(clean[:-1], clean[0])
    strip = _strip(_tile_period(clean), n)
    assert strip == 40 and _tile_period(repeated) == n
    z = np.ones((1, n))
    for rung, sites, bound in ((0, clean, 6 * strip * n * 8), (1, repeated, 1.3 * n * n * 8)):
        tracemalloc.start()
        try:
            assert _draw_tile(model, sites, z)[1] == rung
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_cholesky_failure_reports_the_original_spectrum(monkeypatch):
    # a repeated site with no jitter to rescue it: the spectrum reported is
    # the covariance's own, not that of the matrix the failed dpotrf left
    m = CovarianceModel.powered_exponential(1.0, 0.3, 1.5)
    pts = np.linspace(0, 1, 8) + 0.5j
    twice = np.append(pts, pts[3])
    cov = _covariance_upper(m, twice, m.variance)
    eigs = np.linalg.eigvalsh(cov, UPLO="U")
    expected = f"eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
    failed = cov.copy()
    assert dpotrf(failed.T, lower=1, clean=0, overwrite_a=1)[1] != 0
    left = np.linalg.eigvalsh(failed, UPLO="U")
    assert f"eigenvalue range [{left[0]:.3e}, {left[-1]:.3e}]" != expected
    monkeypatch.setattr(fields, "JITTER_LADDER", (0.0,))
    with pytest.raises(SimulationError) as err:
        _draw_tile(m, twice, np.eye(twice.size))
    assert expected in str(err.value)


def test_simulation_counts_jittered_tiles():
    m = CovarianceModel.powered_exponential(1.0, 0.3, 1.5)
    pts = np.linspace(0, 1, 8) + 0.5j
    stats = {}
    simulate_isotropic(m, pts, 0, stats=stats)
    assert stats.get("jittered", 0) == 0
    # a repeated site makes the covariance singular: rung 0 fails, 1e-12 passes
    twice = np.append(pts, pts[3])
    upper = _covariance_upper(m, twice, m.variance)
    cov = upper + np.triu(upper, 1).T
    shifted = cov + 1e-12 * m.variance * np.eye(twice.size)
    assert dpotrf(cov, lower=1)[1] != 0
    expected, info = dpotrf(shifted, lower=1)
    assert info == 0
    draws, rung = _draw_tile(m, twice, np.eye(twice.size))  # one strip: the dense factor
    assert np.array_equal(draws.T, expected)
    assert rung == 1
    stats = {}
    draw = simulate_isotropic(m, twice, 0, stats=stats)
    assert stats["jittered"] == 1
    assert draw.values[3] == pytest.approx(draw.values[-1], abs=1e-5)
    # one count per tile whose factor needed jitter: the repeated site 3 and
    # its copy 8 in different tiles, then in the same tile
    stats = {}
    simulate_isotropic(m, twice, 0, blocks=[np.arange(5), np.arange(5, 9)], stats=stats)
    assert stats.get("jittered", 0) == 0
    simulate_isotropic(m, twice, 0, blocks=[[0, 1, 2, 4, 5, 6, 7], [3, 8]], stats=stats)
    assert stats["jittered"] == 1
    # two congruent tiles with the repeated site share one jittered factor,
    # and each of them counts; the tile has no period, so each of the two
    # rungs evaluates the kernel on one slab of 9 x 9 distances
    stats = {}
    blocks = [np.arange(9), np.arange(9, 18)]
    simulate_isotropic(m, np.concatenate([twice, twice + 4.0]), 0, blocks=blocks, stats=stats)
    assert stats == {"factors": 1, "jittered": 2, "kernel_entries": 2 * 81}


def test_each_jitter_rung_builds_the_tile_afresh(monkeypatch):
    # a failed rung drops its matrix and the next rung builds a new one:
    # one build per rung tried, one per congruence group.  A tile with no
    # period builds its whole matrix; a periodic one its first block row
    # alone, 40 rows here, and the whole matrix only for a failure's spectrum
    builds = []

    def build(model, locations, diagonal, stats=None, rows=None):
        builds.append((diagonal, rows))
        return _covariance_upper(model, locations, diagonal, stats, rows)

    monkeypatch.setattr(fields, "_covariance_upper", build)
    m = CovarianceModel.powered_exponential(1.0, 0.3, 1.5)
    pts = np.linspace(0, 1, 8) + 0.5j
    twice = np.append(pts, pts[3])
    line = np.linspace(0, 1, 80) + 0.5j
    copied = np.tile(line[:40], 2)  # two strips of 40, the second a copy of the first
    for sites, rows, diagonals in (
        (pts, None, [1.0]),
        (twice, None, [1.0, 1.0 + 1e-12]),  # rung 0, then rung 1 for the repeated site
        (line, 40, [1.0]),
        (copied, 40, [1.0, 1.0 + 1e-12]),
    ):
        want = [(d, rows) for d in diagonals]
        builds.clear()
        simulate_isotropic(m, sites, 0)
        assert builds == want
        # two congruent tiles: one group, built as often as one tile
        builds.clear()
        stats = {}
        both = np.concatenate([sites, sites + 4.0])
        blocks = [np.arange(sites.size), np.arange(sites.size, both.size)]
        simulate_isotropic(m, both, 0, blocks=blocks, stats=stats)
        assert builds == want
        assert stats["factors"] == 1
    # every rung fails: one build per rung, and one of the whole matrix for
    # the spectrum
    monkeypatch.setattr(fields, "JITTER_LADDER", (0.0, 1e-300))
    for sites, rows in ((twice, None), (copied, 40)):
        builds.clear()
        with pytest.raises(SimulationError):
            simulate_isotropic(m, sites, 0)
        assert builds == [(1.0, rows), (1.0, rows), (1.0, None)]


@pytest.mark.parametrize(
    "blocks",
    [None, [np.arange(3), np.arange(3, MAX_EXACT_SIM + 4)]],
    ids=["untiled", "small-tile-then-one-over-the-cap"],
)
def test_simulation_exact_cap(monkeypatch, blocks):
    # one site over the cap is refused before any covariance is built, even
    # when a tile that fits comes first
    def build(*args, **kwargs):
        raise AssertionError("a covariance was built before the cap check")

    monkeypatch.setattr(fields, "_covariance_upper", build)
    m = CovarianceModel.powered_exponential(1.0, 1.0, 1.0)
    n = MAX_EXACT_SIM + 1 if blocks is None else MAX_EXACT_SIM + 4
    pts = np.arange(n, dtype=float) + 0.0j
    with pytest.raises(SimulationError, match="exact-simulation cap"):
        simulate_isotropic(m, pts, 0, blocks=blocks)


def test_draws_are_the_factor_times_the_seeded_normals():
    # an untiled draw is the one tile drawn from SeedSequence(seed); tile k
    # of a tiled draw draws from SeedSequence(seed, spawn_key=(k,)) by the
    # factor of the first tile of its congruence group.  The 64 sites repeat
    # in strips of 8 and are drawn in two steps of 32 by the block Schur
    # algorithm, within rounding of the dense oracle; the 16-site tiles are
    # one strip each and take the dense factor's product bit for bit
    m = CovarianceModel.polynomial_plus_fractional(0.5151, 0.7, 1.0)
    ax = np.arange(8) / 7.0
    sites = apply_deformation(DeformationSpec.rotational(), (ax[:, None] + 1j * ax).ravel())

    def normals(seq, size):
        return np.random.default_rng(seq).standard_normal(size)

    assert _strip(_tile_period(sites), sites.size) == 32
    got = simulate_isotropic(m, sites, 5).values
    want = _dense_factor(m, sites) @ normals(np.random.SeedSequence(5), sites.size)
    assert np.max(np.abs(got - want)) <= 1e-12
    blocks = simulation_blocks(8, 8, 4)
    groups = congruent_tiles(sites, blocks)
    assert groups == [[0, 2], [1, 3]]  # tiles a shift in x apart are rotated copies
    got = simulate_isotropic(m, sites, 5, blocks=blocks).values
    for members in groups:
        shared = _dense_factor(m, sites[blocks[members[0]]])
        for k in members:
            idx = blocks[k]
            z = normals(np.random.SeedSequence(5, spawn_key=(k,)), idx.size)
            assert np.array_equal(got[idx], shared @ z)
            own = _dense_factor(m, sites[idx]) @ z
            if k == members[0]:
                assert np.array_equal(got[idx], own)
            assert np.max(np.abs(got[idx] - own)) <= 1e-12


@pytest.mark.parametrize(
    "deform, factors", [(DeformationSpec.rotational(), 2), (DeformationSpec.identity(), 1)]
)
def test_congruent_tiles_share_one_factor(deform, factors):
    # each 4 x 4 tile repeats lattice column by column (period 4), so each
    # factor evaluates the kernel on one block row of 4 x 16 distances
    m = CovarianceModel.powered_exponential(1.0, 0.3, 1.0)
    ax = np.arange(8) / 7.0
    sites = apply_deformation(deform, (ax[:, None] + 1j * ax).ravel())
    stats = {}
    simulate_isotropic(m, sites, 0, blocks=simulation_blocks(8, 8, 4), stats=stats)
    assert stats == {"factors": factors, "kernel_entries": factors * 4 * 16}


def _square_and_translate(move=0.0):
    # a 4 x 4 tile of diameter sqrt(2) and its translate, one site moved by move
    ax = np.arange(4) / 3.0
    tile = (ax[:, None] + 1j * ax).ravel()
    moved = tile + 2.0
    moved[5] += move
    return np.concatenate([tile, moved]), [np.arange(16), np.arange(16, 32)]


def _mirror_and_motion():
    # a mirror image keeps the distances but is not a proper rigid motion
    rng = np.random.default_rng(4)
    tile = rng.uniform(0, 1, 12) + 1j * rng.uniform(0, 1, 12)
    sites = np.concatenate([tile, np.conj(tile) + 3.0, tile * np.exp(0.7j) - 2.0j])
    return sites, [np.arange(12), np.arange(12, 24), np.arange(24, 36)]


def _uneven_lattice():
    # 11 rows in tiles of 4: the last tile row merges 7 rows, so only the
    # full tiles are translates of tile 0
    xs, ys = np.arange(11) / 10.0, np.arange(8) / 10.0
    return (xs[:, None] + 1j * ys).ravel(), simulation_blocks(11, 8, 4)


@pytest.mark.parametrize(
    "case, groups",
    [
        (_square_and_translate, [[0, 1]]),
        (lambda: _square_and_translate(1e-9 * np.sqrt(2.0)), [[0], [1]]),
        (_mirror_and_motion, [[0, 2], [1]]),
        (_uneven_lattice, [[0, 1], [2, 3]]),
    ],
    ids=["translate", "one-site-moved-1e-9", "mirror", "merged-remainder"],
)
def test_congruent_tiles_match_every_site(case, groups):
    sites, blocks = case()
    assert congruent_tiles(sites, blocks) == groups


def test_one_factor_is_alive_at_a_time():
    # two tiles that are not congruent and have no period: the first factor
    # is released before the second covariance is built, so the peak stays
    # near one tile's assembly (the matrix and its kernel slabs, about
    # 1.4 n^2 doubles at n = 600) instead of adding a factor (n^2 more)
    rng = np.random.default_rng(6)
    n = 600
    sites = rng.uniform(0, 1, 2 * n) + 1j * rng.uniform(0, 1, 2 * n)
    blocks = [np.arange(n), np.arange(n, 2 * n)]
    m = CovarianceModel.powered_exponential(1.0, 0.3, 1.0)
    stats = {}
    tracemalloc.start()
    try:
        simulate_isotropic(m, sites, 0, blocks=blocks, stats=stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each slab of SLAB_ROWS rows takes its rows' distances to every later site
    per_tile = sum(min(SLAB_ROWS, n - top) * (n - top) for top in range(0, n, SLAB_ROWS))
    assert stats == {"factors": 2, "kernel_entries": 2 * per_tile}
    assert peak < 2.0 * n * n * 8


def test_simulation_blocks_partition_and_determinism():
    m = CovarianceModel.powered_exponential(1.0, 0.3, 1.0)
    n = 12
    xs = np.linspace(0, 1, n)
    pts = (xs[:, None] + 1j * xs[None, :]).ravel()
    blocks = simulation_blocks(n, n, 6)
    assert sorted(np.concatenate(blocks).tolist()) == list(range(n * n))
    a = simulate_isotropic(m, pts, 3, blocks=blocks)
    b = simulate_isotropic(m, pts, 3, blocks=blocks)
    assert np.array_equal(a.values, b.values)
    # per-block seeding: block 0 alone reproduces its tile of the full draw
    sub = simulate_isotropic(m, pts[blocks[0]], 3, blocks=[np.arange(blocks[0].size)])
    assert np.allclose(sub.values, a.values[blocks[0]])


def test_simulation_blocks_must_partition():
    m = CovarianceModel.powered_exponential(1.0, 1.0, 1.0)
    pts = np.arange(6, dtype=float) + 0.0j
    with pytest.raises(ValueError):
        simulate_isotropic(m, pts, 0, blocks=[np.array([0, 1, 2])])
    with pytest.raises(ValueError):
        simulate_isotropic(m, pts, 0, blocks=[np.array([0, 1, 2, 3, 4, 4, 5])])
    with pytest.raises(ValueError, match="partition"):
        simulate_isotropic(m, pts, 0, blocks=[np.arange(6), np.array([], dtype=int)])


def test_add_noise_contract():
    rng = np.random.default_rng(0)
    base = SampleField(
        rng.uniform(0, 1, 4000) + 1j * rng.uniform(0, 1, 4000),
        rng.standard_normal(4000) * 2.0,
    )
    same = add_noise(base, 0.0, 5)
    assert np.array_equal(same.values, base.values)
    same.values[0] = 99.0
    assert base.values[0] != 99.0  # copy, not view

    noisy = add_noise(base, 0.25, 5)
    ratio = np.std(noisy.values - base.values, ddof=1) / np.std(base.values, ddof=1)
    assert ratio == pytest.approx(0.25, rel=0.05)
    again = add_noise(base, 0.25, 5)
    assert np.array_equal(noisy.values, again.values)
    with pytest.raises(ValueError):
        add_noise(base, -0.1, 5)


# ---------------------------------------------------------------------------
# Deformations


def test_rotational_fixes_origin():
    spec = DeformationSpec.rotational(1.2, np.pi / 2, (0, 1, 0, 1))
    out = apply_deformation(spec, [0.0 + 0.0j])
    assert abs(out[0]) < 1e-14


def test_affine_evaluation():
    spec = DeformationSpec.affine(1.0, 0.3, 0.0, (-2, 2, -2, 2))
    out = apply_deformation(spec, [1.0 + 1.0j])
    assert out[0] == pytest.approx(1.3 + 0.7j, abs=1e-14)


def test_identity_spec():
    spec = DeformationSpec.identity((0, 1, 0, 1))
    pts = np.array([0.2 + 0.7j, 0.9 + 0.1j])
    assert np.array_equal(apply_deformation(spec, pts), pts)


def test_apply_deformation_domain_check():
    spec = DeformationSpec.rotational(1.2, np.pi / 2, (0, 1, 0, 1))
    with pytest.raises(ValueError, match="outside"):
        apply_deformation(spec, [3.0 + 0.0j])


def test_folding_affine_is_rejected():
    # |b| > |a| reverses orientation
    with pytest.raises(OrientationError):
        DeformationSpec.affine(1.0, 1.5, 0.0, (0, 1, 0, 1))


def test_grid_map_matches_sampled_deformation():
    spec = DeformationSpec.rotational(1.2, np.pi / 2, (0, 1, 0, 1))
    n = 41
    sp = 1.0 / (n - 1)
    lattice = ComplexGrid(n, n, (0.0, 0.0), (sp, sp), np.zeros((n, n), dtype=complex))
    vals = apply_deformation(spec, lattice.locations()).reshape(n, n)
    gm = DeformationSpec.grid_map(ComplexGrid(n, n, (0.0, 0.0), (sp, sp), vals))
    rng = np.random.default_rng(4)
    probe = rng.uniform(0.05, 0.95, 40) + 1j * rng.uniform(0.05, 0.95, 40)
    direct = apply_deformation(spec, probe)
    viagrid = apply_deformation(gm, probe)
    assert np.max(np.abs(direct - viagrid)) < 5e-4  # bilinear on h=1/40


# ---------------------------------------------------------------------------
# Measured dilatation


def _lattice_map(fn, n=21, lo=0.0, hi=1.0):
    sp = (hi - lo) / (n - 1)
    base = ComplexGrid(n, n, (lo, lo), (sp, sp), np.zeros((n, n), dtype=complex))
    vals = fn(base.locations()).reshape(n, n)
    return ComplexGrid(n, n, (lo, lo), (sp, sp), vals)


def test_dilatation_of_identity():
    g = _lattice_map(lambda z: z)
    mu, phi = numeric_dilatation(g)
    assert np.max(np.abs(mu.values)) < 1e-12
    assert np.max(np.abs(phi.values - 1.0)) < 1e-12


def test_dilatation_of_affine_is_exact():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = rng.standard_normal() + 1j * rng.standard_normal()
        b = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.3
        if abs(b) >= abs(a):
            a, b = b * 2.0, a * 0.25
        g = _lattice_map(lambda z: a * z + b * np.conj(z) + 0.1)
        mu, phi = numeric_dilatation(g)
        assert np.max(np.abs(mu.values - b / a)) < 1e-8
        want_phi = np.sqrt(abs(a) ** 2 - abs(b) ** 2)
        assert np.max(np.abs(phi.values - want_phi)) < 1e-8


def test_dilatation_of_rotational_map():
    # analytic value at (0.5, 0.5): mu = (a-1)/(a+1), phi = sqrt(a), a = 0.7 pi/2
    spec = DeformationSpec.rotational(1.2, np.pi / 2, (0, 1, 0, 1))
    n = 11
    sp = 2e-3
    lo = 0.5 - (n // 2) * sp
    base = ComplexGrid(n, n, (lo, lo), (sp, sp), np.zeros((n, n), dtype=complex))
    vals = apply_deformation(spec, base.locations()).reshape(n, n)
    mu, phi = numeric_dilatation(ComplexGrid(n, n, (lo, lo), (sp, sp), vals))
    a = 0.7 * np.pi / 2
    assert mu.values[n // 2, n // 2] == pytest.approx((a - 1) / (a + 1), abs=1e-5)
    assert phi.values[n // 2, n // 2] == pytest.approx(np.sqrt(a), abs=1e-5)


def test_dilatation_interior_only_limits_orientation_check():
    # fold confined to the first lattice row: one-sided difference there is
    # negative, central differences further in stay orientation-preserving
    g = _lattice_map(lambda z: z)
    vals = g.values.copy()
    vals[0, :] += 1.5 * g.spacing[0]
    bad = ComplexGrid(g.nx, g.ny, g.origin, g.spacing, vals)
    with pytest.raises(OrientationError):
        numeric_dilatation(bad)
    mu, _ = numeric_dilatation(bad, interior_only=True)
    assert np.max(np.abs(mu.values[2:-2, 2:-2])) < 1e-12


def test_dilatation_rejects_folded_map():
    with pytest.raises(OrientationError):
        numeric_dilatation(_lattice_map(lambda z: np.conj(z)))


def test_affine_composition_rule():
    # mu_g evaluated at f(z) from the measured dilatation of the composite
    a_f, b_f = 1.0 + 0.2j, 0.25 - 0.1j
    a_g, b_g = 0.8 - 0.1j, 0.15 + 0.2j
    comp = _lattice_map(
        lambda z: a_g * (a_f * z + b_f * np.conj(z))
        + b_g * np.conj(a_f * z + b_f * np.conj(z))
    )
    mu_comp, _ = numeric_dilatation(comp)
    mu_f = b_f / a_f
    mu_g = b_g / a_g
    lhs = mu_g
    rhs = (a_f / np.conj(a_f)) * (mu_comp.values - mu_f) / (
        1.0 - mu_comp.values * np.conj(mu_f)
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-8


# ---------------------------------------------------------------------------
# Variograms


def test_variogram_of_linear_ramp():
    # deterministic ramp: E(Y(x+h) - Y(x))^2 = (3h)^2, log-log slope 2
    n = 50
    xs = np.linspace(0, 1, n)
    vals = np.broadcast_to(3.0 * xs[:, None], (n, n)).copy()
    # make the y-direction match so both axes contribute the same power
    vals = 3.0 * xs[:, None] + 3.0 * xs[None, :]
    slope = variogram_slope(vals, xs[1] - xs[0], max_lag=5)
    assert slope == pytest.approx(2.0, abs=1e-10)


def test_variogram_of_white_noise_is_flat():
    rng = np.random.default_rng(20)
    slope = variogram_slope(rng.standard_normal((80, 80)), 0.01, max_lag=6)
    assert abs(slope) < 0.05


def test_variogram_block_restriction():
    # values differ wildly across tiles; restricting pairs must ignore that
    vals = np.zeros((8, 8))
    vals[4:, :] += 1000.0
    bid = np.zeros((8, 8), dtype=int)
    bid[4:, :] = 1
    lags, v_all = empirical_variogram(vals, 1.0, max_lag=2)
    _, v_in = empirical_variogram(vals, 1.0, max_lag=2, block_ids=bid)
    assert v_all[0] > 1.0  # tile jump contaminates
    assert np.allclose(v_in, 0.0)


def test_variogram_requires_2d():
    with pytest.raises(ValueError):
        empirical_variogram(np.zeros(10), 1.0)
