"""Config parsing and the file-oriented pipeline stages."""

import dataclasses
import json
import os

import numpy as np
import pytest

from deformfield.config import (
    PipelineConfig,
    format_config,
    parse_config,
    read_config,
    write_config,
)
from deformfield import flow, likelihood
from deformfield.errors import ConfigError, FlowError
from deformfield.fields import CovarianceModel
from deformfield.grids import read_grd, write_grd
from deformfield.likelihood import _MAX_HALVINGS, _MAX_ITER
from deformfield.pipeline import (
    run_pipeline,
    stage_estimate,
    stage_evaluate,
    stage_reconstruct,
    stage_simulate,
)


def _mini_config(**overrides):
    cfg = PipelineConfig(
        grid_nx=40,
        grid_ny=40,
        family="powered-exponential",
        variance=0.5,
        range=1.0,
        alpha=0.7,
        deform="rotational",
        seed=3,
        alpha_max=2.0,
        block=10,
        sim_block=20,
        smooth_window=2,
        flow_steps=5,
        flow_lattice=24,
        harmonic_n=3,
        d1_samples=4000,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


# ---------------------------------------------------------------------------
# Config round trips


def test_format_parse_round_trip():
    cfg = _mini_config(spacing_x=1.0 / 3.0, variance=0.515100000001, seed=42)
    back = parse_config(format_config(cfg))
    assert back == cfg


def test_config_file_round_trip(tmp_path):
    cfg = _mini_config(deform="affine", affine_b_re=0.3)
    path = str(tmp_path / "run.cfg")
    write_config(path, cfg)
    assert read_config(path) == cfg


def test_parse_accepts_comments_and_blank_lines():
    text = "\n# full line comment\n  \nseed = 7  # trailing comment\n"
    cfg = parse_config(text)
    assert cfg.seed == 7
    assert cfg.grid_nx == PipelineConfig().grid_nx  # untouched default


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2: unknown key 'sead'"):
        parse_config("seed = 1\nsead = 2\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key 'seed'"):
        parse_config("seed = 1\nblock = 5\nseed = 2\n")
    with pytest.raises(ConfigError, match="line 1: bad value for 'seed'"):
        parse_config("seed = seven\n")
    with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
        parse_config("just words\n")


def test_validate_rejects_bad_settings():
    with pytest.raises(ConfigError, match="unknown family"):
        _mini_config(family="gaussian").validate()
    with pytest.raises(ConfigError, match="unknown deform"):
        _mini_config(deform="swirl").validate()
    with pytest.raises(ConfigError, match="at least 2"):
        _mini_config(grid_nx=1).validate()
    with pytest.raises(ConfigError, match="positive"):
        _mini_config(spacing_y=0.0).validate()
    with pytest.raises(ConfigError, match="noise_fraction"):
        _mini_config(noise_fraction=1.0).validate()
    with pytest.raises(ConfigError, match="deform_path"):
        _mini_config(deform="grid_map").validate()


@pytest.mark.parametrize(
    "family, classmethod_model",
    [
        ("powered-exponential", CovarianceModel.powered_exponential(0.5, 0.8, 0.7)),
        ("matern", CovarianceModel.matern(0.5, 0.8, 0.35)),
        ("polynomial-plus-fractional", CovarianceModel.polynomial_plus_fractional(0.5, 0.7, 1.3)),
    ],
)
def test_build_model_equals_the_family_classmethod(family, classmethod_model):
    # range is read by two families and c by the third; the other is derived
    model = _mini_config(family=family, range=0.8, c=1.3).build_model()
    for f in dataclasses.fields(model):
        assert getattr(model, f.name) == getattr(classmethod_model, f.name), f.name


def test_config_hash_stability_and_sensitivity():
    cfg = _mini_config()
    h = cfg.config_hash()
    assert parse_config(format_config(cfg)).config_hash() == h
    for field, value in (("seed", 4), ("alpha", 0.9), ("deform", "identity")):
        other = _mini_config(**{field: value})
        assert other.config_hash() != h
    # execution knobs do not change what gets computed
    assert _mini_config(threads=8).config_hash() == h
    assert _mini_config(out_dir="elsewhere").config_hash() == h


def test_config_covers_every_field_in_text():
    names = {f.name for f in dataclasses.fields(PipelineConfig)}
    text = format_config(PipelineConfig())
    keys = {line.split("=")[0].strip() for line in text.strip().splitlines()}
    assert keys == names


# ---------------------------------------------------------------------------
# Pipeline stages


def test_stage_order_is_enforced(tmp_path):
    cfg = _mini_config()
    out = str(tmp_path / "run")
    with pytest.raises(ConfigError, match="missing upstream"):
        stage_estimate(cfg, out)
    with pytest.raises(ConfigError, match="missing upstream"):
        stage_reconstruct(cfg, out)
    with pytest.raises(ConfigError, match="missing upstream"):
        stage_evaluate(cfg, out)


def test_stage_hash_mismatch_requires_force(tmp_path):
    out = str(tmp_path / "run")
    stage_simulate(_mini_config(), out)
    other = _mini_config(seed=99)
    with pytest.raises(ConfigError, match="pass force to override"):
        stage_estimate(other, out)


def test_simulate_writes_field_and_meta(tmp_path):
    out = str(tmp_path / "run")
    grid = stage_simulate(_mini_config(), out)
    assert grid.values.shape == (40, 40)
    assert np.all(np.isfinite(grid.values))
    assert os.path.exists(os.path.join(out, "field.grd"))
    assert os.path.exists(os.path.join(out, "field_meta.json"))


def test_simulate_exact_cap_without_tiling(tmp_path):
    cfg = _mini_config(grid_nx=200, grid_ny=200, sim_block=0, deform="identity")
    with pytest.raises(ConfigError, match="sim_block"):
        stage_simulate(cfg, str(tmp_path / "run"))


def test_full_pipeline_mini_run(tmp_path):
    cfg = _mini_config()
    out = str(tmp_path / "run")
    metrics = run_pipeline(cfg, out)
    assert set(metrics) == {"alpha", "d1", "d2"}
    assert 0.05 < metrics["alpha"] <= 2.0
    assert np.isfinite(metrics["d1"]) and metrics["d1"] >= 0.0
    assert np.isfinite(metrics["d2"]) and metrics["d2"] >= 0.0
    for name in (
        "field.grd",
        "field_meta.json",
        "estimates.csv",
        "estimates_meta.json",
        "mustar.grd",
        "fcheck.grd",
        "phicheck.grd",
        "fhat.grd",
        "ellipses.svg",
        "warped.svg",
        "reconstruct_meta.json",
        "report.csv",
        "isotropy.csv",
        "isotropy.svg",
    ):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "report.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "metric,value,config_hash"
    assert len(lines) == 4


def test_pipeline_reruns_are_deterministic(tmp_path):
    cfg = _mini_config(grid_nx=30, grid_ny=30, flow_lattice=16, d1_samples=2000)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    run_pipeline(cfg, out_a)
    run_pipeline(cfg, out_b)
    for name in ("field.grd", "field_meta.json", "fhat.grd", "report.csv"):
        with open(os.path.join(out_a, name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b, name
    with open(os.path.join(out_a, "field_meta.json")) as fh:
        # 30 x 30 sites in tiles of side 20 merge into one tile: one factor,
        # whose lattice columns repeat; a strip of two columns holds MIN_STRIP
        # sites, so the kernel fills one 60 x 900 block row
        counts = json.load(fh)["counts"]
    assert counts == {
        "factors": 1, "tiles_jittered": 0, "kernel_entries": 60 * 900, "schur_redrawn": 0
    }


def _estimate_counts(cfg, out):
    stage_estimate(cfg, out)
    with open(os.path.join(out, "estimates_meta.json"), "rb") as fh:
        blob = fh.read()
    return json.loads(blob)["counts"], blob


def test_estimate_meta_counts_repeat(tmp_path):
    cfg = _mini_config(grid_nx=30, grid_ny=30)
    out = str(tmp_path / "run")
    stage_simulate(cfg, out)
    counts, blob = _estimate_counts(cfg, out)
    assert _estimate_counts(cfg, out)[1] == blob  # reruns are byte-identical
    assert set(counts) == {
        "blocks_ok", "blocks_missing", "nll_evals", "fits_at_maxiter", "alpha_evals",
        "alpha_infeasible",
    }
    assert counts["blocks_ok"] == 9 and counts["blocks_missing"] == 0
    # one Newton search per block: the start, then per iteration a 6-point
    # stencil and at most 1 + _MAX_HALVINGS step trials (none for a step
    # shorter than _XTOL)
    assert 9 * (1 + 6) <= counts["nll_evals"] <= 9 * (
        1 + _MAX_ITER * (6 + 1 + _MAX_HALVINGS)
    )
    assert 0 <= counts["fits_at_maxiter"] <= 9
    assert counts["alpha_evals"] >= 2
    assert counts["alpha_infeasible"] == 0


def test_estimate_meta_records_the_alpha_search(tmp_path, monkeypatch):
    # every golden-section candidate and its summed negative log likelihood,
    # in the order scored; an infeasible score is null, not Infinity, and
    # alpha-hat is the midpoint of the last bracket as before
    cfg = _mini_config(grid_nx=30, grid_ny=30)
    out = str(tmp_path / "run")
    stage_simulate(cfg, out)
    scored = []
    nll = likelihood._alpha_nll

    def planted(alpha, *rest):
        scored.append((alpha, np.inf if alpha < 1.0 else nll(alpha, *rest)))
        return scored[-1][1]

    monkeypatch.setattr(likelihood, "_alpha_nll", planted)
    stage_estimate(cfg, out)
    with open(os.path.join(out, "estimates_meta.json")) as fh:
        text = fh.read()
    meta = json.loads(text)
    search = meta["alpha_search"]
    assert search["alpha"] == [alpha for alpha, _ in scored]
    assert search["nll"] == [None if v == np.inf else v for _, v in scored]
    assert None in search["nll"] and "Infinity" not in text
    assert len(scored) == meta["counts"]["alpha_evals"]
    assert meta["counts"]["alpha_infeasible"] == search["nll"].count(None)


def test_stage_estimate_builds_one_lag_table(tmp_path, monkeypatch):
    # the alpha search and the block fits score the same table
    cfg = _mini_config(grid_nx=30, grid_ny=30)
    out = str(tmp_path / "run")
    stage_simulate(cfg, out)
    built = []
    lag_table = likelihood._lag_table

    def counting(*args):
        built.append(args)
        return lag_table(*args)

    monkeypatch.setattr(likelihood, "_lag_table", counting)
    stage_estimate(cfg, out)
    assert len(built) == 1


def test_estimate_meta_counts_react_to_degenerate_block(tmp_path):
    cfg = _mini_config(grid_nx=30, grid_ny=30)
    out = str(tmp_path / "run")
    grid = stage_simulate(cfg, out)
    counts, _ = _estimate_counts(cfg, out)
    values = grid.values.copy()
    values[:10, :10] = 1.5  # block 0 becomes constant: no contrast signal
    write_grd(grid.with_values(values), os.path.join(out, "field.grd"))
    planted, blob = _estimate_counts(cfg, out)
    assert _estimate_counts(cfg, out)[1] == blob
    assert planted["blocks_ok"] == 8 and planted["blocks_missing"] == 1
    # the degenerate block is never searched
    assert planted["nll_evals"] < counts["nll_evals"]
    assert planted["alpha_evals"] >= 2


def _reconstruct_counts(cfg, out):
    stage_reconstruct(cfg, out)
    with open(os.path.join(out, "reconstruct_meta.json"), "rb") as fh:
        blob = fh.read()
    return json.loads(blob)["counts"], blob


def test_reconstruct_meta_counts(tmp_path, monkeypatch):
    cfg = _mini_config(grid_nx=30, grid_ny=30, flow_lattice=16, d1_samples=2000, harmonic_n=2)
    out = str(tmp_path / "run")
    stage_simulate(cfg, out)
    est = stage_estimate(cfg, out)
    assert est.ok_mask().all()
    counts, blob = _reconstruct_counts(cfg, out)
    assert _reconstruct_counts(cfg, out)[1] == blob  # reruns are byte-identical
    # flow-lattice points outside the 3 x 3 lattice of block centers
    lattice = np.arange(16) * (0.29 / 15)
    inside = (lattice >= est.centers.real.min()) & (lattice <= est.centers.real.max())
    assert counts == {
        "blocks_imputed": 0,
        "blocks_missing": 0,
        "karcher_not_converged": 0,
        "karcher_sets": 9 + int(inside.sum()) ** 2,
        "points_extrapolated": 16 * 16 - int(inside.sum()) ** 2,
    }
    check = json.loads(blob)["flow_check"]
    assert set(check) == {"min_det_j", "max_mu_gap", "max_mu_gap_deep", "median_mu_gap"}
    assert check["min_det_j"] > 0.0 and 0.0 < check["max_mu_gap"] < 0.2
    assert 0.0 < check["median_mu_gap"] <= check["max_mu_gap"]
    assert 0.0 < check["max_mu_gap_deep"] <= check["max_mu_gap"]

    # plant faults: block 0 goes missing and is imputed from its 2 x 2
    # window; blocks 4, 5, 7 and 8 hold each other's whole windows, so they
    # stay missing, and the points of the cell between them fall back to
    # the nearest available block
    path = os.path.join(out, "estimates.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    for k in (0, 4, 5, 7, 8):
        lines[k + 1] = lines[k + 1].rsplit(",", 1)[0] + ",missing"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    planted, blob = _reconstruct_counts(cfg, out)
    assert _reconstruct_counts(cfg, out)[1] == blob
    assert planted["blocks_imputed"] == 1
    assert planted["blocks_missing"] == 4
    assert planted["points_extrapolated"] > counts["points_extrapolated"]
    assert planted["karcher_not_converged"] == 0

    # the flow cannot integrate a dilatation at the real cap on this small
    # lattice, so the cap is lowered until part of mu* exceeds it: the run
    # stops with the count instead of clipping
    monkeypatch.setattr(flow, "MU_STAR_CAP", 0.25)
    with pytest.raises(FlowError) as caught:
        stage_reconstruct(cfg, out)
    over = int(np.sum(np.abs(read_grd(os.path.join(out, "mustar.grd")).values) > 0.25))
    assert 0 < over < 16 * 16
    assert str(caught.value).startswith(f"{over} of {16 * 16} flow-lattice points")


def test_reconstruct_meta_harmonic_fit(tmp_path):
    cfg = _mini_config(grid_nx=30, grid_ny=30, flow_lattice=16, d1_samples=2000, harmonic_n=2)
    out = str(tmp_path / "run")
    stage_simulate(cfg, out)
    stage_estimate(cfg, out)

    def harmonic_fit():
        stage_reconstruct(cfg, out)
        with open(os.path.join(out, "reconstruct_meta.json"), "rb") as fh:
            blob = fh.read()
        return json.loads(blob)["harmonic_fit"], blob

    fit, blob = harmonic_fit()
    assert harmonic_fit()[1] == blob  # reruns are byte-identical
    assert set(fit) == {"residual", "rank_deficient"}
    assert fit["rank_deficient"] is False and fit["residual"] >= 0.0

    # plant a 20-fold scale spike in block 4: no degree-2 harmonic follows it
    path = os.path.join(out, "estimates.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[5].split(",")
    cells[4] = repr(20.0 * float(cells[4]))
    lines[5] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    spiked, blob = harmonic_fit()
    assert harmonic_fit()[1] == blob
    assert spiked["residual"] > fit["residual"] + 0.5
