"""The paper's scale: one run on a 400x400 lattice, and its tiling guards.

Run alone with: pytest tests/test_nightly.py -s
One realization at 400x400 takes about 3.5 s with BLAS on one thread on a
2-vCPU Xeon (simulate about 0.5-0.7 s, estimate about 2.2 s), printed stage
by stage with -s; the score targets are distributional bands around
published single-realization values, not exact numbers, and the sidecar
counts repeat exactly.  The grouping and strip guards build no covariance.
"""

import json
import os
import time

import numpy as np

import deformfield as df
from deformfield.fields import _strip, apply_deformation, congruent_tiles


def _full_scale_config():
    return df.PipelineConfig(
        grid_nx=400,
        grid_ny=400,
        spacing_x=1.0 / 399.0,
        spacing_y=1.0 / 399.0,
        family="polynomial-plus-fractional",
        variance=0.5151,
        alpha=0.7,
        c=1.0,
        deform="rotational",
        deform_r0=1.2,
        deform_angle=float(np.pi / 2),
        seed=1,
        alpha_max=4.0,
        block=10,
        sim_block=50,
        smooth_window=4,
        flow_steps=20,
        flow_lattice=64,
        harmonic_n=8,
        d1_samples=20000,
        threads=4,
    )


def test_full_scale_tiles_form_eight_congruent_groups():
    # the rotational map turns each row of 8 tiles, a shift in x apart, into
    # rotated copies: the 64 tiles of the full-scale draw need 8 factors
    cfg = _full_scale_config()
    latent = apply_deformation(cfg.build_deformation(), cfg.observation_grid().locations())
    groups = congruent_tiles(latent, cfg.sim_tiles())
    assert [len(members) for members in groups] == [8] * 8


def _tile_strips(cfg):
    latent = apply_deformation(cfg.build_deformation(), cfg.observation_grid().locations())
    return [_strip(latent[idx]) for idx in cfg.sim_tiles() or [np.arange(latent.size)]]


def test_tiles_repeat_lattice_column_by_column():
    # every map here carries each lattice column of a tile onto the next by
    # one rigid motion (a rotation about i r0, or a shift), so a strip is
    # one column: 50 sites in tiles of 50 x 50, 60 in the one 60 x 60 tile
    # (the paper config's lattice and map; the covariance does not enter)
    paper = df.PipelineConfig(deform="rotational", deform_r0=1.2, deform_angle=float(np.pi / 2))
    assert _tile_strips(paper) == [50] * 4
    assert _tile_strips(df.PipelineConfig()) == [50] * 4
    assert _tile_strips(_full_scale_config()) == [50] * 64
    assert _tile_strips(df.PipelineConfig(grid_nx=60, grid_ny=60)) == [60]
    # a straight line of evenly spaced sites repeats site by site, so its
    # strip is the smallest divisor that holds MIN_STRIP sites; one site of
    # the last strip moved, or the sites shuffled, leave one strip: by 1e-6,
    # and by 1e-10, which moves the fitted motion by far less than the 1e-12
    # tolerance, so only the check of every strip sees it
    line = np.linspace(0.0, 1.0, 400) * np.exp(0.3j) + 0.2
    assert _strip(line) == 40
    tile = apply_deformation(paper.build_deformation(), paper.observation_grid().locations())
    tile = tile[paper.sim_tiles()[0]]
    for move in (1e-6, 1e-10):
        moved = tile.copy()
        moved[-3] += move
        assert _strip(moved) == tile.size
    shuffled = tile[np.random.default_rng(0).permutation(tile.size)]
    assert _strip(shuffled) == tile.size


def test_full_scale_pipeline(tmp_path):
    # the four stages one by one, as run_pipeline runs them, each timed
    cfg, out = _full_scale_config(), str(tmp_path / "full")
    times = {}
    for stage in ("simulate", "estimate", "reconstruct", "evaluate"):
        t0 = time.perf_counter()
        result = getattr(df, f"stage_{stage}")(cfg, out)
        times[stage] = time.perf_counter() - t0
    metrics = result  # stage_evaluate's
    print(
        f"full scale: alpha {metrics['alpha']:.4f}, d1 {metrics['d1']:.4f}, "
        f"d2 {metrics['d2']:.4f}; "
        + ", ".join(f"{stage} {t:.2f}s" for stage, t in times.items())
        + f", total {sum(times.values()):.2f}s"
    )
    assert 0.676 < metrics["alpha"] < 0.716
    assert 0.0282 < metrics["d1"] < 0.1126
    assert 0.0338 < metrics["d2"] < 0.1350
    # 64 tiles in 8 congruent groups, each drawn from one 50 x 2500 block
    # row; every one of the 1600 blocks fitted
    with open(os.path.join(out, "field_meta.json"), encoding="utf-8") as fh:
        field_counts = json.load(fh)["counts"]
    with open(os.path.join(out, "estimates_meta.json"), encoding="utf-8") as fh:
        estimate_counts = json.load(fh)["counts"]
    assert field_counts["factors"] == 8
    assert field_counts["kernel_entries"] == 1000000
    assert estimate_counts["blocks_ok"] == 1600
