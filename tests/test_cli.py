"""Command line interface: exit codes, messages, and a small run."""

import dataclasses
import filecmp
import json
import math
import os
import struct
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from deformfield.cli import main
from deformfield.config import PipelineConfig, read_config, write_config
from deformfield.grids import ComplexGrid, Grid, read_grd, write_grd


def _mini_cfg_file(path, **overrides):
    cfg = PipelineConfig(
        grid_nx=30,
        grid_ny=30,
        family="powered-exponential",
        variance=0.5,
        alpha=0.7,
        deform="rotational",
        seed=2,
        alpha_max=2.0,
        block=10,
        sim_block=15,
        smooth_window=2,
        flow_steps=4,
        flow_lattice=16,
        harmonic_n=3,
        d1_samples=2000,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    write_config(str(path), cfg)
    return cfg


def test_init_writes_default_config(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    assert main(["init", str(path)]) == 0
    assert "wrote default config" in capsys.readouterr().out
    assert read_config(str(path)) == PipelineConfig()


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_bad_config_key_exits_two(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("not_a_key = 1\n")
    assert main(["simulate", "--config", str(path)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_missing_config_file_exits_four(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 4
    assert "i/o failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("block", 2),
        ("smooth_window", 4),  # 30 // 10 = 3 blocks per side
        ("flow_lattice", 1),
        ("flow_steps", 0),
        ("harmonic_n", 5),  # 2n+1 = 11 fit points among 9 blocks
        ("d1_samples", 0),
        ("sim_block", -1),
        ("alpha_max", 0.05),
        ("threads", 0),
        ("seed", -1),
        ("spacing_x", math.nan),
        ("spacing_x", math.inf),
        ("origin_x", math.inf),
        ("origin_x", -math.inf),
        ("alpha_max", math.inf),
    ],
)
def test_out_of_range_setting_exits_two(tmp_path, capsys, field, value):
    path = tmp_path / "run.cfg"
    _mini_cfg_file(path, out_dir=str(tmp_path / "out"), **{field: value})
    assert main(["pipeline", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("block, alpha_max", [(3, 8.0), (10, 40.0)])
def test_contrast_degree_beyond_the_block_exits_two(tmp_path, capsys, block, alpha_max):
    # floor(alpha_max / 2) >= 2 (block - 1): the block holds no contrast of that degree
    path = tmp_path / "run.cfg"
    _mini_cfg_file(path, out_dir=str(tmp_path / "out"), block=block, alpha_max=alpha_max)
    assert main(["pipeline", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: alpha_max must be below {4 * (block - 1)} for block = {block}")
    assert err.count("\n") == 1
    assert not os.path.exists(tmp_path / "out")


def test_contrast_degree_that_fits_the_block_validates(tmp_path):
    # degree 3 on a 3 x 3 block leaves one contrast
    path = tmp_path / "run.cfg"
    _mini_cfg_file(path, block=3, alpha_max=7.9)
    read_config(str(path))  # parse_config validates


def test_negative_seed_override_exits_two(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    _mini_cfg_file(path, out_dir=str(tmp_path / "out"))
    assert main(["simulate", "--config", str(path), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "family, field, value",
    [
        ("powered-exponential", "variance", 0.0),
        ("powered-exponential", "range", 0.0),
        ("powered-exponential", "alpha", 2.5),
        ("matern", "alpha", 2.0),
        ("polynomial-plus-fractional", "c", 0.0),
    ],
    ids=["zero-variance", "zero-range", "alpha-above-two", "matern-even-alpha", "zero-c"],
)
def test_bad_covariance_parameter_exits_two(tmp_path, capsys, family, field, value):
    path = tmp_path / "run.cfg"
    _mini_cfg_file(path, out_dir=str(tmp_path / "out"), family=family, **{field: value})
    assert main(["pipeline", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "out")


def test_parameters_a_family_ignores_are_not_checked(tmp_path):
    # range is not read by polynomial-plus-fractional, c by the other two
    for family, field in (("polynomial-plus-fractional", "range"), ("matern", "c")):
        path = tmp_path / f"{family}.cfg"
        _mini_cfg_file(path, family=family, **{field: 0.0})
        read_config(str(path))  # parse_config validates


def test_parameters_a_family_reads_are_checked_before_use(tmp_path):
    # the derived range of polynomial-plus-fractional is not computed from c = 0,
    # so the console shows the refusal and no RuntimeWarning
    path = tmp_path / "run.cfg"
    _mini_cfg_file(path, out_dir=str(tmp_path / "out"), family="polynomial-plus-fractional", c=0.0)
    proc = subprocess.run(
        [sys.executable, "-m", "deformfield.cli", "pipeline", "--config", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: c must be positive and finite, got 0.0\n"
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"spacing_x": 1e-300}, "deform = rotational: map folds over"),
        ({"deform_r0": math.nan}, "deform = rotational: r0 must be finite, got nan"),
        ({"deform_r0": math.inf}, "deform = rotational: r0 must be finite, got inf"),
        ({"deform_angle": math.nan}, "deform = rotational: angle must be finite, got nan"),
        ({"deform_angle": math.inf}, "deform = rotational: angle must be finite, got inf"),
        (  # on the unit square, which reaches past r0
            {"deform_r0": 0.5, "spacing_x": 1.0 / 29.0, "spacing_y": 1.0 / 29.0},
            "deform = rotational: map folds over",
        ),
        ({"deform": "affine", "affine_a_re": math.nan}, "deform = affine: a must be finite"),
        (
            {"deform": "affine", "affine_a_re": 0.5, "affine_b_im": 0.5},
            "deform = affine: affine map with |a|=0.5 <= |b|=0.5 reverses orientation",
        ),
    ],
    ids=[
        "tiny-spacing", "nan-r0", "inf-r0", "nan-angle", "inf-angle", "folding-r0",
        "nan-affine", "reversing-affine",
    ],
)
def test_unusable_deformation_exits_two(tmp_path, capsys, overrides, message):
    path = tmp_path / "run.cfg"
    _mini_cfg_file(path, out_dir=str(tmp_path / "out"), **overrides)
    assert main(["pipeline", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "out")


_SWEEP_VALUES = {
    "float": (math.nan, math.inf, -math.inf, 0.0, -1.0),
    "int": (-1, 0),
    "str": ("bogus",),
}
_SWEEP_TYPES = {f.name: f.type for f in dataclasses.fields(PipelineConfig) if f.name != "out_dir"}
_AFFINE_KEYS = [name for name in _SWEEP_TYPES if name.startswith("affine_")]
# |a| = 1.02 > |b| = 0.32 on the affine base; the rotational base ignores them
_SWEEP_BASE = {
    "block": 5, "flow_lattice": 16, "flow_steps": 3,
    "affine_a_im": 0.2, "affine_b_re": 0.3, "affine_b_im": 0.1,
}


@pytest.mark.parametrize(
    "deform, field",
    [("rotational", name) for name in _SWEEP_TYPES]
    + [("affine", name) for name in _AFFINE_KEYS],
    ids=list(_SWEEP_TYPES) + [f"{name}-on-affine" for name in _AFFINE_KEYS],
)
def test_config_sweep_ends_in_a_documented_exit(tmp_path, capsys, deform, field):
    # every value of every key ends in exit 0, 2, 3 or 4 with at most one line
    # on stderr, and a refused config leaves no run directory and no warning
    problems = []
    for k, value in enumerate(_SWEEP_VALUES[_SWEEP_TYPES[field]]):
        path = tmp_path / f"run{k}.cfg"
        out = tmp_path / f"out{k}"
        _mini_cfg_file(path, out_dir=str(out), **{**_SWEEP_BASE, "deform": deform, field: value})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(["pipeline", "--config", str(path)])
            except Exception as exc:  # reported with the others below
                problems.append(f"{value!r}: {type(exc).__name__}: {exc}")
                continue
        err = capsys.readouterr().err
        if code not in (0, 2, 3, 4) or err.count("\n") > 1:
            problems.append(f"{value!r}: exit {code}, stderr {err!r}")
        if code == 2 and (out.exists() or caught):
            problems.append(f"{value!r}: exit 2 with {[str(w.message) for w in caught]}")
    assert not problems


def test_interior_fold_exits_three_at_reconstruct(tmp_path, capsys):
    # the sweep's base drawn untiled folds in the interior; the run ends at
    # reconstruct with one line and leaves no map for evaluate to refuse
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    _mini_cfg_file(path, out_dir=str(out), **{**_SWEEP_BASE, "sim_block": 0})
    assert main(["pipeline", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: map folds over") and err.count("\n") == 1
    assert (out / "estimates.csv").exists()
    assert not (out / "fhat.grd").exists() and not (out / "report.csv").exists()


@pytest.mark.parametrize(
    "side, sim_block, sites",
    [(150, 0, 22500), (300, 200, 90000)],  # one exact draw; one 300x300 tile
    ids=["exact-draw", "oversized-tile"],
)
def test_oversized_simulation_exits_two(tmp_path, capsys, side, sim_block, sites):
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    _mini_cfg_file(
        path, out_dir=str(out), grid_nx=side, grid_ny=side, spacing_x=0.003,
        spacing_y=0.003, sim_block=sim_block,
    )
    assert main(["pipeline", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sim_block = {sim_block} needs an exact draw of {sites} sites")
    assert err.count("\n") == 1 and not os.path.exists(out)


def test_oversized_lag_table_exits_two(tmp_path, capsys):
    # block 40 on a 400 x 400 lattice would need a 15 GB lag table
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    _mini_cfg_file(
        path, out_dir=str(out), grid_nx=400, grid_ny=400, spacing_x=0.0025,
        spacing_y=0.0025, block=40, alpha_max=4.0,
    )
    t0 = time.perf_counter()
    assert main(["pipeline", "--config", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err == (
        "error: block = 40 with alpha_max = 4.0 needs a lag table of 14.78 GiB, "
        "above the cap of 1 GiB; use a smaller block\n"
    )
    assert not os.path.exists(out)
    _mini_cfg_file(
        path, grid_nx=400, grid_ny=400, spacing_x=0.0025, spacing_y=0.0025, block=20
    )
    read_config(str(path))  # 0.22 GiB: parse_config validates


def test_plain_run_pins_blas_threads_itself(tmp_path):
    # a run with the thread variables removed writes the bytes of a pinned
    # one; a caller's own setting is kept
    path = tmp_path / "run.cfg"
    _mini_cfg_file(path)
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    plain = {k: v for k, v in os.environ.items() if k not in names}
    pinned = {**plain, **dict.fromkeys(names, "1")}
    for tag, env in (("plain", plain), ("pinned", pinned)):
        subprocess.run(
            [sys.executable, "-m", "deformfield.cli", "pipeline", "--config", str(path),
             "--out", str(tmp_path / tag)],
            env=env, check=True, capture_output=True,
        )
    files = sorted(os.listdir(tmp_path / "pinned"))
    assert len(files) == 14 and sorted(os.listdir(tmp_path / "plain")) == files
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "plain", tmp_path / "pinned", files, shallow=False
    )
    assert match == files, (mismatch, errors)
    show = "import os, deformfield; print(*(os.environ[k] for k in {!r}))".format(names)
    for env, want in ((plain, "1 1 1"), ({**plain, "OPENBLAS_NUM_THREADS": "2"}, "2 1 1")):
        proc = subprocess.run(
            [sys.executable, "-c", show], env=env, check=True, capture_output=True, text=True
        )
        assert proc.stdout.split() == want.split()


def test_estimate_before_simulate_exits_two(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    _mini_cfg_file(path, out_dir=str(tmp_path / "out"))
    assert main(["estimate", "--config", str(path)]) == 2
    assert "missing upstream" in capsys.readouterr().err


def _with_nan_value(blob):
    # the GRD1 header is 45 bytes; the first value follows it
    return blob[:45] + struct.pack("<d", float("nan")) + blob[53:]


def _with_zero_spacing(blob):
    # dx sits after the magic, the kind, nx, ny, x0 and y0
    return blob[:29] + struct.pack("<d", 0.0) + blob[37:]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda blob: blob[: len(blob) // 2], "value block holds"),
        (_with_nan_value, "grid values must be finite"),
        (_with_zero_spacing, "grid spacing must be positive"),
    ],
    ids=["cut-off", "nan-value", "zero-spacing"],
)
def test_truncated_field_exits_four(tmp_path, capsys, corrupt, message):
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    _mini_cfg_file(path, out_dir=str(out))
    assert main(["simulate", "--config", str(path)]) == 0
    (out / "field.grd").write_bytes(corrupt((out / "field.grd").read_bytes()))
    capsys.readouterr()
    assert main(["estimate", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: ") and "field.grd: " in err and message in err
    assert err.count("\n") == 1


def _with_cells(line, **cells):
    columns = ["cx", "cy", "mu_re", "mu_im", "phi", "loglik", "status"]
    row = line.split(",")
    for name, value in cells.items():
        row[columns.index(name)] = value
    return ",".join(row)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda line: line.rsplit(",", 3)[0], "has 4 fields"),  # loses phi, loglik, status
        (lambda line: _with_cells(line, mu_re="1.5"), "|mu| < 1"),
        (lambda line: _with_cells(line, mu_re="nan"), "|mu| < 1"),
        (lambda line: _with_cells(line, status="bogus"), "unknown status 'bogus'"),
    ],
    ids=["short-row", "mu-over-one", "mu-nan", "unknown-status"],
)
def test_short_estimates_row_exits_four(tmp_path, capsys, corrupt, message):
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    _mini_cfg_file(path, out_dir=str(out))
    assert main(["simulate", "--config", str(path)]) == 0
    assert main(["estimate", "--config", str(path)]) == 0
    lines = (out / "estimates.csv").read_text().splitlines()
    assert lines[2].endswith(",ok")
    lines[2] = corrupt(lines[2])  # the second block
    (out / "estimates.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["reconstruct", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: ") and "estimates.csv: line 3" in err and message in err
    assert err.count("\n") == 1


def _flipped(grid):
    if isinstance(grid, ComplexGrid):
        return Grid(grid.nx, grid.ny, grid.origin, grid.spacing, grid.values.real)
    return ComplexGrid(grid.nx, grid.ny, grid.origin, grid.spacing, grid.values)


def _cut(nx, ny):
    return lambda grid: type(grid)(nx, ny, grid.origin, grid.spacing, grid.values[:nx, :ny])


def _moved(grid):
    shifted = (grid.origin[0] + 0.5, grid.origin[1] + 0.5)
    return type(grid)(grid.nx, grid.ny, shifted, grid.spacing, grid.values)


_STAGE_OUTPUT = {"estimate": "estimates.csv", "evaluate": "report.csv"}


@pytest.mark.parametrize(
    "name, stages, change",
    [
        ("field.grd", ["estimate", "evaluate"], _flipped),
        ("fhat.grd", ["evaluate"], _flipped),
        ("field.grd", ["estimate", "evaluate"], _cut(1, 40)),
        ("field.grd", ["estimate", "evaluate"], _cut(8, 8)),
        ("fhat.grd", ["evaluate"], _moved),
        ("fhat.grd", ["evaluate"], _cut(1, 16)),
        ("fhat.grd", ["evaluate"], _cut(2, 2)),
    ],
    ids=["complex-field", "real-map", "field-1x40", "field-8x8", "map-moved", "map-1x16",
         "map-2x2"],
)
def test_wrong_grid_kind_exits_four(tmp_path, capsys, name, stages, change):
    # a grid of the wrong kind or off the configured lattice (40x40 sites,
    # a 16x16 flow lattice) is refused, forced or not, by every stage that
    # reads it, and that stage writes nothing
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    _mini_cfg_file(path, out_dir=str(out), grid_nx=40, grid_ny=40, block=5)
    assert main(["pipeline", "--config", str(path)]) == 0
    write_grd(change(read_grd(str(out / name))), str(out / name))
    for stage in stages:
        (out / _STAGE_OUTPUT[stage]).unlink()
        for force in ([], ["--force"]):
            capsys.readouterr()
            assert main([stage, "--config", str(path), *force]) == 4
            err = capsys.readouterr().err
            assert err.startswith("i/o failure: ") and f"{name}: expected" in err
            assert err.count("\n") == 1
            assert not (out / _STAGE_OUTPUT[stage]).exists()


def _identity_map(nx, ny, step):
    sites = step * (np.arange(nx)[:, None] + 1j * np.arange(ny)[None, :])
    return ComplexGrid(nx, ny, (0.0, 0.0), (step, step), sites)


@pytest.mark.parametrize(
    "bad_map, message",
    [
        (_identity_map(11, 11, 0.05), "lies outside the deformation domain"),  # [0, 0.5]^2
        (_identity_map(1, 11, 0.1), "grid spacing must be positive"),  # the probe's
    ],
    ids=["half-cover", "one-row"],
)
def test_unusable_grid_map_exits_four(tmp_path, capsys, bad_map, message):
    # the map file is read by simulate and evaluate; one it cannot serve on
    # the [0, 1]^2 lattice stops either stage with one line naming the file
    # and writes nothing
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    deform_path = str(tmp_path / "map.grd")
    _mini_cfg_file(
        path, out_dir=str(out), deform="grid_map", deform_path=deform_path,
        spacing_x=1.0 / 29.0, spacing_y=1.0 / 29.0,
    )
    write_grd(_identity_map(11, 11, 0.1), deform_path)
    assert main(["pipeline", "--config", str(path)]) == 0
    write_grd(bad_map, deform_path)
    for stage, output in (("evaluate", "report.csv"), ("simulate", "field.grd")):
        (out / output).unlink()
        capsys.readouterr()
        assert main([stage, "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"i/o failure: {deform_path}: deform = grid_map: ")
        assert message in err and err.count("\n") == 1
        assert not (out / output).exists()
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "new")]) == 4
    assert not (tmp_path / "new").exists()  # no empty run directory is left behind


def test_missing_estimates_row_exits_four(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    _mini_cfg_file(path, out_dir=str(out))
    assert main(["simulate", "--config", str(path)]) == 0
    assert main(["estimate", "--config", str(path)]) == 0
    lines = (out / "estimates.csv").read_text().splitlines()
    del lines[3]  # the third of the 3 x 3 blocks
    (out / "estimates.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["reconstruct", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: ") and "estimates.csv: 8 blocks" in err and "3x3" in err
    assert err.count("\n") == 1


def _center_outside(lines, meta):
    lines[1] = _with_cells(lines[1], cx="5.0")


def _swap_rows(lines, meta):
    lines[2], lines[9] = lines[9], lines[2]


def _four_blocks(lines, meta):
    del lines[5:]
    meta["geometry"].update(nbx=2, nby=2)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_center_outside, "estimates.csv: line 2: center (5.0, "),
        (_swap_rows, "estimates.csv: line 3: center "),
        (
            lambda lines, meta: meta["geometry"].update(block=7, spacing=[0.5, 0.5]),
            "estimates_meta.json: geometry ",
        ),
        (_four_blocks, "estimates_meta.json: geometry "),
    ],
    ids=["center-outside", "rows-swapped", "block-and-spacing", "four-of-nine-blocks"],
)
def test_estimates_off_the_configured_partition_exit_four(tmp_path, capsys, corrupt, message):
    # estimates must be those of the configured 3 x 3 blocks, in order;
    # reconstruct refuses others, forced or not, and writes no map
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    _mini_cfg_file(path, out_dir=str(out))
    assert main(["simulate", "--config", str(path)]) == 0
    assert main(["estimate", "--config", str(path)]) == 0
    lines = (out / "estimates.csv").read_text().splitlines()
    meta = json.loads((out / "estimates_meta.json").read_text())
    corrupt(lines, meta)
    (out / "estimates.csv").write_text("\n".join(lines) + "\n")
    (out / "estimates_meta.json").write_text(json.dumps(meta))
    for force in ([], ["--force"]):
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(path), *force]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o failure: ") and message in err and err.count("\n") == 1
        assert not (out / "fhat.grd").exists()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda blob: blob[: len(blob) // 2], "field_meta.json: line "),
        (lambda blob: b"[]\n", "field_meta.json: not a JSON object"),
    ],
    ids=["cut-off", "not-an-object"],
)
def test_truncated_meta_exits_four(tmp_path, capsys, corrupt, message):
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    _mini_cfg_file(path, out_dir=str(out))
    assert main(["simulate", "--config", str(path)]) == 0
    (out / "field_meta.json").write_bytes(corrupt((out / "field_meta.json").read_bytes()))
    capsys.readouterr()
    assert main(["estimate", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda meta: meta.pop("alpha"), "key 'alpha' is missing or not a finite positive number"),
        (
            lambda meta: meta.update(alpha="n/a"),
            "key 'alpha' is missing or not a finite positive number",
        ),
        (lambda meta: meta["geometry"].pop("nbx"), "key 'geometry.nbx' is missing"),
        (lambda meta: meta["geometry"].pop("spacing"), "key 'geometry.spacing' is missing"),
        (
            lambda meta: meta["geometry"].update(spacing=0.01),
            "key 'geometry.spacing' is not a pair of positive numbers",
        ),
    ],
    ids=["no-alpha", "alpha-not-a-number", "no-nbx", "no-spacing", "spacing-not-a-pair"],
)
def test_incomplete_estimates_meta_exits_four(tmp_path, capsys, corrupt, message):
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    _mini_cfg_file(path, out_dir=str(out))
    assert main(["simulate", "--config", str(path)]) == 0
    assert main(["estimate", "--config", str(path)]) == 0
    meta = json.loads((out / "estimates_meta.json").read_text())
    corrupt(meta)
    (out / "estimates_meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["reconstruct", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: ") and f"estimates_meta.json: {message}" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda meta: meta.pop("alpha"),
        lambda meta: meta.update(alpha=None),
        lambda meta: meta.update(alpha="abc"),
        lambda meta: meta.update(alpha=[1]),
        lambda meta: meta.update(alpha=math.nan),
        lambda meta: meta.update(alpha=math.inf),
        lambda meta: meta.update(alpha=-math.inf),
        lambda meta: meta.update(alpha=0),
    ],
    ids=[
        "no-alpha", "alpha-null", "alpha-string", "alpha-list",
        "NaN", "Infinity", "-Infinity", "0",
    ],
)
def test_bad_reconstruct_meta_alpha_exits_four(tmp_path, capsys, corrupt):
    # reconstruct refuses the alpha of estimates_meta.json, and evaluate that
    # of reconstruct_meta.json; json writes NaN and Infinity as bare words
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    _mini_cfg_file(path, out_dir=str(out))
    for stage in ("simulate", "estimate", "reconstruct"):
        assert main([stage, "--config", str(path)]) == 0
    for name, stage in (
        ("estimates_meta.json", "reconstruct"),
        ("reconstruct_meta.json", "evaluate"),
    ):
        good = (out / name).read_text()
        meta = json.loads(good)
        corrupt(meta)
        (out / name).write_text(json.dumps(meta))
        capsys.readouterr()
        assert main([stage, "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o failure: ")
        assert f"{name}: key 'alpha' is missing or not a finite positive number" in err
        assert err.count("\n") == 1
        (out / name).write_text(good)
    assert not (out / "report.csv").exists()


def test_dilatation_over_the_flow_cap_exits_three(tmp_path, capsys):
    # |mu| = 0.99995 in every block lies above the flow's cap at all 16 x 16
    # flow-lattice points; the run stops there instead of clipping and folding
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    _mini_cfg_file(path, out_dir=str(out), flow_steps=5)
    assert main(["simulate", "--config", str(path)]) == 0
    assert main(["estimate", "--config", str(path)]) == 0
    lines = (out / "estimates.csv").read_text().splitlines()
    for k in range(1, len(lines)):
        cells = lines[k].split(",")
        cells[2:4] = ["0.99995", "0.0"]
        lines[k] = ",".join(cells)
    (out / "estimates.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["reconstruct", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: 256 of 256 flow-lattice points")
    assert err.count("\n") == 1


def test_pipeline_end_to_end(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    out = str(tmp_path / "out")
    _mini_cfg_file(path)
    assert main(["pipeline", "--config", str(path), "--out", out]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("alpha = ")
    assert lines[1].startswith("d1 = ")
    assert lines[2].startswith("d2 = ")
    for name in ("field.grd", "estimates.csv", "fhat.grd", "report.csv"):
        assert os.path.exists(os.path.join(out, name))


def test_seed_override_changes_field(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    _mini_cfg_file(path)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["simulate", "--config", str(path), "--out", out_a]) == 0
    assert main(["simulate", "--config", str(path), "--out", out_b, "--seed", "9"]) == 0
    with open(os.path.join(out_a, "field.grd"), "rb") as fh:
        blob_a = fh.read()
    with open(os.path.join(out_b, "field.grd"), "rb") as fh:
        blob_b = fh.read()
    assert blob_a != blob_b


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "deformfield.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "pipeline" in proc.stdout
