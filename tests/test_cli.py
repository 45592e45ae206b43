"""Command line interface: exit codes, messages, and a small run."""

import json
import os
import struct
import subprocess
import sys

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
    ],
)
def test_out_of_range_setting_exits_two(tmp_path, capsys, field, value):
    path = tmp_path / "run.cfg"
    _mini_cfg_file(path, out_dir=str(tmp_path / "out"), **{field: value})
    assert main(["pipeline", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "out")


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


@pytest.mark.parametrize(
    "name, stages",
    [("field.grd", ["estimate", "evaluate"]), ("fhat.grd", ["evaluate"])],
    ids=["complex-field", "real-map"],
)
def test_wrong_grid_kind_exits_four(tmp_path, capsys, name, stages):
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    _mini_cfg_file(path, out_dir=str(out))
    assert main(["pipeline", "--config", str(path)]) == 0
    grid = read_grd(str(out / name))
    if isinstance(grid, ComplexGrid):
        flipped = Grid(grid.nx, grid.ny, grid.origin, grid.spacing, grid.values.real)
    else:
        flipped = ComplexGrid(grid.nx, grid.ny, grid.origin, grid.spacing, grid.values)
    write_grd(flipped, str(out / name))
    for stage in stages:
        capsys.readouterr()
        assert main([stage, "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o failure: ") and f"{name}: expected" in err
        assert err.count("\n") == 1


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
        (lambda meta: meta.pop("alpha"), "key 'alpha' is missing or not a number"),
        (lambda meta: meta.update(alpha="n/a"), "key 'alpha' is missing or not a number"),
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
