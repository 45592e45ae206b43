"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

The span arithmetic is checked on synthetic span trees; the tracer is
checked on a small traced pipeline run, after which every patched module
attribute must be the original object again.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import high_percentile, same_tree  # noqa: E402
from tracer import Span, Tracer, busy_time, layer_metrics, self_times  # noqa: E402


def _tree():
    # A [0, 10] holds B [1, 4] and C [3, 6], which overlap, and E [8, 9];
    # B holds D [2, 3]; F [9.5, 12] runs past the end of A.
    return [
        Span("A", 0.0, 10.0, -1),
        Span("B", 1.0, 4.0, 0),
        Span("D", 2.0, 3.0, 1),
        Span("C", 3.0, 6.0, 0),
        Span("E", 8.0, 9.0, 0),
        Span("F", 9.5, 12.0, 0),
    ]


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    assert self_times(_tree()) == pytest.approx([10 - (5 + 1 + 0.5), 2, 1, 3, 1, 2.5])


def test_busy_time_counts_nested_spans_of_one_name_once():
    spans = [Span("X", 0.0, 5.0, -1), Span("X", 1.0, 2.0, 0), Span("X", 6.0, 7.0, -1)]
    assert busy_time(spans, lambda n: n == "X") == pytest.approx(6.0)


def test_layer_metrics_on_a_synthetic_run():
    spans = [
        Span("pipeline.stage_simulate", 0.0, 10.0, -1),
        Span("fields.simulate_isotropic", 1.0, 9.0, 0),
        Span("fields.covariance_eval", 2.0, 5.0, 1),
        Span("pipeline.stage_estimate", 10.0, 20.0, -1),
        Span("likelihood.estimate_alpha", 10.5, 11.0, 3),
        Span("fields.g_alpha", 10.6, 10.7, 4),
        Span("likelihood.estimate_field", 11.0, 19.0, 3),
        Span("likelihood.minimize", 11.0, 15.0, 6),
        Span("fields.g_alpha", 11.5, 12.0, 7),
        Span("fields.g_alpha", 12.5, 13.0, 7),
        Span("likelihood.minimize", 15.0, 19.0, 6),
        Span("svgplots.ellipse_field_svg", 19.0, 19.25, 3),
        Span("pipeline.stage_evaluate", 20.0, 20.5, -1),
    ]
    m = layer_metrics(spans, Counter({"likelihood.blocks_ok": 1}))
    assert m["pipeline.simulate.self_s"] == pytest.approx(2.0)
    assert m["pipeline.estimate.self_s"] == pytest.approx(10 - 0.5 - 8 - 0.25)
    assert m["pipeline.evaluate.s"] == pytest.approx(0.5)
    assert m["fields.covariance_eval.s"] == pytest.approx(3.0)
    assert m["likelihood.alpha_evals"] == 1
    assert m["likelihood.nll_evals"] == 2
    assert m["likelihood.searches"] == 2
    assert m["likelihood.fit_yield"] == pytest.approx(0.5)
    assert m["svgplots.s"] == pytest.approx(0.25)


def test_high_percentile_needs_ten_samples_above_it():
    assert high_percentile([3.0, 1.0, 2.0]) == ("max", 3.0)
    values = [float(v) for v in range(1, 21)]
    assert high_percentile(values) == ("p50", 10.0)


def test_same_tree_reports_changed_and_missing_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "same.txt").write_bytes(b"x")
    (a / "diff.bin").write_bytes(b"1")
    (b / "diff.bin").write_bytes(b"2")
    assert same_tree(str(a), str(b)) == ["diff.bin"]
    (a / "extra").write_bytes(b"")
    assert same_tree(str(a), str(b)) == ["extra"]


def _package_attributes():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "deformfield" or name.startswith("deformfield.")
        for attr, value in vars(mod).items()
    }


def test_traced_run_records_every_layer_and_restores_every_attribute(tmp_path):
    df = pytest.importorskip("deformfield")
    from scipy import optimize

    before = _package_attributes()
    minimize = optimize.minimize
    cfg = df.PipelineConfig(
        grid_nx=40, grid_ny=40, flow_lattice=16, flow_steps=8, d1_samples=2000, harmonic_n=4
    )
    tracer = Tracer()
    patches = tracer.install()
    # the name the pipeline looks up is wrapped, not only the defining module's
    assert df.pipeline.estimate_field is df.likelihood.estimate_field
    assert df.pipeline.estimate_field.__wrapped__ is before[("deformfield.likelihood", "estimate_field")]
    try:
        df.run_pipeline(cfg, str(tmp_path / "run"))
    finally:
        tracer.uninstall()
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert optimize.minimize is minimize
    assert all(getattr(owner, attr) is original for owner, attr, original in patches)

    layers = {s.name.split(".")[0] for s in tracer.spans}
    assert layers == {
        "pipeline", "fields", "increments", "likelihood", "diskgeom",
        "flow", "conformal", "grids", "svgplots",
    }
    m = layer_metrics(tracer.spans, tracer.counts)
    assert m["likelihood.searches"] == 5 * 16
    assert m["flow.flow_step.calls"] == 8
    assert m["diskgeom.interpolate_dilatation.calls"] == 16 * 16
    assert m["fields.cholesky_with_jitter.calls"] == 1
    assert m["fields.covariance_eval.entries"] == 1600**2
    assert m["grids.bytes_written"] > 0
