"""One closed-loop pipeline job, run in a fresh interpreter by run.py.

    python3 perfbench/job.py WORKLOAD RUN_DIR RESULT_JSON [--trace]

Runs stage_simulate, stage_estimate, stage_reconstruct and stage_evaluate
through the public API into RUN_DIR, checks the artifacts, and writes a
JSON record to RESULT_JSON.  A stage that raises or an artifact that fails
the check is recorded with its exception type and message; the exit code
is 0 whenever the record was written.  With --trace the layer modules are
wrapped for the four stages only, and unwrapped before the check.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time

import numpy as np
import scipy

from tracer import Tracer, layer_metrics
from workloads import config_kwargs

STAGES = ("simulate", "estimate", "reconstruct", "evaluate")
D2_BAR = 0.15  # criterion 09's bar on the clean desk run


def _read_report(path: str) -> dict[str, float]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "metric,value,config_hash":
        raise ValueError(f"{path}: unexpected header {lines[:1]!r}")
    values = {}
    for line in lines[1:]:
        name, value, _ = line.split(",")
        values[name] = float(value)
    return values


def check_outputs(df, run_dir: str) -> tuple[dict[str, float], list[str]]:
    """The science numbers of a finished run and every problem found in it."""
    problems = []
    report = _read_report(os.path.join(run_dir, "report.csv"))
    for name in ("alpha", "d1", "d2"):
        if not math.isfinite(report.get(name, math.nan)):
            problems.append(f"report.csv: {name} is {report.get(name)!r}")
    if not report.get("d2", math.inf) < D2_BAR:
        problems.append(f"report.csv: d2 = {report.get('d2')!r} is not below {D2_BAR}")
    fhat = df.read_grd(os.path.join(run_dir, "fhat.grd"))
    try:
        df.numeric_dilatation(fhat, interior_only=True)
    except df.OrientationError as exc:
        problems.append(f"fhat.grd: OrientationError: {exc}")
    est = df.DilatationScaleField.from_csv(
        os.path.join(run_dir, "estimates.csv"), alpha_used=report.get("alpha", math.nan)
    )
    ok = est.status == "ok"
    for name in ("centers", "mu", "phi", "loglik"):
        bad = int((~np.isfinite(getattr(est, name)[ok])).sum())
        if bad:
            problems.append(f"estimates.csv: {bad} ok rows with non-finite {name}")
    return report, problems


def _versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def run_job(workload: str, run_dir: str, trace: bool) -> dict:
    import deformfield as df

    cfg = df.PipelineConfig(**config_kwargs(workload))
    cfg.validate()
    record = {
        "workload": workload,
        "trace": trace,
        "config_hash": cfg.config_hash(),
        "versions": _versions(),
        "ok": False,
        "error": None,
        "stages": {},
    }
    tracer = Tracer() if trace else None
    patches = tracer.install() if tracer else []
    stage = None
    try:
        start = time.perf_counter()
        for stage in STAGES:
            t0 = time.perf_counter()
            # looked up at call time, so the traced run goes through the wrappers
            getattr(df, f"stage_{stage}")(cfg, run_dir)
            record["stages"][stage] = time.perf_counter() - t0
        record["pipeline_s"] = time.perf_counter() - start
        stage = None
    except Exception as exc:  # a failed job is data: record it and let the next one run
        record["error"] = {"stage": stage, "type": type(exc).__name__, "message": str(exc)}
    finally:
        if tracer:
            tracer.uninstall()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in patches if getattr(o, a) is not orig]
        record["patches"] = len(patches)
        record["wrappers_left"] = left
        record["spans"] = len(tracer.spans)
        record["layers"] = layer_metrics(tracer.spans, tracer.counts)
        if left and record["error"] is None:
            record["error"] = {"stage": None, "type": "TraceError", "message": f"wrappers left: {left}"}
    if record["error"] is None:
        try:
            report, problems = check_outputs(df, run_dir)
        except Exception as exc:  # an unreadable artifact fails the check
            report, problems = {}, [f"{type(exc).__name__}: {exc}"]
        if problems:
            record["error"] = {"stage": "check", "type": "OutputCheck", "message": "; ".join(problems)}
        else:
            record.update(
                alpha=report["alpha"],
                alpha_err=abs(report["alpha"] - cfg.alpha),
                d1=report["d1"],
                d2=report["d2"],
            )
    record["ok"] = record["error"] is None
    return record


def main(argv: list[str]) -> int:
    if len(argv) not in (4, 5) or (len(argv) == 5 and argv[4] != "--trace"):
        print(__doc__, file=sys.stderr)
        return 2
    workload, run_dir, result_path = argv[1:4]
    record = run_job(workload, run_dir, trace=len(argv) == 5)
    tmp = result_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
