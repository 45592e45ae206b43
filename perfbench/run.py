"""Stage-level benchmark of the deformfield recovery chain.

    python3 perfbench/run.py --workload {paper,default,flow-fine,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Every pipeline job runs in a fresh child interpreter, one after
the other (a closed loop with one client), with BLAS and OpenMP on one
thread.  With
``--trace 0`` jobs repeat until the next one would end past ``--seconds``,
and the end-to-end metrics are their medians.  With ``--trace 1`` one
untraced and one traced job run on the same config; the per-layer metrics
come from the traced one, whose artifacts must be byte-identical to the
untraced one's.

Each workload is one fixed realization: its config pins the simulation
seed, so alpha_err, d1 and d2 repeat exactly and a change that moves the
science shows in the no-regression gate.  ``--seed`` is recorded and names
the run's working directory; it does not change the inputs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A per-job log with the
environment block is written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")  # metric names, units and bounds

sys.path.insert(0, HERE)
from workloads import THREAD_ENV, WHY, WORKLOADS  # noqa: E402

SETUP_PROBES = 3
RUN_DEADLINE_S = 170.0  # every run must end within 180 s

# fresh interpreter -> package imported and the workload config validated
PROBE = (
    "import sys, workloads, deformfield; "
    "deformfield.PipelineConfig(**workloads.config_kwargs(sys.argv[1])).validate(); "
    "print('ready', flush=True)"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def measure_setup(workload: str, env: dict) -> list[float]:
    """Seconds from spawning an interpreter to a validated config, per probe.

    One untimed probe first fills the bytecode and file caches, which a
    user of an installed package does not pay on every stage.
    """
    times = []
    for k in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE, workload],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        with proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        if k:
            times.append(elapsed)
    return times


def run_job(workload: str, base: str, tag: str, trace: bool, env: dict, timeout: float) -> dict:
    run_dir = os.path.join(base, tag)
    result_path = os.path.join(base, tag + ".json")
    cmd = [sys.executable, os.path.join(HERE, "job.py"), workload, run_dir, result_path]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env)
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        pass
    finally:  # also on SIGTERM: no job outlives the harness
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    else:
        reason = "timed out" if proc.returncode < 0 else f"exited with {proc.returncode}"
        record = {
            "ok": False,
            "trace": trace,
            "error": {"stage": None, "type": "JobError", "message": f"job {reason}"},
        }
    record["wall_s"] = wall
    record["run_dir"] = run_dir
    return record


def same_tree(dir_a: str, dir_b: str) -> list[str]:
    """Names that differ between two run directories, byte for byte."""
    names_a, names_b = sorted(os.listdir(dir_a)), sorted(os.listdir(dir_b))
    if names_a != names_b:
        return sorted(set(names_a) ^ set(names_b))
    _, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names_a, shallow=False)
    return mismatch + errors


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples above it, else the max."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return "max", ordered[-1]
    return f"p{100 * (n - 10) // n}", ordered[n - 11]


def environment(records: list[dict]) -> dict:
    versions = next((r["versions"] for r in records if "versions" in r), {})
    hashes = {r["workload"]: r["config_hash"] for r in records if "config_hash" in r}
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": dict(THREAD_ENV),
        "threads": 1,
        **versions,
        "cpu": cpu_model(),
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "config_hash": hashes,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unavailable: not a git checkout"
    return lines[1]


def src_digest() -> str:
    """sha256 over the package sources, which identifies the code measured."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "deformfield")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    env = child_env()
    base = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    setup = measure_setup(workload, env)

    def remaining() -> float:
        return RUN_DEADLINE_S - (time.monotonic() - started)

    jobs = []
    if trace:
        jobs.append(run_job(workload, base, "plain", False, env, remaining()))
        jobs.append(run_job(workload, base, "traced", True, env, remaining()))
    else:
        loop_start = time.monotonic()
        while True:
            jobs.append(run_job(workload, base, f"job{len(jobs)}", False, env, remaining()))
            elapsed = time.monotonic() - loop_start
            if elapsed + jobs[-1]["wall_s"] > seconds or remaining() < 2 * jobs[-1]["wall_s"]:
                break
    # tracing and repetition must not change a byte of the artifacts
    first = next((j for j in jobs if j["ok"]), None)
    for job in jobs:
        if job["ok"] and job is not first:
            diff = same_tree(first["run_dir"], job["run_dir"])
            if diff:
                job["ok"] = False
                job["error"] = {
                    "stage": "check",
                    "type": "ArtifactMismatch",
                    "message": f"differs from {os.path.basename(first['run_dir'])}: {diff}",
                }
    summary = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_s": setup,
        "jobs": jobs,
        "env": environment(jobs),
    }
    for job in jobs:
        shutil.rmtree(job["run_dir"], ignore_errors=True)
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    shutil.rmtree(base, ignore_errors=True)
    return summary


def end_to_end_samples(summary: dict) -> dict[str, list[float]]:
    ok = [j for j in summary["jobs"] if j["ok"] and not j["trace"]]
    samples = {"setup_s": summary["setup_s"]}
    for name in ("pipeline_s", "peak_rss_mb", "alpha_err", "d1", "d2"):
        samples[name] = [j[name] for j in ok]
    for stage in ("simulate", "estimate", "reconstruct"):
        samples[f"{stage}_s"] = [j["stages"][stage] for j in ok]
    return samples


def report(summary: dict, spec: dict) -> dict:
    """Print the human-readable table and return the contract's result object."""
    jobs = summary["jobs"]
    failed = [j for j in jobs if not j["ok"]]
    w = summary["workload"]
    print(f"# workload {w}: {WHY[w]}")
    print(
        f"# seed {summary['seed']}, trace {int(summary['trace'])}, "
        f"{len(jobs)} jobs, run_fail_rate {len(failed)}/{len(jobs)} = {len(failed) / len(jobs):.3f}"
    )
    for j in failed:
        e = j["error"]
        print(f"# FAILED job ({e['stage']}): {e['type']}: {e['message']}")
    metrics = {}
    if not summary["trace"]:
        samples = end_to_end_samples(summary)
        print(f"{'metric':<16}{'unit':<6}{'median':>14}{'high':>20}{'n':>4}")
        for m in spec["end_to_end"]:
            name, unit, values = m["name"], m["unit"], samples[m["name"]]
            if not values:
                print(f"{name:<16}{unit:<6}  absent: no job succeeded")
                continue
            med = statistics.median(values)
            label, high = high_percentile(values)
            print(f"{name:<16}{unit:<6}{med:>14.6g}{label + ' ' + format(high, '.6g'):>20}{len(values):>4}")
            metrics[name] = {"value": med, "unit": unit}
    else:
        plain, traced = jobs
        layers = dict(traced.get("layers") or {})
        if plain["ok"] and traced["ok"]:
            layers["trace_overhead_s"] = traced["pipeline_s"] - plain["pipeline_s"]
            print(f"# {traced['spans']} spans, {traced['patches']} patched names, all restored")
        for m in spec["per_layer"]:
            name, unit = m["name"], m["unit"]
            if name not in layers or failed:
                print(f"{name:<40}{unit:<7}  absent: the traced or the untraced job failed")
                continue
            print(f"{name:<40}{unit:<7}{layers[name]:>16.6g}")
            metrics[name] = {"value": layers[name], "unit": unit}
    print("env " + json.dumps(summary["env"], sort_keys=True))
    return {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "deformfield", "__init__.py")):
        print(f"error: no deformfield sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(SPEC, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results.append(report(summary, spec))
        print(json.dumps(results[-1], sort_keys=True), flush=True)
    return 0 if all(r["metrics"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
