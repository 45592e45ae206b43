"""The benchmark's workloads: fixed pipeline configurations.

Every workload uses block = 10, the paper's and the default block size,
and threads = 1, so a run loads one core of the machine.  Each value is a
dict of ``PipelineConfig`` keyword arguments; anything not named keeps its
default.  This module imports nothing from the package, so it can be read
before the package is importable.
"""

from __future__ import annotations

import math

WORKLOADS = {
    # The criterion-09 desk config, the paper's reference run.  simulate is
    # almost all Bessel-K kernel assembly in covariance_eval (4 tiles of
    # 2500 sites); estimate runs 500 Nelder-Mead searches on 94x94 kernels.
    "paper": {
        "family": "polynomial-plus-fractional",
        "variance": 0.5151,
        "alpha": 0.7,
        "c": 1.0,
        "deform": "rotational",
        "deform_r0": 1.2,
        "deform_angle": math.pi / 2,
        "noise_fraction": 0.0,
        "seed": 1,
    },
    # PipelineConfig() exactly as `deformfield init` writes it: the same
    # likelihood load as paper, but a cheap exp kernel, so simulate is mostly
    # the Cholesky factors of 4 translated tiles and bypasses the Bessel work.
    "default": {},
    # A small lattice with a fine flow: reconstruct dominates (9216
    # interpolate_dilatation calls, 40 flow steps on a 193^2 box), estimate
    # is light (36 blocks) and simulate is one 3600-site tile.
    "flow-fine": {
        "grid_nx": 60,
        "grid_ny": 60,
        "flow_lattice": 96,
        "flow_steps": 40,
        "seed": 1,
    },
}

WHY = {
    "paper": "criterion-09 config: Bessel-K kernel assembly in simulate, 500 likelihood searches in estimate",
    "default": "PipelineConfig(): same estimate load as paper, cheap exp kernel, simulate is 4 Cholesky factors",
    "flow-fine": "60x60 with a 96^2 flow lattice and 40 steps: reconstruct dominates, estimate is light",
}

# The pipeline is pinned to one worker; BLAS and OpenMP pools are pinned
# to one thread in every child process the benchmark starts.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def config_kwargs(name: str) -> dict:
    """Keyword arguments for PipelineConfig; threads is always 1."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    return {**WORKLOADS[name], "threads": 1}
