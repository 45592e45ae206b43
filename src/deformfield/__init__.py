"""Deformed isotropic random fields: simulation and deformation recovery.

The observation model is Y = Z(finv(.)) for an isotropic Gaussian field
Z with fractional local behavior and an orientation-preserving planar
map finv.  From one dense realization the package estimates the fractal
index, the local dilatation and scale of the map, and rebuilds the map
itself up to a rigid motion.

Importing the package pins the BLAS and OpenMP pools to one thread unless
the environment already sets them: the block fits and the Schur draws make
many small LAPACK calls, which run several times slower on more threads.
numpy reads the variables once, when it loads its BLAS, so a caller who
imported numpy first keeps the pools numpy started with.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .config import PipelineConfig, parse_config, read_config, write_config
from .conformal import (
    HarmonicFit,
    compose_estimate,
    distance_d1,
    distance_d2,
    fit_log_scale,
    integrate_hprime,
)
from .diskgeom import (
    EllipseParams,
    frechet_mean,
    hyperbolic_distance,
    interpolate_dilatation,
    mobius_diff,
    mu_to_ellipse,
    smooth_dilatation,
)
from .errors import (
    ArtifactError,
    ConfigError,
    DeformFieldError,
    EstimationError,
    FlowError,
    NumericalError,
    OrientationError,
    SimulationError,
)
from .fields import (
    CovarianceModel,
    DeformationSpec,
    SampleField,
    add_noise,
    apply_deformation,
    covariance_eval,
    empirical_variogram,
    g_alpha,
    numeric_dilatation,
    simulate_isotropic,
    simulation_blocks,
    variogram_slope,
)
from .flow import FlowState, flow_step, poisson_solve_dirichlet, reconstruct_map, sigma_field
from .grids import ComplexGrid, Grid, grid_sample, read_grd, write_grd
from .increments import ContrastMatrix, increment_matrix, monomial_basis
from .likelihood import (
    DilatationScaleField,
    NeighborhoodPartition,
    block_contrasts,
    estimate_alpha,
    estimate_field,
    partition_grid,
)
from .pipeline import (
    run_pipeline,
    stage_estimate,
    stage_evaluate,
    stage_reconstruct,
    stage_simulate,
)

__version__ = "0.1.0"

__all__ = [
    "ArtifactError",
    "ComplexGrid",
    "ConfigError",
    "ContrastMatrix",
    "CovarianceModel",
    "DeformFieldError",
    "DeformationSpec",
    "DilatationScaleField",
    "EllipseParams",
    "EstimationError",
    "FlowError",
    "FlowState",
    "Grid",
    "HarmonicFit",
    "NeighborhoodPartition",
    "NumericalError",
    "OrientationError",
    "PipelineConfig",
    "SampleField",
    "SimulationError",
    "add_noise",
    "apply_deformation",
    "block_contrasts",
    "compose_estimate",
    "covariance_eval",
    "distance_d1",
    "distance_d2",
    "empirical_variogram",
    "estimate_alpha",
    "estimate_field",
    "fit_log_scale",
    "flow_step",
    "frechet_mean",
    "g_alpha",
    "grid_sample",
    "hyperbolic_distance",
    "increment_matrix",
    "integrate_hprime",
    "interpolate_dilatation",
    "mobius_diff",
    "monomial_basis",
    "mu_to_ellipse",
    "numeric_dilatation",
    "parse_config",
    "partition_grid",
    "poisson_solve_dirichlet",
    "read_config",
    "read_grd",
    "reconstruct_map",
    "run_pipeline",
    "sigma_field",
    "simulate_isotropic",
    "simulation_blocks",
    "smooth_dilatation",
    "stage_estimate",
    "stage_evaluate",
    "stage_reconstruct",
    "stage_simulate",
    "variogram_slope",
    "write_config",
    "write_grd",
]
