"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, NumericalError
(and subclasses) -> 3, OSError and ArtifactError -> 4.
"""


class DeformFieldError(Exception):
    """Base class for package errors."""


class ConfigError(DeformFieldError):
    """Malformed configuration file, unknown key, or bad option value."""


class ArtifactError(DeformFieldError, ValueError):
    """A run artifact on disk is truncated or malformed."""


class NumericalError(DeformFieldError):
    """A numerical procedure failed in a way retrying will not fix."""


class SimulationError(NumericalError):
    """Covariance factorization failed even after the jitter ladder."""


class OrientationError(NumericalError):
    """A map folds over: the Jacobian determinant is not positive."""


class EstimationError(NumericalError):
    """A likelihood optimization could not produce an estimate."""


class FlowError(NumericalError):
    """A flow step produced non-finite positions or derivatives."""
