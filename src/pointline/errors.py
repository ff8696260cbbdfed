"""Exception types shared across the library."""


class PointlineError(Exception):
    """Base class for all library errors."""


class ProjectionDomainError(PointlineError):
    """Point cannot be projected (behind camera or inside the near-plane guard)."""


class InvalidDepthError(PointlineError):
    """Depth measurement is missing, non-positive, or non-finite."""


class DegenerateGeometryError(PointlineError):
    """Geometric construction is degenerate (coincident endpoints, zero-length segment...)."""


class TriangulationDegeneracyError(DegenerateGeometryError):
    """Line triangulation hit the degenerate configuration.

    ``infinite_solutions`` distinguishes the epipolar-line case (the
    back-projected plane coincides with the epipolar plane, every depth
    fits) from the inconsistent no-solution case.
    """

    def __init__(self, message: str, *, infinite_solutions: bool):
        super().__init__(message)
        self.infinite_solutions = infinite_solutions


class SingularJacobianError(PointlineError):
    """Requested derivative is evaluated at a singular locus of the distance function."""


class SingularSystemError(PointlineError):
    """Damped normal equations could not be factorized."""


class EmptyProblemError(PointlineError):
    """Assembled optimization problem has no free parameter blocks."""


class MapConsistencyError(PointlineError):
    """Sparse-map graph invariant violated or an id does not resolve."""


class ConfigError(PointlineError):
    """Invalid harness configuration."""


class MapperQueueFullError(PointlineError):
    """Volumetric mapper queue is at capacity; integrate a batch before submitting more."""
