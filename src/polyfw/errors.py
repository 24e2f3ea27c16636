"""Exception hierarchy shared across the package."""


class PolyFWError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(PolyFWError):
    """Array shapes disagree with the problem dimension."""


class EmptyVertexList(PolyFWError):
    """An operation needs the vertex list but it is empty."""


class Infeasible(PolyFWError):
    """The LP has no feasible point."""


class Unbounded(PolyFWError):
    """The LP is unbounded below (modeling error for a bounded polytope);
    `lp` indexes the first unbounded LP of a stack."""

    def __init__(self, message, lp=0):
        super().__init__(message)
        self.lp = lp


class InfeasiblePoint(PolyFWError):
    """A point violates a constraint beyond tolerance."""


class UnknownVertexId(PolyFWError):
    """A vertex id does not index the enumerated vertex list."""


class InvariantViolation(PolyFWError, ValueError):
    """A runtime invariant failed; unlike assert, the check survives python -O."""


class DegenerateDirection(PolyFWError):
    """The chosen search direction is numerically zero."""


class NoConvergence(PolyFWError):
    """An iterative solve hit its iteration cap before reaching tolerance."""

    def __init__(self, message, achieved_gap=None):
        super().__init__(message)
        self.achieved_gap = achieved_gap


class MissingParam(PolyFWError):
    """A sample-size plan has an unknown mode, or no resolved n."""


class NonpositiveS(PolyFWError):
    """A tail bound was requested at a nonpositive threshold."""


class MalformedTrace(PolyFWError):
    """A run trace or one of its records lacks fields or has unknown ones."""


class DegenerateFit(PolyFWError):
    """Log-log regression has no spread in the abscissa."""


class ConfigError(PolyFWError):
    """Experiment configuration is invalid; carries the offending field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class EpsGOutOfRange(ConfigError):
    """eps_g falls outside the open interval (0, 1/(4D))."""


class UnboundedOrEmpty(ConfigError):
    """The polytope is empty: it has no feasible point, or no basic feasible solution."""


class DegeneratePolytope(ConfigError):
    """D = 0, or every constraint is active at every vertex (phi undefined)."""
