"""Exception types shared across the package."""


class HoferBilliardsError(Exception):
    """Base class for all package-specific errors."""


class DiagonalPoint(HoferBilliardsError):
    """Chord endpoints coincide (q == Q mod 1)."""


class NearGrazing(HoferBilliardsError):
    """Momentum too close to +-1 for a well-conditioned bounce solve."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class SolverDidNotConverge(HoferBilliardsError, ArithmeticError):
    """A bracketed Newton solve ended above its failure tolerance."""


class NotStrictlyConvex(HoferBilliardsError):
    """Table has flat or concave boundary pieces; the ball map is undefined."""


class CurvatureNotPositive(HoferBilliardsError):
    """Radius of curvature dips below the positivity floor."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class PerturbationTooLarge(HoferBilliardsError):
    """Normal perturbation violates the C^2-smallness hypothesis."""


class InvalidWidth(HoferBilliardsError, ValueError):
    """Corner profile width is nonpositive or collides with a neighbor (an input error)."""


class MarkInCorner(HoferBilliardsError, ValueError):
    """Marked point sits inside a corner-rounding neighborhood (an input error)."""


class InconsistentChords(HoferBilliardsError, ValueError):
    """Chord data is malformed or admits no plane point (an input error)."""


class ResolutionTooLarge(HoferBilliardsError, ValueError):
    """Requested grid exceeds the configured cell budget (an input error)."""
