"""Exception hierarchy for zpint.

Every error raised on a contract violation derives from ZpintError, so
callers (and the CLI) can distinguish bad input from genuine bugs.  The
split follows what a caller does differently: InputError for an argument
of the wrong shape, value or kind; SingularMatrix for a matrix too
ill-conditioned to solve; PointOnExcludedSet for a point where the
object asked for is not defined; and one class per failed identity or
construction.
"""

__all__ = [
    "ZpintError",
    "InputError",
    "InvalidPeriodMatrix",
    "NonConvergent",
    "UnsupportedGenus",
    "DegenerateEmbedding",
    "ExtractionUnstable",
    "HigherOrderPole",
    "NotSquare",
    "SingularMatrix",
    "DegenerateBundle",
    "SurfaceMismatch",
    "PointOnExcludedSet",
    "PoleLocationFailure",
    "NecessityViolated",
    "DegenerateDenominator",
    "XiDenominatorZero",
    "ZPViolated",
    "NoCoincidence",
]


class ZpintError(Exception):
    """Base class for all zpint errors."""


class InputError(ZpintError):
    """Malformed problem file, command-line input or argument (CLI exit code 2)."""


class SingularMatrix(ZpintError):
    """A matrix to be solved or inverted is numerically singular: the
    coupling matrix Gamma or Gamma0, a Sylvester matrix, a base or boundary
    value, or a kernel value at a point.

    For a matrix, numutil.checked_cond raises it with the message
    "<matrix> condition <c>" and condition = c, its svd_cond above
    COND_LIMIT; for a kernel value at a point, condition is None.
    """

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class PointOnExcludedSet(ZpintError):
    """A point lies on the excluded node or pole set of the object
    evaluated: a pole of an interpolant, an embedding pole, or a base point
    on a node."""


# --- theta evaluation ---

class InvalidPeriodMatrix(ZpintError):
    """Period matrix is not symmetric with positive definite imaginary part."""


class NonConvergent(ZpintError):
    """Lattice radius cap reached before the tail bound met the target."""


# --- surface geometry ---

class UnsupportedGenus(ZpintError):
    """Operation not defined for this surface kind."""


class DegenerateEmbedding(ZpintError):
    """Sampled coordinate map collides; choose different pole points."""


class ExtractionUnstable(ZpintError):
    """A contour read of Laurent modes is not consistent with a simple pole."""


class HigherOrderPole(ExtractionUnstable):
    """Laurent fit found a |t|^-2 component above tolerance on either radius."""


# --- interpolation ---

class NotSquare(ZpintError):
    """Zero and pole counts differ, on every route: "<matrix> is AxB" from
    numutil.checked_cond where a coupling or Sylvester matrix is formed,
    "n zeros vs m poles" where none is (the multiplicative forms)."""


class DegenerateBundle(ZpintError):
    """theta[a; b](0) vanishes: the bundle admits a global section."""


class SurfaceMismatch(ZpintError):
    """Operands live on different surfaces."""


class PoleLocationFailure(ZpintError):
    """Closed-form pole location of the inverse kernel failed to verify."""


class NecessityViolated(ZpintError):
    """Divisor class does not match the bundle difference (defect attached)."""


class DegenerateDenominator(ZpintError):
    """Scalar pairing in the single-pair identity vanishes."""


# --- concrete interpolation ---

class XiDenominatorZero(ZpintError):
    """Chosen direction pairs to zero against a node difference; redraw."""


class ZPViolated(ZpintError):
    """Coincidence pairing is nonzero: inconsistent concrete data."""


class NoCoincidence(ZpintError):
    """Requested pair of nodes does not coincide on the surface."""
