"""Exception hierarchy for zpint.

Every error raised on a contract violation derives from ZpintError, so
callers (and the CLI) can distinguish bad input from genuine bugs.
"""

__all__ = [
    "ZpintError",
    "InputError",
    "InvalidPeriodMatrix",
    "NonConvergent",
    "UnknownPoint",
    "UnsupportedGenus",
    "DegenerateEmbedding",
    "HigherOrderPole",
    "NotSquare",
    "SingularGamma",
    "CountMismatch",
    "SingularSylvester",
    "DegenerateBundle",
    "SurfaceMismatch",
    "ExtractionUnstable",
    "PointOnPoleSet",
    "BasePointCollision",
    "KernelSingular",
    "PoleLocationFailure",
    "NecessityViolated",
    "DegenerateDenominator",
    "NotFullRank",
    "SingularBoundaryValue",
    "XiDenominatorZero",
    "SingularGamma0",
    "ZPViolated",
    "PoleCollision",
    "NoCoincidence",
    "PointOnExcludedSet",
]


class ZpintError(Exception):
    """Base class for all zpint errors."""


class InputError(ZpintError):
    """Malformed problem file or command-line input (CLI exit code 2)."""


# --- theta evaluation ---

class InvalidPeriodMatrix(ZpintError):
    """Period matrix is not symmetric with positive definite imaginary part."""


class NonConvergent(ZpintError):
    """Lattice radius cap reached before the tail bound met the target."""


# --- surface geometry ---

class UnknownPoint(ZpintError):
    """Label not present in a surface data bundle."""


class UnsupportedGenus(ZpintError):
    """Operation not defined for this surface kind."""


class DegenerateEmbedding(ZpintError):
    """Sampled coordinate map collides; choose different pole points."""


class ExtractionUnstable(ZpintError):
    """A contour read of Laurent modes is not consistent with a simple pole."""


class HigherOrderPole(ExtractionUnstable):
    """Laurent fit found a |t|^-2 component above tolerance on either radius."""


# --- genus-0 interpolation ---

class NotSquare(ZpintError):
    """Coupling matrix is not square; zero and pole counts differ."""


class SingularGamma(ZpintError):
    """Coupling matrix numerically singular (condition estimate attached)."""


class CountMismatch(ZpintError):
    """Zero and pole counts differ in a scalar product form."""


class SingularSylvester(ZpintError):
    """Sylvester matrix numerically singular."""


# --- Cauchy kernels ---

class DegenerateBundle(ZpintError):
    """theta[a; b](0) vanishes: the bundle admits a global section."""


class SurfaceMismatch(ZpintError):
    """Operands live on different surfaces."""


class PointOnPoleSet(ZpintError):
    """Evaluation point coincides with an excluded pole point."""


# --- abstract interpolation ---

class BasePointCollision(ZpintError):
    """Base point collides with an interpolation node."""


class KernelSingular(ZpintError):
    """Kernel value is numerically singular at the requested point."""


class PoleLocationFailure(ZpintError):
    """Closed-form pole location of the inverse kernel failed to verify."""


class NecessityViolated(ZpintError):
    """Divisor class does not match the bundle difference (defect attached)."""


class DegenerateDenominator(ZpintError):
    """Scalar pairing in the single-pair identity vanishes."""


class NotFullRank(ZpintError):
    """Data set is not of full-rank standard-basis form."""


# --- determinantal representations ---

class SingularBoundaryValue(ZpintError):
    """A boundary value T(x^i) is numerically singular."""


# --- concrete interpolation ---

class XiDenominatorZero(ZpintError):
    """Chosen direction pairs to zero against a node difference; redraw."""


class SingularGamma0(ZpintError):
    """Concrete coupling matrix numerically singular."""


class ZPViolated(ZpintError):
    """Coincidence pairing is nonzero: inconsistent concrete data."""


class PoleCollision(ZpintError):
    """Interpolation node collides with an embedding pole."""


class NoCoincidence(ZpintError):
    """Requested pair of nodes does not coincide on the surface."""


class PointOnExcludedSet(ZpintError):
    """Evaluation point lies on the excluded node or pole set."""
