"""Classical rational matrix zero-pole interpolation on the sphere.

Simple, disjoint data: distinct zeros lambda^i with nonzero row vectors
x_i, distinct poles mu^j with nonzero column vectors u_j, all zeros
distinct from all poles.  Solvability is equivalent to invertibility of
the square coupling matrix Gamma_ij = x_i u_j / (mu^j - lambda^i), and the
unique interpolant with value I at infinity is

    T(z) = I + sum_j u_j c_j / (z - mu^j),    c = Gamma^{-1} [x_1; ...; x_n].

The data is laid out and validated as an absint.InterpolationDataSet on
the sphere with no couplings (absint._NodeData): the sums run over the
vector rows, so a node may carry several independent vectors.  Only the
arithmetic of the solve is this module's own, an independent route to
absint's on the sphere.

For scalar data the same map has the multiplicative form
prod (z - lambda^i) / prod (z - mu^j), whose partial-fraction coefficients
solve the Sylvester system S c = 1 with S_ij = 1/(mu^j - lambda^i).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .absint import _NodeData, _swapped
from .errors import InputError, NotSquare, PointOnExcludedSet
from .numutil import checked_cond
from .surface import POINT_TOL, Surface, genus0_surface, point

__all__ = [
    "Genus0Problem",
    "RationalMatrixFunction",
    "build_gamma_genus0",
    "solve_genus0",
    "scalar_product_form",
    "sylvester_coefficients",
]

_SPHERE = genus0_surface()


@dataclass(frozen=True, eq=False)
class Genus0Problem(_NodeData):
    """Zero/pole data for the disjoint case on the sphere.

    zeros: sequence of (point, row vectors of length r) or InterpolationNode
    poles: sequence of (point, column vectors of length r) or InterpolationNode

    They are laid out by _NodeData._lay_out(rank) with no couplings, and so
    refused as a sphere InterpolationDataSet refuses them (InputError); a
    zero on a pole is a coincident pair without a coupling.
    """

    rank: int
    zeros: tuple
    poles: tuple
    surface: Surface = field(default=_SPHERE, init=False, repr=False)
    couplings: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.rank < 1:
            raise InputError("rank must be at least 1")
        self._lay_out(self.rank)


def build_gamma_genus0(problem: Genus0Problem) -> np.ndarray:
    """Coupling matrix with entries x_a u_b / (mu^b - lambda^a) over the
    zero and pole vectors."""
    zeros, poles = problem.zero_rows, problem.pole_rows
    lams, mus = zeros.points[zeros.node_of], poles.points[poles.node_of]
    return (zeros.vectors @ poles.vectors.T) / (mus - lams[:, None])


class RationalMatrixFunction:
    """I + sum_j u_j c_j / (z - mu^j): identity at infinity, poles at mu^j.

    T(z) and many(Z) check points as the sphere's BundleMapEvaluator does.

    Raises
    ------
    InputError
        For a point that is not a finite number (NaN, infinity, text, None).
    PointOnExcludedSet
        For a point within POINT_TOL of a pole mu^j.
    """

    def __init__(self, rank, poles, pole_vectors, coefficients, gamma_cond,
                 _inverse_data=None):
        self.rank = rank
        self.poles = np.asarray(poles, dtype=complex)
        self.pole_vectors = np.asarray(pole_vectors, dtype=complex)  # (n, r)
        self.coefficients = np.asarray(coefficients, dtype=complex)  # (n, r)
        self.gamma_cond = float(gamma_cond)
        self._inverse_data = _inverse_data
        self._inverse = None

    def many(self, Z) -> np.ndarray:
        """Values at the points Z, shape (N, r, r); a call T(z) is the N = 1 case."""
        return self._at(np.asarray(_SPHERE.points(Z)).reshape(-1))

    def __call__(self, z) -> np.ndarray:
        return self._at(np.array([point(z)]))[0]

    def _at(self, Z) -> np.ndarray:
        """many at the checked point array Z."""
        d = Z - self.poles[:, None]
        if not _SPHERE.apart(d):
            where = point(Z[(_SPHERE.gap(d) <= POINT_TOL).any(axis=0).argmax()])
            raise PointOnExcludedSet(f"the interpolant has a pole at z = {where!r}")
        eye = np.eye(self.rank, dtype=complex)
        # the pole terms u_j c_j / (z - mu^j), shape (n, N, r, r), added to I
        # one by one in pole order at every N by the last running sum (a sum
        # over the axis may pair them up when N r r is 1)
        terms = ((self.pole_vectors[:, None, :, None] * self.coefficients[:, None, None, :])
                 / d[:, :, None, None])
        if not len(terms):
            return np.repeat(eye[None], len(Z), axis=0)
        terms[0] += eye
        return terms.cumsum(axis=0)[-1]

    def inverse(self) -> "RationalMatrixFunction":
        """Analytic inverse, built by solving the swapped-transpose problem.

        T^{-1} has poles at the zeros of T with the roles of the vector
        data exchanged; solving that problem and transposing gives an
        independent realization of T^{-1} (rather than a pointwise matrix
        inverse).
        """
        if self._inverse is None:
            if self._inverse_data is None:
                raise InputError("no problem data attached; cannot invert")
            inv_t = solve_genus0(_swapped(self._inverse_data))
            inv = RationalMatrixFunction(
                inv_t.rank,
                inv_t.poles,
                inv_t.coefficients,   # transpose swaps the factor roles
                inv_t.pole_vectors,
                inv_t.gamma_cond,
            )
            self._inverse = inv
        return self._inverse


def solve_genus0(problem: Genus0Problem) -> RationalMatrixFunction:
    """Unique interpolant with value I at infinity.

    Raises
    ------
    NotSquare
        If zero and pole vector counts differ ("coupling matrix is AxB").
    SingularMatrix
        If the coupling matrix has condition number above COND_LIMIT
        ("coupling matrix condition <c>").
    """
    gamma = build_gamma_genus0(problem)
    cond = checked_cond(gamma, "coupling matrix")
    coeffs = np.linalg.solve(gamma, problem.zero_rows.vectors)   # rows c_b
    poles = problem.pole_rows
    return RationalMatrixFunction(
        problem.rank, poles.points[poles.node_of], poles.vectors, coeffs, cond,
        _inverse_data=problem
    )


def scalar_product_form(zeros, poles):
    """Evaluator of prod (z - lambda^i) / prod (z - mu^j), at one point (a
    complex) or elementwise over an array.

    Raises NotSquare ("n zeros vs m poles") when the divisor is unbalanced.
    """
    lams = [complex(z) for z in zeros]
    mus = [complex(m) for m in poles]
    if len(lams) != len(mus):
        raise NotSquare(f"{len(lams)} zeros vs {len(mus)} poles")

    def T(z):
        z = np.asarray(z, dtype=complex)
        val = np.ones_like(z)
        for lam, mu in zip(lams, mus):
            val = val * ((z - lam) / (z - mu))
        return complex(val) if val.ndim == 0 else val

    return T


def sylvester_coefficients(zeros, poles) -> np.ndarray:
    """Partial-fraction coefficients c with sum c_j/(z - mu^j) = product form - 1.

    Solves S c = (1, ..., 1) with S_ij = 1/(mu^j - lambda^i), checked by
    checked_cond as "Sylvester matrix" (NotSquare for unequal counts).
    """
    lams = [complex(z) for z in zeros]
    mus = [complex(m) for m in poles]
    s_mat = np.array([[1.0 / (mu - lam) for mu in mus] for lam in lams],
                     dtype=complex).reshape(len(lams), len(mus))
    checked_cond(s_mat, "Sylvester matrix")
    return np.linalg.solve(s_mat, np.ones(len(lams), dtype=complex))


def det_winding_number(T, radius: float) -> float:
    """Winding number of det T(z) around a circle of the given radius, read
    at 720 equispaced angles."""
    angles = 2 * np.pi * np.arange(721) / 720
    args = np.unwrap(np.angle(np.linalg.det(T.many(radius * np.exp(1j * angles)))))
    return float((args[-1] - args[0]) / (2 * np.pi))
