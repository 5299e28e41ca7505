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
from .errors import CountMismatch, InputError, NotSquare, SingularMatrix
from .numutil import COND_LIMIT, svd_cond
from .surface import Surface, genus0_surface

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

    @property
    def n_zeros(self) -> int:
        """The number of zero vectors, one per zero for simple data."""
        return len(self.zero_rows.vectors)

    @property
    def n_poles(self) -> int:
        """The number of pole vectors, one per pole for simple data."""
        return len(self.pole_rows.vectors)


def build_gamma_genus0(problem: Genus0Problem) -> np.ndarray:
    """Coupling matrix with entries x_a u_b / (mu^b - lambda^a) over the
    zero and pole vectors."""
    zeros, poles = problem.zero_rows, problem.pole_rows
    lams, mus = zeros.points[zeros.node_of], poles.points[poles.node_of]
    return (zeros.vectors @ poles.vectors.T) / (mus - lams[:, None])


class RationalMatrixFunction:
    """I + sum_j u_j c_j / (z - mu^j): identity at infinity, poles at mu^j."""

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
        Z = np.asarray(Z, dtype=complex).reshape(-1)
        eye = np.eye(self.rank, dtype=complex)
        # the pole terms u_j c_j / (z - mu^j), shape (n, N, r, r), added to I
        # one by one in pole order at every N by the last running sum (a sum
        # over the axis may pair them up when N r r is 1)
        terms = ((self.pole_vectors[:, None, :, None] * self.coefficients[:, None, None, :])
                 / (Z - self.poles[:, None])[:, :, None, None])
        if not len(terms):
            return np.repeat(eye[None], len(Z), axis=0)
        terms[0] += eye
        return terms.cumsum(axis=0)[-1]

    def __call__(self, z) -> np.ndarray:
        return self.many([complex(z)])[0]

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
        If zero and pole counts differ.
    SingularMatrix
        If the coupling matrix has condition number above 1e12.
    """
    if problem.n_zeros != problem.n_poles:
        raise NotSquare(
            f"{problem.n_zeros} zeros vs {problem.n_poles} poles"
        )
    n = problem.n_zeros
    if n == 0:
        return RationalMatrixFunction(
            problem.rank, np.zeros(0), np.zeros((0, problem.rank)),
            np.zeros((0, problem.rank)), 1.0, _inverse_data=problem,
        )
    gamma = build_gamma_genus0(problem)
    cond = svd_cond(gamma)
    if cond > COND_LIMIT:
        raise SingularMatrix(f"coupling matrix condition {cond:.3e}", cond)
    coeffs = np.linalg.solve(gamma, problem.zero_rows.vectors)   # rows c_b
    poles = problem.pole_rows
    return RationalMatrixFunction(
        problem.rank, poles.points[poles.node_of], poles.vectors, coeffs, cond,
        _inverse_data=problem
    )


def scalar_product_form(zeros, poles):
    """Evaluator of prod (z - lambda^i) / prod (z - mu^j), at one point (a
    complex) or elementwise over an array.

    Raises CountMismatch when the divisor is unbalanced.
    """
    lams = [complex(z) for z in zeros]
    mus = [complex(m) for m in poles]
    if len(lams) != len(mus):
        raise CountMismatch(f"{len(lams)} zeros vs {len(mus)} poles")

    def T(z):
        z = np.asarray(z, dtype=complex)
        val = np.ones_like(z)
        for lam, mu in zip(lams, mus):
            val = val * ((z - lam) / (z - mu))
        return complex(val) if val.ndim == 0 else val

    return T


def sylvester_coefficients(zeros, poles) -> np.ndarray:
    """Partial-fraction coefficients c with sum c_j/(z - mu^j) = product form - 1.

    Solves S c = (1, ..., 1) with S_ij = 1/(mu^j - lambda^i).
    """
    lams = [complex(z) for z in zeros]
    mus = [complex(m) for m in poles]
    if len(lams) != len(mus):
        raise CountMismatch(f"{len(lams)} zeros vs {len(mus)} poles")
    n = len(lams)
    if n == 0:
        return np.zeros(0, dtype=complex)
    s_mat = np.array([[1.0 / (mu - lam) for mu in mus] for lam in lams])
    cond = svd_cond(s_mat)
    if cond > COND_LIMIT:
        raise SingularMatrix(f"Sylvester matrix condition {cond:.3e}", cond)
    return np.linalg.solve(s_mat, np.ones(n, dtype=complex))


def det_winding_number(T, radius: float) -> float:
    """Winding number of det T(z) around a circle of the given radius, read
    at 720 equispaced angles."""
    angles = 2 * np.pi * np.arange(721) / 720
    args = np.unwrap(np.angle(np.linalg.det(T.many(radius * np.exp(1j * angles)))))
    return float((args[-1] - args[0]) / (2 * np.pi))
