"""Classical rational matrix zero-pole interpolation on the sphere.

Simple, disjoint data: distinct zeros lambda^i with nonzero row vectors
x_i, distinct poles mu^j with nonzero column vectors u_j, all zeros
distinct from all poles.  Solvability is equivalent to invertibility of
the square coupling matrix Gamma_ij = x_i u_j / (mu^j - lambda^i), and the
unique interpolant with value I at infinity is

    T(z) = I + sum_j u_j c_j / (z - mu^j),    c = Gamma^{-1} [x_1; ...; x_n].

For scalar data the same map has the multiplicative form
prod (z - lambda^i) / prod (z - mu^j), whose partial-fraction coefficients
solve the Sylvester system S c = 1 with S_ij = 1/(mu^j - lambda^i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CountMismatch, InputError, NotSquare, SingularMatrix
from .numutil import COND_LIMIT, svd_cond
from .surface import POINT_TOL, genus0_surface

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
class Genus0Problem:
    """Zero/pole data for the simple disjoint case.

    zeros: sequence of (point, row vector of length r)
    poles: sequence of (point, column vector of length r)
    """

    rank: int
    zeros: tuple
    poles: tuple

    def __post_init__(self):
        if self.rank < 1:
            raise InputError("rank must be at least 1")
        try:
            zeros = tuple(
                (complex(z), np.asarray(x, dtype=complex).reshape(self.rank))
                for z, x in self.zeros
            )
            poles = tuple(
                (complex(m), np.asarray(u, dtype=complex).reshape(self.rank))
                for m, u in self.poles
            )
        except (TypeError, ValueError) as exc:
            raise InputError(f"a node needs a point and a vector of length {self.rank}: "
                             f"{exc}") from exc
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "poles", poles)
        # one distance test over all nodes, read block by block in the order
        # of the checks; points() names a non-finite point before its side
        # is read, and a distance past the largest double is no coincidence
        nodes, n = (*zeros, *poles), len(zeros)
        pts = np.array([z for z, _ in nodes], dtype=complex)
        _SPHERE.points(pts[:n])
        with np.errstate(over="ignore", invalid="ignore"):
            hits = _SPHERE.gap(pts[:, None] - pts) <= POINT_TOL
        np.fill_diagonal(hits, False)
        if np.count_nonzero(hits[:n, :n]):
            raise InputError("zero points must be distinct")
        _SPHERE.points(pts[n:])
        if np.count_nonzero(hits[n:]):   # hits is symmetric: its pole rows hold both blocks left
            raise InputError("pole points must be distinct" if hits[n:, n:].any()
                             else "zeros and poles must be disjoint")
        # the squared norms, summed as np.linalg.norm sums them for an axis
        vectors = np.array([v for _, v in nodes]).reshape(-1, self.rank)
        if not np.add.reduce((vectors.conj() * vectors).real, axis=1).all():
            raise InputError("interpolation vectors must be nonzero")

    @property
    def n_zeros(self) -> int:
        return len(self.zeros)

    @property
    def n_poles(self) -> int:
        return len(self.poles)


def build_gamma_genus0(problem: Genus0Problem) -> np.ndarray:
    """Coupling matrix with entries x_i u_j / (mu^j - lambda^i)."""
    lams, xs = _stack(problem.zeros, problem.rank)
    mus, us = _stack(problem.poles, problem.rank)
    return (xs @ us.T) / (mus - lams[:, None])


def _stack(nodes, rank: int) -> tuple:
    """The points (n,) and the vectors (n, rank) of a side's nodes."""
    points = np.array([z for z, _ in nodes], dtype=complex)
    vectors = np.array([v for _, v in nodes], dtype=complex).reshape(len(nodes), rank)
    return points, vectors


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
            problem = self._inverse_data
            swapped = Genus0Problem(
                rank=problem.rank,
                zeros=tuple((mu, u) for mu, u in problem.poles),
                poles=tuple((lam, x) for lam, x in problem.zeros),
            )
            inv_t = solve_genus0(swapped)
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
    coeffs = np.linalg.solve(gamma, _stack(problem.zeros, problem.rank)[1])   # rows c_j
    poles, pole_vectors = _stack(problem.poles, problem.rank)
    return RationalMatrixFunction(
        problem.rank, poles, pole_vectors, coeffs, cond, _inverse_data=problem
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
