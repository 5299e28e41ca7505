"""Cauchy kernel oracles and their diagonal expansion.

A Cauchy kernel K(chi; p, q) for a flat bundle chi is the unique kernel
holomorphic off the diagonal with a simple pole of residue I_r there.  In
the constant global frame used throughout (sqrt(dz) on the torus, the
plane coordinate at genus 0) its Laurent expansion near a diagonal point
p0 reads

    K(p, q) (t(p) - t(q)) = I + A_l t(p) + A t(q) + second order,

and the linear coefficients satisfy A + A_l = 0; they define the dual flat
connections  grad y = A y + dy  and  grad* x = A_l^T x + dx.

Three constructions are provided: the trivial rank-r kernel I/(p - q) at
genus 0, the flat-line-bundle kernel on the torus (or on a tabulated
surface bundle)

    K(chi; p, q) = theta[a; b](phi(q) - phi(p)) / (theta[a; b](0) E(q, p)),

and block-diagonal direct sums, which satisfy the defining property for
the direct sum of the factors and are the only rank > 1 kernels built
internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateBundle,
    PointOnPoleSet,
    SurfaceMismatch,
    UnsupportedGenus,
)
from .numutil import rel_residual
from .surface import (
    EmbeddingPair,
    FlatLineBundle,
    Surface,
    coord,
    laurent_coeffs,
    point,
    prime_form,
)
from .theta import (
    DEFAULT_CONFIG,
    ThetaCharacteristic,
    ThetaEvalConfig,
    theta_gradient,
    theta_many,
    theta_with_char,
)

__all__ = [
    "CauchyKernelOracle",
    "ConnectionCoefficients",
    "evaluate_many",
    "genus0_kernel",
    "line_kernel",
    "direct_sum_kernel",
    "conjugated_kernel",
    "extract_laurent_coeffs",
    "line_connection_form",
    "collection_residual",
]


@dataclass(frozen=True, eq=False)
class CauchyKernelOracle:
    """Evaluator contract for an r-by-r Cauchy kernel in the global frame.

    Calling the oracle with two point-like arguments returns the (r, r)
    kernel value.  evaluator maps two SurfacePoints to that value; many,
    when given, is the array-native form (two point arrays of length N, as
    made by surface.points -> (N, r, r)), and evaluate_many uses it.
    parts holds the summands of a direct sum; bundle holds the flat line
    bundle of a rank-1 kernel; inner and frame hold the kernel and the
    constant frame of a conjugated kernel.
    """

    rank: int
    surface: Surface
    evaluator: Callable
    bundle: FlatLineBundle | None = None
    parts: tuple = ()
    name: str = ""
    many: Callable | None = None
    inner: CauchyKernelOracle | None = None
    frame: np.ndarray | None = None

    def __call__(self, p, q) -> np.ndarray:
        return self.evaluator(point(p), point(q))

    def dual(self) -> "CauchyKernelOracle":
        """Oracle of the dual bundle; satisfies K(dual; p, q)^T = -K(chi; q, p)."""
        if self.inner is not None:
            return conjugated_kernel(self.inner.dual(), np.linalg.inv(self.frame).T)
        if self.parts:
            return direct_sum_kernel([part.dual() for part in self.parts])
        if self.bundle is not None:
            return line_kernel(self.surface, self.bundle.dual())
        return self  # the trivial kernel is self-dual


def evaluate_many(oracle: CauchyKernelOracle, P, Q) -> np.ndarray:
    """Kernel values K(P[i], Q[i]) at N point pairs, shape (N, r, r).

    Built-in kernels evaluate the whole batch with array operations, and
    their single-pair call is the N = 1 case of the same code.  An oracle
    with only an evaluator is called once per pair.
    """
    P = oracle.surface.points(P)
    Q = oracle.surface.points(Q)
    if len(P) != len(Q):
        raise ValueError("point arrays differ in length")
    if oracle.many is not None:
        return oracle.many(P, Q)
    out = np.empty((len(P), oracle.rank, oracle.rank), dtype=complex)
    for i in range(len(P)):
        out[i] = oracle.evaluator(point(P[i]), point(Q[i]))
    return out


def _array_native(rank: int, surface: Surface, many, **fields) -> CauchyKernelOracle:
    """Oracle whose single-pair evaluator is the N = 1 case of many."""

    def evaluate(p, q):
        return many(surface.points((p,)), surface.points((q,)))[0]

    return CauchyKernelOracle(rank, surface, evaluate, many=many, **fields)


def genus0_kernel(r: int, surface: Surface | None = None) -> CauchyKernelOracle:
    """Trivial rank-r kernel I_r / (p - q) on the sphere."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    from .surface import genus0_surface

    surface = surface or genus0_surface()
    eye = np.eye(r, dtype=complex)

    def many(P, Q):
        return eye / (P - Q)[:, None, None]

    return _array_native(r, surface, many, name=f"trivial({r})")


def line_kernel(surface: Surface, bundle: FlatLineBundle,
                cfg: ThetaEvalConfig | None = None) -> CauchyKernelOracle:
    """Rank-1 kernel of a flat line bundle on the torus or a data bundle.

    Raises
    ------
    UnsupportedGenus
        On the sphere (use genus0_kernel), or for a bundle of another genus.
    DegenerateBundle
        If |theta[a; b](0)| <= 1e-10, i.e. the twisted bundle has a
        global section and no Cauchy kernel exists.
    """
    cfg = cfg or DEFAULT_CONFIG
    chi = bundle.characteristic
    if surface.genus == 0 or chi.genus != surface.genus:
        raise UnsupportedGenus("line kernels need genus >= 1 and a bundle of that genus")
    theta0 = bundle.theta_at_zero(surface.period, cfg)
    if abs(theta0) <= 1e-10:
        raise DegenerateBundle(f"|theta[a;b](0)| = {abs(theta0):.3e}")
    period = surface.period

    def many(P, Q):
        v = surface.abel_jacobi(Q) - surface.abel_jacobi(P)
        num = theta_many(chi, v, period, cfg)
        e_qp = prime_form(surface, Q, P, cfg)
        return (num / (theta0 * e_qp))[:, None, None]

    return _array_native(1, surface, many, bundle=bundle, name="line")


def direct_sum_kernel(oracles) -> CauchyKernelOracle:
    """Block-diagonal kernel of a direct sum of bundles on one surface."""
    oracles = tuple(oracles)
    if not oracles:
        raise ValueError("need at least one summand")
    base = oracles[0].surface
    for oracle in oracles[1:]:
        if not base.same_as(oracle.surface):
            raise SurfaceMismatch("direct sum needs a common surface")
    ranks = [oracle.rank for oracle in oracles]
    total = sum(ranks)
    offsets = np.cumsum([0] + ranks)

    def many(P, Q):
        out = np.zeros((len(P), total, total), dtype=complex)
        for k, oracle in enumerate(oracles):
            sl = slice(offsets[k], offsets[k + 1])
            out[:, sl, sl] = evaluate_many(oracle, P, Q)
        return out

    return _array_native(total, base, many, parts=oracles, name="direct_sum")


def conjugated_kernel(oracle: CauchyKernelOracle, frame: np.ndarray) -> CauchyKernelOracle:
    """Kernel of the same bundle presented in a constant change of frame.

    If K is the kernel of chi then frame K frame^{-1} is the kernel of the
    conjugated factor of automorphy; the defining property is preserved
    because the residue I_r is central.
    """
    frame = np.asarray(frame, dtype=complex)
    inv = np.linalg.inv(frame)

    def many(P, Q):
        return frame @ evaluate_many(oracle, P, Q) @ inv

    return _array_native(oracle.rank, oracle.surface, many,
                         inner=oracle, frame=frame, name="conjugated")


@dataclass(frozen=True, eq=False)
class ConnectionCoefficients:
    """Linear diagonal-expansion coefficients at one point, frame-relative.

    A pairs with t(q), A_l with t(p); the duality of the induced
    connections is the statement A + A_l = 0.
    """

    point: complex
    A: np.ndarray
    A_ell: np.ndarray

    def duality_defect(self) -> float:
        return float(np.linalg.norm(self.A + self.A_ell))


def extract_laurent_coeffs(oracle: CauchyKernelOracle, p0) -> ConnectionCoefficients:
    """Read A and A_l at p0 from the constant Laurent modes of the kernel.

    K(p0 + t, p0) = I/t + A_l + O(t) and K(p0, p0 + t) = -I/t - A + O(t),
    so A_l is the constant mode of K(., p0) and A is minus that of
    K(p0, .), each read by laurent_coeffs over evaluate_many.

    Raises
    ------
    ExtractionUnstable
        When either side shows more than a simple pole (HigherOrderPole).
    """
    z0 = coord(p0)

    def column(t):
        return evaluate_many(oracle, t, np.full(len(t), z0))

    def row(t):
        return evaluate_many(oracle, np.full(len(t), z0), t)

    a_ell = laurent_coeffs(column, z0)[1]
    a = -laurent_coeffs(row, z0)[1]
    return ConnectionCoefficients(z0, a, a_ell)


def line_connection_form(surface: Surface, bundle: FlatLineBundle,
                         cfg: ThetaEvalConfig | None = None) -> complex:
    """Closed-form connection value A/dz = 2*pi*i*a + theta'(z)/theta(z).

    Here z = Omega a + b is the Jacobian point of the bundle; at genus 1
    the normalized differential is dz, so the value is a plain number in
    the global frame.
    """
    cfg = cfg or DEFAULT_CONFIG
    period = surface.period
    g = period.genus
    z = bundle.jacobian_point(period)
    zero_char = ThetaCharacteristic(np.zeros(g), np.zeros(g))
    val = theta_with_char(zero_char, z, period, cfg)
    grad = theta_gradient(zero_char, z, period, cfg)
    if g != 1:
        raise UnsupportedGenus("closed-form connection is genus-1 only")
    return complex(2j * np.pi * bundle.a[0] + grad[0] / val)


def collection_residual(oracle: CauchyKernelOracle, embedding: EmbeddingPair,
                        p, q, xi) -> float:
    """Relative residual of the pole-collection identity.

    For p != q, sum_j (xi1 c_j1 + xi2 c_j2) K(p, x^j) K(x^j, q) must equal
    (xi1 (l1(q) - l1(p)) + xi2 (l2(q) - l2(p))) K(p, q); at p = q the limit
    replaces the coordinate difference with -(xi1 l1' + xi2 l2')(p) I_r.
    """
    xi1, xi2 = complex(xi[0]), complex(xi[1])
    surface = embedding.surface
    pc, qc = coord(p), coord(q)
    if embedding.is_pole(pc) or embedding.is_pole(qc):
        raise PointOnPoleSet("collection identity excludes the embedding poles")
    weights = xi1 * embedding.residues[:, 0] + xi2 * embedding.residues[:, 1]
    lhs = np.zeros((oracle.rank, oracle.rank), dtype=complex)
    for w, x in zip(weights, embedding.pole_points):
        lhs += w * (oracle(pc, coord(x)) @ oracle(coord(x), qc))
    if surface.equal(pc, qc):
        d1, d2 = embedding.lambda_derivs(pc, order=1)
        rhs = -(xi1 * d1 + xi2 * d2) * np.eye(oracle.rank, dtype=complex)
    else:
        l1p, l2p = embedding.lambda_values(pc)
        l1q, l2q = embedding.lambda_values(qc)
        rhs = (xi1 * (l1q - l1p) + xi2 * (l2q - l2p)) * oracle(pc, qc)
    return rel_residual(lhs, rhs)
