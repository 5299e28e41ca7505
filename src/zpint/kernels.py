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

An oracle has one evaluation path, many: called on two point sequences
(or through evaluate_many) it gives the values at all their pairs with
array operations, and a single pair is the N = 1 case of the same call.
The line kernels of one surface share the argument phi(q) - phi(p) and
the prime form, so a line kernel and the line blocks of a direct sum are
evaluated together in one theta pass (_line_values).
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
    ODD_CHAR,
    EmbeddingPair,
    FlatLineBundle,
    Surface,
    Torus,
    coord,
    _is_many,
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

    many maps two point arrays of one length N, as made by surface.points,
    to the (N, r, r) values.  Calling the oracle with two point sequences
    of length N gives many on them; with two point-like arguments it gives
    the (r, r) value of the N = 1 case.
    parts holds the summands of a direct sum; bundle holds the flat line
    bundle of a line kernel, and a direct sum evaluates such a part from
    its bundle alone; inner and frame hold the kernel and the constant
    frame of a conjugated kernel.
    """

    rank: int
    surface: Surface
    many: Callable
    bundle: FlatLineBundle | None = None
    parts: tuple = ()
    name: str = ""
    inner: CauchyKernelOracle | None = None
    frame: np.ndarray | None = None

    def __call__(self, p, q) -> np.ndarray:
        single = not (_is_many(p) or _is_many(q))
        if single:   # point() rejects a non-finite coordinate
            p, q = (point(p),), (point(q),)
        P, Q = self.surface.points(p), self.surface.points(q)
        if len(P) != len(Q):
            raise ValueError("point arrays differ in length")
        values = self.many(P, Q)
        return values[0] if single else values

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

    This is the oracle called on the two sequences; a single-pair call is
    the N = 1 case of the same code.
    """
    return oracle(oracle.surface.points(P), oracle.surface.points(Q))


def genus0_kernel(r: int, surface: Surface | None = None) -> CauchyKernelOracle:
    """Trivial rank-r kernel I_r / (p - q) on the sphere."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    from .surface import genus0_surface

    surface = surface or genus0_surface()
    eye = np.eye(r, dtype=complex)

    def many(P, Q):
        return eye / (P - Q)[:, None, None]

    return CauchyKernelOracle(r, surface, many, name=f"trivial({r})")


def line_kernel(surface: Surface, bundle: FlatLineBundle) -> CauchyKernelOracle:
    """Rank-1 kernel of a flat line bundle on the torus or a data bundle.

    Raises
    ------
    UnsupportedGenus
        On the sphere (use genus0_kernel), or for a bundle of another genus.
    DegenerateBundle
        If |theta[a; b](0)| <= 1e-10, i.e. the twisted bundle has a
        global section and no Cauchy kernel exists.
    """
    if surface.genus == 0 or bundle.characteristic.genus != surface.genus:
        raise UnsupportedGenus("line kernels need genus >= 1 and a bundle of that genus")
    values = _line_values(surface, (bundle,))

    def many(P, Q):
        return values(P, Q)[:, :, None]

    return CauchyKernelOracle(1, surface, many, bundle=bundle, name="line")


def _line_values(surface: Surface, bundles) -> Callable:
    """(P, Q) -> (N, k) values of the line kernels of k bundles, one theta pass.

    Every kernel theta[chi_k](v) / (theta[chi_k](0) E(q, p)) shares the
    argument v = phi(q) - phi(p) and the prime form, so one theta_many
    call over the k characteristics at v serves the batch; on the torus
    it also carries theta[1/2; 1/2] at -v = phi(p) - phi(q), from which
    Torus.prime_form_from_odd_theta gives E(q, p) as prime_form does.
    Each block is divided by its own scalar theta(0), as a lone line
    kernel is, so the values do not depend on the company a kernel keeps.

    Raises
    ------
    DegenerateBundle
        If some |theta[a; b](0)| <= 1e-10.
    """
    period = surface.period
    chis = tuple(bundle.characteristic for bundle in bundles)
    theta0 = [bundle.theta_at_zero(period) for bundle in bundles]
    for value in theta0:
        if abs(value) <= 1e-10:
            raise DegenerateBundle(f"|theta[a;b](0)| = {abs(value):.3e}")
    torus = isinstance(surface, Torus)

    def values(P, Q):
        v = surface.abel_jacobi(Q) - surface.abel_jacobi(P)
        Z = np.empty((len(chis) + torus, *v.shape), dtype=complex)
        Z[:len(chis)] = v
        if torus:
            Z[-1] = -v
            theta = theta_many(chis + (ODD_CHAR,), Z, period)
            e_qp = surface.prime_form_from_odd_theta(theta[-1])
        else:
            theta = theta_many(chis, Z, period)
            e_qp = prime_form(surface, Q, P)
        out = np.empty((len(v), len(chis)), dtype=complex)
        for k, t0 in enumerate(theta0):
            out[:, k] = theta[k] / (t0 * e_qp)
        return out

    return values


def direct_sum_kernel(oracles) -> CauchyKernelOracle:
    """Block-diagonal kernel of a direct sum of bundles on one surface.

    The line-kernel parts share one theta pass (_line_values); any other
    part is evaluated on its own.
    """
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
    lines = [k for k, oracle in enumerate(oracles) if oracle.bundle is not None]
    others = [k for k, oracle in enumerate(oracles) if oracle.bundle is None]
    line_values = _line_values(base, [oracles[k].bundle for k in lines]) if lines else None

    def many(P, Q):
        out = np.zeros((len(P), total, total), dtype=complex)
        if lines:
            diagonal = offsets[lines]
            out[:, diagonal, diagonal] = line_values(P, Q)
        for k in others:
            sl = slice(offsets[k], offsets[k + 1])
            out[:, sl, sl] = evaluate_many(oracles[k], P, Q)
        return out

    return CauchyKernelOracle(total, base, many, parts=oracles, name="direct_sum")


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

    return CauchyKernelOracle(oracle.rank, oracle.surface, many,
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
