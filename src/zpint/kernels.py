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
Line kernels share the argument phi(q) - phi(p) and the prime form, so
evaluate_joint sends the line blocks of several requests into one theta
pass; the many of a line, direct-sum or conjugated kernel is its case of
one request.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    ThetaCharacteristic,
    theta_gradient,
    theta_many,
    theta_with_char,
)

__all__ = [
    "CauchyKernelOracle",
    "ConnectionCoefficients",
    "evaluate_many",
    "evaluate_joint",
    "kernel_grid",
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
    parts holds the summands of a direct sum; bundle and theta0 hold the
    flat line bundle of a line kernel and its theta[a; b](0); inner, frame
    and frame_inv hold the kernel and the constant frame (and its inverse)
    of a conjugated kernel.  evaluate_joint evaluates an oracle with any of
    these from them, and reads many only of an oracle with none.
    """

    rank: int
    surface: Surface
    many: Callable
    bundle: FlatLineBundle | None = None
    parts: tuple = ()
    name: str = ""
    inner: CauchyKernelOracle | None = None
    frame: np.ndarray | None = None
    theta0: complex | None = None
    frame_inv: np.ndarray | None = None

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
        """Oracle of the dual bundle; satisfies K(dual; p, q)^T = -K(chi; q, p).

        Raises
        ------
        UnsupportedGenus
            For an oracle given by many alone at genus >= 1, whose bundle
            is not known.
        """
        if self.inner is not None:
            return conjugated_kernel(self.inner.dual(), self.frame_inv.T)
        if self.parts:
            return direct_sum_kernel([part.dual() for part in self.parts])
        if self.bundle is not None:
            return line_kernel(self.surface, self.bundle.dual())
        if self.surface.genus == 0:
            return self  # in the global frame the one kernel is I/(p - q), self-dual
        raise UnsupportedGenus("the dual of a kernel given by many alone is known at genus 0")


def evaluate_many(oracle: CauchyKernelOracle, P, Q) -> np.ndarray:
    """Kernel values K(P[i], Q[i]) at N point pairs, shape (N, r, r).

    This is the oracle called on the two sequences; a single-pair call is
    the N = 1 case of the same code.
    """
    return oracle(oracle.surface.points(P), oracle.surface.points(Q))


def evaluate_joint(requests) -> list:
    """K(P[i], Q[i]) for several requests (oracle, P, Q), one (N, r, r) array each.

    Every line block of every request, through direct sums and
    conjugations, is a row set of one theta_many call (on the torus with
    the odd theta of the prime form), divided by the theta(0) kept on its
    line kernel; a kernel given by many alone is called once for all its
    requests.  Request i has the bits of evaluate_many(*requests[i]).
    """
    requests = list(requests)
    surface = requests[0][0].surface if requests else None
    outs, pairs, lines, others, frames = [], [], [], {}, []
    for i, (oracle, P, Q) in enumerate(requests):
        if not (oracle.surface is surface or surface.same_as(oracle.surface)):
            raise SurfaceMismatch("joint kernel evaluation needs a common surface")
        P, Q = surface.points(P), surface.points(Q)
        if len(P) != len(Q):
            raise ValueError("point arrays differ in length")
        pairs.append((P, Q))
        given = oracle.inner is None and not oracle.parts and oracle.bundle is None
        outs.append(None if given else np.zeros((len(P), oracle.rank, oracle.rank), complex))
        _blocks(oracle, outs[i], i, lines, others, frames)
    if lines:
        _line_blocks(surface, lines, pairs)
    for oracle, targets in others.values():
        values = oracle.many(*(np.concatenate([pairs[i][k] for i, _ in targets]) for k in (0, 1)))
        start = 0
        for i, view in targets:   # view None: the request's whole value
            part, start = values[start:start + len(pairs[i][0])], start + len(pairs[i][0])
            if view is None:
                outs[i] = part
            else:
                view[...] = part
    for oracle, inner, view in frames:   # inner conjugations come first
        view[...] = oracle.frame @ inner @ oracle.frame_inv
    return outs


def _blocks(oracle, view, i, lines, others, frames):
    """File request i's blocks, written into view, in lines, others (keyed
    by oracle) and frames (conjugations, in the order they apply)."""
    if oracle.inner is not None:
        inner = np.zeros_like(view)
        _blocks(oracle.inner, inner, i, lines, others, frames)
        frames.append((oracle, inner, view))
    elif oracle.parts:
        at = 0
        for part in oracle.parts:
            sl, at = slice(at, at + part.rank), at + part.rank
            _blocks(part, view[:, sl, sl], i, lines, others, frames)
    elif oracle.bundle is not None:
        lines.append((oracle, view[:, 0, 0], i))
    else:
        others.setdefault(id(oracle), (oracle, []))[1].append((i, view))


def _line_blocks(surface, lines, pairs):
    """Write the line blocks (oracle, diagonal view, request) from one theta pass."""
    spans, P, Q, n = {}, [], [], 0
    for i in dict.fromkeys(i for _, _, i in lines):   # the requests with line blocks
        spans[i], n = slice(n, n + len(pairs[i][0])), n + len(pairs[i][0])
        P.append(pairs[i][0])
        Q.append(pairs[i][1])
    P, Q = np.concatenate(P), np.concatenate(Q)
    v = surface.abel_jacobi(Q) - surface.abel_jacobi(P)
    chis = tuple(oracle.bundle.characteristic for oracle, _, _ in lines)
    Z = [v[spans[i]] for _, _, i in lines]
    if isinstance(surface, Torus):
        *theta, odd = theta_many(chis + (ODD_CHAR,), Z + [-v], surface.period)
        e_qp = surface.prime_form_from_odd_theta(odd)
    else:
        theta = theta_many(chis, Z, surface.period)
        e_qp = prime_form(surface, Q, P)
    for (oracle, diagonal, i), values in zip(lines, theta):
        np.divide(values, oracle.theta0 * e_qp[spans[i]], out=diagonal)


def kernel_grid(oracle: CauchyKernelOracle, P, Q) -> np.ndarray:
    """Kernel values K(P[i], Q[j]) at every pair, shape (n, m, r, r).

    The pairs are one evaluate_many call.  A pair whose points coincide on
    the surface, where K has its pole, is left zero; every block matrix
    over node pairs (Gamma, the pencil, the line-section matrix) takes
    its kernel values from this grid.
    """
    surface = oracle.surface
    P, Q = surface.points(P), surface.points(Q)
    apart = ~surface.equal(P[:, None], Q[None, :])
    out = np.zeros((len(P), len(Q), oracle.rank, oracle.rank), dtype=complex)
    out[apart] = evaluate_many(oracle, np.repeat(P, len(Q))[apart.ravel()],
                               np.tile(Q, len(P))[apart.ravel()])
    return out


def _block_form(blocks: np.ndarray) -> np.ndarray:
    """The (n r, m r) matrix whose (i, j) block is blocks[i, j], (n, m, r, r)."""
    n, m, r, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * r, m * r)


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
    theta0 = bundle.theta_at_zero(surface.period)
    if abs(theta0) <= 1e-10:
        raise DegenerateBundle(f"|theta[a;b](0)| = {abs(theta0):.3e}")
    return _structured(1, surface, "line", bundle=bundle, theta0=theta0)


def _structured(rank: int, surface: Surface, name: str, **structure) -> CauchyKernelOracle:
    """An oracle whose many is evaluate_joint of one request on a copy
    without many (no reference cycle, so it is freed when dropped)."""
    bare = CauchyKernelOracle(rank, surface, None, name=name, **structure)
    return replace(bare, many=lambda P, Q: evaluate_joint([(bare, P, Q)])[0])


def direct_sum_kernel(oracles) -> CauchyKernelOracle:
    """Block-diagonal kernel of a direct sum of bundles on one surface.

    evaluate_joint sends its line-kernel parts into its one theta pass;
    any other part is evaluated on its own.
    """
    oracles = tuple(oracles)
    if not oracles:
        raise ValueError("need at least one summand")
    base = oracles[0].surface
    for oracle in oracles[1:]:
        if not base.same_as(oracle.surface):
            raise SurfaceMismatch("direct sum needs a common surface")
    return _structured(sum(oracle.rank for oracle in oracles), base, "direct_sum",
                       parts=oracles)


def conjugated_kernel(oracle: CauchyKernelOracle, frame: np.ndarray) -> CauchyKernelOracle:
    """Kernel of the same bundle presented in a constant change of frame.

    If K is the kernel of chi then frame K frame^{-1} is the kernel of the
    conjugated factor of automorphy; the defining property is preserved
    because the residue I_r is central.
    """
    frame = np.asarray(frame, dtype=complex)
    return _structured(oracle.rank, oracle.surface, "conjugated", inner=oracle, frame=frame,
                       frame_inv=np.linalg.inv(frame))


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


def line_connection_form(surface: Surface, bundle: FlatLineBundle) -> complex:
    """Closed-form connection value A/dz = 2*pi*i*a + theta'(z)/theta(z).

    Here z = Omega a + b is the Jacobian point of the bundle; at genus 1
    the normalized differential is dz, so the value is a plain number in
    the global frame.
    """
    period = surface.period
    g = period.genus
    z = bundle.jacobian_point(period)
    zero_char = ThetaCharacteristic(np.zeros(g), np.zeros(g))
    val = theta_with_char(zero_char, z, period)
    grad = theta_gradient(zero_char, z, period)
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
    pc, qc = coord(p), coord(q)
    if embedding.is_pole(pc) or embedding.is_pole(qc):
        raise PointOnPoleSet("collection identity excludes the embedding poles")
    weights = xi1 * embedding.residues[:, 0] + xi2 * embedding.residues[:, 1]
    xs = embedding.pole_points
    from_p = kernel_grid(oracle, [pc], [*xs, qc])[0]   # K(p, x^j), then K(p, q) or 0
    to_q = kernel_grid(oracle, xs, [qc])[:, 0]         # K(x^j, q)
    lhs = (weights[:, None, None] * (from_p[:-1] @ to_q)).sum(axis=0)
    if embedding.surface.equal(pc, qc):
        d1, d2 = embedding.lambda_derivs(pc, order=1)
        rhs = -(xi1 * d1 + xi2 * d2) * np.eye(oracle.rank, dtype=complex)
    else:
        l1p, l2p = embedding.lambda_values(pc)
        l1q, l2q = embedding.lambda_values(qc)
        rhs = (xi1 * (l1q - l1p) + xi2 * (l2q - l2p)) * from_p[-1]
    return rel_residual(lhs, rhs)
