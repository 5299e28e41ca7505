"""Cauchy kernel oracles in one normal form, and their diagonal expansion.

A Cauchy kernel K(chi; p, q) for a flat bundle chi is the unique kernel
holomorphic off the diagonal with a simple pole of residue I_r there.  In
the constant global frame used throughout (sqrt(dz) on the torus, the
plane coordinate at genus 0) its Laurent expansion near a diagonal point
p0 reads

    K(p, q) (t(p) - t(q)) = I + A_l t(p) + A t(q) + second order,

and the linear coefficients satisfy A + A_l = 0; they define the dual flat
connections  grad y = A y + dy  and  grad* x = A_l^T x + dx.

On the torus pi_1 is abelian, so every kernel built here is a constant
frame F (r x r, with F^-1 kept) times r scalar channels times F^-1:

    K(p, q) = F diag(k_1(p, q), ..., k_r(p, q)) F^-1.

The channel of a flat line bundle [a; b] on the torus is

    k(p, q) = theta[a; b](phi(q) - phi(p)) / (theta[a; b](0) E(q, p)),

and at genus 0 every channel is 1/(p - q), so the frame cancels there.
genus0_kernel(r) is I/(p - q) and line_kernel one channel, both with
F = I; a direct sum concatenates the channels of its summands under a
block-diagonal frame, a conjugation by G has the frame G F, and the dual
kernel is (F^-T, the dual channels).

One private channel pass evaluates channels at the point pairs of N
units: on the torus one theta_rows call whose rows also carry the odd
theta of the prime form, on the sphere one 1/(p - q).  An oracle's many,
and so the oracle called at a pair, evaluate_many and kernel_grid, is the
pass composed with F; a single pair is the N = 1 case of the same code.
An interpolant of absint reads its kernels only at pairs of a point with
ends fixed at build time: end_plan freezes them once, on the torus as a
theta.ThetaTable of the ends, and evaluate_channels reads the channels at
a batch of points from it.  Points are checked once, by surface.points,
where they enter: the oracle call and kernel_grid; many and the pass take
checked arrays.

An oracle given by many alone has no channels.  It is evaluated by its
many (evaluate_many, kernel_grid, extract_laurent_coeffs,
collection_residual); direct_sum_kernel and conjugated_kernel reject it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateBundle,
    InputError,
    PointOnExcludedSet,
    SurfaceMismatch,
    UnsupportedGenus,
)
from .numutil import rel_residual
from .surface import (
    ODD_CHAR,
    POINT_TOL,
    EmbeddingPair,
    FlatLineBundle,
    Surface,
    _is_many,
    genus0_surface,
    laurent_coeffs,
    odd_theta_deriv0,
    point,
)
from .theta import (
    MAX_TABLE_IM,
    ThetaCharacteristic,
    ThetaTable,
    theta_gradient,
    theta_rows,
    theta_table,
    theta_table_rows,
    theta_with_char,
)

__all__ = [
    "CauchyKernelOracle",
    "ConnectionCoefficients",
    "evaluate_many",
    "EndPlan",
    "end_plan",
    "evaluate_channels",
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
class _Channels:
    """The r scalar channels of a kernel in normal form.

    bundles[k] is the flat line bundle of channel k (None for the 1/(p - q)
    channel at genus 0), ab[k] = (a_k, b_k) its characteristic, shape
    (r, 2, g), and theta0[k] = theta[a_k; b_k](0), shape (r,).
    """

    bundles: tuple
    ab: np.ndarray
    theta0: np.ndarray


def _line_channels(surface: Surface, bundles) -> _Channels:
    """The channels of flat line bundles; raises as line_kernel does."""
    if surface.genus != 1 or any(b.characteristic.genus != 1 for b in bundles):
        raise UnsupportedGenus("line kernels need the torus and a genus-1 bundle")
    theta0 = np.array([b.theta_at_zero(surface.period) for b in bundles])
    if np.abs(theta0).min() <= 1e-10:
        raise DegenerateBundle(f"|theta[a;b](0)| = {np.abs(theta0).min():.3e}")
    return _Channels(tuple(bundles), np.array([[b.a, b.b] for b in bundles]), theta0)


_ODD_AB = np.stack([ODD_CHAR.a, ODD_CHAR.b])
# the odd theta of E(e, p), at p - e, as a row theta[-1/2; -1/2](e - p)
_ODD_ROW = -_ODD_AB.T


def _plan(surface: Surface, entries, m: int) -> tuple:
    """The rows of a channel pass over units of m point pairs (columns).

    entries holds (channels, columns) pieces: every channel at each of the
    columns, column by column; entry l of the plan is one channel read at
    column cols[l].  Returns (m, cols, ab, theta0): the characteristic of
    each theta row, on the torus followed by the odd theta of every column,
    and theta0 as a (1, L) row.
    """
    cols = np.concatenate([np.repeat(at, len(ch.theta0)) for ch, at in entries])
    ab = np.concatenate([np.tile(ch.ab, (len(at), 1, 1)) for ch, at in entries])
    if surface.genus:
        ab = np.concatenate([ab, np.repeat(_ODD_AB[None], m, axis=0)])
    # (1, L), not (L,): numpy's complex product of a (1,) and a (1, 1)
    # array can differ in the last bit from the scalar-times-array one
    theta0 = np.concatenate([np.tile(ch.theta0, len(at)) for ch, at in entries])[None]
    return m, cols, ab, theta0


def _channel_pass(surface: Surface, plan, v) -> np.ndarray:
    """(N, L) values of the plan's entries at N units on the torus: one
    theta_rows call, whose rows also carry the odd theta of the prime form.
    v holds the (N, m, 1) differences phi(Q) - phi(P) of each unit's m
    pairs."""
    m, cols, ab, theta0 = plan
    n, lines, width = len(v), len(cols), len(ab)
    # the odd theta of E(q, p) at every column is at -v
    rows = np.concatenate([v[:, cols], -v], axis=1)
    if n != 1:
        ab = np.broadcast_to(ab, (n, *ab.shape)).reshape(-1, *ab.shape[1:])
    values = theta_rows(surface.period, ab[:, 0], ab[:, 1],
                        rows.reshape(-1, 1)).reshape(n, width)
    e = surface.prime_form_from_odd_theta(values[:, lines:])
    return values[:, :lines] / (theta0 * e[:, cols])


@dataclass(frozen=True, eq=False)
class EndPlan:
    """The channel rows of an interpolant over its fixed ends.

    Its channels are those of tilde at each of the m ends, end by end,
    then those of chi at ends[0], read at the pairs (p, e) when
    point_first, else (e, p).  On the torus up to theta.MAX_TABLE_IM, table
    is the frozen theta.ThetaTable of the ends over the characteristics of
    tilde, of chi and of the odd theta, tilde the number of tilde
    channels, and scale theta'(0)/theta[a; b](0) per characteristic of
    tilde and chi; rows is None.
    Elsewhere rows is _plan's (m, cols, ab, theta0) over the ends,
    for the pass of the oracles, and table is None.
    """

    ends: np.ndarray
    point_first: bool
    rows: tuple | None
    table: ThetaTable | None = None
    tilde: int = 0
    scale: np.ndarray | None = None


def end_plan(surface: Surface, tilde: _Channels, chi: _Channels, ends,
             point_first: bool) -> EndPlan:
    """The EndPlan of the channels tilde and chi over the checked point
    array ends.

    On the torus a channel read at (p, e) is theta[a; b](e - p) over
    theta[a; b](0) E(e, p), with E(e, p) the odd theta at p - e over its
    derivative at 0; read at (e, p) it is theta[a; b](p - e) over
    theta[a; b](0) E(p, e).  theta[a; b](-z) = theta[-a; -b](z) turns every
    theta into a row theta[+-a; +-b](e - p) of the table.
    """
    m = len(ends)
    if not surface.genus or surface.tau.imag > MAX_TABLE_IM:
        rows = _plan(surface, [(tilde, np.arange(m)), (chi, np.zeros(1, int))], m)
        return EndPlan(ends, point_first, rows)
    ab = np.concatenate([tilde.ab[:, :, 0], chi.ab[:, :, 0], _ODD_ROW])
    if not point_first:
        ab = -ab
    table = theta_table(surface.period, ab[:, 0], ab[:, 1], ends)
    return EndPlan(ends, point_first, None, table, len(tilde.theta0),
                   odd_theta_deriv0(surface.tau) / np.concatenate([tilde.theta0, chi.theta0]))


def _compose(d: np.ndarray, frame, frame_inv) -> np.ndarray:
    """F diag(d[i]) F^-1 for every row of the (N, r) channel values d."""
    n, r = d.shape
    if frame is None:
        out = np.zeros((n, r, r), dtype=complex)
        out[:, np.arange(r), np.arange(r)] = d
        return out
    return (frame * d[:, None, :]) @ frame_inv


@dataclass(frozen=True, eq=False)
class CauchyKernelOracle:
    """Evaluator contract for an r-by-r Cauchy kernel in the global frame.

    many maps two checked point arrays of one length N, as made by
    surface.points, to the (N, r, r) values.  Calling the oracle with two
    point sequences of length N gives many on them; with two points it
    gives the (r, r) value of the N = 1 case.  A call checks its points
    once (InputError for a non-finite one).
    channels, frame and frame_inv hold the normal form F diag(channels)
    F^-1 (frame None for F = I); channels is None for an oracle given by
    many alone.
    """

    rank: int
    surface: Surface
    many: Callable
    name: str = ""
    channels: _Channels | None = None
    frame: np.ndarray | None = None
    frame_inv: np.ndarray | None = None

    def __call__(self, p, q) -> np.ndarray:
        single = not (_is_many(p) or _is_many(q))
        P, Q = (self.surface.points([x] if single else x) for x in (p, q))
        if np.shape(P) != np.shape(Q):   # also one point against a sequence
            raise InputError("point arrays differ in length")
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
        if self.channels is None:
            if self.surface.genus == 0:
                return self  # in the global frame the one kernel is I/(p - q), self-dual
            raise UnsupportedGenus("the dual of a kernel given by many alone is known at genus 0")
        channels = self.channels
        if self.surface.genus:
            channels = _line_channels(self.surface, [b.dual() for b in channels.bundles])
        frames = (None, None) if self.frame is None else (self.frame_inv.T, self.frame.T)
        return _normal_form(self.rank, self.surface, self.name, channels, *frames)


def _normal_form(rank: int, surface: Surface, name: str, channels: _Channels,
                 frame=None, frame_inv=None) -> CauchyKernelOracle:
    """The oracle F diag(channels) F^-1; its many is the channel pass at one
    column composed with F (the closure holds the plan and the frame, not
    the oracle, so the oracle is freed when dropped)."""
    plan = _plan(surface, [(channels, np.zeros(1, int))], 1)

    def many(P, Q):
        if not surface.genus:   # every channel is 1/(p - q); take keeps rows contiguous
            return _compose((1.0 / (P - Q)).reshape(-1, 1).take(plan[1], axis=1),
                            frame, frame_inv)
        # on the torus the Abel-Jacobi map is the coordinate: v = Q - P
        return _compose(_channel_pass(surface, plan, (Q - P)[:, None, None]), frame, frame_inv)

    return CauchyKernelOracle(rank, surface, many, name, channels, frame, frame_inv)


def _channels_of(oracle: CauchyKernelOracle, what: str) -> _Channels:
    """The oracle's channels; InputError for an oracle given by many alone."""
    if oracle.channels is None:
        raise InputError(f"{what} needs a kernel in normal form, not one given by many alone")
    return oracle.channels


def evaluate_many(oracle: CauchyKernelOracle, P, Q) -> np.ndarray:
    """Kernel values K(P[i], Q[i]) at N point pairs, shape (N, r, r).

    This is the oracle called on the two sequences; a single-pair call is
    the N = 1 case of the same code.
    """
    return oracle(P, Q)


def evaluate_channels(surface: Surface, plan: EndPlan, P) -> np.ndarray:
    """(N, L) channel values of an interpolant's plan at every point of the
    checked point array P, over the plan's fixed ends.

    On the torus the rows are read from the plan's frozen table by
    theta.theta_table_rows; the rows of one end share a factor, which the
    divide by the odd theta (the prime form) cancels.  A module function,
    not a method, so that perfbench's span tracer, which wraps public
    functions, counts an interpolant's kernel work under kernels and its
    theta work under theta.
    """
    if plan.table is not None:
        rows = theta_table_rows(plan.table, P)
        # each channel over its end's odd theta, times theta'(0)/theta[a; b](0)
        ratio = rows[:, :, :-1] / rows[:, :, -1:] * plan.scale
        r = plan.tilde
        return np.concatenate([ratio[:, :, :r].reshape(len(P), -1), ratio[:, 0, r:]], axis=1)
    d = P[:, None] - plan.ends if plan.point_first else plan.ends - P[:, None]
    if surface.genus:   # beyond MAX_TABLE_IM: the oracles' channel pass
        return _channel_pass(surface, plan.rows, -d[..., None])
    # the sphere: every channel is 1/(p - e) or 1/(e - p); take, not [:, cols],
    # keeps each row contiguous, as a one-point pass has it, so that a matmul
    # over rows gives the same bits
    return (1.0 / d).take(plan.rows[1], axis=1)


def kernel_grid(oracle: CauchyKernelOracle, P, Q) -> np.ndarray:
    """Kernel values K(P[i], Q[j]) at every pair, shape (n, m, r, r).

    The pairs are one oracle call.  A pair whose points coincide on the
    surface, where K has its pole, is left zero; every block matrix over
    node pairs (Gamma, the pencil, the line-section matrix) takes its
    kernel values from this grid.

    Raises
    ------
    InputError
        If a point of P or Q is not finite (before the coincidence test,
        which has no answer for it).
    """
    surface = oracle.surface
    P, Q = surface.points(P), surface.points(Q)
    apart = ~(surface.gap(P[:, None] - Q[None, :]) <= POINT_TOL)
    out = np.zeros((len(P), len(Q), oracle.rank, oracle.rank), dtype=complex)
    i, j = np.nonzero(apart)
    out[i, j] = oracle(P[i], Q[j])
    return out


def _block_form(blocks: np.ndarray) -> np.ndarray:
    """The (n r, m r) matrix whose (i, j) block is blocks[i, j], (n, m, r, r)."""
    n, m, r, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * r, m * r)


def genus0_kernel(r: int, surface: Surface | None = None) -> CauchyKernelOracle:
    """Trivial rank-r kernel I_r / (p - q) on the sphere."""
    if r < 1:
        raise InputError("rank must be at least 1")
    channels = _Channels((None,) * r, np.zeros((r, 2, 0)), np.ones(r, dtype=complex))
    return _normal_form(r, surface or genus0_surface(), f"trivial({r})", channels)


def line_kernel(surface: Surface, bundle: FlatLineBundle) -> CauchyKernelOracle:
    """Rank-1 kernel of a flat line bundle on the torus.

    Raises
    ------
    UnsupportedGenus
        On the sphere (use genus0_kernel), or for a bundle of another genus.
    DegenerateBundle
        If |theta[a; b](0)| <= 1e-10, i.e. the twisted bundle has a
        global section and no Cauchy kernel exists.
    """
    return _normal_form(1, surface, "line", _line_channels(surface, [bundle]))


def _block_diagonal(blocks) -> np.ndarray:
    size = sum(len(block) for block in blocks)
    out = np.zeros((size, size), dtype=complex)
    at = 0
    for block in blocks:
        out[at:at + len(block), at:at + len(block)] = block
        at += len(block)
    return out


def direct_sum_kernel(oracles) -> CauchyKernelOracle:
    """Block-diagonal kernel of a direct sum of bundles on one surface.

    Its channels are those of its summands, one after another, under the
    block-diagonal frame of theirs.

    Raises
    ------
    InputError
        For a summand given by many alone.
    SurfaceMismatch
        For summands on different surfaces.
    """
    oracles = tuple(oracles)
    if not oracles:
        raise InputError("need at least one summand")
    parts = [_channels_of(oracle, "a direct sum") for oracle in oracles]
    base = oracles[0].surface
    for oracle in oracles[1:]:
        if not base.same_as(oracle.surface):
            raise SurfaceMismatch("direct sum needs a common surface")
    channels = _Channels(sum((part.bundles for part in parts), ()),
                         np.concatenate([part.ab for part in parts]),
                         np.concatenate([part.theta0 for part in parts]))
    frame = frame_inv = None
    if any(oracle.frame is not None for oracle in oracles):
        frame, frame_inv = (
            _block_diagonal([np.eye(o.rank) if o.frame is None else getattr(o, attr)
                             for o in oracles])
            for attr in ("frame", "frame_inv"))
    return _normal_form(len(channels.theta0), base, "direct_sum", channels, frame, frame_inv)


def conjugated_kernel(oracle: CauchyKernelOracle, frame: np.ndarray) -> CauchyKernelOracle:
    """Kernel of the same bundle presented in a constant change of frame.

    If K is the kernel of chi then frame K frame^{-1} is the kernel of the
    conjugated factor of automorphy; the defining property is preserved
    because the residue I_r is central.  The result has the frame
    frame F of the oracle's F.

    Raises
    ------
    InputError
        For an oracle given by many alone.
    """
    channels = _channels_of(oracle, "a conjugation")
    frame = np.asarray(frame, dtype=complex)
    frame_inv = np.linalg.inv(frame)
    if oracle.frame is not None:
        frame, frame_inv = frame @ oracle.frame, oracle.frame_inv @ frame_inv
    return _normal_form(oracle.rank, oracle.surface, "conjugated", channels, frame, frame_inv)


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
    z0 = point(p0)

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
    if g != 1:
        raise UnsupportedGenus("closed-form connection is genus-1 only")
    z = bundle.jacobian_point(period)
    zero_char = ThetaCharacteristic(np.zeros(g), np.zeros(g))
    val = theta_with_char(zero_char, z, period)
    grad = theta_gradient(zero_char, z, period)
    return complex(2j * np.pi * bundle.a[0] + grad[0] / val)


def collection_residual(oracle: CauchyKernelOracle, embedding: EmbeddingPair,
                        p, q, xi) -> float:
    """Relative residual of the pole-collection identity.

    For p != q, sum_j (xi1 c_j1 + xi2 c_j2) K(p, x^j) K(x^j, q) must equal
    (xi1 (l1(q) - l1(p)) + xi2 (l2(q) - l2(p))) K(p, q); at p = q the limit
    replaces the coordinate difference with -(xi1 l1' + xi2 l2')(p) I_r.
    """
    xi1, xi2 = complex(xi[0]), complex(xi[1])
    pc, qc = point(p), point(q)
    if embedding.is_pole(pc) or embedding.is_pole(qc):
        raise PointOnExcludedSet("collection identity excludes the embedding poles")
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
