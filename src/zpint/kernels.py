"""Cauchy kernel oracles in one normal form, and their diagonal expansion.

A Cauchy kernel K(chi; p, q) for a flat bundle chi is the unique kernel
holomorphic off the diagonal with a simple pole of residue I_r there.  In
the constant global frame used throughout (sqrt(dz) on the torus, the
plane coordinate at genus 0) its Laurent expansion near a diagonal point
p0 reads

    K(p, q) (t(p) - t(q)) = I + A_l t(p) + A t(q) + second order,

and the linear coefficients satisfy A + A_l = 0: A_l = -A is the duality
that the battery checks (connection_duality_defect).  A, which
extract_laurent_coeffs reads, defines the flat connection grad y = A y + dy,
and A_l its dual grad* x = A_l^T x + dx.

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
units: on the torus one theta_rows call, with the odd theta of the prime
form from its sine series (theta.odd_theta_series), on the sphere one
1/(p - q).  An oracle's many, and so the oracle called at one pair or
at two sequences of N pairs, and kernel_grid, is the pass composed with
F; a single pair is the N = 1 case of the same code.
An interpolant of absint reads its kernels only at pairs (p, e) of a
point with ends fixed at build time: end_plan freezes them once, on the
torus as a theta.ThetaTable of the ends, and evaluate_channels reads the
channels at a batch of points from it, or at one point with no batch
axis (an interpolant's call at one point), with the bits of that point's
row in any batch.  The plan also keeps where the interpolant may not be
evaluated: its ends and, on the torus, the r zeros of K(chi; ., q) in
closed form, where K(chi)^-1 has its poles; together they are its
excluded points.  On the torus it keeps their sorted lattice offsets,
from which EndPlan.clears bounds a point's distance to every excluded
point with no difference formed.  Where that does not clear, and on the
sphere, the caller forms the differences d = p - e of its points from
the excluded points once, in that orientation (the one of genus0 and
kernel_grid), and reads them itself (the interpolant's Surface.apart);
evaluate_channels takes them beside the points, or forms them where it
reads them: the sphere's channels are 1.0 / d, the channel pass past
MAX_TABLE_IM reads -d, and the table reads the points.  The orientation
is part of the bits: -1.0 / (e - p) would flip the sign of a zero part
where p shares a coordinate with an end.  end_plan also returns the
channels at the zero points, from which the interpolant builds Gamma: on
the torus out of the walk that builds the table, elsewhere one
evaluate_channels call.  There is one orientation: absint builds T^-1 as
the transposed solution of the swapped problem, on the dual kernels.
kernel_grid, over every pair of two point sets, serves the block
matrices built from an oracle.  Points are checked once, by
surface.points, where they enter: the oracle call and kernel_grid; many
and the pass take checked arrays.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBundle,
    InputError,
    PointOnExcludedSet,
    SurfaceMismatch,
    UnsupportedGenus,
)
from .numutil import circle_modes, rel_residual
from .surface import (
    ODD_CHAR,
    POINT_TOL,
    EmbeddingPair,
    FlatLineBundle,
    Surface,
    _is_many,
    genus0_surface,
    laurent_coeffs,
    lattice_reduce,
)
from .theta import (
    MAX_TABLE_IM,
    ThetaCharacteristic,
    ThetaTable,
    odd_theta_series,
    theta_gradient,
    theta_rows,
    theta_table,
    theta_table_rows,
    theta_with_char,
)

__all__ = [
    "CauchyKernelOracle",
    "EndPlan",
    "end_plan",
    "evaluate_channels",
    "kernel_grid",
    "genus0_kernel",
    "line_kernel",
    "direct_sum_kernel",
    "conjugated_kernel",
    "extract_laurent_coeffs",
    "connection_duality_defect",
    "line_connection_form",
    "collection_residual",
]


@dataclass(frozen=True, eq=False)
class _Channels:
    """The r scalar channels of a kernel in normal form.

    ab[k] = (a_k, b_k) is the characteristic of the flat line bundle of
    channel k, shape (r, 2, g) (g = 0 for the 1/(p - q) channels of the
    sphere), and theta0[k] = theta[a_k; b_k](0), shape (r,).
    """

    ab: np.ndarray
    theta0: np.ndarray


# the odd theta of E(e, p), at p - e, as a table row theta[-1/2; -1/2](e - p)
_ODD_ROW = -np.stack([ODD_CHAR.a, ODD_CHAR.b]).T


def _columns(entries) -> np.ndarray:
    """The column of each entry of a channel pass over units of point pairs:
    entries holds (channels, columns) pieces, every channel at each of the
    columns, column by column."""
    return np.concatenate([np.repeat(at, len(ch.theta0)) for ch, at in entries])


def _plan(entries) -> tuple:
    """The rows of a channel pass over the entries of _columns: (cols, ab,
    theta0), entry l being one channel read at column cols[l], with the
    characteristic of each theta row and theta0 as a (1, L) row."""
    ab = np.concatenate([np.tile(ch.ab, (len(at), 1, 1)) for ch, at in entries])
    # (1, L), not (L,): numpy's complex product of a (1,) and a (1, 1)
    # array can differ in the last bit from the scalar-times-array one
    theta0 = np.concatenate([np.tile(ch.theta0, len(at)) for ch, at in entries])[None]
    return _columns(entries), ab, theta0


def _channel_pass(surface: Surface, plan, v) -> np.ndarray:
    """(N, L) values of the plan's entries at N units on the torus: one
    theta_rows call for the channels and one odd_theta_series call for
    the odd theta of the prime form at every column.  v holds the (N, m)
    differences phi(Q) - phi(P) of each unit's m pairs."""
    cols, ab, theta0 = plan
    n, lines = len(v), len(cols)
    if n != 1:
        ab = np.broadcast_to(ab, (n, *ab.shape)).reshape(-1, *ab.shape[1:])
    values = theta_rows(surface.period, ab[:, 0], ab[:, 1],
                        v[:, cols].reshape(-1, 1)).reshape(n, lines)
    # the odd theta of E(q, p) at every column is at -v
    e = surface.prime_form_from_odd_theta(odd_theta_series(surface.period, -v)[0])
    return values / (theta0 * e[:, cols])


# The end test's slack on the lattice offsets beta, per unit of
# |beta_p| + max |beta_e| + 2: see EndPlan.clears
_SLACK = 4 * float(np.finfo(float).eps)


@functools.lru_cache(maxsize=64)
def _layout_order(m: int, r: int) -> np.ndarray:
    """EndPlan.order for m ends and r channels: tilde's channel k at end j
    is quotient k m + j of the flattened (2 r, m) quotients, chi's channel
    k (r + k) m."""
    order = np.concatenate([(np.arange(m)[:, None] + m * np.arange(r)).reshape(-1),
                            m * np.arange(r, 2 * r)])
    order.flags.writeable = False
    return order


@dataclass(frozen=True, eq=False)
class EndPlan:
    """The channel rows of an interpolant over its fixed ends, and the one
    test of where it may be evaluated.

    Its channels are those of tilde at each of the m ends, end by end,
    then those of chi at ends[0], read at the pairs (p, e).  zeros holds
    the r zeros of K(chi; ., ends[0]) on the torus (_kernel_zeros), where
    the interpolant's inverse factor K(chi; p, q)^-1 has its poles, and is
    empty on the sphere, where 1/(p - q) vanishes nowhere; excluded is the
    ends followed by the zeros, the points Surface.apart tests.  On the
    torus up to theta.MAX_TABLE_IM, table is the frozen theta.ThetaTable of
    the ends over the characteristics of tilde, of chi and of the odd
    theta, tilde the number r of tilde channels (chi has as many), and
    scale theta'(0)/theta[a; b](0) per channel of the (m + 1, r) layout:
    tilde's at each end, then chi's; order takes that layout, flattened,
    from one point's (2 r, m) ratios of the table's rows to its odd row,
    flattened; rows is None.  Past MAX_TABLE_IM rows is _plan's (cols, ab,
    theta0) over the ends, for the pass of the oracles, and table is None;
    on the sphere rows is (cols,) alone, the column index evaluate_channels
    reads.  height is Im(tau) on the torus, from which the plan sorts the
    B-cycle offsets of the excluded points for clears on its first test (a
    build that reads no point pays nothing for them), and None on the
    sphere.
    """

    ends: np.ndarray
    zeros: np.ndarray
    rows: tuple | None
    table: ThetaTable | None = None
    tilde: int = 0
    scale: np.ndarray | None = None
    order: np.ndarray | None = None
    height: float | None = None

    @functools.cached_property
    def excluded(self) -> np.ndarray:
        """The ends, then the zeros: every point a gap of POINT_TOL excludes."""
        return np.concatenate([self.ends, self.zeros])

    @functools.cached_property
    def _offsets(self) -> tuple:
        """(reach, fractions, around) of clears, then fractions and around
        as arrays for a batch, made on the first test: the excluded points'
        B-cycle offsets beta = Im e / Im(tau), reduced mod 1 and sorted,
        with their wrapped neighbours [fractions[-1] - 1, *fractions,
        fractions[0] + 1], and reach = max |beta|."""
        beta = (self.excluded.imag / self.height).tolist()
        fractions = sorted([b % 1.0 for b in beta])
        around = [fractions[-1] - 1.0, *fractions, fractions[0] + 1.0]
        array = np.array(around)
        return max(max(beta), -min(beta)), fractions, around, array[1:-1], array

    def clears(self, P) -> bool:
        """Whether a lower bound of the lattice distance clears every
        excluded point (each end and each zero) by POINT_TOL at the checked
        point P (a complex) or at every point of the checked array P, so
        that Surface.apart on the differences p - e from excluded is True
        without forming them.  False means undecided, and always on the
        sphere.

        The bound is the distance of beta_p = Im p / Im(tau) mod 1 to the
        nearest sorted fraction of the excluded points e (one bisect in
        Python floats at one point, np.searchsorted in a batch), less a
        slack of 4 eps (|beta_p| + max |beta_e| + 2) (in a batch, with the
        batch's largest |beta_p|), times Im(tau).  Surface.gap reads
        hypot(x, db Im(tau)), a faithfully rounded hypot is never below
        |db Im(tau)|, and db, made from the rounded p - e, differs from the
        fraction distance by at most about eps (3 + 1.6 (|beta_p| +
        |beta_e|)): the roundings of p - e, of the three quotients, of the
        two reductions mod 1 and of the wrapped difference.  The slack
        covers them twice, so a point this bound clears is one every gap
        clears.
        """
        if self.height is None:
            return False
        reach, fractions, around, fraction_array, around_array = self._offsets
        if isinstance(P, complex):
            beta = P.imag / self.height
            frac = beta % 1.0
            at = bisect.bisect_right(fractions, frac)
            gap = min(frac - around[at], around[at + 1] - frac)
            return (gap - _SLACK * (abs(beta) + reach + 2.0)) * self.height > POINT_TOL
        if not P.size:
            return True
        beta = P.imag / self.height
        frac = beta - np.floor(beta)
        at = fraction_array.searchsorted(frac, side="right")
        gap = np.minimum(frac - around_array[at], around_array[at + 1] - frac).min()
        # the slack of the batch's largest |beta| serves every point
        slack = _SLACK * (float(np.abs(beta).max()) + reach + 2.0)
        return (float(gap) - slack) * self.height > POINT_TOL


def _kernel_zeros(surface: Surface, chi: _Channels, q: complex) -> np.ndarray:
    """The r zeros of K(chi; ., q), one per channel, in closed form, with no
    theta call; empty on the sphere.

    The channel [a; b] reads theta[a; b](q - p) = (a nonzero factor) times
    theta(q - p + z) with z = Omega a + b, and theta vanishes only at the
    odd half-period (1 + tau)/2 (the genus-1 vector of Riemann constants),
    so the zero is p = q + z - (1 + tau)/2, reduced to the parallelogram.
    A constant frame moves none.  The dual channels (-a, -b) give the
    zeros of K(chi; q, .), where T^-1's factor is singular.
    """
    if not surface.genus:
        return np.empty(0, dtype=complex)
    tau = surface.tau
    # z = Omega a + b = tau a + b at genus 1
    return np.array([lattice_reduce(q + (tau * a + b) - (1.0 + tau) / 2.0, tau)
                     for (a,), (b,) in chi.ab.tolist()])


def end_plan(surface: Surface, tilde: _Channels, chi: _Channels, ends,
             nodes) -> tuple[EndPlan, np.ndarray]:
    """The EndPlan of the channels tilde and chi over the checked point
    array ends, with the zeros of K(chi; ., ends[0]), and the tilde
    channels at the A checked node points nodes, (A, m r): the columns
    evaluate_channels gives them.

    On the torus a channel read at (p, e) is theta[a; b](e - p) over
    theta[a; b](0) E(e, p), with E(e, p) the odd theta at p - e over its
    derivative at 0, so every theta is a row theta[a; b](e - p) of the
    table (the odd one theta[-1/2; -1/2](e - p)).  Up to
    theta.MAX_TABLE_IM the rows at the nodes come out of the table's own
    walk (the rows theta.theta_table returns), with no theta_table_rows read;
    on the sphere and past MAX_TABLE_IM they are one evaluate_channels call
    at the nodes.  A node on an end divides by a vanishing prime form there
    and gets a non-finite channel, without a warning.
    """
    m, r = len(ends), len(tilde.theta0)
    height = surface.tau.imag if surface.genus else None
    zeros = _kernel_zeros(surface, chi, complex(ends[0]))
    if height is None or height > MAX_TABLE_IM:
        entries = [(tilde, np.arange(m)), (chi, np.zeros(1, int))]
        plan = (EndPlan(ends, zeros, (_columns(entries),)) if height is None else
                EndPlan(ends, zeros, _plan(entries), height=height))
        with np.errstate(divide="ignore", invalid="ignore"):
            return plan, evaluate_channels(surface, plan, nodes,
                                           nodes[:, None] - ends)[:, :m * r]
    ab = np.concatenate([tilde.ab[:, :, 0], chi.ab[:, :, 0], _ODD_ROW])
    table, at = theta_table(surface.period, ab[:, 0], ab[:, 1], ends, nodes)
    scale = surface.odd_deriv0 / np.concatenate([tilde.theta0, chi.theta0])
    # each tilde channel over its end's odd theta, as evaluate_channels has it
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = at[:r] / at[-1] * scale[:r, None, None]
    layout = np.empty((m + 1, r), dtype=complex)
    layout[:m], layout[m] = scale[:r], scale[r:]
    return (EndPlan(ends, zeros, None, table, r, layout, _layout_order(m, r), height),
            ratio.transpose(1, 2, 0).reshape(len(nodes), m * r))


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
    """Evaluator contract for an r-by-r Cauchy kernel in the global frame,
    in the normal form F diag(channels) F^-1 (frame None for F = I).

    many maps two checked point arrays of one length N, as made by
    surface.points, to the (N, r, r) values: the channel pass composed
    with F.  Calling the oracle with two point sequences of length N gives
    many on them; with two points it gives the (r, r) value of the N = 1
    case.  A call checks its points once (InputError for a non-finite one).
    """

    surface: Surface
    channels: _Channels
    frame: np.ndarray | None = None
    frame_inv: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return len(self.channels.theta0)

    @functools.cached_property
    def _column_plan(self) -> tuple:
        """The plan of the channels at one column, made on first use."""
        return _plan([(self.channels, np.zeros(1, int))])

    def many(self, P, Q) -> np.ndarray:
        plan = self._column_plan
        if not self.surface.genus:   # every channel is 1/(p - q); take keeps rows contiguous
            d = (1.0 / (P - Q)).reshape(-1, 1).take(plan[0], axis=1)
        else:   # on the torus the Abel-Jacobi map is the coordinate: v = Q - P
            d = _channel_pass(self.surface, plan, (Q - P)[:, None])
        return _compose(d, self.frame, self.frame_inv)

    def __call__(self, p, q) -> np.ndarray:
        single = not (_is_many(p) or _is_many(q))
        P, Q = (self.surface.points([x] if single else x) for x in (p, q))
        if np.shape(P) != np.shape(Q):   # also one point against a sequence
            raise InputError("point arrays differ in length")
        values = self.many(P, Q)
        return values[0] if single else values

    def dual(self) -> "CauchyKernelOracle":
        """Oracle of the dual bundle; satisfies K(dual; p, q)^T = -K(chi; q, p).

        Its channels have the characteristics (-a, -b) and reuse the
        kernel's theta[a; b](0), since theta is even, so it makes no
        lattice pass and validates no characteristic; the frame is F^-T.
        """
        frames = (None, None) if self.frame is None else (self.frame_inv.T, self.frame.T)
        return CauchyKernelOracle(self.surface, _Channels(-self.channels.ab,
                                                          self.channels.theta0),
                                  *frames)


def evaluate_channels(surface: Surface, plan: EndPlan, P, d=None) -> np.ndarray:
    """(N, L) channel values of an interpolant's plan at every point of the
    checked point array P, over the plan's fixed ends; at one checked
    point, a complex P, its (L,) values, with no batch axis.  A point's
    values are the same bits alone and in any batch.

    d holds the differences p - e of each point from the plan's excluded
    points or from its ends alone, whose columns come first, (N, m + r) or
    (N, m), or one point's without the leading axis, in that orientation:
    P[:, None] - plan.excluded, or p - plan.excluded, when the caller has
    formed them for its distance test (Surface.apart); only the ends'
    columns are read, and None forms them here where they are.  On the
    torus up to theta.MAX_TABLE_IM the rows are read from the plan's
    frozen table by theta.theta_table_rows at P, (N, m, D) or one point's
    (D, m), and d is not read; the rows of one end share a factor, which
    the divide by the odd theta (the prime form) cancels.  One point's
    (D, m) rows are divided by their odd row in one (2 r, m) quotient, and
    its channels taken from it in the (m + 1, r) layout by plan.order (the
    chi quotients at the ends past ends[0] are formed and not read).  Past
    MAX_TABLE_IM the oracles' channel pass reads -d, the differences
    e - p; on the sphere every channel is 1.0 / d.  A module function, not
    a method, so that perfbench's span tracer, which wraps public
    functions, counts an interpolant's kernel work under kernels and its
    theta work under theta.
    """
    if plan.table is not None:
        rows = theta_table_rows(plan.table, P)
        # each channel over its end's odd theta, times theta'(0)/theta[a; b](0)
        if isinstance(P, complex):   # rows (D, m)
            out = (rows[:-1] / rows[-1]).take(plan.order)
            out *= plan.scale.reshape(-1)
            return out
        # written in place into the (N, m + 1, r) layout of the (N, L) result
        m, r = len(plan.ends), plan.tilde
        lead = rows.shape[:-2]
        out = np.empty((*lead, m + 1, r), dtype=complex)
        np.divide(rows[..., :r], rows[..., -1:], out=out[..., :m, :])
        np.divide(rows[..., 0, r:-1], rows[..., 0, -1:], out=out[..., m, :])
        np.multiply(out, plan.scale, out=out)
        return out.reshape(*lead, (m + 1) * r)
    if d is None:
        d = P - plan.ends if isinstance(P, complex) else P[:, None] - plan.ends
    if surface.genus:   # beyond MAX_TABLE_IM: the oracles' channel pass
        m = len(plan.ends)
        values = _channel_pass(surface, plan.rows, -d[..., :m].reshape(-1, m))
        return values.reshape(*d.shape[:-1], -1)
    # the sphere (no zeros, so d is over the ends): every channel is
    # 1/(p - e); take, not [:, cols], keeps each row contiguous, as a
    # one-point pass has it, so that a matmul over rows gives the same bits
    return (1.0 / d).take(plan.rows[0], axis=-1)


def kernel_grid(oracle: CauchyKernelOracle, P, Q) -> np.ndarray:
    """Kernel values K(P[i], Q[j]) at every pair, shape (n, m, r, r).

    The pairs are one oracle call.  A pair whose points coincide on the
    surface, where K has its pole, is left zero; every block matrix over
    node pairs built from an oracle (absint.build_gamma, the pencil, the
    line-section matrix) takes its kernel values from this grid.  An
    interpolant reads its Gamma from its EndPlan instead, with the same
    zeros at coincident pairs.

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
    channels = _Channels(np.zeros((r, 2, 0)), np.ones(r, dtype=complex))
    return CauchyKernelOracle(surface or genus0_surface(), channels)


def line_kernel(surface: Surface, bundle: FlatLineBundle) -> CauchyKernelOracle:
    """Rank-1 kernel of a flat line bundle on the torus.

    Raises
    ------
    UnsupportedGenus
        On the sphere (use genus0_kernel), or for a bundle of another genus.
    DegenerateBundle
        If |theta[a; b](0)| is at most 1e-10 of the largest term of its sum,
        exp(-pi Im(tau) a^2) with a reduced to [-1/2, 1/2): the bundle is
        then on (or at rounding distance from) the theta divisor, where the
        twisted bundle has a global section and no Cauchy kernel exists.
    """
    if surface.genus != 1 or bundle.characteristic.genus != 1:
        raise UnsupportedGenus("line kernels need the torus and a genus-1 bundle")
    theta0 = bundle.theta_at_zero(surface.period)
    # the largest term of theta[a; b](0), exp(-pi Im(tau) a^2), a in [-1/2, 1/2)
    a = bundle.a[0] - np.floor(bundle.a[0] + 0.5)
    largest = np.exp(-np.pi * surface.tau.imag * a * a)
    if abs(theta0) <= 1e-10 * largest:
        raise DegenerateBundle(f"|theta[a;b](0)| = {abs(theta0):.3e}, "
                               f"at most 1e-10 of its largest term {largest:.3e}")
    channels = _Channels(np.array([[bundle.a, bundle.b]]), np.array([theta0]))
    return CauchyKernelOracle(surface, channels)


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
    SurfaceMismatch
        For summands on different surfaces.
    """
    oracles = tuple(oracles)
    if not oracles:
        raise InputError("need at least one summand")
    base = oracles[0].surface
    for oracle in oracles[1:]:
        if not base.same_as(oracle.surface):
            raise SurfaceMismatch("direct sum needs a common surface")
    channels = _Channels(*(np.concatenate([getattr(o.channels, part) for o in oracles])
                           for part in ("ab", "theta0")))
    frame = frame_inv = None
    if any(oracle.frame is not None for oracle in oracles):
        frame, frame_inv = (
            _block_diagonal([np.eye(o.rank) if o.frame is None else getattr(o, attr)
                             for o in oracles])
            for attr in ("frame", "frame_inv"))
    return CauchyKernelOracle(base, channels, frame, frame_inv)


def conjugated_kernel(oracle: CauchyKernelOracle, frame: np.ndarray) -> CauchyKernelOracle:
    """Kernel of the same bundle presented in a constant change of frame.

    If K is the kernel of chi then frame K frame^{-1} is the kernel of the
    conjugated factor of automorphy; the defining property is preserved
    because the residue I_r is central.  The result has the frame
    frame F of the oracle's F.
    """
    frame = np.asarray(frame, dtype=complex)
    frame_inv = np.linalg.inv(frame)
    if oracle.frame is not None:
        frame, frame_inv = frame @ oracle.frame, oracle.frame_inv @ frame_inv
    return CauchyKernelOracle(oracle.surface, oracle.channels, frame, frame_inv)


def extract_laurent_coeffs(oracle: CauchyKernelOracle, p0) -> np.ndarray:
    """The connection coefficient A at p0, (r, r), or at each point of a
    sequence p0, (N, r, r), from a constant Laurent mode of the kernel.

    K(p0, p0 + t) = -I/t - A + O(t), so A is minus the constant mode of
    K(p0, .), read by laurent_coeffs with one oracle call per circle
    radius over the circles of every point.  A point of a sequence has the
    bits of its one-point call.  A_l = -A is the duality that
    connection_duality_defect measures.

    Raises
    ------
    ExtractionUnstable
        When K(p0, .) shows more than a simple pole at a point
        (HigherOrderPole, naming it).
    """
    P0 = oracle.surface.points(p0)
    r = oracle.rank

    def row(t):   # t is (16, *P0.shape), row-major like P0 broadcast to it
        return oracle(np.broadcast_to(P0, t.shape).ravel(), t.ravel()).reshape(*t.shape, r, r)

    return -laurent_coeffs(row, P0)[1]


def connection_duality_defect(oracle: CauchyKernelOracle, p0):
    """|A + A_l| (Frobenius) at p0, a float, or at each point of a sequence
    p0, an (N,) array, read on one circle.

    K(p0 + t, p0) - K(p0, p0 - t) = A_l + A + O(t): the poles I/t of the two
    terms cancel, so the difference's constant mode on one circle of radius
    5e-3 is A + A_l.  Reading A and A_l apart would add two constant modes
    read under a pole of size 1/t, and so carry their rounding; this reads
    the identity itself.
    """
    P0 = oracle.surface.points(p0)
    r = oracle.rank

    def difference(x):   # x = p0 + t, (16, *P0.shape), row-major like P0 broadcast to it
        at, near = x.ravel(), np.broadcast_to(P0, x.shape).ravel()
        return (oracle(at, near) - oracle(near, near - (at - near))).reshape(*x.shape, r, r)

    out = np.linalg.norm(circle_modes(difference, P0, 5e-3, orders=(0,))[0], axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


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


def _xi_pairing(xi: np.ndarray, d: np.ndarray) -> np.ndarray:
    """xi1 d1 + xi2 d2 per row of the (N, 2) arrays xi and d.

    Each complex product is rounded as a product of two complex numbers is,
    (ac - bd) + (ad + bc) i, where numpy's array product may fuse a
    multiply and an add; so every row has the bits of the scalar formula.
    """
    prod = (xi.real * d.real - xi.imag * d.imag) + 1j * (xi.real * d.imag + xi.imag * d.real)
    return prod[:, 0] + prod[:, 1]


def collection_residual(oracle: CauchyKernelOracle, embedding: EmbeddingPair,
                        p, q, xi):
    """Relative residual of the pole-collection identity.

    For p != q, sum_j (xi1 c_j1 + xi2 c_j2) K(p, x^j) K(x^j, q) must equal
    (xi1 (l1(q) - l1(p)) + xi2 (l2(q) - l2(p))) K(p, q); at p = q the limit
    replaces the coordinate difference with -(xi1 l1' + xi2 l2')(p) I_r.
    p and q are two points and xi a pair (a float), or N points each and an
    (N, 2) xi (an (N,) array of the residuals of the N draws, each with the
    bits of its one-draw call).  The oracle is called twice, on K(p, x^j)
    and K(p, q), then on K(x^j, q), and lambda and lambda' once each, over
    all draws.

    Raises
    ------
    InputError
        If p, q and xi do not hold the same number of draws.
    PointOnExcludedSet
        If a p or q is an embedding pole.
    """
    surface = embedding.surface
    single = not (_is_many(p) or _is_many(q))
    P, Q = (np.atleast_1d(surface.points(x)) for x in (p, q))
    xi = np.asarray(xi, dtype=complex)
    xi = xi[None] if single else xi
    n, m, r = len(P), embedding.m, oracle.rank
    if Q.shape != (n,) or xi.shape != (n, 2):
        raise InputError("p, q and xi must hold one count of draws: "
                         "N points each and an (N, 2) xi")
    if embedding.is_pole(P) or embedding.is_pole(Q):
        raise PointOnExcludedSet("collection identity excludes the embedding poles")
    xs = np.array(embedding.pole_points)
    same = surface.equal(P, Q)
    apart = ~same
    # K(p, x^j) per draw, then K(p, q) per draw with p != q; K(x^j, q)
    from_p = oracle(np.concatenate([np.repeat(P, m), P[apart]]),
                    np.concatenate([np.tile(xs, n), Q[apart]]))
    to_q = oracle(np.tile(xs, n), np.repeat(Q, m)).reshape(n, m, r, r)
    weights = xi[:, :1] * embedding.residues[:, 0] + xi[:, 1:] * embedding.residues[:, 1]
    lhs = (weights[..., None, None] * (from_p[:n * m].reshape(n, m, r, r) @ to_q)).sum(axis=1)
    rhs = np.empty_like(lhs)
    if apart.any():
        lam = embedding.lambda_values(np.concatenate([P[apart], Q[apart]])).reshape(2, -1, 2)
        rhs[apart] = _xi_pairing(xi[apart], lam[1] - lam[0])[:, None, None] * from_p[n * m:]
    if same.any():
        slope = _xi_pairing(xi[same], embedding.lambda_derivs(P[same], order=1))
        rhs[same] = -slope[:, None, None] * np.eye(r, dtype=complex)
    out = rel_residual(lhs, rhs)
    return float(out[0]) if single else out
