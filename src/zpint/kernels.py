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

Every oracle holds its KernelLayout, built once with the oracle from the
layouts of its parts: the characteristic (a, b), theta(0) and place of
every line block, the many functions of parts given by many alone with
their blocks, and the conjugation frames in the order they apply.  Line
kernels share the argument phi(q) - phi(p) and the prime form, so
evaluate_joint sends the line blocks of several requests, read from
their layouts, into one theta pass (theta.theta_rows); the many of a
line, direct-sum or conjugated oracle is its layout's case of one
request.  FrozenRequests fixes one side of some requests to a list of
end points and composes their joint layout from the oracles' layouts
when it is built, so that evaluate_frozen at a batch of moving points
costs one difference, one lattice pass, one divide and one scatter.
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
)
from .theta import (
    ThetaCharacteristic,
    theta_gradient,
    theta_rows,
    theta_with_char,
)

__all__ = [
    "CauchyKernelOracle",
    "ConnectionCoefficients",
    "FrozenRequests",
    "KernelLayout",
    "evaluate_many",
    "evaluate_joint",
    "evaluate_frozen",
    "kernel_grid",
    "genus0_kernel",
    "line_kernel",
    "direct_sum_kernel",
    "conjugated_kernel",
    "extract_laurent_coeffs",
    "line_connection_form",
    "collection_residual",
]


class KernelLayout:
    """Where every block of some kernel requests comes from, for one unit.

    A unit (one point pair of a request, or one moving point of
    FrozenRequests) reads m Abel-Jacobi differences v, one per column, and
    writes its values into a flat block of size complex entries, zero where
    nothing writes.  Request k has the entry outputs[k] = (offset, cols,
    stride, r): its values at the columns cols are the (r, r) matrices at
    offset, offset + stride, ...; a view (o, rank, lo, hi) is the
    [lo:hi, lo:hi] block of the (rank, rank) matrix at o of every column
    of a request.

    Line block i is theta[a_i; b_i](v) / (theta0_i E) at column cols[i],
    with ab[i] = (a_i, b_i), written to entry at[i].  On the torus the odd
    theta of the prime form at every column is summed after the line
    blocks; row_ab holds the characteristics of all summed rows.  others
    holds (many, k, view) for an oracle given by many alone, evaluated at
    request k's pairs, and given the same grouped by many function (one
    call each); frames holds (k, frame, frame_inv, src view, dst view),
    dst = frame src frame_inv, in the order they apply (inner
    conjugations first).  block is false when every request's values are
    one many's values as they come.
    """

    def __init__(self, m, size, lines, others, frames, outputs, torus):
        """lines holds the line blocks as pieces (cols, ab, theta0, at), in
        order, or one empty piece."""
        self.m, self.size = m, size
        self.others, self.frames, self.outputs = others, frames, outputs
        cols, ab, theta0, at = zip(*lines)
        if torus and cols[0].size:
            ab += (_ODD_AB[None].repeat(m, axis=0),)
        self.cols, self.row_ab, self.theta0, self.at = (
            x[0] if len(x) == 1 else np.concatenate(x) for x in (cols, ab, theta0, at))
        self.ab = self.row_ab[:self.cols.size]
        # (1, L), not (L,): numpy's complex product of a (1,) and a (1, 1)
        # array can differ in the last bit from the scalar-times-array one
        self.theta0_row = self.theta0[None]
        self.given, partial = _grouped(others, outputs)
        # a unit needs its block unless each request is one many's values
        self.block = bool(self.cols.size or frames or partial)


_ODD_AB = np.stack([ODD_CHAR.a, ODD_CHAR.b])


def _grouped(others, outputs) -> tuple:
    """(others grouped by many function, whether some block is not all of
    its request).

    A group is (many, the columns of all its pairs in a unit, per block (k,
    view, first column, column count, whole)); whole when the block is all
    of request k (entries have one writer each)."""
    groups, partial = {}, False   # id -> (many, column arrays so far, count, blocks)
    for many, k, view in others:
        _, cols, stride, r = outputs[k]
        whole = stride == r * r and view == (0, r, 0, r)
        partial = partial or not whole
        many, cols_all, count, blocks = groups.get(id(many), (many, (), 0, ()))
        groups[id(many)] = (many, cols_all + (cols,), count + len(cols),
                            blocks + ((k, view, count, len(cols), whole),))
    return tuple((many, cols[0] if len(cols) == 1 else np.concatenate(cols), blocks)
                 for many, cols, _, blocks in groups.values()), partial


_COL0 = np.zeros(1, int)   # an oracle's one column
# the line-block piece (cols, ab, theta0, at) of a layout without line blocks
_NO_LINES = np.empty(0, int), np.empty((0, 2, 0)), np.empty(0, complex), np.empty(0, int)


def _one(surface, size, r, lines=(), others=(), frames=()) -> KernelLayout:
    """An oracle's layout: one request of one column, with line blocks
    (ab, theta0, at)."""
    piece = _NO_LINES
    if lines:
        ab, theta0, at = zip(*lines)
        piece = np.zeros(len(at), int), np.array(ab), np.array(theta0), np.array(at)
    return KernelLayout(1, size, [piece], tuple(others), tuple(frames), ((0, _COL0, size, r),),
                        isinstance(surface, Torus))


def _given_layout(oracle) -> KernelLayout:
    """One block of the oracle's rank, filled by its many (held, not the
    oracle, so that the oracle is not in a reference cycle)."""
    r = oracle.rank
    return _one(oracle.surface, r * r, r, others=((oracle.many, 0, (0, r, 0, r)),))


def _moved(part: KernelLayout, entry, view) -> tuple:
    """part's line blocks, others and frames, with entry(e) for each entry
    and view(v) for each view."""
    lines = zip(part.ab, part.theta0.tolist(), part.at.tolist())
    return ([(ab, t0, entry(e)) for ab, t0, e in lines],
            [(other, 0, view(v)) for other, _, v in part.others],
            [(0, f, fi, view(src), view(dst)) for _, f, fi, src, dst in part.frames])


def _sum_layout(oracles) -> KernelLayout:
    """Parts' layouts on the diagonal of one (R, R) matrix; each part's
    further matrices (conjugated inner values) follow it."""
    R = sum(oracle.rank for oracle in oracles)
    lines, others, frames = [], [], []
    o, extra = 0, R * R
    for oracle in oracles:
        part, r = oracle.layout, oracle.rank

        def entry(e, o=o, r=r, extra=extra):
            return (o + e // r) * R + o + e % r if e < r * r else e - r * r + extra

        def view(v, o=o, r=r, extra=extra):
            at, rank, lo, hi = v
            return (0, R, o + lo, o + hi) if at < r * r else (at - r * r + extra, rank, lo, hi)

        for into, moved in zip((lines, others, frames), _moved(part, entry, view)):
            into += moved
        o, extra = o + r, extra + part.size - r * r
    return _one(oracles[0].surface, extra, R, lines, others, frames)


def _conj_layout(inner, frame, frame_inv) -> KernelLayout:
    """frame K frame^-1: the inner kernel's values after the (r, r) result."""
    part, r = inner.layout, inner.rank
    shift = r * r
    lines, others, frames = _moved(part, lambda e: e + shift, lambda v: (v[0] + shift, *v[1:]))
    frames.append((0, frame, frame_inv, (shift, r, 0, r), (0, r, 0, r)))
    return _one(inner.surface, part.size + shift, r, lines, others, frames)


def _frozen_layout(requests, m, surface) -> KernelLayout:
    """The layout of requests (oracle layout, cols) over units of m
    columns: request k is its oracle's layout at each of its columns, one
    after another."""
    lines, others, frames, outputs = [], [], [], []
    offset = 0
    for k, (part, cols) in enumerate(requests):
        c, n = len(cols), part.cols.size
        if n:
            at = part.at + np.arange(offset, offset + c * part.size, part.size)[:, None]
            lines.append((cols.repeat(n), _tiled(part.ab, c), _tiled(part.theta0, c), at.ravel()))
        others += [(many, k, view) for many, _, view in part.others]
        frames += [(k, *frame) for _, *frame in part.frames]
        outputs.append((offset, cols, part.size, part.outputs[0][3]))
        offset += c * part.size
    return KernelLayout(m, offset, lines or [_NO_LINES], tuple(others),
                        tuple(frames), tuple(outputs), isinstance(surface, Torus))


def _tiled(x, c):
    """x repeated c times along its first axis (x itself when c is 1)."""
    return x if c == 1 else x[None].repeat(c, 0).reshape(c * len(x), *x.shape[1:])


@dataclass(frozen=True, eq=False)
class CauchyKernelOracle:
    """Evaluator contract for an r-by-r Cauchy kernel in the global frame.

    many maps two point arrays of one length N, as made by surface.points,
    to the (N, r, r) values.  Calling the oracle with two point sequences
    of length N gives many on them; with two point-like arguments it gives
    the (r, r) value of the N = 1 case.
    parts holds the summands of a direct sum; bundle holds the flat line
    bundle of a line kernel; inner, frame and frame_inv hold the kernel and
    the constant frame (and its inverse) of a conjugated kernel.  layout,
    built with the oracle, is where evaluate_joint reads its blocks; an
    oracle given by many alone has the layout of one block its many fills.
    """

    rank: int
    surface: Surface
    many: Callable
    bundle: FlatLineBundle | None = None
    parts: tuple = ()
    name: str = ""
    inner: CauchyKernelOracle | None = None
    frame: np.ndarray | None = None
    frame_inv: np.ndarray | None = None
    layout: KernelLayout | None = None

    def __post_init__(self):
        if self.layout is None:   # given by many alone
            object.__setattr__(self, "layout", _given_layout(self))

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

    Every line block of every request, read from the oracles' layouts, is
    a row of one lattice pass (on the torus with the odd theta of the
    prime form); a kernel given by many alone is called once for all its
    requests.  Request i has the bits of evaluate_many(*requests[i]).
    """
    requests = list(requests)
    if not requests:
        return []
    surface = requests[0][0].surface
    units = []
    for oracle, P, Q in requests:
        if not (oracle.surface is surface or surface.same_as(oracle.surface)):
            raise SurfaceMismatch("joint kernel evaluation needs a common surface")
        P, Q = surface.points(P), surface.points(Q)
        if len(P) != len(Q):
            raise ValueError("point arrays differ in length")
        units.append((oracle.layout, P, Q))
    return _pairs(surface, units)


def _pairs(surface, units) -> list:
    """(N, r, r) values of each (layout, P, Q): the layout's request at the pairs."""
    runs = []
    for layout, P, Q in units:
        v = None
        if layout.cols.size:
            v = (surface.abel_jacobi(Q) - surface.abel_jacobi(P))[:, None]
        runs.append((layout, len(P), v, lambda cols, P=P, Q=Q: (P, Q)))
    return [values[0][:, 0] for values in _run(surface, runs)]


def _run(surface, runs) -> list:
    """Each run's request values, from one lattice pass over all line blocks.

    A run is (layout, N, v, pairs): v holds the (N, m, g) differences of
    its N units (None without line blocks), and pairs(cols) gives the point
    arrays (P, Q) of the pairs of every unit at the columns cols, unit by
    unit.  Returns per run the (N, C_k, r, r) values of each request k.
    """
    torus = isinstance(surface, Torus)
    rows, row_ab = [], []
    for layout, n, v, _ in runs:
        if v is not None:   # on the torus the odd theta at every column is at -v
            rows.append(np.concatenate([v[:, layout.cols], -v], axis=1) if torus
                        else v[:, layout.cols])
            row_ab.append(layout.row_ab if n == 1 else np.tile(layout.row_ab, (n, 1, 1)))
    if rows:
        g = surface.genus
        cat = rows[0].reshape(-1, g) if len(rows) == 1 else np.concatenate(
            [z.reshape(-1, g) for z in rows])
        ab = row_ab[0] if len(row_ab) == 1 else np.concatenate(row_ab)
        values = theta_rows(surface.period, ab[:, 0], ab[:, 1], cat)
    blocks, start = [], 0
    for layout, n, v, pairs in runs:
        block = np.zeros((n, layout.size), dtype=complex) if layout.block else None
        if v is not None:
            lines, width = layout.cols.size, len(layout.row_ab)
            part = values[start:start + n * width].reshape(n, width)
            start += part.size
            if torus:
                e = surface.prime_form_from_odd_theta(part[:, lines:])
            else:
                P, Q = pairs(np.arange(layout.m))
                e = surface.prime_form(Q, P).reshape(n, layout.m)
            block[:, layout.at] = part[:, :lines] / (layout.theta0_row * e[:, layout.cols])
        blocks.append(block)
    whole = _fill_others(runs, blocks)
    for (layout, *_), block in zip(runs, blocks):
        for k, frame, frame_inv, src, dst in layout.frames:
            out = layout.outputs[k]
            _view(block, out, dst)[...] = frame @ _view(block, out, src) @ frame_inv
    return [[whole[s, k] if (s, k) in whole else _view(block, out, (0, out[3], 0, out[3]))
             for k, out in enumerate(layout.outputs)]
            for s, ((layout, *_), block) in enumerate(zip(runs, blocks))]


def _fill_others(runs, blocks) -> dict:
    """Write the blocks of oracles given by many alone, one call per many
    function over the pairs of all its blocks, unit by unit within a run.
    Returns {(run, k): values} for each request k that one such block is
    all of; those values are not copied into the block."""
    calls = {}
    for s, (layout, *_) in enumerate(runs):
        for many, cols, blocks_of in layout.given:
            calls.setdefault(id(many), (many, []))[1].append((s, cols, blocks_of))
    whole = {}
    for many, targets in calls.values():
        if len(targets) == 1:
            s, cols, _ = targets[0]
            values = many(*runs[s][3](cols))
        else:
            P, Q = zip(*(runs[s][3](cols) for s, cols, _ in targets))
            values = many(np.concatenate(P), np.concatenate(Q))
        start = 0
        for s, cols, blocks_of in targets:
            n = runs[s][1]
            chunk = values[start:start + n * len(cols)].reshape(n, len(cols), *values.shape[1:])
            start += n * len(cols)
            for k, view, at, c, is_whole in blocks_of:
                if is_whole:
                    whole[s, k] = chunk[:, at:at + c]
                else:
                    _view(blocks[s], runs[s][0].outputs[k], view)[...] = chunk[:, at:at + c]
    return whole


def _view(block, output, view) -> np.ndarray:
    """The (N, C, hi - lo, hi - lo) view of block at view, in request output."""
    offset, cols, stride, r = output
    at, rank, lo, hi = view
    n, c = len(block), len(cols)
    area = block[:, offset:offset + c * stride]
    if stride == rank * rank and hi - lo == rank:   # whole matrices, one after another
        return area.reshape(n, c, rank, rank)
    area = area.reshape(n, c, stride)
    return area[:, :, at:at + rank * rank].reshape(n, c, rank, rank)[:, :, lo:hi, lo:hi]


class FrozenRequests:
    """Kernel requests from one moving point to fixed end points.

    Request k is the oracle of requests[k] = (oracle, cols) at the pairs
    (p, ends[c]) for c in cols, or (ends[c], p) when point_first is false.
    Their joint layout is composed here from the oracles' layouts, so that
    evaluate_frozen at a batch of N points is one difference ends - p
    (separation), one lattice pass, one divide and one scatter.
    """

    def __init__(self, surface: Surface, requests, ends, point_first: bool):
        self.surface = surface
        self.ends = surface.points(ends)
        self.point_first = point_first
        self.layout = _frozen_layout([(oracle.layout, np.asarray(cols))
                                      for oracle, cols in requests], len(self.ends), surface)

    def separation(self, P):
        """(v, dist) at the points P: dist[i, j] is the distance of P[i] and
        ends[j], and v the (N, m, g) differences AJ(ends[j]) - AJ(P[i])."""
        return self.surface.separation(P, self.ends)


def evaluate_frozen(frozen: FrozenRequests, P, v) -> list:
    """(N, C_k, r, r) values of each request of frozen at the points P,
    with v from frozen.separation(P).

    A module function, not a method, so that perfbench's span tracer,
    which wraps public functions, counts this pass under kernels.
    """
    first, ends = frozen.point_first, frozen.ends
    if not frozen.layout.cols.size:
        v = None   # no line blocks
    elif not first:
        v = -v

    def pairs(cols):
        moving, fixed = P.repeat(len(cols)), ends[cols]
        if len(P) != 1:
            fixed = np.tile(fixed, len(P))
        return (moving, fixed) if first else (fixed, moving)

    return _run(frozen.surface, [(frozen.layout, len(P), v, pairs)])[0]


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
    layout = _one(surface, 1, 1, [(np.stack([bundle.a, bundle.b]), theta0, 0)])
    return _structured(1, surface, "line", layout, bundle=bundle)


def _structured(rank: int, surface: Surface, name: str, layout: KernelLayout,
                **structure) -> CauchyKernelOracle:
    """An oracle whose many is its layout's one request (the closure holds
    the layout, not the oracle, so the oracle is freed when dropped)."""
    return CauchyKernelOracle(rank, surface, lambda P, Q: _pairs(surface, [(layout, P, Q)])[0],
                              name=name, layout=layout, **structure)


def direct_sum_kernel(oracles) -> CauchyKernelOracle:
    """Block-diagonal kernel of a direct sum of bundles on one surface.

    Its layout puts the parts' layouts on the diagonal, so its line-kernel
    parts share its one theta pass; any other part is evaluated on its own.
    """
    oracles = tuple(oracles)
    if not oracles:
        raise ValueError("need at least one summand")
    base = oracles[0].surface
    for oracle in oracles[1:]:
        if not base.same_as(oracle.surface):
            raise SurfaceMismatch("direct sum needs a common surface")
    return _structured(sum(oracle.rank for oracle in oracles), base, "direct_sum",
                       _sum_layout(oracles), parts=oracles)


def conjugated_kernel(oracle: CauchyKernelOracle, frame: np.ndarray) -> CauchyKernelOracle:
    """Kernel of the same bundle presented in a constant change of frame.

    If K is the kernel of chi then frame K frame^{-1} is the kernel of the
    conjugated factor of automorphy; the defining property is preserved
    because the residue I_r is central.
    """
    frame = np.asarray(frame, dtype=complex)
    frame_inv = np.linalg.inv(frame)
    return _structured(oracle.rank, oracle.surface, "conjugated",
                       _conj_layout(oracle, frame, frame_inv), inner=oracle, frame=frame,
                       frame_inv=frame_inv)


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
