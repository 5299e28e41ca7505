"""Zero-pole interpolation for bundle maps, in partial-fraction form.

The data set prescribes zeros lambda^i with null row vectors x_{i,alpha},
poles mu^j with pole vectors u_{j,beta}, and coupling numbers rho at
coincident zero/pole points.  The coupling matrix

    Gamma[(i,alpha), (j,beta)] = -x_{i,alpha} K(chi~; lambda^i, mu^j) u_{j,beta}
                                  (or -rho_{ij,alpha beta} on coincidence)

governs solvability: a solution with value Q at a base point q exists
exactly when Gamma is square and invertible and the residue conditions at
the poles of K(chi; . , q)^{-1} hold, and then

    T(p)      = [K(chi~; p, q) + K_mu_u(p) Gamma^{-1} K_x_lam(q)] Q K(chi; p, q)^{-1},
    T(p)^{-1} = K(chi; q, p)^{-1} Q^{-1} [K(chi~; q, p) + K_mu_u(q) Gamma^{-1} K_x_lam(p)].

The zeros and poles are InterpolationNode (a point and its vectors as
rows).  A data set validates them once on construction and stacks their
vector rows, NodeRows per side, which Gamma and the interpolant weights
read; conint.ConintDataSet shares the node type, the validation and the
layout, at the width of its pencil.

There is one interpolant orientation.  Transposing T^{-1} through the
kernel duality K(chi*; p, q)^T = -K(chi; q, p) gives the solution formula
of the swapped problem: zeros and poles exchanged (u the null rows, x the
pole rows), couplings -rho^T, both kernels dual and base value Q^-T, whose
Gamma is -Gamma^T.  So build_inverse is build_solution's evaluator on the
swapped problem, with its values transposed.

The interpolant evaluates arrays of points (BundleMapEvaluator.many), and
a call at one point is the one-point case of the same layers, with no
batch axis and the bits of its batch row.  Both kernels are in the normal
form F diag(k_1, ..., k_r) F^-1 of kernels, so K(chi; p, q)^-1 is
F diag(1/k) F^-1 and the kernel sum is linear in the channels of
K(chi~); the weights, Q and both frames are folded at build time into
one matrix.  The kernels are read only at pairs (p, e) with ends fixed at
build time, so on the torus the build also freezes the Fourier
coefficients of every theta row at the ends (kernels.end_plan, a
theta.ThetaTable).  A batch of points, or one point, then costs one
finiteness check (surface.points, or surface.point), one distance test
against the ends (on the torus the plan's lower bound from the sorted
lattice offsets of the ends, EndPlan.clears; where it does not clear, and
on the sphere, Surface.apart on the differences p - e), one
kernels.evaluate_channels call on the points (on the torus one read of
the table, no lattice pass; the differences, where the test formed them,
for the sphere's channels), one matmul and one divide by the channels of
K(chi).

An interpolant has one plan, of the ends [q, mu_1, ...] of its kernel
sum, and reads Gamma and its base column from the channels end_plan
returns with it at the zero points.  On the torus those come out of the
walk that builds the table, so a torus build makes one theta table, reads
no table rows and makes no lattice pass.  A kernel without a frame
(F = I) meets no product with I in the build: Gamma and its base column
are contracted over its channels and the fold is written in its block
layout, with the bits of the composed route.  build_gamma, one
kernels.kernel_grid over the node points, is the reference route.

For flat line bundles everything is explicit in theta functions; the
multiplicative and partial-fraction forms of the scalar solution agree,
and equating them for a single zero-pole pair is exactly the trisecant
identity of the classical theory, whose three-term residual this module
also evaluates directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDenominator,
    InputError,
    NecessityViolated,
    NonConvergent,
    NotSquare,
    PointOnExcludedSet,
    PoleLocationFailure,
    SingularMatrix,
)
from .kernels import (
    CauchyKernelOracle,
    _block_form,
    _compose,
    end_plan,
    evaluate_channels,
    extract_laurent_coeffs,
    kernel_grid,
    line_kernel,
)
from .numutil import (
    EPS_GUARD,
    checked_cond,
    circle_modes,
    principal_angle_gap,
    rel_residual,
    svd_cond,
)
from .surface import (
    POINT_TOL,
    FlatLineBundle,
    Surface,
    _is_many,
    lattice_coords,
    lattice_distance,
    lattice_reduce,
    point,
    prime_form,
)
from .theta import ThetaCharacteristic, theta_many, theta_with_char

__all__ = [
    "InterpolationNode",
    "ZeroNode",
    "PoleNode",
    "InterpolationDataSet",
    "NodeRows",
    "coupling_table",
    "GammaMatrix",
    "BundleMapEvaluator",
    "build_gamma",
    "build_solution",
    "build_inverse",
    "residue_condition_check",
    "verify_solution",
    "forward_couplings",
    "divisor_characteristic",
    "scalar_multiplicative",
    "scalar_partial_fraction",
    "fay_residual",
    "matrix_fay_residual",
    "full_rank_multiplicative",
]

# A point coordinate up to 2^1021 gives, against ends within it, differences
# p - e, gaps (hypot) and channels 1 / (p - e) (numpy's scaled complex divide)
# that do not overflow; past it an interpolant evaluates under ignored
# overflow and invalid flags, so that the point meets its typed checks alone
_EDGE = 2.0 ** 1021


@dataclass(frozen=True, eq=False)
class InterpolationNode:
    """Prescribed zero or pole: point and vectors stored as rows.

    At a zero the rows are null row vectors, at a pole pole vectors, each
    of the data set's width: the rank r of an InterpolationDataSet, the
    pencil size M of a conint.ConintDataSet.  The data set holding the
    node validates the vectors.
    """

    point: complex
    vectors: np.ndarray

    def __post_init__(self):
        """InputError naming the node for vectors that are not an array of
        numbers (None, text, ragged rows)."""
        object.__setattr__(self, "point", point(self.point))
        if self.vectors is None:
            raise InputError(f"the node at {self.point!r} has no vectors")
        try:
            v = np.atleast_2d(np.asarray(self.vectors, dtype=complex))
        except (TypeError, ValueError) as exc:
            raise InputError(f"vectors at the node {self.point!r} are not an array of "
                             f"numbers: {exc}") from exc
        object.__setattr__(self, "vectors", v)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


ZeroNode = PoleNode = InterpolationNode


def coupling_table(couplings, zeros, poles, pairs) -> dict:
    """Couplings given exactly at the coincident pairs, each as a (t_i, s_j)
    array; InputError naming the first coincident pair without one."""
    given = set(map(tuple, couplings))
    for i, j in pairs:
        if (i, j) not in given:
            raise InputError(f"zero {i} and pole {j} coincide at {zeros[i].point!r} with no "
                             "coupling: zeros and poles must be disjoint or coupled")
    if given != set(pairs):
        raise InputError("couplings must be given exactly at coincident pairs")
    try:
        return {
            (i, j): np.asarray(couplings[(i, j)], dtype=complex).reshape(
                zeros[i].count, poles[j].count
            )
            for (i, j) in pairs
        }
    except (TypeError, ValueError) as exc:
        raise InputError(f"a coupling does not match its nodes: {exc}") from exc


@dataclass(frozen=True, eq=False)
class NodeRows:
    """The vector rows of one side's nodes, stacked once per data set:
    vectors (rows, width), node_of (the node of each row), blocks (the
    (start, stop) rows of each node) and points (the point of each node)."""

    vectors: np.ndarray
    node_of: np.ndarray
    blocks: tuple
    points: np.ndarray


def _node_rows(nodes, width: int) -> NodeRows:
    """Stack the vectors of nodes; InputError unless every node has a
    (count >= 1, width) array of finite, nonzero, independent vectors."""
    vectors = [node.vectors for node in nodes]
    for v in vectors:
        if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] != width:
            raise InputError(f"vectors at a node form a {v.shape} array, not (count, {width})")
    rows = np.concatenate([np.empty((0, width), dtype=complex), *vectors])
    if not np.isfinite(rows).all():
        raise InputError("interpolation vectors must be finite")
    if len(rows) and np.linalg.norm(rows, axis=1).min() == 0.0:
        raise InputError("interpolation vectors must be nonzero")
    for v in vectors:   # one nonzero row is independent
        if len(v) > 1:
            s = np.linalg.svd(v, compute_uv=False)
            if len(s) < len(v) or s[-1] <= 1e-10 * s[0]:
                raise InputError("vector set at a node is numerically dependent")
    counts = [len(v) for v in vectors]
    stops = list(itertools.accumulate(counts))
    return NodeRows(rows, np.repeat(np.arange(len(nodes)), counts),
                    tuple(zip([0, *stops], stops)),
                    np.array([node.point for node in nodes], dtype=complex))


@dataclass(frozen=True, eq=False)
class _NodeData:
    """Zeros and poles with couplings at their coincident points: the
    layout the abstract InterpolationDataSet and the concrete
    conint.ConintDataSet share, validated once per data set.

    The subclass declares surface, zeros, poles and couplings and calls
    _lay_out(width) first in __post_init__.  Afterwards zeros and poles are
    tuples of InterpolationNode, zero_rows and pole_rows their NodeRows,
    and couplings maps exactly the coincident pairs (i, j), in row-major
    order, to (t_i, s_j) arrays.  genus0.Genus0Problem is the same layout
    on the sphere with no couplings, so there a zero on a pole is refused.
    """

    zero_rows: NodeRows = field(init=False, repr=False)
    pole_rows: NodeRows = field(init=False, repr=False)

    def _lay_out(self, width: int) -> None:
        """InputError, in this order, for a node that is not a point and its
        vectors (each node as it is made, zeros first), bad vectors
        (_node_rows, zeros first), a repeated zero, a repeated pole, a
        coincident (zero, pole) pair without a coupling (coupling_table) or
        couplings off the coincident pairs."""
        try:
            zeros, poles = (tuple(node if isinstance(node, InterpolationNode)
                                  else InterpolationNode(*node) for node in nodes)
                            for nodes in (self.zeros, self.poles))
        except TypeError as exc:   # not a sequence of (point, vectors) pairs
            raise InputError(f"a node is a point and its vectors: {exc}") from exc
        zero_rows, pole_rows = _node_rows(zeros, width), _node_rows(poles, width)
        # one coincidence test over all nodes: pairs within a side are
        # repeats, pairs across are the coincident (zero, pole) pairs
        n, pts = len(zeros), [node.point for node in (*zeros, *poles)]
        hits = self.surface.coincidences(pts, pts)
        for i, j in hits:
            if i != j and (i < n) == (j < n):
                raise InputError(f"{'zero' if i < n else 'pole'} points must be distinct")
        pairs = [(i, j - n) for i, j in hits if i < n <= j]
        laid_out = dict(zeros=zeros, poles=poles, zero_rows=zero_rows, pole_rows=pole_rows,
                        couplings=coupling_table(self.couplings, zeros, poles, pairs))
        for name, value in laid_out.items():
            object.__setattr__(self, name, value)

    def coincident_pairs(self) -> list[tuple[int, int]]:
        return list(self.couplings)

    def write_couplings(self, matrix: np.ndarray) -> np.ndarray:
        """Write -rho into the coincident blocks of a matrix over the zero
        rows and pole rows, in place; returns the mask of those entries."""
        mask = np.zeros(matrix.shape, dtype=bool)
        for (i, j), rho in self.couplings.items():
            block = slice(*self.zero_rows.blocks[i]), slice(*self.pole_rows.blocks[j])
            matrix[block] = -rho
            mask[block] = True
        return mask


@dataclass(frozen=True, eq=False)
class InterpolationDataSet(_NodeData):
    """Zero/pole data of rank r with couplings at coincident points.

    couplings maps (zero index, pole index) to a (t_i, s_j) array for the
    pairs whose points coincide on the surface.  Validation (_NodeData)
    enforces distinctness within each list and finite, nonzero, per-point
    independent vectors of length r, and here the compatibility x u = 0
    at every coincidence.
    """

    surface: Surface
    rank: int
    zeros: tuple
    poles: tuple
    couplings: dict = field(default_factory=dict)

    def __post_init__(self):
        self._lay_out(self.rank)
        for (i, j) in self.coincident_pairs():
            x = self.zeros[i].vectors
            u = self.poles[j].vectors
            pairing = x @ u.T
            scale = max(np.abs(x).max() * np.abs(u).max(), 1.0)
            if float(np.abs(pairing).max()) > 1e-12 * scale:
                raise InputError("compatibility x.u = 0 fails at a coincidence")


@dataclass(frozen=True, eq=False)
class GammaMatrix:
    """Block coupling matrix over the vector rows of the zeros and poles
    (data.zero_rows and pole_rows).  An interpolant's Gamma also holds, in
    at_base, the kernel values K_x_lam(q) = [x_a K(chi~; lambda_a, q)]_a,
    (A, r), at its base point q on the null rows, read with Gamma from the
    interpolant's one plan; build_gamma leaves it None."""

    matrix: np.ndarray
    at_base: np.ndarray | None = None

    def condition(self) -> float:
        return svd_cond(self.matrix)


def _assemble(data, gamma: np.ndarray, at_base=None) -> GammaMatrix:
    """The GammaMatrix of the kernel part gamma (A, B) over the zero rows and
    pole rows, with -rho written into the coincident blocks.

    Raises
    ------
    NonConvergent
        If an entry of Gamma or of at_base is not finite (a kernel value
        overflowed).
    """
    data.write_couplings(gamma)
    if not (np.isfinite(gamma).all() and (at_base is None or np.isfinite(at_base).all())):
        raise NonConvergent("coupling matrix has a non-finite kernel value")
    return GammaMatrix(gamma, at_base)


def build_gamma(data: InterpolationDataSet, oracle_tilde: CauchyKernelOracle) -> GammaMatrix:
    """Assemble the coupling matrix from the output-bundle kernel.

    Entries are -x K(chi~; lambda^i, mu^j) u away from coincidences and
    -rho at them; squareness and conditioning are judged downstream.  The
    kernel values are one kernel_grid over the node points, expanded to the
    vector rows.  This is the reference route; an interpolant reads the
    same Gamma from the theta table of its ends (_plan_gamma).
    """
    kvals = kernel_grid(oracle_tilde, data.zero_rows.points, data.pole_rows.points)
    kvals = kvals[np.ix_(data.zero_rows.node_of, data.pole_rows.node_of)]
    return _assemble(data, -np.einsum("ak,abkl,bl->ab", data.zero_rows.vectors, kvals,
                                      data.pole_rows.vectors))


def _end_kernels(d: np.ndarray, m: int, oracle_tilde) -> np.ndarray:
    """K(chi~; p, e_j), (N, m, r, r), from the (N, L) channels d of a plan
    over m ends read at N points: the channels of chi~ composed with its
    frame."""
    r = oracle_tilde.rank
    return _compose(d[:, :m * r].reshape(-1, r), oracle_tilde.frame,
                    oracle_tilde.frame_inv).reshape(len(d), m, r, r)


def _plan_gamma(data, d, oracle_tilde) -> GammaMatrix:
    """Gamma and at_base from the tilde channels d of the interpolant's one
    plan at the zero points, as end_plan returns them (on the torus out of
    the walk that builds the plan's table): K(chi~; lambda, mu) and
    K(chi~; lambda, q).

    A coincident (zero, pole) pair divides by a vanishing prime form: the
    channels of the pole's end columns are left zero, as kernel_grid leaves
    them.  Without a frame, K(chi~) is diagonal, and Gamma and at_base are
    contracted over the channels; the zero products this skips change no
    bit.  On the sphere and past theta.MAX_TABLE_IM every value has the
    bits of build_gamma's.
    """
    zeros, poles, r = data.zero_rows, data.pole_rows, data.rank
    for at, end in data.couplings:   # the columns of the pole's ends, 1 + its rows
        start, stop = poles.blocks[end]
        d[at, (1 + start) * r:(1 + stop) * r] = 0.0
    m = d.shape[1] // r
    if oracle_tilde.frame is None:   # K(chi~) is diagonal: contract over its channels
        kvals = d.reshape(len(d), m, r)[zeros.node_of]
        spec, at_base = "ak,abk,bk->ab", "ak,ak->ak"
    else:
        kvals = _end_kernels(d, m, oracle_tilde)[zeros.node_of]
        spec, at_base = "ak,abkl,bl->ab", "ak,akl->al"
    grid, base = kvals[:, 1:], kvals[:, 0]
    return _assemble(data, -np.einsum(spec, zeros.vectors, grid, poles.vectors),
                     np.einsum(at_base, zeros.vectors, base))


class BundleMapEvaluator:
    """Bundle map with a fixed base value T(q) = Q, over arrays of points.

    many(P) gives the values at a sequence of points, shape (N, r, r); a
    call T(p) gives the (r, r) value at one point, and a call on a
    sequence is many.  The value at q is Q.  T has poles at the pole
    nodes, where T and many raise.

    The kernel sum of a point p reads K(chi~) at the pairs (p, e) with the
    ends [q, the pole of each pole vector], with the weights V_0 = I and
    V_j = outer(left_j, right_j) of _weights (kept in weights).  With
    K(chi~) = F~ diag(d_j) F~^-1 at end j and K(chi) = F diag(c) F^-1,

        T(p) = F~ [sum_j diag(d_j) F~^-1 V_j Q F] diag(1/c) F^-1,

    so everything but the channels d and c is folded at build time into
    one (m r, r r) matrix, and a point's values are its m r channels of
    K(chi~) times that matrix, divided by the channels of K(chi).

    The channels come from kernels.end_plan, built here with the rest: on
    the torus a frozen theta.ThetaTable of the ends (up to
    theta.MAX_TABLE_IM), so a point reads its theta rows from the table,
    with p reduced by the lattice and the channels' multipliers, instead of
    summing a lattice; past MAX_TABLE_IM, and on the sphere, the oracles'
    channel pass.  It is the only plan: the build reads Gamma and its base
    column from the channels end_plan returns with it at the zero points
    (_plan_gamma), on the torus rows of the walk that builds the table, and
    makes no lattice pass and no table read.  A frame that is None (F = I)
    is no product: the fold of a frame-free chi~ is written in its block
    layout.

    A call at one point is the one-point case of the same layers, with no
    batch axis: p is checked once (surface.point), tested against the ends
    (EndPlan.clears, then Surface.apart on d = p - ends where that does
    not clear), and its (L,) channels are read by evaluate_channels, which
    on the torus reduces p by the lattice once, in Python scalars
    (theta_table_rows); _values tests and folds them with no leading axis.
    A point the distance test does not clear (q, or a pole) enters the
    rest of many's checked body (_near) as an array of one, which answers
    q with Q and refuses a pole.  The one-point case runs the arithmetic
    of a batch row on the same numbers, and numpy runs stacked matmuls
    slice by slice, so T.many(P)[i] equals T(P[i]) bit for bit and every
    point raises the same error, with the same message, alone and in a
    batch.

    A point costs one check, the distance test, its channel read, one
    matmul and one divide.  On the torus the distance test is the plan's
    bound: one bisect of Im p / Im(tau) mod 1 among the ends' sorted
    offsets, less a rounding slack (EndPlan.clears), which clears a
    point only where every gap does; up to MAX_TABLE_IM the channels are
    then read from the table at p, and no difference p - e is formed.
    Only where the bound does not clear, and always on the sphere, is
    d = p - e formed, in that orientation (the one of genus0 and
    kernel_grid), once: Surface.apart reads it, whose gap is symmetric in
    d, and evaluate_channels reads it too (on the sphere its channels are
    1.0 / d, past MAX_TABLE_IM the channel pass reads -d; it forms d
    itself for a point the bound cleared there).  A point with a
    coordinate past _EDGE (2^1021) is the one-point case of many, which
    evaluates it with numpy's overflow and invalid flags ignored; below it
    no flag is touched.  On the torus a point also tests K(chi) for a
    pole of its inverse (a tiny channel against the channels' scale): at
    one point over its r channels as Python floats, in a batch over the
    batch's extremes first and row by row only when those do not clear
    it.  On the sphere every channel is 1/(p - q), which vanishes at no
    p != q, so no such test runs there; only a channel that rounds to 0,
    at |p - q| near the largest double, is refused.

    Raises InputError for a kernel whose rank is not the data's, and
    NotSquare or SingularMatrix for a Gamma that is not square and well
    conditioned.
    """

    def __init__(self, data, q, Q, oracle_chi, oracle_tilde):
        if oracle_chi.rank != data.rank or oracle_tilde.rank != data.rank:
            raise InputError(f"kernels of rank {oracle_chi.rank} and {oracle_tilde.rank} "
                             f"for data of rank {data.rank}")
        self.data = data
        self.q = q
        self.Q = Q
        self.oracle_chi = oracle_chi
        self.oracle_tilde = oracle_tilde
        poles = data.pole_rows
        self._plan, at_zeros = end_plan(data.surface, oracle_tilde.channels,
                                        oracle_chi.channels,
                                        np.concatenate([[q], poles.points[poles.node_of]]),
                                        data.zero_rows.points)
        self.gamma = gamma = _plan_gamma(data, at_zeros, oracle_tilde)
        checked_cond(gamma.matrix, "coupling matrix")
        m, r = len(self._plan.ends), self.rank
        self.weights = left, right = _weights(data, gamma)
        f_t = oracle_tilde.frame
        # a V_j b for a, b = F~^-1, Q F, from the factors of V_j; a frame
        # that is None (I) is no product
        a, b = oracle_tilde.frame_inv, _times(Q, oracle_chi.frame)
        inner = np.concatenate([_times(a, b)[None],
                                (left if a is None else left @ a.T)[:, :, None]
                                * _times(right, b)[:, None, :]])
        if f_t is None:   # the fold's (j, k, a, l) block is delta_ak inner[j, k, l]
            fold = np.zeros((m, r, r, r), dtype=complex)
            k = np.arange(r)
            fold[:, k, k] = inner
        else:
            fold = np.einsum("ak,jkl->jkal", f_t, inner)
        self._fold = fold.reshape(m * r, r * r)

    def many(self, P) -> np.ndarray:
        """Values at the points P, shape (N, r, r).

        A batch with a coordinate past _EDGE is evaluated with numpy's
        overflow and invalid flags ignored, so that the typed error below
        is all it raises there.

        Raises
        ------
        InputError
            If a point of P is not finite.
        PointOnExcludedSet
            If a point of P is a pole node.
        SingularMatrix
            If a point of P is a pole of the inverse kernel factor (on the
            torus), or so far from q that 1/(p - q) rounds to 0 (on the
            sphere).
        """
        P = self.data.surface.points(P)
        if P.size and max(np.abs(P.real).max(), np.abs(P.imag).max()) > _EDGE:
            with np.errstate(over="ignore", invalid="ignore"):
                return self._at(P)
        return self._at(P)

    def __call__(self, p) -> np.ndarray:
        if _is_many(p):
            return self.many(p)
        p = point(p)
        if abs(p.real) > _EDGE or abs(p.imag) > _EDGE:
            return self.many([p])[0]
        if self._plan.clears(p):
            return self._orient(self._values(p))
        d = p - self._plan.ends
        if self.data.surface.apart(d):
            return self._orient(self._values(p, d))
        return self._near(np.array([p]), d[None])[0]

    @property
    def rank(self) -> int:
        return self.Q.shape[0]

    def _at(self, P) -> np.ndarray:
        """many at the checked point array P: one distance test against
        the ends (the plan's bound, then Surface.apart), then the values."""
        if self._plan.clears(P):
            return self._orient(self._values(P))
        d = P[:, None] - self._plan.ends
        if self.data.surface.apart(d):
            return self._orient(self._values(P, d))
        return self._near(P, d)

    def _near(self, P, d) -> np.ndarray:
        """many at the checked point array P whose (N, m) differences d =
        p - e from the ends Surface.apart did not clear: Q at q,
        PointOnExcludedSet at a pole, the values elsewhere."""
        hits = self.data.surface.gap(d) <= POINT_TOL
        on_pole = hits[:, 1:].any(axis=1)
        if on_pole.any():
            where = point(P[on_pole.argmax()])
            raise PointOnExcludedSet(f"the interpolant has a pole at p = {where!r}")
        at_q = hits[:, 0]
        out = np.empty((len(P), self.rank, self.rank), dtype=complex)
        out[at_q] = self.Q
        if not at_q.all():
            off = ~at_q
            out[off] = self._values(P[off], d[off])
        return self._orient(out)

    def _values(self, P, d=None):
        """The values at the checked point array P clear of the ends, or at
        one such point, a complex P, with no batch axis: the same bits.  d
        is their differences p - e from the ends where the distance test
        formed them, as evaluate_channels reads them, or None."""
        r = self.rank
        channels = evaluate_channels(self.data.surface, self._plan, P, d)
        chi = channels[..., -r:]
        singular = None
        if self.data.surface.genus:
            # K(chi) = F diag(c) F^-1 vanishes where its inverse has poles and
            # is O(1) or larger elsewhere, so a tiny channel against a unit
            # scale flags a point at (or next to) such a pole; the global
            # extremes clear every row at once, and the row-wise flags are
            # built only when they do not
            size = np.abs(chi)
            if chi.ndim == 1:   # one point: its r sizes as Python floats, the
                size = size.tolist()   # same test at a fraction of two reductions
                if not min(size) > 1e-10 * max(1.0, max(size)):
                    singular = True
            elif size.size and not size.min() > 1e-10 * max(1.0, size.max()):
                flags = size.min(axis=1) <= 1e-10 * np.maximum(1.0, size.max(axis=1))
                singular = flags if flags.any() else None
        elif np.count_nonzero(chi) < chi.size:   # a fraction of chi.all()'s cost
            # on the sphere every channel is 1/(p - q), which vanishes nowhere
            # (many has answered p at q); it rounds to 0 only at |p - q| near
            # the largest double, where the value would be 0 / 0
            singular = ~chi.all(axis=-1)
        if singular is not None:
            where = point(np.reshape(P, -1)[int(np.argmax(singular))])
            raise SingularMatrix(f"kernel value numerically singular at p = {where!r}")
        values = ((channels[..., None, :-r] @ self._fold).reshape(*chi.shape[:-1], r, r)
                  / chi[..., None, :])
        frame = self.oracle_chi.frame_inv
        return values if frame is None else values @ frame

    def _orient(self, values):
        """values (..., r, r) as this interpolant gives them: as they are."""
        return values


class _Transposed(BundleMapEvaluator):
    """A BundleMapEvaluator whose values are transposed: build_inverse's
    T^{-1}, the transpose of the swapped problem's solution."""

    def _orient(self, values):
        return values.swapaxes(-1, -2)


def _times(x, y):
    """x @ y, with None standing for I (so no product with I is formed)."""
    return y if x is None else x if y is None else x @ y


def _base(data, q, Q) -> tuple:
    """q as a point and Q as an (r, r) array; InputError for a Q that is
    not r^2 finite numbers, PointOnExcludedSet for q on a node,
    SingularMatrix for a singular Q."""
    q, r = point(q), data.rank
    try:
        Q = np.asarray(Q, dtype=complex).reshape(r, r)
    except (TypeError, ValueError) as exc:
        raise InputError(f"base value Q is not {r}x{r} numbers: {exc}") from exc
    if not np.isfinite(Q).all():
        raise InputError("base value Q must be finite")
    if np.any(data.surface.equal(q, np.concatenate([data.zero_rows.points,
                                                    data.pole_rows.points]))):
        raise PointOnExcludedSet(f"base point {q!r} hits a node")
    checked_cond(Q, "base value Q")
    return q, Q


def _weights(data, gamma) -> tuple:
    """The weights of an interpolant's kernel sum, one (r, r) matrix V_j per
    end of the plan: V_0 = I and V_j = outer(left_j, right_j) for the (vector
    count, r) factors (left, right) returned.

    With K_mu_u(p) = [K(chi~; p, mu_b) u_b]_b over the pole vectors and
    K_x_lam(p) = [x_a K(chi~; lambda_a, p)]_a over the null vectors, T(p)'s
    sum K(chi~; p, q) + K_mu_u(p) Gamma^-1 K_x_lam(q) is sum_j K(chi~; p,
    e_j) V_j over [q, mu_1, ..., mu_B], with V_b = outer(u_b, c_b) and c =
    Gamma^-1 K_x_lam(q) (gamma.at_base).
    """
    return data.pole_rows.vectors, np.linalg.solve(gamma.matrix, gamma.at_base)


def _swapped(data: InterpolationDataSet) -> InterpolationDataSet:
    """The swapped problem of data (an InterpolationDataSet or a
    genus0.Genus0Problem): zeros and poles exchanged, so that u are the null
    rows and x the pole rows, with the couplings -rho^T at (j, i).  It is
    laid out from the validated data, with no second validation."""
    swapped = object.__new__(type(data))
    couplings = sorted(((j, i), -rho.T) for (i, j), rho in data.couplings.items())
    for name, value in dict(surface=data.surface, rank=data.rank, zeros=data.poles,
                            poles=data.zeros, zero_rows=data.pole_rows,
                            pole_rows=data.zero_rows, couplings=dict(couplings)).items():
        object.__setattr__(swapped, name, value)
    return swapped


def build_solution(data: InterpolationDataSet, q, Q,
                   oracle_chi: CauchyKernelOracle,
                   oracle_tilde: CauchyKernelOracle) -> BundleMapEvaluator:
    """Interpolant with value Q at q, in partial-fraction form."""
    q, Q = _base(data, q, Q)
    return BundleMapEvaluator(data, q, Q, oracle_chi, oracle_tilde)


def build_inverse(data: InterpolationDataSet, q, Q,
                  oracle_chi: CauchyKernelOracle,
                  oracle_tilde: CauchyKernelOracle) -> BundleMapEvaluator:
    """Inverse interpolant: T^{-1} with value Q^{-1} at q.

    T^{-1}(p) = K(chi; q, p)^{-1} Q^{-1}
                [K(chi~; q, p) + K_mu_u(q) Gamma^{-1} K_x_lam(p)]

    is, through the kernel duality K(chi*; p, q)^T = -K(chi; q, p), the
    transpose of the solution of the swapped problem: zeros and poles
    exchanged, couplings -rho^T, both kernels dual and base value Q^-T.
    So this is build_solution's evaluator on that problem, with its values
    transposed; its data, Q, kernels and Gamma (-Gamma^T) are the swapped
    problem's.  Q is checked once, on the given data.  Raises as
    build_solution.
    """
    q, Q = _base(data, q, Q)
    return _Transposed(_swapped(data), q, np.linalg.inv(Q).T, oracle_chi.dual(),
                       oracle_tilde.dual())


def _inverse_kernel_poles(oracle_chi: CauchyKernelOracle, q):
    """Closed-form pole locations of K(chi; . , q)^{-1} for torus kernels.

    A channel of the flat line bundle with Jacobian point z has 1/K
    blowing up where the numerator theta[a; b](phi(q) - phi(p)) vanishes,
    i.e. at p = q + z - (1 + tau)/2 mod the lattice (the odd half-period
    shift is the genus-1 vector of Riemann constants), with z = Omega a + b
    for the channel's characteristic (a, b).  The trivial genus-0 kernel
    contributes no poles, and a constant frame moves none.
    """
    surface = oracle_chi.surface
    if surface.genus == 0:
        return []
    period, tau = surface.period, surface.tau
    out = []
    for (a, b), theta0 in zip(oracle_chi.channels.ab, oracle_chi.channels.theta0):
        z = complex((period.omega @ a + b)[0])
        p = lattice_reduce(q + z - (1.0 + tau) / 2.0, tau)
        val = theta_with_char(ThetaCharacteristic(a, b), q - p, period)
        if abs(val) > 1e-8 * (abs(theta0) + 1.0):
            raise PoleLocationFailure(
                f"theta numerator {abs(val):.3e} not small at predicted pole {p}"
            )
        out.append(p)
    return out


def residue_condition_check(data: InterpolationDataSet, q, Q,
                            oracle_chi: CauchyKernelOracle,
                            oracle_tilde: CauchyKernelOracle):
    """Residue conditions at the poles of K(chi; . , q)^{-1}.

    Returns a list of (pole point, relative residual); residuals at or
    below about 1e-7 indicate consistent data for the given input bundle.
    The numerator of T, its kernel sum, is read at a reference point and at
    every pole from the pole-end plan of the solution T, in one
    evaluate_channels call.  Raises as build_solution.
    """
    poles = _inverse_kernel_poles(oracle_chi, point(q))
    T = build_solution(data, q, Q, oracle_chi, oracle_tilde)
    if not poles:
        return []
    q, Q = T.q, T.Q
    left, right = T.weights
    ref_point = lattice_reduce(q + 0.2718 + 0.3141j, data.surface.tau)
    P = data.surface.points([ref_point, *poles])
    d = evaluate_channels(data.surface, T._plan, P, P[:, None] - T._plan.ends)
    kvals = _end_kernels(d, len(T._plan.ends), oracle_tilde)
    # the kernel sum of T(p), also where K(chi; p, q) is singular
    numerators = kvals[:, 0] + np.einsum("nbkl,bl,bm->nkm", kvals[:, 1:], left, right)
    scale_n = float(np.linalg.norm(numerators[0])) + EPS_GUARD

    def inv_kernel(t):
        return np.linalg.inv(oracle_chi(t, [q] * len(t)))

    results = []
    for pole, numerator in zip(poles, numerators[1:]):
        res = circle_modes(inv_kernel, pole, 1e-3, orders=(-1,))[-1]
        defect = numerator @ Q @ res
        residual = float(np.linalg.norm(defect)) / (
            float(np.linalg.norm(Q @ res)) * scale_n + EPS_GUARD
        )
        results.append((pole, residual))
    return results


def _min_node_gap(data, extra=()):
    """Smallest nonzero pairwise distance among node points (and extras)."""
    pts = data.surface.points([n.point for n in (*data.zeros, *data.poles)] + list(extra))
    dist = data.surface.distance(pts[:, None], pts[None, :])
    best = dist.min(initial=np.inf, where=dist > 1e-9)
    return float(best) if np.isfinite(best) else 0.1


def _coupling_pairing(T, xs, us, xi_point, oracle_chi, oracle_tilde, q) -> np.ndarray:
    """Matrix P with P[alpha, beta] = x_alpha . grad (t u_beta(p)) at xi.

    u_beta(p) = T(p) K(chi; p, q) w_beta is a local section whose residue
    at xi equals the pole vector u_beta; grad is the output-bundle
    connection applied to the analytic continuation of t * u_beta.  With
    T(t) K(chi; t, q) = res/(t - xi) + const + O(t - xi), t * u_beta has
    value res w_beta and derivative const w_beta at xi, both modes of one
    circle.  The coupling numbers of a known map are rho = -P.
    """
    def f_matrix(t):
        return T(t) @ oracle_chi(t, [q] * len(t))

    modes = circle_modes(f_matrix, xi_point, 1e-3, orders=(-1, 0))
    res, const = modes[-1], modes[0]
    A = extract_laurent_coeffs(oracle_tilde, xi_point)
    w, *_ = np.linalg.lstsq(res, us.T, rcond=None)
    return xs @ (A @ res @ w + const @ w)


def forward_couplings(T, surface: Surface, zeros, poles,
                      oracle_chi, oracle_tilde, q) -> dict:
    """Coupling numbers of a known map T at every coincident pair.

    zeros and poles are the nodes of an InterpolationDataSet on surface;
    the returned dict rho[(i, j)] = -x grad(t u) over the pairs where they
    coincide completes them into a consistent data set for the map T.  T
    is called once per pair, on the sequence of one circle's points, and
    gives their (N, r, r) values, as BundleMapEvaluator does.
    """
    out = {}
    for (i, j) in surface.coincidences([z.point for z in zeros], [p.point for p in poles]):
        pairing = _coupling_pairing(
            T, zeros[i].vectors, poles[j].vectors, zeros[i].point, oracle_chi, oracle_tilde, q
        )
        out[(i, j)] = -pairing
    return out


def verify_solution(T, data: InterpolationDataSet) -> dict:
    """Report-only check of the three interpolation conditions.

    (i) the residue of T at each mu^j has column span matching the pole
    vectors; (ii) likewise for the transpose inverse at each lambda^i and
    the null vectors; (iii) coupled conditions at coincidences through the
    output-bundle connection, with the kernel oracles and base point of T
    (a BundleMapEvaluator's oracle_chi, oracle_tilde and q).  T is called
    once per circle, on the sequence of its points, as in
    forward_couplings.  Returns a dict of residual lists; InputError for
    data with coincidences and a T that holds no oracles and base point.
    """
    oracle_chi, oracle_tilde, q = (getattr(T, name, None)
                                   for name in ("oracle_chi", "oracle_tilde", "q"))
    radius = min(1e-2, 0.2 * _min_node_gap(data, extra=[q] if q is not None else ()))
    report = {"pole_span_gaps": [], "zero_span_gaps": [], "coupling_residuals": []}

    def inv_t(t):
        return np.linalg.inv(T(t)).transpose(0, 2, 1)

    for key, nodes, f in (("pole_span_gaps", data.poles, T),
                          ("zero_span_gaps", data.zeros, inv_t)):
        for node in nodes:
            res = circle_modes(f, node.point, radius, orders=(-1,))[-1]
            report[key].append(principal_angle_gap(_col_span(res, node.count), node.vectors.T))

    if data.coincident_pairs() and (oracle_chi is None or oracle_tilde is None or q is None):
        raise InputError("coincidence checks need the kernel oracles and base point")
    found = forward_couplings(T, data.surface, data.zeros, data.poles, oracle_chi, oracle_tilde, q)
    for key, rho_found in found.items():
        rho = data.couplings[key]
        scale = float(np.abs(rho_found).max() + np.abs(rho).max()) + 1.0
        report["coupling_residuals"].append(float(np.abs(rho - rho_found).max()) / scale)
    return report


def _col_span(mat: np.ndarray, dim: int) -> np.ndarray:
    """Leading dim left singular vectors of mat."""
    u, s, _ = np.linalg.svd(mat)
    return u[:, :dim]


# --- scalar (line bundle) solutions in closed form ---

def divisor_characteristic(surface: Surface, zeros, poles):
    """Real decomposition (a, b) with Omega a + b = phi(zeros) - phi(poles).

    Uses the concrete coordinate representatives of the divisor points;
    genus 1 only.
    """
    tau = surface.tau
    w = sum(point(z) for z in zeros) - sum(point(p) for p in poles)
    alpha, beta = lattice_coords(w, tau)
    return np.array([beta]), np.array([alpha]), w


def _necessity_defect(surface, zeros, poles, chi, chi_tilde):
    period = surface.period
    z_in = complex(chi.jacobian_point(period)[0])
    z_out = complex(chi_tilde.jacobian_point(period)[0])
    w = sum(point(z) for z in zeros) - sum(point(p) for p in poles)
    return lattice_distance((z_out - z_in) - w, surface.tau)


def _line_data(surface, zeros, poles) -> InterpolationDataSet:
    """The rank-1 data set of a scalar problem: the vector [1] at every zero
    and pole."""
    one = np.ones((1, 1))
    return InterpolationDataSet(surface, 1, tuple((z, one) for z in zeros),
                                tuple((p, one) for p in poles))


def _scalar_map(surface, q, Q, values):
    """T over one point or a sequence of points: Q where the point equals
    q, values(P) at the coordinates P of the others.  One point is the
    N = 1 case of a sequence, so it has the same bits alone and in one."""
    qc = point(q)

    def T(p):
        pc = surface.points(p)
        P = np.atleast_1d(pc)
        out = np.full(P.shape, Q, dtype=complex)
        away = ~surface.equal(P, qc)
        if away.any():
            out[away] = values(P[away])
        return out if np.ndim(pc) > 0 else complex(out[0])

    return T


def scalar_multiplicative(surface: Surface, zeros, poles,
                          chi: FlatLineBundle, chi_tilde: FlatLineBundle,
                          q, Q: complex):
    """Multiplicative scalar interpolant on the torus.

    T(p) = prod_i E(p, lam^i)/E(q, lam^i) / prod_j E(p, mu^j)/E(q, mu^j)
           * exp(-2 pi i a (phi(p) - phi(q))) * Q,

    with a read off from Omega a + b = phi(zeros) - phi(poles).  The nodes
    are laid out as scalar_partial_fraction lays them out, the rank-1 data
    set, and q and Q are checked as build_solution checks them, so both
    forms refuse malformed data with one verdict.  T takes one point or a
    sequence of N points (then an (N,) array).

    Raises
    ------
    InputError
        For nodes the data set refuses (a non-finite point, a repeated zero
        or pole, a zero on a pole) or a Q that is not one finite number.
    PointOnExcludedSet
        For q on a node.
    SingularMatrix
        For Q = 0.
    NotSquare
        For unequal zero and pole counts ("n zeros vs m poles").
    NecessityViolated
        For a bundle difference off the divisor class by more than 1e-9 mod
        the lattice.
    """
    data = _line_data(surface, zeros, poles)
    q, Q = _base(data, q, Q)
    zeros, poles = ([node.point for node in nodes] for nodes in (data.zeros, data.poles))
    if len(zeros) != len(poles):
        raise NotSquare(f"{len(zeros)} zeros vs {len(poles)} poles")
    defect = _necessity_defect(surface, zeros, poles, chi, chi_tilde)
    if defect > 1e-9:
        raise NecessityViolated(f"divisor/bundle lattice defect {defect:.3e}")
    ratio = _prime_form_ratio(surface, zeros, poles, q)
    Q = complex(Q[0, 0])
    return _scalar_map(surface, q, Q, lambda P: ratio(P) * Q)


def _prime_form_ratio(surface: Surface, zeros, poles, q):
    """P -> prod_i E(p, lam^i)/E(q, lam^i) / prod_j E(p, mu^j)/E(q, mu^j)
    * exp(-2 pi i a (phi(p) - phi(q))), the scalar multiplicative factor,
    over an (N,) coordinate array P: one prime_form call over all nodes."""
    a_vec, _, _ = divisor_characteristic(surface, zeros, poles)
    a = float(a_vec[0])
    qc = point(q)
    nodes = surface.points([*zeros, *poles])
    n, k = len(zeros), len(nodes)
    at_q = prime_form(surface, np.full(k, qc), nodes)

    def ratio(P):
        E = prime_form(surface, np.repeat(P, k), np.tile(nodes, len(P))).reshape(-1, k)
        # out-of-place products: numpy's in-place complex multiply takes a
        # vector path whose last bits depend on the array length
        val = np.ones(len(P), dtype=complex)
        for i in range(n):
            val = val * (E[:, i] / at_q[i])
        for j in range(n, k):
            val = val / (E[:, j] / at_q[j])
        return val * np.exp(-2j * np.pi * a * (P - qc))

    return ratio


def scalar_partial_fraction(surface: Surface, zeros, poles,
                            chi: FlatLineBundle, chi_tilde: FlatLineBundle,
                            q, Q: complex):
    """Partial-fraction scalar interpolant: build_solution at rank 1.

    Independent route to the same map as scalar_multiplicative: the rank-1
    data set with the vector [1] at every zero and pole, solved by
    build_solution with line_kernel(chi) and line_kernel(chi~), that is
    Gamma_ij = -K(chi~; lam^i, mu^j), the kernel-sum formula and the
    inverse input kernel factor.  T likewise takes one point or a sequence.

    Raises
    ------
    InputError
        For nodes the data set refuses (a non-finite point, a repeated zero
        or pole, a zero on a pole) or a Q that is not one finite number.
    PointOnExcludedSet
        For q on a node.
    NotSquare, SingularMatrix
        As build_solution: unequal counts, or a singular Gamma or Q.
    """
    T = build_solution(_line_data(surface, zeros, poles), q, Q, line_kernel(surface, chi),
                       line_kernel(surface, chi_tilde))
    return _scalar_map(surface, T.q, complex(T.Q[0, 0]), lambda P: T.many(P)[:, 0, 0])


def fay_residual(surface: Surface, z, p, q, lam, mu):
    """Relative residual of the three-term trisecant identity.

    theta(z + L - M) theta(z + Q - P) E(p, lam) E(q, mu)
      + theta(z + L - P) theta(z + Q - M) E(lam, mu) E(q, p)
      = theta(z + L - M + Q - P) theta(z) E(p, mu) E(q, lam),

    with L, M, P, Q the Abel-Jacobi images of lam, mu, p, q.  p, q, lam
    and mu may each be a sequence of N points, and z one argument or N of
    them ((N,) at genus 1, or (N, g)); the result is then the (N,) array
    of residuals, from one theta_many call over the six theta arguments
    and one prime_form call over the six pairs (each value has the bits
    of its own call).
    """
    period = surface.period
    many = np.ndim(surface.points(p)) > 0
    p, q, lam, mu = (surface.points(x if many else [x]) for x in (p, q, lam, mu))
    phi_p, phi_q, phi_l, phi_m = (surface.abel_jacobi(x) for x in (p, q, lam, mu))
    g = period.genus
    z = np.asarray(z, dtype=complex).reshape(-1, g)
    zero = ThetaCharacteristic(np.zeros(g), np.zeros(g))
    args = [z + phi_l - phi_m, z + phi_q - phi_p, z + phi_l - phi_p, z + phi_q - phi_m,
            z + phi_l - phi_m + phi_q - phi_p, z]
    th = theta_many(zero, np.concatenate([np.broadcast_to(w, phi_p.shape) for w in args]),
                    period).reshape(6, -1)
    E = prime_form(surface, np.concatenate([p, q, lam, q, p, q]),
                   np.concatenate([lam, mu, mu, p, mu, lam])).reshape(6, -1)
    term1 = th[0] * th[1] * E[0] * E[1]
    term2 = th[2] * th[3] * E[2] * E[3]
    term3 = th[4] * th[5] * E[4] * E[5]
    residual = np.abs(term1 + term2 - term3) / (
        np.abs(term1) + np.abs(term2) + np.abs(term3) + EPS_GUARD)
    return residual if many else float(residual[0])


def matrix_fay_residual(oracle_chi: CauchyKernelOracle,
                        oracle_tilde: CauchyKernelOracle,
                        lam, x, mu, u, q, Q, points) -> float:
    """Single zero/pole identity: max residual over the sample points of

    T(p) K(chi; p, q) T(q)^{-1}
      = K(chi~; p, q)
        - K(chi~; p, mu) u x K(chi~; lam, q) / (x K(chi~; lam, mu) u).

    The scalar pairing divides the rank-one correction term only; that is
    the unique scoping under which both sides are half-differentials of
    the same type in (p, q), and it is what the partial-fraction solution
    formula collapses to for one zero and one pole.  In the line-bundle
    case the identity is the trisecant identity.
    """
    r = oracle_tilde.rank
    x = np.asarray(x, dtype=complex).reshape(1, r)
    u = np.asarray(u, dtype=complex).reshape(r, 1)
    denom = complex((x @ oracle_tilde(lam, mu) @ u).item())
    scale = float(np.linalg.norm(x) * np.linalg.norm(u))
    if abs(denom) <= 1e-10 * max(scale, 1.0):
        raise DegenerateDenominator(f"pairing x K u = {abs(denom):.3e}")
    data = InterpolationDataSet(
        surface=oracle_tilde.surface,
        rank=r,
        zeros=(ZeroNode(lam, x),),
        poles=(PoleNode(mu, u.T),),
    )
    T = build_solution(data, q, Q, oracle_chi, oracle_tilde)
    Qinv = np.linalg.inv(np.asarray(Q, dtype=complex).reshape(r, r))
    P = data.surface.points(points)
    at_q, at_mu = (data.surface.points([end] * len(P)) for end in (q, mu))
    lhs = T.many(P) @ oracle_chi(P, at_q) @ Qinv
    rhs = (oracle_tilde(P, at_q)
           - oracle_tilde(P, at_mu) @ u @ x @ oracle_tilde(lam, q) / denom)
    return float(np.max(rel_residual(lhs, rhs), initial=0.0))


def full_rank_multiplicative(data: InterpolationDataSet,
                             oracle_tilde: CauchyKernelOracle, q, Q):
    """Multiplicative solution for full-rank standard-basis data.

    Every node must carry the r standard basis vectors; then the solution
    is the scalar multiplicative interpolant of the underlying divisor
    times the matrix Q, and the coupling matrix is the block matrix
    -[K(chi~; lam^i, mu^j)].  q and Q are checked as build_solution checks
    them.  Its counts are tested as scalar_multiplicative tests them; the
    lattice-defect check is not made here, as it needs the input bundle
    chi, which this function does not take.

    Returns (evaluator, gamma_block).

    Raises
    ------
    InputError
        For a Q that is not r^2 finite numbers, or a node that does not
        carry the standard basis vectors.
    PointOnExcludedSet
        For q on a node.
    SingularMatrix
        For a singular Q.
    NotSquare
        For unequal zero and pole counts ("n zeros vs m poles").
    """
    q, Q = _base(data, q, Q)
    r = data.rank
    eye = np.eye(r)
    for node in (*data.zeros, *data.poles):
        if node.count != r or not np.allclose(node.vectors, eye, atol=1e-12):
            raise InputError("nodes must carry the standard basis vectors")
    surface = data.surface
    zeros = [z.point for z in data.zeros]
    poles = [p.point for p in data.poles]
    if len(zeros) != len(poles):
        raise NotSquare(f"{len(zeros)} zeros vs {len(poles)} poles")
    ratio = _prime_form_ratio(surface, zeros, poles, q)
    scalar = _scalar_map(surface, q, 1.0, ratio)

    def T(p):
        return np.multiply.outer(scalar(p), Q)

    gamma = -_block_form(kernel_grid(oracle_tilde, zeros, poles))
    return T, gamma
