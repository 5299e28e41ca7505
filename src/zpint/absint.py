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

Both interpolants evaluate arrays of points (BundleMapEvaluator.many),
and a call at one point is the N = 1 case.  Both kernels are in the normal
form F diag(k_1, ..., k_r) F^-1 of kernels, so K(chi; p, q)^-1 is
F diag(1/k) F^-1 and the kernel sum is linear in the channels of
K(chi~); the weights, Q and both frames are folded at build time into
one matrix.  The kernels are read only at pairs of p with ends fixed at
build time, so on the torus the build also freezes the Fourier
coefficients of every theta row at the ends (kernels.end_plan, a
theta.ThetaTable).  A batch of points then costs one finiteness check,
one distance test against the ends, one kernels.evaluate_channels call
(on the torus one read of the table, no lattice pass), one matmul and one
divide by the channels of K(chi).

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
    NotSquare,
    PointOnExcludedSet,
    PoleLocationFailure,
    SingularMatrix,
)
from .kernels import (
    CauchyKernelOracle,
    _block_form,
    _channels_of,
    end_plan,
    evaluate_channels,
    evaluate_many,
    extract_laurent_coeffs,
    kernel_grid,
    line_kernel,
)
from .numutil import (
    COND_LIMIT,
    EPS_GUARD,
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
    """Couplings given exactly at the coincident pairs, each as a (t_i, s_j) array."""
    if set(map(tuple, couplings)) != set(pairs):
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
    order, to (t_i, s_j) arrays.
    """

    zero_rows: NodeRows = field(init=False, repr=False)
    pole_rows: NodeRows = field(init=False, repr=False)

    def _lay_out(self, width: int) -> None:
        """InputError for bad vectors (_node_rows), a repeated zero or pole
        or couplings off the coincident pairs."""
        zeros, poles = (tuple(node if isinstance(node, InterpolationNode)
                              else InterpolationNode(*node) for node in nodes)
                        for nodes in (self.zeros, self.poles))
        zero_rows, pole_rows = _node_rows(zeros, width), _node_rows(poles, width)
        # one coincidence test over all nodes: pairs within a side are
        # repeats, pairs across are the coincident (zero, pole) pairs
        n, pts = len(zeros), [node.point for node in (*zeros, *poles)]
        hits = self.surface.coincidences(pts, pts)
        for i, j in hits:
            if i != j and (i < n) == (j < n):
                raise InputError(f"{'zeros' if i < n else 'poles'} must be pairwise distinct")
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
    (data.zero_rows and pole_rows).  at_base holds the kernel values at a
    base point q, read from the same kernel grid, on the vector rows:
    K_x_lam(q) = [x_a K(chi~; lambda_a, q)]_a, (A, r), or for an inverse
    K_mu_u(q)^T = [K(chi~; q, mu_b) u_b]_b, (B, r); None when no base
    point was given."""

    matrix: np.ndarray
    at_base: np.ndarray | None = None

    @property
    def is_square(self) -> bool:
        return self.matrix.shape[0] == self.matrix.shape[1]

    def condition(self) -> float:
        return svd_cond(self.matrix)


def build_gamma(data: InterpolationDataSet, oracle_tilde: CauchyKernelOracle,
                q=None, inverse: bool = False) -> GammaMatrix:
    """Assemble the coupling matrix from the output-bundle kernel.

    Entries are -x K(chi~; lambda^i, mu^j) u away from coincidences and
    -rho at them; squareness and conditioning are judged downstream.  The
    kernel values are one kernel_grid over the node points, and Gamma is
    one product -einsum('ak,abkl,bl->ab', X, K, U) over the grid expanded
    to the vector rows X of the zeros and U of the poles.  Given a base
    point q, the grid gains the column q (the row q when inverse), whose
    values, times the vector rows, are kept as at_base for the
    interpolant's weight.
    """
    X, zero_of = data.zero_rows.vectors, data.zero_rows.node_of
    U, pole_of = data.pole_rows.vectors, data.pole_rows.node_of
    rows, cols = data.zero_rows.points, data.pole_rows.points
    if q is not None:
        base = data.surface.points([q])
        rows, cols = (np.concatenate([rows, base]), cols) if inverse else (
            rows, np.concatenate([cols, base]))
    kvals = kernel_grid(oracle_tilde, rows, cols)
    at_base = None
    if inverse and q is not None:
        kvals, at_base = kvals[:-1], np.einsum("bkl,bl->bk", kvals[-1][pole_of], U)
    elif q is not None:
        kvals, at_base = kvals[:, :-1], np.einsum("ak,akl->al", X, kvals[:, -1][zero_of])
    gamma = -np.einsum("ak,abkl,bl->ab", X, kvals[np.ix_(zero_of, pole_of)], U)
    data.write_couplings(gamma)
    return GammaMatrix(gamma, at_base)


def _ends(q, rows: NodeRows) -> np.ndarray:
    """[q, the point of each vector row]: the columns of an interpolant's
    kernel sum."""
    return np.concatenate([[q], rows.points[rows.node_of]])


class BundleMapEvaluator:
    """Bundle map with a fixed base value T(q) = Q, over arrays of points.

    many(P) gives the values at a sequence of points, shape (N, r, r); a
    call T(p) is its N = 1 case, and a call on a sequence is many.  The
    value at q is Q for a solution and Q^{-1} for an inverse.  T has poles
    at the pole nodes (T^{-1} at the zero nodes), where many raises.

    The kernel sum of a point p reads K(chi~) at the pairs of p with the
    ends [q, the pole of each pole vector] (T^{-1}: [q, the zero of each
    null vector]), with the weights V_0 = I and V_j = outer(left_j,
    right_j) of _weights.  With K(chi~) = F~ diag(d_j) F~^-1 at end j and
    K(chi) = F diag(c) F^-1,

        T(p)      = F~ [sum_j diag(d_j) F~^-1 V_j Q F] diag(1/c) F^-1,
        T^{-1}(p) = F diag(1/c) [sum_j F^-1 Q^-1 V_j F~ diag(d_j)] F~^-1,

    so everything but the channels d and c is folded at build time into
    one (m r, r r) matrix, and a point's values are its m r channels of
    K(chi~) times that matrix, divided by the channels of K(chi).

    The channels come from kernels.end_plan, built here with the rest: on
    the torus a frozen theta.ThetaTable of the ends (up to
    theta.MAX_TABLE_IM), so a point reads its theta rows from the table,
    with p reduced by the lattice and the channels' multipliers, instead of
    summing a lattice; past MAX_TABLE_IM, and on the sphere, the oracles'
    channel pass.
    """

    def __init__(self, data, q, Q, oracle_chi, oracle_tilde, gamma, kind):
        self.data = data
        self.q = q
        self.Q = Q
        self.oracle_chi = oracle_chi
        self.oracle_tilde = oracle_tilde
        self.gamma = gamma
        self.kind = kind
        solution = kind == "solution"
        self._at_q = Q if solution else np.linalg.inv(Q)
        self._ends = _ends(q, data.pole_rows if solution else data.zero_rows)
        m, r = len(self._ends), self.rank
        self._plan = end_plan(data.surface, oracle_tilde.channels, oracle_chi.channels,
                              self._ends, solution)
        left, right = _weights(data, gamma, not solution)
        eye = np.eye(r)
        f_t, f_t_inv, f, f_inv = (eye if x is None else x for x in (
            oracle_tilde.frame, oracle_tilde.frame_inv, oracle_chi.frame, oracle_chi.frame_inv))
        # a V_j b for a, b = F~^-1, Q F (T^{-1}: F^-1 Q^-1, F~), from the factors of V_j
        a, b = (f_t_inv, Q @ f) if solution else (f_inv @ self._at_q, f_t)
        inner = np.concatenate([(a @ b)[None], (left @ a.T)[:, :, None] * (right @ b)[:, None, :]])
        fold = (np.einsum("ak,jkl->jkal", f_t, inner) if solution
                else np.einsum("jak,kb->jkab", inner, f_t_inv))
        self._fold = fold.reshape(m * r, r * r)
        self._frame = oracle_chi.frame_inv if solution else oracle_chi.frame

    def many(self, P) -> np.ndarray:
        """Values at the points P, shape (N, r, r).

        Raises
        ------
        InputError
            If a point of P is not finite.
        PointOnExcludedSet
            If a point of P is a pole node of T (a zero node of T^{-1}).
        SingularMatrix
            If a point of P is a pole of the inverse kernel factor.
        """
        P = self.data.surface.points(P)
        dist = self.data.surface.gap(self._ends - P[:, None])
        if not dist.size or dist.min() > POINT_TOL:
            return self._values(P)
        hits = dist <= POINT_TOL
        on_pole = hits[:, 1:].any(axis=1)
        if on_pole.any():
            where = point(P[on_pole.argmax()])
            raise PointOnExcludedSet(f"the {self.kind} has a pole at p = {where!r}")
        at_q = hits[:, 0]
        out = np.empty((len(P), self.rank, self.rank), dtype=complex)
        out[at_q] = self._at_q
        if not at_q.all():
            off = ~at_q
            out[off] = self._values(P[off])
        return out

    def __call__(self, p) -> np.ndarray:
        return self.many(p) if _is_many(p) else self.many([p])[0]

    @property
    def rank(self) -> int:
        return self.Q.shape[0]

    def _values(self, P):
        r = self.rank
        d = evaluate_channels(self.data.surface, self._plan, P)
        chi = d[:, -r:]
        # K(chi) = F diag(c) F^-1 vanishes where its inverse has poles and is
        # O(1) or larger elsewhere, so a tiny channel against a unit scale
        # flags a point at (or next to) such a pole
        size = np.abs(chi)
        singular = size.min(axis=1) <= 1e-10 * np.maximum(1.0, size.max(axis=1))
        if singular.any():
            where = point(P[int(singular.argmax())])
            raise SingularMatrix(f"kernel value numerically singular at p = {where!r}")
        values = (d[:, None, :-r] @ self._fold).reshape(-1, r, r)
        if self.kind == "solution":
            values = values / chi[:, None, :]
            return values if self._frame is None else values @ self._frame
        values = values / chi[:, :, None]
        return values if self._frame is None else self._frame @ values


def _prepare(data, q, Q, oracle_tilde, inverse: bool):
    q = point(q)
    Q = np.asarray(Q, dtype=complex).reshape(data.rank, data.rank)
    if np.any(data.surface.equal(q, np.concatenate([data.zero_rows.points,
                                                    data.pole_rows.points]))):
        raise PointOnExcludedSet(f"base point {q!r} hits a node")
    cond = svd_cond(Q)
    if cond > COND_LIMIT:
        raise SingularMatrix("base value Q is numerically singular", cond)
    gamma = build_gamma(data, oracle_tilde, q, inverse)
    if not gamma.is_square:
        raise NotSquare(
            f"coupling matrix is {gamma.matrix.shape[0]}x{gamma.matrix.shape[1]}"
        )
    cond = gamma.condition()
    if cond > COND_LIMIT:
        raise SingularMatrix(f"coupling matrix condition {cond:.3e}", cond)
    return q, Q, gamma


def _weights(data, gamma, inverse: bool) -> tuple:
    """The weights of an interpolant's kernel sum, one (r, r) matrix V_j per
    end of _ends: V_0 = I and V_j = outer(left_j, right_j) for the (vector
    count, r) factors (left, right) returned.

    With K_mu_u(p) = [K(chi~; p, mu_b) u_b]_b over the pole vectors and
    K_x_lam(p) = [x_a K(chi~; lambda_a, p)]_a over the null vectors, T(p)'s
    sum K(chi~; p, q) + K_mu_u(p) Gamma^-1 K_x_lam(q) is sum_j K(chi~; p,
    e_j) V_j over [q, mu_1, ..., mu_B], with V_b = outer(u_b, c_b) and c =
    Gamma^-1 K_x_lam(q) (gamma.at_base).  T^{-1}(p)'s sum K(chi~; q, p) +
    K_mu_u(q) Gamma^-1 K_x_lam(p) is its mirror, sum_j V_j K(chi~; e_j, p)
    over [q, lambda_1, ..., lambda_A], with V_a = outer(c_a, x_a) and c =
    (K_mu_u(q) Gamma^-1)^T (at_base is K_mu_u(q)^T).
    """
    if inverse:
        return np.linalg.solve(gamma.matrix.T, gamma.at_base), data.zero_rows.vectors
    return data.pole_rows.vectors, np.linalg.solve(gamma.matrix, gamma.at_base)


def _interpolant(data, q, Q, oracle_chi, oracle_tilde, kind) -> BundleMapEvaluator:
    for oracle in (oracle_chi, oracle_tilde):
        _channels_of(oracle, "an interpolant")
    q, Q, gamma = _prepare(data, q, Q, oracle_tilde, kind == "inverse")
    return BundleMapEvaluator(data, q, Q, oracle_chi, oracle_tilde, gamma, kind)


def build_solution(data: InterpolationDataSet, q, Q,
                   oracle_chi: CauchyKernelOracle,
                   oracle_tilde: CauchyKernelOracle) -> BundleMapEvaluator:
    """Interpolant with value Q at q, in partial-fraction form.

    Raises InputError for a kernel given by many alone.
    """
    return _interpolant(data, q, Q, oracle_chi, oracle_tilde, "solution")


def build_inverse(data: InterpolationDataSet, q, Q,
                  oracle_chi: CauchyKernelOracle,
                  oracle_tilde: CauchyKernelOracle) -> BundleMapEvaluator:
    """Inverse interpolant: T^{-1} with value Q^{-1} at q.

    T^{-1}(p) = K(chi; q, p)^{-1} Q^{-1}
                [K(chi~; q, p) + K_mu_u(q) Gamma^{-1} K_x_lam(p)];

    every kernel factor carries the (q, p) argument order, as dictated by
    transposing the solution of the swapped zero/pole problem through the
    kernel duality K(dual; p, q)^T = -K(chi; q, p).  Raises InputError for
    a kernel given by many alone.
    """
    return _interpolant(data, q, Q, oracle_chi, oracle_tilde, "inverse")


def _inverse_kernel_poles(oracle_chi: CauchyKernelOracle, q):
    """Closed-form pole locations of K(chi; . , q)^{-1} for torus kernels.

    A channel of the flat line bundle with Jacobian point z has 1/K
    blowing up where the numerator theta[a; b](phi(q) - phi(p)) vanishes,
    i.e. at p = q + z - (1 + tau)/2 mod the lattice (the odd half-period
    shift is the genus-1 vector of Riemann constants).  The trivial genus-0
    kernel contributes no poles, and a constant frame moves none.
    """
    surface = oracle_chi.surface
    if surface.genus == 0:
        return []
    if oracle_chi.channels is None:
        raise PoleLocationFailure("pole location needs the kernel's channels")
    tau = surface.tau
    channels = oracle_chi.channels
    out = []
    for bundle, theta0 in zip(channels.bundles, channels.theta0):
        z = complex(bundle.jacobian_point(surface.period)[0])
        p = lattice_reduce(q + z - (1.0 + tau) / 2.0, tau)
        val = theta_with_char(bundle.characteristic, q - p, surface.period)
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
    """
    q, Q, gamma = _prepare(data, q, Q, oracle_tilde, False)
    left, right = _weights(data, gamma, False)
    ends = _ends(q, data.pole_rows)
    poles = _inverse_kernel_poles(oracle_chi, q)
    if not poles:
        return []

    def numerator(p):   # the kernel sum of T(p), also where K(chi; p, q) is singular
        kvals = evaluate_many(oracle_tilde, [p] * len(ends), ends)
        return kvals[0] + np.einsum("bkl,bl,bm->km", kvals[1:], left, right)

    tau = data.surface.tau
    ref_point = lattice_reduce(q + 0.2718 + 0.3141j, tau)
    scale_n = float(np.linalg.norm(numerator(ref_point))) + EPS_GUARD

    results = []
    for pole in poles:

        def inv_kernel(t):
            return np.linalg.inv(evaluate_many(oracle_chi, t, [q] * len(t)))

        res = circle_modes(inv_kernel, pole, 1e-3, orders=(-1,))[-1]
        defect = numerator(pole) @ Q @ res
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
        return T(t) @ evaluate_many(oracle_chi, t, [q] * len(t))

    modes = circle_modes(f_matrix, xi_point, 1e-3, orders=(-1, 0))
    res, const = modes[-1], modes[0]
    conn = extract_laurent_coeffs(oracle_tilde, xi_point)
    w, *_ = np.linalg.lstsq(res, us.T, rcond=None)
    return xs @ (conn.A @ res @ w + const @ w)


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


def verify_solution(T, data: InterpolationDataSet,
                    oracle_chi: CauchyKernelOracle | None = None,
                    oracle_tilde: CauchyKernelOracle | None = None,
                    q=None) -> dict:
    """Report-only check of the three interpolation conditions.

    (i) the residue of T at each mu^j has column span matching the pole
    vectors; (ii) likewise for the transpose inverse at each lambda^i and
    the null vectors; (iii) coupled conditions at coincidences through the
    output-bundle connection.  T is called once per circle, on the
    sequence of its points, as in forward_couplings.  Returns a dict of
    residual lists.
    """
    oracle_chi = oracle_chi or getattr(T, "oracle_chi", None)
    oracle_tilde = oracle_tilde or getattr(T, "oracle_tilde", None)
    q = q if q is not None else getattr(T, "q", None)
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


def _scalar_nodes(surface, zeros, poles, q):
    """Zeros and poles as points; rejects a repeated zero or pole, a zero on a
    pole (InputError) and a base point on a node (PointOnExcludedSet)."""
    zeros, poles = [point(z) for z in zeros], [point(p) for p in poles]
    nodes = [*zeros, *poles]
    for i, j in surface.coincidences(nodes, [*nodes, q]):
        if j == len(nodes):
            raise PointOnExcludedSet(f"base point {q!r} hits a node")
        if i != j:
            raise InputError(f"nodes {nodes[i]!r} and {nodes[j]!r} coincide")
    return zeros, poles


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

    with a read off from Omega a + b = phi(zeros) - phi(poles).  Requires
    the solvability condition: equal counts and bundle difference equal to
    the divisor class mod the lattice (to 1e-9), and distinct nodes apart
    from the base point.  T takes one point or a sequence of N points
    (then an (N,) array).
    """
    zeros, poles = _scalar_nodes(surface, zeros, poles, q)
    if len(zeros) != len(poles):
        raise NecessityViolated(f"{len(zeros)} zeros vs {len(poles)} poles")
    defect = _necessity_defect(surface, zeros, poles, chi, chi_tilde)
    if defect > 1e-9:
        raise NecessityViolated(f"divisor/bundle lattice defect {defect:.3e}")
    ratio = _prime_form_ratio(surface, zeros, poles, q)
    Q = complex(Q)
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
    inverse input kernel factor.  Rejects the same degenerate nodes as
    scalar_multiplicative, and T likewise takes one point or a sequence.

    Raises
    ------
    NotSquare, SingularMatrix
        As build_solution: unequal counts, or a singular Gamma or Q.
    """
    zeros, poles = _scalar_nodes(surface, zeros, poles, q)
    one = np.ones((1, 1))
    data = InterpolationDataSet(surface, 1, tuple((z, one) for z in zeros),
                                tuple((p, one) for p in poles))
    Q = complex(Q)
    T = build_solution(data, q, Q, line_kernel(surface, chi), line_kernel(surface, chi_tilde))
    return _scalar_map(surface, q, Q, lambda P: T.many(P)[:, 0, 0])


def fay_residual(surface: Surface, z, p, q, lam, mu):
    """Relative residual of the three-term trisecant identity.

    theta(z + L - M) theta(z + Q - P) E(p, lam) E(q, mu)
      + theta(z + L - P) theta(z + Q - M) E(lam, mu) E(q, p)
      = theta(z + L - M + Q - P) theta(z) E(p, mu) E(q, lam),

    with L, M, P, Q the Abel-Jacobi images of lam, mu, p, q.  p, q, lam
    and mu may each be a sequence of N points, and z one argument or N of
    them ((N,) at genus 1, or (N, g)); the result is then the (N,) array
    of residuals, from six theta_many and six prime_form calls.
    """
    period = surface.period
    many = np.ndim(surface.points(p)) > 0
    p, q, lam, mu = (surface.points(x if many else [x]) for x in (p, q, lam, mu))
    phi_p, phi_q, phi_l, phi_m = (surface.abel_jacobi(x) for x in (p, q, lam, mu))
    g = period.genus
    z = np.asarray(z, dtype=complex).reshape(-1, g)
    zero = ThetaCharacteristic(np.zeros(g), np.zeros(g))

    def th(w):
        return theta_many(zero, np.broadcast_to(w, phi_p.shape), period)

    def E(s, t):
        return prime_form(surface, s, t)

    term1 = th(z + phi_l - phi_m) * th(z + phi_q - phi_p) * E(p, lam) * E(q, mu)
    term2 = th(z + phi_l - phi_p) * th(z + phi_q - phi_m) * E(lam, mu) * E(q, p)
    term3 = th(z + phi_l - phi_m + phi_q - phi_p) * th(z) * E(p, mu) * E(q, lam)
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
    lhs = T.many(P) @ evaluate_many(oracle_chi, P, at_q) @ Qinv
    rhs = (evaluate_many(oracle_tilde, P, at_q)
           - evaluate_many(oracle_tilde, P, at_mu) @ u @ x @ oracle_tilde(lam, q) / denom)
    return float(np.max(rel_residual(lhs, rhs), initial=0.0))


def full_rank_multiplicative(data: InterpolationDataSet,
                             oracle_tilde: CauchyKernelOracle, q, Q):
    """Multiplicative solution for full-rank standard-basis data.

    Every node must carry the r standard basis vectors; then the solution
    is the scalar multiplicative interpolant of the underlying divisor
    times the matrix Q, and the coupling matrix is the block matrix
    -[K(chi~; lam^i, mu^j)].

    Returns (evaluator, gamma_block).
    """
    r = data.rank
    eye = np.eye(r)
    for node in (*data.zeros, *data.poles):
        if node.count != r or not np.allclose(node.vectors, eye, atol=1e-12):
            raise InputError("nodes must carry the standard basis vectors")
    surface = data.surface
    zeros = [z.point for z in data.zeros]
    poles = [p.point for p in data.poles]
    ratio = _prime_form_ratio(surface, zeros, poles, q)
    scalar = _scalar_map(surface, q, 1.0, ratio)
    Qmat = np.asarray(Q, dtype=complex).reshape(r, r)

    def T(p):
        return np.multiply.outer(scalar(p), Qmat)

    gamma = -_block_form(kernel_grid(oracle_tilde, zeros, poles))
    return T, gamma
