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

Both interpolants evaluate arrays of points (BundleMapEvaluator.many),
and a call at one point is the N = 1 case.  The terms of the kernel sum
are folded at build time into one weight matrix, and the kernel requests
of a point, K(chi~) at the pairs of p with [q, the poles] and
K(chi; p, q), are laid out once per build (kernels.FrozenRequests).  A
batch of points then costs one finiteness check, one difference ends - p
(for the distance test and the theta arguments), one kernels.evaluate_frozen
call (one theta pass), one weight matmul, the SVD guard and one stacked
solve.

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
    BasePointCollision,
    DegenerateDenominator,
    InputError,
    KernelSingular,
    NecessityViolated,
    NotFullRank,
    NotSquare,
    PointOnPoleSet,
    PoleLocationFailure,
    SingularGamma,
)
from .kernels import (
    CauchyKernelOracle,
    FrozenRequests,
    _block_form,
    evaluate_frozen,
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
    Torus,
    _is_many,
    coord,
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
    """Prescribed zero or pole: point and independent vectors stored as rows.

    At a zero the rows are the null row vectors x (t_i, r); at a pole they
    are the pole vectors u (s_j, r).
    """

    point: object
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", point(self.point))
        v = np.atleast_2d(np.asarray(self.vectors, dtype=complex))
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


@dataclass(eq=False)
class InterpolationDataSet:
    """Zero/pole data with couplings at coincident points.

    couplings maps (zero index, pole index) to a (t_i, s_j) array for the
    pairs whose points coincide on the surface.  Validation enforces
    distinctness within each list, per-point linear independence of the
    vector sets, and the compatibility x u = 0 at every coincidence.
    """

    surface: Surface
    rank: int
    zeros: tuple
    poles: tuple
    couplings: dict = field(default_factory=dict)

    def __post_init__(self):
        self.zeros = tuple(
            z if isinstance(z, ZeroNode) else ZeroNode(*z) for z in self.zeros
        )
        self.poles = tuple(
            p if isinstance(p, PoleNode) else PoleNode(*p) for p in self.poles
        )
        for node in (*self.zeros, *self.poles):
            if node.vectors.shape[1] != self.rank:
                raise InputError("vector length does not match rank")
            if np.linalg.norm(node.vectors, axis=1).min() == 0.0:
                raise InputError("interpolation vectors must be nonzero")
            s = np.linalg.svd(node.vectors, compute_uv=False)
            if s[-1] <= 1e-10 * s[0]:
                raise InputError("vector set at a node is numerically dependent")
        for nodes, tag in ((self.zeros, "zeros"), (self.poles, "poles")):
            pts = [node.point for node in nodes]
            if any(i != j for i, j in self.surface.coincidences(pts, pts)):
                raise InputError(f"{tag} must be pairwise distinct")
        pairs = self.coincident_pairs()
        for (i, j) in pairs:
            x = self.zeros[i].vectors
            u = self.poles[j].vectors
            pairing = x @ u.T
            scale = max(np.abs(x).max() * np.abs(u).max(), 1.0)
            if float(np.abs(pairing).max()) > 1e-12 * scale:
                raise InputError("compatibility x.u = 0 fails at a coincidence")
        self.couplings = coupling_table(self.couplings, self.zeros, self.poles, pairs)

    def coincident_pairs(self) -> list[tuple[int, int]]:
        return self.surface.coincidences([z.point for z in self.zeros],
                                         [p.point for p in self.poles])

    @property
    def n_zero_total(self) -> int:
        return sum(z.count for z in self.zeros)

    @property
    def n_pole_total(self) -> int:
        return sum(p.count for p in self.poles)


@dataclass(frozen=True, eq=False)
class _Nodes:
    """Zero or pole nodes read into arrays, once per Gamma build.

    points are the node point values; blocks the (start, stop) rows of each
    node's vectors in vectors, the (total count, r) stack of all of them;
    groups one (node indices, (len, c, r) vector stack, (len, c) row
    indices) per vector count c.
    """

    points: np.ndarray
    blocks: tuple
    vectors: np.ndarray
    groups: tuple


def _read_nodes(surface, points, vector_sets, width) -> _Nodes:
    """Nodes at points with the (count, width) vector sets, read into arrays."""
    counts = [len(vectors) for vectors in vector_sets]
    starts = [0, *itertools.accumulate(counts)]
    vectors = np.concatenate([np.empty((0, width), dtype=complex), *vector_sets])
    groups = []
    for c in sorted(set(counts)):
        idx = [k for k, count in enumerate(counts) if count == c]
        if len(idx) == len(counts):   # one count: node k holds rows k c, ..., k c + c - 1
            X, rows = vectors.reshape(-1, c, width), np.arange(len(vectors)).reshape(-1, c)
        else:
            X = np.array([vector_sets[k] for k in idx])
            rows = np.array(starts)[idx][:, None] + np.arange(c)
        groups.append((np.array(idx), X, rows))
    return _Nodes(surface.points(points), tuple(zip(starts, starts[1:])), vectors, tuple(groups))


@dataclass(frozen=True, eq=False)
class GammaMatrix:
    """Block coupling matrix with its index bookkeeping: the zero and pole
    nodes as read for its assembly, whose blocks index its rows and columns."""

    matrix: np.ndarray
    zeros: _Nodes
    poles: _Nodes

    @property
    def row_blocks(self) -> tuple:
        """(start, stop) per zero node."""
        return self.zeros.blocks

    @property
    def col_blocks(self) -> tuple:
        """(start, stop) per pole node."""
        return self.poles.blocks

    @property
    def is_square(self) -> bool:
        return self.matrix.shape[0] == self.matrix.shape[1]

    def condition(self) -> float:
        return svd_cond(self.matrix)


def _block_products(out, kvals, row_groups, col_groups):
    """Write X @ K @ U^T for every node pair into its block of out.

    kvals holds K per (row node, column node), shape (n, m, r, r); X and U
    are the vector stacks of the two groups.  Each pair of groups is one
    stacked (X @ K) @ U^T, the association order of the pairwise
    x @ k @ u.T, so every block is bit-identical to it.
    """
    for idx_i, X, rows in row_groups:
        for idx_j, U, cols in col_groups:
            prod = X[:, None] @ kvals[np.ix_(idx_i, idx_j)] @ U[None].transpose(0, 1, 3, 2)
            out[rows[:, None, :, None], cols[None, :, None, :]] = prod


def build_gamma(data: InterpolationDataSet,
                oracle_tilde: CauchyKernelOracle) -> GammaMatrix:
    """Assemble the coupling matrix from the output-bundle kernel.

    Entries are -x K(chi~; lambda^i, mu^j) u away from coincidences and
    -rho at them; squareness and conditioning are judged downstream.  The
    kernel values are one kernel_grid, and the blocks are one stacked
    product per node-block shape (count_i, count_j), bit-identical to the
    pairwise -(x @ K @ u.T).
    """
    zeros, poles = (_read_nodes(data.surface, [node.point for node in nodes],
                                [node.vectors for node in nodes], data.rank)
                    for nodes in (data.zeros, data.poles))
    kvals = kernel_grid(oracle_tilde, zeros.points, poles.points)
    blocks = np.empty((len(zeros.vectors), len(poles.vectors)), dtype=complex)
    _block_products(blocks, kvals, zeros.groups, poles.groups)
    for (i, j), rho in data.couplings.items():   # the coincident pairs
        (r0, r1), (c0, c1) = zeros.blocks[i], poles.blocks[j]
        blocks[r0:r1, c0:c1] = rho
    return GammaMatrix(-blocks, zeros, poles)


def _kernel_invertible(kmat: np.ndarray, P):
    """Kernel values vanish where the inverse kernel has poles; kernels are
    O(1)-or-larger elsewhere, so a tiny smallest singular value against a
    unit scale flags evaluation at (or next to) such a pole.  kmat holds
    the values at the points P, shape (N, r, r); the first such point is
    named."""
    s = np.linalg.svd(kmat, compute_uv=False)
    singular = s[:, -1] <= 1e-10 * np.maximum(1.0, s[:, 0])
    if singular.any():
        where = point(P[int(singular.argmax())])
        raise KernelSingular(f"kernel value numerically singular at p = {where!r}")


class BundleMapEvaluator:
    """Bundle map with a fixed base value T(q) = Q, over arrays of points.

    many(P) gives the values at a sequence of points, shape (N, r, r); a
    call T(p) is its N = 1 case, and a call on a sequence is many.  The
    value at q is Q for a solution and Q^{-1} for an inverse.  T has poles
    at the pole nodes (T^{-1} at the zero nodes), where many raises.

    The two kernel requests of a point p are frozen at build time
    (kernels.FrozenRequests): K(chi~) at the pairs of p with ends = [q,
    its poles] (T^{-1}: [q, its zeros]) and K(chi) at the pair of p with q.
    Their one difference ends - p also finds p at q or at a pole.
    """

    def __init__(self, data, q, Q, oracle_chi, oracle_tilde, gamma, kind, weight):
        self.data = data
        self.q = q
        self.Q = Q
        self.oracle_chi = oracle_chi
        self.oracle_tilde = oracle_tilde
        self.gamma = gamma
        self.kind = kind
        self._weight = weight
        self._at_q = Q if kind == "solution" else np.linalg.inv(Q)
        poles = gamma.poles if kind == "solution" else gamma.zeros
        ends = np.concatenate([data.surface.points([q]), poles.points])
        self._kernels = FrozenRequests(data.surface, [(oracle_tilde, np.arange(len(ends))),
                                                      (oracle_chi, [0])],
                                       ends, kind == "solution")

    def many(self, P) -> np.ndarray:
        """Values at the points P, shape (N, r, r).

        Raises
        ------
        InputError
            If a point of P is not finite.
        PointOnPoleSet
            If a point of P is a pole node of T (a zero node of T^{-1}).
        KernelSingular
            If a point of P is a pole of the inverse kernel factor.
        """
        P = self.data.surface.points(P)
        if P.dtype == complex and not np.isfinite(P).all():
            where = complex(P[np.flatnonzero(~np.isfinite(P))[0]])
            raise InputError(f"the {self.kind} is evaluated at a non-finite p = {where!r}")
        v, dist = self._kernels.separation(P)
        if not dist.size or dist.min() > POINT_TOL:
            return self._values(P, v)
        hits = dist <= POINT_TOL
        on_pole = hits[:, 1:].any(axis=1)
        if on_pole.any():
            where = point(P[on_pole.argmax()])
            raise PointOnPoleSet(f"the {self.kind} has a pole at p = {where!r}")
        at_q = hits[:, 0]
        out = np.empty((len(P), self.rank, self.rank), dtype=complex)
        out[at_q] = self._at_q
        if not at_q.all():
            off = ~at_q
            out[off] = self._values(P[off], None if v is None else v[off])
        return out

    def __call__(self, p) -> np.ndarray:
        return self.many(p) if _is_many(p) else self.many([p])[0]

    @property
    def rank(self) -> int:
        return self.Q.shape[0]

    def _values(self, P, v):
        tilde, chi = evaluate_frozen(self._kernels, P, v)
        total, kmat = _kernel_sum(self.kind, tilde, self._weight), chi[:, 0]
        _kernel_invertible(kmat, P)
        if self.kind == "solution":
            return np.linalg.solve(kmat.transpose(0, 2, 1),
                                   (total @ self.Q).transpose(0, 2, 1)).transpose(0, 2, 1)
        return np.linalg.solve(kmat, self._at_q @ total)


def _kernel_sum(kind, tilde, weight) -> np.ndarray:
    """The kernel sum of T(p) (kind "solution") or of T^{-1}(p), (N, r, r),
    from the K(chi~) values tilde (N, m, r, r) at the pairs of p with [q,
    the poles] (T^{-1}: of [q, the zeros] with p) and the weight of
    _numerator (_tail): T(p) = sum Q K(chi; p, q)^-1 and T^{-1}(p) =
    K(chi; q, p)^-1 Q^-1 sum."""
    n, m, r, _ = tilde.shape
    if kind == "solution":
        return tilde.transpose(0, 2, 1, 3).reshape(n, r, m * r) @ weight
    return weight @ tilde.reshape(n, m * r, r)


def _prepare(data, q, Q, oracle_chi, oracle_tilde):
    q = point(q)
    Q = np.asarray(Q, dtype=complex).reshape(data.rank, data.rank)
    if np.any(data.surface.equal(q, [node.point for node in (*data.zeros, *data.poles)])):
        raise BasePointCollision(f"base point {q!r} hits a node")
    if svd_cond(Q) > COND_LIMIT:
        raise SingularGamma("base value Q is numerically singular")
    gamma = build_gamma(data, oracle_tilde)
    if not gamma.is_square:
        raise NotSquare(
            f"coupling matrix is {gamma.matrix.shape[0]}x{gamma.matrix.shape[1]}"
        )
    cond = gamma.condition()
    if cond > COND_LIMIT:
        raise SingularGamma(f"coupling matrix condition {cond:.3e}")
    return q, Q, gamma


def _fold(nodes, coef) -> np.ndarray:
    """Per node, the (r, r) sum over its vector rows k of
    outer(vectors[k], coef[k]): the node's vectors^T times its rows of coef."""
    return np.add.reduceat(nodes.vectors[:, :, None] * coef[:, None, :],
                           [start for start, _ in nodes.blocks])


def _numerator(data, q, gamma, oracle_tilde) -> np.ndarray:
    """The weight of T(p)'s kernel sum K(chi~; p, q) + K_mu_u(p) Gamma^-1 K_x_lam(q).

    With K_mu_u(p) = [K(chi~; p, mu^j) u_j]_j and K_x_lam(q) =
    [x_i K(chi~; lambda^i, q)]_i, the pole weights fold into one
    ((n+1) r, r) matrix [I; u_j^T (Gamma^-1 K_x_lam(q))_j], so the sum at a
    point is its kernel values at the pairs (p, q), (p, mu^1), ...,
    (p, mu^n), side by side, times this matrix.
    """
    r = data.rank
    zeros, poles = gamma.zeros, gamma.poles
    weight = np.eye(r, dtype=complex)
    if data.poles:
        base = data.surface.points([q])
        kvals = evaluate_many(oracle_tilde, zeros.points, np.repeat(base, len(zeros.points)))
        k_x_lam = np.empty((len(zeros.vectors), r), dtype=complex)
        for idx, X, rows in zeros.groups:
            k_x_lam[rows] = X @ kvals[idx]
        coef = np.linalg.solve(gamma.matrix, k_x_lam)
        weight = np.vstack([weight, _fold(poles, coef).reshape(-1, r)])
    return weight


def _tail(data, q, gamma, oracle_tilde) -> np.ndarray:
    """The weight of T^{-1}(p)'s kernel sum K(chi~; q, p) + K_mu_u(q) Gamma^-1 K_x_lam(p).

    The mirror of _numerator: the zero weights fold into one (r, (n+1) r)
    matrix [I, (K_mu_u(q) Gamma^-1)_i x_i], times the kernel values at the
    pairs (q, p), (lambda^1, p), ..., (lambda^n, p), stacked.
    """
    r = data.rank
    zeros, poles = gamma.zeros, gamma.poles
    weight = np.eye(r, dtype=complex)
    if data.zeros:
        base = data.surface.points([q])
        kvals = evaluate_many(oracle_tilde, np.repeat(base, len(poles.points)), poles.points)
        k_mu_u = np.empty((len(poles.vectors), r), dtype=complex)   # K_mu_u(q)^T
        for idx, U, cols in poles.groups:
            k_mu_u[cols] = (kvals[idx] @ U.transpose(0, 2, 1)).transpose(0, 2, 1)
        coef = np.linalg.solve(gamma.matrix.T, k_mu_u)   # (K_mu_u(q) Gamma^-1)^T
        # block i is (K_mu_u(q) Gamma^-1)_i x_i, the transpose of x_i^T coef_i
        blocks = _fold(zeros, coef).transpose(2, 0, 1)
        weight = np.hstack([weight, blocks.reshape(r, -1)])
    return weight


def build_solution(data: InterpolationDataSet, q, Q,
                   oracle_chi: CauchyKernelOracle,
                   oracle_tilde: CauchyKernelOracle) -> BundleMapEvaluator:
    """Interpolant with value Q at q, in partial-fraction form."""
    q, Q, gamma = _prepare(data, q, Q, oracle_chi, oracle_tilde)
    weight = _numerator(data, q, gamma, oracle_tilde)
    return BundleMapEvaluator(data, q, Q, oracle_chi, oracle_tilde, gamma, "solution", weight)


def build_inverse(data: InterpolationDataSet, q, Q,
                  oracle_chi: CauchyKernelOracle,
                  oracle_tilde: CauchyKernelOracle) -> BundleMapEvaluator:
    """Inverse interpolant: T^{-1} with value Q^{-1} at q.

    T^{-1}(p) = K(chi; q, p)^{-1} Q^{-1}
                [K(chi~; q, p) + K_mu_u(q) Gamma^{-1} K_x_lam(p)];

    every kernel factor carries the (q, p) argument order, as dictated by
    transposing the solution of the swapped zero/pole problem through the
    kernel duality K(dual; p, q)^T = -K(chi; q, p).
    """
    q, Q, gamma = _prepare(data, q, Q, oracle_chi, oracle_tilde)
    weight = _tail(data, q, gamma, oracle_tilde)
    return BundleMapEvaluator(data, q, Q, oracle_chi, oracle_tilde, gamma, "inverse", weight)


def _inverse_kernel_poles(oracle_chi: CauchyKernelOracle, q):
    """Closed-form pole locations of K(chi; . , q)^{-1} for split torus kernels.

    A line-bundle block with Jacobian point z has 1/K blowing up where the
    numerator theta[a; b](phi(q) - phi(p)) vanishes, i.e. at
    p = q + z - (1 + tau)/2 mod the lattice (the odd half-period shift is
    the genus-1 vector of Riemann constants).  The trivial genus-0 kernel
    contributes no poles, and a constant frame moves none.
    """
    surface = oracle_chi.surface
    if surface.genus == 0:
        return []
    if not isinstance(surface, Torus):
        raise PoleLocationFailure("pole location needs the torus closed form")
    tau = surface.tau
    kernel = oracle_chi.inner or oracle_chi
    blocks = kernel.parts or (kernel,)
    out = []
    for block in blocks:
        if block.bundle is None:
            raise PoleLocationFailure("pole location needs line-bundle blocks")
        z = complex(block.bundle.jacobian_point(surface.period)[0])
        p = lattice_reduce(coord(q) + z - (1.0 + tau) / 2.0, tau)
        chi = block.bundle.characteristic
        val = theta_with_char(chi, coord(q) - p, surface.period)
        ref = abs(block.bundle.theta_at_zero(surface.period)) + 1.0
        if abs(val) > 1e-8 * ref:
            raise PoleLocationFailure(
                f"theta numerator {abs(val):.3e} not small at predicted pole {p}"
            )
        out.append(point(p))
    return out


def residue_condition_check(data: InterpolationDataSet, q, Q,
                            oracle_chi: CauchyKernelOracle,
                            oracle_tilde: CauchyKernelOracle):
    """Residue conditions at the poles of K(chi; . , q)^{-1}.

    Returns a list of (pole point, relative residual); residuals at or
    below about 1e-7 indicate consistent data for the given input bundle.
    """
    q, Q, gamma = _prepare(data, q, Q, oracle_chi, oracle_tilde)
    weight = _numerator(data, q, gamma, oracle_tilde)
    ends = np.concatenate([data.surface.points([q]), gamma.poles.points])
    poles = _inverse_kernel_poles(oracle_chi, q)
    if not poles:
        return []

    def numerator(p):   # the kernel sum of T(p), also where K(chi; p, q) is singular
        tilde = evaluate_many(oracle_tilde, [p] * len(ends), ends)
        return _kernel_sum("solution", tilde[None], weight)[0]

    tau = data.surface.tau
    ref_point = lattice_reduce(coord(q) + 0.2718 + 0.3141j, tau)
    scale_n = float(np.linalg.norm(numerator(ref_point))) + EPS_GUARD

    results = []
    for pole in poles:

        def inv_kernel(t):
            return np.linalg.inv(evaluate_many(oracle_chi, t, [q] * len(t)))

        res = circle_modes(inv_kernel, coord(pole), 1e-3, orders=(-1,))[-1]
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
    xi_c = coord(xi_point)

    def f_matrix(t):
        return T(t) @ evaluate_many(oracle_chi, t, [q] * len(t))

    modes = circle_modes(f_matrix, xi_c, 1e-3, orders=(-1, 0))
    res, const = modes[-1], modes[0]
    conn = extract_laurent_coeffs(oracle_tilde, xi_c)
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
            res = circle_modes(f, coord(node.point), radius, orders=(-1,))[-1]
            report[key].append(principal_angle_gap(_col_span(res, node.count), node.vectors.T))

    if data.coincident_pairs() and (oracle_chi is None or oracle_tilde is None or q is None):
        raise ValueError("coincidence checks need the kernel oracles and base point")
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
    w = sum(coord(z) for z in zeros) - sum(coord(p) for p in poles)
    alpha, beta = lattice_coords(w, tau)
    return np.array([beta]), np.array([alpha]), w


def _necessity_defect(surface, zeros, poles, chi, chi_tilde):
    period = surface.period
    z_in = complex(chi.jacobian_point(period)[0])
    z_out = complex(chi_tilde.jacobian_point(period)[0])
    w = sum(coord(z) for z in zeros) - sum(coord(p) for p in poles)
    return lattice_distance((z_out - z_in) - w, surface.tau)


def _scalar_nodes(surface, zeros, poles, q):
    """Zeros and poles as points; rejects a repeated zero or pole, a zero on a
    pole (InputError) and a base point on a node (BasePointCollision)."""
    zeros, poles = [point(z) for z in zeros], [point(p) for p in poles]
    nodes = [*zeros, *poles]
    for i, j in surface.coincidences(nodes, [*nodes, q]):
        if j == len(nodes):
            raise BasePointCollision(f"base point {q!r} hits a node")
        if i != j:
            raise InputError(f"nodes {nodes[i]!r} and {nodes[j]!r} coincide")
    return zeros, poles


def _scalar_map(surface, q, Q, values):
    """T over one point or a sequence of points: Q where the point equals
    q, values(P) at the coordinates P of the others.  One point is the
    N = 1 case of a sequence, so it has the same bits alone and in one."""
    qc = coord(q)

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
    qc = coord(q)
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
    NotSquare, SingularGamma
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
            raise NotFullRank("nodes must carry the standard basis vectors")
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
