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

For flat line bundles everything is explicit in theta functions; the
multiplicative and partial-fraction forms of the scalar solution agree,
and equating them for a single zero-pole pair is exactly the trisecant
identity of the classical theory, whose three-term residual this module
also evaluates directly.
"""

from __future__ import annotations

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
    PoleLocationFailure,
    SingularGamma,
)
from .kernels import CauchyKernelOracle, evaluate_many, extract_laurent_coeffs
from .numutil import (
    COND_LIMIT,
    EPS_GUARD,
    circle_modes,
    principal_angle_gap,
    rel_residual,
    svd_cond,
)
from .surface import (
    FlatLineBundle,
    Surface,
    Torus,
    coord,
    lattice_coords,
    lattice_distance,
    lattice_reduce,
    point,
    prime_form,
)
from .theta import (
    DEFAULT_CONFIG,
    ThetaEvalConfig,
    riemann_theta,
    theta_with_char,
)

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
class GammaMatrix:
    """Block coupling matrix with its index bookkeeping."""

    matrix: np.ndarray
    row_blocks: tuple   # (start, stop) per zero node
    col_blocks: tuple   # (start, stop) per pole node

    @property
    def is_square(self) -> bool:
        return self.matrix.shape[0] == self.matrix.shape[1]

    def condition(self) -> float:
        return svd_cond(self.matrix)


def _block_slices(counts):
    stops = np.cumsum(counts)
    starts = stops - np.asarray(counts)
    return tuple((int(a), int(b)) for a, b in zip(starts, stops))


def build_gamma(data: InterpolationDataSet,
                oracle_tilde: CauchyKernelOracle) -> GammaMatrix:
    """Assemble the coupling matrix from the output-bundle kernel.

    Entries are -x K(chi~; lambda^i, mu^j) u away from coincidences and
    -rho at them; squareness and conditioning are judged downstream.
    """
    rows = _block_slices([z.count for z in data.zeros])
    cols = _block_slices([p.count for p in data.poles])
    gamma = np.zeros((data.n_zero_total, data.n_pole_total), dtype=complex)
    coincident = set(data.coincident_pairs())
    pairs = [(i, j) for i in range(len(data.zeros)) for j in range(len(data.poles))
             if (i, j) not in coincident]
    kvals = evaluate_many(oracle_tilde, [data.zeros[i].point for i, _ in pairs],
                          [data.poles[j].point for _, j in pairs])
    for (i, j), kval in zip(pairs, kvals):
        r0, r1 = rows[i]
        c0, c1 = cols[j]
        gamma[r0:r1, c0:c1] = -(data.zeros[i].vectors @ kval @ data.poles[j].vectors.T)
    for (i, j) in coincident:
        r0, r1 = rows[i]
        c0, c1 = cols[j]
        gamma[r0:r1, c0:c1] = -data.couplings[(i, j)]
    return GammaMatrix(gamma, rows, cols)


def _k_mu_u(data, oracle, p) -> np.ndarray:
    """Row block [K(chi~; p, mu^j) u_j]_j of shape (r, N_pole)."""
    if not data.poles:
        return np.zeros((oracle.rank, 0), dtype=complex)
    kvals = evaluate_many(oracle, [p] * len(data.poles), [node.point for node in data.poles])
    return np.hstack([k @ node.vectors.T for k, node in zip(kvals, data.poles)])


def _k_x_lam(data, oracle, q) -> np.ndarray:
    """Column block [x_i K(chi~; lambda^i, q)]_i of shape (N_zero, r)."""
    if not data.zeros:
        return np.zeros((0, oracle.rank), dtype=complex)
    kvals = evaluate_many(oracle, [node.point for node in data.zeros], [q] * len(data.zeros))
    return np.vstack([node.vectors @ k for k, node in zip(kvals, data.zeros)])


def _kernel_invertible(kmat: np.ndarray, where):
    """Kernel values vanish where the inverse kernel has poles; kernels are
    O(1)-or-larger elsewhere, so a tiny smallest singular value against a
    unit scale flags evaluation at (or next to) such a pole."""
    s = np.linalg.svd(kmat, compute_uv=False)
    if s[-1] <= 1e-10 * max(1.0, s[0]):
        raise KernelSingular(f"kernel value numerically singular at p = {where}")


def _solve_right(numer: np.ndarray, kmat: np.ndarray, where) -> np.ndarray:
    """numer @ inv(kmat), guarding against singular kernel values."""
    _kernel_invertible(kmat, where)
    return np.linalg.solve(kmat.T, numer.T).T


class BundleMapEvaluator:
    """Callable bundle map with a fixed base value T(q) = Q."""

    def __init__(self, fn, data, q, Q, oracle_chi, oracle_tilde, gamma, kind):
        self._fn = fn
        self.data = data
        self.q = q
        self.Q = Q
        self.oracle_chi = oracle_chi
        self.oracle_tilde = oracle_tilde
        self.gamma = gamma
        self.kind = kind

    def __call__(self, p) -> np.ndarray:
        return self._fn(point(p))

    @property
    def rank(self) -> int:
        return self.Q.shape[0]


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


def _numerator(data, q, gamma, oracle_tilde):
    """p -> K(chi~; p, q) + K_mu_u(p) Gamma^-1 K_x_lam(q): T(p) before K(chi; p, q)^-1."""
    if not gamma.matrix.shape[0]:
        return lambda p: oracle_tilde(p, q)
    coef = np.linalg.solve(gamma.matrix, _k_x_lam(data, oracle_tilde, q))
    return lambda p: oracle_tilde(p, q) + _k_mu_u(data, oracle_tilde, p) @ coef


def build_solution(data: InterpolationDataSet, q, Q,
                   oracle_chi: CauchyKernelOracle,
                   oracle_tilde: CauchyKernelOracle) -> BundleMapEvaluator:
    """Interpolant with value Q at q, in partial-fraction form."""
    q, Q, gamma = _prepare(data, q, Q, oracle_chi, oracle_tilde)
    numerator = _numerator(data, q, gamma, oracle_tilde)

    def fn(p):
        if data.surface.equal(p, q):
            return Q.copy()
        return _solve_right(numerator(p) @ Q, oracle_chi(p, q), coord(p))

    ev = BundleMapEvaluator(fn, data, q, Q, oracle_chi, oracle_tilde, gamma, "solution")
    ev.numerator = numerator
    return ev


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
    n = gamma.matrix.shape[0]
    Qinv = np.linalg.inv(Q)
    if n:
        head = np.linalg.solve(gamma.matrix.T, _k_mu_u(data, oracle_tilde, q).T).T
    else:
        head = np.zeros((data.rank, 0), dtype=complex)

    def fn(p):
        if data.surface.equal(p, q):
            return Qinv.copy()
        tail = oracle_tilde(q, p)
        if n:
            tail = tail + head @ _k_x_lam(data, oracle_tilde, p)
        kmat = oracle_chi(q, p)
        _kernel_invertible(kmat, coord(p))
        return np.linalg.solve(kmat, Qinv @ tail)

    return BundleMapEvaluator(fn, data, q, Q, oracle_chi, oracle_tilde, gamma, "inverse")


def _inverse_kernel_poles(oracle_chi: CauchyKernelOracle, q, cfg=None):
    """Closed-form pole locations of K(chi; . , q)^{-1} for split torus kernels.

    A line-bundle block with Jacobian point z has 1/K blowing up where the
    numerator theta[a; b](phi(q) - phi(p)) vanishes, i.e. at
    p = q + z - (1 + tau)/2 mod the lattice (the odd half-period shift is
    the genus-1 vector of Riemann constants).  The trivial genus-0 kernel
    contributes no poles, and a constant frame moves none.
    """
    cfg = cfg or DEFAULT_CONFIG
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
        val = theta_with_char(chi, coord(q) - p, surface.period, cfg)
        ref = abs(block.bundle.theta_at_zero(surface.period, cfg)) + 1.0
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
    numerator = _numerator(data, q, gamma, oracle_tilde)
    poles = _inverse_kernel_poles(oracle_chi, q)
    if not poles:
        return []
    tau = data.surface.tau
    ref_point = lattice_reduce(coord(q) + 0.2718 + 0.3141j, tau)
    scale_n = float(np.linalg.norm(numerator(ref_point))) + EPS_GUARD

    results = []
    for pole in poles:

        def inv_kernel(t):
            return np.linalg.inv(evaluate_many(oracle_chi, t, [q] * len(t)))

        res = circle_modes(inv_kernel, coord(pole), 1e-3, orders=(-1,))[-1]
        defect = numerator(coord(pole)) @ Q @ res
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
        return np.array([T(s) for s in t]) @ evaluate_many(oracle_chi, t, [q] * len(t))

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
    coincide completes them into a consistent data set for the map T.
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
    output-bundle connection.  Returns a dict of residual lists.
    """
    oracle_chi = oracle_chi or getattr(T, "oracle_chi", None)
    oracle_tilde = oracle_tilde or getattr(T, "oracle_tilde", None)
    q = q if q is not None else getattr(T, "q", None)
    radius = min(1e-2, 0.2 * _min_node_gap(data, extra=[q] if q is not None else ()))
    report = {"pole_span_gaps": [], "zero_span_gaps": [], "coupling_residuals": []}

    for j, node in enumerate(data.poles):
        res = circle_modes(lambda t: [T(s) for s in t], coord(node.point), radius,
                           orders=(-1,))[-1]
        gap = principal_angle_gap(_col_span(res, node.count), node.vectors.T)
        report["pole_span_gaps"].append(gap)

    for i, node in enumerate(data.zeros):
        def inv_t(t):
            return np.linalg.inv([T(s) for s in t]).transpose(0, 2, 1)

        res = circle_modes(inv_t, coord(node.point), radius, orders=(-1,))[-1]
        gap = principal_angle_gap(_col_span(res, node.count), node.vectors.T)
        report["zero_span_gaps"].append(gap)

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


def scalar_multiplicative(surface: Surface, zeros, poles,
                          chi: FlatLineBundle, chi_tilde: FlatLineBundle,
                          q, Q: complex, cfg: ThetaEvalConfig | None = None):
    """Multiplicative scalar interpolant on the torus.

    T(p) = prod_i E(p, lam^i)/E(q, lam^i) / prod_j E(p, mu^j)/E(q, mu^j)
           * exp(-2 pi i a (phi(p) - phi(q))) * Q,

    with a read off from Omega a + b = phi(zeros) - phi(poles).  Requires
    the solvability condition: equal counts and bundle difference equal to
    the divisor class mod the lattice (to 1e-9), and distinct nodes apart
    from the base point.
    """
    cfg = cfg or DEFAULT_CONFIG
    zeros, poles = _scalar_nodes(surface, zeros, poles, q)
    if len(zeros) != len(poles):
        raise NecessityViolated(f"{len(zeros)} zeros vs {len(poles)} poles")
    defect = _necessity_defect(surface, zeros, poles, chi, chi_tilde)
    if defect > 1e-9:
        raise NecessityViolated(f"divisor/bundle lattice defect {defect:.3e}")
    ratio = _prime_form_ratio(surface, zeros, poles, q, cfg)
    qc = coord(q)
    Q = complex(Q)

    def T(p):
        pc = coord(p)
        if surface.equal(pc, qc):
            return Q
        return ratio(pc) * Q

    return T


def _prime_form_ratio(surface: Surface, zeros, poles, q, cfg):
    """pc -> prod_i E(p, lam^i)/E(q, lam^i) / prod_j E(p, mu^j)/E(q, mu^j)
    * exp(-2 pi i a (phi(p) - phi(q))), the scalar multiplicative factor."""
    a_vec, _, _ = divisor_characteristic(surface, zeros, poles)
    a = float(a_vec[0])
    qc = coord(q)

    def ratio(pc):
        val = 1.0 + 0.0j
        for z in zeros:
            val *= prime_form(surface, pc, z, cfg) / prime_form(surface, qc, z, cfg)
        for mu in poles:
            val /= prime_form(surface, pc, mu, cfg) / prime_form(surface, qc, mu, cfg)
        return val * np.exp(-2j * np.pi * a * (pc - qc))

    return ratio


def scalar_partial_fraction(surface: Surface, zeros, poles,
                            chi: FlatLineBundle, chi_tilde: FlatLineBundle,
                            q, Q: complex, cfg: ThetaEvalConfig | None = None):
    """Partial-fraction scalar interpolant assembled directly from theta values.

    Independent route to the same map as scalar_multiplicative: coupling
    matrix Gamma_ij = -theta[out](phi(mu^j) - phi(lam^i)) /
    (theta[out](0) E(mu^j, lam^i)), then the kernel-sum formula, then the
    inverse input kernel factor.  Rejects the same degenerate nodes as
    scalar_multiplicative.
    """
    cfg = cfg or DEFAULT_CONFIG
    zeros, poles = _scalar_nodes(surface, zeros, poles, q)
    period = surface.period
    ch_out = chi_tilde.characteristic
    ch_in = chi.characteristic
    th_out0 = theta_with_char(ch_out, np.zeros(1), period, cfg)
    th_in0 = theta_with_char(ch_in, np.zeros(1), period, cfg)

    def k_out(p, s):
        v = coord(s) - coord(p)
        return theta_with_char(ch_out, np.array([v]), period, cfg) / (
            th_out0 * prime_form(surface, s, p, cfg)
        )

    n = len(zeros)
    gamma = np.zeros((n, len(poles)), dtype=complex)
    for i, lam in enumerate(zeros):
        for j, mu in enumerate(poles):
            gamma[i, j] = -k_out(lam, mu)
    if gamma.shape[0] != gamma.shape[1]:
        raise NotSquare("zero and pole counts differ")
    cond = svd_cond(gamma)
    if cond > COND_LIMIT:
        raise SingularGamma(f"scalar coupling matrix condition {cond:.3e}")
    qc = coord(q)
    Q = complex(Q)
    rhs = np.array([k_out(lam, qc) for lam in zeros])
    coef = np.linalg.solve(gamma, rhs)

    def T(p):
        pc = coord(p)
        if surface.equal(pc, qc):
            return Q
        num = k_out(pc, qc) + sum(
            k_out(pc, coord(mu)) * coef[j] for j, mu in enumerate(poles)
        )
        v = qc - pc
        k_in = theta_with_char(ch_in, np.array([v]), period, cfg) / (
            th_in0 * prime_form(surface, qc, pc, cfg)
        )
        return num * Q / k_in

    return T


def fay_residual(surface: Surface, z, p, q, lam, mu,
                 cfg: ThetaEvalConfig | None = None) -> float:
    """Relative residual of the three-term trisecant identity.

    theta(z + L - M) theta(z + Q - P) E(p, lam) E(q, mu)
      + theta(z + L - P) theta(z + Q - M) E(lam, mu) E(q, p)
      = theta(z + L - M + Q - P) theta(z) E(p, mu) E(q, lam),

    with L, M, P, Q the Abel-Jacobi images of lam, mu, p, q.
    """
    cfg = cfg or DEFAULT_CONFIG
    period = surface.period
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    phi_p = surface.abel_jacobi(p)
    phi_q = surface.abel_jacobi(q)
    phi_l = surface.abel_jacobi(lam)
    phi_m = surface.abel_jacobi(mu)

    def th(w):
        return riemann_theta(w, period, cfg)

    def E(s, t):
        return prime_form(surface, s, t, cfg)

    term1 = th(z + phi_l - phi_m) * th(z + phi_q - phi_p) * E(p, lam) * E(q, mu)
    term2 = th(z + phi_l - phi_p) * th(z + phi_q - phi_m) * E(lam, mu) * E(q, p)
    term3 = th(z + phi_l - phi_m + phi_q - phi_p) * th(z) * E(p, mu) * E(q, lam)
    return abs(term1 + term2 - term3) / (abs(term1) + abs(term2) + abs(term3) + EPS_GUARD)


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
    Qmat = np.asarray(Q, dtype=complex).reshape(r, r)
    Qinv = np.linalg.inv(Qmat)
    worst = 0.0
    for p in points:
        lhs = T(p) @ oracle_chi(p, q) @ Qinv
        rhs = (oracle_tilde(p, q)
               - oracle_tilde(p, mu) @ u @ x @ oracle_tilde(lam, q) / denom)
        worst = max(worst, rel_residual(lhs, rhs))
    return worst


def full_rank_multiplicative(data: InterpolationDataSet,
                             oracle_tilde: CauchyKernelOracle, q, Q,
                             cfg: ThetaEvalConfig | None = None):
    """Multiplicative solution for full-rank standard-basis data.

    Every node must carry the r standard basis vectors; then the solution
    is the scalar multiplicative interpolant of the underlying divisor
    times the matrix Q, and the coupling matrix is the block matrix
    -[K(chi~; lam^i, mu^j)].

    Returns (evaluator, gamma_block).
    """
    cfg = cfg or DEFAULT_CONFIG
    r = data.rank
    eye = np.eye(r)
    for node in (*data.zeros, *data.poles):
        if node.count != r or not np.allclose(node.vectors, eye, atol=1e-12):
            raise NotFullRank("nodes must carry the standard basis vectors")
    surface = data.surface
    zeros = [z.point for z in data.zeros]
    poles = [p.point for p in data.poles]
    ratio = _prime_form_ratio(surface, zeros, poles, q, cfg)
    qc = coord(q)
    Qmat = np.asarray(Q, dtype=complex).reshape(r, r)

    def T(p):
        pc = coord(p)
        if surface.equal(pc, qc):
            return Qmat.copy()
        return ratio(pc) * Qmat

    n0, ninf = len(zeros), len(poles)
    gamma = np.zeros((n0 * r, ninf * r), dtype=complex)
    for i, lam in enumerate(zeros):
        for j, mu in enumerate(poles):
            gamma[i * r:(i + 1) * r, j * r:(j + 1) * r] = -oracle_tilde(lam, mu)
    return T, gamma
