"""Concrete interpolation between kernel bundles of matrix pencils.

Data lives on a plane curve cut out by det(z1 sigma2 - z2 sigma1 + gamma~):
poles mu^j with pole vectors phi in ker U~(mu^j), zeros lambda^i with null
row vectors psi in the left kernel, and couplings rho at points that
coincide on the normalizing surface.  The concrete coupling matrix

    Gamma0[(i,a),(j,b)] = psi_ia (xi1 sigma1 + xi2 sigma2) phi_jb
                           / (xi1 (mu1^j - l1^i) + xi2 (mu2^j - l2^i))

is independent of the direction xi; when it is square and invertible the
interpolating bundle map S and the updated input pencil are

    gamma = gamma~ - sigma1 phi Gamma0^{-1} psi sigma2
                   + sigma2 phi Gamma0^{-1} psi sigma1,
    S(z)  = [I + phi (xi1(z1 I - A1) + xi2(z2 I - A2))^{-1} Gamma0^{-1}
               psi (xi1 sigma1 + xi2 sigma2)] restricted to ker U_gamma(z),

with the left inverse acting from the right by the mirrored formula.
Conversion from abstract zero-pole data uses the normalized sections of
the output pencil; the abstract and concrete coupling matrices then agree
entrywise, and the abstract solution T intertwines with S through the
boundary-value normalization beta = diag(T(x^i))^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .absint import InterpolationDataSet, build_gamma, coupling_table
from .detrep import PencilRep, build_pencil, normalized_sections
from .errors import (
    InputError,
    NoCoincidence,
    NotSquare,
    PoleCollision,
    PointOnExcludedSet,
    SingularGamma0,
    XiDenominatorZero,
    ZPViolated,
)
from .kernels import CauchyKernelOracle
from .numutil import COND_LIMIT, EPS_GUARD, circle_modes, rel_residual, svd_cond
from .surface import EmbeddingPair, Surface, coord, point

__all__ = [
    "ConintNode",
    "ConintDataSet",
    "BlockMatrices",
    "ConintSolution",
    "build_gamma0",
    "block_matrices",
    "solve_conint",
    "convert_absint_to_conint",
    "check_gamma_equality",
    "check_intertwining",
    "check_condition_I3",
    "DEFAULT_XI",
    "SECOND_XI",
]

_XI_A = np.array([1.0, 0.7 + 0.3j])
DEFAULT_XI = tuple(_XI_A / np.linalg.norm(_XI_A))
_XI_B = np.array([0.3 - 0.4j, 1.0])
SECOND_XI = tuple(_XI_B / np.linalg.norm(_XI_B))


@dataclass(frozen=True, eq=False)
class ConintNode:
    """Zero or pole node: surface point, affine pair, vectors stored as rows.

    At a zero the rows are the stacked null rows (t_i, M); at a pole they
    are the pole vectors (s_j, M).
    """

    surface_point: object
    affine: tuple
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "surface_point", point(self.surface_point))
        object.__setattr__(self, "affine",
                           (complex(self.affine[0]), complex(self.affine[1])))
        object.__setattr__(self, "vectors",
                           np.atleast_2d(np.asarray(self.vectors, dtype=complex)))

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


@dataclass(eq=False)
class ConintDataSet:
    """Concrete data against a reference pencil.

    Coincidence of a zero and a pole is decided by surface-point equality,
    not by affine coordinates (a node of the curve carries two surface
    points over one affine point).
    """

    surface: Surface
    pencil: PencilRep
    zeros: tuple
    poles: tuple
    couplings: dict = field(default_factory=dict)
    membership_tol: float = 1e-8

    def __post_init__(self):
        self.zeros = tuple(self.zeros)
        self.poles = tuple(self.poles)
        for node in self.poles:
            self._require_membership(node, left=False)
        for node in self.zeros:
            self._require_membership(node, left=True)
        for node in (*self.zeros, *self.poles):
            s = np.linalg.svd(node.vectors, compute_uv=False)
            if s[-1] <= 1e-10 * s[0]:
                raise InputError("vector set at a node is numerically dependent")
        pairs = self.coincident_pairs()
        self.couplings = coupling_table(self.couplings, self.zeros, self.poles, pairs)

    def _require_membership(self, node, left: bool):
        z1, z2 = node.affine
        mat = self.pencil.pencil(z1, z2)
        for vec in node.vectors:
            image = vec @ mat if left else mat @ vec
            scale = float(np.linalg.norm(mat)) * float(np.linalg.norm(vec)) + EPS_GUARD
            if float(np.linalg.norm(image)) / scale > self.membership_tol:
                side = "left" if left else "right"
                raise InputError(f"vector not in the {side} kernel of the pencil")

    def coincident_pairs(self) -> list[tuple[int, int]]:
        return self.surface.coincidences([z.surface_point for z in self.zeros],
                                         [p.surface_point for p in self.poles])

    @property
    def n_zero_total(self) -> int:
        return sum(z.count for z in self.zeros)

    @property
    def n_pole_total(self) -> int:
        return sum(p.count for p in self.poles)


@dataclass(frozen=True, eq=False)
class BlockMatrices:
    """Diagonal coordinate blocks and stacked vector matrices."""

    A1: np.ndarray   # (N_pole, N_pole)
    A2: np.ndarray
    Z1: np.ndarray   # (N_zero, N_zero)
    Z2: np.ndarray
    phi: np.ndarray  # (M, N_pole)
    psi: np.ndarray  # (N_zero, M)


def block_matrices(data: ConintDataSet) -> BlockMatrices:
    a1 = np.concatenate([[p.affine[0]] * p.count for p in data.poles]) \
        if data.poles else np.zeros(0)
    a2 = np.concatenate([[p.affine[1]] * p.count for p in data.poles]) \
        if data.poles else np.zeros(0)
    z1 = np.concatenate([[z.affine[0]] * z.count for z in data.zeros]) \
        if data.zeros else np.zeros(0)
    z2 = np.concatenate([[z.affine[1]] * z.count for z in data.zeros]) \
        if data.zeros else np.zeros(0)
    size = data.pencil.size
    phi = np.hstack([p.vectors.T for p in data.poles]) if data.poles \
        else np.zeros((size, 0), dtype=complex)
    psi = np.vstack([z.vectors for z in data.zeros]) if data.zeros \
        else np.zeros((0, size), dtype=complex)
    return BlockMatrices(np.diag(a1.astype(complex)), np.diag(a2.astype(complex)),
                         np.diag(z1.astype(complex)), np.diag(z2.astype(complex)),
                         phi, psi)


def _sigma_xi(pencil: PencilRep, xi) -> np.ndarray:
    return complex(xi[0]) * pencil.sigma1 + complex(xi[1]) * pencil.sigma2


def build_gamma0(data: ConintDataSet, xi) -> np.ndarray:
    """Concrete coupling matrix at the direction xi.

    Raises XiDenominatorZero when the direction pairs to zero against some
    non-coincident node difference; redraw xi in that case.
    """
    xi1, xi2 = complex(xi[0]), complex(xi[1])
    sig = _sigma_xi(data.pencil, xi)
    coincident = set(data.coincident_pairs())
    rows = np.cumsum([0] + [z.count for z in data.zeros])
    cols = np.cumsum([0] + [p.count for p in data.poles])
    gamma0 = np.zeros((data.n_zero_total, data.n_pole_total), dtype=complex)
    for i, zn in enumerate(data.zeros):
        for j, pn in enumerate(data.poles):
            block = np.s_[rows[i]:rows[i + 1], cols[j]:cols[j + 1]]
            if (i, j) in coincident:
                gamma0[block] = -data.couplings[(i, j)]
                continue
            denom = xi1 * (pn.affine[0] - zn.affine[0]) + xi2 * (pn.affine[1] - zn.affine[1])
            scale = (abs(xi1) + abs(xi2)) * (
                abs(pn.affine[0]) + abs(pn.affine[1])
                + abs(zn.affine[0]) + abs(zn.affine[1]) + 1.0
            )
            if abs(denom) <= 1e-12 * scale:
                raise XiDenominatorZero(
                    f"direction {xi} degenerate against nodes {i}, {j}"
                )
            gamma0[block] = (zn.vectors @ sig @ pn.vectors.T) / denom
    return gamma0


@dataclass(eq=False)
class ConintSolution:
    """Updated pencil and the interpolating bundle-map evaluators."""

    data: ConintDataSet
    gamma0: np.ndarray
    gamma: np.ndarray
    xi: tuple
    xi_consistency: float

    def __post_init__(self):
        pen = self.data.pencil
        self.pencil_new = PencilRep(pen.size, pen.rank, pen.sigma1, pen.sigma2,
                                    self.gamma)
        self._blocks = block_matrices(self.data)

    def _d_poles(self, z, xi):
        xi1, xi2 = complex(xi[0]), complex(xi[1])
        return xi1 * (complex(z[0]) * np.eye(self._blocks.A1.shape[0]) - self._blocks.A1) \
            + xi2 * (complex(z[1]) * np.eye(self._blocks.A2.shape[0]) - self._blocks.A2)

    def _d_zeros(self, z, xi):
        xi1, xi2 = complex(xi[0]), complex(xi[1])
        return xi1 * (complex(z[0]) * np.eye(self._blocks.Z1.shape[0]) - self._blocks.Z1) \
            + xi2 * (complex(z[1]) * np.eye(self._blocks.Z2.shape[0]) - self._blocks.Z2)

    def s_matrix(self, z, xi=None) -> np.ndarray:
        """Full matrix of S at affine z; meaningful on ker U_gamma(z) only."""
        xi = xi or self.xi
        blocks = self._blocks
        if blocks.phi.shape[1] == 0:
            return np.eye(self.data.pencil.size, dtype=complex)
        sig = _sigma_xi(self.data.pencil, xi)
        mid = np.linalg.solve(self._d_poles(z, xi),
                              np.linalg.solve(self.gamma0, blocks.psi @ sig))
        return np.eye(self.data.pencil.size, dtype=complex) + blocks.phi @ mid

    def s_left_inv_matrix(self, z, xi=None) -> np.ndarray:
        """Right-multiplication matrix of S_left^{-1} at affine z."""
        xi = xi or self.xi
        blocks = self._blocks
        if blocks.phi.shape[1] == 0:
            return np.eye(self.data.pencil.size, dtype=complex)
        sig = _sigma_xi(self.data.pencil, xi)
        mid = np.linalg.solve(self._d_zeros(z, xi).T,
                              np.linalg.solve(self.gamma0.T, (sig @ blocks.phi).T)).T
        return np.eye(self.data.pencil.size, dtype=complex) - mid @ blocks.psi

    def apply(self, z, columns, xi=None, project: bool = True) -> np.ndarray:
        """Apply S at affine z to kernel column vectors.

        The inputs are orthogonally projected onto the numerical kernel of
        the updated pencil first, enforcing the restriction semantics.
        """
        cols = np.atleast_2d(np.asarray(columns, dtype=complex))
        if cols.shape[0] != self.data.pencil.size:
            cols = cols.T
        if project:
            cols = self._project_kernel(z, cols)
        return self.s_matrix(z, xi) @ cols

    def _project_kernel(self, z, cols) -> np.ndarray:
        mat = self.pencil_new.pencil(complex(z[0]), complex(z[1]))
        _, s, vh = np.linalg.svd(mat)
        r = self.data.pencil.rank
        basis = vh[-r:].conj().T
        return basis @ (basis.conj().T @ cols)


def solve_conint(data: ConintDataSet, xi=None) -> ConintSolution:
    """Solve the concrete problem: updated gamma and bundle maps.

    Enforces the coincidence consistency psi (xi sigma) phi = 0 before
    solving, at two independent directions; checks direction independence
    of the coupling matrix.
    """
    xi = tuple(xi) if xi is not None else DEFAULT_XI
    pen = data.pencil
    for (i, j) in data.coincident_pairs():
        for probe in (DEFAULT_XI, SECOND_XI):
            sig = _sigma_xi(pen, probe)
            val = data.zeros[i].vectors @ sig @ data.poles[j].vectors.T
            scale = (float(np.linalg.norm(data.zeros[i].vectors))
                     * float(np.linalg.norm(sig))
                     * float(np.linalg.norm(data.poles[j].vectors)) + EPS_GUARD)
            if float(np.abs(val).max()) / scale > 1e-10:
                raise ZPViolated(
                    f"pairing {float(np.abs(val).max()):.3e} at coincidence {(i, j)}"
                )
    gamma0 = build_gamma0(data, xi)
    alt = build_gamma0(data, SECOND_XI if xi == DEFAULT_XI else DEFAULT_XI)
    if gamma0.size:
        consistency = float(np.abs(gamma0 - alt).max()) / (
            float(np.abs(gamma0).max()) + float(np.abs(alt).max()) + EPS_GUARD
        )
    else:
        consistency = 0.0
    if gamma0.shape[0] != gamma0.shape[1]:
        raise NotSquare(f"concrete coupling matrix is {gamma0.shape}")
    if gamma0.size:
        cond = svd_cond(gamma0)
        if cond > COND_LIMIT:
            raise SingularGamma0(f"concrete coupling matrix condition {cond:.3e}")
    blocks = block_matrices(data)
    if gamma0.size:
        mid = np.linalg.solve(gamma0, blocks.psi)
        correction = blocks.phi @ mid
        gamma = (pen.gamma
                 - pen.sigma1 @ correction @ pen.sigma2
                 + pen.sigma2 @ correction @ pen.sigma1)
    else:
        gamma = pen.gamma.copy()
    return ConintSolution(data, gamma0, gamma, xi, consistency)


def convert_absint_to_conint(data: InterpolationDataSet,
                             oracle_tilde: CauchyKernelOracle,
                             embedding: EmbeddingPair,
                             pencil_tilde: PencilRep | None = None) -> ConintDataSet:
    """Concrete data from abstract data through the normalized sections.

    phi_jb = u_cross(mu^j) u_jb and psi_ia = x_ia u_cross_left(lambda^i);
    couplings carry over unchanged.  The embedding poles must avoid every
    interpolation node.
    """
    for node in (*data.zeros, *data.poles):
        if embedding.is_pole(coord(node.point)):
            raise PoleCollision(f"node {node.point!r} sits on an embedding pole")
    pencil_tilde = pencil_tilde or build_pencil(oracle_tilde, embedding)
    sections = normalized_sections(oracle_tilde, embedding)
    zeros = []
    for zn in data.zeros:
        left = sections.left(zn.point)
        vecs = zn.vectors @ left
        zeros.append(ConintNode(zn.point, embedding.lambda_values(zn.point), vecs))
    poles = []
    for pn in data.poles:
        right = sections.right(pn.point)
        vecs = (right @ pn.vectors.T).T
        poles.append(ConintNode(pn.point, embedding.lambda_values(pn.point), vecs))
    return ConintDataSet(
        surface=data.surface,
        pencil=pencil_tilde,
        zeros=tuple(zeros),
        poles=tuple(poles),
        couplings={k: v.copy() for k, v in data.couplings.items()},
    )


def check_gamma_equality(data: InterpolationDataSet,
                         oracle_tilde: CauchyKernelOracle,
                         converted: ConintDataSet, xi=None) -> float:
    """Max entrywise relative difference between the two coupling matrices."""
    xi = tuple(xi) if xi is not None else DEFAULT_XI
    gamma = build_gamma(data, oracle_tilde).matrix
    gamma0 = build_gamma0(converted, xi)
    if gamma.shape != gamma0.shape:
        raise NotSquare("coupling matrices have different shapes")
    if gamma.size == 0:
        return 0.0
    denom = np.abs(gamma) + np.abs(gamma0) + EPS_GUARD
    return float((np.abs(gamma - gamma0) / denom).max())


def check_intertwining(solution: ConintSolution, T,
                       oracle_chi: CauchyKernelOracle,
                       oracle_tilde: CauchyKernelOracle,
                       embedding: EmbeddingPair, p, xi=None) -> float:
    """Residual of S(z(p)) beta^{-1} u_cross_in(p) = u_cross_out(p) T(p).

    beta^{-1} stacks the boundary values T(x^i) blockwise; the left side
    applies the concrete map to the normalized input sections, the right
    side maps the output sections through the abstract interpolant.
    """
    pc = coord(p)
    if embedding.is_pole(pc):
        raise PointOnExcludedSet("intertwining check excludes the embedding poles")
    nodes = [node.surface_point for node in (*solution.data.zeros, *solution.data.poles)]
    if np.any(solution.data.surface.equal(pc, nodes)):
        raise PointOnExcludedSet("intertwining check excludes the nodes")
    r = oracle_chi.rank
    u_in = np.vstack([oracle_chi(x, pc) for x in embedding.pole_points])
    beta_inv_blocks = [np.asarray(T(x), dtype=complex) for x in embedding.pole_points]
    lifted = np.vstack([
        beta_inv_blocks[i] @ u_in[i * r:(i + 1) * r] for i in range(embedding.m)
    ])
    z = embedding.lambda_values(pc)
    lhs = solution.apply(z, lifted, xi=xi)
    u_out = np.vstack([oracle_tilde(x, pc) for x in embedding.pole_points])
    rhs = u_out @ np.asarray(T(pc), dtype=complex)
    return rel_residual(lhs, rhs)


def _holomorphic_left_kernel(mat: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Rows N with N mat = 0 and N probe = I_r; holomorphic in mat entries.

    The normalization against a fixed probe matrix makes the solution of
    the combined linear system unique, hence holomorphic along any
    holomorphic family of pencils; an SVD basis would not be.
    """
    m, r = probe.shape
    stacked = np.hstack([mat, probe])           # (M, M + r)
    rhs = np.zeros((m + r, r), dtype=complex)
    rhs[m:, :] = np.eye(r)
    sol, *_ = np.linalg.lstsq(stacked.T, rhs, rcond=None)
    return sol.T                                 # (r, M)


def check_condition_I3(solution: ConintSolution, embedding: EmbeddingPair,
                       pair: tuple[int, int], xi=None, seed: int = 1234) -> np.ndarray:
    """Residual matrix of the coupled interpolation condition at a coincidence.

    For each null row psi_ia a local holomorphic section
    psi(t) = (c0 + c1 t) R(t) of the reference left kernel bundle (frame
    R) is continued along the curve so that psi(t) S_left(p(t)) has
    analytic-continuation value 0 at the node; then

        psi'(0) (xi.sigma) phi_jb / (xi.lambda')
          - psi(0) (xi.sigma) phi_jb (xi.lambda'') / (2 (xi.lambda')^2)

    is compared against rho[(i, j)][a, b].  R and the pull-back
    H(t) = transfer(t)^+ new(t), with psi(t) S_left = (c0 + c1 t) H(t), are
    sampled on one circle of radius 1e-3 around the node: R(0) and R'(0)
    are its modes 0 and 1, and the value at the node is the mean,
    c0 H_0 + c1 H_-1.  lambda' and lambda'' come from lambda_derivs.
    """
    xi = tuple(xi) if xi is not None else solution.xi
    data = solution.data
    if pair not in set(data.coincident_pairs()):
        raise NoCoincidence(f"nodes {pair} do not coincide on the surface")
    i, j = pair
    zn, pn = data.zeros[i], data.poles[j]
    xi_c = coord(zn.surface_point)
    size = data.pencil.size
    r = data.pencil.rank
    rng = np.random.default_rng(seed)
    probe_ref = rng.standard_normal((size, r)) + 1j * rng.standard_normal((size, r))
    probe_new = rng.standard_normal((size, r)) + 1j * rng.standard_normal((size, r))

    def frames(ts):
        out = []
        for z in embedding.lambda_values(ts):
            ref = _holomorphic_left_kernel(data.pencil.pencil(*z), probe_ref)
            new = _holomorphic_left_kernel(solution.pencil_new.pencil(*z), probe_new)
            transfer = new @ solution.s_left_inv_matrix(z, xi)
            pulled, *_ = np.linalg.lstsq(transfer.T, ref.T, rcond=None)
            out.append((ref, pulled.T @ new))
        return np.array(out)

    modes = circle_modes(frames, xi_c, 1e-3, orders=(-1, 0, 1))
    frame0, frame_deriv = modes[0][0], modes[1][0]
    h0, h_minus1 = modes[0][1], modes[-1][1]

    d1 = embedding.lambda_derivs(xi_c, order=1)
    d2 = embedding.lambda_derivs(xi_c, order=2)
    xi1, xi2 = complex(xi[0]), complex(xi[1])
    slope = xi1 * d1[0] + xi2 * d1[1]
    curvature = xi1 * d2[0] + xi2 * d2[1]
    sig = _sigma_xi(data.pencil, xi)

    c0 = np.linalg.lstsq(frame0.T, zn.vectors.T, rcond=None)[0].T
    c1 = np.linalg.lstsq(h_minus1.T, -(c0 @ h0).T, rcond=None)[0].T
    psi_deriv = c1 @ frame0 + c0 @ frame_deriv
    term1 = psi_deriv @ sig @ pn.vectors.T / slope
    term2 = (zn.vectors @ sig @ pn.vectors.T) * curvature / (2.0 * slope**2)
    value = term1 - term2
    rho = data.couplings[(i, j)]
    return np.abs(value - rho) / (np.abs(value) + np.abs(rho) + 1.0)
