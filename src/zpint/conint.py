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
    S(z)  = [I + phi D(z)^{-1} Gamma0^{-1} psi (xi1 sigma1 + xi2 sigma2)]
            restricted to ker U_gamma(z),

with D(z) = diag(xi1 (z1 - mu1) + xi2 (z2 - mu2)) over the pole rows, and
the left inverse acting from the right by the mirrored formula.
Conversion from abstract zero-pole data uses the normalized sections of
the output pencil; the abstract and concrete coupling matrices then agree
entrywise, and the abstract solution T intertwines with S through the
boundary-value normalization beta = diag(T(x^i))^{-1}.

The zeros and poles are the InterpolationNode of absint, of width M (the
pencil size) instead of the rank, laid out and validated as in the
abstract data set; ConintDataSet adds the affine pair lambda(p) of each
node, one (n, 2) array per side.  Psi and Phi are the stacked rows of
the data set, and every per-row affine pair is read from those arrays
through the node of each row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .absint import (
    InterpolationDataSet,
    InterpolationNode,
    _NodeData,
    build_gamma,
)
from .detrep import PencilRep, build_pencil, normalized_sections
from .errors import (
    InputError,
    NoCoincidence,
    NotSquare,
    PointOnExcludedSet,
    XiDenominatorZero,
    ZPViolated,
)
from .kernels import CauchyKernelOracle
from .numutil import EPS_GUARD, checked_cond, circle_modes, rel_residual
from .surface import EmbeddingPair, Surface

__all__ = [
    "ConintDataSet",
    "ConintSolution",
    "build_gamma0",
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
class ConintDataSet(_NodeData):
    """Concrete data against a reference pencil of size M.

    zeros and poles are InterpolationNode of width M, their rows the null
    rows psi and the pole vectors phi; zero_affine and pole_affine are the
    affine pairs lambda(p) of the nodes, (n, 2) per side.  Validation is
    that of absint (_NodeData), then finite affine pairs and membership of
    every vector in the left (zeros) or right (poles) kernel of the pencil
    at its pair, to membership_tol.  Coincidence of a zero and a pole is
    decided by surface-point equality, not by affine coordinates (a node
    of the curve carries two surface points over one affine point).
    """

    surface: Surface
    pencil: PencilRep
    zeros: tuple
    poles: tuple
    zero_affine: np.ndarray
    pole_affine: np.ndarray
    couplings: dict = field(default_factory=dict)
    membership_tol: float = 1e-8

    def __post_init__(self):
        self._lay_out(self.pencil.size)
        for name, rows, left in (("pole_affine", self.pole_rows, False),
                                 ("zero_affine", self.zero_rows, True)):
            affine = np.asarray(getattr(self, name), dtype=complex)
            count = len(rows.blocks)
            if affine.shape != (count, 2) or not np.isfinite(affine).all():
                raise InputError(f"{name} must be a finite ({count}, 2) array")
            object.__setattr__(self, name, affine)
            self._require_membership(rows, affine, left)

    def _require_membership(self, rows, affine, left: bool):
        z = affine[rows.node_of]
        mats = self.pencil.pencil(z[:, 0], z[:, 1])
        vecs = rows.vectors
        image = (np.einsum("ak,akl->al", vecs, mats) if left
                 else np.einsum("akl,al->ak", mats, vecs))
        scale = (np.linalg.norm(mats, axis=(1, 2)) * np.linalg.norm(vecs, axis=1)
                 + EPS_GUARD)
        if np.any(np.linalg.norm(image, axis=1) / scale > self.membership_tol):
            side = "left" if left else "right"
            raise InputError(f"vector not in the {side} kernel of the pencil")


def _sigma_xi(pencil: PencilRep, xi) -> np.ndarray:
    return complex(xi[0]) * pencil.sigma1 + complex(xi[1]) * pencil.sigma2


def _xi_gap(xi, a, b) -> np.ndarray:
    """xi1 (a1 - b1) + xi2 (a2 - b2) over the last axis of affine arrays."""
    return complex(xi[0]) * (a[..., 0] - b[..., 0]) + complex(xi[1]) * (a[..., 1] - b[..., 1])


def build_gamma0(data: ConintDataSet, xi) -> np.ndarray:
    """Concrete coupling matrix at the direction xi.

    The pairings are one product Psi (xi sigma) Phi^T over the stacked
    null rows Psi of the zeros and pole vectors Phi of the poles, divided
    entrywise by the per-row gap xi1 (mu1 - l1) + xi2 (mu2 - l2); the
    coincident blocks are -rho.  Raises XiDenominatorZero when the
    direction pairs to zero against some non-coincident node difference;
    redraw xi in that case.
    """
    psi, phi = data.zero_rows.vectors, data.pole_rows.vectors
    gamma0 = psi @ _sigma_xi(data.pencil, xi) @ phi.T
    z_aff = data.zero_affine[data.zero_rows.node_of][:, None]
    p_aff = data.pole_affine[data.pole_rows.node_of][None, :]
    gap = _xi_gap(xi, p_aff, z_aff)
    scale = (abs(complex(xi[0])) + abs(complex(xi[1]))) * (
        np.abs(p_aff).sum(axis=-1) + np.abs(z_aff).sum(axis=-1) + 1.0)
    apart = ~data.write_couplings(gamma0)
    degenerate = apart & (np.abs(gap) <= 1e-12 * scale)
    if degenerate.any():
        row, col = np.argwhere(degenerate)[0]
        raise XiDenominatorZero(f"direction {xi} degenerate against zero row {row}, "
                                f"pole column {col}")
    np.divide(gamma0, gap, out=gamma0, where=apart)
    return gamma0


@dataclass(eq=False)
class ConintSolution:
    """Updated pencil and the interpolating bundle-map evaluators.

    gamma0 is the concrete coupling matrix at DEFAULT_XI, gamma the updated
    pencil's gamma, and xi_consistency the relative difference of gamma0
    from the coupling matrix at SECOND_XI.  S and its left inverse are read
    at DEFAULT_XI unless another direction is given.
    """

    data: ConintDataSet
    gamma0: np.ndarray
    gamma: np.ndarray
    xi_consistency: float

    def __post_init__(self):
        pen = self.data.pencil
        self.pencil_new = PencilRep(pen.size, pen.rank, pen.sigma1, pen.sigma2,
                                    self.gamma)

    def s_matrix(self, z, xi=None) -> np.ndarray:
        """Full matrix of S at affine z, (M, M), or at each row of an array of
        affine pairs (..., 2), (..., M, M); meaningful on ker U_gamma(z) only."""
        xi = DEFAULT_XI if xi is None else tuple(xi)
        data = self.data
        sig = _sigma_xi(data.pencil, xi)
        gap = _xi_gap(xi, np.asarray(z, dtype=complex)[..., None, :],
                      data.pole_affine[data.pole_rows.node_of])
        mid = np.linalg.solve(self.gamma0, data.zero_rows.vectors @ sig) / gap[..., None]
        return np.eye(data.pencil.size, dtype=complex) + data.pole_rows.vectors.T @ mid

    def s_left_inv_matrix(self, z, xi=None) -> np.ndarray:
        """Right-multiplication matrix of S_left^{-1} at affine z, (M, M), or
        at each row of an array of affine pairs (..., 2), (..., M, M); the
        Gamma0^T system, which z does not enter, is solved once per call."""
        xi = DEFAULT_XI if xi is None else tuple(xi)
        data = self.data
        sig = _sigma_xi(data.pencil, xi)
        gap = _xi_gap(xi, np.asarray(z, dtype=complex)[..., None, :],
                      data.zero_affine[data.zero_rows.node_of])
        mid = np.linalg.solve(self.gamma0.T, (sig @ data.pole_rows.vectors.T).T) / gap[..., None]
        return (np.eye(data.pencil.size, dtype=complex)
                - np.swapaxes(mid, -1, -2) @ data.zero_rows.vectors)

    def apply(self, z, columns, xi=None) -> np.ndarray:
        """Apply S at affine z to kernel column vectors, or at each row of an
        array of affine pairs (N, 2) to its own columns (N, M, k).

        The inputs are orthogonally projected onto the numerical kernel of
        the updated pencil first, enforcing the restriction semantics.
        """
        cols = np.atleast_2d(np.asarray(columns, dtype=complex))
        if cols.shape[-2] != self.data.pencil.size:
            cols = np.swapaxes(cols, -1, -2)
        return self.s_matrix(z, xi) @ self._project_kernel(z, cols)

    def _project_kernel(self, z, cols) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        _, _, vh = np.linalg.svd(self.pencil_new.pencil(z[..., 0], z[..., 1]))
        basis = np.swapaxes(vh[..., -self.data.pencil.rank:, :].conj(), -1, -2)
        return basis @ (np.swapaxes(basis.conj(), -1, -2) @ cols)


def solve_conint(data: ConintDataSet) -> ConintSolution:
    """Solve the concrete problem: updated gamma and bundle maps.

    Enforces the coincidence consistency psi (xi sigma) phi = 0 before
    solving, at the two directions DEFAULT_XI and SECOND_XI; the coupling
    matrix is built at DEFAULT_XI, and its difference from the one at
    SECOND_XI measures direction independence.
    """
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
    gamma0 = build_gamma0(data, DEFAULT_XI)
    alt = build_gamma0(data, SECOND_XI)
    consistency = float(np.abs(gamma0 - alt).max(initial=0.0)) / (
        float(np.abs(gamma0).max(initial=0.0)) + float(np.abs(alt).max(initial=0.0)) + EPS_GUARD
    )
    checked_cond(gamma0, "concrete coupling matrix")
    mid = np.linalg.solve(gamma0, data.zero_rows.vectors)
    correction = data.pole_rows.vectors.T @ mid
    gamma = (pen.gamma
             - pen.sigma1 @ correction @ pen.sigma2
             + pen.sigma2 @ correction @ pen.sigma1)
    return ConintSolution(data, gamma0, gamma, consistency)


def convert_absint_to_conint(data: InterpolationDataSet,
                             oracle_tilde: CauchyKernelOracle,
                             embedding: EmbeddingPair,
                             pencil_tilde: PencilRep | None = None) -> ConintDataSet:
    """Concrete data from abstract data through the normalized sections.

    phi_jb = u_cross(mu^j) u_jb and psi_ia = x_ia u_cross_left(lambda^i),
    the sections of all zeros and of all poles one array call each;
    couplings carry over unchanged.  The embedding poles must avoid every
    interpolation node.
    """
    for node in (*data.zeros, *data.poles):
        if embedding.is_pole(node.point):
            raise PointOnExcludedSet(f"node {node.point!r} sits on an embedding pole")
    pencil_tilde = pencil_tilde or build_pencil(oracle_tilde, embedding)
    sections = normalized_sections(oracle_tilde, embedding)
    zs, ps = [zn.point for zn in data.zeros], [pn.point for pn in data.poles]
    zeros = tuple(InterpolationNode(zn.point, zn.vectors @ left)
                  for zn, left in zip(data.zeros, sections.left(zs)))
    poles = tuple(InterpolationNode(pn.point, (right @ pn.vectors.T).T)
                  for pn, right in zip(data.poles, sections.right(ps)))
    return ConintDataSet(
        surface=data.surface,
        pencil=pencil_tilde,
        zeros=zeros,
        poles=poles,
        zero_affine=embedding.lambda_values(zs),
        pole_affine=embedding.lambda_values(ps),
        couplings={k: v.copy() for k, v in data.couplings.items()},
    )


def check_gamma_equality(data: InterpolationDataSet,
                         oracle_tilde: CauchyKernelOracle,
                         converted: ConintDataSet) -> float:
    """Max entrywise relative difference between the two coupling matrices,
    the concrete one at DEFAULT_XI."""
    gamma = build_gamma(data, oracle_tilde).matrix
    gamma0 = build_gamma0(converted, DEFAULT_XI)
    if gamma.shape != gamma0.shape:
        raise NotSquare("coupling matrices have different shapes")
    if gamma.size == 0:
        return 0.0
    denom = np.abs(gamma) + np.abs(gamma0) + EPS_GUARD
    return float((np.abs(gamma - gamma0) / denom).max())


def check_intertwining(solution: ConintSolution, T,
                       oracle_chi: CauchyKernelOracle,
                       oracle_tilde: CauchyKernelOracle,
                       embedding: EmbeddingPair, p):
    """Residual of S(z(p)) beta^{-1} u_cross_in(p) = u_cross_out(p) T(p).

    beta^{-1} stacks the boundary values T(x^i) blockwise; the left side
    applies the concrete map to the normalized input sections, the right
    side maps the output sections through the abstract interpolant, with S
    at DEFAULT_XI.  p is one point (a float) or a sequence of N points (an
    array (N,)); T is called once, on the pole points and the points
    together, and must give the (N, r, r) values of a sequence.
    """
    P = embedding.surface.points(p)
    if embedding.is_pole(P):
        raise PointOnExcludedSet("intertwining check excludes the embedding poles")
    nodes = [node.point for node in (*solution.data.zeros, *solution.data.poles)]
    if np.any(solution.data.surface.equal(np.asarray(P)[..., None], nodes)):
        raise PointOnExcludedSet("intertwining check excludes the nodes")
    single, P = np.ndim(P) == 0, np.atleast_1d(P)
    r, m = oracle_chi.rank, embedding.m
    values = np.asarray(T(np.concatenate([embedding.pole_points, P])), dtype=complex)
    beta_inv, at_p = values[:m], values[m:]
    u_in = normalized_sections(oracle_chi, embedding).right(P)
    lifted = (beta_inv @ u_in.reshape(len(P), m, r, r)).reshape(u_in.shape)
    lhs = solution.apply(embedding.lambda_values(P), lifted)
    rhs = normalized_sections(oracle_tilde, embedding).right(P) @ at_p
    res = rel_residual(lhs, rhs)
    return float(res[0]) if single else res


def _full_rank_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solutions x of a x = b over a stack (..., m, n), m >= n.

    Assumes each a has full column rank n; then the reduced QR's R is
    invertible and Q^H b solved on R is lstsq's solution.
    """
    q, r = np.linalg.qr(a)
    return np.linalg.solve(r, np.swapaxes(q.conj(), -1, -2) @ b)


def _holomorphic_left_kernel(mat: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Rows N with N mat = 0 and N probe = I_r; holomorphic in mat entries.

    mat is one (M, M) matrix or a stack (..., M, M), giving (..., r, M).
    The normalization against a fixed probe matrix makes the solution of
    the combined linear system unique, hence holomorphic along any
    holomorphic family of pencils; an SVD basis would not be.  The system
    [mat, probe]^T N^T = [0; I] has full column rank M when mat has
    corank r and the probe meets its left kernel transversally.
    """
    m, r = probe.shape
    stacked = np.concatenate([mat, np.broadcast_to(probe, mat.shape[:-1] + (r,))],
                             axis=-1)           # (..., M, M + r)
    rhs = np.zeros((m + r, r), dtype=complex)
    rhs[m:, :] = np.eye(r)
    return np.swapaxes(_full_rank_lstsq(np.swapaxes(stacked, -1, -2), rhs), -1, -2)


def check_condition_I3(solution: ConintSolution, embedding: EmbeddingPair,
                       pair: tuple[int, int], xi=None) -> np.ndarray:
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
    c0 H_0 + c1 H_-1.  lambda' and lambda'' come from one lambda_jet pass.
    """
    xi = tuple(xi) if xi is not None else DEFAULT_XI
    data = solution.data
    if pair not in set(data.coincident_pairs()):
        raise NoCoincidence(f"nodes {pair} do not coincide on the surface")
    i, j = pair
    zn, pn = data.zeros[i], data.poles[j]
    xi_c = zn.point
    size = data.pencil.size
    r = data.pencil.rank
    rng = np.random.default_rng(1234)   # fixed probes: a deterministic residual
    probe_ref = rng.standard_normal((size, r)) + 1j * rng.standard_normal((size, r))
    probe_new = rng.standard_normal((size, r)) + 1j * rng.standard_normal((size, r))

    def frames(ts):   # (16, 2, r, M) at the 16 circle points, one stack each
        z = embedding.lambda_values(ts)
        ref = _holomorphic_left_kernel(data.pencil.pencil(z[:, 0], z[:, 1]), probe_ref)
        new = _holomorphic_left_kernel(solution.pencil_new.pencil(z[:, 0], z[:, 1]),
                                       probe_new)
        transfer = new @ solution.s_left_inv_matrix(z, xi)
        # transfer maps onto the reference left kernel, so it has rank r
        pulled = _full_rank_lstsq(np.swapaxes(transfer, -1, -2), np.swapaxes(ref, -1, -2))
        return np.stack([ref, np.swapaxes(pulled, -1, -2) @ new], axis=1)

    modes = circle_modes(frames, xi_c, 1e-3, orders=(-1, 0, 1))
    frame0, frame_deriv = modes[0][0], modes[1][0]
    h0, h_minus1 = modes[0][1], modes[-1][1]

    _, d1, d2 = embedding.lambda_jet(xi_c, 2)
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
