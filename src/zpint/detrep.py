"""Determinantal representations of the image curve from a Cauchy kernel.

Given embedding functions (lambda_1, lambda_2) with simple poles at
x^1, ..., x^m and a rank-r Cauchy kernel, the matrices

    sigma1 = diag(c_i1 I_r),  sigma2 = diag(c_i2 I_r),
    gamma_ii = (d_i1 c_i2 - d_i2 c_i1) I_r,
    gamma_ij = (c_i1 c_j2 - c_j1 c_i2) K(chi; x^i, x^j)   (i != j)

form a pencil z1 sigma2 - z2 sigma1 + gamma whose determinant vanishes on
the image curve with kernel dimension r there, realizing the bundle as a
kernel bundle.  The normalized section matrices

    u_cross(p) = [K(chi; x^1, p); ...; K(chi; x^m, p)]  (stacked),
    u_cross_left(p) = -[K(chi; p, x^1), ..., K(chi; p, x^m)]

annihilate the pencil on the curve from the right and left and pair to
the identity against (xi1 sigma1 + xi2 sigma2) / (xi1 dl1 + xi2 dl2).
The gamma blocks and the line-section matrix are each one kernel_grid,
in the block layout of absint's Gamma and conint's Gamma0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InputError, PointOnExcludedSet, SurfaceMismatch
from .kernels import CauchyKernelOracle, _block_form, kernel_grid
from .numutil import checked_cond, numerical_kernel_dim, rel_residual, svd_cond
from .surface import EmbeddingPair

__all__ = [
    "PencilRep",
    "NormalizedSections",
    "build_pencil",
    "normalized_sections",
    "check_kernel_identities",
    "curve_membership",
    "adjust_gamma_by_map",
    "line_section_condition",
]


@dataclass(frozen=True, eq=False)
class PencilRep:
    """Two-variable pencil z1 sigma2 - z2 sigma1 + gamma of size M = m r."""

    size: int
    rank: int
    sigma1: np.ndarray
    sigma2: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for name in ("sigma1", "sigma2", "gamma"):
            mat = np.asarray(getattr(self, name), dtype=complex).reshape(
                self.size, self.size
            )
            object.__setattr__(self, name, mat)

    def pencil(self, z1, z2) -> np.ndarray:
        """z1 sigma2 - z2 sigma1 + gamma, (M, M); over arrays z1, z2 the stack (..., M, M)."""
        z1 = np.asarray(z1, dtype=complex)[..., None, None]
        z2 = np.asarray(z2, dtype=complex)[..., None, None]
        return z1 * self.sigma2 - z2 * self.sigma1 + self.gamma

    @property
    def m(self) -> int:
        return self.size // self.rank

    def to_json(self) -> str:
        def enc(mat):
            return [[[float(v.real), float(v.imag)] for v in row] for row in mat]

        return json.dumps(
            {
                "M": self.size,
                "rank": self.rank,
                "sigma1": enc(self.sigma1),
                "sigma2": enc(self.sigma2),
                "gamma": enc(self.gamma),
            }
        )

    @classmethod
    def from_json(cls, payload) -> "PencilRep":
        if isinstance(payload, (str, bytes)):
            payload = json.loads(payload)
        try:
            size = int(payload["M"])
            rank = int(payload["rank"])
            mats = {}
            for name in ("sigma1", "sigma2", "gamma"):
                mats[name] = np.array(
                    [[complex(v[0], v[1]) for v in row] for row in payload[name]]
                )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InputError(f"bad pencil payload: {exc}") from exc
        return cls(size, rank, mats["sigma1"], mats["sigma2"], mats["gamma"])


@dataclass(frozen=True, eq=False)
class NormalizedSections:
    """Right and left normalized section evaluators of the kernel bundle.

    Each takes one point or a sequence of N points and makes one
    oracle call over all (point, pole point) pairs; a non-finite
    p raises InputError, as a single-pair call does.
    """

    oracle: CauchyKernelOracle
    embedding: EmbeddingPair

    def _sections(self, p, right: bool) -> np.ndarray:
        surface, m, r = self.embedding.surface, self.embedding.m, self.oracle.rank
        P = surface.points(p)
        ps = np.repeat(np.atleast_1d(P), m)
        xs = np.tile(self.embedding.pole_points, len(ps) // m)
        if right:   # K(x^i, p) stacked down
            out = self.oracle(xs, ps).reshape(-1, m * r, r)
        else:       # -K(p, x^i) side by side
            out = -self.oracle(ps, xs).reshape(-1, m, r, r).transpose(
                0, 2, 1, 3).reshape(-1, r, m * r)
        return out[0] if np.ndim(P) == 0 else out

    def right(self, p) -> np.ndarray:
        """u_cross(p), shape (M, r), or (N, M, r) over N points; poles exactly at the x^i."""
        return self._sections(p, right=True)

    def left(self, p) -> np.ndarray:
        """u_cross_left(p), shape (r, M), or (N, r, M) over N points."""
        return self._sections(p, right=False)


def _require_same_surface(oracle, embedding):
    if not oracle.surface.same_as(embedding.surface):
        raise SurfaceMismatch("kernel and embedding live on different surfaces")


def build_pencil(oracle: CauchyKernelOracle, embedding: EmbeddingPair) -> PencilRep:
    """Assemble the pencil matrices from kernel values at the pole points.

    The off-diagonal gamma blocks are the weights c_i1 c_j2 - c_j1 c_i2
    times one kernel_grid over the pole points, whose diagonal is zero.
    """
    _require_same_surface(oracle, embedding)
    r = oracle.rank
    c = embedding.residues
    d = embedding.consts
    weights = c[:, None, 0] * c[None, :, 1] - c[None, :, 0] * c[:, None, 1]
    grid = kernel_grid(oracle, embedding.pole_points, embedding.pole_points)
    diagonal = d[:, 0] * c[:, 1] - d[:, 1] * c[:, 0]
    gamma = _block_form(weights[:, :, None, None] * grid) + np.diag(np.repeat(diagonal, r))
    return PencilRep(embedding.m * r, r, np.diag(np.repeat(c[:, 0], r)),
                     np.diag(np.repeat(c[:, 1], r)), gamma)


def normalized_sections(oracle: CauchyKernelOracle,
                        embedding: EmbeddingPair) -> NormalizedSections:
    _require_same_surface(oracle, embedding)
    return NormalizedSections(oracle, embedding)


def _off_poles(embedding: EmbeddingPair, p, what: str):
    """Coordinates of one point or a sequence, as an array, and whether p was
    one point; PointOnExcludedSet when one of them is an embedding pole."""
    P = embedding.surface.points(p)
    if embedding.is_pole(P):
        raise PointOnExcludedSet(f"{what} exclude the embedding poles")
    return np.atleast_1d(P), np.ndim(P) == 0


def check_kernel_identities(pencil: PencilRep, sections: NormalizedSections,
                            embedding: EmbeddingPair, p, xi):
    """Residuals of the three pencil identities at p, one point or a sequence.

    (1) pencil(l1, l2) u_cross(p) = 0;
    (2) u_cross_left(p) pencil(l1, l2) = 0;
    (3) u_cross_left (xi1 sigma1 + xi2 sigma2) u_cross / (xi1 l1' + xi2 l2') = I,
    at the direction xi, or at each row of an array of directions (K, 2).

    Returns (res1, res2, res3): floats at one point and one direction;
    over N points res1 and res2 have shape (N,) and res3 (N,) or (N, K).
    """
    P, single = _off_poles(embedding, p, "identity checks")
    lam = embedding.lambda_values(P)
    u = sections.right(P)                  # (N, M, r)
    ul = sections.left(P)                  # (N, r, M)
    upen = pencil.pencil(lam[:, 0], lam[:, 1])
    norm = partial(np.linalg.norm, axis=(-2, -1))
    res1 = norm(upen @ u) / (norm(upen) * norm(u) + 1e-300)
    res2 = norm(ul @ upen) / (norm(ul) * norm(upen) + 1e-300)
    xis = np.asarray(xi, dtype=complex)
    dirs = xis.reshape(-1, 2)              # (K, 2)
    d = embedding.lambda_derivs(P, order=1)
    slope = dirs[:, 0] * d[:, :1] + dirs[:, 1] * d[:, 1:]           # (N, K)
    sig = dirs[:, 0, None, None] * pencil.sigma1 + dirs[:, 1, None, None] * pencil.sigma2
    pairing = ul[:, None] @ sig @ u[:, None] / slope[..., None, None]
    res3 = rel_residual(pairing, np.eye(pencil.rank)).reshape(len(P), *xis.shape[:-1])
    if single:
        return float(res1[0]), float(res2[0]), res3[0] if res3.ndim > 1 else float(res3[0])
    return res1, res2, res3


def curve_membership(pencil: PencilRep, embedding: EmbeddingPair, p):
    """On-curve test of the pencil at the image of p, one point or a sequence.

    Returns (relative determinant, numerical kernel dimension): the
    product of the r smallest singular values over the r-th power of the
    smallest one above the rank gap, and the SVD kernel dimension
    (numerical_kernel_dim); a float and an int at one point, arrays (N,)
    over N points.
    """
    P, single = _off_poles(embedding, p, "membership tests")
    lam = embedding.lambda_values(P)
    det_rel, kdim = pencil_membership(pencil, lam[:, 0], lam[:, 1])
    return (float(det_rel[0]), int(kdim[0])) if single else (det_rel, kdim)


def pencil_membership(pencil: PencilRep, z1, z2):
    """Membership statistic of the pencil at an affine point, or elementwise
    over arrays z1, z2: one stacked SVD for all of them."""
    mat = pencil.pencil(z1, z2)
    s = np.linalg.svd(mat, compute_uv=False)
    r = pencil.rank
    ref = s[..., pencil.size - r - 1] if pencil.size > r else s[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        det_rel = np.where(ref > 0, np.prod(s[..., pencil.size - r:], axis=-1) / ref**r, 0.0)
    kdim = numerical_kernel_dim(mat)
    return (float(det_rel), int(kdim)) if det_rel.ndim == 0 else (det_rel, kdim)


def adjust_gamma_by_map(pencil: PencilRep, boundary_values) -> PencilRep:
    """Normalize the pencil by boundary values T(x^1), ..., T(x^m).

    Conjugates by alpha = diag(T(x^i)) and beta = alpha^{-1}; the sigmas
    commute with the block-scalar conjugation and are unchanged, while
    gamma_ij becomes T(x^i) gamma_ij T(x^j)^{-1}, all blocks in one
    stacked product (the scalar diagonal blocks keep their values).
    """
    r, m = pencil.rank, pencil.m
    values = np.array([np.asarray(v, dtype=complex).reshape(r, r) for v in boundary_values])
    if len(values) != m:
        raise InputError("need one boundary value per pole point")
    for i, v in enumerate(values, 1):
        checked_cond(v, f"boundary value T(x^{i})")
    blocks = pencil.gamma.reshape(m, r, m, r).transpose(0, 2, 1, 3)
    conjugated = values[:, None] @ blocks @ np.linalg.inv(values)[None, :]
    return PencilRep(pencil.size, r, pencil.sigma1, pencil.sigma2, _block_form(conjugated))


def line_section_condition(oracle: CauchyKernelOracle, embedding: EmbeddingPair,
                           y_points) -> float:
    """Condition number of the block matrix [K(chi; x^i, y^j)].

    For a line section y^1, ..., y^m (on the torus: any m points whose sum
    is lattice-equivalent to the sum of the x^i), invertibility of this
    matrix reflects h^0 = 0 for the bundle; returns the condition number.
    """
    _require_same_surface(oracle, embedding)
    ys = list(y_points)
    if len(ys) != embedding.m:
        raise InputError("need exactly m section points")
    if embedding.surface.coincidences(embedding.pole_points, ys):
        raise PointOnExcludedSet("line section points exclude the embedding poles")
    return svd_cond(_block_form(kernel_grid(oracle, embedding.pole_points, ys)))
