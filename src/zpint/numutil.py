"""Shared numerical helpers: contour mode extraction, rank and solvability
decisions.

Every derivative and Laurent coefficient that zpint reads from values of
a kernel or an interpolant comes from `circle_modes`: the trapezoid rule on a circle around the point, which
converges geometrically for analytic integrands (Trefethen & Weideman,
SIAM Rev. 56, 2014) and gives derivatives of analytic functions without
a difference step (Fornberg, ACM TOMS 7, 1981).  Every matrix zpint
solves or inverts passes `checked_cond` first, its one test of shape and
condition.  Everything here is plain dense numpy on desk-scale matrices.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import NotSquare, SingularMatrix

__all__ = [
    "COND_LIMIT",
    "checked_cond",
    "circle_modes",
    "rel_residual",
    "svd_cond",
    "numerical_kernel_dim",
    "principal_angle_gap",
    "orth_columns",
]

EPS_GUARD = 1e-300

# Condition number above which a matrix to be solved counts as singular.
COND_LIMIT = 1e12

# Equispaced points on every circle circle_modes samples.
CIRCLE_SAMPLES = 16

# Smallest singular-value ratio numerical_kernel_dim reads as a rank gap.
GAP_RATIO = 1e6


def circle_modes(f, center, radius: float, orders):
    """Laurent modes of f around center from equispaced circle samples.

    For f(t) = sum_m a_m (t - center)^m analytic in a punctured disk larger
    than radius, the trapezoid average (1/N) sum_k f(t_k) t_k^{-m} equals
    a_m up to aliased modes a_{m + N}, a_{m - N}, ...; with
    N = CIRCLE_SAMPLES = 16 and a radius small against the distance to the
    next singularity the aliasing error is far below double precision
    roundoff.

    center is one point or an array of points.  f is called once, on the
    array of all circle points, of shape (N, *center.shape), and returns
    values of shape (N, *center.shape, ...) (a list of the per-point values
    will do).  Returns a dict order -> coefficient of
    shape (*center.shape, ...), a complex for a scalar one.
    """
    center = np.asarray(center, dtype=complex)
    n = CIRCLE_SAMPLES
    rim = radius * np.exp(2j * np.pi * np.arange(n) / n)
    points = center + rim.reshape((n,) + (1,) * center.ndim)
    values = np.asarray(f(points), dtype=complex)
    spectrum = np.fft.fft(values, axis=0) / n
    out = {}
    for m in orders:
        coeff = spectrum[m % n] / radius**m
        out[m] = complex(coeff) if coeff.ndim == 0 else coeff
    return out


def rel_residual(lhs, rhs):
    """Frobenius residual |lhs - rhs| / (|lhs| + |rhs| + guard) of two
    matrices (a float), or of each pair of two stacks (..., m, n) (an array)."""
    lhs = np.asarray(lhs, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    norm = partial(np.linalg.norm, axis=(-2, -1))
    out = norm(lhs - rhs) / (norm(lhs) + norm(rhs) + EPS_GUARD)
    return float(out) if out.ndim == 0 else out


def svd_cond(mat) -> float:
    """2-norm condition number from singular values; inf when singular or non-finite."""
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return 1.0
    if not np.isfinite(mat).all():
        return np.inf
    s = np.linalg.svd(mat, compute_uv=False)
    if s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


def checked_cond(matrix, what: str) -> float:
    """svd_cond of a matrix about to be solved or inverted (0 x 0 gives 1):
    NotSquare "<what> is AxB" if it is not square, SingularMatrix "<what>
    condition <c>" (c attached) if c is above COND_LIMIT."""
    rows, cols = np.shape(matrix)
    if rows != cols:
        raise NotSquare(f"{what} is {rows}x{cols}")
    cond = svd_cond(matrix)
    if cond > COND_LIMIT:
        raise SingularMatrix(f"{what} condition {cond:.3e}", cond)
    return cond


def numerical_kernel_dim(mat):
    """Kernel dimension by the largest singular-value gap of ratio >= GAP_RATIO.

    Singular values below max(M, N) * eps * s0 are roundoff and count as
    one cluster at that floor, as in numpy.linalg.matrix_rank (Golub & Van
    Loan, Matrix Computations, 5.4.1); an exact zero next to a roundoff
    value therefore cannot outbid the true gap above them.  mat is one
    matrix (an int) or a stack (..., M, N) (an int array of shape (...)).
    """
    mat = np.asarray(mat, dtype=complex)
    s = np.linalg.svd(mat, compute_uv=False)
    n = s.shape[-1]
    floor = max(mat.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    lo = np.maximum(s[..., 1:], floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lo == 0.0, np.inf, s[..., :-1] / lo)
    # a trailing 0.0 stands for "no gap", so a 1 x 1 matrix has one entry
    ratio = np.concatenate([np.where(ratio >= GAP_RATIO, ratio, 0.0),
                            np.zeros(ratio.shape[:-1] + (1,))], axis=-1)
    k = ratio.argmax(axis=-1)   # the first of the largest gaps
    dims = np.where(ratio.max(axis=-1) > 0.0, n - 1 - k, 0)
    return int(dims) if dims.ndim == 0 else dims


def orth_columns(vectors) -> np.ndarray:
    """Orthonormal basis for the column span of the given matrix."""
    mat = np.asarray(vectors, dtype=complex)
    q, r = np.linalg.qr(mat)
    keep = np.abs(np.diag(r)) > 1e-13 * max(1.0, float(np.abs(r).max()))
    return q[:, keep]


def principal_angle_gap(span_a, span_b) -> float:
    """sin of the largest principal angle between two column spans."""
    qa = orth_columns(span_a)
    qb = orth_columns(span_b)
    if qa.shape[1] != qb.shape[1]:
        return 1.0
    s = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    cos_min = min(1.0, float(s.min()))
    return float(np.sqrt(max(0.0, 1.0 - cos_min**2)))
