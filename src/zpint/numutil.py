"""Shared numerical helpers: contour mode extraction, rank decisions.

Every derivative and Laurent coefficient in zpint is read from
`circle_modes`: the trapezoid rule on a circle around the point, which
converges geometrically for analytic integrands (Trefethen & Weideman,
SIAM Rev. 56, 2014) and gives derivatives of analytic functions without
a difference step (Fornberg, ACM TOMS 7, 1981).  Everything here is plain
dense numpy on desk-scale matrices.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "COND_LIMIT",
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


def circle_modes(f, center, radius: float, orders, samples: int = 16):
    """Laurent modes of f around center from equispaced circle samples.

    For f(t) = sum_m a_m (t - center)^m analytic in a punctured disk larger
    than radius, the trapezoid average (1/N) sum_k f(t_k) t_k^{-m} equals
    a_m up to aliased modes a_{m + N}, a_{m - N}, ...; with N = 16 and a
    radius small against the distance to the next singularity the aliasing
    error is far below double precision roundoff.

    center is one point or an array of points.  f is called once, on the
    array of all circle points, of shape (samples, *center.shape), and
    returns values of shape (samples, *center.shape, ...) (a list of the
    per-point values will do).  Returns a dict order -> coefficient of
    shape (*center.shape, ...), a complex for a scalar one.
    """
    center = np.asarray(center, dtype=complex)
    rim = radius * np.exp(2j * np.pi * np.arange(samples) / samples)
    points = center + rim.reshape((samples,) + (1,) * center.ndim)
    values = np.asarray(f(points), dtype=complex)
    spectrum = np.fft.fft(values, axis=0) / samples
    out = {}
    for m in orders:
        coeff = spectrum[m % samples] / radius**m
        out[m] = complex(coeff) if coeff.ndim == 0 else coeff
    return out


def rel_residual(lhs, rhs) -> float:
    """Frobenius residual |lhs - rhs| / (|lhs| + |rhs| + guard)."""
    lhs = np.asarray(lhs, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    num = float(np.linalg.norm(lhs - rhs))
    den = float(np.linalg.norm(lhs)) + float(np.linalg.norm(rhs)) + EPS_GUARD
    return num / den


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


def numerical_kernel_dim(mat, gap_ratio: float = 1e6) -> int:
    """Kernel dimension by the largest singular-value gap of ratio >= gap_ratio.

    Singular values below max(M, N) * eps * s0 are roundoff and count as
    one cluster at that floor, as in numpy.linalg.matrix_rank (Golub & Van
    Loan, Matrix Computations, 5.4.1); an exact zero next to a roundoff
    value therefore cannot outbid the true gap above them.
    """
    mat = np.asarray(mat, dtype=complex)
    s = np.linalg.svd(mat, compute_uv=False)
    n = s.size
    floor = max(mat.shape) * np.finfo(float).eps * s[0]
    best_dim = 0
    best_ratio = 1.0
    for k in range(n - 1):
        hi = s[k]
        lo = max(s[k + 1], floor)
        ratio = np.inf if lo == 0.0 else hi / lo
        if ratio >= gap_ratio and ratio > best_ratio:
            best_ratio = ratio
            best_dim = n - 1 - k
    return best_dim


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
