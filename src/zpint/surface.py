"""Concrete surface geometry.

A point is a finite complex number, its coordinate: the plane coordinate
on the sphere, any representative in C on the torus.  point() makes one
from a number and raises InputError for anything else, and
Surface.points makes the coordinate array of a sequence by the same
rule, with one finiteness check per call.  One small frozen type per kind
of surface sits on the ``Surface`` base:

* ``Sphere``: the Riemann sphere with its global coordinate.  It has no
  Abel-Jacobi map and no prime form; its kernels are 1/(p - q).
* ``Torus``: C / (Z + tau Z).  The Abel-Jacobi map is the identity on
  coordinates, the holomorphic differential is dz, and the half-order
  differential frame sqrt(dz) is constant, so every
  half-differential-valued object in this package is represented by its
  plain scalar value in this global frame.

Genus >= 2 is reached through period matrices and theta functions only
(zpint.theta); there is no surface of higher genus.

The surface alone decides when two points are equal: ``gap`` is the
distance that a coordinate difference spans on it (the lattice distance
on the torus, |p - q| on the sphere), and ``distance``, ``equal`` and
``coincidences`` read it.  Every method takes one point or a sequence of
points.

The genus-1 prime form is

    E(p, q) = theta[1/2; 1/2](q - p) / theta[1/2; 1/2]'(0),

odd in (p, q), vanishing to first order exactly on the diagonal, with
E(p0, p) = t + O(t^3) for t = p - p0.  The odd characteristic pins the
half-order differential so that degrees of freedom in the spin structure
never leak into kernel values.  The odd theta and its derivatives come
from its sine series (theta.odd_theta_series), which keeps relative
accuracy next to the diagonal.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEmbedding,
    HigherOrderPole,
    InputError,
    NonConvergent,
    UnsupportedGenus,
)
from .numutil import circle_modes
from .theta import (
    PeriodMatrix,
    ThetaCharacteristic,
    odd_theta_series,
    period_from_tau,
    theta_with_char,
)

__all__ = [
    "Surface",
    "Sphere",
    "Torus",
    "FlatLineBundle",
    "EmbeddingPair",
    "genus0_surface",
    "torus_surface",
    "line_bundle",
    "lattice_coords",
    "lattice_reduce",
    "lattice_distance",
    "point",
    "prime_form",
    "build_embedding_functions",
    "laurent_coeffs",
]

POINT_TOL = 1e-12


def point(value) -> complex:
    """The point value: its coordinate as a finite complex.

    Raises InputError for a value that is not a finite number.
    """
    try:
        z = complex(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"a point is a finite complex number, not {value!r}") from exc
    if not cmath.isfinite(z):
        raise InputError(f"non-finite point {z!r}")
    return z


@dataclass(frozen=True, eq=False)
class Surface:
    """A compact Riemann surface: its period matrix and its point rules.

    Each kind defines gap(d), the distance spanned by coordinate
    differences d (elementwise), which distance, equal and coincidences
    read; same_as(other); abel_jacobi(p), the g-vector image ((N, g) for a
    sequence); and prime_form(p, q), E(p, q) (the (N,) array of
    E(p[i], q[i]) for two sequences).  Every public method
    takes one point or a sequence of points and checks them once, by
    points; a sequence gives an array, and distance broadcasts like numpy.

    apart(d) is the verdict gap(d).min() > POINT_TOL over an array of
    differences d (True for an empty d): no difference spans a distance
    at which its points are equal.  An interpolant passes d = p - e, its
    points' differences from its excluded points (its ends, and on the
    torus the zeros of K(chi; ., q)), the array its channel read takes
    too, where its plan's bound on the torus (kernels.EndPlan.clears) has
    not already cleared them; every gap is symmetric in d
    (gap(-d) == gap(d), bit for bit), so the verdict does not depend on
    the orientation.
    """

    period: PeriodMatrix

    @property
    def genus(self) -> int:
        return self.period.genus

    @functools.cached_property
    def tau(self) -> complex:
        return self.period.tau

    def points(self, p):
        """The coordinate of one point (point(p)), or the complex array of a
        sequence (as is if it is one); InputError names the first
        non-finite point."""
        return _points(p)

    def distance(self, p, q):
        return self.gap(self.points(p) - self.points(q))

    def equal(self, p, q):
        return self.distance(p, q) <= POINT_TOL

    def apart(self, d) -> bool:
        """Whether every coordinate difference of the array d, such as the
        differences p - e of points from ends, spans a gap above POINT_TOL;
        the gap is symmetric in d."""
        return not d.size or bool(self.gap(d).min() > POINT_TOL)

    def coincidences(self, P, Q) -> list[tuple[int, int]]:
        """Row-major list of the index pairs (i, j) with P[i] equal to Q[j].

        Finite points near +-1e308 may differ by more than the largest
        double: that difference overflows to a distance that is no hit,
        without a warning."""
        P, Q = self.points(P), self.points(Q)
        with np.errstate(over="ignore", invalid="ignore"):
            hits = self.gap(P[:, None] - Q[None, :]) <= POINT_TOL
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(hits))]


@dataclass(frozen=True, eq=False)
class Sphere(Surface):
    """The Riemann sphere with its global coordinate."""

    def __post_init__(self):
        if self.genus != 0:
            raise InputError("genus-0 surface needs an empty period matrix")

    def gap(self, d):
        return _modulus(d)

    def same_as(self, other) -> bool:
        return isinstance(other, Sphere)

    def abel_jacobi(self, p):
        raise UnsupportedGenus("Abel-Jacobi map is trivial on the sphere")

    def prime_form(self, p, q):
        raise UnsupportedGenus("use 1/(p - q) kernels directly at genus 0")


@dataclass(frozen=True, eq=False)
class Torus(Surface):
    """C / (Z + tau Z); the Abel-Jacobi map is the identity on coordinates.

    The torus owns its modulus.  Each constant of tau is made once, on
    this surface's own period matrix, and read from it:

    * odd_deriv0: theta[1/2; 1/2]'(0), the denominator of every prime form;
    * period.plan(): the theta plan, with its table window and odd series;
    * kernels.end_plan's switch to a lattice pass at Im(tau) > MAX_TABLE_IM;
    * a channel's theta[a; b](0), summed on period when line_kernel builds it.

    For a change of modulus tau' = (a tau + b) / (c tau + d) at the surface
    (ROADMAP item 11), the reads of tau fall in two groups:

    * must see tau': Surface.tau and period; gap, same_as and
      odd_deriv0 here; _log_theta_derivs and the sample grid of
      build_embedding_functions; end_plan's switch, EndPlan.height,
      _kernel_zeros (the zeros of K(chi; ., q) an EndPlan keeps) and
      line_kernel's largest term (kernels); the reference point of
      residue_condition_check, BundleMapEvaluator's edge,
      divisor_characteristic and _necessity_defect (absint); theta_table, its reach, _point_rows,
      _table_rows and odd_theta_series (theta).  The cli and verify draw
      points in the caller's coordinate
      (cli._torus_point, verify.sample_points, _trisecant_draws and the
      lattice_reduce calls of checks_detrep and _triangular_fixture): they
      keep the tau given, which item 11 must keep beside tau'.
    * outputs of nonzero weight, each times a power of (c tau + d) that
      item 11 must test: odd_deriv0 (3/2), prime_form (-1), kernel values
      and evaluate_channels rows in the sqrt(dz) frame (1), connection
      coefficients (1), and lambda and its derivatives, with the Laurent
      data of EmbeddingPair (lambda is affine in (c tau + d); its k-th
      derivative gains (c tau + d)^(k + 1)).
    """

    def __post_init__(self):
        if self.genus != 1:
            raise InputError("torus surface needs a 1x1 period matrix")

    def gap(self, d):
        return lattice_distance(d, self.tau)

    def same_as(self, other) -> bool:
        return isinstance(other, Torus) and abs(self.tau - other.tau) <= POINT_TOL

    def abel_jacobi(self, p) -> np.ndarray:
        return np.asarray(self.points(p), dtype=complex)[..., None]

    def prime_form(self, p, q):
        """E(p, q) = theta[1/2; 1/2](q - p) / theta[1/2; 1/2]'(0), both from
        the sine series of the odd theta (theta.odd_theta_series): relative
        accuracy near the diagonal, and no lattice pass.  One pair is the
        N = 1 case of the array arithmetic, so E of a pair has the same
        bits alone and in an array."""
        v = np.atleast_1d(self.points(q) - self.points(p))
        value = self.prime_form_from_odd_theta(odd_theta_series(self.period, v)[0])
        return value if _is_many(p) or _is_many(q) else complex(value[0])

    def prime_form_from_odd_theta(self, odd):
        """E(p, q) from odd = theta[1/2; 1/2](q - p), a value or an array."""
        return odd / self.odd_deriv0

    @functools.cached_property
    def odd_deriv0(self) -> complex:
        """theta[1/2; 1/2]'(0 | tau) = -2 pi sum (-1)^n (2n + 1) q^((n + 1/2)^2),
        the sine series' first derivative at 0, on this surface's plan.

        Raises NonConvergent when it underflows to 0 (or the series does
        not converge)."""
        value = complex(odd_theta_series(self.period, np.zeros(1), 1)[1, 0])
        if value == 0.0:
            # |theta_1'(0)| ~ 2 pi exp(-pi Im(tau) / 4) leaves double range
            raise NonConvergent(f"theta[1/2; 1/2]'(0) underflows to 0 at tau = {self.tau}")
        return value


def genus0_surface() -> Sphere:
    return Sphere(PeriodMatrix(0, np.zeros((0, 0))))


def torus_surface(tau: complex) -> Torus:
    return Torus(period_from_tau(tau))


def _modulus(w):
    """|w| by hypot for one value and for arrays alike: abs of a complex
    scalar is hypot, but np.abs of a complex array can differ in the last bit."""
    return abs(w) if isinstance(w, complex) else np.hypot(w.real, w.imag)


def _points(p):
    """The rule of Surface.points, the same on every surface; laurent_coeffs
    checks its centres by it."""
    if not _is_many(p):
        return point(p)
    try:
        P = np.asarray(p, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InputError(f"points are finite complex numbers: {exc}") from exc
    if not np.isfinite(P).all():
        raise InputError(f"non-finite point {complex(P[~np.isfinite(P)][0])!r}")
    return P


def _is_many(p) -> bool:
    """Whether p is a sequence of points; a 0-d array is one point."""
    return isinstance(p, (list, tuple)) or (isinstance(p, np.ndarray) and p.ndim > 0)


# --- torus lattice arithmetic ---

def lattice_coords(v: complex, tau: complex) -> tuple[float, float]:
    """Real coordinates (alpha, beta) with v = alpha + beta*tau."""
    beta = v.imag / tau.imag
    alpha = v.real - beta * tau.real
    return alpha, beta


def lattice_reduce(v: complex, tau: complex) -> complex:
    """Representative of v mod Z + tau*Z with coordinates in [0, 1)."""
    alpha, beta = lattice_coords(complex(v), tau)
    return (alpha - np.floor(alpha)) + (beta - np.floor(beta)) * tau


def lattice_distance(v, tau: complex):
    """Distance from v to the nearest lattice point of Z + tau*Z; elementwise for arrays."""
    alpha, beta = lattice_coords(v, tau)
    da = alpha - np.rint(alpha)
    db = beta - np.rint(beta)
    # |da + db tau| in real arithmetic: the same bits, fewer complex temporaries
    return np.hypot(da + db * tau.real, db * tau.imag)


# --- flat line bundles ---

@dataclass(frozen=True, eq=False)
class FlatLineBundle:
    """Flat unitary line bundle fixed by real characteristic vectors a, b.

    The deck multipliers are exp(-2*pi*i a_j) along the A cycles and
    exp(2*pi*i b_j) along the B cycles; the image in the Jacobian is
    z = Omega.a + b.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        chi = ThetaCharacteristic(self.a, self.b)
        object.__setattr__(self, "a", chi.a)
        object.__setattr__(self, "b", chi.b)

    @functools.cached_property
    def characteristic(self) -> ThetaCharacteristic:
        return ThetaCharacteristic(self.a, self.b)

    def dual(self) -> "FlatLineBundle":
        return FlatLineBundle(-self.a, -self.b)

    def jacobian_point(self, period: PeriodMatrix) -> np.ndarray:
        return period.omega @ self.a + self.b

    def theta_at_zero(self, period: PeriodMatrix) -> complex:
        return theta_with_char(self.characteristic, np.zeros(period.genus), period)


def line_bundle(a, b) -> FlatLineBundle:
    return FlatLineBundle(np.atleast_1d(np.asarray(a, float)),
                          np.atleast_1d(np.asarray(b, float)))


# --- Abel-Jacobi map and prime form ---

ODD_CHAR = ThetaCharacteristic(np.array([0.5]), np.array([0.5]))


def prime_form(surface: Surface, p, q):
    """Prime form E(p, q) in the global frame; antisymmetric, E(p, p) = 0.

    p and q are single points, or two sequences of points of one length,
    giving the (N,) array of E(p[i], q[i]).
    """
    return surface.prime_form(p, q)


# --- Laurent coefficients at a simple pole ---

def laurent_coeffs(f, center) -> tuple:
    """(residue, constant term) of f at a simple pole, at one centre or at
    each of an array of centres.

    Reads the modes of circle_modes at the radii 1e-2 and 5e-3; the finer
    radius gives the returned values and the |t|^-2 mode is monitored on
    both, at each centre against that centre's own scale.  f takes the
    array of circle points, of shape (16, *centres.shape), and returns the
    values there, scalars or arrays per point; at an array of centres the
    two results have the centres' shape in front.

    Raises
    ------
    InputError
        If a centre is not a finite number.
    HigherOrderPole
        If the fitted |t|^-2 component exceeds tolerance at a centre, which
        the message names.
    """
    c = _points(center)
    coarse, fine = (circle_modes(f, c, h, orders=(-2, -1, 0))
                    for h in (1e-2, 5e-3))

    def peak(mode):   # the largest modulus at each centre
        return np.max(np.abs(mode), axis=tuple(range(np.ndim(c), np.ndim(mode))))

    scale = np.maximum(np.maximum(peak(fine[-1]), peak(fine[0])), 1.0)
    double = np.ravel(np.maximum(peak(coarse[-2]), peak(fine[-2])) > 1e-6 * scale)
    if double.any():
        k = int(np.argmax(double))
        raise HigherOrderPole(f"|t|^-2 component {np.ravel(peak(fine[-2]))[k]:.3e} "
                              f"exceeds tolerance at {complex(np.ravel(c)[k])}")
    return fine[-1], fine[0]


# --- meromorphic embedding functions on the torus ---

def _log_theta_derivs(v, period: PeriodMatrix, order: int):
    """[L, L', L''][:order + 1] at each entry of the array v, L = theta'/theta
    for theta = theta[1/2; 1/2].

    v is first moved to its representative w nearest 0, where
    L(w + m + n tau) = L(w) - 2 pi i n and the derivatives are periodic.
    One odd_theta_series pass gives theta and its first order + 1
    derivatives at w exactly, as sums; with r_d = theta^(d) / theta,
    L = r_1, L' = r_2 - r_1^2 and L'' = r_3 - 3 r_1 r_2 + 2 r_1^3.
    """
    tau = period.tau
    n = np.rint(v.imag / tau.imag)
    v = v - n * tau
    v = v - np.rint(v.real)
    theta = odd_theta_series(period, v, order + 1)
    r = theta[1:] / theta[0]
    out = [r[0] - 2j * np.pi * n]
    if order >= 1:
        out.append(r[1] - r[0] ** 2)
    if order >= 2:
        out.append(r[2] - 3 * r[0] * r[1] + 2 * r[0] ** 3)
    return out


@dataclass(frozen=True, eq=False)
class EmbeddingPair:
    """Two elliptic coordinate functions with simple poles at three points.

    lambda_1 = L(z - x1) - L(z - x2) and lambda_2 = L(z - x1) - L(z - x3),
    where L = theta'/theta is the log-derivative of the odd theta
    function.  Together they embed the torus (birationally) onto a plane
    cubic.  residues holds c[i][k] = -Res_{x_i} lambda_k and consts holds
    the next Laurent coefficients d[i][k], so lambda_k = -c/t - d + O(t) at
    each pole.  L and its derivatives at z - x_j are exact quotients of the
    sine series of theta and its derivatives (_log_theta_derivs), one pass
    per call for every order it returns.
    """

    surface: Torus
    pole_points: tuple[complex, ...]
    residues: np.ndarray   # (m, 2), c[i][k]
    consts: np.ndarray     # (m, 2), d[i][k]

    @property
    def m(self) -> int:
        return len(self.pole_points)

    def _log_derivs(self, z, order: int):
        """_log_theta_derivs at z - x_j, each of shape (*z.shape, 3)."""
        z = np.asarray(self.surface.points(z))
        v = z[..., None] - np.array(self.pole_points)
        return _log_theta_derivs(v, self.surface.period, order)

    def lambda_jet(self, z, order: int) -> list:
        """[lambda, lambda', lambda''][:order + 1] at z from one pass, each
        shaped as lambda_values; order is 0, 1 or 2."""
        return [dL[..., :1] - dL[..., 1:] for dL in self._log_derivs(z, order)]

    def lambda_values(self, z) -> np.ndarray:
        """(lambda_1, lambda_2) at z: shape (2,) at one point, (*z.shape, 2) at an array."""
        return self.lambda_jet(z, 0)[0]

    def lambda_derivs(self, z, order: int = 1) -> np.ndarray:
        """Derivative of order 1 or 2 of (lambda_1, lambda_2), shaped as lambda_values."""
        if order not in (1, 2):
            raise InputError("order must be 1 or 2")
        return self.lambda_jet(z, order)[order]

    def is_pole(self, z) -> bool:
        """Whether z, or any point of a sequence z, is one of the pole points."""
        z = np.asarray(self.surface.points(z))[..., None]
        return bool(np.any(self.surface.gap(z - np.array(self.pole_points)) <= POINT_TOL))


def build_embedding_functions(surface: Torus, x1, x2, x3) -> EmbeddingPair:
    """Construct the coordinate pair for pole points (x1, x2, x3).

    With lambda_k = sum_j S[k, j] L(z - x_j) and S = [[1, -1, 0],
    [1, 0, -1]], the Laurent data are closed forms: L is odd, so
    L(t) = 1/t + O(t), the residues are c = -S^T and the constants are
    d[i][k] = -sum_{j != i} S[k, j] L(x_i - x_j).  A deterministic sweep
    over 24 sample points guards against a degenerate (non-injective)
    coordinate map.
    """
    if not isinstance(surface, Torus):
        raise UnsupportedGenus("embedding functions are built on the torus")
    xs = tuple(point(x) for x in (x1, x2, x3))
    if any(i != j for i, j in surface.coincidences(xs, xs)):
        raise DegenerateEmbedding("pole points must be distinct mod lattice")

    S = np.array([[1, -1, 0], [1, 0, -1]])
    c = np.array(xs)
    upper = np.triu_indices(3, 1)
    L = np.zeros((3, 3), dtype=complex)   # L[i, j] = L(x_i - x_j), odd
    L[upper] = _log_theta_derivs(c[upper[0]] - c[upper[1]], surface.period, 0)[0]
    L -= L.T
    pair = EmbeddingPair(surface, xs, (-S.T).astype(complex), -L @ S.T)

    tau = surface.tau
    samples = []
    k = 1
    while len(samples) < 24:
        alpha = (k * 0.7548776662466927) % 1.0
        beta = (k * 0.5698402909980532) % 1.0
        k += 1
        z = alpha + beta * tau
        if np.any(surface.gap(z - c) <= 1e-3):
            continue
        samples.append(z)
    grid = np.array(samples)
    values = pair.lambda_values(grid)
    gaps = np.abs(values[:, None] - values[None, :]).sum(axis=2)
    distinct = surface.gap(grid[:, None] - grid[None, :]) > 1e-6
    hits = np.argwhere(np.triu(distinct & (gaps < 1e-8), 1))
    if hits.size:
        i, j = hits[0]
        raise DegenerateEmbedding(f"coordinate map collides at {samples[i]} and {samples[j]}")
    return pair
