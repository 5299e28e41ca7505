"""Riemann theta functions with error-controlled lattice truncation.

The genus-g theta function is the lattice sum

    theta(z | Omega) = sum_{n in Z^g} exp(pi*i n.Omega.n + 2*pi*i n.z),

convergent because Im(Omega) is positive definite.  A real characteristic
pair (a, b) shifts the lattice and the argument,

    theta[a; b](z) = sum_n exp(pi*i (n+a).Omega.(n+a) + 2*pi*i (n+a).(z+b)),

and reduces to the plain sum through

    theta[a; b](z) = exp(pi*i a.Omega.a + 2*pi*i a.(z+b)) * theta(z + Omega.a + b).

Evaluation enumerates lattice points in a box around the peak of the
Gaussian envelope of the summand.  The box radius is the smallest one at
which an analytic tail bound (point counts times a Gaussian shell bound
using the smallest eigenvalue of pi*Im(Omega)) falls below the fixed
absolute error TARGET_ABS_ERROR, so truncation is provable rather than
heuristic; a point that needs a radius above MAX_LATTICE_RADIUS raises
NonConvergent.  The error target governs truncation only;
double-precision rounding contributes a further few-ulp error relative to
the value's magnitude, which matters when the Gaussian peak
exp(pi y.Im(Omega)^-1 y) is large.  A sum that overflows to a non-finite
value raises NonConvergent.

Truncation is planned once per period matrix: the ThetaPlan held by each
PeriodMatrix caches the inverse and the smallest eigenvalue of Im(Omega)
and two tables of the tail bound by radius, one for values and one for
gradients, each additive in the log of the Gaussian peak.  Every entry
runs one pass: theta_many evaluates a batch of arguments, grouped by
radius and summed in chunks; riemann_theta, theta_with_char and
theta_gradient are its N = 1 case, the last one summing the gradient in
the same pass at the gradient radius.  Every point is summed with the
same per-element arithmetic whatever batch it arrives in, so its value
does not depend on its batch and equals the scalar theta_with_char value
bit for bit.  Given a tuple of characteristics, theta_many sums one row
set per characteristic, each of its own length and each row with its own
(a, b), in the same pass.  Enumeration order is fixed; identical inputs
give bit-identical results on one platform.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidPeriodMatrix, NonConvergent

__all__ = [
    "PeriodMatrix",
    "ThetaCharacteristic",
    "ThetaPlan",
    "TARGET_ABS_ERROR",
    "MAX_LATTICE_RADIUS",
    "period_from_tau",
    "reduce_characteristic",
    "riemann_theta",
    "theta_with_char",
    "theta_many",
    "theta_gradient",
]

# Largest (points x lattice terms) working array theta_many builds; bigger
# batches are summed a chunk of points at a time, so memory stays flat in
# the batch size.
CHUNK_ELEMENTS = 1 << 15

# Tail target and radius cap of every theta sum (see the module docstring).
TARGET_ABS_ERROR = 1e-12
MAX_LATTICE_RADIUS = 60


@dataclass(frozen=True, eq=False)
class PeriodMatrix:
    """Genus and symmetric g-by-g period matrix with Im(Omega) > 0.

    Genus 0 is allowed as the degenerate case of an empty matrix; the
    associated theta function is the empty sum 1.
    """

    genus: int
    omega: np.ndarray
    _plan: ThetaPlan | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.genus < 0:
            raise InvalidPeriodMatrix("genus must be nonnegative")
        omega = np.asarray(self.omega, dtype=complex).reshape(self.genus, self.genus)
        object.__setattr__(self, "omega", omega)
        if self.genus == 0:
            return
        if not np.all(np.isfinite(omega)):
            raise InvalidPeriodMatrix("period matrix has non-finite entries")
        scale = float(np.abs(omega).max())
        if float(np.abs(omega - omega.T).max()) > 1e-12 * scale:
            raise InvalidPeriodMatrix("period matrix is not symmetric")
        imag = 0.5 * (omega.imag + omega.imag.T)
        if float(np.linalg.eigvalsh(imag).min()) <= 0.0:
            raise InvalidPeriodMatrix("Im(Omega) is not positive definite")

    @property
    def tau(self) -> complex:
        """Scalar modulus for genus 1."""
        if self.genus != 1:
            raise InvalidPeriodMatrix("tau is only defined at genus 1")
        return complex(self.omega[0, 0])

    def plan(self) -> ThetaPlan:
        """The truncation plan, built on first use (genus >= 1)."""
        if self._plan is None:
            object.__setattr__(self, "_plan", ThetaPlan(self))
        return self._plan


def period_from_tau(tau: complex) -> PeriodMatrix:
    """Genus-1 period matrix [[tau]]."""
    return PeriodMatrix(1, np.array([[tau]], dtype=complex))


@dataclass(frozen=True, eq=False)
class ThetaCharacteristic:
    """Real characteristic vectors a, b of length g."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("characteristic vectors must share one length")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("characteristic entries must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def genus(self) -> int:
        return self.a.size


def reduce_characteristic(chi: ThetaCharacteristic) -> tuple[ThetaCharacteristic, complex]:
    """Reduce a characteristic to the canonical cell [0, 1)^g.

    Returns the reduced characteristic and the constant phase by which
    theta values change: theta[red](z) = phase * theta[a; b](z) for all z.
    Integer shifts of a re-index the lattice and leave theta untouched;
    shifting b by an integer vector m multiplies theta by exp(-2*pi*i a.m).
    Reduction is never applied implicitly anywhere in this package.
    """
    a_red = chi.a - np.floor(chi.a)
    m = np.floor(chi.b)
    b_red = chi.b - m
    phase = complex(np.exp(-2j * np.pi * np.dot(chi.a, m)))
    return ThetaCharacteristic(a_red, b_red), phase


def _log_tail_bound(lam_min: float, log_peak: float, g: int, start: int,
                    deriv_shift: float | None) -> float:
    """Log of a bound on the summand mass outside box radius start - 1.

    Shell k (sup-norm distance k from the rounded center) holds at most
    (2k+1)^g - (2k-1)^g points, each of modulus at most
    peak * exp(-pi * lam_min * (k - 1/2)^2); a gradient evaluation gains
    the linear factor 2*pi*(k + 1/2 + shift).
    """
    total = -math.inf
    for k in range(start, start + 800):
        count = (2 * k + 1) ** g - (2 * k - 1) ** g
        la = math.log(count) + log_peak - math.pi * lam_min * (k - 0.5) ** 2
        if deriv_shift is not None:
            la += math.log(2.0 * math.pi * (k + 0.5 + deriv_shift))
        total = np.logaddexp(total, la)
        if la < total - 60.0:
            break
    return float(total)


class ThetaPlan:
    """Truncation data of one period matrix.

    Holds the inverse and the smallest eigenvalue of Im(Omega) (symmetrised),
    and two tables of the tail bound by radius, each extended only as far
    as the largest radius asked for: the value table
    T0(r) = _log_tail_bound(lam_min, 0, g, r, None) and the gradient table
    T1(r) = _log_tail_bound(lam_min, 0, g, r, 0).  The tail bound is
    additive in log_peak, so the value radius of a point is the smallest
    r with T0(r) < log(TARGET_ABS_ERROR) - log_peak.  A gradient term at shell k
    carries the weight 2*pi*(k + 1/2 + s), s = max|Im(Omega)^-1 y|, which
    is at most 2*pi*(k + 1/2)*(1 + s) for k >= 1, so the gradient radius is
    the smallest r with T1(r) < log(TARGET_ABS_ERROR) - log_peak - log1p(s).
    Both tables stop at MAX_LATTICE_RADIUS.
    """

    def __init__(self, pm: PeriodMatrix):
        self.genus = pm.genus
        self.omega = pm.omega
        imag = 0.5 * (pm.omega.imag + pm.omega.imag.T)
        self.imag_inv = np.linalg.inv(imag)
        self.lam_min = float(np.linalg.eigvalsh(imag).min())
        # -T(1), -T(2), ...: increasing; keyed by the gradient flag
        self._neg_tail = {False: np.empty(0), True: np.empty(0)}

    def peaks(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log_peak = pi y.Im(Omega)^-1 y and Im(Omega)^-1 y per row of Z, y = Im Z.

        Computed element by element, so each row's result is independent of
        the other rows.
        """
        y = Z.imag
        inv = self.imag_inv
        y_sol = y[:, :1] * inv[:, 0]
        for k in range(1, self.genus):
            y_sol = y_sol + y[:, k:k + 1] * inv[:, k]
        return math.pi * (y * y_sol).sum(axis=1), y_sol

    def radii(self, log_peak: np.ndarray) -> np.ndarray:
        """Value-path truncation radius per log_peak.

        Raises
        ------
        NonConvergent
            If some point needs more than MAX_LATTICE_RADIUS.
        """
        return self._radii(log_peak, False)

    def _radii(self, log_peak: np.ndarray, gradient: bool) -> np.ndarray:
        # radius r fits when -T(r) > excess
        excess = log_peak - math.log(TARGET_ABS_ERROR)
        highest = float(excess.max())
        table = self._neg_tail[gradient]
        cap = MAX_LATTICE_RADIUS
        if table.size < cap and not (table.size and table[-1] > highest):
            shift = 0.0 if gradient else None
            extended = table.tolist()
            while len(extended) < cap and not (extended and extended[-1] > highest):
                extended.append(-_log_tail_bound(self.lam_min, 0.0, self.genus,
                                                 len(extended) + 1, shift))
            # replaced whole, so a concurrent caller sees one complete table
            table = self._neg_tail[gradient] = np.array(extended)
        if not (table.size and table[-1] > highest):
            raise NonConvergent(f"tail bound above {TARGET_ABS_ERROR:g} at radius cap {cap}")
        return np.searchsorted(table, excess, side="right") + 1


@functools.lru_cache(maxsize=128)
def _offset_columns(radius: int, g: int) -> tuple[np.ndarray, ...]:
    """Columns of the box lattice offsets of sup-norm at most radius, in a fixed order."""
    offsets = np.array(list(itertools.product(range(-radius, radius + 1), repeat=g)),
                       dtype=float)
    offsets.flags.writeable = False
    return tuple(offsets.T)


def _lattice_sum(plan: ThetaPlan, a: np.ndarray, b: np.ndarray, Z: np.ndarray,
                 y_sol: np.ndarray, radius: int, want_gradient: bool):
    """Characteristic sums at the rows of Z over one box radius.

    a and b hold one characteristic per row (rows, g).  Every operation is
    elementwise, and each term sum runs along one row, so a row's value
    does not depend on the other rows.  Returns (values, gradients or
    None).

    Raises
    ------
    NonConvergent
        If a summed value is not finite (the Gaussian peak overflowed).
    """
    omega = plan.omega
    base = np.rint(-a - y_sol)
    m = [base[:, j, None] + col + a[:, j, None]
         for j, col in enumerate(_offset_columns(radius, plan.genus))]
    zb = Z + b
    quad = sum(mj * omega[j, k] * mk for j, mj in enumerate(m) for k, mk in enumerate(m))
    lin = sum(mj * zb[:, j, None] for j, mj in enumerate(m))
    with np.errstate(over="ignore", invalid="ignore"):
        quad *= 1j * np.pi   # the exponent, then the terms, in quad's buffer
        lin *= 2j * np.pi
        quad += lin
        terms = np.exp(quad, out=quad)
        values = terms.sum(axis=1)
        grad = None
        if want_gradient:
            grad = (2j * np.pi) * (np.stack(m, axis=-1) * terms[..., None]).sum(axis=1)
    if not (np.isfinite(values).all() and (grad is None or np.isfinite(grad).all())):
        raise NonConvergent(
            f"theta lattice sum is not finite (log peak up to "
            f"{float(plan.peaks(Z)[0].max()):.1f})"
        )
    return values, grad


def _sums(omega: PeriodMatrix, a: np.ndarray, b: np.ndarray, rows: np.ndarray,
          want_gradient: bool):
    """Characteristic sums at the rows of rows (N, g), row i with (a[i], b[i]).

    The one lattice pass behind every entry: rows are grouped by truncation
    radius (the gradient radius when want_gradient) and summed in chunks of
    at most CHUNK_ELEMENTS terms.  Returns (values (N,), gradients (N, g)
    or None).
    """
    n, g = rows.shape
    if g == 0 or n == 0:
        return np.ones(n, dtype=complex), np.zeros((n, g), dtype=complex)
    plan = omega.plan()
    log_peak, y_sol = plan.peaks(rows)
    if want_gradient:
        radii = plan._radii(log_peak + np.log1p(np.abs(y_sol).max(axis=1)), True)
    else:
        radii = plan.radii(log_peak)
    lo, hi = int(radii.min()), int(radii.max())
    if lo == hi and n * (2 * hi + 1) ** g <= CHUNK_ELEMENTS:
        return _lattice_sum(plan, a, b, rows, y_sol, hi, want_gradient)
    values = np.empty(n, dtype=complex)
    grad = np.empty((n, g), dtype=complex) if want_gradient else None
    for radius in sorted(set(radii.tolist())):
        at = np.flatnonzero(radii == radius)
        step = max(1, CHUNK_ELEMENTS // (2 * radius + 1) ** g)
        for start in range(0, at.size, step):
            sel = at[start:start + step]
            values[sel], part = _lattice_sum(plan, a[sel], b[sel], rows[sel], y_sol[sel],
                                             radius, want_gradient)
            if want_gradient:
                grad[sel] = part
    return values, grad


def _char_sum(a: np.ndarray, b: np.ndarray, z: np.ndarray, pm: PeriodMatrix,
              want_gradient: bool):
    """The scalar entries' one point: the N = 1 case of _sums."""
    values, grad = _sums(pm, a[None], b[None], z[None], want_gradient)
    return complex(values[0]), None if grad is None else grad[0]


def _as_z(z, g: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(z, dtype=complex)).reshape(-1)
    if arr.size != g:
        raise ValueError(f"argument has length {arr.size}, expected genus {g}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("theta argument must be finite")
    return arr


def riemann_theta(z, omega: PeriodMatrix) -> complex:
    """theta(z | Omega) with tail bound below TARGET_ABS_ERROR.

    Parameters
    ----------
    z : complex scalar (genus 1) or length-g complex vector
    omega : PeriodMatrix

    Returns
    -------
    complex
    """
    g = omega.genus
    zero = np.zeros(g)
    value, _ = _char_sum(zero, zero, _as_z(z, g), omega, False)
    return value


def theta_with_char(chi: ThetaCharacteristic, lam, omega: PeriodMatrix) -> complex:
    """theta[a; b](lam | Omega) via the direct characteristic sum."""
    if chi.genus != omega.genus:
        raise ValueError("characteristic genus does not match period matrix")
    value, _ = _char_sum(chi.a, chi.b, _as_z(lam, omega.genus), omega, False)
    return value


def theta_many(chi, Z, omega: PeriodMatrix):
    """theta[a; b](Z[i] | Omega) for every row of Z, shape (N, g) -> (N,).

    chi may also be a tuple of k characteristics; Z then holds one row set
    per characteristic, each of its own length (k arrays (N_i, g) give the
    k arrays (N_i,); one (k, N, g) array gives a (k, N) array), summed in
    one lattice pass.  Points are grouped by truncation radius and summed
    in chunks of at most CHUNK_ELEMENTS terms; entry j of row set i is
    bit-identical to theta_with_char(chi[i], Z[i][j], omega).
    """
    g = omega.genus
    many = isinstance(chi, tuple)
    chis = chi if many else (chi,)
    if any(c.genus != g for c in chis):
        raise ValueError("characteristic genus does not match period matrix")
    sets = [np.asarray(z, dtype=complex) for z in Z] if many else [np.asarray(Z, dtype=complex)]
    if len(sets) != len(chis) or any(z.ndim != 2 or z.shape[1] != g for z in sets):
        raise ValueError(f"expected {len(chis)} row set(s) of shape (N, {g})")
    rows = np.concatenate(sets) if many else sets[0]
    if not np.isfinite(rows).all():
        raise ValueError("theta arguments must be finite")
    counts = [len(z) for z in sets]
    ab = np.array([(c.a, c.b) for c in chis]).repeat(counts, axis=0)
    values = _sums(omega, ab[:, 0], ab[:, 1], rows, False)[0]
    if not many or isinstance(Z, np.ndarray):
        return values.reshape(np.shape(Z)[:-1])
    return [values[end - n:end] for n, end in zip(counts, itertools.accumulate(counts))]


def theta_gradient(chi: ThetaCharacteristic, lam, omega: PeriodMatrix) -> np.ndarray:
    """Gradient of theta[a; b] in lam, by term-wise differentiation.

    The N = 1 case of the batched pass, truncated at the gradient radius
    of the ThetaPlan, whose tail bound carries the 2*pi*i*(n+a) weights.
    """
    if chi.genus != omega.genus:
        raise ValueError("characteristic genus does not match period matrix")
    _, grad = _char_sum(chi.a, chi.b, _as_z(lam, omega.genus), omega, True)
    return grad
