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

Every box is centred at the lattice point nearest the peak and summed
term by term (_direct), each term exponentiated from its own exponent:
a term underflows only where it is below the truncation target, and
none overflows unless the peak does.  A value and its gradient are sums
of the same terms.

Truncation is planned once per period matrix: the ThetaPlan held by each
PeriodMatrix caches the inverse and the smallest eigenvalue of Im(Omega),
two tables of the tail bound by radius, one for values and one for
gradients, each additive in the log of the Gaussian peak.  Every entry
runs one pass: theta_many evaluates a batch of arguments, grouped by
radius and summed in chunks; riemann_theta, theta_with_char and
theta_gradient are its N = 1 case, the last one summing the gradient in
the same pass at the gradient radius.  Every point is summed with the
same per-element arithmetic whatever batch it arrives in, so its value
does not depend on its batch and equals the scalar theta_with_char value
bit for bit.  theta_rows is the same pass with the characteristic given
row by row.  Enumeration order is fixed; identical inputs
give bit-identical results on one platform.

Rows theta[a; b](e - p) whose ends e are fixed have a second route at
genus 1: every term is a coefficient of e times a factor of p, so
theta_table freezes the coefficients of each row over one window of the
lattice, and theta_table_rows reads the rows at points p from them, with
one exp for the factors of each point, one matmul with the coefficients
and no lattice pass.  Ends and points are reduced by the lattice first,
and the rows of one end share a factor at each point (see theta_table),
which a ratio of two of them cancels; a torus interpolant reads its
kernels this way.  Its build asks theta_table for the rows at the node
points too, which come out of the same walk as the coefficients, one
product per characteristic and no theta_table_rows read, and reads Gamma
from them.

The genus-1 odd theta theta[1/2; 1/2] has a third route, its sine series
(odd_theta_series), which gives it and its first three derivatives from
one pass with a tail bound relative to the first term: unlike a lattice
sum it keeps relative accuracy next to its zero at 0, where the prime
form divides by it.
"""

from __future__ import annotations

import bisect
import cmath
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
    "theta_rows",
    "theta_gradient",
    "odd_theta_series",
    "ThetaTable",
    "theta_table",
    "theta_table_rows",
]

# Largest (points x lattice terms) working array theta_many builds; bigger
# batches are summed a chunk of points at a time, so memory stays flat in
# the batch size.
CHUNK_ELEMENTS = 1 << 15

# Tail target and radius cap of every theta sum (see the module docstring).
TARGET_ABS_ERROR = 1e-12
MAX_LATTICE_RADIUS = 60

# Tail target of the odd theta's sine series (ThetaPlan.odd_series),
# relative to its first term: below rounding, so that the series keeps
# relative accuracy at every argument.
SERIES_TARGET = 1e-18

# Batches of at most this many rows read their extreme log peaks and check
# their sums through Python numbers, which is faster than numpy reductions.
_SMALL = 32

# Largest Im(tau) of a ThetaTable (see theta_table): up to here its factors
# and terms stay normal doubles, or too small to move a row.
MAX_TABLE_IM = 200.0


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
    """Log of a bound on the summand mass outside box radius start - 1, one
    term at a time: the reference of _tail_table, which ThetaPlan reads.

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


@functools.lru_cache(maxsize=16)
def _shell_logs(g: int, radii: int, deriv_shift: float | None) -> tuple[np.ndarray, np.ndarray]:
    """The parts of _log_tail_bound's shell terms that lam_min does not
    enter, for k = 1, ..., radii + 799: log of the shell count, plus that of
    the gradient weight, and (k - 1/2)^2."""
    k = np.arange(1.0, radii + 800.0)
    logs = np.log((2 * k + 1) ** g - (2 * k - 1) ** g)
    if deriv_shift is not None:
        logs += np.log(2.0 * math.pi * (k + 0.5 + deriv_shift))
    squares = (k - 0.5) ** 2
    logs.flags.writeable = squares.flags.writeable = False
    return logs, squares


def _tail_table(lam_min: float, g: int, radii: int, deriv_shift: float | None) -> np.ndarray:
    """_log_tail_bound(lam_min, 0, g, r, deriv_shift) for r = 1, ..., radii
    in one array pass.

    The shell terms la(k) are computed once, for k up to radii + 799, and
    T(r) is their log-sum from k = r on, a reverse logaddexp.accumulate.
    The run of terms at the end that are each below exp(-100) of the term
    at k = radii, and so of every T(r), is dropped first: at most 800 of
    them cannot move a bit.  _log_tail_bound sums from r up to at most
    r + 799 and stops once a term is 60 below the total, so T(r) here holds
    its terms up to that rounding.
    """
    logs, squares = _shell_logs(g, radii, deriv_shift)
    la = logs - (math.pi * lam_min) * squares
    end = np.flatnonzero(la >= la[radii - 1] - 100.0)[-1]
    return np.logaddexp.accumulate(la[end::-1])[::-1][:radii]


class ThetaPlan:
    """Truncation data of one period matrix.

    Holds the inverse and the smallest eigenvalue of Im(Omega) (symmetrised),
    and two tables of the tail bound by radius, each built whole on first
    use by _tail_table: the value table T0(r), the bound of
    _log_tail_bound(lam_min, 0, g, r, None), and the gradient table T1(r),
    that of _log_tail_bound(lam_min, 0, g, r, 0).  The tail bound is
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
        self.imag = 0.5 * (pm.omega.imag + pm.omega.imag.T)
        self.imag_inv = np.linalg.inv(self.imag)
        self.lam_min = float(np.linalg.eigvalsh(self.imag).min())
        # -T(1), ..., -T(MAX_LATTICE_RADIUS): increasing; keyed by the gradient flag
        self._neg_tail = {}
        self._table_window = None
        self._odd_series = None

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
        quad = (y * y_sol).T
        return math.pi * sum(quad[1:], quad[0]), y_sol

    def _radii(self, log_peak: np.ndarray, gradient: bool) -> np.ndarray:
        """Truncation radius per log_peak, of the value path or (gradient)
        of the gradient path.

        Raises
        ------
        NonConvergent
            If some point needs more than MAX_LATTICE_RADIUS.
        """
        # radius r fits when -T(r) > excess
        excess = log_peak - math.log(TARGET_ABS_ERROR)
        table = self._table(float(excess.max()), gradient)
        return np.searchsorted(table, excess, side="right") + 1

    def radius_range(self, log_peak: np.ndarray, gradient: bool) -> tuple[int, int]:
        """Smallest and largest radius of _radii(log_peak, gradient), read
        from the extreme log_peak values alone (the radius grows with it).

        Raises
        ------
        NonConvergent
            If a log_peak is not finite (its row is not finite, or so large
            that the peak overflows), or if the largest one needs more than
            MAX_LATTICE_RADIUS.
        """
        target = math.log(TARGET_ABS_ERROR)
        ends = log_peak.tolist() if len(log_peak) <= _SMALL else [log_peak.min(), log_peak.max()]
        if not math.isfinite(sum(ends)):
            raise NonConvergent(f"theta log peak is not finite ({sum(ends)})")
        low, high = float(min(ends)) - target, float(max(ends)) - target
        table = self._table(high, gradient)
        hi = bisect.bisect_right(table, high) + 1
        return hi if low == high else bisect.bisect_right(table, low) + 1, hi

    def table_window(self) -> tuple:
        """(window, ratios, point_ratios) of every genus-1 ThetaTable of this
        period matrix, built on first use: the window n in [-R - 2, R + 2],
        R the value radius at the log peak pi Im(tau), as a (W,) array, and
        theta_table's shared ratios of the end coefficients, exp(2 quad s),
        s = 0, ..., R + 1, quad = pi i tau + pi Im(tau) / 2, and of the point
        factors, exp(-pi Im(tau) s), each as a (R + 2, 1, 1) array.

        Raises
        ------
        NonConvergent
            If Im(tau) > MAX_TABLE_IM, or the window needs more than
            MAX_LATTICE_RADIUS.
        """
        if self._table_window is None:
            height = float(self.imag[0, 0])
            if height > MAX_TABLE_IM:
                raise NonConvergent(f"theta table needs Im(tau) <= {MAX_TABLE_IM:g}, "
                                    f"not {height:g}")
            steps = self.radius_range(np.array([math.pi * height]), False)[1] + 2
            quad = 1j * math.pi * complex(self.omega[0, 0]) + 0.5 * math.pi * height
            s = np.arange(steps)[:, None, None]
            self._table_window = (np.arange(-steps, steps + 1.0), np.exp((2 * quad) * s),
                                  np.exp(complex(-math.pi * height) * s))
        return self._table_window

    def odd_series(self) -> tuple:
        """(k, gauss, weights) of the genus-1 sine series of odd_theta_series,
        built on first use: k_n = (2n + 1) pi and gauss_n = -pi Im(tau)
        (n + 1/2)^2 as (1, T) arrays, and weights the real (4T, 8) matrix
        that maps a point's products (see odd_theta_series) to the real and
        imaginary parts of derivatives 0 to 3.

        T is the number of terms n = 0, ..., T - 1.  At |Im v| <= Im(tau)/2
        the Dirichlet kernel bounds term n of the third derivative, over the
        size of term 0, by (2n + 1)^4 exp(-pi Im(tau) n^2), and T is the
        first count whose tail sum of these bounds is below SERIES_TARGET.

        Raises
        ------
        NonConvergent
            If T would exceed MAX_LATTICE_RADIUS.
        """
        if self._odd_series is None:
            height = float(self.imag[0, 0])
            n = np.arange(2 * MAX_LATTICE_RADIUS + 2.0)
            bound = 4 * np.log(2 * n + 1) - math.pi * height * n * n
            tail = np.logaddexp.accumulate(bound[::-1])[::-1]
            count = int(np.argmax(tail < math.log(SERIES_TARGET)))   # 0: none fits
            if count == 0 or count > MAX_LATTICE_RADIUS:
                raise NonConvergent(f"odd theta series needs more than {MAX_LATTICE_RADIUS} "
                                    f"terms at Im(tau) = {height:g}")
            x = n[:count] + 0.5
            k = 2 * math.pi * x
            # -2 (-1)^n exp(pi i Re(tau) x^2), times k^d (with the sign of
            # d/dv sin = cos, d/dv cos = -sin) for derivative d
            phase = math.pi * float(self.omega[0, 0].real) * x * x
            base = (-2.0) * (-1.0) ** n[:count] * (np.cos(phase) + 1j * np.sin(phase))
            coef = [base, base * k, -base * k * k, -base * k ** 3]
            # rows [s ch, c sh] carry sin(k v) e^gauss = s ch + i c sh (even d),
            # rows [c ch, s sh] cos(k v) e^gauss = c ch - i s sh (odd d)
            weights = np.zeros((4 * count, 8))
            for d, w in enumerate(coef):
                at, sign = (0, 1.0) if d % 2 == 0 else (2 * count, -1.0)
                weights[at:at + count, 2 * d] = w.real
                weights[at + count:at + 2 * count, 2 * d] = -sign * w.imag
                weights[at:at + count, 2 * d + 1] = w.imag
                weights[at + count:at + 2 * count, 2 * d + 1] = sign * w.real
            self._odd_series = (k[None], (-math.pi * height) * (x * x)[None], weights)
        return self._odd_series

    def _table(self, highest: float, gradient: bool) -> np.ndarray:
        """The table -T(1), ..., -T(MAX_LATTICE_RADIUS), checked to pass highest.

        Raises
        ------
        NonConvergent
            If the table reaches MAX_LATTICE_RADIUS without passing highest.
        """
        table = self._neg_tail.get(gradient)
        if table is None:
            table = self._neg_tail[gradient] = -_tail_table(
                self.lam_min, self.genus, MAX_LATTICE_RADIUS, 0.0 if gradient else None)
        if not table[-1] > highest:
            raise NonConvergent(f"tail bound above {TARGET_ABS_ERROR:g} at radius cap "
                                f"{MAX_LATTICE_RADIUS}")
        return table


@functools.lru_cache(maxsize=128)
def _offset_columns(radius: int, g: int) -> tuple[np.ndarray, ...]:
    """Columns of the box lattice offsets of sup-norm at most radius, in a fixed order."""
    offsets = np.array(list(itertools.product(range(-radius, radius + 1), repeat=g)),
                       dtype=float)
    offsets.flags.writeable = False
    return tuple(offsets.T)


def _direct(omega: np.ndarray, m0: np.ndarray, w: np.ndarray, radius: int) -> tuple:
    """Box terms (N, (2R + 1)^g) around the centres m0, one complex exp
    each, and their lattice points m as g columns (N, (2R + 1)^g)."""
    m = [m0[:, j, None] + col for j, col in enumerate(_offset_columns(radius, len(omega)))]
    quad = sum(mj * omega[j, k] * mk for j, mj in enumerate(m) for k, mk in enumerate(m))
    lin = sum(mj * w[:, j, None] for j, mj in enumerate(m))
    quad *= 1j * np.pi   # the exponent, then the terms, in quad's buffer
    lin *= 2j * np.pi
    quad += lin
    return np.exp(quad, out=quad), m


def _lattice_sum(plan: ThetaPlan, a: np.ndarray, b: np.ndarray, Z: np.ndarray,
                 y_sol: np.ndarray, radius: int, want_gradient: bool):
    """Characteristic sums at the rows of Z over one box radius.

    a and b hold one characteristic per row (rows, g).  The box is
    centred at the rounded peak m0 = rint(-a - Im(Omega)^-1 y) + a and
    summed term by term (_direct), the gradient 2 pi i sum m t(m) from
    the same terms.  Every operation is row by row, so a row's value does
    not depend on the other rows.  Returns (values, gradients or None).

    Raises
    ------
    NonConvergent
        If a summed value is not finite (the Gaussian peak overflowed, or a
        row is not finite).
    """
    m0 = a - np.rint(a + y_sol)   # rint(-a - y_sol) + a
    terms, m = _direct(plan.omega, m0, Z + b, radius)
    values = terms.sum(axis=1)
    grad = None
    if want_gradient:
        grad = (2j * np.pi) * (np.stack(m, axis=-1) * terms[..., None]).sum(axis=1)
    finite = (all(map(cmath.isfinite, values.tolist())) if len(values) <= _SMALL
              else np.isfinite(values).all())
    if not (finite and (grad is None or np.isfinite(grad).all())):
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
    at most CHUNK_ELEMENTS terms.  The extreme radii come first, from the
    extreme log peaks; a batch of one radius that fits in one chunk, the
    usual case, is then one _lattice_sum with no per-row radius.  Returns
    (values (N,), gradients (N, g) or None).

    Raises
    ------
    ValueError
        If a row is not finite (checked only when the pass fails).
    NonConvergent
        If a finite row needs more than MAX_LATTICE_RADIUS or its sum
        overflows.
    """
    n, g = rows.shape
    if g == 0 or n == 0:
        return np.ones(n, dtype=complex), np.zeros((n, g), dtype=complex)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _grouped_sums(omega.plan(), a, b, rows, want_gradient)
    except NonConvergent:
        if not np.isfinite(rows).all():
            raise ValueError("theta arguments must be finite") from None
        raise


def _grouped_sums(plan: ThetaPlan, a, b, rows, want_gradient: bool):
    """_sums' pass, grouped by radius and chunked."""
    n, g = rows.shape
    log_peak, y_sol = plan.peaks(rows)
    if want_gradient:
        log_peak = log_peak + np.log1p(np.abs(y_sol).max(axis=1))
    lo, hi = plan.radius_range(log_peak, want_gradient)
    if lo == hi and n * (2 * hi + 1) ** g <= CHUNK_ELEMENTS:
        return _lattice_sum(plan, a, b, rows, y_sol, hi, want_gradient)
    radii = plan._radii(log_peak, want_gradient)
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

    Points are grouped by truncation radius and summed in chunks of at
    most CHUNK_ELEMENTS terms; entry i is bit-identical to
    theta_with_char(chi, Z[i], omega).
    """
    g = omega.genus
    if chi.genus != g:
        raise ValueError("characteristic genus does not match period matrix")
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2 or Z.shape[1] != g:
        raise ValueError(f"expected rows of shape (N, {g})")
    ab = np.array([(chi.a, chi.b)]).repeat(len(Z), axis=0)
    return theta_rows(omega, ab[:, 0], ab[:, 1], Z)


def theta_rows(omega: PeriodMatrix, a: np.ndarray, b: np.ndarray, rows: np.ndarray):
    """theta[a[i]; b[i]](rows[i] | Omega) for every row, shape (N, g) -> (N,).

    The one lattice pass of theta_many with the characteristics given row
    by row; entry i is bit-identical to theta_with_char at row i.

    Raises
    ------
    ValueError
        If an argument is not finite.
    """
    return _sums(omega, a, b, rows, False)[0]


@dataclass(frozen=True, eq=False)
class ThetaTable:
    """Frozen Fourier coefficients of genus-1 theta rows over fixed ends.

    Row (j, i) reads theta[a_i; b_i](e_j - p) at an end e_j fixed at build
    time.  Each of its terms factors into a coefficient of the end and a
    factor of the point,

        exp(pi i tau x^2 + 2 pi i x (e + b)) * exp(-2 pi i x p),  x = n + a,

    so the table holds the coefficients of every row over one window of n,
    and theta_table_rows makes the factors of p.  Built by theta_table,
    which states the reduction and the scaling.

    coeffs (D, W, m) holds, per characteristic, the coefficients of every
    end down the window, so that the rows of a point are one (1, W) @ (W, m)
    product per characteristic; the exponent of the point factor is
    slopes * p + gauss (D, 1, W), plus shift (D,) times the lattice shift n
    of p.
    """

    tau: complex
    coeffs: np.ndarray
    slopes: np.ndarray
    gauss: np.ndarray
    shift: np.ndarray


def theta_table(omega: PeriodMatrix, a, b, ends, points):
    """The frozen table of the genus-1 rows theta[a_i; b_i](e_j - p) at every
    end e_j of the (m,) complex array ends and every characteristic of the
    (D,) float arrays a and b, and the rows at every point of the (A,)
    complex array points, as (table, rows); points may be empty.

    Each end e is reduced to e^ = e - nu tau with |Im e^| <= Im(tau)/2, and
    each a to [-1/2, 1/2) (exact: theta[a + k; b] = theta[a; b]).  A
    reduced argument e^ - p^ then has |Im| < Im(tau): its terms lie within
    box radius R of a peak at |x| < 1, R being the plan's value radius at
    the log peak pi Im(tau), so the window n in [-R - 2, R + 2] holds them.
    Half of the Gaussian exp(pi i tau x^2) goes to each factor, the end
    factor exp(pi Im(tau) / 8 - pi (Im e^)^2 / Im(tau)) scales the
    coefficients of e and the constant exp(-pi Im(tau) / 4) the point
    factors.  Then no coefficient exceeds exp(3 pi Im(tau) / 8), no point
    factor exp(pi Im(tau) / 4), and the largest term of every row lies
    within exp(5 pi Im(tau) / 8) of 1; a factor that underflows moves a
    row by at most exp(pi Im(tau) - 744) of its largest term, which is
    below rounding up to MAX_TABLE_IM.

    The coefficients of a row are walked outward from n = 0: each step
    multiplies by the row's first step up (or down) and a shared ratio
    exp(2 pi i tau s + pi Im(tau) s), so a row costs three complex exps
    and every partial product is a coefficient.  Up to MAX_TABLE_IM the
    first coefficient is a normal double, within [exp(-3 pi Im(tau) / 4),
    exp(3 pi Im(tau) / 8)], and so is each first step, at most
    exp(pi Im(tau)), unless it underflows (possible past Im(tau) = 113):
    then the terms it leads to are at most exp(pi Im(tau) - 708) of the
    row's term at n = 0, below rounding.  The window and the shared ratios
    depend on tau alone and are kept by the plan (ThetaPlan.table_window).

    The rows at points are those theta_table_rows reads, but in one product
    per characteristic: each point is reduced to p^ = p - n tau as
    theta_table_rows reduces it, and its factors are walked in the same
    walk as the coefficients, from
    exp(-2 pi i a p^ - pi Im(tau) (a^2 + 1/2) / 2) at n = 0 (times the
    multiplier exp(2 pi i n b) of its shift), by its first steps
    exp(-+2 pi i p^ - pi Im(tau) (1 +- 2 a) / 2) and the shared ratios
    exp(-pi Im(tau) s).  The first factor lies within [exp(-7 pi Im(tau) /
    8), exp(pi Im(tau) / 4)] and the first steps below exp(pi Im(tau)), so
    up to MAX_TABLE_IM they are normal doubles, or a step underflows with
    the same bound on what it drops as a coefficient's.  rows (D, A, m) is
    the (A, W) @ (W, m) product of the factors and the coefficients of each
    characteristic: a point's rows carry the factor of theta_table_rows,
    common to the rows of one end, and agree with its rows within rounding.
    They are not checked for finiteness; the interpolant's Gamma, built
    from them, is.

    Raises
    ------
    NonConvergent
        If Im(tau) > MAX_TABLE_IM, or the window needs more than
        MAX_LATTICE_RADIUS.
    """
    if omega.genus != 1:
        raise ValueError("theta tables are genus-1 only")
    window, ratios, point_ratios = omega.plan().table_window()
    tau = omega.tau
    height = tau.imag
    half = 0.5 * math.pi * height
    quad = 1j * math.pi * tau + half   # the coefficients' half of the Gaussian
    a = a - np.floor(a + 0.5)
    shift = (2j * math.pi) * b
    nu = np.rint(ends.imag / height)
    ends = ends - nu * tau
    lin = (2j * math.pi) * ends[:, None]
    m = len(ends)
    grid = (a[:, None] + window)[:, None]   # x over the window, (D, 1, W)
    gauss = -half * (grid * grid + 0.5)
    # per (end, characteristic): the exponent of the coefficient at n = 0,
    # with the end's scale and the multiplier exp(-2 pi i nu b) of its
    # shift, and those of the first steps up and down; then the same for
    # the factors of each point
    first = np.empty((3, m + len(points), len(b)), dtype=complex)
    coef = first[:, :m]
    slope = quad * a + shift
    np.add(slope + quad * (a + 1), lin, out=coef[1])
    np.add(slope, lin, out=coef[0])
    coef[0] *= a
    coef[0] += ((0.25 * half - (math.pi / height) * ends.imag ** 2)[:, None]
                - nu[:, None] * shift)
    np.subtract(2 * quad, coef[1], out=coef[2])
    n = np.rint(points.imag / height)
    lin = (2j * math.pi) * (points - n * tau)[:, None]
    # the factors' Gaussian at n = -1, 0, 1, and its steps from n = 0
    centre = len(window) // 2
    near = gauss[:, 0, centre - 1:centre + 2].T
    np.multiply(lin, a, out=first[0, m:])
    np.subtract(n[:, None] * shift + near[1], first[0, m:], out=first[0, m:])
    np.subtract(near[2] - near[1], lin, out=first[1, m:])
    np.add(lin, near[0] - near[1], out=first[2, m:])
    np.exp(first, out=first)
    # walk[s] holds the coefficients (and factors) at n = s (up) and n = -s
    # (down), each its inner neighbour times a step
    cols = m * len(b)
    walk = np.empty((len(ratios) + 1, 2, first.shape[1] * len(b)), dtype=complex)
    walk[0] = first[0].reshape(-1)
    np.multiply(coef[1:].reshape(2, -1), ratios, out=walk[1:, :, :cols])
    np.multiply(first[1:, m:].reshape(2, -1), point_ratios, out=walk[1:, :, cols:])
    for prev, cur in zip(walk, walk[1:]):
        np.multiply(cur, prev, out=cur)
    terms = np.concatenate([walk[:0:-1, 1], walk[:, 0]]).reshape(len(window), -1, len(b))
    coeffs = np.ascontiguousarray(terms[:, :m].transpose(2, 0, 1))
    rows = terms[:, m:].transpose(2, 1, 0) @ coeffs
    return ThetaTable(tau, coeffs, (-2j * math.pi) * grid, gauss, shift), rows


def theta_table_rows(table: ThetaTable, P) -> np.ndarray:
    """The table's rows at every point of P, shape (N,) -> (N, m, D).

    Row (j, i) at p is theta[a_i; b_i](e_j - p) times a nonzero factor
    common to the rows of e_j at p (the end's scale, and the factor
    exp(-pi i N^2 tau - 2 pi i N w) of theta(w + N tau) = ... theta(w)),
    which cancels in the ratio of two rows of one end.  p is reduced to
    p^ = p - n tau with |Im p^| <= Im(tau)/2; its factors are one exp, made
    as (N, D, 1, W), and its rows are one (1, W) @ (W, m) matmul with the
    coefficients per characteristic.  numpy runs a stacked matmul slice by
    slice, so a point's rows do not depend on its batch or on the layout of
    P.  Points are read a chunk at a time, so that no working array holds
    more than CHUNK_ELEMENTS terms.

    Raises
    ------
    NonConvergent
        If a row is not finite (a point so far out that its reduction
        loses every digit).
    """
    P = np.asarray(P, dtype=complex).reshape(-1)
    step = max(1, CHUNK_ELEMENTS // table.coeffs.size)
    if len(P) <= step:
        return _table_rows(table, P)
    return np.concatenate([_table_rows(table, P[at:at + step]) for at in range(0, len(P), step)])


def _table_rows(table: ThetaTable, P: np.ndarray) -> np.ndarray:
    """theta_table_rows at one chunk of points."""
    tau = table.tau
    with np.errstate(over="ignore", invalid="ignore"):
        shift = np.rint(P.imag / tau.imag)
        p = P - shift * tau
        factors = np.exp(table.slopes * p[:, None, None, None]
                         + (table.gauss + (shift[:, None] * table.shift)[..., None, None]))
        rows = (factors @ table.coeffs)[:, :, 0]
    if not np.isfinite(rows).all():
        raise NonConvergent("theta table row is not finite")
    return rows.transpose(0, 2, 1)


def theta_gradient(chi: ThetaCharacteristic, lam, omega: PeriodMatrix) -> np.ndarray:
    """Gradient of theta[a; b] in lam, by term-wise differentiation.

    The N = 1 case of the batched pass, truncated at the gradient radius
    of the ThetaPlan, whose tail bound carries the 2*pi*i*(n+a) weights.
    """
    if chi.genus != omega.genus:
        raise ValueError("characteristic genus does not match period matrix")
    _, grad = _char_sum(chi.a, chi.b, _as_z(lam, omega.genus), omega, True)
    return grad


def odd_theta_series(omega: PeriodMatrix, v, order: int = 0) -> np.ndarray:
    """theta[1/2; 1/2] and its derivatives up to order (at most 3) at every
    entry of v, by the sine series: shape (order + 1, *v.shape).

    In this module's convention (DLMF 20.2(i), theta_1 up to sign)

        theta[1/2; 1/2](v) = -2 sum_{n >= 0} (-1)^n q^((n + 1/2)^2) sin((2n + 1) pi v),

    q = exp(i pi tau), and the derivatives are the same sum with the
    weights k_n^d = ((2n + 1) pi)^d and sin turned to cos, -sin, -cos.
    Each v is first reduced to w = v - m tau - l with |Im w| <= Im(tau)/2
    and |Re w| <= 1/2, then mapped back by
    theta(w + m tau + l) = (-1)^(m + l) exp(-pi i tau m^2 - 2 pi i m w) theta(w)
    and Leibniz's rule.  At w = a + i b term n is e^gauss_n sin(k_n w) =
    s ch + i c sh with s, c = sin, cos(k_n a) and ch, sh = e^gauss_n
    cosh, sinh(k_n b), each made from one exp of the summed exponent
    gauss_n + k_n |b| and an expm1: no factor overflows unless the term
    does, and sinh keeps its relative accuracy at small b.  Everything is
    real until one stacked (1, 4T) @ (4T, 8) product per point with the
    plan's weights (ThetaPlan.odd_series), which numpy runs point by point,
    so a point's value depends neither on its batch nor on order.  Near
    its zero at 0 the series keeps relative accuracy, where a lattice sum
    loses eps/|v| to the cancellation of its two largest terms.

    Raises
    ------
    NonConvergent
        If the series needs more than MAX_LATTICE_RADIUS terms, or a value
        is not finite.
    """
    if omega.genus != 1:
        raise ValueError("the odd theta series is genus-1 only")
    k, gauss, weights = omega.plan().odd_series()
    v = np.asarray(v, dtype=complex)
    tau = omega.tau
    m = np.rint(v.imag / tau.imag).reshape(-1)
    w = v.reshape(-1) - m * tau
    l = np.rint(w.real)
    w = w - l
    b = w.imag[:, None]
    shifted = np.count_nonzero(m) or np.count_nonzero(l)
    with np.errstate(over="ignore", invalid="ignore"):
        kb = np.abs(b) * k
        exponent = gauss + kb
        if shifted:   # |f| joins every term's exponent
            exponent += (math.pi * m * (m * tau.imag + 2 * w.imag))[:, None]
        big = np.exp(exponent)
        half = 0.5 * big * np.expm1(-2 * kb)   # -big (1 - exp(-2 k |b|)) / 2
        ch = big + half
        sh = np.copysign(half, b)
        ka = w.real[:, None] * k
        s, c = np.sin(ka), np.cos(ka)
        products = np.concatenate([s * ch, c * sh, c * ch, s * sh], axis=1)
        # (N, 8): the real and imaginary part of each derivative
        sums = (products[:, None] @ weights)[:, 0]
        if shifted:
            sums = _shift_back(sums[:, :2 * order + 2], m, l, w, tau)
    out = sums.view(complex)[:, :order + 1].T
    if not np.isfinite(out).all():
        raise NonConvergent(f"odd theta series is not finite at Im(tau) = {tau.imag:g}")
    return out.reshape(order + 1, *v.shape)


def _shift_back(sums, m, l, w, tau: complex) -> np.ndarray:
    """odd_theta_series' derivatives at w + m tau + l from sums, those at w
    times |f| as (N, 2d + 2) real and imaginary parts, in the same layout.

    The factor f = (-1)^(m + l) exp(-pi i m (m tau + 2 w)) has f' = s f
    with s = -2 pi i m, so derivative d is f sum_i C(d, i) s^(d - i)
    theta^(i)(w); |f| is already in sums, and f / |f| turns them by the
    angle pi (m + l) - pi m (m Re(tau) + 2 Re(w)).  Complex products are
    written out in real arithmetic, as numpy's complex product can round a
    lone point differently from a point in a batch.
    """
    x, y = sums[:, 0::2], sums[:, 1::2]
    if x.shape[1] > 1:
        t = -2 * math.pi * m[:, None]   # s = i t; i^j turns (x, y) by j quarter turns
        turns = ((x, y), (-y, x), (-x, -y), (y, -x))
        jet = [[sum(math.comb(d, i) * t ** (d - i) * turns[(d - i) % 4][part][:, i:i + 1]
                    for i in range(d + 1)) for part in (0, 1)] for d in range(x.shape[1])]
        x, y = (np.concatenate([pair[part] for pair in jet], axis=1) for part in (0, 1))
    angle = m * (m * tau.real + 2 * w.real)
    angle -= m + l
    angle *= -math.pi
    cos, sin = np.cos(angle)[:, None], np.sin(angle)[:, None]
    out = np.empty_like(sums)
    out[:, 0::2] = x * cos - y * sin
    out[:, 1::2] = x * sin + y * cos
    return out
