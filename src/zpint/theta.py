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

A value's box is walked outward from its centre by the q-series
recurrence (_walked), so a row costs 1 + 2g complex exps, not (2R + 1)^g.
Every partial product is a box term, so nothing overflows or underflows
unless the sum does; a walk inward from the box edge would start from 0
at large Im(Omega).  Gradients, and genus >= 2 boxes deeper than
WALK_SPAN below their peak, are summed term by term.

Truncation is planned once per period matrix: the ThetaPlan held by each
PeriodMatrix caches the inverse and the smallest eigenvalue of Im(Omega),
two tables of the tail bound by radius, one for values and one for
gradients, each additive in the log of the Gaussian peak, and the walk's
point-independent factors by radius.  Every entry
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

Rows theta[a; b](e - p) whose ends e are fixed have a second route at
genus 1: every term is a coefficient of e times a factor of p, so
theta_table freezes the coefficients of each row over one window of the
lattice, and theta_table_rows reads the rows at points p from them, with
one exp for the factors of each point and no lattice pass.  Ends and
points are reduced by the lattice first, and the rows of one end share a
factor at each point (see theta_table), which a ratio of two of them
cancels; a torus interpolant reads its kernels this way.
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

# Batches of at most this many rows read their extreme log peaks and check
# their sums through Python numbers, which is faster than numpy reductions.
_SMALL = 32

# Deepest box, in log magnitude below its peak, walked at genus >= 2 (see
# ThetaPlan.walk): its partial products stay normal doubles.
WALK_SPAN = 690.0

# Largest Im(tau) of a ThetaTable (see theta_table): up to here its factors
# and terms stay normal doubles, or too small to move a row.
MAX_TABLE_IM = 200.0

# +-2 pi i, the sign of the up and the down line of a walk axis
_SIGNS = np.array([[2j * np.pi], [-2j * np.pi]])


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
        self.imag = 0.5 * (pm.omega.imag + pm.omega.imag.T)
        self.imag_inv = np.linalg.inv(self.imag)
        self.lam_min = float(np.linalg.eigvalsh(self.imag).min())
        # -T(1), -T(2), ...: increasing; keyed by the gradient flag
        self._neg_tail = {False: np.empty(0), True: np.empty(0)}
        self._walks = {}   # radius -> _Walk or None
        self._spread = float(np.abs(self.imag).sum())   # sum_ij |Im Omega_ij|
        self._table_window = None

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

    def walk(self, radius: int) -> _Walk | None:
        """The outward walk's tables at radius, built on first use; None
        for a box summed term by term.

        depth = pi (R + 1/2)^2 sum_ij |Im Omega_ij| bounds, in log, how far
        any box term lies below the peak (log_peak >= 0) and how far any
        step factor's modulus lies from 1.  At genus >= 2 the walk passes
        through slots that may lie deeper than the term it reaches, so only
        boxes with depth <= WALK_SPAN are walked, where all of these are
        normal doubles.  At genus 1 every
        line falls off monotonically from the centre, so a term that
        underflows leaves only smaller ones after it: every box is walked.
        """
        walk = self._walks.get(radius, False)
        if walk is False:
            deep = self.genus > 1 and math.pi * (radius + 0.5) ** 2 * self._spread > WALK_SPAN
            walk = self._walks[radius] = None if deep else _Walk(self.omega, radius)
        return walk

    def table_window(self) -> tuple:
        """(window, ratios) of every genus-1 ThetaTable of this period
        matrix, built on first use: the window n in [-R - 2, R + 2], R the
        value radius at the log peak pi Im(tau), as a (W, 1, 1) array, and
        the walk's shared ratios exp(2 quad s), s = 0, ..., R + 1, quad =
        pi i tau + pi Im(tau) / 2, as a (R + 2, 1, 1) array.

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
            self._table_window = (np.arange(-steps, steps + 1.0)[:, None, None],
                                  np.exp((2 * quad) * np.arange(steps))[:, None, None])
        return self._table_window

    def _table(self, highest: float, gradient: bool) -> np.ndarray:
        """The table -T(1), -T(2), ..., extended until it passes highest.

        Raises
        ------
        NonConvergent
            If the table reaches MAX_LATTICE_RADIUS without passing highest.
        """
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
        return table


class _Walk:
    """Point-independent tables of the outward walk over box radius R.

    Axis j adds to every slot p walked so far an up and a down line of
    R + 1 slots, (s, p, line) with k_j = +-s; the down line's first slot
    repeats its start and is zeroed once walked.  ratios[j], shape
    (R, P_j, 2, 1), holds the step factors
    exp(2 pi i (Omega_jj s +- sum_{i<j} Omega_ji k_i)), all from one exp of
    their phases, linear in Omega with the coefficients of _walk_phases;
    half is pi i Omega_jj, signs +-2 pi i, columns the columns of Omega.
    """

    def __init__(self, omega: np.ndarray, radius: int):
        g = len(omega)
        coeff, parts = _walk_phases(g, radius)
        factors = np.exp(coeff @ omega.ravel())
        self.radius = radius
        self.ratios = [factors[start:stop].reshape(shape) for start, stop, shape in parts]
        self.half = (1j * np.pi) * omega.diagonal()[:, None, None]
        self.signs = _SIGNS
        self.columns = tuple(omega[:, k, None] for k in range(g))


@functools.lru_cache(maxsize=128)
def _walk_phases(g: int, radius: int) -> tuple:
    """The coefficients (E, g * g) of the flattened Omega in the phases
    (with their 2 pi i) of every step factor of the walk at radius, axis
    after axis, and per axis its (start, stop, shape) in them."""
    line = np.array([1.0, -1.0])
    offsets = np.zeros((1, 0))   # k of every slot of the axes walked so far
    blocks, parts, start = [], [], 0
    for j in range(g):
        block = np.zeros((radius, len(offsets), 2, g, g))
        block[..., j, j] = np.arange(radius)[:, None, None]
        block[..., j, :j] = offsets[:, None, :] * line[:, None]
        blocks.append(block.reshape(-1, g * g))
        parts.append((start, start + block[..., 0, 0].size, block.shape[:3] + (1,)))
        start = parts[-1][1]
        k = np.arange(radius + 1)[:, None, None] * line   # k_j per slot (s, 1, line)
        shape = (radius + 1, len(offsets), 2)
        offsets = np.concatenate([np.broadcast_to(offsets[:, None], shape + (j,)),
                                  np.broadcast_to(k[..., None], shape + (1,))],
                                 axis=-1).reshape(-1, j + 1)
    coeff = (2j * np.pi) * np.concatenate(blocks)
    coeff.flags.writeable = False
    return coeff, tuple(parts)


def _walked(omega: np.ndarray, walk: _Walk, m0: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sums (N,) of the box terms around the centres m0, walked outward.

    With u = Omega m0 + w, t(k) = t(0) exp(2 pi i k.u + pi i k.Omega.k), so
    a step along axis j from k_j = +-s (k_i = 0 for i > j) multiplies by
    exp(+-2 pi i u_j + pi i Omega_jj) times walk.ratios[j].  A row's only
    complex exps are t(0) and those first factors.  Arrays are laid out
    slot by slot with the batch innermost, no operation reads memory it
    writes (other than in place), and every sum runs down slots of at
    least two values, so a row's bits do not depend on its batch.
    """
    n, g = m0.shape
    m, w = m0.T, w.T   # (g, N)
    u = w + walk.columns[0] * m[0]
    for k in range(1, g):
        u = u + walk.columns[k] * m[k]
    centre = m * (u + w)   # its column sum is m0.Omega.m0 + 2 m0.w
    terms = np.exp((1j * np.pi) * sum(centre[1:], centre[0]))
    # per axis the first up and down step: exp(pi i Omega_jj +- 2 pi i u_j), (g, 2, N)
    first = np.exp(walk.half + walk.signs * u[:, None])
    top = walk.radius + 1
    for j, ratios in enumerate(walk.ratios):
        lines = np.empty((top, terms.size // n, 2, n), dtype=complex)
        lines[0] = terms.reshape(-1, 1, n)
        rest = lines[1:]
        np.multiply(ratios, first[j], rest)
        for prev, cur in zip(lines, rest):
            np.multiply(cur, prev, cur)
        lines[0, :, 1] = 0.0
        terms = lines.reshape(-1, n)
    # down the steps, then down the slots of the axes before the last
    total = np.add.reduce(lines.reshape(top, -1), axis=0)
    if lines.shape[1] > 1:
        total = np.add.reduce(total.reshape(lines.shape[1], -1), axis=0)
    return total[:n] + total[n:]


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
    walked outward by the q-series recurrence (_walked): each term is its
    inner neighbour times a step ratio, so every partial product is a box
    term and none under- or overflows unless the sum does, where a walk
    inward from the edge would start from 0 at large Im(Omega).  Where
    the plan has no walk, and for the gradient 2 pi i sum m t(m), the box
    is summed term by term (_direct).  Every operation is row by row, so
    a row's value does not depend on the other rows.  Returns (values,
    gradients or None).

    Raises
    ------
    NonConvergent
        If a summed value is not finite (the Gaussian peak overflowed, or a
        row is not finite).
    """
    omega = plan.omega
    m0 = a - np.rint(a + y_sol)   # rint(-a - y_sol) + a
    w = Z + b
    walk = None if want_gradient else plan.walk(radius)
    grad = None
    if walk is not None:
        values = _walked(omega, walk, m0, w)
    else:
        terms, m = _direct(omega, m0, w, radius)
        values = terms.sum(axis=1)
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
    counts = [len(z) for z in sets]
    ab = np.array([(c.a, c.b) for c in chis]).repeat(counts, axis=0)
    values = theta_rows(omega, ab[:, 0], ab[:, 1], rows)
    if not many or isinstance(Z, np.ndarray):
        return values.reshape(np.shape(Z)[:-1])
    return [values[end - n:end] for n, end in zip(counts, itertools.accumulate(counts))]


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

    coeffs (W, m, D) holds the coefficients down the window of every end
    and characteristic; per characteristic the exponent of the point factor
    is slopes * p + gauss (W, 1, D), plus shift (D,) times the lattice shift
    n of p.
    """

    tau: complex
    coeffs: np.ndarray
    slopes: np.ndarray
    gauss: np.ndarray
    shift: np.ndarray


def theta_table(omega: PeriodMatrix, a, b, ends) -> ThetaTable:
    """The frozen table of the genus-1 rows theta[a_i; b_i](e_j - p) at every
    end e_j of the (m,) complex array ends and every characteristic of the
    (D,) float arrays a and b.

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

    The coefficients of a row are walked outward from n = 0, as _walked
    walks a box: each step multiplies by the row's first step up (or down)
    and a shared ratio exp(2 pi i tau s + pi Im(tau) s), so a row costs
    three complex exps and every partial product is a coefficient.  Up to
    MAX_TABLE_IM the first coefficient and the first steps are normal
    doubles.  The window and the shared ratios depend on tau alone and are
    kept by the plan (ThetaPlan.table_window).

    Raises
    ------
    NonConvergent
        If Im(tau) > MAX_TABLE_IM, or the window needs more than
        MAX_LATTICE_RADIUS.
    """
    if omega.genus != 1:
        raise ValueError("theta tables are genus-1 only")
    window, ratios = omega.plan().table_window()
    tau = omega.tau
    height = tau.imag
    half = 0.5 * math.pi * height
    quad = 1j * math.pi * tau + half   # the coefficients' half of the Gaussian
    a = a - np.floor(a + 0.5)
    shift = (2j * math.pi) * b
    nu = np.rint(ends.imag / height)
    ends = ends - nu * tau
    lin = (2j * math.pi) * ends[:, None]
    # per (end, characteristic): the exponent of the coefficient at n = 0,
    # with the end's scale and the multiplier exp(-2 pi i nu b) of its
    # shift, and those of the first steps up and down
    first = np.empty((3, len(ends), len(b)), dtype=complex)
    slope = quad * a + shift
    np.add(slope + quad * (a + 1), lin, out=first[1])
    np.add(slope, lin, out=first[0])
    first[0] *= a
    first[0] += ((0.25 * half - (math.pi / height) * ends.imag ** 2)[:, None]
                 - nu[:, None] * shift)
    np.subtract(2 * quad, first[1], out=first[2])
    np.exp(first, out=first)
    # walk[s] holds the coefficients at n = s (up) and n = -s (down), each
    # its inner neighbour times a step
    walk = np.empty((len(ratios) + 1, 2, len(ends) * len(b)), dtype=complex)
    walk[0] = first[0].reshape(-1)
    np.multiply(first[1:].reshape(2, -1), ratios, out=walk[1:])
    for prev, cur in zip(walk, walk[1:]):
        np.multiply(cur, prev, out=cur)
    coeffs = np.concatenate([walk[:0:-1, 1], walk[:, 0]]).reshape(-1, len(ends), len(b))
    grid = window + a   # x over the window, (W, 1, D)
    return ThetaTable(tau, coeffs, (-2j * math.pi) * grid, -half * (grid * grid + 0.5), shift)


def theta_table_rows(table: ThetaTable, P) -> np.ndarray:
    """The table's rows at every point of P, shape (N,) -> (N, m, D).

    Row (j, i) at p is theta[a_i; b_i](e_j - p) times a nonzero factor
    common to the rows of e_j at p (the end's scale, and the factor
    exp(-pi i N^2 tau - 2 pi i N w) of theta(w + N tau) = ... theta(w)),
    which cancels in the ratio of two rows of one end.  p is reduced to
    p^ = p - n tau with |Im p^| <= Im(tau)/2; its factors are one exp, and
    each row is one product with its coefficients and one sum down the
    window, term after term, so a point's rows do not depend on its batch.
    Points are read a chunk at a time, so that no working array holds more
    than CHUNK_ELEMENTS terms.

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
                         + (table.gauss + (shift[:, None] * table.shift)[:, None, None]))
        rows = (table.coeffs * factors).sum(axis=1)
    if not np.isfinite(rows).all():
        raise NonConvergent("theta table row is not finite")
    return rows


def theta_gradient(chi: ThetaCharacteristic, lam, omega: PeriodMatrix) -> np.ndarray:
    """Gradient of theta[a; b] in lam, by term-wise differentiation.

    The N = 1 case of the batched pass, truncated at the gradient radius
    of the ThetaPlan, whose tail bound carries the 2*pi*i*(n+a) weights.
    """
    if chi.genus != omega.genus:
        raise ValueError("characteristic genus does not match period matrix")
    _, grad = _char_sum(chi.a, chi.b, _as_z(lam, omega.genus), omega, True)
    return grad
