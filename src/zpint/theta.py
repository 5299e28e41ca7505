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
using the smallest eigenvalue of pi*Im(Omega)) falls below the requested
absolute error, so truncation is provable rather than heuristic.  The
error target governs truncation only; double-precision rounding
contributes a further few-ulp error relative to the value's magnitude,
which matters when the Gaussian peak exp(pi y.Im(Omega)^-1 y) is large.
A sum that overflows to a non-finite value raises NonConvergent.

Truncation is planned once per period matrix and configuration: the
ThetaPlan held by each PeriodMatrix caches the inverse and the smallest
eigenvalue of Im(Omega) and a table of the tail bound by radius, which is
additive in the log of the Gaussian peak.  theta_many evaluates a batch
of arguments, grouping them by radius; every point is summed with the
same per-element arithmetic whatever batch it arrives in, so its value
does not depend on its batch and equals the scalar theta_with_char
value bit for bit.  Given a tuple of characteristics, theta_many sums
one row set per characteristic in the same single pass, each row with
its own (a, b).  Enumeration order is fixed; identical inputs give
bit-identical results on one platform.
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
    "ThetaEvalConfig",
    "ThetaPlan",
    "DEFAULT_CONFIG",
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


@dataclass(frozen=True, eq=False)
class PeriodMatrix:
    """Genus and symmetric g-by-g period matrix with Im(Omega) > 0.

    Genus 0 is allowed as the degenerate case of an empty matrix; the
    associated theta function is the empty sum 1.
    """

    genus: int
    omega: np.ndarray
    _plans: dict = field(default_factory=dict, init=False, repr=False)

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

    def plan(self, cfg: ThetaEvalConfig | None = None) -> ThetaPlan:
        """The truncation plan for cfg, built on first use (genus >= 1)."""
        cfg = cfg or DEFAULT_CONFIG
        plan = self._plans.get(cfg)
        if plan is None:
            plan = self._plans[cfg] = ThetaPlan(self, cfg)
        return plan


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


@dataclass(frozen=True)
class ThetaEvalConfig:
    """Truncation control: absolute error target and a radius cap."""

    target_abs_error: float = 1e-12
    max_lattice_radius: int = 60

    def __post_init__(self):
        if not (self.target_abs_error >= 1e-15):
            raise ValueError("target_abs_error must be at least 1e-15")
        if self.max_lattice_radius < 1:
            raise ValueError("max_lattice_radius must be at least 1")


DEFAULT_CONFIG = ThetaEvalConfig()


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


def _truncation_radius(lam_min: float, log_peak: float, g: int, cfg: ThetaEvalConfig,
                       deriv_shift: float | None) -> int:
    log_target = math.log(cfg.target_abs_error)
    for radius in range(1, cfg.max_lattice_radius + 1):
        if _log_tail_bound(lam_min, log_peak, g, radius, deriv_shift) < log_target:
            return radius
    raise _radius_cap(cfg)


def _radius_cap(cfg: ThetaEvalConfig) -> NonConvergent:
    return NonConvergent(
        f"tail bound above {cfg.target_abs_error:g} at radius cap "
        f"{cfg.max_lattice_radius}"
    )


class ThetaPlan:
    """Truncation data of one period matrix under one ThetaEvalConfig.

    Holds the inverse and the smallest eigenvalue of Im(Omega) (symmetrised),
    and the table T0(r) = _log_tail_bound(lam_min, 0, g, r, None), extended
    only as far as the largest radius asked for.  The tail bound is
    additive in log_peak, so the value-path radius of a point is the
    smallest r with T0(r) < log(target) - log_peak.
    """

    def __init__(self, pm: PeriodMatrix, cfg: ThetaEvalConfig):
        self.genus = pm.genus
        self.omega = pm.omega
        self.cfg = cfg
        imag = 0.5 * (pm.omega.imag + pm.omega.imag.T)
        self.imag_inv = np.linalg.inv(imag)
        self.lam_min = float(np.linalg.eigvalsh(imag).min())
        self._log_target = math.log(cfg.target_abs_error)
        self._neg_tail = np.empty(0)   # -T0(1), -T0(2), ...: increasing

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
            If some point needs more than cfg.max_lattice_radius.
        """
        excess = log_peak - self._log_target   # radius r fits when -T0(r) > excess
        highest = float(excess.max())
        table = self._neg_tail
        cap = self.cfg.max_lattice_radius
        if table.size < cap and not (table.size and table[-1] > highest):
            extended = table.tolist()
            while len(extended) < cap and not (extended and extended[-1] > highest):
                extended.append(-_log_tail_bound(self.lam_min, 0.0, self.genus,
                                                 len(extended) + 1, None))
            # replaced whole, so a concurrent caller sees one complete table
            table = self._neg_tail = np.array(extended)
        if not (table.size and table[-1] > highest):
            raise _radius_cap(self.cfg)
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

    The shared core of the scalar and batched entries.  a and b are one
    characteristic (g,) for every row, or one per row (rows, g).  Every
    operation is elementwise, and each term sum runs along one row, so a
    row's value does not depend on the other rows.  Returns (values,
    gradients or None).

    Raises
    ------
    NonConvergent
        If a summed value is not finite (the Gaussian peak overflowed).
    """
    omega = plan.omega
    base = np.rint(-a - y_sol)
    m = [base[:, j, None] + col + a[..., j, None]
         for j, col in enumerate(_offset_columns(radius, plan.genus))]
    zb = Z + b
    quad = sum(mj * omega[j, k] * mk for j, mj in enumerate(m) for k, mk in enumerate(m))
    lin = sum(mj * zb[:, j, None] for j, mj in enumerate(m))
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(1j * np.pi * quad + 2j * np.pi * lin)
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


def _char_sum(a: np.ndarray, b: np.ndarray, z: np.ndarray, pm: PeriodMatrix,
              cfg: ThetaEvalConfig, want_gradient: bool):
    """Truncated characteristic lattice sum at one point; optionally its z-gradient."""
    g = pm.genus
    if g == 0:
        return 1.0 + 0.0j, np.zeros(0, dtype=complex)
    plan = pm.plan(cfg)
    Z = z[None, :]
    log_peak, y_sol = plan.peaks(Z)
    if want_gradient:
        radius = _truncation_radius(plan.lam_min, float(log_peak[0]), g, cfg,
                                    float(np.abs(y_sol).max()))
    else:
        radius = int(plan.radii(log_peak)[0])
    values, grad = _lattice_sum(plan, a, b, Z, y_sol, radius, want_gradient)
    return complex(values[0]), None if grad is None else grad[0]


def _as_z(z, g: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(z, dtype=complex)).reshape(-1)
    if arr.size != g:
        raise ValueError(f"argument has length {arr.size}, expected genus {g}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("theta argument must be finite")
    return arr


def riemann_theta(z, omega: PeriodMatrix, cfg: ThetaEvalConfig | None = None) -> complex:
    """theta(z | Omega) with tail bound below cfg.target_abs_error.

    Parameters
    ----------
    z : complex scalar (genus 1) or length-g complex vector
    omega : PeriodMatrix
    cfg : ThetaEvalConfig, optional

    Returns
    -------
    complex
    """
    cfg = cfg or DEFAULT_CONFIG
    g = omega.genus
    zero = np.zeros(g)
    value, _ = _char_sum(zero, zero, _as_z(z, g), omega, cfg, False)
    return value


def theta_with_char(chi: ThetaCharacteristic, lam, omega: PeriodMatrix,
                    cfg: ThetaEvalConfig | None = None) -> complex:
    """theta[a; b](lam | Omega) via the direct characteristic sum."""
    cfg = cfg or DEFAULT_CONFIG
    if chi.genus != omega.genus:
        raise ValueError("characteristic genus does not match period matrix")
    value, _ = _char_sum(chi.a, chi.b, _as_z(lam, omega.genus), omega, cfg, False)
    return value


def theta_many(chi, Z, omega: PeriodMatrix,
               cfg: ThetaEvalConfig | None = None) -> np.ndarray:
    """theta[a; b](Z[i] | Omega) for every row of Z, shape (N, g) -> (N,).

    chi may also be a tuple of k characteristics; Z then has shape
    (k, N, g), row set i belonging to chi[i], and the (k, N) result comes
    from one lattice pass over all k*N rows.  Points are grouped by
    truncation radius and summed in chunks of at most CHUNK_ELEMENTS
    terms; entry (i, j) is bit-identical to
    theta_with_char(chi[i], Z[i, j], omega, cfg).
    """
    cfg = cfg or DEFAULT_CONFIG
    g = omega.genus
    many = isinstance(chi, tuple)
    chis = chi if many else (chi,)
    if any(c.genus != g for c in chis):
        raise ValueError("characteristic genus does not match period matrix")
    Z = np.asarray(Z, dtype=complex)
    stacked = Z if many else Z[None]
    if stacked.ndim != 3 or stacked.shape[0] != len(chis) or stacked.shape[2] != g:
        expected = f"({len(chis)}, N, {g})" if many else f"(N, {g})"
        raise ValueError(f"arguments have shape {Z.shape}, expected {expected}")
    if not np.isfinite(Z).all():
        raise ValueError("theta arguments must be finite")
    if g == 0 or Z.size == 0:
        return np.ones(Z.shape[:-1], dtype=complex)
    rows = Z.reshape(-1, g)
    a = np.array([c.a for c in chis]).repeat(stacked.shape[1], axis=0)
    b = np.array([c.b for c in chis]).repeat(stacked.shape[1], axis=0)
    plan = omega.plan(cfg)
    log_peak, y_sol = plan.peaks(rows)
    radii = plan.radii(log_peak)
    lo, hi = int(radii.min()), int(radii.max())
    if lo == hi and rows.shape[0] * (2 * hi + 1) ** g <= CHUNK_ELEMENTS:
        return _lattice_sum(plan, a, b, rows, y_sol, hi, False)[0].reshape(Z.shape[:-1])
    out = np.empty(rows.shape[0], dtype=complex)
    for radius in np.unique(radii).tolist():
        at = np.flatnonzero(radii == radius)
        step = max(1, CHUNK_ELEMENTS // (2 * radius + 1) ** g)
        for start in range(0, at.size, step):
            sel = at[start:start + step]
            out[sel] = _lattice_sum(plan, a[sel], b[sel], rows[sel], y_sol[sel],
                                    radius, False)[0]
    return out.reshape(Z.shape[:-1])


def theta_gradient(chi: ThetaCharacteristic, lam, omega: PeriodMatrix,
                   cfg: ThetaEvalConfig | None = None) -> np.ndarray:
    """Gradient of theta[a; b] in lam, by term-wise differentiation.

    The same tail control applies, with the shell bound enlarged by the
    linear factor coming from the 2*pi*i*(n+a) weights.
    """
    cfg = cfg or DEFAULT_CONFIG
    if chi.genus != omega.genus:
        raise ValueError("characteristic genus does not match period matrix")
    _, grad = _char_sum(chi.a, chi.b, _as_z(lam, omega.genus), omega, cfg, True)
    return grad
