"""Theta engine tests against independent high-precision oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import zpint.theta as theta_module
from zpint.errors import InvalidPeriodMatrix, NonConvergent
from zpint.theta import (
    TARGET_ABS_ERROR,
    PeriodMatrix,
    ThetaCharacteristic,
    _log_tail_bound,
    period_from_tau,
    reduce_characteristic,
    riemann_theta,
    theta_gradient,
    theta_many,
    theta_with_char,
)

# theta(0 | i) from the closed form pi^(1/4)/Gamma(3/4), frozen from the
# oracle before the main build; oracles.theta3_zero_value() re-derives it.
THETA_ZERO_I = 1.0864348112133080146


def test_value_at_i_matches_closed_form():
    value = riemann_theta(0.0, period_from_tau(1j))
    assert abs(value - THETA_ZERO_I) < 1e-12
    assert abs(value - complex(oracles.theta3_zero_value())) < 1e-12


def test_value_matches_direct_lattice_sum_oracle():
    tau = 0.3 + 0.8j
    z = 0.21 - 0.13j
    ours = riemann_theta(z, period_from_tau(tau))
    ref = oracles.theta_char_direct([0.0], [0.0], [z], [[tau]])
    assert abs(ours - complex(ref)) < 1e-12


def test_evenness():
    pm = period_from_tau(0.3 + 0.8j)
    for z in (0.4 + 0.1j, -0.2 + 0.3j, 1.1 - 0.2j):
        assert abs(riemann_theta(z, pm) - riemann_theta(-z, pm)) < 1e-12


def test_integer_periodicity():
    pm = period_from_tau(2j)
    z = 0.37 + 0.21j
    assert abs(riemann_theta(z + 1.0, pm) - riemann_theta(z, pm)) < 1e-12


def test_quasi_periodicity_property(rng):
    for tau in (1j, 2j, 0.3 + 0.8j):
        pm = period_from_tau(tau)
        for _ in range(30):
            z = rng.uniform(-1, 1) + 1j * rng.uniform(-0.8, 0.8)
            m = int(rng.integers(-2, 3))
            n = int(rng.integers(-2, 3))
            lhs = riemann_theta(z + tau * m + n, pm)
            rhs = np.exp(-1j * np.pi * tau * m * m - 2j * np.pi * m * z) \
                * riemann_theta(z, pm)
            assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) < 1e-10


def test_genus2_quasi_periodicity(rng):
    omega = np.array([[0.3 + 1.1j, 0.1 + 0.2j], [0.1 + 0.2j, -0.2 + 0.9j]])
    pm = PeriodMatrix(2, omega)
    for _ in range(20):
        z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        m = rng.integers(-2, 3, 2).astype(float)
        n = rng.integers(-2, 3, 2).astype(float)
        lhs = riemann_theta(z + omega @ m + n, pm)
        rhs = np.exp(-1j * np.pi * m @ omega @ m - 2j * np.pi * m @ z) \
            * riemann_theta(z, pm)
        assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) < 1e-10


def test_genus2_value_against_oracle():
    omega = [[0.3 + 1.1j, 0.1 + 0.2j], [0.1 + 0.2j, -0.2 + 0.9j]]
    pm = PeriodMatrix(2, np.array(omega))
    z = [0.2 + 0.1j, -0.3 + 0.05j]
    ours = riemann_theta(z, pm)
    ref = oracles.theta_char_direct([0, 0], [0, 0], z, omega, radius=20)
    assert abs(ours - complex(ref)) < 1e-12


def test_genus3_quasi_periodicity_and_symmetry(rng):
    base = rng.uniform(-0.3, 0.3, (3, 3))
    spread = rng.uniform(-0.5, 0.5, (3, 3))
    omega = (base + base.T) / 2 + 1j * (spread @ spread.T + 0.9 * np.eye(3))
    pm = PeriodMatrix(3, omega)
    z = rng.uniform(-0.5, 0.5, 3) + 1j * rng.uniform(-0.3, 0.3, 3)
    assert abs(riemann_theta(z, pm) - riemann_theta(-z, pm)) < 1e-12
    m = rng.integers(-1, 2, 3).astype(float)
    lhs = riemann_theta(z + omega @ m, pm)
    rhs = np.exp(-1j * np.pi * m @ omega @ m - 2j * np.pi * m @ z) \
        * riemann_theta(z, pm)
    assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) < 1e-10


def test_odd_characteristic_vanishes():
    chi = ThetaCharacteristic([0.5], [0.5])
    for tau in (1j, 0.3 + 0.8j, 2j):
        assert abs(theta_with_char(chi, 0.0, period_from_tau(tau))) < 1e-12


def test_zero_characteristic_equals_plain_theta():
    pm = period_from_tau(0.3 + 0.8j)
    chi = ThetaCharacteristic([0.0], [0.0])
    z = 0.31 + 0.17j
    assert abs(theta_with_char(chi, z, pm) - riemann_theta(z, pm)) < 1e-14


def test_characteristic_sum_vs_reduction_identity(rng):
    tau = 2j
    pm = period_from_tau(tau)
    for _ in range(5):
        a = float(rng.uniform(-1, 1))
        b = float(rng.uniform(-1, 1))
        lam = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
        chi = ThetaCharacteristic([a], [b])
        ours = theta_with_char(chi, lam, pm)
        # reduction identity route: prefactor times plain theta
        reduction = np.exp(1j * np.pi * a * tau * a + 2j * np.pi * a * (lam + b)) \
            * riemann_theta(lam + tau * a + b, pm)
        assert abs(ours - reduction) < 1e-11
        # and the independent mpmath direct sum
        ref = oracles.theta_char_direct([a], [b], [lam], [[tau]])
        assert abs(ours - complex(ref)) < 1e-11


def test_gradient_vs_finite_differences(rng):
    pm = period_from_tau(0.3 + 0.8j)
    chi = ThetaCharacteristic([0.21], [0.43])
    for _ in range(5):
        lam = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
        grad = theta_gradient(chi, lam, pm)[0]
        fd = oracles.central_difference(
            lambda z: theta_with_char(chi, z, pm), lam
        )
        assert abs(grad - fd) / abs(fd) < 1e-6


@pytest.mark.parametrize("g, count", [(1, 4), (2, 2)])
def test_gradient_matches_direct_sum_off_the_real_axis(g, count, rng):
    """theta_gradient against the radius-40 mpmath gradient sum, with
    |Im z| up to 3 so that s = max|Im(Omega)^-1 y| > 0.  The error allowed is
    the truncation target plus a few ulps of the Gaussian peak at the
    gradient weight 2*pi*(1 + s)."""
    omega = np.array([[0.3 + 1.1j, 0.1 + 0.2j], [0.1 + 0.2j, -0.2 + 0.9j]])[:g, :g]
    pm = PeriodMatrix(g, omega)
    plan = pm.plan()
    for _ in range(count):
        chi = ThetaCharacteristic(rng.uniform(-1, 1, g), rng.uniform(-1, 1, g))
        z = rng.uniform(-1, 1, g) + 1j * rng.uniform(-3, 3, g)
        log_peak, y_sol = plan.peaks(z[None])
        s = float(np.abs(y_sol).max())
        assert s > 0.2
        ref = oracles.theta_char_gradient_direct(chi.a, chi.b, z, omega)
        err = np.abs(theta_gradient(chi, z, pm) - np.array([complex(v) for v in ref])).max()
        ulps = 64 * np.finfo(float).eps * math.exp(log_peak[0]) * 2 * math.pi * (1 + s)
        assert err <= TARGET_ABS_ERROR + ulps, (z, err)


def test_odd_derivative_at_zero_is_frozen():
    """theta[1/2; 1/2]'(0), which every prime form divides by, keeps its bits."""
    chi = ThetaCharacteristic([0.5], [0.5])
    assert theta_gradient(chi, 0.0, period_from_tau(0.3 + 0.9j))[0] == complex(
        -3.030194855233179, -0.6956566915304156)
    assert theta_gradient(chi, 0.0, period_from_tau(0.25 + 1.1j))[0] == complex(
        -2.5990128340884704, -0.508905370297595)


def test_even_characteristic_gradient_vanishes_at_zero():
    pm = period_from_tau(0.3 + 0.8j)
    for a, b in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5)):
        chi = ThetaCharacteristic([a], [b])
        assert abs(theta_gradient(chi, 0.0, pm)[0]) < 1e-12


def test_odd_derivative_matches_product_formula():
    chi = ThetaCharacteristic([0.5], [0.5])
    value = theta_gradient(chi, 0.0, period_from_tau(1j))[0]
    ref = complex(oracles.odd_theta_deriv0_product(1j))
    assert abs(value - ref) / abs(ref) < 1e-10


def test_half_integer_parity(rng):
    pm = period_from_tau(0.3 + 0.8j)
    for a, b in ((0.5, 0.5), (0.5, 0.0), (0.0, 0.5), (0.0, 0.0)):
        chi = ThetaCharacteristic([a], [b])
        sign = np.exp(4j * np.pi * a * b)
        for _ in range(3):
            lam = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
            lhs = theta_with_char(chi, -lam, pm)
            rhs = sign * theta_with_char(chi, lam, pm)
            assert abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300) < 1e-12


def test_determinism_bit_identical():
    pm = period_from_tau(0.3 + 0.8j)
    chi = ThetaCharacteristic([0.21], [0.43])
    z = 0.37 + 0.29j
    a = theta_with_char(chi, z, pm)
    b = theta_with_char(chi, z, pm)
    assert a == b
    ga = theta_gradient(chi, z, pm)
    gb = theta_gradient(chi, z, pm)
    assert np.array_equal(ga, gb)


def test_reduce_characteristic_phase():
    pm = period_from_tau(0.3 + 0.8j)
    chi = ThetaCharacteristic([1.7, ][:1], [-2.3][:1])
    reduced, phase = reduce_characteristic(chi)
    assert np.all(reduced.a >= 0) and np.all(reduced.a < 1)
    assert np.all(reduced.b >= 0) and np.all(reduced.b < 1)
    z = 0.11 + 0.21j
    lhs = theta_with_char(reduced, z, pm)
    rhs = phase * theta_with_char(chi, z, pm)
    assert abs(lhs - rhs) < 1e-12


def test_stiff_modulus_against_oracle():
    # small Im(tau) needs a wide lattice box; the truncation target must
    # still hold, with a rounding allowance proportional to the value's
    # magnitude (the Gaussian peak reaches ~2.5e7 at the first argument)
    tau = 0.1 + 0.15j
    pm = period_from_tau(tau)
    for z in (0.37 + 0.9j, -0.21 - 0.6j, 1.3 + 0.2j):
        ours = riemann_theta(z, pm)
        ref = oracles.theta_char_direct([0.0], [0.0], [z], [[tau]], radius=120)
        assert abs(ours - complex(ref)) < 1e-11 + 1e-14 * abs(ours)


def test_period_matrix_validation():
    with pytest.raises(InvalidPeriodMatrix):
        PeriodMatrix(1, np.array([[1.0 - 0.5j]]))       # Im not positive
    with pytest.raises(InvalidPeriodMatrix):
        PeriodMatrix(2, np.array([[1j, 0.5], [0.2, 1j]]))  # not symmetric
    pm = PeriodMatrix(0, np.zeros((0, 0)))
    assert riemann_theta(np.zeros(0), pm) == 1.0


def test_nonconvergent_when_radius_capped():
    pm = period_from_tau(0.001j)  # tiny Im tau needs a huge lattice box
    with pytest.raises(NonConvergent, match="tail bound above 1e-12 at radius cap 60"):
        riemann_theta(0.3, pm)


def test_overflow_raises_nonconvergent():
    # the Gaussian peak exp(pi * 16^2) exceeds the double range
    pm = period_from_tau(1j)
    chi = ThetaCharacteristic([0.0], [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergent):
            riemann_theta(16j, pm)
        with pytest.raises(NonConvergent):
            theta_gradient(chi, 16j, pm)
        with pytest.raises(NonConvergent):
            theta_many(chi, np.array([[0.1], [16j]]), pm)


def _outcome(fn):
    try:
        return fn()
    except NonConvergent:
        return "radius cap"


def _radius_search(lam_min, log_peak, g, deriv_shift):
    """Smallest radius whose tail bound falls below the target, searched directly
    up to the cap, both read from the theta module."""
    for radius in range(1, theta_module.MAX_LATTICE_RADIUS + 1):
        if _log_tail_bound(lam_min, log_peak, g, radius, deriv_shift) < math.log(
                theta_module.TARGET_ABS_ERROR):
            return radius
    raise NonConvergent("radius cap")


@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("lam", [0.15, 0.6, 1.7])
def test_plan_radius_equals_radius_search(g, lam, monkeypatch):
    """At the module's target and cap, and at target 1e-9 with cap 6 on a
    fresh period matrix, which reaches the cap branch."""
    omega = 1j * lam * np.array([[1.0, 0.3], [0.3, 2.0]])[:g, :g] + 0.2
    for target, cap in ((theta_module.TARGET_ABS_ERROR, theta_module.MAX_LATTICE_RADIUS),
                        (1e-9, 6)):
        monkeypatch.setattr(theta_module, "TARGET_ABS_ERROR", target)
        monkeypatch.setattr(theta_module, "MAX_LATTICE_RADIUS", cap)
        plan = PeriodMatrix(g, omega).plan()
        # the one-pass table against the loop, within rounding of the log-sums
        ref = [_log_tail_bound(plan.lam_min, 0.0, g, r, None) for r in range(1, cap + 1)]
        assert np.allclose(-plan._table(-math.inf, False), ref, rtol=1e-14, atol=1e-14)
        for log_peak in np.linspace(0.0, 150.0, 76):
            ours = _outcome(lambda: int(plan._radii(np.array([log_peak]), False)[0]))
            ref = _outcome(lambda: _radius_search(plan.lam_min, float(log_peak), g, None))
            assert ours == ref, (target, cap, log_peak)


@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("lam", [0.15, 0.6, 1.7])
def test_gradient_radius_covers_shifted_bound(g, lam):
    """The gradient radius from the plan's shift-free table, with log1p(s)
    added to the peak, is never below the direct search with shift s, and
    equals it at s = 0."""
    omega = 1j * lam * np.array([[1.0, 0.3], [0.3, 2.0]])[:g, :g] + 0.2
    plan = PeriodMatrix(g, omega).plan()
    for log_peak in np.linspace(0.0, 60.0, 13):
        for shift in (0.0, 0.4, 2.5, 9.0):
            ours = int(plan._radii(np.array([log_peak + math.log1p(shift)]), True)[0])
            ref = _radius_search(plan.lam_min, float(log_peak), g, shift)
            assert ours >= ref, (log_peak, shift)
            if shift == 0.0:
                assert ours == ref, log_peak


@pytest.mark.parametrize("chunk", [theta_module.CHUNK_ELEMENTS, 64])
@pytest.mark.parametrize("g", [1, 2])
def test_theta_many_rows_bit_identical_to_scalar(g, chunk, rng, monkeypatch):
    monkeypatch.setattr(theta_module, "CHUNK_ELEMENTS", chunk)
    omega = np.array([[0.3 + 1.1j, 0.1 + 0.2j], [0.1 + 0.2j, -0.2 + 0.9j]])[:g, :g]
    pm = PeriodMatrix(g, omega)
    chi = ThetaCharacteristic(rng.uniform(-1, 1, g), rng.uniform(-1, 1, g))
    Z = rng.uniform(-1, 1, (40, g)) + 1j * rng.uniform(-4, 4, (40, g))
    plan = pm.plan()
    assert len(set(plan._radii(plan.peaks(Z)[0], False).tolist())) >= 3
    batch = theta_many(chi, Z, pm)
    for i in range(len(Z)):
        assert batch[i] == theta_with_char(chi, Z[i], pm)


def test_theta_many_large_batch_peak_memory():
    """4,800 rows of the odd theta at tau = 0.3 + 0.9i, the size of the
    determinantal check's circle rows, peak at or below 2.2 MB: the lattice
    sum scales, adds and exponentiates its exponent in place."""
    import tracemalloc

    tau = 0.3 + 0.9j
    pm = period_from_tau(tau)
    odd = ThetaCharacteristic([0.5], [0.5])
    alpha, beta = np.meshgrid(np.linspace(0.0, 1.0, 80), np.linspace(0.0, 1.0, 60))
    Z = (alpha + beta * tau).reshape(-1, 1)
    theta_many(odd, Z, pm)   # plan tables and offset columns exist before the window
    tracemalloc.start()
    try:
        theta_many(odd, Z, pm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2e6


def test_theta_many_validation():
    pm = period_from_tau(1j)
    chi = ThetaCharacteristic([0.5], [0.5])
    assert theta_many(chi, np.zeros((0, 1)), pm).shape == (0,)
    for bad in (np.zeros(3), np.zeros((2, 3, 1)), np.zeros((3, 2))):   # rows of shape (N, 1)
        with pytest.raises(ValueError):
            theta_many(chi, bad, pm)
    with pytest.raises(ValueError):
        theta_many(chi, np.array([[np.nan]]), pm)
    with pytest.raises(ValueError):
        theta_many(ThetaCharacteristic([0, 0], [0, 0]), np.zeros((2, 1)), pm)


# theta(0.3 + 150i | 300i) = 1 + exp(-0.6 pi i) to 40 digits: the centre term
# and its down neighbour have modulus 1, and the edges of the radius-2 box
# lie 10^-819 and 10^-2456 below them: the edge terms underflow to 0, and
# the sum keeps its digits because each term is exponentiated from its own
# exponent, in a box centred at the peak.
STIFF_TAU, STIFF_Z = 300j, 0.3 + 150j
STIFF_VALUE = complex(0.6909830056250527, -0.9510565162951536)

_unit = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def theta_problems(draw, min_imag=0.3, max_imag=2.0, max_coupling=0.97):
    """(Omega, a, b, z) at genus 1 or 2, Im Omega_jj in [min_imag, max_imag].
    Genus 2 draws the coupling |Im Omega_12| / sqrt(Im Omega_11 Im Omega_22)
    up to max_coupling, so strongly coupled boxes come up; z = x + Im(Omega) t
    with |t_j| <= 1 keeps the Gaussian peak below exp(4 pi max_imag)."""
    g = draw(st.sampled_from([1, 2]))
    imag = [min_imag + (max_imag - min_imag) * draw(_unit) for _ in range(g)]
    re = [draw(_unit) - 0.5 for _ in range(3)]
    if g == 1:
        omega = np.array([[re[0] + 1j * imag[0]]])
    else:
        c = max_coupling * (2 * draw(_unit) - 1) * math.sqrt(imag[0] * imag[1])
        omega = np.array([[re[0] + 1j * imag[0], re[1] + 1j * c],
                          [re[1] + 1j * c, re[2] + 1j * imag[1]]])
    a = np.array([draw(_unit) for _ in range(g)])
    b = np.array([draw(_unit) for _ in range(g)])
    t = np.array([2 * draw(_unit) - 1 for _ in range(g)])
    z = np.array([2 * draw(_unit) - 1 for _ in range(g)]) + 1j * (omega.imag @ t)
    return omega, a, b, z


def _centre(omega, a, z):
    """The box centre shift rint(-a - Im(Omega)^-1 y) that zpint sums around."""
    return np.rint(-a - np.linalg.solve(0.5 * (omega.imag + omega.imag.T), z.imag))


def _centred_oracle(fn, omega, a, b, z, radius):
    """An oracle sum over the box of the given radius around zpint's box
    centre: shifting a by the integer _centre re-indexes the lattice only."""
    return fn(a + _centre(omega, a, z), b, z, omega.tolist(), radius=radius)


def _box_mass(omega, a, z, radius, gradient):
    """Sum of |t(m)| over the box of the given radius around zpint's centre
    (with the weights 2 pi max|m_j| for a gradient): the scale of its
    double-precision rounding."""
    g = len(a)
    k = np.stack(np.meshgrid(*[np.arange(-radius, radius + 1)] * g, indexing="ij"), -1)
    m = k.reshape(-1, g) + _centre(omega, a, z) + a
    imag = 0.5 * (omega.imag + omega.imag.T)
    size = np.exp(-math.pi * ((m @ imag) * m).sum(axis=1) - 2 * math.pi * m @ z.imag)
    if gradient:
        size *= 2 * math.pi * np.abs(m).max(axis=1)
    return float(size.sum())


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(theta_problems(min_imag=0.5, max_coupling=0.95))
def test_theta_rows_and_gradient_match_oracle(problem):
    """theta_rows and theta_gradient against mpmath sums over a box two
    wider than zpint's, at genus 1 and 2, strongly coupled boxes included
    (radii up to about 20, summed term by term); the error allowed is the
    truncation target plus 64 ulps of the summed term moduli."""
    omega, a, b, z = problem
    g = len(a)
    pm = PeriodMatrix(g, omega)
    plan = pm.plan()
    log_peak, y_sol = plan.peaks(z[None])
    value_radius = int(plan._radii(log_peak, False)[0])
    grad_radius = int(plan._radii(log_peak + math.log1p(np.abs(y_sol).max()), True)[0])
    ulp = 64 * np.finfo(float).eps
    value = theta_module.theta_rows(pm, a[None], b[None], z[None])[0]
    ref = complex(_centred_oracle(oracles.theta_char_direct, omega, a, b, z, value_radius + 2))
    tol = TARGET_ABS_ERROR + ulp * _box_mass(omega, a, z, value_radius, False)
    assert abs(value - ref) <= tol, (value, ref)
    grad = theta_gradient(ThetaCharacteristic(a, b), z, pm)
    ref = _centred_oracle(oracles.theta_char_gradient_direct, omega, a, b, z, grad_radius + 2)
    err = np.abs(grad - np.array([complex(v) for v in ref])).max()
    assert err <= TARGET_ABS_ERROR + ulp * _box_mass(omega, a, z, grad_radius, True), (grad, ref)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(theta_problems(max_imag=0.75), st.integers(1, 8))
def test_lattice_sum_matches_oracle_box_sum_at_every_radius(problem, radius):
    """The lattice sum over the box of each radius 1 to 8 is the mpmath sum
    over the same box, to 64 ulps of the summed term moduli, strongly
    coupled genus-2 boxes included."""
    omega, a, b, z = problem
    g = len(a)
    plan = PeriodMatrix(g, omega).plan()
    _, y_sol = plan.peaks(z[None])
    value, _ = theta_module._lattice_sum(plan, a[None], b[None], z[None], y_sol, radius, False)
    ref = complex(_centred_oracle(oracles.theta_char_direct, omega, a, b, z, radius))
    tol = 64 * np.finfo(float).eps * _box_mass(omega, a, z, radius, False)
    assert abs(value[0] - ref) <= tol, (value[0], ref)


def test_large_imaginary_tau_sums_from_the_centre():
    """At tau = 300i, z = 0.3 + 150i every entry gives the 40-digit value,
    and the value and gradient match the mpmath oracle."""
    pm = period_from_tau(STIFF_TAU)
    zero = ThetaCharacteristic([0.0], [0.0])
    ref = complex(oracles.theta_char_direct([0.0], [0.0], [STIFF_Z], [[STIFF_TAU]], radius=3))
    assert abs(ref - STIFF_VALUE) <= 1e-15
    for value in (riemann_theta(STIFF_Z, pm), theta_with_char(zero, STIFF_Z, pm),
                  theta_module.theta_rows(pm, np.zeros((2, 1)), np.zeros((2, 1)),
                                          np.array([[STIFF_Z], [STIFF_Z]]))[1]):
        assert abs(value - STIFF_VALUE) <= 1e-15
    grad = theta_gradient(zero, STIFF_Z, pm)[0]
    ref = complex(oracles.theta_char_gradient_direct([0.0], [0.0], [STIFF_Z], [[STIFF_TAU]],
                                                     radius=3)[0])
    assert abs(grad - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("chunk", [theta_module.CHUNK_ELEMENTS, 64])
@pytest.mark.parametrize("n", [1, 7, 100])
def test_theta_rows_bit_identical_to_one_row_calls(n, chunk, rng, monkeypatch):
    """One theta_rows call on n rows, each with its own characteristic,
    equals its rows called one at a time bit for bit: at genus 1, at genus
    2, and on a strongly coupled genus-2 box at a large radius."""
    monkeypatch.setattr(theta_module, "CHUNK_ELEMENTS", chunk)
    deep = np.array([[0.1 + 2.0j, 0.2 + 1.9j], [0.2 + 1.9j, -0.3 + 2.0j]])
    for omega in (np.array([[0.3 + 1.1j]]),
                  np.array([[0.3 + 1.1j, 0.1 + 0.2j], [0.1 + 0.2j, -0.2 + 0.9j]]), deep):
        g = len(omega)
        pm = PeriodMatrix(g, omega)
        a, b = rng.uniform(-1, 1, (2, n, g))
        rows = rng.uniform(-1, 1, (n, g)) + 1j * rng.uniform(-2, 2, (n, g))
        batch = theta_module.theta_rows(pm, a, b, rows)
        singles = [theta_module.theta_rows(pm, a[i:i + 1], b[i:i + 1], rows[i:i + 1])[0]
                   for i in range(n)]
        assert np.array_equal(batch, singles)
