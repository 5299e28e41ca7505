"""The genus-1 odd theta by its sine series (theta.odd_theta_series) and
the reads built on it: the prime form, theta'(0) and the log-derivatives
behind the embedding functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import zpint.kernels as kernels_module
import zpint.surface as surface_module
import zpint.theta as theta_module
from zpint.absint import InterpolationDataSet, build_solution, divisor_characteristic
from zpint.errors import NonConvergent
from zpint.kernels import line_kernel
from zpint.surface import (
    ODD_CHAR,
    _log_theta_derivs,
    build_embedding_functions,
    line_bundle,
    prime_form,
    torus_surface,
)
from zpint.theta import PeriodMatrix, odd_theta_series, period_from_tau, theta_with_char
from zpint.verify import TAUS

EPS = np.finfo(float).eps


@st.composite
def shifted_points(draw, min_modulus=1e-12):
    """(tau, u): Im(tau) in [0.5, 3], |Re(tau)| <= 1/2, and u = w + m tau + l
    with |w| log-uniform in [min_modulus, 0.5] and m, l in -2..2."""
    tau = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.5, 3.0)))
    radius = 10.0 ** draw(st.floats(math.log10(min_modulus), math.log10(0.5)))
    w = radius * complex(math.cos(angle := draw(st.floats(0.0, 2 * math.pi))), math.sin(angle))
    m, l = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    return tau, w + m * tau + l, m


def _reduction_scale(tau, u, m):
    """A bound, in units of eps, on the rounding of the lattice reduction
    of u (about |u|) and of the exponent of the quasi-periodic factor
    (pi |m| |m tau + 2 w|)."""
    return abs(u) + math.pi * abs(m) * (abs(m) * abs(tau) + 2.0)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(shifted_points())
def test_odd_theta_matches_jtheta(point):
    """theta[1/2; 1/2](u) against 40-digit mp.jtheta at the double u.  At
    m = l = 0 the error allowed is 8 eps relative at every |u| down to
    1e-12; a shifted u also carries the rounding of its reduction, eps |u|
    times the log-derivative, and of the factor's exponent."""
    tau, u, m = point
    got = odd_theta_series(period_from_tau(tau), np.array([u]))[0, 0]
    ref = oracles.odd_theta_jtheta(u, tau)
    L = abs(oracles.odd_theta_log_derivs(u, tau, 0)[0])
    spread = abs(u) * L + _reduction_scale(tau, u, m) if _shifted(tau, u) else 0.0
    tol = 8 * EPS * (1 + spread)
    assert abs(got - complex(ref)) <= tol * abs(complex(ref)), (got, complex(ref))


def _shifted(tau, u) -> bool:
    """Whether u lies outside |Im u| <= Im(tau)/2, |Re u| <= 1/2 (so that
    the series reduces it)."""
    m = round(u.imag / tau.imag)
    return m != 0 or round((u - m * tau).real) != 0


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(shifted_points())
def test_log_derivs_match_oracle(point):
    """L, L' and L'' of _log_theta_derivs against oracles.odd_theta_log_derivs:
    8 eps relative plus, for a shifted u, 32 eps |u| times the next
    derivative (the rounding of the reduction)."""
    tau, u, _ = point
    got = _log_theta_derivs(np.array([u]), period_from_tau(tau), 2)
    ref = oracles.odd_theta_log_derivs(u, tau, 3)
    spread = abs(u) if _shifted(tau, u) else 0.0
    for d in range(3):
        tol = 8 * EPS * (abs(ref[d]) + 4 * spread * abs(ref[d + 1]))
        assert abs(got[d][0] - ref[d]) <= tol, (d, got[d][0], ref[d])


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(st.floats(-0.5, 0.5), st.floats(0.5, 3.0))
def test_deriv0_matches_product_formula(re, im):
    """theta[1/2; 1/2]'(0) from the series against the triple product, to
    8 eps relative."""
    tau = complex(re, im)
    ref = complex(oracles.odd_theta_deriv0_product(tau))
    assert abs(torus_surface(tau).odd_deriv0 - ref) <= 8 * EPS * abs(ref)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(shifted_points(min_modulus=0.1))
def test_series_agrees_with_lattice_sum(point):
    """Away from the zeros (|w| >= 0.1) the series and the lattice sum of
    theta_with_char(ODD_CHAR) agree within the sum's truncation target and
    rounding."""
    tau, u, _ = point
    pm = period_from_tau(tau)
    series = odd_theta_series(pm, np.array([u]))[0, 0]
    lattice = theta_with_char(ODD_CHAR, np.array([u]), pm)
    assert abs(series - lattice) <= 2e-12 + 1e-13 * abs(lattice)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_rows_bit_identical_alone_and_in_batch(order, rng):
    """Every row of a batch, shifted points among them, has the bits of its
    one-point call and of its place in a shorter batch."""
    pm = period_from_tau(0.2 + 0.7j)
    v = np.concatenate([rng.uniform(-0.5, 0.5, 40) + 1j * rng.uniform(-0.35, 0.35, 40),
                        rng.uniform(-3, 3, 40) + 1j * rng.uniform(-2, 2, 40),
                        1e-12 * np.exp(2j * np.pi * rng.uniform(0, 1, 10))])
    batch = odd_theta_series(pm, v, order)
    assert batch.shape == (order + 1, len(v))
    for i in range(len(v)):
        assert np.array_equal(batch[:, i], odd_theta_series(pm, v[i:i + 1], order)[:, 0])
        assert np.array_equal(batch[:, i], odd_theta_series(pm, v[i:i + 7], order)[:, 0])
    assert np.array_equal(odd_theta_series(pm, v.reshape(3, 30), order),
                          batch.reshape(order + 1, 3, 30))


def test_accuracy_at_battery_moduli():
    """At tau = 0.3 + 0.9i and at each battery modulus, 40 points per radius
    |v| in {1e-12, 1e-8, 1e-4, 1e-2, 0.5}: the median relative error of
    theta_1(v) is at most 4e-16.  Over 120 random arguments, L, L' and L''
    each have a median relative error of at most 1e-15."""
    rng = np.random.default_rng(28)
    for tau in (0.3 + 0.9j, *TAUS):
        pm = period_from_tau(tau)
        for radius in (1e-12, 1e-8, 1e-4, 1e-2, 0.5):
            v = radius * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
            got = odd_theta_series(pm, v)[0]
            ref = np.array([complex(oracles.odd_theta_jtheta(z, tau)) for z in v])
            assert np.median(np.abs(got - ref) / np.abs(ref)) <= 4e-16, (tau, radius)
    tau = 0.3 + 0.9j
    v = rng.uniform(-0.5, 0.5, 120) + 1j * rng.uniform(-0.45, 0.45, 120)
    got = _log_theta_derivs(v, period_from_tau(tau), 2)
    ref = np.array([oracles.odd_theta_log_derivs(z, tau) for z in v]).T
    for d in range(3):
        assert np.median(np.abs(got[d] - ref[d]) / np.abs(ref[d])) <= 1e-15, d


def test_series_raises_where_the_lattice_sum_does():
    """NonConvergent at the radius cap (more than MAX_LATTICE_RADIUS terms
    at tau = 0.001i) and where the value overflows (tau = i at v = 20i),
    as theta_with_char raises there; no RuntimeWarning."""
    for tau, v in ((0.001j, 0.3), (1j, 20j)):
        pm = period_from_tau(tau)
        with pytest.raises(NonConvergent):
            theta_with_char(ODD_CHAR, np.array([v]), period_from_tau(tau))
        with pytest.raises(NonConvergent):
            odd_theta_series(pm, np.array([v]))
    with pytest.raises(NonConvergent, match="more than 60 terms"):
        period_from_tau(0.001j).plan().odd_series()


def test_odd_theta_reads_make_no_lattice_pass(monkeypatch, rng):
    """The lambda values and derivatives, the embedding build, the prime
    form (one pair and arrays) and theta'(0) read the odd theta from its
    series: no theta._sums, theta_rows, theta_many, theta_with_char or
    theta_gradient call."""
    surf = torus_surface(0.17 + 1.05j)

    def refused(*args, **kwargs):
        raise AssertionError("a lattice pass")

    for name in ("_sums", "theta_rows", "theta_many", "theta_with_char", "theta_gradient"):
        for module in (theta_module, surface_module, kernels_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    assert surf.odd_deriv0 != 0
    emb = build_embedding_functions(surf, 0.13 + 0.21j, 0.52 + 0.64j, 0.77 + 0.18j)
    z = rng.uniform(0, 1, 5) + 1j * rng.uniform(0, 1, 5)
    assert np.isfinite(emb.lambda_values(z)).all()
    assert np.isfinite(emb.lambda_derivs(z, 2)).all()
    assert len(emb.lambda_jet(z[0], 2)) == 3
    assert np.isfinite(prime_form(surf, z, z[::-1] + 0.3)).all()
    assert prime_form(surf, 0.1, 0.4 + 0.2j) != 0


def test_a_torus_builds_no_second_period_matrix(monkeypatch, rng):
    """theta'(0) is summed once, on the surface's own plan: a build, a
    sweep, the prime form and the embedding functions on an existing torus
    construct no PeriodMatrix (counted at PeriodMatrix.__post_init__)."""
    surf = torus_surface(0.17 + 1.05j)   # its theta'(0) is not read yet
    builds = []
    post_init = PeriodMatrix.__post_init__

    def counted(self):
        builds.append(self.genus)
        post_init(self)

    monkeypatch.setattr(PeriodMatrix, "__post_init__", counted)
    zeros, poles = [0.13 + 0.27j, 0.61 + 0.43j], [0.37 + 0.71j, 0.83 + 0.11j]
    chi = line_bundle(0.23, 0.41)
    a_w, b_w, _ = divisor_characteristic(surf, zeros, poles)
    one = np.ones((1, 1))
    data = InterpolationDataSet(surf, 1, tuple((z, one) for z in zeros),
                                tuple((p, one) for p in poles))
    T = build_solution(data, 0.52 + 0.18j, one, line_kernel(surf, chi),
                       line_kernel(surf, line_bundle(chi.a + a_w, chi.b + b_w)))
    z = rng.uniform(0, 1, 5) + 1j * rng.uniform(0, 1, 5)
    assert all(np.isfinite(T(p)).all() for p in z)
    assert np.isfinite(prime_form(surf, z, z[::-1] + 0.3)).all()
    build_embedding_functions(surf, 0.13 + 0.21j, 0.52 + 0.64j, 0.77 + 0.18j)
    assert builds == []
    torus_surface(0.5j)   # the counter sees a build
    assert builds == [1]


def test_odd_deriv0_underflow_is_refused():
    """|theta'(0)| ~ 2 pi exp(-pi Im(tau) / 4) is 0 in doubles at tau =
    1000i: theta'(0) and every prime form raise, with no division by 0."""
    surf = torus_surface(1000j)
    with pytest.raises(NonConvergent, match="underflows to 0"):
        surf.odd_deriv0
    with pytest.raises(NonConvergent, match="underflows to 0"):
        prime_form(surf, 0.1, 0.3 + 0.2j)


def test_lambda_jet_rows_equal_single_order_calls(embedding, rng):
    """One lambda_jet pass gives lambda, lambda' and lambda'' with the bits
    of lambda_values and of lambda_derivs at order 1 and 2."""
    z = rng.uniform(0, 1, 6) + 1j * rng.uniform(0, 1, 6)
    values, d1, d2 = embedding.lambda_jet(z, 2)
    assert np.array_equal(values, embedding.lambda_values(z))
    assert np.array_equal(d1, embedding.lambda_derivs(z, 1))
    assert np.array_equal(d2, embedding.lambda_derivs(z, 2))
