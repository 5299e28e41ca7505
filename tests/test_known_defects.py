"""The register of known defects: one strict expected failure per defect.

Each test asserts the behaviour the defect's ROADMAP item asks for, and
carries ``xfail(strict=True, raises=...)`` with the failure seen today, so
an unrelated crash is not counted as expected.  A change that mends a
defect turns its test into a strict XPASS, which fails: it then removes
the marker and says so in CHANGES.  Only defects listed in a ROADMAP
baseline get a row; a test that a change breaks never gets the marker.

The census seeds of item 4's battery checks are in
data/known_defect_seeds.json, read by a ``-m slow`` test.
"""

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from test_theta_table import large_im_tau_problem
from zpint.absint import (
    InterpolationDataSet,
    build_inverse,
    build_solution,
    divisor_characteristic,
    scalar_multiplicative,
)
from zpint.cli import run_command
from zpint.errors import NecessityViolated, ZpintError
from zpint.kernels import genus0_kernel, line_kernel
from zpint.surface import genus0_surface, line_bundle, torus_surface
from zpint.theta import period_from_tau, riemann_theta
from zpint.verify import run_all

ROOT = Path(__file__).resolve().parent.parent
SEEDS = json.loads((Path(__file__).parent / "data" / "known_defect_seeds.json").read_text())


def _perfbench_workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def _typed_or_within(read, reference, rel):
    """read() raises a ZpintError, or is within rel of reference."""
    try:
        value = read()
    except ZpintError:
        return
    assert abs(value - reference) <= rel * abs(reference), (value, reference)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_theta_at_a_stiff_modulus():
    """theta(0.3 | 0.01i) is 5.25549e-12 (mpmath); the lattice sum reads
    5.26827e-12, cancelled from terms of size 1."""
    tau = 0.01j
    reference = complex(oracles.mp.jtheta(3, oracles.mp.pi * oracles.mp.mpf(0.3),
                                          oracles.mp.exp(1j * oracles.mp.pi * tau)))
    _typed_or_within(lambda: riemann_theta(0.3, period_from_tau(tau)), reference, 1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_odd_deriv0_at_a_stiff_modulus():
    """theta[1/2; 1/2]'(0 | 0.01i) has modulus 4.88e-31 (the triple
    product); the sine series reads -8.86e-15, so every prime form at that
    modulus is off by 16 orders."""
    reference = complex(oracles.odd_theta_deriv0_product(0.01j))
    _typed_or_within(lambda: torus_surface(0.01j).odd_deriv0, reference, 1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
@pytest.mark.parametrize("seed, criterion", [(5212, "determinantal_rep"),
                                             (1043, "genus0_interpolation"),
                                             (1138, "genus0_interpolation")])
def test_battery_passes(seed, criterion):
    """verify-all at seed 5212 fails detrep.off_curve_separation (2,440
    against 1,000), and at 1043 and 1138 genus0.inverse_identity."""
    report = run_all(seed=seed, only=(criterion,))
    failed = [c["name"] for c in report["criteria"][0]["checks"] if not c["passed"]]
    assert not failed, failed


def _item17_problem():
    """Item 15's rank-1 problem at tau = 0.3 + 0.9i: (surface, data, chi,
    chi plus the divisor characteristic, q, Q)."""
    tau = 0.3 + 0.9j
    surf = torus_surface(tau)
    zeros = [0.13 + 0.27 * tau, 0.41 + 0.62 * tau]
    poles = [0.61 + 0.43 * tau, 0.84 + 0.11 * tau]
    chi = line_bundle(0.23, 0.41)
    a_w, b_w, _ = divisor_characteristic(surf, zeros, poles)
    one = np.ones((1, 1))
    data = InterpolationDataSet(surf, 1, tuple((z, one) for z in zeros),
                                tuple((p, one) for p in poles))
    return surf, data, chi, line_bundle(chi.a + a_w, chi.b + b_w), 0.52 + 0.18 * tau, one


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason="ROADMAP item 17")
def test_build_refuses_data_with_no_solution():
    """Item 15's rank-1 problem with chi~ moved off chi plus the divisor
    characteristic by (0.1, -0.07): the residue condition reads 0.132, and
    build_solution returns an interpolant with a pole no node prescribed."""
    surf, data, chi, tilde, q, one = _item17_problem()
    moved = line_bundle(tilde.a + 0.1, tilde.b - 0.07)
    with pytest.raises(NecessityViolated):
        build_solution(data, q, one, line_kernel(surf, chi), line_kernel(surf, moved))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 25")
def test_removable_points_answered():
    """On item 17's consistent problem K(chi; ., q) vanishes at
    p0 = 0.703 + 0.819i, where T is finite.  T(p0 + eps (0.6 + 0.8i))
    against scalar_multiplicative reads a relative error of 1.1e-12 at
    eps = 1e-3, 6.4e-10 at 1e-6, 9.7e-8 at 1e-8, 2.9e-6 at 1e-10 and
    6.5e-5 at 1e-11, with no error raised, and raises SingularMatrix at
    1e-12 and at 0, where the plan's distance test finds p within
    POINT_TOL of p0, one of the zeros it keeps."""
    surf, data, chi, tilde, q, one = _item17_problem()
    T = build_solution(data, q, one, line_kernel(surf, chi), line_kernel(surf, tilde))
    product = scalar_multiplicative(surf, [z.point for z in data.zeros],
                                    [p.point for p in data.poles], chi, tilde, q, 1.0)
    off = {}
    for eps in (1e-1, 1e-3, 1e-6, 1e-8, 1e-10, 1e-11, 1e-12, 0.0):
        p = 0.703 + 0.819j + eps * (0.6 + 0.8j)
        reference = product(p)
        try:
            error = abs(complex(T(p)[0, 0]) - reference) / abs(reference)
        except ZpintError as exc:
            error = type(exc).__name__
        if isinstance(error, str) or error > 1e-12:
            off[eps] = error
    assert not off, off


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 15")
def test_inverse_at_large_im_tau_has_digits():
    """At tau = 300i T^-1's kernel sum cancels at 28 of the 60 sweep points
    of test_interpolant_at_large_im_tau_matches_channel_pass: against an
    80-digit evaluation of the same formula it is off by 1e-6 to 1e25,
    relative, with no error and no warning.  T^-1 should refuse such a point
    or answer it within 1e-6."""
    tau, ab_chi, ab_tilde = 300j, (0.02, 0.37), (-0.02, 0.61)
    chi, tilde, lam, mu, q, data, Q, sweep = large_im_tau_problem(tau, ab_chi[0])
    T_inv = build_inverse(data, q, Q, chi, tilde)
    with oracles.mp.workdps(80):
        omega = [[tau]]
        deriv0 = oracles.odd_theta_deriv0_product(tau)

        def kernel(ab, p, base):
            """K([a; b]; p, base) = theta[a; b](base - p) / theta[a; b](0) E(base, p)."""
            def theta(a, b, z):
                return oracles.theta_char_direct([a], [b], [z], omega, radius=4)
            return theta(*ab, base - p) * deriv0 / (theta(*ab, 0) * theta(0.5, 0.5, p - base))

        coef = kernel(ab_tilde, q, mu) / -kernel(ab_tilde, lam, mu)
        for p in sweep:
            exact = complex((kernel(ab_tilde, q, p) + coef * kernel(ab_tilde, lam, p))
                            / complex(Q[0, 0]) / kernel(ab_chi, q, p))
            _typed_or_within(lambda: complex(T_inv(p)[0, 0]), exact, 1e-6)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 25")
def test_far_torus_points_refused_as_far():
    """On interp_torus (41, 0), a point whose lattice reduction keeps no
    digit is refused with a typed error that does not call it a pole.
    T(1e17 + 1e17i) and T(3e15i) raise PointOnExcludedSet "the interpolant
    has a pole at p", and T(1e200) returns a finite value whose phase keeps
    no digit."""
    workloads = _perfbench_workloads()
    T = workloads.solve(workloads.torus_problem(41, 0))
    seen = {}
    for p in (1e17 + 1e17j, 3e15j, 1e200):
        try:
            seen[p] = T(p)
        except ZpintError as exc:
            seen[p] = exc
    wrong = {p: outcome for p, outcome in seen.items()
             if not isinstance(outcome, ZpintError) or "pole" in str(outcome)}
    assert not wrong, wrong


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 27")
def test_battery_fault_fails_rows(monkeypatch, capsys):
    """Every lattice theta value times 1 + 1e-6 sin(2.3 Re sum(z) + 0.4), a
    numerical fault, fails rows of verify-all --seed 0 (exit 1).  Today it
    exits 2, the code of malformed input, with conint's fixture error
    "vector not in the right kernel of the pencil" and no failing row."""
    import zpint.theta as theta_module

    exact = theta_module._sums

    def faulty(omega, a, b, rows, want_gradient):
        values, grad = exact(omega, a, b, rows, want_gradient)
        return values * (1 + 1e-6 * np.sin(2.3 * rows.real.sum(axis=1) + 0.4)), grad

    monkeypatch.setattr(theta_module, "_sums", faulty)
    code = run_command(["verify-all", "--seed", "0"])
    assert code == 1, capsys.readouterr().err


@pytest.mark.parametrize("p", [1e308 + 1e308j, 1.7e308 - 1.7e308j])
def test_sphere_edge_refused_without_warnings(p):
    """A sphere interpolant refuses points near the largest double with a
    typed error and no numpy warning (ROADMAP item 15's sphere-edge
    bullet, mended): such a point is evaluated with the overflow of its
    gap (hypot in Sphere.gap) and of 1 / (p - e) (evaluate_channels)
    ignored, and refused by the check of the channels of K(chi)."""
    sphere = genus0_surface()
    kernel = genus0_kernel(1, sphere)
    one = np.ones((1, 1))
    data = InterpolationDataSet(sphere, 1, ((0.3 + 0.2j, one),), ((-0.5 + 0.1j, one),))
    T = build_solution(data, 1.0, one, kernel, kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZpintError):
            T(p)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 18")
def test_sphere_reference_within_the_benchmark_gate():
    """The benchmark's sphere reference at problem (602, 25) is 1.52 times
    the 1e-10 gate from T: the reference route's fault, which makes
    interp_sphere --seed 602 report a failed operation."""
    workloads = _perfbench_workloads()
    problem = workloads.sphere_problem(602, 25)
    values, _, errors = workloads.evaluate_sweep(workloads.solve(problem), problem.sweep)
    assert errors == 0
    rows = range(len(problem.sweep))
    assert workloads.check_problem(problem, values, workloads.SPHERE_TOL, rows) <= 1.0


@pytest.mark.slow
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
@pytest.mark.parametrize("criterion, seed",
                         [(c, s) for c, seeds in SEEDS.items() for s in seeds])
def test_census_seed_passes(criterion, seed):
    """Each census seed of data/known_defect_seeds.json fails one check of
    its criterion today."""
    report = run_all(seed=seed, only=(criterion,))
    failed = [c["name"] for c in report["criteria"][0]["checks"] if not c["passed"]]
    assert not failed, failed
