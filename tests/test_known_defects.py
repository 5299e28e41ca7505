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
from zpint.absint import InterpolationDataSet, build_solution, divisor_characteristic
from zpint.errors import NecessityViolated, ZpintError
from zpint.kernels import genus0_kernel, line_kernel
from zpint.surface import genus0_surface, line_bundle, torus_surface
from zpint.theta import period_from_tau, riemann_theta
from zpint.verify import run_all

ROOT = Path(__file__).resolve().parent.parent
SEEDS = json.loads((Path(__file__).parent / "data" / "known_defect_seeds.json").read_text())


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


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason="ROADMAP item 17")
def test_build_refuses_data_with_no_solution():
    """Item 15's rank-1 problem with chi~ moved off chi plus the divisor
    characteristic by (0.1, -0.07): the residue condition reads 0.132, and
    build_solution returns an interpolant with a pole no node prescribed."""
    tau = 0.3 + 0.9j
    surf = torus_surface(tau)
    zeros = [0.13 + 0.27 * tau, 0.41 + 0.62 * tau]
    poles = [0.61 + 0.43 * tau, 0.84 + 0.11 * tau]
    chi = line_bundle(0.23, 0.41)
    a_w, b_w, _ = divisor_characteristic(surf, zeros, poles)
    one = np.ones((1, 1))
    data = InterpolationDataSet(surf, 1, tuple((z, one) for z in zeros),
                                tuple((p, one) for p in poles))
    moved = line_bundle(chi.a + a_w + 0.1, chi.b + b_w - 0.07)
    with pytest.raises(NecessityViolated):
        build_solution(data, 0.52 + 0.18 * tau, one, line_kernel(surf, chi),
                       line_kernel(surf, moved))


@pytest.mark.xfail(strict=True, raises=RuntimeWarning, reason="ROADMAP item 15")
@pytest.mark.parametrize("p", [1e308 + 1e308j, 1.7e308 - 1.7e308j])
def test_sphere_edge_refused_without_warnings(p):
    """A sphere interpolant at points near the largest double emits numpy's
    overflow warnings (divide in evaluate_channels, hypot in Sphere.gap)
    before its typed SingularMatrix."""
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
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
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
