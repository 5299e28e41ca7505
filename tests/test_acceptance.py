"""Acceptance suite: one test per release criterion.

Each criterion runs its full check list at the stated tolerances and
prints one pass/fail line per check; the `zpint verify-all` command runs
the same battery.
"""

import numpy as np
import pytest

from zpint.genus0 import Genus0Problem, RationalMatrixFunction, solve_genus0
from zpint.surface import torus_surface
from zpint.verify import (
    CRITERIA,
    check,
    checks_detrep,
    genus0_checks,
    run_all,
    sample_points,
    worst,
)

SEED = 0


@pytest.fixture(scope="module")
def battery():
    return run_all(seed=SEED)


def _report(criterion):
    lines = []
    for check in criterion["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        lines.append(
            f'{status} {check["name"]}: residual {check["residual"]:.3e}'
            f' tolerance {check["tolerance"]:.1e}'
        )
    return "\n".join(lines)


@pytest.mark.parametrize("name", [name for name, _, _ in CRITERIA])
def test_criterion(battery, name):
    criterion = next(c for c in battery["criteria"] if c["name"] == name)
    print()
    print(_report(criterion))
    failed = [c["name"] for c in criterion["checks"] if not c["passed"]]
    assert not failed, f"failed checks: {failed}\n{_report(criterion)}"


def test_overall(battery):
    assert battery["passed"]


@pytest.mark.parametrize("seed", [84, 963])
def test_on_curve_kernel_dim_at_exact_zero_spectra(seed):
    # the determinantal-rep draws of battery seeds 77 and 956, where the
    # pencil has an exact 0.0 singular value under a roundoff-level one
    checks = {c["name"]: c for c in checks_detrep(seed=seed)}
    assert checks["detrep.on_curve_kernel_dim"]["passed"]


def test_sample_points_are_successive_one_point_draws():
    # the reference draws one (alpha, beta) pair at a time; a dense avoided
    # set makes it reject about half its draws
    surf = torus_surface(0.3 + 0.9j)
    avoid = list(sample_points(surf, np.random.default_rng(5), 120))

    def one_at_a_time(rng, n):
        out, rejected = [], 0
        while len(out) < n:
            alpha = rng.uniform(0.03, 0.97)
            beta = rng.uniform(0.03, 0.97)
            z = alpha + beta * surf.tau
            if all(surf.distance(z, a) > 5e-2 for a in avoid):
                out.append(z)
            else:
                rejected += 1
        return out, rejected

    batched, looped = np.random.default_rng(11), np.random.default_rng(11)
    points = sample_points(surf, batched, 40, avoid)
    reference, rejected = one_at_a_time(looped, 40)
    assert rejected > 10
    assert np.array_equal(points, reference)
    assert batched.uniform() == looped.uniform()   # the same draws consumed


def test_worst_keeps_a_failing_row():
    rows = worst([check("a", 1e-12, 1e-9), check("a", float("nan"), 1e-9),
                  check("b", 3.0, 1.0), check("b", 2.0, 1.0), check("b", 0.5, 1.0)])
    assert [row["passed"] for row in rows] == [False, False]
    assert np.isnan(rows[0]["residual"]) and rows[1]["residual"] == 3.0


def test_nan_residual_fails_a_batched_check():
    # a NaN coefficient makes every value of T NaN; folding the residuals
    # with max(worst, r) read them as 0.0 and passed
    problem = Genus0Problem(rank=1, zeros=((2.0, [1.0]),), poles=((3.0, [1.0]),))
    T = solve_genus0(problem)
    broken = RationalMatrixFunction(1, T.poles, T.pole_vectors, [[np.nan]], 1.0,
                                    _inverse_data=problem)
    checks = {c["name"]: c for c in genus0_checks(problem, broken, np.random.default_rng(0))}
    assert not checks["genus0.zero_conditions"]["passed"]
    assert not checks["genus0.inverse_identity"]["passed"]
