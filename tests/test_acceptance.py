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
    _point_chain,
    _random_genus0_problem,
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


def test_point_chain_is_chained_one_point_draws():
    """The kernel criterion's duality pairs (each Q away from its P) and
    collection draws (each p away from the embedding poles, each q away
    from them and from its p, q = p at every seventh draw from the fourth)
    are the points of chained one-point draws, one (alpha, beta) pair at a
    time, and consume the same draws; a dense avoided set makes steps
    reject draws."""
    surf = torus_surface(0.3 + 0.9j)
    poles = [0.13 + 0.21j, 0.52 + 0.64j, 0.77 + 0.18j]
    dense = poles + list(sample_points(surf, np.random.default_rng(5), 100))

    def one_point(rng, avoid):
        while True:
            alpha = rng.uniform(0.03, 0.97)
            beta = rng.uniform(0.03, 0.97)
            z = alpha + beta * surf.tau
            if all(surf.distance(z, a) > 5e-2 for a in avoid):
                return z

    def duality_loop(rng):
        P, Q = [], []
        for _ in range(10):
            P.append(one_point(rng, []))
            Q.append(one_point(rng, P[-1:]))
        return np.array(P), np.array(Q)

    def collection_loop(rng, avoid):
        P, Q = [], []
        for idx in range(50):
            P.append(one_point(rng, avoid))
            Q.append(P[-1] if idx % 7 == 3 else one_point(rng, avoid + P[-1:]))
        return np.array(P), np.array(Q)

    paired = np.arange(50) % 7 != 3
    after = np.array([flag for pair in paired for flag in (False, True)[:1 + pair]])
    for seed in range(6):
        chained, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        P, Q = _point_chain(surf, chained, [False, True] * 10).reshape(10, 2).T
        ref = duality_loop(looped)
        assert np.array_equal(P, ref[0]) and np.array_equal(Q, ref[1])
        for avoid in (poles, dense):
            points = _point_chain(surf, chained, after, avoid)
            ref = collection_loop(looped, avoid)
            assert np.array_equal(points[~after], ref[0])
            assert np.array_equal(points[after], ref[1][paired])
            assert np.array_equal(ref[1][~paired], ref[0][~paired])
        assert chained.uniform() == looped.uniform()


def test_random_genus0_problem_is_the_scalar_loop():
    """The blocked genus-0 draws give the nodes and vectors of the
    one-node-at-a-time loop they replace, rejected candidates included, and
    consume the same draws."""
    rejected = []

    def scalar_loop(rng, r, n):
        pts = []
        while len(pts) < 2 * n:
            cand = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            if all(abs(cand - p) > 0.2 for p in pts):
                pts.append(cand)
            else:
                rejected.append(cand)
        zeros = [(pts[i], rng.standard_normal(r) + 1j * rng.standard_normal(r))
                 for i in range(n)]
        poles = [(pts[n + i], rng.standard_normal(r) + 1j * rng.standard_normal(r))
                 for i in range(n)]
        return zeros + poles

    blocked, looped = np.random.default_rng(2), np.random.default_rng(2)
    for _ in range(200):
        r, n = int(looped.integers(1, 4)), int(looped.integers(1, 9))
        assert (r, n) == (int(blocked.integers(1, 4)), int(blocked.integers(1, 9)))
        ref = scalar_loop(looped, r, n)
        problem = _random_genus0_problem(blocked, r, n)
        for node, (z_ref, x_ref) in zip(problem.zeros + problem.poles, ref, strict=True):
            assert node.point == z_ref and np.array_equal(node.vectors, [x_ref])
    assert len(rejected) > 10
    assert blocked.uniform() == looped.uniform()


def test_census_only_runs_the_named_criteria(capsys):
    """tests/census.py --only runs the named criteria alone."""
    import census

    worst_rows, failures = census.census(range(2), only=["matrix_fay"])
    assert worst_rows and {name.split(".")[0] for name in worst_rows} == {"matrix_fay"}
    assert not failures
    assert census.main(["--seeds", "0", "--only", "matrix_fay", "--only", "theta_engine"]) == 0
    assert "seeds 0-0: 5 checks, 0 failing" in capsys.readouterr().out


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
