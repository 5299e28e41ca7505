"""Genus-0 rational matrix interpolation."""

import numpy as np
import pytest

import oracles
from zpint.absint import InterpolationDataSet
from zpint.errors import InputError, NotSquare, SingularMatrix, ZpintError
from zpint.genus0 import (
    Genus0Problem,
    build_gamma_genus0,
    det_winding_number,
    scalar_product_form,
    solve_genus0,
    sylvester_coefficients,
)
from zpint.surface import genus0_surface


def test_gamma_scalar_fixture():
    problem = Genus0Problem(rank=1, zeros=((2.0, [1.0]),), poles=((3.0, [1.0]),))
    gamma = build_gamma_genus0(problem)
    assert gamma.shape == (1, 1)
    assert abs(gamma[0, 0] - 1.0) < 1e-15


def test_gamma_rank2_fixture():
    problem = Genus0Problem(rank=2, zeros=((0.0, [1, 0]),), poles=((1.0, [1, 0]),))
    gamma = build_gamma_genus0(problem)
    assert abs(gamma[0, 0] - 1.0) < 1e-15


def test_gamma_cauchy_block_and_determinant():
    problem = Genus0Problem(
        rank=1,
        zeros=((0.0, [1.0]), (1.0, [1.0])),
        poles=((2.0, [1.0]), (3.0, [1.0])),
    )
    gamma = build_gamma_genus0(problem)
    expected = np.array([[0.5, 1 / 3], [1.0, 0.5]])
    assert np.abs(gamma - expected).max() < 1e-15
    # frozen determinant -1/12, cross-checked by the Cauchy product oracle
    det = np.linalg.det(gamma)
    assert abs(det - (-1 / 12)) < 1e-15
    assert abs(det - complex(oracles.cauchy_determinant([0, 1], [2, 3]))) < 1e-14


def test_scalar_solution_value():
    problem = Genus0Problem(rank=1, zeros=((2.0, [1.0]),), poles=((3.0, [1.0]),))
    T = solve_genus0(problem)
    # multiplicative form gives (10-2)/(10-3) = 8/7
    assert abs(T(10.0)[0, 0] - 8 / 7) < 1e-14
    prod = scalar_product_form([2.0], [3.0])
    assert abs(prod(10.0) - 8 / 7) < 1e-15


def test_rank2_solution_zero_and_pole():
    problem = Genus0Problem(rank=2, zeros=((0.0, [1, 0]),), poles=((1.0, [1, 0]),))
    T = solve_genus0(problem)
    # T = diag(z/(z-1), 1)
    val = T(5.0)
    assert np.abs(val - np.diag([1.25, 1.0])).max() < 1e-14
    assert np.abs(np.array([1, 0]) @ T(0.0)).max() < 1e-14


def test_empty_problem_is_identity():
    problem = Genus0Problem(rank=3, zeros=(), poles=())
    T = solve_genus0(problem)
    assert np.array_equal(T(7.0 + 2j), np.eye(3))
    assert sylvester_coefficients([], []).size == 0
    assert scalar_product_form([], [])(3.0) == 1.0


def test_identity_at_infinity():
    problem = Genus0Problem(
        rank=2,
        zeros=((0.5, [1, 2]), (1.5j, [0, 1])),
        poles=((2.0, [1, 1]), (-1.0, [2, -1])),
    )
    T = solve_genus0(problem)
    assert np.abs(T(1e6) - np.eye(2)).max() < 1e-5


def test_random_problems_conditions_and_inverse(rng):
    solved = 0
    while solved < 15:
        r = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        pts = []
        while len(pts) < 2 * n:
            cand = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            if all(abs(cand - p) > 0.2 for p in pts):
                pts.append(cand)
        problem = Genus0Problem(
            rank=r,
            zeros=tuple((pts[i], rng.standard_normal(r) + 1j * rng.standard_normal(r))
                        for i in range(n)),
            poles=tuple((pts[n + i], rng.standard_normal(r) + 1j * rng.standard_normal(r))
                        for i in range(n)),
        )
        try:
            T = solve_genus0(problem)
        except SingularMatrix:
            continue
        solved += 1
        Ti = T.inverse()
        scale = max(float(np.abs(T(3.3 + 1.7j)).max()), 1.0)
        for node in problem.zeros:
            assert np.abs(node.vectors @ T(node.point)).max() < 1e-10 * scale
        for node in problem.poles:
            assert np.abs(Ti(node.point) @ node.vectors.T).max() < 1e-10 * scale
        for _ in range(10):
            z = rng.uniform(-4, 4) + 1j * rng.uniform(-4, 4)
            if min(abs(z - p) for p in pts) < 0.1:
                continue
            assert np.abs(T(z) @ Ti(z) - np.eye(r)).max() < 1e-10


def test_many_is_the_per_point_formula(rng):
    """T.many over an array has the bits of I + sum_j u_j c_j / (z - mu^j)
    evaluated point by point, and T(z) is its N = 1 case."""
    problem = Genus0Problem(
        rank=2,
        zeros=((0.5, [1, 2]), (1.5j, [0, 1]), (-0.7 + 0.2j, [1j, 1])),
        poles=((2.0, [1, 1]), (-1.0, [2, -1]), (0.3 - 1.1j, [1, 0.5j])),
    )
    for T in (solve_genus0(problem), solve_genus0(problem).inverse()):
        Z = rng.uniform(-3, 3, 9) + 1j * rng.uniform(-3, 3, 9)
        values = T.many(Z)
        assert values.shape == (9, 2, 2)
        for z, value in zip(Z, values):
            ref = np.eye(2, dtype=complex)
            for mu, u, c in zip(T.poles, T.pole_vectors, T.coefficients):
                ref = ref + np.outer(u, c) / (z - mu)
            assert np.array_equal(value, ref)
            assert np.array_equal(T(z), value)
    assert T.many([]).shape == (0, 2, 2)


def test_det_winding_number_is_zero(rng):
    problem = Genus0Problem(
        rank=2,
        zeros=((0.5, [1, 2]), (1.5j, [0, 1])),
        poles=((2.0, [1, 1]), (-1.0, [2, -1])),
    )
    T = solve_genus0(problem)
    assert abs(det_winding_number(T, radius=50.0)) < 1e-6


def test_sylvester_fixture_1x1():
    c = sylvester_coefficients([2.0], [3.0])
    assert abs(c[0] - 1.0) < 1e-15


def test_sylvester_fixture_2x2_oracle_reconciled():
    # S = [[1/2, 1/3], [1, 1/2]], S c = (1, 1): c = (-2, 6), frozen after
    # solving the 2x2 system by hand and confirming the 50-point sweep.
    c = sylvester_coefficients([0.0, 1.0], [2.0, 3.0])
    assert np.abs(c - np.array([-2.0, 6.0])).max() < 1e-12
    prod = scalar_product_form([0.0, 1.0], [2.0, 3.0])
    assert abs(prod(5.0) - 10 / 3) < 1e-15
    assert abs((1 + c[0] / 3 + c[1] / 2) - 10 / 3) < 1e-14


def test_product_vs_partial_fraction_sweep(rng):
    for _ in range(4):
        n = int(rng.integers(1, 5))
        pts = rng.uniform(-2, 2, 2 * n) + 1j * rng.uniform(-2, 2, 2 * n)
        lams, mus = pts[:n], pts[n:]
        if min(abs(l - m) for l in lams for m in mus) < 0.1:
            continue
        prod = scalar_product_form(lams, mus)
        c = sylvester_coefficients(lams, mus)
        for _ in range(50):
            z = rng.uniform(-5, 5) + 1j * rng.uniform(-5, 5)
            if min(abs(z - m) for m in mus) < 0.1:
                continue
            pf = 1 + sum(cj / (z - mj) for cj, mj in zip(c, mus))
            assert abs(pf - prod(z)) / (abs(pf) + abs(prod(z))) < 1e-10


def test_scalar_evaluation_at_i():
    prod = scalar_product_form([0.0, 1.0], [2.0, 3.0])
    z = 1j
    expected = (z * (z - 1)) / ((z - 2) * (z - 3))
    assert abs(prod(z) - expected) < 1e-15


def test_problem_validation():
    with pytest.raises(InputError):
        Genus0Problem(rank=1, zeros=((2.0, [1.0]),), poles=((2.0, [1.0]),))
    with pytest.raises(InputError):
        Genus0Problem(rank=1, zeros=((2.0, [0.0]),), poles=((3.0, [1.0]),))
    with pytest.raises(InputError):
        Genus0Problem(rank=1, zeros=((2.0, [1.0]), (2.0, [1.0])),
                      poles=((3.0, [1.0]), (4.0, [1.0])))
    with pytest.raises(NotSquare):
        scalar_product_form([1.0], [])
    with pytest.raises(NotSquare):
        sylvester_coefficients([1.0], [])


TINY = [1e-200]   # a nonzero vector whose norm squares to 0, as in np.linalg.norm


@pytest.mark.parametrize("zeros, poles, message", [
    ([(np.nan, TINY), (2.0, [1.0]), (2.0, [1.0])], [np.inf, 3.0, 3.0, 2.0],
     r"non-finite point \(nan"),
    ([(2.0, [1.0]), (2.0, [1.0])], [3.0, 3.0, 2.0], "zero points must be distinct"),
    ([(2.0, [1.0]), (2.0, TINY)], [np.inf, 3.0, 3.0, 2.0], r"non-finite point \(inf"),
    ([(2.0, [1.0])], [3.0, 3.0, 2.0], "pole points must be distinct"),
    ([(2.0, [1.0]), (4.0, [1.0])], [3.0, 2.0], "zeros and poles must be disjoint"),
    ([(2.0, [1.0]), (2.0, TINY)], [3.0, 3.0, 2.0], "vectors must be nonzero"),
])
def test_problem_validation_order(zeros, poles, message):
    """The checks run in a fixed order, that of absint._NodeData._lay_out:
    the zero points are finite, then the pole points, then every vector
    has a nonzero norm, then the zeros are distinct, then the poles, then
    no zero is a pole without a coupling.  Each case also breaks every
    check after its own: TINY, the vector [1e-200], is refused only by the
    vector check, so it rides along in the cases of the two checks before
    it."""
    with pytest.raises(InputError, match=message):
        Genus0Problem(rank=1, zeros=zeros, poles=[(m, [1.0]) for m in poles])


@pytest.mark.parametrize("zeros, poles", [
    ([(np.nan, [1.0])], [(3.0, [1.0])]),
    ([(2.0, [1.0])], [(complex(0.0, np.inf), [1.0])]),
    ([(2.0, [1.0]), (2.0, [1.0])], [(3.0, [1.0]), (4.0, [1.0])]),
    ([(2.0, [1.0]), (5.0, [1.0])], [(3.0, [1.0]), (3.0, [1.0])]),
    ([(2.0, [1.0])], [(2.0, [1.0])]),
    ([(2.0, [0.0])], [(3.0, [1.0])]),
    ([(2.0, [1e-200])], [(3.0, [1.0])]),
    ([(2.0, [1.0])], [(3.0, [0.0])]),
    ([(2.0,)], [(3.0, [1.0])]),
], ids=["nan_point", "infinite_point", "repeated_zero", "repeated_pole", "zero_on_pole",
        "zero_vector", "tiny_vector", "zero_pole_vector", "not_a_pair"])
def test_one_validator_one_verdict(zeros, poles):
    """Genus0Problem and a sphere InterpolationDataSet lay out their nodes
    by one validator, so each bad node set gets one verdict from both: the
    same error type and message."""
    verdicts = []
    for make in (lambda: Genus0Problem(1, zeros, poles),
                 lambda: InterpolationDataSet(genus0_surface(), 1, zeros, poles)):
        with pytest.raises(ZpintError) as raised:
            make()
        verdicts.append((type(raised.value), str(raised.value)))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] is InputError


def test_problem_far_apart_points_are_distinct():
    """Finite points whose distance overflows are distinct, with no warning."""
    problem = Genus0Problem(rank=1, zeros=((1e308, [1.0]), (1e308 + 1e300j, [1.0])),
                            poles=((-1e308, [1.0]),))
    assert problem.n_zeros == 2


def test_solver_rejections():
    with pytest.raises(NotSquare):
        solve_genus0(Genus0Problem(
            rank=1, zeros=((0.0, [1.0]), (1.0, [1.0])), poles=((2.0, [1.0]),)
        ))
    with pytest.raises(SingularMatrix, match="^coupling matrix condition"):
        solve_genus0(Genus0Problem(
            rank=2,
            zeros=((0.0, [1, 0]), (1.0, [1, 0])),
            poles=((2.0, [0, 1]), (3.0, [0, 1])),
        ))


def test_sylvester_singular():
    with pytest.raises(SingularMatrix, match="^Sylvester matrix condition") as raised:
        sylvester_coefficients([0.0, 1e-14], [2.0, 3.0])
    assert raised.value.condition > 1e12
