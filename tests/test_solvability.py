"""The one solvability decision: numutil.checked_cond at every site that
solves or inverts a matrix, one verdict for unequal counts on every route,
and the genus-0 interpolant's point rules."""

import ast
from pathlib import Path

import numpy as np
import pytest

import zpint.numutil as numutil
from zpint.absint import (
    InterpolationDataSet,
    build_gamma,
    build_inverse,
    build_solution,
    divisor_characteristic,
    full_rank_multiplicative,
    scalar_multiplicative,
    scalar_partial_fraction,
)
from zpint.conint import DEFAULT_XI, build_gamma0, convert_absint_to_conint, solve_conint
from zpint.detrep import adjust_gamma_by_map, build_pencil
from zpint.errors import InputError, NotSquare, PointOnExcludedSet, SingularMatrix
from zpint.genus0 import (
    Genus0Problem,
    build_gamma_genus0,
    scalar_product_form,
    solve_genus0,
    sylvester_coefficients,
)
from zpint.kernels import direct_sum_kernel, genus0_kernel, line_kernel
from zpint.numutil import COND_LIMIT, checked_cond, svd_cond
from zpint.surface import build_embedding_functions, genus0_surface, line_bundle, torus_surface

TAU = 0.3 + 0.9j
Q_POINT = 0.52 + 0.18j
EMB_POINTS = (0.16 + 0.23j, 0.55 + 0.66j, 0.79 + 0.16j)
ONE = np.ones((1, 1))
# a pair of rank-2 vectors 1e-14 apart from parallel, and Q near singular
NEAR = ((0.1, [[1.0, 0.0]]), (0.9, [[1.0, 1e-14]]))
NEAR_POLES = ((2.0, [[1.0, 0.0]]), (3.0, [[0.0, 1.0]]))
NEAR_Q = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])


def torus_kernels():
    surf = torus_surface(TAU)
    k1 = line_kernel(surf, line_bundle(0.23, 0.41))
    k2 = line_kernel(surf, line_bundle(0.67, 0.19))
    return surf, k1, direct_sum_kernel([k1, k2])


def torus_gamma():
    """Orthogonal vector data under a diagonal kernel: Gamma is exactly 0."""
    surf, _, ksum = torus_kernels()
    data = InterpolationDataSet(surf, 2, ((0.13 + 0.27j, [[0.0, 1.0]]),),
                                ((0.37 + 0.71j, [[1.0, 0.0]]),))
    return (lambda: build_solution(data, Q_POINT, np.eye(2), ksum, ksum),
            build_gamma(data, ksum).matrix, "coupling matrix")


def sphere_gamma():
    sphere = genus0_surface()
    k = genus0_kernel(2, sphere)
    data = InterpolationDataSet(sphere, 2, NEAR, NEAR_POLES)
    return (lambda: build_solution(data, 5.0, np.eye(2), k, k),
            build_gamma(data, k).matrix, "coupling matrix")


def base_value():
    sphere = genus0_surface()
    k = genus0_kernel(2, sphere)
    data = InterpolationDataSet(sphere, 2, ((0.1, np.eye(2)),), ((2.0, np.eye(2)),))
    return lambda: build_solution(data, 5.0, NEAR_Q, k, k), NEAR_Q, "base value Q"


def genus0_gamma():
    problem = Genus0Problem(2, NEAR, NEAR_POLES)
    return lambda: solve_genus0(problem), build_gamma_genus0(problem), "coupling matrix"


def sylvester():
    lams, mus = [0.0, 1e-14], [2.0, 3.0]
    s_mat = np.array([[1.0 / (mu - lam) for mu in mus] for lam in lams])
    return lambda: sylvester_coefficients(lams, mus), s_mat, "Sylvester matrix"


def concrete_gamma():
    surf, _, ksum = torus_kernels()
    data = InterpolationDataSet(surf, 2, ((0.13 + 0.27j, [[0.0, 1.0]]),),
                                ((0.37 + 0.71j, [[1.0, 0.0]]),))
    converted = convert_absint_to_conint(data, ksum, build_embedding_functions(surf, *EMB_POINTS))
    return (lambda: solve_conint(converted), build_gamma0(converted, DEFAULT_XI),
            "concrete coupling matrix")


def boundary_value():
    surf, _, ksum = torus_kernels()
    pencil = build_pencil(ksum, build_embedding_functions(surf, *EMB_POINTS))
    values = [np.eye(2), NEAR_Q, np.zeros((2, 2))]
    return lambda: adjust_gamma_by_map(pencil, values), NEAR_Q, "boundary value T(x^2)"


@pytest.mark.parametrize("site", [torus_gamma, sphere_gamma, base_value, genus0_gamma,
                                  sylvester, concrete_gamma, boundary_value],
                         ids=lambda site: site.__name__)
def test_every_refusal_is_checked_cond(site):
    """Each site that solves or inverts a matrix refuses an ill-conditioned
    one with "<what> condition <c>" and the condition of that matrix (a
    boundary value: the first that fails)."""
    build, matrix, what = site()
    with pytest.raises(SingularMatrix) as raised:
        build()
    cond = svd_cond(matrix)
    assert str(raised.value) == f"{what} condition {cond:.3e}"
    assert raised.value.condition == cond > COND_LIMIT


def one_zero_two_poles(width=1):
    vec = np.eye(width)
    return ((0.13 + 0.27j, vec),), ((0.37 + 0.71j, vec), (0.83 + 0.11j, vec))


def absint_lopsided(build):
    """build (build_solution or build_inverse) on one zero and two poles."""
    def run():
        surf, k1, _ = torus_kernels()
        build(InterpolationDataSet(surf, 1, *one_zero_two_poles()), Q_POINT, ONE, k1, k1)
    return run


def conint_lopsided():
    surf, k1, _ = torus_kernels()
    data = InterpolationDataSet(surf, 1, *one_zero_two_poles())
    solve_conint(convert_absint_to_conint(data, k1, build_embedding_functions(surf, *EMB_POINTS)))


def line_args():
    surf = torus_surface(TAU)
    zeros, poles = [0.13 + 0.27j], [0.37 + 0.71j, 0.83 + 0.11j]
    chi = line_bundle(0.23, 0.41)
    a_w, b_w, _ = divisor_characteristic(surf, zeros, poles)
    return surf, zeros, poles, chi, line_bundle(chi.a + a_w, chi.b + b_w), Q_POINT, 1.3 - 0.4j


def full_rank():
    surf, _, ksum = torus_kernels()
    return full_rank_multiplicative(InterpolationDataSet(surf, 2, *one_zero_two_poles(2)),
                                    ksum, Q_POINT, np.eye(2))


UNEQUAL = {
    "scalar_multiplicative": (lambda: scalar_multiplicative(*line_args()), "1 zeros vs 2 poles"),
    "scalar_partial_fraction": (lambda: scalar_partial_fraction(*line_args()),
                                "coupling matrix is 1x2"),
    "full_rank_multiplicative": (full_rank, "1 zeros vs 2 poles"),
    "build_solution": (absint_lopsided(build_solution), "coupling matrix is 1x2"),
    "build_inverse": (absint_lopsided(build_inverse), "coupling matrix is 2x1"),
    "solve_genus0": (lambda: solve_genus0(Genus0Problem(1, ((0.0, [1.0]),),
                                                        ((2.0, [1.0]), (3.0, [1.0])))),
                     "coupling matrix is 1x2"),
    "scalar_product_form": (lambda: scalar_product_form([1.0], [2.0, 3.0]), "1 zeros vs 2 poles"),
    "sylvester_coefficients": (lambda: sylvester_coefficients([1.0], [2.0, 3.0]),
                               "Sylvester matrix is 1x2"),
    "solve_conint": (conint_lopsided, "concrete coupling matrix is 1x2"),
}


@pytest.mark.parametrize("route", sorted(UNEQUAL))
def test_unequal_counts_are_not_square_on_every_route(route):
    """One zero against two poles gets one verdict, NotSquare: "<matrix>
    is AxB" from checked_cond where a matrix is formed, "1 zeros vs 2
    poles" where none is."""
    build, message = UNEQUAL[route]
    with pytest.raises(NotSquare) as raised:
        build()
    assert str(raised.value) == message


@pytest.fixture(scope="module")
def genus0_map():
    problem = Genus0Problem(2, ((0.5, [[1.0, 0.2]]), (-1.0 + 1j, [[0.3, 1.0]])),
                            ((2.0, [[1.0, -0.4]]), (1.5j, [[0.1, 1.0]])))
    return problem, solve_genus0(problem)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), "ab", None],
                         ids=["nan", "inf", "imag_inf", "text", "none"])
def test_genus0_map_refuses_a_point_that_is_not_a_finite_number(genus0_map, bad):
    _, T = genus0_map
    for call in (lambda: T(bad), lambda: T.many([0.7, bad]), lambda: T.inverse()(bad)):
        with pytest.raises(InputError):
            call()


@pytest.mark.filterwarnings("error")
def test_genus0_map_refuses_its_poles(genus0_map):
    """T at a pole, or within POINT_TOL of one, and T^-1 at a zero raise
    PointOnExcludedSet alone and inside many; just past POINT_TOL T has its
    value."""
    problem, T = genus0_map
    inv = T.inverse()
    for f, nodes in ((T, problem.poles), (inv, problem.zeros)):
        for node in nodes:
            for z in (node.point, node.point + 5e-13):
                with pytest.raises(PointOnExcludedSet, match="has a pole"):
                    f(z)
                with pytest.raises(PointOnExcludedSet, match="has a pole"):
                    f.many([0.7, z])
            assert np.isfinite(f(node.point + 1e-6)).all()
    assert np.array_equal(T(0.7), T.many([0.7])[0])


def test_checked_cond():
    assert checked_cond(np.eye(3), "m") == 1.0
    assert checked_cond(np.zeros((0, 0)), "m") == 1.0
    assert checked_cond(NEAR_Q[:1, :1], "m") == svd_cond(NEAR_Q[:1, :1])
    with pytest.raises(NotSquare, match=r"^m is 2x3$"):
        checked_cond(np.ones((2, 3)), "m")
    with pytest.raises(SingularMatrix, match=r"^m condition inf$") as raised:
        checked_cond(np.zeros((2, 2)), "m")
    assert raised.value.condition == np.inf


def test_cond_limit_is_compared_in_one_function():
    """The one place in zpint that compares a number with COND_LIMIT is
    numutil.checked_cond."""
    sites = set()
    for path in Path(numutil.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Compare) and any(
                        isinstance(name, ast.Name) and name.id == "COND_LIMIT"
                        for side in (node.left, *node.comparators) for name in ast.walk(side)):
                    sites.add((path.stem, func.name))
    assert sites == {("numutil", "checked_cond")}
