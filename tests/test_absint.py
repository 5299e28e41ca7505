"""Abstract zero-pole interpolation: coupling matrix, solution formulas,
residue conditions, scalar forms, the trisecant identities."""

import re
import warnings

import numpy as np
import pytest

from zpint.absint import (
    InterpolationDataSet,
    PoleNode,
    ZeroNode,
    build_gamma,
    build_inverse,
    build_solution,
    divisor_characteristic,
    fay_residual,
    forward_couplings,
    full_rank_multiplicative,
    matrix_fay_residual,
    residue_condition_check,
    scalar_multiplicative,
    scalar_partial_fraction,
    verify_solution,
)
from zpint.errors import (
    DegenerateDenominator,
    InputError,
    NecessityViolated,
    NotSquare,
    PointOnExcludedSet,
    SingularMatrix,
    ZpintError,
)
from zpint.genus0 import Genus0Problem, solve_genus0
from zpint.kernels import conjugated_kernel, direct_sum_kernel, genus0_kernel, line_kernel
from zpint.numutil import rel_residual
from zpint.surface import (
    POINT_TOL,
    FlatLineBundle,
    genus0_surface,
    lattice_reduce,
    line_bundle,
    point,
    torus_surface,
)
from zpint.theta import MAX_TABLE_IM

TAU = 0.3 + 0.9j
Q_POINT = 0.52 + 0.18j


def scalar_nodes(zeros, poles):
    return (
        tuple(ZeroNode(z, np.array([[1.0]])) for z in zeros),
        tuple(PoleNode(p, np.array([[1.0]])) for p in poles),
    )


@pytest.fixture(scope="module")
def scalar_setup():
    surf = torus_surface(TAU)
    zeros = [0.13 + 0.27j, 0.61 + 0.43j]
    poles = [0.37 + 0.71j, 0.83 + 0.11j]
    chi = line_bundle(0.23, 0.41)
    a_w, b_w, _ = divisor_characteristic(surf, zeros, poles)
    chit = line_bundle(chi.a + a_w, chi.b + b_w)
    zn, pn = scalar_nodes(zeros, poles)
    data = InterpolationDataSet(surface=surf, rank=1, zeros=zn, poles=pn)
    return surf, zeros, poles, chi, chit, data


def torus_points(rng, n, avoid=()):
    out = []
    while len(out) < n:
        z = rng.uniform(0.03, 0.97) + rng.uniform(0.03, 0.97) * TAU
        if all(abs(z - a) > 0.05 for a in tuple(avoid) + tuple(out)):
            out.append(z)
    return out


# --- coupling matrix ---

def test_build_gamma_matches_pairwise_loop(rng):
    surf = torus_surface(TAU)
    pts = torus_points(rng, 6)
    shared = pts[0]
    e0, e1 = np.eye(2)[:1], np.eye(2)[1:]
    zeros = (ZeroNode(shared, e0), ZeroNode(pts[1], rng.standard_normal((1, 2))),
             ZeroNode(pts[2], np.eye(2)))
    poles = (PoleNode(shared, e1), PoleNode(pts[3], rng.standard_normal((1, 2))),
             PoleNode(pts[4], np.eye(2)), PoleNode(pts[5], e0))
    data = InterpolationDataSet(surface=surf, rank=2, zeros=zeros, poles=poles,
                                couplings={(0, 0): [[0.7 - 0.2j]]})
    kernel = direct_sum_kernel([line_kernel(surf, line_bundle(0.23, 0.41)),
                                line_kernel(surf, line_bundle(0.62, 0.17))])
    frame = np.array([[1.0, 0.4 - 0.2j], [0.1j, 0.9]])
    for oracle in (kernel, conjugated_kernel(kernel, frame)):
        gamma = build_gamma(data, oracle)
        ref = np.zeros((4, 5), dtype=complex)
        for i, z in enumerate(data.zeros):
            for j, p in enumerate(data.poles):
                r0, r1 = data.zero_rows.blocks[i]
                c0, c1 = data.pole_rows.blocks[j]
                if (i, j) == (0, 0):
                    ref[r0:r1, c0:c1] = -data.couplings[(0, 0)]
                else:
                    ref[r0:r1, c0:c1] = -(z.vectors @ oracle(z.point, p.point) @ p.vectors.T)
        assert rel_residual(gamma.matrix, ref) <= 1e-14
        assert gamma.matrix[0, 0] == ref[0, 0]   # the coincident block is -rho exactly


def mixed_count_data(surf, pts, rng):
    """Rank 3, node counts 1, 2 and 3 mixed, two coincident pairs (at pts[0]
    and pts[1]); pts holds 8 distinct points."""
    e = np.eye(3)

    def vecs(count):
        return rng.standard_normal((count, 3)) + 1j * rng.standard_normal((count, 3))

    zeros = (ZeroNode(pts[0], e[:1]), ZeroNode(pts[1], e[:2]), ZeroNode(pts[2], vecs(2)),
             ZeroNode(pts[3], e), ZeroNode(pts[4], vecs(1)))
    poles = (PoleNode(pts[0], e[1:]), PoleNode(pts[1], e[2:]), PoleNode(pts[5], vecs(3)),
             PoleNode(pts[6], vecs(1)), PoleNode(pts[7], vecs(2)))
    couplings = {(0, 0): [[0.7 - 0.2j, 0.3j]], (1, 1): [[0.4], [-1.1 + 0.5j]]}
    return InterpolationDataSet(surface=surf, rank=3, zeros=zeros, poles=poles,
                                couplings=couplings)


def mixed_count_cases(rng):
    """(data, oracle, q) over direct-sum, conjugated and genus-0 rank-3
    kernels; q is a ninth point, off the nodes."""
    torus = torus_surface(TAU)
    bundles = [line_bundle(0.23, 0.41), line_bundle(0.62, 0.17), line_bundle(0.81, 0.55)]
    dsum = direct_sum_kernel([line_kernel(torus, b) for b in bundles])
    frame = np.array([[1.0, 0.4 - 0.2j, 0.1], [0.1j, 0.9, 0.0], [0.2, -0.3j, 1.1]])
    pts = torus_points(rng, 9)
    data = mixed_count_data(torus, pts, rng)
    cases = [(data, dsum, pts[8]), (data, conjugated_kernel(dsum, frame), pts[8])]
    sphere = genus0_surface()
    pts = [complex(v) for v in rng.uniform(-2, 2, 9) + 1j * rng.uniform(-2, 2, 9)]
    cases.append((mixed_count_data(sphere, pts, rng), genus0_kernel(3, sphere), pts[8]))
    return cases


def test_build_gamma_matches_pairwise_loop_mixed_counts(rng):
    for case, (data, oracle, _) in enumerate(mixed_count_cases(rng)):
        gamma = build_gamma(data, oracle)
        rows = np.cumsum([0] + [z.count for z in data.zeros])
        cols = np.cumsum([0] + [p.count for p in data.poles])
        ref = np.zeros((rows[-1], cols[-1]), dtype=complex)
        for i, z in enumerate(data.zeros):
            for j, p in enumerate(data.poles):
                if (i, j) in data.couplings:
                    block = -data.couplings[(i, j)]
                else:
                    block = -(z.vectors @ oracle(z.point, p.point) @ p.vectors.T)
                ref[rows[i]:rows[i + 1], cols[j]:cols[j + 1]] = block
        assert len(data.couplings) == 2
        assert rel_residual(gamma.matrix, ref) <= 1e-14, case
        for i, j in data.couplings:   # the coincident blocks are -rho exactly
            block = np.s_[rows[i]:rows[i + 1], cols[j]:cols[j + 1]]
            assert np.array_equal(gamma.matrix[block], ref[block]), case
        assert data.zero_rows.blocks == tuple(zip(rows[:-1].tolist(), rows[1:].tolist()))
        assert data.pole_rows.blocks == tuple(zip(cols[:-1].tolist(), cols[1:].tolist()))
        for nodes, layout in ((data.zeros, data.zero_rows), (data.poles, data.pole_rows)):
            assert np.array_equal(layout.vectors, np.vstack([n.vectors for n in nodes]))
            assert layout.node_of.tolist() == [k for k, n in enumerate(nodes)
                                               for _ in range(n.count)]


@pytest.mark.parametrize("n", [1, 4, 12])
def test_build_gamma_is_one_kernel_call(n, rng, monkeypatch):
    from zpint.kernels import CauchyKernelOracle

    surf = genus0_surface()
    pts = rng.uniform(-3, 3, 2 * n) + 1j * rng.uniform(-3, 3, 2 * n)
    data = InterpolationDataSet(
        surface=surf, rank=2,
        zeros=tuple(ZeroNode(z, rng.standard_normal((1, 2))) for z in pts[:n]),
        poles=tuple(PoleNode(p, rng.standard_normal((1, 2))) for p in pts[n:]))
    calls = []
    original = CauchyKernelOracle.__call__

    def counting(self, p, q):
        calls.append((p, q))
        return original(self, p, q)

    monkeypatch.setattr(CauchyKernelOracle, "__call__", counting)
    build_gamma(data, genus0_kernel(2, surf))
    assert len(calls) == 1
    assert len(calls[0][0]) == n * n


def reference_gamma(data, oracle, q):
    """Gamma by build_gamma's kernel_grid route, with at_base in loop form:
    one vectors @ K(chi~; lambda, q) product per zero."""
    from zpint.absint import GammaMatrix

    kz = oracle([z.point for z in data.zeros], [q] * len(data.zeros))
    at_base = np.vstack([z.vectors @ k for k, z in zip(kz, data.zeros)])
    return GammaMatrix(build_gamma(data, oracle).matrix, at_base)


def loop_weights(data, oracle, q, gamma):
    """The weights of the kernel sum in loop form, one (r, r) matrix per end
    [q, then one per pole vector]: I, then one outer product per vector."""
    kz = oracle([z.point for z in data.zeros], [q] * len(data.zeros))
    k_x_lam = np.vstack([z.vectors @ k for k, z in zip(kz, data.zeros)])
    coef = np.linalg.solve(gamma.matrix, k_x_lam)
    u = np.vstack([node.vectors for node in data.poles])
    return np.array([np.eye(data.rank), *(np.outer(u_b, c_b) for u_b, c_b in zip(u, coef))])


def test_numerator_and_tail_weights_match_loop_form(rng):
    """The weights of T's kernel sum and of the swapped problem's, whose
    solution is T^-1 transposed, agree with the loop form of one outer
    product per vector, each with its own data, kernel and Gamma, within
    10 cond(Gamma) eps.  The swapped problem's Gamma is -Gamma^T within
    20 eps max|Gamma|."""
    from zpint.absint import _swapped, _weights

    for data, oracle, q in [*mixed_count_cases(rng), large_im_tau_case()]:
        r = data.rank
        swapped, dual = _swapped(data), oracle.dual()
        gamma, gamma_inverse = (build(data, q, np.eye(r), oracle, oracle).gamma
                                for build in (build_solution, build_inverse))
        scale = 20 * np.finfo(float).eps * np.abs(gamma.matrix).max()
        assert np.abs(gamma.matrix.T + gamma_inverse.matrix).max() <= scale
        tol = 10 * gamma.condition() * np.finfo(float).eps
        for problem, kernel, g in ((data, oracle, gamma), (swapped, dual, gamma_inverse)):
            left, right = _weights(problem, g)
            weight = np.concatenate([np.eye(r)[None], left[:, :, None] * right[:, None, :]])
            ref = loop_weights(problem, kernel, q, g)
            assert weight.shape == ref.shape
            assert rel_residual(weight.reshape(-1, r), ref.reshape(-1, r)) <= tol


def large_im_tau_case():
    """(data, oracle, q) on the torus with Im(tau) = 300, past
    theta.MAX_TABLE_IM: rank 2, three zeros and three poles with one
    coincident pair, every point at the same height, so that the kernel
    values stay finite."""
    tau = 0.1 + 300j
    surf = torus_surface(tau)
    e = np.eye(2)
    # |theta[a; b](0)| is about exp(-pi Im(tau) a^2): keep a near an integer
    kernel = direct_sum_kernel([line_kernel(surf, line_bundle(0.02, 0.41)),
                                line_kernel(surf, line_bundle(0.97, 0.17))])
    pts = [x + 0.45 * tau for x in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8)]
    zeros = (ZeroNode(pts[0], e[:1]), ZeroNode(pts[1], [[1.0, 0.3]]),
             ZeroNode(pts[2], [[0.2, 1.0]]))
    poles = (PoleNode(pts[0], e[1:]), PoleNode(pts[3], [[1.0, -0.4]]),
             PoleNode(pts[4], [[0.5, 1.0]]))
    data = InterpolationDataSet(surface=surf, rank=2, zeros=zeros, poles=poles,
                                couplings={(0, 0): [[0.7 - 0.2j]]})
    return data, kernel, pts[5]


def small_im_tau_case(tau=0.2 + 0.15j):
    """(data, oracle_chi, oracle_tilde, q) of scalar_setup's rank-1 problem
    moved to tau = 0.2 + 0.15i, the nodes and q at the same fractions of
    the periods: a wide table window (23 lattice terms) and a reach of
    2^48 Im(tau), about 4.2e13; or moved to another tau."""
    surf = torus_surface(tau)
    zeros = [0.13 + 0.27 * tau, 0.41 + 0.62 * tau]
    poles = [0.61 + 0.43 * tau, 0.84 + 0.11 * tau]
    chi = line_bundle(0.23, 0.41)
    a_w, b_w, _ = divisor_characteristic(surf, zeros, poles)
    data = InterpolationDataSet(surf, 1, *scalar_nodes(zeros, poles))
    return (data, line_kernel(surf, chi), line_kernel(surf, line_bundle(chi.a + a_w, chi.b + b_w)),
            0.52 + 0.18 * tau)


def test_interpolant_gamma_matches_build_gamma(rng):
    """The Gamma and base column an interpolant reads from the theta table
    of its ends (past MAX_TABLE_IM, the channel pass) agree with the
    kernel_grid route of build_gamma: on the torus within 10 eps max|Gamma|
    entrywise, on the sphere bit for bit, with -rho exactly on the
    coincident blocks.  T^-1's are those of the swapped problem (its data,
    laid out from the given data's rows, and the dual kernel).
    Direct-sum and conjugated frames, genus-0 rank 3 (with and without a
    frame), and coincident pairs with couplings; no RuntimeWarning (the
    test configuration makes them errors)."""
    cases = mixed_count_cases(rng)
    sphere_data, trivial, sphere_q = cases[-1]
    frame = np.array([[1.0, 0.4 - 0.2j, 0.1], [0.1j, 0.9, 0.0], [0.2, -0.3j, 1.1]])
    cases += [(sphere_data, conjugated_kernel(trivial, frame), sphere_q), large_im_tau_case()]
    eps = np.finfo(float).eps
    for data, oracle, q in cases:
        assert data.couplings
        sphere = data.surface.genus == 0
        T, Ti = (build(data, q, np.eye(data.rank), oracle, oracle)
                 for build in (build_solution, build_inverse))
        assert Ti.data.zero_rows is data.pole_rows and Ti.data.pole_rows is data.zero_rows
        for F, kernel in ((T, oracle), (Ti, oracle.dual())):
            name = "inverse" if F is Ti else "solution"
            gamma, ref = F.gamma, reference_gamma(F.data, kernel, q)
            if sphere:
                assert np.array_equal(gamma.matrix, ref.matrix), name
            else:
                scale = 10 * eps * np.abs(ref.matrix).max()
                assert np.abs(gamma.matrix - ref.matrix).max() <= scale, name
            assert rel_residual(gamma.at_base, ref.at_base) <= 1e-14, name
            for (i, j), rho in F.data.couplings.items():
                block = (slice(*F.data.zero_rows.blocks[i]), slice(*F.data.pole_rows.blocks[j]))
                assert np.array_equal(gamma.matrix[block], -rho), name
        for (i, j), rho in data.couplings.items():   # the swapped couplings are -rho^T
            assert np.array_equal(Ti.data.couplings[(j, i)], -rho.T)


def test_identity_frame_builds_the_frame_free_bits(rng):
    """A kernel without a frame skips every product with I in the build
    (Gamma and its base column over the channels, the fold in its block
    layout); the same kernel conjugated by I takes the composed route.
    Both build bit-identical Gamma, base column, T and T^-1 on the torus
    and on the sphere, with coincident pairs."""
    torus_case, *_, sphere_case = mixed_count_cases(rng)
    for data, oracle, q in (torus_case, sphere_case):
        framed = conjugated_kernel(oracle, np.eye(data.rank))
        assert oracle.frame is None and framed.frame is not None
        Q = np.eye(data.rank) + 0.3 * (rng.standard_normal((data.rank,) * 2)
                                       + 1j * rng.standard_normal((data.rank,) * 2))
        nodes = [node.point for node in (*data.zeros, *data.poles)]
        P = [p for p in rng.uniform(-1, 1, 12) + 1j * rng.uniform(0.1, 0.9, 12)
             if min(abs(p - x) for x in (*nodes, q)) > 0.05]
        for build in (build_solution, build_inverse):
            plain, conj = (build(data, q, Q, k, k) for k in (oracle, framed))
            assert np.array_equal(plain.gamma.matrix, conj.gamma.matrix), build.__name__
            assert np.array_equal(plain.gamma.at_base, conj.gamma.at_base), build.__name__
            assert np.array_equal(plain.many(P), conj.many(P)), build.__name__


def test_non_finite_gamma_entry_is_a_typed_error(rng, monkeypatch):
    """A kernel value that is not finite off the coincident blocks raises
    NonConvergent from both routes, not LinAlgError from the SVD."""
    import zpint.absint as absint_module
    from zpint.errors import NonConvergent, ZpintError
    from zpint.kernels import CauchyKernelOracle

    class NanKernel(CauchyKernelOracle):
        def many(self, P, Q):
            return np.full((len(P), 3, 3), np.nan + 0j)

    data, oracle, q = mixed_count_cases(rng)[0]
    nan_kernel = NanKernel(data.surface, oracle.channels)
    with pytest.raises(NonConvergent):
        build_gamma(data, nan_kernel)
    original = absint_module.end_plan

    def one_nan(*args):
        plan, at_nodes = original(*args)
        at_nodes[2, -1] = np.nan   # zero 2 against the last pole vector
        return plan, at_nodes

    monkeypatch.setattr(absint_module, "end_plan", one_nan)
    for build in (build_solution, build_inverse):
        with pytest.raises(ZpintError, match="non-finite"):
            build(data, q, np.eye(data.rank), oracle, oracle)


@pytest.mark.parametrize("build", [build_solution, build_inverse])
def test_malformed_base_value_is_an_input_error(build, scalar_setup, rng):
    """A base value Q without r^2 numbers, or with a NaN or infinite entry,
    raises InputError on the torus and the sphere; a finite singular Q
    stays SingularMatrix, and any r^2-entry array, or a scalar at rank 1,
    is accepted."""
    surf, _, _, chi, chit, line_data = scalar_setup
    sphere = genus0_surface()
    one = genus0_kernel(1, sphere)
    torus_case, *_, sphere_case = mixed_count_cases(rng)
    cases = [(data, k, k, q) for data, k, q in (torus_case, sphere_case)]
    cases += [(line_data, line_kernel(surf, chi), line_kernel(surf, chit), Q_POINT),
              (InterpolationDataSet(sphere, 1, *scalar_nodes([2.0], [3.0])), one, one, 5.0 + 1j)]
    for data, chi, tilde, q in cases:
        r = data.rank
        for bad in ([1, 2, 3], "ab", None, np.full((r, r), np.nan), np.diag([np.inf] * r),
                    np.eye(r + 1)):
            with pytest.raises(InputError, match="base value Q"):
                build(data, q, bad, chi, tilde)
        with pytest.raises(SingularMatrix, match="base value Q"):
            build(data, q, np.zeros((r, r)), chi, tilde)
        for good in (np.eye(r).ravel(), np.eye(r)[None], *([1.5 - 0.5j] if r == 1 else [])):
            T = build(data, q, good, chi, tilde)
            assert np.array_equal(T(q), np.reshape(good, (r, r)) if build is build_solution
                                  else np.linalg.inv(np.reshape(good, (r, r))))


def test_gamma_sign_reconciles_with_classical_convention():
    # -x K(2, 3) u = -1/(2-3) = 1 equals x u / (mu - lam)
    surf = genus0_surface()
    k = genus0_kernel(1, surf)
    zn, pn = scalar_nodes([2.0], [3.0])
    data = InterpolationDataSet(surface=surf, rank=1, zeros=zn, poles=pn)
    gamma = build_gamma(data, k)
    assert abs(gamma.matrix[0, 0] - 1.0) < 1e-15


def test_gamma_coincident_rule(scalar_setup):
    surf, zeros, poles, chi, chit, _ = scalar_setup
    # rank 2 so the compatibility x u = 0 can hold at a coincidence
    oracle = direct_sum_kernel([line_kernel(surf, chit), line_kernel(surf, chit)])
    data = InterpolationDataSet(
        surface=surf, rank=2,
        zeros=(ZeroNode(zeros[0], np.array([[1.0, 0.0]])),),
        poles=(PoleNode(zeros[0], np.array([[0.0, 1.0]])),),
        couplings={(0, 0): np.array([[0.7]])},
    )
    gamma = build_gamma(data, oracle)
    assert abs(gamma.matrix[0, 0] + 0.7) < 1e-15


def test_gamma_line_bundle_entry(scalar_setup):
    surf, zeros, poles, chi, chit, _ = scalar_setup
    oracle = line_kernel(surf, chit)
    zn, pn = scalar_nodes([zeros[0]], [poles[0]])
    data = InterpolationDataSet(surface=surf, rank=1, zeros=zn, poles=pn)
    gamma = build_gamma(data, oracle)
    assert abs(gamma.matrix[0, 0] + oracle(zeros[0], poles[0])[0, 0]) < 1e-14


def test_dataset_validation(scalar_setup):
    surf, zeros, poles, *_ = scalar_setup
    with pytest.raises(InputError):   # coincidence without compatibility
        InterpolationDataSet(
            surface=surf, rank=1,
            zeros=(ZeroNode(zeros[0], np.array([[1.0]])),),
            poles=(PoleNode(zeros[0], np.array([[1.0]])),),
            couplings={(0, 0): np.array([[0.0]])},
        )
    with pytest.raises(InputError):   # duplicate zero points
        InterpolationDataSet(
            surface=surf, rank=1,
            zeros=(ZeroNode(zeros[0], np.array([[1.0]])),
                   ZeroNode(zeros[0] + 1 + TAU, np.array([[1.0]]))),
            poles=tuple(PoleNode(p, np.array([[1.0]])) for p in poles),
        )


@pytest.mark.parametrize("vectors", [[["x"]], [[1.0], [1.0, 2.0]], None],
                         ids=["text", "ragged", "none"])
def test_node_rejects_vectors_that_are_not_numbers(vectors):
    """A node's vectors must be an array of numbers: text and ragged rows
    raise InputError naming the node, not a bare ValueError, and None is not
    read as the vector [nan]."""
    with pytest.raises(InputError, match=re.escape(repr(0.1 + 0j))):
        ZeroNode(0.1, vectors)


# --- genus-0 solutions through the abstract formula ---

def test_solution_genus0_scalar_large_base_point():
    surf = genus0_surface()
    k = genus0_kernel(1, surf)
    zn, pn = scalar_nodes([2.0], [3.0])
    data = InterpolationDataSet(surface=surf, rank=1, zeros=zn, poles=pn)
    T = build_solution(data, 1e6, np.array([[1.0]]), k, k)
    assert abs(T(10.0)[0, 0] - 8 / 7) < 1e-4
    # bias decays as the base point grows
    T2 = build_solution(data, 1e8, np.array([[1.0]]), k, k)
    assert abs(T2(10.0)[0, 0] - 8 / 7) < abs(T(10.0)[0, 0] - 8 / 7)
    Ti = build_inverse(data, 1e6, np.array([[1.0]]), k, k)
    assert abs(Ti(10.0)[0, 0] - 7 / 8) < 1e-4


def test_empty_data_constant(scalar_setup):
    surf, *_ = scalar_setup
    chi = line_bundle(0.23, 0.41)
    k = line_kernel(surf, chi)
    data = InterpolationDataSet(surface=surf, rank=1, zeros=(), poles=())
    T = build_solution(data, Q_POINT, np.array([[2.5 - 1j]]), k, k)
    for p in (0.3 + 0.3j, 0.7 + 0.6j):
        assert abs(T(p)[0, 0] - (2.5 - 1j)) < 1e-12


# --- scalar closed forms on the torus ---

def test_scalar_multiplicative_base_point_and_divisor(scalar_setup, rng):
    surf, zeros, poles, chi, chit, _ = scalar_setup
    Q = 1.3 - 0.4j
    T = scalar_multiplicative(surf, zeros, poles, chi, chit, Q_POINT, Q)
    assert T(Q_POINT) == Q
    for z in zeros:
        assert abs(T(z)) < 1e-12
    assert abs(T(poles[0] + 1e-6)) > 1e4


def test_scalar_multiplicative_swap_inverts(scalar_setup, rng):
    surf, zeros, poles, chi, chit, _ = scalar_setup
    Q = 1.3 - 0.4j
    T = scalar_multiplicative(surf, zeros, poles, chi, chit, Q_POINT, Q)
    T_swapped = scalar_multiplicative(surf, poles, zeros, chit, chi, Q_POINT, 1 / Q)
    for p in torus_points(rng, 5, avoid=zeros + poles + [Q_POINT]):
        prod = T(p) * T_swapped(p)
        assert abs(prod - 1.0) < 1e-10


def test_scalar_necessity_violation(scalar_setup):
    surf, zeros, poles, chi, chit, _ = scalar_setup
    wrong = line_bundle(chit.a + 0.1, chit.b)
    with pytest.raises(NecessityViolated):
        scalar_multiplicative(surf, zeros, poles, chi, wrong, Q_POINT, 1.0)
    with pytest.raises(NotSquare):
        scalar_multiplicative(surf, zeros, poles[:1], chi, chit, Q_POINT, 1.0)


def test_scalar_partial_fraction_equivalence(scalar_setup, rng):
    surf, zeros, poles, chi, chit, _ = scalar_setup
    Q = 1.3 - 0.4j
    T_mult = scalar_multiplicative(surf, zeros, poles, chi, chit, Q_POINT, Q)
    T_pf = scalar_partial_fraction(surf, zeros, poles, chi, chit, Q_POINT, Q)
    assert T_pf(Q_POINT) == Q
    for p in torus_points(rng, 10, avoid=zeros + poles + [Q_POINT]):
        a, b = T_mult(p), T_pf(p)
        assert abs(a - b) / (abs(a) + abs(b)) < 1e-9


def test_scalar_partial_fraction_is_rank1_build_solution(scalar_setup, rng):
    """The partial-fraction form is build_solution on the rank-1 data set,
    bit for bit, and it keeps its own rejections."""
    surf, zeros, poles, chi, chit, data = scalar_setup
    Q = 1.3 - 0.4j
    P = torus_points(rng, 8, avoid=zeros + poles + [Q_POINT])
    T = build_solution(data, Q_POINT, np.array([[Q]]),
                       line_kernel(surf, chi), line_kernel(surf, chit))
    T_pf = scalar_partial_fraction(surf, zeros, poles, chi, chit, Q_POINT, Q)
    assert np.array_equal(T_pf(P), T.many(P)[:, 0, 0])
    with pytest.raises(NotSquare):
        scalar_partial_fraction(surf, zeros, poles[:1], chi, chit, Q_POINT, Q)


@pytest.mark.parametrize("builder", [scalar_multiplicative, scalar_partial_fraction])
def test_scalar_builders_refuse_a_base_value_that_is_not_one_finite_number(builder, scalar_setup):
    """Both scalar builders check Q as build_solution does: text, two
    numbers, NaN and infinity raise InputError naming the base value."""
    surf, zeros, poles, chi, chit, _ = scalar_setup
    for bad in ("ab", [1, 2], np.nan, np.inf):
        with pytest.raises(InputError, match="base value Q"):
            builder(surf, zeros, poles, chi, chit, Q_POINT, bad)
    assert builder(surf, zeros, poles, chi, chit, Q_POINT, 1.3 - 0.4j)(Q_POINT) == 1.3 - 0.4j


def _verdict(build):
    """(type, message) of the ZpintError that build() raises."""
    with pytest.raises(ZpintError) as raised:
        build()
    return type(raised.value), str(raised.value)


@pytest.mark.parametrize("case, error", [
    ("repeated zero", InputError),
    ("repeated pole", InputError),
    ("zero on a pole", InputError),
    ("q on a node", PointOnExcludedSet),
    ("non-finite point", InputError),
    ("Q text", InputError),
    ("Q zero", SingularMatrix),
])
def test_closed_forms_and_build_solution_give_one_verdict(case, error, scalar_setup):
    """The multiplicative and partial-fraction forms lay out their nodes as
    the rank-1 data set and check q and Q as build_solution does, so each
    bad input gets one verdict from all three: the same type and message."""
    surf, zeros, poles, chi, chit, _ = scalar_setup
    q, Q = Q_POINT, 1.3 - 0.4j
    if case == "repeated zero":
        zeros = [zeros[0], zeros[0]]
    elif case == "repeated pole":
        poles = [poles[0], poles[0]]
    elif case == "zero on a pole":
        poles = [zeros[1] + 1 + TAU, poles[1]]
    elif case == "q on a node":
        q = poles[1]
    elif case == "non-finite point":
        zeros = [zeros[0], complex(np.nan, 0.0)]
    else:
        Q = "ab" if case == "Q text" else 0.0
    ko, kt = line_kernel(surf, chi), line_kernel(surf, chit)
    verdicts = {_verdict(lambda: form(surf, zeros, poles, chi, chit, q, Q))
                for form in (scalar_multiplicative, scalar_partial_fraction)}
    verdicts.add(_verdict(lambda: build_solution(
        InterpolationDataSet(surf, 1, *scalar_nodes(zeros, poles)), q, Q, ko, kt)))
    assert len(verdicts) == 1, verdicts
    assert verdicts.pop()[0] is error


def test_scalar_forms_take_point_sequences(scalar_setup, rng):
    surf, zeros, poles, chi, chit, _ = scalar_setup
    Q = 1.3 - 0.4j
    P = [Q_POINT, *torus_points(rng, 6, avoid=zeros + poles + [Q_POINT]), Q_POINT + 1 + TAU]
    for form in (scalar_multiplicative, scalar_partial_fraction):
        T = form(surf, zeros, poles, chi, chit, Q_POINT, Q)
        values = T(P)
        assert values.shape == (len(P),)
        assert values[0] == Q and values[-1] == Q
        # one point is the N = 1 case: the same bits alone and in the sequence
        assert np.array_equal(values, [T(p) for p in P])


def test_scalar_equivalence_n3_random_divisor(rng):
    surf = torus_surface(TAU)
    chi = line_bundle(0.11, 0.61)
    zeros = torus_points(rng, 3)
    poles = torus_points(rng, 3, avoid=zeros)
    a_w, b_w, _ = divisor_characteristic(surf, zeros, poles)
    chit = line_bundle(chi.a + a_w, chi.b + b_w)
    q = torus_points(rng, 1, avoid=zeros + poles)[0]
    T_mult = scalar_multiplicative(surf, zeros, poles, chi, chit, q, 1.0)
    T_pf = scalar_partial_fraction(surf, zeros, poles, chi, chit, q, 1.0)
    for p in torus_points(rng, 10, avoid=zeros + poles + [q]):
        a, b = T_mult(p), T_pf(p)
        assert abs(a - b) / (abs(a) + abs(b)) < 1e-8


def test_oracle_solution_matches_scalar_multiplicative(scalar_setup, rng):
    surf, zeros, poles, chi, chit, data = scalar_setup
    Q = 1.3 - 0.4j
    T_mult = scalar_multiplicative(surf, zeros, poles, chi, chit, Q_POINT, Q)
    T = build_solution(data, Q_POINT, np.array([[Q]]),
                       line_kernel(surf, chi), line_kernel(surf, chit))
    assert T(Q_POINT)[0, 0] == Q       # base value is exact
    # base value holds at lattice translates of the base point too
    assert T(Q_POINT + 1 + TAU)[0, 0] == Q
    for p in torus_points(rng, 10, avoid=zeros + poles + [Q_POINT]):
        a, b = T_mult(p), T(p)[0, 0]
        assert abs(a - b) / (abs(a) + abs(b)) < 1e-9


def test_inverse_evaluator(scalar_setup, rng):
    surf, zeros, poles, chi, chit, data = scalar_setup
    Q = np.array([[1.3 - 0.4j]])
    ko, kt = line_kernel(surf, chi), line_kernel(surf, chit)
    T = build_solution(data, Q_POINT, Q, ko, kt)
    Ti = build_inverse(data, Q_POINT, Q, ko, kt)
    for p in torus_points(rng, 20, avoid=zeros + poles + [Q_POINT]):
        assert abs(T(p)[0, 0] * Ti(p)[0, 0] - 1.0) < 1e-9
    # inverse blows up at the prescribed zeros
    assert abs(Ti(zeros[0] + 1e-6)[0, 0]) > 1e4


def test_uniqueness_across_base_points(scalar_setup, rng):
    surf, zeros, poles, chi, chit, data = scalar_setup
    ko, kt = line_kernel(surf, chi), line_kernel(surf, chit)
    T1 = build_solution(data, Q_POINT, np.array([[1.3 - 0.4j]]), ko, kt)
    q2 = 0.71 + 0.37j
    T2 = build_solution(data, q2, T1(q2), ko, kt)
    for p in torus_points(rng, 8, avoid=zeros + poles + [Q_POINT, q2]):
        a, b = T1(p)[0, 0], T2(p)[0, 0]
        assert abs(a - b) / (abs(a) + abs(b)) < 1e-8


def test_solver_rejections(scalar_setup):
    surf, zeros, poles, chi, chit, data = scalar_setup
    ko, kt = line_kernel(surf, chi), line_kernel(surf, chit)
    with pytest.raises(NotSquare):
        bad = InterpolationDataSet(
            surface=surf, rank=1,
            zeros=(ZeroNode(zeros[0], np.array([[1.0]])),),
            poles=tuple(PoleNode(p, np.array([[1.0]])) for p in poles),
        )
        build_solution(bad, Q_POINT, np.array([[1.0]]), ko, kt)
    with pytest.raises(PointOnExcludedSet, match="hits a node"):
        build_solution(data, zeros[0], np.array([[1.0]]), ko, kt)
    # orthogonal vector data makes a zero row: singular coupling matrix
    chi2 = line_bundle(0.67, 0.19)
    ksum = direct_sum_kernel([kt, line_kernel(surf, chi2)])
    singular = InterpolationDataSet(
        surface=surf, rank=2,
        zeros=(ZeroNode(zeros[0], np.array([[0.0, 1.0]])),),
        poles=(PoleNode(poles[0], np.array([[1.0, 0.0]])),),
    )
    with pytest.raises(SingularMatrix, match="coupling matrix condition") as raised:
        build_solution(singular, Q_POINT, np.eye(2), ksum, ksum)
    assert raised.value.condition > 1e12


def test_kernel_singular_at_inverse_kernel_pole(scalar_setup):
    surf, zeros, poles, chi, chit, data = scalar_setup
    ko, kt = line_kernel(surf, chi), line_kernel(surf, chit)
    T = build_solution(data, Q_POINT, np.array([[1.0]]), ko, kt)
    z_chi = complex(chi.jacobian_point(surf.period)[0])
    pole = lattice_reduce(Q_POINT + z_chi - (1 + TAU) / 2, TAU)
    with pytest.raises(SingularMatrix, match="kernel value numerically singular"):
        T(pole)


# --- residue conditions ---

def test_residue_condition_consistent_vs_perturbed(scalar_setup):
    surf, zeros, poles, chi, chit, data = scalar_setup
    ko, kt = line_kernel(surf, chi), line_kernel(surf, chit)
    Q = np.array([[1.3 - 0.4j]])
    results = residue_condition_check(data, Q_POINT, Q, ko, kt)
    assert len(results) == 1
    assert all(res <= 1e-7 for _, res in results)
    zn, pn = scalar_nodes(zeros, [poles[0] + 0.01, poles[1]])
    perturbed = InterpolationDataSet(surface=surf, rank=1, zeros=zn, poles=pn)
    bad = residue_condition_check(perturbed, Q_POINT, Q, ko, kt)
    assert all(res > 1e-3 for _, res in bad)


def test_residue_condition_trivial_kernel_has_no_poles():
    surf = genus0_surface()
    k = genus0_kernel(1, surf)
    zn, pn = scalar_nodes([2.0], [3.0])
    data = InterpolationDataSet(surface=surf, rank=1, zeros=zn, poles=pn)
    assert residue_condition_check(data, 1e6, np.array([[1.0]]), k, k) == []


def test_fay_residual_needs_prime_form():
    from zpint.errors import UnsupportedGenus

    with pytest.raises(UnsupportedGenus):
        fay_residual(genus0_surface(), 0.1, 0.2, 0.3, 0.4, 0.5)


# --- solution verification ---

def test_verify_solution_scalar(scalar_setup):
    surf, zeros, poles, chi, chit, data = scalar_setup
    ko, kt = line_kernel(surf, chi), line_kernel(surf, chit)
    T = build_solution(data, Q_POINT, np.array([[1.3 - 0.4j]]), ko, kt)
    report = verify_solution(T, data)
    assert max(report["pole_span_gaps"]) < 1e-6
    assert max(report["zero_span_gaps"]) < 1e-6
    assert report["coupling_residuals"] == []


def test_verify_hand_built_genus0():
    surf = genus0_surface()
    k = genus0_kernel(2, surf)
    x = np.array([[1.0, 0.5]])
    u = np.array([[0.3, 1.0]])
    data = InterpolationDataSet(
        surface=surf, rank=2,
        zeros=(ZeroNode(0.5, x),), poles=(PoleNode(2.0, u),),
    )
    T = build_solution(data, 1e5, np.eye(2), k, k)
    report = verify_solution(T, data)
    assert max(report["pole_span_gaps"]) < 1e-6
    assert max(report["zero_span_gaps"]) < 1e-6


@pytest.fixture(scope="module")
def diag_coincidence():
    """Block-diagonal map with one coincident zero/pole (coupling 0)."""
    surf = torus_surface(TAU)
    xi_c, mu1, lam2 = 0.23 + 0.41j, 0.61 + 0.13j, 0.47 + 0.77j
    chi1, chi2 = line_bundle(0.23, 0.41), line_bundle(0.67, 0.19)
    aw1, bw1, _ = divisor_characteristic(surf, [xi_c], [mu1])
    chit1 = line_bundle(chi1.a + aw1, chi1.b + bw1)
    aw2, bw2, _ = divisor_characteristic(surf, [lam2], [xi_c])
    chit2 = line_bundle(chi2.a + aw2, chi2.b + bw2)
    f1 = scalar_multiplicative(surf, [xi_c], [mu1], chi1, chit1, Q_POINT, 1.0 + 0.3j)
    f2 = scalar_multiplicative(surf, [lam2], [xi_c], chi2, chit2, Q_POINT, 0.8 - 0.5j)

    def t_known(p):   # (2, 2) at one point, (N, 2, 2) over a sequence
        a, c = f1(p), f2(p)
        zero = np.zeros_like(c)
        return np.stack([a, zero, zero, c], -1).reshape(np.shape(c) + (2, 2))

    ko = direct_sum_kernel([line_kernel(surf, chi1), line_kernel(surf, chi2)])
    kt = direct_sum_kernel([line_kernel(surf, chit1), line_kernel(surf, chit2)])
    zeros = (ZeroNode(xi_c, np.array([[1.0, 0.0]])),
             ZeroNode(lam2, np.array([[0.0, 1.0]])))
    poles = (PoleNode(mu1, np.array([[1.0, 0.0]])),
             PoleNode(xi_c, np.array([[0.0, 1.0]])))
    rho = forward_couplings(t_known, surf, zeros, poles, ko, kt, Q_POINT)
    data = InterpolationDataSet(surface=surf, rank=2, zeros=zeros, poles=poles,
                                couplings=rho)
    return surf, data, ko, kt, t_known, rho


def test_diag_coincidence_round_trip(diag_coincidence, rng):
    surf, data, ko, kt, t_known, rho = diag_coincidence
    # block-diagonal structure forces a vanishing coupling
    assert abs(rho[(0, 1)][0, 0]) < 1e-9
    T = build_solution(data, Q_POINT, t_known(Q_POINT), ko, kt)
    avoid = [n.point for n in (*data.zeros, *data.poles)]
    for p in torus_points(rng, 6, avoid=avoid + [Q_POINT]):
        a, b = t_known(p), T(p)
        assert np.abs(a - b).max() / (np.abs(a).max() + np.abs(b).max()) < 1e-9
    report = verify_solution(T, data)
    assert max(report["pole_span_gaps"]) < 1e-6
    assert max(report["zero_span_gaps"]) < 1e-6
    assert max(report["coupling_residuals"]) < 1e-5


@pytest.fixture(scope="module")
def triangular_coincidence():
    """Upper-triangular map: two coincident pairs with nonzero couplings."""
    surf = torus_surface(0.25 + 1.1j)
    tau = 0.25 + 1.1j
    xi_c, mu_star, lam_star, mu_g = (0.23 + 0.41j, 0.61 + 0.13j,
                                     0.47 + 0.77j, 0.71 + 0.91j)
    chi1, chi2 = line_bundle(0.23, 0.41), line_bundle(0.67, 0.19)
    aw1, bw1, _ = divisor_characteristic(surf, [xi_c], [mu_star])
    chit1 = line_bundle(chi1.a + aw1, chi1.b + bw1)
    aw2, bw2, _ = divisor_characteristic(surf, [lam_star], [xi_c])
    chit2 = line_bundle(chi2.a + aw2, chi2.b + bw2)
    pm = surf.period
    w_g = complex(chit1.jacobian_point(pm)[0] - chi2.jacobian_point(pm)[0])
    lam_g = mu_g + w_g
    f1 = scalar_multiplicative(surf, [xi_c], [mu_star], chi1, chit1, Q_POINT, 1.0 + 0.3j)
    f2 = scalar_multiplicative(surf, [lam_star], [xi_c], chi2, chit2, Q_POINT, 0.8 - 0.5j)
    g = scalar_multiplicative(surf, [lam_g], [mu_g], chi2, chit1, Q_POINT, 1.3 - 0.4j)

    def t_known(p):   # (2, 2) at one point, (N, 2, 2) over a sequence
        c = f2(p)
        return np.stack([f1(p), g(p), np.zeros_like(c), c], -1).reshape(np.shape(c) + (2, 2))

    ko = direct_sum_kernel([line_kernel(surf, chi1), line_kernel(surf, chi2)])
    kt = direct_sum_kernel([line_kernel(surf, chit1), line_kernel(surf, chit2)])
    e1, e2 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    mu_g_red = lattice_reduce(mu_g, tau)
    zeros = (ZeroNode(xi_c, e1), ZeroNode(lam_star, e2), ZeroNode(mu_g_red, e2))
    poles = (PoleNode(mu_star, e1), PoleNode(xi_c, e2), PoleNode(mu_g_red, e1))
    rho = forward_couplings(t_known, surf, zeros, poles, ko, kt, Q_POINT)
    data = InterpolationDataSet(surface=surf, rank=2, zeros=zeros, poles=poles,
                                couplings=rho)
    return surf, data, ko, kt, t_known, rho, f2, g, xi_c


def test_triangular_coupling_matches_analytic_value(triangular_coincidence):
    *_, rho, f2, g, xi_c = triangular_coincidence
    from zpint.surface import laurent_coeffs

    res_f2, _ = laurent_coeffs(lambda t: [f2(s) for s in t], xi_c)
    expected = -g(xi_c) / res_f2
    assert abs(rho[(0, 1)][0, 0] - expected) < 1e-8 * (1 + abs(expected))
    assert abs(rho[(0, 1)][0, 0]) > 0.1      # genuinely nonzero coupling


def test_triangular_round_trip(triangular_coincidence, rng):
    surf, data, ko, kt, t_known, rho, *_ = triangular_coincidence
    tau = surf.tau
    T = build_solution(data, Q_POINT, t_known(Q_POINT), ko, kt)
    avoid = [n.point for n in (*data.zeros, *data.poles)]
    worst = 0.0
    for _ in range(8):
        p = rng.uniform(0.03, 0.97) + rng.uniform(0.03, 0.97) * tau
        if min(abs(p - a) for a in avoid + [Q_POINT]) < 0.05:
            continue
        a, b = t_known(p), T(p)
        worst = max(worst, np.abs(a - b).max() / (np.abs(a).max() + np.abs(b).max()))
    assert worst < 1e-9
    report = verify_solution(T, data)
    assert max(report["pole_span_gaps"]) < 1e-6
    assert max(report["zero_span_gaps"]) < 1e-6
    assert max(report["coupling_residuals"]) < 1e-5
    results = residue_condition_check(data, Q_POINT, t_known(Q_POINT), ko, kt)
    assert all(res <= 1e-7 for _, res in results)


# --- trisecant identities ---

def test_fay_residual_random(rng):
    for tau in (1j, 2j, 0.3 + 0.8j):
        surf = torus_surface(tau)
        for _ in range(20):
            z = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.4, 0.4)
            pts = [rng.uniform(0.03, 0.97) + rng.uniform(0.03, 0.97) * tau
                   for _ in range(4)]
            assert fay_residual(surf, z, *pts) < 1e-9


def test_fay_residual_degenerate(rng):
    surf = torus_surface(TAU)
    z = 0.1 + 0.2j
    p, q, lam = 0.31 + 0.11j, 0.72 + 0.61j, 0.44 + 0.35j
    assert fay_residual(surf, z, p, q, lam, lam) < 1e-12
    assert fay_residual(surf, z, lam, q, lam, p) < 1e-10


def test_fay_residual_arrays(rng):
    """Sequences of points give one residual per row, equal to the scalar
    call's."""
    surf = torus_surface(TAU)
    z = rng.uniform(-0.5, 0.5, 12) + 1j * rng.uniform(-0.4, 0.4, 12)
    P = [torus_points(rng, 12) for _ in range(4)]
    batch = fay_residual(surf, z, *P)
    assert batch.shape == (len(z),) and batch.max() < 1e-9
    for i in range(len(z)):
        assert fay_residual(surf, z[i], *(x[i] for x in P)) == batch[i]


def test_matrix_fay_genus0_rank2(rng):
    k = genus0_kernel(2)
    x = np.array([1.0, 0.5 - 0.3j])
    u = np.array([0.2 + 0.1j, 1.0])
    pts = [rng.uniform(-4, 4) + 1j * rng.uniform(-4, 4) for _ in range(30)]
    res = matrix_fay_residual(k, k, 2.0, x, 3.0 + 1j, u, 40.0 + 3j,
                              np.eye(2) + 0.1j, pts)
    assert res < 1e-10


def test_matrix_fay_genus1_rank2(scalar_setup, rng):
    surf, *_ = scalar_setup
    kt = direct_sum_kernel([
        line_kernel(surf, line_bundle(0.21, 0.37)),
        line_kernel(surf, line_bundle(0.72, 0.11)),
    ])
    lam, mu = 0.21 + 0.33j, 0.67 + 0.52j
    x = np.array([1.0, 0.6 - 0.2j])
    u = np.array([0.3 + 0.1j, 1.0])
    pts = torus_points(rng, 30, avoid=[lam, mu, Q_POINT])
    Qm = np.array([[1.1, 0.2j], [0.1, 0.9 - 0.3j]])
    res = matrix_fay_residual(kt, kt, lam, x, mu, u, Q_POINT, Qm, pts)
    assert res < 1e-8


def test_matrix_fay_rank1_reduces_to_trisecant(scalar_setup, rng):
    surf, *_ = scalar_setup
    b1 = line_bundle(0.21, 0.37)
    kt = line_kernel(surf, b1)
    lam, mu = 0.21 + 0.33j, 0.67 + 0.52j
    aw, bw, _ = divisor_characteristic(surf, [lam], [mu])
    chi = line_bundle(b1.a - aw, b1.b - bw)
    ko = line_kernel(surf, chi)
    pts = torus_points(rng, 10, avoid=[lam, mu, Q_POINT])
    res = matrix_fay_residual(ko, kt, lam, np.array([1.0]), mu, np.array([1.0]),
                              Q_POINT, np.array([[1.0]]), pts)
    assert res < 1e-9
    z1 = complex(b1.jacobian_point(surf.period)[0])
    assert max(fay_residual(surf, z1, p, Q_POINT, lam, mu) for p in pts) < 1e-9


def test_matrix_fay_degenerate_denominator(scalar_setup):
    surf, *_ = scalar_setup
    kt = direct_sum_kernel([
        line_kernel(surf, line_bundle(0.21, 0.37)),
        line_kernel(surf, line_bundle(0.72, 0.11)),
    ])
    # orthogonal vectors pair to zero through a block-diagonal kernel
    with pytest.raises(DegenerateDenominator):
        matrix_fay_residual(kt, kt, 0.21 + 0.33j, np.array([1.0, 0.0]),
                            0.67 + 0.52j, np.array([0.0, 1.0]),
                            Q_POINT, np.eye(2), [0.4 + 0.4j])


# --- full-rank multiplicative form ---

def full_rank_setup(r2=True):
    surf = torus_surface(TAU)
    lam, mu = 0.21 + 0.33j, 0.67 + 0.52j
    zt1 = line_bundle(0.31, 0.57)
    zt2 = line_bundle(0.81, 0.23)
    aw, bw, _ = divisor_characteristic(surf, [lam], [mu])
    zc1 = line_bundle(zt1.a - aw, zt1.b - bw)
    zc2 = line_bundle(zt2.a - aw, zt2.b - bw)
    if r2:
        kt = direct_sum_kernel([line_kernel(surf, zt1), line_kernel(surf, zt2)])
        ko = direct_sum_kernel([line_kernel(surf, zc1), line_kernel(surf, zc2)])
        r = 2
    else:
        kt, ko, r = line_kernel(surf, zt1), line_kernel(surf, zc1), 1
    data = InterpolationDataSet(
        surface=surf, rank=r,
        zeros=(ZeroNode(lam, np.eye(r)),),
        poles=(PoleNode(mu, np.eye(r)),),
    )
    return surf, data, ko, kt, lam, mu


def test_full_rank_agreement(rng):
    surf, data, ko, kt, lam, mu = full_rank_setup()
    Q = np.diag([1.2 - 0.1j, 0.8 + 0.4j])
    T_mult, gamma = full_rank_multiplicative(data, kt, Q_POINT, Q)
    T_sol = build_solution(data, Q_POINT, Q, ko, kt)
    for p in torus_points(rng, 10, avoid=[lam, mu, Q_POINT]):
        a, b = T_mult(p), T_sol(p)
        assert np.abs(a - b).max() / (np.abs(a).max() + np.abs(b).max()) < 1e-8
    assert np.abs(gamma + kt(lam, mu)).max() == 0.0


def test_full_rank_rank1_specializes(scalar_setup, rng):
    surf, data, ko, kt, lam, mu = full_rank_setup(r2=False)
    chi_t, chi = (FlatLineBundle(*k.channels.ab[0]) for k in (kt, ko))
    Q = 1.4 + 0.2j
    T_mult, _ = full_rank_multiplicative(data, kt, Q_POINT, np.array([[Q]]))
    T_scalar = scalar_multiplicative(surf, [lam], [mu], chi, chi_t, Q_POINT, Q)
    for p in torus_points(rng, 5, avoid=[lam, mu, Q_POINT]):
        a, b = T_mult(p)[0, 0], T_scalar(p)
        assert abs(a - b) / (abs(a) + abs(b)) < 1e-12


def test_full_rank_rejects_partial_data():
    surf, data, ko, kt, lam, mu = full_rank_setup()
    bad = InterpolationDataSet(
        surface=surf, rank=2,
        zeros=(ZeroNode(lam, np.array([[1.0, 0.2]])),),
        poles=(PoleNode(mu, np.eye(2)),),
    )
    with pytest.raises(InputError, match="standard basis vectors"):
        full_rank_multiplicative(bad, kt, Q_POINT, np.eye(2))


def test_full_rank_refuses_unequal_counts():
    """One zero and two poles have no multiplicative solution: T(p + tau)
    would not be T(p) times a unit multiplier.  full_rank_multiplicative
    raises NotSquare, as scalar_multiplicative does."""
    surf, data, ko, kt, lam, mu = full_rank_setup()
    eye = np.eye(2)
    uneven = InterpolationDataSet(surf, 2, (ZeroNode(lam, eye),),
                                  (PoleNode(mu, eye), PoleNode(0.83 + 0.11j, eye)))
    with pytest.raises(NotSquare, match="1 zeros vs 2 poles"):
        full_rank_multiplicative(uneven, kt, Q_POINT, eye)


def test_full_rank_checks_base_as_build_solution():
    """full_rank_multiplicative checks q and Q as build_solution does: q on
    the zero (where T would be NaN everywhere), Q as text or two numbers,
    and a singular Q (where T would be 0) get the same type and message."""
    surf, data, ko, kt, lam, mu = full_rank_setup()
    cases = [(lam, np.eye(2), PointOnExcludedSet), (Q_POINT, "ab", InputError),
             (Q_POINT, [1, 2], InputError), (Q_POINT, [[1, 2], [2, 4]], SingularMatrix)]
    for q, Q, error in cases:
        verdict = _verdict(lambda: full_rank_multiplicative(data, kt, q, Q))
        assert verdict == _verdict(lambda: build_solution(data, q, Q, ko, kt))
        assert verdict[0] is error


# --- array evaluation ---

def _rank2_data(surf, rng, zeros, poles):
    return InterpolationDataSet(
        surface=surf, rank=2,
        zeros=tuple(ZeroNode(z, rng.standard_normal((1, 2))) for z in zeros),
        poles=tuple(PoleNode(p, rng.standard_normal((1, 2))) for p in poles))


def two_call_value(data, q, Q, oracle_chi, oracle_tilde, p):
    """T(p) by the two-call route: Gamma by build_gamma, oracle_tilde
    called over the pairs of the kernel sum, then oracle_chi at (p, q),
    then a solve with that kernel value."""
    from zpint.absint import _weights

    q, Q = point(q), np.asarray(Q, dtype=complex)
    gamma = reference_gamma(data, oracle_tilde, q)
    ends = [q, *(node.point for node in data.poles for _ in range(node.count))]
    left, right = _weights(data, gamma)
    weight = np.concatenate([np.eye(data.rank)[None], left[:, :, None] * right[:, None, :]])
    kvals = oracle_tilde([p] * len(ends), ends)
    numer = (kvals @ weight).sum(axis=0)
    return np.linalg.solve(oracle_chi(p, q).T, (numer @ Q).T).T


def test_many_rows_bit_identical_to_calls(scalar_setup, rng):
    """T.many and T^-1.many agree with scalar calls bit for bit, give the
    base value in the row at q, and work on every kind of surface, plan and
    kernel in normal form (direct sums with a conjugated part; the table
    plan, the channel pass past MAX_TABLE_IM and the sphere's); off q each
    value agrees within 10 cond(Gamma) eps with the two-call route (a kernel
    batch for chi~, then one call of K(chi) and a solve), which the channel
    pass replaces: for T^-1 the transposed two-call value of the swapped
    problem (its data, the dual kernels and Q^-T).  On the torus the points
    include two lattice-shifted copies of the first (p + 3 - 2 tau and
    p - 1 + tau, reduced by n != 0), and two points that the plan's end
    test leaves to the full gap, which clears them: one in the band of
    the end q (the same Im) and one 2e-15 off it, inside the test's
    slack; every point of the Im(tau) = 300 case is in that band of every
    end.  Up to MAX_TABLE_IM a point at Im p / Im(tau) = 1/2 exactly, a
    tie of the reduction's rounding, joins them, and a case at
    tau = 0.2 + 0.15i has a small Im(tau)."""
    from zpint.absint import _swapped

    surf, zeros, poles, chi, chit, data = scalar_setup
    ko, kt = line_kernel(surf, chi), line_kernel(surf, chit)
    dsum_o = direct_sum_kernel([ko, line_kernel(surf, line_bundle(0.67, 0.19))])
    dsum_t = direct_sum_kernel([kt, line_kernel(surf, line_bundle(0.58, 0.73))])
    frame = np.array([[1.0, 0.4 - 0.2j], [0.1j, 0.9]])
    rank2 = _rank2_data(surf, rng, zeros, poles)
    sweep = torus_points(rng, 6, avoid=zeros + poles + [Q_POINT])
    sphere = genus0_surface()
    k0 = genus0_kernel(2, sphere)
    second_o = line_kernel(surf, line_bundle(0.67, 0.19))
    second_t = line_kernel(surf, line_bundle(0.58, 0.73))
    # direct sums with a conjugated part
    conj_o = direct_sum_kernel([conjugated_kernel(ko, [[1.5 - 0.5j]]), second_o])
    conj_t = direct_sum_kernel([conjugated_kernel(kt, [[0.7j]]), second_t])
    Q2 = np.array([[1.2, 0.3j], [-0.2, 0.8 + 0.1j]])
    cases = [
        (rank2, Q_POINT, Q2, dsum_o, dsum_t, sweep),
        (rank2, Q_POINT, Q2, conj_o, conj_t, sweep),
        (rank2, Q_POINT, Q2, conjugated_kernel(dsum_o, frame),
         conjugated_kernel(dsum_t, frame), sweep),
        (_rank2_data(sphere, rng, [2.0, -1.0j], [3.0 + 1j, 0.5]), 40.0 + 3j, Q2, k0, k0,
         [0.1, 1.5 - 2j, -3.0, 7.0j]),
        (data, Q_POINT, np.array([[1.3 - 0.4j]]), ko, kt, sweep),
    ]
    tall, tall_kernel, tall_q = large_im_tau_case()
    cases.append((tall, tall_q, Q2, tall_kernel, tall_kernel,
                  [x + 0.45 * tall.surface.tau for x in (0.125, 0.275, 0.425)]))
    low, low_chi, low_tilde, low_q = small_im_tau_case()
    cases.append((low, low_q, np.array([[0.8 + 0.3j]]), low_chi, low_tilde,
                  [x + y * low.surface.tau for x, y in ((0.3, 0.8), (0.7, 0.3), (0.9, 0.95))]))
    for case_data, q, Q, oracle_chi, oracle_tilde, P in cases:
        P = [P[0], q, *P[1:]]
        compared = len(P)
        if case_data.surface.genus:
            # the two routes round a lattice-shifted coordinate apart, at eps
            # |p|, and the multipliers of its theta rows carry that past 10
            # cond(Gamma) eps (3.1 times it at p + 3 - 2 tau), so the shifted
            # points are compared bit for bit only; at Im(tau) = 300 a B-cycle
            # shift leaves the double range of the channel pass (NonConvergent
            # on both entries), so that case shifts along the A cycle
            tau = case_data.surface.tau
            P += [q + 0.125, q + 0.125 + 2e-15j]
            if tau.imag <= MAX_TABLE_IM:
                P += [0.3 + 0.5 * tau]
                assert P[-1].imag / tau.imag == 0.5
            compared = len(P)
            shifts = (3 - 2 * tau, -1 + tau) if tau.imag <= MAX_TABLE_IM else (3, -1)
            P += [P[0] + shift for shift in shifts]
        Qinv = np.linalg.inv(Q)
        swapped = (_swapped(case_data), q, Qinv.T, oracle_chi.dual(), oracle_tilde.dual())
        for build, base in ((build_solution, Q), (build_inverse, Qinv)):
            T = build(case_data, q, Q, oracle_chi, oracle_tilde)
            tol = 10 * T.gamma.condition() * np.finfo(float).eps
            batch = T.many(P)
            assert batch.shape == (len(P), *Q.shape)
            assert np.array_equal(batch[1], base)
            for i, p in enumerate(P):
                assert np.array_equal(batch[i], T(p)), (build.__name__, p)
                if i != 1 and i < compared:
                    ref = (two_call_value(case_data, q, Q, oracle_chi, oracle_tilde, p)
                           if build is build_solution else two_call_value(*swapped, p).T)
                    assert rel_residual(batch[i], ref) <= tol, (build.__name__, p)


def test_rank2_inverse_inverts_solution(rng):
    """At rank 2 the folded zero weights of T^-1 are r x r blocks, not
    numbers, so a transposed block shows here and not at rank 1."""
    sphere = genus0_surface()
    k0 = genus0_kernel(2, sphere)
    data = _rank2_data(sphere, rng, [2.0, -1.0j], [3.0 + 1j, 0.5])
    Q = np.array([[1.2, 0.3j], [-0.2, 0.8 + 0.1j]])
    T = build_solution(data, 40.0 + 3j, Q, k0, k0)
    Ti = build_inverse(data, 40.0 + 3j, Q, k0, k0)
    P = [0.1, 1.5 - 2j, -3.0, 7.0j]
    assert np.abs(T.many(P) @ Ti.many(P) - np.eye(2)).max() < 1e-12


def test_inverse_inverts_coupled_solution(rng):
    """T^-1 on the rank-2 fixture with two coincident (zero, pole) pairs and
    their couplings, and on the same problem in a conjugated frame G
    (kernels G K G^-1, null rows x G^-1, pole rows u G^T, base value
    G Q G^-1): T(p) T^-1(p) = I, T^-1(q) = Q^-1 bit for bit, and T^-1
    raises PointOnExcludedSet at every zero of T."""
    from zpint.verify import _triangular_fixture

    surf, data, kc, kt, T, _ = _triangular_fixture(torus_surface(TAU), Q_POINT)
    G = np.array([[1.0, 0.4 - 0.2j], [0.1j, 0.9]])
    G_inv = np.linalg.inv(G)
    conj = InterpolationDataSet(
        surf, 2, tuple(ZeroNode(z.point, z.vectors @ G_inv) for z in data.zeros),
        tuple(PoleNode(p.point, p.vectors @ G.T) for p in data.poles), data.couplings)
    cases = [(data, T.Q, kc, kt),
             (conj, G @ T.Q @ G_inv, conjugated_kernel(kc, G), conjugated_kernel(kt, G))]
    nodes = [node.point for node in (*data.zeros, *data.poles)]
    P = torus_points(rng, 12, avoid=nodes + [Q_POINT])
    for case, Q, oracle_chi, oracle_tilde in cases:
        T = build_solution(case, Q_POINT, Q, oracle_chi, oracle_tilde)
        Ti = build_inverse(case, Q_POINT, Q, oracle_chi, oracle_tilde)
        assert np.abs(T.many(P) @ Ti.many(P) - np.eye(2)).max() <= 1e-12
        assert np.array_equal(Ti(Q_POINT), np.linalg.inv(Q))
        for zero in case.zeros:
            with pytest.raises(PointOnExcludedSet, match=re.escape(repr(zero.point))):
                Ti(zero.point)


def test_sphere_interpolant_is_finite_far_from_its_nodes(rng):
    """On the sphere K(chi) = I/(p - q) is invertible at every p != q, so T
    and T^-1 have values far from every node, with the trivial kernel and
    with a conjugated one: at |p - q| up to 1e300 T(p) is within 1e-12 of
    the classical T0(p) T0(q)^-1 Q and T(p) T^-1(p) of I, and a batch that
    mixes near, far and q points has the bits of the one-point calls.  Only
    where 1/(p - q) rounds to 0 (|p - q| near the largest double, where the
    value would be 0 / 0) does a point raise SingularMatrix, alone and in a
    batch, with no numpy warning."""
    sphere = genus0_surface()
    data = _rank2_data(sphere, rng, [2.0, -1.0j], [3.0 + 1j, 0.5])
    q, Q = 40.0 + 3j, np.array([[1.2, 0.3j], [-0.2, 0.8 + 0.1j]])
    t0 = solve_genus0(Genus0Problem(2, *([(n.point, n.vectors[0]) for n in nodes]
                                          for nodes in (data.zeros, data.poles))))
    right = np.linalg.solve(t0(q), Q)
    frame = np.array([[1.0, 0.4 - 0.2j], [0.1j, 0.9]])
    far = [q + gap * np.exp(1j * angle) for gap, angle in
           ((1e10, 0.3), (1e12, 2.1), (1e100, -1.2), (1e300, 3.0))]
    near = [0.1, 1.5 - 2j, 3.0 + 1j + 1e-9]
    mixed = [near[0], far[0], q, far[3], near[1], far[1], near[2], far[2]]
    for kernel in (genus0_kernel(2, sphere), conjugated_kernel(genus0_kernel(2, sphere), frame)):
        T = build_solution(data, q, Q, kernel, kernel)
        Ti = build_inverse(data, q, Q, kernel, kernel)
        values, inverses = T.many(far), Ti.many(far)
        assert np.isfinite(values).all() and np.isfinite(inverses).all()
        assert rel_residual(values, t0.many(far) @ right).max() <= 1e-12
        assert np.abs(values @ inverses - np.eye(2)).max() <= 1e-12
        for F in (T, Ti):
            batch = F.many(mixed)
            assert all(np.array_equal(batch[i], F(p)) for i, p in enumerate(mixed))
            for beyond in (1e308 + 1e308j, 1.7e308 - 1.7e308j):
                for call in (F, lambda p: F.many([far[2], q, p])):
                    # the point is refused with the typed error alone
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        with pytest.raises(SingularMatrix,
                                           match=re.escape(repr(point(beyond)))):
                            call(beyond)


def _outcome(read):
    """("value", the bits of read()) or (type, message) of what it raises,
    with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "value", read().tobytes()
        except Exception as exc:   # noqa: BLE001 -- the outcome itself is compared
            return type(exc), str(exc)


def test_points_on_an_end_coordinate_keep_their_bits(rng):
    """At points that share the real or the imaginary part of an end, where
    a difference p - e has a zero part, T(P[i]) has the bits of
    T.many(P)[i], for T and T^-1, with every warning an error: on a sphere
    problem (whose points also carry -0.0 parts against ends with +0.0
    ones, so that p - e has zeros of both signs) and on
    large_im_tau_case's torus, past MAX_TABLE_IM."""
    sphere = genus0_surface()
    tall, tall_kernel, tall_q = large_im_tau_case()
    cases = [(_rank2_data(sphere, rng, [2.0, -1.0j], [3.0 + 1j, 0.5]), genus0_kernel(2, sphere),
              -1.5 + 0.0j), (tall, tall_kernel, tall_q)]
    for data, oracle, q in cases:
        for build in (build_solution, build_inverse):
            T = build(data, q, np.eye(2), oracle, oracle)
            ends = T._plan.ends
            shapes = [lambda e, s: (e.real, e.imag + s), lambda e, s: (e.real + s, e.imag)]
            if not data.surface.genus:
                shapes += [lambda e, s: (-0.0, e.imag + s), lambda e, s: (e.real + s, -0.0)]
            P = np.array([complex(*shape(e, s)) for e in ends for s in (0.0625, -0.0, -0.09375)
                          for shape in shapes])
            P = P[data.surface.gap(P[:, None] - ends).min(axis=1) > 0.03]
            d = P[:, None] - ends
            assert (d.real == 0).any() and (d.imag == 0).any(), build.__name__
            if not data.surface.genus:
                assert np.signbit(d.real[d.real == 0]).any() or np.signbit(d.imag[d.imag == 0]).any()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batch = T.many(P)
                for p, row in zip(P, batch):
                    assert T(p).tobytes() == row.tobytes(), (build.__name__, p)


def test_torus_far_points_keep_their_outcome(scalar_setup, rng):
    """A torus point far out, where the lattice reduction of p or the phase
    of its factors loses its digits, has one outcome alone and in a batch:
    T(p), T.many([q, p]) and T.many([p]) raise the same exception with the
    same message, or give the same bits, for T and T^-1, with every
    warning an error.
    None is a Python OverflowError or ValueError of the one-point
    reduction, or a numpy RuntimeWarning.  The points include 1e307,
    whose table read overflows
    (NonConvergent, with numpy's flags ignored past the table's reach),
    the reach itself and the next doubles past it, on each axis, and
    q + 24577 tau, a lattice copy of the end q whose offsets Im p / Im(tau)
    and Im q / Im(tau), rounded apart, differ by 2.6e-12 / Im(tau) mod 1:
    the plan's end test must leave it to the full gap, which finds q
    (in the batch [q, p] the end q itself sends every point there).  The
    Im(tau) = 300 case (the channel pass) joins with a B-cycle shift of a
    sweep point, which that pass refuses, and the tau = 0.2 + 0.15i case
    with its smaller reach.  At tau = 0.2 + 0.08i the points 2e307i and
    2e307 + 2e307i lie below 2^1021 but their offsets Im p / Im(tau)
    overflow: they lie past the torus edge, so the distance test runs
    with numpy's flags ignored, and no overflow warning is emitted."""
    surf, zeros, poles, chi, chit, _ = scalar_setup
    dsum_o = direct_sum_kernel([line_kernel(surf, chi), line_kernel(surf, line_bundle(0.67, 0.19))])
    dsum_t = direct_sum_kernel([line_kernel(surf, chit),
                                line_kernel(surf, line_bundle(0.58, 0.73))])
    tall, tall_kernel, tall_q = large_im_tau_case()
    low, low_chi, low_tilde, low_q = small_im_tau_case()
    lower, lower_chi, lower_tilde, lower_q = small_im_tau_case(0.2 + 0.08j)
    far = [1e17 + 1e17j, 3e15j, 1e200, 1e307, 1e308 + 1e308j]
    cases = [(_rank2_data(surf, rng, zeros, poles), Q_POINT, dsum_o, dsum_t,
              [*far, Q_POINT + 24577 * TAU]),
             (tall, tall_q, tall_kernel, tall_kernel, [*far, 0.2 + 1.45 * tall.surface.tau]),
             (low, low_q, low_chi, low_tilde, far),
             (lower, lower_q, lower_chi, lower_tilde, [*far, 2e307j, 2e307 + 2e307j])]
    for data, q, oracle_chi, oracle_tilde, points in cases:
        for build in (build_solution, build_inverse):
            T = build(data, q, np.eye(data.rank), oracle_chi, oracle_tilde)
            edge = []
            if T._plan.table is not None:
                reach = T._plan.table.reach
                beyond = np.nextafter(reach, np.inf)
                edge = [reach, beyond, 1j * reach, 1j * beyond, reach * (1 + 1j)]
            for p in [*points, *edge]:
                alone = _outcome(lambda: T(p))
                assert alone == _outcome(lambda: T.many([q, p])[1]), (build.__name__, p)
                assert alone == _outcome(lambda: T.many([p])[0]), (build.__name__, p)
                assert alone[0] not in (OverflowError, ValueError, RuntimeWarning), \
                    (build.__name__, p, alone)


def test_many_raises_at_inverse_kernel_pole(scalar_setup, rng):
    """T and T^-1 refuse the zeros of their K(chi) factor (K(chi; ., q) for
    T, K(chi; q, .) for T^-1, by its dual channels), which their plans keep
    in closed form: at a zero, at a lattice copy of it and half POINT_TOL
    off it, SingularMatrix "kernel value numerically singular" naming the
    point, alone and in a batch with q (the plan's bound leaves it to the
    full gap) and without.  Twice POINT_TOL off, the point clears the
    distance test, and T answers from the formula: a finite value with the
    same bits alone and in a batch.  Rank-1 line kernels, and a rank-2
    direct sum under a frame, whose two zeros are both refused."""
    surf, zeros, poles, chi, chit, data = scalar_setup
    ko, kt = line_kernel(surf, chi), line_kernel(surf, chit)
    z_chi = complex(chi.jacobian_point(surf.period)[0])
    shift = z_chi - (1 + TAU) / 2
    frame = np.array([[1.0, 0.4 - 0.2j], [0.1j, 0.9]])
    dsum_o = conjugated_kernel(direct_sum_kernel([ko, line_kernel(surf, line_bundle(0.67, 0.19))]),
                               frame)
    dsum_t = direct_sum_kernel([kt, line_kernel(surf, line_bundle(0.58, 0.73))])
    cases = [(data, ko, kt), (_rank2_data(surf, rng, zeros, poles), dsum_o, dsum_t)]
    for case_data, oracle_chi, oracle_tilde in cases:
        for build, sign in ((build_solution, 1), (build_inverse, -1)):
            T = build(case_data, Q_POINT, np.eye(case_data.rank), oracle_chi, oracle_tilde)
            assert len(T._plan.zeros) == case_data.rank
            # the closed form of the first channel, by hand
            assert abs(T._plan.zeros[0] - lattice_reduce(Q_POINT + sign * shift, TAU)) <= 1e-15
            for p0 in T._plan.zeros:
                for p in (p0, p0 + 1 - 2 * TAU, p0 + 0.5e-12j, p0 - 0.3e-12 + 0.4e-12j):
                    p = point(p)
                    for call in (T, lambda p: T.many([0.41 + 0.33j, Q_POINT, p]),
                                 lambda p: T.many([0.41 + 0.33j, p])):
                        with pytest.raises(SingularMatrix) as raised:
                            call(p)
                        assert str(raised.value) == f"kernel value numerically singular at p = {p!r}"
                for p in (p0 + 2e-12, p0 - 1.2e-12 - 1.6e-12j):
                    value = T(p)
                    assert np.isfinite(value).all()
                    assert T.many([0.41 + 0.33j, Q_POINT, p])[2].tobytes() == value.tobytes()
                    assert T.many([p])[0].tobytes() == value.tobytes()


def test_torus_interpolant_call_makes_no_lattice_pass(scalar_setup, rng, monkeypatch):
    """One T(p) and one T^-1(p) with rank-2 direct-sum kernels each read the
    frozen table of their ends once (one theta_table_rows call, for the chi~
    kernels, K(chi) and the odd theta together) and make no lattice pass:
    no theta._sums, theta_rows, theta_many or scalar theta call; theta(0)
    is read from the line kernels."""
    import zpint.kernels
    import zpint.surface
    import zpint.theta

    surf, zeros, poles, chi, chit, _ = scalar_setup
    dsum_o = direct_sum_kernel([line_kernel(surf, chi),
                                line_kernel(surf, line_bundle(0.67, 0.19))])
    dsum_t = direct_sum_kernel([line_kernel(surf, chit),
                                line_kernel(surf, line_bundle(0.58, 0.73))])
    data = _rank2_data(surf, rng, zeros, poles)
    calls = []

    def counting(name, original):
        return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

    for build in (build_solution, build_inverse):
        T = build(data, Q_POINT, np.eye(2), dsum_o, dsum_t)
        with monkeypatch.context() as patch:
            for name in ("theta_many", "theta_rows", "theta_with_char", "riemann_theta", "_sums",
                         "theta_table_rows"):
                original = getattr(zpint.theta, name)
                for module in (zpint.theta, zpint.surface, zpint.kernels):
                    if hasattr(module, name):
                        patch.setattr(module, name, counting(name, original))
            calls.clear()
            T(0.41 + 0.33j)
        assert calls == ["theta_table_rows"], build.__name__


def test_torus_builds_make_no_lattice_pass(scalar_setup, rng, monkeypatch):
    """build_solution and build_inverse with rank-2 direct-sum kernels on
    the torus make no lattice pass (no theta._sums, theta_rows, theta_many
    or scalar theta call): each walks the theta table of its ends, and the
    dual kernels of T^-1 reuse theta[a; b](0)."""
    import zpint.kernels
    import zpint.surface
    import zpint.theta

    surf, zeros, poles, chi, chit, _ = scalar_setup
    dsum_o = direct_sum_kernel([line_kernel(surf, chi),
                                line_kernel(surf, line_bundle(0.67, 0.19))])
    dsum_t = direct_sum_kernel([line_kernel(surf, chit),
                                line_kernel(surf, line_bundle(0.58, 0.73))])
    data = _rank2_data(surf, rng, zeros, poles)

    def refused(*args, **kwargs):
        raise AssertionError("a lattice pass")

    for name in ("_sums", "theta_rows", "theta_many", "theta_with_char", "riemann_theta"):
        for module in (zpint.theta, zpint.surface, zpint.kernels):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    for build in (build_solution, build_inverse, build_inverse):
        assert np.isfinite(build(data, Q_POINT, np.eye(2), dsum_o, dsum_t)(0.41 + 0.33j)).all()


def _interpolant_cases(scalar_setup, rng):
    """(data, q, oracle_chi, oracle_tilde, points away from q and the nodes)
    for rank-2 direct sums of line kernels on the torus and the trivial
    kernel on the sphere."""
    surf, zeros, poles, chi, chit, _ = scalar_setup
    dsum_o = direct_sum_kernel([line_kernel(surf, chi),
                                line_kernel(surf, line_bundle(0.67, 0.19))])
    dsum_t = direct_sum_kernel([line_kernel(surf, chit),
                                line_kernel(surf, line_bundle(0.58, 0.73))])
    sphere = genus0_surface()
    k0 = genus0_kernel(2, sphere)
    sweep = torus_points(rng, 100, avoid=zeros + poles + [Q_POINT])
    plane = list(rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100))
    return [(_rank2_data(surf, rng, zeros, poles), Q_POINT, dsum_o, dsum_t, sweep),
            (_rank2_data(sphere, rng, [2.0, -1.0j], [3.0 + 1j, 0.5]), 40.0 + 3j, k0, k0,
             plane)]


@pytest.mark.parametrize("n", [1, 7, 100])
def test_many_rows_bit_identical_to_one_point_calls(scalar_setup, rng, n):
    """T.many(P)[i] has the bits of T(P[i]) at N = 1, 7 and 100, for T and
    T^-1, on the torus and on the sphere: a batch is N units of the one
    frozen layout."""
    for data, q, ko, kt, sweep in _interpolant_cases(scalar_setup, rng):
        for build in (build_solution, build_inverse):
            T = build(data, q, np.eye(2) + 0.3j, ko, kt)
            P = sweep[:n]
            batch = T.many(P)
            assert all(np.array_equal(batch[i], T(p)) for i, p in enumerate(P)), build.__name__


def test_interpolant_rejects_non_finite_points(scalar_setup, rng):
    """T and T^-1 at a NaN or infinite point raise InputError naming the
    point, alone and inside a batch, on the torus and on the sphere."""
    for data, q, ko, kt, sweep in _interpolant_cases(scalar_setup, rng):
        for build in (build_solution, build_inverse):
            T = build(data, q, np.eye(2), ko, kt)
            for bad in (complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.2, -np.inf)):
                with pytest.raises(InputError, match=re.escape(repr(bad))):
                    T(bad)
                with pytest.raises(InputError, match=re.escape(repr(bad))):
                    T.many([sweep[0], q, bad])


def test_interpolant_raises_at_its_poles(scalar_setup, rng):
    """T at a pole node and T^-1 at a zero node raise PointOnExcludedSet
    naming the point, alone and inside a batch, on three tori and on the
    sphere: at the node, at its lattice translates by 1 and tau, and
    0.5 POINT_TOL from it along 1, i and tau/|tau|.  2 POINT_TOL from any
    node along those directions, and at the other side's nodes, T is a
    finite value, alone and in a batch; at q + 0.5 POINT_TOL it is Q
    exactly.  Text and non-finite points raise InputError."""
    surf, zeros, poles, chi, chit, _ = scalar_setup
    sphere = genus0_surface()
    k0 = genus0_kernel(2, sphere)
    sphere_zeros, sphere_poles = [2.0, -1.0j], [3.0 + 1j, 0.5]
    cases = [(_rank2_data(sphere, rng, sphere_zeros, sphere_poles), 40.0 + 3j, k0, k0,
              sphere_zeros, sphere_poles, 0.1 - 0.7j, (), (1.0, 1.0j))]
    for tau in (TAU, -0.5 + 0.9j, 0.2 + 40j):
        torus = torus_surface(tau)
        dsum_o = direct_sum_kernel([line_kernel(torus, chi),
                                    line_kernel(torus, line_bundle(0.67, 0.19))])
        dsum_t = direct_sum_kernel([line_kernel(torus, chit),
                                    line_kernel(torus, line_bundle(0.58, 0.73))])
        cases.append((_rank2_data(torus, rng, zeros, poles), Q_POINT, dsum_o, dsum_t, zeros,
                      poles, 0.41 + 0.33j, (1.0, tau), (1.0, 1.0j, tau / abs(tau))))
    for data, q, ko, kt, zs, ps, away, periods, directions in cases:
        for build, on, off in ((build_solution, ps, zs), (build_inverse, zs, ps)):
            T = build(data, q, np.eye(2), ko, kt)
            excluded = [node + w for node in on for w in (0.0, *periods)]
            excluded += [node + 0.5 * POINT_TOL * u for node in on for u in directions]
            for p in excluded:
                with pytest.raises(PointOnExcludedSet, match=re.escape(repr(point(p)))):
                    T(p)
                with pytest.raises(PointOnExcludedSet, match=re.escape(repr(point(p)))):
                    T.many([away, q, p])
            at_q = q + 0.5 * POINT_TOL
            finite = [away, at_q, *off]
            finite += [node + 2 * POINT_TOL * u for node in (*on, *off) for u in directions]
            batch = T.many(finite)
            assert np.isfinite(batch).all()
            assert all(np.array_equal(T(p), value) for p, value in zip(finite, batch))
            assert np.array_equal(T(at_q), np.eye(2))
            for bad in ("ab", np.nan, np.inf):
                with pytest.raises(InputError):
                    T(bad)


def test_build_refuses_kernels_of_another_rank(scalar_setup, rng):
    """A rank-1 kernel for rank-2 data, as K(chi) or as K(chi~), is refused
    by build_solution and build_inverse with InputError."""
    surf, zeros, poles, chi, chit, _ = scalar_setup
    data = _rank2_data(surf, rng, zeros, poles)
    one = line_kernel(surf, chi)
    two = direct_sum_kernel([one, line_kernel(surf, line_bundle(0.67, 0.19))])
    for build in (build_solution, build_inverse):
        for ko, kt in ((one, two), (two, one), (one, one)):
            with pytest.raises(InputError, match="kernels of rank"):
                build(data, Q_POINT, np.eye(2), ko, kt)


NUMPY_MA_PROBE = """
import sys
import numpy as np
from zpint.absint import InterpolationDataSet, build_solution, divisor_characteristic
from zpint.kernels import direct_sum_kernel, line_kernel
from zpint.surface import line_bundle, torus_surface

tau = 0.1 + 1.05j
surf = torus_surface(tau)
blocks = [([0.21 + 0.33j, 0.62 + 0.71j], [0.45 + 0.12j, 0.83 + 0.52j], line_bundle(0.23, 0.41)),
          ([0.12 + 0.82j, 0.71 + 0.25j], [0.33 + 0.55j, 0.91 + 0.93j], line_bundle(0.67, 0.19))]
zeros, poles, chis, tildes = [], [], [], []
for k, (zs, ps, chi) in enumerate(blocks):
    e_k = np.eye(2)[k:k + 1]
    zeros += [(z, e_k) for z in zs]
    poles += [(p, e_k) for p in ps]
    a_w, b_w, _ = divisor_characteristic(surf, zs, ps)
    chis.append(line_kernel(surf, chi))
    tildes.append(line_kernel(surf, line_bundle(chi.a + a_w, chi.b + b_w)))
data = InterpolationDataSet(surf, 2, tuple(zeros), tuple(poles))
T = build_solution(data, 0.52 + 0.18j, np.diag([1.2 - 0.1j, 0.8 + 0.4j]),
                   direct_sum_kernel(chis), direct_sum_kernel(tildes))
grid = np.linspace(0.03, 0.97, 20)
values = T.many((grid[:, None] + tau * grid[None, :]).ravel())
assert np.isfinite(values).all()
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_solve_and_sweep_do_not_import_numpy_ma():
    """numpy.ma costs a fresh process over a megabyte of peak memory; a
    torus solve and a 400-point sweep, which sums theta in chunks, must not
    import it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import zpint

    src = str(Path(zpint.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert result.returncode == 0, result.stderr
