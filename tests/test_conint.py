"""Concrete interpolation: coupling equality, gamma update, intertwining,
the coupled coincidence condition, and the collection-formula consequences."""

import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from zpint.absint import (
    InterpolationDataSet,
    PoleNode,
    ZeroNode,
    build_gamma,
    build_solution,
    divisor_characteristic,
    forward_couplings,
    scalar_multiplicative,
)
from zpint.conint import (
    DEFAULT_XI,
    SECOND_XI,
    ConintSolution,
    build_gamma0,
    check_condition_I3,
    check_gamma_equality,
    check_intertwining,
    convert_absint_to_conint,
    solve_conint,
)
from zpint.detrep import adjust_gamma_by_map, build_pencil, curve_membership
from zpint.errors import (
    InputError,
    NoCoincidence,
    PointOnExcludedSet,
    XiDenominatorZero,
    ZPViolated,
)
from zpint.kernels import direct_sum_kernel, line_kernel
from zpint.surface import lattice_reduce, line_bundle, torus_surface
from zpint.verify import check

TAU = 0.25 + 1.1j
Q_POINT = 0.52 + 0.18j
EMB_POINTS = (0.16 + 0.23j, 0.55 + 0.66j, 0.79 + 0.16j)


def torus_points(rng, n, avoid=()):
    out = []
    while len(out) < n:
        z = rng.uniform(0.03, 0.97) + rng.uniform(0.03, 0.97) * TAU
        if all(abs(z - a) > 0.05 for a in tuple(avoid) + tuple(out)):
            out.append(z)
    return out


@pytest.fixture(scope="module")
def scalar_case():
    surf = torus_surface(TAU)
    zeros = [0.13 + 0.27j, 0.61 + 0.43j]
    poles = [0.37 + 0.71j, 0.83 + 0.11j]
    chi = line_bundle(0.23, 0.41)
    a_w, b_w, _ = divisor_characteristic(surf, zeros, poles)
    chit = line_bundle(chi.a + a_w, chi.b + b_w)
    ko, kt = line_kernel(surf, chi), line_kernel(surf, chit)
    data = InterpolationDataSet(
        surface=surf, rank=1,
        zeros=tuple(ZeroNode(z, np.array([[1.0]])) for z in zeros),
        poles=tuple(PoleNode(p, np.array([[1.0]])) for p in poles),
    )
    T = build_solution(data, Q_POINT, np.array([[1.3 - 0.4j]]), ko, kt)
    from zpint.surface import build_embedding_functions

    emb = build_embedding_functions(surf, *EMB_POINTS)
    converted = convert_absint_to_conint(data, kt, emb)
    return surf, data, ko, kt, T, emb, converted.pencil, converted


@pytest.fixture(scope="module")
def triangular_case():
    surf = torus_surface(TAU)
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
    mu_g_red = lattice_reduce(mu_g, TAU)
    zeros = (ZeroNode(xi_c, e1), ZeroNode(lam_star, e2), ZeroNode(mu_g_red, e2))
    poles = (PoleNode(mu_star, e1), PoleNode(xi_c, e2), PoleNode(mu_g_red, e1))
    rho = forward_couplings(t_known, surf, zeros, poles, ko, kt, Q_POINT)
    data = InterpolationDataSet(surface=surf, rank=2, zeros=zeros, poles=poles,
                                couplings=rho)
    T = build_solution(data, Q_POINT, t_known(Q_POINT), ko, kt)
    from zpint.surface import build_embedding_functions

    emb = build_embedding_functions(surf, *EMB_POINTS)
    converted = convert_absint_to_conint(data, kt, emb)
    return surf, data, ko, kt, T, emb, converted.pencil, converted


def test_converted_vectors_live_in_kernels(scalar_case):
    *_, converted = scalar_case
    # construction of ConintDataSet validates membership at 1e-8 already;
    # re-check explicitly at a tighter scale
    for node, affine in zip(converted.poles, converted.pole_affine):
        mat = converted.pencil.pencil(*affine)
        for vec in node.vectors:
            assert np.linalg.norm(mat @ vec) < 1e-9 * np.linalg.norm(mat)
    for node, affine in zip(converted.zeros, converted.zero_affine):
        mat = converted.pencil.pencil(*affine)
        for vec in node.vectors:
            assert np.linalg.norm(vec @ mat) < 1e-9 * np.linalg.norm(mat)


def test_gamma0_xi_independence(scalar_case, rng):
    *_, converted = scalar_case
    g_a = build_gamma0(converted, DEFAULT_XI)
    g_b = build_gamma0(converted, SECOND_XI)
    xi_r = (rng.standard_normal() + 1j * rng.standard_normal(),
            rng.standard_normal() + 1j * rng.standard_normal())
    g_c = build_gamma0(converted, xi_r)
    scale = np.abs(g_a).max()
    assert np.abs(g_a - g_b).max() < 1e-8 * scale
    assert np.abs(g_a - g_c).max() < 1e-8 * scale


def test_gamma0_coincident_rule(triangular_case):
    *_, converted = triangular_case
    gamma0 = build_gamma0(converted, DEFAULT_XI)
    rho = converted.couplings[(0, 1)]
    # zero node 0 occupies row 0, pole node 1 occupies column 1
    assert abs(gamma0[0, 1] + rho[0, 0]) < 1e-12


def test_gamma_equality(scalar_case, triangular_case):
    surf, data, ko, kt, T, emb, pencil_t, converted = scalar_case
    assert check_gamma_equality(data, kt, converted) < 1e-8
    surf2, data2, ko2, kt2, *_rest = triangular_case
    converted2 = triangular_case[-1]
    assert check_gamma_equality(data2, kt2, converted2) < 1e-7


def test_gamma_equality_negative_control(scalar_case):
    surf, data, ko, kt, T, emb, pencil_t, converted = scalar_case
    zeros = tuple(ZeroNode(z.point, z.vectors * (1 + 0.01) + 0.01 * np.ones_like(z.vectors))
                  for z in converted.zeros)
    tampered = replace(converted, zeros=zeros, membership_tol=1.0)
    assert check_gamma_equality(data, kt, tampered) > 1e-3


def test_scalar_pairing_relation(scalar_case):
    # psi (xi.sigma) phi = Gamma * (xi.(mu - lambda)) entrywise: the
    # normalized-section pairing reproduces the abstract coupling entry
    # times the direction denominator, which is what makes the two
    # coupling matrices equal.
    surf, data, ko, kt, T, emb, pencil_t, converted = scalar_case
    gamma = build_gamma(data, kt).matrix
    xi = DEFAULT_XI
    sig = complex(xi[0]) * pencil_t.sigma1 + complex(xi[1]) * pencil_t.sigma2
    for i, (zn, za) in enumerate(zip(converted.zeros, converted.zero_affine)):
        for j, (pn, pa) in enumerate(zip(converted.poles, converted.pole_affine)):
            pairing = (zn.vectors @ sig @ pn.vectors.T).item()
            denom = xi[0] * (pa[0] - za[0]) + xi[1] * (pa[1] - za[1])
            assert abs(pairing - gamma[i, j] * denom) < 1e-8 * (1 + abs(pairing))


def test_concrete_layout_shapes_and_entries(scalar_case):
    *_, emb, pencil_t, converted = scalar_case
    size = converted.pencil.size
    for nodes, rows, affine in ((converted.zeros, converted.zero_rows, converted.zero_affine),
                                (converted.poles, converted.pole_rows, converted.pole_affine)):
        assert rows.vectors.shape == (len(nodes), size)
        assert affine.shape == (len(nodes), 2)
        assert np.array_equal(affine, emb.lambda_values([n.point for n in nodes]))
    # the pole-side gap xi.(z - mu) vanishes exactly at a node
    xi = DEFAULT_XI
    z = converted.pole_affine[0]
    per_row = converted.pole_affine[converted.pole_rows.node_of]
    d = xi[0] * (z[0] - per_row[:, 0]) + xi[1] * (z[1] - per_row[:, 1])
    assert d[0] == 0.0 and np.all(d[1:] != 0.0)


def test_gamma0_and_adjustment_match_pair_formulas(triangular_case):
    """Rank 2 with coincidences: Gamma0 and the boundary-value adjustment
    agree with their per-pair formulas to 1e-15 of the largest entry."""
    surf, data, ko, kt, T, emb, pencil_t, converted = triangular_case
    xi = DEFAULT_XI
    sig = xi[0] * pencil_t.sigma1 + xi[1] * pencil_t.sigma2
    ref = np.block([[
        -converted.couplings[(i, j)] if (i, j) in converted.couplings
        else (zn.vectors @ sig @ pn.vectors.T)
        / (xi[0] * (pa[0] - za[0]) + xi[1] * (pa[1] - za[1]))
        for j, (pn, pa) in enumerate(zip(converted.poles, converted.pole_affine))]
        for i, (zn, za) in enumerate(zip(converted.zeros, converted.zero_affine))])
    assert len(converted.couplings) == 2
    gamma0 = build_gamma0(converted, xi)
    assert np.abs(gamma0 - ref).max() <= 1e-15 * np.abs(ref).max()

    pencil_chi = build_pencil(ko, emb)
    values = [T(x) for x in emb.pole_points]
    r, gamma = pencil_chi.rank, pencil_chi.gamma
    blocks = [[gamma[i * r:(i + 1) * r, j * r:(j + 1) * r] for j in range(emb.m)]
              for i in range(emb.m)]
    ref = np.block([[   # the diagonal blocks are scalars, which conjugation keeps
        blocks[i][j] if i == j else values[i] @ blocks[i][j] @ np.linalg.inv(values[j])
        for j in range(emb.m)] for i in range(emb.m)])
    adjusted = adjust_gamma_by_map(pencil_chi, values).gamma
    assert np.abs(adjusted - ref).max() <= 1e-15 * np.abs(ref).max()


def test_empty_data_gives_identity(scalar_case):
    surf, data, ko, kt, T, emb, pencil_t, converted = scalar_case
    empty_abs = InterpolationDataSet(surface=surf, rank=1, zeros=(), poles=())
    empty = convert_absint_to_conint(empty_abs, kt, emb)
    assert empty.zero_rows.vectors.shape == empty.pole_rows.vectors.shape == (0, pencil_t.size)
    solution = solve_conint(empty)
    assert np.array_equal(solution.gamma, pencil_t.gamma)
    z = emb.lambda_values(0.31 + 0.44j)
    assert np.array_equal(solution.s_matrix(z), np.eye(pencil_t.size))


def test_gamma_update_membership_and_adjusted_equality(scalar_case, rng):
    surf, data, ko, kt, T, emb, pencil_t, converted = scalar_case
    solution = solve_conint(converted)
    avoid = list(emb.pole_points)
    for p in torus_points(rng, 10, avoid=avoid):
        det_rel, kdim = curve_membership(solution.pencil_new, emb, p)
        assert det_rel < 1e-7 and kdim == 1
    # two-route check: gamma update equals the boundary-value adjustment
    pencil_chi = build_pencil(ko, emb)
    adjusted = adjust_gamma_by_map(pencil_chi, [T(x) for x in emb.pole_points])
    scale = np.abs(solution.gamma).max()
    assert np.abs(solution.gamma - adjusted.gamma).max() < 1e-9 * scale


def test_s_restriction_and_xi_independence(scalar_case, rng):
    surf, data, ko, kt, T, emb, pencil_t, converted = scalar_case
    solution = solve_conint(converted)
    assert solution.xi_consistency < 1e-8
    avoid = list(emb.pole_points)
    for p in torus_points(rng, 8, avoid=avoid):
        z = emb.lambda_values(p)
        mat = solution.pencil_new.pencil(*z)
        _, _, vh = np.linalg.svd(mat)
        v = vh[-1].conj().reshape(-1, 1)
        image_a = solution.apply(z, v, xi=DEFAULT_XI)
        image_b = solution.apply(z, v, xi=SECOND_XI)
        assert np.abs(image_a - image_b).max() < 1e-8 * np.abs(image_a).max()
        ref = pencil_t.pencil(*z)
        num = np.linalg.norm(ref @ image_a)
        den = np.linalg.norm(ref) * np.linalg.norm(image_a)
        assert num / den < 1e-7


def test_array_direction_reads_as_its_tuple(scalar_case, rng):
    """A direction given as a numpy array gives S, its left inverse and
    apply with the bits of the same direction as a tuple."""
    *_, emb, pencil_t, converted = scalar_case
    solution = solve_conint(converted)
    z = emb.lambda_values(torus_points(rng, 3, avoid=list(emb.pole_points)))
    v = np.ones((len(z), pencil_t.size, 1))
    for xi in (DEFAULT_XI, SECOND_XI):
        for read in (solution.s_matrix, solution.s_left_inv_matrix):
            assert np.array_equal(read(z, np.array(xi)), read(z, xi))
        assert np.array_equal(solution.apply(z, v, xi=np.array(xi)), solution.apply(z, v, xi=xi))


def test_intertwining(scalar_case, triangular_case, rng):
    for case in (scalar_case, triangular_case):
        surf, data, ko, kt, T, emb, pencil_t, converted = case
        solution = solve_conint(converted)
        avoid = list(emb.pole_points)
        avoid += [n.point for n in (*data.zeros, *data.poles)]
        avoid += [Q_POINT]
        for p in torus_points(rng, 5, avoid=avoid):
            assert check_intertwining(solution, T, ko, kt, emb, p) < 1e-7


def test_intertwining_over_arrays_matches_per_point_loop(scalar_case, triangular_case, rng):
    """One check over five points against a loop of single-pair kernel calls,
    T at each point and S at one affine point; the residuals are of scale 1,
    so roundoff in the stacked products moves them by at most 1e-15."""
    norm = np.linalg.norm
    for case in (scalar_case, triangular_case):
        surf, data, ko, kt, T, emb, pencil_t, converted = case
        solution = solve_conint(converted)
        avoid = list(emb.pole_points) + [Q_POINT]
        avoid += [n.point for n in (*data.zeros, *data.poles)]
        P = np.array(torus_points(rng, 5, avoid=avoid))
        residuals = check_intertwining(solution, T, ko, kt, emb, P)
        assert residuals.shape == (5,)
        r = ko.rank
        for p, value in zip(P, residuals):
            u_in = np.vstack([ko(x, p) for x in emb.pole_points])
            lifted = np.vstack([T(x) @ u_in[i * r:(i + 1) * r]
                                for i, x in enumerate(emb.pole_points)])
            lhs = solution.apply(emb.lambda_values(p), lifted)
            rhs = np.vstack([kt(x, p) for x in emb.pole_points]) @ T(p)
            assert abs(value - norm(lhs - rhs) / (norm(lhs) + norm(rhs))) <= 1e-15
            assert value < 1e-7


def test_intertwining_excluded_points(scalar_case):
    surf, data, ko, kt, T, emb, pencil_t, converted = scalar_case
    solution = solve_conint(converted)
    with pytest.raises(PointOnExcludedSet):
        check_intertwining(solution, T, ko, kt, emb, emb.pole_points[0])
    with pytest.raises(PointOnExcludedSet):
        check_intertwining(solution, T, ko, kt, emb, data.zeros[0].point)


def test_condition_i3_round_trip(triangular_case):
    *_, converted = triangular_case
    solution = solve_conint(converted)
    for pair in converted.coincident_pairs():
        res_a = check_condition_I3(solution, triangular_case[5], pair, xi=DEFAULT_XI)
        res_b = check_condition_I3(solution, triangular_case[5], pair, xi=SECOND_XI)
        assert res_a.max() < 1e-5
        assert res_b.max() < 1e-5
        assert np.abs(res_a - res_b).max() < 1e-6


def test_condition_i3_perturbation_sensitivity(triangular_case):
    *_, emb, pencil_t, converted = triangular_case[4:]
    solution = solve_conint(converted)
    tampered_data = replace(converted,
                            couplings={k: v + 0.01 for k, v in converted.couplings.items()})
    tampered = ConintSolution(tampered_data, solution.gamma0, solution.gamma,
                              solution.xi_consistency)
    res = check_condition_I3(tampered, emb, (0, 1))
    rho = converted.couplings[(0, 1)]
    expected = 0.01 / (2 * abs(rho[0, 0]) + 1.01)
    assert res.max() > 0.3 * expected
    assert res.max() > 1e-4


def test_stacked_s_left_inverse_matches_points_and_tamper_still_fails(triangular_case, rng):
    """s_left_inv_matrix over a stack of affine pairs equals its one-point
    calls within 1e-14, and the I3 check on tampered couplings, whose
    circle is read through that stack, still fails its battery tolerance."""
    *_, emb, pencil_t, converted = triangular_case[4:]
    solution = solve_conint(converted)
    z = emb.lambda_values(torus_points(rng, 6, avoid=list(emb.pole_points)))
    for xi in (None, SECOND_XI):
        stacked = solution.s_left_inv_matrix(z, xi)
        one = np.array([solution.s_left_inv_matrix(pair, xi) for pair in z])
        assert stacked.shape == one.shape == (6, pencil_t.size, pencil_t.size)
        assert np.abs(stacked - one).max() <= 1e-14 * max(1.0, np.abs(one).max())
    tampered = ConintSolution(
        replace(converted, couplings={k: v + 0.01 for k, v in converted.couplings.items()}),
        solution.gamma0, solution.gamma, solution.xi_consistency)
    assert not check("conint.coupling_round_trip",
                     check_condition_I3(tampered, emb, (0, 1)).max(), 1e-5)["passed"]


def test_condition_i3_requires_coincidence(scalar_case):
    *_, emb, pencil_t, converted = scalar_case[4:]
    solution = solve_conint(converted)
    with pytest.raises(NoCoincidence):
        check_condition_I3(solution, emb, (0, 0))


def test_zp_violation_rejected(triangular_case):
    *_, converted = triangular_case
    zeros = tuple(ZeroNode(z.point, z.vectors + 0.05 * np.roll(z.vectors, 1, axis=1))
                  for z in converted.zeros)
    bad = replace(converted, zeros=zeros, membership_tol=1.0)
    with pytest.raises(ZPViolated):
        solve_conint(bad)


def test_singular_and_nonsquare_gamma0(scalar_case):
    from zpint.errors import NotSquare, SingularMatrix

    surf, data, ko, kt, T, emb, pencil_t, converted = scalar_case
    chi2 = line_bundle(0.67, 0.19)
    ksum = direct_sum_kernel([kt, line_kernel(surf, chi2)])
    # orthogonal basis data kills every pairing: zero coupling matrix
    degenerate = InterpolationDataSet(
        surface=surf, rank=2,
        zeros=(ZeroNode(0.13 + 0.27j, np.array([[0.0, 1.0]])),),
        poles=(PoleNode(0.37 + 0.71j, np.array([[1.0, 0.0]])),),
    )
    conv = convert_absint_to_conint(degenerate, ksum, emb)
    with pytest.raises(SingularMatrix, match="^concrete coupling matrix condition"):
        solve_conint(conv)
    lopsided = InterpolationDataSet(
        surface=surf, rank=1,
        zeros=(ZeroNode(0.13 + 0.27j, np.array([[1.0]])),),
        poles=tuple(PoleNode(p.point, p.vectors) for p in data.poles),
    )
    conv2 = convert_absint_to_conint(lopsided, kt, emb)
    with pytest.raises(NotSquare):
        solve_conint(conv2)


def test_xi_denominator_zero(scalar_case):
    *_, converted = scalar_case
    z0 = converted.zero_affine[0]
    p0 = converted.pole_affine[0]
    diff = (p0[0] - z0[0], p0[1] - z0[1])
    xi_bad = (diff[1], -diff[0])
    with pytest.raises(XiDenominatorZero):
        build_gamma0(converted, xi_bad)


def test_pole_collision_rejected(scalar_case):
    surf, data, ko, kt, T, emb, pencil_t, converted = scalar_case
    clash = InterpolationDataSet(
        surface=surf, rank=1,
        zeros=(ZeroNode(emb.pole_points[0], np.array([[1.0]])),),
        poles=(PoleNode(0.83 + 0.11j, np.array([[1.0]])),),
    )
    with pytest.raises(PointOnExcludedSet, match="sits on an embedding pole"):
        convert_absint_to_conint(clash, kt, emb)


def test_collection_consequences(scalar_case):
    """Assembled matrix forms of the collection identity."""
    surf, data, ko, kt, T, emb, pencil_t, converted = scalar_case
    xi = DEFAULT_XI
    weights = [xi[0] * emb.residues[j, 0] + xi[1] * emb.residues[j, 1]
               for j in range(3)]
    xs = list(emb.pole_points)
    lam_nodes = [z.point for z in data.zeros]
    mu_nodes = [p.point for p in data.poles]

    def k_x_lam(at):
        return np.vstack([zn.vectors @ kt(zn.point, at) for zn in data.zeros])

    def k_mu_u(at):
        return np.hstack([kt(at, pn.point) @ pn.vectors.T for pn in data.poles])

    p = 0.44 + 0.29j
    lhs = sum(w * k_x_lam(x) @ kt(x, p) for w, x in zip(weights, xs))
    pair_p = emb.lambda_values(p)
    diag = np.diag([
        (xi[0] * (pair_p[0] - emb.lambda_values(l)[0])
         + xi[1] * (pair_p[1] - emb.lambda_values(l)[1]))
        for l in lam_nodes
    ])
    rhs = diag @ k_x_lam(p)
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-7

    lhs2 = sum(w * k_x_lam(x) @ k_mu_u(x) for w, x in zip(weights, xs))
    gamma = build_gamma(data, kt).matrix
    pair_l = [emb.lambda_values(l) for l in lam_nodes]
    pair_m = [emb.lambda_values(m) for m in mu_nodes]
    diag_l = np.diag([xi[0] * pl[0] + xi[1] * pl[1] for pl in pair_l])
    diag_m = np.diag([xi[0] * pm[0] + xi[1] * pm[1] for pm in pair_m])
    rhs2 = diag_l @ gamma - gamma @ diag_m
    assert np.abs(lhs2 - rhs2).max() / (np.abs(rhs2).max() + 1e-300) < 1e-7


def _bad_vectors(vectors):
    """Replace the vectors of the first zero node."""
    return lambda d: {"zeros": (ZeroNode(d.zeros[0].point, vectors(d.zeros[0].vectors)),
                                *d.zeros[1:])}


def _with_entry(value):
    def change(v):
        v = v.copy()
        v[0, 0] = value
        return v
    return change


BAD_NODES = {
    "repeated-zero": (lambda d: {"zeros": (d.zeros[0], *d.zeros)}, "zero points must be distinct"),
    "repeated-pole": (lambda d: {"poles": (d.poles[0], *d.poles)}, "pole points must be distinct"),
    "wrong-width": (_bad_vectors(lambda v: np.ones((1, v.shape[1] + 1))), "not \\(count"),
    "no-vectors": (_bad_vectors(lambda v: np.empty((0, v.shape[1]))), "not \\(count"),
    "3-d-vectors": (_bad_vectors(lambda v: v[None]), "not \\(count"),
    "zero-vector": (_bad_vectors(np.zeros_like), "must be nonzero"),
    "dependent": (_bad_vectors(lambda v: np.vstack([v, 2 * v])), "numerically dependent"),
    "nan-entry": (_bad_vectors(_with_entry(np.nan)), "must be finite"),
    "inf-entry": (_bad_vectors(_with_entry(np.inf)), "must be finite"),
    "couplings-off-pairs": (lambda d: {"couplings": {(0, 0): [[1.0]]}},
                            "exactly at coincident pairs"),
}


def _concrete(changes, converted):
    """A repeated node repeats its affine pair too."""
    for side in ("zeros", "poles"):
        if side in changes and len(changes[side]) > len(getattr(converted, side)):
            name = side[:-1] + "_affine"
            affine = getattr(converted, name)
            changes[name] = affine[[0, *range(len(affine))]]
    return changes


@pytest.mark.parametrize("kind, case", [
    *((kind, case) for case in BAD_NODES for kind in ("abstract", "concrete")),
    ("concrete", "non-finite-affine")])
def test_both_data_sets_reject_malformed_nodes(kind, case, scalar_case):
    """Both data sets share one validator: each malformed input raises
    InputError, for its own reason, before any arithmetic warns; and
    neither data set can be changed after construction."""
    data, converted = scalar_case[1], scalar_case[-1]
    base = data if kind == "abstract" else converted
    if case == "non-finite-affine":
        affine = converted.pole_affine.copy()
        affine[0, 1] = np.inf
        changes, match = {"pole_affine": affine}, "pole_affine must be a finite"
    else:
        mutate, match = BAD_NODES[case]
        changes = mutate(base)
        if kind == "concrete":
            changes = _concrete(changes, converted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=match):
            replace(base, **changes)
    with pytest.raises(FrozenInstanceError):
        base.zeros = ()
    with pytest.raises(FrozenInstanceError):
        base.couplings = {}
