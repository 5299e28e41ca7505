"""Determinantal representations: pencil identities, curve membership."""

import numpy as np
import pytest

from zpint.detrep import (
    PencilRep,
    adjust_gamma_by_map,
    build_pencil,
    check_kernel_identities,
    curve_membership,
    line_section_condition,
    normalized_sections,
    pencil_membership,
)
from zpint.errors import InputError, PointOnExcludedSet, SingularMatrix, SurfaceMismatch
from zpint.kernels import direct_sum_kernel, line_kernel
from zpint.numutil import numerical_kernel_dim
from zpint.surface import lattice_reduce, line_bundle, torus_surface

TAU = 0.3 + 0.9j


@pytest.fixture(scope="module")
def setup():
    surf = torus_surface(TAU)
    from zpint.surface import build_embedding_functions

    emb = build_embedding_functions(surf, 0.13 + 0.21j, 0.52 + 0.64j, 0.77 + 0.18j)
    k1 = line_kernel(surf, line_bundle(0.21, 0.37))
    k2 = line_kernel(surf, line_bundle(0.72, 0.11))
    ksum = direct_sum_kernel([k1, k2])
    return surf, emb, k1, ksum


def sample_points(rng, emb, n):
    avoid = list(emb.pole_points)
    out = []
    while len(out) < n:
        z = rng.uniform(0.03, 0.97) + rng.uniform(0.03, 0.97) * TAU
        if min(abs(z - a) for a in avoid) > 0.05:
            out.append(z)
    return out


@pytest.mark.parametrize("which", ["line", "direct_sum", "conjugated"])
def test_sections_are_one_kernel_call(setup, which, monkeypatch):
    """Each evaluation over the pole points makes one call of the oracle
    (collection_residual two, over one draw or many), and gives the bits of
    single-pair calls; collection_residual over draws gives the bits of its
    one-draw calls, p = q rows among them."""
    from zpint.absint import InterpolationDataSet, full_rank_multiplicative
    from zpint.kernels import CauchyKernelOracle, collection_residual, conjugated_kernel
    from zpint.numutil import rel_residual, svd_cond

    surf, emb, k1, ksum = setup
    oracle = {"line": k1, "direct_sum": ksum,
              "conjugated": conjugated_kernel(ksum, [[1.0, 0.3j], [0.2, 1.1]])}[which]
    r, m, xs = oracle.rank, emb.m, emb.pole_points
    c, d = emb.residues, emb.consts
    p, q, xi = 0.41 + 0.33j, 0.58 + 0.12j, (0.35 + 0.2j, 1.0)
    ys = [0.31 + 0.44j, 0.68 + 0.79j]
    ys.append(lattice_reduce(sum(xs) - sum(ys), TAU))
    eye = np.eye(r)
    data = InterpolationDataSet(surf, r, ((0.2 + 0.3j, eye), (0.6 + 0.2j, eye)),
                                ((0.4 + 0.7j, eye), (0.8 + 0.5j, eye)))

    def collection_ref(p, q):
        weights = xi[0] * c[:, 0] + xi[1] * c[:, 1]
        lhs = np.zeros((r, r), dtype=complex)
        for w, x in zip(weights, xs):
            lhs += w * (oracle(p, x) @ oracle(x, q))
        if p == q:
            d1, d2 = emb.lambda_derivs(p, order=1)
            return rel_residual(lhs, -(xi[0] * d1 + xi[1] * d2) * eye)
        (l1p, l2p), (l1q, l2q) = emb.lambda_values(p), emb.lambda_values(q)
        return rel_residual(lhs, (xi[0] * (l1q - l1p) + xi[1] * (l2q - l2p)) * oracle(p, q))

    P = np.array([p, q, 0.23 + 0.61j, p, 0.91 + 0.47j])
    Q = np.array([q, q, 0.71 + 0.35j, p, 0.36 + 0.82j])   # p = q in rows 1 and 3
    XI = np.array([xi, (1.0, 0.0), (0.2 - 0.7j, 0.4 + 1.1j), (0.0, 1.0), (-0.5j, 0.3)])
    sections = normalized_sections(oracle, emb)
    evaluations = {   # name: (evaluation, oracle calls, single-pair reference)
        "right": (lambda: sections.right(p), 1, np.vstack([oracle(x, p) for x in xs])),
        "left": (lambda: sections.left(p), 1, -np.hstack([oracle(p, x) for x in xs])),
        "build_pencil": (lambda: build_pencil(oracle, emb).gamma, 1, np.block([
            [(d[i, 0] * c[i, 1] - d[i, 1] * c[i, 0]) * eye if i == j
             else (c[i, 0] * c[j, 1] - c[j, 0] * c[i, 1]) * oracle(xs[i], xs[j])
             for j in range(m)] for i in range(m)])),
        "line_section_condition": (lambda: line_section_condition(oracle, emb, ys), 1,
                                   svd_cond(np.block([[oracle(x, y) for y in ys] for x in xs]))),
        "full_rank_multiplicative": (
            lambda: full_rank_multiplicative(data, oracle, q, eye)[1], 1,
            -np.block([[oracle(z.point, w.point) for w in data.poles] for z in data.zeros])),
        "collection_residual": (lambda: collection_residual(oracle, emb, p, q, xi), 2,
                                collection_ref(p, q)),
        "collection_residual at p = q": (
            lambda: collection_residual(oracle, emb, p, p, xi), 2, collection_ref(p, p)),
        "collection_residual over draws": (
            lambda: collection_residual(oracle, emb, P, Q, XI), 2,
            np.array([collection_residual(oracle, emb, *draw) for draw in zip(P, Q, XI)])),
    }
    calls = []
    original = CauchyKernelOracle.__call__

    def counting(self, p, q):
        if self is oracle:   # a conjugated kernel calls its inner kernel as well
            calls.append((p, q))
        return original(self, p, q)

    monkeypatch.setattr(CauchyKernelOracle, "__call__", counting)
    for name, (evaluate, count, ref) in evaluations.items():
        calls.clear()
        value = evaluate()
        assert len(calls) == count, name
        assert np.array_equal(value, ref), name
        if name in ("right", "left"):
            assert len(calls[0][0]) == m
    for evaluate in (sections.right, sections.left):
        with pytest.raises(InputError, match="nan"):   # as a single-pair call
            evaluate(complex("nan"))


def test_pencil_structure(setup):
    surf, emb, k1, ksum = setup
    pencil = build_pencil(k1, emb)
    assert np.array_equal(np.diag(pencil.sigma1), np.array([-1, 1, 0], dtype=complex))
    assert np.array_equal(np.diag(pencil.sigma2), np.array([-1, 0, 1], dtype=complex))
    # off-diagonal entries with both residues zero vanish by the weight
    c = emb.residues
    for i in range(3):
        for j in range(3):
            if i != j and c[i, 0] * c[j, 1] - c[j, 0] * c[i, 1] == 0:
                assert pencil.gamma[i, j] == 0.0
    pencil2 = build_pencil(ksum, emb)
    assert pencil2.size == 6
    # diagonal blocks are scalars times the identity
    for i in range(3):
        block = pencil2.gamma[2 * i:2 * i + 2, 2 * i:2 * i + 2]
        assert abs(block[0, 0] - block[1, 1]) < 1e-14
        assert block[0, 1] == 0.0 and block[1, 0] == 0.0


def test_kernel_identities(setup, rng):
    surf, emb, k1, ksum = setup
    for oracle in (k1, ksum):
        pencil = build_pencil(oracle, emb)
        sections = normalized_sections(oracle, emb)
        for p in sample_points(rng, emb, 8):
            for xi in ((1.0, 0.0), (0.0, 1.0), (0.4 - 0.3j, 1.0)):
                r1, r2, r3 = check_kernel_identities(pencil, sections, emb, p, xi)
                assert r1 < 1e-7 and r2 < 1e-7 and r3 < 1e-7


def test_identity_sensitivity_to_gamma(setup, rng):
    surf, emb, k1, _ = setup
    pencil = build_pencil(k1, emb)
    sections = normalized_sections(k1, emb)
    bump = 1e-3 * np.linalg.norm(pencil.gamma)
    tampered = PencilRep(pencil.size, pencil.rank, pencil.sigma1, pencil.sigma2,
                         pencil.gamma + bump * np.outer(np.eye(3)[0], np.eye(3)[1]))
    p = sample_points(rng, emb, 1)[0]
    clean, _, _ = check_kernel_identities(pencil, sections, emb, p, (1.0, 0.0))
    r1, _, _ = check_kernel_identities(tampered, sections, emb, p, (1.0, 0.0))
    assert r1 > 1e-4
    assert r1 > 1e3 * clean


def test_sections_pole_behaviour(setup, rng):
    surf, emb, k1, _ = setup
    sections = normalized_sections(k1, emb)
    p = sample_points(rng, emb, 1)[0]
    assert np.all(np.isfinite(sections.right(p)))
    x1 = emb.pole_points[0]
    near = np.linalg.norm(sections.right(x1 + 1e-4))
    nearer = np.linalg.norm(sections.right(x1 + 1e-5))
    assert nearer / near > 9.0      # simple-pole blowup rate


def test_curve_membership_on_and_off(setup, rng):
    surf, emb, k1, ksum = setup
    for oracle in (k1, ksum):
        pencil = build_pencil(oracle, emb)
        for p in sample_points(rng, emb, 30):
            det_rel, kdim = curve_membership(pencil, emb, p)
            assert det_rel < 1e-7
            assert kdim == oracle.rank
        for _ in range(10):
            z1 = rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3)
            z2 = rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3)
            det_rel, _ = pencil_membership(pencil, z1, z2)
            assert det_rel > 1e-3



def test_kernel_dim_ignores_an_exact_zero_below_roundoff():
    # the spectrum of an on-curve pencil value at battery seed 77: the exact
    # 0.0 must join the roundoff value, not outbid the gap above both
    mat = np.diag([18.4, 16.5, 13.5, 11.9, 4e-16, 0.0])
    assert numerical_kernel_dim(mat) == 2
    assert numerical_kernel_dim(np.diag([3.0, 2.0, 1.0])) == 0


def test_membership_rejects_pole_points(setup):
    surf, emb, k1, _ = setup
    pencil = build_pencil(k1, emb)
    with pytest.raises(PointOnExcludedSet):
        curve_membership(pencil, emb, emb.pole_points[0])


def test_adjustment_identity_and_scalars(setup, rng):
    surf, emb, k1, _ = setup
    pencil = build_pencil(k1, emb)
    same = adjust_gamma_by_map(pencil, [np.eye(1)] * 3)
    assert np.array_equal(same.gamma, pencil.gamma)
    scalars = [1.5 - 0.3j, 0.7 + 0.2j, 1.1 + 0.9j]
    adjusted = adjust_gamma_by_map(pencil, [np.array([[c]]) for c in scalars])
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            expected = pencil.gamma[i, j] * scalars[i] / scalars[j]
            assert abs(adjusted.gamma[i, j] - expected) < 1e-14
    # the adjusted pencil represents the same curve
    for p in sample_points(rng, emb, 10):
        det_rel, kdim = curve_membership(adjusted, emb, p)
        assert det_rel < 1e-7 and kdim == 1
    with pytest.raises(SingularMatrix, match="boundary value"):
        adjust_gamma_by_map(pencil, [np.zeros((1, 1))] * 3)


def test_line_section_condition(setup, rng):
    surf, emb, k1, ksum = setup
    xsum = sum(emb.pole_points)
    y1 = 0.31 + 0.44j
    y2 = 0.68 + 0.79j
    y3 = lattice_reduce(xsum - y1 - y2, TAU)
    assert line_section_condition(k1, emb, [y1, y2, y3]) < 1e10
    assert line_section_condition(ksum, emb, [y1, y2, y3]) < 1e10
    # a section point on an embedding pole, given as x^1 or as its lattice
    # translate x^1 + 1, is rejected, not turned into a zero block
    x1 = emb.pole_points[0]
    for oracle in (k1, ksum):
        for y in (x1, x1 + 1.0):
            with pytest.raises(PointOnExcludedSet):
                line_section_condition(oracle, emb, [y, y2, y3])


def test_pencil_json_round_trip(setup):
    surf, emb, k1, _ = setup
    pencil = build_pencil(k1, emb)
    clone = PencilRep.from_json(pencil.to_json())
    assert clone.size == pencil.size and clone.rank == pencil.rank
    assert np.abs(clone.gamma - pencil.gamma).max() < 1e-15
    assert np.abs(clone.sigma1 - pencil.sigma1).max() < 1e-15


def test_surface_mismatch(setup):
    surf, emb, k1, _ = setup
    other = line_kernel(torus_surface(0.2 + 1.3j), line_bundle(0.21, 0.37))
    with pytest.raises(SurfaceMismatch):
        build_pencil(other, emb)


def _kernel_dim_loop(mat):
    """numerical_kernel_dim of one matrix as a loop over the gaps (reference)."""
    s = np.linalg.svd(mat, compute_uv=False)
    floor = max(mat.shape) * np.finfo(float).eps * s[0]
    best_dim, best_ratio = 0, 1.0
    for k in range(s.size - 1):
        lo = max(s[k + 1], floor)
        ratio = np.inf if lo == 0.0 else s[k] / lo
        if ratio >= 1e6 and ratio > best_ratio:
            best_dim, best_ratio = s.size - 1 - k, ratio
    return best_dim


def test_array_checks_match_per_point_loops(setup, rng):
    """check_kernel_identities, curve_membership, pencil_membership and
    numerical_kernel_dim over arrays against per-point loops of their
    formulas.  The residuals are normalised to scale 1, so roundoff in a
    stacked product moves them by at most 1e-15; kernel dims agree exactly."""
    surf, emb, k1, ksum = setup
    P = np.array(sample_points(rng, emb, 12))
    xis = [(1.0, 0.0), (0.0, 1.0), (0.4 - 0.3j, 1.0)]
    z1 = rng.uniform(-3, 3, 10) + 1j * rng.uniform(-3, 3, 10)
    z2 = rng.uniform(-3, 3, 10) + 1j * rng.uniform(-3, 3, 10)
    norm = np.linalg.norm
    for oracle in (k1, ksum):
        r = oracle.rank
        pencil = build_pencil(oracle, emb)
        res1, res2, res3 = check_kernel_identities(
            pencil, normalized_sections(oracle, emb), emb, P, xis)
        det_rel, kdim = curve_membership(pencil, emb, P)
        assert res1.shape == res2.shape == det_rel.shape == kdim.shape == (12,)
        assert res3.shape == (12, 3)
        mats = []   # this pencil's values
        for n, p in enumerate(P):
            l1, l2 = emb.lambda_values(p)
            mat = l1 * pencil.sigma2 - l2 * pencil.sigma1 + pencil.gamma
            mats.append(mat)
            u = np.vstack([oracle(x, p) for x in emb.pole_points])
            ul = -np.hstack([oracle(p, x) for x in emb.pole_points])
            assert abs(res1[n] - norm(mat @ u) / (norm(mat) * norm(u))) <= 1e-15
            assert abs(res2[n] - norm(ul @ mat) / (norm(ul) * norm(mat))) <= 1e-15
            d1, d2 = emb.lambda_derivs(p, order=1)
            for k, (a, b) in enumerate(xis):
                pairing = ul @ (a * pencil.sigma1 + b * pencil.sigma2) @ u / (a * d1 + b * d2)
                ref = norm(pairing - np.eye(r)) / (norm(pairing) + norm(np.eye(r)))
                assert abs(res3[n, k] - ref) <= 1e-15
            s = np.linalg.svd(mat, compute_uv=False)
            assert abs(det_rel[n] - np.prod(s[-r:]) / s[-r - 1] ** r) <= 1e-15
            assert kdim[n] == _kernel_dim_loop(mat) == r
        off_rel, off_dim = pencil_membership(pencil, z1, z2)
        for n in range(len(z1)):
            mat = z1[n] * pencil.sigma2 - z2[n] * pencil.sigma1 + pencil.gamma
            mats.append(mat)
            s = np.linalg.svd(mat, compute_uv=False)
            assert off_rel[n] == np.prod(s[-r:]) / s[-r - 1] ** r
            assert off_dim[n] == _kernel_dim_loop(mat)
    # the last pencil's (6 x 6) values on and off the curve, and edge spectra
    spectra = [np.diag([18.4, 16.5, 13.5, 11.9, 4e-16, 0.0]), np.eye(6), np.zeros((6, 6)),
               np.diag([1.0, 1e-9, 1e-9, 1e-17, 0.0, 0.0])]
    stack = np.array(mats + spectra)
    assert numerical_kernel_dim(stack).tolist() == [_kernel_dim_loop(m) for m in stack]


def test_checks_detrep_oracle_calls_do_not_grow_with_samples(monkeypatch):
    """checks_detrep evaluates each check's points in one array call: three
    times as many sample points make the same number of oracle calls."""
    from zpint import verify
    from zpint.kernels import CauchyKernelOracle

    calls = []
    original = CauchyKernelOracle.__call__

    def counting(self, p, q):
        calls.append(1)
        return original(self, p, q)

    monkeypatch.setattr(CauchyKernelOracle, "__call__", counting)
    draw = verify.sample_points
    counts = {}
    for factor in (1, 3):
        def repeated(surf, rng, n, avoid=()):   # one-point draws stay one point
            return np.tile(draw(surf, rng, n, avoid), factor if n > 1 else 1)

        monkeypatch.setattr(verify, "sample_points", repeated)
        calls.clear()
        assert all(c["passed"] for c in verify.checks_detrep(seed=7))
        counts[factor] = len(calls)
    assert counts[1] == counts[3] <= 12
