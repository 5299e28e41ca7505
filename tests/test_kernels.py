"""Cauchy kernel oracles, connection coefficients, collection identity."""

import numpy as np
import pytest

from zpint.errors import (
    DegenerateBundle,
    ExtractionUnstable,
    PointOnPoleSet,
    SurfaceMismatch,
    UnsupportedGenus,
)
from zpint.kernels import (
    CauchyKernelOracle,
    collection_residual,
    conjugated_kernel,
    direct_sum_kernel,
    evaluate_joint,
    evaluate_many,
    extract_laurent_coeffs,
    genus0_kernel,
    kernel_grid,
    line_connection_form,
    line_kernel,
)
from zpint.surface import genus0_surface, line_bundle, prime_form, torus_surface
from zpint.theta import theta_with_char

TAU = 0.3 + 0.9j


def residue_limit(oracle, p0):
    def val(h):
        return h * oracle(p0 + h, p0)

    v1, v2, v3 = val(1e-3), val(5e-4), val(2.5e-4)
    a1, a2 = 2 * v2 - v1, 2 * v3 - v2
    return (4 * a2 - a1) / 3


def test_genus0_kernel_values():
    k = genus0_kernel(2)
    assert np.array_equal(k(2.0, 1.0), np.eye(2))
    # 1/(p-q) is odd
    assert np.abs(k(0.3, 1.7) + k(1.7, 0.3)).max() < 1e-15
    # extraction of the exact simple pole
    assert np.abs(residue_limit(k, 0.4 + 0.1j) - np.eye(2)).max() < 1e-12


def test_line_kernel_residue(torus, bundle):
    k = line_kernel(torus, bundle)
    limit = residue_limit(k, 0.41 + 0.33j)
    assert abs(limit[0, 0] - 1.0) < 1e-8


def test_line_kernel_lattice_modulus(torus, bundle, rng):
    k = line_kernel(torus, bundle)
    for _ in range(5):
        p = rng.uniform(0, 1) + rng.uniform(0, 1) * TAU
        q = rng.uniform(0, 1) + rng.uniform(0, 1) * TAU
        if abs(p - q) < 0.05:
            continue
        base = abs(k(p, q)[0, 0])
        assert abs(abs(k(p + 1, q)[0, 0]) - base) < 1e-10 * base
        assert abs(abs(k(p + TAU, q)[0, 0]) - base) < 1e-10 * base


def test_line_kernel_duality(torus, bundle, rng):
    k = line_kernel(torus, bundle)
    kd = k.dual()
    for _ in range(5):
        p = rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * TAU
        q = rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * TAU
        if abs(p - q) < 0.05:
            continue
        lhs = kd(p, q)[0, 0]
        rhs = -k(q, p)[0, 0]
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_dual_of_a_kernel_given_by_many_alone(torus, bundle):
    """With no bundle, parts or inner kernel the dual bundle is unknown at
    genus >= 1, so dual() raises; at genus 0 the one kernel in the global
    frame is I/(p - q), which is self-dual."""
    wrapped = CauchyKernelOracle(1, torus, line_kernel(torus, bundle).many)
    with pytest.raises(UnsupportedGenus):
        wrapped.dual()
    k0 = CauchyKernelOracle(2, genus0_surface(), genus0_kernel(2).many)
    kd = k0.dual()
    assert kd is k0
    p, q = 0.3 + 0.2j, -1.1 + 0.7j
    assert np.abs(kd(p, q).T + k0(q, p)).max() < 1e-15


def test_degenerate_bundle_rejected(torus):
    with pytest.raises(DegenerateBundle):
        line_kernel(torus, line_bundle(0.5, 0.5))


def test_line_kernel_needs_a_matching_genus(torus):
    for surface, bundle in [(genus0_surface(), line_bundle([], [])),
                            (genus0_surface(), line_bundle(0.2, 0.3)),
                            (torus, line_bundle([0.2, 0.1], [0.3, 0.4]))]:
        with pytest.raises(UnsupportedGenus):
            line_kernel(surface, bundle)


def test_direct_sum_structure(torus, bundle, bundle2):
    k1 = line_kernel(torus, bundle)
    k2 = line_kernel(torus, bundle2)
    ksum = direct_sum_kernel([k1, k2])
    p, q = 0.11 + 0.52j, 0.67 + 0.23j
    val = ksum(p, q)
    assert val[0, 1] == 0.0 and val[1, 0] == 0.0
    assert val[0, 0] == k1(p, q)[0, 0]
    assert val[1, 1] == k2(p, q)[0, 0]
    limit = residue_limit(ksum, 0.4 + 0.3j)
    assert np.abs(limit - np.eye(2)).max() < 1e-8
    # duality block-wise
    kd = ksum.dual()
    assert np.abs(kd(p, q).T + ksum(q, p)).max() < 1e-10 * np.abs(val).max()


def test_direct_sum_surface_mismatch(torus, bundle):
    k1 = line_kernel(torus, bundle)
    other = line_kernel(torus_surface(0.2 + 1.3j), bundle)
    with pytest.raises(SurfaceMismatch):
        direct_sum_kernel([k1, other])


def test_extraction_trivial_kernel():
    k = genus0_kernel(2)
    cc = extract_laurent_coeffs(k, 0.3 + 0.1j)
    assert np.abs(cc.A).max() < 1e-12
    assert np.abs(cc.A_ell).max() < 1e-12


def test_extraction_duality_and_closed_form(torus, bundle, rng):
    k = line_kernel(torus, bundle)
    closed = line_connection_form(torus, bundle)
    for _ in range(5):
        p0 = rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * TAU
        cc = extract_laurent_coeffs(k, p0)
        assert cc.duality_defect() < 1e-7
        # connection is constant in p for a flat unitary bundle
        assert abs(cc.A[0, 0] - closed) < 1e-6


def test_extraction_unstable_on_double_pole(torus):
    fake = CauchyKernelOracle(
        rank=1,
        surface=torus,
        many=lambda P, Q: (1.0 / (P - Q) ** 2)[:, None, None],
    )
    with pytest.raises(ExtractionUnstable):
        extract_laurent_coeffs(fake, 0.3 + 0.4j)


def test_conjugated_kernel_preserves_residue(torus, bundle, bundle2):
    ksum = direct_sum_kernel([line_kernel(torus, bundle), line_kernel(torus, bundle2)])
    frame = np.array([[1.0, 0.4 - 0.2j], [0.1j, 0.9]])
    kc = conjugated_kernel(ksum, frame)
    limit = residue_limit(kc, 0.42 + 0.31j)
    assert np.abs(limit - np.eye(2)).max() < 1e-8


def test_conjugated_kernel_duality(torus, bundle, bundle2):
    ksum = direct_sum_kernel([line_kernel(torus, bundle), line_kernel(torus, bundle2)])
    frame = np.array([[1.0, 0.4 - 0.2j], [0.1j, 0.9]])
    kc = conjugated_kernel(ksum, frame)
    kd = kc.dual()
    for p, q in ((0.11 + 0.52j, 0.67 + 0.23j), (0.83 + 0.41j, 0.25 + 0.74j)):
        ref = kc(q, p)
        assert np.abs(kd(p, q).T + ref).max() < 1e-10 * np.abs(ref).max()


def test_collection_identity(torus, bundle, embedding, rng):
    k = line_kernel(torus, bundle)
    avoid = [x.coordinate for x in embedding.pole_points]

    def draw():
        while True:
            z = rng.uniform(0.03, 0.97) + rng.uniform(0.03, 0.97) * TAU
            if min(abs(z - a) for a in avoid) > 0.05:
                return z

    for xi in ((1.0, 0.0), (0.0, 1.0), (0.35 + 0.2j, 1.0)):
        for _ in range(5):
            p, q = draw(), draw()
            assert collection_residual(k, embedding, p, q, xi) < 1e-8


def test_collection_identity_degenerate(torus, bundle, bundle2, embedding, rng):
    ksum = direct_sum_kernel([line_kernel(torus, bundle), line_kernel(torus, bundle2)])
    avoid = [x.coordinate for x in embedding.pole_points]
    for _ in range(5):
        while True:
            p = rng.uniform(0.03, 0.97) + rng.uniform(0.03, 0.97) * TAU
            if min(abs(p - a) for a in avoid) > 0.05:
                break
        assert collection_residual(ksum, embedding, p, p, (0.6, 1.0)) < 1e-7


def test_collection_rejects_pole_points(torus, bundle, embedding):
    k = line_kernel(torus, bundle)
    x1 = embedding.pole_points[0]
    with pytest.raises(PointOnPoleSet):
        collection_residual(k, embedding, x1, 0.4 + 0.4j, (1.0, 0.0))


def torus_table_surface(torus, pts):
    """Data-bundle surface tabulating the torus geometry at pts, labels p0, p1, ..."""
    from zpint.surface import SurfaceDataBundle, data_bundle_surface, prime_form

    labels = tuple(f"p{i}" for i in range(len(pts)))
    n = len(pts)
    table = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            table[i, j] = prime_form(torus, pts[i], pts[j])
            table[j, i] = -table[i, j]
    data = SurfaceDataBundle(1, torus.period.omega, labels,
                             np.array([[p] for p in pts]), table,
                             np.ones((n, 1), dtype=complex))
    return data_bundle_surface(data), labels


def test_data_bundle_kernel_matches_closed_form(torus, bundle):
    """The tabulated-geometry kernel path (the genus >= 2 interface)
    agrees with the torus closed form when fed torus tables."""
    from zpint.absint import fay_residual

    pts = [0.21 + 0.33j, 0.67 + 0.52j, 0.44 + 0.12j, 0.11 + 0.71j]
    surf, labels = torus_table_surface(torus, pts)
    n = len(pts)
    k_closed = line_kernel(torus, bundle)
    k_table = line_kernel(surf, bundle)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a = k_closed(pts[i], pts[j])[0, 0]
            b = k_table(labels[i], labels[j])[0, 0]
            assert abs(a - b) < 1e-12 * abs(a)
    # the trisecant residual runs through the tabulated path as well
    assert fay_residual(surf, 0.1 + 0.2j, "p0", "p1", "p2", "p3") < 1e-12


def test_kernel_grid_matches_single_pair_calls(torus, bundle, bundle2, rng):
    """Off the coincidences the grid has the bits of one oracle call per pair;
    on them (a point equal to another or to a lattice translate) it is zero."""
    line = line_kernel(torus, bundle)
    dsum = direct_sum_kernel([line, line_kernel(torus, bundle2)])
    frame = np.array([[1.0, 0.4 - 0.2j], [0.1j, 0.9]])
    P = [rng.uniform(0, 1) + rng.uniform(0, 1) * TAU for _ in range(4)]
    Q = [rng.uniform(0, 1) + rng.uniform(0, 1) * TAU, P[1], P[3] + 1.0, P[0] - TAU]
    cases = [(line, P, Q), (dsum, P, Q), (conjugated_kernel(dsum, frame), P, Q),
             (genus0_kernel(2), [0.3, 1.2 - 0.5j, -2.0j], [1.7, -2.0j, 0.4, 0.3])]
    for oracle, P, Q in cases:
        grid = kernel_grid(oracle, P, Q)
        assert grid.shape == (len(P), len(Q), oracle.rank, oracle.rank)
        coincident = set(oracle.surface.coincidences(P, Q))
        assert len(coincident) >= 2, oracle.name
        for i, p in enumerate(P):
            for j, q in enumerate(Q):
                if (i, j) in coincident:
                    assert not grid[i, j].any(), oracle.name
                else:
                    assert np.array_equal(grid[i, j], oracle(p, q)), oracle.name


def test_evaluate_many_matches_single_calls(torus, bundle, bundle2, rng):
    def torus_pairs(n):
        pairs = []
        while len(pairs) < n:
            p, q = (rng.uniform(0, 1) + rng.uniform(0, 1) * TAU for _ in range(2))
            if abs(p - q) > 0.05:
                pairs.append((p, q))
        return [p for p, _ in pairs], [q for _, q in pairs]

    line = line_kernel(torus, bundle)
    dsum = direct_sum_kernel([line, line_kernel(torus, bundle2)])
    frame = np.array([[1.0, 0.4 - 0.2j], [0.1j, 0.9]])
    opaque = CauchyKernelOracle(
        rank=1, surface=torus, many=lambda P, Q: (1.0 / (P - Q))[:, None, None],
    )
    P, Q = torus_pairs(12)
    cases = [(line, P, Q), (dsum, P, Q), (conjugated_kernel(dsum, frame), P, Q),
             (opaque, P, Q), (direct_sum_kernel([line, opaque]), P, Q),
             (genus0_kernel(2), [0.3, 1.2 - 0.5j, -2.0j], [1.7, 0.1j, 0.4])]
    table_surface, labels = torus_table_surface(torus, [0.21 + 0.33j, 0.67 + 0.52j,
                                                        0.44 + 0.12j])
    table_line = line_kernel(table_surface, bundle)
    table_opaque = CauchyKernelOracle(1, table_surface, table_line.many)
    table_P, table_Q = ["p0", "p1", "p2", "p0"], ["p1", "p2", "p0", "p2"]
    cases += [(table_line, table_P, table_Q), (table_opaque, table_P, table_Q),
              (direct_sum_kernel([table_line, table_opaque]), table_P, table_Q)]
    for oracle, P, Q in cases:
        batch = evaluate_many(oracle, P, Q)
        assert batch.shape == (len(P), oracle.rank, oracle.rank)
        # the oracle called on two point sequences is the same batch
        assert np.array_equal(oracle(P, Q), batch), oracle.name
        for i in range(len(P)):
            assert np.array_equal(batch[i], oracle(P[i], Q[i])), oracle.name
        with pytest.raises(ValueError):
            oracle(P, Q[:-1])


def test_evaluate_joint_requests_match_evaluate_many(torus, bundle, bundle2, rng,
                                                    monkeypatch):
    """Each request of one evaluate_joint call has the bits of evaluate_many
    on it alone: line, direct-sum (with a conjugated part, with a part given
    by many alone), conjugated, opaque, genus-0 and tabulated oracles,
    requests of unequal lengths, an empty request and one oracle twice.
    All line blocks of a call share one lattice pass (theta_rows), and an
    oracle given by many alone is called once for all its requests."""
    import zpint.kernels

    def torus_pairs(n):
        P = rng.uniform(0, 1, n) + rng.uniform(0, 1, n) * TAU
        return list(P), list(P + 0.3 + 0.4 * TAU)

    line = line_kernel(torus, bundle)
    dsum = direct_sum_kernel([line, line_kernel(torus, bundle2)])
    frame = np.array([[1.0, 0.4 - 0.2j], [0.1j, 0.9]])
    conj = conjugated_kernel(dsum, frame)
    opaque = CauchyKernelOracle(
        rank=1, surface=torus, many=lambda P, Q: (1.0 / (P - Q))[:, None, None],
    )
    nested = conjugated_kernel(direct_sum_kernel([conj, opaque]), np.diag([1.0, 2.0j, -0.5]))
    torus_requests = [(line, *torus_pairs(5)), (dsum, *torus_pairs(1)),
                      (conj, *torus_pairs(7)), (opaque, *torus_pairs(3)),
                      (direct_sum_kernel([line, opaque]), *torus_pairs(4)),
                      (nested, *torus_pairs(2)), (dsum, [], []), (line, *torus_pairs(2)),
                      (direct_sum_kernel([conj, line]), *torus_pairs(3))]
    k0 = genus0_kernel(2)
    sphere_requests = [(k0, [0.3, 1.2 - 0.5j, -2.0j], [1.7, 0.1j, 0.4]), (k0, [], []),
                       (k0, [2.0], [-1.0])]
    table, labels = torus_table_surface(torus, [0.21 + 0.33j, 0.67 + 0.52j, 0.44 + 0.12j])
    table_line = line_kernel(table, bundle)
    table_opaque = CauchyKernelOracle(1, table, table_line.many)
    table_requests = [(table_line, ["p0", "p1", "p2"], ["p1", "p2", "p0"]),
                      (table_opaque, ["p2"], ["p1"]),
                      (direct_sum_kernel([table_line, table_opaque]), ["p0", "p1"], ["p2", "p2"])]
    passes = []
    original = zpint.kernels.theta_rows
    monkeypatch.setattr(zpint.kernels, "theta_rows",
                        lambda *args: passes.append(1) or original(*args))
    # the tabulated wrapper's own many is the second pass, once for both its requests
    for requests, theta_passes in ((torus_requests, 1), (sphere_requests, 0),
                                   (table_requests, 2)):
        passes.clear()
        joint = evaluate_joint(requests)
        assert len(passes) == theta_passes
        assert len(joint) == len(requests)
        for (oracle, P, Q), values in zip(requests, joint):
            assert values.shape == (len(P), oracle.rank, oracle.rank), oracle.name
            assert np.array_equal(values, evaluate_many(oracle, P, Q)), oracle.name
    assert evaluate_joint([]) == []
    with pytest.raises(SurfaceMismatch):
        evaluate_joint([torus_requests[0], sphere_requests[0]])
    with pytest.raises(ValueError):
        evaluate_joint([(line, [0.1, 0.2], [0.3])])


def test_single_pair_rejects_non_finite_point(torus, bundle):
    """A single pair runs through point(), which rejects a non-finite coordinate."""
    for oracle in (line_kernel(torus, bundle), genus0_kernel(2)):
        for p, q in ((complex(np.nan, 0.0), 0.3), (0.3, complex(0.0, np.inf))):
            with pytest.raises(ValueError):
                oracle(p, q)


def test_batches_reject_non_finite_points(torus, bundle, bundle2):
    """A NaN or infinite point in a batch of a line, direct-sum or
    conjugated oracle, through evaluate_many, evaluate_joint or
    kernel_grid (NaN only: its coincidence test warns on an infinite
    point), raises the theta pass's ValueError before any sum."""
    line = line_kernel(torus, bundle)
    dsum = direct_sum_kernel([line, line_kernel(torus, bundle2)])
    oracles = (line, dsum, conjugated_kernel(dsum, [[1.0, 0.4j], [0.1, 0.9]]))
    good = [0.11 + 0.71j, 0.3 + 0.6j]
    for bad in (complex(np.nan, 0.2), complex(0.2, np.nan), complex(np.inf, 0.2),
                complex(0.2, -np.inf)):
        for oracle in oracles:
            for call in (lambda: evaluate_many(oracle, [*good, bad], [0.5, 0.4j, 0.25]),
                         lambda: evaluate_many(oracle, [0.5, 0.4j, 0.25], [bad, *good]),
                         lambda: evaluate_joint([(line, good, good[::-1]),
                                                 (oracle, [bad], [0.5])]),
                         lambda: kernel_grid(oracle, good, [bad if np.isnan(bad) else np.nan])):
                with pytest.raises(ValueError, match="theta arguments must be finite"):
                    call()


def test_line_blocks_match_theta_formula(torus, bundle, bundle2):
    """Every block of a line kernel or of a line direct sum is
    theta[chi](phi(q) - phi(p)) / (theta[chi](0) E(q, p)), bit for bit,
    on the torus and on a tabulated surface."""
    pts = [0.21 + 0.33j, 0.67 + 0.52j, 0.44 + 0.12j]
    table, labels = torus_table_surface(torus, pts)
    bundles = (bundle, bundle2, bundle)
    cases = [(torus, pts + [0.9 + 0.1j], [0.11 + 0.71j, 0.3 + 0.6j, 0.05j, 0.5]),
             (table, list(labels), [labels[1], labels[2], labels[0]])]
    for surf, P, Q in cases:
        dsum = direct_sum_kernel([line_kernel(surf, b) for b in bundles])
        batch = evaluate_many(dsum, P, Q)
        assert not batch[:, ~np.eye(3, dtype=bool)].any()
        for i, (p, q) in enumerate(zip(P, Q)):
            v = surf.abel_jacobi(q) - surf.abel_jacobi(p)
            for k, b in enumerate(bundles):
                chi = b.characteristic
                # in numpy array arithmetic, as the kernels use: Python or
                # numpy scalar products can differ from it in the last bit
                expected = (np.array([theta_with_char(chi, v, surf.period)]) / (
                    theta_with_char(chi, np.zeros(1), surf.period)
                    * prime_form(surf, [q], [p])))[0]
                assert batch[i, k, k] == expected
                assert line_kernel(surf, b)(p, q)[0, 0] == expected
