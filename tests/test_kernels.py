"""Cauchy kernel oracles, connection coefficients, collection identity."""

import re
import warnings

import numpy as np
import pytest

from zpint.errors import (
    DegenerateBundle,
    ExtractionUnstable,
    InputError,
    PointOnExcludedSet,
    SurfaceMismatch,
    UnsupportedGenus,
)
from zpint.kernels import (
    CauchyKernelOracle,
    collection_residual,
    conjugated_kernel,
    connection_duality_defect,
    direct_sum_kernel,
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


def test_dual_reuses_theta_at_zero(torus, bundle, bundle2, monkeypatch):
    """dual() of a torus kernel reads theta[a; b](0) from the kernel, since
    theta is even, so it calls no theta sum and builds no FlatLineBundle;
    k.dual().dual() has k's characteristics and theta(0) bit for bit.  The
    dual of the trivial genus-0 kernel I/(p - q) has its values."""
    import zpint.kernels
    import zpint.surface
    import zpint.theta

    k = conjugated_kernel(direct_sum_kernel([line_kernel(torus, bundle),
                                             line_kernel(torus, bundle2)]),
                          np.array([[1.0, 0.4 - 0.2j], [0.1j, 0.9]]))

    def refused(*args, **kwargs):
        raise AssertionError("a theta sum")

    with monkeypatch.context() as patch:
        for name in ("_sums", "theta_rows", "theta_many", "theta_with_char", "riemann_theta"):
            for module in (zpint.theta, zpint.surface, zpint.kernels):
                if hasattr(module, name):
                    patch.setattr(module, name, refused)
        patch.setattr(zpint.surface.FlatLineBundle, "__post_init__", refused)
        kd = k.dual()
        kdd = kd.dual()
    assert np.array_equal(kd.channels.ab, -k.channels.ab)
    assert np.array_equal(kd.channels.theta0, k.channels.theta0)
    assert np.array_equal(kdd.channels.ab, k.channels.ab)
    assert np.array_equal(kdd.channels.theta0, k.channels.theta0)
    assert np.array_equal(kdd.frame, k.frame) and np.array_equal(kdd.frame_inv, k.frame_inv)
    for chi, theta0 in zip((bundle, bundle2), kd.channels.theta0):
        assert chi.dual().theta_at_zero(torus.period) == pytest.approx(theta0, rel=1e-14)
    k0 = genus0_kernel(2)
    p, q = [0.3 + 0.2j, -1.1 + 0.7j], [-1.1 + 0.7j, 2.0j]
    assert np.array_equal(k0.dual()(p, q), k0(p, q))


def test_degenerate_bundle_rejected(torus):
    with pytest.raises(DegenerateBundle):
        line_kernel(torus, line_bundle(0.5, 0.5))


def test_small_theta_zero_far_from_the_divisor_accepted(rng):
    """At tau = 50i, theta[-0.41; 0.23](0) = 3.4e-12 in modulus, the size of
    its largest term exp(-pi Im(tau) 0.41^2): the bundle is far from the
    theta divisor, so its kernel is built and satisfies the duality
    K(dual; q, p)^T = -K(chi; p, q)."""
    surface = torus_surface(50j)
    bundle = line_bundle(-0.41, 0.23)
    assert abs(bundle.theta_at_zero(surface.period)) < 1e-10
    k = line_kernel(surface, bundle)
    kd = k.dual()
    for _ in range(8):
        p, q = rng.uniform(0, 1, 2) + 1j * rng.uniform(0, 50, 2)
        assert np.abs(kd(q, p).T + k(p, q)).max() <= 1e-14 * np.abs(k(p, q)).max()


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
    assert np.abs(extract_laurent_coeffs(k, 0.3 + 0.1j)).max() < 1e-12


def test_extraction_duality_and_closed_form(torus, bundle, rng, monkeypatch):
    import zpint.kernels

    k = line_kernel(torus, bundle)
    closed = line_connection_form(torus, bundle)
    for _ in range(5):
        p0 = rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * TAU
        assert connection_duality_defect(k, p0) < 1e-7
        # connection is constant in p for a flat unitary bundle
        assert abs(extract_laurent_coeffs(k, p0)[0, 0] - closed) < 1e-6
    # the closed form is genus-1 only; the sphere is refused before any theta sum
    sums = []
    for name in ("theta_with_char", "theta_gradient"):
        original = getattr(zpint.kernels, name)
        monkeypatch.setattr(zpint.kernels, name,
                            lambda *args, original=original: sums.append(1) or original(*args))
    with pytest.raises(UnsupportedGenus):
        line_connection_form(genus0_surface(), bundle)
    assert not sums


class _GivenValues(CauchyKernelOracle):
    """A negative control: the channels of the trivial rank-1 kernel, with
    many overridden by values(P, Q), (N,) values of a scalar kernel."""

    def __init__(self, surface, values):
        super().__init__(surface, genus0_kernel(1).channels)
        object.__setattr__(self, "values", values)

    def many(self, P, Q):
        return self.values(P, Q)[:, None, None]


def test_extraction_unstable_on_double_pole(torus):
    fake = _GivenValues(torus, lambda P, Q: 1.0 / (P - Q) ** 2)
    with pytest.raises(ExtractionUnstable):
        extract_laurent_coeffs(fake, 0.3 + 0.4j)


def test_extraction_at_points_matches_one_point_calls(torus, bundle, bundle2, rng):
    """At an array of points A and the duality defect have the bits of
    one-point calls, on the torus and on the sphere."""
    line = line_kernel(torus, bundle)
    dsum = direct_sum_kernel([line, line_kernel(torus, bundle2)])
    P = rng.uniform(0.05, 0.95, 6) + rng.uniform(0.05, 0.95, 6) * TAU
    for oracle, points in ((line, P), (conjugated_kernel(dsum, [[1.0, 0.3j], [0.2, 1.1]]), P),
                           (genus0_kernel(2), [0.3 + 0.1j, -1.2j, 2.0])):
        A = extract_laurent_coeffs(oracle, points)
        assert A.shape == (len(points), oracle.rank, oracle.rank)
        assert np.array_equal(A, [extract_laurent_coeffs(oracle, p0) for p0 in points])
        defect = connection_duality_defect(oracle, points)
        assert np.array_equal(defect, [connection_duality_defect(oracle, p0) for p0 in points])
        assert isinstance(connection_duality_defect(oracle, points[0]), float)


def test_duality_defect_on_one_circle_reads_the_identity(torus, bundle, bundle2, rng):
    """The one-circle read of |A + A_l| is at rounding level where duality
    holds, and reads the defect where it does not: for phi(p) / (p - q) the
    residue is phi, and A + A_l = phi'(p0) = 0.1.  A alone, the constant
    mode of K(p0, .) = -phi(p0)/t, is 0: the defect sits in A_l."""
    dsum = direct_sum_kernel([line_kernel(torus, bundle), line_kernel(torus, bundle2)])
    P = rng.uniform(0.05, 0.95, 10) + rng.uniform(0.05, 0.95, 10) * TAU
    for oracle, points in ((dsum, P), (conjugated_kernel(dsum, [[1.0, 0.3j], [0.2, 1.1]]), P),
                           (genus0_kernel(2), [0.3 + 0.1j, -1.2j, 2.0])):
        assert connection_duality_defect(oracle, points).max() <= 1e-12
    skew = _GivenValues(genus0_surface(), lambda P, Q: (1 + 0.1 * P) / (P - Q))
    points = [0.3 + 0.1j, -1.2j, 2.0]
    assert np.abs(connection_duality_defect(skew, points) - 0.1).max() <= 1e-12
    assert np.abs(extract_laurent_coeffs(skew, points)).max() <= 1e-9


def test_collection_residual_needs_one_count_of_draws(torus, bundle, embedding):
    k = line_kernel(torus, bundle)
    P = np.array([0.41 + 0.33j, 0.58 + 0.12j])
    for p, q, xi in ((P, P[:1], [(1.0, 0.0)] * 2), (P, P, [(1.0, 0.0)] * 3),
                     (P, P, (1.0, 0.0)), (P[0], P[1], [(1.0, 0.0)] * 2)):
        with pytest.raises(InputError, match="draws"):
            collection_residual(k, embedding, p, q, xi)
    with pytest.raises(PointOnExcludedSet):   # a pole in any draw
        collection_residual(k, embedding, P, [P[0], embedding.pole_points[1]], [(1.0, 0.0)] * 2)


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
    avoid = embedding.pole_points

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
    avoid = embedding.pole_points
    for _ in range(5):
        while True:
            p = rng.uniform(0.03, 0.97) + rng.uniform(0.03, 0.97) * TAU
            if min(abs(p - a) for a in avoid) > 0.05:
                break
        assert collection_residual(ksum, embedding, p, p, (0.6, 1.0)) < 1e-7


def test_collection_rejects_pole_points(torus, bundle, embedding):
    k = line_kernel(torus, bundle)
    x1 = embedding.pole_points[0]
    with pytest.raises(PointOnExcludedSet):
        collection_residual(k, embedding, x1, 0.4 + 0.4j, (1.0, 0.0))


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
    for case, (oracle, P, Q) in enumerate(cases):
        grid = kernel_grid(oracle, P, Q)
        assert grid.shape == (len(P), len(Q), oracle.rank, oracle.rank)
        coincident = set(oracle.surface.coincidences(P, Q))
        assert len(coincident) >= 2, case
        for i, p in enumerate(P):
            for j, q in enumerate(Q):
                if (i, j) in coincident:
                    assert not grid[i, j].any(), case
                else:
                    assert np.array_equal(grid[i, j], oracle(p, q)), case


def test_oracle_batch_matches_single_calls(torus, bundle, bundle2, rng):
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
    P, Q = torus_pairs(12)
    cases = [(line, P, Q), (dsum, P, Q), (conjugated_kernel(dsum, frame), P, Q),
             (genus0_kernel(2), [0.3, 1.2 - 0.5j, -2.0j], [1.7, 0.1j, 0.4])]
    for case, (oracle, P, Q) in enumerate(cases):
        batch = oracle(P, Q)
        assert batch.shape == (len(P), oracle.rank, oracle.rank)
        for i in range(len(P)):
            assert np.array_equal(batch[i], oracle(P[i], Q[i])), case
        for short in (Q[:-1], Q[0]):
            with pytest.raises(InputError, match="differ in length"):
                oracle(P, short)


def test_single_pair_rejects_non_finite_point(torus, bundle):
    """A single pair runs through surface.points, which rejects a non-finite
    coordinate with InputError naming it."""
    for oracle in (line_kernel(torus, bundle), genus0_kernel(2)):
        for bad in (complex(np.nan, 0.0), complex(0.0, np.inf)):
            for p, q in ((bad, 0.3), (0.3, bad)):
                with pytest.raises(InputError, match=re.escape(repr(bad))):
                    oracle(p, q)


def test_batches_reject_non_finite_points(torus, bundle, bundle2):
    """A NaN or infinite point in a batch of a line, direct-sum or
    conjugated oracle, or of the sphere's kernel, raises InputError naming
    the point, with no warning, through the oracle call and kernel_grid."""
    line = line_kernel(torus, bundle)
    dsum = direct_sum_kernel([line, line_kernel(torus, bundle2)])
    oracles = (line, dsum, conjugated_kernel(dsum, [[1.0, 0.4j], [0.1, 0.9]]))
    good = [0.11 + 0.71j, 0.3 + 0.6j]
    for bad in (complex(np.nan, 0.2), complex(0.2, np.nan), complex(np.inf, 0.2),
                complex(0.2, -np.inf)):
        for oracle in (*oracles, genus0_kernel(2)):
            for call in (lambda: oracle([*good, bad], [0.5, 0.4j, 0.25]),
                         lambda: oracle([0.5, 0.4j, 0.25], [bad, *good]),
                         lambda: kernel_grid(oracle, good, [0.5, bad]),
                         lambda: kernel_grid(oracle, [bad, *good], good)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(InputError, match=re.escape(repr(bad))):
                        call()


def test_line_blocks_match_theta_formula(torus, bundle, bundle2):
    """Every block of a line kernel or of a line direct sum is
    theta[chi](phi(q) - phi(p)) / (theta[chi](0) E(q, p)), bit for bit."""
    P = [0.21 + 0.33j, 0.67 + 0.52j, 0.44 + 0.12j, 0.9 + 0.1j]
    Q = [0.11 + 0.71j, 0.3 + 0.6j, 0.05j, 0.5]
    bundles = (bundle, bundle2, bundle)
    dsum = direct_sum_kernel([line_kernel(torus, b) for b in bundles])
    batch = dsum(P, Q)
    assert not batch[:, ~np.eye(3, dtype=bool)].any()
    for i, (p, q) in enumerate(zip(P, Q)):
        v = torus.abel_jacobi(q) - torus.abel_jacobi(p)
        for k, b in enumerate(bundles):
            chi = b.characteristic
            # in numpy array arithmetic, as the kernels use: Python or
            # numpy scalar products can differ from it in the last bit
            expected = (np.array([theta_with_char(chi, v, torus.period)]) / (
                theta_with_char(chi, np.zeros(1), torus.period)
                * prime_form(torus, [q], [p])))[0]
            assert batch[i, k, k] == expected
            assert line_kernel(torus, b)(p, q)[0, 0] == expected
