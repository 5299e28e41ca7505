"""Surface geometry: points, lattice arithmetic, prime form, embedding functions."""

import re
import warnings

import numpy as np
import pytest

import oracles
from zpint.absint import InterpolationDataSet, build_solution
from zpint.errors import (
    DegenerateEmbedding,
    HigherOrderPole,
    InputError,
    UnsupportedGenus,
)
from zpint.kernels import genus0_kernel, kernel_grid, line_kernel
from zpint.numutil import circle_modes
from zpint.surface import (
    build_embedding_functions,
    genus0_surface,
    laurent_coeffs,
    line_bundle,
    point,
    prime_form,
    torus_surface,
)

TAU = 0.3 + 0.9j


def test_abel_jacobi_is_identity_on_torus(torus):
    p = 0.3 + 0.2j
    assert torus.abel_jacobi(p)[0] == p


def test_abel_jacobi_lattice_quotient(torus):
    p = 0.3 + 0.2j
    shifted = torus.abel_jacobi(p + 1 + TAU)[0]
    assert torus.equal(shifted, p)
    assert torus.equal(p, p + 1 + TAU)
    assert not torus.equal(p, p + 0.1)


def test_lattice_equality_is_equivalence(rng):
    pts = [rng.uniform(0, 1) + rng.uniform(0, 1) * TAU for _ in range(6)]
    shifts = [0, 1, TAU, 1 + TAU, -2 + TAU]
    surf = torus_surface(TAU)
    for p in pts:
        assert surf.equal(p, p)
        for s in shifts:
            assert surf.equal(p, p + s)
            for s2 in shifts:
                # transitivity through a chain of lattice shifts
                assert surf.equal(p + s, p + s2)


def test_prime_form_diagonal_and_antisymmetry(torus, rng):
    p = 0.31 + 0.42j
    assert prime_form(torus, p, p) == 0 or abs(prime_form(torus, p, p)) < 1e-15
    for _ in range(5):
        a = rng.uniform(0, 1) + rng.uniform(0, 1) * TAU
        b = rng.uniform(0, 1) + rng.uniform(0, 1) * TAU
        assert abs(prime_form(torus, a, b) + prime_form(torus, b, a)) < 1e-12


def test_prime_form_pair_has_its_array_bits(torus, rng):
    # one pair is the N = 1 case of the array call, with the same bits
    P = [0.11 + 0.71j, *(rng.uniform(-1.5, 1.5, 60) + 1j * rng.uniform(-1.5, 1.5, 60))]
    Q = [0.21 + 0.33j, *(rng.uniform(-1.5, 1.5, 60) + 1j * rng.uniform(-1.5, 1.5, 60))]
    batch = prime_form(torus, P, Q)
    assert np.array_equal(batch, [prime_form(torus, p, q) for p, q in zip(P, Q)])
    assert isinstance(prime_form(torus, P[0], Q[0]), complex)


def test_prime_form_local_expansion(torus):
    # E(p0, p0 + h)/h = 1 + c h^2 + ...; quadratic extrapolation kills c
    p0 = 0.4 + 0.3j
    vals = {}
    for h in (1e-3, 1e-4):
        vals[h] = prime_form(torus, p0, p0 + h) / h
    extrap = (100 * vals[1e-4] - vals[1e-3]) / 99
    assert abs(extrap - 1.0) < 1e-6
    assert abs(vals[1e-4] - 1.0) < 1e-6


def test_prime_form_modulus_lattice_invariance(torus, rng):
    for _ in range(5):
        p = rng.uniform(0, 1) + rng.uniform(0, 1) * TAU
        q = rng.uniform(0, 1) + rng.uniform(0, 1) * TAU
        base = abs(prime_form(torus, p, q))
        assert abs(abs(prime_form(torus, p + 1, q)) - base) < 1e-10 * max(base, 1)


def test_prime_form_needs_a_prime_form():
    with pytest.raises(UnsupportedGenus):
        prime_form(genus0_surface(), 1.0, 2.0)


def test_laurent_coeffs_canonical_poles():
    res, const = laurent_coeffs(lambda z: 1.0 / z, 0.0)
    assert abs(res - 1.0) < 1e-12 and abs(const) < 1e-12
    res, const = laurent_coeffs(lambda z: 1.0 / z + 5.0, 0.0)
    assert abs(res - 1.0) < 1e-12 and abs(const - 5.0) < 1e-12


def test_laurent_coeffs_rejects_double_pole():
    with pytest.raises(HigherOrderPole):
        laurent_coeffs(lambda z: 1.0 / z**2, 0.0)


def test_laurent_coeffs_at_centres_names_the_double_pole():
    """At an array of centres each centre is judged against its own scale:
    a residue of 1e8 at one centre does not hide a double pole of weight
    1e-3 at another, and the message names that centre."""
    centres = np.array([0.5 + 0.25j, -1.0 + 2.0j, 3.0 - 0.5j])
    weights = np.array([1e8, 1.0, 2.0])

    def f(t):   # (16, 3): simple poles, and 1e-3 / t^2 more at the second centre
        d = t - centres
        return weights / d + 0.7 + np.array([0.0, 1e-3, 0.0]) / d**2

    with pytest.raises(HigherOrderPole, match=re.escape(str(complex(centres[1])))):
        laurent_coeffs(f, centres)
    res, const = laurent_coeffs(lambda t: weights / (t - centres) + 0.7, centres)
    assert np.allclose(res, weights, rtol=1e-12)
    assert (np.abs(const - 0.7) <= 1e-9 * weights).all()   # roundoff of each centre's scale
    with pytest.raises(InputError):
        laurent_coeffs(f, [0.0, complex("nan")])


def _component(embedding, k):
    """lambda_{k + 1} of the embedding pair, as a function of z."""
    return lambda z: embedding.lambda_values(z)[..., k]


def test_embedding_residue_table(torus, embedding):
    # lambda_1 = L(z - x1) - L(z - x2): residues +1 at x1, -1 at x2, none at x3
    x1, x2, _ = embedding.pole_points
    res, _ = laurent_coeffs(_component(embedding, 0), x1)
    assert abs(res - 1.0) < 1e-8          # equals -c[0][0]
    assert abs(res - (-embedding.residues[0, 0])) < 1e-8
    res2, _ = laurent_coeffs(_component(embedding, 0), x2)
    assert abs(res2 - (-embedding.residues[1, 0])) < 1e-8
    # independent contour oracle for the same residue
    ref = oracles.circle_residue(_component(embedding, 0), x1)
    assert abs(ref - 1.0) < 1e-8


def test_embedding_residue_columns_sum_to_zero(embedding):
    sums = embedding.residues.sum(axis=0)
    assert np.abs(sums).max() == 0.0


def test_embedding_functions_are_elliptic(embedding):
    z = 0.11 + 0.52j
    for fn in (_component(embedding, 0), _component(embedding, 1)):
        assert abs(fn(z + 1) - fn(z)) < 1e-10
        assert abs(fn(z + TAU) - fn(z)) < 1e-10


def test_embedding_constant_terms(torus, embedding):
    # lambda_k(p) = -c/t - d + O(t) near each pole
    x1 = embedding.pole_points[0]
    _, const = laurent_coeffs(_component(embedding, 0), x1)
    assert abs(-const - embedding.consts[0, 0]) < 1e-8


def test_embedding_derivs_match_oracle(embedding):
    z = 0.27 + 0.33j
    d1, d2 = embedding.lambda_derivs(z, order=1)
    ref1 = oracles.central_difference(_component(embedding, 0), z)
    ref2 = oracles.central_difference(_component(embedding, 1), z)
    assert abs(d1 - ref1) < 1e-8 * (1 + abs(ref1))
    assert abs(d2 - ref2) < 1e-8 * (1 + abs(ref2))


def _lambda_points(embedding):
    """Generic points, a lattice-shifted one and two 1e-3 from a pole."""
    x1, x2, _ = embedding.pole_points
    return [0.27 + 0.33j, 0.91 + 0.05j, 0.44 + 0.71j + 1 + TAU,
            x1 + 1e-3, x2 - 0.6e-3 + 0.8e-3j]


def test_lambda_values_match_log_deriv_and_mpmath(torus, embedding):
    xs = embedding.pole_points
    for z in _lambda_points(embedding):
        got = embedding.lambda_values(z)
        Lmp = [oracles.odd_theta_log_derivs(z - x, TAU)[0] for x in xs]
        for k, ref_mp in ((0, Lmp[0] - Lmp[1]), (1, Lmp[0] - Lmp[2])):
            assert abs(got[k] - ref_mp) <= 1e-12 * abs(ref_mp)


@pytest.mark.parametrize("order", [1, 2])
def test_lambda_derivs_match_mpmath(embedding, order):
    xs = embedding.pole_points
    for z in _lambda_points(embedding):
        got = embedding.lambda_derivs(z, order=order)
        dL = [oracles.odd_theta_log_derivs(z - x, TAU)[order] for x in xs]
        for k, ref in ((0, dL[0] - dL[1]), (1, dL[0] - dL[2])):
            assert abs(got[k] - ref) <= 1e-12 * abs(ref)


def test_lambda_array_rows_match_scalar_calls(embedding):
    grid = np.array(_lambda_points(embedding)).reshape(1, 5)
    for values, fn in ((embedding.lambda_values(grid), embedding.lambda_values),
                       (embedding.lambda_derivs(grid, 2),
                        lambda z: embedding.lambda_derivs(z, 2))):
        assert values.shape == (1, 5, 2)
        for z, row in zip(grid[0], values[0]):
            one = fn(z)
            assert np.abs(row - one).max() <= 1e-14 * np.abs(one).max()


def test_circle_modes_calls_f_once_on_array_center():
    calls = []

    def f(t):
        calls.append(t.shape)
        return np.stack([1.0 / (t - center) + 2.0 + 3.0 * (t - center), t**2], axis=-1)

    center = np.array([[0.1 + 0.2j, -1.0], [2.0j, 3.0 + 0.5j]])
    modes = circle_modes(f, center, 1e-2, orders=(-1, 0, 1))
    assert calls == [(16, 2, 2)]
    assert modes[0].shape == (2, 2, 2)
    assert np.abs(modes[-1][..., 0] - 1.0).max() < 1e-12
    assert np.abs(modes[0][..., 0] - 2.0).max() < 1e-12
    assert np.abs(modes[1][..., 0] - 3.0).max() < 1e-10
    assert np.abs(modes[0][..., 1] - center**2).max() < 1e-12
    assert np.abs(modes[1][..., 1] - 2 * center).max() < 1e-10


def test_degenerate_embedding_rejected(torus):
    with pytest.raises(DegenerateEmbedding):
        build_embedding_functions(torus, 0.2 + 0.3j, 0.2 + 0.3j, 0.7 + 0.1j)
    # lattice-equal pole points are caught too
    with pytest.raises(DegenerateEmbedding):
        build_embedding_functions(torus, 0.2 + 0.3j, 1.2 + 0.3j, 0.7 + 0.1j)


def test_coincidences_of_points_near_the_largest_double():
    """Finite points near +-1e308 whose difference overflows are distinct,
    with no overflow RuntimeWarning (the test configuration makes it an
    error), on the sphere and in an InterpolationDataSet on it."""
    sphere = genus0_surface()
    P = [1e308, 1e308 + 1e300j, -1e308]
    assert sphere.coincidences(P, P) == [(0, 0), (1, 1), (2, 2)]
    one = np.ones((1, 1))
    data = InterpolationDataSet(sphere, 1, ((1e308, one),), ((-1e308, one),))
    assert data.coincident_pairs() == []


@pytest.mark.parametrize("kind", ["sphere", "torus"])
def test_point_rules_of_each_kind(kind):
    family = {
        "sphere": [genus0_surface(), genus0_surface()],
        "torus": [torus_surface(TAU), torus_surface(TAU), torus_surface(TAU + 0.1)],
    }
    p = 0.31 + 0.42j
    P, Q = {
        "sphere": ([p, -1.1j, 2.0, p], [2.0, p + 1e-3, p, 5j]),
        # lattice-shifted copies are one point of the torus
        "torus": ([p, p + 1 + TAU, 0.7 + 0.1j, 0.55 + 0.8j],
                  [0.55 + 0.8j - TAU, p - 2 + TAU, 0.75 + 0.1j, p]),
    }[kind]
    surf = family[kind][0]

    loop = [(i, j) for i in range(len(P)) for j in range(len(Q)) if surf.equal(P[i], Q[j])]
    assert loop and len(loop) < len(P) * len(Q)
    assert surf.coincidences(P, Q) == loop

    grid = surf.distance(surf.points(P)[:, None], surf.points(Q)[None, :])
    assert grid.shape == (len(P), len(Q))
    n = min(len(P), len(Q))
    pairwise = surf.distance(P[:n], Q[:n])
    for i in range(len(P)):
        for j in range(len(Q)):
            assert grid[i, j] == surf.distance(P[i], Q[j])
        if i < n:
            assert pairwise[i] == surf.distance(P[i], Q[i])

    # same_as holds exactly within a kind and for the same modulus
    for other_kind, group in family.items():
        for k, other in enumerate(group):
            expected = other_kind == kind and k < 2
            assert surf.same_as(other) == expected
            assert other.same_as(surf) == expected


# --- points ---

ROUTES = ("oracle_pair", "oracle_batch", "oracle_batch_q", "kernel_grid", "T", "T.many",
          "equal", "prime_form", "build_embedding_functions")
TORUS_ONLY = ("prime_form", "build_embedding_functions")   # UnsupportedGenus on the sphere


def _point_routes(kind):
    """Every public entry that takes points, on the sphere or the torus, as
    name -> call at one bad point among good ones."""
    if kind == "sphere":
        surf = genus0_surface()
        oracle = genus0_kernel(1, surf)
        nodes, q = (2.0, 3.0 + 1j), 40.0 + 3j
    else:
        surf = torus_surface(TAU)
        oracle = line_kernel(surf, line_bundle(0.21, 0.37))
        nodes, q = (0.13 + 0.27j, 0.61 + 0.43j), 0.52 + 0.18j
    one = np.ones((1, 1))
    T = build_solution(InterpolationDataSet(surf, 1, ((nodes[0], one),), ((nodes[1], one),)),
                       q, one, oracle, oracle)
    good = [0.31 + 0.42j, 0.7 + 0.1j]
    return {
        "oracle_pair": lambda bad: oracle(bad, good[0]),
        "oracle_batch": lambda bad: oracle([good[0], bad], good),
        "oracle_batch_q": lambda bad: oracle(good, [good[1], bad]),
        "kernel_grid": lambda bad: kernel_grid(oracle, good, [bad]),
        "T": lambda bad: T(bad),
        "T.many": lambda bad: T.many([good[0], bad]),
        "equal": lambda bad: surf.equal(good[0], bad),
        "prime_form": lambda bad: prime_form(surf, bad, good[0]),
        "build_embedding_functions":
            lambda bad: build_embedding_functions(surf, good[0], good[1], bad),
    }


@pytest.mark.parametrize("kind, route", [(kind, route) for kind in ("sphere", "torus")
                                         for route in ROUTES
                                         if kind == "torus" or route not in TORUS_ONLY])
def test_non_finite_points_raise_input_error(kind, route):
    """A NaN or infinite point raises InputError naming it, with no warning,
    on every route a point enters by."""
    call = _point_routes(kind)[route]
    for bad in (complex(np.nan, 0.2), complex(0.3, np.inf), complex(-np.inf, np.nan)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=re.escape(repr(bad))):
                call(bad)


def test_point_is_a_finite_complex():
    """point() gives a Python complex; a value that is no number, alone or
    in a sequence, raises InputError."""
    assert point(1) == 1.0 and type(point(np.complex128(0.3 + 0.1j))) is complex
    for bad in ("p1", None, [0.1, 0.2]):
        with pytest.raises(InputError):
            point(bad)
    for surf in (genus0_surface(), torus_surface(TAU)):
        with pytest.raises(InputError):
            surf.points([0.1, "p1"])


def test_zero_dim_array_is_one_point(torus):
    """A 0-d array is one point, not a sequence: the interpolant, a kernel
    and the prime form give the one-point result, bit for bit."""
    sphere = genus0_surface()
    oracle = genus0_kernel(1, sphere)
    data = InterpolationDataSet(surface=sphere, rank=1, zeros=((0.3 + 0.2j, [[1.0]]),),
                                poles=((-0.4 + 0.1j, [[1.0]]),))
    T = build_solution(data, 1.1 - 0.3j, [[2.0]], oracle, oracle)
    p = 0.5 + 0.1j
    pairs = [(T(np.array(p)), T(p)),
             (oracle(np.array(0.5), np.array(0.2)), oracle(0.5, 0.2)),
             (torus.prime_form(np.array(p), 0.2 + 0.3j), torus.prime_form(p, 0.2 + 0.3j))]
    for got, want in pairs:
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
