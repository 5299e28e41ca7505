"""Property tests of the frozen theta table behind a torus interpolant.

theta.theta_table freezes the Fourier coefficients of the rows
theta[a; b](e - p) over fixed ends e, and theta_table_rows reads them at
points p.  The rows of one end share a factor, so they are checked against
40-digit direct sums up to that factor.  An interpolant built on the table
is checked against the partial-fraction formula evaluated with the
kernels' own channel pass, with its nodes and base point given outside the
period parallelogram, and against the multiplier law of Hom(chi, chi~) for
lattice shifts of p.
"""

import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from test_normal_form import complex_matrix, reference
from zpint.absint import InterpolationDataSet, PoleNode, ZeroNode, build_inverse, build_solution
from zpint.errors import NonConvergent, SingularMatrix
from zpint.kernels import conjugated_kernel, direct_sum_kernel, line_kernel
from zpint.numutil import rel_residual
from zpint.surface import line_bundle, torus_surface
from zpint.theta import MAX_TABLE_IM, period_from_tau, theta_table, theta_table_rows

EPS = np.finfo(float).eps
unit = st.floats(0.0, 1.0)
# |theta[a; b](0)| vanishes at a = b = 1/2 only; keep a away from 1/2
away = st.one_of(st.floats(0.05, 0.4), st.floats(0.6, 0.95))


def direct_row(a, b, z, tau):
    """theta[a; b](z | tau) and the sum of the moduli of its terms, in mpmath."""
    value = oracles.theta_char_direct([a], [b], [z], [[tau]])
    x = [n + mp.mpf(a) for n in range(-40, 41)]
    size = mp.fsum(mp.exp(-mp.pi * mp.mpf(tau.imag) * t * t - 2 * mp.pi * t * mp.mpf(z.imag))
                   for t in x)
    return value, size


@settings(max_examples=24, derandomize=True, deadline=None, database=None)
@given(st.sampled_from([0.8, 3.0, 40.0]), st.floats(-0.5, 0.5), st.data())
def test_table_rows_match_direct_sums(height, real, data):
    """Each row over a reference row of its end matches 40-digit direct sums
    within 1e-13 of the row's sum of term moduli, for ends up to two periods
    out and points up to one period out, one of them within 1e-3 of an end."""
    tau = complex(real, height)
    draw = data.draw
    count = draw(st.integers(1, 3))
    a = np.array([draw(st.floats(-1.5, 1.5)) for _ in range(count)] + [0.5])
    b = np.array([draw(st.floats(-1.5, 1.5)) for _ in range(count)] + [0.5])
    ends = np.array([draw(st.floats(-2, 2)) + draw(st.floats(-2, 2)) * tau for _ in range(2)])
    points = [draw(st.floats(-1, 1)) + draw(st.floats(-1, 1)) * tau for _ in range(2)]
    points.append(ends[draw(st.integers(0, 1))] + 1e-3 * np.exp(2j * np.pi * draw(unit)))
    table = theta_table(period_from_tau(tau), a, b, ends, np.empty(0, complex))[0]
    rows = theta_table_rows(table, np.array(points))
    for i, p in enumerate(points):
        for j, e in enumerate(ends):
            exact = [direct_row(a[k], b[k], e - p, tau) for k in range(len(a))]
            ref = max(range(len(a)), key=lambda k: abs(exact[k][0]) / exact[k][1])
            factor = mp.mpc(rows[i, j, ref]) / exact[ref][0]
            for k, (value, size) in enumerate(exact):
                assert abs(mp.mpc(rows[i, j, k]) / factor - value) <= 1e-13 * size, (i, j, k)


@settings(max_examples=24, derandomize=True, deadline=None, database=None)
@given(st.sampled_from([0.8, 3.0, 40.0, 190.0]), st.floats(-0.5, 0.5), st.data())
def test_walked_point_rows_match_direct_sums(height, real, data):
    """The rows theta_table returns at points, from the walk of its
    coefficients, over a reference row of their end match 40-digit direct
    sums within max(1e-13, 10 pi Im(tau) eps) of the row's sum of term
    moduli (the exponents round to about pi Im(tau) eps), for ends up to
    two periods out and points up to one period out, one of them within
    1e-3 of an end.  The table built with the points is, bit for bit, the
    one built with none, whose rows are empty."""
    tau = complex(real, height)
    draw = data.draw
    count = draw(st.integers(1, 3))
    a = np.array([draw(st.floats(-1.5, 1.5)) for _ in range(count)] + [0.5])
    b = np.array([draw(st.floats(-1.5, 1.5)) for _ in range(count)] + [0.5])
    ends = np.array([draw(st.floats(-2, 2)) + draw(st.floats(-2, 2)) * tau for _ in range(2)])
    points = [draw(st.floats(-1, 1)) + draw(st.floats(-1, 1)) * tau for _ in range(2)]
    points.append(ends[draw(st.integers(0, 1))] + 1e-3 * np.exp(2j * np.pi * draw(unit)))
    omega = period_from_tau(tau)
    table, rows = theta_table(omega, a, b, ends, np.array(points))
    alone, none = theta_table(omega, a, b, ends, np.empty(0, complex))
    for name in ("coeffs", "slopes", "gauss", "shift"):
        assert np.array_equal(getattr(table, name), getattr(alone, name)), name
    assert rows.shape == (len(a), len(points), len(ends))
    assert none.shape == (len(a), 0, len(ends))
    tol = max(1e-13, 10 * np.pi * height * EPS)
    for i, p in enumerate(points):
        for j, e in enumerate(ends):
            exact = [direct_row(a[k], b[k], e - p, tau) for k in range(len(a))]
            ref = max(range(len(a)), key=lambda k: abs(exact[k][0]) / exact[k][1])
            factor = mp.mpc(rows[ref, i, j]) / exact[ref][0]
            for k, (value, size) in enumerate(exact):
                assert abs(mp.mpc(rows[k, i, j]) / factor - value) <= tol * size, (i, j, k)


def lattice_multiplier(kernel, m, n):
    """The constant rho with K(p + m + n tau, q) = rho K(p, q): F diag(mu_k) F^-1
    with mu_k = (-exp(-2 pi i a_k))^m (-exp(2 pi i b_k))^n."""
    ab = kernel.channels.ab[:, :, 0]
    mu = (-np.exp(-2j * np.pi * ab[:, 0])) ** m * (-np.exp(2j * np.pi * ab[:, 1])) ** n
    if kernel.frame is None:
        return np.diag(mu)
    return kernel.frame @ np.diag(mu) @ kernel.frame_inv


@st.composite
def interpolation_cases(draw):
    """(chi kernel, chi~ kernel, data set, base point, sweep points): rank
    1-3 direct sums of torus line kernels, both under one random frame (or
    none), and 1-3 zeros and poles with random vectors.  The points are taken
    one per cell of a 4 x 4 grid over the parallelogram and then moved by
    lattice vectors up to two periods, except the sweep points."""
    r = draw(st.integers(1, 3))
    tau = complex(draw(st.floats(-0.4, 0.4)), draw(st.floats(0.8, 1.4)))
    surface = torus_surface(tau)
    kernels = [direct_sum_kernel([line_kernel(surface, line_bundle(draw(away), draw(unit)))
                                  for _ in range(r)]) for _ in range(2)]
    if draw(st.booleans()):
        frame = np.eye(r) + complex_matrix(draw, (r, r), 0.6 / r)
        kernels = [conjugated_kernel(kernel, frame) for kernel in kernels]
    cells = draw(st.permutations(range(16)))[:10]
    points = [(c // 4 + draw(st.floats(0.2, 0.8))) / 4
              + (c % 4 + draw(st.floats(0.2, 0.8))) / 4 * tau for c in cells]
    shifts = [draw(st.integers(-2, 2)) + draw(st.integers(-2, 2)) * tau for _ in range(7)]
    n = draw(st.integers(1, 3))
    vectors = [complex_matrix(draw, (1, r), 1.0) + np.eye(r)[k % r] for k in range(2 * n)]
    zeros = tuple(ZeroNode(z + s, x) for z, s, x in zip(points[:n], shifts, vectors[:n]))
    poles = tuple(PoleNode(z + s, u) for z, s, u in zip(points[n:2 * n], shifts[n:], vectors[n:]))
    data = InterpolationDataSet(surface, r, zeros, poles)
    return (*kernels, data, points[6] + shifts[6], points[7:])


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(interpolation_cases(), st.data())
def test_interpolant_on_table_far_nodes_and_multiplier_law(case, data):
    """T and T^-1 built with nodes and a base point outside the
    parallelogram match the partial-fraction formula over the kernels'
    channel pass within 100 cond(Gamma) eps of the scale of its terms, and
    obey T(p + m + n tau) = rho~ T(p) rho^-1 (T^-1: rho T^-1(p) rho~^-1)
    for |m|, |n| <= 4."""
    chi, tilde, dataset, base, sweep = case
    r = dataset.rank
    Q = np.eye(r) + complex_matrix(data.draw, (r, r), 0.3 / r)
    zeros = [(node.point, node.vectors[0]) for node in dataset.zeros]
    poles = [(node.point, node.vectors[0]) for node in dataset.poles]
    for build, kind in ((build_solution, "solution"), (build_inverse, "inverse")):
        try:
            T = build(dataset, base, Q, chi, tilde)
            batch = T.many(sweep)
        except SingularMatrix:   # x K u = 0, or a point on a zero of K
            assume(False)
        # the reference's kernel values at far-out nodes carry their own
        # rounding of about eps times the log of the theta sums' peaks
        tol = 100 * T.gamma.condition() * EPS
        for value, p in zip(batch, sweep):
            expected, scale = reference(kind, chi, tilde, zeros, poles, base, Q, p)
            assert np.linalg.norm(value - expected) <= tol * scale, kind
        m, n = data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 4))
        rho, rho_t = lattice_multiplier(chi, m, n), lattice_multiplier(tilde, m, n)
        shifted = T.many([p + m + n * dataset.surface.tau for p in sweep])
        for value, moved in zip(batch, shifted):
            law = rho_t @ value @ np.linalg.inv(rho) if kind == "solution" else \
                rho @ value @ np.linalg.inv(rho_t)
            assert rel_residual(moved, law) <= 1e-11, (kind, m, n)


@pytest.mark.parametrize("tau, a", [(0.2 + 40j, 0.23), (300j, 0.02)])
def test_interpolant_at_large_im_tau_matches_channel_pass(tau, a):
    """At Im(tau) = 40 (table) and 300 (past theta.MAX_TABLE_IM, the channel
    pass), T and T^-1 match the formula over the channel pass wherever that
    is finite, and raise its typed error where it is not: NonConvergent
    where a kernel value overflows, SingularMatrix where K(chi) is below
    1e-10; no RuntimeWarning (the test configuration makes them errors)."""
    surface = torus_surface(tau)
    rng = np.random.default_rng(11)
    chi = line_kernel(surface, line_bundle(a, 0.37))
    tilde = line_kernel(surface, line_bundle(-a, 0.61))
    # one zero and one pole, with q, within a tenth of a period in height,
    # so that Gamma's pass is finite; the sweep covers the parallelogram
    lam, mu, q = (x + (0.45 + 0.1 * y) * tau for x, y in rng.uniform(0, 1, (3, 2)))
    one = np.ones((1, 1))
    dataset = InterpolationDataSet(surface, 1, (ZeroNode(lam, one),), (PoleNode(mu, one),))
    Q = np.array([[1.3 - 0.4j]])
    sweep = [x + y * tau for x, y in rng.uniform(0, 1, (60, 2))]
    outcomes = set()
    for build, kind in ((build_solution, "solution"), (build_inverse, "inverse")):
        T = build(dataset, q, Q, chi, tilde)
        for p in sweep:
            try:
                kmat = chi(p, q) if kind == "solution" else chi(q, p)
                if abs(kmat[0, 0]) <= 1e-10:
                    raise SingularMatrix("K(chi) below 1e-10")
                expected, scale = reference(kind, chi, tilde, [(lam, one[0])], [(mu, one[0])],
                                            q, Q, p)
            except (NonConvergent, SingularMatrix) as exc:
                with pytest.raises(type(exc)):
                    T(p)
                outcomes.add(type(exc).__name__)
                continue
            # both sides round exponents up to pi Im(tau) in their theta sums
            tol = 10 * np.pi * tau.imag * EPS * scale
            assert np.linalg.norm(T(p) - expected) <= tol, (kind, p)
            outcomes.add("value")
    assert "value" in outcomes


def test_table_refuses_im_tau_past_its_range():
    """Past MAX_TABLE_IM a table factor could leave the double range, so the
    table is refused with NonConvergent (the interpolant keeps the channel
    pass there)."""
    with pytest.raises(NonConvergent):
        theta_table(period_from_tau(1j * (MAX_TABLE_IM + 1)), np.zeros(1), np.zeros(1),
                    np.zeros(1, dtype=complex), np.zeros(1, dtype=complex))


@pytest.mark.parametrize("chunk", [1, 64, 1 << 15])
def test_table_rows_bit_identical_across_chunks(chunk, monkeypatch):
    """A batch read in chunks of at most `chunk` terms gives each point the
    bits of its one-point read: a point's rows do not depend on its batch,
    nor on the layout of P (stride 2 reads a non-contiguous view), and a
    point given as a complex, reduced in Python scalars with no batch axis,
    has them too, as its (D, m) transpose (the points reach 3 periods out,
    lattice shifts n from -3 to 3).  33 ends and 5 characteristics are the
    table of an interp_torus benchmark solution."""
    import zpint.theta as theta_module

    monkeypatch.setattr(theta_module, "CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(7)
    tau = 0.3 + 0.9j
    for ends, chars, stride in ((4, 3, 1), (33, 5, 2)):
        table = theta_table(period_from_tau(tau), rng.uniform(-1, 1, chars),
                            rng.uniform(-1, 1, chars),
                            rng.uniform(-2, 2, ends) + rng.uniform(-2, 2, ends) * tau,
                            np.empty(0, complex))[0]
        P = (rng.uniform(-3, 3, 40 * stride) + rng.uniform(-3, 3, 40 * stride) * tau)[::stride]
        batch = theta_table_rows(table, P)
        assert batch.shape == (40, ends, chars)
        for i in range(40):
            assert np.array_equal(batch[i], theta_table_rows(table, P[i:i + 1])[0])
            assert np.array_equal(batch[i], theta_table_rows(table, P[i:i + 2])[0])
            assert np.array_equal(batch[i], theta_table_rows(table, complex(P[i])).T)


def test_far_table_rows_keep_their_outcome():
    """A point far out has one outcome alone and in a batch, with every
    warning an error: its rows with the same bits, in the (D, m) layout of
    one point (finite, though a point this far keeps no digit of its
    reduction or of its phase), or NonConvergent where a row is not finite
    (the reduction or a factor overflows, or the point is not finite);
    never a Python OverflowError or ValueError from rounding Im p / Im tau."""
    rng = np.random.default_rng(11)
    tau = 0.3 + 0.9j
    table = theta_table(period_from_tau(tau), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3),
                        rng.uniform(0, 1, 4) + rng.uniform(0, 1, 4) * tau,
                        np.empty(0, complex))[0]

    def outcome(read):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return read().tobytes()
            except NonConvergent as exc:
                return str(exc)

    outcomes = {}
    for p in (1e17 + 1e17j, 3e15j, 1e200, 1e308 + 1e308j, 1e308, -1.7e308j,
              complex(np.inf, 0.0), complex(np.nan, 1.0)):
        outcomes[p] = outcome(lambda: theta_table_rows(table, complex(p)))
        assert outcomes[p] == outcome(lambda: theta_table_rows(table, [p])[0].T), p
    refused = {p for p, seen in outcomes.items() if isinstance(seen, str)}
    assert 1e200 not in refused and {1e308, complex(np.inf, 0.0)} <= refused


@pytest.mark.parametrize("build", [build_solution, build_inverse])
def test_repeated_torus_build_makes_no_lattice_pass(monkeypatch, build):
    """Up to MAX_TABLE_IM a torus build reads every later value from one
    theta table of its ends (T its pole ends, T^-1 its zero ends), built by
    one theta_table call, and Gamma and its base column from the rows that
    call walks at the node points of the other side: a build reads no
    table rows (theta_table_rows), and once theta'(0) is cached for the
    modulus, a second build calls neither theta_rows nor the lattice sum."""
    import zpint.kernels as kernels_module
    import zpint.theta as theta_module

    tables = []

    def counted(*args, **kwargs):
        tables.append(args)
        return theta_module.theta_table(*args, **kwargs)

    monkeypatch.setattr(kernels_module, "theta_table", counted)
    reads = []

    def read(*args, **kwargs):
        reads.append(args)
        return theta_module.theta_table_rows(*args, **kwargs)

    monkeypatch.setattr(kernels_module, "theta_table_rows", read)

    surface = torus_surface(0.2 + 1.1j)
    chi, tilde = (direct_sum_kernel([line_kernel(surface, line_bundle(a, b)) for a, b in pair])
                  for pair in (((0.23, 0.41), (0.67, 0.19)), ((0.58, 0.73), (0.31, 0.88))))
    e = np.eye(2)
    data = InterpolationDataSet(
        surface, 2, (ZeroNode(0.21 + 0.33j, e[:1]), ZeroNode(0.12 + 0.82j, e[1:])),
        (PoleNode(0.45 + 0.12j, e[:1]), PoleNode(0.33 + 0.55j, e[1:])))
    Q = np.diag([1.2 - 0.1j, 0.8 + 0.4j])
    first = build(data, 0.52 + 0.18j, Q, chi, tilde)
    assert len(tables) == 1 and not reads

    def refused(*args, **kwargs):
        raise AssertionError("a lattice pass")

    for module, name in ((theta_module, "theta_rows"), (kernels_module, "theta_rows"),
                         (theta_module, "_sums")):
        monkeypatch.setattr(module, name, refused)
    T = build(data, 0.52 + 0.18j, Q, chi, tilde)
    assert len(tables) == 2 and not reads
    P = [0.71 + 0.25j, 0.9 + 0.93j]
    assert np.array_equal(T.gamma.matrix, first.gamma.matrix)
    assert np.array_equal(T.many(P), first.many(P))
    assert len(reads) == 2
