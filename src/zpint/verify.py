"""Acceptance battery and check table: every release criterion as a runnable check.

A check is one row {"name", "residual", "tolerance", "passed"}, built by
`check`.  Each identity is written once, as a function of one problem's
data, a seeded generator, a sample count and the tolerance scale:
`genus0_checks`, `genus0_product_check`, `line_equivalence_check`,
`fay_sweep_check`, `fay_degenerate_check` and `conint_checks`.  The
criteria `checks_*` feed them random problems and fold the rows with
`worst`, one row per name, a failing row first and then the largest
residual; the CLI feeds them the user's problem, so both report the same
names and tolerances.  run_all stitches the criteria into a single
report.  All randomness is drawn from a seeded generator (torus points
through `sample_points`), so a report is reproducible bit for bit for a
fixed seed and platform.  A check draws its points first and then
evaluates all of them in one array call, and hands `check` the array of
its residuals (or a list of such arrays), under the measures of
`zpint.numutil`; `check` alone folds them, with np.max, so a NaN residual
anywhere fails the row and no residual at all reads 0.
"""

from __future__ import annotations

import re
import time
from dataclasses import replace

import numpy as np

from .absint import (
    InterpolationDataSet,
    PoleNode,
    ZeroNode,
    build_solution,
    divisor_characteristic,
    fay_residual,
    forward_couplings,
    matrix_fay_residual,
    residue_condition_check,
    scalar_multiplicative,
    scalar_partial_fraction,
)
from .conint import (
    DEFAULT_XI,
    SECOND_XI,
    ConintSolution,
    check_condition_I3,
    check_gamma_equality,
    check_intertwining,
    convert_absint_to_conint,
    solve_conint,
)
from .detrep import (
    build_pencil,
    check_kernel_identities,
    curve_membership,
    line_section_condition,
    normalized_sections,
    pencil_membership,
)
from .errors import InputError, NotSquare, SingularMatrix, ZPViolated, ZpintError
from .genus0 import Genus0Problem, scalar_product_form, solve_genus0, sylvester_coefficients
from .kernels import (
    collection_residual,
    connection_duality_defect,
    direct_sum_kernel,
    extract_laurent_coeffs,
    genus0_kernel,
    line_connection_form,
    line_kernel,
)
from .numutil import EPS_GUARD, circle_modes, null_ratio, rel_gap
from .surface import (
    build_embedding_functions,
    lattice_reduce,
    line_bundle,
    prime_form,
    torus_surface,
)
from .theta import (
    PeriodMatrix,
    ThetaCharacteristic,
    period_from_tau,
    riemann_theta,
    theta_gradient,
    theta_many,
)

__all__ = ["run_all", "CRITERIA", "check", "worst", "sample_points", "genus0_checks",
           "genus0_product_check", "line_equivalence_check", "fay_sweep_check",
           "fay_degenerate_check", "conint_checks"]

# theta(0 | tau = i) = pi^(1/4) / Gamma(3/4), to 20 digits
THETA_AT_I = 1.0864348112133080146

TAUS = (1j, 2j, 0.3 + 0.8j)

# embedding pole points of the concrete-interpolation fixtures
CONINT_EMBEDDING = (0.16 + 0.23j, 0.55 + 0.66j, 0.79 + 0.16j)
# embedding pole points of the pole-collection and determinantal fixtures
DETREP_EMBEDDING = (0.13 + 0.21j, 0.52 + 0.64j, 0.77 + 0.18j)


def check(name, residual, tolerance):
    """One row of the check table; it passes when residual <= tolerance.
    The residual (a number, an array or a list of arrays of any shapes) is
    folded to its largest entry: 0.0 when there is none, NaN when any is."""
    if isinstance(residual, (list, tuple)):
        residual = np.concatenate([np.ravel(r) for r in residual] or [[]])
    residual = float(np.max(residual, initial=0.0))
    return {
        "name": name,
        "residual": residual,
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }


def worst(checks):
    """One check per name in first-seen order: a failing one if there is one
    (a NaN residual fails), else the one with the largest residual."""
    folded = {}
    for entry in checks:
        kept = folded.get(entry["name"])
        if kept is None or ((not entry["passed"], entry["residual"])
                            > (not kept["passed"], kept["residual"])):
            folded[entry["name"]] = entry
    return list(folded.values())


def _raises(name, exc_types, fn, match=None):
    """A negative control: it passes when fn raises exc_types with a message
    that the regular expression match finds (any message when None)."""
    try:
        fn()
    except exc_types as exc:
        if match is None or re.search(match, str(exc)):
            return check(name, 0.0, 0.5)
    except ZpintError:
        pass
    return check(name, 1.0, 0.5)


def sample_points(surf, rng, n, avoid=()):
    """n rejection-sampled torus points at lattice distance > 0.05 from
    `avoid`: the points of n successive one-point draws (a _point_chain
    with no step tied to the one before it)."""
    return _point_chain(surf, rng, [False] * n, avoid)


def _point_chain(surf, rng, after, avoid=()):
    """One torus point per step, drawn as successive one-point draws: step
    i takes the first (alpha, beta) row of the stream whose point is at
    lattice distance > 0.05 from avoid and, where after[i] (never at step
    0), from the point of step i - 1.

    Rows are drawn in blocks, one row per step still open, and each open
    step takes at least one row, so no row is drawn that the one-point
    draws would not draw (the last row of a block is the earliest that can
    close the last step).  The distances of a block are broadcast tests;
    only the choice of rows runs in Python.  Raises InputError when a step
    rejects 256 rows.
    """
    avoid = surf.points(list(avoid))
    out = np.zeros(len(after), dtype=complex)
    step = tries = 0
    while step < len(after):
        rows = rng.uniform(0.03, 0.97, (len(after) - step, 2))
        z = rows[:, 0] + rows[:, 1] * surf.tau
        free = (surf.distance(z[:, None], avoid) > 5e-2).all(axis=1).tolist()
        # column 0: the point of the step before the block (unused at step 0),
        # column j + 1: row j
        apart = (surf.distance(z[:, None], np.concatenate([[out[step - 1]], z])) > 5e-2
                 ).tolist() if any(after) else None
        last = 0
        for j, ok in enumerate(free):
            if ok and (not after[step] or apart[j][last]):
                out[step] = z[j]
                step, tries, last = step + 1, 0, j + 1
            else:
                tries += 1
                if tries == 256:
                    raise InputError(f"no torus point at distance > 0.05 from the avoided set "
                                     f"{avoid.tolist()} and the point before it")
    return out


def _random_period_g2(rng) -> PeriodMatrix:
    re = rng.uniform(-0.4, 0.4, (2, 2))
    re = (re + re.T) / 2
    a = rng.uniform(-0.5, 0.5, (2, 2))
    im = a @ a.T + 0.8 * np.eye(2)
    return PeriodMatrix(2, re + 1j * im)


# --- criterion 1: theta engine ---

def checks_theta(seed=1, tol_scale=1.0):
    rng = np.random.default_rng(seed)
    out = []
    zero_g1 = ThetaCharacteristic(np.zeros(1), np.zeros(1))
    periods = [period_from_tau(tau) for tau in TAUS]   # one matrix per modulus
    gaps = []
    for tau, pm in zip(TAUS, periods):   # one theta_many per tau, shifted and plain points
        draws = []
        for _ in range(40):
            z = rng.uniform(-1, 1) + 1j * rng.uniform(-0.8, 0.8) * abs(tau.imag)
            draws.append((z, int(rng.integers(-2, 3)), int(rng.integers(-2, 3))))
        z, m, n = (np.array(col) for col in zip(*draws))
        lhs, plain = theta_many(zero_g1, np.concatenate([z + tau * m + n, z])[:, None],
                                pm).reshape(2, -1)
        gaps.append(rel_gap(lhs, np.exp(-1j * np.pi * m * tau * m - 2j * np.pi * m * z)
                            * plain))
    for _ in range(80):   # one theta_many with two rows per random Omega
        pm = _random_period_g2(rng)
        z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.6, 0.6, 2)
        m = rng.integers(-2, 3, 2).astype(float)
        n = rng.integers(-2, 3, 2).astype(float)
        lhs, plain = theta_many(ThetaCharacteristic(np.zeros(2), np.zeros(2)),
                                [z + pm.omega @ m + n, z], pm)
        factor = np.exp(-1j * np.pi * (m @ pm.omega @ m) - 2j * np.pi * (m @ z))
        gaps.append(rel_gap(lhs, factor * plain))
    out.append(check("theta.quasi_periodicity", gaps, 1e-10 * tol_scale))

    val = riemann_theta(0.0, periods[TAUS.index(1j)])
    out.append(check("theta.value_at_i", abs(val - THETA_AT_I), 1e-9 * tol_scale))

    def fd_gaps(chi, lam, pm):
        """Gradient against central differences; the 2g rows lam +- h e_k
        are one theta_many call."""
        steps = h * np.eye(pm.genus)
        plus, minus = theta_many(chi, np.concatenate([lam + steps, lam - steps]),
                                 pm).reshape(2, -1)
        fd = (plus - minus) / (2 * h)
        return np.abs(theta_gradient(chi, lam, pm) - fd) / (np.abs(fd) + EPS_GUARD)

    gaps = []
    h = 1e-5
    for _ in range(10):
        pm = periods[int(rng.integers(0, 3))]
        chi = ThetaCharacteristic(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        gaps.append(fd_gaps(chi, rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5), pm))
    for _ in range(5):
        pm = _random_period_g2(rng)
        chi = ThetaCharacteristic(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        gaps.append(fd_gaps(chi, rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.4, 0.4, 2), pm))
    out.append(check("theta.gradient_vs_fd", gaps, 1e-6 * tol_scale))
    return out


# --- criterion 2: genus-0 interpolation ---

def _random_genus0_problem(rng, r, n):
    """n zeros and n poles in [-2, 2]^2, each more than 0.2 from the nodes
    drawn before it, with standard complex normal vectors.

    The draws are those of a one-node-at-a-time rejection loop (real part,
    then imaginary part per node; then per node the real and the
    imaginary parts of its vector), made in blocks: as sample_points does,
    each round draws one candidate per node still missing, so no candidate
    is drawn that the loop would not draw.
    """
    pts = []
    while len(pts) < 2 * n:
        for re, im in rng.uniform(-2, 2, (2 * n - len(pts), 2)).tolist():
            cand = re + 1j * im
            if all(abs(cand - p) > 0.2 for p in pts):
                pts.append(cand)
    parts = rng.standard_normal((2 * n, 2, r))
    nodes = list(zip(pts, parts[:, 0] + 1j * parts[:, 1]))
    return Genus0Problem(r, nodes[:n], nodes[n:])


def genus0_checks(problem, T, rng, samples=20, tol_scale=1.0):
    """Zero, pole and inverse conditions of the solution T of a genus-0 problem.

    Node residuals are relative to max(|T(3.7 + 1.1i)|, 1); T(z) T^-1(z) = I
    is sampled on [-4, 4]^2, skipping draws within 0.1 of a node.  Each
    condition evaluates T or T^-1 once, at all its points.
    """
    Ti = T.inverse()
    r = problem.rank
    scale = max(float(np.abs(T(3.7 + 1.1j)).max()), 1.0)
    zeros, poles = problem.zero_rows, problem.pole_rows
    lams, mus = zeros.points[zeros.node_of], poles.points[poles.node_of]
    xs, us = zeros.vectors.reshape(-1, 1, r), poles.vectors.reshape(-1, r, 1)
    draws = rng.uniform(-4, 4, (samples, 2))
    z = draws[:, 0] + 1j * draws[:, 1]
    z = z[~(np.abs(z[:, None] - np.concatenate([lams, mus])) < 0.1).any(axis=1)]
    tol = 1e-10 * tol_scale
    return [
        check("genus0.zero_conditions", np.abs(xs @ T.many(lams)) / scale, tol),
        check("genus0.pole_conditions", np.abs(Ti.many(mus) @ us) / scale, tol),
        check("genus0.inverse_identity", np.abs(T.many(z) @ Ti.many(z) - np.eye(r)), tol),
    ]


def genus0_product_check(lams, mus, rng, samples=50, tol_scale=1.0):
    """Scalar product form against its Sylvester partial fractions on [-5, 5]^2."""
    prod = scalar_product_form(lams, mus)
    coeffs = sylvester_coefficients(lams, mus)
    draws = rng.uniform(-5, 5, (samples, 2))
    z = draws[:, 0] + 1j * draws[:, 1]
    z = z[~(np.abs(z[:, None] - np.asarray(mus, dtype=complex)) < 0.1).any(axis=1)]
    pf = 1.0 + sum(c / (z - m) for c, m in zip(coeffs, mus))
    return check("genus0.product_vs_partial_fraction", rel_gap(pf, prod(z)), 1e-10 * tol_scale)


def checks_genus0(seed=2, tol_scale=1.0):
    rng = np.random.default_rng(seed)
    out = []
    solved = 0
    while solved < 50:
        r = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        problem = _random_genus0_problem(rng, r, n)
        try:
            T = solve_genus0(problem)
        except SingularMatrix:
            continue
        solved += 1
        out += genus0_checks(problem, T, rng, 20, tol_scale)

    for _ in range(10):
        n = int(rng.integers(1, 5))
        pts = rng.uniform(-2, 2, 2 * n) + 1j * rng.uniform(-2, 2, 2 * n)
        lams, mus = pts[:n], pts[n:]
        if min(abs(l - m) for l in lams for m in mus) < 0.1:
            continue
        out.append(genus0_product_check(lams, mus, rng, 50, tol_scale))
    return worst(out)


# --- criterion 3: Cauchy kernels ---

def _residue_defect(oracle, P0):
    """Entrywise distance from I of the -1 mode of K(., p0) at p0 (the kernel's
    residue) at each point of P0, read on all their circles in one kernel call."""
    def column(t):   # t is (16, N), row-major like the tiled P0
        return oracle(t.ravel(), np.tile(P0, len(t))).reshape(
            *t.shape, oracle.rank, oracle.rank)

    residue = circle_modes(column, P0, 1e-3, orders=(-1,))[-1]
    return np.abs(residue - np.eye(oracle.rank))


# the bundle of the line kernel of criteria 3, 6 and 7
_K1_BUNDLE = line_bundle(0.21, 0.37)


def _torus_kernels():
    """The torus of criteria 3, 6 and 7, a line kernel and its sum with a second."""
    surf = torus_surface(0.3 + 0.9j)
    k1 = line_kernel(surf, _K1_BUNDLE)
    return surf, k1, direct_sum_kernel([k1, line_kernel(surf, line_bundle(0.72, 0.11))])


def checks_kernel(seed=3, tol_scale=1.0):
    rng = np.random.default_rng(seed)
    out = []
    surf, k1, ksum = _torus_kernels()
    k0 = genus0_kernel(2)

    draws = [sample_points(surf, rng, 3), sample_points(surf, rng, 3),
             [rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in range(3)]]
    defects = [_residue_defect(oracle, P0) for oracle, P0 in zip((k1, ksum, k0), draws)]
    out.append(check("kernel.diagonal_residue", defects, 1e-8 * tol_scale))

    # connection coefficients at 10 points: A + A_l of each oracle on one
    # circle, A of k1 against its closed form
    P0 = sample_points(surf, rng, 10)
    dual_defects = [connection_duality_defect(oracle, P0) for oracle in (k1, ksum)]
    gap = extract_laurent_coeffs(k1, P0)[:, 0, 0] - line_connection_form(surf, _K1_BUNDLE)
    out.append(check("kernel.connection_duality", dual_defects, 1e-7 * tol_scale))
    # |gap| by hypot, the modulus of one complex number
    out.append(check("kernel.connection_closed_form", np.hypot(gap.real, gap.imag),
                     1e-6 * tol_scale))

    # duality: each side of each oracle is one kernel call over its 10 pairs
    dual_defects = []
    for oracle in (k1, ksum):
        P, Q = _point_chain(surf, rng, [False, True] * 10).reshape(10, 2).T.copy()
        forward = oracle(Q, P)
        defect = np.abs(oracle.dual()(P, Q).transpose(0, 2, 1) + forward)
        dual_defects.append(defect.max(axis=(1, 2)) / np.abs(forward).max(axis=(1, 2)))
    out.append(check("kernel.duality", dual_defects, 1e-10 * tol_scale))

    # pole collection: 50 draws (xi, p, q), every seventh from the fourth
    # with q = p; the even draws go to k1 and the odd ones to ksum, one call
    # per oracle
    emb = build_embedding_functions(surf, *DETREP_EMBEDDING)
    avoid = list(emb.pole_points)
    xis = [(1.0, 0.0), (0.0, 1.0)]
    while len(xis) < 50:
        xis.append((rng.standard_normal() + 1j * rng.standard_normal(),
                    rng.standard_normal() + 1j * rng.standard_normal()))
    # each p, then its q unless q = p
    paired = np.arange(50) % 7 != 3
    after = np.array([flag for pair in paired for flag in (False, True)[:1 + pair]])
    points = _point_chain(surf, rng, after, avoid)
    P = points[~after]
    Q = P.copy()
    Q[paired] = points[after]
    col_residuals = [collection_residual(oracle, emb, P[at::2], Q[at::2], xis[at::2])
                     for at, oracle in enumerate((k1, ksum))]
    out.append(check("kernel.collection_formula", col_residuals, 1e-8 * tol_scale))
    return out


# --- criterion 4: trisecant identity ---

def _trisecant_draws(surf, rng, samples, points, z_re, z_im):
    """(samples, 1 + points) rows: z, uniform in the box z_re x z_im, then
    the given number of torus points, as sample_points draws them with
    nothing to avoid.  One block of doubles, each column scaled to its range
    as rng.uniform scales it (low + (high - low) u), so the stream is that of
    the sample-by-sample draws."""
    u = rng.random((samples, 2 + 2 * points))
    lows = np.array([z_re[0], z_im[0], *(0.03,) * (2 * points)])
    highs = np.array([z_re[1], z_im[1], *(0.97,) * (2 * points)])
    u = lows + (highs - lows) * u
    return np.column_stack([u[:, 0] + 1j * u[:, 1], u[:, 2::2] + u[:, 3::2] * surf.tau])


def fay_sweep_check(surf, rng, samples=200, tol_scale=1.0):
    """Trisecant identity at random z and four random torus points."""
    draws = _trisecant_draws(surf, rng, samples, 4, (-0.5, 0.5), (-0.4, 0.4))
    return check("fay.random_sweep", fay_residual(surf, *draws.T), 1e-9 * tol_scale)


def fay_degenerate_check(surf, rng, samples=10, tol_scale=1.0):
    """Trisecant identity where lambda = mu and where p = lambda."""
    z, p, q, lam = _trisecant_draws(surf, rng, samples, 3, (-0.4, 0.4), (-0.3, 0.3)).T
    residuals = fay_residual(surf, *np.hstack([[z, p, q, lam, lam], [z, lam, q, lam, p]]))
    return check("fay.degenerate_collapses", residuals, 1e-10 * tol_scale)


def checks_fay(seed=4, tol_scale=1.0):
    rng = np.random.default_rng(seed)
    surfaces = [torus_surface(tau) for tau in TAUS]
    out = [fay_sweep_check(surf, rng, 200, tol_scale) for surf in surfaces]
    out += [fay_degenerate_check(surf, rng, 10, tol_scale) for surf in surfaces]
    return worst(out)


# --- criterion 5: multiplicative vs partial fraction (line bundles) ---

def line_equivalence_check(surf, zeros, poles, chi, chit, q, Q, rng,
                           samples=50, tol_scale=1.0):
    """Multiplicative and partial-fraction forms of one line problem agree."""
    t_mult = scalar_multiplicative(surf, zeros, poles, chi, chit, q, Q)
    t_pf = scalar_partial_fraction(surf, zeros, poles, chi, chit, q, Q)
    P = sample_points(surf, rng, samples, avoid=[*zeros, *poles, q])
    return check("line.mult_vs_partial_fraction", rel_gap(t_mult(P), t_pf(P)), 1e-9 * tol_scale)


def checks_scalar_equivalence(seed=5, tol_scale=1.0):
    rng = np.random.default_rng(seed)
    draws = []
    surf = torus_surface(0.25 + 1.1j)
    for n in (1, 2, 3):
        chi = line_bundle(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        zeros = sample_points(surf, rng, n).tolist()
        poles = sample_points(surf, rng, n, avoid=zeros).tolist()
        a_w, b_w, _ = divisor_characteristic(surf, zeros, poles)
        chit = line_bundle(chi.a + a_w, chi.b + b_w)
        q, = sample_points(surf, rng, 1, avoid=zeros + poles)
        draws.append(line_equivalence_check(surf, zeros, poles, chi, chit, q,
                                            1.3 - 0.4j, rng, 50, tol_scale))
    out = worst(draws)

    # single-pair case, term-by-term plain-theta assembly
    chi = line_bundle(0.23, 0.41)
    lam, mu = 0.21 + 0.33j, 0.67 + 0.52j
    a1, b1, _ = divisor_characteristic(surf, [lam], [mu])
    chit = line_bundle(chi.a + a1, chi.b + b1)
    q = 0.52 + 0.18j
    Q = 0.9 + 0.7j
    t_mult = scalar_multiplicative(surf, [lam], [mu], chi, chit, q, Q)
    pm = surf.period
    z_chi = complex(chi.jacobian_point(pm)[0])
    a_exp = float(a1[0])
    P = sample_points(surf, rng, 50, avoid=[lam, mu, q])
    zero = ThetaCharacteristic(np.zeros(1), np.zeros(1))

    def spread(*values):   # each value over the points, one row set after another
        return np.concatenate(np.broadcast_arrays(P, *values)[1:])

    # every theta term in one theta_many call, every prime form in one
    # prime_form call; each value has the bits of its own call
    th = theta_many(zero, spread(z_chi + lam - mu + q - P, z_chi, z_chi + lam - mu,
                                 z_chi + q - P, z_chi + lam - P, z_chi + q - mu)[:, None],
                    pm).reshape(6, -1)
    E = prime_form(surf, spread(mu, q, mu, q), spread(lam, P, P, lam)).reshape(4, -1)
    pre = np.exp(-2j * np.pi * a_exp * (P - q))
    main = th[0] * th[1] / (th[2] * th[3])
    cross = th[4] * th[5] * E[0] * E[1] / (th[2] * th[3] * E[2] * E[3])
    out.append(check("line.single_pair_term_assembly",
                     rel_gap(t_mult(P), pre * (main - cross) * Q), 1e-9 * tol_scale))
    return out


# --- criterion 6: matrix single-pair identity ---

def checks_matrix_fay(seed=6, tol_scale=1.0):
    rng = np.random.default_rng(seed)
    k0 = genus0_kernel(2)
    x = np.array([1.0, 0.5 - 0.3j])
    u = np.array([0.2 + 0.1j, 1.0])
    pts = [rng.uniform(-4, 4) + 1j * rng.uniform(-4, 4) for _ in range(30)]
    res0 = matrix_fay_residual(k0, k0, 2.0, x, 3.0 + 1j, u, 40.0 + 3j,
                               np.eye(2) + 0.1j * np.ones((2, 2)), pts)

    surf, _, kt = _torus_kernels()
    lam, mu = 0.21 + 0.33j, 0.67 + 0.52j
    q = 0.52 + 0.18j
    pts = sample_points(surf, rng, 30, avoid=[lam, mu, q])
    Qm = np.array([[1.1, 0.2j], [0.1, 0.9 - 0.3j]])
    res1 = matrix_fay_residual(kt, kt, lam, x, mu, u, q, Qm, pts)
    return [check("matrix_fay.genus0_r2", res0, 1e-10 * tol_scale),
            check("matrix_fay.genus1_r2_direct_sum", res1, 1e-8 * tol_scale)]


# --- criterion 7: determinantal representations ---

def detrep_fixture():
    """(surface, embedding, pencils) of criterion 7: the pencils of the
    kernels k1 and ksum of _torus_kernels, keyed by kernel in that order."""
    surf, k1, ksum = _torus_kernels()
    emb = build_embedding_functions(surf, *DETREP_EMBEDDING)
    return surf, emb, {oracle: build_pencil(oracle, emb) for oracle in (k1, ksum)}


def checks_detrep(seed=7, tol_scale=1.0, fixture=None):
    """Criterion 7 on fixture, detrep_fixture() (built here when None)."""
    rng = np.random.default_rng(seed)
    out = []
    surf, emb, pencils = fixture or detrep_fixture()
    _, ksum = pencils
    avoid = list(emb.pole_points)
    residuals = []
    for oracle, pencil in pencils.items():
        xis = [DEFAULT_XI, SECOND_XI,
               (rng.standard_normal() + 1j * rng.standard_normal(),
                rng.standard_normal() + 1j * rng.standard_normal())]
        P = sample_points(surf, rng, 20, avoid=avoid)
        residuals += check_kernel_identities(pencil, normalized_sections(oracle, emb),
                                             emb, P, xis)
    out.append(check("detrep.kernel_identities", residuals, 1e-7 * tol_scale))

    pencil2 = pencils[ksum]
    det_rel, kdim = curve_membership(pencil2, emb, sample_points(surf, rng, 100, avoid=avoid))
    out.append(check("detrep.on_curve_membership", det_rel, 1e-7 * tol_scale))
    out.append(check("detrep.on_curve_kernel_dim",
                     0.0 if np.all(kdim == ksum.rank) else 1.0, 0.5))

    # Generic off-curve probes: over a random first coordinate, the curve
    # has finitely many heights (roots of det in z2); placing the probe a
    # unit away from all of them makes "off the curve" a certainty rather
    # than a likelihood.
    probes = []
    for _ in range(20):
        z1 = rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3)
        probes.append((z1, _off_curve_height(pencil2, z1, rng)))
    det_rel, _ = pencil_membership(pencil2, *np.transpose(probes))
    # every probe must be seen off the curve: the row reads the least det_rel
    out.append(check("detrep.off_curve_separation", 1.0 / det_rel, 1e3 / tol_scale))

    xsum = sum(avoid)
    y1, = sample_points(surf, rng, 1)
    y2, = sample_points(surf, rng, 1, avoid=[y1])
    y3 = lattice_reduce(xsum - y1 - y2, surf.tau)
    cond = line_section_condition(ksum, emb, [y1, y2, y3])
    out.append(check("detrep.line_section_condition", cond, 1e10))
    return out


def _off_curve_height(pencil, z1, rng) -> complex:
    """A z2 with (z1, z2) at distance at least 1 from every curve height.

    det of the pencil along the vertical line is a polynomial in z2 whose
    roots are the fiber of the curve; interpolation on a circle of nodes
    recovers it exactly.

    Raises InputError, naming the heights, when 256 draws in [-4, 4]^2 all
    land within 1 of one.
    """
    size = pencil.size
    nodes = 4.0 * np.exp(2j * np.pi * np.arange(size + 1) / (size + 1))
    coeffs = np.polyfit(nodes, np.linalg.det(pencil.pencil(z1, nodes)), size)
    scale = np.abs(coeffs).max()
    trimmed = np.trim_zeros(np.where(np.abs(coeffs) > 1e-10 * scale, coeffs, 0.0),
                            trim="f")
    roots = np.roots(trimmed) if trimmed.size > 1 else np.zeros(0)
    # stay at moderate height: far out the pencil degenerates toward the
    # singular sigma coefficient, i.e. toward the curve's points at infinity
    for _ in range(256):
        z2 = rng.uniform(-4, 4) + 1j * rng.uniform(-4, 4)
        if not roots.size or np.abs(z2 - roots).min() >= 1.0:
            return z2
    raise InputError(f"no off-curve probe over z1 = {z1!r} at distance 1 from the "
                     f"curve heights {roots.tolist()}")


# --- criterion 8: concrete interpolation ---

def _scalar_fixture(surf, q):
    zeros = [0.13 + 0.27j, 0.61 + 0.43j]
    poles = [0.37 + 0.71j, 0.83 + 0.11j]
    chi = line_bundle(0.23, 0.41)
    a_w, b_w, _ = divisor_characteristic(surf, zeros, poles)
    chit = line_bundle(chi.a + a_w, chi.b + b_w)
    oracle_chi = line_kernel(surf, chi)
    oracle_tilde = line_kernel(surf, chit)
    data = InterpolationDataSet(
        surface=surf, rank=1,
        zeros=tuple(ZeroNode(z, np.array([[1.0]])) for z in zeros),
        poles=tuple(PoleNode(p, np.array([[1.0]])) for p in poles),
    )
    T = build_solution(data, q, np.array([[1.3 - 0.4j]]), oracle_chi, oracle_tilde)
    return surf, data, oracle_chi, oracle_tilde, T


def _shift_poles(data):
    """The data with every pole moved by 0.01: no longer a solvable problem."""
    return InterpolationDataSet(
        surface=data.surface, rank=data.rank, zeros=data.zeros,
        poles=tuple(PoleNode(p.point + 0.01, p.vectors) for p in data.poles),
    )


def _triangular_fixture(surf, q):
    """Rank-2 upper-triangular map with two coincident zero/pole pairs."""
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
    f1 = scalar_multiplicative(surf, [xi_c], [mu_star], chi1, chit1, q, 1.0 + 0.3j)
    f2 = scalar_multiplicative(surf, [lam_star], [xi_c], chi2, chit2, q, 0.8 - 0.5j)
    g = scalar_multiplicative(surf, [lam_g], [mu_g], chi2, chit1, q, 1.3 - 0.4j)

    def t_known(p):   # (2, 2) at one point, (N, 2, 2) over a sequence
        c = f2(p)
        return np.stack([f1(p), g(p), np.zeros_like(c), c], -1).reshape(np.shape(c) + (2, 2))

    oracle_chi = direct_sum_kernel([line_kernel(surf, chi1), line_kernel(surf, chi2)])
    oracle_tilde = direct_sum_kernel([line_kernel(surf, chit1), line_kernel(surf, chit2)])
    e1 = np.array([[1.0, 0.0]])
    e2 = np.array([[0.0, 1.0]])
    mu_g_red = lattice_reduce(mu_g, surf.tau)
    zeros = (ZeroNode(xi_c, e1), ZeroNode(lam_star, e2), ZeroNode(mu_g_red, e2))
    poles = (PoleNode(mu_star, e1), PoleNode(xi_c, e2), PoleNode(mu_g_red, e1))
    rho = forward_couplings(t_known, surf, zeros, poles, oracle_chi, oracle_tilde, q)
    data = InterpolationDataSet(surface=surf, rank=2, zeros=zeros, poles=poles,
                                couplings=rho)
    T = build_solution(data, q, t_known(q), oracle_chi, oracle_tilde)
    return surf, data, oracle_chi, oracle_tilde, T, t_known


def conint_checks(data, oracle_chi, oracle_tilde, T, emb, q, rng,
                  samples=20, tol_scale=1.0):
    """Concrete round trip of abstract data whose solution is T: (checks, solution).

    Membership and kernel mapping take `samples` points, intertwining (which
    evaluates T) two fifths as many, away from the nodes and q as well.
    """
    surf = data.surface
    converted = convert_absint_to_conint(data, oracle_tilde, emb)
    solution = solve_conint(converted)

    avoid = list(emb.pole_points)
    node_pts = [n.point for n in (*data.zeros, *data.poles)]
    P = sample_points(surf, rng, samples, avoid=avoid)
    det_rel, _ = curve_membership(solution.pencil_new, emb, P)

    z = emb.lambda_values(P)
    _, _, vh = np.linalg.svd(solution.pencil_new.pencil(z[:, 0], z[:, 1]))
    image = solution.apply(z, np.swapaxes(vh[:, -oracle_chi.rank:].conj(), 1, 2))
    ref = converted.pencil.pencil(z[:, 0], z[:, 1])

    P = sample_points(surf, rng, samples * 2 // 5, avoid=[*avoid, *node_pts, q])
    intertwining = check_intertwining(solution, T, oracle_chi, oracle_tilde, emb, P)
    i3 = [check_condition_I3(solution, emb, pair, xi=xi)
          for pair in converted.coincident_pairs() for xi in (DEFAULT_XI, SECOND_XI)]

    return [
        check("conint.gamma0_xi_independence", solution.xi_consistency, 1e-8 * tol_scale),
        check("conint.gamma_equality",
              check_gamma_equality(data, oracle_tilde, converted), 1e-8 * tol_scale),
        check("conint.gamma_update_membership", det_rel, 1e-7 * tol_scale),
        check("conint.kernel_mapping", null_ratio(ref, image), 1e-7 * tol_scale),
        check("conint.intertwining", intertwining, 1e-7 * tol_scale),
        check("conint.coupling_round_trip", i3, 1e-5 * tol_scale),
    ], solution


def checks_conint(seed=8, tol_scale=1.0):
    rng = np.random.default_rng(seed)
    surf = torus_surface(0.25 + 1.1j)
    q = 0.52 + 0.18j
    fixtures = (_scalar_fixture(surf, q), _triangular_fixture(surf, q)[:5])
    emb = build_embedding_functions(surf, *CONINT_EMBEDDING)
    out = []
    for _, data, oracle_chi, oracle_tilde, T in fixtures:
        checks, _ = conint_checks(data, oracle_chi, oracle_tilde, T, emb, q, rng,
                                  20, tol_scale)
        out += checks
    return worst(out)


# --- criterion 9: negative controls ---

def checks_negative(seed=9, tol_scale=1.0):
    rng = np.random.default_rng(seed)
    out = []

    def nonsquare():
        problem = Genus0Problem(
            rank=1,
            zeros=((0.0, [1.0]), (1.0, [1.0])),
            poles=((2.0, [1.0]),),
        )
        solve_genus0(problem)

    out.append(_raises("negative.genus0_nonsquare", NotSquare, nonsquare))

    def singular():
        problem = Genus0Problem(
            rank=2,
            zeros=((0.0, [1.0, 0.0]), (1.0, [1.0, 0.0])),
            poles=((2.0, [0.0, 1.0]), (3.0, [0.0, 1.0])),
        )
        solve_genus0(problem)

    out.append(_raises("negative.genus0_singular_gamma", SingularMatrix, singular,
                       match="^coupling matrix condition"))

    q = 0.52 + 0.18j
    surf, data, oracle_chi, oracle_tilde, _ = _scalar_fixture(torus_surface(0.3 + 0.9j), q)

    def absint_nonsquare():
        short = InterpolationDataSet(surface=surf, rank=1, zeros=data.zeros[:1],
                                     poles=data.poles)
        build_solution(short, q, np.array([[1.0]]), oracle_chi, oracle_tilde)

    out.append(_raises("negative.absint_nonsquare", NotSquare, absint_nonsquare))

    # perturbed pole: residue condition must light up
    rc = residue_condition_check(_shift_poles(data), q, np.array([[1.0]]),
                                 oracle_chi, oracle_tilde)
    # every pole must see the fault: the row reads the least residual
    out.append(check("negative.perturbed_residue_condition",
                     [1.0 / (r + EPS_GUARD) for _, r in rc], 1e3 / tol_scale))

    # perturbed data behind T: intertwining against the honest S must light up.
    # (Perturbing the base value alone cannot: the boundary normalization
    # diag(T(x^i)) absorbs any valid solution of the same data.)
    surf2, data, kchi, ktil, T = _scalar_fixture(torus_surface(0.25 + 1.1j), q)
    emb = build_embedding_functions(surf2, *CONINT_EMBEDDING)
    converted = convert_absint_to_conint(data, ktil, emb)
    solution = solve_conint(converted)
    t_bad = build_solution(_shift_poles(data), q, np.array([[1.3 - 0.4j]]), kchi, ktil)
    node_pts = [n.point for n in (*data.zeros, *data.poles)]
    avoid = [*emb.pole_points, *node_pts, q]
    bad = check_intertwining(solution, t_bad, kchi, ktil, emb,
                             sample_points(surf2, rng, 5, avoid=avoid))
    # one point that sees the fault is enough: fold to the largest residual here
    out.append(check("negative.perturbed_intertwining",
                     1.0 / (bad.max() + EPS_GUARD), 1e3 / tol_scale))

    # tampered couplings checked against an honest solution
    _, data2, kc2, kt2, t2, _ = _triangular_fixture(surf2, q)
    conv2 = convert_absint_to_conint(data2, kt2, emb)
    sol2 = solve_conint(conv2)
    tampered = replace(conv2, couplings={k: v + 0.01 for k, v in conv2.couplings.items()})
    sol_tampered = ConintSolution(tampered, sol2.gamma0, sol2.gamma, sol2.xi_consistency)
    res = check_condition_I3(sol_tampered, emb, (0, 1))
    # as above: one coupling entry that sees the tampering is enough
    out.append(check("negative.tampered_coupling",
                     1.0 / (res.max() + EPS_GUARD), 1e3 / tol_scale))

    def zp_violated():
        # null rows turned off the pencil's left kernel (accepted at a loose
        # membership tolerance) break the pairing psi (xi sigma) phi = 0
        zeros = tuple(ZeroNode(z.point, z.vectors + 0.05 * np.roll(z.vectors, 1, axis=1))
                      for z in conv2.zeros)
        solve_conint(replace(conv2, zeros=zeros, membership_tol=1.0))

    out.append(_raises("negative.conint_zp_violation", ZPViolated, zp_violated))
    return out


CRITERIA = (
    ("theta_engine", checks_theta, 10.0),
    ("genus0_interpolation", checks_genus0, 5.0),
    ("cauchy_kernel", checks_kernel, 20.0),
    ("fay_trisecant", checks_fay, 30.0),
    ("scalar_equivalence", checks_scalar_equivalence, 30.0),
    ("matrix_fay", checks_matrix_fay, 30.0),
    ("determinantal_rep", checks_detrep, 60.0),
    ("concrete_interpolation", checks_conint, 60.0),
    ("negative_controls", checks_negative, 60.0),
)


def run_all(seed: int = 0, tol_scale: float = 1.0, only=None) -> dict:
    """Run the acceptance battery; returns a JSON-ready report."""
    report = {"seed": int(seed), "tol_scale": float(tol_scale), "criteria": []}
    all_pass = True
    for idx, (name, fn, budget) in enumerate(CRITERIA):
        if only is not None and name not in only:
            continue
        start = time.perf_counter()
        checks = fn(seed=seed + idx + 1, tol_scale=tol_scale)
        elapsed = time.perf_counter() - start
        checks.append(check(f"{name}.runtime_seconds", elapsed, budget))
        passed = all(c["passed"] for c in checks)
        all_pass = all_pass and passed
        report["criteria"].append({
            "name": name,
            "elapsed_s": elapsed,
            "passed": passed,
            "checks": checks,
        })
    report["passed"] = all_pass
    return report
