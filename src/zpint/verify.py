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
evaluates all of them in one array call; its residuals are folded with
np.max, so a NaN residual fails the check.
"""

from __future__ import annotations

import re
import time
from dataclasses import replace
from functools import partial

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
    direct_sum_kernel,
    evaluate_many,
    extract_laurent_coeffs,
    genus0_kernel,
    line_connection_form,
    line_kernel,
)
from .numutil import circle_modes
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


def check(name, residual, tolerance):
    """One row of the check table; it passes when residual <= tolerance."""
    residual = float(residual)
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
    """n rejection-sampled torus points at lattice distance > 0.05 from `avoid`.

    Each round draws the (alpha, beta) rows still missing as one block, as
    many single draws would, and keeps those that pass one broadcast
    distance test: the points of n successive one-point draws.  Raises
    InputError when 256 rounds leave fewer than n points.
    """
    avoid = surf.points(list(avoid))
    out = np.zeros(0, dtype=complex)
    for _ in range(256):
        rows = rng.uniform(0.03, 0.97, (n - len(out), 2))
        z = rows[:, 0] + rows[:, 1] * surf.tau
        if avoid.size:   # with nothing to avoid every row is kept
            z = z[(surf.distance(z[:, None], avoid) > 5e-2).all(axis=1)]
        out = np.concatenate([out, z])
        if len(out) == n:
            return out
    raise InputError(f"no {n} torus points at distance > 0.05 from the avoided set "
                     f"{avoid.tolist()}")


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

    def rel_gap(lhs, rhs):
        return np.abs(lhs - rhs) / (np.abs(lhs) + np.abs(rhs))

    gaps = []
    for tau in TAUS:   # one theta_many per tau over the shifted and plain points
        pm = period_from_tau(tau)
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
        gaps.append(rel_gap(lhs, factor * plain)[None])
    out.append(check("theta.quasi_periodicity", np.max(np.concatenate(gaps)),
                     1e-10 * tol_scale))

    val = riemann_theta(0.0, period_from_tau(1j))
    out.append(check("theta.value_at_i", abs(val - THETA_AT_I), 1e-9 * tol_scale))

    def fd_gaps(chi, lam, pm):
        """Gradient against central differences; the 2g rows lam +- h e_k
        are one theta_many call."""
        steps = h * np.eye(pm.genus)
        plus, minus = theta_many(chi, np.concatenate([lam + steps, lam - steps]),
                                 pm).reshape(2, -1)
        fd = (plus - minus) / (2 * h)
        return np.abs(theta_gradient(chi, lam, pm) - fd) / (np.abs(fd) + 1e-300)

    gaps = []
    h = 1e-5
    for _ in range(10):
        pm = period_from_tau(TAUS[int(rng.integers(0, 3))])
        chi = ThetaCharacteristic(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        gaps.append(fd_gaps(chi, rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5), pm))
    for _ in range(5):
        pm = _random_period_g2(rng)
        chi = ThetaCharacteristic(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        gaps.append(fd_gaps(chi, rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.4, 0.4, 2), pm))
    out.append(check("theta.gradient_vs_fd", np.max(np.concatenate(gaps)), 1e-6 * tol_scale))
    return out


# --- criterion 2: genus-0 interpolation ---

def _random_genus0_problem(rng, r, n):
    pts = []
    while len(pts) < 2 * n:
        cand = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        if all(abs(cand - p) > 0.2 for p in pts):
            pts.append(cand)
    zeros = tuple(
        (pts[i], rng.standard_normal(r) + 1j * rng.standard_normal(r))
        for i in range(n)
    )
    poles = tuple(
        (pts[n + i], rng.standard_normal(r) + 1j * rng.standard_normal(r))
        for i in range(n)
    )
    return Genus0Problem(rank=r, zeros=zeros, poles=poles)


def genus0_checks(problem, T, rng, samples=20, tol_scale=1.0):
    """Zero, pole and inverse conditions of the solution T of a genus-0 problem.

    Node residuals are relative to max(|T(3.7 + 1.1i)|, 1); T(z) T^-1(z) = I
    is sampled on [-4, 4]^2, skipping draws within 0.1 of a node.  Each
    condition evaluates T or T^-1 once, at all its points.
    """
    Ti = T.inverse()
    r = problem.rank
    scale = max(float(np.abs(T(3.7 + 1.1j)).max()), 1.0)
    lams = np.array([lam for lam, _ in problem.zeros], dtype=complex)
    mus = np.array([mu for mu, _ in problem.poles], dtype=complex)
    xs = np.array([x for _, x in problem.zeros], dtype=complex).reshape(-1, 1, r)
    us = np.array([u for _, u in problem.poles], dtype=complex).reshape(-1, r, 1)
    worst_zero = np.abs(xs @ T.many(lams)).max(initial=0.0) / scale
    worst_pole = np.abs(Ti.many(mus) @ us).max(initial=0.0) / scale
    draws = rng.uniform(-4, 4, (samples, 2))
    z = draws[:, 0] + 1j * draws[:, 1]
    z = z[~(np.abs(z[:, None] - np.concatenate([lams, mus])) < 0.1).any(axis=1)]
    worst_inv = np.abs(T.many(z) @ Ti.many(z) - np.eye(r)).max(initial=0.0)
    tol = 1e-10 * tol_scale
    return [
        check("genus0.zero_conditions", worst_zero, tol),
        check("genus0.pole_conditions", worst_pole, tol),
        check("genus0.inverse_identity", worst_inv, tol),
    ]


def genus0_product_check(lams, mus, rng, samples=50, tol_scale=1.0):
    """Scalar product form against its Sylvester partial fractions on [-5, 5]^2."""
    prod = scalar_product_form(lams, mus)
    coeffs = sylvester_coefficients(lams, mus)
    draws = rng.uniform(-5, 5, (samples, 2))
    z = draws[:, 0] + 1j * draws[:, 1]
    z = z[~(np.abs(z[:, None] - np.asarray(mus, dtype=complex)) < 0.1).any(axis=1)]
    pf = 1.0 + sum(c / (z - m) for c, m in zip(coeffs, mus))
    pr = prod(z)
    worst_eq = (np.abs(pf - pr) / (np.abs(pf) + np.abs(pr))).max(initial=0.0)
    return check("genus0.product_vs_partial_fraction", worst_eq, 1e-10 * tol_scale)


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
    """Largest distance from I of the -1 mode of K(., p0) at p0 (the kernel's
    residue) over the points P0, read on all their circles in one kernel call."""
    def column(t):   # t is (16, N), row-major like the tiled P0
        return evaluate_many(oracle, t.ravel(), np.tile(P0, len(t))).reshape(
            *t.shape, oracle.rank, oracle.rank)

    residue = circle_modes(column, P0, 1e-3, orders=(-1,))[-1]
    return float(np.abs(residue - np.eye(oracle.rank)).max(initial=0.0))


def _torus_kernels():
    """The torus of criteria 3, 6 and 7, a line kernel and its sum with a second."""
    surf = torus_surface(0.3 + 0.9j)
    k1 = line_kernel(surf, line_bundle(0.21, 0.37))
    return surf, k1, direct_sum_kernel([k1, line_kernel(surf, line_bundle(0.72, 0.11))])


def checks_kernel(seed=3, tol_scale=1.0):
    rng = np.random.default_rng(seed)
    out = []
    surf, k1, ksum = _torus_kernels()
    k0 = genus0_kernel(2)

    defects = []
    for oracle in (k1, ksum, k0):
        if oracle is k0:
            draws = [rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in range(3)]
        else:
            draws = sample_points(surf, rng, 3)
        defects.append(_residue_defect(oracle, draws))
    out.append(check("kernel.diagonal_residue", np.max(defects), 1e-8 * tol_scale))

    dual_defects = []
    closed_gaps = []
    closed = line_connection_form(surf, k1.channels.bundles[0])
    for p0 in sample_points(surf, rng, 10):
        cc = extract_laurent_coeffs(k1, p0)
        cc2 = extract_laurent_coeffs(ksum, p0)
        dual_defects += [cc.duality_defect(), cc2.duality_defect()]
        closed_gaps.append(abs(cc.A[0, 0] - closed))
    out.append(check("kernel.connection_duality", np.max(dual_defects), 1e-7 * tol_scale))
    out.append(check("kernel.connection_closed_form", np.max(closed_gaps), 1e-6 * tol_scale))

    # duality: each side of each oracle is one kernel call over its 10 pairs
    dual_defects = []
    for oracle in (k1, ksum):
        P, Q = [], []
        for _ in range(10):
            P.append(sample_points(surf, rng, 1)[0])
            Q.append(sample_points(surf, rng, 1, avoid=P[-1:])[0])
        forward = evaluate_many(oracle, Q, P)
        defect = np.abs(evaluate_many(oracle.dual(), P, Q).transpose(0, 2, 1) + forward)
        dual_defects.append(defect.max(axis=(1, 2)) / np.abs(forward).max(axis=(1, 2)))
    out.append(check("kernel.duality", np.max(dual_defects), 1e-10 * tol_scale))

    emb = build_embedding_functions(surf, 0.13 + 0.21j, 0.52 + 0.64j, 0.77 + 0.18j)
    avoid = list(emb.pole_points)
    col_residuals = []
    draws = [(1.0, 0.0), (0.0, 1.0)]
    while len(draws) < 50:
        draws.append((rng.standard_normal() + 1j * rng.standard_normal(),
                      rng.standard_normal() + 1j * rng.standard_normal()))
    for idx, xi in enumerate(draws):
        oracle = ksum if idx % 2 else k1
        p, = sample_points(surf, rng, 1, avoid=avoid)
        if idx % 7 == 3:
            q = p  # degenerate branch
        else:
            q, = sample_points(surf, rng, 1, avoid=avoid + [p])
        col_residuals.append(collection_residual(oracle, emb, p, q, xi))
    out.append(check("kernel.collection_formula", np.max(col_residuals), 1e-8 * tol_scale))
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
    residuals = fay_residual(surf, *draws.T)
    return check("fay.random_sweep", residuals.max(initial=0.0), 1e-9 * tol_scale)


def fay_degenerate_check(surf, rng, samples=10, tol_scale=1.0):
    """Trisecant identity where lambda = mu and where p = lambda."""
    z, p, q, lam = _trisecant_draws(surf, rng, samples, 3, (-0.4, 0.4), (-0.3, 0.3)).T
    residuals = fay_residual(surf, *np.hstack([[z, p, q, lam, lam], [z, lam, q, lam, p]]))
    return check("fay.degenerate_collapses", residuals.max(initial=0.0), 1e-10 * tol_scale)


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
    a, b = t_mult(P), t_pf(P)
    worst_eq = (np.abs(a - b) / (np.abs(a) + np.abs(b))).max(initial=0.0)
    return check("line.mult_vs_partial_fraction", worst_eq, 1e-9 * tol_scale)


def checks_scalar_equivalence(seed=5, tol_scale=1.0):
    rng = np.random.default_rng(seed)
    draws = []
    tau = 0.25 + 1.1j
    surf = torus_surface(tau)
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
    pm = period_from_tau(tau)
    z_chi = complex(chi.jacobian_point(pm)[0])
    a_exp = float(a1[0])
    P = sample_points(surf, rng, 50, avoid=[lam, mu, q])
    zero = ThetaCharacteristic(np.zeros(1), np.zeros(1))

    def th(w):   # one theta_many call per term
        return theta_many(zero, np.broadcast_to(w, P.shape)[:, None], pm)

    def E(s, t):   # one array prime_form call per term
        return prime_form(surf, np.broadcast_to(s, P.shape), np.broadcast_to(t, P.shape))

    pre = np.exp(-2j * np.pi * a_exp * (P - q))
    main = th(z_chi + lam - mu + q - P) * th(z_chi) / (
        th(z_chi + lam - mu) * th(z_chi + q - P))
    cross = (th(z_chi + lam - P) * th(z_chi + q - mu) * E(mu, lam) * E(q, P)
             / (th(z_chi + lam - mu) * th(z_chi + q - P) * E(mu, P) * E(q, lam)))
    a, b = t_mult(P), pre * (main - cross) * Q
    worst_single = (np.abs(a - b) / (np.abs(a) + np.abs(b))).max(initial=0.0)
    out.append(check("line.single_pair_term_assembly", worst_single, 1e-9 * tol_scale))
    return out


# --- criterion 6: matrix single-pair identity ---

def checks_matrix_fay(seed=6, tol_scale=1.0):
    rng = np.random.default_rng(seed)
    out = []

    k0 = genus0_kernel(2)
    x = np.array([1.0, 0.5 - 0.3j])
    u = np.array([0.2 + 0.1j, 1.0])
    pts = [rng.uniform(-4, 4) + 1j * rng.uniform(-4, 4) for _ in range(30)]
    res0 = matrix_fay_residual(k0, k0, 2.0, x, 3.0 + 1j, u, 40.0 + 3j,
                               np.eye(2) + 0.1j * np.ones((2, 2)), pts)
    out.append(check("matrix_fay.genus0_r2", res0, 1e-10 * tol_scale))

    surf, _, kt = _torus_kernels()
    lam, mu = 0.21 + 0.33j, 0.67 + 0.52j
    q = 0.52 + 0.18j
    pts = sample_points(surf, rng, 30, avoid=[lam, mu, q])
    Qm = np.array([[1.1, 0.2j], [0.1, 0.9 - 0.3j]])
    res1 = matrix_fay_residual(kt, kt, lam, x, mu, u, q, Qm, pts)
    out.append(check("matrix_fay.genus1_r2_direct_sum", res1, 1e-8 * tol_scale))
    return out


# --- criterion 7: determinantal representations ---

def checks_detrep(seed=7, tol_scale=1.0):
    rng = np.random.default_rng(seed)
    out = []
    surf, k1, ksum = _torus_kernels()
    emb = build_embedding_functions(surf, 0.13 + 0.21j, 0.52 + 0.64j, 0.77 + 0.18j)
    avoid = list(emb.pole_points)

    pencils = {oracle: build_pencil(oracle, emb) for oracle in (k1, ksum)}
    residuals = []
    for oracle, pencil in pencils.items():
        xis = [DEFAULT_XI, SECOND_XI,
               (rng.standard_normal() + 1j * rng.standard_normal(),
                rng.standard_normal() + 1j * rng.standard_normal())]
        P = sample_points(surf, rng, 20, avoid=avoid)
        residuals += check_kernel_identities(pencil, normalized_sections(oracle, emb),
                                             emb, P, xis)
    out.append(check("detrep.kernel_identities",
                     np.max(np.concatenate([r.ravel() for r in residuals])), 1e-7 * tol_scale))

    pencil2 = pencils[ksum]
    det_rel, kdim = curve_membership(pencil2, emb, sample_points(surf, rng, 100, avoid=avoid))
    out.append(check("detrep.on_curve_membership", np.max(det_rel), 1e-7 * tol_scale))
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
    out.append(check("detrep.off_curve_separation", 1.0 / np.min(det_rel), 1e3 / tol_scale))

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

def _scalar_fixture(tau, q):
    surf = torus_surface(tau)
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


def _triangular_fixture(tau, q):
    """Rank-2 upper-triangular map with two coincident zero/pole pairs."""
    surf = torus_surface(tau)
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
    mu_g_red = lattice_reduce(mu_g, tau)
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
    pencil_t = build_pencil(oracle_tilde, emb)
    converted = convert_absint_to_conint(data, oracle_tilde, emb, pencil_t)
    solution = solve_conint(converted)

    avoid = list(emb.pole_points)
    node_pts = [n.point for n in (*data.zeros, *data.poles)]
    P = sample_points(surf, rng, samples, avoid=avoid)
    det_rel, _ = curve_membership(solution.pencil_new, emb, P)
    worst_mem = np.max(det_rel, initial=0.0)

    z = emb.lambda_values(P)
    _, _, vh = np.linalg.svd(solution.pencil_new.pencil(z[:, 0], z[:, 1]))
    image = solution.apply(z, np.swapaxes(vh[:, -oracle_chi.rank:].conj(), 1, 2))
    ref = pencil_t.pencil(z[:, 0], z[:, 1])
    norm = partial(np.linalg.norm, axis=(1, 2))
    worst_map = np.max(norm(ref @ image) / (norm(ref) * norm(image) + 1e-300), initial=0.0)

    P = sample_points(surf, rng, samples * 2 // 5, avoid=[*avoid, *node_pts, q])
    worst_int = np.max(check_intertwining(solution, T, oracle_chi, oracle_tilde, emb, P),
                       initial=0.0)
    i3 = [check_condition_I3(solution, emb, pair, xi=xi).ravel()
          for pair in converted.coincident_pairs() for xi in (DEFAULT_XI, SECOND_XI)]
    worst_i3 = np.max(np.concatenate([np.zeros(1), *i3]))

    checks = [
        check("conint.gamma0_xi_independence", solution.xi_consistency, 1e-8 * tol_scale),
        check("conint.gamma_equality",
              check_gamma_equality(data, oracle_tilde, converted), 1e-8 * tol_scale),
        check("conint.gamma_update_membership", worst_mem, 1e-7 * tol_scale),
        check("conint.kernel_mapping", worst_map, 1e-7 * tol_scale),
        check("conint.intertwining", worst_int, 1e-7 * tol_scale),
        check("conint.coupling_round_trip", worst_i3, 1e-5 * tol_scale),
    ]
    return checks, solution


def checks_conint(seed=8, tol_scale=1.0):
    rng = np.random.default_rng(seed)
    tau = 0.25 + 1.1j
    q = 0.52 + 0.18j
    fixtures = (_scalar_fixture(tau, q), _triangular_fixture(tau, q)[:5])
    emb = build_embedding_functions(fixtures[0][0], *CONINT_EMBEDDING)
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
    surf, data, oracle_chi, oracle_tilde, _ = _scalar_fixture(0.3 + 0.9j, q)

    def absint_nonsquare():
        short = InterpolationDataSet(surface=surf, rank=1, zeros=data.zeros[:1],
                                     poles=data.poles)
        build_solution(short, q, np.array([[1.0]]), oracle_chi, oracle_tilde)

    out.append(_raises("negative.absint_nonsquare", NotSquare, absint_nonsquare))

    # perturbed pole: residue condition must light up
    rc = residue_condition_check(_shift_poles(data), q, np.array([[1.0]]),
                                 oracle_chi, oracle_tilde)
    residual = min(r for _, r in rc)
    out.append(check("negative.perturbed_residue_condition",
                     1.0 / (residual + 1e-300), 1e3 / tol_scale))

    # perturbed data behind T: intertwining against the honest S must light up.
    # (Perturbing the base value alone cannot: the boundary normalization
    # diag(T(x^i)) absorbs any valid solution of the same data.)
    tau2 = 0.25 + 1.1j
    surf2, data, kchi, ktil, T = _scalar_fixture(tau2, q)
    emb = build_embedding_functions(surf2, *CONINT_EMBEDDING)
    converted = convert_absint_to_conint(data, ktil, emb)
    solution = solve_conint(converted)
    t_bad = build_solution(_shift_poles(data), q, np.array([[1.3 - 0.4j]]), kchi, ktil)
    node_pts = [n.point for n in (*data.zeros, *data.poles)]
    avoid = [*emb.pole_points, *node_pts, q]
    worst_bad = np.max(check_intertwining(solution, t_bad, kchi, ktil, emb,
                                          sample_points(surf2, rng, 5, avoid=avoid)))
    out.append(check("negative.perturbed_intertwining",
                     1.0 / (worst_bad + 1e-300), 1e3 / tol_scale))

    # tampered couplings checked against an honest solution
    _, data2, kc2, kt2, t2, _ = _triangular_fixture(tau2, q)
    conv2 = convert_absint_to_conint(data2, kt2, emb)
    sol2 = solve_conint(conv2)
    tampered = replace(conv2, couplings={k: v + 0.01 for k, v in conv2.couplings.items()})
    sol_tampered = ConintSolution(tampered, sol2.gamma0, sol2.gamma,
                                  sol2.xi, sol2.xi_consistency)
    res = check_condition_I3(sol_tampered, emb, (0, 1))
    out.append(check("negative.tampered_coupling",
                     1.0 / (float(res.max()) + 1e-300), 1e3 / tol_scale))

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
