"""Inputs, timed operations and correctness checks of the zpint benchmark.

Every zpint call goes through a module attribute (``absint.build_solution``,
not a name imported from it), so the tracer in ``tracer.py`` sees the
benchmark's own calls as well as the calls zpint makes internally.

Inputs are drawn from ``numpy.random.default_rng([seed, index])``: problem
``index`` of a seed is the same whichever process or chunk builds it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import time
from dataclasses import dataclass

import numpy as np

import zpint.absint as absint
import zpint.cli as cli
import zpint.errors as errors
import zpint.genus0 as genus0
import zpint.kernels as kernels
import zpint.numutil as numutil
import zpint.surface as surface

# Both interpolation workloads: rank 2, 8 zeros and 8 poles per block, so
# Gamma is 16 x 16.  Evaluations of T per problem: fewer on the torus, where
# one costs about 10 ms, so that a run covers more values of tau.
BLOCK_NODES = 8
TORUS_SWEEP_POINTS = 100
SPHERE_SWEEP_POINTS = 200

# Tolerances of the independent routes, the same as the battery's
# line.mult_vs_partial_fraction (torus) and genus0.* (sphere) checks.
TORUS_TOL = 1e-9
SPHERE_TOL = 1e-10
# Both sphere routes lose about cond(Gamma) * eps of relative accuracy, so
# sphere problems are redrawn until the classical coupling matrix
# x_i u_j / (mu_j - lambda_i), computed here with numpy, keeps 1e-10 within
# reach.  About 1 draw in 300 is redrawn.
SPHERE_MAX_COND = 1e6

# The battery's checks named *.runtime_seconds compare wall time with a
# budget; they are not accuracy checks.
RUNTIME_SUFFIX = ".runtime_seconds"


def problem_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


# --- battery ---

def run_battery(seed: int) -> tuple[float, int, dict]:
    """One `zpint verify-all --seed seed`, in process; (seconds, exit code, report)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.run_command(["verify-all", "--seed", str(seed)])
    elapsed = time.perf_counter() - start
    return elapsed, code, json.loads(out.getvalue())


def battery_outcome(code: int, report: dict) -> dict:
    """Failure count, worst residual over tolerance, residual digest, criterion times."""
    checks = report["checks"]
    accuracy = [c for c in checks if not c["name"].endswith(RUNTIME_SUFFIX)]
    failed = sum(not c["passed"] for c in checks)
    if code != 0 and failed == 0:
        failed = 1
    ratio = max(c["residual"] / c["tolerance"] for c in accuracy)
    digest = hashlib.sha256(
        "".join(f"{c['name']}={c['residual']!r};" for c in accuracy).encode()
    ).hexdigest()
    return {"attempted": len(checks), "failed": failed, "residual_ratio": ratio,
            "digest": digest, "criteria_s": [c["elapsed_s"] for c in report["criteria"]]}


# --- interpolation problems ---

@dataclass
class InterpProblem:
    """One constructed problem: data, base point and value, kernels, sweep."""

    data: object
    q: complex
    Q: np.ndarray
    oracle_chi: object
    oracle_tilde: object
    sweep: np.ndarray
    reference: object   # builds the independent route: () -> (p -> (2, 2) value)


def _torus_gap(v: complex, tau: complex) -> float:
    beta = v.imag / tau.imag
    alpha = v.real - beta * tau.real
    return abs((alpha - np.rint(alpha)) + (beta - np.rint(beta)) * tau)


def _draw(draw, count, avoid, gap, distance, separated):
    """count points from draw() at least gap from avoid (and each other if separated)."""
    out = []
    while len(out) < count:
        z = draw()
        if all(distance(z - a) > gap for a in (*avoid, *(out if separated else ()))):
            out.append(z)
    return out


def _torus_points(rng, tau, count, avoid, gap, separated=True):
    return _draw(lambda: rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * tau,
                 count, avoid, gap, lambda v: _torus_gap(v, tau), separated)


def _plane_points(rng, count, avoid, gap, half_width, separated=True):
    return _draw(lambda: complex(rng.uniform(-half_width, half_width),
                                 rng.uniform(-half_width, half_width)),
                 count, avoid, gap, abs, separated)


def torus_problem(seed: int, index: int) -> InterpProblem:
    """Rank-2 genus-1 problem: two line-bundle blocks, 8 zeros + 8 poles each.

    Block k's nodes carry e_k, its output bundle is chi_k plus the divisor
    characteristic of its nodes, and Q = diag(Q_1, Q_2); the reference is
    diag of each block's scalar multiplicative interpolant.
    """
    rng = problem_rng(seed, index)
    tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.85, 1.15))
    surf = surface.torus_surface(tau)
    nodes = _torus_points(rng, tau, 4 * BLOCK_NODES + 1, (), 0.09)
    q, nodes = nodes[0], nodes[1:]
    chis, tildes, zero_nodes, pole_nodes, blocks, Qs = [], [], [], [], [], []
    avoid = [q, *nodes]
    for k in range(2):
        e_k = np.eye(2)[k:k + 1]
        block = nodes[2 * BLOCK_NODES * k: 2 * BLOCK_NODES * (k + 1)]
        zeros, poles = block[:BLOCK_NODES], block[BLOCK_NODES:]
        chi = surface.line_bundle(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        a_w, b_w, _ = absint.divisor_characteristic(surf, zeros, poles)
        tilde = surface.line_bundle(chi.a + a_w, chi.b + b_w)
        Q_k = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        chis.append(kernels.line_kernel(surf, chi))
        tildes.append(kernels.line_kernel(surf, tilde))
        zero_nodes += [absint.ZeroNode(z, e_k) for z in zeros]
        pole_nodes += [absint.PoleNode(p, e_k) for p in poles]
        blocks.append((zeros, poles, chi, tilde, Q_k))
        Qs.append(Q_k)
        # K(chi; p, q) = 0 where theta(phi(q) - phi(p) + a tau + b) = 0, that is
        # at p = q - (1/2 + tau/2 - a tau - b); T is a ratio of small numbers there.
        avoid.append(q - (0.5 + 0.5 * tau - chi.a[0] * tau - chi.b[0]))
    data = absint.InterpolationDataSet(
        surface=surf, rank=2, zeros=tuple(zero_nodes), poles=tuple(pole_nodes))
    sweep = np.array(_torus_points(rng, tau, TORUS_SWEEP_POINTS, avoid, 0.05, separated=False))

    def reference():
        scalars = [absint.scalar_multiplicative(surf, *block[:4], q, block[4])
                   for block in blocks]
        return lambda p: np.diag([t(p) for t in scalars])

    return InterpProblem(
        data=data, q=q, Q=np.diag(Qs),
        oracle_chi=kernels.direct_sum_kernel(chis),
        oracle_tilde=kernels.direct_sum_kernel(tildes),
        sweep=sweep, reference=reference,
    )


def sphere_problem(seed: int, index: int) -> InterpProblem:
    """Rank-2 genus-0 problem, 16 zeros and 16 poles with random vectors.

    The reference is T0(p) T0(q)^-1 Q with T0 the classical interpolant
    (identity at infinity) from genus0.solve_genus0.  Draws whose coupling
    matrix has condition number above SPHERE_MAX_COND are redrawn.
    """
    rng = problem_rng(seed, index)
    n = 2 * BLOCK_NODES

    def vec():
        return rng.standard_normal(2) + 1j * rng.standard_normal(2)

    while True:
        pts = _plane_points(rng, 2 * n + 1, (), 0.2, half_width=2.0)
        q, lams, mus = pts[0], pts[1:n + 1], pts[n + 1:]
        xs = [vec() for _ in range(n)]
        us = [vec() for _ in range(n)]
        gamma = np.array([[x @ u / (mu - lam) for mu, u in zip(mus, us)]
                          for lam, x in zip(lams, xs)])
        if np.linalg.cond(gamma) <= SPHERE_MAX_COND:
            break
    Q = 2.0 * np.eye(2) + 0.5 * (rng.standard_normal((2, 2))
                                 + 1j * rng.standard_normal((2, 2)))
    surf = surface.genus0_surface()
    oracle = kernels.genus0_kernel(2, surf)
    data = absint.InterpolationDataSet(
        surface=surf, rank=2,
        zeros=tuple(absint.ZeroNode(lam, x[None, :]) for lam, x in zip(lams, xs)),
        poles=tuple(absint.PoleNode(mu, u[None, :]) for mu, u in zip(mus, us)),
    )
    sweep = np.array(_plane_points(rng, SPHERE_SWEEP_POINTS, pts, 0.1, half_width=2.5,
                                   separated=False))
    classical = genus0.Genus0Problem(rank=2, zeros=tuple(zip(lams, xs)),
                                     poles=tuple(zip(mus, us)))

    def reference():
        t0 = genus0.solve_genus0(classical)
        right = np.linalg.solve(t0(q), Q)
        return lambda p: t0(p) @ right

    return InterpProblem(data=data, q=q, Q=Q, oracle_chi=oracle, oracle_tilde=oracle,
                         sweep=sweep, reference=reference)


PROBLEMS = {"interp_torus": (torus_problem, TORUS_TOL),
            "interp_sphere": (sphere_problem, SPHERE_TOL)}


def solve(problem: InterpProblem):
    """The timed solve: Gamma assembly, conditioning checks and the solve."""
    return absint.build_solution(problem.data, problem.q, problem.Q,
                                 problem.oracle_chi, problem.oracle_tilde)


def evaluate_sweep(T, sweep) -> tuple[np.ndarray, list[float], int]:
    """T at every sweep point: values (NaN where T raised), latencies, errors."""
    values = np.full((len(sweep), 2, 2), np.nan, dtype=complex)
    latencies = []
    errors = 0
    clock = time.perf_counter
    for i, p in enumerate(sweep):
        start = clock()
        try:
            values[i] = T(p)
        except errors.ZpintError:
            errors += 1
        latencies.append(clock() - start)
    return values, latencies, errors


def check_problem(problem: InterpProblem, values: np.ndarray, tol: float, rows) -> float:
    """Worst residual over tolerance of values[rows] against the independent route.

    The reference is normalised to Q at q, so this also checks T's value at q.
    """
    reference = problem.reference()
    worst = 0.0
    for i in rows:
        if not np.isnan(values[i]).any():
            residual = numutil.rel_residual(values[i], reference(problem.sweep[i]))
            worst = max(worst, residual / tol)
    return worst


# --- host-speed calibration ---

CALIBRATION_GRID = np.array(list(itertools.product(range(-3, 4), repeat=2)), dtype=float)
CALIBRATION_OMEGA = np.array([[1.0j, 0.3 + 0.2j], [0.3 + 0.2j, 1.2j]])


def calibrate(rounds: int = 200) -> float:
    """Seconds taken by a fixed piece of work that does not touch zpint.

    It uses the same numpy primitives on small arrays as a theta lattice sum,
    so a host that runs zpint slowly runs it slowly too.
    """
    start = time.perf_counter()
    acc = 0.0j
    for k in range(rounds):
        z = np.array([0.1 * k % 1.0, 0.3]) + 0.2j
        y = np.linalg.solve(CALIBRATION_OMEGA.imag, z.imag)
        m = CALIBRATION_GRID + np.rint(-y)[None, :]
        quad = np.einsum("ij,jk,ik->i", m, CALIBRATION_OMEGA, m)
        acc += complex(np.exp(1j * np.pi * quad + 2j * np.pi * (m @ z)).sum())
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("calibration sum is not finite")
    return elapsed
