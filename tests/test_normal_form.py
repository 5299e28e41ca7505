"""Property tests of the kernel normal form K = F diag(k_1, ..., k_r) F^-1.

Random rank 1-3 direct sums of torus line kernels, and genus0_kernel(r),
each under a random frame (or none).  The kernel is checked channel by
channel against theta_with_char and prime_form, the duality against the
kernel itself, and an interpolant built on it against a reference that
forms Gamma pair by pair and solves with np.linalg.solve.  The data are
random, so the interpolant need not meet the residue conditions and can
cancel to about 0; its error is measured against the scale of the terms
it sums.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zpint.absint import InterpolationDataSet, PoleNode, ZeroNode, build_inverse, build_solution
from zpint.errors import SingularMatrix
from zpint.kernels import conjugated_kernel, direct_sum_kernel, genus0_kernel, line_kernel
from zpint.numutil import rel_residual
from zpint.surface import genus0_surface, line_bundle, prime_form, torus_surface
from zpint.theta import theta_with_char

SPHERE = genus0_surface()
EPS = np.finfo(float).eps
unit = st.floats(0.0, 1.0)
inner = st.floats(0.2, 0.8)


def complex_matrix(draw, shape, scale):
    size = 2 * int(np.prod(shape))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
    values = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    return scale * values.reshape(shape)


@st.composite
def kernels(draw):
    """(kernel, surface, bundles or None, frame or None, points): points are
    12 coordinates, one per cell of a 4 x 4 grid over the fundamental
    domain (the square [-2, 2]^2 on the sphere), so any two are apart."""
    r = draw(st.integers(1, 3))
    sphere = draw(st.booleans())
    if sphere:
        surface, bundles, kernel = SPHERE, None, genus0_kernel(r, SPHERE)

        def at(i, j, u, w):
            return complex(-2.0 + i + u, -2.0 + j + w)
    else:
        tau = complex(draw(st.floats(-0.4, 0.4)), draw(st.floats(0.8, 1.4)))
        surface = torus_surface(tau)
        # |theta[a; b](0)| vanishes at a = b = 1/2 only; keep a away from 1/2
        bundles = [line_bundle(draw(st.one_of(st.floats(0.05, 0.4), st.floats(0.6, 0.95))),
                               draw(unit)) for _ in range(r)]
        kernel = direct_sum_kernel([line_kernel(surface, b) for b in bundles])

        def at(i, j, u, w):
            return (i + u) / 4 + (j + w) / 4 * tau
    frame = None
    if draw(st.booleans()):
        frame = np.eye(r) + complex_matrix(draw, (r, r), 0.6 / r)
        kernel = conjugated_kernel(kernel, frame)
    cells = draw(st.permutations(range(16)))[:12]
    points = [at(c // 4, c % 4, draw(inner), draw(inner)) for c in cells]
    return kernel, surface, bundles, frame, points


def channel_form(surface, bundles, r, frame, p, q):
    """frame diag(theta[chi_k](v) / (theta[chi_k](0) E(q, p))) frame^-1, one
    channel at a time (r channels 1/(p - q) on the sphere)."""
    if bundles is None:
        channels = [1.0 / (p - q)] * r
    else:
        v = np.array([q - p])
        channels = [theta_with_char(b.characteristic, v, surface.period)
                    / (b.theta_at_zero(surface.period) * prime_form(surface, q, p))
                    for b in bundles]
    diag = np.diag(channels)
    return diag if frame is None else frame @ diag @ np.linalg.inv(frame)


def reference(kind, chi, tilde, zeros, poles, q, Q, p):
    """T(p) or T^-1(p) from the partial-fraction formula, each kernel value
    an oracle call, Gamma formed pair by pair and every inverse taken by
    np.linalg.solve, and the scale of its terms: |K~| + |K_mu_u| |c| times
    |Q| |K^-1| in Frobenius norms, where c is the Gamma solve (the value
    itself can cancel to about 0)."""
    norm = np.linalg.norm
    gamma = -np.array([[x @ tilde(lam, mu) @ u for mu, u in poles] for lam, x in zeros])
    if kind == "solution":
        k_mu_u = np.column_stack([tilde(p, mu) @ u for mu, u in poles])
        coef = np.linalg.solve(gamma, np.vstack([x @ tilde(lam, q) for lam, x in zeros]))
        kmat = chi(p, q)
        value = np.linalg.solve(kmat.T, ((tilde(p, q) + k_mu_u @ coef) @ Q).T).T
        terms = norm(tilde(p, q)) + norm(k_mu_u) * norm(coef)
    else:
        k_x_lam = np.vstack([x @ tilde(lam, p) for lam, x in zeros])
        coef = np.linalg.solve(gamma.T, np.column_stack([tilde(q, mu) @ u for mu, u in poles]).T)
        kmat = chi(q, p)
        value = np.linalg.solve(kmat, np.linalg.solve(Q, tilde(q, p) + coef.T @ k_x_lam))
        terms = norm(tilde(q, p)) + norm(coef) * norm(k_x_lam)
        Q = np.linalg.inv(Q)
    return value, terms * norm(Q) * norm(np.linalg.inv(kmat))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(kernels(), st.data())
def test_normal_form_kernels_and_interpolants(case, data):
    kernel, surface, bundles, frame, points = case
    r = kernel.rank
    p, q = points[:2]
    value = kernel(p, q)
    assert value.shape == (r, r)
    assert rel_residual(value, channel_form(surface, bundles, r, frame, p, q)) <= 1e-13
    assert rel_residual(kernel.dual()(p, q).T, -kernel(q, p)) <= 1e-11

    n = data.draw(st.integers(1, 3))
    vectors = [complex_matrix(data.draw, (1, r), 1.0) + np.eye(r)[k % r] for k in range(2 * n)]
    zeros = [(z, x[0]) for z, x in zip(points[:n], vectors[:n])]
    poles = [(m, u[0]) for m, u in zip(points[n:2 * n], vectors[n:])]
    dataset = InterpolationDataSet(surface, r, tuple(ZeroNode(z, x) for z, x in zeros),
                                   tuple(PoleNode(m, u) for m, u in poles))
    base, sweep = points[2 * n], points[2 * n + 1:]
    Q = np.eye(r) + complex_matrix(data.draw, (r, r), 0.3 / r)
    for build, kind in ((build_solution, "solution"), (build_inverse, "inverse")):
        try:
            T = build(dataset, base, Q, kernel, kernel)
            batch = T.many(sweep)
        except SingularMatrix:   # x K u = 0, or a point on a zero of K
            assume(False)
        tol = 10 * T.gamma.condition() * EPS
        for i, s in enumerate(sweep):
            assert np.array_equal(batch[i], T(s)), kind
            value, scale = reference(kind, kernel, kernel, zeros, poles, base, Q, s)
            assert np.linalg.norm(batch[i] - value) <= tol * scale, kind
