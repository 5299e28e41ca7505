"""Independent high-precision oracles used to freeze expected values.

Everything here deliberately avoids the package's own evaluation paths:
mpmath arbitrary-precision direct lattice sums, classical product
formulas, explicit Cauchy determinants and finite differences.  Tests
compare zpint outputs against these, never against themselves.
"""

import itertools

import mpmath as mp
import numpy as np

mp.mp.dps = 40


def theta_char_direct(a, b, lam, omega, radius=40):
    """Direct characteristic lattice sum at genus 1 or 2, in mpmath.

    a, b: length-g sequences of floats; lam: length-g complex sequence;
    omega: g x g complex matrix (nested sequence).
    """
    g = len(a)
    a = [mp.mpf(float(v)) for v in a]
    b = [mp.mpf(float(v)) for v in b]
    lam = [mp.mpc(complex(v)) for v in lam]
    omega = [[mp.mpc(complex(omega[i][j])) for j in range(g)] for i in range(g)]
    total = mp.mpc(0)
    if g == 1:
        for n in range(-radius, radius + 1):
            m = n + a[0]
            total += mp.e ** (
                mp.pi * 1j * omega[0][0] * m * m + 2 * mp.pi * 1j * m * (lam[0] + b[0])
            )
        return total
    if g == 2:
        for n1 in range(-radius, radius + 1):
            for n2 in range(-radius, radius + 1):
                m1, m2 = n1 + a[0], n2 + a[1]
                quad = (omega[0][0] * m1 * m1 + 2 * omega[0][1] * m1 * m2
                        + omega[1][1] * m2 * m2)
                lin = m1 * (lam[0] + b[0]) + m2 * (lam[1] + b[1])
                total += mp.e ** (mp.pi * 1j * quad + 2 * mp.pi * 1j * lin)
        return total
    raise ValueError("oracle supports genus 1 and 2 only")


def theta_char_gradient_direct(a, b, lam, omega, radius=40):
    """z-gradient of the direct characteristic lattice sum, in mpmath.

    Term-wise: sum over n in the box of sup-norm radius of
    2*pi*i (n+a) exp(pi*i (n+a).Omega.(n+a) + 2*pi*i (n+a).(lam+b)).
    Arguments as for theta_char_direct; returns a list of g mpc values.
    """
    g = len(a)
    a = [mp.mpf(float(v)) for v in a]
    shift = [mp.mpc(complex(lam[j])) + mp.mpf(float(b[j])) for j in range(g)]
    omega = [[mp.mpc(complex(omega[i][j])) for j in range(g)] for i in range(g)]
    pi_i = mp.pi * 1j
    grad = [mp.mpc(0)] * g
    for n in itertools.product(range(-radius, radius + 1), repeat=g):
        m = [n[j] + a[j] for j in range(g)]
        quad = sum(omega[i][j] * m[i] * m[j] for i in range(g) for j in range(g))
        lin = sum(m[j] * shift[j] for j in range(g))
        term = mp.exp(pi_i * (quad + 2 * lin))
        grad = [grad[j] + m[j] * term for j in range(g)]
    return [2 * pi_i * v for v in grad]


def theta3_zero_value():
    """theta(0 | tau = i) = pi^(1/4) / Gamma(3/4), closed form."""
    return mp.pi ** mp.mpf("0.25") / mp.gamma(mp.mpf(3) / 4)


def odd_theta_deriv0_product(tau):
    """theta[1/2; 1/2]'(0 | tau) from the classical triple product.

    In the lattice-sum convention used by the package,
    theta[1/2; 1/2](v) = -theta_1(pi v, q), so the derivative at zero is
    -pi * theta_1'(0, q) = -2 pi q^{1/4} prod (1 - q^{2n})^3 with
    q = exp(i pi tau).
    """
    q = mp.e ** (1j * mp.pi * mp.mpc(complex(tau)))
    prod = mp.mpf(1)
    n = 1
    while True:
        factor = (1 - q ** (2 * n)) ** 3
        prod *= factor
        if abs(1 - factor) < mp.mpf(10) ** (-mp.mp.dps):
            break
        n += 1
        if n > 4000:
            break
    return -2 * mp.pi * q ** mp.mpf("0.25") * prod


def cauchy_determinant(lams, mus):
    """det [1/(mu_j - lam_i)] by the closed-form product formula."""
    lams = [mp.mpc(complex(v)) for v in lams]
    mus = [mp.mpc(complex(v)) for v in mus]
    n = len(lams)
    num = mp.mpc(1)
    for i in range(n):
        for j in range(i + 1, n):
            num *= (lams[j] - lams[i]) * (mus[i] - mus[j])
    den = mp.mpc(1)
    for i in range(n):
        for j in range(n):
            den *= mus[j] - lams[i]
    return num / den


def odd_theta_log_derivs(v, tau):
    """(L, L', L'') at v for L = theta[1/2; 1/2]'/theta[1/2; 1/2], via mpmath.

    theta[1/2; 1/2](v) = -theta_1(pi v, q) with q = exp(i pi tau); the
    constant factor cancels in L, and mp.jtheta gives the derivatives of
    theta_1 in closed form.
    """
    q = mp.exp(1j * mp.pi * mp.mpc(complex(tau)))
    z = mp.pi * mp.mpc(complex(v))
    t0, t1, t2, t3 = (mp.jtheta(1, z, q, k) for k in range(4))
    r1, r2, r3 = t1 / t0, t2 / t0, t3 / t0
    return (complex(mp.pi * r1), complex(mp.pi**2 * (r2 - r1**2)),
            complex(mp.pi**3 * (r3 - 3 * r2 * r1 + 2 * r1**3)))


def central_difference(fn, z, h=1e-5, order=1):
    """Richardson-extrapolated central difference, complex step h."""
    if order == 1:
        d1 = (fn(z + h) - fn(z - h)) / (2 * h)
        d2 = (fn(z + 2 * h) - fn(z - 2 * h)) / (4 * h)
    elif order == 2:
        d1 = (fn(z + h) - 2 * fn(z) + fn(z - h)) / h**2
        d2 = (fn(z + 2 * h) - 2 * fn(z) + fn(z - 2 * h)) / (4 * h**2)
    else:
        raise ValueError("order must be 1 or 2")
    return (4 * d1 - d2) / 3


def circle_residue(fn, center, radius=1e-3, samples=32):
    """Trapezoid contour residue of a simple pole, independent route."""
    total = 0.0 + 0.0j
    for k in range(samples):
        t = radius * np.exp(2j * np.pi * k / samples)
        total += fn(center + t) * t
    return total / samples
