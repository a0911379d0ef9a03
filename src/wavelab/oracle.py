"""Independent reference solutions.

d'Alembert's formula with odd 2-periodic extension for the undamped
Dirichlet problem, and the modal rates of the constant-coefficient
linearly damped string. These validate the transport/splitting solver
and the decay-rate fitting without sharing any code with them.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.integrate import quad

Array = np.ndarray


def _fold(y):
    """Map y to ([0, 1], sign) under the odd 2-periodic extension.

    Returns (m, s) with m in [0, 1] and f_ext(y) = s * f(m) for odd f,
    and f_ext(y) = f(m) for the (even) derivative of the extension.
    Exact for dyadic arguments: only mod-2 and 2 - y arithmetic.
    """
    y = np.asarray(y, dtype=float)
    m = np.mod(y, 2.0)
    over = m > 1.0
    sign = np.where(over, -1.0, 1.0)
    m = np.where(over, 2.0 - m, m)
    return m, sign


def odd_extension(f: Callable[[Array], Array], y):
    """Evaluate the odd 2-periodic extension of f: [0,1] -> R at y."""
    m, s = _fold(y)
    return s * np.asarray(f(m))


def even_extension(f: Callable[[Array], Array], y):
    """Evaluate the even 2-periodic extension (e.g. the derivative of an
    odd-extended function) at y."""
    m, _ = _fold(y)
    return np.asarray(f(m))


def dalembert(z0: Callable, z1: Callable, t: float, x):
    """z(t, x) for z_tt = z_xx on (0,1) with Dirichlet walls.

    z = [ž0(x+t) + ž0(x-t)]/2 + (1/2) * int_{x-t}^{x+t} ž1, where ž is the
    odd 2-periodic extension. The integral term uses the antiderivative
    J(w) = int_0^w z1 (adaptive quadrature, abs tol 1e-13), extended evenly:
    the antiderivative of an odd 2-periodic function is even 2-periodic.
    """
    x = np.asarray(x, dtype=float)

    def anti(w):
        val, _ = quad(lambda s: float(z1(np.asarray(s))), 0.0, float(w),
                      epsabs=1e-13, epsrel=1e-12, limit=200)
        return val

    def anti_ext(y):
        m, _ = _fold(y)
        flat = np.atleast_1d(m)
        vals = np.array([anti(w) for w in flat])
        return vals.reshape(m.shape) if m.ndim else float(vals[0])

    homo = 0.5 * (odd_extension(z0, x + t) + odd_extension(z0, x - t))
    inhomo = 0.5 * (anti_ext(x + t) - anti_ext(x - t))
    out = homo + inhomo
    return out if np.ndim(out) else float(out)


def dalembert_riemann(z0_prime: Callable, z1: Callable, t: float, x):
    """Exact Riemann invariants (rho, xi) of the undamped problem.

    rho(t,x) = rr0(x+t), xi(t,x) = xx0(x-t) with rr0 = ž0' + ž1 and
    xx0 = ž0' - ž1, the even/odd extensions of the initial invariants.
    Exact at grid points under unit CFL for grid-sampled data.
    """
    rho = even_extension(z0_prime, x + t) + odd_extension(z1, x + t)
    xi = even_extension(z0_prime, x - t) - odd_extension(z1, x - t)
    return rho, xi


def modal_rate(a0: float, k: int) -> tuple[complex, complex, float]:
    """Roots of lambda^2 + a0 lambda + (k pi)^2 = 0 and the E_2 decay rate
    of mode k of the globally damped string, energy_rate = -2 max Re lambda."""
    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    w2 = (k * np.pi) ** 2
    disc = a0 * a0 - 4.0 * w2
    if disc < 0.0:
        root = complex(-a0 / 2.0, np.sqrt(-disc) / 2.0)
        lam_plus, lam_minus = root, root.conjugate()
    else:
        lam_plus = complex((-a0 + np.sqrt(disc)) / 2.0)
        lam_minus = complex((-a0 - np.sqrt(disc)) / 2.0)
    energy_rate = -2.0 * max(lam_plus.real, lam_minus.real)
    return lam_plus, lam_minus, energy_rate
