"""Independent reference solutions.

d'Alembert's formula for the Riemann invariants of the undamped Dirichlet
problem, by odd/even 2-periodic extension of the initial invariants, and
the modal rates of the constant-coefficient linearly damped string. These
validate the transport/splitting solver and the decay-rate fitting without
sharing any code with them.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

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
    of mode k of the globally damped string, energy_rate = -2 max Re lambda.

    Real roots (|a0| >= 2 k pi) are found without squaring a0, which
    overflows past about 1e154: the root of larger magnitude from the
    discriminant scaled by a0 / 2, the other by Vieta as (k pi)^2 over it,
    which also avoids the cancellation in -a0 + sqrt(disc). Complex roots
    take the same unsquared form, k pi sqrt((1 - a0/(2 k pi))(1 + a0/(2 k pi))),
    as their imaginary part, which stays finite where 4 (k pi)^2 overflows.
    A k whose (k pi)^2 is not a finite float is a ValueError."""
    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    try:
        w = k * np.pi
        w2 = w ** 2
    except OverflowError:  # k, or (k pi)^2, past the largest float
        w2 = np.inf
    if not np.isfinite(w2):
        raise ValueError(f"mode index {k}: (k pi)^2 is not a finite float")
    if abs(a0) < 2.0 * w:
        omega = w * np.sqrt((1.0 - a0 / (2.0 * w)) * (1.0 + a0 / (2.0 * w)))
        root = complex(-a0 / 2.0, omega)
        lam_plus, lam_minus = root, root.conjugate()
    else:
        half = a0 / 2.0
        big = float(-half * (1.0 + np.sqrt((1.0 - w / half) * (1.0 + w / half))))
        lam_minus, lam_plus = map(complex, sorted((big, w2 / big)))
    energy_rate = -2.0 * max(lam_plus.real, lam_minus.real)
    return lam_plus, lam_minus, energy_rate
