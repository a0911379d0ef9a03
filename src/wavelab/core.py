"""Domain types and pointwise building blocks.

Grids, Riemann-invariant states, damping nonlinearities and profiles,
signed powers, the modified (g, G) pair used for exponents in (1, 2),
and the localization functions for the multiplier diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Array = np.ndarray


class HypothesisViolation(ValueError):
    """A damping profile or nonlinearity fails one of the standing hypotheses."""


# ---------------------------------------------------------------------------
# Grid and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on [0, 1] with n_cells + 1 nodes."""

    n_cells: int

    def __post_init__(self) -> None:
        if self.n_cells < 4:
            raise ValueError(f"n_cells must be >= 4, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def nodes(self) -> Array:
        # linspace pins both endpoints exactly
        return np.linspace(0.0, 1.0, self.n_cells + 1)


@dataclass(frozen=True)
class RiemannState:
    """Nodal values of the Riemann invariants (rho, xi) at one time.

    rho = z_x + z_t, xi = z_x - z_t. After every completed solver step the
    boundary compatibility rho = xi holds at both walls (z_t vanishes there).
    """

    rho: Array
    xi: Array
    t: float

    def __post_init__(self) -> None:
        if self.rho.shape != self.xi.shape or self.rho.ndim != 1:
            raise ValueError("rho and xi must be 1-d arrays of identical length")

    @property
    def z_t(self) -> Array:
        return 0.5 * (self.rho - self.xi)

    @property
    def z_x(self) -> Array:
        return 0.5 * (self.rho + self.xi)

    def boundary_defect(self) -> float:
        return max(abs(self.rho[0] - self.xi[0]), abs(self.rho[-1] - self.xi[-1]))


# ---------------------------------------------------------------------------
# Pointwise operations
# ---------------------------------------------------------------------------

def signed_power(s, r: float):
    """sgn(s) * |s|**r, the odd power. Selects sgn(0) = 0, so the result
    vanishes at s = 0 for every r (the only selection preserving oddness)."""
    if r < 0:
        raise ValueError(f"exponent must be nonnegative, got {r}")
    s = np.asarray(s, dtype=float)
    out = np.sign(s) * np.abs(s) ** r
    return out if out.ndim else float(out)


def _modified_arg(y, p: float) -> Array:
    if not 1.0 < p < 2.0:
        raise ValueError(f"p must lie in (1, 2), got {p}")
    return np.asarray(y, dtype=float)


def modified_g(y, p: float):
    """The surrogate g(y) = sgn(y)[(|y|+1)^(p-1) - 1] replacing |.|^(p-1)
    sgn when 1 < p < 2; g = G' for modified_big_g's G."""
    y = _modified_arg(y, p)
    out = np.sign(y) * ((np.abs(y) + 1.0) ** (p - 1.0) - 1.0)
    return out if out.ndim else float(out)


def modified_big_g(y, p: float):
    """The surrogate G(y) = [(|y|+1)^p - 1]/p - |y| replacing |.|^p/p when
    1 < p < 2; G is convex, G(0) = 0, G' = modified_g."""
    ay = np.abs(_modified_arg(y, p))
    out = ((ay + 1.0) ** p - 1.0) / p - ay
    return out if out.ndim else float(out)


def modified_fg_prime(y, p: float):
    """Derivative of the modified g: (p-1)(|y|+1)^(p-2). Bounded on all of R."""
    y = _modified_arg(y, p)
    out = (p - 1.0) * (np.abs(y) + 1.0) ** (p - 2.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Nonlinearities (hypothesis H2)
# ---------------------------------------------------------------------------

#: lattice on which monotonicity / sign conditions are sampled
H2_LATTICE = np.linspace(-10.0, 10.0, 401)


@dataclass(frozen=True)
class Nonlinearity:
    """A damping nonlinearity g with its derivative.

    linear_slope is set when g is exactly linear (g(s) = slope * s); the
    implicit damping substep then uses the closed-form update, which also
    makes the auxiliary linear solver bitwise-reproducible against it.
    """

    value: Callable[[Array], Array]
    derivative: Callable[[Array], Array]
    label: str
    linear_slope: float | None = None

    def validate(self) -> None:
        g0 = float(np.asarray(self.value(np.array(0.0))))
        if abs(g0) > 1e-14:
            raise HypothesisViolation(f"g({self.label}): g(0) = {g0} != 0")
        gp0 = float(np.asarray(self.derivative(np.array(0.0))))
        if gp0 <= 0.0:
            raise HypothesisViolation(f"g({self.label}): g'(0) = {gp0} <= 0")
        gp = np.asarray(self.derivative(H2_LATTICE))
        if np.any(gp < 0.0):
            bad = H2_LATTICE[np.argmin(gp)]
            raise HypothesisViolation(
                f"g({self.label}) is not non-decreasing: g'({bad}) = {gp.min()}")
        gv = np.asarray(self.value(H2_LATTICE))
        if np.any(gv * H2_LATTICE < 0.0):
            bad = H2_LATTICE[np.argmin(gv * H2_LATTICE)]
            raise HypothesisViolation(
                f"g({self.label}): g(x)x < 0 at x = {bad}")


def identity_damping() -> Nonlinearity:
    return Nonlinearity(lambda s: s, lambda s: np.ones_like(np.asarray(s, dtype=float)),
                        "identity", linear_slope=1.0)


def arctan_damping() -> Nonlinearity:
    return Nonlinearity(np.arctan, lambda s: 1.0 / (1.0 + np.square(s)), "arctan")


def cubic_damping() -> Nonlinearity:
    return Nonlinearity(lambda s: s + s * s * s, lambda s: 1.0 + 3.0 * np.square(s), "cubic")


def saturating_damping() -> Nonlinearity:
    return Nonlinearity(lambda s: s / (1.0 + np.abs(s)),
                        lambda s: 1.0 / (1.0 + np.abs(s)) ** 2, "saturating")


def nonmonotone_example() -> Nonlinearity:
    """Deliberately violates H2 for |s| > 1/sqrt(3); used by negative tests."""
    return Nonlinearity(lambda s: s - s * s * s, lambda s: 1.0 - 3.0 * np.square(s),
                        "nonmonotone")


NONLINEARITIES: dict[str, Callable[[], Nonlinearity]] = {
    "identity": identity_damping,
    "arctan": arctan_damping,
    "cubic": cubic_damping,
    "saturating": saturating_damping,
    "nonmonotone": nonmonotone_example,
}


def nu_ratio(x, g: Nonlinearity):
    """The ratio nu(x) = g(x)/x, continued by g'(0) at x = 0."""
    x = np.asarray(x, dtype=float)
    gp0 = float(np.asarray(g.derivative(np.array(0.0))))
    if x.ndim == 0:
        if x == 0.0:
            return gp0
        return float(np.asarray(g.value(x))) / float(x)
    out = np.full(x.shape, gp0)
    nz = x != 0.0
    out[nz] = np.asarray(g.value(x[nz])) / x[nz]
    return out


# ---------------------------------------------------------------------------
# Damping profiles (hypothesis H1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DampingProfile:
    """Spatial damping coefficient a(x) >= 0, active (>= a0) on omega = (b, 1)."""

    value: Callable[[Array], Array]
    omega: tuple[float, float]
    a0: float
    label: str = "a"

    def validate(self, require_active: bool = True) -> None:
        b, c = self.omega
        if require_active:
            if not self.a0 > 0.0:
                raise HypothesisViolation(f"a({self.label}): a0 = {self.a0} must be > 0")
            if c != 1.0:
                raise HypothesisViolation(
                    f"a({self.label}): omega must touch x = 1 (got c = {c})")
        xs = np.linspace(0.0, 1.0, 1001)
        av = np.asarray(self.value(xs))
        if np.any(av < 0.0):
            raise HypothesisViolation(
                f"a({self.label}) < 0 at x = {xs[np.argmin(av)]}")
        if require_active:
            inside = (xs > b + 1e-9) & (xs < c - 1e-9)
            if np.any(av[inside] < self.a0 - 1e-12):
                bad = xs[inside][np.argmin(av[inside])]
                raise HypothesisViolation(
                    f"a({self.label}) < a0 = {self.a0} inside omega at x = {bad}")


def constant_profile(a0: float) -> DampingProfile:
    return DampingProfile(lambda x: np.full_like(np.asarray(x, dtype=float), a0),
                          (0.0, 1.0), a0, label=f"constant({a0:g})")


def zero_profile() -> DampingProfile:
    return DampingProfile(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                          (0.0, 1.0), 0.0, label="zero")


def indicator_profile(b: float, c: float, a0: float) -> DampingProfile:
    def value(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= b) & (x <= c), a0, 0.0)
    return DampingProfile(value, (b, c), a0, label=f"indicator({b:g},{c:g},{a0:g})")


def smooth_indicator_profile(b: float, c: float, a0: float,
                             ramp: float = 0.05) -> DampingProfile:
    """Cosine ramp from 0 at b to a0 at b + ramp, then flat up to c."""
    if not 0.0 < ramp <= c - b:
        raise ValueError(f"ramp must lie in (0, {c - b}], got {ramp}")

    def value(x):
        x = np.asarray(x, dtype=float)
        s = np.clip((x - b) / ramp, 0.0, 1.0)
        out = a0 * 0.5 * (1.0 - np.cos(np.pi * s))
        return np.where((x >= b) & (x <= c), out, 0.0)

    # a reaches a0 only past the ramp; declare the active interval accordingly
    return DampingProfile(value, (b + ramp, c), a0,
                          label=f"smooth_indicator({b:g},{c:g},{a0:g},{ramp:g})")


DAMPING_PROFILES: dict[str, Callable[..., DampingProfile]] = {
    "zero": zero_profile,
    "constant": constant_profile,
    "indicator": indicator_profile,
    "smooth_indicator": smooth_indicator_profile,
}


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def cumulative_trapezoid(h: Array, dx: float) -> Array:
    """int_0^x h along the last axis by the trapezoid rule, 0 at the first
    node. Rows of a stacked h are summed independently in node order, so
    each equals the 1-d result bit for bit."""
    out = np.empty_like(h)
    out[..., 0] = 0.0
    np.cumsum(0.5 * (h[..., 1:] + h[..., :-1]) * dx, axis=-1, out=out[..., 1:])
    return out


# ---------------------------------------------------------------------------
# Localization triple
# ---------------------------------------------------------------------------

def _ramp(x: Array, x0: float, x1: float, y0: float, y1: float) -> Array:
    """Piecewise-linear ramp: y0 left of x0, y1 right of x1."""
    s = np.clip((np.asarray(x, dtype=float) - x0) / (x1 - x0), 0.0, 1.0)
    return y0 + (y1 - y0) * s


@dataclass(frozen=True)
class LocalizationTriple:
    """The nested cutoffs (psi, phi, beta) of the multiplier machinery,
    sampled at the grid nodes.

    Q0 = (q0, 1] subset Q1 = (q1, 1] subset Q2 = (q2, 1] subset omega = (b, 1).
    psi falls 1 -> 0 across [q1, q0]; phi rises 0 -> 1 across [q2, q1];
    beta rises 0 -> 1 across [b, q2]. xpsi_x is d/dx (x * psi), analytic.
    """

    xpsi_x: Callable[[Array], Array]
    q0: tuple[float, float]
    q1: tuple[float, float]
    q2: tuple[float, float]
    epsilons: tuple[float, float, float]
    omega: tuple[float, float]
    psi_nodes: Array = field(repr=False)
    phi_nodes: Array = field(repr=False)
    beta_nodes: Array = field(repr=False)


def default_epsilons(b: float) -> tuple[float, float, float]:
    """Evenly nested defaults leaving half of omega outside Q2."""
    return tuple((1.0 - b) * (4 - i) / 8 for i in range(3))  # type: ignore[return-value]


def make_localization(omega: tuple[float, float],
                      epsilons: tuple[float, float, float] | None,
                      grid: Grid) -> LocalizationTriple:
    b, c = omega
    if c != 1.0:
        raise ValueError(f"omega must be of the form (b, 1), got {omega}")
    if epsilons is None:
        epsilons = default_epsilons(b)
    e0, e1, e2 = epsilons
    if not 0.0 < e2 < e1 < e0 < 1.0 - b:
        raise ValueError(
            f"epsilons must satisfy 0 < e2 < e1 < e0 < 1 - b, got {epsilons}")
    q0, q1, q2 = b + e0, b + e1, b + e2

    def psi(x):
        return _ramp(x, q1, q0, 1.0, 0.0)

    def phi(x):
        return _ramp(x, q2, q1, 0.0, 1.0)

    def beta(x):
        return _ramp(x, b, q2, 0.0, 1.0)

    def xpsi_x(x):
        x = np.asarray(x, dtype=float)
        # (x psi)_x = psi + x psi'; psi' = -1/(e0 - e1) on the ramp, else 0
        on_ramp = (x > q1) & (x < q0)
        return np.where(x <= q1, 1.0,
                        np.where(on_ramp, psi(x) - x / (e0 - e1), 0.0))

    xs = grid.nodes
    return LocalizationTriple(
        xpsi_x=xpsi_x,
        q0=(q0, 1.0), q1=(q1, 1.0), q2=(q2, 1.0),
        epsilons=(e0, e1, e2), omega=omega,
        psi_nodes=psi(xs), phi_nodes=phi(xs), beta_nodes=beta(xs),
    )


# ---------------------------------------------------------------------------
# Analytic initial-data profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """A scalar function on [0, 1] with analytic first/second derivatives."""

    value: Callable[[Array], Array]
    deriv: Callable[[Array], Array]
    second: Callable[[Array], Array]
    label: str

    def scaled(self, amplitude: float) -> "Profile":
        if amplitude == 1.0:
            return self
        return Profile(
            value=lambda x: amplitude * self.value(x),
            deriv=lambda x: amplitude * self.deriv(x),
            second=lambda x: amplitude * self.second(x),
            label=f"{amplitude:g}*{self.label}",
        )


def zero_function() -> Profile:
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return Profile(z, z, z, "zero")


def sine_profile(k: int = 1, amplitude: float = 1.0) -> Profile:
    if k != int(k):
        raise ValueError(f"sine mode k must be an integer, got {k:g}")
    w = np.pi * k
    return Profile(
        value=lambda x: amplitude * np.sin(w * x),
        deriv=lambda x: amplitude * w * np.cos(w * x),
        second=lambda x: -amplitude * w * w * np.sin(w * x),
        label=f"sine({k:g})" if amplitude == 1.0 else f"{amplitude:g}*sine({k:g})",
    )


def bump_profile(center: float = 0.5, width: float = 0.1,
                 amplitude: float = 1.0) -> Profile:
    """sin(pi x) * Gaussian envelope; vanishes exactly at both walls."""
    if not width > 0.0:
        raise ValueError(f"bump width must be > 0, got {width:g}")
    def parts(x):
        x = np.asarray(x, dtype=float)
        s = np.sin(np.pi * x)
        c = np.pi * np.cos(np.pi * x)
        u = (x - center) / width
        e = np.exp(-np.square(u))
        ep = -2.0 * u / width * e
        epp = (4.0 * np.square(u) - 2.0) / width ** 2 * e
        return s, c, e, ep, epp

    def value(x):
        s, _, e, _, _ = parts(x)
        return amplitude * s * e

    def deriv(x):
        s, c, e, ep, _ = parts(x)
        return amplitude * (c * e + s * ep)

    def second(x):
        s, c, e, ep, epp = parts(x)
        return amplitude * (-np.pi ** 2 * s * e + 2.0 * c * ep + s * epp)

    return Profile(value, deriv, second,
                   label=f"bump({center:g},{width:g})")


PROFILES: dict[str, Callable[..., Profile]] = {
    "zero": zero_function,
    "sine": sine_profile,
    "bump": bump_profile,
}
