"""Scalar functionals of a run: p-energies, dissipation identities,
convex Phi functionals, Sobolev-type bounds, decay-rate fitting and the
empirical observability ratio.

All integrals are composite trapezoid sums on the solver grid, consistent
with the nodal state representation. The nodal diagnostics take arrays of
shape (..., n_nodes) and reduce along the last axis, one value per row, each
bitwise equal to the 1-d call on that row; a 1-d input returns a float.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Array, Grid, RiemannState, modified_big_g, modified_g, signed_power,
)


def trapezoid(values: Array, dx: float):
    """Composite trapezoid along the last axis; a float for 1-d values."""
    out = np.trapezoid(values, dx=dx, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def _root(integral, p: float):
    """integral ** (1/p) with the scalar pow of the 1-d form on every entry:
    numpy's vectorized power can differ from it in the last bit."""
    if np.ndim(integral) == 0:
        return integral ** (1.0 / p)
    return np.array([v ** (1.0 / p) for v in integral.tolist()])


# ---------------------------------------------------------------------------
# Energies and dissipation
# ---------------------------------------------------------------------------

def energy_p_nodal(rho: Array, xi: Array, p: float, dx: float):
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    return trapezoid((np.abs(rho) ** p + np.abs(xi) ** p) / p, dx)


def energy_p(state: RiemannState, p: float, grid: Grid) -> float:
    """E_p = (1/p) int_0^1 |rho|^p + |xi|^p dx."""
    return energy_p_nodal(state.rho, state.xi, p, grid.dx)


def dissipation_rate(rho: Array, xi: Array, ag: Array, p: float, dx: float):
    """dE_p/dt = -int a(x) g((rho-xi)/2) (|rho|^(p-1) sgn rho - |xi|^(p-1) sgn xi) dx,
    from nodal data with ag = -a(x) g(z_t) at the nodes.

    Pointwise nonpositive for monotone g; for p = 1 the sgn selection of
    signed_power applies.
    """
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    integrand = ag * (signed_power(rho, p - 1.0) - signed_power(xi, p - 1.0))
    return trapezoid(integrand, dx)


# ---------------------------------------------------------------------------
# Convex functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexFunctional:
    """A C^1 convex integrand F with F(0) = 0 for the Phi functional."""

    F: Callable[[Array], Array]
    F_prime: Callable[[Array], Array]
    label: str

    def validate(self) -> None:
        y = np.linspace(-5.0, 5.0, 501)
        f0 = float(np.asarray(self.F(np.array(0.0))))
        if abs(f0) > 1e-14:
            raise ValueError(f"F({self.label}): F(0) = {f0} != 0")
        fv = np.asarray(self.F(y))
        if np.any(np.diff(fv, 2) < -1e-12):
            raise ValueError(f"F({self.label}) fails the convexity lattice check")
        h = 1e-6
        fd = (np.asarray(self.F(y + h)) - np.asarray(self.F(y - h))) / (2 * h)
        if np.max(np.abs(fd - np.asarray(self.F_prime(y)))) > 1e-5:
            raise ValueError(f"F'({self.label}) does not match finite differences of F")


def modified_energy_functional(p: float) -> ConvexFunctional:
    """F = G from the (1,2) regime; Phi with this F is the modified energy."""
    return ConvexFunctional(
        F=lambda s: modified_big_g(s, p),
        F_prime=lambda s: modified_g(s, p),
        label=f"G_mod(p={p:g})")


def phi_functional(rho: Array, xi: Array, F: ConvexFunctional, dx: float):
    """Phi = int F(rho) + F(xi) dx; non-increasing along damped runs."""
    return trapezoid(np.asarray(F.F(rho)) + np.asarray(F.F(xi)), dx)


# ---------------------------------------------------------------------------
# Sobolev norms and the regularity bound
# ---------------------------------------------------------------------------

def lp_norm(values: Array, p: float, dx: float):
    return _root(trapezoid(np.abs(values) ** p, dx), p)


def w1p_norm(values: Array, derivative: Array, p: float, dx: float):
    return _root(trapezoid(np.abs(values) ** p + np.abs(derivative) ** p, dx), p)


def sobolev_margin(w_traj, p: float) -> float:
    """min over the records of c_p - ||z_t(t)||_{W^{1,p}}, c_p = (p E_p(w)(0))^{1/p},
    on a run of the derivative system: the bound holds where it is >= 0. The
    equivalence constant is realized as 1 in the direction int |w_x|^p +
    |w_t|^p <= p E_p(w), which holds by convexity of |.|^p applied to
    w_x = (u+v)/2, w_t = (u-v)/2.
    """
    c_p = (p * w_traj.diagnostics[f"E_pw{p:g}"][0]) ** (1.0 / p)
    return float(np.min(c_p - w_traj.diagnostics[f"W1p_zt_p{p:g}"]))


# ---------------------------------------------------------------------------
# Decay-rate fitting and observability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    rate: float
    intercept: float
    r2: float
    n_points: int
    window: tuple[float, float]


FIT_FLOOR_FACTOR = 1e-13
#: the fewest points above the floor that decay_fit fits a line through
FIT_MIN_POINTS = 10
#: the fewest records that observability_ratio integrates E_p over
RATIO_MIN_RECORDS = 2


def window_rows(times: Array, window: tuple[float, float]) -> slice:
    """The rows of the increasing `times` inside `window`, ends within 1e-12,
    as a slice: the rule by which decay_fit and accept_window pick a window's records."""
    lo, hi = window
    return slice(int(np.searchsorted(times, lo - 1e-12, side="left")),
                 int(np.searchsorted(times, hi + 1e-12, side="right")))


def accept_window(times: Array, window: tuple[float, float], need: int,
                  consumer: str, *, default: bool = False) -> slice:
    """window_rows(times, window) if `window` fits the run of record times `times`,
    the last at the final time n dt: 0 <= S < T <= times[-1] + 1e-12, and `need`
    records or more for `consumer`; else ValueError (`default`: S, T were not given).
    The one rule by which the parser, observability_ratio and MultiplierStream accept it."""
    s, t = window
    if not 0 <= s < t:
        raise ValueError("must be 'S, T' with 0 <= S < T")
    if t > times[-1] + 1e-12:
        raise ValueError(f"T = {t:g} is past the final time {times[-1]:g}")
    rows = window_rows(times, window)
    if rows.stop - rows.start < need:
        raise ValueError(f"{'the default ' if default else ''}({s:g}, {t:g}) holds "
                         f"{rows.stop - rows.start} record(s); the {consumer} at least {need}")
    return rows


def decay_fit(times: Array, energies: Array, window: tuple[float, float]) -> DecayFit:
    """Least squares on (t, log E) inside the window (window_rows); rate = -slope.

    Points at or below the floor FIT_FLOOR_FACTOR * E[0] (numerical noise
    after full decay) are discarded first.
    """
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    rows = window_rows(times, window)
    mask = energies[rows] > FIT_FLOOR_FACTOR * energies[0]
    if int(mask.sum()) < FIT_MIN_POINTS:
        raise ValueError(
            f"decay_fit needs >= {FIT_MIN_POINTS} points above the floor in "
            f"{window}, got {int(mask.sum())}")
    t = times[rows][mask]
    y = np.log(energies[rows][mask])
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and np.allclose(resid, 0.0) else \
        1.0 - float(np.sum(resid ** 2)) / ss_tot
    return DecayFit(rate=-float(slope), intercept=float(intercept), r2=r2,
                    n_points=int(mask.sum()), window=window)


@dataclass(frozen=True)
class EnergyReport:
    p: float
    times: Array
    energies: Array
    dissipation: Array
    fit: DecayFit | None


def build_energy_report(traj, p: float,
                        fit_window: tuple[float, float] | None) -> EnergyReport:
    times = traj.times
    energies = traj.diagnostics[f"E_p{p:g}"]
    dissipation = traj.diagnostics[f"dEdt_p{p:g}"]
    fit = None if fit_window is None else decay_fit(times, energies, fit_window)
    return EnergyReport(p=p, times=times, energies=energies,
                        dissipation=dissipation, fit=fit)


def observability_ratio(traj, p: float, window: tuple[float, float]) -> float:
    """int_S^T E_p dt / E_p(S) over the records inside `window` (accept_window),
    S and T the first and last of them: the empirical constant of the
    observability estimate, bounded by T - S since the energy is non-increasing."""
    times, energies = traj.times, traj.diagnostics[f"E_p{p:g}"]
    rows = accept_window(times, window, RATIO_MIN_RECORDS, "observability ratio needs")
    e_s = energies[rows.start]
    if e_s <= 0.0:
        raise ValueError(f"E_p({times[rows.start]}) = {e_s} is not positive")
    return float(np.trapezoid(energies[rows], times[rows])) / e_s
