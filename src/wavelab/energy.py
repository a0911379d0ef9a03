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
    Array, DampingProfile, Grid, Nonlinearity, RiemannState,
    modified_big_g, modified_g, signed_power,
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


def dissipation_rate_nodal(rho: Array, xi: Array, ag: Array, p: float,
                           dx: float):
    """dE_p/dt from nodal data, with ag = -a(x) g(z_t) at the nodes."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    integrand = ag * (signed_power(rho, p - 1.0) - signed_power(xi, p - 1.0))
    return trapezoid(integrand, dx)


def dissipation_rate(state: RiemannState, p: float, a: DampingProfile,
                     g: Nonlinearity, grid: Grid) -> float:
    """dE_p/dt = -int a(x) g((rho-xi)/2) (|rho|^(p-1) sgn rho - |xi|^(p-1) sgn xi) dx.

    Pointwise nonpositive for monotone g; for p = 1 the sgn selection of
    signed_power applies.
    """
    return dissipation_rate_nodal(state.rho, state.xi, _damping_term(state, a, g, grid),
                                  p, grid.dx)


def _damping_term(state: RiemannState, a: DampingProfile, g: Nonlinearity,
                  grid: Grid) -> Array:
    """-a(x) g(z_t) at the nodes."""
    return -np.asarray(a.value(grid.nodes)) * np.asarray(g.value(state.z_t))


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


@dataclass(frozen=True)
class SobolevCheck:
    c_p: float
    satisfied: bool
    worst_margin: float  # min over records of c_p - ||z_t||_{W^{1,p}}
    sup_zt: float


def sobolev_bound_check(w_traj, p: float) -> SobolevCheck:
    """Verify ||z_t(t)||_{W^{1,p}} <= c_p = (p E_p(w)(0))^{1/p} on a run of the
    derivative system. The equivalence constant is realized as 1 in the
    direction int |w_x|^p + |w_t|^p <= p E_p(w), which holds by convexity of
    |.|^p applied to w_x = (u+v)/2, w_t = (u-v)/2.
    """
    ew = w_traj.diagnostics[f"E_pw{p:g}"]
    norms = w_traj.diagnostics[f"W1p_zt_p{p:g}"]
    c_p = (p * ew[0]) ** (1.0 / p)
    margin = float(np.min(c_p - norms))
    sup_zt = float(np.max(w_traj.diagnostics["max_zt"]))
    return SobolevCheck(c_p=c_p, satisfied=margin >= -1e-10,
                        worst_margin=margin, sup_zt=sup_zt)


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


def decay_fit(times: Array, energies: Array, window: tuple[float, float]) -> DecayFit:
    """Least squares on (t, log E) inside the window; rate = -slope.

    Points at or below the floor FIT_FLOOR_FACTOR * E[0] (numerical noise
    after full decay) are discarded first.
    """
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    floor = FIT_FLOOR_FACTOR * energies[0]
    mask = (times >= window[0]) & (times <= window[1]) & (energies > floor)
    if int(mask.sum()) < 10:
        raise ValueError(
            f"decay_fit needs >= 10 points above the floor in {window}, "
            f"got {int(mask.sum())}")
    t = times[mask]
    y = np.log(energies[mask])
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
    fit = None
    if fit_window is not None:
        fit = decay_fit(times, energies, fit_window)
    return EnergyReport(p=p, times=times, energies=energies,
                        dissipation=dissipation, fit=fit)


def observability_ratio(traj, p: float, s: float, t: float) -> float:
    """int_s^t E_p dt / E_p(s), the empirical constant of the observability
    estimate; bounded by (t - s) since the energy is non-increasing.

    s and t snap to their nearest records, which must differ."""
    times = traj.times
    energies = traj.diagnostics[f"E_p{p:g}"]
    if not 0.0 <= s < t <= times[-1] + 1e-12:
        raise ValueError(f"window ({s}, {t}) outside trajectory [0, {times[-1]}]")
    i_s = int(np.argmin(np.abs(times - s)))
    i_t = int(np.argmin(np.abs(times - t)))
    if i_s == i_t:
        raise ValueError(f"window ({s}, {t}): s and t snap to the same record, "
                         f"t = {times[i_s]:g} (records are {times[1] - times[0]:g} "
                         f"apart)")
    e_s = energies[i_s]
    if e_s <= 0.0:
        raise ValueError(f"E_p({s}) = {e_s} is not positive")
    integral = float(np.trapezoid(energies[i_s:i_t + 1], times[i_s:i_t + 1]))
    return integral / e_s
