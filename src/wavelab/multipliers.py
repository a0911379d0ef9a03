"""Multiplier machinery as computable diagnostics.

The elliptic auxiliary solve and the named integral terms of the three
multiplier estimates, evaluated on recorded trajectories by space-time
trapezoid quadrature. The terms carry unspecified analytic constants in
the estimates; this module reports the minimal empirical constants that
make each inequality true on the run's data.

Regimes: p >= 2 uses (f, F) = (signed power p-1, |.|^p/p); 1 < p < 2 uses
the bounded surrogate pair (g_mod, G_mod).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Array, Grid, LocalizationTriple, cumulative_trapezoid, modified_big_g,
    modified_fg_prime, modified_g, nu_ratio, signed_power,
)
from .energy import trapezoid
from .solver import Scenario, Trajectory

#: the Young parameters eta of the second-set table
ETAS = (0.25, 0.5, 1.0, 2.0)


def _regime_functions(p: float):
    """Return (f, f', F) for the exponent regime of p."""
    if p >= 2.0:
        return (lambda s: signed_power(s, p - 1.0),
                lambda s: (p - 1.0) * np.abs(s) ** (p - 2.0),
                lambda s: np.abs(s) ** p / p)
    if p > 1.0:
        return (lambda s: modified_g(s, p),
                lambda s: modified_fg_prime(s, p),
                lambda s: modified_big_g(s, p))
    raise ValueError(f"multiplier regime needs p > 1, got {p}")


# ---------------------------------------------------------------------------
# Elliptic auxiliary problem
# ---------------------------------------------------------------------------

def elliptic_solve(h: Array, grid: Grid) -> Array:
    """Solve v'' = h on (0,1), v(0) = v(1) = 0, by the Green representation
    v(x) = int_0^x (x - s) h(s) ds - x int_0^1 (1 - s) h(s) ds (trapezoid).

    h has shape (..., n_nodes): each row is an independent right-hand side,
    and its solution equals the 1-d solve of that row bit for bit."""
    h = np.asarray(h, dtype=float)
    xs = grid.nodes
    cum_h = cumulative_trapezoid(h, grid.dx)
    cum_sh = cumulative_trapezoid(xs * h, grid.dx)
    a = xs * cum_h - cum_sh                        # int_0^x (x - s) h(s) ds
    total = cum_h[..., -1:] - cum_sh[..., -1:]     # int_0^1 (1 - s) h(s) ds
    return a - xs * total


# ---------------------------------------------------------------------------
# Term evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplierReport:
    """All named terms over a window [S, T], plus left-hand sides and the
    minimal empirical constants closing each estimate (per eta)."""

    p: float
    regime: str
    window: tuple[float, float]
    terms: dict[str, float]
    int_energy: float       # int_S^T E_p dt
    energy_at_s: float      # E_p(S)
    chain_constants: dict[str, float]
    eta_table: dict[float, dict[str, float]]


def _window_indices(traj: Trajectory, window: tuple[float, float]) -> np.ndarray:
    s, t = window
    times = traj.times
    if s < times[0] - 1e-12 or t > times[-1] + 1e-12 or s >= t:
        raise ValueError(f"window {window} outside trajectory [0, {times[-1]}]")
    idx = np.where((times >= s - 1e-12) & (times <= t + 1e-12))[0]
    if len(idx) < 3:
        raise ValueError(f"window {window} contains too few records")
    return idx


@dataclass(frozen=True)
class RecordWindow:
    """The p-independent stacks of a trajectory's records inside a window,
    one row per record, shared by the multiplier terms of every p."""

    scenario: Scenario
    window: tuple[float, float]
    times: Array
    rho: Array
    xi: Array
    z: Array      # z from z_x, z(0) = 0
    theta: Array  # damping intensity


def record_window(traj: Trajectory, window: tuple[float, float],
                  theta: Array | None = None) -> RecordWindow:
    """The rows of the records of `traj` inside `window`.

    theta: per-record (n_records, n_nodes) damping intensity. Defaults to
    nu(z_t) for a nonlinear run (the linearizing coefficient) so that the
    source reads a(x) theta (rho - xi)/2 in both cases. Dense recording
    (record_every = 1) is recommended for meaningful time integrals.
    """
    if traj.rho is None:
        raise ValueError("record_window needs a trajectory with kept states")
    idx = _window_indices(traj, window)
    rho, xi = traj.rho[idx], traj.xi[idx]
    if theta is None:
        theta_w = nu_ratio(0.5 * (rho - xi), traj.scenario.g)
    else:
        theta_w = np.asarray(theta)[idx]
    z = cumulative_trapezoid(0.5 * (rho + xi), traj.scenario.grid.dx)
    return RecordWindow(scenario=traj.scenario, window=window,
                        times=traj.times[idx], rho=rho, xi=xi, z=z, theta=theta_w)


def multiplier_terms(records: RecordWindow, triple: LocalizationTriple,
                     p: float) -> MultiplierReport:
    """Evaluate S1..S4, T1..T5, V1..V3 on the recorded window
    (record_window), which one window may share across every p."""
    f, fprime, big_f = _regime_functions(p)
    regime = "p_geq_2" if p >= 2.0 else "p_in_1_2"
    grid = records.scenario.grid
    xs = grid.nodes
    dx = grid.dx

    times = records.times
    rho = records.rho
    xi = records.xi
    diff = rho - xi
    theta_w = records.theta

    q1_mask = xs > triple.q1[0]
    q2_mask = xs > triple.q2[0]
    xpsi = xs * triple.psi_nodes
    one_minus = np.abs(1.0 - triple.xpsi_x(xs))

    y = records.z
    f_rho, f_xi = f(rho), f(xi)
    big_rho, big_xi = big_f(rho), big_f(xi)
    atheta = records.scenario.a_nodes[None, :] * theta_w

    def space_int(integrand: Array, mask: Array | None = None) -> Array:
        if mask is not None:
            integrand = integrand * mask[None, :]
        return np.trapezoid(integrand, dx=dx, axis=1)

    def time_int(series: Array) -> float:
        return float(np.trapezoid(series, times))

    energies = space_int((np.abs(rho) ** p + np.abs(xi) ** p) / p)
    int_energy = time_int(energies)
    energy_at_s = float(energies[0])

    # first set of multipliers (x psi f)
    s1 = time_int(space_int(one_minus[None, :] * (big_rho + big_xi), q1_mask))
    s2 = trapezoid(np.abs(xpsi) * np.abs(
        (big_rho[-1] - big_xi[-1]) - (big_rho[0] - big_xi[0])), dx)
    s3 = 0.5 * time_int(space_int(
        np.abs(atheta * xpsi[None, :]) * np.abs(f_rho + f_xi) * np.abs(diff)))
    s4 = time_int(space_int(big_rho + big_xi, q1_mask))

    # second set (phi f' y)
    t1 = time_int(space_int(np.abs(y) * (np.abs(f_rho) + np.abs(f_xi)), q2_mask))
    bracket = space_int((f_rho - f_xi) * y)
    t2 = abs(float(bracket[-1] - bracket[0]))
    t3 = time_int(space_int(
        np.abs((fprime(rho) + fprime(xi)) * y * atheta * diff), q2_mask))
    t4 = time_int(space_int(
        np.abs(triple.phi_nodes[None, :] * diff * (f_rho - f_xi))))
    t5 = time_int(space_int(np.abs(y) ** p, q2_mask))

    # third multiplier (elliptic v)
    v = elliptic_solve(triple.beta_nodes[None, :] * f(y), grid)
    v_t = np.gradient(v, times, axis=0)
    bracket_v = space_int(v * diff)
    v1 = abs(float(bracket_v[-1] - bracket_v[0]))
    v2 = time_int(space_int(np.abs(v_t) * np.abs(diff)))
    v3 = time_int(space_int(np.abs(v * atheta * diff)))

    terms = {"S1": s1, "S2": s2, "S3": s3, "S4": s4,
             "T1": t1, "T2": t2, "T3": t3, "T4": t4, "T5": t5,
             "V1": v1, "V2": v2, "V3": v3}

    # minimal empirical constants closing each estimate on this data
    chain = {
        "first_set": int_energy / max(energy_at_s + s4, 1e-300),
        "third_multiplier": t5 / max(int_energy + energy_at_s, 1e-300),
    }
    q = p / (p - 1.0)
    eta_table: dict[float, dict[str, float]] = {}
    for eta in ETAS:
        eta_table[eta] = {
            "second_set": s4 / max(
                t5 / eta ** p + eta ** q * int_energy + energy_at_s, 1e-300),
        }
    chain["second_set_eta1"] = eta_table[1.0]["second_set"]

    return MultiplierReport(p=p, regime=regime, window=records.window, terms=terms,
                            int_energy=int_energy, energy_at_s=energy_at_s,
                            chain_constants=chain, eta_table=eta_table)
