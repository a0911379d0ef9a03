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
from .solver import Scenario, Trajectory, record_blocks

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


def _window_slice(traj: Trajectory, window: tuple[float, float]) -> slice:
    """The records of `traj` with times inside `window` (1e-12 slack), a
    contiguous run since the records are in time order."""
    s, t = window
    times = traj.times
    if s < times[0] - 1e-12 or t > times[-1] + 1e-12 or s >= t:
        raise ValueError(f"window {window} outside trajectory [0, {times[-1]}]")
    rows = slice(int(np.searchsorted(times, s - 1e-12, side="left")),
                 int(np.searchsorted(times, t + 1e-12, side="right")))
    if rows.stop - rows.start < 3:
        raise ValueError(f"window {window} contains too few records")
    return rows


@dataclass(frozen=True)
class RecordWindow:
    """The p-independent stacks of a trajectory's records inside a window,
    one row per record, shared by the multiplier terms of every p.

    rho and xi are views of the trajectory's kept states, as is theta when
    it is given (record_window); z, and theta by default, are computed for
    the window."""

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

    z, and theta by default, are filled one record block at a time
    (record_blocks), so their temporaries never exist at window length.
    """
    if traj.rho is None:
        raise ValueError("record_window needs a trajectory with kept states")
    rows = _window_slice(traj, window)
    rho, xi = traj.rho[rows], traj.xi[rows]
    sc = traj.scenario
    z = np.empty(rho.shape)
    theta_w = np.empty(rho.shape) if theta is None else np.asarray(theta)[rows]
    for blk in record_blocks(*rho.shape):
        z[blk] = cumulative_trapezoid(0.5 * (rho[blk] + xi[blk]), sc.grid.dx)
        if theta is None:
            theta_w[blk] = nu_ratio(0.5 * (rho[blk] - xi[blk]), sc.g)
    return RecordWindow(scenario=sc, window=window, times=traj.times[rows],
                        rho=rho, xi=xi, z=z, theta=theta_w)


def multiplier_terms(records: RecordWindow, triple: LocalizationTriple,
                     p: float) -> MultiplierReport:
    """Evaluate S1..S4, T1..T5, V1..V3 on the recorded window
    (record_window), which one window may share across every p.

    The space integral of each record is taken block by block
    (record_blocks) and the time integrals over the joined series, so the
    per-record integrands only ever exist one block at a time. S2, T2 and V1
    read only the first and last records. The elliptic multiplier v and its
    time derivative v_t = np.gradient(v, times) are the two window-length
    arrays: one elliptic_solve covers every record of the window."""
    f, fprime, big_f = _regime_functions(p)
    regime = "p_geq_2" if p >= 2.0 else "p_in_1_2"
    grid = records.scenario.grid
    xs = grid.nodes
    dx = grid.dx
    times = records.times

    q1_mask = xs > triple.q1[0]
    q2_mask = xs > triple.q2[0]
    xpsi = xs * triple.psi_nodes
    one_minus = np.abs(1.0 - triple.xpsi_x(xs))
    a_nodes = records.scenario.a_nodes

    def space_int(integrand: Array, mask: Array | None = None) -> Array:
        if mask is not None:
            integrand = integrand * mask[None, :]
        return np.trapezoid(integrand, dx=dx, axis=1)

    def time_int(series: Array) -> float:
        return float(np.trapezoid(series, times))

    # third multiplier (elliptic v), whose time derivative needs every record
    v = elliptic_solve(triple.beta_nodes[None, :] * f(records.z), grid)
    v_t = np.gradient(v, times, axis=0)

    def block_integrals(rows: slice) -> dict[str, Array]:
        rho, xi, y = records.rho[rows], records.xi[rows], records.z[rows]
        diff = rho - xi
        f_rho, f_xi = f(rho), f(xi)
        big_sum = big_f(rho) + big_f(xi)
        atheta = a_nodes[None, :] * records.theta[rows]
        return {
            "E": space_int((np.abs(rho) ** p + np.abs(xi) ** p) / p),
            # first set of multipliers (x psi f)
            "S1": space_int(one_minus[None, :] * big_sum, q1_mask),
            "S3": space_int(np.abs(atheta * xpsi[None, :]) * np.abs(f_rho + f_xi)
                            * np.abs(diff)),
            "S4": space_int(big_sum, q1_mask),
            # second set (phi f' y)
            "T1": space_int(np.abs(y) * (np.abs(f_rho) + np.abs(f_xi)), q2_mask),
            "T3": space_int(np.abs((fprime(rho) + fprime(xi)) * y * atheta * diff),
                            q2_mask),
            "T4": space_int(np.abs(triple.phi_nodes[None, :] * diff * (f_rho - f_xi))),
            "T5": space_int(np.abs(y) ** p, q2_mask),
            "V2": space_int(np.abs(v_t[rows]) * np.abs(diff)),
            "V3": space_int(np.abs(v[rows] * atheta * diff)),
        }

    blocks = [block_integrals(rows) for rows in record_blocks(len(times), len(xs))]
    series = {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}
    int_energy = time_int(series["E"])
    energy_at_s = float(series["E"][0])

    ends = [0, -1]  # the first and last records
    rho, xi = records.rho[ends], records.xi[ends]
    big_diff = big_f(rho) - big_f(xi)
    bracket = space_int((f(rho) - f(xi)) * records.z[ends])
    bracket_v = space_int(v[ends] * (rho - xi))

    s1 = time_int(series["S1"])
    s2 = trapezoid(np.abs(xpsi) * np.abs(big_diff[1] - big_diff[0]), dx)
    s3 = 0.5 * time_int(series["S3"])
    s4 = time_int(series["S4"])
    t1 = time_int(series["T1"])
    t2 = abs(float(bracket[1] - bracket[0]))
    t3 = time_int(series["T3"])
    t4 = time_int(series["T4"])
    t5 = time_int(series["T5"])
    v1 = abs(float(bracket_v[1] - bracket_v[0]))
    v2 = time_int(series["V2"])
    v3 = time_int(series["V3"])

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
