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
from typing import Sequence

import numpy as np

from .core import (
    Array, Grid, LocalizationTriple, cumulative_trapezoid, modified_big_g,
    modified_fg_prime, modified_g, nu_ratio, signed_power,
)
from .energy import trapezoid, window_rows
from .solver import Trajectory, record_blocks

#: the Young parameters eta of the second-set table
ETAS = (0.25, 0.5, 1.0, 2.0)
#: the fewest records of a window that multiplier_terms integrates over
MIN_RECORDS = 3


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


def _time_derivative(v: Array, rows: slice, ext: slice, dts: Array,
                     uniform: bool) -> Array:
    """The rows `rows` of np.gradient(v_window, times, axis=0), bit for bit,
    from v on the rows `ext`: `rows` with one halo record on each side,
    clamped to the window. dts are the window's time steps, and uniform is
    np.gradient's choice of formula, which it takes from all of them."""
    lo, hi = rows.start, rows.stop
    n_records = len(dts) + 1
    first, last = max(lo, 1), min(hi, n_records - 1)  # the block's interior rows
    before = v[first - 1 - ext.start:last - 1 - ext.start]
    here = v[first - ext.start:last - ext.start]
    after = v[first + 1 - ext.start:last + 1 - ext.start]
    out = np.empty((hi - lo,) + v.shape[1:])
    if uniform:
        out[first - lo:last - lo] = (after - before) / (2. * dts[0])
    else:
        dx1, dx2 = dts[first - 1:last - 1, None], dts[first:last, None]
        out[first - lo:last - lo] = (-(dx2) / (dx1 * (dx1 + dx2)) * before
                                     + (dx2 - dx1) / (dx1 * dx2) * here
                                     + dx1 / (dx2 * (dx1 + dx2)) * after)
    if lo == 0:  # one-sided at the window's first and last records
        out[0] = (v[1] - v[0]) / dts[0]
    if hi == n_records:
        out[-1] = (v[-1] - v[-2]) / dts[-1]
    return out


def multiplier_terms(traj: Trajectory, window: tuple[float, float],
                     triple: LocalizationTriple, p_list: Sequence[float]
                     ) -> list[MultiplierReport]:
    """Evaluate S1..S4, T1..T5, V1..V3 on the records of `traj` (kept states)
    inside `window` (window_rows) for each p of p_list, one report per p in
    that order; theta = nu(z_t), the linearizing coefficient, so the source
    reads a(x) theta (rho - xi)/2. Dense recording (record_every = 1) is
    recommended for meaningful time integrals.

    The window's rows of the states are views, walked one record block at a
    time (record_blocks): z and theta once per block, then for each p the
    elliptic multiplier v (on the block and one halo record on each side),
    its time derivative v_t = np.gradient(v, times) and the space integral
    of each record. The time integrals run over the joined series, so
    nothing longer than a block exists but the series and the kept states.
    S2, T2 and V1 read only the window's first and last records, which are
    solved on their own."""
    if traj.rho is None:
        raise ValueError("multiplier_terms needs a trajectory with kept states")
    s, t = window
    if s < traj.times[0] - 1e-12 or t > traj.times[-1] + 1e-12 or s >= t:
        raise ValueError(f"window {window} outside trajectory [0, {traj.times[-1]}]")
    rows_w = window_rows(traj.times, window)
    times, rho_w, xi_w = traj.times[rows_w], traj.rho[rows_w], traj.xi[rows_w]
    if len(times) < MIN_RECORDS:
        raise ValueError(f"window {window} contains too few records")
    sc, grid = traj.scenario, traj.scenario.grid
    xs, dx, a_nodes = grid.nodes, grid.dx, sc.a_nodes
    dts = np.diff(times)
    uniform = bool((dts == dts[0]).all())

    q1_mask = xs > triple.q1[0]
    q2_mask = xs > triple.q2[0]
    xpsi = xs * triple.psi_nodes
    one_minus = np.abs(1.0 - triple.xpsi_x(xs))

    def space_int(integrand: Array, mask: Array | None = None) -> Array:
        if mask is not None:
            integrand = integrand * mask[None, :]
        return np.trapezoid(integrand, dx=dx, axis=1)

    def time_int(series: Array) -> float:
        return float(np.trapezoid(series, times))

    def multiplier(z: Array, f) -> Array:
        return elliptic_solve(triple.beta_nodes[None, :] * f(z), grid)

    def block_integrals(p, fns, rho, xi, y, atheta, v, v_t) -> dict[str, Array]:
        f, fprime, big_f = fns
        diff = rho - xi
        f_rho, f_xi = f(rho), f(xi)
        big_sum = big_f(rho) + big_f(xi)
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
            # third multiplier (elliptic v)
            "V2": space_int(np.abs(v_t) * np.abs(diff)),
            "V3": space_int(np.abs(v * atheta * diff)),
        }

    regimes = [_regime_functions(p) for p in p_list]
    blocks: list[list[dict[str, Array]]] = [[] for _ in p_list]
    n_records = len(times)
    for rows in record_blocks(n_records, len(xs)):
        ext = slice(max(rows.start - 1, 0), min(rows.stop + 1, n_records))
        inner = slice(rows.start - ext.start, rows.stop - ext.start)
        rho, xi = rho_w[rows], xi_w[rows]
        z = cumulative_trapezoid(0.5 * (rho_w[ext] + xi_w[ext]), dx)
        atheta = a_nodes[None, :] * nu_ratio(0.5 * (rho - xi), sc.g)
        for p, fns, out in zip(p_list, regimes, blocks):
            v = multiplier(z, fns[0])
            out.append(block_integrals(p, fns, rho, xi, z[inner], atheta, v[inner],
                                       _time_derivative(v, rows, ext, dts, uniform)))

    ends = [0, -1]  # the first and last records
    rho, xi = rho_w[ends], xi_w[ends]
    z = cumulative_trapezoid(0.5 * (rho + xi), dx)
    reports = []
    for p, (f, _, big_f), p_blocks in zip(p_list, regimes, blocks):
        series = {key: np.concatenate([b[key] for b in p_blocks]) for key in p_blocks[0]}
        int_energy = time_int(series["E"])
        energy_at_s = float(series["E"][0])
        big_diff = big_f(rho) - big_f(xi)
        bracket = space_int((f(rho) - f(xi)) * z)
        bracket_v = space_int(multiplier(z, f) * (rho - xi))

        s4 = time_int(series["S4"])
        t5 = time_int(series["T5"])
        terms = {"S1": time_int(series["S1"]),
                 "S2": trapezoid(np.abs(xpsi) * np.abs(big_diff[1] - big_diff[0]), dx),
                 "S3": 0.5 * time_int(series["S3"]),
                 "S4": s4,
                 "T1": time_int(series["T1"]),
                 "T2": abs(float(bracket[1] - bracket[0])),
                 "T3": time_int(series["T3"]),
                 "T4": time_int(series["T4"]),
                 "T5": t5,
                 "V1": abs(float(bracket_v[1] - bracket_v[0])),
                 "V2": time_int(series["V2"]),
                 "V3": time_int(series["V3"])}

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

        reports.append(MultiplierReport(
            p=p, regime="p_geq_2" if p >= 2.0 else "p_in_1_2", window=window,
            terms=terms, int_energy=int_energy, energy_at_s=energy_at_s,
            chain_constants=chain, eta_table=eta_table))
    return reports
