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

from typing import Sequence

import numpy as np

from .core import (
    Array, Grid, LocalizationTriple, cumulative_trapezoid, modified_big_g,
    modified_fg_prime, modified_g, nu_ratio, signed_power,
)
from .energy import accept_window, energy_p_nodal, trapezoid
from .solver import Scenario

#: the Young parameters eta of the second-set table
ETAS = (0.25, 0.5, 1.0, 2.0)
#: the fewest records of a window that MultiplierStream integrates over
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


def multiplier_terms(stream: MultiplierStream, rho: Array, xi: Array, rows: slice,
                     ext: slice) -> list[dict[str, Array]]:
    """Per p of stream.p_list, the space integrals of the window records
    `rows` from rho and xi on `ext`: `rows` and one halo record each side,
    clamped to the window. theta = nu(z_t), the linearizing coefficient;
    v is the elliptic multiplier on `ext`, v_t = np.gradient(v, stream.times)."""
    st, sc, dx = stream, stream.scenario, stream.scenario.grid.dx
    inner = slice(rows.start - ext.start, rows.stop - ext.start)
    z = cumulative_trapezoid(0.5 * (rho + xi), dx)
    rho, xi, y = rho[inner], xi[inner], z[inner]
    atheta = sc.a_nodes[None, :] * nu_ratio(0.5 * (rho - xi), sc.g)
    diff = rho - xi
    out = []
    for p, (f, fprime, big_f) in zip(st.p_list, st.regimes):
        v = elliptic_solve(st.triple.beta_nodes[None, :] * f(z), sc.grid)
        v_t = _time_derivative(v, rows, ext, st.dts, st.uniform)
        f_rho, f_xi = f(rho), f(xi)
        big_sum = big_f(rho) + big_f(xi)
        out.append({
            "E": energy_p_nodal(rho, xi, p, dx),
            # first set of multipliers (x psi f)
            "S1": trapezoid(st.one_minus[None, :] * big_sum * st.q1_mask, dx),
            "S3": trapezoid(np.abs(atheta * st.xpsi[None, :]) * np.abs(f_rho + f_xi)
                            * np.abs(diff), dx),
            "S4": trapezoid(big_sum * st.q1_mask, dx),
            # second set (phi f' y)
            "T1": trapezoid(np.abs(y) * (np.abs(f_rho) + np.abs(f_xi)) * st.q2_mask, dx),
            "T3": trapezoid(np.abs((fprime(rho) + fprime(xi)) * y * atheta * diff)
                            * st.q2_mask, dx),
            "T4": trapezoid(np.abs(st.triple.phi_nodes[None, :] * diff * (f_rho - f_xi)),
                            dx),
            "T5": trapezoid(np.abs(y) ** p * st.q2_mask, dx),
            # third multiplier (elliptic v)
            "V2": trapezoid(np.abs(v_t) * np.abs(diff), dx),
            "V3": trapezoid(np.abs(v[inner] * atheta * diff), dx),
        })
    return out


class MultiplierStream:
    """A block consumer of a run (run_simulation's consume) whose reports()
    are S1..S4, T1..T5, V1..V3 on the records inside `window` (accept_window
    of scenario.record_times), one table per p of p_list. A window
    record goes to multiplier_terms once v is known on both its neighbours:
    a block's last record waits for the next block. The stream copies the
    records the next call needs, at most two (the last of them, at the end,
    the window's last record), and the window's first record: S2, T2 and V1
    read those two alone. Dense records (record_every = 1) are advised."""

    def __init__(self, scenario: Scenario, window: tuple[float, float],
                 triple: LocalizationTriple, p_list: Sequence[float]):
        self.rows = accept_window(scenario.record_times, window, MIN_RECORDS,
                                  "multiplier terms need")
        self.times = scenario.record_times[self.rows]
        self.scenario, self.window, self.triple = scenario, window, triple
        self.p_list = tuple(p_list)
        self.regimes = [_regime_functions(p) for p in self.p_list]
        self.dts = np.diff(self.times)
        self.uniform = bool((self.dts == self.dts[0]).all())
        xs = scenario.grid.nodes
        self.q1_mask, self.q2_mask = xs > triple.q1[0], xs > triple.q2[0]
        self.xpsi = xs * triple.psi_nodes
        self.one_minus = np.abs(1.0 - triple.xpsi_x(xs))
        self.blocks: list[list[dict[str, Array]]] = []  # multiplier_terms of each call
        self.done = 0  # window records whose integrals are in blocks
        self.held = (np.empty((0, len(xs))),) * 2  # rho, xi of records max(done - 1, 0) on
        self.first: tuple[Array, Array] = ()  # rho, xi of the window's first record

    def __call__(self, records: slice, rho: Array, xi: Array) -> None:
        n_records, lo = len(self.times), self.rows.start
        start, stop = max(records.start - lo, 0), min(records.stop - lo, n_records)
        if start >= stop:  # no window record in this block
            return
        cut = slice(start + lo - records.start, stop + lo - records.start)
        if start == 0:
            self.first = (rho[cut][0].copy(), xi[cut][0].copy())
        rho = np.concatenate((self.held[0], rho[cut]))
        xi = np.concatenate((self.held[1], xi[cut]))
        ext = slice(max(self.done - 1, 0), stop)
        rows = slice(self.done, stop if stop == n_records else stop - 1)
        if rows.start < rows.stop:
            self.blocks.append(multiplier_terms(self, rho, xi, rows, ext))
            self.done = rows.stop
        keep = max(self.done - 1, 0) - ext.start
        self.held = (rho[keep:].copy(), xi[keep:].copy())

    def reports(self) -> dict[str, dict]:
        """The summary's multiplier_tables, keyed f"{p:g}", once the run has
        passed the window's end: per p its regime, terms, int_energy
        (int_S^T E_p dt), energy_at_s (E_p(S)) and the minimal empirical
        constants closing each estimate, the second set's per eta."""
        if self.done < len(self.times):
            raise ValueError(f"the run has not passed the window {self.window}")
        grid, dx = self.scenario.grid, self.scenario.grid.dx
        rho, xi = (np.stack((first, held[-1])) for first, held in zip(self.first, self.held))
        z = cumulative_trapezoid(0.5 * (rho + xi), dx)

        def time_int(series: Array) -> float:
            return float(np.trapezoid(series, self.times))

        tables = {}
        for j, (p, (f, _, big_f)) in enumerate(zip(self.p_list, self.regimes)):
            series = {key: np.concatenate([b[j][key] for b in self.blocks])
                      for key in self.blocks[0][j]}
            int_energy = time_int(series["E"])
            energy_at_s = float(series["E"][0])
            big_diff = big_f(rho) - big_f(xi)
            bracket = trapezoid((f(rho) - f(xi)) * z, dx)
            bracket_v = trapezoid(
                elliptic_solve(self.triple.beta_nodes[None, :] * f(z), grid)
                * (rho - xi), dx)

            s4 = time_int(series["S4"])
            t5 = time_int(series["T5"])
            terms = {"S1": time_int(series["S1"]),
                     "S2": trapezoid(np.abs(self.xpsi) * np.abs(big_diff[1] - big_diff[0]),
                                     dx),
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
            eta_table = {f"{eta:g}": {"second_set": s4 / max(
                t5 / eta ** p + eta ** q * int_energy + energy_at_s, 1e-300)}
                for eta in ETAS}
            chain["second_set_eta1"] = eta_table["1"]["second_set"]
            tables[f"{p:g}"] = {
                "regime": "p_geq_2" if p >= 2.0 else "p_in_1_2", "terms": terms,
                "int_energy": int_energy, "energy_at_s": energy_at_s,
                "chain_constants": chain, "eta_table": eta_table}
        return tables
