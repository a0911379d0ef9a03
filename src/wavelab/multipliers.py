"""Multiplier machinery as computable diagnostics.

The elliptic auxiliary solve and the named integral terms of the three
multiplier estimates, evaluated on recorded trajectories by space-time
trapezoid quadrature. The terms carry unspecified analytic constants in
the estimates; this module reports the minimal empirical constants that
make each inequality true on the run's data.

Regimes: each p reads its (f, f', F) from core.regime, the power pair for
p >= 2 and the bounded surrogate pair for 1 < p < 2.
"""
from __future__ import annotations

import numpy as np

from .core import Array, Grid, cumulative_trapezoid, make_localization, nu_ratio, regime
from .energy import accept_window, energy_p_nodal, trapezoid
from .solver import Scenario

#: the Young parameters eta of the second-set table
ETAS = (0.25, 0.5, 1.0, 2.0)
#: the fewest records of a window that MultiplierStream integrates over
MIN_RECORDS = 3


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


def _young(term: float, eta: float, power: float) -> float:
    """term eta^power of a Young split, term >= 0, as term / eta^-power for
    power < 0: a zero term stays 0, and where eta^|power| leaves the float
    range the result is 0.0 or +inf, never NaN."""
    try:
        return term and (term * eta ** power if power > 0 else term / eta ** -power)
    except OverflowError:  # eta^|power| past the largest float
        return np.inf if power > 0 else 0.0
    except ZeroDivisionError:  # eta^-power underflows to 0.0
        return np.inf


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
    """Per p of the scenario's p_list, the space integrals of the window records
    `rows` from rho and xi on `ext`: `rows` and one halo record each side,
    clamped to the window. theta = nu(z_t), the linearizing coefficient;
    v is the elliptic multiplier on `ext`, v_t = np.gradient(v, stream.times)."""
    st, sc, w, dx = stream, stream.scenario, stream.weights, stream.scenario.grid.dx
    inner = slice(rows.start - ext.start, rows.stop - ext.start)
    z = cumulative_trapezoid(0.5 * (rho + xi), dx)
    rho, xi, y = rho[inner], xi[inner], z[inner]
    atheta = sc.a_nodes[None, :] * nu_ratio(0.5 * (rho - xi), sc.g)
    diff = rho - xi
    out = []
    for p, (f, fprime, big_f) in zip(sc.p_list, st.regimes):
        v = elliptic_solve(w.beta[None, :] * f(z), sc.grid)
        v_t = _time_derivative(v, rows, ext, st.dts, st.uniform)
        f_rho, f_xi = f(rho), f(xi)
        big_sum = big_f(rho) + big_f(xi)
        out.append({
            "E": energy_p_nodal(rho, xi, p, dx),
            # first set of multipliers (x psi f)
            "S1": trapezoid(w.one_minus[None, :] * big_sum * w.q1_mask, dx),
            "S3": trapezoid(np.abs(atheta * w.xpsi[None, :]) * np.abs(f_rho + f_xi)
                            * np.abs(diff), dx),
            "S4": trapezoid(big_sum * w.q1_mask, dx),
            # second set (phi f' y)
            "T1": trapezoid(np.abs(y) * (np.abs(f_rho) + np.abs(f_xi)) * w.q2_mask, dx),
            "T3": trapezoid(np.abs((fprime(rho) + fprime(xi)) * y * atheta * diff)
                            * w.q2_mask, dx),
            "T4": trapezoid(np.abs(w.phi[None, :] * diff * (f_rho - f_xi)), dx),
            "T5": trapezoid(np.abs(y) ** p * w.q2_mask, dx),
            # third multiplier (elliptic v)
            "V2": trapezoid(np.abs(v_t) * np.abs(diff), dx),
            "V3": trapezoid(np.abs(v[inner] * atheta * diff), dx),
        })
    return out


class MultiplierStream:
    """A block consumer of a run (run_simulation's consume) whose reports()
    are S1..S4, T1..T5, V1..V3 on the records inside `window` (accept_window
    of scenario.record_times), one table per p of scenario.p_list, with the
    weights of make_localization on omega = (b, 1) (epsilons None: the
    defaults). A window record goes to multiplier_terms once v is known on
    both its neighbours: a block's last record waits for the next block. The stream copies the
    records the next call needs, at most two (the last of them, at the end,
    the window's last record), and the window's first record: S2, T2 and V1
    read those two alone. Dense records (record_every = 1) are advised."""

    def __init__(self, scenario: Scenario, window: tuple[float, float],
                 epsilons: tuple[float, float, float] | None = None):
        self.weights = make_localization(scenario.a.omega[0], epsilons, scenario.grid)
        self.rows = accept_window(scenario.record_times, window, MIN_RECORDS,
                                  "multiplier terms need")
        self.times = scenario.record_times[self.rows]
        self.scenario, self.window = scenario, window
        self.regimes = [regime(p) for p in scenario.p_list]
        self.dts = np.diff(self.times)
        self.uniform = bool((self.dts == self.dts[0]).all())
        self.blocks: list[list[dict[str, Array]]] = []  # multiplier_terms of each call
        self.done = 0  # window records whose integrals are in blocks
        # rho, xi of records max(done - 1, 0) on
        self.held = (np.empty((0, scenario.grid.n_nodes)),) * 2
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
        for j, (p, (f, _, big_f)) in enumerate(zip(self.scenario.p_list, self.regimes)):
            series = {key: np.concatenate([b[j][key] for b in self.blocks])
                      for key in self.blocks[0][j]}
            int_energy = time_int(series["E"])
            energy_at_s = float(series["E"][0])
            big_diff = big_f(rho) - big_f(xi)
            bracket = trapezoid((f(rho) - f(xi)) * z, dx)
            bracket_v = trapezoid(
                elliptic_solve(self.weights.beta[None, :] * f(z), grid)
                * (rho - xi), dx)

            s4 = time_int(series["S4"])
            t5 = time_int(series["T5"])
            terms = {"S1": time_int(series["S1"]),
                     "S2": trapezoid(np.abs(self.weights.xpsi)
                                     * np.abs(big_diff[1] - big_diff[0]), dx),
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
                _young(t5, eta, -p) + _young(int_energy, eta, q) + energy_at_s, 1e-300)}
                for eta in ETAS}
            chain["second_set_eta1"] = eta_table["1"]["second_set"]
            tables[f"{p:g}"] = {
                "regime": "p_geq_2" if p >= 2.0 else "p_in_1_2", "terms": terms,
                "int_energy": int_energy, "energy_at_s": energy_at_s,
                "chain_constants": chain, "eta_table": eta_table}
        return tables
