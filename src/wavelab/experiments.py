"""The experiment runners and EXPERIMENTS, the runner of each suite kind.
A runner takes a ScenarioSpec and returns {"summary": JSON-ready dict,
"traj": Trajectory or None, "w_traj": w = z_t Trajectory or None}."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import multipliers as _mult
from .core import make_localization, nu_ratio
from .energy import build_energy_report, energy_p_nodal, observability_ratio
from .solver import (
    Scenario, run_auxiliary, run_derivative_system, run_simulation,
    theta_from_run,
)


@dataclass(frozen=True)
class ScenarioSpec:
    """A validated scenario plus experiment-level extras and the raw
    key=value pairs it was parsed from (which --jobs workers re-parse), None
    for a spec built in code."""

    scenario: Scenario
    fit_window: tuple[float, float] | None = None
    alphas: tuple[float, ...] = ()
    epsilons: tuple[float, float, float] | None = None
    window: tuple[float, float] | None = None
    co_integrate_w: bool = False
    raw: dict[str, str] | None = None


def run_one_simulation(spec: ScenarioSpec) -> dict:
    sc = spec.scenario
    if spec.co_integrate_w:
        traj, w_traj = run_derivative_system(sc, keep_states=False)
    else:
        traj = run_simulation(sc, keep_states=False)
        w_traj = None
    summary: dict = {"name": sc.name, "t_final": sc.t_final_actual,
                     "n_cells": sc.grid.n_cells, "fits": {}}
    for p in sc.p_list:
        rep = build_energy_report(traj, p, spec.fit_window)
        if rep.fit is not None:
            summary["fits"][f"{p:g}"] = {"fitted_rate": rep.fit.rate,
                                         "r2": rep.fit.r2,
                                         "window": list(rep.fit.window)}
    if spec.window is not None:
        s, t = spec.window
        summary["observability_ratio"] = {
            f"{p:g}": observability_ratio(traj, p, s, t) for p in sc.p_list}
    return {"summary": summary, "traj": traj, "w_traj": w_traj}


def run_aux_equivalence(spec: ScenarioSpec) -> dict:
    """Nonlinear run vs the auxiliary linear run with theta = nu(z_t)
    recorded densely along the nonlinear trajectory (the linearizing
    principle behind the stability proof)."""
    dense = replace(spec.scenario, record_every=1)
    traj_nl = run_simulation(dense)
    theta = theta_from_run(traj_nl)
    traj_aux = run_auxiliary(dense, theta)
    disc = max(float(np.max(np.abs(traj_nl.rho - traj_aux.rho))),
               float(np.max(np.abs(traj_nl.xi - traj_aux.xi))))
    m = float(np.max(traj_nl.diagnostics["max_zt"]))
    lattice = np.linspace(-m, m, 2001) if m > 0 else np.array([0.0])
    nu_vals = nu_ratio(lattice, dense.g)
    nu1, nu2 = float(np.min(nu_vals)), float(np.max(nu_vals))
    th1, th2 = theta.bounds
    return {"summary": {
        "name": dense.name,
        "max_discrepancy": disc,
        "max_zt": m,
        "theta_bounds": [th1, th2],
        "nu_bounds": [nu1, nu2],
        "theta_inside_nu_bounds": bool(nu1 - 1e-12 <= th1 and th2 <= nu2 + 1e-12),
    }, "traj": traj_nl, "w_traj": None}


def sweep_fit_window(spec: ScenarioSpec) -> tuple[float, float]:
    """The sweep's fit window: spec.fit_window, by default 2 to 0.9 t_final."""
    return spec.fit_window or (2.0, spec.scenario.t_final * 0.9)


def run_semi_global_sweep(spec: ScenarioSpec) -> dict:
    """Scale the initial data by each alpha (default 1, 4, 16), fit the decay
    rate on a fixed window (sweep_fit_window), and report
    (alpha, strong-norm proxy c_p, rate) per exponent."""
    base = spec.scenario
    alphas = spec.alphas or (1.0, 4.0, 16.0)
    fit_window = sweep_fit_window(spec)
    entries = []
    for alpha in alphas:
        if alpha == 0.0:
            entries.append({"alpha": 0.0, "degenerate": True})
            continue
        sc = replace(base, name=f"{base.name}_a{alpha:g}",
                     initial=base.initial.scaled(alpha))
        traj = run_simulation(sc, keep_states=False)
        w0 = sc.initial.derivative_system_data(sc.grid, sc.a_nodes, sc.g)
        entry: dict = {"alpha": alpha, "degenerate": False, "rates": {}}
        for p in sc.p_list:
            rep = build_energy_report(traj, p, fit_window)
            c_p = (p * energy_p_nodal(w0.rho, w0.xi, p, sc.grid.dx)) ** (1.0 / p)
            entry["rates"][f"{p:g}"] = {"rate": rep.fit.rate, "r2": rep.fit.r2,
                                        "c_p": c_p}
        entries.append(entry)
    return {"summary": {"name": base.name, "alphas": list(alphas),
                        "entries": entries},
            "traj": None, "w_traj": None}


def run_one_multiplier_report(spec: ScenarioSpec) -> dict:
    sc = spec.scenario
    traj = run_simulation(sc, keep_states=True)
    triple = make_localization((sc.a.omega[0], 1.0), spec.epsilons, sc.grid)
    window = spec.window or (0.0, sc.t_final_actual)
    records = _mult.record_window(traj, window)  # shared by every p
    tables = {}
    for p in sc.p_list:
        rep = _mult.multiplier_terms(records, triple, p)
        tables[f"{p:g}"] = {
            "regime": rep.regime, "terms": rep.terms,
            "int_energy": rep.int_energy, "energy_at_s": rep.energy_at_s,
            "chain_constants": rep.chain_constants,
            "eta_table": {f"{k:g}": v for k, v in rep.eta_table.items()},
        }
    return {"summary": {"name": sc.name, "window": list(window),
                        "multiplier_tables": tables},
            "traj": traj, "w_traj": None}


#: the runner of each experiment kind a suite can name
EXPERIMENTS: dict[str, Callable[[ScenarioSpec], dict]] = {
    "simulate": run_one_simulation,
    "aux_equivalence": run_aux_equivalence,
    "semi_global_sweep": run_semi_global_sweep,
    "multiplier_report": run_one_multiplier_report,
}
