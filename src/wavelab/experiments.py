"""The experiment runners and EXPERIMENTS, the runner of each suite kind.
A runner takes a ScenarioSpec and returns {"summary": JSON-ready dict,
"traj": Trajectory or None}."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import multipliers as _mult
from .core import nu_ratio
from .energy import decay_fit, energy_p, observability_ratio
from .solver import (
    InitialData, Scenario, Trajectory, run_auxiliary_rerun, run_derivative_system,
    run_family, run_simulation,
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


def _decay_summary(spec: ScenarioSpec, traj: Trajectory) -> dict:
    """traj's "fits" on spec.fit_window and "observability_ratio" on spec.window, per p."""
    summary: dict = {"fits": {}}
    fit_window = spec.fit_window
    for p in spec.scenario.p_list if fit_window else ():
        try:
            fit = decay_fit(traj.times, traj.energy_series(p), fit_window)
            entry = {"fitted_rate": fit.rate, "r2": fit.r2, "window": list(fit_window)}
        except ValueError as exc:  # too few records above the fit floor
            entry = {"window": list(fit_window), "error": str(exc)}
        summary["fits"][f"{p:g}"] = entry
    if spec.window is not None:
        summary["observability_ratio"] = ratios = {}
        for p in spec.scenario.p_list:
            try:
                ratios[f"{p:g}"] = observability_ratio(traj, p, spec.window)
            except ValueError as exc:  # E_p(S) = 0: zero data
                ratios[f"{p:g}"] = {"window": list(spec.window), "error": str(exc)}
    return summary


def alpha_rows(scenario: Scenario, alphas: Sequence[float]) -> dict[str, InitialData]:
    """run_family's rows for alphas: name_a<alpha> -> the data scaled by alpha.
    ValueError unless the alphas name one or more distinct rows."""
    names = [f"{scenario.name}_a{alpha:g}" for alpha in alphas]
    if not alphas or len(set(names)) < len(names):
        raise ValueError(f"needs one or more alphas naming distinct rows, "
                         f"got [{', '.join(names)}]")
    return {name: scenario.initial.scaled(alpha) for name, alpha in zip(names, alphas)}


def run_one_simulation(spec: ScenarioSpec) -> dict:
    """The run's _decay_summary and energies. With alphas, one row per alpha
    instead, the data scaled by alpha and all rows run as one family: each
    row has its _decay_summary and the strong-norm proxy
    c_p = (p E_p(w)(0))^(1/p) per p, and no energies are written, so the
    rows record no dissipation rates."""
    sc = spec.scenario
    head = {"name": sc.name, "t_final": sc.t_final_actual, "n_cells": sc.grid.n_cells}
    if spec.alphas:
        family = run_family(sc, alpha_rows(sc, spec.alphas), rates=False)
        rows = []
        for alpha, traj in zip(spec.alphas, family):
            w0 = traj.scenario.initial.derivative_system_data(sc.grid, sc.a_nodes, sc.g)
            c_p = {f"{p:g}": (p * energy_p(w0, p, sc.grid)) ** (1.0 / p) for p in sc.p_list}
            rows.append({"alpha": alpha, **_decay_summary(spec, traj), "c_p": c_p})
        return {"summary": {**head, "rows": rows}, "traj": None}
    traj = run_derivative_system(sc) if spec.co_integrate_w else run_simulation(sc)
    return {"summary": {**head, **_decay_summary(spec, traj)}, "traj": traj}


def run_aux_equivalence(spec: ScenarioSpec) -> dict:
    """Nonlinear run vs the auxiliary linear run with theta = nu(z_t)
    recorded densely along the nonlinear trajectory (the linearizing
    principle behind the stability proof). The rerun follows the nonlinear
    run one record block behind (run_auxiliary_rerun), and the summary
    reduces its per-record discrepancy and theta extremes; max and min are
    exact, so they equal the reductions over the whole stacked states."""
    traj = run_auxiliary_rerun(spec.scenario)
    diag = traj.diagnostics
    m = float(np.max(diag["max_zt"]))
    lattice = np.linspace(-m, m, 2001) if m > 0 else np.array([0.0])
    nu_vals = nu_ratio(lattice, spec.scenario.g)
    nu1, nu2 = float(np.min(nu_vals)), float(np.max(nu_vals))
    th1, th2 = float(np.min(diag["theta_min"])), float(np.max(diag["theta_max"]))
    return {"summary": {
        "name": spec.scenario.name,
        "max_discrepancy": float(np.max(diag["discrepancy"])),
        "max_zt": m,
        "theta_bounds": [th1, th2],
        "nu_bounds": [nu1, nu2],
        "theta_inside_nu_bounds": bool(nu1 - 1e-12 <= th1 and th2 <= nu2 + 1e-12),
    }, "traj": traj}


def multiplier_window(spec: ScenarioSpec) -> tuple[float, float]:
    """The multiplier window: spec.window, by default 0 to the final time."""
    return spec.window or (0.0, spec.scenario.t_final_actual)


def run_one_multiplier_report(spec: ScenarioSpec) -> dict:
    sc = spec.scenario
    window = multiplier_window(spec)
    stream = _mult.MultiplierStream(sc, window, spec.epsilons)
    traj = run_simulation(sc, consume=stream)
    return {"summary": {"name": sc.name, "window": list(window),
                        "multiplier_tables": stream.reports()}, "traj": traj}


#: the runner of each experiment kind a suite can name
EXPERIMENTS: dict[str, Callable[[ScenarioSpec], dict]] = {
    "simulate": run_one_simulation,
    "aux_equivalence": run_aux_equivalence,
    "multiplier_report": run_one_multiplier_report,
}
#: the ScenarioSpec extras, suite keys of the same name, that the runner of
#: each kind reads; every kind reads its Scenario
SPEC_KEYS = {"simulate": ("fit_window", "window", "co_integrate_w", "alphas"),
             "aux_equivalence": (), "multiplier_report": ("window", "epsilons")}
