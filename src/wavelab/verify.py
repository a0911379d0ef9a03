"""The acceptance checklist: thirteen self-contained checks covering
conservation, oracle agreement, monotonicity, dissipation identities, modal
and nonlinear decay rates, the auxiliary-problem equivalence, the regularity
bound, the modified-energy regime, the elliptic multiplier, observability
uniformity and hypothesis screening at parse time.

Each check returns a CheckResult; run_all prints one PASS/FAIL line per
check and is what `wavelab verify` (and the acceptance test module) calls.
Fixtures are pinned here so the checklist is reproducible from a clean
checkout; shared runs are cached per process.
"""
from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Grid, HypothesisViolation, NONLINEARITIES, constant_profile,
    sine_profile, smooth_indicator_profile, zero_function, zero_profile,
)
from .energy import (
    build_energy_report, energy_p, modified_energy_functional,
    observability_ratio, phi_functional, sobolev_bound_check,
)
from .experiments import ScenarioSpec, run_aux_equivalence, run_semi_global_sweep
from .multipliers import elliptic_solve
from .oracle import dalembert_riemann, modal_rate
from .solver import InitialData, Scenario, run_derivative_system, run_simulation
from . import cli as _cli

MODERATE_AMPLITUDE = 0.5  # keeps the observability spread inside tolerance


def _localized_damping():
    return smooth_indicator_profile(0.7, 1.0, 2.0, 0.05)


def _moderate_data():
    return InitialData(sine_profile(1, amplitude=MODERATE_AMPLITUDE), zero_function())


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.index:2d}/13] {status} {self.name}: {self.detail}"


@functools.lru_cache(maxsize=1)
def _decay_fixture():
    """The nonlinear decay run shared by the rate and observability checks."""
    sc = Scenario(name="decay_fixture", grid=Grid(256), t_final=30.0,
                  p_list=(1.5, 2.0, 4.0), g=NONLINEARITIES["arctan"](),
                  a=_localized_damping(), initial=_moderate_data())
    return run_simulation(sc, keep_states=False)


def check_conservation() -> CheckResult:
    sc = Scenario(name="undamped", grid=Grid(256), t_final=4.0,
                  p_list=(1.0, 1.5, 2.0, 3.0), g=NONLINEARITIES["identity"](),
                  a=zero_profile(),
                  initial=InitialData(sine_profile(1), zero_function()))
    traj = run_simulation(sc)
    worst = 0.0
    for p in sc.p_list:
        e = traj.energy_series(p)
        worst = max(worst, float(np.max(np.abs(e - e[0])) / e[0]))
    half = round(2.0 / sc.dt)
    period_err = max(float(np.max(np.abs(traj.rho[half] - traj.rho[0]))),
                     float(np.max(np.abs(traj.xi[half] - traj.xi[0]))))
    ok = worst <= 1e-12 and period_err <= 1e-12
    return CheckResult(1, "undamped conservation", ok,
                       f"relative drift {worst:.2e}, period-2 error {period_err:.2e}")


def check_oracle_agreement() -> CheckResult:
    z0 = sine_profile(1)
    z1 = sine_profile(2, amplitude=0.5)
    sc = Scenario(name="oracle", grid=Grid(256), t_final=3.0, p_list=(2.0,),
                  g=NONLINEARITIES["identity"](), a=zero_profile(),
                  initial=InitialData(z0, z1))
    traj = run_simulation(sc)
    xs = sc.grid.nodes
    err = 0.0
    for t, rho_k, xi_k in zip(traj.times, traj.rho, traj.xi):
        rho, xi = dalembert_riemann(z0.deriv, z1.value, float(t), xs)
        err = max(err, float(np.max(np.abs(rho_k - rho))),
                  float(np.max(np.abs(xi_k - xi))))
    return CheckResult(2, "d'Alembert oracle agreement", err <= 1e-12,
                       f"max pointwise error {err:.2e} over {len(traj.times)} records")


def check_energy_monotonicity() -> CheckResult:
    shipped = [n for n in NONLINEARITIES if n != "nonmonotone"]
    worst = -np.inf
    worst_tag = ""
    for name in shipped:
        sc = Scenario(name=f"mono_{name}", grid=Grid(128), t_final=6.0,
                      p_list=(1.0, 1.5, 2.0, 4.0), g=NONLINEARITIES[name](),
                      a=_localized_damping(), initial=_moderate_data())
        traj = run_simulation(sc, keep_states=False)  # raises on violation too
        for p in sc.p_list:
            e = traj.energy_series(p)
            slack = 1e-12 * max(1.0, e[0])
            rise = float(np.max(np.diff(e))) - slack
            if rise > worst:
                worst, worst_tag = rise, f"g={name}, p={p:g}"
    ok = worst <= 0.0
    return CheckResult(3, "energy monotonicity (all g, all p)", ok,
                       f"worst rise beyond slack {worst:.2e} ({worst_tag})")


def check_dissipation_identity() -> CheckResult:
    errs = []
    for n in (128, 256, 512):
        sc = Scenario(name=f"diss_{n}", grid=Grid(n), t_final=4.0,
                      p_list=(2.0,), g=NONLINEARITIES["arctan"](),
                      a=_localized_damping(), initial=_moderate_data())
        traj = run_simulation(sc, keep_states=False)
        e = traj.energy_series(2.0)
        d = traj.diagnostics["dEdt_p2"]
        dt = sc.dt
        # centered difference of E against the rate at the middle record
        resid = np.abs((e[2:] - e[:-2]) / (2.0 * dt) - d[1:-1])
        errs.append(float(np.max(resid)))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    ok = min(orders) >= 1.0
    return CheckResult(4, "dissipation identity convergence", ok,
                       f"residuals {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, "
                       f"orders {orders[0]:.2f}, {orders[1]:.2f}")


def _fitted_rate(a0: float, t_final: float, window: tuple[float, float]) -> float:
    sc = Scenario(name=f"modal_{a0:g}", grid=Grid(512), t_final=t_final,
                  p_list=(2.0,), g=NONLINEARITIES["identity"](),
                  a=constant_profile(a0),
                  initial=InitialData(sine_profile(1), zero_function()))
    traj = run_simulation(sc, keep_states=False)
    return build_energy_report(traj, 2.0, window).fit.rate


def check_modal_rates() -> CheckResult:
    under = _fitted_rate(0.5, 18.0, (2.0, 18.0))
    over = _fitted_rate(10.0, 10.0, (2.0, 10.0))
    under_ref = modal_rate(0.5, 1)[2]
    over_ref = modal_rate(10.0, 1)[2]
    under_err = abs(under - under_ref) / under_ref
    over_err = abs(over - over_ref) / over_ref
    ok = under_err <= 0.03 and over_err <= 0.05
    return CheckResult(5, "modal decay rates", ok,
                       f"underdamped {under:.4f} vs {under_ref:.4f} "
                       f"({100 * under_err:.2f}%), overdamped {over:.4f} vs "
                       f"{over_ref:.4f} ({100 * over_err:.2f}%)")


def check_nonlinear_decay() -> CheckResult:
    traj = _decay_fixture()
    details = []
    ok = True
    for p in traj.scenario.p_list:
        fit = build_energy_report(traj, p, (5.0, 30.0)).fit
        ok = ok and fit.r2 >= 0.99 and fit.rate > 0.0
        details.append(f"p={p:g}: rate {fit.rate:.3f}, r2 {fit.r2:.4f}")
    return CheckResult(6, "nonlinear exponential decay", ok, "; ".join(details))


def check_semi_global_dependence() -> CheckResult:
    def sweep(g_name: str) -> list[float]:
        base = Scenario(name=f"sweep_{g_name}", grid=Grid(128), t_final=30.0,
                        p_list=(2.0,), g=NONLINEARITIES[g_name](),
                        a=_localized_damping(), initial=_moderate_data())
        # the sweep's default alphas, 1, 4 and 16
        rep = run_semi_global_sweep(ScenarioSpec(base, fit_window=(5.0, 30.0)))["summary"]
        return [entry["rates"]["2"]["rate"] for entry in rep["entries"]]

    sat = sweep("saturating")
    lin = sweep("identity")
    sat_ok = all(np.isfinite(r) and r > 0.0 for r in sat) and \
        all(sat[i + 1] <= sat[i] * 1.05 for i in range(2))
    lin_spread = (max(lin) - min(lin)) / np.mean(lin)
    ok = sat_ok and lin_spread <= 0.01
    return CheckResult(7, "semi-global rate dependence", ok,
                       f"saturating rates {[f'{r:.3f}' for r in sat]}, "
                       f"identity spread {100 * lin_spread:.3f}%")


def check_aux_equivalence() -> CheckResult:
    discs = []
    inside = True
    for n in (128, 256, 512):
        sc = Scenario(name=f"aux_{n}", grid=Grid(n), t_final=8.0,
                      p_list=(2.0,), g=NONLINEARITIES["arctan"](),
                      a=_localized_damping(), initial=_moderate_data())
        rep = run_aux_equivalence(ScenarioSpec(sc))["summary"]
        discs.append(rep["max_discrepancy"])
        inside = inside and rep["theta_inside_nu_bounds"]
    orders = [float(np.log2(discs[i] / discs[i + 1])) for i in range(2)]
    ok = discs[1] <= 1e-6 and min(orders) >= 1.9 and inside
    return CheckResult(8, "auxiliary-problem equivalence", ok,
                       f"discrepancy {discs[1]:.2e} at N=256, orders "
                       f"{orders[0]:.2f}, {orders[1]:.2f}, theta bounds inside "
                       f"nu sandwich: {inside}")


def check_regularity_bound() -> CheckResult:
    fixtures = [("arctan", _localized_damping()), ("cubic", constant_profile(1.0))]
    worst = -np.inf
    worst_tag = ""
    for g_name, a in fixtures:
        sc = Scenario(name=f"reg_{g_name}", grid=Grid(256), t_final=10.0,
                      p_list=(1.5, 2.0, 4.0), g=NONLINEARITIES[g_name](), a=a,
                      initial=_moderate_data())
        _, w_traj = run_derivative_system(sc, keep_states=False)
        sup = w_traj.diagnostics["max_zt"]
        for p in sc.p_list:
            ew = w_traj.diagnostics[f"E_pw{p:g}"]
            embed = w_traj.diagnostics[f"Lp_zt_p{p:g}"] + \
                w_traj.diagnostics[f"Lp_ztx_p{p:g}"]
            for label, viol in (
                    ("E_p(w) rise", float(np.max(ew - ew[0])) - 1e-10),
                    ("W1p bound", -sobolev_bound_check(w_traj, p).worst_margin),
                    ("sup embedding", float(np.max(sup - embed)))):
                if viol > worst:
                    worst, worst_tag = viol, f"{label}, g={g_name}, p={p:g}"
    ok = worst <= 0.0
    return CheckResult(9, "regularity bound via the derivative system", ok,
                       f"worst violation {worst:.2e} ({worst_tag})")


def check_modified_energy() -> CheckResult:
    p = 1.5
    functional = modified_energy_functional(p)
    functional.validate()
    sc = Scenario(name="modified", grid=Grid(128), t_final=10.0, p_list=(p,),
                  g=NONLINEARITIES["arctan"](), a=_localized_damping(),
                  initial=InitialData(sine_profile(1, amplitude=0.25), zero_function()))
    e0 = energy_p(sc.initial.riemann(sc.grid), p, sc.grid)
    traj = run_simulation(sc)
    phi = phi_functional(traj.rho, traj.xi, functional, sc.grid.dx)
    rise = float(np.max(np.diff(phi)))
    ok = e0 <= 1.0 and rise <= 1e-10
    return CheckResult(10, "modified energy regime (1 < p < 2)", ok,
                       f"E_p(0) = {e0:.3f}, worst modified-energy rise {rise:.2e}")


def check_elliptic_multiplier() -> CheckResult:
    grid = Grid(128)
    v = elliptic_solve(np.ones(grid.n_cells + 1), grid)
    xs = grid.nodes
    flat_err = float(np.max(np.abs(v - 0.5 * xs * (xs - 1.0))))
    # the cumulative-trapezoid construction telescopes, so the discrete
    # second difference reproduces h up to roundoff at every resolution;
    # convergence is measured against a known exact solution instead
    resid_worst = 0.0
    errs = []
    for n in (64, 128, 256):
        g = Grid(n)
        h = np.exp(g.nodes) * np.sin(np.pi * g.nodes)
        vn = elliptic_solve(h, g)
        resid = (vn[:-2] - 2.0 * vn[1:-1] + vn[2:]) / g.dx ** 2 - h[1:-1]
        resid_worst = max(resid_worst, float(np.max(np.abs(resid))))
        hs = np.pi ** 2 * np.sin(np.pi * g.nodes)
        errs.append(float(np.max(np.abs(
            elliptic_solve(hs, g) + np.sin(np.pi * g.nodes)))))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    ok = flat_err <= 1e-10 and resid_worst <= 1e-10 and min(orders) >= 1.9
    return CheckResult(11, "elliptic multiplier solve", ok,
                       f"h=1 error {flat_err:.2e}, worst residual "
                       f"{resid_worst:.2e}, solution orders "
                       f"{orders[0]:.2f}, {orders[1]:.2f}")


def check_observability() -> CheckResult:
    traj = _decay_fixture()
    details = []
    ok = True
    for p in traj.scenario.p_list:
        ratios = [observability_ratio(traj, p, s, s + 10.0)
                  for s in (0.0, 5.0, 10.0, 15.0)]
        spread = (max(ratios) - min(ratios)) / np.mean(ratios)
        ok = ok and spread < 0.20 and max(ratios) <= 10.0
        details.append(f"p={p:g}: max {max(ratios):.2f}, spread {100 * spread:.1f}%")
    return CheckResult(12, "observability ratio uniformity", ok, "; ".join(details))


def check_hypothesis_screening() -> CheckResult:
    text = "\n".join([
        "[suite]",
        "kind = simulate",
        "output_dir = out",
        "[scenario bad]",
        "g = nonmonotone",
        "a = constant(1.0)",
    ])
    try:
        _cli.parse_suite(text)
    except HypothesisViolation as exc:
        # report the violated hypothesis itself, not the scenario and key
        # that parse_suite names around it
        return CheckResult(13, "non-monotone g rejected at parse time", True,
                           f"raised HypothesisViolation: {exc.__cause__ or exc}")
    return CheckResult(13, "non-monotone g rejected at parse time", False,
                       "parse_suite accepted a non-monotone nonlinearity")


CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_conservation,
    check_oracle_agreement,
    check_energy_monotonicity,
    check_dissipation_identity,
    check_modal_rates,
    check_nonlinear_decay,
    check_semi_global_dependence,
    check_aux_equivalence,
    check_regularity_bound,
    check_modified_energy,
    check_elliptic_multiplier,
    check_observability,
    check_hypothesis_screening,
)


def run_all(stream=sys.stdout) -> list[CheckResult]:
    results = []
    for check in CHECKS:
        result = check()
        results.append(result)
        print(result.line, file=stream, flush=True)
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed", file=stream, flush=True)
    return results
