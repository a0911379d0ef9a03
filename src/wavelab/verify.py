"""The acceptance checklist: thirteen self-contained checks covering
conservation, oracle agreement, monotonicity, dissipation identities, modal
and nonlinear decay rates, the auxiliary-problem equivalence, the regularity
bound, the modified-energy regime, the elliptic multiplier, observability
uniformity and hypothesis screening at parse time.

Each check returns a CheckResult; run_all prints one PASS/FAIL line per
check and is what `wavelab verify` calls. A check that raises does not stop
the others: it is reported on stderr as a scenario of `wavelab run` is.
Fixtures are pinned here so the checklist is reproducible from a clean
checkout; shared runs are cached per process. Only check 4 reads dE_p/dt,
from the arctan ladder; every other run records none (rates=False).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Grid, HypothesisViolation, NONLINEARITIES, constant_profile, regime,
    sine_profile, smooth_indicator_profile, zero_function, zero_profile,
)
from .energy import (
    decay_fit, energy_p, observability_ratio, phi_functional, sobolev_margin, window_rows,
)
from .experiments import ScenarioSpec, run_aux_equivalence, run_one_simulation
from .multipliers import elliptic_solve
from .oracle import dalembert_riemann, modal_rate
from .solver import (
    MONOTONICITY_SLACK, InitialData, Scenario, run_derivative_system, run_simulation,
)
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
        return f"[{self.index:2d}/{len(CHECKS)}] {status} {self.name}: {self.detail}"


@functools.lru_cache(maxsize=1)
def _decay_fixture():
    """The nonlinear decay run shared by the rate and observability checks."""
    sc = Scenario(name="decay_fixture", grid=Grid(256), t_final=30.0,
                  p_list=(1.5, 2.0, 4.0), g=NONLINEARITIES["arctan"](),
                  a=_localized_damping(), initial=_moderate_data())
    return run_simulation(sc, rates=False)


@functools.lru_cache(maxsize=3)
def _arctan_ladder(n: int) -> dict:
    """run_aux_equivalence of the T = 8 arctan run at N = n, shared by checks
    8 and 4 (which reads the records with t <= 4)."""
    sc = Scenario(name=f"aux_{n}", grid=Grid(n), t_final=8.0,
                  p_list=(2.0,), g=NONLINEARITIES["arctan"](),
                  a=_localized_damping(), initial=_moderate_data())
    return run_aux_equivalence(ScenarioSpec(sc))


def check_conservation() -> CheckResult:
    sc = Scenario(name="undamped", grid=Grid(256), t_final=4.0,
                  p_list=(1.0, 1.5, 2.0, 3.0), g=NONLINEARITIES["identity"](),
                  a=zero_profile(),
                  initial=InitialData(sine_profile(1), zero_function()))
    half = round(2.0 / sc.dt)
    kept: dict = {}  # records 0 and half, copied as they pass

    def keep(records: slice, rho, xi) -> None:
        kept.update({k: (rho[k - records.start].copy(), xi[k - records.start].copy())
                     for k in (0, half) if records.start <= k < records.stop})

    traj = run_simulation(sc, consume=keep, rates=False)
    worst = 0.0
    for p in sc.p_list:
        e = traj.energy_series(p)
        worst = max(worst, float(np.max(np.abs(e - e[0])) / e[0]))
    period_err = max(float(np.max(np.abs(b - a))) for b, a in zip(kept[half], kept[0]))
    ok = worst <= 1e-12 and period_err <= 1e-12
    return CheckResult(1, "undamped conservation", ok,
                       f"relative drift {worst:.2e}, period-2 error {period_err:.2e}")


def check_oracle_agreement() -> CheckResult:
    z0 = sine_profile(1)
    z1 = sine_profile(2, amplitude=0.5)
    sc = Scenario(name="oracle", grid=Grid(256), t_final=3.0, p_list=(2.0,),
                  g=NONLINEARITIES["identity"](), a=zero_profile(),
                  initial=InitialData(z0, z1))
    xs, times = sc.grid.nodes, sc.record_times
    err = 0.0

    def agree(records: slice, rho_b, xi_b) -> None:  # each record as it passes
        nonlocal err
        for t, rho_k, xi_k in zip(times[records], rho_b, xi_b):
            rho, xi = dalembert_riemann(z0.deriv, z1.value, float(t), xs)
            err = max(err, float(np.max(np.abs(rho_k - rho))),
                      float(np.max(np.abs(xi_k - xi))))

    traj = run_simulation(sc, consume=agree, rates=False)
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
        traj = run_simulation(sc, rates=False)  # raises on violation too
        for p in sc.p_list:
            e = traj.energy_series(p)
            rise = float(np.max(np.diff(e))) - MONOTONICITY_SLACK * max(1.0, e[0])
            if rise > worst:
                worst, worst_tag = rise, f"g={name}, p={p:g}"
    ok = worst <= 0.0
    return CheckResult(3, "energy monotonicity (all g, all p)", ok,
                       f"worst rise beyond slack {worst:.2e} ({worst_tag})")


def check_dissipation_identity() -> CheckResult:
    errs = []
    for n in (128, 256, 512):
        traj = _arctan_ladder(n)["traj"]
        rows = window_rows(traj.times, (0.0, 4.0))  # the records of a T = 4 run
        e = traj.energy_series(2.0)[rows]
        d = traj.diagnostics["dEdt_p2"][rows]
        dt = traj.scenario.dt
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
    traj = run_simulation(sc, rates=False)
    return decay_fit(traj.times, traj.energy_series(2.0), window).rate


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
        fit = decay_fit(traj.times, traj.energy_series(p), (5.0, 30.0))
        ok = ok and fit.r2 >= 0.99 and fit.rate > 0.0
        details.append(f"p={p:g}: rate {fit.rate:.3f}, r2 {fit.r2:.4f}")
    return CheckResult(6, "nonlinear exponential decay", ok, "; ".join(details))


def check_semi_global_dependence() -> CheckResult:
    def sweep(g_name: str) -> list[float]:
        base = Scenario(name=f"sweep_{g_name}", grid=Grid(128), t_final=30.0,
                        p_list=(2.0,), g=NONLINEARITIES[g_name](),
                        a=_localized_damping(), initial=_moderate_data())
        rep = run_one_simulation(ScenarioSpec(base, fit_window=(5.0, 30.0),
                                              alphas=(1.0, 4.0, 16.0)))["summary"]
        return [row["fits"]["2"].get("fitted_rate", np.nan) for row in rep["rows"]]

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
        rep = _arctan_ladder(n)["summary"]
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
        traj = run_derivative_system(sc, rates=False)
        diag = traj.diagnostics
        sup = diag["max_zt"]
        for p in sc.p_list:
            ew = diag[f"E_pw{p:g}"]
            embed = diag[f"Lp_zt_p{p:g}"] + diag[f"Lp_ztx_p{p:g}"]
            for label, viol in (
                    ("E_p(w) rise", float(np.max(ew - ew[0])) - 1e-10),
                    ("W1p bound", -sobolev_margin(traj, p)),
                    ("sup embedding", float(np.max(sup - embed)))):
                if viol > worst:
                    worst, worst_tag = viol, f"{label}, g={g_name}, p={p:g}"
    ok = worst <= 0.0
    return CheckResult(9, "regularity bound via the derivative system", ok,
                       f"worst violation {worst:.2e} ({worst_tag})")


def check_modified_energy() -> CheckResult:
    p = 1.5
    F = regime(p)[2]
    sc = Scenario(name="modified", grid=Grid(128), t_final=10.0, p_list=(p,),
                  g=NONLINEARITIES["arctan"](), a=_localized_damping(),
                  initial=InitialData(sine_profile(1, amplitude=0.25), zero_function()))
    e0 = energy_p(sc.initial.riemann(sc.grid), p, sc.grid)
    phis: list = []  # Phi of each record block; phi_functional is row-wise
    run_simulation(sc, consume=lambda records, rho, xi: phis.append(
        phi_functional(rho, xi, F, sc.grid.dx)), rates=False)
    rise = float(np.max(np.diff(np.concatenate(phis))))
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
        ratios = [observability_ratio(traj, p, (s, s + 10.0))
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


def _run_check(check: Callable[[], CheckResult], stream) -> int:
    result = check()
    print(result.line, file=stream, flush=True)
    return 0 if result.passed else 1


def run_all(stream=None) -> int:
    """Run every check, print its line and then the summary line to `stream`
    (None: sys.stdout at the call), and return the exit code of `wavelab
    verify`: the highest of the checks' codes, 0 for a pass, 1 for a fail, and
    for a check that raised, 1 or 3 by the outcome rule of a scenario in
    `wavelab run` (its FAIL or ERROR line on stderr)."""
    codes = [_cli._outcome(check.__name__, _run_check, check, stream) for check in CHECKS]
    print(f"{codes.count(0)}/{len(codes)} checks passed", file=stream, flush=True)
    return max(codes, default=0)
