"""The command line: suite parsing and serialization, report emission,
orchestration of a suite's scenarios and the `wavelab` entry point.

Config files are flat sectioned key=value text (configparser syntax): one
[suite] section plus one [scenario NAME] section per run. See README for
the full schema and the named analytic profiles. The runner of each
experiment kind lives in `wavelab.experiments`.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (
    DampingProfile, Grid, HypothesisViolation, Nonlinearity, NONLINEARITIES,
    PROFILES, Profile, constant_profile, indicator_profile, make_localization,
    smooth_indicator_profile, zero_profile,
)
from .experiments import EXPERIMENTS, ScenarioSpec
from .solver import EnergyMonotonicityError, InitialData, Scenario, Trajectory

KINDS = (*EXPERIMENTS, "verify")
#: experiment kinds that invoke the stability theory, which needs 1 < p < inf:
#: every experiment but plain simulation
STABILITY_KINDS = tuple(kind for kind in EXPERIMENTS if kind != "simulate")

DEFAULTS = {
    "n_cells": 256,
    "t_final": 20.0,
    "p_list": (1.5, 2.0, 4.0),
    "splitting": "strang",
    "record_every": 1,
    "z0": "sine(1)",
    "z1": "zero",
    "amplitude": 1.0,
}


class ConfigError(ValueError):
    """A suite file that cannot be run as written; `wavelab run` exits 2."""


class HypothesisConfigError(ConfigError, HypothesisViolation):
    """A suite value that fails a standing hypothesis (H1 or H2)."""


@contextmanager
def _scenario_key(name: str, key: str | None = None):
    """Turn a bad value met inside the block into a ConfigError that names
    the scenario and, when one key alone is at fault, the key."""
    where = f"scenario '{name}'" + (f": key '{key}'" if key else "")
    try:
        yield
    except HypothesisViolation as exc:
        raise HypothesisConfigError(f"{where}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Profile spec parsing:  name  or  name(arg, arg, key=arg)
# ---------------------------------------------------------------------------

_CALL_RE = re.compile(r"^\s*([A-Za-z_][\w]*)\s*(?:\((.*)\))?\s*$")


def _parse_call(spec: str, key: str) -> tuple[str, list[float], dict[str, float]]:
    m = _CALL_RE.match(spec)
    if not m:
        raise ConfigError(f"key '{key}': cannot parse profile spec '{spec}'")
    name, argstr = m.group(1), m.group(2)
    args: list[float] = []
    kwargs: dict[str, float] = {}
    if argstr:
        for tok in argstr.split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    kwargs[k.strip()] = float(v)
                else:
                    args.append(float(tok))
            except ValueError as exc:
                raise ConfigError(
                    f"key '{key}': cannot parse number '{tok}' in '{spec}'") from exc
    return name, args, kwargs


def parse_nonlinearity(spec: str) -> Nonlinearity:
    name, args, kwargs = _parse_call(spec, "g")
    if name not in NONLINEARITIES or args or kwargs:
        raise ConfigError(
            f"key 'g': unknown nonlinearity '{spec}' "
            f"(available: {', '.join(sorted(NONLINEARITIES))})")
    return NONLINEARITIES[name]()


def parse_damping(spec: str) -> DampingProfile:
    name, args, kwargs = _parse_call(spec, "a")
    try:
        if name == "zero":
            return zero_profile()
        if name == "constant":
            return constant_profile(*args, **kwargs)
        if name == "indicator":
            return indicator_profile(*args, **kwargs)
        if name == "smooth_indicator":
            return smooth_indicator_profile(*args, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"key 'a': bad arguments in '{spec}': {exc}") from exc
    raise ConfigError(f"key 'a': unknown damping profile '{spec}'")


def parse_profile(spec: str, key: str) -> Profile:
    name, args, kwargs = _parse_call(spec, key)
    if name not in PROFILES:
        raise ConfigError(f"key '{key}': unknown profile '{spec}' "
                          f"(available: {', '.join(sorted(PROFILES))})")
    try:
        if name == "sine":
            return PROFILES[name](int(args[0]) if args else 1, **kwargs)
        return PROFILES[name](*args, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"key '{key}': bad arguments in '{spec}': {exc}") from exc


def _parse_floats(text: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"key '{key}': cannot parse number list '{text}'") from exc


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSuite:
    kind: str
    scenarios: tuple[ScenarioSpec, ...]
    output_dir: str = "out"


_SUITE_KEYS = {"kind", "output_dir"}
_SCENARIO_KEYS = {"n_cells", "t_final", "p_list", "splitting", "record_every",
                  "g", "a", "z0", "z1", "amplitude", "fit_window", "alphas",
                  "epsilons", "window", "co_integrate_w"}


def parse_suite(config_text: str) -> ExperimentSuite:
    """Parse and fully validate a suite: schema, H1/H2 lattice checks,
    p-range restrictions for stability experiments, epsilon ordering."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(config_text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if "suite" not in cp:
        raise ConfigError("missing [suite] section")
    suite_sec = cp["suite"]
    for key in suite_sec:
        # keys of a [DEFAULT] section reach every section; scenarios check them
        if key not in _SUITE_KEYS and key not in cp.defaults():
            raise ConfigError(f"[suite] section: unknown key '{key}' "
                              f"(allowed: {', '.join(sorted(_SUITE_KEYS))})")
    kind = suite_sec.get("kind", "simulate")
    if kind not in KINDS:
        raise ConfigError(f"key 'kind': unknown experiment kind '{kind}'")
    output_dir = suite_sec.get("output_dir", "out")

    specs: list[ScenarioSpec] = []
    names: set[str] = set()
    for section in cp.sections():
        if section == "suite":
            continue
        if not section.startswith("scenario"):
            raise ConfigError(f"unknown section '[{section}]'")
        name = section[len("scenario"):].strip() or "run"
        if name in names:
            raise ConfigError(f"duplicate scenario name '{name}'")
        names.add(name)
        specs.append(_parse_scenario(name, dict(cp[section]), kind))
    if not specs and kind != "verify":
        raise ConfigError("no [scenario NAME] sections found")
    return ExperimentSuite(kind=kind, scenarios=tuple(specs),
                           output_dir=output_dir)


def _parse_scenario(name: str, raw: dict[str, str], kind: str) -> ScenarioSpec:
    for key in raw:
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"scenario '{name}': unknown key '{key}'")

    def scalar(key: str, convert):
        with _scenario_key(name, key):
            return convert(raw.get(key, DEFAULTS[key]))

    grid = scalar("n_cells", lambda text: Grid(int(text)))
    t_final = scalar("t_final", float)
    p_list = (_parse_floats(raw["p_list"], "p_list")
              if "p_list" in raw else DEFAULTS["p_list"])
    splitting = raw.get("splitting", DEFAULTS["splitting"])
    record_every = scalar("record_every", int)
    amplitude = scalar("amplitude", float)

    for p in p_list:
        if p < 1.0:
            raise ConfigError(f"scenario '{name}': p = {p} < 1 is not allowed")
        if kind in STABILITY_KINDS and p <= 1.0:
            raise ConfigError(
                f"scenario '{name}': p = {p:g} rejected — the stability "
                f"theory covers 1 < p < inf only (experiment kind '{kind}')")

    g = parse_nonlinearity(raw.get("g", "identity"))
    with _scenario_key(name, "g"):
        g.validate()  # H2 lattice check at parse time
    a = parse_damping(raw.get("a", "indicator(0.7, 1, 1)"))
    with _scenario_key(name, "a"):
        a.validate(require_active=kind in STABILITY_KINDS)

    z0 = parse_profile(raw.get("z0", DEFAULTS["z0"]), "z0").scaled(amplitude)
    z1 = parse_profile(raw.get("z1", DEFAULTS["z1"]), "z1").scaled(amplitude)

    fit_window = None
    if "fit_window" in raw:
        vals = _parse_floats(raw["fit_window"], "fit_window")
        if len(vals) != 2 or vals[0] >= vals[1]:
            raise ConfigError(f"scenario '{name}': fit_window must be 't_lo, t_hi'")
        fit_window = (vals[0], vals[1])

    alphas = _parse_floats(raw["alphas"], "alphas") if "alphas" in raw else ()

    epsilons = None
    if "epsilons" in raw:
        vals = _parse_floats(raw["epsilons"], "epsilons")
        if len(vals) != 3:
            raise ConfigError(f"scenario '{name}': epsilons needs three values")
        epsilons = (vals[0], vals[1], vals[2])

    window = None
    if "window" in raw:
        vals = _parse_floats(raw["window"], "window")
        if len(vals) != 2 or not 0 <= vals[0] < vals[1]:
            raise ConfigError(f"scenario '{name}': window must be 'S, T' with S < T")
        window = (vals[0], vals[1])

    with _scenario_key(name):  # Scenario's message names the field
        scenario = Scenario(name=name, grid=grid, t_final=t_final,
                            p_list=tuple(p_list), g=g, a=a,
                            initial=InitialData.from_profiles(z0, z1),
                            splitting=splitting, record_every=record_every)

    if kind == "multiplier_report":
        # fail early on a bad localization geometry
        with _scenario_key(name, "epsilons"):
            make_localization((a.omega[0], 1.0), epsilons, scenario.grid)

    return ScenarioSpec(scenario=scenario, fit_window=fit_window, alphas=alphas,
                        epsilons=epsilons, window=window,
                        co_integrate_w=raw.get("co_integrate_w", "false").lower()
                        in ("1", "true", "yes"),
                        raw=dict(raw))


def serialize_suite(suite: ExperimentSuite) -> str:
    """Inverse of parse_suite on the raw key=value pairs."""
    lines = ["[suite]", f"kind = {suite.kind}",
             f"output_dir = {suite.output_dir}", ""]
    for spec in suite.scenarios:
        lines.append(f"[scenario {spec.scenario.name}]")
        for key, value in spec.raw.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def write_energy_csv(path: Path, traj: Trajectory,
                     w_traj: Trajectory | None = None) -> None:
    p_list = traj.scenario.p_list
    header = ["t"]
    header += [f"E_p{p:g}" for p in p_list]
    header += [f"dEdt_p{p:g}" for p in p_list]
    header.append("max_zt")
    columns = [traj.times]
    columns += [traj.diagnostics[f"E_p{p:g}"] for p in p_list]
    columns += [traj.diagnostics[f"dEdt_p{p:g}"] for p in p_list]
    columns.append(traj.diagnostics["max_zt"])
    if w_traj is not None:
        header.append("W1p_zt")
        columns.append(w_traj.diagnostics[f"W1p_zt_p{p_list[0]:g}"])
    # tolist() gives Python floats, whose repr is the shortest round-trip decimal
    rows = np.column_stack(columns).tolist()
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def emit_reports(results: list[dict], output_dir: str) -> list[Path]:
    """Write energies_<name>.csv (when a trajectory exists) and
    summary_<name>.json for every scenario result."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for res in results:
        name = res["summary"]["name"]
        traj = res.get("traj")
        if traj is not None:
            csv_path = out / f"energies_{name}.csv"
            write_energy_csv(csv_path, traj, res.get("w_traj"))
            written.append(csv_path)
        json_path = out / f"summary_{name}.json"
        with json_path.open("w") as fh:
            json.dump(res["summary"], fh, indent=2, default=float)
            fh.write("\n")
        written.append(json_path)
    return written


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def _run_one(kind: str, spec: ScenarioSpec, output_dir: str) -> None:
    emit_reports([EXPERIMENTS[kind](spec)], output_dir)


def _run_raw(kind: str, name: str, raw: dict[str, str], output_dir: str) -> None:
    """Worker-side entry: rebuild the spec from its raw form, run it and
    write its reports (trajectories are not picklable across processes)."""
    _run_one(kind, _parse_scenario(name, raw, kind), output_dir)


def _outcome(name: str, run: Callable[..., int | None], *args) -> int:
    """Call run(*args) for scenario `name` and return its exit code: the code
    run returned (0 for None), 1 when a guard or hypothesis failed (FAIL on
    stderr), 3 when it raised anything else (ERROR on stderr, without a
    traceback)."""
    try:
        code = run(*args)
    except (EnergyMonotonicityError, HypothesisViolation) as exc:
        print(f"FAIL {name}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # one broken scenario must not end the suite
        print(f"ERROR {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code or 0


def run_suite(suite: ExperimentSuite, output_dir: str | None = None,
              jobs: int = 1) -> int:
    """Run every scenario, write reports, return a process exit code: 0 iff
    all enabled assertions passed, else 1, or 3 if a scenario raised an error."""
    if suite.kind == "verify":
        from .verify import run_all
        return _outcome("verify", lambda: 0 if all(r.passed for r in run_all()) else 1)
    out = output_dir or suite.output_dir
    # scenarios hold closures, so workers get the raw key=value form and
    # re-parse it; each worker writes its own reports
    parallel = (jobs > 1 and len(suite.scenarios) > 1
                and all(spec.raw for spec in suite.scenarios))
    if parallel:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_raw, suite.kind, spec.scenario.name,
                                   spec.raw, out)
                       for spec in suite.scenarios]
            codes = [_outcome(spec.scenario.name, fut.result)
                     for spec, fut in zip(suite.scenarios, futures)]
    else:
        codes = [_outcome(spec.scenario.name, _run_one, suite.kind, spec, out)
                 for spec in suite.scenarios]
    return max(codes, default=0)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavelab",
        description="Numerical laboratory for the 1D damped wave equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment suite file")
    p_run.add_argument("suite_file", type=Path)
    p_run.add_argument("--out", default=None, help="output directory "
                       "(WAVELAB_OUT env var takes precedence)")
    p_run.add_argument("--jobs", type=int, default=1)

    sub.add_parser("verify", help="run the built-in acceptance suite")

    p_or = sub.add_parser("oracle", help="evaluate a reference oracle")
    p_or.add_argument("case", choices=["modal", "dalembert"])
    p_or.add_argument("--a0", type=float, default=0.5)
    p_or.add_argument("--k", type=int, default=1)
    p_or.add_argument("--t", type=float, default=0.5)
    p_or.add_argument("--x", type=float, default=0.5)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        try:
            suite = parse_suite(args.suite_file.read_text())
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        out = os.environ.get("WAVELAB_OUT") or args.out
        return run_suite(suite, output_dir=out, jobs=args.jobs)
    if args.command == "verify":
        return run_suite(ExperimentSuite(kind="verify", scenarios=()))
    if args.command == "oracle":
        from . import oracle
        if args.case == "modal":
            lp, lm, rate = oracle.modal_rate(args.a0, args.k)
            print(json.dumps({"lambda_plus": [lp.real, lp.imag],
                              "lambda_minus": [lm.real, lm.imag],
                              "energy_rate": rate}))
        else:
            from .core import sine_profile, zero_function
            z0, z1 = sine_profile(args.k), zero_function()
            z = oracle.dalembert(z0.value, z1.value, args.t, args.x)
            print(json.dumps({"z": z, "t": args.t, "x": args.x,
                              "data": f"sine({args.k}), zero"}))
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
