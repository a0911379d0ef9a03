"""The command line: suite parsing, report emission,
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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (
    DAMPING_PROFILES, NONLINEARITIES, PROFILES, DampingProfile, Grid,
    HypothesisViolation, Nonlinearity, Profile, make_localization,
)
from .energy import FIT_MIN_POINTS, RATIO_MIN_RECORDS, accept_window, energy_p, window_rows
from .experiments import EXPERIMENTS, SPEC_KEYS, ScenarioSpec, alpha_rows, multiplier_window
from .multipliers import MIN_RECORDS
from .solver import EnergyMonotonicityError, InitialData, Scenario, Trajectory

#: experiment kinds that invoke the stability theory, which needs 1 < p < inf:
#: every experiment but plain simulation
STABILITY_KINDS = tuple(kind for kind in EXPERIMENTS if kind != "simulate")

DEFAULTS = {
    "n_cells": "256",
    "t_final": "20",
    "p_list": "1.5, 2, 4",
    "splitting": "strang",
    "record_every": "1",
    "g": "identity",
    "a": "indicator(0.7, 1, 1)",
    "z0": "sine(1)",
    "z1": "zero",
    "amplitude": "1",
    "co_integrate_w": "false",
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


def _finite(text: str) -> float:
    """float(text), rejecting nan and inf."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"'{text.strip()}' is not a finite number")
    return value


def _parse_named(spec: str, table: dict[str, Callable], what: str):
    """table[name](*args, **kwargs) for a spec `name` or `name(arg, key=arg)`."""
    m = _CALL_RE.match(spec)
    if not m:
        raise ConfigError(f"cannot parse {what} spec '{spec}'")
    name, args, kwargs = m.group(1), [], {}
    if name not in table:
        raise ConfigError(f"unknown {what} '{spec}' "
                          f"(available: {', '.join(sorted(table))})")
    try:
        for tok in filter(str.strip, (m.group(2) or "").split(",")):
            key, _, num = tok.rpartition("=")
            if key:
                kwargs[key.strip()] = _finite(num)
            else:
                args.append(_finite(num))
    except ValueError as exc:
        raise ConfigError(f"{exc} in '{spec}'") from exc
    try:
        return table[name](*args, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad arguments in '{spec}': {exc}") from exc


def parse_nonlinearity(spec: str) -> Nonlinearity:
    return _parse_named(spec, NONLINEARITIES, "nonlinearity")


def parse_damping(spec: str) -> DampingProfile:
    return _parse_named(spec, DAMPING_PROFILES, "damping profile")


def parse_profile(spec: str) -> Profile:
    return _parse_named(spec, PROFILES, "profile")


def _parse_floats(text: str, count: int | None = None) -> tuple[float, ...]:
    """A comma-separated list of finite numbers, of `count` values if given."""
    try:
        vals = tuple(_finite(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{exc} in '{text}'") from exc
    if count is not None and len(vals) != count:
        raise ConfigError(f"needs {count} values, got '{text}'")
    return vals


def _grid(text: str) -> Grid:
    """Grid(int(text)), refused when numpy cannot allocate its nodes."""
    grid = Grid(int(text))
    try:
        grid.nodes
    except (IndexError, MemoryError, ValueError) as exc:
        raise ConfigError(f"{grid.n_nodes} nodes are more than numpy can "
                          f"allocate ({exc})") from None
    return grid


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"'{text}' is not a boolean (true or false)") from None


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSuite:
    kind: str
    scenarios: tuple[ScenarioSpec, ...]
    output_dir: str = "out"


_SUITE_KEYS = {"kind", "output_dir"}
#: the keys of a scenario's Scenario, which every kind reads
_RUN_KEYS = {"n_cells", "t_final", "p_list", "splitting", "record_every",
             "g", "a", "z0", "z1", "amplitude"}
_SCENARIO_KEYS = _RUN_KEYS.union(*SPEC_KEYS.values())


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
    if kind not in EXPERIMENTS:
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
        if "/" in name or "\\" in name:
            raise ConfigError(f"scenario '{name}': the name must not contain '/' or "
                              f"'\\', since it becomes part of the report file names")
        try:  # summary_<name>.json must be a file name of at most 255 bytes
            fits = "\0" not in name and len(os.fsencode(name)) <= 242
        except UnicodeEncodeError:
            fits = False
        if not fits:
            raise ConfigError(f"scenario {name!r}: the name must hold no NUL byte and at "
                              f"most 242 bytes in the file-system encoding, since it "
                              f"becomes part of the report file names")
        if name in names:
            raise ConfigError(f"duplicate scenario name '{name}'")
        names.add(name)
        specs.append(_parse_scenario(name, dict(cp[section]), kind))
    if not specs:
        raise ConfigError("no [scenario NAME] sections found")
    return ExperimentSuite(kind=kind, scenarios=tuple(specs),
                           output_dir=output_dir)


def _parse_scenario(name: str, raw: dict[str, str], kind: str) -> ScenarioSpec:
    for key in raw:  # [DEFAULT] keys included
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"scenario '{name}': unknown key '{key}'")
        if key not in _RUN_KEYS and key not in SPEC_KEYS[kind]:
            raise ConfigError(f"scenario '{name}': key '{key}' is not read by "
                              f"experiment kind '{kind}'")
    stability = kind in STABILITY_KINDS

    def value(key: str, parse: Callable[[str], object]):
        """parse(text) of the key's text, or of its default; None if neither
        is given. A bad value is a ConfigError naming the scenario and key."""
        text = raw.get(key, DEFAULTS.get(key))
        if text is None:
            return None
        with _scenario_key(name, key):
            return parse(text)

    def exponents(text: str) -> tuple[float, ...]:
        p_list = _parse_floats(text)
        if not p_list:
            raise ConfigError("needs at least one exponent p")
        for p in p_list:
            if p < 1.0:
                raise ConfigError(f"p = {p:g} < 1 is not allowed")
            if stability and p <= 1.0:
                raise ConfigError(
                    f"p = {p:g} rejected — the stability theory covers "
                    f"1 < p < inf only (experiment kind '{kind}')")
        return p_list

    def profile(text: str) -> Profile:
        return parse_profile(text).scaled(amplitude)

    def scalings(text: str) -> tuple[float, ...]:
        alphas = _parse_floats(text)
        alpha_rows(scenario, alphas)  # refuses repeated row names
        if co_integrate_w:
            raise ConfigError("co_integrate_w = true has no family form for the rows")
        return alphas

    grid = value("n_cells", _grid)
    t_final = value("t_final", _finite)
    p_list = value("p_list", exponents)
    record_every = value("record_every", int)
    if kind == "aux_equivalence" and record_every != 1:
        raise ConfigError(f"scenario '{name}': key 'record_every': the auxiliary "
                          f"rerun records every step, so it must be 1, not {record_every}")
    amplitude = value("amplitude", _finite)
    g = value("g", parse_nonlinearity)
    with _scenario_key(name, "g"):
        g.validate()  # H2 lattice check at parse time
    a = value("a", parse_damping)
    with _scenario_key(name, "a"):
        a.validate(require_active=stability)
    initial = InitialData(value("z0", profile), value("z1", profile))
    epsilons = value("epsilons", lambda text: _parse_floats(text, 3))
    with _scenario_key(name):  # Scenario's message names the field
        scenario = Scenario(name=name, grid=grid, t_final=t_final, p_list=p_list,
                            g=g, a=a, initial=initial,
                            splitting=raw.get("splitting", DEFAULTS["splitting"]),
                            record_every=record_every)

    if kind == "multiplier_report":
        # fail early on a bad localization geometry
        with _scenario_key(name, "epsilons"):
            make_localization((a.omega[0], 1.0), epsilons, grid)

    co_integrate_w = value("co_integrate_w", _parse_bool)
    spec = ScenarioSpec(
        scenario=scenario,
        fit_window=value("fit_window", lambda text: _parse_floats(text, 2)),
        alphas=value("alphas", scalings) or (), epsilons=epsilons,
        window=value("window", lambda text: _parse_floats(text, 2)),
        co_integrate_w=co_integrate_w, raw=dict(raw))

    # the guard stops a run whose E_p(0) is not finite at t = 0: refuse it
    # here instead, the alphas rows at their largest |alpha|; the w = z_t
    # system's E_p(w)(0) is guarded too, and each row's c_p reads it
    key, data = "amplitude", initial
    if spec.alphas:
        key, data = "alphas", initial.scaled(max(spec.alphas, key=abs))
    with np.errstate(all="ignore"):
        states = {"E_p": data.riemann(grid)}
        if co_integrate_w or spec.alphas:
            states["E_pw"] = data.derivative_system_data(grid, scenario.a_nodes, g)
        for label, state in states.items():
            for p in p_list:
                if not np.isfinite(energy_p(state, p, grid)):
                    raise ConfigError(
                        f"scenario '{name}': key '{key}': {label}{p:g}(0) is not "
                        f"finite at p = {p:g}: the initial data are too large")

    # each window, its default (experiments) resolved, must fit the run and hold
    # the records its consumer needs, counted on the record times as a run picks them
    with _scenario_key(name, "t_final"):  # at most MAX_STEPS steps
        try:
            times = scenario.record_times
        except (MemoryError, OverflowError, ValueError) as exc:
            raise ConfigError(f"{t_final:g} is more steps of dt = {scenario.dt:g} "
                              f"than numpy can record ({exc})") from None
    fit = spec.fit_window
    if fit is not None:  # a fit window may run past the final time
        what = f"({fit[0]:g}, {fit[1]:g})"
        with _scenario_key(name, "fit_window"):
            if not fit[0] < fit[1]:
                raise ConfigError(f"{what} needs t_lo < t_hi")
            held = len(times[window_rows(times, fit)])
            if held < FIT_MIN_POINTS:
                raise ConfigError(f"{what} holds {held} record(s); the decay fit needs "
                                  f"at least {FIT_MIN_POINTS}")
    with _scenario_key(name, "window"):
        if kind == "multiplier_report":
            accept_window(times, multiplier_window(spec), MIN_RECORDS,
                          "multiplier terms need", default=not spec.window)
        elif spec.window is not None:  # simulate's observability ratio
            accept_window(times, spec.window, RATIO_MIN_RECORDS, "observability ratio needs")
    return spec


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def write_energy_csv(path: Path, traj: Trajectory,
                     w_traj: Trajectory | None = None) -> None:
    p_list = traj.scenario.p_list
    keys = [f"E_p{p:g}" for p in p_list] + [f"dEdt_p{p:g}" for p in p_list] + ["max_zt"]
    header = ["t", *keys]
    columns = [traj.times, *(traj.diagnostics[key] for key in keys)]
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
    out = output_dir or suite.output_dir
    # scenarios hold closures, so workers get the raw key=value form and
    # re-parse it; each worker writes its own reports
    parallel = (jobs > 1 and len(suite.scenarios) > 1
                and all(spec.raw is not None for spec in suite.scenarios))
    if parallel:
        from concurrent.futures import ProcessPoolExecutor
        # a forked pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(suite.scenarios))) as pool:
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

def _count(text: str) -> int:
    """A whole number >= 1, as --jobs (worker processes) takes."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got '{text}'")
    return n


def _mode(text: str) -> int:
    """A _count that modal_rate takes as its mode k: (k pi)^2 a finite float."""
    from .oracle import modal_rate
    k = _count(text)
    try:
        modal_rate(0.0, k)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a whole number >= 1 whose (k pi)^2 is a finite float, "
            f"got '{text}'") from None
    return k


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavelab",
        description="Numerical laboratory for the 1D damped wave equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment suite file")
    p_run.add_argument("suite_file", type=Path)
    p_run.add_argument("--out", default=None, help="output directory "
                       "(WAVELAB_OUT env var takes precedence)")
    p_run.add_argument("--jobs", type=_count, default=1, metavar="N")

    sub.add_parser("verify", help="run the built-in acceptance suite")

    p_or = sub.add_parser("oracle", help="evaluate a reference oracle")
    p_or.add_argument("case", choices=["modal"])
    p_or.add_argument("--a0", type=_finite, default=0.5)
    p_or.add_argument("--k", type=_mode, default=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        try:
            try:
                text = args.suite_file.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                why = exc.strerror if isinstance(exc, OSError) else exc
                raise ConfigError(f"cannot read '{args.suite_file}': {why}") from None
            suite = parse_suite(text)
            out = os.environ.get("WAVELAB_OUT") or args.out or suite.output_dir
            try:
                Path(out).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory '{out}': "
                                  f"{exc.strerror}") from None
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return run_suite(suite, output_dir=out, jobs=args.jobs)
    if args.command == "verify":
        from .verify import run_all
        return _outcome("verify", lambda: 0 if all(r.passed for r in run_all()) else 1)
    if args.command == "oracle":
        from .oracle import modal_rate
        lp, lm, rate = modal_rate(args.a0, args.k)
        print(json.dumps({"lambda_plus": [lp.real, lp.imag],
                          "lambda_minus": [lm.real, lm.imag],
                          "energy_rate": rate}))
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
