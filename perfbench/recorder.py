"""Traced-run recorder: spans and counts around wavelab's public functions.

The recorder wraps each public function at every module that binds it (found
by identity, so `run_simulation` is wrapped in `solver`, `cli`, `verify` and
the package namespace alike), the g factories in `core.NONLINEARITIES`,
`ThetaField.__call__` and the checks in `verify.CHECKS`. Spans are kept in
memory as per-function aggregates: calls, total time and self time, which is
a span's duration minus the time of the spans it directly encloses. A group
of functions (the energy diagnostics, the fits, the oracle) is timed by its
outermost spans only, so nested calls inside the group are not counted
twice. `uninstall` puts every binding back and checks that it did.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, function, group); a function without a group is its own group
SPANS = (
    ("cli", "parse_suite", None),
    ("cli", "emit_reports", None),
    ("solver", "step", None),
    ("solver", "transport_shift", None),
    ("solver", "run_simulation", None),
    ("solver", "run_derivative_system", None),
    ("solver", "run_auxiliary", None),
    ("solver", "theta_from_run", None),
    ("energy", "energy_p", "energy.diag"),
    ("energy", "energy_p_nodal", "energy.diag"),
    ("energy", "dissipation_rate", "energy.diag"),
    ("energy", "lp_norm", "energy.diag"),
    ("energy", "w1p_norm", "energy.diag"),
    ("energy", "phi_functional", "energy.diag"),
    ("energy", "build_energy_report", "energy.fit"),
    ("energy", "decay_fit", "energy.fit"),
    ("energy", "observability_ratio", "energy.fit"),
    ("multipliers", "multiplier_terms", None),
    ("multipliers", "elliptic_solve", None),
    ("oracle", "dalembert_riemann", "oracle"),
    ("oracle", "modal_rate", "oracle"),
)


def _get(owner, key: str):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key: str, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def check_names(verify) -> list[str]:
    """Check names as in the acceptance test ids."""
    return [c.__name__.removeprefix("check_") for c in verify.CHECKS]


class Recorder:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.group_calls: Counter = Counter()
        self.group_total: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # held so that ids stay unique
        self._last_a_nodes = None
        self._active = 0

    # -- spans --------------------------------------------------------------

    def _span(self, name: str, group: str, fn, after=None):
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time of the spans this one directly encloses
            stack.append(frame)
            depth[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[group] -= 1
                self.calls[name] += 1
                self.total[name] += dt
                self.self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if depth[group] == 0:
                    self.group_calls[group] += 1
                    self.group_total[group] += dt
            if after is not None:
                after(args, result)
            return result

        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    # -- counts -------------------------------------------------------------

    def _after_transport(self, args, state) -> None:
        self.counts["node_steps"] += len(state.rho)

    def _after_step(self, args, state) -> None:
        a_nodes = args[2] if len(args) > 2 else None
        if a_nodes is None:  # step() computes a(x) itself in this case
            scenario = args[1]
            a_nodes = np.asarray(scenario.a.value(scenario.grid.nodes))
        if a_nodes is not self._last_a_nodes:  # one array per run
            self._last_a_nodes = a_nodes
            self._active = int(np.count_nonzero(a_nodes > 0.0))
        self.counts["damped_node_steps"] += len(a_nodes)
        self.counts["active_node_steps"] += self._active

    def _after_run(self, args, result) -> None:
        traj = result[0] if isinstance(result, tuple) else result
        self.counts["records"] += len(traj.times)

    def _after_emit(self, args, paths) -> None:
        self.counts["emit_bytes"] += sum(Path(p).stat().st_size for p in paths)

    def _counting(self, fn):
        counts = self.counts

        def counted(s):
            counts["g_evals"] += int(np.size(s))
            return fn(s)

        return counted

    def _counting_factory(self, factory):
        def make():
            g = factory()
            return dataclasses.replace(g, value=self._counting(g.value),
                                       derivative=self._counting(g.derivative))

        self._wrappers[id(make)] = make
        return make

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, _get(owner, key)))
        _set(owner, key, value)

    def install(self) -> None:
        import wavelab  # noqa: F401  (the package binds the public names too)
        from wavelab import cli, core, energy, multipliers, oracle, solver
        modules = {"cli": cli, "solver": solver, "energy": energy,
                   "multipliers": multipliers, "oracle": oracle}
        after = {"transport_shift": self._after_transport,
                 "step": self._after_step,
                 "run_simulation": self._after_run,
                 "run_derivative_system": self._after_run,
                 "run_auxiliary": self._after_run,
                 "emit_reports": self._after_emit}
        wrappers = {}
        for mod, name, group in SPANS:
            fn = getattr(modules[mod], name)
            wrappers[id(fn)] = (fn, self._span(name, group or name, fn, after.get(name)))
        verify = sys.modules.get("wavelab.verify")
        if verify is not None:
            for check in verify.CHECKS:
                wrappers[id(check)] = (check, self._span(check.__name__, check.__name__, check))

        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "wavelab" or n.startswith("wavelab.")]
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        if verify is not None:
            self._patch(verify, "CHECKS",
                        tuple(wrappers[id(c)][1] for c in verify.CHECKS))
        call = solver.ThetaField.__call__
        self._patch(solver.ThetaField, "__call__",
                    self._span("ThetaField.__call__", "ThetaField.__call__", call))
        for key, factory in list(core.NONLINEARITIES.items()):
            self._patch(core.NONLINEARITIES, key, self._counting_factory(factory))

    def uninstall(self) -> bool:
        """Restore every patched binding; True iff all are restored and no
        wrapper is left in any wavelab module."""
        for owner, key, original in reversed(self._patched):
            _set(owner, key, original)
        ok = all(_get(owner, key) is original for owner, key, original in self._patched)
        for name, mod in list(sys.modules.items()):
            if name == "wavelab" or name.startswith("wavelab."):
                for value in list(vars(mod).values()):
                    items = (value.values() if isinstance(value, dict) else
                             value if isinstance(value, tuple) else (value,))
                    ok = ok and not any(id(v) in self._wrappers for v in items)
        self._patched.clear()
        return ok

    # -- metrics ------------------------------------------------------------

    def metrics(self, check_names: list[str] = ()) -> dict[str, float]:
        node_steps = self.counts["node_steps"]
        damped = self.counts["damped_node_steps"]
        out = {
            "cli.parse_s": self.total["parse_suite"],
            "cli.emit_s": self.total["emit_reports"],
            "cli.emit_bytes": self.counts["emit_bytes"],
            "solver.steps": self.calls["transport_shift"],
            "solver.node_steps": node_steps,
            "solver.records": self.counts["records"],
            "solver.step_s": self.total["step"],
            "solver.transport_s": self.total["transport_shift"],
            "solver.damping_s": self.self_s["step"],
            "solver.g_evals": self.counts["g_evals"],
            "solver.g_evals_per_node_step":
                self.counts["g_evals"] / node_steps if node_steps else 0.0,
            "solver.damping_active_frac":
                self.counts["active_node_steps"] / damped if damped else 0.0,
            "solver.loop_s": (self.self_s["run_simulation"]
                              + self.self_s["run_derivative_system"]),
            "solver.aux_s": self.self_s["run_auxiliary"],
            "solver.theta_build_s": self.total["theta_from_run"],
            "solver.theta_sample_s": self.total["ThetaField.__call__"],
            "solver.theta_samples": self.calls["ThetaField.__call__"],
            "energy.diag_s": self.group_total["energy.diag"],
            "energy.diag_calls": self.group_calls["energy.diag"],
            "energy.fit_s": self.group_total["energy.fit"],
            "multipliers.terms_s": self.self_s["multiplier_terms"],
            "multipliers.elliptic_s": self.total["elliptic_solve"],
            "multipliers.elliptic_calls": self.calls["elliptic_solve"],
            "oracle.s": self.group_total["oracle"],
        }
        for name in check_names:
            out[f"verify.{name}_s"] = self.total[f"check_{name}"]
        return out

    def spans(self) -> list[dict]:
        """Per-function aggregates, largest self time first."""
        return [{"name": n, "calls": self.calls[n], "total_s": self.total[n],
                 "self_s": self.self_s[n]}
                for n in sorted(self.calls, key=lambda n: -self.self_s[n])]
