"""Time integration of the Riemann-invariant system.

The grid is node-centered with dt = dx (unit CFL), so the linear transport
part is an exact index shift and every dissipation statement about the
damping is machine-checkable instead of being drowned in advection error.
The damping substep is backward Euler, which is unconditionally dissipative:
|u_new| <= |u_old| at every node whenever g is monotone with g(0) = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import energy as _energy
from .core import (
    Array, DampingProfile, Grid, Nonlinearity, Profile, RiemannState,
    nodal_derivative, nu_ratio, riemann_from_physical, signed_power,
)

NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-14  # on the residual, scaled by max(1, |u_old|) per node
MONOTONICITY_SLACK = 1e-12


class EnergyMonotonicityError(RuntimeError):
    """E_p increased beyond tolerance: the scheme is dissipative by
    construction, so this signals a bug (or an injected fault)."""


class NewtonError(RuntimeError):
    pass


class ThetaBoundError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Scenario and trajectory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialData:
    """Initial (z0, z1), either analytic profiles or nodal arrays.

    Analytic profiles carry exact derivatives, making the initial Riemann
    invariants exact samples; array data goes through the fourth-order
    nodal derivative.
    """

    z0: Profile | None = None
    z1: Profile | None = None
    z0_values: Array | None = None
    z1_values: Array | None = None

    @classmethod
    def from_profiles(cls, z0: Profile, z1: Profile) -> "InitialData":
        return cls(z0=z0, z1=z1)

    @classmethod
    def from_arrays(cls, z0_values: Array, z1_values: Array) -> "InitialData":
        return cls(z0_values=np.asarray(z0_values, dtype=float),
                   z1_values=np.asarray(z1_values, dtype=float))

    @property
    def analytic(self) -> bool:
        return self.z0 is not None

    def scaled(self, amplitude: float) -> "InitialData":
        if self.analytic:
            return InitialData.from_profiles(self.z0.scaled(amplitude),
                                             self.z1.scaled(amplitude))
        return InitialData.from_arrays(amplitude * self.z0_values,
                                       amplitude * self.z1_values)

    def riemann(self, grid: Grid) -> RiemannState:
        if self.analytic:
            xs = grid.nodes
            dz = np.asarray(self.z0.deriv(xs))
            z1 = np.asarray(self.z1.value(xs))
            return RiemannState(rho=dz + z1, xi=dz - z1, t=0.0)
        return riemann_from_physical(self.z0_values, self.z1_values, grid)

    def derivative_system_data(self, grid: Grid, a_nodes: Array,
                               g: Nonlinearity) -> RiemannState:
        """Initial invariants (u0, v0) of the w = z_t system:
        w(0) = z1, w_t(0) = z0'' - a g(z1) (the PDE evaluated at t = 0)."""
        xs = grid.nodes
        if self.analytic:
            w0_x = np.asarray(self.z1.deriv(xs))
            z0_xx = np.asarray(self.z0.second(xs))
            z1_vals = np.asarray(self.z1.value(xs))
        else:
            w0_x = nodal_derivative(self.z1_values, grid)
            z0_xx = nodal_derivative(nodal_derivative(self.z0_values, grid), grid)
            z1_vals = self.z1_values
        w0_t = z0_xx - a_nodes * np.asarray(g.value(z1_vals))
        return RiemannState(rho=w0_x + w0_t, xi=w0_x - w0_t, t=0.0)


@dataclass(frozen=True)
class Scenario:
    """Full description of one run. dt = dx exactly (unit CFL)."""

    name: str
    grid: Grid
    t_final: float
    p_list: tuple[float, ...]
    g: Nonlinearity
    a: DampingProfile
    initial: InitialData
    splitting: str = "strang"
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.splitting not in ("strang", "lie"):
            raise ValueError(f"splitting must be 'strang' or 'lie', got {self.splitting}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")

    @property
    def dt(self) -> float:
        return self.grid.dx

    @property
    def n_steps(self) -> int:
        return max(1, round(self.t_final / self.dt))

    @property
    def t_final_actual(self) -> float:
        # t_final rounded to a whole number of steps; reported with the run
        return self.n_steps * self.dt


@dataclass(frozen=True)
class ThetaField:
    """Time-varying damping intensity theta(t, x) with H3 bounds.

    grid: the grid a recorded field is bound to (its sampler ignores x);
    None for a field that evaluates any x."""

    sampler: Callable[[float, Array], Array]
    bounds: tuple[float, float]
    grid: Grid | None = None

    def __call__(self, t: float, x: Array) -> Array:
        th = np.asarray(self.sampler(t, x), dtype=float)
        th1, th2 = self.bounds
        tol = 1e-12 * max(1.0, th2)
        if np.any(th < th1 - tol) or np.any(th > th2 + tol):
            raise ThetaBoundError(
                f"theta outside [{th1}, {th2}] at t = {t}: "
                f"range [{th.min()}, {th.max()}]")
        return th


@dataclass
class Trajectory:
    """Recorded states and per-record diagnostics of one run."""

    times: Array
    states: list[RiemannState]
    diagnostics: dict[str, Array]
    scenario: Scenario
    kind: str = "simulate"

    def energy_series(self, p: float) -> Array:
        return self.diagnostics[f"E_p{p:g}"]


# ---------------------------------------------------------------------------
# Substeps
# ---------------------------------------------------------------------------

def transport_shift(state: RiemannState, grid: Grid) -> RiemannState:
    """One exact advection step of size dt = dx, then wall reflection.

    rho moves left (rho_i <- rho_{i+1}), xi moves right (xi_i <- xi_{i-1});
    the incoming characteristics are closed by xi(0) <- rho(0), rho(N) <- xi(N).
    """
    rho_new = np.empty_like(state.rho)
    xi_new = np.empty_like(state.xi)
    rho_new[:-1] = state.rho[1:]
    xi_new[1:] = state.xi[:-1]
    xi_new[0] = rho_new[0]
    rho_new[-1] = xi_new[-1]
    return RiemannState(rho=rho_new, xi=xi_new, t=state.t + grid.dx)


def _implicit_damping_update(u_old: Array, c: Array, g: Nonlinearity) -> Array:
    """Solve u + c g(u) = u_old nodewise (backward Euler for u' = -a g(u)).

    Monotone g makes the map strictly increasing, so the root is unique and
    lies between 0 and u_old. Linear g uses the closed form; otherwise
    safeguarded Newton from u_old with a bisection fallback.
    """
    if g.linear_slope is not None:
        return u_old / (1.0 + c * g.linear_slope)

    u = u_old.copy()
    tol = NEWTON_TOL * np.maximum(1.0, np.abs(u_old))
    converged = False
    for _ in range(NEWTON_MAX_ITER):
        resid = u + c * np.asarray(g.value(u)) - u_old
        if np.all(np.abs(resid) <= tol):
            converged = True
            break
        u = u - resid / (1.0 + c * np.asarray(g.derivative(u)))
    if not converged:
        resid = u + c * np.asarray(g.value(u)) - u_old
        bad = np.abs(resid) > tol
        u[bad] = _bisect_damping(u_old[bad], c[bad], g, tol[bad])
    # clamp against roundoff overshoot: the root lies between 0 and u_old
    return np.clip(u, np.minimum(0.0, u_old), np.maximum(0.0, u_old))


def _bisect_damping(u_old: Array, c: Array, g: Nonlinearity, tol: Array) -> Array:
    lo = np.minimum(0.0, u_old)
    hi = np.maximum(0.0, u_old)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        resid = mid + c * np.asarray(g.value(mid)) - u_old
        if np.all(np.abs(resid) <= tol) or np.all(hi - lo <= 1e-16 * np.abs(hi)):
            return mid
        take_hi = resid < 0.0  # residual increasing in u
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    resid = mid + c * np.asarray(g.value(mid)) - u_old
    if np.any(np.abs(resid) > np.maximum(tol, 1e-10)):
        raise NewtonError(
            f"implicit damping solve failed for g = {g.label}; "
            f"worst residual {np.max(np.abs(resid))}")
    return mid


def damped_support(a_nodes: Array) -> slice:
    """The contiguous slice spanning the nonzero entries of a(x) on the grid.

    Off this slice the damping substep is the identity, so the implicit solve
    runs on the slice alone. A basic slice is a view: no gather, no copy.
    """
    nz = np.flatnonzero(a_nodes)
    if nz.size == 0:
        return slice(0, 0)
    return slice(int(nz[0]), int(nz[-1]) + 1)


def damping_substep(state: RiemannState, dt_half: float, a: DampingProfile,
                    g: Nonlinearity, grid: Grid) -> RiemannState:
    """Backward-Euler source substep. z_x = (rho + xi)/2 is untouched; only
    u = z_t relaxes, so reassembly preserves the sum at every node."""
    a_nodes = np.asarray(a.value(grid.nodes))
    support = damped_support(a_nodes)
    return _damping_substep_nodal(state, dt_half * a_nodes[support], support, g)


def _damping_substep_nodal(state: RiemannState, c: Array, support: slice,
                           g: Nonlinearity | None = None) -> RiemannState:
    """Damping substep on the slice `support`, with c given on that slice.

    g relaxes u = z_t by the implicit solve of u + c g(u) = u_old; g = None is
    the frozen linear coefficient of the auxiliary problem, u <- u / (1 + c).
    Off the slice c = 0 and the update is the identity. The delta d is zero
    there and the full-array delta form keeps every node bitwise equal to
    running the update on the whole grid.
    """
    u = 0.5 * (state.rho[support] - state.xi[support])
    u_new = u / (1.0 + c) if g is None else _implicit_damping_update(u, c, g)
    d = np.zeros_like(state.rho)
    np.subtract(u_new, u, out=d[support])
    return RiemannState(rho=state.rho + d, xi=state.xi - d, t=state.t)


def step(state: RiemannState, scenario: Scenario,
         a_nodes: Array | None = None, *,
         support: slice | None = None) -> RiemannState:
    """One full step: strang = damp(dt/2) o transport o damp(dt/2);
    lie = transport o damp(dt). `support` is damped_support(a_nodes), which
    run drivers compute once per run."""
    grid = scenario.grid
    if a_nodes is None:
        a_nodes = np.asarray(scenario.a.value(grid.nodes))
    if support is None:
        support = damped_support(a_nodes)
    dt = scenario.dt
    if scenario.splitting == "strang":
        c = 0.5 * dt * a_nodes[support]
        state = _damping_substep_nodal(state, c, support, scenario.g)
        state = transport_shift(state, grid)
        state = _damping_substep_nodal(state, c, support, scenario.g)
    else:
        state = _damping_substep_nodal(state, dt * a_nodes[support], support, scenario.g)
        state = transport_shift(state, grid)
    return state


# ---------------------------------------------------------------------------
# Run drivers
# ---------------------------------------------------------------------------

def _base_diagnostics(state: RiemannState, scenario: Scenario,
                      a_nodes: Array) -> dict[str, float]:
    grid = scenario.grid
    z_t = state.z_t
    ag = -a_nodes * np.asarray(scenario.g.value(z_t))
    diag: dict[str, float] = {}
    for p in scenario.p_list:
        diag[f"E_p{p:g}"] = _energy.energy_p(state, p, grid)
        diag[f"dEdt_p{p:g}"] = _energy.dissipation_rate_nodal(
            state.rho, state.xi, ag, p, grid.dx)
    diag["max_zt"] = float(np.max(np.abs(z_t)))
    return diag


def _check_monotone(records: list[dict[str, float]], diag: dict[str, float],
                    t: float) -> None:
    """Raise if an energy of `diag` rose above the last record by more than
    MONOTONICITY_SLACK, relative to its initial value when that exceeds 1."""
    first, last = records[0], records[-1]
    for key in first:
        if not key.startswith("E_p"):
            continue
        slack = MONOTONICITY_SLACK * max(1.0, first[key])
        if diag[key] > last[key] + slack:
            raise EnergyMonotonicityError(
                f"{key} increased at t = {t}: {last[key]} -> {diag[key]} "
                f"(slack {slack}, E(0) = {first[key]})")


def _is_record(scenario: Scenario, n: int) -> bool:
    """Whether the state after step n (0-based) is recorded."""
    return (n + 1) % scenario.record_every == 0 or n + 1 == scenario.n_steps


def _record_loop(scenario: Scenario, state: RiemannState,
                 advance: Callable[[RiemannState, int], RiemannState],
                 diagnose: Callable[[RiemannState], dict[str, float]],
                 keep_states: bool, kind: str) -> Trajectory:
    times = [state.t]
    records = [diagnose(state)]
    states = [state]
    for n in range(scenario.n_steps):
        state = advance(state, n)
        if _is_record(scenario, n):
            diag = diagnose(state)
            _check_monotone(records, diag, state.t)
            times.append(state.t)
            records.append(diag)
            if keep_states:
                states.append(state)
    if not keep_states:
        states.append(state)
    return _trajectory(times, states, records, scenario, kind)


def _trajectory(times: list[float], states: list[RiemannState],
                records: list[dict[str, float]], scenario: Scenario,
                kind: str) -> Trajectory:
    diagnostics = {k: np.array([r[k] for r in records]) for k in records[0]}
    return Trajectory(times=np.array(times), states=states,
                      diagnostics=diagnostics, scenario=scenario, kind=kind)


def run_simulation(scenario: Scenario, keep_states: bool = True) -> Trajectory:
    """Integrate the nonlinear problem to t_final, recording diagnostics and
    asserting E_p monotonicity (for every p simultaneously) at each record."""
    grid = scenario.grid
    a_nodes = np.asarray(scenario.a.value(grid.nodes))
    support = damped_support(a_nodes)
    state = scenario.initial.riemann(grid)

    def advance(s: RiemannState, n: int) -> RiemannState:
        return step(s, scenario, a_nodes, support=support)

    return _record_loop(scenario, state, advance,
                        lambda s: _base_diagnostics(s, scenario, a_nodes),
                        keep_states, "simulate")


def run_auxiliary(scenario: Scenario, theta: ThetaField,
                  keep_states: bool = True) -> Trajectory:
    """Integrate the auxiliary linear time-varying problem
    y_tt - y_xx + a(x) theta(t, x) y_t = 0 with the same splitting; the
    damping substep is linear-implicit in closed form. theta is sampled at
    the midpoint of each substep interval."""
    grid = scenario.grid
    if theta.grid is not None and theta.grid != grid:
        raise ValueError("recorded theta field is bound to the run's grid")
    xs = grid.nodes
    a_nodes = np.asarray(scenario.a.value(xs))
    support = damped_support(a_nodes)
    a_damped = a_nodes[support]
    dt = scenario.dt
    state = scenario.initial.riemann(grid)

    def aux_dissipation(s: RiemannState, p: float) -> float:
        th = theta(s.t, xs)
        integrand = -0.5 * a_nodes * th * (s.rho - s.xi) * (
            signed_power(s.rho, p - 1.0) - signed_power(s.xi, p - 1.0))
        return _energy.trapezoid(integrand, grid.dx)

    def diagnose(s: RiemannState) -> dict[str, float]:
        diag: dict[str, float] = {}
        for p in scenario.p_list:
            diag[f"E_p{p:g}"] = _energy.energy_p(s, p, grid)
            diag[f"dEdt_p{p:g}"] = aux_dissipation(s, p)
        diag["max_zt"] = float(np.max(np.abs(s.z_t)))
        return diag

    def damp(s: RiemannState, dt_sub: float, t_mid: float) -> RiemannState:
        c = dt_sub * a_damped * theta(t_mid, xs)[support]
        return _damping_substep_nodal(s, c, support)

    def advance(s: RiemannState, n: int) -> RiemannState:
        t0 = s.t
        if scenario.splitting == "strang":
            s = damp(s, 0.5 * dt, t0 + 0.25 * dt)
            s = transport_shift(s, grid)
            s = damp(s, 0.5 * dt, t0 + 0.75 * dt)
        else:
            s = damp(s, dt, t0 + 0.5 * dt)
            s = transport_shift(s, grid)
        return s

    return _record_loop(scenario, state, advance, diagnose, keep_states, "auxiliary")


def run_derivative_system(scenario: Scenario, keep_states: bool = True
                          ) -> tuple[Trajectory, Trajectory]:
    """Co-integrate the nonlinear run and the w = z_t system.

    Differentiating the PDE in time gives w_tt - w_xx + a(x) g'(w) w_t = 0,
    i.e. the auxiliary structure with coefficient g'(z_t) read from the base
    run (the first half-substep uses z_t at t_n, the second at t_{n+1};
    symmetric over the step). Records E_p(w) and the W^{1,p} norm of z_t,
    and asserts monotonicity of the base E_p and of E_p(w) at each record.
    Returns (base trajectory, w trajectory).
    """
    grid = scenario.grid
    xs = grid.nodes
    dx = grid.dx
    dt = scenario.dt
    g = scenario.g
    a_nodes = np.asarray(scenario.a.value(xs))
    support = damped_support(a_nodes)
    a_damped = a_nodes[support]
    base = scenario.initial.riemann(grid)
    w_state = scenario.initial.derivative_system_data(grid, a_nodes, g)

    def theta(bs: RiemannState) -> Array:
        # a g'(z_t) on the damped slice; zero elsewhere
        zt = 0.5 * (bs.rho[support] - bs.xi[support])
        return a_damped * np.asarray(g.derivative(zt))

    def w_diag(bs: RiemannState, ws: RiemannState) -> dict[str, float]:
        diag: dict[str, float] = {}
        zt = bs.z_t
        zt_x = 0.5 * (ws.rho + ws.xi)  # w_x with w = z_t
        for p in scenario.p_list:
            diag[f"E_pw{p:g}"] = _energy.energy_p_nodal(ws.rho, ws.xi, p, dx)
            diag[f"W1p_zt_p{p:g}"] = _energy.w1p_norm(zt, zt_x, p, dx)
            diag[f"Lp_zt_p{p:g}"] = _energy.lp_norm(zt, p, dx)
            diag[f"Lp_ztx_p{p:g}"] = _energy.lp_norm(zt_x, p, dx)
        diag["max_zt"] = float(np.max(np.abs(zt)))
        return diag

    base_records = [_base_diagnostics(base, scenario, a_nodes)]
    w_records = [w_diag(base, w_state)]
    times = [0.0]
    base_states = [base]
    w_states = [w_state]

    theta_n = theta(base)
    for n in range(scenario.n_steps):
        base = step(base, scenario, a_nodes, support=support)
        theta_np1 = theta(base)
        if scenario.splitting == "strang":
            w_state = _damping_substep_nodal(w_state, 0.5 * dt * theta_n, support)
            w_state = transport_shift(w_state, grid)
            w_state = _damping_substep_nodal(w_state, 0.5 * dt * theta_np1, support)
        else:
            w_state = _damping_substep_nodal(w_state, dt * theta_n, support)
            w_state = transport_shift(w_state, grid)
        theta_n = theta_np1
        if _is_record(scenario, n):
            base_diag = _base_diagnostics(base, scenario, a_nodes)
            _check_monotone(base_records, base_diag, base.t)
            w_d = w_diag(base, w_state)
            _check_monotone(w_records, w_d, base.t)
            times.append(base.t)
            base_records.append(base_diag)
            w_records.append(w_d)
            if keep_states:
                base_states.append(base)
                w_states.append(w_state)
    if not keep_states:
        base_states.append(base)
        w_states.append(w_state)

    return (_trajectory(times, base_states, base_records, scenario, "simulate"),
            _trajectory(times, w_states, w_records, scenario, "derivative"))


def theta_from_run(traj: Trajectory) -> ThetaField:
    """The linearizing coefficient theta(t, x) = nu(z_t) along a nonlinear
    run, recorded densely (record_every = 1, kept states) and reconstructed
    at in-step sampling times.

    Between records only the damping substeps act at a node, so z_t inside a
    step follows the nodal damping flow z_t' = -a g(z_t). Sampling in the
    first half of a step returns nu of an explicit half-step of that flow from
    the left record; sampling in the second half returns nu of the right
    record, which is itself the post-damping state. With the strang
    arrangement this tracks the linearizer of each nonlinear implicit substep
    to O(dt^2), so the frozen-theta rerun reproduces the nonlinear run at
    second order; plain interpolation of the records only manages O(dt),
    because the substep states sit off the fixed-node interpolation path.
    """
    sc = traj.scenario
    if sc.record_every != 1 or len(traj.states) != sc.n_steps + 1:
        raise ValueError(
            "theta_from_run needs a dense run: record_every = 1 with states kept")
    g = sc.g
    dt = sc.dt
    t0 = float(traj.times[0])
    n_steps = sc.n_steps
    a_nodes = np.asarray(sc.a.value(sc.grid.nodes))
    zt = np.stack([s.z_t for s in traj.states])
    nu_records = nu_ratio(zt, g)
    zt_half = zt[:-1] - 0.5 * dt * a_nodes[None, :] * np.asarray(g.value(zt[:-1]))
    nu_half = nu_ratio(zt_half, g)
    th1 = float(min(nu_records.min(), nu_half.min()))
    th2 = float(max(nu_records.max(), nu_half.max()))

    def sampler(t: float, x: Array) -> Array:
        pos = (t - t0) / dt
        n = min(max(int(np.floor(pos + 1e-9)), 0), n_steps - 1)
        frac = pos - n
        if frac <= 1e-9:
            return nu_records[n]
        if frac < 0.5:
            return nu_half[n]
        return nu_records[n + 1]

    return ThetaField(sampler=sampler, bounds=(th1, th2), grid=sc.grid)
