"""Time integration of the Riemann-invariant system.

The grid is node-centered with dt = dx (unit CFL), so the linear transport
part is an exact index shift and every dissipation statement about the
damping is machine-checkable instead of being drowned in advection error.
The damping substep is backward Euler, which is unconditionally dissipative:
|u_new| <= |u_old| at every node whenever g is monotone with g(0) = 0.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import energy as _energy
from .core import (
    Array, DampingProfile, Grid, Nonlinearity, Profile, RiemannState, nu_ratio,
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
    """Initial (z0, z1) as analytic profiles. Their exact derivatives make
    the initial Riemann invariants exact samples."""

    z0: Profile
    z1: Profile

    def scaled(self, amplitude: float) -> "InitialData":
        return InitialData(self.z0.scaled(amplitude), self.z1.scaled(amplitude))

    def riemann(self, grid: Grid) -> RiemannState:
        xs = grid.nodes
        dz = np.asarray(self.z0.deriv(xs))
        z1 = np.asarray(self.z1.value(xs))
        return RiemannState(rho=dz + z1, xi=dz - z1, t=0.0)

    def derivative_system_data(self, grid: Grid, a_nodes: Array,
                               g: Nonlinearity) -> RiemannState:
        """Initial invariants (u0, v0) of the w = z_t system:
        w(0) = z1, w_t(0) = z0'' - a g(z1) (the PDE evaluated at t = 0)."""
        xs = grid.nodes
        w0_x = np.asarray(self.z1.deriv(xs))
        z1_vals = np.asarray(self.z1.value(xs))
        w0_t = np.asarray(self.z0.second(xs)) - a_nodes * np.asarray(g.value(z1_vals))
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
        if not 0.0 < self.t_final < np.inf:
            raise ValueError("t_final must be positive and finite")
        seen: dict[str, float] = {}  # diagnostics key -> exponent
        for p in self.p_list:
            key = f"E_p{p:g}"
            if key in seen:
                raise ValueError(f"p_list must be exponents with distinct diagnostics "
                                 f"keys: p = {seen[key]!r} and p = {p!r} share '{key}'")
            seen[key] = p

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

    @functools.cached_property
    def a_nodes(self) -> Array:
        """a(x) at the grid nodes, sampled once per scenario; read-only."""
        a_nodes = np.asarray(self.a.value(self.grid.nodes))
        a_nodes.setflags(write=False)
        return a_nodes

    @functools.cached_property
    def support(self) -> slice:
        """damped_support(a_nodes), the slice the damping substep solves on."""
        return damped_support(self.a_nodes)


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
    """Recorded states and per-record diagnostics of one run. Row k of rho and
    xi, (n_records, n_nodes), is the state at times[k]; None if not kept."""

    times: Array
    rho: Array | None
    xi: Array | None
    diagnostics: dict[str, Array]
    scenario: Scenario

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


def _damping_substep_nodal(state: RiemannState, c: Array, support: slice,
                           g: Nonlinearity | None = None) -> RiemannState:
    """Backward-Euler damping substep on the slice `support`, with c given
    on that slice. z_x = (rho + xi)/2 is untouched; only u = z_t relaxes.

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


def _split_step(state: RiemannState, scenario: Scenario, support: slice,
                coefs: Callable[[float], Iterator[Array]],
                g: Nonlinearity | None = None) -> RiemannState:
    """One step of the splitting: strang = damp(dt/2) o transport o damp(dt/2);
    lie = transport o damp(dt).

    coefs(h) yields the damping coefficient on the slice `support` of each
    damping substep of length h, in order: lie draws one, strang two, the
    second after the transport. g as in _damping_substep_nodal, None for a
    linear coefficient.
    """
    strang = scenario.splitting == "strang"
    h = 0.5 * scenario.dt if strang else scenario.dt
    cs = coefs(h)
    state = _damping_substep_nodal(state, next(cs), support, g)
    state = transport_shift(state, scenario.grid)
    if strang:
        state = _damping_substep_nodal(state, next(cs), support, g)
    return state


def step(state: RiemannState, scenario: Scenario,
         a_nodes: Array | None = None, *,
         support: slice | None = None) -> RiemannState:
    """One full step of the nonlinear problem. a_nodes defaults to
    scenario.a_nodes and support to damped_support(a_nodes); run drivers pass
    scenario.a_nodes and scenario.support."""
    if a_nodes is None:
        a_nodes = scenario.a_nodes
    if support is None:
        support = damped_support(a_nodes)
    a_damped = a_nodes[support]
    return _split_step(state, scenario, support,
                       lambda h: itertools.repeat(h * a_damped), scenario.g)


# ---------------------------------------------------------------------------
# Run drivers
# ---------------------------------------------------------------------------

#: node values per block of recorded states whose diagnostics are evaluated
#: together: a run on n_nodes nodes takes max(1, RECORD_BLOCK_VALUES // n_nodes)
#: records per block
RECORD_BLOCK_VALUES = 2 ** 14


def _base_diagnostics(rho: Array, xi: Array, scenario: Scenario,
                      th: Array | None = None) -> dict[str, Array]:
    """E_p, dE_p/dt and max |z_t| of stacked states, one row per record.
    The damping term is -a g(z_t), or -a th z_t with the auxiliary problem's th."""
    dx = scenario.grid.dx
    a_nodes = scenario.a_nodes
    z_t = 0.5 * (rho - xi)
    ag = (-a_nodes * np.asarray(scenario.g.value(z_t)) if th is None
          else -a_nodes * th * z_t)
    diag: dict[str, Array] = {}
    for p in scenario.p_list:
        diag[f"E_p{p:g}"] = _energy.energy_p_nodal(rho, xi, p, dx)
        diag[f"dEdt_p{p:g}"] = _energy.dissipation_rate_nodal(rho, xi, ag, p, dx)
    diag["max_zt"] = np.max(np.abs(z_t), axis=-1)
    return diag


def _check_monotone(block: tuple[dict[str, Array], ...],
                    first: list[dict[str, float]], last: list[dict[str, float]],
                    times: Array) -> None:
    """Raise at the first record of `block` whose energy is not finite or
    rose above the record before it by more than MONOTONICITY_SLACK, relative
    to the initial energy when that exceeds 1.

    block holds one dict of per-record diagnostics per guarded trajectory;
    first and last hold their initial record and the record before the block.
    Records are screened in time order and, within one record, trajectory by
    trajectory and key by key, so the error is the one a record-by-record
    screen raises first.
    """
    hits = []
    for j, diag in enumerate(block):
        for key, energies in diag.items():
            if not key.startswith("E_p"):
                continue
            slack = MONOTONICITY_SLACK * max(1.0, first[j][key])
            before = np.concatenate(([last[j][key]], energies[:-1]))
            rises = np.flatnonzero(~np.isfinite(energies) | (energies > before + slack))
            if rises.size:
                i = int(rises[0])
                hits.append((i, j, key, float(before[i]), float(energies[i]), slack))
    if hits:
        i, j, key, prev, now, slack = min(hits, key=lambda hit: hit[:2])
        change = "increased" if np.isfinite(now) else "is not finite"
        raise EnergyMonotonicityError(
            f"{key} {change} at t = {times[i]}: {prev} -> {now} "
            f"(slack {slack}, E(0) = {first[j][key]})")


def _is_record(scenario: Scenario, n: int) -> bool:
    """Whether the state after step n (0-based) is recorded."""
    return (n + 1) % scenario.record_every == 0 or n + 1 == scenario.n_steps


def _record_loop(scenario: Scenario, state, advance: Callable,
                 capture: Callable[..., tuple[Array, ...]],
                 diagnose: Callable[..., tuple[dict[str, Array], ...]],
                 keep_states: bool
                 ) -> tuple[Array, tuple[Array, ...] | None, tuple[dict[str, Array], ...]]:
    """Step `state` (anything with a time `t`) to t_final and guard every
    energy of every record.

    capture(state) gives the 1-d arrays a record's diagnostics need. Each is
    written once, as a row of a preallocated buffer that holds every record
    with keep_states and one reused block of max(1, RECORD_BLOCK_VALUES //
    n_nodes) records otherwise. diagnose receives each buffer's rows of a
    block and returns one dict of per-record diagnostics per guarded
    trajectory. Returns (times, the buffers or None, diagnostics).
    """
    block_len = max(1, RECORD_BLOCK_VALUES // scenario.grid.n_nodes)
    n_records = 1 + -(-scenario.n_steps // scenario.record_every)
    rows = capture(state)
    buffers = tuple(np.empty((n_records if keep_states else min(block_len, n_records),
                              *row.shape)) for row in rows)
    times = np.empty(n_records)
    blocks: list[tuple[dict[str, Array], ...]] = []
    taken = done = 0  # records written; records diagnosed and guarded

    def flush() -> None:
        nonlocal done
        lo, done = done, taken  # set first: a block is guarded once, even if it raises
        start = lo if keep_states else 0  # a thin run's block starts at row 0
        block = diagnose(*(buf[start:start + taken - lo] for buf in buffers))
        first = [_row(d, 0) for d in (blocks[0] if blocks else block)]
        last = [_row(d, -1) for d in blocks[-1]] if blocks else first
        _check_monotone(block, first, last, times[lo:taken])
        blocks.append(block)

    def write(rows: tuple[Array, ...], t: float) -> None:
        nonlocal taken
        for buf, row in zip(buffers, rows):
            buf[taken if keep_states else taken - done] = row
        times[taken] = t
        taken += 1
        if taken - done == block_len:
            flush()

    try:
        write(rows, state.t)
        for n in range(scenario.n_steps):
            state = advance(state)
            if _is_record(scenario, n):
                write(capture(state), state.t)
    finally:
        # the last block, or the records taken before a failure: those are
        # guarded first, so an earlier energy rise stays the run's first error
        if taken > done:
            flush()
    diagnostics = tuple({k: np.concatenate([b[j][k] for b in blocks]) for k in d}
                        for j, d in enumerate(blocks[0]))
    return times, buffers if keep_states else None, diagnostics


def _row(diag: dict[str, Array], i: int) -> dict[str, float]:
    return {k: float(v[i]) for k, v in diag.items()}


def run_simulation(scenario: Scenario, keep_states: bool = True) -> Trajectory:
    """Integrate the nonlinear problem to t_final, recording diagnostics and
    asserting E_p monotonicity (for every p simultaneously) at each record."""
    state = scenario.initial.riemann(scenario.grid)

    def advance(s: RiemannState) -> RiemannState:
        return step(s, scenario, scenario.a_nodes, support=scenario.support)

    def diagnose(rho: Array, xi: Array) -> tuple[dict[str, Array]]:
        return (_base_diagnostics(rho, xi, scenario),)

    times, kept, (diag,) = _record_loop(
        scenario, state, advance, lambda s: (s.rho, s.xi), diagnose, keep_states)
    rho, xi = kept or (None, None)
    return Trajectory(times=times, rho=rho, xi=xi, diagnostics=diag,
                      scenario=scenario)


def run_auxiliary(scenario: Scenario, theta: ThetaField,
                  keep_states: bool = True) -> Trajectory:
    """Integrate the auxiliary linear time-varying problem
    y_tt - y_xx + a(x) theta(t, x) y_t = 0 with the same splitting; the
    damping substep is linear-implicit in closed form. theta is sampled at
    the midpoint of each substep interval, and once at each record time for
    the recorded dissipation rate."""
    grid = scenario.grid
    if theta.grid is not None and theta.grid != grid:
        raise ValueError("recorded theta field is bound to the run's grid")
    xs = grid.nodes
    support = scenario.support
    a_damped = scenario.a_nodes[support]
    state = scenario.initial.riemann(grid)

    def diagnose(rho: Array, xi: Array, th: Array) -> tuple[dict[str, Array]]:
        return (_base_diagnostics(rho, xi, scenario, th),)

    def advance(s: RiemannState) -> RiemannState:
        # substep midpoints: t0 + dt/4 and t0 + 3dt/4 (strang), t0 + dt/2 (lie)
        return _split_step(s, scenario, support, lambda h: (
            h * a_damped * theta(s.t + (k + 0.5) * h, xs)[support]
            for k in (0, 1)))

    times, kept, (diag,) = _record_loop(
        scenario, state, advance, lambda s: (s.rho, s.xi, theta(s.t, xs)),
        diagnose, keep_states)
    rho, xi, _ = kept or (None, None, None)  # the theta rows are not kept
    return Trajectory(times=times, rho=rho, xi=xi, diagnostics=diag,
                      scenario=scenario)


@dataclass(frozen=True)
class _PairedState:
    """The base state and the w = z_t state of a co-integrated run, with
    a g'(z_t) of the base on the damped slice (the next step's theta_n)."""

    base: RiemannState
    w: RiemannState
    theta: Array

    @property
    def t(self) -> float:
        return self.base.t


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
    dx = grid.dx
    g = scenario.g
    a_nodes, support = scenario.a_nodes, scenario.support
    a_damped = a_nodes[support]

    def theta(bs: RiemannState) -> Array:
        # a g'(z_t) on the damped slice; zero elsewhere
        zt = 0.5 * (bs.rho[support] - bs.xi[support])
        return a_damped * np.asarray(g.derivative(zt))

    def advance(s: _PairedState) -> _PairedState:
        base = step(s.base, scenario, a_nodes, support=support)
        theta_np1 = theta(base)
        w = _split_step(s.w, scenario, support,
                        lambda h: (h * th for th in (s.theta, theta_np1)))
        return _PairedState(base, w, theta_np1)

    def capture(s: _PairedState) -> tuple[Array, ...]:
        return s.base.rho, s.base.xi, s.w.rho, s.w.xi

    def diagnose(rho: Array, xi: Array, w_rho: Array, w_xi: Array
                 ) -> tuple[dict[str, Array], dict[str, Array]]:
        zt = 0.5 * (rho - xi)
        zt_x = 0.5 * (w_rho + w_xi)  # w_x with w = z_t
        w_diag: dict[str, Array] = {}
        for p in scenario.p_list:
            w_diag[f"E_pw{p:g}"] = _energy.energy_p_nodal(w_rho, w_xi, p, dx)
            w_diag[f"W1p_zt_p{p:g}"] = _energy.w1p_norm(zt, zt_x, p, dx)
            w_diag[f"Lp_zt_p{p:g}"] = _energy.lp_norm(zt, p, dx)
            w_diag[f"Lp_ztx_p{p:g}"] = _energy.lp_norm(zt_x, p, dx)
        w_diag["max_zt"] = np.max(np.abs(zt), axis=-1)
        return _base_diagnostics(rho, xi, scenario), w_diag

    base = scenario.initial.riemann(grid)
    w_state = scenario.initial.derivative_system_data(grid, a_nodes, g)
    times, kept, (base_diag, w_diag) = _record_loop(
        scenario, _PairedState(base, w_state, theta(base)), advance, capture,
        diagnose, keep_states)
    rho, xi, w_rho, w_xi = kept or (None,) * 4
    return (Trajectory(times=times, rho=rho, xi=xi, diagnostics=base_diag,
                       scenario=scenario),
            Trajectory(times=times, rho=w_rho, xi=w_xi, diagnostics=w_diag,
                       scenario=scenario))


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
    if sc.record_every != 1 or traj.rho is None:
        raise ValueError(
            "theta_from_run needs a dense run: record_every = 1 with states kept")
    g = sc.g
    dt = sc.dt
    t0 = float(traj.times[0])
    n_steps = sc.n_steps
    zt = 0.5 * (traj.rho - traj.xi)
    nu_records = nu_ratio(zt, g)
    zt_half = zt[:-1] - 0.5 * dt * sc.a_nodes[None, :] * np.asarray(g.value(zt[:-1]))
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
