"""Time integration of the Riemann-invariant system.

The grid is node-centered with dt = dx (unit CFL), so the linear transport
part is an exact index shift and every dissipation statement about the
damping is machine-checkable instead of being drowned in advection error.
The damping substep is backward Euler, which is unconditionally dissipative:
|u_new| <= |u_old| at every node whenever g is monotone with g(0) = 0.
The substeps act along the last axis of the state, so a family of runs, one
scenario from several initial data (run_family), steps as the rows of one
(B, n_nodes) state, each row bitwise equal to its run alone.
"""
from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import energy as _energy
from .core import (
    HALF, ONE, ZERO, Array, DampingProfile, Grid, Nonlinearity, Profile, RiemannState,
    nu_ratio,
)

NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-14  # on the residual, scaled by max(1, |u_old|) per node
MONOTONICITY_SLACK = 1e-12
#: the most steps a scenario may take, checked when Scenario.record_times is built
MAX_STEPS = 2 ** 30


class EnergyMonotonicityError(RuntimeError):
    """E_p increased beyond tolerance: the scheme is dissipative by
    construction, so this signals a bug (or an injected fault).

    Raised for row b of a family's (B, n_nodes) state, it carries row = b
    until run_family names that row in the message."""


class NewtonError(RuntimeError):
    """The implicit damping solve failed; carries row = b as
    EnergyMonotonicityError does."""


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
    def record_steps(self) -> Array:
        """The record schedule: the steps a run records, every record_every-th
        from 0 and the final one, in increasing order. Built once, read-only."""
        steps = np.append(np.arange(0, self.n_steps, self.record_every), self.n_steps)
        steps.setflags(write=False)
        return steps

    @functools.cached_property
    def record_times(self) -> Array:
        """The record times, known before a run and the times it records:
        record k at record_steps[k] * dt, so the final record at n dt. Built
        once, read-only: the parser, the run and its consumers share the one
        array. ValueError above MAX_STEPS steps."""
        if self.n_steps > MAX_STEPS:
            raise ValueError(f"{self.n_steps:.3g} steps, past the cap of "
                             f"MAX_STEPS = {MAX_STEPS} steps per run")
        times = self.record_steps * self.dt
        times.setflags(write=False)
        return times

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

    @property
    def substep_lengths(self) -> tuple[float, ...]:
        """The length h of each damping substep of a step, in order."""
        return (0.5 * self.dt,) * 2 if self.splitting == "strang" else (self.dt,)

    @functools.cached_property
    def substep_coef(self) -> Array:
        """_substep_coef on `support`, built once per scenario."""
        return _substep_coef(self.a_nodes[self.support], self.substep_lengths[0], self.g)


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
        if np.count_nonzero(th < th1 - tol) or np.count_nonzero(th > th2 + tol):
            raise ThetaBoundError(
                f"theta outside [{th1}, {th2}] at t = {t}: "
                f"range [{th.min()}, {th.max()}]")
        return th


@dataclass
class Trajectory:
    """Record times and per-record diagnostics of one run. A run keeps no
    states: a caller sees them through the drivers' block consumer."""

    times: Array
    diagnostics: dict[str, Array]
    scenario: Scenario

    def energy_series(self, p: float) -> Array:
        return self.diagnostics[f"E_p{p:g}"]


# ---------------------------------------------------------------------------
# Substeps
# ---------------------------------------------------------------------------

class _Track:
    """A run's state, stepped in place. rho and xi are windows of n_nodes
    nodes in buffers of twice the grid's length: shift() moves the rho
    window one node right and the xi window one node left, and every
    n_nodes shifts copies both windows back to the ends of their buffers,
    rho's to the start and xi's to the end. The damping substep writes the
    windows in place. Built from a RiemannState, whose arrays it copies once."""

    __slots__ = ("rho", "xi", "t", "_rho_buf", "_xi_buf", "_shifts", "_flat")

    def __init__(self, state: RiemannState) -> None:
        n = state.rho.shape[-1]
        self._rho_buf = np.empty((*state.rho.shape[:-1], 2 * n))
        self._xi_buf = np.empty(self._rho_buf.shape)
        self._rho_buf[..., :n] = state.rho
        self._xi_buf[..., n:] = state.xi
        self._shifts = 0  # since the windows were last at the ends
        self._flat = state.rho.ndim == 1  # one run: plain slices, no `...`
        self.rho, self.xi = self._rho_buf[..., :n], self._xi_buf[..., n:]
        self.t = state.t

    def shift(self, dx: float) -> None:
        """transport_shift in place: rho_i <- rho_{i+1} and xi_i <- xi_{i-1}
        as a move of the windows, then the two wall values."""
        n = self.rho.shape[-1]
        k = self._shifts = self._shifts + 1
        if self._flat:
            rho, xi = self._rho_buf[k:k + n], self._xi_buf[n - k:2 * n - k]
            xi[0] = rho[0]
            rho[-1] = xi[-1]
        else:
            rho, xi = self._rho_buf[..., k:k + n], self._xi_buf[..., n - k:2 * n - k]
            xi[..., 0] = rho[..., 0]
            rho[..., -1] = xi[..., -1]
        self.rho, self.xi = rho, xi
        if k == n:  # the windows reached the far ends: copy them back
            self._rho_buf[..., :n] = self.rho
            self._xi_buf[..., n:] = self.xi
            self._shifts = 0
            self.rho, self.xi = self._rho_buf[..., :n], self._xi_buf[..., n:]
        self.t = self.t + dx

    def state(self) -> RiemannState:
        return RiemannState(rho=self.rho, xi=self.xi, t=self.t)


def transport_shift(state: RiemannState | _Track, grid: Grid) -> RiemannState | _Track:
    """One exact advection step of size dt = dx, then wall reflection.

    rho moves left (rho_i <- rho_{i+1}), xi moves right (xi_i <- xi_{i-1});
    the incoming characteristics are closed by xi(0) <- rho(0), rho(N) <- xi(N).
    Every row of a (B, n_nodes) state shifts the same way. A _Track shifts
    in place, as an index shift of its windows, and is returned; a
    RiemannState is copied once into a fresh _Track and never written.
    """
    if isinstance(state, _Track):
        state.shift(grid.dx)
        return state
    track = _Track(state)
    track.shift(grid.dx)
    return track.state()


def _implicit_damping_update(u_old: Array, c: Array, g: Nonlinearity) -> Array:
    """Solve u + c g(u) = u_old nodewise (backward Euler for u' = -a g(u)).

    Monotone g makes the map strictly increasing, so the root is unique and
    lies between 0 and u_old: safeguarded Newton from u_old, with a bisection
    fallback (a linear g takes the substep's closed form, _substep_coef).

    Newton takes at most NEWTON_MAX_ITER updates, in one loop; 0 means none,
    and the fallback starts from u_old. The first two updates are untested,
    since almost no solve passes before them, the first with its residual
    c g(u_old); the residual is tested before each later one. A node passes
    when |resid| <= NEWTON_TOL max(1, |u_old|); that bound is >= NEWTON_TOL,
    so the test compares with NEWTON_TOL first and builds the per-node bound
    only when some node fails there, or for the fallback. From the third
    update on, which only a solve that fails its first test reaches, each
    iterate is clipped into the root's bracket [min(0, u_old), max(0, u_old)]:
    for a bounded g at large c, Newton overshoots that bracket and diverges.

    u_old may hold rows (B, m), with c of shape (m,) or (B, m). Each row
    stops iterating once all of its nodes pass, and falls back to bisection
    on its own, so every row takes exactly the updates of its solve alone.
    The result is a fresh array; u_old, c and what g returns are never written.
    """
    abs_tol = np.array(NEWTON_TOL)  # read per call, as NEWTON_MAX_ITER: tests patch both
    tol = None  # abs_tol max(1, |u_old|), built when first needed
    lo, hi = np.minimum(ZERO, u_old), np.maximum(ZERO, u_old)  # the root's bracket
    family = u_old.ndim > 1 and len(u_old) > 1
    u = u_old  # until the first update
    resid = c * g.value(u_old)  # u_old + c g(u_old) - u_old, in one pass
    for k in range(NEWTON_MAX_ITER):
        if k >= 2:
            abs_resid = np.abs(resid)
            ok = abs_resid <= abs_tol
            passed = np.count_nonzero(ok) == ok.size
            if not passed:  # the nodes that fail here may pass their own bound
                if tol is None:
                    tol = abs_tol * np.maximum(ONE, np.abs(u_old))
                ok = abs_resid <= tol
                passed = np.count_nonzero(ok) == ok.size
            if passed:
                break
        # u - resid / (1 + c g'(u)): one array holds the denominator, then the
        # step, then the new u, another the residual. A ufunc's third positional
        # argument is its output, parsed faster than out= (np.maximum needs out=)
        du = c * g.derivative(u)
        np.add(ONE, du, du)
        np.divide(resid, du, du)
        if family and k >= 2:  # the rows that passed stay put: u - 0.0 is u
            du[np.logical_and.reduce(ok, axis=-1)] = 0.0
        u = np.subtract(u, du, du)
        if k >= 2:
            np.maximum(u, lo, out=u)
            np.minimum(u, hi, out=u)
        resid = c * g.value(u)
        np.add(u, resid, resid)
        np.subtract(resid, u_old, resid)
    else:  # no pass within NEWTON_MAX_ITER updates: bisect the nodes still failing
        if tol is None:
            tol = abs_tol * np.maximum(ONE, np.abs(u_old))
        bad = np.abs(resid) > tol
        u = u.copy()  # written below, and still u_old if no update ran
        c = np.broadcast_to(c, u.shape)
        for row in np.ndindex(u.shape[:-1]):  # a 1-d solve is the one row ()
            b = bad[row]
            if not b.any():
                continue
            try:
                u[row][b] = _bisect_damping(u_old[row][b], c[row][b], g, tol[row][b])
            except NewtonError as err:
                if row:
                    err.row = row[0]
                raise
    # clamp against roundoff overshoot, written into the bracket's lower bound
    np.maximum(u, lo, out=lo)
    return np.minimum(lo, hi, out=lo)


def _bisect_damping(u_old: Array, c: Array, g: Nonlinearity, tol: Array) -> Array:
    lo = np.minimum(0.0, u_old)
    hi = np.maximum(0.0, u_old)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        resid = mid + c * np.asarray(g.value(mid)) - u_old
        if (np.count_nonzero(np.abs(resid) <= tol) == resid.size
                or np.count_nonzero(hi - lo <= 1e-16 * np.abs(hi)) == hi.size):
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


def _substep_coef(a_damped: Array, h: float, g: Nonlinearity) -> Array:
    """A damping substep's coefficient on the damped slice, read-only: c = h a,
    or for a linear g, which the substep gets as g = None, 1 + c slope."""
    coef = h * a_damped if g.linear_slope is None else 1.0 + h * a_damped * g.linear_slope
    coef.setflags(write=False)
    return coef


def _damping_substep_nodal(state: RiemannState | _Track, coef: Array, support: slice,
                           g: Nonlinearity | None = None) -> RiemannState | _Track:
    """Backward-Euler damping substep on the slice `support` of the last
    axis, with coef given on that slice, in place. z_x = (rho + xi)/2 is
    untouched; only u = z_t relaxes: g solves u + coef g(u) = u_old; g = None
    is the closed form of a linear coefficient, u <- u / coef, coef the
    denominator 1 + c.

    The state's own rho and xi are updated on the slice only, by rho + d and
    xi - d with d = u_new - u, and the state is returned: the same
    operations, node for node, as on the whole grid, where c = 0 off the
    slice adds d = 0.0, which only turns a -0.0 into +0.0. u and d are the
    substep's own arrays, written in place; coef is never written.
    """
    r, x = state.rho[..., support], state.xi[..., support]  # views: written in place
    u = np.subtract(r, x)  # outputs are third arguments, as in the Newton update
    np.multiply(HALF, u, u)
    d = u / coef if g is None else _implicit_damping_update(u, coef, g)
    np.subtract(d, u, d)
    np.add(r, d, r)
    np.subtract(x, d, x)
    return state


def _split_step(track: _Track, scenario: Scenario, support: slice,
                coefs: Sequence[Array], g: Nonlinearity | None = None) -> _Track:
    """One step of the splitting, in place on track: strang = damp(dt/2) o
    transport o damp(dt/2); lie = transport o damp(dt).

    coefs holds each damping substep's coefficient on `support`, with g as
    _damping_substep_nodal takes them: lie reads one, strang two. An empty
    support takes no damping substep, which would write nothing.
    """
    damped = support.stop > support.start
    if damped:
        _damping_substep_nodal(track, coefs[0], support, g)
    transport_shift(track, scenario.grid)
    if damped and scenario.splitting == "strang":
        _damping_substep_nodal(track, coefs[1], support, g)
    return track


def step(state: RiemannState | _Track, scenario: Scenario,
         a_nodes: Array | None = None) -> RiemannState | _Track:
    """One full step of the nonlinear problem. A run driver's _Track steps
    in place and is returned; a RiemannState is copied once into a fresh
    _Track and never written. a_nodes defaults to scenario.a_nodes. Given
    scenario.a_nodes itself, as run drivers pass it, the step damps with
    the table scenario.substep_coef on scenario.support; other arrays build
    their coefficient on their damped_support."""
    if a_nodes is None or a_nodes is scenario.a_nodes:
        support, coef = scenario.support, scenario.substep_coef
    else:
        support = damped_support(a_nodes)
        coef = _substep_coef(a_nodes[support], scenario.substep_lengths[0], scenario.g)
    g = None if scenario.g.linear_slope is not None else scenario.g
    if isinstance(state, _Track):
        return _split_step(state, scenario, support, (coef, coef), g)
    return _split_step(_Track(state), scenario, support, (coef, coef), g).state()


# ---------------------------------------------------------------------------
# Run drivers
# ---------------------------------------------------------------------------

#: node values per block of recorded states that are evaluated together, by
#: the record loop's diagnostics, its block consumers and every pass over
#: stacked states: a run on n_nodes nodes takes max(1, RECORD_BLOCK_VALUES
#: // n_nodes) records per block; _keep_block_heap keeps their heap mapped
RECORD_BLOCK_VALUES = 2 ** 14


# Block arrays are 128 KiB, glibc's default top pad, and several are live in
# each block's diagnostics: a 4 MiB pad keeps them from faulting back in.
@functools.cache
def _keep_block_heap() -> None:
    """Set glibc's M_TOP_PAD once per process; a no-op without mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: no CDLL(None) on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-2, 4 << 20)  # M_TOP_PAD


def _block_len(values_per_record: int) -> int:
    return max(1, RECORD_BLOCK_VALUES // values_per_record)


def record_blocks(n_records: int, n_nodes: int) -> Iterator[slice]:
    """Consecutive slices covering range(n_records), one per block of
    max(1, RECORD_BLOCK_VALUES // n_nodes) records; the last may be shorter.
    A pass over recorded states that evaluates each record on its own gives
    the same bits block by block as on the whole stack."""
    block_len = _block_len(n_nodes)
    for lo in range(0, n_records, block_len):
        yield slice(lo, min(lo + block_len, n_records))


def _base_diagnostics(rho: Array, xi: Array, scenario: Scenario,
                      th: Array | None = None, *, rates: bool = True) -> dict[str, Array]:
    """E_p, dE_p/dt and max |z_t| of stacked states, one row per record.
    The damping term is -a g(z_t), or -a th z_t with the auxiliary problem's th.
    rates=False leaves out every dE_p/dt and the damping term, g included;
    the other keys keep their order and bits."""
    dx = scenario.grid.dx
    a_nodes = scenario.a_nodes
    z_t = 0.5 * (rho - xi)
    if rates:
        ag = (-a_nodes * np.asarray(scenario.g.value(z_t)) if th is None
              else -a_nodes * th * z_t)
    diag: dict[str, Array] = {}
    for p in scenario.p_list:
        diag[f"E_p{p:g}"] = _energy.energy_p_nodal(rho, xi, p, dx)
        if rates:
            diag[f"dEdt_p{p:g}"] = _energy.dissipation_rate(rho, xi, ag, p, dx)
    diag["max_zt"] = np.max(np.abs(z_t), axis=-1)
    return diag


def _check_monotone(block: tuple[dict[str, Array], ...],
                    first: list[dict[str, Array]], last: list[dict[str, Array]],
                    times: Array) -> None:
    """Raise at the first record of `block` whose energy is not finite or
    rose above the record before it by more than MONOTONICITY_SLACK, relative
    to the initial energy when that exceeds 1.

    block holds one dict of per-record diagnostics per guarded trajectory,
    each of shape (records,) or, for the rows of a family, (records, B);
    first and last hold their initial record and the record before the block.
    Records are screened in time order and, within one record, row by row,
    trajectory by trajectory and key by key, so the error is the one a
    record-by-record screen of each row alone raises first. The error for a
    row of a family carries row = b.
    """
    hits = []
    for j, diag in enumerate(block):
        for key, energies in diag.items():
            if not key.startswith("E_p"):
                continue
            slack = MONOTONICITY_SLACK * np.maximum(1.0, first[j][key])
            before = np.concatenate(([last[j][key]], energies[:-1]))
            rises = np.argwhere(~np.isfinite(energies) | (energies > before + slack))
            if rises.size:
                i, *row = rises[0].tolist()  # row: [] for one run, [b] in a family
                at = (i, *row)
                hits.append((i, row, j, key, float(before[at]), float(energies[at]),
                             float(slack[tuple(row)]), float(first[j][key][tuple(row)])))
    if hits:
        i, row, j, key, prev, now, slack, e0 = min(hits, key=lambda hit: hit[:3])
        change = "increased" if np.isfinite(now) else "is not finite"
        err = EnergyMonotonicityError(
            f"{key} {change} at t = {times[i]}: {prev} -> {now} "
            f"(slack {slack}, E(0) = {e0})")
        if row:
            err.row = row[0]
        raise err


def _record_loop(scenario: Scenario, state, advance: Callable,
                 capture: Callable[..., tuple[Array, ...]],
                 diagnose: Callable[..., tuple[dict[str, Array], ...]],
                 consume: Callable[..., None] | None = None
                 ) -> tuple[Array, tuple[dict[str, Array], ...]]:
    """Step `state` to t_final, recording it at scenario.record_steps, and
    guard every energy of every record.

    capture(state) gives the arrays a record's diagnostics need, (n_nodes,)
    or (B, n_nodes) for a family. Each is written once, as a row of a reused
    buffer of max(1, RECORD_BLOCK_VALUES // size) records. diagnose receives
    each buffer's rows of a block, the records captured since its last call,
    and returns one dict of per-record diagnostics per guarded trajectory.
    consume(records, *rows) gets each guarded block's slice of record indices
    and its rows, views that the next block overwrites: the only way a caller
    sees the states. Returns (times, diagnostics), times being
    scenario.record_times: record k at record_steps[k] * dt, read from no state
    (a state's t accumulates dx, which off powers of two ends ulps away).
    """
    _keep_block_heap()
    rows = capture(state)
    steps = scenario.record_steps.tolist()  # read once per run
    times = scenario.record_times
    n_records = len(steps)
    block_len = min(_block_len(rows[0].size), n_records)
    buffers = tuple(np.empty((block_len, *row.shape)) for row in rows)
    blocks: list[tuple[dict[str, Array], ...]] = []
    taken = done = 0  # records written; records diagnosed and guarded

    def flush() -> None:
        nonlocal done
        lo, done = done, taken  # set first: a block is guarded once, even if it raises
        block = tuple(buf[:taken - lo] for buf in buffers)
        diag = diagnose(*block)
        first = [_row(d, 0) for d in (blocks[0] if blocks else diag)]
        last = [_row(d, -1) for d in blocks[-1]] if blocks else first
        _check_monotone(diag, first, last, times[lo:taken])
        blocks.append(diag)
        if consume is not None:
            consume(slice(lo, taken), *block)

    def write(rows: tuple[Array, ...]) -> None:
        nonlocal taken
        for buf, row in zip(buffers, rows):
            buf[taken - done] = row
        taken += 1
        if taken - done == block_len:
            flush()

    try:
        write(rows)
        for n in range(1, steps[-1] + 1):
            state = advance(state)
            if n == steps[taken]:
                write(capture(state))
    finally:
        # the last block, or the records taken before a failure: those are
        # guarded first, so an earlier energy rise stays the run's first error
        if taken > done:
            flush()
    diagnostics = tuple({k: np.concatenate([b[j][k] for b in blocks]) for k in d}
                        for j, d in enumerate(blocks[0]))
    return times, diagnostics


def _row(diag: dict[str, Array], i: int) -> dict[str, Array]:
    return {k: v[i] for k, v in diag.items()}


def run_simulation(scenario: Scenario,
                   consume: Callable[..., None] | None = None, *,
                   rates: bool = True) -> Trajectory:
    """Integrate the nonlinear problem to t_final, recording diagnostics and
    asserting E_p monotonicity (for every p simultaneously) at each record:
    run_family's one row, scenario's own, consume and rates as there."""
    return run_family(scenario, {scenario.name: scenario.initial}, consume, rates=rates)[0]


def run_family(scenario: Scenario, rows: Mapping[str, InitialData],
               consume: Callable[..., None] | None = None, *,
               rates: bool = True) -> list[Trajectory]:
    """scenario run from each row's initial data, the rows stepped as one
    (B, n_nodes) state so that each numpy call serves every row.

    rows maps each row's name to its initial data; every other field is
    scenario's. A row's trajectory carries replace(scenario, name=name,
    initial=initial), or scenario itself for its own name and data, and is
    bitwise run_simulation of that scenario. Each row is guarded on its own:
    the first energy rise in (time, row) order raises, and for B > 1 its
    error, or a NewtonError, starts with "<row name>: ". consume(records, rho,
    xi) gets each guarded block of rows, (records, [B,] n_nodes). One row
    steps as a 1-d state, and no rows return []. rates=False records no
    dEdt_p keys (_base_diagnostics), for a caller that reads none."""
    if not rows:
        return []
    scenarios = [scenario if (name, initial) == (scenario.name, scenario.initial)
                 else replace(scenario, name=name, initial=initial)
                 for name, initial in rows.items()]
    starts = [initial.riemann(scenario.grid) for initial in rows.values()]
    stacked = len(starts) > 1
    track = _Track(RiemannState(rho=np.stack([s.rho for s in starts]),
                                xi=np.stack([s.xi for s in starts]), t=0.0)
                   if stacked else starts[0])

    def advance(s: _Track) -> _Track:
        return step(s, scenario, scenario.a_nodes)

    def diagnose(rho: Array, xi: Array) -> tuple[dict[str, Array]]:
        return (_base_diagnostics(rho, xi, scenario, rates=rates),)

    try:
        times, (diag,) = _record_loop(
            scenario, track, advance, lambda s: (s.rho, s.xi), diagnose, consume)
    except (EnergyMonotonicityError, NewtonError) as err:
        if not hasattr(err, "row"):
            raise
        raise type(err)(f"{scenarios[err.row].name}: {err}") from err
    if not stacked:
        return [Trajectory(times=times, diagnostics=diag, scenario=scenarios[0])]
    return [Trajectory(times, {k: v[:, b].copy() for k, v in diag.items()}, sc)
            for b, sc in enumerate(scenarios)]


def run_auxiliary(scenario: Scenario, theta: ThetaField,
                  consume: Callable[..., None] | None = None) -> Trajectory:
    """Integrate the auxiliary linear time-varying problem
    y_tt - y_xx + a(x) theta(t, x) y_t = 0 with the same splitting; the
    damping substep is linear-implicit in closed form. theta is sampled at the
    midpoint of each substep interval, and once at each record time, as one
    more recorded row, for the recorded dissipation rate. consume(records,
    rho, xi, th) gets each guarded record block, as _record_loop hands it out."""
    grid = scenario.grid
    if theta.grid is not None and theta.grid != grid:
        raise ValueError("recorded theta field is bound to the run's grid")
    xs = grid.nodes
    support = scenario.support
    # h a on the damped slice per substep: h a theta is (h a) theta, bit for bit
    has = [h * scenario.a_nodes[support] for h in scenario.substep_lengths]
    track = _Track(scenario.initial.riemann(grid))

    def diagnose(rho: Array, xi: Array, th: Array) -> tuple[dict[str, Array]]:
        return (_base_diagnostics(rho, xi, scenario, th),)

    def advance(s: _Track) -> _Track:
        # substep midpoints: t0 + dt/4 and t0 + 3dt/4 (strang), t0 + dt/2 (lie)
        return _split_step(s, scenario, support, [
            ONE + ha * theta(s.t + (k + 0.5) * h, xs)[support]
            for k, (h, ha) in enumerate(zip(scenario.substep_lengths, has))])

    times, (diag,) = _record_loop(
        scenario, track, advance, lambda s: (s.rho, s.xi, theta(s.t, xs)), diagnose,
        consume)
    return Trajectory(times=times, diagnostics=diag, scenario=scenario)


def run_derivative_system(scenario: Scenario,
                          consume: Callable[..., None] | None = None, *,
                          rates: bool = True) -> tuple[Trajectory, Trajectory]:
    """Co-integrate the nonlinear run and the w = z_t system.

    Differentiating the PDE in time gives w_tt - w_xx + a(x) g'(w) w_t = 0,
    i.e. the auxiliary structure with coefficient g'(z_t) read from the base
    run (the first half-substep uses z_t at t_n, the second at t_{n+1};
    symmetric over the step). Records E_p(w) and the W^{1,p} norm of z_t,
    and asserts monotonicity of the base E_p and of E_p(w) at each record.
    consume(records, rho, xi, w_rho, w_xi) gets each guarded record block, as
    _record_loop hands it out. rates applies to the base run, as in
    run_family. Returns (base trajectory, w trajectory).
    """
    grid = scenario.grid
    dx = grid.dx
    g = scenario.g
    a_nodes, support = scenario.a_nodes, scenario.support
    a_damped = a_nodes[support]
    h = np.array(scenario.substep_lengths[0])  # every substep's length

    def denominator(bs: _Track) -> Array:
        # 1 + h theta with theta = a g'(z_t) on the damped slice; zero elsewhere
        zt = HALF * (bs.rho[support] - bs.xi[support])
        return ONE + h * (a_damped * np.asarray(g.derivative(zt)))

    base = _Track(scenario.initial.riemann(grid))
    w = _Track(scenario.initial.derivative_system_data(grid, a_nodes, g))
    den_n = denominator(base)  # the next step's first denominator

    def advance(pair: tuple[_Track, _Track]) -> tuple[_Track, _Track]:
        # strang damps with theta at t_n, then t_{n+1}; lie with theta at t_n
        nonlocal den_n
        step(base, scenario, a_nodes)
        den_np1 = denominator(base)
        _split_step(w, scenario, support, (den_n, den_np1))
        den_n = den_np1
        return pair

    def capture(pair: tuple[_Track, _Track]) -> tuple[Array, ...]:
        return base.rho, base.xi, w.rho, w.xi

    def diagnose(rho: Array, xi: Array, w_rho: Array, w_xi: Array
                 ) -> tuple[dict[str, Array], dict[str, Array]]:
        base_diag = _base_diagnostics(rho, xi, scenario, rates=rates)
        zt = 0.5 * (rho - xi)
        zt_x = 0.5 * (w_rho + w_xi)  # w_x with w = z_t
        w_diag: dict[str, Array] = {}
        for p in scenario.p_list:
            w_diag[f"E_pw{p:g}"] = _energy.energy_p_nodal(w_rho, w_xi, p, dx)
            w_diag[f"W1p_zt_p{p:g}"] = _energy.w1p_norm(zt, zt_x, p, dx)
            w_diag[f"Lp_zt_p{p:g}"] = _energy.lp_norm(zt, p, dx)
            w_diag[f"Lp_ztx_p{p:g}"] = _energy.lp_norm(zt_x, p, dx)
        return base_diag, w_diag

    times, (base_diag, w_diag) = _record_loop(
        scenario, (base, w), advance, capture, diagnose, consume)
    return (Trajectory(times=times, diagnostics=base_diag, scenario=scenario),
            Trajectory(times=times, diagnostics=w_diag, scenario=scenario))


def _nu_block(rho: Array, xi: Array, n_half: int, scenario: Scenario
              ) -> tuple[Array, Array]:
    """The recorded theta of a block of records, one row each: nu(z_t) of
    the records, and nu of an explicit half step of the nodal damping flow
    z_t' = -a g(z_t) from the first n_half of them, the records a step
    follows."""
    g = scenario.g
    zt = 0.5 * (rho - xi)
    nu_records = nu_ratio(zt, g)
    left = zt[:n_half]
    if not len(left):
        return nu_records, left
    return nu_records, nu_ratio(
        left - 0.5 * scenario.dt * scenario.a_nodes * np.asarray(g.value(left)), g)


def run_auxiliary_rerun(scenario: Scenario) -> tuple[Trajectory, Trajectory]:
    """The nonlinear run and its auxiliary rerun with recorded theta, bit
    for bit as run_simulation, theta_from_run and run_auxiliary give them
    on the run's stacked states, with no state kept.

    Each record block of the nonlinear run gives nu of its records and half
    steps (_nu_block) and steps the rerun, one record behind, to the block's
    last record. Step n damps with nu_half[n], then nu_records[n + 1]
    (strang), or with nu_records[n + 1] alone (lie); record k reads
    nu_records[k]. The rerun's state and the last record's nu_half row
    cross a block edge. Both runs are guarded, as in run_derivative_system.
    The rerun records no dissipation rates: its diagnostics are E_p and
    max_zt and, per record, "discrepancy" (max |rho - rho_aux| and |xi -
    xi_aux| over the nodes) and "theta_min" and "theta_max" of nu at the
    record and its half step. Returns (nonlinear, auxiliary) trajectories.
    """
    if scenario.record_every != 1:
        raise ValueError("run_auxiliary_rerun needs dense records: record_every = 1")
    support = scenario.support
    a_nodes = scenario.a_nodes
    ha = scenario.substep_lengths[0] * a_nodes[support]  # h a on the damped slice
    strang = scenario.splitting == "strang"
    start = scenario.initial.riemann(scenario.grid)
    aux = _Track(start)  # the rerun's latest record: lo - 1, or 0 before the first block
    carried: Array | None = None  # 1 + c of nu_half of record lo - 1
    lo = 0  # the block's first record

    def advance(s: _Track) -> _Track:
        return step(s, scenario, a_nodes)

    def diagnose(rho: Array, xi: Array) -> tuple[dict[str, Array], dict[str, Array]]:
        nonlocal carried, lo
        nu_records, nu_half = _nu_block(rho, xi, scenario.n_steps - lo, scenario)
        den_records = 1.0 + ha * nu_records[:, support]
        den_half = 1.0 + ha * nu_half[:, support]
        aux_rho, aux_xi = np.empty(rho.shape), np.empty(xi.shape)
        for i, den_next in enumerate(den_records):
            if lo + i:  # record 0 is the initial state
                half = carried if i == 0 else den_half[i - 1]
                dens = (half, den_next) if strang else (den_next,)
                _split_step(aux, scenario, support, dens)
            aux_rho[i], aux_xi[i] = aux.rho, aux.xi
        carried = den_half[-1] if len(den_half) == len(rho) else None
        lo += len(rho)
        aux_diag = _base_diagnostics(aux_rho, aux_xi, scenario, rates=False)
        aux_diag["discrepancy"] = np.maximum(np.max(np.abs(rho - aux_rho), axis=-1),
                                             np.max(np.abs(xi - aux_xi), axis=-1))
        th_min, th_max = np.min(nu_records, axis=-1), np.max(nu_records, axis=-1)
        k = len(nu_half)
        np.minimum(th_min[:k], np.min(nu_half, axis=-1), out=th_min[:k])
        np.maximum(th_max[:k], np.max(nu_half, axis=-1), out=th_max[:k])
        aux_diag["theta_min"], aux_diag["theta_max"] = th_min, th_max
        return _base_diagnostics(rho, xi, scenario), aux_diag

    times, (diag, aux_diag) = _record_loop(
        scenario, _Track(start), advance, lambda s: (s.rho, s.xi), diagnose)
    return (Trajectory(times=times, diagnostics=diag, scenario=scenario),
            Trajectory(times=times, diagnostics=aux_diag, scenario=scenario))


def theta_from_run(scenario: Scenario, rho: Array, xi: Array) -> ThetaField:
    """The linearizing coefficient theta(t, x) = nu(z_t) along a nonlinear
    run of scenario, recorded densely (record_every = 1) as the stacked
    states rho and xi, (n_records, n_nodes), and reconstructed at in-step
    sampling times.

    Between records only the damping substeps act at a node, so z_t inside a
    step follows the nodal damping flow z_t' = -a g(z_t). Sampling in the
    first half of a step returns nu of an explicit half-step of that flow from
    the left record; sampling in the second half returns nu of the right
    record, which is itself the post-damping state. The midpoint, where the
    lie substep samples, counts as the second half up to the rounding of the
    accumulated t, so the lie rerun reads the right record at every N. With
    the strang arrangement this tracks the linearizer of each nonlinear
    implicit substep to O(dt^2), so the frozen-theta rerun reproduces the
    nonlinear run at second order; plain interpolation of the records only
    manages O(dt), because the substep states sit off the fixed-node
    interpolation path.

    nu of the records and of their half steps is evaluated one record block
    at a time (record_blocks, _nu_block): only the two tables the field
    samples, (n_records, n_nodes) and (n_records - 1, n_nodes), exist at
    full length, and z_t and the half steps one block at a time.
    run_auxiliary_rerun takes the same values block by block without
    keeping any.
    """
    dt = scenario.dt
    n_steps = scenario.n_steps
    n_records, n_nodes = n_steps + 1, scenario.grid.n_nodes
    if scenario.record_every != 1 or not rho.shape == xi.shape == (n_records, n_nodes):
        raise ValueError(f"theta_from_run needs a dense run (record_every = 1) and its "
                         f"{(n_records, n_nodes)} states, got {rho.shape} and {xi.shape}")
    nu_records = np.empty((n_records, n_nodes))
    nu_half = np.empty((n_records - 1, n_nodes))
    for rows in record_blocks(n_records, n_nodes):
        nu_records[rows], half = _nu_block(rho[rows], xi[rows],
                                           n_records - 1 - rows.start, scenario)
        nu_half[rows.start:rows.start + len(half)] = half
    th1 = float(min(nu_records.min(), nu_half.min()))
    th2 = float(max(nu_records.max(), nu_half.max()))

    def sampler(t: float, x: Array) -> Array:
        pos = t / dt
        n = min(max(int(np.floor(pos + 1e-9)), 0), n_steps - 1)
        frac = pos - n
        if frac <= 1e-9:
            return nu_records[n]
        if frac < 0.5 - 1e-9:
            return nu_half[n]
        return nu_records[n + 1]

    return ThetaField(sampler=sampler, bounds=(th1, th2), grid=scenario.grid)
