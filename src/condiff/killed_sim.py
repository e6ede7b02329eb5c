"""Euler-Maruyama simulation of killed paths with bridge exit correction.

Paths evolve on a fixed step dt.  An exit is detected either at a grid
node (the new position left the open domain) or, when the bridge
correction is on, by a Bernoulli draw with the within-step boundary
crossing probability of the pinned bridge between consecutive
positions; bridge kills are stamped at the midpoint of their step.
Killed paths keep moving so later consumers can read their occupation
time outside the domain and their recorded controls; they are simply
excluded from conditional statistics.

All randomness is addressed by (seed, purpose, step), which makes runs
bit-identical regardless of how callers parallelize around them.  A run
may also carry B blocks of N particles in one pass, each bit for bit a
run of its own: under a PolicyStack every block sees the same initial
sample and the same draws, so block b is the run of policies[b] alone;
under Restarts every block starts at its own time from its own sample
and draws from its own seed, so block b is the run restarted there.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import NumericalError, SurvivorDepletion
from .geometry import BOUNDARY_TOL
from .measures import EmpiricalMeasure, MeasureFlow, conditional_empirical
from .model import (FeedbackPolicy, ModelSpec, OpenLoopControl, PolicyStack,
                    drift_given_mean)

_TIME_TOL = 1e-9


def uniform_grid(t_end: float, step: float, t_start: float = 0.0) -> np.ndarray:
    """Output grid t_start, t_start + step, ..., t_end (endpoint exact)."""
    count = int(round((t_end - t_start) / step))
    if count < 1 or abs(t_start + count * step - t_end) > _TIME_TOL:
        raise ValueError("step must divide the interval evenly")
    grid = t_start + np.arange(count + 1) * step
    grid[-1] = t_end
    return grid


@dataclass(frozen=True)
class SimConfig:
    """Ensemble size, step, seed, output grid, and kill options."""

    n_particles: int
    dt: float
    seed: int
    grid: np.ndarray
    bridge_correction: bool = True
    min_survivors: int = 1
    record_controls: bool = True
    record_outside_time: bool = True

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be at least 1")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.min_survivors < 0 or self.min_survivors > self.n_particles:
            raise ValueError("min_survivors must lie in [0, n_particles]")
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.shape[0] < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be an increasing vector with >= 2 nodes")
        steps = (grid - grid[0]) / self.dt
        if np.any(np.abs(steps - np.round(steps)) > 1e-6):
            raise ValueError("grid nodes must be multiples of dt")
        object.__setattr__(self, "grid", grid)

    def node_steps(self) -> np.ndarray:
        return np.round((self.grid - self.grid[0]) / self.dt).astype(np.int64)


@dataclass(frozen=True)
class Restarts:
    """Independent runs that one pass carries as its blocks.

    Block b starts at starts[b] from a sample of laws[b] and draws from
    seeds[b], keyed by its own step count, so it is bit for bit the run
    with that seed and initial law, t0 = starts[b] and the grid that
    starts there and continues with the later nodes of the pass's grid.
    Starts never decrease, so the blocks started by any step are a prefix
    of the stack; a block is neither advanced nor drawn for before its start.
    """

    starts: tuple
    seeds: tuple
    laws: tuple

    def __post_init__(self):
        starts = tuple(float(s) for s in self.starts)
        if not len(starts) == len(self.seeds) == len(self.laws) >= 1:
            raise ValueError("restarts need one start, seed and law per block")
        if any(later < earlier for earlier, later in zip(starts, starts[1:])):
            raise ValueError("restart times must not decrease")
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "laws", tuple(self.laws))

    def __len__(self) -> int:
        return len(self.starts)


@dataclass
class KilledEnsemble:
    """Outcome of one killed simulation.

    exit_times holds the first detected exit per particle (inf when the
    particle survives the horizon).  Snapshots, recorded controls, and
    the occupation time outside the closed domain are stored at the
    output grid nodes only.  A stacked run of B > 1 blocks keeps
    snapshots and controls with a block axis, (n_nodes, B, N, .), and its
    per-particle vectors block after block; block(b) reads block b as an
    ordinary ensemble, and depleted[b] is the SurvivorDepletion that
    ended it, or None.  Survival and alive masks are read per block:
    a stacked ensemble itself refuses them.  A run of Restarts keeps
    its Restarts; a block that starts after a node holds its initial
    sample in that node's snapshot.
    """

    model: ModelSpec
    times: np.ndarray
    initial_points: np.ndarray
    exit_times: np.ndarray
    snapshots: np.ndarray
    controls: np.ndarray | None
    outside_time: np.ndarray | None
    dt: float
    seed: int
    blocks: int = 1
    depleted: tuple = (None,)
    restarts: Restarts | None = None

    @property
    def n(self) -> int:
        return self.initial_points.shape[0]

    def block(self, b: int) -> "KilledEnsemble":
        """Block b as a view of this ensemble; raises the depletion that ended it.

        A restarted block reads as its own run: its times begin at its
        start, with its initial sample as the first snapshot.
        """
        if self.depleted[b] is not None:
            raise self.depleted[b]
        if self.blocks == 1 and self.restarts is None:
            return self
        size = self.n // self.blocks
        part = slice(b * size, (b + 1) * size)
        first, times, seed = 0, self.times, self.seed
        if self.restarts is not None:
            start = self.restarts.starts[b]
            first = int(np.searchsorted(self.times, start + _TIME_TOL, side="right")) - 1
            times = np.concatenate([[start], self.times[first + 1:]])
            seed = self.restarts.seeds[b]
        return KilledEnsemble(
            model=self.model,
            times=times,
            initial_points=self.initial_points[part],
            exit_times=self.exit_times[part],
            snapshots=self.snapshots[first:, b],
            controls=None if self.controls is None else self.controls[first:, b],
            outside_time=(None if self.outside_time is None
                          else self.outside_time[first:, part]),
            dt=self.dt,
            seed=seed,
        )

    def _require_one_block(self):
        if self.blocks > 1:
            raise ValueError("a stacked ensemble is read one block at a time, "
                             "through block(b)")

    def alive_at(self, node: int) -> np.ndarray:
        self._require_one_block()
        # The tolerance absorbs one-ulp drift between node times and the
        # per-step exit stamps, so a node exit always counts as dead.
        return self.exit_times > self.times[node] + _TIME_TOL

    def survival_at(self, t) -> np.ndarray | float:
        """Empirical survival probability at arbitrary times."""
        self._require_one_block()
        t = np.asarray(t, dtype=float)
        s = np.mean(self.exit_times[None, ...] > t.reshape(-1, 1) + _TIME_TOL, axis=1)
        return float(s[0]) if t.ndim == 0 else s

    @property
    def survival(self) -> np.ndarray:
        return self.survival_at(self.times)


def conditional_flow(ens: KilledEnsemble) -> MeasureFlow:
    """The flow of laws conditioned on survival, node by node."""
    nodes = []
    for m in range(ens.times.shape[0]):
        alive = ens.alive_at(m)
        if not alive.any():
            raise SurvivorDepletion(float(ens.times[m]), 0, 1)
        nodes.append(EmpiricalMeasure(ens.snapshots[m][alive]))
    return MeasureFlow(ens.times, tuple(nodes), ens.survival)


def restrict_ensemble(ens: KilledEnsemble, t_max: float) -> KilledEnsemble:
    """A view of the ensemble truncated to grid nodes with time <= t_max."""
    keep = ens.times <= t_max + _TIME_TOL
    k = int(keep.sum())
    if k < 1:
        raise ValueError("t_max precedes the first grid node")
    return KilledEnsemble(
        model=ens.model,
        times=ens.times[:k],
        initial_points=ens.initial_points,
        exit_times=ens.exit_times,
        snapshots=ens.snapshots[:k],
        controls=None if ens.controls is None else ens.controls[:k],
        outside_time=None if ens.outside_time is None else ens.outside_time[:k],
        dt=ens.dt,
        seed=ens.seed,
        blocks=ens.blocks,
        depleted=ens.depleted,
        restarts=ens.restarts,
    )


def _flow_mean_per_step(flows, starts, first_steps, dt: float, total_steps: int,
                        needed: bool) -> np.ndarray | None:
    """Per step, the flow mean each block's drift reads at its own time.

    Block b reads flows[b] from step first_steps[b] on, at the times
    starts[b] + j dt.  The result is (steps, B, 1, d); a block's steps
    before its start are zero.
    """
    if not needed:
        return None
    if flows is None:
        raise ValueError("the drift couples to the measure but no flow was supplied")
    means = np.zeros((total_steps, len(flows), 1, flows[0].node_means.shape[1]))
    for b, (flow, start, first) in enumerate(zip(flows, starts, first_steps)):
        step_times = start + np.arange(total_steps - first) * dt
        idx = np.searchsorted(flow.times, step_times - _TIME_TOL, side="left")
        if np.any(idx >= flow.times.shape[0]):
            raise ValueError("flow grid does not cover the simulation window")
        means[first:, b, 0] = flow.node_means[idx]
    return means


def _control_values(control, t: float, x: np.ndarray, state: dict) -> np.ndarray:
    if isinstance(control, OpenLoopControl):
        return control.values_at(t, state)
    return control.values_at(t, x)


def _block_controls(policy: FeedbackPolicy, times, x: np.ndarray) -> np.ndarray:
    """Controls of blocks x[b] that each run on their own clock times[b]."""
    return np.stack([policy.values_at(t, xb) for t, xb in zip(times, x)])


def _initial_sample(law, n: int, seed: int, model: ModelSpec) -> np.ndarray:
    x0 = np.array(law.sample(n, seed, rng.INITIAL_SAMPLE, 0), dtype=float)
    if x0.shape != (n, model.dim):
        raise ValueError(f"initial sample must have shape ({n}, {model.dim})")
    if np.any(model.domain.boundary_distance(x0) < -BOUNDARY_TOL):
        raise ValueError("initial points must lie in the closed domain")
    return x0


def _start_steps(restarts: Restarts, grid: np.ndarray, dt: float) -> np.ndarray:
    """The pass step in which each restarted block starts."""
    offsets = (np.asarray(restarts.starts) - grid[0]) / dt
    steps = np.round(offsets).astype(np.int64)
    if abs(restarts.starts[0] - grid[0]) > _TIME_TOL:
        raise ValueError("the grid must start at the first restart")
    if restarts.starts[-1] >= grid[-1] - _TIME_TOL:
        raise ValueError("every restart must come before the last grid node")
    if np.any(np.abs(offsets - steps) > 1e-6):
        raise ValueError("restart times must be multiples of dt after the grid start")
    return steps


def simulate_killed(model: ModelSpec, control, flow_input, config: SimConfig,
                    initial_law=None, t0: float | None = None,
                    restarts: Restarts | None = None) -> KilledEnsemble:
    """Simulate a killed ensemble and record it on the output grid.

    control is a FeedbackPolicy, an OpenLoopControl or a PolicyStack;
    flow_input feeds the mean-field drift term (it may be None for
    models with zero mean-field gain), one flow per block for a stack.
    A stack of B policies splits config.n_particles into B blocks that
    share the initial sample and every draw; a block whose survivors
    fall below config.min_survivors is marked depleted, and the run
    raises once every block is, with each block's depletion in the
    error's blocks.  The optional t0 starts the clock late; the grid
    must then start at t0.  Restarts split config.n_particles into one
    block per restart, all under the feedback policy control and the
    one flow flow_input, each on its own clock, seed and initial law
    (see Restarts); the grid then starts at the first restart.
    """
    if not isinstance(control, (FeedbackPolicy, OpenLoopControl, PolicyStack)):
        raise ValueError("control must be a FeedbackPolicy, an OpenLoopControl "
                         "or a PolicyStack")
    restarted = restarts is not None
    if restarted and not isinstance(control, FeedbackPolicy):
        raise ValueError("restarted blocks run under one feedback policy")
    if restarted and (initial_law is not None or t0 is not None):
        raise ValueError("restarted blocks bring their own start times and laws")
    grid = config.grid
    t_start = grid[0] if t0 is None else float(t0)
    if abs(grid[0] - t_start) > _TIME_TOL:
        raise ValueError("grid must start at the simulation start time")
    if grid[-1] > model.horizon + _TIME_TOL:
        raise ValueError("grid extends beyond the model horizon")

    stacked = isinstance(control, PolicyStack)
    if stacked and flow_input is not None and len(flow_input) != len(control):
        raise ValueError("a policy stack needs one input flow per block")
    if stacked and len(control) == 1:
        # One block is the run of its policy.
        control = control.policies[0]
        flow_input = None if flow_input is None else flow_input[0]
        stacked = False
    blocks = len(restarts) if restarted else len(control) if stacked else 1
    n = config.n_particles
    if n % blocks:
        raise ValueError("n_particles must split evenly over the stacked blocks")
    n_block = n // blocks
    d = model.dim
    d_a = model.control_dim
    dt = config.dt
    sqrt_dt = np.sqrt(dt)
    sigma = model.sigma_matrix()
    sigma_t = sigma.T.copy()
    domain = model.domain
    seed = config.seed
    node_steps = config.node_steps()
    total_steps = int(node_steps[-1])

    # Positions are (N, d), or (B, N, d) for blocks; flat is the (B * N, d)
    # view of the same memory.
    if restarted:
        seeds = restarts.seeds
        starts = np.asarray(restarts.starts)
        first_steps = _start_steps(restarts, grid, dt)
        x = np.stack([_initial_sample(law, n_block, s, model)
                      for law, s in zip(restarts.laws, seeds)])
        flows = None if flow_input is None else (flow_input,) * blocks
    else:
        starts = np.full(blocks, t_start)
        first_steps = np.zeros(blocks, dtype=np.int64)
        x0 = _initial_sample(model.initial if initial_law is None else initial_law,
                             n_block, seed, model)
        x = np.tile(x0, (blocks, 1, 1)) if stacked else x0
        flows = flow_input if stacked or flow_input is None else (flow_input,)
    means = _flow_mean_per_step(flows, starts, first_steps, dt, total_steps,
                                needed=model.drift.mf_gain != 0.0)
    if means is not None and x.ndim == 2:
        means = means[:, 0, 0]

    open_loop = isinstance(control, OpenLoopControl)
    state = control.init_state(x0) if open_loop else {}

    exit_times = np.full(n, np.inf)
    alive = np.ones(n, dtype=bool)
    outside = np.zeros(n)
    depleted: list = [None] * blocks

    n_nodes = grid.shape[0]
    snapshots = np.empty((n_nodes, *x.shape))
    fixed = control.constant_values if stacked else None
    controls = None
    if config.record_controls:
        # Constant controls never move: one broadcast view records them.
        controls = (np.empty((n_nodes, *x.shape[:-1], d_a)) if fixed is None
                    else np.broadcast_to(fixed, (n_nodes, blocks, n_block, d_a)))
    outside_nodes = np.zeros((n_nodes, n)) if config.record_outside_time else None

    def record(node: int, t: float):
        # A block that has not started yet holds its initial sample, which
        # its own run records at its start time.
        snapshots[node] = x
        if controls is not None and fixed is None:
            controls[node] = (_block_controls(control, np.maximum(starts, t), x)
                              if restarted else _control_values(control, t, x, state))
        if outside_nodes is not None:
            outside_nodes[node] = outside
        if config.min_survivors > 0:
            survivors = alive.reshape(blocks, n_block).sum(axis=1)
            for b in np.flatnonzero(survivors < config.min_survivors):
                if depleted[b] is None:
                    depleted[b] = SurvivorDepletion(t, int(survivors[b]),
                                                    config.min_survivors)
            if all(err is not None for err in depleted):
                if blocks == 1:
                    raise depleted[0]
                raise SurvivorDepletion(t, int(survivors.max()), config.min_survivors,
                                        blocks=tuple(depleted))

    def stamp(value, particles):
        """Exit stamps: the step's time, or each restarted block's own."""
        return np.repeat(value, n_block)[particles] if restarted else value

    record(0, t_start)
    for segment in range(n_nodes - 1):
        for k in range(int(node_steps[segment]), int(node_steps[segment + 1])):
            if restarted:
                # The started blocks are a prefix; each runs on its own clock
                # and draws from its own seed, keyed by its own step.
                active = int(np.searchsorted(first_steps, k, side="right"))
                xs = x if active == blocks else x[:active]
                local = k - first_steps[:active]
                t = starts[:active] + local * dt
                a = _block_controls(control, t, xs)
                b = np.stack([drift_given_mean(model, t[j], xs[j],
                                               None if means is None else means[k, j],
                                               a[j]) for j in range(active)])
                z = np.stack([rng.normals(seeds[j], rng.GAUSS_STEP, local[j], (n_block, d))
                              for j in range(active)])
            else:
                active, xs = blocks, x
                t = t_start + k * dt
                a = _control_values(control, t, x, state)
                mean_k = means[k] if means is not None else None
                b = drift_given_mean(model, t, x, mean_k, a)
                z = rng.normals(seed, rng.GAUSS_STEP, k, (n_block, d))
            m = active * n_block
            flat = xs.reshape(m, d)
            alive_now = alive[:m]
            if outside_nodes is not None:
                # Left-endpoint rule: time spent strictly outside the closure.
                outside[:m] += dt * (domain.boundary_distance(flat) < -BOUNDARY_TOL)
            x_new = xs + b * dt + (z @ sigma_t) * sqrt_dt
            flat_new = x_new.reshape(m, d)
            inside_new = domain.contains_open(flat_new)
            newly_exited = alive_now & ~inside_new
            if newly_exited.any():
                exit_times[:m][newly_exited] = stamp(t + dt, newly_exited)
            if config.bridge_correction:
                candidates = np.flatnonzero(alive_now & inside_new)
                if candidates.size:
                    p = domain.bridge_exit_probability(flat[candidates], flat_new[candidates],
                                                       dt, sigma)
                    if restarted:
                        u = np.concatenate([
                            rng.uniforms(seeds[j], rng.BRIDGE_KILL, local[j], (n_block,))
                            for j in range(active)])
                    else:
                        u = rng.uniforms(seed, rng.BRIDGE_KILL, k, (n_block,))
                    # Shared draws repeat over the blocks of a stack.
                    killed = candidates[u[candidates % u.shape[0]] < p]
                    exit_times[killed] = stamp(t + 0.5 * dt, killed)
                    newly_exited[killed] = True
            alive_now &= ~newly_exited
            if open_loop:
                control.advance(state, t, z, dt)
            if active == blocks:
                x = x_new
            else:
                x[:active] = x_new
        if not np.all(np.isfinite(x)):
            raise NumericalError(f"non-finite state at t={grid[segment + 1]:g}")
        record(segment + 1, float(grid[segment + 1]))

    return KilledEnsemble(
        model=model,
        times=grid.copy(),
        initial_points=snapshots[0].reshape(n, d).copy(),
        exit_times=exit_times,
        snapshots=snapshots,
        controls=controls,
        outside_time=outside_nodes,
        dt=dt,
        seed=seed,
        blocks=blocks,
        depleted=tuple(depleted),
        restarts=restarts,
    )


def without_mean_field(model: ModelSpec) -> ModelSpec:
    """The same model with the mean-field gain switched off."""
    return replace(model, drift=replace(model.drift, mf_gain=0.0))


def analytic_interval_survival(x0: float, halfwidth: float, sigma: float, t,
                               n_terms: int = 64):
    """Eigenfunction series for driftless survival in (-L, L) from x0.

    S(t) = sum_n (4/pi) (-1)^n / (2n+1) cos((2n+1) pi x0 / (2L))
                 exp(-(2n+1)^2 pi^2 sigma^2 t / (8 L^2)).
    """
    if not -halfwidth <= x0 <= halfwidth:
        raise ValueError("x0 must lie inside the interval")
    t = np.asarray(t, dtype=float)
    ns = np.arange(int(n_terms))
    odd = 2 * ns + 1
    coeff = (4.0 / np.pi) * ((-1.0) ** ns / odd) * np.cos(odd * np.pi * x0 / (2 * halfwidth))
    rates = (odd * np.pi * sigma) ** 2 / (8.0 * halfwidth ** 2)
    values = np.sum(coeff * np.exp(-np.outer(t.reshape(-1), rates)), axis=1)
    return float(values[0]) if t.ndim == 0 else values


def girsanov_survival_floor(clip_bound: float, sigma, t: float, p0: float) -> float:
    """Lower bound on survival under any drift bounded by clip_bound.

    Removing a bounded drift by change of measure and applying
    Cauchy-Schwarz gives survival >= p0^2 exp(-|sigma^-1|^2 C_b^2 d t),
    where p0 is the driftless survival from the same initial law and
    |sigma^-1| is the operator norm.
    """
    sigma = np.asarray(sigma, dtype=float)
    d = sigma.shape[0]
    inv_norm = np.linalg.norm(np.linalg.inv(sigma), 2)
    return float(p0 ** 2 * np.exp(-(inv_norm ** 2) * clip_bound ** 2 * d * t))


def exit_cdf(ens: KilledEnsemble, times) -> np.ndarray:
    """P(exit time <= t) on an arbitrary time vector."""
    times = np.asarray(times, dtype=float)
    return 1.0 - np.asarray(ens.survival_at(times))
