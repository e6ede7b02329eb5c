"""Euler-Maruyama simulation of killed paths with bridge exit correction.

Paths evolve on a fixed step dt.  An exit is detected either at a grid
node (the new position left the open domain) or, when the bridge
correction is on, by a Bernoulli draw with the within-step boundary
crossing probability of the pinned bridge between consecutive
positions; bridge kills are stamped at the midpoint of their step.
One step function, euler_step, moves the particles and finds both kinds
of exit, and one pass, _pass, runs it over the grid and records the
nodes.  The pass stamps every exit, and the killed and the Fleming-Viot
dynamics differ only in the exit rule it then calls: here the stamp is
recorded and the particle stops counting as alive.  The step evaluates
the bridge probability only on the band of geometry's bridge_band: the
particles near the boundary, and those whose kill uniform is exactly
0.0.  Any other particle's probability is below every nonzero uniform,
so the band changes no kill.
The pass makes its arrays once, in a Workspace, and every step writes
into them: two sets of positions and of their boundary distances that
swap, the normal and uniform draws, the drift, the masks and one
scratch array, so no step allocates an array of the ensemble's size.
A position's boundary distance is computed once, by the step that makes
it, and the next step reads it back.  Killed paths keep moving: each
step advances the whole array instead of gathering the survivors, and
paths.bin records their motion after the exit.  They are simply
excluded from conditional statistics.  Both dynamics record one Run, to
which each exit rule adds its own fields.  A run records positions; a
feedback policy's controls are a function of a node's time and
positions and are read back from the policy (Run.controls_at), so only
an open-loop control, whose values depend on the noise path, has them
recorded.

All randomness is addressed by (seed, purpose, step), which makes runs
bit-identical regardless of how callers parallelize around them.  A pass
may also carry B blocks of N particles, described by one Blocks: each
block has its own policy, input flow, seed, start and initial law, and
is bit for bit the run of those alone.  A plain run is the one-block
case.  Feedback policies and open-loop controls stack in any mix, and
a block without a flow reads its own live mean, which makes it a
finite Fleming-Viot system under the reinsertion rule.  Picard
candidates share a seed and a start, restart-kernel columns differ in
both, and policy sweeps share a start only: each block samples its own
initial law, blocks that share a seed and a start share the draws of
every step, and the started blocks take one drift call per step between
them.  Every failure ends its block the same way: the block's first
error goes into the run's failed record, and its particles stop
counting as alive, so the block makes no further exit while the others
run on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import NumericalError, SurvivorDepletion
from .geometry import BOUNDARY_TOL, top_variance
from .measures import _TIME_TOL, EmpiricalMeasure, MeasureFlow
from .model import (ConstantPolicy, FeedbackPolicy, ModelSpec, OpenLoopControl,
                    drift_given_mean)


def uniform_grid(t_end: float, step: float, t_start: float = 0.0) -> np.ndarray:
    """Output grid t_start, t_start + step, ..., t_end (endpoint exact)."""
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
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
        grid_steps(grid, self.dt)
        object.__setattr__(self, "grid", grid)

    def node_steps(self) -> np.ndarray:
        return grid_steps(self.grid, self.dt)


def grid_steps(grid: np.ndarray, dt: float) -> np.ndarray:
    """The number of steps of dt from the grid's start to each node, which
    must be a multiple of dt."""
    steps = (grid - grid[0]) / dt
    if np.any(np.abs(steps - np.round(steps)) > 1e-6):
        raise ValueError("grid nodes must be multiples of dt")
    return np.round(steps).astype(np.int64)


@dataclass(frozen=True)
class Blocks:
    """Independent runs that one killed or reinsertion pass carries as blocks.

    Block b runs policies[b] with the drift and any reinsertion reading
    flows[b] (None if neither does), starts at starts[b] from a sample of
    laws[b], and draws from seeds[b], keyed by its own step count.  It is
    bit for bit the one-block pass with that policy, flow, seed, start
    and initial law on the grid that starts there and continues with the
    later nodes of the pass's grid.  Starts never decrease, so the blocks
    started by any step are a prefix of the stack; a block is neither
    advanced nor drawn for before its start.  Feedback policies and
    open-loop controls mix freely.  Under the reinsertion rule a block
    without a flow is a finite system: its drift reads its own live mean
    and its exits land on its own particles.  A block that fails ends
    alone: it still moves with the stack, but none of its particles
    exits again.
    """

    policies: tuple
    flows: tuple
    seeds: tuple
    starts: tuple
    laws: tuple

    def __post_init__(self):
        policies, flows, laws = tuple(self.policies), tuple(self.flows), tuple(self.laws)
        starts = tuple(float(s) for s in self.starts)
        seeds = tuple(int(s) for s in self.seeds)
        if not len(policies) == len(flows) == len(seeds) == len(starts) == len(laws) >= 1:
            raise ValueError("blocks need one policy, flow, seed, start and law each")
        if not all(isinstance(p, (FeedbackPolicy, OpenLoopControl)) for p in policies):
            raise ValueError("a block runs a FeedbackPolicy or an OpenLoopControl")
        if any(later < earlier for earlier, later in zip(starts, starts[1:])):
            raise ValueError("block starts must not decrease")
        for name, value in (("policies", policies), ("flows", flows), ("seeds", seeds),
                            ("starts", starts), ("laws", laws)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.starts)


@dataclass(kw_only=True)
class Run:
    """What a pass records under either exit rule.

    Snapshots are stored at the output grid nodes only.  policy is the
    run's FeedbackPolicy or OpenLoopControl.  Only an open-loop control's
    values depend on the noise path, so only they are recorded, in
    controls (None otherwise; a pass over Blocks fills only its open-loop
    blocks' slots); controls_at reads either kind at a node.
    A pass over Blocks keeps its snapshots with a block axis, (n_nodes,
    B, N, d), its per-particle vectors block after block, and its Blocks
    (policy is then None); block(b) reads block b as its own run, and
    failed[b] is the error that ended it, or None.  A block that starts
    after a node holds its initial sample in that node's snapshot.  Each
    exit rule adds its own fields and slices them for a block in
    _record_of.  Node readers refuse a run of blocks.
    """

    model: ModelSpec
    times: np.ndarray
    snapshots: np.ndarray
    policy: FeedbackPolicy | OpenLoopControl | None
    controls: np.ndarray | None = None
    blocks: Blocks | None = None
    failed: tuple = (None,)

    @property
    def n(self) -> int:
        return math.prod(self.snapshots.shape[1:-1])

    def block(self, b: int) -> Run:
        """Block b as its own run; raises the error that ended it.

        The block's times begin at its start, with its initial sample as
        the first snapshot.  A run without blocks is its own block 0, and
        its one-entry failed record refuses any other b.
        """
        if self.failed[b] is not None:
            raise self.failed[b]
        if self.blocks is None:
            return self
        size = self.n // len(self.blocks)
        start, policy = self.blocks.starts[b], self.blocks.policies[b]
        first = int(np.searchsorted(self.times, start + _TIME_TOL, side="right")) - 1
        return type(self)(
            model=self.model, times=np.concatenate([[start], self.times[first + 1:]]),
            snapshots=self.snapshots[first:, b], policy=policy,
            controls=self.controls[first:, b] if isinstance(policy, OpenLoopControl) else None,
            **self._record_of(b, slice(b * size, (b + 1) * size), first))

    def _record_of(self, b: int, part: slice, first: int) -> dict:
        """The exit rule's fields of block b, whose particles are part and
        whose nodes begin at first."""
        return {}

    def _require_one_block(self):
        if self.blocks is not None:
            raise ValueError("an ensemble of blocks is read one block at a time, "
                             "through block(b)")

    def controls_at(self, m: int) -> np.ndarray:
        """The (N, d_A) controls at node m: an open-loop control's recorded
        values, or the feedback policy's values at the node's time and
        positions, which are what the pass applied there."""
        self._require_one_block()
        if isinstance(self.policy, OpenLoopControl):
            return self.controls[m]
        return self.policy.values_at(float(self.times[m]), self.snapshots[m])


@dataclass(kw_only=True)
class KilledEnsemble(Run):
    """A run under the kill rule.

    exit_times holds the first detected exit per particle (inf when the
    particle survives the horizon).
    """

    exit_times: np.ndarray

    def _record_of(self, b: int, part: slice, first: int) -> dict:
        return {"exit_times": self.exit_times[part]}

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
    return replace(ens, times=ens.times[:k], snapshots=ens.snapshots[:k],
                   controls=None if ens.controls is None else ens.controls[:k])


def _flow_mean_per_step(flows, starts, first_steps, dt: float, total_steps: int,
                        d: int) -> np.ndarray:
    """Per step, the flow mean each block's drift reads at its own time.

    Block b reads flows[b] from step first_steps[b] on, at the times
    starts[b] + j dt.  The result is (steps, B, 1, d); a block's steps
    before its start, and every step of a block without a flow, are zero.
    """
    means = np.zeros((total_steps, len(flows), 1, d))
    for b, (flow, start, first) in enumerate(zip(flows, starts, first_steps)):
        if flow is not None:
            step_times = start + np.arange(total_steps - first) * dt
            means[first:, b, 0] = flow.node_means[flow.index_at(step_times)]
    return means


def _initial_sample(law, n: int, seed: int, model: ModelSpec) -> np.ndarray:
    x0 = np.array(law.sample(n, seed), dtype=float)
    if x0.shape != (n, model.dim):
        raise ValueError(f"initial sample must have shape ({n}, {model.dim})")
    if np.any(model.domain.boundary_distance(x0) < -BOUNDARY_TOL):
        raise ValueError("initial points must lie in the closed domain")
    return x0


def _first_alike(*keys) -> list[int]:
    """Per block, the first block whose keys all equal its own."""
    first: dict = {}
    return [first.setdefault(key, b) for b, key in enumerate(zip(*keys))]


def _as_blocks(model: ModelSpec, control, flow_input,
               config: SimConfig) -> tuple[Blocks, bool]:
    """The Blocks a pass runs, and whether they stand for one plain run."""
    if not isinstance(control, Blocks):
        return Blocks((control,), (flow_input,), (config.seed,), (config.grid[0],),
                      (model.initial,)), True
    if flow_input is not None:
        raise ValueError("blocks bring their own flows")
    return control, False


def _constant_values(policies) -> np.ndarray | None:
    """(B, 1, d_A) values when every block runs a ConstantPolicy, else None."""
    if all(type(p) is ConstantPolicy for p in policies):
        return np.array([p.value for p in policies])[:, None, :]
    return None


def _view(buffer: np.ndarray, shape) -> np.ndarray:
    """The start of a flat buffer, as a (contiguous) array of shape."""
    return buffer[:math.prod(shape)].reshape(shape)


def _step_controls(policies, constants, clocks: np.ndarray, reads, out: np.ndarray) -> np.ndarray:
    """(B', N, d_A) controls of the started blocks, block b's policy read
    at its own clock clocks[b] and reads[b]: its (N, d) positions for a
    feedback policy, its state for an open-loop control.

    constants, when every block's policy is a constant, holds the (B, N,
    d_A) values, repeated into contiguous memory once per pass, as a
    matrix product over a broadcast view can round differently.  Other
    policies' values are written into the flat buffer out.
    """
    if constants is not None:
        return constants[:len(policies)]
    values = [p.values_at(float(t), read) for p, t, read in zip(policies, clocks, reads)]
    stacked = _view(out, (len(values), *values[0].shape))
    for b, value in enumerate(values):
        stacked[b] = value
    return stacked


def _step_draws(sample, purpose: int, shape, seeds, draws_of, local,
                out: np.ndarray) -> np.ndarray:
    """One step's draws for the first len(local) blocks, written into the
    flat buffer out: block b reads the stream of block j = draws_of[b],
    keyed by local[j], its own step.  A single stream is shared as it is,
    of the given shape; several fill one part of shape per block, each
    stream drawn once, into the part of its first block (j itself)."""
    owners = draws_of[:len(local)]
    if not any(owners):
        return sample(seeds[0], purpose, int(local[0]), shape, out=_view(out, shape))
    parts = _view(out, (len(owners), *shape))
    for b, j in enumerate(owners):
        if j == b:
            sample(seeds[j], purpose, int(local[j]), shape, out=parts[b])
        else:
            parts[b] = parts[j]
    return parts


@dataclass(frozen=True)
class Noise:
    """The diffusion matrix in the forms a step reads, made once per pass:
    sigma^T for the increments, cov = sigma sigma^T for the bridge test,
    and cov's largest eigenvalue for the bridge band."""

    sigma_t: np.ndarray
    cov: np.ndarray
    var_max: float

    @classmethod
    def of(cls, sigma: np.ndarray) -> "Noise":
        cov = sigma @ sigma.T
        return cls(sigma.T.copy(), cov, top_variance(cov))


class Workspace:
    """The arrays a pass steps into, made once for its (B, N, d) positions.

    x and dist hold two sets of positions and their boundary distances: a
    step reads x[0] and dist[0], writes x[1] and dist[1], and swap() makes
    the new set current.  Both sets start as the initial positions, so a
    block that has not started holds them in either.  The other arrays are
    flat, over all n = B N particles, and a step with B' blocks started
    uses the start of each: z and u take the step's normal and uniform
    draws, drift its drift, scratch (n d floats) the temporaries of the
    drift, the noise increment, the distances and the bridge band in
    turn, and inside, exits and band the step's masks.
    """

    def __init__(self, x0: np.ndarray, domain):
        n, d = x0.shape[0] * x0.shape[1], x0.shape[2]
        dist = domain.boundary_distance(x0.reshape(n, d))
        self.x = [x0, x0.copy()]
        self.dist = [dist, dist.copy()]
        self.z, self.drift, self.scratch = np.empty(n * d), np.empty(n * d), np.empty(n * d)
        self.u = np.empty(n)
        self.inside, self.exits, self.band = (np.empty(n, dtype=bool) for _ in range(3))

    def swap(self) -> None:
        self.x.reverse()
        self.dist.reverse()


def euler_step(domain, work: Workspace, b: np.ndarray, z: np.ndarray, dt: float,
               noise: Noise, alive: np.ndarray, u: np.ndarray | None = None):
    """One Euler step of the first B' blocks of work, and the exits it makes.

    b holds their (B', N, d) drifts and z standard normals, (B', N, d) or
    one block's (N, d) shared by all; alive marks which of their B' N
    particles can still exit.  The step moves work.x[0] into work.x[1] as
    x + b dt + (z sigma^T) sqrt(dt), and writes the new positions'
    boundary distances into work.dist[1].  Returns the new positions (a
    view of work.x[1]), the mask of alive particles outside the open
    domain at the new node, and the ascending indices of alive particles
    still inside whose pinned bridge crossed the boundary.  u, None when
    the bridge test is off, holds the step's BRIDGE_KILL uniforms;
    candidate i reads u[i % len(u)], so draws shared by the blocks of a
    stack repeat.

    Each position's boundary distance is computed once, by the step that
    makes it; the next step reads it from work.dist[0] as the old node's.
    The bridge test runs on domain.bridge_band: over every particle it
    keeps the alive ones still inside whose kill the crossing formula must
    decide, and only those pairs are gathered for it; any other particle
    is one that u < p cannot kill.
    """
    active, m, d = b.shape[0], alive.shape[0], b.shape[-1]
    x, x_new = work.x[0][:active], work.x[1][:active]
    dist, dist_new = work.dist[0][:m], work.dist[1][:m]
    increment = np.matmul(z, noise.sigma_t, out=_view(work.scratch, z.shape))
    np.multiply(increment, np.sqrt(dt), out=increment)
    np.add(x, np.multiply(b, dt, out=x_new), out=x_new)
    np.add(x_new, increment, out=x_new)
    flat, flat_new = x.reshape(m, d), x_new.reshape(m, d)
    domain.boundary_distance(flat_new, out=dist_new, scratch=work.scratch)
    inside = np.greater(dist_new, BOUNDARY_TOL, out=work.inside[:m])  # contains_open
    node_exits = np.logical_not(inside, out=work.exits[:m])
    np.logical_and(alive, node_exits, out=node_exits)
    if u is None:
        return x_new, node_exits, np.empty(0, dtype=np.int64)
    band = domain.bridge_band(dist, dist_new, u, dt, noise.var_max, out=work.band[:m],
                              scratch=work.scratch)
    np.logical_and(band, alive, out=band)
    near = np.flatnonzero(np.logical_and(band, inside, out=band))
    p = domain._bridge(flat[near], flat_new[near], dt, noise.cov)
    return x_new, node_exits, near[u[near % u.shape[0]] < p]


def _pass(model: ModelSpec, blocks: Blocks, config: SimConfig, on_exits, on_record=None):
    """Move the blocks through euler_step and record them on the output grid.

    The killed and the reinsertion dynamics share this loop and differ
    only in their exit rule.  After each step with an exit the pass calls
    on_exits(clocks, x_new, exits, stamps, alive, end, draws): clocks
    holds the started blocks' times before the step, x_new their new
    (B', N, d) positions, where the rule may move the exits, exits the
    ascending indices of the step's node exits and bridge kills, stamps
    their exit times (the block's clock plus dt at a node, plus dt/2 for
    a bridge kill), alive the mask the rule may clear, end(b, error) ends
    block b with error, and draws(purpose) returns the step's uniforms,
    into one buffer that the next call overwrites.  Each node ends a
    running block with a NumericalError if a position is non-finite, else
    with a SurvivorDepletion if it has fewer than config.min_survivors
    alive, then calls on_record(node).

    end keeps a block's first error, the entry failed[b] of the record,
    and clears the block's alive mask.  An ended block still moves with
    the stack, but from then on none of its particles exits, is stamped
    or reaches the bridge formula, so its exit rule reinserts, counts and
    logs none of them; every running block is bit for bit its run alone.
    Once every block has ended the pass stops, and the later nodes stay
    unrecorded.  The drift of a block with a flow reads the flow's mean,
    and that of a block without one its own live mean.  Each open-loop
    block keeps its own state, advanced by its own normals once it has
    started.  Returns the fields of the pass's Run: the model, the grid's
    times, the (n_nodes, B, N, d) snapshots, the (n_nodes, B, N, d_A)
    controls if any block runs an open-loop control (None otherwise), the
    blocks and the failed record.

    The pass makes one Workspace and steps into it, so no step allocates
    arrays of the ensemble's size: a step's positions, draws, drift and
    masks are views of the workspace, valid until the next step writes
    them.  The pass draws a step's normals and, with the bridge test on,
    its BRIDGE_KILL uniforms, and hands both to euler_step.  An exit rule
    and an open-loop control copy what they keep.
    """
    grid = config.grid
    if grid[-1] > model.horizon + _TIME_TOL:
        raise ValueError("grid extends beyond the model horizon")
    n_blocks = len(blocks)
    n = config.n_particles
    if n % n_blocks:
        raise ValueError("n_particles must split evenly over the blocks")
    n_block = n // n_blocks
    if config.min_survivors > n_block:
        raise ValueError(f"min_survivors must lie in [0, {n_block}], the block size, "
                         f"got {config.min_survivors}")
    d = model.dim
    dt = config.dt
    noise = Noise.of(model.sigma_matrix())
    domain = model.domain
    policies, seeds = blocks.policies, blocks.seeds
    starts = np.asarray(blocks.starts)
    if abs(starts[0] - grid[0]) > _TIME_TOL:
        raise ValueError("the grid must start at the first block's start")
    if starts[-1] >= grid[-1] - _TIME_TOL:
        raise ValueError("every block must start before the last grid node")
    first_steps = grid_steps(starts, dt)
    node_steps = config.node_steps()
    coupled = model.drift.mf_gain != 0.0
    means = (_flow_mean_per_step(blocks.flows, starts, first_steps, dt, int(node_steps[-1]), d)
             if coupled else None)
    # A block without a flow reads its own live mean: a finite system.
    live = np.array([flow is None for flow in blocks.flows])[:, None, None]
    live = live if coupled and live.any() else None

    # Positions are (B, N, d), each block sampled from its own law and seed.
    # Blocks that share a seed and a start share the draws of every step
    # (those of the first such block, a stream).
    x0 = np.stack([_initial_sample(law, n_block, seed, model)
                   for law, seed in zip(blocks.laws, seeds)])
    draws_of = _first_alike(seeds, blocks.starts)

    states = {j: p.init_state(x0[j]) for j, p in enumerate(policies)
              if isinstance(p, OpenLoopControl)}
    constants = _constant_values(policies)
    if constants is not None:
        constants = np.repeat(constants, n_block, axis=1)
    stacked_controls = np.empty(n * model.control_dim) if constants is None else None
    work = Workspace(x0, domain)

    alive = np.ones(n, dtype=bool)
    failed: list = [None] * n_blocks

    def end(b: int, error: Exception):
        failed[b] = failed[b] or error
        alive[b * n_block:(b + 1) * n_block] = False

    n_nodes = grid.shape[0]
    snapshots = np.empty((n_nodes, *x0.shape))
    # An open-loop control depends on the noise path, so only its values
    # are recorded.
    controls = np.empty((n_nodes, *x0.shape[:2], model.control_dim)) if states else None
    shared = dict(model=model, times=grid.copy(), snapshots=snapshots, policy=None,
                  controls=controls, blocks=blocks)

    def record(node: int, t: float):
        # A block that has not started yet holds its initial sample, which
        # its own run records at its start time.
        snapshots[node] = work.x[0]
        for j, state in states.items():
            controls[node, j] = policies[j].values_at(max(t, blocks.starts[j]), state)
        finite = np.isfinite(work.x[0]).reshape(n_blocks, -1).all(axis=1)
        survivors = alive.reshape(n_blocks, n_block).sum(axis=1)
        for j in range(n_blocks):
            if not finite[j]:
                end(j, NumericalError(f"non-finite state at t={t:g}"))
            elif survivors[j] < config.min_survivors:
                end(j, SurvivorDepletion(t, int(survivors[j]), config.min_survivors))
        if on_record is not None:
            on_record(node)

    record(0, blocks.starts[0])
    active = 0
    for segment in range(n_nodes - 1):
        for k in range(int(node_steps[segment]), int(node_steps[segment + 1])):
            if None not in failed:
                return dict(shared, failed=tuple(failed))
            # The started blocks are a prefix; each runs on its own clock
            # and draws from its own seed, keyed by its own step.
            while active < n_blocks and first_steps[active] <= k:
                active += 1
            m = active * n_block
            local = k - first_steps[:active]
            clocks = starts[:active] + local * dt
            x = work.x[0][:active]
            mean = None if means is None else means[k, :active]
            if live is not None:
                mean = np.where(live[:active], x.mean(axis=1, keepdims=True), mean)
            reads = [states.get(j, xb) for j, xb in enumerate(x)]
            a = _step_controls(policies[:active], constants, clocks, reads, stacked_controls)
            b = drift_given_mean(model, x, mean, a, out=_view(work.drift, x.shape),
                                 scratch=_view(work.scratch, x.shape))
            z = _step_draws(rng.normals, rng.GAUSS_STEP, (n_block, d), seeds, draws_of, local,
                            work.z)
            draws = lambda purpose: _step_draws(rng.uniforms, purpose, (n_block,), seeds,
                                                draws_of, local, work.u).reshape(-1)
            u = draws(rng.BRIDGE_KILL) if config.bridge_correction else None
            x_new, node_exits, bridge_kills = euler_step(domain, work, b, z, dt, noise,
                                                         alive[:m], u)
            if bridge_kills.size or node_exits.any():
                exits = np.union1d(np.flatnonzero(node_exits), bridge_kills)
                stamps = clocks[exits // n_block] + np.where(node_exits[exits], dt, 0.5 * dt)
                on_exits(clocks, x_new, exits, stamps, alive, end, draws)
                # The rule may have moved its exits: measure them again.
                work.dist[1][exits] = domain.boundary_distance(x_new.reshape(m, d)[exits])
            for j in (j for j in states if j < active):
                policies[j].advance(states[j], float(clocks[j]), z if z.ndim == 2 else z[j], dt)
            work.swap()
        record(segment + 1, float(grid[segment + 1]))
    return dict(shared, failed=tuple(failed))


def simulate_killed(model: ModelSpec, control, flow_input,
                    config: SimConfig) -> KilledEnsemble:
    """Simulate a killed ensemble and record it on the output grid.

    control is a FeedbackPolicy or an OpenLoopControl, run under
    config.seed from model.initial at the grid start; flow_input feeds
    the mean-field drift term (it may be None for models with zero
    mean-field gain).  That run is the one-block case of a pass over
    Blocks: control may instead be Blocks, which bring their own flows,
    seeds, starts and laws and split config.n_particles evenly, and a
    run from another law or start is one such block, read through
    block(0).  The grid starts at the first start.
    Blocks with the same seed and start share one draw per step, and all
    started blocks one drift call per step.  A block whose survivors fall
    below config.min_survivors, which must not exceed the block size, is
    ended with its own SurvivorDepletion, which block(b) raises: none of
    its particles is stamped with an exit after that node.  The pass
    stops once every block has ended; a plain run raises it directly.
    """
    blocks, one_run = _as_blocks(model, control, flow_input, config)
    if model.drift.mf_gain != 0.0 and None in blocks.flows:
        raise ValueError("the drift couples to the measure but no flow was supplied")
    exit_times = np.full(config.n_particles, np.inf)

    def kill(clocks, x_new, exits, stamps, alive, end, draws):
        exit_times[exits] = stamps
        alive[exits] = False

    ens = KilledEnsemble(**_pass(model, blocks, config, kill), exit_times=exit_times)
    # A plain call reads as its one block, without the block axis.
    return ens.block(0) if one_run else ens


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
