"""Reinsertion dynamics that keep every particle alive.

Instead of dying at the boundary, a particle jumps back into the domain
and a counter increments.  Two variants are provided, and a block's
flow decides which it runs: a block without a flow is a finite system,
which reinserts at the position of a uniformly chosen other particle
of its own block that is currently inside (and drives the drift with
the instantaneous empirical mean of its particles), while a block with
a flow follows the mean-field rule and reinserts at a fresh sample of
that frozen flow (and reads the drift's measure argument from it).  The
cumulative mean number of reinsertions per particle estimates minus the
log survival probability of the corresponding killed process.

Both variants run the killed dynamics' own pass (killed_sim._pass) and
give it a reinsertion rule where the killed run gives its kill rule.  So
between exits they take the same step with the same draws, the pass
stamps each exit as it does for the killed run, and a particle's first
reinsertion happens exactly when the killed run of the same seed kills
it; only what follows an exit differs.  Either variant stacks over
Blocks, each block bit for bit its run alone.  Both record a
killed_sim.Run; a trace adds its reinsertion counts and events.
Reinsertion takes only feedback policies, so a trace's controls are
read back from its policy (Run.controls_at).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import ReinsertionBlowup, TotalExtinction
from .killed_sim import Blocks, Run, SimConfig, _as_blocks, _pass
from .measures import (_TIME_TOL, EmpiricalMeasure, MeasureFlow, sample_many,
                       sliced_w1, w1_distance_1d)
from .model import FeedbackPolicy, ModelSpec

SOURCE_UNIFORM_PEER = 0
SOURCE_FLOW_SAMPLE = 1
_SOURCE_NAMES = {SOURCE_UNIFORM_PEER: "uniform-peer", SOURCE_FLOW_SAMPLE: "flow-sample"}

DEFAULT_REINSERTION_CAP = 10_000


@dataclass(kw_only=True)
class FVTrace(Run):
    """A run under the reinsertion rule.

    f_curve and f_se hold the mean reinsertion count per particle at each
    node and its standard error (a column per block in a pass over
    Blocks), final_counts each particle's count at the horizon, and the
    event_* arrays each reinsertion's stamp, particle, new position and
    source.
    """

    f_curve: np.ndarray
    f_se: np.ndarray
    final_counts: np.ndarray
    event_times: np.ndarray
    event_particles: np.ndarray
    event_positions: np.ndarray
    event_sources: np.ndarray

    def _record_of(self, b: int, part: slice, first: int) -> dict:
        mine = self.event_particles // (part.stop - part.start) == b
        return dict(f_curve=self.f_curve[first:, b], f_se=self.f_se[first:, b],
                    final_counts=self.final_counts[part],
                    event_times=self.event_times[mine],
                    event_particles=self.event_particles[mine] - part.start,
                    event_positions=self.event_positions[mine],
                    event_sources=self.event_sources[mine])

    def source_names(self) -> list[str]:
        return [_SOURCE_NAMES[int(s)] for s in self.event_sources]


def _reinsert_at_peers(x_new: np.ndarray, exits: np.ndarray, draws: np.ndarray) -> None:
    """Move each exit onto a uniformly drawn particle that is inside.

    Exits are handled in ascending index, and each sees the positions of
    the ones handled before it, which count as inside once moved.
    """
    inside = np.ones(x_new.shape[0], dtype=bool)
    inside[exits] = False
    for i in exits:
        hosts = np.flatnonzero(inside)
        x_new[i] = x_new[hosts[min(int(draws[i] * hosts.size), hosts.size - 1)]]
        inside[i] = True


def _simulate_fv(model: ModelSpec, blocks: Blocks, config: SimConfig,
                 reinsertion_cap: int) -> FVTrace:
    """Every block in one killed_sim pass from t = 0, with the reinsertion
    rule in place of the kill: a block with a flow reinserts at samples of
    it, and a block without one, a finite system, at its own peers.  A
    block that passes the cap, or a finite system whose particles all exit
    in one step, is marked with its own error in the pass's failed record;
    the others run on."""
    grid = config.grid
    if abs(grid[0]) > _TIME_TOL or any(abs(s) > _TIME_TOL for s in blocks.starts):
        raise ValueError("reinsertion dynamics must start at t=0")
    if not all(isinstance(p, FeedbackPolicy) for p in blocks.policies):
        raise ValueError("reinsertion dynamics take a feedback policy")
    n_blocks = len(blocks)
    n = config.n_particles
    n_block = n // n_blocks
    # A block's exits land on its own peers, or at samples of its flow.
    source = [SOURCE_UNIFORM_PEER if flow is None else SOURCE_FLOW_SAMPLE for flow in blocks.flows]
    peered = [j for j, kind in enumerate(source) if kind == SOURCE_UNIFORM_PEER]
    sampled = [j for j, kind in enumerate(source) if kind == SOURCE_FLOW_SAMPLE]
    if peered and n_block < 2:
        raise ValueError("a finite system needs at least two particles per block")
    d = model.dim
    dt = config.dt

    counts = np.zeros(n, dtype=np.int64)
    # Per step with exits: their stamps, indices and new positions.
    ev_times: list[np.ndarray] = []
    ev_particles: list[np.ndarray] = []
    ev_positions: list[np.ndarray] = []
    f_curve = np.empty((grid.shape[0], n_blocks))
    f_se = np.empty((grid.shape[0], n_blocks))

    def reinsert(clocks, x_new, exits, stamps, alive, failed, draws):
        t = float(clocks[0])
        flat = x_new.reshape(n, d)
        counts[exits] += 1
        # Block j's exits, ascending, are exits[edges[j]:edges[j + 1]].
        edges = np.searchsorted(exits, np.arange(n_blocks + 1) * n_block).tolist()
        mine = [exits[lo:hi] for lo, hi in zip(edges, edges[1:])]
        # Both kinds of uniform are drawn into one buffer: each is used in turn.
        u = draws(rng.REINSERT_SAMPLE) if sampled else None
        for j in sampled:
            flat[mine[j]] = sample_many(blocks.flows[j].node_at(t + dt), u[mine[j] % u.shape[0]])
        u = draws(rng.PEER_CHOICE).reshape(-1, n_block) if peered else None
        for j in peered:
            part = slice(j * n_block, (j + 1) * n_block)
            if mine[j].size == n_block:
                failed[j] = failed[j] or TotalExtinction(float(stamps[edges[j]]))
                alive[part] = False  # no peer is left to land on
            elif mine[j].size:
                _reinsert_at_peers(flat[part], mine[j] - part.start, u[j % u.shape[0]])
        for j, own in enumerate(mine):
            over = own[counts[own] > reinsertion_cap]
            if over.size and failed[j] is None:
                failed[j] = ReinsertionBlowup(t + dt, int(over[0]) - j * n_block,
                                              reinsertion_cap)
        ev_times.append(stamps)
        ev_particles.append(exits)
        ev_positions.append(flat[exits])

    def record_counts(node: int):
        per_block = counts.reshape(n_blocks, n_block)
        f_curve[node] = per_block.mean(axis=1)
        f_se[node] = per_block.std(axis=1, ddof=1) / np.sqrt(n_block) if n_block > 1 else 0.0

    shared = _pass(model, blocks, replace(config, min_survivors=0), reinsert, record_counts)
    event_particles = np.concatenate([np.empty(0, dtype=np.int64), *ev_particles])
    return FVTrace(
        **shared,
        f_curve=f_curve,
        f_se=f_se,
        final_counts=counts.astype(float),
        event_times=np.concatenate([np.empty(0), *ev_times]),
        event_particles=event_particles,
        event_positions=np.concatenate([np.empty((0, d)), *ev_positions]),
        event_sources=np.array(source, dtype=np.int64)[event_particles // n_block],
    )


def simulate_fv_finite(model: ModelSpec, policy: FeedbackPolicy, config: SimConfig,
                       reinsertion_cap: int = DEFAULT_REINSERTION_CAP) -> FVTrace:
    """Interacting reinsertion system with uniform-peer jumps.

    Same-step exits are processed in ascending particle index, each
    seeing the post-update positions of the ones handled before it.  As
    in simulate_killed, policy may instead be Blocks, all starting at
    t = 0 and without flows: each block is its own finite system, bit for
    bit its run alone.
    """
    blocks, one_run = _as_blocks(model, policy, None, config)
    if any(flow is not None for flow in blocks.flows):
        raise ValueError("the finite system reinserts onto its own peers and takes no flow")
    trace = _simulate_fv(model, blocks, config, reinsertion_cap)
    return trace.block(0) if one_run else trace


def simulate_fv_meanfield(model: ModelSpec, policy, flow: MeasureFlow | None,
                          config: SimConfig,
                          reinsertion_cap: int = DEFAULT_REINSERTION_CAP) -> FVTrace:
    """Independent reinsertion dynamics driven by a frozen flow.

    As in simulate_killed, policy may instead be Blocks (flow None), all
    starting at t = 0; each block is bit for bit its run alone, and a run
    from another initial law is one such block.
    """
    blocks, one_run = _as_blocks(model, policy, flow, config)
    if None in blocks.flows:
        raise ValueError("the mean-field variant requires an input flow")
    trace = _simulate_fv(model, blocks, config, reinsertion_cap)
    return trace.block(0) if one_run else trace


@dataclass
class FVCorrespondence:
    """Per-node comparison of reinsertion dynamics against a killed run."""

    times: np.ndarray
    w1: np.ndarray
    max_w1: float
    max_f_log_residual: float


def fv_correspondence_report(fv: FVTrace, flow: MeasureFlow) -> FVCorrespondence:
    """W1 of FV marginals against the conditional flow of a killed run
    (killed_sim.conditional_flow), and the residual between the
    reinsertion curve and minus the log of the flow's survival."""
    if not isinstance(fv, FVTrace):
        raise ValueError("first argument must be the FVTrace")
    if not isinstance(flow, MeasureFlow):
        raise ValueError("second argument must be the killed run's MeasureFlow")
    fv._require_one_block()
    if fv.times.shape != flow.times.shape or np.any(np.abs(fv.times - flow.times) > _TIME_TOL):
        raise ValueError("the trace and the flow must share their output grid")
    w1 = np.empty(fv.times.shape[0])
    resid = np.empty(fv.times.shape[0])
    for m in range(fv.times.shape[0]):
        marginal = EmpiricalMeasure(fv.snapshots[m])
        if fv.model.dim == 1:
            w1[m] = w1_distance_1d(marginal, flow.nodes[m])
        else:
            w1[m] = sliced_w1(marginal, flow.nodes[m])
        resid[m] = abs(fv.f_curve[m] + np.log(flow.survival[m]))
    return FVCorrespondence(
        times=fv.times.copy(),
        w1=w1,
        max_w1=float(w1.max()),
        max_f_log_residual=float(resid.max()),
    )
