"""Reinsertion dynamics that keep every particle alive.

Instead of dying at the boundary, a particle jumps back into the domain
and a counter increments.  Two variants are provided: the finite-system
rule reinserts at the position of a uniformly chosen other particle
that is currently inside (and drives the drift with the instantaneous
empirical mean of all particles), while the mean-field rule reinserts
at a fresh sample of a frozen input flow (and reads the drift's measure
argument from that flow).  The cumulative mean number of reinsertions
per particle estimates minus the log survival probability of the
corresponding killed process.

Between exits both variants take the killed dynamics' own step
(killed_sim.euler_step) with the same draws, so a particle's first
reinsertion happens exactly when the killed run of the same seed kills
it; only what follows an exit differs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import NumericalError, ReinsertionBlowup, TotalExtinction
from .killed_sim import (KilledEnsemble, SimConfig, _flow_mean_per_step, _initial_sample,
                         conditional_flow, euler_step)
from .measures import (_TIME_TOL, EmpiricalMeasure, MeasureFlow, sample_many,
                       sliced_w1, w1_distance_1d)
from .model import FeedbackPolicy, ModelSpec, drift_given_mean

SOURCE_UNIFORM_PEER = 0
SOURCE_FLOW_SAMPLE = 1
_SOURCE_NAMES = {SOURCE_UNIFORM_PEER: "uniform-peer", SOURCE_FLOW_SAMPLE: "flow-sample"}

DEFAULT_REINSERTION_CAP = 10_000


@dataclass
class FVTrace:
    """Snapshots, reinsertion events, and the mean reinsertion curve."""

    model: ModelSpec
    variant: str
    times: np.ndarray
    snapshots: np.ndarray
    controls: np.ndarray
    f_curve: np.ndarray
    f_se: np.ndarray
    final_counts: np.ndarray
    event_times: np.ndarray
    event_particles: np.ndarray
    event_positions: np.ndarray
    event_sources: np.ndarray
    dt: float
    seed: int

    @property
    def n(self) -> int:
        return self.snapshots.shape[1]

    def f_at(self, t: float) -> float:
        """Mean reinsertion count per particle accumulated by time t."""
        return float(np.sum(self.event_times <= t + _TIME_TOL)) / self.n

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


def _simulate_fv(model: ModelSpec, policy: FeedbackPolicy, flow: MeasureFlow | None,
                 config: SimConfig, variant: str, reinsertion_cap: int,
                 initial_law=None) -> FVTrace:
    grid = config.grid
    if abs(grid[0]) > _TIME_TOL:
        raise ValueError("reinsertion dynamics must start at t=0")
    if grid[-1] > model.horizon + _TIME_TOL:
        raise ValueError("grid extends beyond the model horizon")
    if not isinstance(policy, FeedbackPolicy):
        raise ValueError("reinsertion dynamics take a feedback policy")

    n = config.n_particles
    d = model.dim
    dt = config.dt
    sigma = model.sigma_matrix()
    domain = model.domain
    seed = config.seed
    node_steps = config.node_steps()

    mean_field = variant == "meanfield"
    source = SOURCE_FLOW_SAMPLE if mean_field else SOURCE_UNIFORM_PEER
    coupled = model.drift.mf_gain != 0.0
    if mean_field and flow is None:
        raise ValueError("the mean-field variant requires an input flow")
    if not mean_field and n < 2:
        raise ValueError("the finite variant needs at least two particles")
    means = _flow_mean_per_step((flow,), (0.0,), (0,), dt, int(node_steps[-1]),
                                needed=mean_field and coupled)
    x = _initial_sample(model.initial if initial_law is None else initial_law,
                        n, seed, model)

    counts = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    # Per step with exits: their stamps, indices and new positions.
    ev_times: list[np.ndarray] = []
    ev_particles: list[np.ndarray] = []
    ev_positions: list[np.ndarray] = []

    n_nodes = grid.shape[0]
    snapshots = np.empty((n_nodes, n, d))
    controls = np.empty((n_nodes, n, model.control_dim))
    f_curve = np.empty(n_nodes)
    f_se = np.empty(n_nodes)

    def record(node: int, t: float):
        snapshots[node] = x
        controls[node] = policy.values_at(t, x)
        f_curve[node] = counts.mean()
        f_se[node] = counts.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0

    record(0, 0.0)
    for segment in range(n_nodes - 1):
        for k in range(int(node_steps[segment]), int(node_steps[segment + 1])):
            t = k * dt
            a = policy.values_at(t, x)
            if mean_field:
                mean_k = means[k, 0, 0] if means is not None else None
            else:
                mean_k = x.mean(axis=0) if coupled else None
            b = drift_given_mean(model, t, x, mean_k, a)
            z = rng.normals(seed, rng.GAUSS_STEP, k, (n, d))
            draws = lambda: rng.uniforms(seed, rng.BRIDGE_KILL, k, (n,))
            x_new, node_exits, bridge_kills = euler_step(
                domain, x, b, z, dt, sigma, alive,
                draws if config.bridge_correction else None)
            if node_exits.any() or bridge_kills.size:
                exits = np.union1d(np.flatnonzero(node_exits), bridge_kills)
                stamps = np.where(node_exits[exits], t + dt, t + 0.5 * dt)
                if mean_field:
                    u = rng.uniforms(seed, rng.REINSERT_SAMPLE, k, (n,))
                    x_new[exits] = sample_many(flow.node_at(t + dt), u[exits])
                else:
                    if exits.size == n:
                        raise TotalExtinction(float(stamps[0]))
                    u = rng.uniforms(seed, rng.PEER_CHOICE, k, (n,))
                    _reinsert_at_peers(x_new, exits, u)
                counts[exits] += 1
                ev_times.append(stamps)
                ev_particles.append(exits)
                ev_positions.append(x_new[exits])
                over = np.flatnonzero(counts > reinsertion_cap)
                if over.size:
                    raise ReinsertionBlowup(t + dt, int(over[0]), reinsertion_cap)
            x = x_new
        if not np.all(np.isfinite(x)):
            raise NumericalError(f"non-finite state at t={grid[segment + 1]:g}")
        record(segment + 1, float(grid[segment + 1]))

    event_times = np.concatenate([np.empty(0), *ev_times])
    return FVTrace(
        model=model,
        variant=variant,
        times=grid.copy(),
        snapshots=snapshots,
        controls=controls,
        f_curve=f_curve,
        f_se=f_se,
        final_counts=counts.astype(float),
        event_times=event_times,
        event_particles=np.concatenate([np.empty(0, dtype=np.int64), *ev_particles]),
        event_positions=np.concatenate([np.empty((0, d)), *ev_positions]),
        event_sources=np.full(event_times.shape[0], source, dtype=np.int64),
        dt=dt,
        seed=seed,
    )


def simulate_fv_finite(model: ModelSpec, policy: FeedbackPolicy, config: SimConfig,
                       reinsertion_cap: int = DEFAULT_REINSERTION_CAP,
                       initial_law=None) -> FVTrace:
    """Interacting reinsertion system with uniform-peer jumps.

    Same-step exits are processed in ascending particle index, each
    seeing the post-update positions of the ones handled before it.
    """
    return _simulate_fv(model, policy, None, config, "finite", reinsertion_cap,
                        initial_law=initial_law)


def simulate_fv_meanfield(model: ModelSpec, policy: FeedbackPolicy, flow: MeasureFlow,
                          config: SimConfig,
                          reinsertion_cap: int = DEFAULT_REINSERTION_CAP,
                          initial_law=None) -> FVTrace:
    """Independent reinsertion dynamics driven by a frozen flow."""
    return _simulate_fv(model, policy, flow, config, "meanfield", reinsertion_cap,
                        initial_law=initial_law)


@dataclass
class FVCorrespondence:
    """Per-node comparison of reinsertion dynamics against a killed run."""

    times: np.ndarray
    w1: np.ndarray
    f_log_residual: np.ndarray
    max_w1: float
    max_f_log_residual: float

    def to_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "w1": self.w1.tolist(),
            "f_log_residual": self.f_log_residual.tolist(),
            "max_w1": self.max_w1,
            "max_f_log_residual": self.max_f_log_residual,
        }


def fv_correspondence_report(fv: FVTrace, killed: KilledEnsemble) -> FVCorrespondence:
    """W1 of FV marginals against the killed conditional flow, and the
    residual between the reinsertion curve and minus log survival."""
    if not isinstance(fv, FVTrace):
        raise ValueError("first argument must be the FVTrace")
    if not isinstance(killed, KilledEnsemble):
        raise ValueError("second argument must be the KilledEnsemble")
    if fv.times.shape != killed.times.shape or np.any(np.abs(fv.times - killed.times) > _TIME_TOL):
        raise ValueError("the two runs must share their output grid")
    flow = conditional_flow(killed)
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
        f_log_residual=resid,
        max_w1=float(w1.max()),
        max_f_log_residual=float(resid.max()),
    )
