"""Feedback reconstruction of open-loop controls.

An open-loop control may depend on the driving noise, not just the
current position.  Averaging its recorded values over survivors in
each cell of a time-space lattice produces a Markovian feedback policy
with the same conditional mean.  Re-running the dynamics under that
policy with the same frozen flow cannot lower the reward when the
drift is affine and the running reward concave in the control, which
gives a one-sided comparison to verify; when the open-loop control is
already Markovian and constant on the lattice cells, the reconstruction
reproduces it and the rewards match to simulation noise.

The regressed policy is its own record: regress_feedback returns it with
the per-cell sample counts, and a cell with count 0 was filled from its
neighbours.  A lattice with a time slab that holds no output-grid node
is refused before anything is simulated.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import SurvivorDepletion
from .killed_sim import KilledEnsemble, SimConfig, simulate_killed
from .model import GridPolicy, ModelSpec, OpenLoopControl
from .picard import FixedPointResult, solve_fixed_point
from .reward_opt import RewardReport, _batch_se, eval_reward_conditional


def regression_lattice(model: ModelSpec, times: np.ndarray, time_bins: int,
                       space_bins: int) -> GridPolicy:
    """The zero policy on the time_bins by space_bins lattice.

    Every time slab must hold a node of times, since a slab's controls
    are read at the nodes; a slab that holds none raises ValueError
    naming it.
    """
    d_a = model.control_dim
    shape = (int(time_bins),) + (int(space_bins),) * model.dim
    lattice = GridPolicy.build(model, time_bins, space_bins, np.zeros(shape + (d_a,)))
    none = np.empty((0, model.dim))
    held = {lattice.cell_index(float(t), none)[0] for t in times}
    edges = lattice.time_edges
    for b in range(shape[0]):
        if b not in held:
            raise ValueError(f"time slab {b} [{edges[b]:g}, {edges[b + 1]:g}) of the "
                             f"{shape[0]}-slab regression lattice holds no output-grid "
                             f"node; use fewer time bins or a finer grid")
    return lattice


def regress_feedback(ens: KilledEnsemble, time_bins: int,
                     space_bins: int) -> tuple[GridPolicy, np.ndarray]:
    """The mimicking policy, and the per-cell counts of the samples behind it.

    Each cell's value is the mean control of the particles alive in it at
    the nodes.  A cell with count 0 takes the value of the nearest
    populated cell (Manhattan distance, breadth-first, deterministic
    tie-breaking), so the policy is total, and the policy clamps every
    value to the control box.  A node with no survivor raises
    SurvivorDepletion at its time.
    """
    model = ens.model
    lattice = regression_lattice(model, ens.times, time_bins, space_bins)
    shape = lattice.values.shape[:-1]
    sums = np.zeros_like(lattice.values)
    counts = np.zeros(shape, dtype=np.int64)
    for m in range(ens.times.shape[0]):
        alive = ens.alive_at(m)
        t = float(ens.times[m])
        if not alive.any():
            raise SurvivorDepletion(t, 0, 1)
        tb, spatial = lattice.cell_index(t, ens.snapshots[m][alive])
        np.add.at(sums, (tb, *spatial), ens.controls_at(m)[alive])
        np.add.at(counts, (tb, *spatial), 1)

    empty = counts == 0
    values = np.zeros_like(sums)
    np.divide(sums, counts[..., None], out=values, where=~empty[..., None])
    if empty.any():
        dist = np.where(empty, -1, 0)
        queue = deque(tuple(idx) for idx in np.argwhere(~empty))
        while queue:
            cur = queue.popleft()
            for axis in range(len(shape)):
                for delta in (-1, 1):
                    nxt = list(cur)
                    nxt[axis] += delta
                    if 0 <= nxt[axis] < shape[axis]:
                        key = tuple(nxt)
                        if dist[key] < 0:
                            dist[key] = dist[cur] + 1
                            values[key] = values[cur]
                            queue.append(key)
    return replace(lattice, values=values), counts


@dataclass
class MimicReport:
    """Open-loop versus reconstructed-feedback comparison."""

    j_open: RewardReport
    j_closed: RewardReport
    delta: float
    delta_se: float
    policy: GridPolicy
    counts: np.ndarray
    fixed_point: FixedPointResult
    closed_seed: int

    def to_dict(self) -> dict:
        return {
            "j_open": self.j_open.to_dict(),
            "j_closed": self.j_closed.to_dict(),
            "delta": self.delta,
            "delta_se": self.delta_se,
            "fill_fraction": float((self.counts == 0).mean()),
            "picard_iterations": self.fixed_point.iterations,
            "picard_converged": self.fixed_point.converged,
            "closed_seed": self.closed_seed,
        }


def mimic_compare(model: ModelSpec, open_control: OpenLoopControl,
                  config: SimConfig, time_bins: int = 8, space_bins: int = 16,
                  tol: float = 1e-2, max_iter: int = 10) -> MimicReport:
    """Reward comparison under one frozen flow.

    The lattice is checked against the output grid before anything runs
    (regression_lattice).  The open-loop run first solves its own fixed
    point; the regressed policy then re-simulates against that very flow
    (fresh seed, since the point is an out-of-sample comparison), and
    both rewards condition on survival.  delta > 0 means feedback did
    better.
    """
    if not isinstance(open_control, OpenLoopControl):
        raise ValueError("mimic_compare expects an open-loop control")
    regression_lattice(model, config.grid, time_bins, space_bins)
    fp = solve_fixed_point(model, open_control, config, tol=tol, max_iter=max_iter)
    j_open = eval_reward_conditional(fp.ensemble, fp.flow)
    policy, counts = regress_feedback(fp.ensemble, time_bins, space_bins)
    closed_seed = rng.derive_seed(config.seed, rng.MIMIC_CLOSED, 0)
    ens_closed = simulate_killed(model, policy, fp.flow,
                                 replace(config, seed=closed_seed))
    j_closed = eval_reward_conditional(ens_closed, fp.flow)
    return MimicReport(
        j_open=j_open, j_closed=j_closed, delta=j_closed.total - j_open.total,
        delta_se=_batch_se(j_closed.batch_totals - j_open.batch_totals),
        policy=policy, counts=counts, fixed_point=fp, closed_seed=closed_seed,
    )
