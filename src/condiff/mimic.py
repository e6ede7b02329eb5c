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


@dataclass
class RegressionGrid:
    """Cell means of the controls among survivors.

    filled marks cells that held no samples; their values were copied
    from the nearest populated cell (Manhattan distance, breadth-first,
    deterministic tie-breaking), so the resulting policy is total.
    """

    time_edges: np.ndarray
    space_edges: tuple
    values: np.ndarray
    counts: np.ndarray
    filled: np.ndarray

    @property
    def fill_fraction(self) -> float:
        return float(self.filled.mean())


def build_regression_grid(ens: KilledEnsemble, time_bins: int,
                          space_bins: int) -> RegressionGrid:
    """Average the controls of alive particles per lattice cell."""
    model = ens.model
    d_a = model.control_dim
    shape = (int(time_bins),) + (int(space_bins),) * model.dim
    template = GridPolicy.build(model, time_bins, space_bins,
                                np.zeros(shape + (d_a,)))
    sums = np.zeros(shape + (d_a,))
    counts = np.zeros(shape, dtype=np.int64)
    for m in range(ens.times.shape[0]):
        alive = ens.alive_at(m)
        if not alive.any():
            continue  # the slab coverage check below reports the gap
        t = float(ens.times[m])
        tb, spatial = template.cell_index(t, ens.snapshots[m][alive])
        np.add.at(sums, (tb, *spatial), ens.controls_at(m)[alive])
        np.add.at(counts, (tb, *spatial), 1)

    slab_counts = counts.reshape(shape[0], -1).sum(axis=1)
    if np.any(slab_counts == 0):
        b = int(np.argmax(slab_counts == 0))
        raise SurvivorDepletion(float(template.time_edges[b]), 0, 1)

    filled = counts == 0
    values = np.zeros_like(sums)
    np.divide(sums, counts[..., None], out=values, where=~filled[..., None])
    values = np.clip(values, np.asarray(model.control_set.lo),
                     np.asarray(model.control_set.hi))

    if filled.any():
        dist = np.where(filled, -1, 0)
        queue = deque(tuple(idx) for idx in np.argwhere(~filled))
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

    return RegressionGrid(time_edges=template.time_edges,
                          space_edges=template.space_edges,
                          values=values, counts=counts, filled=filled)


def regress_feedback(ens: KilledEnsemble, time_bins: int,
                     space_bins: int) -> tuple[GridPolicy, RegressionGrid]:
    """The mimicking policy and the regression diagnostics behind it."""
    grid = build_regression_grid(ens, time_bins, space_bins)
    policy = GridPolicy(grid.time_edges, grid.space_edges, grid.values,
                        ens.model.control_set)
    return policy, grid


@dataclass
class MimicReport:
    """Open-loop versus reconstructed-feedback comparison."""

    j_open: RewardReport
    j_closed: RewardReport
    delta: float
    delta_se: float
    regression: RegressionGrid
    fixed_point: FixedPointResult
    closed_seed: int

    def to_dict(self) -> dict:
        return {
            "j_open": self.j_open.to_dict(),
            "j_closed": self.j_closed.to_dict(),
            "delta": self.delta,
            "delta_se": self.delta_se,
            "fill_fraction": self.regression.fill_fraction,
            "picard_iterations": self.fixed_point.iterations,
            "picard_converged": self.fixed_point.converged,
            "closed_seed": self.closed_seed,
        }


def mimic_compare(model: ModelSpec, open_control: OpenLoopControl,
                  config: SimConfig, time_bins: int = 8, space_bins: int = 16,
                  tol: float = 1e-2, max_iter: int = 10) -> MimicReport:
    """Reward comparison under one frozen flow.

    The open-loop run first solves its own fixed point; the regressed
    policy then re-simulates against that very flow (fresh seed, since
    the point is an out-of-sample comparison), and both rewards
    condition on survival.  delta > 0 means feedback did better.
    """
    if not isinstance(open_control, OpenLoopControl):
        raise ValueError("mimic_compare expects an open-loop control")
    fp = solve_fixed_point(model, open_control, config, tol=tol, max_iter=max_iter)
    j_open = eval_reward_conditional(fp.ensemble, fp.flow)
    policy, grid = regress_feedback(fp.ensemble, time_bins, space_bins)
    closed_seed = rng.derive_seed(config.seed, rng.MIMIC_CLOSED, 0)
    ens_closed = simulate_killed(model, policy, fp.flow,
                                 replace(config, seed=closed_seed))
    j_closed = eval_reward_conditional(ens_closed, fp.flow)
    return MimicReport(
        j_open=j_open, j_closed=j_closed, delta=j_closed.total - j_open.total,
        delta_se=_batch_se(j_closed.batch_totals - j_open.batch_totals),
        regression=grid, fixed_point=fp, closed_seed=closed_seed,
    )
