"""Fixed-point iteration for the self-consistent conditional flow.

One update simulates the killed ensemble with the measure argument of
the drift frozen to an input flow and returns the resulting conditional
flow.  Iterating this map under common random numbers (the same base
seed every sweep) converges geometrically for moderate mean-field
gains; the solver stops once successive flows are within tol in the
max-over-nodes W1 metric.  Several controls can be solved together:
each is one block of a stacked ensemble, and a block leaves the stack
once its own iteration stops.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SurvivorDepletion
from .killed_sim import (KilledEnsemble, SimConfig, conditional_flow,
                         simulate_killed, without_mean_field)
from .measures import MeasureFlow, flow_distance
from .model import ModelSpec, PolicyStack


@dataclass
class FixedPointResult:
    """Converged (or truncated) output of the fixed-point solver."""

    flow: MeasureFlow
    iterations: int
    distance_trace: list[float]
    survival: np.ndarray
    converged: bool
    ensemble: KilledEnsemble


def _block_flows(ens: KilledEnsemble) -> list:
    """Per block, its conditional flow or the SurvivorDepletion that ended it."""
    flows = []
    for b in range(ens.blocks):
        try:
            flows.append(conditional_flow(ens.block(b)))
        except SurvivorDepletion as err:
            flows.append(err)
    return flows


def flow_update(model: ModelSpec, control, flow_in, config: SimConfig,
                iteration_seed: int | None = None,
                initial_law=None) -> tuple[MeasureFlow | list, KilledEnsemble]:
    """One sweep of the conditional-law map with the input flow frozen.

    A PolicyStack sweeps all its blocks in one pass: flow_in then holds
    one flow per block, and the flow returned is a list holding each
    block's conditional flow or the SurvivorDepletion that ended it.
    """
    if iteration_seed is not None:
        config = replace(config, seed=int(iteration_seed))
    ens = simulate_killed(model, control, flow_in, config, initial_law=initial_law)
    if isinstance(control, PolicyStack):
        return _block_flows(ens), ens
    return conditional_flow(ens), ens


def solve_fixed_point(model: ModelSpec, control, config: SimConfig,
                      tol: float = 1e-2, max_iter: int = 10,
                      initial_law=None) -> FixedPointResult:
    """Iterate the conditional-law map until the flow stops moving.

    The initial guess is the conditional flow of the same model with the
    mean-field gain switched off, simulated under the same seed.  Non-
    convergence within max_iter is reported through the converged flag
    rather than an exception.
    """
    result = solve_fixed_points(model, [control], config, tol=tol, max_iter=max_iter,
                                initial_law=initial_law)[0]
    if isinstance(result, SurvivorDepletion):
        raise result
    return result


def solve_fixed_points(model: ModelSpec, controls, config: SimConfig,
                       tol: float = 1e-2, max_iter: int = 10,
                       initial_law=None) -> list:
    """Solve one fixed point per control, all controls in stacked sweeps.

    Each control is a block of config.n_particles particles under
    config.seed, so entry b equals solve_fixed_point(model, controls[b],
    config) bit for bit; where that call would raise SurvivorDepletion,
    entry b is the error instead.  A sweep with more than one block left
    is a single simulate_killed pass over a PolicyStack, so stacking
    needs feedback policies.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    controls = list(controls)
    results: list = [None] * len(controls)
    flows: list = [None] * len(controls)
    traces: list[list[float]] = [[] for _ in controls]

    def sweep(active: list[int], coupled: bool) -> tuple[list, KilledEnsemble | None]:
        """Run the active blocks in one pass: per block its new flow or
        SurvivorDepletion, and the ensemble.  Uncoupled, the pass is the
        initial guess with the mean-field gain switched off."""
        if len(active) == 1:
            control = controls[active[0]]
            flow_in = flows[active[0]] if coupled else None
        else:
            control = PolicyStack(controls[b] for b in active)
            flow_in = [flows[b] for b in active] if coupled else None
        stacked = replace(config, n_particles=config.n_particles * len(active))
        try:
            if coupled:
                new, ens = flow_update(model, control, flow_in, stacked,
                                       initial_law=initial_law)
                return (new if len(active) > 1 else [new]), ens
            ens = simulate_killed(without_mean_field(model), control, None, stacked,
                                  initial_law=initial_law)
            return _block_flows(ens), ens
        except SurvivorDepletion as err:
            return list(err.blocks or [err]), None

    active = list(range(len(controls)))
    for b, guess in zip(active, sweep(active, coupled=False)[0]):
        if isinstance(guess, SurvivorDepletion):
            results[b] = guess
        else:
            flows[b] = guess
    active = [b for b in active if results[b] is None]

    while active:
        new_flows, ens = sweep(active, coupled=True)
        remaining = []
        for j, (b, new_flow) in enumerate(zip(active, new_flows)):
            if isinstance(new_flow, SurvivorDepletion):
                results[b] = new_flow
                continue
            dist = flow_distance(flows[b], new_flow)
            traces[b].append(dist)
            flows[b] = new_flow
            if dist <= tol or len(traces[b]) == max_iter:
                results[b] = FixedPointResult(
                    flow=new_flow,
                    iterations=len(traces[b]),
                    distance_trace=traces[b],
                    survival=new_flow.survival.copy(),
                    converged=dist <= tol,
                    ensemble=ens.block(j),
                )
            else:
                remaining.append(b)
        # Blocks still iterating need only their flows: let the stacked
        # ensemble go unless a finished block's view holds it.
        del ens
        active = remaining
    return results
