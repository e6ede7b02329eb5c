"""Fixed-point iteration for the self-consistent conditional flow.

One update simulates the killed ensemble with the measure argument of
the drift frozen to an input flow and returns the resulting conditional
flow.  Iterating this map under common random numbers (the same base
seed every sweep) converges geometrically for moderate mean-field
gains; the solver stops once successive flows are within tol in the
max-over-nodes W1 metric.  Every sweep is one simulation pass over
Blocks, one block per control still iterating, all under the same seed,
start and initial law; a block leaves the stack once its own iteration
stops, and a single control is the one-block case.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import SurvivorDepletion
from .killed_sim import (Blocks, KilledEnsemble, SimConfig, conditional_flow,
                         simulate_killed, without_mean_field)
from .measures import MeasureFlow, flow_distance
from .model import ModelSpec


@dataclass
class FixedPointResult:
    """Converged (or truncated) output of the fixed-point solver."""

    flow: MeasureFlow
    iterations: int
    distance_trace: list[float]
    converged: bool
    ensemble: KilledEnsemble


def _block_flows(ens: KilledEnsemble) -> list:
    """Per block, its conditional flow or the SurvivorDepletion that ended it."""
    flows = []
    for b in range(len(ens.blocks)):
        try:
            flows.append(conditional_flow(ens.block(b)))
        except SurvivorDepletion as err:
            flows.append(err)
    return flows


def flow_update(model: ModelSpec, control, flow_in,
                config: SimConfig) -> tuple[MeasureFlow | list, KilledEnsemble]:
    """One sweep of the conditional-law map with the input flow frozen.

    Blocks sweep in one pass: they carry their own input flows and seeds
    (flow_in is then None), and the flow returned is a list holding each
    block's conditional flow or the SurvivorDepletion that ended it.
    """
    ens = simulate_killed(model, control, flow_in, config)
    if isinstance(control, Blocks):
        return _block_flows(ens), ens
    return conditional_flow(ens), ens


def solve_fixed_point(model: ModelSpec, control, config: SimConfig,
                      tol: float = 1e-2, max_iter: int = 10) -> FixedPointResult:
    """Iterate the conditional-law map until the flow stops moving.

    The initial guess is the conditional flow of the same model with the
    mean-field gain switched off, simulated under the same seed.  Non-
    convergence within max_iter is reported through the converged flag
    rather than an exception.
    """
    result = solve_fixed_points(model, [control], config, tol=tol, max_iter=max_iter)[0]
    if isinstance(result, SurvivorDepletion):
        raise result
    return result


def solve_fixed_points(model: ModelSpec, controls, config: SimConfig,
                       tol: float = 1e-2, max_iter: int = 10) -> list:
    """Solve one fixed point per control, all controls in stacked sweeps.

    Each control is a block of config.n_particles particles under
    config.seed, so entry b equals solve_fixed_point(model, controls[b],
    config) bit for bit; where that call would raise SurvivorDepletion,
    entry b is the error instead.  Each sweep is a single simulate_killed
    pass over Blocks, so more than one control needs feedback policies.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    controls = list(controls)
    results: list = [None] * len(controls)
    flows: list = [None] * len(controls)
    traces: list[list[float]] = [[] for _ in controls]
    start = float(config.grid[0])

    def sweep(active: list[int], coupled: bool) -> tuple[list, KilledEnsemble | None]:
        """Run the active blocks in one pass: per block its new flow or
        SurvivorDepletion, and the ensemble.  Uncoupled, the pass is the
        initial guess with the mean-field gain switched off."""
        n_active = len(active)
        blocks = Blocks(policies=[controls[b] for b in active],
                        flows=[flows[b] if coupled else None for b in active],
                        seeds=[config.seed] * n_active, starts=[start] * n_active,
                        laws=[model.initial] * n_active)
        stacked = replace(config, n_particles=config.n_particles * n_active)
        try:
            if coupled:
                return flow_update(model, blocks, None, stacked)
            ens = simulate_killed(without_mean_field(model), blocks, None, stacked)
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
