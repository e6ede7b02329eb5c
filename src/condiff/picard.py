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


def flow_update(model: ModelSpec, control, flow_in,
                config: SimConfig) -> tuple[MeasureFlow | list, KilledEnsemble]:
    """One sweep of the conditional-law map with the input flow frozen.

    Blocks sweep in one pass: they carry their own input flows and seeds
    (flow_in is then None), and the flow returned is a list holding each
    block's conditional flow or the SurvivorDepletion that ended it.
    """
    ens = simulate_killed(model, control, flow_in, config)
    if not isinstance(control, Blocks):
        return conditional_flow(ens), ens
    flows = []
    for b in range(len(control)):
        try:
            flows.append(conditional_flow(ens.block(b)))
        except SurvivorDepletion as err:
            flows.append(err)
    return flows, ens


def solve_fixed_point(model: ModelSpec, control, config: SimConfig,
                      tol: float = 1e-2, max_iter: int = 10) -> FixedPointResult:
    """Iterate the conditional-law map until the flow stops moving.

    The initial guess is the conditional flow of the same model with the
    mean-field gain switched off, simulated under the same seed.  An
    uncoupled model (mf_gain 0) is therefore solved in one pass: its map
    ignores the input flow, so the guess is the fixed point, reported as
    one iteration at distance 0.0.  Non-convergence within max_iter is
    reported through the converged flag rather than an exception.
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
    entry b is the error instead.  The guess and each sweep are one
    flow_update, a single simulate_killed pass over Blocks, so more than
    one control needs feedback policies.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    controls = list(controls)
    results: list = [None] * len(controls)
    flows: list = [None] * len(controls)
    traces: list[list[float]] = [[] for _ in controls]
    start = float(config.grid[0])
    # Uncoupled, the map ignores its input flow: the guess is its own image.
    uncoupled = model.drift.mf_gain == 0.0

    active = list(range(len(controls)))
    sweep_model = without_mean_field(model)  # the initial guess
    while active:
        n_active = len(active)
        blocks = Blocks(policies=[controls[b] for b in active],
                        flows=[flows[b] for b in active],
                        seeds=[config.seed] * n_active, starts=[start] * n_active,
                        laws=[model.initial] * n_active)
        stacked = replace(config, n_particles=config.n_particles * n_active)
        new_flows, ens = flow_update(sweep_model, blocks, None, stacked)
        remaining = []
        for j, (b, new_flow) in enumerate(zip(active, new_flows)):
            if isinstance(new_flow, SurvivorDepletion):
                results[b] = new_flow
                continue
            if flows[b] is not None or uncoupled:
                dist = 0.0 if flows[b] is None else flow_distance(flows[b], new_flow)
                traces[b].append(dist)
                if dist <= tol or len(traces[b]) == max_iter:
                    results[b] = FixedPointResult(
                        flow=new_flow,
                        iterations=len(traces[b]),
                        distance_trace=traces[b],
                        converged=dist <= tol,
                        ensemble=ens.block(j),
                    )
                    continue
            flows[b] = new_flow
            remaining.append(b)
        # Blocks still iterating need only their flows: let the stacked
        # ensemble go unless a finished block's view holds it.
        del ens
        active = remaining
        sweep_model = model
    return results
