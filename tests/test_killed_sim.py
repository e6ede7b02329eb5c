import numpy as np
import pytest
from dataclasses import replace
from math import erf, sqrt

from condiff.errors import NumericalError, SurvivorDepletion
from condiff.geometry import Box
from condiff.killed_sim import (Restarts, SimConfig, analytic_interval_survival,
                                conditional_flow, exit_cdf,
                                girsanov_survival_floor, restrict_ensemble,
                                simulate_killed, uniform_grid,
                                without_mean_field)
from condiff.model import (Cloud, ConstantPolicy, ControlBox, DriftSpec, GridPolicy,
                          LinearPolicy, ModelSpec, PointMass, RandomizedSignControl,
                          UniformBox)
from condiff.scenarios import (attractive_interval, boundary_start,
                               driftless_interval, rich_reward)


def images_survival(t: float, terms: int = 200) -> float:
    """Method-of-images dual of the eigenfunction series (x0 = 0, L = 1)."""
    phi = lambda z: 0.5 * (1 + erf(z / sqrt(2)))
    return sum((-1) ** k * (phi((2 * k + 1) / sqrt(t)) - phi((2 * k - 1) / sqrt(t)))
               for k in range(-terms, terms + 1))


def test_series_matches_images_representation():
    for t in (0.1, 0.25, 0.5, 1.0, 3.0):
        assert analytic_interval_survival(0.0, 1.0, 1.0, t) == pytest.approx(
            images_survival(t), abs=1e-10)


def test_series_truncation_at_small_times():
    assert analytic_interval_survival(0.0, 1.0, 1.0, 1e-4, n_terms=200) >= 0.999
    assert analytic_interval_survival(0.0, 1.0, 1.0, 1e-4) >= 0.999
    # a start on the boundary has zero survival at any positive time
    assert analytic_interval_survival(1.0, 1.0, 1.0, 0.01) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        analytic_interval_survival(1.5, 1.0, 1.0, 0.1)


def test_uniform_grid():
    g = uniform_grid(1.0, 0.25)
    assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])
    g2 = uniform_grid(1.0, 0.25, t_start=0.5)
    assert np.allclose(g2, [0.5, 0.75, 1.0])


def test_sim_config_validation():
    grid = uniform_grid(1.0, 0.1)
    with pytest.raises(ValueError):
        SimConfig(0, 1e-3, 1, grid)
    with pytest.raises(ValueError):
        SimConfig(10, -1e-3, 1, grid)
    with pytest.raises(ValueError):
        SimConfig(10, 1e-3, -1, grid)
    with pytest.raises(ValueError):
        SimConfig(10, 3e-4, 1, grid)  # nodes not multiples of dt
    with pytest.raises(ValueError):
        SimConfig(10, 1e-3, 1, np.array([0.5]))


def test_survival_tracks_series(driftless_run):
    _, _, _, ens = driftless_run
    series = analytic_interval_survival(0.0, 1.0, 1.0, ens.times[1:])
    se = np.sqrt(series * (1 - series) / ens.n)
    assert np.all(np.abs(ens.survival[1:] - series) <= 4 * se + 1e-12)


def test_initial_state_and_node_zero(driftless_run):
    _, _, _, ens = driftless_run
    assert ens.survival[0] == 1.0
    assert np.array_equal(ens.snapshots[0], ens.initial_points)
    assert np.all(ens.initial_points == 0.0)


def test_exit_cdf_properties(driftless_run):
    _, _, _, ens = driftless_run
    grid = np.linspace(0.0, 1.0, 21)
    cdf = exit_cdf(ens, grid)
    assert cdf[0] == 0.0
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[-1] == pytest.approx(1.0 - ens.survival[-1])


def test_bit_identical_reruns(driftless_run):
    model, policy, config, ens = driftless_run
    again = simulate_killed(model, policy, None, config)
    assert np.array_equal(again.exit_times, ens.exit_times)
    assert np.array_equal(again.snapshots, ens.snapshots)
    other = simulate_killed(model, policy, None,
                            SimConfig(config.n_particles, config.dt, 8, config.grid))
    assert not np.array_equal(other.exit_times, ens.exit_times)


def test_conditional_flow_support(driftless_run, driftless_flow):
    model, _, _, ens = driftless_run
    flow = driftless_flow
    assert np.array_equal(flow.times, ens.times)
    for node in flow.nodes:
        assert np.all(model.domain.boundary_distance(node.points) >= -1e-12)
    assert np.allclose(flow.survival, ens.survival)


def test_restrict_ensemble(driftless_run):
    _, _, _, ens = driftless_run
    short = restrict_ensemble(ens, 0.5)
    assert short.times[-1] == pytest.approx(0.5)
    assert short.snapshots.shape[0] == short.times.shape[0]
    assert np.array_equal(short.exit_times, ens.exit_times)


def test_boundary_start_bridge_detects_certainly():
    model = boundary_start(horizon=0.01)
    policy = ConstantPolicy((0.0,), model.control_set)
    grid = np.array([0.0, 0.01])
    on = simulate_killed(model, policy, None,
                         SimConfig(500, 1e-5, 3, grid, min_survivors=0))
    assert on.survival_at(0.01) == 0.0
    off = simulate_killed(model, policy, None,
                          SimConfig(500, 1e-5, 3, grid, bridge_correction=False,
                                    min_survivors=0))
    assert 1.0 - off.survival_at(0.01) >= 0.9


def test_survivor_depletion_raises():
    model = driftless_interval(horizon=3.0)
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(20, 1e-3, 5, uniform_grid(3.0, 0.5), min_survivors=10)
    with pytest.raises(SurvivorDepletion):
        simulate_killed(model, policy, None, config)


def test_min_survivors_zero_allows_extinction():
    model = boundary_start(horizon=0.01)
    policy = ConstantPolicy((0.0,), model.control_set)
    ens = simulate_killed(model, policy, None,
                          SimConfig(50, 1e-5, 3, np.array([0.0, 0.01]),
                                    min_survivors=0))
    assert ens.survival[-1] == 0.0
    with pytest.raises(SurvivorDepletion):
        conditional_flow(ens)


def test_outside_time_accumulates_after_exit(driftless_run):
    _, _, _, ens = driftless_run
    out = ens.outside_time
    assert out is not None
    final = out[-1]
    dead = ~ens.alive_at(len(ens.times) - 1)
    # paths keep moving after the kill; any that exited early have had
    # time to wander outside, and survivors have zero outside time
    assert np.all(final[~dead] == 0.0)
    assert final[dead].max() > 0.0
    assert np.all(np.diff(out, axis=0) >= -1e-15)


def test_girsanov_floor_formula():
    p0 = analytic_interval_survival(0.0, 1.0, 1.0, 1.0)
    floor = girsanov_survival_floor(1.0, ((1.0,),), 1.0, p0)
    assert floor == pytest.approx(p0 ** 2 * np.exp(-1.0))
    assert girsanov_survival_floor(0.0, ((1.0,),), 1.0, p0) == pytest.approx(p0 ** 2)
    wide = girsanov_survival_floor(1.0, ((2.0,),), 1.0, p0)
    assert wide > floor  # stronger noise weakens the drift penalty


def test_without_mean_field():
    model = attractive_interval(kappa=0.5)
    plain = without_mean_field(model)
    assert plain.drift.mf_gain == 0.0
    assert model.drift.mf_gain == 0.5


def test_bounded_drift_displacement():
    model = attractive_interval(kappa=0.0, clip_bound=0.5, horizon=0.2)
    policy = LinearPolicy((0.0,), ((1.0,),), model.control_set)
    config = SimConfig(500, 1e-3, 9, uniform_grid(0.2, 0.05))
    ens = simulate_killed(model, policy, None, config)
    steps = np.diff(ens.snapshots, axis=0)[..., 0]
    # |x' - x| <= clip * (node gap) + sigma * |brownian increment|: bound the
    # gaussian part by 6 standard deviations over a 50-step node gap
    bound = 0.5 * 0.05 + 6.0 * np.sqrt(0.05)
    assert np.max(np.abs(steps)) <= bound


def test_flow_input_requires_matching_gain(driftless_flow):
    model = attractive_interval(kappa=0.5, horizon=1.0)
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(200, 1e-3, 5, uniform_grid(1.0, 0.5))
    ens = simulate_killed(model, policy, driftless_flow, config)
    assert ens.survival[-1] > 0
    with pytest.raises(ValueError):
        simulate_killed(model, policy, None, config)


def _coupled_box():
    return ModelSpec(
        domain=Box((-1.0, -1.0), (1.0, 1.0)), sigma=((0.8, 0.0), (0.3, 0.6)),
        drift=DriftSpec(base_kind="affine", base_matrix=((-0.4, 0.1), (0.0, -0.2)),
                        mf_gain=1.0, control_matrix=((0.9, 0.35), (0.15, 1.1)),
                        clip_bound=3.0),
        control_set=ControlBox((-1.0, -1.0), (1.0, 1.0)), horizon=0.5,
        reward=rich_reward(0.0), initial=UniformBox((-0.5, -0.5), (0.5, 0.5)))


def test_restarted_blocks_read_as_their_own_runs():
    # A coupled box under a time-dependent policy whose bins end on steps,
    # with starts on and between nodes: each block must use its own clock
    # for the policy, the flow means and the exit stamps.
    model = _coupled_box()
    values = np.random.default_rng(11).uniform(-1.0, 1.0, (5, 4, 4, 2))
    policy = GridPolicy.build(model, 5, 4, values)
    flow = conditional_flow(simulate_killed(
        without_mean_field(model), policy, None,
        SimConfig(400, 0.01, 3, uniform_grid(0.5, 0.05))))
    restarts = Restarts(starts=(0.0, 0.13, 0.2, 0.2, 0.41), seeds=(21, 22, 23, 24, 25),
                        laws=(model.initial, Cloud(flow.node_at(0.15).points),
                              PointMass((0.99, -0.2)), model.initial,
                              Cloud(flow.node_at(0.4).points)))
    n_block = 150
    config = SimConfig(5 * n_block, 0.01, 7, np.array([0.0, 0.2, 0.35, 0.5]),
                       min_survivors=0)
    ens = simulate_killed(model, policy, flow, config, restarts=restarts)
    assert ens.blocks == 5
    for b, (start, seed, law) in enumerate(zip(restarts.starts, restarts.seeds,
                                                restarts.laws)):
        grid = np.concatenate([[start], config.grid[config.grid > start + 1e-9]])
        alone = simulate_killed(model, policy, flow,
                                replace(config, n_particles=n_block, seed=seed, grid=grid),
                                initial_law=law, t0=start)
        block = ens.block(b)
        assert block.seed == seed
        for name in ("times", "initial_points", "exit_times", "snapshots", "controls",
                     "outside_time"):
            got, want = getattr(block, name), getattr(alone, name)
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), (b, name)
    # the point start on the boundary's doorstep gives bridge kills in its
    # first step, stamped at half a step after its own start
    assert np.any(ens.block(2).exit_times == 0.2 + 0.5 * 0.01)


def test_restarts_are_validated():
    model = driftless_interval(horizon=0.5)
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(20, 0.01, 1, uniform_grid(0.5, 0.25), min_survivors=0)

    def run(starts, control=policy, **kwargs):
        restarts = Restarts(starts, range(len(starts)), (model.initial,) * len(starts))
        return simulate_killed(model, control, None, config, restarts=restarts, **kwargs)

    assert run((0.0, 0.25)).blocks == 2
    with pytest.raises(ValueError, match="must not decrease"):
        run((0.0, 0.3, 0.2, 0.4))
    with pytest.raises(ValueError, match="first restart"):
        run((0.1, 0.2))
    with pytest.raises(ValueError, match="before the last grid node"):
        run((0.0, 0.5))
    with pytest.raises(ValueError, match="multiples of dt"):
        run((0.0, 0.125))
    with pytest.raises(ValueError, match="split evenly"):
        run((0.0, 0.1, 0.2))
    with pytest.raises(ValueError, match="their own start times"):
        run((0.0, 0.25), initial_law=model.initial)
    with pytest.raises(ValueError, match="one feedback policy"):
        run((0.0, 0.25), control=RandomizedSignControl((0.0,), (1.0,), model.control_set))
    with pytest.raises(ValueError, match="one start, seed and law"):
        Restarts((0.0, 0.25), (1,), (model.initial,) * 2)
