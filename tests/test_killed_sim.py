import numpy as np
import pytest
from dataclasses import fields, replace
from math import erf, sqrt

from condiff import geometry
from condiff.errors import NumericalError, SurvivorDepletion
from condiff.fleming_viot import simulate_fv_finite, simulate_fv_meanfield
from condiff.geometry import Ball, Box, Interval
from condiff.killed_sim import (Blocks, SimConfig, analytic_interval_survival,
                                conditional_flow, exit_cdf, girsanov_survival_floor,
                                restrict_ensemble, simulate_killed, uniform_grid,
                                without_mean_field)
from condiff.model import (Cloud, ConstantPolicy, ControlBox, DriftSpec, GridPolicy,
                          LinearPolicy, ModelSpec, PointMass, RandomizedSignControl,
                          UniformBox)
from condiff.scenarios import (attractive_interval, boundary_start,
                               ZERO_REWARD, driftless_interval)


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
    for step in (0.0, -0.25, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            uniform_grid(1.0, step)


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
    assert ens.snapshots[0].shape == (ens.n, 1)
    assert np.all(ens.snapshots[0] == 0.0)


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


def test_exited_paths_keep_moving(driftless_run):
    _, _, _, ens = driftless_run
    # each step advances the whole array, exited paths included; they only
    # drop out of the conditional statistics
    early = ens.exit_times < ens.times[-2]
    assert early.any()
    moved = np.any(ens.snapshots[-1] != ens.snapshots[-2], axis=1)
    assert np.all(moved[early])
    distance = ens.model.domain.boundary_distance(ens.snapshots[-1])
    alive = ens.alive_at(len(ens.times) - 1)
    assert np.all(distance[alive] > 0.0)
    assert np.any(distance[~alive] < 0.0)


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
        reward=ZERO_REWARD, initial=UniformBox((-0.5, -0.5), (0.5, 0.5)))


def _assert_block_is_its_own_run(block, alone, label):
    for name in fields(alone):
        got, want = getattr(block, name.name), getattr(alone, name.name)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape, (label, name.name)
            assert got.tobytes() == want.tobytes(), (label, name.name)
        else:
            assert got == want, (label, name.name)
    for m in range(alone.times.shape[0]):
        assert block.controls_at(m).tobytes() == alone.controls_at(m).tobytes(), (label, m)


def _block_or_depletion(run, b):
    """Block b of a run, or the SurvivorDepletion that ended it."""
    try:
        return run.block(b)
    except SurvivorDepletion as error:
        return error


def _assert_blocks_are_their_own_runs(model, blocks, config):
    """Each block of the pass is bit for bit its run alone, or, where that
    run is depleted, raises the same SurvivorDepletion."""
    ens = simulate_killed(model, blocks, None, config)
    assert len(ens.blocks) == len(blocks)
    n_block = config.n_particles // len(blocks)
    for b, (policy, flow, seed, start, law) in enumerate(zip(
            blocks.policies, blocks.flows, blocks.seeds, blocks.starts, blocks.laws)):
        grid = np.concatenate([[start], config.grid[config.grid > start + 1e-9]])
        alone = _block_or_depletion(simulate_killed(
            model, Blocks((policy,), (flow,), (seed,), (start,), (law,)), None,
            replace(config, n_particles=n_block, grid=grid)), 0)
        got = _block_or_depletion(ens, b)
        assert type(got) is type(alone), b
        if isinstance(alone, SurvivorDepletion):
            assert ((got.time, got.survivors, got.required)
                    == (alone.time, alone.survivors, alone.required)), b
        else:
            _assert_block_is_its_own_run(got, alone, b)
    return ens


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
    blocks = Blocks(policies=(policy,) * 5, flows=(flow,) * 5,
                    seeds=(21, 22, 23, 24, 25), starts=(0.0, 0.13, 0.2, 0.2, 0.41),
                    laws=(model.initial, Cloud(flow.node_at(0.15).points),
                          PointMass((0.99, -0.2)), model.initial,
                          Cloud(flow.node_at(0.4).points)))
    config = SimConfig(5 * 150, 0.01, 7, np.array([0.0, 0.2, 0.35, 0.5]),
                       min_survivors=0)
    ens = _assert_blocks_are_their_own_runs(model, blocks, config)
    # the point start on the boundary's doorstep gives bridge kills in its
    # first step, stamped at half a step after its own start
    assert np.any(ens.block(2).exit_times == 0.2 + 0.5 * 0.01)

    # Policy, flow, seed, start and law all differ from block to block.
    other_flow = conditional_flow(simulate_killed(
        without_mean_field(model), LinearPolicy((0.4, -0.3), ((0.5, 0.0), (0.2, -0.6)),
                                                model.control_set), None,
        SimConfig(300, 0.01, 4, uniform_grid(0.5, 0.1))))
    policies = (policy, ConstantPolicy((0.7, -0.4), model.control_set),
                LinearPolicy((0.1, 0.2), ((-0.8, 0.3), (0.0, 0.9)), model.control_set),
                GridPolicy.build(model, 5, 4, -values),
                ConstantPolicy((-0.2, 0.5), model.control_set))
    blocks = Blocks(policies=policies,
                    flows=(flow, other_flow, flow, other_flow, other_flow),
                    seeds=(31, 32, 33, 34, 35), starts=(0.0, 0.07, 0.2, 0.33, 0.41),
                    laws=(model.initial, PointMass((0.3, -0.1)),
                          Cloud(flow.node_at(0.2).points),
                          UniformBox((-0.2, 0.0), (0.4, 0.3)),
                          Cloud(other_flow.node_at(0.4).points)))
    _assert_blocks_are_their_own_runs(model, blocks, config)

    # Blocks that share some of their data: two share a seed, a start and
    # a law, and so their initial sample and draws, beside a third on the
    # same clock with its own seed and a fourth that starts later from the
    # shared seed but its own law.
    blocks = Blocks(policies=policies[:4], flows=(flow, other_flow, flow, flow),
                    seeds=(41, 41, 42, 41), starts=(0.0, 0.0, 0.0, 0.2),
                    laws=(model.initial, model.initial, model.initial,
                          PointMass((0.3, -0.1))))
    _assert_blocks_are_their_own_runs(model, blocks, replace(config, n_particles=4 * 150))


def test_controls_are_read_back_from_the_policy():
    # A feedback run stores no controls: controls_at reads the policy at a
    # node's time and positions.  On a block view that must be what the
    # stacked pass applied there: the block's policy at its own clock (its
    # start before it starts) and the stacked node's positions.  An
    # open-loop control depends on the noise path, so it stays recorded.
    model = attractive_interval(horizon=0.5)
    box = model.control_set
    grid = np.array([0.0, 0.2, 0.35, 0.5])
    # The time-dependent grid policy is the block that starts between nodes.
    policies = (ConstantPolicy((0.4,), box),
                GridPolicy.build(model, 5, 4, np.linspace(-1.0, 1.0, 20).reshape(5, 4, 1)),
                LinearPolicy((0.1,), ((-0.8,),), box))
    flow = conditional_flow(simulate_killed(without_mean_field(model), policies[0], None,
                                            SimConfig(400, 0.01, 3, uniform_grid(0.5, 0.05))))

    def assert_views_read_the_pass(run, starts, views):
        for b, (policy, start) in enumerate(zip(policies, starts)):
            first = int(np.searchsorted(grid, start + 1e-9)) - 1
            for m in range(views[b].times.shape[0]):
                t = max(start, grid[first + m])
                want = policy.values_at(t, run.snapshots[first + m, b])
                assert views[b].controls_at(m).tobytes() == want.tobytes(), (b, m)

    starts = (0.0, 0.13, 0.2)
    ens = simulate_killed(model, Blocks(policies, (flow,) * 3, (5, 6, 7), starts,
                                        (model.initial,) * 3), None,
                          SimConfig(3 * 100, 0.01, 5, grid, min_survivors=0))
    assert ens.controls is None
    assert_views_read_the_pass(ens, starts, [ens.block(b) for b in range(3)])
    plain = simulate_killed(model, policies[2], flow, SimConfig(100, 0.01, 5, grid))
    assert plain.controls is None and plain.policy is policies[2]
    # A plain run is block 0 of its pass, and has no other.
    assert plain.block(0) is plain
    with pytest.raises(IndexError):
        plain.block(1)

    trace = simulate_fv_meanfield(model, Blocks(policies, (flow,) * 3, (5, 6, 7), (0.0,) * 3,
                                                (model.initial,) * 3), None,
                                  SimConfig(3 * 100, 0.01, 5, grid))
    assert trace.event_times.shape[0] > 0 and trace.controls is None
    assert_views_read_the_pass(trace, (0.0,) * 3, [trace.block(b) for b in range(3)])

    sign = RandomizedSignControl((0.3,), (1.0,), box)
    open_loop = simulate_killed(without_mean_field(model), sign, None,
                                SimConfig(100, 0.01, 5, grid))
    assert open_loop.controls.shape == (grid.shape[0], 100, 1)
    want = box.clamp(np.sign(open_loop.snapshots[0] @ np.array([1.0]))[:, None] * 0.3)
    for m in range(grid.shape[0]):
        assert open_loop.controls_at(m).tobytes() == want.tobytes()


def test_restarts_are_validated():
    model = driftless_interval(horizon=0.5)
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(20, 0.01, 1, uniform_grid(0.5, 0.25), min_survivors=0)

    def run(starts, control=policy, flow_input=None):
        blocks = Blocks((control,) * len(starts), (None,) * len(starts),
                        range(len(starts)), starts, (model.initial,) * len(starts))
        return simulate_killed(model, blocks, flow_input, config)

    assert len(run((0.0, 0.25)).blocks) == 2
    with pytest.raises(ValueError, match="must not decrease"):
        run((0.0, 0.3, 0.2, 0.4))
    with pytest.raises(ValueError, match="first block's start"):
        run((0.1, 0.2))
    with pytest.raises(ValueError, match="before the last grid node"):
        run((0.0, 0.5))
    with pytest.raises(ValueError, match="multiples of dt"):
        run((0.0, 0.125))
    with pytest.raises(ValueError, match="split evenly"):
        run((0.0, 0.1, 0.2))
    with pytest.raises(ValueError, match="their own flows"):
        run((0.0, 0.25), flow_input=conditional_flow(simulate_killed(model, policy, None,
                                                                     config)))
    # Open-loop controls stack; a coupled drift needs a flow for every block.
    assert len(run((0.0, 0.25), control=RandomizedSignControl((0.0,), (1.0,),
                                                              model.control_set)).blocks) == 2
    coupled = attractive_interval(horizon=0.5)
    with pytest.raises(ValueError, match="no flow was supplied"):
        simulate_killed(coupled, Blocks((policy,) * 2, (None,) * 2, (0, 1), (0.0, 0.25),
                                        (model.initial,) * 2), None, config)
    with pytest.raises(ValueError, match="one policy, flow, seed, start and law"):
        Blocks((policy,) * 2, (None,) * 2, (1,), (0.0, 0.25), (model.initial,) * 2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # an ended block's paths overflow
def test_non_finite_block_ends_only_itself():
    # An unstable affine drift: the zero control loses every path by
    # t = 0.5, and the ended block's paths then overflow, while the
    # stabilizing feedback holds all of its own.  Each block is its run
    # alone, and a non-finite run alone still raises NumericalError.
    model = ModelSpec(
        domain=Interval(-1.0, 1.0), sigma=((1.0,),),
        drift=DriftSpec(base_kind="affine", base_matrix=((200.0,),), control_matrix=((1.0,),)),
        control_set=ControlBox((-1000.0,), (1000.0,)), horizon=4.0, reward=ZERO_REWARD,
        initial=PointMass((0.0,)))
    grid = uniform_grid(4.0, 0.5)
    still = ConstantPolicy((0.0,), model.control_set)
    held = LinearPolicy((0.0,), ((-300.0,),), model.control_set)
    config = SimConfig(200, 1e-3, 3, grid)
    alone = simulate_killed(model, held, None, config)
    assert alone.survival[-1] == 1.0
    with pytest.raises(SurvivorDepletion) as own:
        simulate_killed(model, still, None, config)
    assert own.value.time == 0.5
    for required in (1, 0):
        ens = simulate_killed(model, Blocks((still, held), (None,) * 2, (3, 3), (0.0,) * 2,
                                            (model.initial,) * 2), None,
                              replace(config, n_particles=400, min_survivors=required))
        _assert_block_is_its_own_run(ens.block(1), alone, 1)
        with pytest.raises(SurvivorDepletion if required else NumericalError) as marked:
            ens.block(0)
        if required:
            assert marked.value.time == 0.5
        else:
            with pytest.raises(NumericalError) as plain:
                simulate_killed(model, still, None, replace(config, min_survivors=0))
            assert str(marked.value) == str(plain.value)


def _coupled_ball():
    return ModelSpec(
        domain=Ball((0.0, 0.0, 0.0), 1.0),
        sigma=((0.7, 0.1, 0.0), (0.0, 0.6, 0.2), (0.1, 0.0, 0.9)),
        drift=DriftSpec(base_kind="zero", mf_gain=0.5, control_matrix=((1.0,), (0.0,), (0.5,)),
                        clip_bound=3.0),
        control_set=ControlBox((-1.0,), (1.0,)), horizon=0.5,
        reward=ZERO_REWARD, initial=UniformBox((-0.4,) * 3, (0.4,) * 3))


@pytest.mark.parametrize("make_model", [_coupled_box, _coupled_ball])
def test_bridge_band_changes_no_run(make_model, monkeypatch):
    """Killed, mean-field and finite reinsertion runs are bit for bit the
    same with the bridge band as with the bridge evaluated everywhere."""
    model = make_model()
    policy = LinearPolicy((0.2,) * model.control_dim,
                          np.full((model.control_dim, model.dim), 0.3), model.control_set)
    config = SimConfig(200, 1e-3, 5, uniform_grid(0.3, 0.05), min_survivors=0)
    flow = conditional_flow(simulate_killed(without_mean_field(model), policy, None, config))
    evaluated = []
    bridge = type(model.domain)._bridge

    def counting_bridge(self, a, *args):
        evaluated[-1] += a.shape[0]
        return bridge(self, a, *args)

    monkeypatch.setattr(type(model.domain), "_bridge", counting_bridge)

    def runs():
        evaluated.append(0)
        return (simulate_killed(model, policy, flow, config),
                simulate_fv_meanfield(model, policy, flow, config),
                simulate_fv_finite(model, policy, config))

    banded = runs()
    monkeypatch.setattr(geometry, "_BRIDGE_BAND", np.inf)
    everywhere = runs()
    for label, got, want in zip(("killed", "meanfield", "finite"), banded, everywhere):
        _assert_block_is_its_own_run(got, want, label)
    steps = banded[0].exit_times[np.isfinite(banded[0].exit_times)] / config.dt
    assert np.any(np.abs(steps - np.floor(steps) - 0.5) < 1e-6)  # bridge kills
    assert banded[1].event_times.size and banded[2].event_times.size
    assert 0 < evaluated[0] < evaluated[1]
