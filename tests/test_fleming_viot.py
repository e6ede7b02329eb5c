import numpy as np
import pytest

from condiff.errors import ReinsertionBlowup, TotalExtinction
from condiff.fleming_viot import (fv_correspondence_report, simulate_fv_finite,
                                  simulate_fv_meanfield)
from condiff import killed_sim
from condiff.killed_sim import (Blocks, SimConfig, conditional_flow,
                                simulate_killed, uniform_grid)
from condiff.measures import EmpiricalMeasure, MeasureFlow
from condiff.model import (ConstantPolicy, ControlBox, DriftSpec, GridPolicy, LinearPolicy,
                           ModelSpec, PointMass, RandomizedSignControl, UniformBox,
                           drift_given_mean)
from condiff.geometry import Box, Interval
from condiff.picard import solve_fixed_point
from condiff.reward_opt import eval_reward_conditional, eval_reward_fv
from condiff.rng import GAUSS_STEP, REINSERT_SAMPLE, normals, uniforms
from condiff.scenarios import attractive_interval, boundary_start, driftless_interval
from condiff.scenarios import ZERO_REWARD

_FIELDS = ("snapshots", "f_curve", "f_se", "final_counts", "event_times",
           "event_particles", "event_positions", "event_sources")


def quiet_interval(horizon=0.2):
    """Tiny diffusion far from the boundary: no exits by the horizon."""
    return ModelSpec(
        domain=Interval(-1.0, 1.0),
        sigma=((0.05,),),
        drift=DriftSpec(base_kind="zero", control_matrix=((0.0,),)),
        control_set=ControlBox((0.0,), (0.0,)),
        horizon=horizon,
        reward=ZERO_REWARD,
        initial=PointMass((0.0,)),
    )


def test_no_exit_run_matches_killed_bitwise():
    model = quiet_interval()
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(300, 1e-3, 5, uniform_grid(0.2, 0.05))
    killed = simulate_killed(model, policy, None, config)
    assert killed.survival[-1] == 1.0
    fin = simulate_fv_finite(model, policy, config)
    assert fin.event_times.shape == (0,)
    assert np.array_equal(fin.snapshots, killed.snapshots)
    flow = conditional_flow(killed)
    mf = simulate_fv_meanfield(model, policy, flow, config)
    assert mf.event_times.shape == (0,)
    assert np.array_equal(mf.snapshots, killed.snapshots)
    assert np.all(mf.f_curve == 0.0) and np.all(fin.f_curve == 0.0)

    # With exits: without mean-field coupling a particle moves as its killed
    # path until its first exit, node or bridge, so both variants stamp
    # that exit exactly as the killed run of the same seed does.
    for model, policy in ((driftless_interval(horizon=0.5),
                           ConstantPolicy((0.0,), ControlBox((0.0,), (0.0,)))),
                          _uncoupled_box()):
        config = SimConfig(2000, 1e-3, 23, uniform_grid(0.5, 0.1))
        killed = simulate_killed(model, policy, None, config)
        flow = conditional_flow(killed)
        steps = killed.exit_times[np.isfinite(killed.exit_times)] / config.dt
        assert steps.size > 100
        assert np.any(np.abs(steps - np.round(steps)) > 0.25)  # bridge kills, at half steps
        for fv in (simulate_fv_finite(model, policy, config),
                   simulate_fv_meanfield(model, policy, flow, config)):
            assert _first_event_times(fv).tobytes() == killed.exit_times.tobytes()


def _uncoupled_box():
    model = ModelSpec(
        domain=Box((-1.0, -1.0), (1.0, 1.0)), sigma=((0.8, 0.0), (0.3, 0.6)),
        drift=DriftSpec(base_kind="affine", base_matrix=((-0.4, 0.1), (0.0, -0.2)),
                        control_matrix=((0.9, 0.35), (0.15, 1.1)), clip_bound=3.0),
        control_set=ControlBox((-1.0, -1.0), (1.0, 1.0)), horizon=0.5,
        reward=ZERO_REWARD, initial=UniformBox((-0.5, -0.5), (0.5, 0.5)))
    return model, LinearPolicy((0.1, -0.2), ((0.5, 0.1), (0.0, 0.4)), model.control_set)


def _first_event_times(fv):
    """Each particle's first reinsertion time, inf if it has none."""
    first = np.full(fv.n, np.inf)
    particles, index = np.unique(fv.event_particles, return_index=True)
    first[particles] = fv.event_times[index]
    return first


def _coupled_quiet_interval():
    """A mean-field drift and no exit within one step."""
    return ModelSpec(
        domain=Interval(-1.0, 1.0), sigma=((0.1,),),
        drift=DriftSpec(base_kind="zero", mf_gain=2.0, control_matrix=((1.0,),)),
        control_set=ControlBox((-1.0,), (1.0,)), horizon=0.1,
        reward=ZERO_REWARD, initial=UniformBox((-0.5,), (0.5,)))


def test_drift_reads_the_variants_mean():
    # One step: the finite system's drift reads its own current mean, the
    # mean-field one its flow's node mean, and both move by one Euler step.
    model = _coupled_quiet_interval()
    policy = LinearPolicy((0.1,), ((-0.8,),), model.control_set)
    dt = 0.01
    config = SimConfig(50, dt, 3, np.array([0.0, dt]))
    flow = MeasureFlow(np.array([0.0, dt]),
                       (EmpiricalMeasure(np.array([[0.3]])), EmpiricalMeasure(np.array([[0.2]]))),
                       np.ones(2))
    z = normals(config.seed, GAUSS_STEP, 0, (config.n_particles, 1))
    sigma_t = model.sigma_matrix().T
    for fv, mean_of in ((simulate_fv_finite(model, policy, config), lambda x0: x0.mean(axis=0)),
                        (simulate_fv_meanfield(model, policy, flow, config),
                         lambda x0: flow.node_means[0])):
        x0 = fv.snapshots[0]
        b = drift_given_mean(model, x0, mean_of(x0), policy.values_at(0.0, x0))
        assert fv.event_times.shape == (0,)
        assert np.array_equal(fv.snapshots[1], x0 + b * dt + (z @ sigma_t) * np.sqrt(dt))


def test_reinsertion_runs_never_call_simulate_killed(driftless_flow, monkeypatch):
    # The benchmark counts particle-steps once per simulate_killed call and
    # once per reinsertion run, so a reinsertion run must not go through it.
    def refuse(*args, **kwargs):
        raise AssertionError("simulate_killed called")

    monkeypatch.setattr(killed_sim, "simulate_killed", refuse)
    model = driftless_interval(horizon=1.0)
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(200, 1e-3, 5, uniform_grid(1.0, 0.05))
    assert simulate_fv_finite(model, policy, config).event_times.shape[0] > 0
    assert simulate_fv_meanfield(model, policy, driftless_flow, config).event_times.shape[0] > 0


def test_f_curve_counts_events(driftless_run, driftless_flow):
    model, policy, _, killed = driftless_run
    config = SimConfig(2000, 1e-3, 13, uniform_grid(1.0, 0.05))
    fv = simulate_fv_finite(model, policy, config)
    assert fv.f_curve[0] == 0.0
    assert np.all(np.diff(fv.f_curve) >= 0)
    assert fv.f_curve[-1] == pytest.approx(fv.event_times.shape[0] / fv.n)
    assert fv.f_curve[-1] == pytest.approx(fv.final_counts.mean())
    # loose agreement with -log survival of an independent killed run
    assert fv.f_curve[-1] == pytest.approx(-np.log(killed.survival[-1]), abs=0.1)


def test_snapshots_stay_in_closure(driftless_flow):
    model = driftless_interval(horizon=1.0)
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(1000, 1e-3, 17, uniform_grid(1.0, 0.05))
    for fv in (simulate_fv_finite(model, policy, config),
               simulate_fv_meanfield(model, policy, driftless_flow, config)):
        for m in range(fv.times.shape[0]):
            assert np.all(model.domain.boundary_distance(fv.snapshots[m]) >= -1e-12)
        assert np.all(np.diff(fv.f_curve) >= 0)


def test_event_times_increase_within_each_particle(driftless_flow):
    model = driftless_interval(horizon=1.0)
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(500, 1e-3, 19, uniform_grid(1.0, 0.05))
    fv = simulate_fv_meanfield(model, policy, driftless_flow, config)
    assert fv.event_times.shape[0] > 0
    for p in np.unique(fv.event_particles):
        ts = fv.event_times[fv.event_particles == p]
        assert np.all(np.diff(ts) > 0)
    names = set(fv.source_names())
    assert names == {"flow-sample"}
    # one exit at a time: the flow node after the step, at the particle's draw
    for time, i, position in zip(fv.event_times, fv.event_particles, fv.event_positions):
        k = int(np.ceil(time / config.dt - 1e-6)) - 1
        u = uniforms(config.seed, REINSERT_SAMPLE, k, (config.n_particles,))[i]
        target = driftless_flow.node_at(k * config.dt + config.dt)
        assert position.tobytes() == \
            target.points[min(int(u * target.n), target.n - 1)].tobytes()
    fin = simulate_fv_finite(model, policy, config)
    assert set(fin.source_names()) == {"uniform-peer"}


def test_meanfield_marginals_track_conditional_flow(driftless_run, driftless_flow):
    model, policy, _, killed = driftless_run
    config = SimConfig(4000, 1e-3, 13, uniform_grid(1.0, 0.05))
    fv = simulate_fv_meanfield(model, policy, driftless_flow, config)
    report = fv_correspondence_report(fv, driftless_flow)
    assert report.max_w1 <= 0.03
    assert report.max_f_log_residual <= 0.1
    assert report.times.shape == killed.times.shape


def test_correspondence_rejects_swapped_arguments(driftless_run, driftless_flow):
    model, policy, _, _ = driftless_run
    config = SimConfig(200, 1e-3, 13, uniform_grid(1.0, 0.05))
    fv = simulate_fv_meanfield(model, policy, driftless_flow, config)
    with pytest.raises(ValueError):
        fv_correspondence_report(driftless_flow, fv)
    with pytest.raises(ValueError):
        fv_correspondence_report(fv, fv)


def test_reinsertion_blowup():
    # a narrow domain churns particles through the boundary fast enough
    # that a tiny cap trips long before the horizon
    model = driftless_interval(halfwidth=0.05, horizon=0.05)
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(50, 1e-4, 7, np.array([0.0, 0.05]))
    with pytest.raises(ReinsertionBlowup):
        simulate_fv_finite(model, policy, config, reinsertion_cap=3)


def test_total_extinction_with_two_particles():
    model = boundary_start(horizon=0.01)
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(2, 1e-5, 7, np.array([0.0, 0.01]))
    with pytest.raises(TotalExtinction):
        simulate_fv_finite(model, policy, config)


def test_finite_needs_two_particles():
    model = driftless_interval(horizon=0.1)
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(1, 1e-3, 7, np.array([0.0, 0.1]))
    with pytest.raises(ValueError):
        simulate_fv_finite(model, policy, config)


def _assert_same_run(block, alone):
    for name in _FIELDS:
        assert getattr(block, name).tobytes() == getattr(alone, name).tobytes(), name
    for m in range(alone.times.shape[0]):
        assert block.controls_at(m).tobytes() == alone.controls_at(m).tobytes(), m
    assert block.n == alone.n


def test_meanfield_blocks_read_as_their_own_runs():
    # Constant, linear and grid policies under two seeds, two flows and two
    # laws: every block of the pass is bit for bit its run alone.
    model = attractive_interval(horizon=0.5)
    box = model.control_set
    grid = uniform_grid(0.5, 0.1)
    config = SimConfig(300, 1e-2, 41, grid)
    flows = [solve_fixed_point(model, ConstantPolicy((v,), box), config).flow
             for v in (0.4, -0.3)]
    policies = [ConstantPolicy((0.3,), box), LinearPolicy((0.1,), ((-0.8,),), box),
                GridPolicy.build(model, 2, 3, np.linspace(-1.0, 1.0, 6).reshape(2, 3, 1)),
                ConstantPolicy((-0.5,), box)]
    point = PointMass((0.2,))
    blocks = Blocks(policies=policies, flows=[flows[0], flows[1], flows[0], flows[1]],
                    seeds=[41, 41, 43, 43], starts=[0.0] * 4,
                    laws=[model.initial, point, model.initial, point])
    stacked = simulate_fv_meanfield(model, blocks, None, SimConfig(1200, 1e-2, 41, grid))
    assert stacked.snapshots.shape == (grid.shape[0], 4, 300, 1)
    assert stacked.f_curve.shape == (grid.shape[0], 4)
    for b in range(4):
        alone = simulate_fv_meanfield(
            model, Blocks((policies[b],), (blocks.flows[b],), (blocks.seeds[b],), (0.0,),
                          (blocks.laws[b],)), None, SimConfig(300, 1e-2, 41, grid)).block(0)
        assert alone.event_times.shape[0] > 20
        _assert_same_run(stacked.block(b), alone)
    # A plain run is block 0 of its pass, and has no other.
    plain = simulate_fv_meanfield(model, policies[0], flows[0], config)
    assert plain.block(0) is plain
    with pytest.raises(IndexError):
        plain.block(1)


def test_stacked_runs_are_read_one_block_at_a_time():
    model = driftless_interval(horizon=0.2)
    grid = uniform_grid(0.2, 0.1)
    policy = ConstantPolicy((0.3,), model.control_set)
    flow = conditional_flow(simulate_killed(model, policy, None, SimConfig(200, 1e-2, 3, grid)))
    blocks = Blocks([policy] * 2, [flow] * 2, [5, 6], [0.0] * 2, [model.initial] * 2)
    config = SimConfig(2 * 100, 1e-2, 5, grid, min_survivors=0)
    trace = simulate_fv_meanfield(model, blocks, None, config)
    killed = simulate_killed(model, blocks, None, config)
    for read in (lambda: eval_reward_fv(trace, flow),
                 lambda: fv_correspondence_report(trace, conditional_flow(killed.block(0))),
                 lambda: eval_reward_conditional(killed, flow),
                 lambda: conditional_flow(killed),
                 lambda: trace.controls_at(0)):
        with pytest.raises(ValueError, match="one block at a time, through block"):
            read()
    # Each block reads on its own.
    assert fv_correspondence_report(trace.block(1),
                                    conditional_flow(killed.block(1))).max_w1 >= 0.0
    assert np.isfinite(eval_reward_fv(trace.block(0), flow).total)


def _pushed_interval():
    return ModelSpec(
        domain=Interval(-1.0, 1.0), sigma=((0.3,),),
        drift=DriftSpec(base_kind="zero", control_matrix=((1.0,),), clip_bound=5.0),
        control_set=ControlBox((-5.0,), (5.0,)), horizon=0.5,
        reward=ZERO_REWARD, initial=PointMass((0.0,)))


def test_blown_block_is_marked_while_the_others_run_on(euler_steps):
    model = _pushed_interval()
    grid = uniform_grid(0.5, 0.1)
    still, pushed = (ConstantPolicy((v,), model.control_set) for v in (0.0, 5.0))
    flow = conditional_flow(simulate_killed(model, still, None, SimConfig(200, 1e-2, 3, grid)))
    seeds = [5, 5, 6, 7]
    # Two of four blocks pushed out, then all four.
    for policies in ([still, pushed, still, pushed], [pushed] * 4):
        euler_steps.clear()
        trace = simulate_fv_meanfield(
            model, Blocks(policies, [flow] * 4, seeds, [0.0] * 4, [model.initial] * 4),
            None, SimConfig(400, 1e-2, 5, grid), reinsertion_cap=1)
        steps = len(euler_steps)
        assert [err is None for err in trace.failed] == [p is still for p in policies]
        times = []
        for b, (policy, seed) in enumerate(zip(policies, seeds)):
            config = SimConfig(100, 1e-2, seed, grid)
            if policy is still:
                _assert_same_run(trace.block(b), simulate_fv_meanfield(
                    model, policy, flow, config, reinsertion_cap=1))
                continue
            with pytest.raises(ReinsertionBlowup) as own:
                simulate_fv_meanfield(model, policy, flow, config, reinsertion_cap=1)
            with pytest.raises(ReinsertionBlowup) as marked:
                trace.block(b)
            assert (marked.value.time, marked.value.particle) == (own.value.time,
                                                                  own.value.particle)
            times.append(marked.value.time)
        # The pass runs all 50 steps unless every block blew up; it then
        # stops in the step of the last blowup.
        if len(times) == len(policies):
            assert steps == round(max(times) / 1e-2) < 50
        else:
            assert steps == 50


def test_finite_variant_and_open_loop_controls_run_alone():
    model = driftless_interval(horizon=0.1)
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(20, 1e-2, 7, np.array([0.0, 0.1]))
    two = Blocks([policy] * 2, [None] * 2, [7, 8], [0.0] * 2, [model.initial] * 2)
    with pytest.raises(ValueError, match="one block"):
        simulate_fv_finite(model, two, config)
    flow = conditional_flow(simulate_killed(model, policy, None, config))
    open_loop = RandomizedSignControl((0.0,), (0.0,), model.control_set)
    with pytest.raises(ValueError, match="feedback policy"):
        simulate_fv_meanfield(model, open_loop, flow, config)
