from dataclasses import replace

import numpy as np
import pytest

from condiff import picard
from condiff.errors import SurvivorDepletion
from condiff.geometry import Box, Interval
from condiff.killed_sim import (Blocks, SimConfig, conditional_flow,
                                exit_cdf, simulate_killed, uniform_grid, without_mean_field)
from condiff.measures import flow_distance
from condiff.model import (ConstantPolicy, ControlBox, DriftSpec, LinearPolicy,
                           ModelSpec, UniformBox)
from condiff.picard import flow_update, solve_fixed_point, solve_fixed_points
from condiff.reward_opt import eval_reward_conditional
from condiff.scenarios import (ZERO_REWARD, attractive_interval, driftless_interval,
                               rich_reward)


def test_uncoupled_model_converges_immediately(monkeypatch):
    model = driftless_interval(horizon=0.5)
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(2000, 1e-3, 21, uniform_grid(0.5, 0.1))
    calls = []

    def counted(*args):
        calls.append(args)
        return simulate_killed(*args)

    monkeypatch.setattr(picard, "simulate_killed", counted)
    fp = solve_fixed_point(model, policy, config)
    # with zero coupling the map ignores its input flow, so the initial
    # guess is the fixed point: one pass, reported at distance zero
    assert len(calls) == 1
    assert fp.converged
    assert fp.iterations == 1
    assert fp.distance_trace == [0.0]
    plain = simulate_killed(model, policy, None, config)
    for name in ("exit_times", "snapshots", "survival"):
        assert getattr(fp.ensemble, name).tobytes() == getattr(plain, name).tobytes()
    flow = conditional_flow(plain)
    assert fp.flow.times.tobytes() == flow.times.tobytes()
    assert fp.flow.survival.tobytes() == flow.survival.tobytes()
    for a, b in zip(fp.flow.nodes, flow.nodes, strict=True):
        assert a.points.tobytes() == b.points.tobytes()


def test_coupled_model_contracts():
    model = attractive_interval(kappa=0.5)
    policy = ConstantPolicy((0.3,), model.control_set)
    config = SimConfig(5000, 1e-3, 11, uniform_grid(1.0, 0.05))
    fp = solve_fixed_point(model, policy, config, tol=1e-3, max_iter=10)
    assert fp.converged
    assert fp.distance_trace[1] <= 0.8 * fp.distance_trace[0]
    assert np.all(fp.flow.survival > 0)


def test_fixed_point_self_consistency():
    model = attractive_interval(kappa=0.5)
    policy = ConstantPolicy((0.3,), model.control_set)
    config = SimConfig(5000, 1e-3, 11, uniform_grid(1.0, 0.05))
    fp = solve_fixed_point(model, policy, config, tol=1e-2)
    fresh = SimConfig(5000, 1e-3, 999, config.grid)
    again = conditional_flow(simulate_killed(model, policy, fp.flow, fresh))
    # fresh-seed resimulation against the fixed flow lands within the
    # stopping tolerance plus Monte Carlo noise
    assert flow_distance(again, fp.flow) <= 1e-2 + 0.02


def test_flow_update_reseeding():
    model = attractive_interval(kappa=0.5)
    policy = ConstantPolicy((0.3,), model.control_set)
    config = SimConfig(1000, 1e-3, 11, uniform_grid(0.5, 0.1))
    guess = solve_fixed_point(model, policy, config, max_iter=1).flow
    f1, e1 = flow_update(model, policy, guess, config)
    f2, e2 = flow_update(model, policy, guess, replace(config, seed=11))
    assert np.array_equal(e1.exit_times, e2.exit_times)
    f3, e3 = flow_update(model, policy, guess, replace(config, seed=12))
    assert not np.array_equal(e1.exit_times, e3.exit_times)
    assert flow_distance(f1, f3) > 0


def test_non_convergence_is_reported_not_raised():
    model = attractive_interval(kappa=0.5)
    policy = ConstantPolicy((0.3,), model.control_set)
    config = SimConfig(500, 1e-3, 13, uniform_grid(1.0, 0.05))
    fp = solve_fixed_point(model, policy, config, tol=1e-9, max_iter=2)
    assert not fp.converged
    assert fp.iterations == 2
    assert len(fp.distance_trace) == 2


def _assert_same_solve(stacked, single):
    assert stacked.iterations == single.iterations
    assert stacked.distance_trace == single.distance_trace
    assert stacked.converged == single.converged
    for a, b in zip(stacked.flow.nodes, single.flow.nodes):
        assert a.points.tobytes() == b.points.tobytes()
    for name in ("exit_times", "snapshots"):
        assert getattr(stacked.ensemble, name).tobytes() == \
            getattr(single.ensemble, name).tobytes()
    for m in range(single.ensemble.times.shape[0]):
        assert stacked.ensemble.controls_at(m).tobytes() == \
            single.ensemble.controls_at(m).tobytes()
    # The flow a fixed point returns, and the reward reads, is its own
    # ensemble's output flow, not the input flow the last sweep's drift saw.
    for fp in (stacked, single):
        output = conditional_flow(fp.ensemble)
        assert output.times.tobytes() == fp.flow.times.tobytes()
        assert output.survival.tobytes() == fp.flow.survival.tobytes()
        for a, b in zip(output.nodes, fp.flow.nodes, strict=True):
            assert a.points.tobytes() == b.points.tobytes()


def test_stacked_solves_match_single_solves_with_depletion():
    # Strong pushes deplete below min_survivors while the rest converge
    # after two, three or four sweeps; blocks leave the stack one by one.
    model = attractive_interval(kappa=1.0, reward=rich_reward(0.0))
    config = SimConfig(300, 0.01, 17, uniform_grid(1.0, 0.1), min_survivors=80)
    policies = [ConstantPolicy((v,), model.control_set) for v in np.linspace(-1, 1, 9)]
    stacked = solve_fixed_points(model, policies, config, tol=4e-3, max_iter=6)
    depleted = 0
    for policy, result in zip(policies, stacked):
        if isinstance(result, SurvivorDepletion):
            depleted += 1
            with pytest.raises(SurvivorDepletion):
                solve_fixed_point(model, policy, config, tol=4e-3, max_iter=6)
        else:
            _assert_same_solve(result, solve_fixed_point(model, policy, config,
                                                         tol=4e-3, max_iter=6))
    assert 0 < depleted < len(policies)
    assert len({r.iterations for r in stacked
                if not isinstance(r, SurvivorDepletion)}) >= 3


def _matrix_control_model(dim):
    """Two controls on a box of dim 1 or 2: the drift takes a matrix product."""
    lo, hi = (-1.0,) * dim, (1.0,) * dim
    return ModelSpec(
        domain=Box(lo, hi) if dim == 2 else Interval(-1.0, 1.0),
        sigma=((0.8, 0.0), (0.0, 0.6)) if dim == 2 else ((0.8,),),
        drift=DriftSpec(base_kind="zero", mf_gain=1.0,
                        control_matrix=((0.9, 0.35), (0.15, 1.1))[:dim], clip_bound=3.0),
        control_set=ControlBox((-1.0, -1.0), (1.0, 1.0)), horizon=0.5,
        reward=ZERO_REWARD, initial=UniformBox((-0.5,) * dim, (0.5,) * dim))


@pytest.mark.parametrize("dim,kind", [(2, "linear"), (2, "constant"), (1, "constant")])
def test_stacked_solves_match_with_two_controls(dim, kind):
    # A constant stack on one dimension with two controls is the case
    # where a product over broadcast controls would round differently.
    model = _matrix_control_model(dim)
    config = SimConfig(200, 0.01, 19, uniform_grid(0.5, 0.1))
    draws = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 2 + 2 * dim))
    if kind == "linear":
        policies = [LinearPolicy(p[:2], p[2:].reshape(2, dim), model.control_set)
                    for p in draws]
    else:
        policies = [ConstantPolicy(p[:2], model.control_set) for p in draws]
    for policy, result in zip(policies, solve_fixed_points(model, policies, config)):
        _assert_same_solve(result, solve_fixed_point(model, policy, config))


def test_depleted_stack_reports_each_block_its_own_error(euler_steps):
    # Every block depletes in the first sweep, at its own time and count.
    model = attractive_interval(kappa=1.0, reward=rich_reward(0.0))
    config = SimConfig(300, 0.01, 17, uniform_grid(1.0, 0.1), min_survivors=150)
    policies = [ConstantPolicy((v,), model.control_set) for v in (-1.0, -0.5, 0.0, 0.7)]
    stacked = solve_fixed_points(model, policies, config, tol=4e-3, max_iter=6)
    seen = set()
    for policy, err in zip(policies, stacked):
        with pytest.raises(SurvivorDepletion) as single:
            solve_fixed_point(model, policy, config, tol=4e-3, max_iter=6)
        assert (err.time, err.survivors) == (single.value.time, single.value.survivors)
        seen.add((err.time, err.survivors))
    assert len(seen) == len(policies)
    # That first sweep as a pass: it returns, each block raises its own
    # depletion, and the pass stops in the step of the last one.
    k = len(policies)
    euler_steps.clear()
    ens = simulate_killed(without_mean_field(model),
                          Blocks(policies, [None] * k, [17] * k, [0.0] * k, [model.initial] * k),
                          None, replace(config, n_particles=300 * k))
    for b, err in enumerate(stacked):
        with pytest.raises(SurvivorDepletion) as marked:
            ens.block(b)
        assert (marked.value.time, marked.value.survivors) == (err.time, err.survivors)
    assert len(euler_steps) == round(max(err.time for err in stacked) / 0.01) < 100


def test_stacked_ensemble_is_read_per_block():
    model = attractive_interval(kappa=0.0, reward=rich_reward(0.0))
    config = SimConfig(2 * 200, 0.01, 5, uniform_grid(0.5, 0.1))
    policies = [ConstantPolicy((v,), model.control_set) for v in (-0.5, 0.5)]

    def stack(chosen):
        k = len(chosen)
        return Blocks(chosen, [None] * k, [5] * k, [0.0] * k, [model.initial] * k)

    ens = simulate_killed(model, stack(policies), None, config)
    for read in (conditional_flow, lambda e: exit_cdf(e, [0.5]),
                 lambda e: eval_reward_conditional(e, conditional_flow(e))):
        with pytest.raises(ValueError, match="one block at a time"):
            read(ens)
    single = SimConfig(200, 0.01, 5, uniform_grid(0.5, 0.1))
    alone = simulate_killed(model, policies[1], None, single)
    assert ens.block(1).exit_times.tobytes() == alone.exit_times.tobytes()
    assert np.array_equal(exit_cdf(ens.block(1), [0.5]), exit_cdf(alone, [0.5]))
    # a stack of one policy is that policy's own run
    one = simulate_killed(model, stack(policies[1:]), None, single)
    assert len(one.blocks) == 1
    assert one.snapshots.tobytes() == alone.snapshots.tobytes()
    assert one.block(0).snapshots.tobytes() == alone.snapshots.tobytes()
