from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from condiff.config import apply_overrides, build_model, build_sim_config, load_config
from condiff.errors import SurvivorDepletion
from condiff.fleming_viot import simulate_fv_meanfield
from condiff.geometry import Interval
from condiff.killed_sim import (SimConfig, conditional_flow, simulate_killed,
                                uniform_grid)
from condiff.measures import EmpiricalMeasure
from condiff.model import (ConstantPolicy, ControlBox, DriftSpec, ModelSpec,
                           PointMass, RewardSpec)
from condiff.picard import solve_fixed_point
from condiff.reward_opt import (PolicyFamily, eval_reward_conditional,
                                eval_reward_fv, optimize_policy, policy_family)
from condiff.scenarios import attractive_interval, driftless_interval, rich_reward

DEFAULT_CONFIG = Path(__file__).parent.parent / "configs" / "default.json"


def cost_only_model(horizon=0.25):
    """Control enters the reward but not the drift, and the domain is so
    wide that nothing exits: the objective is exactly -|a|^2 * horizon."""
    return ModelSpec(
        domain=Interval(-4.0, 4.0),
        sigma=((1.0,),),
        drift=DriftSpec(base_kind="zero", control_matrix=((0.0,),)),
        control_set=ControlBox((-1.0,), (1.0,)),
        horizon=horizon,
        reward=RewardSpec(r_a=1.0),
        initial=PointMass((0.0,)),
    )


def test_unit_running_reward_integrates_to_horizon():
    # binary-exact grid spacing, so the left-endpoint sum telescopes exactly
    model = replace(driftless_interval(horizon=1.0), reward=RewardSpec(r_x=1.0))
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(400, 0.0625, 31, uniform_grid(1.0, 0.25))
    ens = simulate_killed(model, policy, None, config)
    flow = conditional_flow(ens)
    rep = eval_reward_conditional(ens, flow)
    assert rep.running == 1.0
    assert rep.terminal == 0.0
    assert rep.reinsertion == 0.0
    assert rep.total == 1.0
    assert rep.running_se == 0.0
    assert np.all(rep.batch_totals == 1.0)


def test_batches_are_the_survivors_of_contiguous_particles():
    reward = rich_reward(1.0)
    model = replace(driftless_interval(horizon=1.0), reward=reward)
    policy = ConstantPolicy((0.0,), model.control_set)
    ens = simulate_killed(model, policy, None, SimConfig(400, 0.01, 33, uniform_grid(1.0, 0.25)))
    flow = conditional_flow(ens)
    rep = eval_reward_conditional(ens, flow)
    bounds = np.linspace(0, 400, 21).astype(int)
    for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        running = 0.0
        for m, t in enumerate(ens.times[:-1]):
            x = ens.snapshots[m][lo:hi]
            values = reward.running(t, x, flow.mean_at(t), np.zeros_like(x))
            running += float(ens.times[m + 1] - t) * float(values[ens.alive_at(m)[lo:hi]].mean())
        last = EmpiricalMeasure(ens.snapshots[-1][lo:hi][ens.alive_at(4)[lo:hi]])  # t = 1
        assert rep.batch_totals[b] == running + reward.terminal(last)
    # batches of two particles: one of them has no survivor left to average
    few = simulate_killed(model, policy, None, SimConfig(40, 0.01, 33, uniform_grid(1.0, 0.25)))
    with pytest.raises(SurvivorDepletion):
        eval_reward_conditional(few, conditional_flow(few))


def test_fv_reward_decomposition_and_cost_linearity():
    model = replace(driftless_interval(horizon=1.0), reward=rich_reward(1.0))
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(1000, 2e-3, 32, uniform_grid(1.0, 0.05))
    ens = simulate_killed(model, policy, None, config)
    flow = conditional_flow(ens)
    fv = simulate_fv_meanfield(model, policy, flow, config)

    rep = eval_reward_fv(fv, flow, reinsertion_cost=0.7)
    assert rep.total == rep.running + rep.terminal + rep.reinsertion
    assert rep.reinsertion == -0.7 * float(fv.final_counts.mean())

    doubled = eval_reward_fv(fv, flow, reinsertion_cost=1.4)
    assert doubled.running == rep.running
    assert doubled.terminal == rep.terminal
    assert doubled.reinsertion == 2.0 * rep.reinsertion

    # equal batch sizes: the batch totals average back to the estimate
    assert np.isclose(rep.batch_totals.mean(),
                      rep.running + rep.terminal + rep.reinsertion, atol=1e-12)

    with pytest.raises(ValueError):
        eval_reward_fv(fv, flow, reinsertion_cost=-1.0)


def test_fv_objective_generation_matches_single_scores():
    # The fv objective rescores each generation in one stacked reinsertion
    # pass; every score must equal the candidate solved and rescored alone.
    model = attractive_interval(horizon=0.5, reward=rich_reward(1.0))
    config = SimConfig(200, 0.01, 35, uniform_grid(0.5, 0.05))
    family = policy_family(model, "linear")
    res = optimize_policy(model, family, config, objective="fv", budget=20,
                          picard_tol=5e-3)
    assert res.n_evals == 20
    assert res.metadata["objective"] == "fv"
    for params, value, se in zip(res.trace_params, res.trace_values, res.trace_ses):
        policy = family.build(model, params)
        fp = solve_fixed_point(model, policy, config, tol=5e-3)
        fv = simulate_fv_meanfield(model, policy, fp.flow, config)
        assert fv.event_times.shape[0] > 0
        report = eval_reward_fv(fv, fp.flow)
        assert (value, se) == (report.total, report.total_se)

    # Nothing exits the cost-only model, so the search closes in on zero control.
    res = optimize_policy(cost_only_model(), PolicyFamily("constant", 1, (0.6,), (-1.0,), (1.0,)),
                          SimConfig(200, 0.01, 35, uniform_grid(0.25, 0.05)), objective="fv",
                          budget=48)
    assert res.n_evals == 48
    assert abs(res.best_params[0]) < 0.1


@pytest.mark.parametrize("kind", ["constant", "linear", "grid"])
def test_cross_entropy_generation_matches_single_solves(kind):
    # A generation is one stacked pass; each score must equal the
    # candidate's own fixed point and reward, bit for bit.
    model = attractive_interval(horizon=0.5, reward=rich_reward(0.0))
    config = SimConfig(200, 0.01, 38, uniform_grid(0.5, 0.05))
    family = policy_family(model, kind)
    res = optimize_policy(model, family, config, budget=16, picard_tol=5e-3)
    for params, value, se in zip(res.trace_params, res.trace_values, res.trace_ses):
        fp = solve_fixed_point(model, family.build(model, params), config, tol=5e-3)
        report = eval_reward_conditional(fp.ensemble, fp.flow)
        assert (value, se) == (report.total, report.total_se)


def test_cross_entropy_honours_the_budget():
    model = cost_only_model()
    family = PolicyFamily("constant", 1, (0.6,), (-1.0,), (1.0,))
    config = SimConfig(100, 0.01, 39, uniform_grid(0.25, 0.05))
    runs = {budget: optimize_policy(model, family, config, budget=budget)
            for budget in (8, 16, 20)}
    for budget, res in runs.items():
        assert res.n_evals == budget == res.trace_values.shape[0]
        assert res.best_value == float(np.max(res.trace_values))
        # zero noise in this objective: each score is exactly -a^2 * T
        expected = -res.trace_params[:, 0] ** 2 * 0.25
        assert np.allclose(res.trace_values, expected, atol=1e-12)
    # every generation draws its full population, so a shorter budget is a
    # prefix of a longer one
    full = runs[20].trace_params
    assert np.array_equal(runs[16].trace_params, full[:16])
    assert np.array_equal(runs[8].trace_params, full[:8])
    assert np.array_equal(runs[8].trace_values, runs[20].trace_values[:8])


def test_search_starts_at_the_centre_of_an_asymmetric_box():
    # A start outside the box clips most of the first generation onto a
    # bound, where the candidates repeat one policy and one score.
    model = replace(cost_only_model(), control_set=ControlBox((0.2,), (0.8,)))
    family = policy_family(model, "constant")
    assert family.init == (0.5,)
    assert policy_family(model, "linear").init == (0.5, 0.0)
    config = SimConfig(100, 0.01, 1234, uniform_grid(0.25, 0.05))
    res = optimize_policy(model, family, config, budget=16)
    assert np.unique(res.trace_params[:, 0]).shape[0] >= 14


def test_cross_entropy_leaves_its_start_on_the_default_model():
    # The optimum of configs/default.json's model lies near a = 0.46; a
    # search that never leaves its start would return a = 0.
    cfg = apply_overrides(load_config(DEFAULT_CONFIG),
                          ["sim.n_particles=1000", "sim.dt=0.01", "sim.seed=3"])
    model = build_model(cfg)
    res = optimize_policy(model, policy_family(model, "constant"),
                          build_sim_config(cfg, model), budget=32)
    assert 0.25 <= res.best_params[0] <= 0.75


def test_depleting_candidates_score_minus_inf():
    model = ModelSpec(
        domain=Interval(-0.3, 0.3),
        sigma=((1.0,),),
        drift=DriftSpec(base_kind="zero", control_matrix=((0.0,),)),
        control_set=ControlBox((-1.0,), (1.0,)),
        horizon=1.0,
        reward=RewardSpec(r_a=1.0),
        initial=PointMass((0.0,)),
    )
    family = policy_family(model, "constant")
    config = SimConfig(30, 1e-3, 36, uniform_grid(1.0, 0.25),
                       min_survivors=25)
    res = optimize_policy(model, family, config, budget=16)
    assert np.all(res.trace_values == -np.inf)
    assert np.all(np.isnan(res.trace_ses))
    assert res.best_value == -np.inf


def test_policy_families_and_validation():
    model = cost_only_model()
    lin = policy_family(model, "linear")
    assert lin.dim == 2
    built = lin.build(model, [0.1, -0.5])
    assert built.values_at(0.0, np.array([[0.2]])).shape == (1, 1)
    grid = policy_family(model, "grid", time_bins=2, space_bins=2)
    assert grid.dim == 4
    grid.build(model, np.zeros(4))
    with pytest.raises(ValueError):
        lin.build(model, [0.1])
    with pytest.raises(ValueError):
        policy_family(model, "fourier")

    config = SimConfig(10, 0.01, 37, uniform_grid(0.25, 0.05))
    with pytest.raises(ValueError):
        optimize_policy(model, lin, config, objective="marginal")
    with pytest.raises(ValueError):
        optimize_policy(model, lin, config, budget=0)
    with pytest.raises(ValueError, match="reinsertion_cap"):
        optimize_policy(model, lin, config, objective="fv", reinsertion_cap=-1)
