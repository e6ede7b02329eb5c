"""Property checks of the block-view contract on drawn models and stacks.

Each block of a pass must be bit for bit its run alone, under the kill
rule (blocks may start late, mix feedback policies with open-loop
controls, and a block depleted below min_survivors must raise its run
alone's SurvivorDepletion), under the mean-field reinsertion rule and
under the finite system's (every block starts at t = 0, and a finite
system that dies out at once must raise its run alone's
TotalExtinction), on intervals, boxes and balls.  Draws are
derandomized and small, so the module is deterministic and takes a few
seconds.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condiff.errors import TotalExtinction
from condiff.fleming_viot import simulate_fv_finite, simulate_fv_meanfield
from condiff.geometry import Ball, Box, Interval
from condiff.killed_sim import Blocks, SimConfig, simulate_killed
from condiff.measures import EmpiricalMeasure, MeasureFlow
from condiff.model import (ControlBox, DriftSpec, ModelSpec, NoisePeekControl,
                           PiecewiseControl, PointMass, RandomizedSignControl, UniformBox)
from condiff.reward_opt import policy_family
from condiff.scenarios import ZERO_REWARD

from test_fleming_viot import _assert_same_run
from test_killed_sim import _assert_blocks_are_their_own_runs

DT = 0.01
PROPERTY = settings(max_examples=150)


@st.composite
def cases(draw, rule: str):
    """A model, Blocks over it and a config for one pass of them under
    rule: the kill rule's blocks may start late, require survivors and run
    open-loop controls; the mean-field rule's read their flows, and the
    finite rule's have none."""
    killed = rule == "killed"
    d = draw(st.sampled_from([1, 2]))
    half = draw(st.sampled_from([0.25, 0.4]))
    shape = draw(st.sampled_from(["box", "ball"] + ["interval"] * (d == 1)))
    domain = {"interval": lambda: Interval(-half, half), "ball": lambda: Ball((0.0,) * d, half),
              "box": lambda: Box((-half,) * d, (half,) * d)}[shape]()
    sigma = np.diag(draw(st.lists(st.sampled_from([0.6, 1.0]), min_size=d, max_size=d)))
    if d == 2 and draw(st.booleans()):
        sigma[1, 0] = 0.4  # full
    model = ModelSpec(
        domain=domain, sigma=tuple(map(tuple, sigma.tolist())),
        drift=DriftSpec(base_kind="zero", mf_gain=draw(st.sampled_from([0.0, 0.5])),
                        control_matrix=tuple(map(tuple, np.eye(d).tolist())), clip_bound=3.0),
        control_set=ControlBox((-1.0,) * d, (1.0,) * d), horizon=1.0, reward=ZERO_REWARD,
        initial=UniformBox((-0.5 * half,) * d, (0.5 * half,) * d))

    steps = draw(st.integers(2, 10))
    inner = draw(st.sets(st.integers(1, steps - 1), max_size=2))
    grid = np.array(sorted({0, *inner, steps})) * DT
    n_blocks = draw(st.integers(1, 4))
    late = st.integers(0, steps - 1) if killed else st.just(0)
    starts = sorted(draw(st.lists(late, min_size=n_blocks - 1, max_size=n_blocks - 1)))
    laws = [model.initial, PointMass((0.9 * half,) + (0.0,) * (d - 1))]

    def policy():
        kind = draw(st.sampled_from(["constant", "linear", "grid"] + ["open-loop"] * killed))
        if kind == "open-loop":
            box, t = model.control_set, draw(st.integers(1, steps)) * DT
            value = tuple(draw(st.lists(st.sampled_from([-0.7, 0.4]), min_size=d, max_size=d)))
            return draw(st.sampled_from([
                RandomizedSignControl(value, (1.0, -0.5)[:d], box),
                PiecewiseControl(t, value, tuple(-v for v in value), box),
                NoisePeekControl(value, t, box)]))
        family = policy_family(model, kind)
        params = np.random.default_rng(draw(st.integers(0, 9))).uniform(family.lo, family.hi)
        return family.build(model, params)

    # Flow samples, where the mean-field rule reinserts, lie inside a ball too.
    reach = 0.8 * half if shape != "ball" else 0.7 * half

    def flow():
        points = np.random.default_rng(draw(st.integers(0, 9))).uniform(
            -reach, reach, (grid.shape[0], 16, d))
        return MeasureFlow(grid, tuple(map(EmpiricalMeasure, points)), np.ones(grid.shape[0]))

    blocks = Blocks(policies=[policy() for _ in range(n_blocks)],
                    flows=[None if rule == "finite" else flow() for _ in range(n_blocks)],
                    seeds=draw(st.lists(st.sampled_from([3, 4]), min_size=n_blocks,
                                        max_size=n_blocks)),
                    starts=[0.0, *(k * DT for k in starts)],
                    laws=[draw(st.sampled_from(laws)) for _ in range(n_blocks)])
    n_block = draw(st.integers(1 + (rule == "finite"), 64))
    required = draw(st.sampled_from([0, draw(st.integers(0, n_block))])) if killed else 0
    return model, blocks, SimConfig(n_block * n_blocks, DT, 1, grid, min_survivors=required)


@PROPERTY
@given(cases("killed"))
def test_killed_blocks_are_their_own_runs(case):
    _assert_blocks_are_their_own_runs(*case)


def _assert_reinsertion_blocks_are_their_own_runs(simulate, model, blocks, config):
    """Each block of a reinsertion pass is bit for bit its run alone, or
    raises that run's TotalExtinction."""
    trace = simulate(blocks)
    n_block = config.n_particles // len(blocks)
    for b, (policy, flow, seed, law) in enumerate(zip(blocks.policies, blocks.flows,
                                                      blocks.seeds, blocks.laws)):
        alone = simulate(Blocks((policy,), (flow,), (seed,), (0.0,), (law,)),
                         SimConfig(n_block, DT, seed, config.grid))
        try:
            alone = alone.block(0)
        except TotalExtinction as error:
            with pytest.raises(TotalExtinction) as marked:
                trace.block(b)
            assert marked.value.time == error.time, b
            continue
        _assert_same_run(trace.block(b), alone)


@PROPERTY
@given(cases("meanfield"))
def test_meanfield_blocks_are_their_own_runs(case):
    model, blocks, config = case
    _assert_reinsertion_blocks_are_their_own_runs(
        lambda stack, sim=config: simulate_fv_meanfield(model, stack, None, sim), *case)


@PROPERTY
@given(cases("finite"))
def test_finite_blocks_are_their_own_runs(case):
    model, blocks, config = case
    _assert_reinsertion_blocks_are_their_own_runs(
        lambda stack, sim=config: simulate_fv_finite(model, stack, sim), *case)
