import numpy as np
import pytest

from condiff import rng
from condiff.errors import SurvivorDepletion
from condiff.killed_sim import SimConfig, simulate_killed, uniform_grid
from condiff.mimic import mimic_compare, regress_feedback
from condiff.model import (ConstantPolicy, GridPolicy, PiecewiseControl,
                           RandomizedSignControl)
from condiff.scenarios import driftless_interval, mimic_interval


def test_regression_recovers_grid_policy_exactly():
    """Controls constant on lattice cells are their own cell means."""
    model = mimic_interval(horizon=0.5)
    target = GridPolicy.build(
        model, 2, 2, np.array([[[0.3], [-0.4]], [[0.1], [0.6]]]))
    config = SimConfig(2000, 2.5e-3, 11, uniform_grid(0.5, 0.05))
    ens = simulate_killed(model, target, None, config)

    policy, counts = regress_feedback(ens, 2, 2)
    assert not (counts == 0).any()
    assert np.allclose(policy.values, target.values, atol=1e-12)
    assert counts.sum() == sum(ens.alive_at(m).sum() for m in range(ens.times.shape[0]))
    assert np.array_equal(policy.time_edges, target.time_edges)


def test_markov_open_loop_is_a_fixed_point():
    """A time-dependent control aligned with the lattice loses nothing:
    the reconstruction reproduces it and the rewards tie exactly."""
    model = mimic_interval(horizon=0.5)
    control = PiecewiseControl(0.25, (0.2,), (-0.1,), model.control_set)
    config = SimConfig(4000, 2.5e-3, 12, uniform_grid(0.5, 0.025))
    rep = mimic_compare(model, control, config)
    assert abs(rep.delta) <= 3.0 * rep.delta_se + 1e-12
    # the cost is a deterministic function of time here, so every batch ties
    assert np.allclose(rep.j_open.batch_totals, rep.j_closed.batch_totals)
    assert rep.closed_seed == rng.derive_seed(config.seed, rng.MIMIC_CLOSED, 0)

    d = rep.to_dict()
    for key in ("j_open", "j_closed", "delta", "delta_se", "fill_fraction",
                "picard_iterations", "picard_converged", "closed_seed"):
        assert key in d


def test_noise_dependent_control_improves_under_mimicking():
    """Averaging a +-0.3 control shrinks the quadratic control cost in
    mixed cells, so the feedback version earns strictly more."""
    model = mimic_interval(horizon=0.5)
    control = RandomizedSignControl((0.3,), (1.0,), model.control_set)
    config = SimConfig(4000, 2.5e-3, 13, uniform_grid(0.5, 0.025))
    rep = mimic_compare(model, control, config)
    # open-loop cost is exactly -0.09 * 0.5 regardless of the draw
    assert rep.j_open.total == pytest.approx(-0.045, abs=1e-12)
    assert rep.delta > 3.0 * rep.delta_se
    assert 0.02 < rep.delta < 0.06


def test_empty_cells_are_filled_from_neighbors():
    model = mimic_interval(horizon=0.25)
    target = ConstantPolicy((0.25,), model.control_set)
    config = SimConfig(200, 2.5e-3, 14, uniform_grid(0.25, 0.025))
    ens = simulate_killed(model, target, None, config)
    policy, counts = regress_feedback(ens, 5, 25)
    # outer space cells see no survivors but still get usable values
    assert (counts == 0).any()
    assert np.all(np.isfinite(policy.values))
    assert np.all(policy.values >= -1.0) and np.all(policy.values <= 1.0)
    far = policy.values_at(0.1, np.array([[0.999]]))
    assert np.isfinite(far).all()


def test_empty_time_slab_raises_depletion():
    model = driftless_interval(halfwidth=0.3, horizon=1.0)
    policy = ConstantPolicy((0.0,), model.control_set)
    # On the finer grid the first node with no survivor (t = 0.3) lies inside
    # the slab [0.25, 0.375), and the error is stamped with the node's time.
    for step in (0.125, 0.025):
        config = SimConfig(50, 1e-3, 15, uniform_grid(1.0, step), min_survivors=0)
        ens = simulate_killed(model, policy, None, config)
        with pytest.raises(SurvivorDepletion) as raised:
            regress_feedback(ens, 8, 4)
        first = next(m for m in range(ens.times.shape[0]) if not ens.alive_at(m).any())
        assert raised.value.time == float(ens.times[first])


def test_input_validation():
    model = mimic_interval(horizon=0.25)
    feedback = ConstantPolicy((0.1,), model.control_set)
    grid = uniform_grid(0.25, 0.025)
    with pytest.raises(ValueError):
        mimic_compare(model, feedback, SimConfig(100, 2.5e-3, 16, grid))
    # a lattice with a time slab between grid nodes is refused before any run
    control = PiecewiseControl(0.1, (0.2,), (-0.1,), model.control_set)
    with pytest.raises(ValueError, match=r"time slab 1 \[0.03125, 0.0625\)"):
        mimic_compare(model, control, SimConfig(100, 2.5e-3, 16, uniform_grid(0.25, 0.125)))
