import numpy as np
import pytest

from condiff.model import (ConstantPolicy, ControlBox, DriftSpec, GridPolicy,
                           LinearPolicy, NoisePeekControl, PiecewiseControl,
                           PointMass, RandomizedSignControl, RewardSpec,
                           UniformBox, drift_given_mean)
from condiff.measures import EmpiricalMeasure
from condiff.scenarios import attractive_interval, rich_reward

BOX = ControlBox((-1.0,), (1.0,))


def test_control_box():
    assert BOX.dim == 1
    assert BOX.clamp(np.array([2.0]))[0] == 1.0
    assert BOX.clamp(np.array([0.5]))[0] == 0.5
    with pytest.raises(ValueError):
        ControlBox((1.0,), (0.0,))
    with pytest.raises(ValueError):
        ControlBox((0.0,), (np.inf,))


def test_drift_mean_field_and_control():
    model = attractive_interval(kappa=0.5, clip_bound=3.0)
    # b = 0.5 (m - x) + a
    b = drift_given_mean(model, np.array([[0.4]]), np.array([0.2]),
                         np.array([[0.3]]))
    assert b.shape == (1, 1)
    assert b[0, 0] == pytest.approx(0.5 * (0.2 - 0.4) + 0.3)


def test_drift_clip_activates():
    model = attractive_interval(kappa=0.5, clip_bound=0.25)
    b = drift_given_mean(model, np.array([[-0.9]]), np.array([0.9]),
                         np.array([[1.0]]))
    assert b[0, 0] == 0.25


def test_drift_lipschitz_in_mean():
    model = attractive_interval(kappa=0.5)
    x = np.array([[0.1], [-0.2]])
    a = np.array([[0.0], [0.0]])
    b1 = drift_given_mean(model, x, np.array([0.3]), a)
    b2 = drift_given_mean(model, x, np.array([0.1]), a)
    assert np.max(np.abs(b1 - b2)) <= 0.5 * 0.2 + 1e-12


def test_constant_policy_clamps_at_build():
    pol = ConstantPolicy((2.0,), BOX)
    assert pol.value == (1.0,)
    vals = pol.values_at(0.0, np.zeros((3, 1)))
    assert vals.shape == (3, 1) and np.all(vals == 1.0)


def test_linear_policy_clamps_at_eval():
    pol = LinearPolicy((0.0,), ((2.0,),), BOX)
    vals = pol.values_at(0.0, np.array([[0.1], [5.0]]))
    assert vals[0, 0] == pytest.approx(0.2)
    assert vals[1, 0] == 1.0


def test_grid_policy_cell_lookup():
    model = attractive_interval()
    values = np.arange(2 * 4).reshape(2, 4, 1) / 10.0
    pol = GridPolicy.build(model, 2, 4, values)
    # domain [-1, 1], horizon 1: t = 0.75 -> bin 1; x = -0.5 -> bin 1
    got = pol.values_at(0.75, np.array([[-0.5]]))
    assert got[0, 0] == pytest.approx(values[1, 1, 0])
    # queries beyond the lattice snap to the nearest cell
    far = pol.values_at(5.0, np.array([[9.0]]))
    assert far[0, 0] == pytest.approx(min(values[1, 3, 0], 1.0))


def test_randomized_sign_control():
    ctrl = RandomizedSignControl((0.3,), (1.0,), BOX)
    state = ctrl.init_state(np.array([[0.4], [-0.2]]))
    vals = ctrl.values_at(0.1, state)
    assert vals[0, 0] == pytest.approx(0.3)
    assert vals[1, 0] == pytest.approx(-0.3)


def test_piecewise_control_switch_is_left_closed():
    ctrl = PiecewiseControl(0.25, (0.2,), (-0.1,), BOX)
    state = ctrl.init_state(np.zeros((1, 1)))
    assert ctrl.values_at(0.2499, state)[0, 0] == pytest.approx(0.2)
    assert ctrl.values_at(0.25, state)[0, 0] == pytest.approx(-0.1)


def test_noise_peek_freezes_at_peek_time():
    ctrl = NoisePeekControl((0.5,), 0.2, BOX)
    state = ctrl.init_state(np.zeros((2, 1)))
    ctrl.advance(state, 0.0, np.array([[1.0], [-1.0]]), 0.1)
    ctrl.advance(state, 0.1, np.array([[1.0], [-1.0]]), 0.1)
    frozen = state["w1"].copy()
    ctrl.advance(state, 0.2, np.array([[5.0], [5.0]]), 0.1)  # past peek: ignored
    assert np.array_equal(state["w1"], frozen)
    vals = ctrl.values_at(0.3, state)
    assert vals[0, 0] == 0.5 and vals[1, 0] == -0.5


def test_running_reward_examples():
    reward = rich_reward()
    # 1*x + 0.5*m - 0.5*a^2
    got = reward.running(0.0, np.array([[0.5]]), np.array([0.2]), np.array([[0.3]]))
    assert got.shape == (1,)
    assert got[0] == pytest.approx(0.5 + 0.5 * 0.2 - 0.5 * 0.09)
    quad = RewardSpec(r_x=2.0, phi_kind="quadratic")
    got = quad.running(0.0, np.array([[0.5]]), np.array([0.0]), np.array([[0.0]]))
    assert got[0] == pytest.approx(2.0 * 0.25)


def test_running_reward_concave_in_control():
    reward = rich_reward()
    x, m = np.array([[0.1]]), np.array([0.0])
    f = lambda a: reward.running(0.0, x, m, np.array([[a]]))[0]
    for a1, a2 in ((-0.8, 0.4), (0.0, 1.0)):
        mid = f((a1 + a2) / 2)
        assert mid >= (f(a1) + f(a2)) / 2 - 1e-12


def test_terminal_reward():
    reward = rich_reward()
    m = EmpiricalMeasure(np.array([0.0, 1.0]))
    assert reward.terminal(m) == pytest.approx(0.5)
    with_var = RewardSpec(g_var=2.0)
    assert with_var.terminal(m) == pytest.approx(2.0 * 0.25)


def test_reward_validation():
    with pytest.raises(ValueError):
        RewardSpec(r_a=-1.0)
    with pytest.raises(ValueError):
        RewardSpec(reinsertion_cost=-0.5)
    with pytest.raises(ValueError):
        RewardSpec(phi_kind="cubic")
    # a model checks the weight vectors its reward reads against its dimension
    for reward, name in ((RewardSpec(phi_kind="linear"), "phi_weights"),
                         (RewardSpec(r_m=1.0, mean_weights=(1.0, 1.0)), "mean_weights"),
                         (RewardSpec(g_w=1.0, terminal_weights=(1.0, 1.0)), "terminal_weights")):
        with pytest.raises(ValueError, match=f"model.reward.{name} must have length 1"):
            attractive_interval(reward=reward)
    attractive_interval(reward=RewardSpec(mean_weights=(1.0, 1.0)))  # r_m = 0: never read


def test_initial_laws_sample_inside():
    pm = PointMass((0.3,))
    pts = pm.sample(5, 1)
    assert pts.shape == (5, 1) and np.all(pts == 0.3)
    ub = UniformBox((-0.5,), (0.5,))
    pts = ub.sample(1000, 2)
    assert pts.shape == (1000, 1)
    assert np.all(np.abs(pts) <= 0.5)
    assert abs(pts.mean()) < 0.05


def test_drift_spec_validation():
    with pytest.raises(ValueError):
        DriftSpec(base_kind="spline")
    with pytest.raises(ValueError):
        DriftSpec(control_matrix=(1.0,))
    with pytest.raises(ValueError, match="needs base_vector"):
        DriftSpec(base_kind="constant")
    with pytest.raises(ValueError, match="needs base_matrix"):
        DriftSpec(base_kind="affine", base_vector=(1.0,))
    with pytest.raises(ValueError, match="base_vector must have length 1"):
        DriftSpec(base_kind="constant", base_vector=(1.0, 2.0))
    with pytest.raises(ValueError, match=r"base_matrix must have shape \(1, 1\)"):
        DriftSpec(base_kind="affine", base_matrix=((1.0, 0.0), (0.0, 1.0)))
