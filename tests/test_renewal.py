"""Volterra solver against analytic kernels, plus estimated-kernel checks."""
import numpy as np
import pytest

from condiff import killed_sim, rng
from condiff.errors import ContractionViolation, SurvivorDepletion
from condiff.geometry import Box
from condiff.killed_sim import (Blocks, SimConfig, conditional_flow, exit_cdf,
                                simulate_killed, uniform_grid)
from condiff.model import (Cloud, ConstantPolicy, ControlBox, DriftSpec, LinearPolicy,
                           ModelSpec, UniformBox)
from condiff.picard import solve_fixed_point
from condiff.renewal import (RestartKernel, estimate_restart_kernel,
                             log_survival_check, volterra_solve)
from condiff.scenarios import (ZERO_REWARD, attractive_interval, driftless_interval,
                               rich_reward)


def _analytic_kernel(n_r, dt_r, k_func):
    """Build a kernel from a closed form, matching the estimated layout:
    row i holds n_r - i + 1 valid entries, NaN beyond the horizon."""
    s_grid = np.arange(n_r) * dt_r
    u_grid = np.arange(n_r + 1) * dt_r
    cdf = np.full((n_r, n_r + 1), np.nan)
    for i in range(n_r):
        valid = n_r - i + 1
        cdf[i, :valid] = k_func(float(s_grid[i]), u_grid[:valid])
    return RestartKernel(s_grid=s_grid, u_grid=u_grid, cdf=cdf,
                         se=np.zeros_like(cdf), n_paths=0,
                         isotonic_correction=0.0)


def volterra_fixed_point_iteration(cdf_tau1, kernel: RestartKernel, grid,
                                   tol: float = 1e-13,
                                   max_iter: int = 10_000) -> np.ndarray:
    """Solve the discrete renewal system by Picard iteration.

    Converges geometrically at rate p_end < 1 and agrees with the
    forward substitution to solver precision: an independent route
    through the same equations.
    """
    grid = np.asarray(grid, dtype=float)
    cdf_tau1 = np.asarray(cdf_tau1, dtype=float)
    n = grid.shape[0]
    p_end = kernel.phat(float(grid[-1] - grid[0]))
    if p_end >= 1.0 - 1e-12:
        raise ContractionViolation(f"one-cycle exit probability {p_end:.6g} reaches 1")
    f = cdf_tau1.copy()
    for _ in range(max_iter):
        f_next = cdf_tau1.copy()
        for m in range(1, n):
            acc = 0.0
            for j in range(m):
                acc += kernel.cdf[j, m - j] * (f[j + 1] - f[j])
            f_next[m] += acc
        delta = float(np.max(np.abs(f_next - f)))
        f = f_next
        if delta < tol:
            break
    return f


def _exponential_setup(n_r, lam=1.0, horizon=1.0):
    # memoryless exits: K(s, u) = 1 - e^{-lam u} regardless of s, and the
    # renewal function of a Poisson process is exactly F(t) = lam * t
    dt_r = horizon / n_r
    kernel = _analytic_kernel(n_r, dt_r, lambda s, u: -np.expm1(-lam * u))
    grid = kernel.u_grid
    cdf1 = -np.expm1(-lam * grid)
    return kernel, grid, cdf1


def test_exponential_kernel_recovers_linear_renewal():
    lam = 1.0
    kernel, grid, cdf1 = _exponential_setup(20, lam)
    f = volterra_solve(cdf1, kernel, grid)
    err_coarse = float(np.max(np.abs(f - lam * grid)))
    assert err_coarse < 0.05

    kernel2, grid2, cdf12 = _exponential_setup(40, lam)
    f2 = volterra_solve(cdf12, kernel2, grid2)
    err_fine = float(np.max(np.abs(f2 - lam * grid2)))
    # first-order quadrature: halving the step should roughly halve the error
    assert err_fine <= 0.7 * err_coarse


def test_zero_kernel_returns_driving_term_exactly():
    kernel = _analytic_kernel(10, 0.1, lambda s, u: np.zeros_like(u))
    grid = kernel.u_grid
    cdf1 = -np.expm1(-0.8 * grid)
    f = volterra_solve(cdf1, kernel, grid)
    assert np.array_equal(f, cdf1)


def test_fixed_point_route_matches_forward_substitution():
    kernel, grid, cdf1 = _exponential_setup(25, lam=1.3)
    direct = volterra_solve(cdf1, kernel, grid)
    iterated = volterra_fixed_point_iteration(cdf1, kernel, grid)
    assert isinstance(iterated, np.ndarray)
    assert float(np.max(np.abs(direct - iterated))) <= 1e-10


def test_saturated_kernel_raises_contraction_violation():
    kernel = _analytic_kernel(8, 0.125, lambda s, u: (u > 0).astype(float))
    grid = kernel.u_grid
    cdf1 = np.linspace(0.0, 0.9, grid.shape[0])
    with pytest.raises(ContractionViolation):
        volterra_solve(cdf1, kernel, grid)
    with pytest.raises(ContractionViolation):
        volterra_fixed_point_iteration(cdf1, kernel, grid)


def test_phat_diagonal_maximum():
    kernel, grid, _ = _exponential_setup(10, lam=2.0)
    # K is increasing in u and flat in s, so the diagonal max sits at s = 0
    assert kernel.phat(1.0) == pytest.approx(-np.expm1(-2.0))
    assert kernel.phat(0.0) == 0.0
    with pytest.raises(ValueError):
        kernel.phat(0.033)


def test_grid_mismatch_rejected():
    kernel, grid, cdf1 = _exponential_setup(10)
    with pytest.raises(ValueError):
        volterra_solve(cdf1[:-1], kernel, grid[:-1])
    with pytest.raises(ValueError):
        volterra_solve(cdf1, kernel, grid * 2.0)
    # the kernel lives in time-since-restart, so a shifted grid is fine
    shifted = volterra_solve(cdf1, kernel, grid + 0.5)
    assert np.array_equal(shifted, volterra_solve(cdf1, kernel, grid))


def test_log_survival_check_values_and_depletion():
    times = np.array([0.0, 0.5, 1.0])
    surv = np.exp(-0.7 * times)
    rep = log_survival_check(times, 0.7 * times, surv)
    assert rep.max_residual == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(rep.neg_log_survival, 0.7 * times)

    with pytest.raises(SurvivorDepletion):
        log_survival_check(times, 0.7 * times, np.array([1.0, 0.5, 0.0]))
    with pytest.raises(ValueError):
        log_survival_check(times, 0.7 * times, surv[:-1])


def test_estimated_kernel_against_independent_run():
    model = driftless_interval(horizon=0.5)
    policy = ConstantPolicy((0.0,), model.control_set)
    base_config = SimConfig(3000, 2e-3, 401, uniform_grid(0.5, 0.1))
    ens = simulate_killed(model, policy, None, base_config)
    flow = conditional_flow(ens)

    kernel_config = SimConfig(3000, 2e-3, 402, uniform_grid(0.5, 0.1),
                              min_survivors=0)
    kernel = estimate_restart_kernel(model, policy, flow, kernel_config,
                                     dt_r=0.1, n_paths=1500)
    assert kernel.isotonic_correction == 0.0
    assert kernel.cdf.shape == (5, 6)
    # row i is estimated only out to the horizon
    for i in range(5):
        assert np.all(np.isfinite(kernel.cdf[i, : 6 - i]))
        assert np.all(np.isnan(kernel.cdf[i, 6 - i :]))

    # the s=0 column restarts from the initial law, so it must reproduce
    # the first-exit CDF of a fresh run within Monte Carlo error
    fresh = simulate_killed(model, policy, None,
                            SimConfig(1500, 2e-3, 403, uniform_grid(0.5, 0.1),
                                      min_survivors=0))
    reference = exit_cdf(fresh, kernel.u_grid)
    assert np.max(np.abs(kernel.cdf[0] - reference)) < 0.05

    # running the columns as blocks of one pass must not change a single bit
    _assert_columns_run_alone(model, policy, flow, kernel_config, kernel)


def _assert_columns_run_alone(model, policy, flow, config, kernel):
    """Each kernel row equals its restart column simulated on its own."""
    t_end = float(flow.times[-1])
    for i, s in enumerate(kernel.s_grid):
        seed = rng.derive_seed(config.seed, rng.KERNEL_COLUMN, i)
        column = Blocks((policy,), (flow,), (seed,), (s,), (Cloud(flow.node_at(s).points),))
        alone = simulate_killed(model, column, None, SimConfig(
            kernel.n_paths, config.dt, config.seed, np.array([s, t_end]),
            min_survivors=0)).block(0)
        valid = kernel.u_grid.shape[0] - i
        row = exit_cdf(alone, s + kernel.u_grid[:valid])
        assert kernel.cdf[i, :valid].tobytes() == row.tobytes(), f"column {i}"
        se = np.sqrt(row * (1.0 - row) / kernel.n_paths)
        assert kernel.se[i, :valid].tobytes() == se.tobytes(), f"column {i}"


def _coupled_box():
    return ModelSpec(
        domain=Box((-1.0, -1.0), (1.0, 1.0)), sigma=((0.8, 0.0), (0.3, 0.6)),
        drift=DriftSpec(base_kind="zero", mf_gain=1.0,
                        control_matrix=((0.9, 0.35), (0.15, 1.1)), clip_bound=3.0),
        control_set=ControlBox((-1.0, -1.0), (1.0, 1.0)), horizon=0.4,
        reward=ZERO_REWARD, initial=UniformBox((-0.6, -0.6), (0.6, 0.6)))


@pytest.mark.parametrize("case", ["coupled_interval", "coupled_box"])
def test_stacked_kernel_matches_columns_run_alone(case):
    # Coupled drifts read the flow mean at each column's own times; the box
    # adds two-dimensional steps and bridges over several faces.
    if case == "coupled_interval":
        model = attractive_interval(kappa=0.5, horizon=0.4, reward=rich_reward(0.0))
        policy = ConstantPolicy((0.3,), model.control_set)
    else:
        model = _coupled_box()
        policy = LinearPolicy((0.3, -0.2), ((-0.5, 0.1), (0.0, -0.5)), model.control_set)
    config = SimConfig(600, 5e-3, 404, uniform_grid(0.4, 0.05), min_survivors=0)
    flow = solve_fixed_point(model, policy, config, max_iter=2).flow
    kernel = estimate_restart_kernel(model, policy, flow, config, dt_r=0.05, n_paths=300)
    assert kernel.cdf.shape == (8, 9)
    _assert_columns_run_alone(model, policy, flow, config, kernel)


def test_restart_pass_takes_one_drift_call_per_step(monkeypatch, euler_steps):
    # Eight columns restart at eight distinct times, so the pass runs blocks
    # on eight clocks; each Euler step still evaluates the drift once.
    model = _coupled_box()
    policy = LinearPolicy((0.3, -0.2), ((-0.5, 0.1), (0.0, -0.5)), model.control_set)
    config = SimConfig(200, 5e-3, 405, uniform_grid(0.4, 0.05), min_survivors=0)
    flow = solve_fixed_point(model, policy, config, max_iter=1).flow
    drift_calls = []
    drift = killed_sim.drift_given_mean

    def counted(*args, **kwargs):
        drift_calls.append(None)
        return drift(*args, **kwargs)

    monkeypatch.setattr(killed_sim, "drift_given_mean", counted)
    euler_steps.clear()
    kernel = estimate_restart_kernel(model, policy, flow, config, dt_r=0.05, n_paths=50)
    assert len(set(kernel.s_grid)) == 8
    assert len(drift_calls) == len(euler_steps) == 80


def test_estimate_requires_compatible_steps():
    model = driftless_interval(horizon=0.5)
    policy = ConstantPolicy((0.0,), model.control_set)
    config = SimConfig(100, 2e-3, 7, uniform_grid(0.5, 0.1), min_survivors=0)
    ens = simulate_killed(model, policy, None, config)
    flow = conditional_flow(ens)
    with pytest.raises(ValueError):
        estimate_restart_kernel(model, policy, flow, config, dt_r=0.3,
                                n_paths=50)
    with pytest.raises(ValueError):
        estimate_restart_kernel(model, policy, flow, config, dt_r=0.0501,
                                n_paths=50)
    # divides the horizon and the step, but restarts at 0.05 fall between
    # the flow's nodes
    with pytest.raises(ValueError, match="not a node"):
        estimate_restart_kernel(model, policy, flow, config, dt_r=0.05,
                                n_paths=50)
