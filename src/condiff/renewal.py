"""Renewal verification of survival via a restart kernel.

Each boundary exit of the reinsertion dynamics restarts a path from
the conditional law at the exit time.  The expected number of restarts
per particle F then solves a Volterra equation driven by the first
exit-time law and a two-argument restart kernel

    F(t) = P(tau1 <= t) + int_0^t K(s, t - s) dF(s),

where K(s, u) is the probability that a path restarted at time s from
the conditional law exits again within u.  Solving this equation from
independently estimated ingredients and comparing F against -log of
the directly simulated survival is a strong consistency check: the two
sides come from different estimators and different randomness.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import ContractionViolation, SurvivorDepletion
from .killed_sim import Blocks, SimConfig, exit_cdf, simulate_killed
from .measures import _TIME_TOL, MeasureFlow
from .model import Cloud, FeedbackPolicy, ModelSpec

_DENOM_FLOOR = 1e-12


@dataclass
class RestartKernel:
    """Exit-time CDFs after restarting at s from the conditional law.

    cdf[i, j] = P(exit within u_grid[j] | restarted at s_grid[i]); NaN
    where s + u overruns the horizon of the estimate.  se holds the
    binomial standard error per entry.  isotonic_correction reports the
    largest adjustment the monotone projection applied (exit-time CDFs
    sampled from one ensemble are already monotone, so this is a guard
    that stays at zero unless something upstream went wrong).
    """

    s_grid: np.ndarray
    u_grid: np.ndarray
    cdf: np.ndarray
    se: np.ndarray
    n_paths: int
    isotonic_correction: float

    @property
    def dt_r(self) -> float:
        return float(self.u_grid[1] - self.u_grid[0])

    def phat(self, t: float) -> float:
        """max_s K(s, t - s) over grid points, the one-cycle exit bound."""
        m = int(round(t / self.dt_r))
        if abs(m * self.dt_r - t) > _TIME_TOL or m < 0 or m >= self.u_grid.shape[0]:
            raise ValueError("t must be a node of the kernel grid")
        vals = [self.cdf[j, m - j] for j in range(min(m + 1, self.s_grid.shape[0]))]
        return float(np.nanmax(vals)) if vals else 0.0

    def rows(self) -> list[tuple]:
        """(s, u, K, K_se) for every finite entry, s-major: a kernel CSV's rows."""
        return [(s, u, self.cdf[i, j], self.se[i, j])
                for i, s in enumerate(self.s_grid) for j, u in enumerate(self.u_grid)
                if np.isfinite(self.cdf[i, j])]


def restart_times(times: np.ndarray, dt_r: float, dt: float) -> np.ndarray:
    """Restart times 0, dt_r, ... before the last of times, checked against it.

    Raises ValueError unless dt_r divides the horizon, is a multiple of
    the simulation step dt, and puts every restart time on a node of
    times, the grid of the flow the columns restart from.
    """
    times = np.asarray(times, dtype=float)
    if not dt_r > 0:
        raise ValueError("dt_r must be positive")
    t_end = float(times[-1])
    n_r = int(round(t_end / dt_r))
    if n_r < 1 or abs(n_r * dt_r - t_end) > _TIME_TOL:
        raise ValueError("dt_r must divide the flow horizon evenly")
    steps_per = dt_r / dt
    if abs(steps_per - round(steps_per)) > 1e-6:
        raise ValueError("dt_r must be a multiple of the simulation step")
    s_grid = np.arange(n_r) * dt_r
    nearest = times[np.searchsorted(times, s_grid - _TIME_TOL, side="left")]
    off = np.abs(nearest - s_grid) > _TIME_TOL
    if off.any():
        raise ValueError(f"restart time {s_grid[np.argmax(off)]:g} is not a node "
                         "of the flow grid")
    return s_grid


def estimate_restart_kernel(model: ModelSpec, policy: FeedbackPolicy,
                            flow: MeasureFlow, config: SimConfig, dt_r: float,
                            n_paths: int) -> RestartKernel:
    """Estimate K column by column with fresh restart ensembles.

    Column i restarts n_paths particles at s = i * dt_r from the flow
    node there and records the exit-time CDF on the remaining window.
    Every s must be a node of the flow grid (see restart_times).  Each
    column draws from its own derived seed, and all of them run as the
    staggered blocks of one simulation pass (see Blocks), so column i
    is bit for bit the run that restarts at s alone.
    """
    if not isinstance(policy, FeedbackPolicy):
        raise ValueError("restart estimation requires a feedback policy")
    s_grid = restart_times(flow.times, dt_r, config.dt)
    t_end = float(flow.times[-1])
    n_r = s_grid.shape[0]
    u_grid = np.arange(n_r + 1) * dt_r

    blocks = Blocks(
        policies=[policy] * n_r, flows=[flow] * n_r,
        seeds=[rng.derive_seed(config.seed, rng.KERNEL_COLUMN, i) for i in range(n_r)],
        starts=s_grid, laws=[Cloud(flow.node_at(float(s)).points) for s in s_grid])
    pass_config = replace(config, n_particles=n_r * n_paths, grid=np.array([0.0, t_end]),
                          min_survivors=0)
    ens = simulate_killed(model, blocks, None, pass_config)

    cdf = np.full((n_r, n_r + 1), np.nan)
    se = np.full((n_r, n_r + 1), np.nan)
    correction = 0.0
    for i, s in enumerate(s_grid):
        k_row = exit_cdf(ens.block(i), s + u_grid[:n_r - i + 1])
        mono = np.maximum.accumulate(k_row)
        correction = max(correction, float(np.max(mono - k_row)))
        cdf[i, : k_row.shape[0]] = mono
        se[i, : k_row.shape[0]] = np.sqrt(k_row * (1.0 - k_row) / n_paths)
    return RestartKernel(s_grid=s_grid, u_grid=u_grid, cdf=cdf, se=se,
                         n_paths=n_paths, isotonic_correction=correction)


def _check_inputs(cdf_tau1: np.ndarray, kernel: RestartKernel,
                  grid: np.ndarray) -> int:
    n = grid.shape[0]
    if cdf_tau1.shape != (n,):
        raise ValueError("cdf_tau1 must be sampled on the output grid")
    if kernel.u_grid.shape[0] != n or np.any(np.abs(kernel.u_grid - (grid - grid[0])) > _TIME_TOL):
        raise ValueError("kernel grid must match the output grid")
    return n


def volterra_solve(cdf_tau1, kernel: RestartKernel, grid) -> np.ndarray:
    """Forward substitution for F on the renewal grid.

    The left-endpoint rule makes the last increment of each prefix sum
    implicit, so every step divides by 1 - K(t_{m-1}, dt_r).  A kernel
    whose one-cycle exit probability reaches one has no finite renewal
    function; that surfaces as ContractionViolation.
    """
    grid = np.asarray(grid, dtype=float)
    cdf_tau1 = np.asarray(cdf_tau1, dtype=float)
    n = _check_inputs(cdf_tau1, kernel, grid)
    p_end = kernel.phat(float(grid[-1] - grid[0]))
    if p_end >= 1.0 - _DENOM_FLOOR:
        raise ContractionViolation(
            f"one-cycle exit probability {p_end:.6g} reaches 1; "
            "the renewal equation has no bounded solution")
    f = np.zeros(n)
    f[0] = cdf_tau1[0]
    for m in range(1, n):
        k_prev = kernel.cdf[m - 1, 1]
        denom = 1.0 - k_prev
        if not np.isfinite(denom) or denom <= _DENOM_FLOOR:
            raise ContractionViolation(
                f"restart kernel step probability {k_prev:.6g} at "
                f"s={grid[m - 1]:g} leaves no mass to propagate")
        acc = cdf_tau1[m]
        for j in range(m - 1):
            acc += kernel.cdf[j, m - j] * (f[j + 1] - f[j])
        f[m] = (acc - k_prev * f[m - 1]) / denom
    return f


@dataclass
class LogSurvivalReport:
    """Residuals between a renewal curve and -log of a survival curve."""

    times: np.ndarray
    neg_log_survival: np.ndarray
    residuals: np.ndarray
    max_residual: float


def log_survival_check(times, f_values, survival) -> LogSurvivalReport:
    """Compare F(t) against -log S(t) pointwise on a shared grid."""
    times = np.asarray(times, dtype=float)
    f_values = np.asarray(f_values, dtype=float)
    survival = np.asarray(survival, dtype=float)
    if not (times.shape == f_values.shape == survival.shape):
        raise ValueError("times, f_values, and survival must share a shape")
    bad = survival <= 0
    if np.any(bad):
        t_bad = float(times[np.argmax(bad)])
        raise SurvivorDepletion(t_bad, 0, 1)
    neg_log = -np.log(survival)
    resid = np.abs(f_values - neg_log)
    return LogSurvivalReport(times=times.copy(), neg_log_survival=neg_log, residuals=resid,
                             max_residual=float(resid.max()))

