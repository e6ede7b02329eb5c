"""Output checks computed apart from condiff.

Every reference value here is derived in this file (the interval
eigenfunction series, W1 through scipy, the Volterra system solved as a
dense linear system) or is a property the method must have.  None of it
calls condiff, so a fault in the program cannot hide in its own oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TIME_TOL = 1e-9


@dataclass
class Check:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "detail": self.detail}


# -- driftless interval oracle ------------------------------------------------

def _interval_modes(x0: float, lo: float, hi: float, sigma: float, t, terms: int):
    """Dirichlet modes sin(m pi y / W) of (lo, hi), y = x - lo, weighted by
    their coefficient (2/W) psi_m(y0) exp(-lambda_m t)."""
    width = hi - lo
    m = np.arange(1, terms + 1)
    k = m * np.pi / width
    decay = np.exp(-0.5 * sigma ** 2 * np.outer(np.atleast_1d(t), k ** 2))
    weight = (2.0 / width) * np.sin(k * (x0 - lo)) * decay
    return m, k, weight


def interval_survival(x0, lo, hi, sigma, t, terms=400) -> np.ndarray:
    """P(tau > t) for driftless sigma*W started at x0 in (lo, hi)."""
    m, k, weight = _interval_modes(x0, lo, hi, sigma, t, terms)
    mass = (1.0 - np.cos(m * np.pi)) / k          # integral of each mode
    return weight @ mass


def interval_conditional_second_moment(x0, lo, hi, sigma, t, terms=400) -> np.ndarray:
    """E[X_t^2 | tau > t] from the same expansion."""
    m, k, weight = _interval_modes(x0, lo, hi, sigma, t, terms)
    width = hi - lo
    sign = np.cos(m * np.pi)
    i0 = (1.0 - sign) / k                          # int_0^W sin(k y) dy
    i1 = -width * sign / k                         # int_0^W y sin(k y) dy
    i2 = -width ** 2 * sign / k - 2.0 * i0 / k ** 2
    moment = i2 + 2.0 * lo * i1 + lo ** 2 * i0     # int (y + lo)^2 sin(k y) dy
    return (weight @ moment) / (weight @ i0)


def check_survival_series(times, survival, n, x0, lo, hi, sigma, at, k_se=4.0) -> Check:
    times = np.asarray(times, dtype=float)
    worst = 0.0
    for t in at:
        m = int(np.argmin(np.abs(times - t)))
        ref = float(interval_survival(x0, lo, hi, sigma, times[m])[0])
        se = np.sqrt(ref * (1.0 - ref) / n)
        worst = max(worst, abs(float(survival[m]) - ref) / se)
    return Check("survival_matches_series", worst <= k_se,
                 f"largest deviation {worst:.2f} binomial SE (limit {k_se:g})")


def check_second_moment(x_end, t_end, x0, lo, hi, sigma, k_se=4.0) -> Check:
    x2 = np.asarray(x_end, dtype=float) ** 2
    se = x2.std(ddof=1) / np.sqrt(x2.shape[0])
    ref = float(interval_conditional_second_moment(x0, lo, hi, sigma, t_end)[0])
    z = abs(float(x2.mean()) - ref) / se
    return Check("conditional_second_moment", z <= k_se,
                 f"E[X^2|alive]={x2.mean():.5f} vs series {ref:.5f}: {z:.2f} SE "
                 f"(limit {k_se:g})")


def check_flow_counts(flow_times, surv_times, survival, n) -> Check:
    """Rows of flow.csv per node over N equal survival.csv exactly."""
    surv_times = np.asarray(surv_times, dtype=float)
    idx = np.searchsorted(surv_times, np.asarray(flow_times) - TIME_TOL)
    counts = np.bincount(idx, minlength=surv_times.shape[0])
    ratio = counts / float(n)
    bad = int(np.count_nonzero(ratio != np.asarray(survival, dtype=float)))
    return Check("flow_rows_match_survival", bad == 0,
                 f"{bad} of {surv_times.shape[0]} nodes differ")


def check_inside(points, lo, hi, name="positions_inside") -> Check:
    pts = np.asarray(points, dtype=float).reshape(np.shape(points)[0], -1)
    outside = int(np.count_nonzero(~np.all((pts > np.asarray(lo)) & (pts < np.asarray(hi)),
                                           axis=1)))
    return Check(name, outside == 0, f"{outside} of {pts.shape[0]} points not strictly inside")


# -- reward and reinsertion identities ----------------------------------------

def check_converged(converged, distances, tol) -> Check:
    ok = bool(converged) and len(distances) > 0 and distances[-1] <= tol
    return Check("picard_converged", ok,
                 f"{len(distances)} sweeps, last distance "
                 f"{distances[-1] if distances else float('nan'):.3g} (tol {tol:g})")


def check_reward_agreement(j_killed, se_killed, j_fv, se_fv, k_se=3.0) -> Check:
    allow = k_se * float(np.hypot(se_killed, se_fv))
    gap = abs(j_killed - j_fv)
    return Check("killed_and_fv_rewards_agree", gap <= allow,
                 f"|{j_killed:.5f} - {j_fv:.5f}| = {gap:.5f}, allowed {allow:.5f}")


def check_cost_linearity(j_cost, j_zero, cost, f_end) -> Check:
    """J_fv(c) = J_fv(0) - c F(T), bit for bit: the cost enters as one term."""
    expected = j_zero - cost * f_end
    return Check("reinsertion_cost_exactly_linear", j_cost == expected,
                 f"J(c)={j_cost!r}, J(0)-cF={expected!r}")


def check_event_counts(event_particles, final_counts, f_end, n) -> Check:
    """The event list, the per-particle counts and F(T) tell one story."""
    per_particle = np.bincount(np.asarray(event_particles, dtype=np.int64), minlength=n)
    counts_ok = per_particle.shape[0] == n and np.array_equal(per_particle,
                                                               np.asarray(final_counts))
    f_ok = f_end == len(event_particles) / n
    return Check("reinsertion_events_consistent", bool(counts_ok and f_ok),
                 f"{len(event_particles)} events; counts match: {counts_ok}; "
                 f"F(T) matches: {f_ok}")


def check_log_survival(f_end, s_end, n_killed, n_fv, name, k_se=4.0) -> Check:
    """F(T) against -log S(T).

    The yardstick is the binomial standard error of -log S at each
    population size, sqrt((1 - S) / (N S)).  It uses no count spread of
    the FV run, which for the finite variant ignores peer correlation.
    """
    se = np.sqrt((1.0 - s_end) / s_end * (1.0 / n_killed + 1.0 / n_fv))
    gap = abs(f_end + np.log(s_end))
    return Check(name, gap <= k_se * se,
                 f"F(T)={f_end:.5f} vs -log S(T)={-np.log(s_end):.5f}: gap {gap:.5f}, "
                 f"allowed {k_se * se:.5f}")


def _directions(dim: int, count: int) -> np.ndarray:
    if dim == 1:
        return np.ones((1, 1))
    angles = np.pi * np.arange(count) / count
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def sliced_w1_with_scale(a, b, count=16) -> tuple[float, float]:
    """Sliced W1 of two point clouds and a same-law scale for it.

    The scale is E W1 <= (1/sqrt(n1) + 1/sqrt(n2)) int sqrt(F(1 - F)) dx
    per direction, with F the pooled empirical CDF; W1 between two samples
    of one law stays below it on average.
    """
    from scipy.stats import wasserstein_distance  # imported late: not part of set-up

    a = np.asarray(a, dtype=float).reshape(np.shape(a)[0], -1)
    b = np.asarray(b, dtype=float).reshape(np.shape(b)[0], -1)
    w, scale = [], []
    for u in _directions(a.shape[1], count):
        pa, pb = a @ u, b @ u
        w.append(wasserstein_distance(pa, pb))
        pooled = np.sort(np.concatenate([pa, pb]))
        cdf = np.arange(1, pooled.shape[0]) / pooled.shape[0]
        spread = float(np.sum(np.sqrt(cdf * (1.0 - cdf)) * np.diff(pooled)))
        scale.append(spread * (1.0 / np.sqrt(pa.shape[0]) + 1.0 / np.sqrt(pb.shape[0])))
    return float(np.mean(w)), float(np.mean(scale))


def check_marginals(fv_nodes, killed_nodes, times, name, k_scale=3.0) -> Check:
    worst, worst_t = 0.0, float("nan")
    for t, fv_pts, killed_pts in zip(times, fv_nodes, killed_nodes):
        w, scale = sliced_w1_with_scale(fv_pts, killed_pts)
        if w / scale > worst:
            worst, worst_t = w / scale, t
    return Check(name, worst <= k_scale,
                 f"largest sliced W1 is {worst:.2f} same-law scales at t={worst_t:g} "
                 f"(limit {k_scale:g})")


# -- renewal and optimizer -----------------------------------------------------

def kernel_matrix(rows, dt_r: float) -> np.ndarray:
    """kernel.csv rows (s, u, K, K_se) as K[i, j] at s = i dt_r, u = j dt_r."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 4)
    i = np.rint(rows[:, 0] / dt_r).astype(int)
    j = np.rint(rows[:, 1] / dt_r).astype(int)
    k = np.full((i.max() + 1, j.max() + 1), np.nan)
    k[i, j] = rows[:, 2]
    return k


def volterra_dense(cdf_tau1, kernel) -> np.ndarray:
    """Solve F(t_m) = C(t_m) + sum_{j<m} K(t_j, t_m - t_j) (F(t_{j+1}) - F(t_j))
    as one lower-triangular system with a dense solver."""
    c = np.asarray(cdf_tau1, dtype=float)
    n = c.shape[0]
    a = np.eye(n)
    for m in range(1, n):
        for j in range(m):
            a[m, j + 1] -= kernel[j, m - j]
            a[m, j] += kernel[j, m - j]
    return np.linalg.solve(a, c)


def check_volterra(f_csv, f_dense, tol=1e-9) -> Check:
    gap = float(np.max(np.abs(np.asarray(f_csv) - f_dense)))
    return Check("volterra_resolved", gap <= tol,
                 f"largest gap to the dense solve {gap:.3g} (tol {tol:g})")


def check_renewal_log_survival(f_values, survival, n_paths, name, k=3.0) -> Check:
    """F and -log S agree within k / sqrt(n_paths), the restart kernel's
    sampling scale."""
    gap = float(np.max(np.abs(np.asarray(f_values) + np.log(survival))))
    allow = k / np.sqrt(n_paths)
    return Check(name, gap <= allow, f"largest |F + log S| {gap:.4f}, allowed {allow:.4f}")


def check_kernel_entries(kernel) -> Check:
    finite = np.isfinite(kernel)
    values = kernel[finite]
    in_range = bool(np.all((values >= 0.0) & (values <= 1.0)))
    monotone = True
    for row, ok in zip(kernel, finite):
        r = row[ok]
        monotone = monotone and bool(np.all(np.diff(r) >= 0.0))
    return Check("kernel_entries_valid", in_range and monotone,
                 f"{values.size} entries; in [0, 1]: {in_range}; nondecreasing in u: "
                 f"{monotone}")


def check_n_evals(n_evals, trace_rows, budget) -> Check:
    return Check("optimizer_budget_used", n_evals == budget and trace_rows == budget,
                 f"n_evals {n_evals}, trace rows {trace_rows}, budget {budget}")


def check_best_value(best_value, trace_values) -> Check:
    top = float(np.max(trace_values))
    return Check("best_is_trace_maximum", best_value == top,
                 f"best {best_value!r} vs trace maximum {top!r}")


def check_beats_zero(best_value, j_zero) -> Check:
    return Check("best_beats_zero_control", best_value > j_zero,
                 f"best {best_value:.5f} vs zero control {j_zero:.5f}")
