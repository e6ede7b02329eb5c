"""Quantitative verification suite.

Eleven numbered checks exercise the full pipeline against analytic
oracles and internal consistency identities: survival and the
long-time surviving law of a driftless interval model, reinsertion
dynamics against the killed conditional flow, the renewal equation
against direct survival, fixed-point contraction, feedback
reconstruction, reward equivalence, the change-of-measure survival
floor, boundary-start exit detection, and scheduling determinism.

Each check runs under its own derived seed and writes CSV artifacts.
Artifact bytes are independent of the worker-thread count; wall-clock
times are reported separately so timing never leaks into comparable
files.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import rng
from .fleming_viot import (fv_correspondence_report, simulate_fv_finite,
                           simulate_fv_meanfield)
from .io import write_csv, write_json
from .killed_sim import (SimConfig, analytic_interval_survival, conditional_flow,
                         exit_cdf, girsanov_survival_floor, restrict_ensemble,
                         simulate_killed, uniform_grid)
from .measures import EmpiricalMeasure, MeasureFlow, flow_distance, restrict_flow
from .mimic import mimic_compare
from .model import (Cloud, ConstantPolicy, GridPolicy, LinearPolicy, PiecewiseControl,
                    RandomizedSignControl)
from .picard import solve_fixed_point
from .renewal import estimate_restart_kernel, log_survival_check, volterra_solve
from .reward_opt import (eval_reward_conditional, eval_reward_fv, optimize_policy,
                         policy_family)
from .scenarios import (QSD_SECOND_MOMENT, attractive_interval, boundary_start,
                        bounded_control_interval, driftless_interval,
                        mimic_interval, rich_reward)

VERIFY_SEED = 1729


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    details: dict

    def line(self) -> str:
        return f"[{self.cid}] {'PASS' if self.passed else 'FAIL'} {self.name}"

    def to_dict(self) -> dict:
        return {"id": self.cid, "name": self.name, "passed": self.passed,
                "details": self.details}


def _seed(index: int) -> int:
    return rng.derive_seed(VERIFY_SEED, rng.SCENARIO, index)


def _subset_flow(ens, sl: slice) -> MeasureFlow:
    nodes, surv = [], []
    for m in range(ens.times.shape[0]):
        alive = ens.alive_at(m)[sl]
        nodes.append(EmpiricalMeasure(ens.snapshots[m][sl][alive]))
        surv.append(float(alive.mean()))
    return MeasureFlow(ens.times, tuple(nodes), np.asarray(surv))


def _noise_floor(ens) -> float:
    """Half of the flow distance between the two halves of one ensemble:
    a same-law W1 noise scale for the full sample size."""
    half = ens.n // 2
    return flow_distance(_subset_flow(ens, slice(0, half)),
                         _subset_flow(ens, slice(half, ens.n))) / 2.0


@dataclass
class Verifier:
    out_dir: Path
    log: object = None
    results: list = field(default_factory=list)
    manifest_extra: dict = field(default_factory=dict)

    def _emit(self, result: CriterionResult) -> None:
        self.results.append(result)
        if self.log is not None:
            self.log(result.line())

    # -- shared expensive runs -------------------------------------------

    def run_a(self):
        """Driftless interval run, N = 1e5, horizon 3, output dense to 1."""
        if not hasattr(self, "_run_a"):
            model = driftless_interval()
            grid = np.concatenate([uniform_grid(1.0, 0.05),
                                   uniform_grid(3.0, 0.25, t_start=1.25)])
            config = SimConfig(n_particles=100_000, dt=1e-3, seed=_seed(0),
                               grid=grid, min_survivors=50,
                               record_controls=False, record_outside_time=False)
            policy = ConstantPolicy((0.0,), model.control_set)
            start = time.perf_counter()
            ens = simulate_killed(model, policy, None, config)
            self.manifest_extra["run_a_seconds"] = time.perf_counter() - start
            self._run_a = ens
        return self._run_a

    def run_b(self):
        """Driftless interval run, N = 5e4, horizon 1, grid step 0.01."""
        if not hasattr(self, "_run_b"):
            model = driftless_interval(horizon=1.0)
            config = SimConfig(n_particles=50_000, dt=1e-3, seed=_seed(1),
                               grid=uniform_grid(1.0, 0.01), min_survivors=50,
                               record_controls=False, record_outside_time=False)
            policy = ConstantPolicy((0.0,), model.control_set)
            self._run_b = simulate_killed(model, policy, None, config)
        return self._run_b

    # -- criteria ---------------------------------------------------------

    def c01_c02_survival_and_qsd(self) -> None:
        ens = self.run_a()
        times = ens.times
        survival = ens.survival
        series = analytic_interval_survival(0.0, 1.0, 1.0, times)
        rel_err = np.abs(survival - series) / series
        se = np.sqrt(survival * (1.0 - survival) / ens.n)
        write_csv(self.out_dir / "c01_survival.csv",
                  ["time", "survival", "survival_se", "survival_series", "rel_err"],
                  [(times[m], survival[m], se[m], series[m], rel_err[m])
                   for m in range(times.shape[0])])

        checks = {}
        for t in (0.25, 0.5, 1.0):
            m = int(np.argmin(np.abs(times - t)))
            checks[f"rel_err_t{t:g}"] = float(rel_err[m])
        runtime_ok = self.manifest_extra["run_a_seconds"] <= 60.0
        passed = all(v <= 0.01 for v in checks.values()) and runtime_ok
        self._emit(CriterionResult(
            "C1", "survival matches the eigenfunction series within 1%",
            passed, {**checks, "tolerance": 0.01, "runtime_within_budget": runtime_ok}))

        m3 = int(np.argmin(np.abs(times - 3.0)))
        alive = ens.alive_at(m3)
        x = ens.snapshots[m3][alive][:, 0]
        m2 = float(np.mean(x * x))
        err = abs(m2 - QSD_SECOND_MOMENT)
        self._emit(CriterionResult(
            "C2", "long-time surviving law has the predicted second moment",
            err <= 0.01,
            {"second_moment": m2, "target": float(QSD_SECOND_MOMENT),
             "abs_err": err, "tolerance": 0.01, "survivors": int(alive.sum())}))

    def c03_c04_reinsertion_marginals(self) -> None:
        ens_a = self.run_a()
        model = driftless_interval(horizon=1.0)
        policy = ConstantPolicy((0.0,), model.control_set)
        flow_1 = restrict_flow(conditional_flow(ens_a), 1.0)
        killed_1 = restrict_ensemble(ens_a, 1.0)
        grid = uniform_grid(1.0, 0.05)

        fv_mf = simulate_fv_meanfield(
            model, policy, flow_1,
            SimConfig(10_000, 1e-3, _seed(3), grid,
                      record_outside_time=False))
        report = fv_correspondence_report(fv_mf, killed_1)
        self._emit(CriterionResult(
            "C3", "mean-field reinsertion marginals match the conditional flow",
            report.max_w1 <= 0.02,
            {"max_w1": report.max_w1, "tolerance": 0.02}))

        fv_fin = simulate_fv_finite(
            model, policy,
            SimConfig(10_000, 1e-3, _seed(4), grid,
                      record_outside_time=False))
        log_s = float(np.log(ens_a.survival_at(1.0)))
        resid_fin = abs(fv_fin.f_curve[-1] + log_s)
        resid_mf = abs(fv_mf.f_curve[-1] + log_s)
        self._emit(CriterionResult(
            "C4", "reinsertion counts reproduce -log survival in both variants",
            resid_fin <= 0.05 and resid_mf <= 0.05,
            {"residual_finite": float(resid_fin), "residual_meanfield": float(resid_mf),
             "neg_log_survival": -log_s, "tolerance": 0.05}))

        write_csv(self.out_dir / "c03_w1.csv",
                  ["time", "w1_meanfield", "f_meanfield", "f_finite",
                   "neg_log_survival"],
                  [(fv_mf.times[m], report.w1[m], fv_mf.f_curve[m],
                    fv_fin.f_curve[m], -np.log(killed_1.survival[m]))
                   for m in range(fv_mf.times.shape[0])])

    def c05_renewal(self) -> None:
        ens_b = self.run_b()
        model = driftless_interval(horizon=1.0)
        policy = ConstantPolicy((0.0,), model.control_set)
        flow_b = conditional_flow(ens_b)
        kernel_config = SimConfig(n_particles=2000, dt=1e-3, seed=_seed(5),
                                  grid=np.array([0.0, 1.0]), min_survivors=0,
                                  record_controls=False, record_outside_time=False)
        kernel = estimate_restart_kernel(model, policy, flow_b, kernel_config,
                                         dt_r=0.01, n_paths=2000)
        grid_r = ens_b.times
        cdf1 = exit_cdf(ens_b, grid_r)
        f_vol = volterra_solve(cdf1, kernel, grid_r)
        check = log_survival_check(grid_r, f_vol, ens_b.survival)
        p_end = kernel.phat(1.0)
        self._emit(CriterionResult(
            "C5", "renewal equation reproduces -log survival",
            check.max_residual <= 0.03 and p_end < 1.0,
            {"max_residual": check.max_residual, "tolerance": 0.03,
             "p_hat_horizon": float(p_end),
             "isotonic_correction": kernel.isotonic_correction}))

        rows = []
        for i, s in enumerate(kernel.s_grid):
            for j, u in enumerate(kernel.u_grid):
                if np.isfinite(kernel.cdf[i, j]):
                    rows.append((s, u, kernel.cdf[i, j], kernel.se[i, j]))
        write_csv(self.out_dir / "c05_kernel.csv", ["s", "u", "K", "K_se"], rows)
        write_csv(self.out_dir / "c05_f_volterra.csv",
                  ["time", "cdf_tau1", "f_volterra", "neg_log_survival",
                   "residual"],
                  [(grid_r[m], cdf1[m], f_vol[m], check.neg_log_survival[m],
                    check.residuals[m]) for m in range(grid_r.shape[0])])

    def c06_fixed_point(self) -> None:
        model = attractive_interval()
        policy = ConstantPolicy((0.3,), model.control_set)
        grid = uniform_grid(1.0, 0.05)
        solves = []
        for j in range(2):
            config = SimConfig(20_000, 1e-3, _seed(60 + j), grid,
                               record_outside_time=False)
            solves.append(solve_fixed_point(model, policy, config,
                                            tol=1e-2, max_iter=10))
        monotone = all(
            all(fp.distance_trace[i + 1] <= fp.distance_trace[i] + 1e-12
                for i in range(1, len(fp.distance_trace) - 1))
            for fp in solves)
        converged = all(fp.converged and fp.iterations <= 10 for fp in solves)
        dist = flow_distance(solves[0].flow, solves[1].flow)
        combined = float(np.hypot(_noise_floor(solves[0].ensemble),
                                  _noise_floor(solves[1].ensemble)))
        agree = dist <= 5.0 * combined
        self._emit(CriterionResult(
            "C6", "fixed-point iteration contracts and is seed-stable",
            monotone and converged and agree,
            {"iterations": [fp.iterations for fp in solves],
             "converged": converged, "trace_nonincreasing_from_2": monotone,
             "cross_seed_distance": float(dist), "combined_se": combined,
             "allowance": 5.0 * combined,
             "traces": [[float(d) for d in fp.distance_trace] for fp in solves]}))
        write_csv(self.out_dir / "c06_iterations.csv", ["run", "iter", "distance"],
                  [(j, i + 1, d) for j, fp in enumerate(solves)
                   for i, d in enumerate(fp.distance_trace)])

    def c07_mimic(self) -> None:
        model = mimic_interval()
        grid = uniform_grid(0.5, 0.025)
        rows = []

        deltas, ses = [], []
        for j in range(10):
            config = SimConfig(10_000, 2.5e-3,
                               rng.derive_seed(VERIFY_SEED, rng.REPETITION, j), grid)
            open_control = RandomizedSignControl((0.3,), (1.0,), model.control_set)
            rep = mimic_compare(model, open_control, config,
                                time_bins=8, space_bins=16)
            deltas.append(rep.delta)
            ses.append(rep.delta_se)
            rows.append((f"averaging_{j}", rep.j_open.total, rep.j_closed.total,
                         rep.delta, rep.delta_se))
        positive = int(sum(d > 0 for d in deltas))
        gain_ok = deltas[0] > 2.0 * ses[0] and positive >= 9

        config_id = SimConfig(10_000, 2.5e-3,
                              rng.derive_seed(VERIFY_SEED, rng.REPETITION, 100), grid)
        identity_control = PiecewiseControl(0.25, (0.2,), (-0.1,), model.control_set)
        rep_id = mimic_compare(model, identity_control, config_id,
                               time_bins=8, space_bins=16)
        rows.append(("identity", rep_id.j_open.total, rep_id.j_closed.total,
                     rep_id.delta, rep_id.delta_se))
        identity_ok = abs(rep_id.delta) <= 3.0 * rep_id.delta_se + 1e-12

        self._emit(CriterionResult(
            "C7", "conditional-mean feedback beats its open-loop source",
            gain_ok and identity_ok,
            {"delta_first": float(deltas[0]), "se_first": float(ses[0]),
             "positive_of_10": positive,
             "identity_delta": float(rep_id.delta),
             "identity_se": float(rep_id.delta_se)}))
        write_csv(self.out_dir / "c07_compare.csv",
                  ["scenario", "j_open", "j_closed", "delta", "se"], rows)

    def c08_reward_equivalence(self) -> None:
        model = attractive_interval(reward=rich_reward(1.0))
        grid = uniform_grid(1.0, 0.05)
        policies = [
            ("zero", ConstantPolicy((0.0,), model.control_set)),
            ("constant_0.3", ConstantPolicy((0.3,), model.control_set)),
            ("linear", LinearPolicy((0.1,), ((-0.5,),), model.control_set)),
        ]
        rows, all_ok = [], True
        for j, (name, policy) in enumerate(policies):
            config = SimConfig(10_000, 1e-3, _seed(80 + j), grid,
                               record_outside_time=False)
            fp = solve_fixed_point(model, policy, config)
            j_cond = eval_reward_conditional(fp.ensemble, fp.flow)
            fv = simulate_fv_meanfield(model, policy, fp.flow, config)
            j_fv0 = eval_reward_fv(fv, fp.flow, reinsertion_cost=0.0)
            j_fvc = eval_reward_fv(fv, fp.flow)
            gap = abs(j_cond.total - j_fv0.total)
            allow = 3.0 * float(np.hypot(j_cond.total_se, j_fv0.total_se))
            f_t = float(fv.f_curve[-1])
            decomp_gap = abs(j_fvc.total - (j_fv0.total - 1.0 * f_t))
            ok = gap <= allow and decomp_gap == 0.0
            all_ok = all_ok and ok
            rows.append((name, j_cond.total, j_cond.total_se, j_fv0.total,
                         j_fv0.total_se, j_fvc.total, f_t, decomp_gap))
        self._emit(CriterionResult(
            "C8", "killed and reinsertion reward estimates agree; cost "
                  "decomposition is exact",
            all_ok,
            {"policies": [r[0] for r in rows],
             "gaps": [abs(r[1] - r[3]) for r in rows],
             "allowances": [3.0 * float(np.hypot(r[2], r[4])) for r in rows],
             "decomposition_gaps": [r[7] for r in rows]}))
        write_csv(self.out_dir / "c08_rewards.csv",
                  ["policy", "j_conditional", "j_conditional_se", "j_fv0",
                   "j_fv0_se", "j_fv_costed", "f_terminal", "decomposition_gap"],
                  rows)

    def c09_survival_floor(self) -> None:
        model = bounded_control_interval(clip_bound=1.0, horizon=1.0)
        p0 = analytic_interval_survival(0.0, 1.0, 1.0, 1.0)
        floor = girsanov_survival_floor(1.0, model.sigma_matrix(), 1.0, p0)
        rows, all_ok = [], True
        for j in range(20):
            draw = rng.generator(rng.derive_seed(VERIFY_SEED, rng.POLICY_DRAW, j),
                                 rng.POLICY_DRAW, 0)
            policy = GridPolicy.build(model, 6, 6,
                                      2.0 * draw.random((6, 6, 1)) - 1.0)
            config = SimConfig(10_000, 1e-3, _seed(90 + j),
                               np.array([0.0, 1.0]),
                               record_controls=False, record_outside_time=False)
            ens = simulate_killed(model, policy, None, config)
            s = float(ens.survival_at(1.0))
            se = float(np.sqrt(s * (1.0 - s) / ens.n))
            ok = s >= floor - 3.0 * se
            all_ok = all_ok and ok
            rows.append((j, s, se, floor))
        self._emit(CriterionResult(
            "C9", "survival under bounded policies stays above the "
                  "change-of-measure floor",
            all_ok,
            {"floor": float(floor),
             "min_survival": float(min(r[1] for r in rows)),
             "policies": len(rows)}))
        write_csv(self.out_dir / "c09_floor.csv",
                  ["policy", "survival", "survival_se", "floor"], rows)

    def c10_boundary_start(self) -> None:
        model = boundary_start(horizon=0.01)
        policy = ConstantPolicy((0.0,), model.control_set)
        grid = np.array([0.0, 0.01])
        rows = {}
        for bridge in (True, False):
            config = SimConfig(2000, 1e-5, _seed(100), grid,
                               bridge_correction=bridge, min_survivors=0,
                               record_controls=False, record_outside_time=False)
            ens = simulate_killed(model, policy, None, config)
            rows[bridge] = 1.0 - float(ens.survival_at(0.01))
        passed = rows[True] == 1.0 and rows[False] >= 0.9
        self._emit(CriterionResult(
            "C10", "boundary starts exit immediately when bridge-corrected",
            passed,
            {"exit_fraction_bridge": rows[True],
             "exit_fraction_no_bridge": rows[False]}))
        write_csv(self.out_dir / "c10_exit.csv",
                  ["bridge_correction", "exit_fraction"],
                  [(True, rows[True]), (False, rows[False])])

    def c11_determinism_probe(self) -> None:
        """Demand bit-equality where only the layout of the work changes.

        The restart kernel runs its columns as the blocks of one pass, so
        each column must equal the run restarted on its own.  The fv
        rescoring of the optimizer, the one path still spread over a
        thread pool, must give the same trace at widths 1, 4 and 8.  The
        cross-process guarantee (whole artifact directories byte-identical
        under different --threads) is checked by the acceptance suite,
        which runs the full script three times.
        """
        model = driftless_interval(horizon=0.2)
        policy = ConstantPolicy((0.0,), model.control_set)
        base = SimConfig(2000, 5e-3, _seed(110), uniform_grid(0.2, 0.05),
                         min_survivors=10, record_controls=False,
                         record_outside_time=False)
        flow = conditional_flow(simulate_killed(model, policy, None, base))
        kernel_config = SimConfig(500, 5e-3, _seed(111), np.array([0.0, 0.2]),
                                  min_survivors=0, record_controls=False,
                                  record_outside_time=False)
        kernel = estimate_restart_kernel(model, policy, flow, kernel_config,
                                         dt_r=0.05, n_paths=500)
        kernel_equal = True
        for i, s in enumerate(kernel.s_grid):
            column = replace(kernel_config, grid=np.array([s, 0.2]), seed=rng.derive_seed(
                kernel_config.seed, rng.KERNEL_COLUMN, i))
            alone = simulate_killed(model, policy, flow, column,
                                    initial_law=Cloud(flow.node_at(s).points), t0=s)
            valid = kernel.u_grid.shape[0] - i
            row = exit_cdf(alone, s + kernel.u_grid[:valid])
            kernel_equal &= kernel.cdf[i, :valid].tobytes() == row.tobytes()

        opt_model = attractive_interval(horizon=0.2, reward=rich_reward(0.0))
        opt_config = SimConfig(500, 1e-2, _seed(112), uniform_grid(0.2, 0.05))
        traces = []
        for width in (1, 4, 8):
            res = optimize_policy(opt_model, policy_family(opt_model, "constant"),
                                  opt_config, objective="fv", method="cross-entropy",
                                  budget=16, threads=width)
            traces.append(res.trace_values.tobytes() + res.trace_params.tobytes())
        optimizer_equal = traces[0] == traces[1] == traces[2]

        self._emit(CriterionResult(
            "C11", "threaded code paths are bit-identical across widths",
            kernel_equal and optimizer_equal,
            {"kernel_equal": kernel_equal, "optimizer_equal": optimizer_equal,
             "widths": [1, 4, 8]}))


def run_verify(out_dir, log=None) -> dict:
    """Run every criterion, write artifacts, and return the report dict.

    The report never contains wall-clock times or the thread count, so
    reports from runs that differ only in scheduling are byte-identical;
    timings live in the run manifest instead (see the CLI).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    verifier = Verifier(out_dir=out, log=log)
    verifier.c01_c02_survival_and_qsd()
    verifier.c03_c04_reinsertion_marginals()
    verifier.c05_renewal()
    verifier.c06_fixed_point()
    verifier.c07_mimic()
    verifier.c08_reward_equivalence()
    verifier.c09_survival_floor()
    verifier.c10_boundary_start()
    verifier.c11_determinism_probe()
    report = {
        "seed": VERIFY_SEED,
        "criteria": [r.to_dict() for r in verifier.results],
        "all_passed": all(r.passed for r in verifier.results),
    }
    write_json(out / "verify_report.json", report)
    report["_manifest_extra"] = verifier.manifest_extra
    return report
