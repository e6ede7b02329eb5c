"""The benchmark's workloads: inputs from a seed, operations, and checks.

A workload is run as one round in a fresh process (see worker.py).  Its
`configs` build every input from the benchmark seed alone; `setup` loads
and builds them the way the program does; `run` performs the operations
in order through `Round.op`; `check` reads the outputs and returns
(operation, Check) pairs.  Sizes are a dict so the tests can run the same
code at a tiny scale.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402  (benchmark-local module)


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit program seed for one input of one benchmark seed."""
    digest = hashlib.sha256(f"{int(seed)}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Workload:
    name = ""
    sizes: dict = {}
    tiny: dict = {}
    default_threads = 1

    def configs(self, seed: int, sizes: dict) -> dict[str, dict]:
        raise NotImplementedError

    def setup(self, rnd) -> None:
        """Load and build every config as the program would."""
        from condiff.config import build_model, build_sim_config, load_config
        for key, path in rnd.config_paths.items():
            cfg = load_config(path)
            model = build_model(cfg)
            rnd.built[key] = (cfg, model, build_sim_config(cfg, model))

    def run(self, rnd) -> None:
        raise NotImplementedError

    def check(self, rnd) -> list:
        raise NotImplementedError


# -- survival_large -----------------------------------------------------------

class SurvivalLarge(Workload):
    """One large driftless ensemble through `condiff simulate` (verify C1/C2)."""

    name = "survival_large"
    sizes = {"n": 25_000, "dt": 1e-3, "step": 0.05}
    tiny = {"n": 2_000, "dt": 1e-2, "step": 0.05}
    x0, lo, hi, sigma, horizon = 0.0, -1.0, 1.0, 1.0, 1.0

    def configs(self, seed, sizes):
        return {"simulate": {
            "model": {
                "domain": {"type": "interval", "lo": self.lo, "hi": self.hi},
                "sigma": [[self.sigma]],
                "drift": {"base": "zero", "mf_gain": 0.0, "control_matrix": [[0.0]]},
                "control_box": {"lo": [0.0], "hi": [0.0]},
                "horizon": self.horizon,
                "initial": {"type": "point", "x": [self.x0]},
            },
            "sim": {"n_particles": sizes["n"], "dt": sizes["dt"],
                    "seed": derive_seed(seed, "survival_large"),
                    "grid": {"step": sizes["step"]}},
            "policy": {"type": "constant", "value": [0.0]},
        }}

    def run(self, rnd):
        rnd.cli("simulate", "simulate")

    def check(self, rnd):
        out = rnd.out_of("simulate")
        n = rnd.sizes["n"]
        surv = _read_csv(out / "survival.csv")
        flow = _read_csv(out / "flow.csv")
        t_end = surv[-1, 0]
        x_end = flow[np.abs(flow[:, 0] - t_end) <= checks.TIME_TOL, 2]
        args = (self.x0, self.lo, self.hi, self.sigma)
        return [("simulate", c) for c in (
            checks.check_survival_series(surv[:, 0], surv[:, 1], n, *args,
                                         at=(0.25, 0.5, 0.75, 1.0)),
            checks.check_second_moment(x_end, t_end, *args),
            checks.check_flow_counts(flow[:, 0], surv[:, 0], surv[:, 1], n),
            checks.check_inside(flow[:, 2], self.lo, self.hi),
        )]


# -- fv_equivalence -----------------------------------------------------------

class FVEquivalence(Workload):
    """Closed loop against Fleming-Viot on a 2-d box (verify C3/C4/C6/C8)."""

    name = "fv_equivalence"
    sizes = {"n": 2_000, "dt": 2e-3, "step": 0.05}
    tiny = {"n": 300, "dt": 1e-2, "step": 0.1}
    cost = 0.5
    # Sweep distances run ~0.05, ~0.007, ~0.002 on every seed tried, so this
    # tolerance ends every solve after two sweeps and the work per round
    # does not depend on the seed.
    picard_tol = 0.025
    lo, hi = (-1.0, -1.0), (1.0, 1.0)

    def configs(self, seed, sizes):
        base = {
            "model": {
                "domain": {"type": "box", "lo": list(self.lo), "hi": list(self.hi)},
                "sigma": [[0.8, 0.0], [0.0, 0.6]],
                "drift": {"base": "zero", "mf_gain": 1.0,
                          "control_matrix": [[1.0, 0.0], [0.0, 1.0]], "clip_bound": 3.0},
                "control_box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
                "horizon": 1.0,
                "reward": {"r_x": 1.0, "phi": "linear", "phi_weights": [1.0, 0.5],
                           "r_m": 0.5, "mean_weights": [1.0, 1.0], "r_a": 0.5,
                           "g_w": 1.0, "terminal_weights": [1.0, -1.0], "g_var": 0.5,
                           "reinsertion_cost": self.cost},
                "initial": {"type": "uniform", "lo": [-0.5, -0.5], "hi": [0.5, 0.5]},
            },
            "sim": {"n_particles": sizes["n"], "dt": sizes["dt"],
                    "seed": derive_seed(seed, "fv_equivalence"),
                    "grid": {"step": sizes["step"]}},
            "policy": {"type": "linear", "theta0": [0.3, -0.2],
                       "theta1": [[-0.5, 0.0], [0.0, -0.5]]},
            "picard": {"tol": self.picard_tol, "max_iter": 10},
        }
        finite = json.loads(json.dumps(base))
        finite["sim"]["seed"] = derive_seed(seed, "fv_equivalence/finite")
        return {"closed_loop": base, "finite": finite}

    def setup(self, rnd):
        super().setup(rnd)
        from condiff.config import build_policy
        cfg, model, _ = rnd.built["closed_loop"]
        rnd.policy = build_policy(cfg, model)

    def run(self, rnd):
        import condiff
        _, model, sim = rnd.built["closed_loop"]
        _, _, sim_finite = rnd.built["finite"]
        policy = rnd.policy
        fp = rnd.op("solve_fixed_point", condiff.solve_fixed_point, model, policy, sim,
                    tol=self.picard_tol, max_iter=10)
        rnd.op("eval_reward_conditional", lambda: condiff.eval_reward_conditional(
            fp.ensemble, fp.flow), needs=("solve_fixed_point",))
        fv = rnd.op("simulate_fv_meanfield", lambda: condiff.simulate_fv_meanfield(
            model, policy, fp.flow, sim), needs=("solve_fixed_point",))
        rnd.op("eval_reward_fv_zero", lambda: condiff.eval_reward_fv(
            fv, fp.flow, reinsertion_cost=0.0), needs=("simulate_fv_meanfield",))
        rnd.op("eval_reward_fv_cost", lambda: condiff.eval_reward_fv(fv, fp.flow),
               needs=("simulate_fv_meanfield",))
        rnd.op("simulate_fv_finite", condiff.simulate_fv_finite, model, policy, sim_finite)

    def check(self, rnd):
        o = rnd.outputs
        fp, fv, fin = o["solve_fixed_point"], o["simulate_fv_meanfield"], o["simulate_fv_finite"]
        n = rnd.sizes["n"]
        ens = fp.ensemble
        times = ens.times
        alive = [ens.exit_times > t + checks.TIME_TOL for t in times]
        s_end = float(np.mean(alive[-1]))
        nodes = [m for m in range(len(times)) if m > 0]
        killed_nodes = [ens.snapshots[m][alive[m]] for m in nodes]
        j_cond, j0, jc = (o["eval_reward_conditional"], o["eval_reward_fv_zero"],
                          o["eval_reward_fv_cost"])
        out = [("solve_fixed_point", checks.check_converged(
            fp.converged, fp.distance_trace, self.picard_tol))]
        out.append(("eval_reward_fv_zero", checks.check_reward_agreement(
            j_cond.total, j_cond.total_se, j0.total, j0.total_se)))
        out.append(("eval_reward_fv_cost", checks.check_cost_linearity(
            jc.total, j0.total, self.cost, len(fv.event_times) / n)))
        for op, trace, label in (("simulate_fv_meanfield", fv, "meanfield"),
                                 ("simulate_fv_finite", fin, "finite")):
            out.append((op, checks.check_event_counts(
                trace.event_particles, trace.final_counts, trace.f_curve[-1], n)))
            out.append((op, checks.check_log_survival(
                len(trace.event_times) / n, s_end, n, n, f"log_survival_{label}")))
            out.append((op, checks.check_marginals(
                [trace.snapshots[m] for m in nodes], killed_nodes, times[nodes],
                f"marginals_match_killed_{label}")))
            out.append((op, checks.check_inside(
                trace.event_positions, self.lo, self.hi, f"reinsertions_inside_{label}")))
        return out


# -- small_ensembles ----------------------------------------------------------

DEFAULT_MODEL = {
    # The coupled interval model of configs/default.json, kept here so the
    # benchmark does not move when that file does.
    "domain": {"type": "interval", "lo": -1.0, "hi": 1.0},
    "sigma": [[1.0]],
    "drift": {"base": "zero", "mf_gain": 0.5, "control_matrix": [[1.0]], "clip_bound": 3.0},
    "control_box": {"lo": [-1.0], "hi": [1.0]},
    "horizon": 1.0,
    "reward": {"r_x": 1.0, "phi": "linear", "phi_weights": [1.0], "r_m": 0.5,
               "mean_weights": [1.0], "r_a": 0.5, "g_w": 1.0, "terminal_weights": [1.0],
               "reinsertion_cost": 1.0},
    "initial": {"type": "uniform", "lo": [-0.5], "hi": [0.5]},
}


class SmallEnsembles(Workload):
    """Restart-kernel columns and optimizer candidates (verify C5/C9/C11)."""

    name = "small_ensembles"
    sizes = {"n": 2_000, "dt": 5e-3, "step": 0.05, "n_paths": 1_000, "dt_r": 0.05,
             "n_opt": 1_000, "dt_opt": 1e-2, "budget": 16}
    tiny = {"n": 400, "dt": 1e-2, "step": 0.1, "n_paths": 300, "dt_r": 0.1,
            "n_opt": 300, "dt_opt": 2e-2, "budget": 16}

    @property
    def default_threads(self):
        return nproc()

    def configs(self, seed, sizes):
        seed = derive_seed(seed, "small_ensembles")
        renewal = {
            "model": DEFAULT_MODEL,
            "sim": {"n_particles": sizes["n"], "dt": sizes["dt"], "seed": seed,
                    "grid": {"step": sizes["step"]}},
            "policy": {"type": "constant", "value": [0.3]},
            # Sweep distances run ~0.02, ~0.003: two sweeps on every seed.
            "picard": {"tol": 0.01, "max_iter": 10},
            # dt_r stays a multiple of the output step: restart times then
            # fall on flow nodes.
            "renewal": {"dt_r": sizes["dt_r"], "n_paths": sizes["n_paths"]},
        }
        optimize = {
            "model": DEFAULT_MODEL,
            "sim": {"n_particles": sizes["n_opt"], "dt": sizes["dt_opt"], "seed": seed,
                    "grid": {"step": sizes["step"]}},
            # Candidates' second sweep distances stay below 0.01 and their
            # first above 0.02: two sweeps each, whatever the seed.
            "picard": {"tol": 0.015, "max_iter": 10},
            "optimize": {"family": "constant", "method": "cross-entropy",
                         "budget": sizes["budget"], "objective": "conditional"},
        }
        return {"renewal": renewal, "optimize": optimize}

    def run(self, rnd):
        import condiff
        rnd.cli("picard", "renewal", out="picard")
        rnd.cli("renewal", "renewal")
        rnd.cli("optimize", "optimize")
        cfg, model, sim = rnd.built["optimize"]
        zero = condiff.ConstantPolicy((0.0,), model.control_set)
        fp = rnd.op("zero_control_fixed_point", condiff.solve_fixed_point, model, zero, sim,
                    tol=cfg["picard"]["tol"], max_iter=cfg["picard"]["max_iter"])
        rnd.op("zero_control_reward", lambda: condiff.eval_reward_conditional(
            fp.ensemble, fp.flow), needs=("zero_control_fixed_point",))

    def check(self, rnd):
        sizes = rnd.sizes
        n, dt_r = sizes["n"], sizes["dt_r"]
        picard_out, renewal_out = rnd.out_of("picard"), rnd.out_of("renewal")
        opt_out = rnd.out_of("optimize")
        picard_result = json.loads((picard_out / "manifest.json").read_text())["result"]
        flow = _read_csv(picard_out / "flow.csv")
        kernel = checks.kernel_matrix(_read_csv(renewal_out / "kernel.csv"), dt_r)
        f_vol = _read_csv(renewal_out / "f_volterra.csv")
        grid_r = f_vol[:, 0]
        survival = np.array([np.count_nonzero(np.abs(flow[:, 0] - t) <= checks.TIME_TOL)
                             for t in grid_r]) / float(n)
        f_dense = checks.volterra_dense(1.0 - survival, kernel)
        best = json.loads((opt_out / "best.json").read_text())
        trace = _read_csv(opt_out / "trace.csv")
        j_zero = rnd.outputs["zero_control_reward"].total
        return [
            ("picard", checks.Check("picard_converged", picard_result["converged"] is True,
                                    f"{picard_result}")),
            ("renewal", checks.check_volterra(f_vol[:, 1], f_dense)),
            ("renewal", checks.check_renewal_log_survival(
                f_vol[:, 1], survival, sizes["n_paths"], "renewal_matches_log_survival")),
            ("renewal", checks.check_renewal_log_survival(
                f_dense, survival, sizes["n_paths"], "resolved_matches_log_survival")),
            ("renewal", checks.check_kernel_entries(kernel)),
            ("optimize", checks.check_n_evals(best["n_evals"], trace.shape[0],
                                              sizes["budget"])),
            ("optimize", checks.check_best_value(best["best_value"], trace[:, -2])),
            ("zero_control_reward", checks.check_beats_zero(best["best_value"], j_zero)),
        ]


WORKLOADS = {w.name: w for w in (SurvivalLarge(), FVEquivalence(), SmallEnsembles())}
