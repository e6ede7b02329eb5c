"""Command-line interface.

Seven subcommands map onto the library's solvers: simulate (one killed
ensemble), picard (conditional-law fixed point), fv (reinsertion
dynamics), renewal (restart kernel plus the renewal equation), mimic
(open-loop to feedback comparison), optimize (policy search), and
verify (the built-in quantitative check suite).

Every run writes its artifacts plus a manifest.json holding the
resolved configuration, its hash, the seed, package versions, and the
wall-clock runtime.  A manifest can be passed back through --config to
reproduce the run; all CSV artifacts then come out byte-identical.

Exit codes: 0 success, 2 configuration error, 3 model runtime error
(survivor depletion, extinction, reinsertion blowup, contraction
violation, numerical failure), 4 verification failure.
"""
from __future__ import annotations

import argparse
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import (_building, _lookup, apply_overrides, build_model, build_open_control,
                     build_policy, build_sim_config, config_hash, load_config, read)
from .errors import ConfigError, ModelRuntimeError
from .fleming_viot import simulate_fv_finite, simulate_fv_meanfield
from .io import write_csv, write_json
from .killed_sim import exit_cdf, simulate_killed
from .mimic import mimic_compare, regression_lattice
from .picard import solve_fixed_point
from .renewal import (estimate_restart_kernel, log_survival_check, restart_times,
                      volterra_solve)
from .reward_opt import optimize_policy, policy_family
from .verify import VERIFY_SEED, run_verify


def _control_from_config(cfg, model):
    """The policy section wins when both control sections are present."""
    if _lookup(cfg, "policy") is not None:
        return build_policy(cfg, model)
    if _lookup(cfg, "open_control") is not None:
        return build_open_control(cfg, model)
    raise ConfigError("missing required field 'policy' (or 'open_control')")


def _write_survival_csv(out: Path, ens) -> None:
    se = np.sqrt(ens.survival * (1.0 - ens.survival) / ens.n)
    write_csv(out / "survival.csv", ["time", "survival", "survival_se"],
              [(ens.times[m], ens.survival[m], se[m])
               for m in range(ens.times.shape[0])])


class _FlowRows:
    """The rows of flow.csv, formatted a node at a time as the writer reads them.

    Sized, so a caller that counts rows (the benchmark's tracer) still can.
    A node's alive rows go through one %-template, a thousand at a time:
    '%.17g' % v is f"{v:.17g}" and '%d' % i is str(i), io's formats.
    """

    def __init__(self, ens):
        self.ens = ens

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(self.ens.alive_at(m)))
                   for m in range(self.ens.times.shape[0]))

    def lines(self):
        ens = self.ens
        d = ens.snapshots.shape[-1]
        for m in range(ens.times.shape[0]):
            idx = np.flatnonzero(ens.alive_at(m))
            template = f"{float(ens.times[m]):.17g},%d" + ",%.17g" * d + "\n"
            for lo in range(0, idx.shape[0], 1000):
                part = idx[lo:lo + 1000]
                columns = ens.snapshots[m, part].T.tolist()
                yield "".join(map(template.__mod__, zip(part.tolist(), *columns)))


def _write_flow_csv(out: Path, ens) -> None:
    d = ens.snapshots.shape[2]
    header = ["time", "particle"] + [f"x{k + 1}" for k in range(d)]
    write_csv(out / "flow.csv", header, _FlowRows(ens))


def _write_paths_bin(out: Path, ens) -> None:
    # Layout: n_particles x n_nodes x dim doubles, particle-major,
    # little-endian; alive and exited paths alike (exit times live in
    # survival.csv, not here).
    arr = np.ascontiguousarray(ens.snapshots.transpose(1, 0, 2)).astype("<f8")
    (out / "paths.bin").write_bytes(arr.tobytes())


def _cmd_simulate(cfg, model, sim, out):
    if model.drift.mf_gain != 0.0:
        raise ConfigError(
            "invalid 'model.drift.mf_gain': simulate runs with no "
            "conditional-mean input; use the picard command for coupled "
            "models or override model.drift.mf_gain=0")
    control = _control_from_config(cfg, model)
    store_paths = read(cfg, "sim.store_paths")
    ens = simulate_killed(model, control, None, sim)
    _write_survival_csv(out, ens)
    _write_flow_csv(out, ens)
    if store_paths:
        _write_paths_bin(out, ens)
    return {"survival_end": float(ens.survival[-1])}


def _cmd_picard(cfg, model, sim, out):
    control = _control_from_config(cfg, model)
    tol, max_iter = read(cfg, "picard.tol"), read(cfg, "picard.max_iter")
    fp = solve_fixed_point(model, control, sim, tol=tol, max_iter=max_iter)
    write_csv(out / "iterations.csv", ["iter", "distance"],
              [(k + 1, d) for k, d in enumerate(fp.distance_trace)])
    _write_flow_csv(out, fp.ensemble)
    return {"converged": fp.converged, "iterations": fp.iterations,
            "final_distance": float(fp.distance_trace[-1])}


def _require_grid_from_zero(sim, command: str):
    if sim.grid[0] != 0.0:
        raise ConfigError(f"invalid 'sim.grid': {command} needs a grid starting at 0")


def _cmd_fv(cfg, model, sim, out):
    _require_grid_from_zero(sim, "fv")
    policy = build_policy(cfg, model)
    variant = read(cfg, "fv.variant")
    cap = read(cfg, "fv.reinsertion_cap")
    if variant == "finite" and sim.n_particles < 2:
        raise ConfigError("invalid 'sim.n_particles': the finite 'fv.variant' needs "
                          f"at least two particles, got {sim.n_particles}")
    if variant == "meanfield":
        tol, max_iter = read(cfg, "picard.tol"), read(cfg, "picard.max_iter")
        fp = solve_fixed_point(model, policy, sim, tol=tol, max_iter=max_iter)
        fv = simulate_fv_meanfield(model, policy, fp.flow, sim,
                                   reinsertion_cap=cap)
    else:
        fv = simulate_fv_finite(model, policy, sim, reinsertion_cap=cap)
    d = fv.snapshots.shape[2]
    names = fv.source_names()
    write_csv(out / "events.csv",
              ["time", "particle"] + [f"x_new{k + 1}" for k in range(d)] + ["source"],
              [(fv.event_times[j], int(fv.event_particles[j]),
                *fv.event_positions[j], names[j])
               for j in range(fv.event_times.shape[0])])
    write_csv(out / "f_curve.csv", ["time", "F", "F_se"],
              [(fv.times[m], fv.f_curve[m], fv.f_se[m])
               for m in range(fv.times.shape[0])])
    return {"variant": variant, "f_end": float(fv.f_curve[-1]),
            "events": int(fv.event_times.shape[0])}


def _cmd_renewal(cfg, model, sim, out):
    _require_grid_from_zero(sim, "renewal")
    policy = build_policy(cfg, model)
    # Restart columns start on output-grid nodes, so dt_r defaults to the grid step.
    dt_r = read(cfg, "renewal.dt_r")
    if dt_r is None:
        dt_r = float(sim.grid[1] - sim.grid[0])
    with _building("renewal.dt_r"):
        restart_times(sim.grid, dt_r, sim.dt)
    n_paths = read(cfg, "renewal.n_paths")
    tol, max_iter = read(cfg, "picard.tol"), read(cfg, "picard.max_iter")
    fp = solve_fixed_point(model, policy, sim, tol=tol, max_iter=max_iter)
    kernel = estimate_restart_kernel(model, policy, fp.flow, sim, dt_r, n_paths)
    grid_r = kernel.u_grid
    cdf1 = exit_cdf(fp.ensemble, grid_r)
    f = volterra_solve(cdf1, kernel, grid_r)
    check = log_survival_check(grid_r, f, fp.ensemble.survival_at(grid_r))
    write_csv(out / "kernel.csv", ["s", "u", "K", "K_se"], kernel.rows())
    write_csv(out / "f_volterra.csv",
              ["time", "F", "residual_vs_log_survival"],
              [(grid_r[m], f[m], check.residuals[m])
               for m in range(grid_r.shape[0])])
    return {"max_residual": check.max_residual,
            "p_hat_horizon": kernel.phat(float(grid_r[-1])),
            "isotonic_correction": kernel.isotonic_correction}


def _cmd_mimic(cfg, model, sim, out):
    open_control = build_open_control(cfg, model)
    tol, max_iter = read(cfg, "picard.tol"), read(cfg, "picard.max_iter")
    time_bins, space_bins = read(cfg, "mimic.time_bins"), read(cfg, "mimic.space_bins")
    with _building("mimic.time_bins"):
        regression_lattice(model, sim.grid, time_bins, space_bins)
    rep = mimic_compare(model, open_control, sim, time_bins=time_bins,
                        space_bins=space_bins, tol=tol, max_iter=max_iter)
    policy, counts = rep.policy, rep.counts
    d = len(policy.space_edges)
    d_a = policy.values.shape[-1]
    header = (["t_bin"] + [f"x_bin{k + 1}" for k in range(d)]
              + ([f"value{j + 1}" for j in range(d_a)] if d_a > 1 else ["value"])
              + ["count"])
    rows = [(*idx, *policy.values[idx], int(counts[idx]))
            for idx in np.ndindex(counts.shape)]
    write_csv(out / "policy_grid.csv", header, rows)
    write_csv(out / "compare.csv", ["J_open", "J_closed", "delta", "se"],
              [(rep.j_open.total, rep.j_closed.total, rep.delta, rep.delta_se)])
    return rep.to_dict()


def _cmd_optimize(cfg, model, sim, out):
    kind = read(cfg, "optimize.family")
    method = read(cfg, "optimize.method")
    time_bins = read(cfg, "optimize.time_bins")
    space_bins = read(cfg, "optimize.space_bins")
    with _building("optimize.time_bins and optimize.space_bins"):
        family = policy_family(model, kind, time_bins=time_bins, space_bins=space_bins)
    res = optimize_policy(
        model, family, sim,
        objective=read(cfg, "optimize.objective"),
        budget=read(cfg, "optimize.budget"),
        picard_tol=read(cfg, "picard.tol"), picard_max_iter=read(cfg, "picard.max_iter"),
        reinsertion_cap=read(cfg, "fv.reinsertion_cap"))
    k = res.trace_params.shape[1]
    write_csv(out / "trace.csv",
              ["eval_id"] + [f"p{j + 1}" for j in range(k)] + ["J", "J_se"],
              [(e, *res.trace_params[e], res.trace_values[e], res.trace_ses[e])
               for e in range(res.n_evals)])
    if res.best_value == -np.inf:
        raise ModelRuntimeError(
            f"none of the {res.n_evals} candidates scored: each one depleted its "
            "survivors or passed fv.reinsertion_cap (see trace.csv)")
    write_json(out / "best.json", {
        "best_params": res.best_params.tolist(),
        "best_value": res.best_value,
        "n_evals": res.n_evals,
        "method": method,
        "seed": res.seed,
        "metadata": res.metadata,
    })
    return {"best_value": res.best_value, "n_evals": res.n_evals}


_COMMANDS = {
    "simulate": _cmd_simulate,
    "picard": _cmd_picard,
    "fv": _cmd_fv,
    "renewal": _cmd_renewal,
    "mimic": _cmd_mimic,
    "optimize": _cmd_optimize,
}


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "condiff": __version__}


def _write_manifest(out: Path, command: str, cfg, seed: int, runtime: float,
                    extra: dict, threads: int | None = None) -> None:
    """verify takes no --threads, so its manifest records none."""
    write_json(out / "manifest.json", {
        "command": command,
        "config": cfg,
        "config_hash": None if cfg is None else config_hash(cfg),
        "seed": seed,
        **({} if threads is None else {"threads": threads}),
        "versions": _versions(),
        "runtime_seconds": runtime,
        "result": extra,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="condiff",
        description="Particle solvers for controlled conditioned diffusions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="JSON config (or a manifest.json from a previous run)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="recorded in the manifest; no command runs threads")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="dot-path config override")
    pv = sub.add_parser("verify")
    pv.add_argument("--out", required=True, help="output directory")

    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        if args.command == "verify":
            report = run_verify(out, log=print)
            extra = report.pop("_manifest_extra", {})
            _write_manifest(out, "verify", None, VERIFY_SEED, time.perf_counter() - start,
                            {**extra, "all_passed": report["all_passed"]})
            if not report["all_passed"]:
                print("verification failed", file=sys.stderr)
                return 4
            return 0
        cfg = apply_overrides(load_config(args.config), args.override)
        model = build_model(cfg)
        sim = build_sim_config(cfg, model)
        extra = _COMMANDS[args.command](cfg, model, sim, out)
        _write_manifest(out, args.command, cfg, sim.seed, time.perf_counter() - start,
                        extra, threads=args.threads)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ModelRuntimeError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
