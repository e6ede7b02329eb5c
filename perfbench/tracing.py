"""Spans and counts recorded around condiff's public functions, from outside.

The program is left untouched: `install` replaces every module binding of
a traced function (for example `simulate_killed` as imported by name into
`picard`, `renewal`, `mimic`, `cli` and `verify`) with a wrapper that
records a span.  Spans are kept in memory as small lists and turned into
per-layer metrics when the round ends.

Two modes exist.  "count" wraps only the two simulator entry points and
reads no clock: it yields the particle-step count an untraced round needs
for `particle_steps_per_s`.  "trace" wraps every function in `TRACED` and
records name, start, end, parent and task for each call.

Parent tracking is per thread.  `parallel.indexed_map` runs tasks on a
thread pool, so its wrapper times each task and re-roots the worker
thread's stack under the map's span; every span inside a task carries
that task's identifier.
"""
from __future__ import annotations

import functools
import itertools
import os
import resource
import sys
import threading
from time import perf_counter

import numpy as np

# Span record layout (a list, to keep the wrapper cheap).
NAME, PARENT, TASK, START, END, ATTRS, SID = range(7)


def _steps(config) -> int:
    return int(config.node_steps()[-1])


def _sim_config(args, kwargs, index):
    return kwargs["config"] if "config" in kwargs else args[index]


def _killed_attrs(args, kwargs, out) -> dict:
    config = _sim_config(args, kwargs, 3)
    steps = _steps(config)
    n = int(config.n_particles)
    t0 = float(config.grid[0])
    # A particle is advanced while alive in every step that starts before
    # its exit time; exit stamps are t + dt (node) or t + dt/2 (bridge).
    alive_steps = np.minimum(np.ceil((out.exit_times - t0) / config.dt - 1e-6), steps)
    return {"steps": steps, "particle_steps": n * steps,
            "alive_steps": float(alive_steps.sum())}


def _fv_attrs(index):
    def attrs(args, kwargs, out) -> dict:
        config = _sim_config(args, kwargs, index)
        steps = _steps(config)
        return {"steps": steps, "particle_steps": int(config.n_particles) * steps,
                "reinsertions": int(out.event_times.shape[0])}
    return attrs


def _rng_attrs(args, kwargs, out) -> dict:
    shape = kwargs["shape"] if "shape" in kwargs else args[3]
    return {"draws": int(np.prod(shape))}


def _bridge_attrs(args, kwargs, out) -> dict:
    p = np.asarray(out)
    return {"points": int(p.size), "zeros": int(np.count_nonzero(p == 0.0))}


def _csv_attrs(args, kwargs, out) -> dict:
    path = kwargs["path"] if "path" in kwargs else args[0]
    rows = kwargs["rows"] if "rows" in kwargs else args[2]
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


def _kernel_attrs(args, kwargs, out) -> dict:
    return {"columns": int(out.s_grid.shape[0])}


# (module, qualified attribute, span name, attribute hook)
TRACED = [
    ("condiff.rng", "normals", "rng.normals", _rng_attrs),
    ("condiff.rng", "uniforms", "rng.uniforms", _rng_attrs),
    ("condiff.rng", "generator", "rng.generator", None),
    ("condiff.geometry", "Domain.bridge_exit_probability", "geometry.bridge", _bridge_attrs),
    ("condiff.geometry", "Domain.contains_open", "geometry.contains", None),
    ("condiff.model", "drift_given_mean", "model.drift", None),
    ("condiff.model", "ConstantPolicy.values_at", "model.control", None),
    ("condiff.model", "LinearPolicy.values_at", "model.control", None),
    ("condiff.model", "GridPolicy.values_at", "model.control", None),
    ("condiff.killed_sim", "simulate_killed", "killed_sim.simulate_killed", _killed_attrs),
    ("condiff.killed_sim", "conditional_flow", "killed_sim.conditional_flow", None),
    ("condiff.picard", "solve_fixed_point", "picard.solve_fixed_point", None),
    ("condiff.picard", "flow_update", "picard.flow_update", None),
    ("condiff.measures", "flow_distance", "measures.flow_distance", None),
    ("condiff.measures", "w1_distance_1d", "measures.w1", None),
    ("condiff.measures", "sliced_w1", "measures.w1", None),
    ("condiff.fleming_viot", "simulate_fv_meanfield", "fleming_viot.simulate", _fv_attrs(3)),
    ("condiff.fleming_viot", "simulate_fv_finite", "fleming_viot.simulate", _fv_attrs(2)),
    ("condiff.renewal", "estimate_restart_kernel", "renewal.kernel", _kernel_attrs),
    ("condiff.renewal", "volterra_solve", "renewal.volterra", None),
    ("condiff.reward_opt", "eval_reward_conditional", "reward_opt.eval", None),
    ("condiff.reward_opt", "eval_reward_fv", "reward_opt.eval", None),
    ("condiff.reward_opt", "optimize_policy", "reward_opt.optimize", None),
    ("condiff.parallel", "indexed_map", "parallel.map", None),
    ("condiff.io", "write_csv", "io.write_csv", _csv_attrs),
]

# The simulator entry points, hooked in both modes for the particle-step count.
COUNTED = {"killed_sim.simulate_killed", "fleming_viot.simulate"}


class Tracer:
    """In-memory span store with per-thread parent stacks."""

    def __init__(self, mode: str):
        if mode not in ("count", "trace"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.spans: list[list] = []
        self.particle_steps = 0
        self.rss_at_first_write_kb = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._tasks = itertools.count(1)
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, new_task: bool = False) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        task = next(self._tasks) if new_task or parent is None else parent[TASK]
        rec = [name, None if parent is None else parent[SID], task, perf_counter(),
               0.0, None, next(self._ids)]
        stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack().pop()
        self.spans.append(rec)

    def _add_steps(self, attrs: dict) -> None:
        # Simulators also run on pool threads, so the sum needs the lock.
        with self._lock:
            self.particle_steps += attrs["particle_steps"]

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, hook):
        if self.mode == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._add_steps(hook(args, kwargs, out))
                return out
            return counted

        if name == "parallel.map":
            return self._wrap_map(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "io.write_csv" and self.rss_at_first_write_kb is None:
                self.rss_at_first_write_kb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if hook is not None:
                rec[ATTRS] = hook(args, kwargs, out)
                if name in COUNTED:
                    self._add_steps(rec[ATTRS])
            return out
        return traced

    def _wrap_map(self, fn):
        @functools.wraps(fn)
        def traced_map(task_fn, items, threads=1):
            rec = self.open("parallel.map")

            def timed(item):
                stack = self._stack()
                saved = list(stack)
                stack[:] = [rec]
                task = self.open("parallel.task", new_task=True)
                try:
                    return task_fn(item)
                finally:
                    self.close(task)
                    stack[:] = saved

            try:
                return fn(timed, items, threads=threads)
            finally:
                self.close(rec)
        return traced_map

    def install(self) -> None:
        """Wrap every module binding of each traced function."""
        for module_name, attr, name, hook in TRACED:
            if self.mode == "count" and name not in COUNTED:
                continue
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(original, name, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "condiff" and not mod_name.startswith("condiff."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()


# -- per-layer metrics ------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> dict[int, float]:
    """Exclusive wall time per span.

    At every instant the elapsed time goes to the innermost spans that are
    running (spans with no running child).  When pool tasks overlap, the
    instant is split evenly between their innermost spans, so the self
    times of all spans under the root add up to the root's duration.
    """
    by_id = {rec[SID]: rec for rec in spans}
    depth: dict[int, int] = {}
    events = []
    for rec in sorted(spans, key=lambda r: r[SID]):  # parents open first
        d = depth[rec[SID]] = depth.get(rec[PARENT], -1) + 1
        events.append((rec[START], 1, d, rec[SID]))
        events.append((rec[END], 0, -d, rec[SID]))
    events.sort()
    own = {sid: 0.0 for sid in by_id}
    running_children = {sid: 0 for sid in by_id}
    leaves: set[int] = set()
    last = None
    for t, kind, _, sid in events:
        if last is not None and leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t if last is None else max(last, t)
        parent = by_id[sid][PARENT]
        if kind == 1:
            leaves.add(sid)
            if parent is not None:
                running_children[parent] += 1
                leaves.discard(parent)
        else:
            leaves.discard(sid)
            if parent is not None:
                running_children[parent] -= 1
                if running_children[parent] == 0:
                    leaves.add(parent)
    return own


def _under(spans_by_id, rec, name: str) -> bool:
    sid = rec[PARENT]
    while sid is not None:
        parent = spans_by_id[sid]
        if parent[NAME] == name:
            return True
        sid = parent[PARENT]
    return False


def layer_metrics(spans: list[list], wall_s: float,
                  rss_before_write_kb) -> dict[str, float]:
    """Every per-layer metric of one traced round, from its spans."""
    own = self_times(spans)
    by_id = {rec[SID]: rec for rec in spans}
    dur: dict[str, list[float]] = {}
    attrs: dict[str, dict[str, float]] = {}
    selfs: dict[str, float] = {}
    for rec in spans:
        name = rec[NAME]
        dur.setdefault(name, []).append(rec[END] - rec[START])
        if rec[ATTRS]:
            bucket = attrs.setdefault(name, {})
            for key, value in rec[ATTRS].items():
                bucket[key] = bucket.get(key, 0.0) + value
        layer = "bench" if name == "round" else layer_of(name)
        selfs[layer] = selfs.get(layer, 0.0) + own[rec[SID]]

    def busy(*names):
        return float(sum(sum(dur.get(n, ())) for n in names))

    def calls(*names):
        return sum(len(dur.get(n, ())) for n in names)

    def attr(name, key):
        return float(attrs.get(name, {}).get(key, 0.0))

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    rng_calls = calls("rng.normals", "rng.uniforms", "rng.generator")
    rng_busy = busy("rng.normals", "rng.uniforms", "rng.generator")
    draws = attr("rng.normals", "draws") + attr("rng.uniforms", "draws")
    bridge_calls = calls("geometry.bridge")
    bridge_busy = busy("geometry.bridge")
    points = attr("geometry.bridge", "points")
    ks = "killed_sim.simulate_killed"
    k_busy = busy(ks)
    k_steps = attr(ks, "steps")
    k_ps = attr(ks, "particle_steps")
    fv = "fleming_viot.simulate"
    sweeps = calls("picard.flow_update")
    tasks = [rec for rec in spans if rec[NAME] == "parallel.task"]
    columns = [rec[END] - rec[START] for rec in tasks if _under(by_id, rec, "renewal.kernel")]
    candidates = [rec[END] - rec[START] for rec in tasks
                  if _under(by_id, rec, "reward_opt.optimize")]
    map_s = busy("parallel.map")
    task_s = float(sum(rec[END] - rec[START] for rec in tasks))
    rows_total = attr("io.write_csv", "rows")
    io_busy = busy("io.write_csv")

    m = {
        "rng.calls": rng_calls,
        "rng.draws": draws,
        "rng.busy_s": rng_busy,
        "rng.us_per_call": per(rng_busy, rng_calls, 1e6),
        "rng.ns_per_draw": per(rng_busy, draws, 1e9),
        "geometry.bridge.calls": bridge_calls,
        "geometry.bridge.points": points,
        "geometry.bridge.busy_s": bridge_busy,
        "geometry.bridge.us_per_call": per(bridge_busy, bridge_calls, 1e6),
        "geometry.bridge.ns_per_point": per(bridge_busy, points, 1e9),
        "geometry.bridge.zero_fraction": per(attr("geometry.bridge", "zeros"), points),
        "geometry.contains.busy_s": busy("geometry.contains"),
        "model.drift.busy_s": busy("model.drift"),
        "model.control.busy_s": busy("model.control"),
        "killed_sim.runs": calls(ks),
        "killed_sim.particle_steps": k_ps,
        "killed_sim.alive_fraction": per(attr(ks, "alive_steps"), k_ps),
        "killed_sim.us_per_step": per(k_busy, k_steps, 1e6),
        "killed_sim.ns_per_particle_step": per(k_busy, k_ps, 1e9),
        "killed_sim.conditional_flow.busy_s": busy("killed_sim.conditional_flow"),
        "picard.solves": calls("picard.solve_fixed_point"),
        "picard.sweeps": sweeps,
        "picard.sweep_s": per(busy("picard.flow_update"), sweeps),
        "measures.flow_distance.calls": calls("measures.flow_distance"),
        "measures.flow_distance.busy_s": busy("measures.flow_distance"),
        "measures.w1.calls": calls("measures.w1"),
        "fleming_viot.runs": calls(fv),
        "fleming_viot.particle_steps": attr(fv, "particle_steps"),
        "fleming_viot.reinsertions": attr(fv, "reinsertions"),
        "fleming_viot.ns_per_particle_step": per(busy(fv), attr(fv, "particle_steps"), 1e9),
        "renewal.columns": attr("renewal.kernel", "columns"),
        "renewal.kernel_s": busy("renewal.kernel"),
        "renewal.column_s": per(sum(columns), len(columns)),
        "renewal.volterra_s": busy("renewal.volterra"),
        "reward_opt.evals": calls("reward_opt.eval"),
        "reward_opt.eval_s": busy("reward_opt.eval"),
        "reward_opt.candidates": len(candidates),
        "reward_opt.candidate_s": per(sum(candidates), len(candidates)),
        "parallel.tasks": len(tasks),
        "parallel.map_s": map_s,
        "parallel.task_s": task_s,
        "parallel.concurrency": per(task_s, map_s),
        "io.rows": rows_total,
        "io.bytes": attr("io.write_csv", "bytes"),
        "io.busy_s": io_busy,
        "io.us_per_row": per(io_busy, rows_total, 1e6),
        "io.peak_rss_before_mb": (rss_before_write_kb or 0) / 1024.0,
        "trace.wall_s": wall_s,
    }
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return m


# Layers whose self times partition the traced wall time of a round.
SELF_LAYERS = ("bench", "cli", "rng", "geometry", "model", "killed_sim", "picard",
               "measures", "fleming_viot", "renewal", "reward_opt", "parallel", "io")

# Every per-layer metric: (name, unit, better).
LAYER_METRICS = [
    ("rng.calls", "count", "lower"),
    ("rng.draws", "count", "lower"),
    ("rng.busy_s", "s", "lower"),
    ("rng.us_per_call", "us", "lower"),
    ("rng.ns_per_draw", "ns", "lower"),
    ("geometry.bridge.calls", "count", "lower"),
    ("geometry.bridge.points", "count", "lower"),
    ("geometry.bridge.busy_s", "s", "lower"),
    ("geometry.bridge.us_per_call", "us", "lower"),
    ("geometry.bridge.ns_per_point", "ns", "lower"),
    ("geometry.bridge.zero_fraction", "ratio", "lower"),
    ("geometry.contains.busy_s", "s", "lower"),
    ("model.drift.busy_s", "s", "lower"),
    ("model.control.busy_s", "s", "lower"),
    ("killed_sim.runs", "count", "lower"),
    ("killed_sim.particle_steps", "count", "lower"),
    ("killed_sim.alive_fraction", "ratio", "higher"),
    ("killed_sim.us_per_step", "us", "lower"),
    ("killed_sim.ns_per_particle_step", "ns", "lower"),
    ("killed_sim.conditional_flow.busy_s", "s", "lower"),
    ("picard.solves", "count", "lower"),
    ("picard.sweeps", "count", "lower"),
    ("picard.sweep_s", "s", "lower"),
    ("measures.flow_distance.calls", "count", "lower"),
    ("measures.flow_distance.busy_s", "s", "lower"),
    ("measures.w1.calls", "count", "lower"),
    ("fleming_viot.runs", "count", "lower"),
    ("fleming_viot.particle_steps", "count", "lower"),
    ("fleming_viot.reinsertions", "count", "lower"),
    ("fleming_viot.ns_per_particle_step", "ns", "lower"),
    ("renewal.columns", "count", "lower"),
    ("renewal.kernel_s", "s", "lower"),
    ("renewal.column_s", "s", "lower"),
    ("renewal.volterra_s", "s", "lower"),
    ("reward_opt.evals", "count", "lower"),
    ("reward_opt.eval_s", "s", "lower"),
    ("reward_opt.candidates", "count", "lower"),
    ("reward_opt.candidate_s", "s", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.map_s", "s", "lower"),
    ("parallel.task_s", "s", "lower"),
    ("parallel.concurrency", "ratio", "higher"),
    ("io.rows", "count", "lower"),
    ("io.bytes", "bytes", "lower"),
    ("io.busy_s", "s", "lower"),
    ("io.us_per_row", "us", "lower"),
    ("io.peak_rss_before_mb", "MB", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in SELF_LAYERS),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}
