"""One round of one workload, in the process that runs it.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        --threads T --out DIR --spawned-at MONOTONIC [--setup-only]

Set-up (interpreter start, imports of condiff, NumPy and SciPy, writing,
loading and building the configs) runs from the parent's spawn time to the
first solver or CLI call.  The timed part runs from that call to the end
of the last operation.  Checks and trace analysis follow outside it.  The
result is printed as one JSON line.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import workloads
import tracing


class Round:
    """Runs a workload's operations and counts attempts and failures."""

    def __init__(self, workload, seed: int, threads: int, out: Path, sizes: dict):
        self.workload = workload
        self.threads = threads
        self.out = out
        self.sizes = sizes
        self.config_paths: dict[str, Path] = {}
        self.built: dict = {}
        self.outputs: dict = {}
        self.errors: dict[str, str] = {}
        self.attempted = 0
        self.tracer = None
        out.mkdir(parents=True, exist_ok=True)
        for key, cfg in workload.configs(seed, sizes).items():
            path = out / f"{key}.json"
            path.write_text(json.dumps(cfg, indent=1))
            self.config_paths[key] = path

    def op(self, name, fn, *args, needs=(), layer="bench", **kwargs):
        """One operation: it fails if it raises or if an upstream one failed.

        Traced, it is a span named layer.name that starts a new task."""
        self.attempted += 1
        if any(n in self.errors for n in needs):
            self.errors[name] = "not run: an operation it needs failed"
            self.outputs[name] = None
            return None
        rec = None
        if self.tracer is not None and self.tracer.mode == "trace":
            rec = self.tracer.open(f"{layer}.{name}", new_task=True)
        try:
            out = fn(*args, **kwargs)
        except Exception:  # an operation's failure is counted, not fatal
            self.errors[name] = traceback.format_exc(limit=3)
            out = None
        finally:
            if rec is not None:
                self.tracer.close(rec)
        self.outputs[name] = out
        return out

    def cli(self, command: str, config_key: str, out: str | None = None):
        from condiff import cli
        name = out or command
        argv = [command, "--config", str(self.config_paths[config_key]),
                "--out", str(self.out_of(name)), "--threads", str(self.threads)]

        def call():
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"condiff {command} exited with code {code}")
        return self.op(name, call, layer="cli")

    def out_of(self, name: str) -> Path:
        return self.out / name


def run_round(name: str, seed: int, trace: bool, threads: int | None, out: Path,
              spawned_at: float, sizes: dict | None = None,
              setup_only: bool = False) -> dict:
    """Set up, run and check one round; return its measurements."""
    workload = workloads.WORKLOADS[name]
    sizes = dict(workload.sizes if sizes is None else sizes)
    threads = workload.default_threads if threads is None else threads
    rnd = Round(workload, seed, threads, out, sizes)
    import condiff.cli  # noqa: F401  (the CLI imports every solver, NumPy and SciPy)
    workload.setup(rnd)
    tracer = tracing.Tracer("trace" if trace else "count")
    tracer.install()
    try:
        setup_s = time.monotonic() - spawned_at
        if setup_only:
            return {"setup_s": setup_s}
        rnd.tracer = tracer
        root = tracer.open("round") if trace else None
        start = perf_counter()
        workload.run(rnd)
        wall_s = perf_counter() - start
        if root is not None:
            tracer.close(root)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        tracer.uninstall()

    results = []
    if not rnd.errors:
        results = workload.check(rnd)
    failed_ops = set(rnd.errors) | {op for op, c in results if not c.passed}
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "particle_steps": tracer.particle_steps,
        "attempted": rnd.attempted,
        "failed": len(failed_ops),
        "correct": all(c.passed for _, c in results),
        "checks": [{"op": op, **c.to_dict()} for op, c in results],
        "errors": rnd.errors,
    }
    if trace:
        result["layers"] = tracing.layer_metrics(tracer.spans, root[tracing.END] -
                                                 root[tracing.START],
                                                 tracer.rss_at_first_write_kb)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)
    try:
        result = run_round(args.workload, args.seed, bool(args.trace), args.threads, out,
                           args.spawned_at, setup_only=args.setup_only)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
