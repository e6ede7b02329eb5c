"""condiff's benchmark: run one workload under one seed and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--threads T]

Run from the root of a source checkout; the program is imported from
`src/`.  The run repeats whole rounds of the workload, each in a fresh
worker process, for about S seconds (at least one round).  Extra
set-up-only workers make `setup_s` a median of at least five samples.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (`wall_s`, `setup_s`, `particle_steps_per_s`,
`peak_rss_mb`), each the median over rounds.  With --trace 1 rounds
alternate untraced and traced, and the object carries every per-layer
metric (medians over the traced rounds) plus `trace.overhead_s`.  Both
report operations attempted and failed and whether every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("survival_large", "fv_equivalence", "small_ensembles")
DEADLINE_S = 170.0        # every run ends within 180 s
MIN_SETUP_SAMPLES = 5

UNITS = {"wall_s": "s", "setup_s": "s", "particle_steps_per_s": "1/s", "peak_rss_mb": "MB"}


class Runner:
    def __init__(self, args, out_root: Path):
        self.args = args
        self.out_root = out_root
        self.started = time.monotonic()
        self.count = 0

    def worker(self, trace: bool, setup_only: bool = False) -> dict:
        self.count += 1
        out = self.out_root / f"round-{self.count}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--trace", str(int(trace)), "--out", str(out)]
        if self.args.threads is not None:
            cmd += ["--threads", str(self.args.threads)]
        if setup_only:
            cmd.append("--setup-only")
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RuntimeError("the run's deadline passed before a round could start")
        spawned_at = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--threads", type=int, default=None,
                        help="override the workload's thread count")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "condiff" / "__init__.py").is_file():
        print(f"no condiff sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker
    # and the finally clause below removes its outputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out_root = HERE / "out" / f"{args.workload}-{os.getpid()}"
    runner = Runner(args, out_root)
    rounds: list[dict] = []
    traced: list[dict] = []
    try:
        # Rounds start while one more is expected to fit in --seconds.
        # Traced runs alternate untraced and traced rounds and end on a pair.
        while True:
            for trace in ((False, True) if args.trace else (False,)):
                t0 = time.monotonic()
                result = runner.worker(trace)
                result["round_s"] = time.monotonic() - t0
                (traced if trace else rounds).append(result)
                print(f"round {len(rounds) + len(traced)}: trace={int(trace)} "
                      f"wall_s={result['wall_s']:.3f} setup_s={result['setup_s']:.3f} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
            per_pass = sum(r["round_s"] for r in rounds + traced) / len(rounds)
            if time.monotonic() - runner.started + per_pass > args.seconds:
                break
        setups = [r["setup_s"] for r in rounds + traced]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(runner.worker(False, setup_only=True)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            (HERE / "out").rmdir()
        except OSError:
            pass

    everything = rounds + traced
    for r in everything:
        for c in r["checks"]:
            if not c["passed"]:
                print(f"check failed: {c['op']}/{c['name']}: {c['detail']}", flush=True)
        for op, err in r["errors"].items():
            print(f"operation failed: {op}: {err}", flush=True)

    if args.trace:
        names = traced[0]["layers"].keys()
        metrics = {n: median(r["layers"][n] for r in traced) for n in names}
        metrics["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                                       - median(r["wall_s"] for r in rounds))
        values = {n: {"value": metrics[n], "unit": unit} for n, unit in LAYER_UNITS.items()}
    else:
        metrics = {
            "wall_s": median(r["wall_s"] for r in rounds),
            "setup_s": median(setups),
            "particle_steps_per_s": median(r["particle_steps"] / r["wall_s"] for r in rounds),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
        }
        values = {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in everything),
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
