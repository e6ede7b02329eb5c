"""Every artifact pinned by its SHA-256 digest.

artifact_digests.json holds the digest of every file `condiff verify`
writes except manifest.json, and of every file of small-N runs of the
other commands on configs/default.json, together with the platform that
made them.  The test recomputes them and names each file whose bytes
changed.  Floating-point results may round differently on another
Python, NumPy or SciPy version, machine or set of SIMD kernels, so
there the test skips and says which of these differ.

A change that alters numbers on purpose rewrites the file with

    PYTHONPATH=src python tests/test_artifact_digests.py

which first prints each key it changes, adds or drops; a change names
each of those files and the reason in its description.
"""
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from numpy._core._multiarray_umath import __cpu_features__

from condiff import cli

DIGESTS = Path(__file__).with_name("artifact_digests.json")
DEFAULT_CONFIG = Path(__file__).parent.parent / "configs" / "default.json"

# Small enough that every run takes about a second.
SMALL = ["sim.n_particles=400", "sim.dt=0.005", "sim.grid.step=0.05", "sim.seed=77"]
UNCOUPLED = "model.drift.mf_gain=0"
RUNS = {
    "simulate": ("simulate", [UNCOUPLED, "sim.store_paths=true"]),
    "picard": ("picard", []),
    "picard_uncoupled": ("picard", [UNCOUPLED]),
    "fv_meanfield": ("fv", ["fv.variant=meanfield"]),
    "fv_finite": ("fv", ["fv.variant=finite"]),
    "renewal": ("renewal", [UNCOUPLED, "renewal.n_paths=200", "renewal.dt_r=0.1"]),
    "mimic": ("mimic", ["mimic.time_bins=4", "mimic.space_bins=8"]),
    "optimize": ("optimize", ["optimize.budget=16"]),
    "optimize_fv": ("optimize", [UNCOUPLED, "optimize.objective=fv", "optimize.budget=6"]),
}


def platform_record() -> dict:
    """What decides the rounding of a run, beyond condiff's own code."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "simd": sorted(k for k, on in __cpu_features__.items() if on)}


def tree_digests(root: Path, prefix: str) -> dict:
    """prefix/<relative path> -> SHA-256 of each file under root but the manifest."""
    return {f"{prefix}/{p.relative_to(root).as_posix()}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def run_digests(tmp: Path) -> dict:
    """Digests of the small-N runs of RUNS, each written under tmp/<name>."""
    digests = {}
    for name, (cmd, overrides) in RUNS.items():
        out = tmp / name
        argv = [cmd, "--config", str(DEFAULT_CONFIG), "--out", str(out)]
        for item in SMALL + overrides:
            argv += ["--override", item]
        assert cli.main(argv) == 0, f"{name} failed"
        digests.update(tree_digests(out, name))
    return digests


def changes(pinned: dict, digests: dict) -> list[str]:
    """One line for each key whose digest differs from, or is missing in, either."""
    return [f"{key}: pinned {pinned.get(key)}, now {digests.get(key)}"
            for key in sorted(pinned.keys() | digests.keys())
            if pinned.get(key) != digests.get(key)]


def test_artifacts_match_pinned_digests(verify_run, tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    here = platform_record()
    differ = sorted(k for k in pinned["platform"].keys() | here.keys()
                    if pinned["platform"].get(k) != here.get(k))
    if differ:
        pytest.skip("artifact digests were made on another platform; "
                    + "; ".join(f"{k}: pinned {pinned['platform'].get(k)!r}, "
                                f"here {here.get(k)!r}" for k in differ))
    out, rc = verify_run
    assert rc == 0
    digests = {**tree_digests(out, "verify"), **run_digests(tmp_path)}
    changed = changes(pinned["digests"], digests)
    assert not changed, "artifacts differ from their pinned digests:\n" + "\n".join(changed)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        verify_out = Path(tmp) / "verify"
        if cli.main(["verify", "--out", str(verify_out)]) != 0:
            sys.exit("verify failed; digests not written")
        digests = {**tree_digests(verify_out, "verify"), **run_digests(Path(tmp))}
    pinned = json.loads(DIGESTS.read_text())["digests"] if DIGESTS.exists() else {}
    for line in changes(pinned, digests):
        print(line)
    DIGESTS.write_text(json.dumps({"platform": platform_record(), "digests": digests},
                                  indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
