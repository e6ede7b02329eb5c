"""Property check of the command line on drawn edits of the shipped config.

One to three edits from a fixed table of leaves and values are applied to
configs/default.json, shrunk to 60 particles, dt = 0.01 and an output
step of 0.1.  Under each of the six solver commands the run must succeed
(exit 0), be refused naming a quoted field (exit 2) or fail at run time
(exit 3); it must never raise.  Draws are derandomized, so the module is
deterministic.
"""
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from condiff import cli

DEFAULT_CONFIG = Path(__file__).parent.parent / "configs" / "default.json"
SHRUNK = ["sim.n_particles=60", "sim.dt=0.01", "sim.grid.step=0.1"]
COMMANDS = ("simulate", "picard", "fv", "renewal", "mimic", "optimize")

EDITS = [
    # wrong types and out-of-range values
    ("sim.n_particles", "many"), ("sim.n_particles", 0), ("sim.dt", -0.01), ("sim.dt", 0.03),
    ("sim.seed", 2.5), ("sim.min_survivors", 61), ("sim.min_survivors", 40),
    ("sim.bridge_correction", False), ("sim.grid.step", 0.25), ("sim.grid.step", 0.3),
    ("model.horizon", 0.5), ("model.horizon", -1.0), ("model.sigma", [[0.0]]),
    ("model.sigma", [[0.5]]), ("model.drift.clip_bound", 0.0),
    ("model.drift.control_matrix", [[1.0, 0.0]]), ("model.control_box.lo", [2.0]),
    ("model.reward.r_a", -1.0), ("policy.value", [0.3, 0.1]), ("picard.tol", "tight"),
    ("picard.max_iter", 0), ("picard.max_iter", 1),
    # the other domain and initial-law types
    ("model.domain", {"type": "box", "lo": [-1.0], "hi": [1.0]}),
    ("model.domain", {"type": "ball", "center": [0.0], "radius": 1.0}),
    ("model.domain", {"type": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}),
    ("model.initial", {"type": "point", "x": [0.2]}),
    ("model.initial", {"type": "point", "x": [1.5]}),
    ("model.initial", {"type": "points", "values": [[0.1], [-0.3], [0.4]]}),
    # the other policy and open-loop control types
    ("policy", {"type": "linear", "theta0": [0.1], "theta1": [[-0.5]]}),
    ("policy", {"type": "grid", "time_bins": 2, "space_bins": 3,
                "values": [[0.1, 0.2, 0.3], [0.0, -0.1, 0.2]]}),
    ("open_control", {"type": "piecewise", "t_switch": 0.5, "before": [0.3], "after": [-0.3]}),
    ("open_control", {"type": "noise_peek", "base": [0.3], "peek_time": 0.2}),
    # no coupling, and a strong one
    ("model.drift.mf_gain", 0.0), ("model.drift.mf_gain", 5.0),
    # reinsertion, restart kernel, search and regression
    ("fv.variant", "finite"), ("fv.variant", "both"), ("fv.reinsertion_cap", 0),
    ("fv.reinsertion_cap", 2), ("fv.reinsertion_cap", -1),
    ("renewal.dt_r", 0.1), ("renewal.dt_r", 0.2), ("renewal.dt_r", 0.15), ("renewal.dt_r", 0.0),
    ("optimize.family", "linear"), ("optimize.family", "grid"), ("optimize.family", "spline"),
    ("optimize.objective", "fv"), ("optimize.objective", "mean"),
    ("optimize.time_bins", 1), ("optimize.time_bins", 20), ("optimize.space_bins", 3),
    ("optimize.space_bins", 0),
    ("mimic.time_bins", 1), ("mimic.time_bins", 20), ("mimic.space_bins", 2),
    ("mimic.space_bins", 0),
]
QUOTED_FIELD = re.compile(r"'[a-z_0-9]+(\.[a-z_0-9]+)*'")


@settings(max_examples=24)
@given(st.lists(st.sampled_from(EDITS), min_size=1, max_size=3))
def test_edited_configs_exit_0_2_or_3(edits):
    overrides = [*SHRUNK, *(f"{leaf}={json.dumps(value)}" for leaf, value in edits)]
    failures = []
    for cmd in COMMANDS:
        argv = [cmd, "--config", str(DEFAULT_CONFIG)]
        for item in overrides:
            argv += ["--override", item]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main(argv + ["--out", out])
            except Exception as e:  # any traceback is the failure reported
                failures.append(f"{cmd}: {type(e).__name__}: {e}")
                continue
        if rc not in (0, 2, 3) or (rc == 2 and not QUOTED_FIELD.search(err.getvalue())):
            failures.append(f"{cmd}: exit {rc}: {err.getvalue().strip()}")
    assert not failures, "\n".join(failures)
