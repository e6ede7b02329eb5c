"""End-to-end command tests, run in process against the shipped config."""
import copy
import json
from pathlib import Path

import numpy as np
import pytest

from condiff import cli, mimic
from condiff.config import apply_overrides, load_config
from condiff.io import write_csv
from condiff.killed_sim import KilledEnsemble

DEFAULT_CONFIG = Path(__file__).parent.parent / "configs" / "default.json"

# shrink the shipped config so every command finishes in well under a second
SMALL = ["sim.n_particles=400", "sim.dt=0.005", "sim.grid.step=0.05",
         "sim.seed=77"]


def run(cmd, out, *extra, config=DEFAULT_CONFIG):
    argv = [cmd, "--config", str(config), "--out", str(out)]
    for item in (*SMALL, *extra):
        argv += ["--override", item]
    return cli.main(argv)


def read_manifest(out):
    return json.loads((Path(out) / "manifest.json").read_text())


def test_simulate_artifacts_and_paths_layout(tmp_path):
    rc = run("simulate", tmp_path, "model.drift.mf_gain=0",
             "sim.store_paths=true")
    assert rc == 0
    man = read_manifest(tmp_path)
    assert man["command"] == "simulate"
    assert man["seed"] == 77
    assert len(man["config_hash"]) == 64
    assert "numpy" in man["versions"]
    assert man["runtime_seconds"] >= 0.0
    assert 0.0 < man["result"]["survival_end"] < 1.0

    survival_lines = (tmp_path / "survival.csv").read_text().splitlines()
    n_nodes = len(survival_lines) - 1
    blob = (tmp_path / "paths.bin").read_bytes()
    assert len(blob) == 400 * n_nodes * 8
    paths = np.frombuffer(blob, dtype="<f8").reshape(400, n_nodes, 1)

    # at t=0 every particle is alive, so flow.csv starts with all of them
    flow_lines = (tmp_path / "flow.csv").read_text().splitlines()
    first = [line.split(",") for line in flow_lines[1:401]]
    assert [int(row[1]) for row in first] == list(range(400))
    assert np.array_equal([float(row[2]) for row in first], paths[:, 0, 0])


def test_simulate_rejects_coupled_drift(tmp_path, capsys):
    rc = run("simulate", tmp_path)
    assert rc == 2
    assert "mf_gain" in capsys.readouterr().err


def test_missing_seed_is_named(tmp_path, capsys):
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    del cfg["sim"]["seed"]
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["picard", "--config", str(path), "--out",
                   str(tmp_path / "out")])
    assert rc == 2
    assert "sim.seed" in capsys.readouterr().err


def test_wrong_typed_seed_is_named(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(DEFAULT_CONFIG), "--out",
                   str(tmp_path / "out"), "--override", 'sim.seed="abc"',
                   "--override", "model.drift.mf_gain=0"])
    assert rc == 2
    assert "sim.seed" in capsys.readouterr().err


def test_picard_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("picard", out1) == 0
    assert run("picard", out2) == 0
    for name in ("iterations.csv", "flow.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    man = read_manifest(out1)
    assert man["result"]["converged"] is True


def test_manifest_replay_reproduces_artifacts(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("fv", out1) == 0
    # a manifest doubles as a config: replay it with no overrides
    rc = cli.main(["fv", "--config", str(out1 / "manifest.json"),
                   "--out", str(out2)])
    assert rc == 0
    for name in ("f_curve.csv", "events.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fv_finite_variant_and_validation(tmp_path, capsys):
    assert run("fv", tmp_path / "fin", "fv.variant=finite") == 0
    assert (tmp_path / "fin" / "events.csv").exists()
    assert (tmp_path / "fin" / "f_curve.csv").exists()

    rc = run("fv", tmp_path / "bad", "fv.variant=both")
    assert rc == 2
    assert "fv.variant" in capsys.readouterr().err

    # refused up front, naming the field, not as a traceback or a blowup
    rc = run("fv", tmp_path / "one", "fv.variant=finite", "sim.n_particles=1")
    assert rc == 2
    assert "sim.n_particles" in capsys.readouterr().err
    rc = run("fv", tmp_path / "cap", "fv.reinsertion_cap=-1")
    assert rc == 2
    assert "fv.reinsertion_cap" in capsys.readouterr().err
    # a value of the wrong type is named too
    for field, value in (("fv.reinsertion_cap", '"abc"'), ("picard.tol", '"x"')):
        rc = run("fv", tmp_path / "typed", f"{field}={value}")
        assert rc == 2
        assert field in capsys.readouterr().err


def test_renewal_command(tmp_path, capsys):
    rc = run("renewal", tmp_path, "renewal.n_paths=300", "renewal.dt_r=0.1")
    assert rc == 0
    assert (tmp_path / "kernel.csv").exists()
    assert (tmp_path / "f_volterra.csv").exists()
    man = read_manifest(tmp_path)
    assert man["result"]["max_residual"] < 0.2
    assert man["result"]["p_hat_horizon"] < 1.0

    rc = run("renewal", tmp_path / "late",
             "sim.grid={\"times\": [0.5, 1.0]}")
    assert rc == 2
    assert "grid" in capsys.readouterr().err

    # restart times must be flow nodes, and dt_r defaults to the grid step
    rc = run("renewal", tmp_path / "between", "sim.grid.step=0.1",
             "renewal.dt_r=0.05")
    assert rc == 2
    assert "renewal.dt_r" in capsys.readouterr().err
    rc = run("renewal", tmp_path / "default", "sim.grid.step=0.1",
             "renewal.n_paths=100", "renewal.dt_r=null")
    assert rc == 0
    kernel = np.loadtxt(tmp_path / "default" / "kernel.csv", delimiter=",",
                        skiprows=1)
    assert np.allclose(np.unique(kernel[:, 0]), np.arange(10) * 0.1)


def test_mimic_command(tmp_path):
    rc = run("mimic", tmp_path, "mimic.time_bins=4", "mimic.space_bins=8")
    assert rc == 0
    compare = (tmp_path / "compare.csv").read_text().splitlines()
    assert compare[0] == "J_open,J_closed,delta,se"
    assert len(compare) == 2
    grid_lines = (tmp_path / "policy_grid.csv").read_text().splitlines()
    assert len(grid_lines) == 1 + 4 * 8


def test_mimic_lattice_is_refused_before_any_simulation(tmp_path, capsys, monkeypatch):
    """A time slab of the mimic lattice with no output-grid node is a config
    error, found before any pass runs."""
    def no_pass(*args, **kwargs):
        raise AssertionError("a pass ran")

    monkeypatch.setattr(mimic, "solve_fixed_point", no_pass)
    for grid in ("sim.grid.step=0.25", "sim.grid.times=[0.1, 0.5]"):
        rc = run("mimic", tmp_path, "sim.n_particles=4000", "sim.dt=0.005", grid)
        err = capsys.readouterr().err
        assert rc == 2
        assert "mimic.time_bins" in err and "time slab 1 [0.125, 0.25)" in err


def test_reward_batch_depletion_names_the_batch(tmp_path, capsys):
    """77 of the 200 open-loop particles survive at t = 1, but none of batch 1
    (particles 10-19) does: the failure names that batch, not the run."""
    rc = cli.main(["mimic", "--config", str(DEFAULT_CONFIG), "--out", str(tmp_path),
                   "--override", "sim.n_particles=200", "--override", "sim.dt=0.01",
                   "--override", "sim.grid.step=0.1"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("SurvivorDepletion: survivor count at t=1 fell to 0")
    assert "reward batch 1 of 20 (particles 10-19)" in err
    assert "the run keeps 77 survivors at that node" in err


def test_optimize_command(tmp_path, capsys):
    rc = run("optimize", tmp_path, "optimize.budget=5")
    assert rc == 0
    best = json.loads((tmp_path / "best.json").read_text())
    assert best["method"] == "cross-entropy"
    assert np.isfinite(best["best_value"])
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(trace) == 1 + best["n_evals"]

    # the fv objective is capped by fv.reinsertion_cap, and a negative cap is
    # refused up front, not scored -inf for every candidate
    rc = run("optimize", tmp_path / "cap", "fv.reinsertion_cap=-1",
             "optimize.objective=fv", "sim.n_particles=200", "sim.dt=0.01",
             "optimize.budget=4")
    assert rc == 2
    assert "fv.reinsertion_cap" in capsys.readouterr().err
    # the optimizer has no cost or cap of its own: the model prices reinsertion
    for field in ("optimize.reinsertion_cost=0.5", "optimize.reinsertion_cap=5"):
        rc = run("optimize", tmp_path / "gone", field, "optimize.objective=fv")
        assert rc == 2
        assert f"unknown field '{field.split('=')[0]}'" in capsys.readouterr().err


def test_optimize_with_no_scoring_candidate_fails(tmp_path, capsys):
    """With no reinsertion allowed every candidate of the fv objective fails:
    the command exits 3 with the trace written and no best.json."""
    argv = ["optimize", "--config", str(DEFAULT_CONFIG), "--out", str(tmp_path)]
    for item in ("sim.n_particles=200", "sim.dt=0.01", "sim.grid.step=0.1",
                 "optimize.objective=fv", "fv.reinsertion_cap=0", "optimize.budget=4"):
        argv += ["--override", item]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 3
    assert "none of the 4 candidates scored" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(rows) == 5 and all(row.endswith(",-inf,nan") for row in rows[1:])


@pytest.mark.parametrize("cmd, field, overrides", [
    ("optimize", "optimize.objective", ["optimize.objective=foo"]),
    ("optimize", "optimize.method", ["optimize.method=foo"]),
    ("optimize", "optimize.family", ["optimize.family=foo"]),
    ("optimize", "optimize.budget", ["optimize.budget=0"]),
    ("optimize", "optimize.time_bins", ["optimize.family=grid", "optimize.time_bins=0"]),
    ("optimize", "optimize.space_bins", ["optimize.family=grid", "optimize.space_bins=0"]),
    # the model prices reinsertion: the optimizer's own cost field is gone
    ("optimize", "optimize.reinsertion_cost",
     ["optimize.objective=fv", "optimize.reinsertion_cost=0.5"]),
    *[(cmd, "picard.max_iter", ["picard.max_iter=0"])
      for cmd in ("picard", "fv", "renewal", "mimic", "optimize")],
    ("renewal", "renewal.n_paths", ["renewal.n_paths=0"]),
    ("mimic", "mimic.time_bins", ["mimic.time_bins=0"]),
    ("simulate", "sim.grid", ["model.drift.mf_gain=0", "sim.grid={\"times\": [0, 0.5, 2]}"]),
    ("simulate", "sim.store_paths", ["model.drift.mf_gain=0", 'sim.store_paths="false"']),
    ("simulate", "sim.bridge_correction",
     ["model.drift.mf_gain=0", 'sim.bridge_correction="no"']),
    *[(cmd, "model.initial", ["model.drift.mf_gain=0", "model.initial.lo=[-2]",
                              "model.initial.hi=[2]"])
      for cmd in ("simulate", "fv", "mimic")],
    ("mimic", "open_control", ["model.drift.mf_gain=0", "open_control.direction=[1, 2]"]),
    ("optimize", "optimize.time_bins",
     ["optimize.family=grid", "optimize.time_bins=9", "optimize.space_bins=8"]),
    *[(cmd, "sim.grid.step", ["model.drift.mf_gain=0", "sim.grid.step=0"])
      for cmd in ("simulate", "picard", "fv", "renewal", "mimic", "optimize")],
    ("optimize", "optimize.budget", ["optimize.budget=2.7"]),
    *[(cmd, "model.reward.phi_weights",
       ["model.drift.mf_gain=0", "model.reward.phi_weights=[1, 2]"]) for cmd in ("simulate", "mimic")],
    ("picard", "model.drift", ["model.drift.base=affine"]),
    # vectors and matrices refuse JSON booleans and scalars by the leaf's name
    *[("picard", f"model.reward.{name}", [f"model.reward.{name}={value}"])
      for name in ("phi_weights", "terminal_weights") for value in ("true", "-1", "[true]")],
    *[("picard", "model.control_box.lo", [f"model.control_box.lo={value}"])
      for value in ("true", "-1", "[false]")],
    *[("picard", "model.sigma", [f"model.sigma={value}"])
      for value in ("true", "1", "[1]", "[[true]]")],
    # so do the fields whose objects reshape them, and undeclared keys are refused
    ("picard", "model.domain.hi", ["model.domain.hi=true"]),
    ("picard", "model.initial.hi", ["model.initial.hi=true"]),
    ("picard", "policy.values", ['policy={"type": "grid", "time_bins": 1, "space_bins": 1, '
                                 '"values": [true]}']),
    ("picard", "picard.max_iters", ["picard.max_iters=1"]),
    ("picard", "sim.grid.stepp", ["sim.grid.stepp=0.5"]),
    # a typed section refuses a leaf its type does not read
    ("picard", "model.initial.x", ["model.initial.x=5"]),
    ("picard", "policy.theta0", ["policy.theta0=true"]),
    ("picard", "model.domain.center", ["model.domain.center=[0]"]),
    # an interval takes numbers, not lists, for its bounds
    ("picard", "model.domain.lo", ["model.domain.lo=[-1]"]),
    # a cloud needs points, a linear policy one column per coordinate, and
    # the reinsertion dynamics a grid from 0
    ("simulate", "model.initial.values",
     ["model.drift.mf_gain=0", 'model.initial={"type": "points", "values": []}']),
    ("simulate", "policy.theta1",
     ["model.drift.mf_gain=0",
      'policy={"type": "linear", "theta0": [0.1], "theta1": [[1.0, 2.0]]}']),
    ("fv", "sim.grid", ["sim.grid.times=[0.1, 0.5]"]),
    # cross-entropy is the one search
    ("optimize", "optimize.method", ["optimize.method=nelder-mead"]),
    # a step that does not divide the grid names the step
    ("simulate", "sim.dt", ["model.drift.mf_gain=0", "sim.dt=0.3"]),
    # more survivors required than particles run names the requirement
    ("simulate", "sim.min_survivors", ["sim.n_particles=200", "sim.dt=0.01", "sim.grid.step=0.1",
                                       "sim.min_survivors=500"]),
    # a bad grid, diffusion or control matrix names its leaf, not its section
    ("simulate", "sim.grid.times", ["model.drift.mf_gain=0", "sim.grid.times=[0.5]"]),
    *[("simulate", "model.sigma", ["model.drift.mf_gain=0", f"model.sigma={value}"])
      for value in ("[[0.0]]", "[[1.0,0.0],[0.0,1.0]]")],
    ("simulate", "model.drift.control_matrix",
     ["model.drift.mf_gain=0", "model.drift.control_matrix=[[1.0],[1.0]]"]),
])
def test_invalid_field_is_refused_at_read_time(tmp_path, capsys, cmd, field, overrides):
    rc = run(cmd, tmp_path, *overrides)
    err = capsys.readouterr().err
    assert rc == 2
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "paths.bin").exists()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_flow_rows_equal_the_per_cell_writer(tmp_path, d):
    """flow.csv's node-at-a-time template writer gives the bytes of the
    per-cell _format_cell writer, and its length counts the rows written."""
    gen = np.random.default_rng(d)
    times = np.array([0.0, 1.0 / 3.0, 0.5, 0.75, 1.0])
    n = 2_345  # not a multiple of the thousand-row chunk
    snapshots = gen.uniform(-1.0, 1.0, (times.shape[0], n, d))
    special = np.array([-0.0, 5e-324, 1e308, 1.0 / 3.0, -1e308, 0.0])
    snapshots.reshape(-1)[gen.integers(0, snapshots.size, 600)] = gen.choice(special, 600)
    # Alive counts 2 345, 1 001, 1 000, 999 and 0 at the five nodes.
    exit_times = np.full(n, 0.2)
    exit_times[:1001] = [0.9] * 999 + [0.6, 0.4]
    exit_times = exit_times[gen.permutation(n)]
    ens = KilledEnsemble(model=None, times=times, snapshots=snapshots, policy=None,
                         exit_times=exit_times)
    cli._write_flow_csv(tmp_path, ens)
    header = ["time", "particle"] + [f"x{k + 1}" for k in range(d)]
    write_csv(tmp_path / "reference.csv", header,
              [(float(times[m]), i, *snapshots[m, i].tolist())
               for m in range(times.shape[0]) for i in np.flatnonzero(ens.alive_at(m)).tolist()])
    got = (tmp_path / "flow.csv").read_bytes()
    assert got == (tmp_path / "reference.csv").read_bytes()
    counts = [int(ens.alive_at(m).sum()) for m in range(times.shape[0])]
    assert counts[1:] == [1001, 1000, 999, 0]
    assert len(cli._FlowRows(ens)) == sum(counts) == got.count(b"\n") - 1
    fields = set(got.replace(b"\n", b",").split(b","))
    assert {b"-0", b"4.9406564584124654e-324", b"1e+308", b"0.33333333333333331"} <= fields


def test_runtime_failure_exit_code(tmp_path, capsys):
    rc = run("simulate", tmp_path, "model.drift.mf_gain=0",
             "sim.n_particles=30", "sim.min_survivors=25")
    assert rc == 3
    assert "SurvivorDepletion" in capsys.readouterr().err


def test_unreadable_config(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def _paths(node, prefix=""):
    """Dotted paths of every leaf and every section of a config, sections first."""
    for key, value in node.items():
        path = prefix + key
        yield path
        if isinstance(value, dict):
            yield from _paths(value, path + ".")


def _at(cfg, parts):
    for p in parts:
        cfg = cfg[p]
    return cfg


_DELETE = object()
# Small enough that a case which passes validation runs in milliseconds, with
# 20 particles in each of the 20 reward batches so that each keeps a survivor.
_TINY = ["sim.n_particles=400", "sim.dt=0.25", "sim.grid.step=0.25", "picard.max_iter=2",
         "renewal.dt_r=0.25", "renewal.n_paths=20", "mimic.time_bins=2", "mimic.space_bins=2",
         "optimize.budget=2"]


@pytest.mark.parametrize("cmd", ["simulate", "picard", "fv", "renewal", "mimic", "optimize"])
def test_every_field_is_refused_by_name_or_accepted(tmp_path, capsys, cmd):
    """Each leaf of the shipped config set to a bad value or deleted, and each
    section replaced by a non-object or deleted: the run succeeds, fails at
    run time, or exits 2 naming the field or its section; it never dies with
    a traceback.  A misspelt sibling of each (its key plus "_") exits 2
    naming it."""
    extra = ["model.drift.mf_gain=0"] if cmd == "simulate" else []
    base = apply_overrides(load_config(DEFAULT_CONFIG), _TINY + extra)
    path = tmp_path / "case.json"
    failures = []
    for dotted in _paths(base):
        *parents, key = dotted.split(".")
        for value in (["abc", -1, 0, None, _DELETE, [1, 2], True]
                      if not isinstance(_at(base, parents)[key], dict) else [7, _DELETE]):
            cfg = copy.deepcopy(base)
            node = _at(cfg, parents)
            if value is _DELETE:
                del node[key]
            else:
                node[key] = value
            path.write_text(json.dumps(cfg))
            case = f"{dotted}={'<deleted>' if value is _DELETE else json.dumps(value)}"
            try:
                rc = cli.main([cmd, "--config", str(path), "--out", str(tmp_path / "out")])
            except Exception as e:  # any traceback is the failure reported
                failures.append(f"{case}: {type(e).__name__}: {e}")
                continue
            err = capsys.readouterr().err
            named = any(p and p in err for p in (dotted, ".".join(parents)))
            if rc not in (0, 2, 3) or (rc == 2 and not named):
                failures.append(f"{case}: exit {rc}: {err.strip()}")
        cfg = copy.deepcopy(base)
        _at(cfg, parents)[key + "_"] = _at(base, parents)[key]
        path.write_text(json.dumps(cfg))
        rc = cli.main([cmd, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if rc != 2 or f"unknown field '{dotted}_'" not in err:
            failures.append(f"{dotted}_ beside {dotted}: exit {rc}: {err.strip()}")
    assert not failures, f"{len(failures)} cases:\n" + "\n".join(failures)
