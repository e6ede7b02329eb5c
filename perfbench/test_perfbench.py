"""Tests of the benchmark itself: tiny runs of each workload, every check
rejecting a corrupted output, thread-width identity, and the trace
accounting."""
from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
SEED = 7


def run_tiny(name: str, out: Path, threads: int | None = None) -> worker.Round:
    wl = workloads.WORKLOADS[name]
    rnd = worker.Round(wl, SEED, wl.default_threads if threads is None else threads,
                       out, dict(wl.tiny))
    wl.setup(rnd)
    wl.run(rnd)
    assert not rnd.errors, rnd.errors
    return rnd


@pytest.fixture(scope="module")
def tiny_rounds(tmp_path_factory):
    return {name: run_tiny(name, tmp_path_factory.mktemp(name))
            for name in workloads.WORKLOADS}


def check_named(rnd: worker.Round, name: str) -> checks.Check:
    found = [c for _, c in rnd.workload.check(rnd) if c.name == name]
    assert found, f"no check named {name}"
    return found[0]


def copy_round(rnd: worker.Round, tmp_path: Path) -> worker.Round:
    clone = copy.copy(rnd)
    clone.outputs = dict(rnd.outputs)
    clone.out = tmp_path / "out"
    shutil.copytree(rnd.out, clone.out)
    return clone


def edit_csv(path: Path, edit) -> None:
    """Apply edit(array) to a CSV's numeric body and write it back."""
    header = path.read_text().splitlines()[0]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    data = edit(data)
    lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in data]
    path.write_text("\n".join(lines) + "\n")


# -- smoke runs ------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_round_passes_and_traces_every_layer(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    result = worker.run_round(name, SEED, True, None, tmp_path, time.monotonic(),
                              sizes=wl.tiny)
    assert result["failed"] == 0 and result["correct"], result["checks"]
    assert result["attempted"] >= 1 and result["particle_steps"] > 0
    layers = result["layers"]
    expected = {n for n, _, _ in tracing.LAYER_METRICS} - {"trace.overhead_s"}
    assert set(layers) == expected
    self_sum = sum(layers[f"{layer}.self_s"] for layer in tracing.SELF_LAYERS)
    assert self_sum == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["killed_sim.particle_steps"] + layers["fleming_viot.particle_steps"] \
        == result["particle_steps"]


def test_count_mode_matches_traced_particle_steps(tmp_path):
    wl = workloads.WORKLOADS["small_ensembles"]
    counted = worker.run_round("small_ensembles", SEED, False, 1, tmp_path / "a",
                               time.monotonic(), sizes=wl.tiny)
    traced = worker.run_round("small_ensembles", SEED, True, 1, tmp_path / "b",
                              time.monotonic(), sizes=wl.tiny)
    assert counted["particle_steps"] == traced["particle_steps"] > 0


def test_kernel_and_trace_are_identical_across_thread_widths(tiny_rounds, tmp_path):
    wide = tiny_rounds["small_ensembles"]
    narrow = run_tiny("small_ensembles", tmp_path, threads=1)
    assert wide.threads == max(workloads.nproc(), 1)
    for sub, name in (("renewal", "kernel.csv"), ("optimize", "trace.csv")):
        assert (narrow.out_of(sub) / name).read_bytes() == \
            (wide.out_of(sub) / name).read_bytes()


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "survival_large", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"wall_s", "setup_s", "particle_steps_per_s", "peak_rss_mb"}


# -- independent oracles and trace accounting -----------------------------------

def test_interval_series_limits():
    assert checks.interval_survival(0.0, -1.0, 1.0, 1.0, 0.0)[0] == pytest.approx(1.0, abs=2e-3)
    # The surviving law tends to the cos(pi x / 2) profile, whose second
    # moment is 1 - 8 / pi^2.
    m2 = checks.interval_conditional_second_moment(0.3, -1.0, 1.0, 1.0, 8.0)[0]
    assert m2 == pytest.approx(1.0 - 8.0 / np.pi ** 2, rel=1e-6)
    # Shifting the interval shifts the law.
    s = checks.interval_survival(0.5, 0.0, 2.0, 1.0, [0.3, 1.0])
    assert np.allclose(s, checks.interval_survival(-0.5, -1.0, 1.0, 1.0, [0.3, 1.0]))


def test_volterra_dense_solves_the_discrete_equation():
    rng = np.random.default_rng(0)
    n = 6
    kernel = np.sort(rng.uniform(0.0, 0.3, (n, n + 1)), axis=1)
    c = np.sort(rng.uniform(0.0, 0.5, n))
    f = checks.volterra_dense(c, kernel)
    for m in range(n):
        rhs = c[m] + sum(kernel[j, m - j] * (f[j + 1] - f[j]) for j in range(m))
        assert f[m] == pytest.approx(rhs, abs=1e-12)


def test_self_times_split_overlapping_tasks():
    # round 0..10 > map 1..9 > tasks on two threads, 1..5 and 2..9;
    # the second task has a child 3..4.
    spans = [
        ["round", None, 1, 0.0, 10.0, None, 1],
        ["parallel.map", 1, 1, 1.0, 9.0, None, 2],
        ["parallel.task", 2, 2, 1.0, 5.0, None, 3],
        ["parallel.task", 2, 3, 2.0, 9.0, None, 4],
        ["rng.normals", 4, 3, 3.0, 4.0, None, 5],
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(0.0)
    assert own[3] == pytest.approx(1.0 + 0.5 + 0.5 + 0.5)
    assert own[4] == pytest.approx(0.5 + 0.5 + 4.0)
    assert own[5] == pytest.approx(0.5)
    assert sum(own.values()) == pytest.approx(10.0)


# -- every check rejects a corrupted output --------------------------------------

def test_survival_checks_pass_on_real_output(tiny_rounds):
    rnd = tiny_rounds["survival_large"]
    assert all(c.passed for _, c in rnd.workload.check(rnd))


def _surv_corruptions():
    def shift_survival(data):
        n = workloads.SurvivalLarge.tiny["n"]
        m = int(np.argmin(np.abs(data[:, 0] - 0.5)))
        data[m, 1] += 6.0 * np.sqrt(data[m, 1] * (1 - data[m, 1]) / n)
        return data

    def shrink_last_node(data):
        last = np.abs(data[:, 0] - data[-1, 0]) <= 1e-9
        data[last, 2] *= 0.8
        return data

    def drop_row(data):
        return np.delete(data, data.shape[0] // 2, axis=0)

    def onto_boundary(data):
        data[-1, 2] = 1.0
        return data

    return [("survival.csv", shift_survival, "survival_matches_series"),
            ("flow.csv", shrink_last_node, "conditional_second_moment"),
            ("flow.csv", drop_row, "flow_rows_match_survival"),
            ("flow.csv", onto_boundary, "positions_inside")]


@pytest.mark.parametrize("filename,edit,check", _surv_corruptions(),
                         ids=[c[2] for c in _surv_corruptions()])
def test_survival_check_rejects_corruption(tiny_rounds, tmp_path, filename, edit, check):
    rnd = copy_round(tiny_rounds["survival_large"], tmp_path)
    edit_csv(rnd.out_of("simulate") / filename, edit)
    assert not check_named(rnd, check).passed


def test_fv_checks_pass_on_real_output(tiny_rounds):
    rnd = tiny_rounds["fv_equivalence"]
    assert all(c.passed for _, c in rnd.workload.check(rnd))


def _drop_event(fv):
    return dataclasses.replace(fv, event_times=fv.event_times[:-1],
                               event_particles=fv.event_particles[:-1],
                               event_positions=fv.event_positions[:-1],
                               event_sources=fv.event_sources[:-1])


def _triple_events(fv):
    return dataclasses.replace(
        fv, event_times=np.concatenate([fv.event_times] * 3),
        event_particles=np.concatenate([fv.event_particles] * 3),
        event_positions=np.concatenate([fv.event_positions] * 3),
        event_sources=np.concatenate([fv.event_sources] * 3))


def _shift_snapshots(fv):
    return dataclasses.replace(fv, snapshots=fv.snapshots + np.array([0.4, 0.0]))


def _event_on_boundary(fv):
    pos = fv.event_positions.copy()
    pos[0] = (1.0, 0.0)
    return dataclasses.replace(fv, event_positions=pos)


def _bump(report, amount):
    return dataclasses.replace(report, total=report.total + amount)


FV_CORRUPTIONS = [
    ("solve_fixed_point", lambda fp: dataclasses.replace(fp, converged=False),
     "picard_converged"),
    ("eval_reward_fv_zero", lambda r: _bump(r, 10.0 * max(r.total_se, 1e-3)),
     "killed_and_fv_rewards_agree"),
    ("eval_reward_fv_cost", lambda r: _bump(r, 1e-12), "reinsertion_cost_exactly_linear"),
    ("simulate_fv_meanfield", _drop_event, "reinsertion_events_consistent"),
    ("simulate_fv_finite", _drop_event, "reinsertion_events_consistent"),
    ("simulate_fv_meanfield", _triple_events, "log_survival_meanfield"),
    ("simulate_fv_finite", _triple_events, "log_survival_finite"),
    ("simulate_fv_meanfield", _shift_snapshots, "marginals_match_killed_meanfield"),
    ("simulate_fv_finite", _shift_snapshots, "marginals_match_killed_finite"),
    ("simulate_fv_meanfield", _event_on_boundary, "reinsertions_inside_meanfield"),
    ("simulate_fv_finite", _event_on_boundary, "reinsertions_inside_finite"),
]


@pytest.mark.parametrize("op,corrupt,check", FV_CORRUPTIONS,
                         ids=[f"{c[0]}-{c[2]}" for c in FV_CORRUPTIONS])
def test_fv_check_rejects_corruption(tiny_rounds, op, corrupt, check):
    rnd = copy.copy(tiny_rounds["fv_equivalence"])
    rnd.outputs = dict(rnd.outputs)
    rnd.outputs[op] = corrupt(rnd.outputs[op])
    found = [c for o, c in rnd.workload.check(rnd) if c.name == check and o == op]
    assert found and not found[0].passed


def test_small_checks_pass_on_real_output(tiny_rounds):
    rnd = tiny_rounds["small_ensembles"]
    assert all(c.passed for _, c in rnd.workload.check(rnd))


def _edit_json(path: Path, key_path, edit) -> None:
    doc = json.loads(path.read_text())
    node = doc
    for key in key_path[:-1]:
        node = node[key]
    node[key_path[-1]] = edit(node[key_path[-1]])
    path.write_text(json.dumps(doc))


def _perturb_f(data):
    data[len(data) // 2, 1] += 1e-6
    return data


def _raise_f(data):
    data[1:, 1] += 0.5
    return data


def _halve_kernel(data):
    data[:, 2] *= 0.5
    return data


def _break_monotone(data):
    row = np.flatnonzero(data[:, 1] > 0)[3]
    data[row, 2] = data[row - 1, 2] - 0.01
    return data


SMALL_FILE_CORRUPTIONS = [
    ("renewal/f_volterra.csv", _perturb_f, "volterra_resolved"),
    ("renewal/f_volterra.csv", _raise_f, "renewal_matches_log_survival"),
    ("renewal/kernel.csv", _halve_kernel, "resolved_matches_log_survival"),
    ("renewal/kernel.csv", _break_monotone, "kernel_entries_valid"),
]


@pytest.mark.parametrize("filename,edit,check", SMALL_FILE_CORRUPTIONS,
                         ids=[c[2] for c in SMALL_FILE_CORRUPTIONS])
def test_small_check_rejects_corrupted_file(tiny_rounds, tmp_path, filename, edit, check):
    rnd = copy_round(tiny_rounds["small_ensembles"], tmp_path)
    edit_csv(rnd.out / filename, edit)
    assert not check_named(rnd, check).passed


SMALL_JSON_CORRUPTIONS = [
    ("picard/manifest.json", ("result", "converged"), lambda v: False, "picard_converged"),
    ("optimize/best.json", ("n_evals",), lambda v: v - 1, "optimizer_budget_used"),
    ("optimize/best.json", ("best_value",), lambda v: v + 1e-9, "best_is_trace_maximum"),
]


@pytest.mark.parametrize("filename,key,edit,check", SMALL_JSON_CORRUPTIONS,
                         ids=[c[3] for c in SMALL_JSON_CORRUPTIONS])
def test_small_check_rejects_corrupted_json(tiny_rounds, tmp_path, filename, key, edit,
                                             check):
    rnd = copy_round(tiny_rounds["small_ensembles"], tmp_path)
    _edit_json(rnd.out / filename, key, edit)
    assert not check_named(rnd, check).passed


def test_small_check_rejects_a_zero_control_that_wins(tiny_rounds, tmp_path):
    rnd = copy_round(tiny_rounds["small_ensembles"], tmp_path)
    best = json.loads((rnd.out_of("optimize") / "best.json").read_text())["best_value"]
    rnd.outputs["zero_control_reward"] = dataclasses.replace(
        rnd.outputs["zero_control_reward"], total=best + 1.0)
    assert not check_named(rnd, "best_beats_zero_control").passed
