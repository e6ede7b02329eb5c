"""Full verification suite at two thread widths.

Each numbered check gets its own test so a verbose run prints one
pass/fail line per criterion; the final tests compare artifact bytes
across thread counts and require a clean exit code everywhere.  The
width is only recorded in manifest.json, so two widths compare two
processes as well as three would.
"""
import json

import pytest

from condiff import cli


@pytest.fixture(scope="session")
def verify_runs(tmp_path_factory):
    runs = {}
    for threads in (1, 8):
        out = tmp_path_factory.mktemp(f"verify_t{threads}")
        rc = cli.main(["verify", "--out", str(out), "--threads",
                       str(threads)])
        runs[threads] = (out, rc)
    return runs


@pytest.fixture(scope="session")
def report(verify_runs):
    out, _ = verify_runs[1]
    return json.loads((out / "verify_report.json").read_text())


def _check(report, cid):
    entry = next(c for c in report["criteria"] if c["id"] == cid)
    status = "PASS" if entry["passed"] else "FAIL"
    print(f"[{cid}] {status} {entry['name']}: {entry['details']}")
    assert entry["passed"], f"[{cid}] {entry['name']}: {entry['details']}"


def test_c01_survival_matches_series(report):
    _check(report, "C1")


def test_c02_long_time_law_second_moment(report):
    _check(report, "C2")


def test_c03_reinsertion_marginals_match_flow(report):
    _check(report, "C3")


def test_c04_reinsertion_counts_match_log_survival(report):
    _check(report, "C4")


def test_c05_renewal_equation_consistency(report):
    _check(report, "C5")


def test_c06_fixed_point_contraction(report):
    _check(report, "C6")


def test_c07_feedback_beats_open_loop(report):
    _check(report, "C7")


def test_c08_reward_estimates_agree(report):
    _check(report, "C8")


def test_c09_survival_floor(report):
    _check(report, "C9")


def test_c10_boundary_start_exits(report):
    _check(report, "C10")


def test_c11_deterministic_scheduling(report):
    _check(report, "C11")


def test_artifacts_bit_identical_across_thread_widths(verify_runs):
    (base, _), (other, _) = verify_runs[1], verify_runs[8]
    names = sorted(p.name for p in base.iterdir()
                   if p.name != "manifest.json")
    assert "verify_report.json" in names
    assert any(n.endswith(".csv") for n in names)
    assert sorted(p.name for p in other.iterdir() if p.name != "manifest.json") == names
    for name in names:
        assert (other / name).read_bytes() == (base / name).read_bytes(), \
            f"threads=8: {name} differs"


def test_verify_reports_clean(verify_runs, report):
    assert report["all_passed"]
    assert report["seed"] == 1729
    for threads, (_, rc) in verify_runs.items():
        assert rc == 0, f"threads={threads} exited {rc}"
