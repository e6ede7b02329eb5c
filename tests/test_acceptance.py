"""The full verification suite, one test per criterion.

Each numbered check gets its own test so a verbose run prints one
pass/fail line per criterion; the last test requires a clean exit.
verify runs once per session (conftest.verify_run), and
test_artifact_digests pins the bytes of every file it writes.
"""
import json

import pytest


@pytest.fixture(scope="session")
def report(verify_run):
    out, _ = verify_run
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


def test_verify_reports_clean(verify_run, report):
    assert report["all_passed"]
    assert report["seed"] == 1729
    assert verify_run[1] == 0
