"""Shared test configuration.

Collects the outcome of each numbered acceptance test and prints a one-line
pass/fail summary per criterion at the end of the run, so the gate status is
readable without scrolling through the full pytest output.  Every test
starts from the default safety ceilings and empty word-count and
slice-sum caches.
"""
import re

import pytest

from treechild import words
from treechild.params import CEILINGS

CRITERIA = {
    1: "golden count tables reproduced exactly via the word recurrence",
    2: "independent counting methods agree (blow-up, series, closed forms)",
    3: "brute-force word enumeration matches the recurrence",
    4: "one-component closed forms agree; k = 0 reduces to plain trees",
    5: "path-length closed form, recurrence, and factorization agree",
    6: "asymptotic parameter table reproduced (alpha, beta, gamma)",
    7: "interlacing and ratio inequalities hold on computed tables",
    8: "limit-law diagnostics trend in the proved direction",
    9: "scaled slice table satisfies its recurrence exactly",
    10: "fixed-k asymptotic within tolerance and monotone",
}

_NODE_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")

_outcomes: dict = {}


@pytest.fixture(autouse=True)
def default_ceilings(monkeypatch):
    """Drop any TREECHILD_*_CEILING the calling shell exports."""
    for name in CEILINGS:
        monkeypatch.delenv(f"TREECHILD_{name}_CEILING", raising=False)


@pytest.fixture(autouse=True)
def cold_row_cache():
    """Start from empty per-process tc_row and slice-sum caches; only the
    tests written for them exercise warm state."""
    words._TC_ROWS.clear()
    words._SLICE_SUMS.clear()


def pytest_runtest_logreport(report):
    match = _NODE_RE.search(report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    if report.when == "call":
        _outcomes[number] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.failed:
        _outcomes[number] = "FAIL"
    elif report.when == "setup" and report.skipped:
        _outcomes[number] = "SKIP"


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number, label in CRITERIA.items():
        status = _outcomes.get(number, "NOT RUN")
        terminalreporter.write_line(f"criterion {number:2d} [{status}] {label}")
