"""Shared fixtures and the acceptance summary report."""

import os

import pytest

from vibroident import timeseries

ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


@pytest.fixture
def record_io_processes(monkeypatch):
    """``use(n)`` makes record writing and parsing split every record, however
    small, over ``n`` processes, as on a machine with ``n`` usable CPUs
    (``use(1)``: one process).  Returns the list that gets one entry per
    forked worker."""
    if not hasattr(os, "fork"):
        pytest.skip("record I/O workers need os.fork")
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    def use(n):
        monkeypatch.setattr(timeseries, "_FORK_MIN_CELLS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    return use


def record_acceptance(number: int, description: str, passed: bool, detail: str = ""):
    ACCEPTANCE_RESULTS.append((number, description, passed, detail))


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed, detail in sorted(set(ACCEPTANCE_RESULTS)):
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {number}: {description}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
