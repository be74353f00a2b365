"""Shared fixtures and the acceptance summary report."""

import io
import itertools
import os
import signal

import numpy as np
import pytest

from vibroident import timeseries

ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def hann_phasors(basis, U) -> np.ndarray:
    """Each row of ``U`` projected onto a window's
    :class:`~vibroident.dsp.HannBasis`, one product per row, over the
    basis's reference: the phasors that the basis reads in one product.  A
    row whose projection overflows gets non-finite values."""
    with np.errstate(all="ignore"):
        rows = np.matmul(np.atleast_2d(U)[:, None, :], basis.basis)[:, 0]
        return (rows[:, 0] + 1j * rows[:, 1]) / basis.reference


@pytest.fixture
def record_io_processes(monkeypatch):
    """``use(n)`` makes record writing and parsing split every record,
    however small, over ``n`` processes, as on a machine with ``n`` usable
    CPUs (``use(1)``: one process).  Returns the list that gets one entry
    per forked worker."""
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


@pytest.fixture
def failing_workers(monkeypatch):
    """``use(fault)`` makes every forked worker fail once it has written
    its bytes into its spill file: it exits 1 after all of them
    (``"exit_1_after_all_bytes"``) or after half of them
    (``"exit_1_after_half"``), or it is killed by SIGKILL after all of them
    (``"sigkill"``).  The parent, which sends its own range and every
    failed worker's range itself, is left alone; it must read none of the
    failed workers' bytes."""
    forked = timeseries._forked
    parent = os.getpid()

    def use(fault):
        def faulty(ranges, send, first):
            def failing_send(lo, hi, out):
                if os.getpid() == parent:
                    return send(lo, hi, out)
                buf = io.BytesIO()
                send(lo, hi, buf)
                data = buf.getvalue()
                out.write(data[: len(data) // 2] if fault == "exit_1_after_half" else data)
                out.flush()
                if fault == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("worker fails after writing")

            return forked(ranges, failing_send, first)

        monkeypatch.setattr(timeseries, "_forked", faulty)

    return use


@pytest.fixture
def record_file(tmp_path):
    """``write(text)`` writes ``text`` (bytes, or a str as UTF-8) to a new
    file under ``tmp_path`` and returns its path as a string, the form the
    CLI passes to ``parse_timeseries_csv``."""
    names = itertools.count()

    def write(text: str | bytes) -> str:
        path = tmp_path / f"record{next(names)}.csv"
        path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        return str(path)

    return write


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
