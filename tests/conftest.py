"""Shared test plumbing: a count of the trial pools started and a terminal
summary for the acceptance verdicts."""

from concurrent.futures import ProcessPoolExecutor

import pytest

import crmimo.montecarlo as montecarlo

ACCEPTANCE_LINES = []


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools that run_trials starts."""
    started = []

    class Counted(ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", Counted)
    return started


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
