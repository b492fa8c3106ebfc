"""Shared test plumbing: a per-test Wishart table, a count of the trial
pools started and a terminal summary for the acceptance verdicts."""

from concurrent.futures import ProcessPoolExecutor

import pytest

import crmimo.analytics as analytics
import crmimo.montecarlo as montecarlo

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def own_wishart_table(monkeypatch):
    """Give each test its own copy of the shipped Wishart table, so a shape
    one test simulates is not silently cached for the next.  A test that
    needs an unshipped shape declares the simulation with
    pytest.warns(RuntimeWarning) or seeds a stub entry."""
    monkeypatch.setattr(analytics, "_cache", dict(analytics._get_cache()))


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
