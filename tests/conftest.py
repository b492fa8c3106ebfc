"""Shared test plumbing: a count of the trial pools started, run_trials'
memo of small link gains switched off unless a test asks for it, and a
terminal summary for the acceptance verdicts."""

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


class _KeepsNothing(dict):
    """A memo of link gains that stores nothing, so every call misses."""

    def __setitem__(self, key, value):
        pass


@pytest.fixture(autouse=True)
def no_gains_memo(monkeypatch):
    """Switch off run_trials' memo of the last call's gains: a test that
    compares two calls outside a scope compares two fresh draws, and its
    draw and pool counts do not depend on the tests run before it."""
    monkeypatch.setattr(montecarlo, "_LAST_GAINS", _KeepsNothing())


@pytest.fixture
def gains_memo(no_gains_memo, monkeypatch):
    """run_trials' memo of the last call's gains, switched on and empty."""
    memo = {}
    monkeypatch.setattr(montecarlo, "_LAST_GAINS", memo)
    return memo


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
