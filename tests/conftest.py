"""Shared test plumbing: a count of the trial pools started, run_trials'
default store of link gains limited to nothing unless a test asks for
it, and a terminal summary for the acceptance verdicts."""

from concurrent.futures import ProcessPoolExecutor
from contextvars import ContextVar

import pytest

import crmimo.montecarlo as montecarlo

ACCEPTANCE_LINES = []

# run_trials' own store outside any scope
_DEFAULT = montecarlo._GAINS.get()


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


def _install_default_store(monkeypatch, limit):
    """An empty store that keeps at most `limit` floats a call and names
    the schemes of the module's own, made the one that run_trials uses
    outside any scope, in every thread."""
    store = montecarlo._GainsStore({}, limit, _DEFAULT.schemes)
    monkeypatch.setattr(montecarlo, "_GAINS", ContextVar("_GAINS", default=store))
    return store


@pytest.fixture(autouse=True)
def default_store(monkeypatch):
    """run_trials' store outside any scope, with a limit of 0: every call
    there streams its trials, so a test that compares two calls outside a
    scope compares two fresh draws, and its draw and pool counts do not
    depend on the tests run before it."""
    return _install_default_store(monkeypatch, 0)


@pytest.fixture
def gains_memo(default_store, monkeypatch):
    """run_trials' store outside any scope, empty, at its own limit."""
    return _install_default_store(monkeypatch, _DEFAULT.limit)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
