"""Shared test plumbing: a per-test Wishart table and a terminal summary
for the acceptance verdicts."""

import pytest

import crmimo.analytics as analytics

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def own_wishart_table(monkeypatch):
    """Give each test its own copy of the shipped Wishart table, so a shape
    one test simulates is not silently cached for the next.  A test that
    needs an unshipped shape declares the simulation with
    pytest.warns(RuntimeWarning) or seeds a stub entry."""
    monkeypatch.setattr(analytics, "_cache", dict(analytics._get_cache()))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
