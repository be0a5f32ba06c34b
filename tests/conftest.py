"""Shared pytest wiring: one Hypothesis profile for every property test, and
the acceptance scorecard printed after the run."""

from __future__ import annotations

from hypothesis import settings

# a solve or a simulation per example has no fixed cost bound worth a deadline;
# each test sets its own max_examples, and derandomize where it pins a count
settings.register_profile("tier1", deadline=None)
settings.load_profile("tier1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from tests.test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance scorecard")
        for line in RESULTS:
            terminalreporter.write_line(line)
