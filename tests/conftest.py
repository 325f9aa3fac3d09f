"""Shared pytest hooks.

Clears the Born-table cache before each test, so that no test can pass on a
table another test built.  Collects the per-criterion verdict lines emitted
by the acceptance tests and prints them in the terminal summary, outside
output capture, so every run log shows one pass/fail line per criterion.
"""

import pytest

from vortexsteer import experiment

acceptance_lines: list[str] = []


@pytest.fixture(autouse=True)
def cold_table_cache():
    experiment._harmonics.cache_clear()


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(acceptance_lines):
            terminalreporter.write_line(line)
