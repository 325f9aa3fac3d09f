"""Shared pytest hooks.

Clears both table caches, the coefficients and the gridded tables, before
each test, so that no test can pass on a table another test built.  Collects
the per-criterion verdict lines emitted by the acceptance tests and prints
them in the terminal summary, outside output capture, so every run log shows
one pass/fail line per criterion.
"""

import pytest

from vortexsteer import experiment, steering

acceptance_lines: list[str] = []


@pytest.fixture(autouse=True)
def cold_table_cache():
    steering._harmonics.cache_clear()
    experiment._gridded.cache_clear()


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(acceptance_lines):
            terminalreporter.write_line(line)
