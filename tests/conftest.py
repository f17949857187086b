"""Shared pytest hooks and fixtures.

The acceptance module registers one line per criterion here; the
terminal-summary hook replays them at the end of the run so they are
visible regardless of capture settings.
"""

import pytest

from netite import balance

criterion_lines = []


@pytest.fixture
def backward_runs(monkeypatch):
    """A list that gains one entry, the cost matrix's shape, per run of
    the Sinkhorn backward."""
    runs = []
    real = balance._sinkhorn_backward

    def counted(c, *args):
        runs.append(c.shape)
        return real(c, *args)

    monkeypatch.setattr(balance, "_sinkhorn_backward", counted)
    return runs


def pytest_terminal_summary(terminalreporter):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)
