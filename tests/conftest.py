"""Shared pytest hooks and fixtures.

The acceptance module registers one line per criterion here; the
terminal-summary hook replays them at the end of the run so they are
visible regardless of capture settings.

The bit tests compare split and whole passes byte for byte in this
process. A split has the whole pass's bits on one BLAS thread only: with
more, OpenBLAS splits each call its own way. Importing netite holds
numpy's bundled OpenBLAS at one thread where that library exports
scipy_openblas_set_num_threads64_ (test_import_holds_openblas_at_one_thread).
Where it does not, as in an older numpy wheel whose OpenBLAS lacks that
symbol, run the tests with OPENBLAS_NUM_THREADS=1, as CI does.
"""

import pytest

from netite import balance, linalg

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


@pytest.fixture
def worker_calls(monkeypatch):
    """A list that gains one entry per split that reaches the worker. Every
    split at or above its threshold does, as on a host of two or more
    CPUs, whatever this process's affinity."""
    calls = []
    worker = linalg._worker
    monkeypatch.setattr(linalg, "_ONE_CPU", False)
    monkeypatch.setattr(linalg, "_worker", lambda: calls.append(1) or worker())
    return calls


def pytest_terminal_summary(terminalreporter):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)
