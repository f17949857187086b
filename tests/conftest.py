"""Shared pytest hooks and fixtures.

The acceptance module registers one line per criterion here; the
terminal-summary hook replays them at the end of the run so they are
visible regardless of capture settings.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import netite
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


def count_worker_calls() -> list:
    """A list that gains one entry per split that reaches the worker, for
    the rest of the process: for the subprocesses of run_on_one_blas_thread."""
    calls = []
    worker = linalg._worker
    linalg._worker = lambda: calls.append(1) or worker()
    return calls


def run_on_one_blas_thread(call: str, first: str = "") -> None:
    """Run `call`, a call into a test module such as
    "test_model.f('x')", in a process of its own on one BLAS thread, after
    the statements `first` and before that the module's import, and fail
    with its stderr unless it exits 0. Bits of a split product are
    the whole product's on one BLAS thread only: with more, OpenBLAS
    splits each call its own way, and its bits vary with its thread count."""
    code = f"{first}\nimport {call.split('.')[0]}; {call}"
    paths = [str(Path(netite.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(paths)})
    assert out.returncode == 0, out.stderr


def pytest_terminal_summary(terminalreporter):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)
