"""Shape and numeric error types, config field checks, seeded RNGs and
the row-halves runner of large passes.

Everything here is float64 and pure: functions never mutate their inputs
(an `out=` array is an output), so they are safe to call from multiple
threads. RNG generators are single-owner; parallel work should use
distinct stream ids.

Importing this module holds numpy's bundled OpenBLAS at one thread, where
it finds that library and its `scipy_openblas_set_num_threads64_`: so
the row halves are the only parallelism, and every product has the
one-thread bits. Other numpy code in the process loses BLAS threads too.

One split rule runs the large passes. `split_rows`, `sparse_rows` and
`row_halves` each hand a pass of m rows, its cell count and its row
alignment to `_halves`. From SPLIT_MIN cells up it runs two row halves at
once, cut at m // 2 rounded down to the alignment: the first on the
calling thread, the second on one worker thread, started on first use
(again in a forked child, which inherits no threads) and woken by a pair
of locks. It runs the pass whole where that cut is 0, where the process
may run on one CPU only, and where the worker is busy. Each half makes
the same call on its own rows into one output, so every element is the
whole pass's. A matrix product counts its multiply-adds and cuts on
dgemm's row block of 24 rows; the memory-bound passes count 16 per cell
(a product by a vector, cut on dgemv's 4 rows; a sparse product, per
cell of its dense operand; an elementwise pass, per cell of its output).
Off those row blocks a half can round otherwise, as at m // 2.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
import threading
from functools import partial
from pathlib import Path

import numpy as np

try:
    from scipy.sparse._sparsetools import csr_matvecs
except ImportError:  # a scipy that moved its private kernel: sparse_rows runs a @ m whole
    csr_matvecs = None

# Cells from which a pass splits; below it, the thread hop would cost more
# than the second core saves: in Sinkhorn's products by a vector, halves lost
# below about 1.8e5 multiply-adds and won above, on a 2-core x86_64 host. Each
# half of a matrix product is at least a quarter of it, above the 10^6
# multiply-adds under which OpenBLAS's SkylakeX dgemm takes a small-matrix path
# that rounds otherwise. math.inf splits nothing.
SPLIT_MIN = 2**22

# Where both halves would share one CPU, the hand-off only adds work: read once, at import.
_ONE_CPU = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1) < 2
_runner = None  # this process's _Worker, started by its first split


def _one_blas_thread() -> list:
    """Sets each bundled OpenBLAS that has the symbol to one thread; returns their paths."""
    root = Path(np.__file__).parent
    pinned = []
    for lib in [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]:
        try:
            set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # not loadable, or an OpenBLAS without the symbol
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
        pinned.append(lib)
    return pinned


_one_blas_thread()


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class NumericError(ValueError):
    """A non-finite value appeared where a finite one is required."""


def check_fields(obj, names: str, low=None, *, integer: bool = False, strict: bool = False) -> None:
    """Raise ValueError unless every field of obj named in `names` (space
    separated) is an integer below 2**63, numpy's int64 range (integer=True),
    or a finite real number, never a bool, and is >= low (> low when strict)."""
    for name in names.split():
        value = getattr(obj, name)
        ok = (isinstance(value, numbers.Integral if integer else numbers.Real) and not isinstance(value, bool)
              and (value < 2**63 if integer else math.isfinite(value)))
        if ok and low is not None:
            ok = value > low if strict else value >= low
        if not ok:
            bound = "" if low is None else f" {'>' if strict else '>='} {low}"
            kind = f"an integer{bound} and below 2**63" if integer else f"a finite number{bound}"
            raise ValueError(f"{name} must be {kind}, got {value!r}")


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator: identical (seed, stream) gives an identical
    sequence on every platform."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


class _Worker:
    """One daemon thread of process `pid` that runs one half at a time:
    `go` hands it a task, `done` hands it back, and `busy` is held by the
    caller whose half it runs. It drops each task, and so its arrays, when
    the task finishes."""

    def __init__(self):
        self.pid, self.task, self.error = os.getpid(), None, None
        self.busy, self.go, self.done = threading.Lock(), threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        threading.Thread(target=self._serve, name="netite-split", daemon=True).start()

    def _serve(self):
        while True:
            self.go.acquire()
            (fn, rows), self.task = self.task, None
            try:
                fn(rows)
            except BaseException as exc:  # re-raised by the caller
                self.error = exc
            del fn, rows
            self.done.release()


def _worker() -> _Worker:
    """This process's worker; a forked child, which inherits no threads, starts its own."""
    global _runner
    if _runner is None or _runner.pid != os.getpid():
        _runner = _Worker()
    return _runner


def _mid(m: int, cells: int, align: int = 1) -> int:
    """The first row of a pass's second half, or 0 where it runs whole."""
    return m // (2 * align) * align if cells >= SPLIT_MIN else 0


def _halves(fn, m: int, cells: int, align: int = 1) -> None:
    """fn(slice(0, mid)) here and fn(slice(mid, m)) on the worker at once,
    or fn(slice(0, m)) here alone; an exception on the worker re-raises here."""
    mid = _mid(m, cells, align)
    worker = None if _ONE_CPU or mid == 0 else _worker()
    if worker is None or not worker.busy.acquire(blocking=False):
        return fn(slice(0, m))
    worker.task = fn, slice(mid, m)
    worker.go.release()
    try:
        fn(slice(0, mid))
    finally:
        worker.done.acquire()
        error, worker.error = worker.error, None
        worker.busy.release()
    if error is not None:
        raise error


def split_rows(f, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """f(a, b, out=out) for f = np.matmul, np.dot or scipy's cdist on float64
    operands that share no memory; out, where not given, has a's rows and
    b's columns, or is a vector when b is (cdist takes out). A one-column
    output runs whole: numpy's matrix-vector path rounds otherwise."""
    m = a.shape[0]
    out = np.empty((m, *b.shape[1:])) if out is None else out
    cells = 0 if out.shape[1:] == (1,) else m * b.size * (16 if b.ndim == 1 else 1)
    _halves(lambda rows: f(a[rows], b, out=out[rows]), m, cells, 4 if b.ndim == 1 else 24)
    return out


def matvec(a: np.ndarray):
    """a.dot, or the same product by split_rows where a's products by a
    vector split, chosen once, so a loop of products on few-point groups
    pays no extra call per product."""
    return partial(split_rows, np.dot, a) if _mid(len(a), 16 * a.size, 4) else a.dot


def sparse_rows(a, m: np.ndarray) -> np.ndarray:
    """a @ m, for a scipy sparse matrix a and a 2-D m. For a float64 CSR a
    and a float64 m of two or more columns, each half runs `csr_matvecs`,
    the kernel of scipy's own a @ m, on its rows into one zeroed output."""
    if (csr_matvecs is None or a.format != "csr" or m.shape[1] < 2 or m.shape[0] != a.shape[1]
            or not a.dtype == m.dtype == np.float64):
        return a @ m
    out, ptr, flat = np.zeros((a.shape[0], m.shape[1])), a.indptr, m.ravel()

    def half(rows):
        csr_matvecs(rows.stop - rows.start, a.shape[1], m.shape[1], ptr[rows.start:rows.stop + 1], a.indices,
                    a.data, flat, out[rows].reshape(-1))

    _halves(half, a.shape[0], 16 * m.size)
    return out


def row_halves(fn, out: np.ndarray, *arrays: np.ndarray) -> np.ndarray:
    """fn(out, *arrays), for a pass that writes only into its arrays and
    whose every row of output depends only on the same rows of each
    array; returns out. Each half runs fn on its rows of every array;
    operands that broadcast along the rows belong in fn itself."""
    _halves(lambda rows: fn(out[rows], *[x[rows] for x in arrays]), len(out), 16 * out.size)
    return out
