"""Shape and numeric error types, config field checks, seeded RNGs, ReLU,
and the row-halves split of large products.

Everything here is float64 and pure: functions never mutate their inputs
(an `out=` array is an output), so they are safe to call from multiple
threads. RNG generators are single-owner; parallel work should use
distinct stream ids.

`split_rows` computes a large product as two row halves at once: the
first on the calling thread, the second on one worker thread that this
module starts on first use (and again in a forked child, which inherits
no threads). The split is always in two, whatever the core count. Each
output element comes from the same kind of call on the same rows as in
the whole product, and the half boundary, m // 2 rounded down, falls on
a row block of OpenBLAS's kernel: 24 rows for dgemm, 4 for dgemv (on its
Haswell and SkylakeX kernels; off them a half can round otherwise, as at
m // 2). So on one BLAS thread the bits are the whole product's.
(OpenBLAS on several threads partitions each call its own way, and its
bits vary with its thread count, split or not.) Smaller products never
reach the worker.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

# Multiply-adds from which split_rows runs a product as two row halves at
# once; below it, the thread hop would cost more than the second core saves.
# A product by a vector is memory-bound, so its cells count 16 times: in
# Sinkhorn's sweeps, halves lost below about 1.8e5 cells and won above, on a
# 2-core x86_64 host. Each half of a matrix product is at least a quarter of
# it, above the 10^6 multiply-adds under which OpenBLAS's SkylakeX dgemm takes
# a small-matrix path that rounds otherwise. math.inf splits nothing.
SPLIT_MIN = 2**22

_pool = (None, None)  # (pid, executor) of the worker; a forked child starts its own


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


def relu(m: np.ndarray) -> np.ndarray:
    return np.maximum(m, 0.0)


def relu_backward(m: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Mask upstream where the forward input was <= 0 (subgradient 0 at 0)."""
    if m.shape != upstream.shape:
        raise ShapeError(f"relu_backward shape mismatch: {m.shape} vs {upstream.shape}")
    return np.where(m > 0.0, upstream, 0.0)


def _worker() -> ThreadPoolExecutor:
    global _pool
    if _pool[0] != os.getpid():
        _pool = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="netite-split"))
    return _pool[1]


def _mid(m: int, cells: int, vector: bool) -> int:
    """The first row of the second half of a product of m rows and
    `cells` multiply-adds, or 0 where it runs whole."""
    if vector:
        return m // 8 * 4 if 16 * cells >= SPLIT_MIN else 0
    return m // 48 * 24 if cells >= SPLIT_MIN else 0


def split_rows(f, a: np.ndarray, b: np.ndarray, cols: int | None = None, out: np.ndarray | None = None):
    """f(a, b), or f(a, b, out=out), for f = np.matmul, np.dot or scipy's
    cdist on float64 operands that share no memory: the output has a's
    rows and `cols` columns, or is a vector when b is. From SPLIT_MIN
    multiply-adds up (SPLIT_MIN / 16 by a vector), the worker fills the
    second half of the rows while this thread fills the first, each by
    f(a[rows], b, out=...) into one output; an exception on the worker
    re-raises here. Below, or where the first half would be empty or the
    output has one column (numpy's matrix-vector path rounds otherwise
    than its matrix-matrix one), the product runs whole."""
    m = a.shape[0]
    mid = _mid(m, m * b.size, b.ndim == 1) if b.ndim == 1 or cols > 1 else 0
    if mid == 0:
        return f(a, b) if out is None else f(a, b, out=out)
    if out is None:
        out = np.empty((m, cols) if b.ndim == 2 else m)
    later = _worker().submit(f, a[mid:], b, out=out[mid:])
    try:
        f(a[:mid], b, out=out[:mid])
    finally:
        later.result()
    return out


def matvec(a: np.ndarray):
    """a.dot, or the same product by split_rows where a's products by a
    vector split, chosen once, so a loop of products on few-point groups
    pays no extra call per product."""
    return partial(split_rows, np.dot, a) if _mid(a.shape[0], a.size, True) else a.dot
