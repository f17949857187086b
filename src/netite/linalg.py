"""Shape and numeric error types, config field checks, seeded RNGs, ReLU,
and the row-halves split of large products.

Everything here is float64 and pure: functions never mutate their inputs,
so they are safe to call from multiple threads. RNG generators are
single-owner; parallel work should use distinct stream ids.

`split_rows` computes a product of at least SPLIT_MIN multiply-adds as
two row halves at once: the first on the calling thread, the second on
one worker thread that this module starts on first use (and again in a
forked child, which inherits no threads). The split is always in two,
whatever the core count, and each output element comes from the same
kind of call on the same rows as in the whole product, so on one BLAS
thread the bits are the whole product's. (OpenBLAS on several threads
partitions each call its own way, and its bits vary with its thread
count, split or not.) Smaller products never reach the worker.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Multiply-adds from which split_rows runs a product as two row halves at
# once; below it, the thread hop would cost more than the second core saves.
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


def split_rows(f, a: np.ndarray, b: np.ndarray, cols: int) -> np.ndarray:
    """f(a, b), for f = np.matmul or scipy's cdist on float64 operands that
    share no memory: the output has a's rows and `cols` columns, and takes
    a.shape[0] * b.size multiply-adds. From SPLIT_MIN of them up, the
    worker fills the second half of the rows while this thread fills the
    first, each by f(a[rows], b, out=...) into one output; an exception on
    the worker re-raises here. Below, or where a half would have one row or
    the output one column (numpy's matrix-vector path rounds otherwise than
    its matrix-matrix one), it is f(a, b)."""
    m = a.shape[0]
    if m < 4 or cols < 2 or m * b.size < SPLIT_MIN:
        return f(a, b)
    out, mid = np.empty((m, cols)), m // 2
    later = _worker().submit(f, a[mid:], b, out=out[mid:])
    try:
        f(a[:mid], b, out=out[:mid])
    finally:
        later.result()
    return out
