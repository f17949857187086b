"""Shape and numeric error types, config field checks, seeded RNGs, ReLU.

Everything here is float64 and pure: functions never mutate their inputs,
so they are safe to call from multiple threads. RNG generators are
single-owner; parallel work should use distinct stream ids.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


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
