"""ADAM over the flattened parameter vector."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import NumericError, ShapeError


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates; offset of the step's denominator


@dataclass
class AdamState:
    size: int
    learning_rate: float
    step: int = 0
    m: np.ndarray = field(default=None)
    v: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.m is None:
            self.m = np.zeros(self.size)
        if self.v is None:
            self.v = np.zeros(self.size)


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One update with bias correction; updates `state` (its m and v in
    place), returns new theta. Two scratch vectors hold every temporary,
    each operation in the order of the plain expressions
    m = BETA1 m + (1 - BETA1) g, v = BETA2 v + ((1 - BETA2) g) g and
    theta - lr m_hat / (sqrt(v_hat) + EPS)."""
    if theta.shape != (state.size,) or grad.shape != (state.size,):
        raise ShapeError(f"adam_step expects vectors of size {state.size}")
    if not np.all(np.isfinite(grad)):
        bad = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise NumericError(f"non-finite gradient at coordinate {bad}")
    state.step += 1
    m, v = state.m, state.v
    step = np.multiply(1 - BETA1, grad)
    m *= BETA1
    m += step
    np.multiply(1 - BETA2, grad, out=step)
    step *= grad
    v *= BETA2
    v += step
    denom = np.divide(v, 1 - BETA2 ** state.step)  # v_hat
    np.sqrt(denom, out=denom)
    denom += EPS
    np.divide(m, 1 - BETA1 ** state.step, out=step)  # m_hat
    step *= state.learning_rate
    step /= denom
    return np.subtract(theta, step, out=denom)
