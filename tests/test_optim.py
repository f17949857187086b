import dataclasses

import numpy as np
import pytest

from netite.linalg import NumericError
from netite.optim import BETA1, BETA2, EPS, AdamState, adam_step


def test_zero_gradient_no_move():
    theta = np.array([1.0, -2.0, 3.0])
    state = AdamState(size=3, learning_rate=0.1)
    out = adam_step(state, theta, np.zeros(3))
    assert np.array_equal(out, theta)


def test_first_step_hand_value():
    # theta=0, g=1, lr=0.1: m_hat=1, v_hat=1 -> theta ~ -0.1
    state = AdamState(size=1, learning_rate=0.1)
    out = adam_step(state, np.zeros(1), np.ones(1))
    assert abs(out[0] + 0.1) < 1e-7


def test_constant_gradient_monotone():
    state = AdamState(size=1, learning_rate=0.01)
    theta = np.zeros(1)
    prev = theta[0]
    for _ in range(100):
        theta = adam_step(state, theta, np.ones(1))
        assert theta[0] < prev
        prev = theta[0]


def test_first_step_bounded_by_lr():
    rng = np.random.default_rng(0)
    g = rng.normal(size=10) * 100
    state = AdamState(size=10, learning_rate=0.05)
    theta = rng.normal(size=10)
    out = adam_step(state, theta, g)
    assert np.all(np.abs(out - theta) <= 0.05 * (1 + 1e-6))


def test_deterministic():
    g = np.arange(4.0)
    outs = []
    for _ in range(2):
        state = AdamState(size=4, learning_rate=0.01)
        outs.append(adam_step(state, np.ones(4), g))
    assert np.array_equal(outs[0], outs[1])


def test_converges_on_quadratic():
    c = np.array([2.0, -1.5, 0.5])
    theta = np.zeros(3)
    state = AdamState(size=3, learning_rate=1e-2)
    for _ in range(2000):
        theta = adam_step(state, theta, 2 * (theta - c))
    assert np.max(np.abs(theta - c)) < 1e-4


def test_nonfinite_gradient_names_coordinate():
    state = AdamState(size=3, learning_rate=0.1)
    g = np.array([0.0, np.nan, 0.0])
    with pytest.raises(NumericError, match="coordinate 1"):
        adam_step(state, np.zeros(3), g)


def test_hyperparameters_are_module_constants():
    assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-8)
    assert [f.name for f in dataclasses.fields(AdamState)] == ["size", "learning_rate", "step", "m", "v"]
    # two steps by hand with the constants
    state = AdamState(size=1, learning_rate=0.1)
    theta = adam_step(state, np.zeros(1), np.array([2.0]))
    theta = adam_step(state, theta, np.array([-1.0]))
    m = (1 - BETA1) * (BETA1 * 2.0 - 1.0)
    v = (1 - BETA2) * (BETA2 * 4.0 + 1.0)
    m_hat, v_hat = m / (1 - BETA1 ** 2), v / (1 - BETA2 ** 2)
    assert abs(theta[0] - (-0.1 * 2.0 / (2.0 + EPS) - 0.1 * m_hat / (np.sqrt(v_hat) + EPS))) < 1e-15


def reference_adam_step(state, theta, grad):
    """adam_step as it was before it worked in place: one new array per
    operation, kept here as the reference for its bits."""
    state.step += 1
    state.m = BETA1 * state.m + (1 - BETA1) * grad
    state.v = BETA2 * state.v + (1 - BETA2) * grad * grad
    m_hat = state.m / (1 - BETA1 ** state.step)
    v_hat = state.v / (1 - BETA2 ** state.step)
    return theta - state.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)


def test_in_place_step_same_bytes_as_reference():
    rng = np.random.default_rng(7)
    theta = ref_theta = rng.normal(size=1000)
    state, ref = AdamState(size=1000, learning_rate=0.01), AdamState(size=1000, learning_rate=0.01)
    m, v = state.m, state.v
    for _ in range(5):
        g = rng.normal(size=1000) * 10.0 ** rng.integers(-8, 4, size=1000)
        theta = adam_step(state, theta, g)
        ref_theta = reference_adam_step(ref, ref_theta, g)
        assert theta.tobytes() == ref_theta.tobytes()
        assert state.m.tobytes() == ref.m.tobytes() and state.v.tobytes() == ref.v.tobytes()
    assert state.m is m and state.v is v
