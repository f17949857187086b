import numpy as np

from netite.linalg import make_rng, relu, relu_backward


def test_relu_and_backward():
    assert np.array_equal(relu(np.array([[-1.0, 2.0]])), np.array([[0.0, 2.0]]))
    out = relu_backward(np.array([[-1.0, 2.0]]), np.array([[5.0, 5.0]]))
    assert np.array_equal(out, np.array([[0.0, 5.0]]))


def test_relu_all_negative():
    m = -np.ones((3, 3))
    assert np.array_equal(relu(m), np.zeros((3, 3)))
    assert np.array_equal(relu_backward(m, np.ones((3, 3))), np.zeros((3, 3)))


def test_relu_subgradient_zero_at_zero():
    out = relu_backward(np.array([[0.0]]), np.array([[7.0]]))
    assert out[0, 0] == 0.0


def test_relu_backward_finite_difference():
    rng = make_rng(5)
    x = rng.normal(size=(4, 3))
    u = rng.normal(size=(4, 3))
    h = 1e-6
    # directional derivative of sum(relu(x)) along u
    fd = ((relu(x + h * u) - relu(x - h * u)) / (2 * h)).sum()
    analytic = relu_backward(x, u).sum()
    assert abs(fd - analytic) / max(abs(analytic), 1e-12) < 1e-6


def test_rng_streams_reproducible_and_distinct():
    a = make_rng(1, stream=0).random(8)
    b = make_rng(1, stream=0).random(8)
    c = make_rng(1, stream=1).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
