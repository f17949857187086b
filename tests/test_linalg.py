import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from netite import linalg
from netite.balance import SinkhornConfig, wasserstein1
from netite.gradcheck import fd_max_rel_err
from netite.linalg import make_rng, relu, relu_backward, split_rows


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


# A product of SPLIT_MIN multiply-adds or more runs as two row halves.
def _big_operands(rows=300, inner=200, cols=80):
    rng = make_rng(11)
    return rng.normal(size=(rows, inner)), rng.normal(size=(inner, cols))


@pytest.fixture
def worker_calls(monkeypatch):
    """A list that gains one entry per split that reaches the worker."""
    calls = []
    worker = linalg._worker
    monkeypatch.setattr(linalg, "_worker", lambda: calls.append(1) or worker())
    return calls


@pytest.mark.parametrize("rows, inner, cols", [(300, 200, 80), (301, 199, 97), (5, 2000, 1000), (4, 7000, 150)])
def test_split_products_equal_whole_products_bit_for_bit(worker_calls, rows, inner, cols):
    a, b = _big_operands(rows, inner, cols)
    g = make_rng(12).normal(size=(rows, cols))
    y = make_rng(13).normal(size=(cols + 5, inner))
    cases = [(np.matmul, a, b, cols), (np.matmul, a.T, g, cols), (cdist, a, y, y.shape[0])]
    for f, p, q, width in cases:
        assert p.shape[0] * q.size >= linalg.SPLIT_MIN
        assert split_rows(f, p, q, width).tobytes() == f(p, q).tobytes()
    assert len(worker_calls) == len(cases)


def _no_worker():
    raise AssertionError("a product that runs whole reached the worker")


@pytest.mark.parametrize("rows, inner, cols", [(10, 20, 30), (3, 2000, 1000), (3000, 2000, 1)],
                         ids=["small", "one-row-half", "one-column"])
def test_products_that_run_whole_never_reach_the_worker(monkeypatch, rows, inner, cols):
    """Small products, and those where numpy would take its matrix-vector
    path for a half or for the whole, which rounds otherwise."""
    monkeypatch.setattr(linalg, "_worker", _no_worker)
    a, b = _big_operands(rows, inner, cols)
    assert split_rows(np.matmul, a, b, cols).tobytes() == (a @ b).tobytes()


def test_worker_exception_reraises_in_caller():
    a, b = _big_operands()
    caller = threading.current_thread()

    def fails_off_the_caller(p, q, out):
        if threading.current_thread() is not caller:
            raise ZeroDivisionError("raised on the worker")
        np.matmul(p, q, out=out)

    with pytest.raises(ZeroDivisionError, match="raised on the worker"):
        split_rows(fails_off_the_caller, a, b, b.shape[1])


def test_concurrent_callers_share_the_worker():
    """More callers than cores, switching often: every split still equals
    the whole product, and every caller finishes."""
    a, b = _big_operands()
    whole = (a @ b).tobytes()
    results = []

    def caller():
        results.extend(split_rows(np.matmul, a, b, b.shape[1]).tobytes() == whole for _ in range(20))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 120


def test_tiny_verify_loads_start_no_thread(monkeypatch):
    """The criterion-1 and criterion-2 loads submit nothing to the worker
    and start no thread: their products are far below SPLIT_MIN."""
    monkeypatch.setattr(linalg, "_worker", _no_worker)
    threads = threading.active_count()
    for seed in range(20):
        fd_max_rel_err(seed)
    rng = make_rng(2024)  # the criterion-2 cases
    cfg = SinkhornConfig(entropic_reg=0.01, max_iters=5000, convergence_tol=1e-12)
    for _ in range(50):
        k, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        wasserstein1(rng.normal(size=(k, d)), rng.normal(size=(k, d)), cfg).dist
    assert threading.active_count() == threads


def test_split_in_a_forked_child():
    """A child forked after a split has no worker thread; its own split
    must start one rather than wait on the parent's forever."""
    a, b = _big_operands()
    whole = a @ b
    assert split_rows(np.matmul, a, b, b.shape[1]).tobytes() == whole.tobytes()
    with warnings.catch_warnings():  # Python 3.12 warns on a fork with threads running
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if split_rows(np.matmul, a, b, b.shape[1]).tobytes() == whole.tobytes() else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 20
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's split did not finish in 20 s")
    assert os.waitstatus_to_exitcode(status[1]) == 0
