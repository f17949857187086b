import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from netite import balance, linalg
from netite.balance import SinkhornConfig, wasserstein1
from netite.gradcheck import fd_max_rel_err
from netite.graph import normalize_adjacency
from netite.linalg import make_rng, relu, relu_backward, row_halves, sparse_rows, split_rows
from netite.simgen import SimConfig, simulate
from conftest import count_worker_calls, run_on_one_blas_thread


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


def assert_split_products_equal_whole(rows, inner, cols):
    """Into a new array and into a given one."""
    calls = count_worker_calls()
    a, b = _big_operands(rows, inner, cols)
    g = make_rng(12).normal(size=(rows, cols))
    y = make_rng(13).normal(size=(cols + 5, inner))
    cases = [(np.matmul, a, b, cols), (np.matmul, a.T, g, cols), (cdist, a, y, y.shape[0])]
    for f, p, q, width in cases:
        assert p.shape[0] * q.size >= linalg.SPLIT_MIN
        whole = f(p, q).tobytes()
        assert split_rows(f, p, q, width).tobytes() == whole
        out = np.empty((p.shape[0], width))
        assert split_rows(f, p, q, width, out=out) is out and out.tobytes() == whole
    assert len(calls) == 2 * len(cases)


# (400, 500, 300) and (905, 120, 883) differ from the whole product when
# split at m // 2, off OpenBLAS's row blocks.
@pytest.mark.parametrize("rows, inner, cols", [(300, 200, 80), (301, 199, 97), (400, 500, 300), (905, 120, 883)])
def test_split_products_equal_whole_products_bit_for_bit(rows, inner, cols):
    run_on_one_blas_thread(f"test_linalg.assert_split_products_equal_whole({rows}, {inner}, {cols})")


def assert_split_matrix_vector_products_equal_whole(rows, cols):
    calls = count_worker_calls()
    k = make_rng(14).normal(size=(rows, cols))
    x = make_rng(15).normal(size=cols)
    assert 16 * k.size >= linalg.SPLIT_MIN
    dot = linalg.matvec(k)
    out = np.empty(rows)
    assert dot(x).tobytes() == k.dot(x).tobytes()
    assert dot(x, out=out) is out and out.tobytes() == k.dot(x).tobytes()
    assert len(calls) == 2


@pytest.mark.parametrize("rows, cols", [(905, 883), (512, 600), (1001, 263), (4099, 65)])
def test_split_matrix_vector_products_equal_whole_bit_for_bit(rows, cols):
    """From SPLIT_MIN / 16 cells up, a product by a vector splits at a
    multiple of 4 rows; other boundaries round some halves otherwise."""
    run_on_one_blas_thread(f"test_linalg.assert_split_matrix_vector_products_equal_whole({rows}, {cols})")


def _no_worker():
    raise AssertionError("a product that runs whole reached the worker")


@pytest.mark.parametrize("rows, inner, cols", [(10, 20, 30), (3, 2000, 1000), (3000, 2000, 1), (5, 2000, 1000),
                                               (4, 7000, 150), (47, 2000, 1000)],
                         ids=["small", "one-row-half", "one-column", "five-rows", "four-rows", "47-rows"])
def test_products_that_run_whole_never_reach_the_worker(monkeypatch, rows, inner, cols):
    """Small products; those whose first half, m // 2 rounded down to a
    multiple of 24 rows, would be empty; and those where numpy would take
    its matrix-vector path for the whole, which rounds otherwise."""
    monkeypatch.setattr(linalg, "_worker", _no_worker)
    a, b = _big_operands(rows, inner, cols)
    assert split_rows(np.matmul, a, b, cols).tobytes() == (a @ b).tobytes()


def test_small_matrix_vector_products_run_whole():
    """Below SPLIT_MIN / 16 cells, matvec is the matrix's own dot."""
    k = np.ones((512, 511))
    assert 16 * k.size < linalg.SPLIT_MIN
    assert linalg.matvec(k) == k.dot


def test_split_off_at_infinity(monkeypatch):
    """SPLIT_MIN = math.inf turns every split off."""
    monkeypatch.setattr(linalg, "_worker", _no_worker)
    monkeypatch.setattr(linalg, "SPLIT_MIN", math.inf)
    a, b = _big_operands(905, 883, 120)
    assert split_rows(np.matmul, a, b, b.shape[1]).tobytes() == (a @ b).tobytes()
    assert linalg.matvec(a) == a.dot
    assert relu(a).tobytes() == np.maximum(a, 0.0).tobytes()
    eye = sp.identity(905, format="csr")
    assert sparse_rows(eye, a, a[0]).tobytes() == (eye @ a + a[0]).tobytes()
    seen = []
    row_halves(lambda x: seen.append(x.shape), a)
    assert seen == [a.shape]


def test_worker_exception_reraises_in_caller():
    a, b = _big_operands()
    caller = threading.current_thread()

    def fails_off_the_caller(p, q, out):
        if threading.current_thread() is not caller:
            raise ZeroDivisionError("raised on the worker")
        np.matmul(p, q, out=out)

    with pytest.raises(ZeroDivisionError, match="raised on the worker"):
        split_rows(fails_off_the_caller, a, b, b.shape[1])
    assert split_rows(np.matmul, a, b, b.shape[1]).tobytes() == (a @ b).tobytes()


def test_split_keeps_no_reference_to_its_arrays():
    """Once a split returns, the worker holds none of its operands or its
    output: each dies when the caller drops it."""
    a, b = _big_operands()
    out = split_rows(np.matmul, a, b, b.shape[1])
    k = make_rng(19).normal(size=(905, 883))
    k2 = row_halves(lambda y, x: np.multiply(x, 2.0, out=y), np.empty(k.shape), k)
    refs = [weakref.ref(x) for x in (a, b, out, k, k2)]
    del a, b, out, k, k2
    assert all(r() is None for r in refs)


def test_caller_that_finds_the_worker_busy_runs_whole():
    a, b = _big_operands()
    seen = []

    def f(p, q, out):
        seen.append((threading.current_thread(), p.shape[0]))
        np.matmul(p, q, out=out)

    caller = threading.Thread(target=split_rows, args=(f, a, b, b.shape[1]))
    with linalg._worker().busy:
        caller.start()
        caller.join(timeout=20)
    assert not caller.is_alive() and seen == [(caller, a.shape[0])]


def test_concurrent_callers_share_the_worker():
    """More callers than cores, switching often: every split, or whole run
    where another caller holds the worker, equals the whole product, and
    every caller finishes. In-process: the import holds OpenBLAS at one
    thread (test_import_holds_openblas_at_one_thread)."""
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
    and start no thread: their products are far below SPLIT_MIN. Sinkhorn
    takes its products by a vector whole for the whole run, so a
    criterion-2 run calls split_rows for its cost matrix alone."""
    monkeypatch.setattr(linalg, "_worker", _no_worker)
    threads = threading.active_count()
    for seed in range(20):
        fd_max_rel_err(seed)
    calls = []
    monkeypatch.setattr(balance, "split_rows", lambda *args, **kw: calls.append(1) or split_rows(*args, **kw))
    rng = make_rng(2024)  # the criterion-2 cases
    cfg = SinkhornConfig(entropic_reg=0.01, max_iters=5000, convergence_tol=1e-12)
    for _ in range(50):
        k, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        wasserstein1(rng.normal(size=(k, d)), rng.normal(size=(k, d)), cfg).dist
    assert threading.active_count() == threads
    assert len(calls) == 50


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


def test_import_holds_openblas_at_one_thread():
    """Where numpy bundles scipy-openblas, importing netite sets it to one
    thread, whatever OPENBLAS_NUM_THREADS says."""
    root = Path(np.__file__).parent
    libs = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    if not libs:
        pytest.skip("numpy bundles no scipy-openblas here")
    code = "import ctypes, sys, netite; print(ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_())"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(Path(linalg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, str(libs[0])], capture_output=True, text=True, env=env)
    assert out.returncode == 0 and out.stdout == "1\n", out.stderr


def assert_one_cpu_runs_whole():
    calls = count_worker_calls()
    a, b = _big_operands(905, 883, 120)
    assert split_rows(np.matmul, a, b, b.shape[1]).tobytes() == (a @ b).tobytes()
    assert relu(a).tobytes() == np.maximum(a, 0.0).tobytes()
    assert not calls and threading.active_count() == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_process_on_one_cpu_never_reaches_the_worker():
    """The split costs 4-10% where both halves share one core, so a process
    that may run on one CPU only runs every pass whole, with the same bytes."""
    run_on_one_blas_thread("test_linalg.assert_one_cpu_runs_whole()",
                           first="import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})")


def assert_sparse_products_equal_whole():
    """A_hat (H W) + b and A_hat G at the paper default: 3000 x 100."""
    calls = count_worker_calls()
    ahat = normalize_adjacency(simulate(SimConfig(seed=0)).net)
    m = make_rng(16).normal(size=(ahat.shape[0], 100))
    b = make_rng(17).normal(size=100)
    assert 16 * m.size >= linalg.SPLIT_MIN
    assert sparse_rows(ahat, m).tobytes() == (ahat @ m).tobytes()
    assert sparse_rows(ahat, m, b).tobytes() == (ahat @ m + b).tobytes()
    assert len(calls) == 2


def test_sparse_products_equal_whole_products_bit_for_bit():
    run_on_one_blas_thread("test_linalg.assert_sparse_products_equal_whole()")


def assert_relu_passes_equal_whole():
    """At 3000 x 100, with zeros of both signs, infinities and NaNs."""
    calls = count_worker_calls()
    m, up = make_rng(18).normal(size=(2, 3000, 100))
    m[::7, ::3], m[1::7, ::5], m[2::11, ::7], up[::5, ::2] = 0.0, -0.0, np.nan, -0.0
    up[3::13, ::3], m[4::17, ::4] = np.inf, -np.inf
    assert 16 * m.size >= linalg.SPLIT_MIN
    assert relu(m).tobytes() == np.maximum(m, 0.0).tobytes()
    assert relu_backward(m, up).tobytes() == np.where(m > 0.0, up, 0.0).tobytes()
    assert len(calls) == 2


def test_relu_passes_equal_whole_passes_bit_for_bit():
    run_on_one_blas_thread("test_linalg.assert_relu_passes_equal_whole()")


def test_row_halves_cut_every_array_by_rows(monkeypatch):
    """Each half gets its rows of every array passed, a transposed view
    included; what broadcasts along the rows comes from fn itself."""
    calls, worker = [], linalg._worker
    monkeypatch.setattr(linalg, "_worker", lambda: calls.append(1) or worker())
    k = make_rng(19).normal(size=(905, 883))
    u, v = make_rng(20).normal(size=905), make_rng(21).normal(size=883)
    kt = np.empty((883, 905))
    row_halves(np.copyto, kt, k.T)
    assert kt.tobytes() == np.ascontiguousarray(k.T).tobytes()
    out = np.empty(k.shape)
    row_halves(lambda out, u, k: np.multiply(np.multiply(u[:, None], k, out=out), v, out=out), out, u, k)
    assert out.tobytes() == (u[:, None] * k * v).tobytes()
    assert len(calls) == (0 if linalg._ONE_CPU else 2)
