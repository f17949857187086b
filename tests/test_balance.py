import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

import netite
from netite import balance, linalg
from netite.balance import (
    DegenerateGroupsError,
    SinkhornConfig,
    _check_block,
    _kernel,
    _median_with_support,
    exact_w1_oracle,
    wasserstein1,
)
from netite.linalg import NumericError, make_rng
from conftest import count_worker_calls, run_on_one_blas_thread

TIGHT = SinkhornConfig(entropic_reg=0.01, max_iters=5000, convergence_tol=1e-12)


def test_identical_point_sets_near_zero():
    pts = make_rng(0).normal(size=(5, 3))
    res = wasserstein1(pts, pts.copy(), SinkhornConfig())
    med = np.median(cdist(pts, pts))
    assert res.dist < 0.05 * med


def test_singletons_ground_distance():
    res = wasserstein1(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]), TIGHT)
    assert abs(res.dist - 5.0) / 5.0 < 0.02


def test_two_vs_two_on_line():
    res = wasserstein1(np.array([[0.0], [1.0]]), np.array([[2.0], [3.0]]), TIGHT)
    assert abs(res.dist - 2.0) < 0.05


def test_empty_group_raises():
    with pytest.raises(DegenerateGroupsError):
        wasserstein1(np.empty((0, 2)), np.ones((2, 2)), SinkhornConfig())


# np.atleast_2d turns an empty 1-D input into one point with no
# coordinates, shape (1, 0); that group is empty too.
def test_empty_1d_groups_raise():
    with pytest.raises(DegenerateGroupsError):
        wasserstein1([], [], SinkhornConfig())
    with pytest.raises(DegenerateGroupsError):
        wasserstein1([], [[1.0, 2.0]], SinkhornConfig())
    with pytest.raises(DegenerateGroupsError):
        exact_w1_oracle([], [])
    with pytest.raises(DegenerateGroupsError):
        exact_w1_oracle(np.empty((0, 2)), np.empty((0, 2)))


# Zero potentials are zero arrays: exp(0 + 0 - B) equals exp(-B) bit for
# bit, on a B with zero entries, on one row, and on blocks of 2^16 cells
# (several per matrix, or rows wider than one).
@pytest.mark.parametrize("shape", [(5, 4), (1, 7), (200, 1000), (3, 70_000)])
def test_kernel_at_zero_potentials_is_exp_minus_b(shape):
    rng = make_rng(11)
    b_mat = rng.exponential(50.0, size=shape)
    b_mat[rng.random(shape) < 0.3] = 0.0
    got = _kernel(b_mat.copy(), np.zeros(shape[0]), np.zeros(shape[1]))
    assert got.tobytes() == np.exp(-b_mat).tobytes()


# Importing scipy.optimize adds about 10 MB to a process's peak resident
# memory, so the package must not import it, nor csgraph.
def test_import_leaves_out_scipy_optimize_and_csgraph():
    code = ("import sys, netite; "
            "print([m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.sparse.csgraph'))])")
    env_path = str(Path(netite.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": env_path})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("field, value", [
    ("max_iters", 2.5), ("max_iters", True), ("entropic_reg", math.inf), ("entropic_reg", math.nan),
    ("entropic_reg", True), ("convergence_tol", math.nan), ("convergence_tol", -1.0),
    ("convergence_tol", math.inf), ("convergence_tol", True)])
def test_sinkhorn_config_rejects_bad_field(field, value):
    with pytest.raises(ValueError, match=field):
        SinkhornConfig(**{field: value})


def test_oracle_identical_sets():
    pts = make_rng(1).normal(size=(4, 2))
    assert exact_w1_oracle(pts, pts.copy()) == 0.0


def test_oracle_singletons():
    assert exact_w1_oracle(np.array([[0.0]]), np.array([[3.0]])) == 3.0


def test_oracle_identity_matching():
    got = exact_w1_oracle(np.array([[0.0], [10.0]]), np.array([[1.0], [9.0]]))
    assert abs(got - 1.0) < 1e-12


def test_oracle_rejects_unequal_or_large():
    with pytest.raises(ValueError):
        exact_w1_oracle(np.ones((2, 1)), np.ones((3, 1)))
    with pytest.raises(ValueError):
        exact_w1_oracle(np.ones((9, 1)), np.ones((9, 1)))


def loop_w1_oracle(a, b):
    """`exact_w1_oracle` as a loop over the permutations, each coupling's
    cost summed left to right."""
    c = cdist(a, b)
    return min(sum(c[i, perm[i]] for i in range(len(a))) / len(a)
               for perm in itertools.permutations(range(len(a))))


# The oracle's one array expression adds each coupling's costs in the
# loop's order, so the two agree bit for bit.
@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_equals_loop_over_permutations(n):
    rng = make_rng(30 + n)
    for d, scale in ((1, 1e-2), (2, 1.0), (3, 1e2)):
        a, b = rng.normal(size=(n, d)) * scale, rng.normal(size=(n, d)) * scale
        assert float.hex(exact_w1_oracle(a, b)) == float.hex(float(loop_w1_oracle(a, b)))


def test_symmetry():
    rng = make_rng(2)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
    cfg = SinkhornConfig(entropic_reg=0.05, max_iters=20000, convergence_tol=1e-13)
    assert abs(wasserstein1(a, b, cfg).dist - wasserstein1(b, a, cfg).dist) < 1e-9


def test_translation_invariance():
    rng = make_rng(3)
    a, b = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    shift = np.array([10.0, -4.0])
    assert abs(exact_w1_oracle(a, b) - exact_w1_oracle(a + shift, b + shift)) < 1e-9
    d0 = wasserstein1(a, b, SinkhornConfig()).dist
    d1 = wasserstein1(a + shift, b + shift, SinkhornConfig()).dist
    assert abs(d0 - d1) / d0 < 0.01


# At 0.002, max C/eps reaches 1842 and exp(-C/eps) underflows, so these
# groups run from the shifted start and some absorb scalings.
@pytest.mark.parametrize("entropic_reg", [0.01, 0.002])
def test_oracle_agreement_random_groups(entropic_reg):
    cfg = SinkhornConfig(entropic_reg=entropic_reg, max_iters=5000, convergence_tol=1e-12)
    rng = make_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        res = wasserstein1(a, b, cfg)
        exact = exact_w1_oracle(a, b)
        assert abs(res.dist - exact) / exact < 0.05
        assert np.all(np.isfinite(res.grad_treated)) and np.all(np.isfinite(res.grad_control))


def test_nonnegative():
    rng = make_rng(5)
    for _ in range(10):
        a = rng.normal(size=(int(rng.integers(1, 5)), 2))
        b = rng.normal(size=(int(rng.integers(1, 5)), 2))
        assert wasserstein1(a, b, SinkhornConfig()).dist >= -1e-9


# 0.01 is the transport-oracle regime: K holds entries near e^-171 and
# the scalings are large, so an overflow in the backward would show. At
# 0.002 max C/eps is 857, past the plain start: Sinkhorn starts from
# shifted potentials (the log-domain fallback ran this case before, and
# missed finite differences by 5.5e-6). At 0.0005 the run absorbs
# scalings once, close enough to the cap that the gradient through the
# first segment counts: the backward must carry g_psi across.
@pytest.mark.parametrize("entropic_reg, max_iters", [(0.2, 200), (0.01, 500), (0.002, 1000), (0.0005, 1200)])
def test_gradient_matches_finite_differences(entropic_reg, max_iters):
    rng = make_rng(6)
    a, b = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
    cfg = SinkhornConfig(entropic_reg=entropic_reg, max_iters=max_iters, convergence_tol=0.0)
    res = wasserstein1(a, b, cfg)
    h = 1e-6
    for arr, grad, which in ((a, res.grad_treated, 0), (b, res.grad_control, 1)):
        for i in range(arr.shape[0]):
            for j in range(arr.shape[1]):
                plus, minus = arr.copy(), arr.copy()
                plus[i, j] += h
                minus[i, j] -= h
                if which == 0:
                    fd = (wasserstein1(plus, b, cfg).dist - wasserstein1(minus, b, cfg).dist) / (2 * h)
                else:
                    fd = (wasserstein1(a, plus, cfg).dist - wasserstein1(a, minus, cfg).dist) / (2 * h)
                denom = max(abs(grad[i, j]), abs(fd), 1e-6)
                assert abs(grad[i, j] - fd) / denom < 1e-6


# Six of the nine costs are zero, so the median cost is 0; eps used to
# fall to entropic_reg * 1e-12 and Sinkhorn to stop unconverged with
# gradients near 1e10.
def test_zero_median_cost_converges():
    a, b = np.array([[0.0], [0.0], [0.0]]), np.array([[0.0], [0.0], [5.0]])
    res = wasserstein1(a, b, SinkhornConfig())
    assert res.converged
    assert abs(res.dist - 5 / 3) < 0.05
    for grad in (res.grad_treated, res.grad_control):
        assert np.all(np.isfinite(grad)) and np.abs(grad).max() < 1.0


# Nine of the sixteen costs are zero, and they stay zero when the two
# free points move, so eps is the mean cost on both sides of every
# difference and its gradient is checked with the rest. At this
# entropic_reg, dropping the eps term moves the gradient by about 2%.
def test_zero_median_cost_gradient_matches_finite_differences():
    a = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 2.0]])
    b = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [3.0, 1.0]])
    cfg = SinkhornConfig(entropic_reg=0.5, max_iters=200, convergence_tol=0.0)
    res = wasserstein1(a, b, cfg)
    h = 1e-6
    for which, grad in ((0, res.grad_treated), (1, res.grad_control)):
        for j in range(2):
            plus, minus = [a.copy(), b.copy()], [a.copy(), b.copy()]
            plus[which][3, j] += h
            minus[which][3, j] -= h
            fd = (wasserstein1(*plus, cfg).dist - wasserstein1(*minus, cfg).dist) / (2 * h)
            assert abs(grad[3, j] - fd) / max(abs(fd), 1e-6) < 1e-6


def test_unconverged_cap_is_flagged():
    rng = make_rng(7)
    a, b = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    res = wasserstein1(a, b, SinkhornConfig(entropic_reg=0.01, max_iters=2, convergence_tol=1e-12))
    assert not res.converged
    assert res.iterations == 2
    assert np.isfinite(res.dist)


# A few repeated values give many ties; the shapes give odd and even sizes.
@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 13), st.integers(1, 13)),
              elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]) | st.floats(0.0, 10.0)))
def test_median_support_matches_stable_argsort(c):
    flat = c.ravel()
    order = np.argsort(flat, kind="stable")
    nn = flat.size
    ref_idx = [order[nn // 2]] if nn % 2 == 1 else [order[nn // 2 - 1], order[nn // 2]]
    ref_wts = [1.0] if nn % 2 == 1 else [0.5, 0.5]
    med, idx, wts = _median_with_support(c)
    assert [int(i) for i in idx] == [int(i) for i in ref_idx]
    assert wts == ref_wts
    assert med == float(sum(w * flat[i] for i, w in zip(ref_idx, ref_wts)))


def oracle_groups(index):
    """Group pair `index` of the stream `test_oracle_agreement_random_groups` draws."""
    rng = make_rng(4)
    for _ in range(index + 1):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    return a, b


def max_cost_over_eps(a, b, entropic_reg):
    c = cdist(a, b)
    return c.max() / (entropic_reg * _median_with_support(c)[0])


def gaussian_groups(seed, n1, n0, d):
    rng = make_rng(seed)
    return rng.normal(size=(n1, d)), rng.normal(size=(n0, d))


LOG_BOUND = math.log(balance._BOUND)

# (groups, config, the start it takes). Past max C/eps = ln(1e150) = 345
# Sinkhorn starts from shifted potentials; oracle group 24 at 0.002
# reaches 1842 and absorbs twice, and "absorbs-once" converges in 1,702
# iterations after one absorption. The "log-" cases are named for the
# log-domain iteration that ran them before the one scaling path. A case
# named "-converged" must converge; "scaling-converged" does so in 1,696
# iterations at max C/eps 63.
W1_CASES = {
    "scaling-fixed-iters": (gaussian_groups(6, 4, 3, 2),
                            SinkhornConfig(entropic_reg=0.2, max_iters=200, convergence_tol=0.0), "plain"),
    "scaling-large-scalings": (gaussian_groups(6, 4, 3, 2),
                               SinkhornConfig(entropic_reg=0.01, max_iters=500, convergence_tol=0.0), "plain"),
    "scaling-converged": (oracle_groups(0), SinkhornConfig(entropic_reg=0.05, max_iters=5000,
                                                           convergence_tol=1e-12), "plain"),
    "scaling-unequal-converged": (gaussian_groups(8, 7, 4, 3), SinkhornConfig(), "plain"),
    "scaling-unconverged-cap": (gaussian_groups(7, 6, 6, 2),
                                SinkhornConfig(entropic_reg=0.01, max_iters=2, convergence_tol=1e-12), "plain"),
    "log-converged": (oracle_groups(3), SinkhornConfig(entropic_reg=0.002, max_iters=5000,
                                                       convergence_tol=1e-12), "shifted"),
    "log-ratio-1577": (oracle_groups(0), SinkhornConfig(entropic_reg=0.002, max_iters=400,
                                                        convergence_tol=1e-12), "shifted"),
    "log-ratio-1842": (oracle_groups(24), SinkhornConfig(entropic_reg=0.002, max_iters=5000,
                                                         convergence_tol=1e-12), "shifted"),
    "absorbs-once": (gaussian_groups(3, 4, 3, 2), SinkhornConfig(entropic_reg=0.001, max_iters=3000,
                                                                  convergence_tol=1e-10), "shifted"),
}


# The value fields come from the forward alone; reading the gradients
# runs the backward and changes none of them.
@pytest.mark.parametrize("case", list(W1_CASES))
def test_w1_distance_equals_wasserstein1(case, backward_runs):
    (a, b), cfg, path = W1_CASES[case]
    assert (max_cost_over_eps(a, b, cfg.entropic_reg) > LOG_BOUND) == (path == "shifted")
    value, full = wasserstein1(a, b, cfg), wasserstein1(a, b, cfg)
    fields = (value.dist, value.converged, value.iterations)
    assert backward_runs == []
    assert full.grad_treated.shape == a.shape and full.grad_control.shape == b.shape
    assert len(backward_runs) == 1
    assert fields == (full.dist, full.converged, full.iterations)
    assert full.converged or not case.endswith("-converged")


def test_gradients_computed_once_on_first_read(backward_runs):
    (a, b), cfg, _ = W1_CASES["scaling-unequal-converged"]
    res = wasserstein1(a, b, cfg)
    assert res.converged and res.iterations > 0 and res.dist > 0
    assert backward_runs == []
    g0 = res.grad_control
    assert backward_runs == [(a.shape[0], b.shape[0])]
    g1 = res.grad_treated
    assert res.grad_control is g0 and res.grad_treated is g1
    assert len(backward_runs) == 1


def test_replace_on_unread_result(backward_runs):
    (a, b), cfg, _ = W1_CASES["scaling-fixed-iters"]
    want = wasserstein1(a, b, cfg)
    want_grads = (want.grad_treated, want.grad_control)
    backward_runs.clear()

    res = wasserstein1(a, b, cfg)
    moved = res._replace(dist=res.dist + 1.0)
    assert (moved.dist, moved.converged, moved.iterations) == (want.dist + 1.0, want.converged, want.iterations)
    assert res.dist == want.dist and backward_runs == []
    assert np.array_equal(moved.grad_treated, want_grads[0])
    assert np.array_equal(res.grad_control, want_grads[1])
    assert len(backward_runs) == 1  # the copy shares the original's backward

    res = wasserstein1(a, b, cfg)
    given = np.ones_like(a)
    swapped = res._replace(grad_treated=given)
    assert swapped.dist == want.dist and len(backward_runs) == 1
    assert swapped.grad_treated is given
    assert np.array_equal(swapped.grad_control, want_grads[1])
    assert np.array_equal(res.grad_treated, want_grads[0])
    assert len(backward_runs) == 2
    assert res._replace(converged=False).converged is False and res.converged == want.converged
    with pytest.raises(ValueError):
        res._replace(distance=0.0)


def test_w1_memory_unread_and_read():
    """An unread result keeps C and the iterates, the backward's inputs,
    and rebuilds B, K, K^T and the plan when a gradient is first read;
    keeping those four as well held 5 n1 x n0 buffers. The forward and
    the backward each peaked near 6.4 such buffers when each step made
    its own arrays (the next test bounds them now), against 9.4 when the
    backward ran at once. Both runs converge in 29 iterations, so a cap
    of 100,000 must cost no more than one of 300: no buffer may be sized
    by the cap. tracemalloc counts numpy's buffers and only this test's
    allocations."""
    a, b = gaussian_groups(0, 600, 600, 3)
    unit = a.shape[0] * b.shape[0] * 8
    for max_iters in (300, 100_000):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = wasserstein1(a, b, SinkhornConfig(max_iters=max_iters))
            held = tracemalloc.get_traced_memory()[0] - base
            res.grad_treated
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.converged and res.iterations < 300
        assert held < 2 * unit
        assert peak < 7 * unit


def test_w1_memory_in_reused_buffers():
    """The forward keeps every n1 x n0 value in C, K and one work buffer
    (K^T, then the plan) and peaks near 3.2 such buffers; the gradient
    read adds the backward's K, work, one more buffer and the gradient,
    and peaks near 5.5. With fresh arrays for each step they peaked at
    6.1 and 6.4."""
    a, b = gaussian_groups(0, 600, 600, 3)
    unit = a.shape[0] * b.shape[0] * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = wasserstein1(a, b, SinkhornConfig())
        forward = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        res.grad_treated
        read = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert forward < 4 * unit
    assert read < 6 * unit


def test_w1_backward_holds_two_iterate_histories():
    """Beyond what the result holds, the gradient read keeps two iterate
    histories per segment, X and Y, together T (n1 + n0) floats: it scales
    them in place from v/b and u/a. Holding u/a, v/b, -u and -v besides
    took about 3 such units. At 40 x 40 with tol 0 and a cap of 4000 the
    histories outweigh every n1 x n0 buffer."""
    a, b = gaussian_groups(0, 40, 40, 3)
    cfg = SinkhornConfig(max_iters=4000, convergence_tol=0.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = wasserstein1(a, b, cfg)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        res.grad_treated
        read = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.iterations == 4000
    assert read - held < 1.5 * res.iterations * (a.shape[0] + b.shape[0]) * 8



def assert_w1_split_off_same_bytes():
    """On 905 x 883 groups with tol 0 and a cap of 120, W1 gives the same
    dist, iteration count and gradient bytes with every pass whole
    (SPLIT_MIN = math.inf) as in halves. The forward splits 2 + 2 * 120 +
    4: its cost matrix, Sinkhorn's products by a vector, and the passes
    B = C/eps, K from B, the copy K -> K^T and the plan. The gradient read
    splits 2 * 120 + 2 + 2 + 7: Sinkhorn's products by a vector, the
    K-shaped products, the point-gradient products, and the passes C/eps,
    K, the plan, B with P∘B and P∘(1 - B), K -> K^T, the segment's end
    (acc - Y^T V) * K into g_b, and g_c / C where C > 0. At entropic_reg
    0.01 no iterate repeats the one before it, so every one of the 120 is
    computed."""
    a, b = gaussian_groups(3, 905, 883, 100)
    cfg = SinkhornConfig(entropic_reg=0.01, max_iters=120, convergence_tol=0.0)
    calls = count_worker_calls()
    res = wasserstein1(a, b, cfg)
    assert len(calls) == 2 + 2 * 120 + 4
    grads = (res.grad_treated, res.grad_control)
    assert len(calls) == 2 + 2 * 120 + 4 + 2 * 120 + 2 + 2 + 7 and res.iterations == 120
    linalg.SPLIT_MIN = math.inf
    ref = wasserstein1(a, b, cfg)
    assert len(calls) == 497
    assert np.float64(res.dist).tobytes() == np.float64(ref.dist).tobytes() and ref.iterations == 120
    assert all(g.tobytes() == r.tobytes() for g, r in zip(grads, (ref.grad_treated, ref.grad_control)))


def test_w1_same_bytes_with_the_split_off():
    run_on_one_blas_thread("test_balance.assert_w1_split_off_same_bytes()")

# Property tests of the W1 invariants. Coordinates lie on a grid of
# spacing 1/4, so two points either coincide or lie at least 1/4 apart,
# and rounding in a translation cannot merge or split them.
GRID = st.integers(-40, 40).map(lambda k: k / 4)


@st.composite
def group_pairs(draw, max_size=6):
    d = draw(st.integers(1, 3))
    n1, n0 = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    coords = draw(st.lists(GRID, min_size=(n1 + n0) * d, max_size=(n1 + n0) * d))
    pts = np.array(coords).reshape(n1 + n0, d)
    return pts[:n1], pts[n1:]


# Swapping the groups changes the order of the Sinkhorn updates, so the
# two runs agree only once both have met the marginal tolerance. A few
# drawn pairs (about 3% of uniform grid draws) converge too slowly for
# the cap, for example [0, 1/4] against [0, 1/2], and are skipped.
@settings(max_examples=150, deadline=None)
@given(group_pairs())
def test_w1_swapping_groups_keeps_distance(groups):
    a, b = groups
    cfg = SinkhornConfig(entropic_reg=0.1, max_iters=5000, convergence_tol=1e-10)
    ab, ba = wasserstein1(a, b, cfg), wasserstein1(b, a, cfg)
    assume(ab.converged and ba.converged)
    assert abs(ab.dist - ba.dist) <= 100 * cfg.convergence_tol * max(1.0, ab.dist)


# A translation leaves every pairwise cost equal up to rounding, so with a
# fixed iteration count the two runs take the same steps and agree to
# rounding, converged or not.
@settings(max_examples=150, deadline=None)
@given(group_pairs(), st.lists(st.floats(-100, 100), min_size=3, max_size=3))
def test_w1_translating_both_groups_keeps_distance(groups, shift):
    a, b = groups
    shift = np.array(shift[: a.shape[1]])
    cfg = SinkhornConfig(entropic_reg=0.1, max_iters=300, convergence_tol=0.0)
    here, there = wasserstein1(a, b, cfg), wasserstein1(a + shift, b + shift, cfg)
    assert abs(here.dist - there.dist) <= 1e-12 * max(1.0, here.dist)


# Equal groups of 1..8 Gaussian points, drawn as criterion 2 draws them,
# then scaled and shifted; criterion 2's configuration and tolerance.
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.floats(1e-2, 1e2), st.floats(-100, 100))
def test_w1_oracle_gap_equal_groups(n, d, seed, scale, shift):
    a, b = gaussian_groups(seed, n, n, d)
    a, b = a * scale + shift, b * scale + shift
    exact = exact_w1_oracle(a, b)
    assert abs(wasserstein1(a, b, TIGHT).dist - exact) / max(exact, 1e-12) < 0.05


def exact_w1_unequal(a, b):
    """Exact W1 between the uniform measures on a and b: with each row of a
    repeated lcm/n1 times and each row of b lcm/n0 times, both are uniform
    on lcm points, and an optimal coupling is a permutation."""
    m = math.lcm(a.shape[0], b.shape[0])
    c = cdist(np.repeat(a, m // a.shape[0], axis=0), np.repeat(b, m // b.shape[0], axis=0))
    rows, cols = linear_sum_assignment(c)
    return c[rows, cols].sum() / m


# The unequal-size twin of the test above, against an assignment on the
# replicated cost matrix.
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.floats(1e-2, 1e2), st.floats(-100, 100))
def test_w1_oracle_gap_unequal_groups(n1, n0, d, seed, scale, shift):
    assume(n1 != n0)
    a, b = gaussian_groups(seed, n1, n0, d)
    a, b = a * scale + shift, b * scale + shift
    exact = exact_w1_unequal(a, b)
    assert abs(wasserstein1(a, b, TIGHT).dist - exact) / max(exact, 1e-12) < 0.05


def reference_sinkhorn_scaling(c, eps, cfg):
    """The scaling path of `balance` before the one Sinkhorn path, as it
    was before the convergence check ran once per block: K = exp(-C/eps),
    one check per iteration, and 0.0 - u_t * K x_t in the backward, which
    it returns as a deferred step, as `_sinkhorn` does. It fails where
    that code fell back to the log domain."""
    b_mat = c / eps
    n1, n0 = b_mat.shape
    a, b = 1.0 / n1, 1.0 / n0
    assert b_mat.max() <= 700, "the old code ran the log domain here"
    k = np.exp(-b_mat)
    kt = np.ascontiguousarray(k.T)
    us, vs = [], [np.full(n0, b)]
    kv = k.dot(vs[0])
    converged = False
    for _ in range(cfg.max_iters):
        u = a / kv
        v = b / kt.dot(u)
        us.append(u)
        vs.append(v)
        kv = k.dot(v)
        if cfg.convergence_tol > 0 and np.maximum.reduce(np.abs(u * kv - a)) < cfg.convergence_tol:
            converged = True
            break
    iters = len(us)
    u_hist, v_hist = np.array(us), np.array(vs)
    tiny = np.finfo(np.float64).tiny
    for hist, m in ((u_hist, a), (v_hist, b)):
        assert tiny <= hist.min() and hist.max() <= m / tiny, "the old code ran the log domain here"
    p = u[:, None] * k * v[None, :]

    def backward():
        pb = p * b_mat
        g_phi = pb.sum(axis=1)
        g_psi = pb.sum(axis=0)
        eu, ev, nv = u_hist / a, v_hist / b, -v_hist
        x_hist, y_hist = np.empty((iters, n0)), np.empty((iters, n1))
        for u_t, eu_t, ev_t, nv_prev, x, y in zip(
                u_hist[::-1], eu[::-1], ev[:0:-1], nv[-2::-1], x_hist[::-1], y_hist[::-1]):
            np.multiply(ev_t, g_psi, out=x)
            g_phi = g_phi - u_t * k.dot(x)
            np.multiply(eu_t, g_phi, out=y)
            g_psi = nv_prev * kt.dot(y)
            g_phi = 0.0
        g_b = p * (1.0 - b_mat) + k * (u_hist.T @ x_hist + y_hist.T @ v_hist[:-1])
        assert np.all(np.isfinite(g_b)), "the old code ran the log domain here"
        return g_b

    return p, backward, converged, iters


def criterion_2_stream():
    rng = make_rng(2024)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        yield rng.normal(size=(k, d)), rng.normal(size=(k, d))


BLOCK_EXIT = SinkhornConfig(entropic_reg=0.1, max_iters=3000, convergence_tol=1e-9)

# (group pairs, config, where the run stops: at a cap that is not a
# multiple of the block, or on the first or last iteration of a block)
BLOCK_CASES = {
    "criterion-2-stream": (list(criterion_2_stream()), TIGHT, None),
    "tol-0": ([gaussian_groups(6, 4, 3, 2)], SinkhornConfig(entropic_reg=0.2, max_iters=150, convergence_tol=0.0),
              "cap"),
    "exit-first-of-block": ([gaussian_groups(3, 3, 5, 2)], BLOCK_EXIT, "first"),
    "exit-last-of-block": ([gaussian_groups(218, 3, 5, 2)], BLOCK_EXIT, "last"),
    "cap-not-a-block-multiple": ([gaussian_groups(1, 4, 4, 2)],
                                 SinkhornConfig(entropic_reg=0.01, max_iters=45, convergence_tol=1e-12), "cap"),
    "2^14-cells-up": ([gaussian_groups(0, 130, 130, 3)], SinkhornConfig(), None),
    # named for the log-domain fallback that ran it before; it absorbs twice
    "log-fallback": ([oracle_groups(24)], SinkhornConfig(entropic_reg=0.002, max_iters=5000,
                                                         convergence_tol=1e-12), None),
    "absorbs-once": ([W1_CASES["absorbs-once"][0]], W1_CASES["absorbs-once"][1], None),
    # v repeats bit for bit from iteration 42, mid-block, short of a 1e-18 tolerance
    "fixed-point-tol-1e-18": ([gaussian_groups(1, 2, 3, 2)],
                              SinkhornConfig(entropic_reg=0.2, max_iters=150, convergence_tol=1e-18), "cap"),
}


# The same runs with a convergence check after every iteration. Blocks
# restart with each segment, and the iterates a block ran past an exit
# or an overflow are discarded, so the two agree bit for bit.
@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_block_convergence_check_matches_per_iteration_check(case, monkeypatch):
    groups, cfg, stop = BLOCK_CASES[case]
    got = [wasserstein1(a, b, cfg) for a, b in groups]
    monkeypatch.setattr(balance, "_check_block", lambda cells: 1)
    want = [wasserstein1(a, b, cfg) for a, b in groups]
    for (a, b), full, ref in zip(groups, got, want):
        assert (full.dist, full.converged, full.iterations) == (ref.dist, ref.converged, ref.iterations)
        assert np.array_equal(full.grad_treated, ref.grad_treated)
        assert np.array_equal(full.grad_control, ref.grad_control)
        cells = a.shape[0] * b.shape[0]
        block = _check_block(cells)
        assert (block == 1) == (cells >= 2**14)
        if stop == "cap":
            assert not full.converged and full.iterations == cfg.max_iters and cfg.max_iters % block != 0
        elif stop is not None:
            assert full.converged and (full.iterations - 1) % block == (0 if stop == "first" else block - 1)


def fixed_from(a, b, cfg):
    """The first iteration whose v the next one repeats bit for bit, from
    the plain start with the operations of `reference_sinkhorn_scaling`,
    or None within the cap."""
    c = cdist(a, b)
    k = np.exp(-(c / (cfg.entropic_reg * _median_with_support(c)[0])))
    kt = np.ascontiguousarray(k.T)
    v = np.full(b.shape[0], 1.0 / b.shape[0])
    for t in range(cfg.max_iters):
        v, before = (1.0 / b.shape[0]) / kt.dot((1.0 / a.shape[0]) / k.dot(v)), v
        if np.array_equal(v, before):
            return t
    return None


# Runs that reach a fixed point without converging: `_sinkhorn` stops
# there and copies the last iterate up to the cap. The block and
# old-path tests hold each to the runs that compute every iteration.
FIXED_FROM = {"scaling-fixed-iters": 58, "scaling-large-scalings": 262, "tol-0": 58, "fixed-point-tol-1e-18": 42}


@pytest.mark.parametrize("case", list(FIXED_FROM))
def test_unconverged_cases_reach_a_fixed_point(case):
    if case in W1_CASES:
        (a, b), cfg, _ = W1_CASES[case]
    else:
        [(a, b)], cfg, _ = BLOCK_CASES[case]
    assert fixed_from(a, b, cfg) == FIXED_FROM[case] < cfg.max_iters - 1
    assert (cfg.convergence_tol > 0) == case.endswith("1e-18")
    res = wasserstein1(a, b, cfg)
    assert not res.converged and res.iterations == cfg.max_iters


def case_groups():
    for (a, b), cfg, _ in W1_CASES.values():
        yield a, b, cfg
    for groups, cfg, _ in BLOCK_CASES.values():
        for a, b in groups:
            yield a, b, cfg


# Where the old code ran its scaling path (max C/eps <= 700), the one path
# equals it bit for bit from the plain start. From the shifted start
# (max C/eps > ln(1e150)) K holds exp(f + g - B), not exp(-B), so the
# sums round differently: dist is held to 1e-12 relative and the
# gradients to 1e-10 of their largest entry.
def test_sinkhorn_matches_old_scaling_path(monkeypatch):
    starts = set()
    for a, b, cfg in case_groups():
        ratio = max_cost_over_eps(a, b, cfg.entropic_reg)
        if ratio > 700:
            continue
        got = wasserstein1(a, b, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(balance, "_sinkhorn", reference_sinkhorn_scaling)
            want = wasserstein1(a, b, cfg)
        assert (got.converged, got.iterations) == (want.converged, want.iterations)
        grads = ((got.grad_treated, want.grad_treated), (got.grad_control, want.grad_control))
        if ratio <= LOG_BOUND:
            assert got.dist == want.dist
            assert all(np.array_equal(g, w) for g, w in grads)
        else:
            assert abs(got.dist - want.dist) <= 1e-12 * abs(want.dist)
            scale = max(np.abs(w).max() for _, w in grads)
            assert all(np.abs(g - w).max() <= 1e-10 * scale for g, w in grads)
        starts.add(ratio <= LOG_BOUND)
    assert starts == {True, False}


# `dist` of the cases the old code ran in the log domain, as it computed it.
# Its gradients there are no reference: they miss central finite
# differences where the one path's match them (5.5e-6 against 6.4e-9 in
# test_gradient_matches_finite_differences[0.002-1000]).
OLD_LOG_DIST = {
    "log-converged": "0x1.56ef776df770dp-1",
    "log-ratio-1577": "0x1.b4377fdf02ca8p+0",
    "log-ratio-1842": "0x1.3cfa49149943ep-1",
    "absorbs-once": "0x1.0514425828034p+0",
}


@pytest.mark.parametrize("case", list(OLD_LOG_DIST))
def test_former_log_path_cases_keep_old_distance(case):
    (a, b), cfg, _ = W1_CASES[case]
    want = float.fromhex(OLD_LOG_DIST[case])
    assert abs(wasserstein1(a, b, cfg).dist - want) <= 1e-9 * want


# The backward's products round by the memory order of the iterates; it
# takes them in C order, so F-ordered copies give the same gradient bits.
def test_backward_gradient_bits_do_not_depend_on_history_layout(monkeypatch):
    steps, sinkhorn = [], balance._sinkhorn

    def keep_step(*args):
        out = sinkhorn(*args)
        steps.append(out[1])
        return out

    monkeypatch.setattr(balance, "_sinkhorn", keep_step)
    for a, b, cfg in case_groups():
        wasserstein1(a, b, cfg)
    for step in steps:
        c, eps, segments = step.args
        f_order = [(f, g, np.asfortranarray(u), np.asfortranarray(v)) for f, g, u, v in segments]
        assert balance._sinkhorn_backward(c, eps, f_order).tobytes() == step().tobytes()


# A segment that keeps no iterate would make no progress: it raises
# instead of looping. A bound of 1 puts every scaling but a, b out of range.
def test_scaling_out_of_range_at_segment_start_raises(monkeypatch):
    monkeypatch.setattr(balance, "_BOUND", 1.0)
    (a, b), cfg, _ = W1_CASES["scaling-fixed-iters"]
    with pytest.raises(NumericError):
        wasserstein1(a, b, cfg)
