import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from netite import balance
from netite.balance import (
    DegenerateGroupsError,
    SinkhornConfig,
    _check_block,
    _median_with_support,
    exact_w1_oracle,
    w1_distance,
    wasserstein1,
)
from netite.linalg import NumericError, make_rng

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
# log-domain iteration that ran them before the one scaling path.
W1_CASES = {
    "scaling-fixed-iters": (gaussian_groups(6, 4, 3, 2),
                            SinkhornConfig(entropic_reg=0.2, max_iters=200, convergence_tol=0.0), "plain"),
    "scaling-large-scalings": (gaussian_groups(6, 4, 3, 2),
                               SinkhornConfig(entropic_reg=0.01, max_iters=500, convergence_tol=0.0), "plain"),
    "scaling-converged": (oracle_groups(0), TIGHT, "plain"),
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


@pytest.mark.parametrize("case", list(W1_CASES))
def test_w1_distance_equals_wasserstein1(case):
    (a, b), cfg, path = W1_CASES[case]
    assert (max_cost_over_eps(a, b, cfg.entropic_reg) > LOG_BOUND) == (path == "shifted")
    value, full = w1_distance(a, b, cfg), wasserstein1(a, b, cfg)
    assert (value.dist, value.converged, value.iterations) == (full.dist, full.converged, full.iterations)
    assert value.grad_treated is None and value.grad_control is None
    assert full.grad_treated.shape == a.shape and full.grad_control.shape == b.shape


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
    ab, ba = w1_distance(a, b, cfg), w1_distance(b, a, cfg)
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
    here, there = w1_distance(a, b, cfg), w1_distance(a + shift, b + shift, cfg)
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
    assert abs(w1_distance(a, b, TIGHT).dist - exact) / max(exact, 1e-12) < 0.05


def reference_sinkhorn_scaling(b_mat, cfg, grad):
    """The scaling path of `balance` before the one Sinkhorn path, as it
    was before the convergence check ran once per block: K = exp(-C/eps),
    one check per iteration, and 0.0 - u_t * K x_t in the backward. It
    fails where that code fell back to the log domain."""
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
    if not grad:
        return p, None, converged, iters
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
    return p, g_b, converged, iters


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


# A segment that keeps no iterate would make no progress: it raises
# instead of looping. A bound of 1 puts every scaling but a, b out of range.
def test_scaling_out_of_range_at_segment_start_raises(monkeypatch):
    monkeypatch.setattr(balance, "_BOUND", 1.0)
    (a, b), cfg, _ = W1_CASES["scaling-fixed-iters"]
    with pytest.raises(NumericError):
        w1_distance(a, b, cfg)
