import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from netite.balance import (
    DegenerateGroupsError,
    SinkhornConfig,
    _median_with_support,
    exact_w1_oracle,
    wasserstein1,
)
from netite.linalg import make_rng

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
# groups exercise the log-domain fallback.
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


# 0.01 is the transport-oracle regime: K holds entries near e^-419 and
# the scalings are large, so an overflow in the backward would show.
@pytest.mark.parametrize("entropic_reg, max_iters", [(0.2, 200), (0.01, 500)])
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
                assert abs(grad[i, j] - fd) / denom < 1e-3


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
