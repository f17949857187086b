import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from netite import io as nio
from netite import linalg, runner
from netite.balance import SinkhornConfig
from netite.gradcheck import random_tiny_instance
from netite.graph import Network, normalize_adjacency
from netite.linalg import make_rng
from netite.model import (
    ModelParams,
    backward,
    encode,
    forward,
    init_params,
    predict,
)
from netite.runner import TrainConfig, make_split, objective
from netite.simgen import SimConfig, simulate
from test_acceptance import ORDERING_SIM, ORDERING_TRAIN


def small_cfg(**kw):
    base = dict(alpha=0.0, lam=0.0, epochs=1, gcn_layers=1, out_layers=1,
                rep_dim=2, hidden_units=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_init_deterministic():
    cfg = small_cfg()
    a = init_params(cfg, 3, make_rng(0))
    b = init_params(cfg, 3, make_rng(0))
    assert np.array_equal(a.flatten(), b.flatten())


def test_init_glorot_bounds_and_zero_biases():
    cfg = small_cfg(gcn_layers=2, out_layers=2, rep_dim=4, hidden_units=5)
    p = init_params(cfg, 7, make_rng(1))
    for w in p.gcn_weights + p.head_weights[0] + p.head_weights[1]:
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.all(np.abs(w) <= bound)
    for b in p.gcn_biases + p.head_biases[0] + p.head_biases[1]:
        assert np.array_equal(b, np.zeros_like(b))


def test_init_reduced_feature_dimension():
    # 1,210-dimensional bag-of-words input with 100-dimensional representations
    cfg = small_cfg(rep_dim=100, hidden_units=100)
    p = init_params(cfg, 1210, make_rng(0))
    assert p.gcn_weights[0].shape == (1210, 100)


def identity_params(m, cfg):
    """Weights set to identity maps, biases zero."""
    p = init_params(cfg, m, make_rng(0))
    for w in p.gcn_weights:
        w[:] = np.eye(*w.shape)
    for t in (0, 1):
        for w in p.head_weights[t]:
            w[:] = np.eye(*w.shape)
        p.head_weights[t][-1][:] = 1.0
    return p


def test_encode_isolated_identity():
    cfg = small_cfg()
    p = identity_params(2, cfg)
    ahat = normalize_adjacency(Network.from_pairs(1, []))
    h = encode(p, ahat, np.array([[2.0, -3.0]]))[0]
    assert np.array_equal(h, np.array([[2.0, 0.0]]))


def test_encode_two_connected_nodes():
    cfg = small_cfg()
    p = identity_params(2, cfg)
    ahat = normalize_adjacency(Network.from_pairs(2, [(0, 1)]))
    h = encode(p, ahat, np.array([[2.0, 0.0], [0.0, 2.0]]))[0]
    assert np.allclose(h, np.ones((2, 2)), atol=1e-12)


def test_encode_zero_features_gives_relu_of_bias():
    cfg = small_cfg()
    p = identity_params(2, cfg)
    p.gcn_biases[0][:] = np.array([0.5, -0.5])
    ahat = normalize_adjacency(Network.from_pairs(2, [(0, 1)]))
    h = encode(p, ahat, np.zeros((2, 2)))[0]
    assert np.allclose(h, np.tile([0.5, 0.0], (2, 1)), atol=1e-12)


def test_predict_hand_example():
    cfg = small_cfg()
    p = identity_params(2, cfg)
    h = np.array([[1.0, 2.0]])
    for t in (0, 1):
        y = predict(p, h, np.array([t]))
        assert np.allclose(y, [3.0], atol=1e-12)


def test_predict_heads_differ():
    cfg = small_cfg()
    p = identity_params(2, cfg)
    p.head_weights[1][-1][:] = 2.0
    h = np.array([[1.0, 2.0]])
    assert predict(p, h, np.array([0]))[0] != predict(p, h, np.array([1]))[0]


def test_predict_zero_representation():
    cfg = small_cfg()
    p = identity_params(2, cfg)
    assert predict(p, np.zeros((1, 2)), np.array([1]))[0] == 0.0


def test_predict_rejects_bad_assignment():
    cfg = small_cfg()
    p = identity_params(2, cfg)
    with pytest.raises(ValueError):
        predict(p, np.zeros((1, 2)), np.array([2]))


def test_backward_zero_upstream():
    cfg = small_cfg(gcn_layers=2, out_layers=2)
    p = init_params(cfg, 3, make_rng(2))
    net = Network.from_pairs(4, [(0, 1), (2, 3)])
    x = make_rng(3).normal(size=(4, 3))
    _, trace = forward(p, normalize_adjacency(net), x, np.array([0, 1, 0, 1]))
    grads = backward(p, trace, np.zeros(4), np.zeros((4, 2)))
    assert np.array_equal(grads.flatten(), np.zeros_like(grads.flatten()))


def test_relu_subgradient_is_zero_at_zero():
    """With X = 0 and zero encoder biases every encoder pre-activation is
    exactly 0, as is each head's second hidden unit: their gradients are
    exactly 0, while the live first unit's are not."""
    cfg = small_cfg(gcn_layers=2, out_layers=1)
    p = init_params(cfg, 3, make_rng(6))
    for t in (0, 1):
        p.head_biases[t][0][:] = [0.5, 0.0]
    ahat = normalize_adjacency(Network.from_pairs(4, [(0, 1), (1, 2), (2, 3)]))
    _, trace = forward(p, ahat, np.zeros((4, 3)), np.array([0, 1, 0, 1]))
    grads = backward(p, trace, np.ones(4))
    for g in grads.gcn_weights + grads.gcn_biases:
        assert np.array_equal(g, np.zeros_like(g))
    for t in (0, 1):
        assert grads.head_biases[t][0][0] != 0.0 and grads.head_biases[t][0][1] == 0.0
        assert grads.head_weights[t][-1][0, 0] != 0.0 and grads.head_weights[t][-1][1, 0] == 0.0


def test_backward_single_instance_linear_chain_rule():
    # one node, 1 GCN layer, 1 head layer, all positive so ReLU is identity:
    # yhat = w . relu(W . relu(x U + b) + c) + beta
    cfg = small_cfg()
    p = init_params(cfg, 2, make_rng(4))
    for arr in p.gcn_weights + p.head_weights[0] + p.head_weights[1]:
        arr[:] = np.abs(arr) + 0.1
    x = np.array([[1.0, 2.0]])
    ahat = normalize_adjacency(Network.from_pairs(1, []))
    yhat, trace = forward(p, ahat, x, np.array([0]))
    grads = backward(p, trace, np.array([1.0]))
    # hand chain rule for the regression weight: d yhat / d w = head activation
    assert np.allclose(grads.head_weights[0][-1][:, 0], trace.head_act[0][-1][0], atol=1e-12)
    # and for the head weight matrix: outer(h, w)
    h = trace.enc_act[-1][0]
    expected_w1 = np.outer(h, p.head_weights[0][-1])
    assert np.allclose(grads.head_weights[0][0], expected_w1, atol=1e-12)
    # untouched head gets zero gradient
    assert np.array_equal(grads.head_weights[1][-1], np.zeros((2, 1)))


def test_head_isolation_exact():
    cfg = small_cfg(out_layers=2)
    rng = make_rng(5)
    p = init_params(cfg, 3, rng)
    # keep activations alive so the perturbation is visible on treated rows
    for arr in p.gcn_weights + p.head_weights[0] + p.head_weights[1]:
        arr[:] = np.abs(arr) + 0.05
    net = Network.from_pairs(5, [(0, 1), (1, 2), (3, 4)])
    x = np.abs(rng.normal(size=(5, 3))) + 0.1
    t = np.array([0, 1, 0, 1, 0])
    ahat = normalize_adjacency(net)
    y_before, _ = forward(p, ahat, x, t)
    p.head_weights[1][0] += 10.0
    p.head_weights[1][-1] += 3.0
    y_after, _ = forward(p, ahat, x, t)
    control = t == 0
    assert np.array_equal(y_before[control], y_after[control])
    assert not np.array_equal(y_before[~control], y_after[~control])


def test_permutation_equivariance():
    cfg = small_cfg(gcn_layers=2, rep_dim=3, hidden_units=3)
    rng = make_rng(6)
    p = init_params(cfg, 4, rng)
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4)]
    net = Network.from_pairs(5, pairs)
    x = rng.normal(size=(5, 4))
    h = encode(p, normalize_adjacency(net), x)[0]
    perm = np.array([3, 0, 4, 1, 2])
    inv = np.argsort(perm)
    permuted_pairs = [(perm[i], perm[j]) for i, j in pairs]
    net_p = Network.from_pairs(5, permuted_pairs)
    h_p = encode(p, normalize_adjacency(net_p), x[inv])[0]
    # summation order inside the sparse product changes with the labeling,
    # so equality holds to rounding, not bitwise
    assert np.allclose(h_p[perm], h, rtol=0, atol=1e-12)


def wide_first_layer_instance():
    """30 features into 3-dimensional layers, so layer 0 is wide."""
    cfg = small_cfg(gcn_layers=2, out_layers=2, rep_dim=3, hidden_units=3)
    rng = make_rng(10)
    p = init_params(cfg, 30, rng)
    for b in p.gcn_biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    net = Network.from_pairs(8, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (0, 7), (2, 6)])
    x = rng.normal(size=(8, 30))
    return p, normalize_adjacency(net), x, np.array([0, 1, 0, 1, 0, 1, 1, 0])


def left_associated_encode(p, ahat, x):
    """Layer inputs (A_hat H_{l-1}), pre-activations (A_hat H_{l-1}) U_l + b_l
    and representation: `encode`'s map with the products grouped the
    other way."""
    h, inputs, pre = x, [], []
    for w, b in zip(p.gcn_weights, p.gcn_biases):
        inputs.append(ahat @ h)
        pre.append(inputs[-1] @ w + b)
        h = np.maximum(pre[-1], 0.0)
    return h, inputs, pre


def max_rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def test_encode_matches_left_associated_products():
    p, ahat, x, _ = wide_first_layer_instance()
    h, enc_pre, _ = encode(p, ahat, x)
    h_ref, _, pre_ref = left_associated_encode(p, ahat, x)
    assert max_rel_err(h, h_ref) < 1e-12
    for z, z_ref in zip(enc_pre, pre_ref):
        assert max_rel_err(z, z_ref) < 1e-12


def test_gcn_weight_grads_match_left_associated_products():
    # grad_yhat = 0 makes dL/dH the injected gradient, so the reference
    # needs no head backward
    p, ahat, x, t = wide_first_layer_instance()
    _, trace = forward(p, ahat, x, t)
    gh = make_rng(11).normal(size=trace.enc_act[-1].shape)
    grads = backward(p, trace, np.zeros(t.size), gh)
    _, inputs, _ = left_associated_encode(p, ahat, x)
    for l in (1, 0):
        gz = np.where(trace.enc_pre[l] > 0.0, gh, 0.0)
        assert max_rel_err(grads.gcn_weights[l], inputs[l].T @ gz) < 1e-12
        assert max_rel_err(grads.gcn_biases[l], gz.sum(axis=0)) < 1e-12
        gh = ahat @ (gz @ p.gcn_weights[l].T)


def test_each_stack_keeps_one_layer_list():
    # the regression layer is the last head layer; enc_act starts with X
    p, ahat, x, t = wide_first_layer_instance()
    for a in (0, 1):
        assert [w.shape for w in p.head_weights[a]] == [(3, 3), (3, 3), (3, 1)]
        assert [b.shape for b in p.head_biases[a]] == [(3,), (3,), (1,)]
    _, trace = forward(p, ahat, x, t)
    assert trace.enc_act[0] is x and len(trace.enc_act) == len(trace.enc_pre) + 1
    assert [len(pre) for pre in trace.head_pre] == [2, 2]


def test_forward_runs_each_head_on_its_own_rows():
    p, ahat, x, _ = wide_first_layer_instance()
    t = np.array([0, 1, 1, 1, 0, 1, 1, 0])
    yhat, trace = forward(p, ahat, x, t)
    for t_val in (0, 1):
        assert trace.head_act[t_val][0].shape[0] == np.count_nonzero(t == t_val)
    assert np.array_equal(yhat, predict(p, trace.enc_act[-1], t))


def all_rows_forward(p, ahat, x, t):
    """`forward` as it was when both heads ran over every row and the
    factual prediction was picked afterwards."""
    h, enc_pre, enc_act = encode(p, ahat, x)
    head_pre, head_act, y = [], [], []
    for a in (0, 1):
        act, pre = [h], []
        for w, b in zip(p.head_weights[a][:-1], p.head_biases[a][:-1]):
            pre.append(act[-1] @ w + b)
            act.append(np.maximum(pre[-1], 0.0))
        head_pre.append(pre)
        head_act.append(act)
        y.append(act[-1] @ p.head_weights[a][-1][:, 0] + p.head_biases[a][-1][0])
    trace = SimpleNamespace(ahat=ahat, enc_pre=enc_pre, enc_act=enc_act,
                            head_pre=head_pre, head_act=head_act, t=np.asarray(t))
    return np.where(trace.t == 1, y[1], y[0]), trace


def all_rows_backward(p, trace, grad_yhat, grad_h_extra=None):
    """`backward` as it was: each head's backward over every row, the other
    arm's rows masked to zero."""
    grads = ModelParams(p.num_features, p.gcn_dims, p.head_dims)
    gh = np.zeros_like(trace.enc_act[-1])
    if grad_h_extra is not None:
        gh = gh + grad_h_extra
    for a in (0, 1):
        gy = np.where(trace.t == a, grad_yhat, 0.0)
        act = trace.head_act[a]
        grads.head_weights[a][-1][:, 0] = act[-1].T @ gy
        grads.head_biases[a][-1][0] = gy.sum()
        ga = np.outer(gy, p.head_weights[a][-1][:, 0])
        for l in range(len(p.head_weights[a]) - 2, -1, -1):
            gs = np.where(trace.head_pre[a][l] > 0.0, ga, 0.0)
            grads.head_weights[a][l][...] = act[l].T @ gs
            grads.head_biases[a][l][...] = gs.sum(axis=0)
            ga = gs @ p.head_weights[a][l].T
        gh = gh + ga
    for l in range(len(p.gcn_weights) - 1, -1, -1):
        gz = np.where(trace.enc_pre[l] > 0.0, gh, 0.0)
        gm = trace.ahat @ gz
        grads.gcn_weights[l][...] = trace.enc_act[l].T @ gm
        grads.gcn_biases[l][...] = gz.sum(axis=0)
        gh = gm @ p.gcn_weights[l].T
    return grads


def criterion_7_instance():
    ds = simulate(SimConfig(seed=0, **ORDERING_SIM))
    cfg = TrainConfig(seed=0, **ORDERING_TRAIN)
    params = init_params(cfg, ds.x.shape[1], make_rng(0, stream=11))
    return params, ds, make_split(ds.n, ds.t, 0).train, cfg, normalize_adjacency(ds.net)


@pytest.mark.parametrize("instance", [criterion_7_instance, lambda: random_tiny_instance(0)],
                         ids=["criterion-7", "gradcheck-0"])
def test_objective_matches_all_rows_heads(monkeypatch, instance):
    params, ds, train_idx, cfg, ahat = instance()
    loss, grads = objective(params, ds, train_idx, cfg, ahat=ahat)[:2]
    monkeypatch.setattr(runner, "forward", all_rows_forward)
    monkeypatch.setattr(runner, "backward", all_rows_backward)
    ref_loss, ref_grads = objective(params, ds, train_idx, cfg, ahat=ahat)[:2]
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert np.all(np.abs(grads.theta - ref_grads.theta) <= 1e-12 * np.abs(ref_grads.theta))


def paper_default_instance():
    ds = simulate(SimConfig(seed=0))
    cfg = TrainConfig(seed=0, sinkhorn=SinkhornConfig(max_iters=120))
    params = init_params(cfg, ds.x.shape[1], make_rng(0, stream=11))
    return params, ds, make_split(ds.n, ds.t, 0).train, cfg, normalize_adjacency(ds.net)


INSTANCES = {"paper-default": paper_default_instance, "criterion-7": criterion_7_instance}


@pytest.mark.parametrize("name, splits", [("paper-default", 94), ("criterion-7", 17)])
def test_objective_same_bytes_with_the_split_off(monkeypatch, worker_calls, name, splits):
    """One objective evaluation gives the same bytes with every pass
    whole (SPLIT_MIN = math.inf) as with the `splits` passes at or above
    their thresholds in halves. The split sites: each encoder layer's H W,
    A_hat (H W), A_hat G and weight gradient, and dL/dH of every layer but
    the first; each head layer's A W, weight gradient and dL/dA, but for
    the one-column regression layer; and W1's cost matrix, Sinkhorn's K v
    and K^T u (one more K v before the loop), the backward's K x and K^T y,
    its two K-shaped products, the two point-gradient products, and its
    elementwise passes over n1 x n0 buffers: 4 in the forward and 7 in the
    gradient read (see test_balance.test_w1_same_bytes_with_the_split_off).
    ReLU and its backward run whole. At the paper default, W1 on 900 x 900
    groups runs 14 iterations: 73 of the 94 splits, and the encoder's
    sparse products are 4 more. The criterion-7 shape runs no W1, and its
    3000 x 64 encoder passes are below the threshold of the sparse
    passes."""
    params, ds, train_idx, cfg, ahat = INSTANCES[name]()
    loss, grads, parts = objective(params, ds, train_idx, cfg, ahat=ahat)[:3]
    assert len(worker_calls) == splits
    monkeypatch.setattr(linalg, "SPLIT_MIN", math.inf)
    ref_loss, ref_grads, ref_parts = objective(params, ds, train_idx, cfg, ahat=ahat)[:3]
    assert len(worker_calls) == splits
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes() and parts == ref_parts
    assert grads.theta.tobytes() == ref_grads.theta.tobytes()


def test_forward_deterministic():
    cfg = small_cfg(gcn_layers=2, out_layers=2)
    net = Network.from_pairs(6, [(0, 1), (2, 3), (4, 5), (1, 4)])
    x = make_rng(8).normal(size=(6, 3))
    t = np.array([0, 1, 0, 1, 0, 1])
    ahat = normalize_adjacency(net)
    y1, _ = forward(init_params(cfg, 3, make_rng(7)), ahat, x, t)
    y2, _ = forward(init_params(cfg, 3, make_rng(7)), ahat, x, t)
    assert np.array_equal(y1, y2)


def test_flatten_roundtrip():
    cfg = small_cfg(gcn_layers=2, out_layers=3, rep_dim=4, hidden_units=5)
    p = init_params(cfg, 6, make_rng(9))
    theta = p.flatten()
    q = ModelParams(p.num_features, p.gcn_dims, p.head_dims, theta)
    assert np.array_equal(q.flatten(), theta)


def reference_init_lists(cfg, num_features, rng):
    """init_params as it was when ModelParams held six lists: the same rng
    draws in the same order, kept here independent of ModelParams.
    Returns [gcn_w, gcn_b, head_w, head_b, head_out_w, head_out_b]."""
    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    gcn_dims = [num_features] + [cfg.rep_dim] * cfg.gcn_layers
    gw = [glorot(gcn_dims[i], gcn_dims[i + 1]) for i in range(cfg.gcn_layers)]
    gb = [np.zeros(gcn_dims[i + 1]) for i in range(cfg.gcn_layers)]
    head_dims = [cfg.rep_dim] + [cfg.hidden_units] * cfg.out_layers
    hw, hb, how, hob = [], [], [], []
    for _t in (0, 1):
        hw.append([glorot(head_dims[i], head_dims[i + 1]) for i in range(cfg.out_layers)])
        hb.append([np.zeros(head_dims[i + 1]) for i in range(cfg.out_layers)])
        how.append(glorot(head_dims[-1], 1).ravel())
        hob.append(0.0)
    return [gw, gb, hw, hb, how, hob]


def reference_flatten(gw, gb, hw, hb, how, hob):
    """The list-based flatten, which fixed the parameter and checkpoint order."""
    chunks = []
    for w, b in zip(gw, gb):
        chunks += [w.ravel(), b.ravel()]
    for t in (0, 1):
        for w, b in zip(hw[t], hb[t]):
            chunks += [w.ravel(), b.ravel()]
        chunks += [how[t].ravel(), np.array([hob[t]], dtype=np.float64)]
    return np.concatenate(chunks)


@pytest.mark.parametrize("out_layers", [1, 2, 3])
@pytest.mark.parametrize("gcn_layers", [1, 2, 3])
def test_parameter_order_matches_list_reference(tmp_path, gcn_layers, out_layers):
    cfg = small_cfg(gcn_layers=gcn_layers, out_layers=out_layers, rep_dim=3, hidden_units=4)
    seed = 10 * gcn_layers + out_layers
    p = init_params(cfg, 5, make_rng(seed))
    ref = reference_init_lists(cfg, 5, make_rng(seed))
    gw, gb, hw, hb, how, hob = ref
    # distinct nonzero biases, written through the named views, so that
    # every block is told apart from every other
    fill = make_rng(99)
    for view, arr in zip(p.gcn_biases + p.head_biases[0][:-1] + p.head_biases[1][:-1], gb + hb[0] + hb[1]):
        view[...] = arr[...] = fill.normal(size=arr.shape)
    for t in (0, 1):
        p.head_biases[t][-1][...] = hob[t] = fill.normal()
    theta = reference_flatten(*ref)
    flat = p.flatten()
    assert flat.dtype == theta.dtype and flat.tobytes() == theta.tobytes()
    # the comparison tells the two heads apart
    assert not np.array_equal(flat, reference_flatten(gw, gb, hw[::-1], hb[::-1], how[::-1], hob[::-1]))

    path = tmp_path / "model.ckpt"
    nio.save_checkpoint(path, p, seed=7)
    header = (f"format 1\nseed 7\nnum_features 5\n"
              f"gcn_dims {','.join(['3'] * gcn_layers)}\nhead_dims {','.join(['4'] * out_layers)}\n"
              f"values {theta.size}\n")
    assert path.read_bytes() == (header + "".join(f"{v!r}\n" for v in theta.tolist())).encode()


def test_params_are_views_into_theta():
    p = init_params(small_cfg(gcn_layers=2, out_layers=2), 3, make_rng(0))
    p.gcn_biases[0][0] += 1.0
    p.head_biases[1][-1][...] = 2.5
    theta = p.flatten()
    assert theta[3 * 2 + 0] == 1.0 and theta[-1] == 2.5
    theta[:] = 0.0  # flatten is a copy
    assert p.gcn_biases[0][0] == 1.0


@pytest.mark.parametrize("dims", [(0, [2], [2]), (3, [], [2]), (3, [2], []), (3, [2, 0], [2]), (3, [2], [-1])])
def test_params_reject_dimension_below_one(dims):
    with pytest.raises(ValueError):
        ModelParams(*dims)
