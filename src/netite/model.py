"""GCN confounder encoder with treatment-conditional outcome heads.

The encoder stacks graph-convolution layers H_l = relu(A_hat (H_{l-1} U_l)
+ b_l) from the feature matrix, weighting before propagating so each
sparse product runs at the layer's output width. Two output heads (one
per treatment arm) apply L fully connected ReLU layers, then a linear
regression layer of width 1; each runs only on its treatment arm's rows.
All gradients are exact, reverse-mode and hand written, and end at the
first layer's weights: dL/dX is never formed. `backward` also takes a dL/dH
from the balancing penalty. Every dense product goes through
`linalg.split_rows`: each encoder layer's H W, weight gradient H^T G and
dL/dH G W^T, and each head layer's A W, weight gradient A^T G and dL/dA
G W^T. The sparse A_hat (H W) + b and A_hat G go through
`linalg.sparse_rows`, and ReLU and its backward split as well. Above
their thresholds each runs as two row halves at once, bit for bit as the
whole pass; the regression layer's one-column products run whole.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import ShapeError, relu, relu_backward, sparse_rows, split_rows


def _layer_shapes(d_in: int, dims: list) -> list:
    """Weight and bias shapes, layer by layer, of a stack from d_in through dims."""
    return [s for a, b in zip([d_in, *dims], dims) for s in ((a, b), (b,))]


class ModelParams:
    """All trainable weights, as named views into one float64 vector `theta`.

    The constructor is the only code that knows the order, which is also
    the checkpoint order: for each encoder layer, weight then bias; then
    for head 0 and head 1 in that order: for each layer, weight then bias.
    A head's layers are its hidden layers (widths head_dims) and, last,
    the regression layer: an (h_L, 1) weight and a (1,) bias. The encoder
    block thus leads theta, and the representations H depend on nothing
    after it. Writing into a view (`w[...] = ...`) writes into `theta`;
    rebinding a list entry would detach it. `flatten` returns a copy of
    `theta`.
    """

    def __init__(self, num_features: int, gcn_dims, head_dims, theta: np.ndarray | None = None):
        gcn_dims, head_dims = list(gcn_dims), list(head_dims)
        if not gcn_dims or not head_dims or min([num_features, *gcn_dims, *head_dims]) < 1:
            raise ValueError(f"dimensions must be >= 1 and the dims lists nonempty, got "
                             f"num_features={num_features} gcn_dims={gcn_dims} head_dims={head_dims}")
        self.num_features, self.gcn_dims, self.head_dims = num_features, gcn_dims, head_dims
        head = _layer_shapes(gcn_dims[-1], [*head_dims, 1])
        shapes = _layer_shapes(num_features, gcn_dims) + head + head
        ends = list(itertools.accumulate(math.prod(s) for s in shapes))
        size = ends[-1]
        if theta is None:
            theta = np.zeros(size)
        elif theta.shape != (size,):
            raise ShapeError(f"parameter vector has shape {theta.shape}, expected ({size},)")
        self.theta = theta
        views = [theta[start:end].reshape(s) for s, start, end in zip(shapes, [0, *ends], ends)]
        g = 2 * len(gcn_dims)
        heads = (views[g : g + len(head)], views[g + len(head) :])
        self.gcn_weights = views[0:g:2]  # layer l: (d_{l-1}, d_l), first is (m, d_1)
        self.gcn_biases = views[1:g:2]  # (d_l,)
        self.head_weights = [v[0::2] for v in heads]  # [t][l]: (h_{l-1}, h_l), first (d, h_1), last (h_L, 1)
        self.head_biases = [v[1::2] for v in heads]  # [t][l]: (h_l,), last (1,)

    def flatten(self) -> np.ndarray:
        """A copy of theta."""
        return self.theta.copy()


@dataclass
class ForwardTrace:
    """Intermediates retained by `forward` for the backward pass."""

    ahat: sp.csr_matrix
    enc_pre: list  # pre-activations Z_l
    enc_act: list  # activations, entry 0 is X itself (not a copy), last is the representation H
    head_pre: list  # [t][l] pre-activations of the ReLU layers over head_rows[t]
    head_act: list  # [t][l] activations over head_rows[t], entry 0 is H[head_rows[t]]
    head_rows: list  # [t] indices of the rows routed to head t


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_params(cfg, num_features: int, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights and zero biases, deterministic given the rng.

    `cfg` supplies gcn_layers, rep_dim, out_layers, hidden_units. Every
    GCN layer outputs rep_dim; every head hidden layer outputs
    hidden_units.
    """
    params = ModelParams(num_features, [cfg.rep_dim] * cfg.gcn_layers, [cfg.hidden_units] * cfg.out_layers)
    for w in params.gcn_weights + params.head_weights[0] + params.head_weights[1]:
        w[...] = glorot_uniform(rng, *w.shape)
    return params


def encode(params: ModelParams, ahat: sp.csr_matrix, x: np.ndarray):
    """Representations H = relu(A_hat (... relu(A_hat (X U_1) + b_1) ... U_g) + b_g).

    Returns (H, enc_pre, enc_act), enc_act starting with X itself, so
    callers building a trace avoid recomputation.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != ahat.shape[0]:
        raise ShapeError(f"encode: X has {x.shape[0]} rows, adjacency is {ahat.shape}")
    h = x
    enc_pre, enc_act = [], [x]
    for w, b in zip(params.gcn_weights, params.gcn_biases):
        if h.shape[1] != w.shape[0]:
            raise ShapeError(f"encode: layer input {h.shape} vs weight {w.shape}")
        z = sparse_rows(ahat, split_rows(np.matmul, h, w, w.shape[1]), b)
        h = relu(z)
        enc_pre.append(z)
        enc_act.append(h)
    return h, enc_pre, enc_act


def _head_forward(params: ModelParams, h: np.ndarray, t: int):
    a = h
    pre, act = [], [a]
    for w, b in zip(params.head_weights[t][:-1], params.head_biases[t][:-1]):
        s = split_rows(np.matmul, a, w, w.shape[1]) + b
        a = relu(s)
        pre.append(s)
        act.append(a)
    yhat = a @ params.head_weights[t][-1] + params.head_biases[t][-1]
    return yhat[:, 0], pre, act


def _route(params: ModelParams, h: np.ndarray, t_assign):
    """Head t runs on the rows with t_assign == t only, its outputs scattered
    into one yhat. Returns (yhat, rows, pre, act), the last three per head."""
    n = h.shape[0]
    t_assign = np.asarray(t_assign)
    if t_assign.shape != (n,):
        raise ShapeError(f"treatment assignment must have shape ({n},), got {t_assign.shape}")
    rows = [np.flatnonzero(t_assign == t) for t in (0, 1)]
    if rows[0].size + rows[1].size != n:
        raise ValueError("treatment assignment values must be in {0, 1}")
    yhat, pre, act = np.empty(n), [], []
    for t, r in enumerate(rows):
        yhat[r], pre_t, act_t = _head_forward(params, h[r], t)
        pre.append(pre_t)
        act.append(act_t)
    return yhat, rows, pre, act


def predict(params: ModelParams, h: np.ndarray, t_assign: np.ndarray) -> np.ndarray:
    """Route row i through head t_assign[i]; t_assign = t gives factual
    predictions, 1 - t gives counterfactual ones."""
    return _route(params, h, t_assign)[0]


def forward(params: ModelParams, ahat: sp.csr_matrix, x: np.ndarray, t_assign: np.ndarray):
    """Full pass; returns (yhat, trace) with intermediates for backward."""
    h, enc_pre, enc_act = encode(params, ahat, x)
    yhat, rows, head_pre, head_act = _route(params, h, t_assign)
    return yhat, ForwardTrace(ahat, enc_pre, enc_act, head_pre, head_act, rows)


def backward(
    params: ModelParams,
    trace: ForwardTrace,
    grad_yhat: np.ndarray,
    grad_h_extra: np.ndarray | None = None,
) -> ModelParams:
    """Exact reverse-mode gradients of the routed predictions.

    grad_yhat is d(loss)/d(yhat) per row; grad_h_extra is an optional
    d(loss)/dH injected by the balancing penalty. Rows routed to head t
    contribute nothing to head 1-t's gradients.
    """
    h = trace.enc_act[-1]
    n = h.shape[0]
    grad_yhat = np.asarray(grad_yhat, dtype=np.float64)
    if grad_yhat.shape != (n,):
        raise ShapeError(f"grad_yhat must have shape ({n},), got {grad_yhat.shape}")
    grads = ModelParams(params.num_features, params.gcn_dims, params.head_dims)
    gh = np.zeros_like(h)
    if grad_h_extra is not None:
        if grad_h_extra.shape != h.shape:
            raise ShapeError(f"grad_h_extra must have shape {h.shape}, got {grad_h_extra.shape}")
        gh += grad_h_extra

    for t, rows in enumerate(trace.head_rows):
        pre, act = trace.head_pre[t], trace.head_act[t]
        gs = grad_yhat[rows][:, None]  # the regression layer has no ReLU
        for l in range(len(params.head_weights[t]) - 1, -1, -1):
            if l < len(pre):
                gs = relu_backward(pre[l], gs)
            w = params.head_weights[t][l]
            grads.head_weights[t][l][...] = split_rows(np.matmul, act[l].T, gs, w.shape[1])
            grads.head_biases[t][l][...] = gs.sum(axis=0)
            gs = split_rows(np.matmul, gs, w.T, w.shape[0])
        gh[rows] += gs

    for l in range(len(params.gcn_weights) - 1, -1, -1):
        gz = relu_backward(trace.enc_pre[l], gh)
        gm = sparse_rows(trace.ahat, gz)  # A_hat is symmetric: A_hat^T gz == A_hat gz
        grads.gcn_weights[l][...] = split_rows(np.matmul, trace.enc_act[l].T, gm, gm.shape[1])
        grads.gcn_biases[l][...] = gz.sum(axis=0)
        if l > 0:  # nothing reads dL/dX
            gh = split_rows(np.matmul, gm, params.gcn_weights[l].T, params.gcn_weights[l].shape[0])
    return grads
