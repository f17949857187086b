"""GCN confounder encoder with treatment-conditional outcome heads.

The encoder stacks graph-convolution layers H_l = relu(A_hat (H_{l-1} U_l)
+ b_l) from the feature matrix, weighting before propagating so each
sparse product runs at the layer's output width. Two output heads (one
per treatment arm) apply L fully connected ReLU layers and a scalar
regression layer; each row is routed to the head of its treatment. All
gradients are exact, reverse-mode and hand written, and end at the first
layer's weights: dL/dX is never formed. `backward` also takes a dL/dH
from the balancing penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linalg import ShapeError, relu, relu_backward, spmm


@dataclass
class ModelParams:
    """All trainable weights.

    Flattening order (used by `flatten`/`unflatten` and the checkpoint
    format): for each encoder layer, weight then bias; then for head 0
    and head 1 in that order: for each hidden layer, weight then bias;
    then the regression weight vector and the regression bias.
    """

    gcn_weights: list  # layer l: (d_{l-1}, d_l), first is (m, d_1)
    gcn_biases: list  # (d_l,)
    head_weights: list  # [t][l]: (h_{l-1}, h_l), first is (d, h_1)
    head_biases: list  # [t][l]: (h_l,)
    head_out_weights: list  # [t]: (h_L,)
    head_out_biases: list  # [t]: scalar

    def flatten(self) -> np.ndarray:
        chunks = []
        for w, b in zip(self.gcn_weights, self.gcn_biases):
            chunks.append(w.ravel())
            chunks.append(b.ravel())
        for t in (0, 1):
            for w, b in zip(self.head_weights[t], self.head_biases[t]):
                chunks.append(w.ravel())
                chunks.append(b.ravel())
            chunks.append(self.head_out_weights[t].ravel())
            chunks.append(np.array([self.head_out_biases[t]], dtype=np.float64))
        return np.concatenate(chunks)

    def unflatten_from(self, theta: np.ndarray) -> "ModelParams":
        """New ModelParams with this instance's shapes and theta's values."""
        pos = 0

        def take(shape):
            nonlocal pos
            size = math.prod(shape)
            out = theta[pos : pos + size].reshape(shape).copy()
            pos += size
            return out

        gw, gb = [], []
        for w, b in zip(self.gcn_weights, self.gcn_biases):
            gw.append(take(w.shape))
            gb.append(take(b.shape))
        hw, hb, how, hob = [[], []], [[], []], [], []
        for t in (0, 1):
            for w, b in zip(self.head_weights[t], self.head_biases[t]):
                hw[t].append(take(w.shape))
                hb[t].append(take(b.shape))
            how.append(take(self.head_out_weights[t].shape))
            hob.append(float(take((1,))[0]))
        if pos != theta.size:
            raise ShapeError(f"parameter vector has {theta.size} values, expected {pos}")
        return ModelParams(gw, gb, hw, hb, how, hob)

    def zeros_like(self) -> "ModelParams":
        return ModelParams(
            [np.zeros_like(w) for w in self.gcn_weights],
            [np.zeros_like(b) for b in self.gcn_biases],
            [[np.zeros_like(w) for w in ws] for ws in self.head_weights],
            [[np.zeros_like(b) for b in bs] for bs in self.head_biases],
            [np.zeros_like(w) for w in self.head_out_weights],
            [0.0, 0.0],
        )

    def copy(self) -> "ModelParams":
        return self.unflatten_from(self.flatten())

    @property
    def num_features(self) -> int:
        return self.gcn_weights[0].shape[0]

    @property
    def gcn_dims(self) -> list:
        return [w.shape[1] for w in self.gcn_weights]

    @property
    def head_dims(self) -> list:
        return [w.shape[1] for w in self.head_weights[0]]


@dataclass
class ForwardTrace:
    """Intermediates retained by `forward` for the backward pass."""

    ahat: sp.csr_matrix
    enc_inputs: list  # layer inputs H_{l-1}; entry 0 is X itself, not a copy
    enc_pre: list  # pre-activations Z_l
    enc_act: list  # activations H_l; last entry is the representation H
    head_pre: list  # [t][l] pre-activations
    head_act: list  # [t][l] activations, entry 0 is H
    yhat_head: list  # [t]: per-row prediction from head t over all rows
    t_assign: np.ndarray


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_params(cfg, num_features: int, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights and zero biases, deterministic given the rng.

    `cfg` supplies gcn_layers, rep_dim, out_layers, hidden_units. Every
    GCN layer outputs rep_dim; every head hidden layer outputs
    hidden_units.
    """
    gcn_dims = [num_features] + [cfg.rep_dim] * cfg.gcn_layers
    gw = [glorot_uniform(rng, gcn_dims[i], gcn_dims[i + 1]) for i in range(cfg.gcn_layers)]
    gb = [np.zeros(gcn_dims[i + 1]) for i in range(cfg.gcn_layers)]
    head_dims = [cfg.rep_dim] + [cfg.hidden_units] * cfg.out_layers
    hw, hb, how, hob = [], [], [], []
    for _t in (0, 1):
        hw.append([glorot_uniform(rng, head_dims[i], head_dims[i + 1]) for i in range(cfg.out_layers)])
        hb.append([np.zeros(head_dims[i + 1]) for i in range(cfg.out_layers)])
        how.append(glorot_uniform(rng, head_dims[-1], 1).ravel())
        hob.append(0.0)
    return ModelParams(gw, gb, hw, hb, how, hob)


def encode(params: ModelParams, ahat: sp.csr_matrix, x: np.ndarray):
    """Representations H = relu(A_hat (... relu(A_hat (X U_1) + b_1) ... U_g) + b_g).

    Returns (H, enc_inputs, enc_pre, enc_act) so callers building a trace
    avoid recomputation.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != ahat.shape[0]:
        raise ShapeError(f"encode: X has {x.shape[0]} rows, adjacency is {ahat.shape}")
    h = x
    enc_inputs, enc_pre, enc_act = [], [], []
    for w, b in zip(params.gcn_weights, params.gcn_biases):
        if h.shape[1] != w.shape[0]:
            raise ShapeError(f"encode: layer input {h.shape} vs weight {w.shape}")
        z = spmm(ahat, h @ w) + b
        enc_inputs.append(h)
        h = relu(z)
        enc_pre.append(z)
        enc_act.append(h)
    return h, enc_inputs, enc_pre, enc_act


def _head_forward(params: ModelParams, h: np.ndarray, t: int):
    a = h
    pre, act = [], [a]
    for w, b in zip(params.head_weights[t], params.head_biases[t]):
        s = a @ w + b
        a = relu(s)
        pre.append(s)
        act.append(a)
    yhat = a @ params.head_out_weights[t] + params.head_out_biases[t]
    return yhat, pre, act


def predict(params: ModelParams, h: np.ndarray, t_assign: np.ndarray) -> np.ndarray:
    """Route row i through head t_assign[i]; t_assign = t gives factual
    predictions, 1 - t gives counterfactual ones."""
    t_assign = _check_assignment(t_assign, h.shape[0])
    y0, _, _ = _head_forward(params, h, 0)
    y1, _, _ = _head_forward(params, h, 1)
    return np.where(t_assign == 1, y1, y0)


def _check_assignment(t_assign, n: int) -> np.ndarray:
    t_assign = np.asarray(t_assign)
    if t_assign.shape != (n,):
        raise ShapeError(f"treatment assignment must have shape ({n},), got {t_assign.shape}")
    if not ((t_assign == 0) | (t_assign == 1)).all():
        raise ValueError("treatment assignment values must be in {0, 1}")
    return t_assign.astype(np.int64)


def forward(params: ModelParams, ahat: sp.csr_matrix, x: np.ndarray, t_assign: np.ndarray):
    """Full pass; returns (yhat, trace) with intermediates for backward."""
    t_assign = _check_assignment(t_assign, x.shape[0])
    h, enc_inputs, enc_pre, enc_act = encode(params, ahat, x)
    head_pre, head_act, yhat_head = [], [], []
    for t in (0, 1):
        y, pre, act = _head_forward(params, h, t)
        head_pre.append(pre)
        head_act.append(act)
        yhat_head.append(y)
    yhat = np.where(t_assign == 1, yhat_head[1], yhat_head[0])
    trace = ForwardTrace(ahat, enc_inputs, enc_pre, enc_act, head_pre, head_act, yhat_head, t_assign)
    return yhat, trace


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
    n = trace.t_assign.shape[0]
    grad_yhat = np.asarray(grad_yhat, dtype=np.float64)
    if grad_yhat.shape != (n,):
        raise ShapeError(f"grad_yhat must have shape ({n},), got {grad_yhat.shape}")
    grads = params.zeros_like()
    h = trace.enc_act[-1]
    gh = np.zeros_like(h)
    if grad_h_extra is not None:
        if grad_h_extra.shape != h.shape:
            raise ShapeError(f"grad_h_extra must have shape {h.shape}, got {grad_h_extra.shape}")
        gh = gh + grad_h_extra

    for t in (0, 1):
        gy = np.where(trace.t_assign == t, grad_yhat, 0.0)
        act = trace.head_act[t]
        grads.head_out_weights[t] = act[-1].T @ gy
        grads.head_out_biases[t] = float(gy.sum())
        ga = np.outer(gy, params.head_out_weights[t])
        for l in range(len(params.head_weights[t]) - 1, -1, -1):
            gs = relu_backward(trace.head_pre[t][l], ga)
            grads.head_weights[t][l] = act[l].T @ gs
            grads.head_biases[t][l] = gs.sum(axis=0)
            ga = gs @ params.head_weights[t][l].T
        gh = gh + ga

    for l in range(len(params.gcn_weights) - 1, -1, -1):
        gz = relu_backward(trace.enc_pre[l], gh)
        gm = spmm(trace.ahat, gz)  # A_hat is symmetric: A_hat^T gz == A_hat gz
        grads.gcn_weights[l] = trace.enc_inputs[l].T @ gm
        grads.gcn_biases[l] = gz.sum(axis=0)
        if l > 0:  # nothing reads dL/dX
            gh = gm @ params.gcn_weights[l].T
    return grads
