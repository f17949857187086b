"""Finite-difference verification of the analytic objective gradient.

The oracle is central finite differences of the full objective value; it
never calls the reverse-mode path, so agreement validates both. Each
probe perturbs one entry of the flat parameter vector `params.theta` in
place, evaluates the value only (`objective(..., grad=False)`, which
reads no W1 gradient: neither the Sinkhorn backward nor the model
backward runs), and restores the entry. The representations H, and so
W1, depend only on the encoder block at the front of theta, and every
probe restores its entry exactly: so the probes of head parameters pass
the W1Result of the one analytic evaluation per instance back to
`objective` instead of running Sinkhorn again on the same H. Encoder
probes compute W1 each time. A fixed Sinkhorn iteration count
(convergence_tol = 0) keeps the objective a deterministic smooth
function of the parameters, even where Sinkhorn stops computing at a
bitwise fixed point: it still unrolls the full count.
"""

from __future__ import annotations

import numpy as np

from .balance import SinkhornConfig
from .graph import Network, normalize_adjacency
from .linalg import make_rng
from .model import forward, init_params
from .runner import TrainConfig, objective
from .simgen import NetworkedDataset

FD_STEP = 1e-5  # central-difference step on each entry of theta


def random_tiny_instance(seed: int):
    """A small random dataset/config pair whose ReLU pre-activations stay
    away from zero, so finite differences do not straddle a kink.
    Returns (params, dataset, train_idx, cfg, ahat)."""
    for attempt in range(50):
        rng = make_rng(seed, stream=attempt)
        n = int(rng.integers(6, 13))
        m = int(rng.integers(2, 7))
        d = int(rng.integers(2, 5))
        layers = int(rng.integers(1, 3))
        cfg = TrainConfig(
            alpha=1e-3, lam=1e-4, learning_rate=1e-2, epochs=1,
            gcn_layers=layers, out_layers=layers, rep_dim=d, hidden_units=d,
            seed=seed, sinkhorn=SinkhornConfig(entropic_reg=0.2, max_iters=120, convergence_tol=0.0),
        )
        x = rng.normal(size=(n, m))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        net = Network.from_pairs(n, pairs)
        t = rng.integers(0, 2, size=n)
        if t.sum() in (0, n):
            continue
        yf = rng.normal(size=n)
        ds = NetworkedDataset(x=x, net=net, t=t.astype(np.int64), yf=yf,
                              ycf=None, mu0=None, mu1=None, prob_t=None)
        params = init_params(cfg, m, rng)
        ahat = normalize_adjacency(net)
        # each head over every row, so the check does not depend on the routing
        traces = [forward(params, ahat, x, np.full(n, t))[1] for t in (0, 1)]
        pre = traces[0].enc_pre + traces[0].head_pre[0] + traces[1].head_pre[1]
        if min(np.min(np.abs(z)) for z in pre) > 1e-4:
            return params, ds, np.arange(n), cfg, ahat
    raise RuntimeError("could not draw a kink-free instance")


def fd_max_rel_err(seed: int) -> float:
    """Max relative error between analytic and central finite-difference
    gradients of the full objective on one random tiny instance."""
    params, ds, train_idx, cfg, ahat = random_tiny_instance(seed)
    _, grads, _, _, w1, _ = objective(params, ds, train_idx, cfg, ahat=ahat)
    g = grads.theta
    theta = params.theta
    # H, and so W1, depends only on the encoder block that leads theta
    encoder_size = sum(w.size + b.size for w, b in zip(params.gcn_weights, params.gcn_biases))

    def value_at(i, v):
        theta[i] = v
        return objective(params, ds, train_idx, cfg, ahat=ahat, grad=False,
                         w1=None if i < encoder_size else w1)[0]

    worst = 0.0
    for i in range(theta.size):
        orig = theta[i]
        fd = (value_at(i, orig + FD_STEP) - value_at(i, orig - FD_STEP)) / (2 * FD_STEP)
        theta[i] = orig
        denom = max(abs(g[i]), abs(fd), 1e-5)
        worst = max(worst, abs(g[i] - fd) / denom)
    return worst
