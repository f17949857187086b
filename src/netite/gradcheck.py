"""Finite-difference verification of the analytic objective gradient.

The oracle is central finite differences of the full objective value; it
never calls the reverse-mode path, so agreement validates both. Each
probe perturbs one entry of the flat parameter vector `params.theta` in
place, evaluates the value only (`objective(..., grad=False)`, which
takes W1 from `balance.w1_distance`: neither the Sinkhorn backward nor
the model backward runs), and restores the entry. The representations
H, and so W1, depend only on the encoder block at the front of theta,
and every probe restores its entry exactly: so the first probe of a
head parameter computes W1 and every later head probe passes that
W1Result back to `objective` instead of running Sinkhorn again on the
same H. Encoder probes compute W1 each time. The one analytic
evaluation per instance runs the gradient path. A fixed Sinkhorn
iteration count (convergence_tol = 0) keeps the objective a
deterministic smooth function of the parameters.
"""

from __future__ import annotations

import numpy as np

from .balance import SinkhornConfig
from .graph import Network
from .linalg import make_rng
from .model import forward, init_params
from .runner import TrainConfig, objective
from .simgen import NetworkedDataset


def random_tiny_instance(seed: int, alpha: float = 1e-3, lam: float = 1e-4):
    """A small random dataset/config pair whose ReLU pre-activations stay
    away from zero, so finite differences do not straddle a kink.
    Returns (params, dataset, train_idx, cfg, ahat)."""
    from .graph import normalize_adjacency

    for attempt in range(50):
        rng = make_rng(seed, stream=attempt)
        n = int(rng.integers(6, 13))
        m = int(rng.integers(2, 7))
        d = int(rng.integers(2, 5))
        layers = int(rng.integers(1, 3))
        cfg = TrainConfig(
            alpha=alpha, lam=lam, learning_rate=1e-2, epochs=1,
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
        _, trace = forward(params, ahat, x, ds.t)
        pre = np.concatenate(
            [z.ravel() for z in trace.enc_pre]
            + [s.ravel() for pre_t in trace.head_pre for s in pre_t]
        )
        if np.min(np.abs(pre)) > 1e-4:
            return params, ds, np.arange(n), cfg, ahat
    raise RuntimeError("could not draw a kink-free instance")


def fd_max_rel_err(seed: int, step: float = 1e-5, alpha: float = 1e-3, lam: float = 1e-4) -> float:
    """Max relative error between analytic and central finite-difference
    gradients of the full objective on one random tiny instance."""
    params, ds, train_idx, cfg, ahat = random_tiny_instance(seed, alpha=alpha, lam=lam)
    g = objective(params, ds, train_idx, cfg, ahat=ahat)[1].theta
    theta = params.theta
    # H, and so W1, depends only on the encoder block that leads theta
    encoder_size = sum(w.size + b.size for w, b in zip(params.gcn_weights, params.gcn_biases))
    head_w1 = None

    def value_at(i, v):
        nonlocal head_w1
        theta[i] = v
        if i < encoder_size:
            return objective(params, ds, train_idx, cfg, ahat=ahat, grad=False)[0]
        loss, _, _, _, head_w1 = objective(params, ds, train_idx, cfg, ahat=ahat, grad=False, w1=head_w1)
        return loss

    worst = 0.0
    for i in range(theta.size):
        orig = theta[i]
        fd = (value_at(i, orig + step) - value_at(i, orig - step)) / (2 * step)
        theta[i] = orig
        denom = max(abs(g[i]), abs(fd), 1e-5)
        worst = max(worst, abs(g[i] - fd) / denom)
    return worst
