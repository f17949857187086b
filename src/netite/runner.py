"""Training objective, splits, evaluation metrics, and grid search.

The objective is factual MSE over the training indices, plus
alpha * W1(treated reps, control reps) computed over training-split
representations only, plus lambda * ||theta||^2. Message passing always
uses the complete graph; only the loss terms are restricted to a split.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .balance import SinkhornConfig, w1_distance, wasserstein1
from .graph import identity_adjacency, normalize_adjacency
from .linalg import make_rng
from .model import ModelParams, _head_forward, backward, encode, forward, init_params
from .optim import AdamState, adam_step
from .simgen import NetworkedDataset


class DegenerateSplitError(ValueError):
    """A split lacks treated or control instances."""


class NonFiniteLossError(ArithmeticError):
    """Training produced a non-finite loss."""


@dataclass
class TrainConfig:
    alpha: float = 1e-4  # balancing weight
    lam: float = 1e-4  # l2 weight
    learning_rate: float = 1e-2
    epochs: int = 200
    gcn_layers: int = 2
    out_layers: int = 2
    rep_dim: int = 100
    hidden_units: int = 100
    seed: int = 0
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    track_ipm: bool = True  # compute the W1 diagnostic even when alpha == 0

    def __post_init__(self):
        for name in ("alpha", "lam"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if not (isinstance(self.learning_rate, numbers.Real) and math.isfinite(self.learning_rate)
                and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate!r}")
        if min(self.epochs + 1, self.gcn_layers, self.out_layers, self.rep_dim, self.hidden_units) < 1:
            raise ValueError("counts must be >= 1")


@dataclass
class Split:
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray


def make_split(n: int, t: np.ndarray, seed: int, fractions=(0.6, 0.2, 0.2), max_tries: int = 100) -> Split:
    """Random disjoint exhaustive train/valid/test split; resamples until
    every part contains at least one treated and one control instance."""
    rng = make_rng(seed, stream=7)
    n_train = int(round(fractions[0] * n))
    n_valid = int(round(fractions[1] * n))
    for _ in range(max_tries):
        perm = rng.permutation(n)
        split = Split(perm[:n_train], perm[n_train : n_train + n_valid], perm[n_train + n_valid :])
        ok = all(
            idx.size > 0 and 0 < t[idx].sum() < idx.size
            for idx in (split.train, split.valid, split.test)
        )
        if ok:
            return split
    raise DegenerateSplitError("could not draw a split with both groups in every part")


@dataclass
class SplitMetrics:
    pehe_sqrt: float
    ate_err: float
    factual_mse: float


@dataclass
class MetricsReport:
    splits: dict  # name -> SplitMetrics
    loss_traj: list = field(default_factory=list)
    mse_traj: list = field(default_factory=list)
    ipm_traj: list = field(default_factory=list)
    l2_traj: list = field(default_factory=list)
    val_mse_traj: list = field(default_factory=list)
    best_epoch: int = 0
    sinkhorn_unconverged: int = 0  # epochs whose W1 run stopped at max_iters unconverged


def metrics(tau_hat: np.ndarray, tau: np.ndarray):
    """Rooted PEHE and absolute ATE error."""
    tau_hat = np.asarray(tau_hat, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    if tau_hat.shape != tau.shape or tau.ndim != 1 or tau.size == 0:
        raise ValueError("tau_hat and tau must be equal-length nonempty vectors")
    pehe_sqrt = float(np.sqrt(np.mean((tau_hat - tau) ** 2)))
    ate_err = float(abs(tau_hat.mean() - tau.mean()))
    return pehe_sqrt, ate_err


def _check_train_groups(t: np.ndarray, train_idx: np.ndarray):
    treated = int(t[train_idx].sum())
    if treated == 0 or treated == train_idx.size:
        raise DegenerateSplitError("training split must contain both treatment groups")


def _objective_impl(params: ModelParams, ahat, dataset: NetworkedDataset, train_idx, cfg: TrainConfig,
                    grad: bool = True):
    """Loss, gradients (None unless grad), additive parts, the factual
    predictions for all rows (for validation tracking), and the W1Result
    (None when W1 was not computed). With grad false, W1 comes from
    `w1_distance` and neither backward runs; the loss and parts are the
    same, since the forward code is shared. Reads only x, t, yf from the
    dataset; counterfactual fields are never inputs."""
    t = dataset.t
    _check_train_groups(t, train_idx)
    yhat, trace = forward(params, ahat, dataset.x, t)
    h = trace.enc_act[-1]
    n_train = train_idx.size

    resid = np.zeros_like(yhat)
    resid[train_idx] = yhat[train_idx] - dataset.yf[train_idx]
    mse = float(np.sum(resid[train_idx] ** 2) / n_train)

    ipm = 0.0
    grad_h_extra = None
    w1 = None
    if cfg.alpha > 0 or cfg.track_ipm:
        tr_treated = train_idx[t[train_idx] == 1]
        tr_control = train_idx[t[train_idx] == 0]
        w1 = (wasserstein1 if grad else w1_distance)(h[tr_treated], h[tr_control], cfg.sinkhorn)
        ipm = w1.dist
        if grad and cfg.alpha > 0:
            grad_h_extra = np.zeros_like(h)
            grad_h_extra[tr_treated] = cfg.alpha * w1.grad_treated
            grad_h_extra[tr_control] = cfg.alpha * w1.grad_control

    theta = params.flatten()
    l2 = float(theta @ theta)
    grads = None
    if grad:
        grads = backward(params, trace, 2.0 * resid / n_train, grad_h_extra)
        if cfg.lam > 0:
            grads = params.unflatten_from(grads.flatten() + 2.0 * cfg.lam * theta)

    loss = mse + cfg.alpha * ipm + cfg.lam * l2
    parts = {"mse": mse, "ipm": ipm, "l2": l2}
    return loss, grads, parts, yhat, w1


def objective(params: ModelParams, dataset: NetworkedDataset, train_idx, cfg: TrainConfig, ahat=None,
              grad: bool = True):
    """Full objective and its exact gradient, or None for the gradient
    when grad is false; see module docstring."""
    if ahat is None:
        ahat = normalize_adjacency(dataset.net)
    loss, grads, parts, _, _ = _objective_impl(params, ahat, dataset, train_idx, cfg, grad)
    return loss, grads, parts


def evaluate(params: ModelParams, dataset: NetworkedDataset, split: Split, ahat) -> dict:
    """Per-split rooted PEHE, ATE error, and factual MSE from one pass
    of each head over every row."""
    h, _, _, _ = encode(params, ahat, dataset.x)
    y0_hat, y1_hat = (_head_forward(params, h, t)[0] for t in (0, 1))
    tau_hat = y1_hat - y0_hat
    tau = dataset.true_ite()
    yhat_f = np.where(dataset.t == 1, y1_hat, y0_hat)
    out = {}
    for name, idx in (("train", split.train), ("valid", split.valid), ("test", split.test)):
        pehe_sqrt, ate_err = metrics(tau_hat[idx], tau[idx])
        mse = float(np.mean((yhat_f[idx] - dataset.yf[idx]) ** 2))
        out[name] = SplitMetrics(pehe_sqrt, ate_err, mse)
    return out


def train(dataset: NetworkedDataset, split: Split, cfg: TrainConfig, identity_graph: bool = False):
    """Full-batch ADAM training; model selection picks the epoch with the
    best validation factual MSE. Returns (params, MetricsReport)."""
    _check_train_groups(dataset.t, split.train)
    ahat = identity_adjacency(dataset.n) if identity_graph else normalize_adjacency(dataset.net)
    rng = make_rng(cfg.seed, stream=11)
    params = init_params(cfg, dataset.x.shape[1], rng)
    theta = params.flatten()
    adam = AdamState(size=theta.size, learning_rate=cfg.learning_rate)
    report = MetricsReport(splits={})

    best_theta = theta.copy()
    best_val = np.inf
    best_epoch = -1
    for epoch in range(cfg.epochs):
        params = params.unflatten_from(theta)
        loss, grads, parts, yhat, w1 = _objective_impl(params, ahat, dataset, split.train, cfg)
        if not np.isfinite(loss):
            raise NonFiniteLossError(f"non-finite loss at epoch {epoch}: parts={parts}")
        val_mse = float(np.mean((yhat[split.valid] - dataset.yf[split.valid]) ** 2))
        report.loss_traj.append(loss)
        report.mse_traj.append(parts["mse"])
        report.ipm_traj.append(parts["ipm"])
        report.l2_traj.append(parts["l2"])
        report.val_mse_traj.append(val_mse)
        if w1 is not None and not w1.converged:
            report.sinkhorn_unconverged += 1
        if val_mse < best_val:
            best_val = val_mse
            best_theta = theta.copy()
            best_epoch = epoch
        theta = adam_step(adam, theta, grads.flatten())

    best_params = params.unflatten_from(best_theta) if cfg.epochs > 0 else params
    report.best_epoch = best_epoch if cfg.epochs > 0 else 0
    report.splits = evaluate(best_params, dataset, split, ahat)
    return best_params, report


def ablation_no_network(dataset: NetworkedDataset, split: Split, cfg: TrainConfig):
    """Network-blind control: identical pipeline with the identity matrix
    in place of the normalized adjacency."""
    return train(dataset, split, cfg, identity_graph=True)


def expand_grid(base: TrainConfig, axes: dict) -> list:
    """Cross product of hyperparameter lists over a base config.
    Axis names are TrainConfig field names."""
    cells = [base]
    for name, values in axes.items():
        cells = [replace(c, **{name: v}) for c in cells for v in values]
    return cells


@dataclass
class GridCell:
    cfg: TrainConfig
    val_mse: float | None
    report: MetricsReport | None
    error: str | None = None


def grid_search(dataset: NetworkedDataset, split: Split, grid: list):
    """Train every cell, select by validation factual MSE of the selected
    epoch; a failing cell is recorded and skipped. Returns
    (best_cfg, best_params, best_report, cells)."""
    if not grid:
        raise ValueError("grid must be nonempty")
    cells = []
    best = None
    for cfg in grid:
        try:
            params, report = train(dataset, split, cfg)
        except (DegenerateSplitError, NonFiniteLossError, ValueError, ArithmeticError) as exc:
            cells.append(GridCell(cfg, None, None, error=str(exc)))
            continue
        val = min(report.val_mse_traj) if report.val_mse_traj else report.splits["valid"].factual_mse
        cells.append(GridCell(cfg, val, report))
        if best is None or val < best[0]:
            best = (val, cfg, params, report)
    if best is None:
        raise RuntimeError("every grid cell failed")
    _, best_cfg, best_params, best_report = best
    return best_cfg, best_params, best_report, cells
