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

from .balance import SinkhornConfig, wasserstein1
from .graph import identity_adjacency, normalize_adjacency
from .linalg import make_rng
from .model import ModelParams, backward, encode, forward, init_params, predict
from .optim import AdamState, adam_step
from .simgen import NetworkedDataset

SPLIT_FRACTIONS = (0.6, 0.2, 0.2)  # train, valid, test parts of make_split


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


def make_split(n: int, t: np.ndarray, seed: int, max_tries: int = 100) -> Split:
    """Random disjoint exhaustive train/valid/test split; resamples until
    every part contains at least one treated and one control instance."""
    rng = make_rng(seed, stream=7)
    n_train = int(round(SPLIT_FRACTIONS[0] * n))
    n_valid = int(round(SPLIT_FRACTIONS[1] * n))
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


def objective(params: ModelParams, dataset: NetworkedDataset, train_idx, cfg: TrainConfig, ahat=None,
              grad: bool = True, w1=None):
    """Full objective (see module docstring). Returns the loss, its exact
    gradient (None unless grad), the additive parts, the factual
    predictions for all rows (for validation tracking), and the W1Result
    (None when W1 was not computed). The W1 gradients are read, and so
    the Sinkhorn backward runs, only when grad is true and alpha > 0; a
    non-finite W1 gradient raises NumericError there. With grad false
    neither backward runs; the loss and parts are the same, since the
    forward code is shared. Reads only x, t, yf from the dataset;
    counterfactual fields are never inputs.

    A given `w1` is used as the W1Result of this call's representations
    H instead of computing W1 again, and is returned. The caller vouches
    that H is bit for bit the H that `w1` was computed from, for example
    because only head parameters changed since."""
    if ahat is None:
        ahat = normalize_adjacency(dataset.net)
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
    if cfg.alpha > 0 or cfg.track_ipm:
        tr_treated = train_idx[t[train_idx] == 1]
        tr_control = train_idx[t[train_idx] == 0]
        if w1 is None:
            w1 = wasserstein1(h[tr_treated], h[tr_control], cfg.sinkhorn)
        ipm = w1.dist
        if grad and cfg.alpha > 0:
            grad_h_extra = np.zeros_like(h)
            grad_h_extra[tr_treated] = cfg.alpha * w1.grad_treated
            grad_h_extra[tr_control] = cfg.alpha * w1.grad_control
    else:
        w1 = None

    l2 = float(params.theta @ params.theta)
    grads = None
    if grad:
        grads = backward(params, trace, 2.0 * resid / n_train, grad_h_extra)
        if cfg.lam > 0:
            grads.theta += 2.0 * cfg.lam * params.theta

    loss = mse + cfg.alpha * ipm + cfg.lam * l2
    parts = {"mse": mse, "ipm": ipm, "l2": l2}
    return loss, grads, parts, yhat, w1


def evaluate(params: ModelParams, dataset: NetworkedDataset, split: Split, ahat) -> dict:
    """Per-split rooted PEHE, ATE error, and factual MSE from one pass
    of each head over every row."""
    h, _, _, _ = encode(params, ahat, dataset.x)
    y0_hat, y1_hat = (predict(params, h, np.full(dataset.n, t)) for t in (0, 1))
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
    adam = AdamState(size=params.theta.size, learning_rate=cfg.learning_rate)
    report = MetricsReport(splits={})

    best_theta = params.flatten()
    best_val = np.inf
    best_epoch = -1
    for epoch in range(cfg.epochs):
        loss, grads, parts, yhat, w1 = objective(params, dataset, split.train, cfg, ahat)
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
            best_theta = params.flatten()
            best_epoch = epoch
        params.theta[:] = adam_step(adam, params.theta, grads.theta)

    params.theta[:] = best_theta
    report.best_epoch = best_epoch if cfg.epochs > 0 else 0
    report.splits = evaluate(params, dataset, split, ahat)
    return params, report


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
    (best_cfg, best_params, best_report, cells). When every cell fails,
    raises an error of the first cell's error type that names it."""
    if not grid:
        raise ValueError("grid must be nonempty")
    cells = []
    best = first_error = None
    for cfg in grid:
        try:
            params, report = train(dataset, split, cfg)
        except (ValueError, ArithmeticError) as exc:
            first_error = first_error or exc
            cells.append(GridCell(cfg, None, None, error=str(exc)))
            continue
        val = min(report.val_mse_traj) if report.val_mse_traj else report.splits["valid"].factual_mse
        cells.append(GridCell(cfg, val, report))
        if best is None or val < best[0]:
            best = (val, cfg, params, report)
    if best is None:
        raise type(first_error)(f"every grid cell failed; the first: {first_error}") from first_error
    _, best_cfg, best_params, best_report = best
    return best_cfg, best_params, best_report, cells
