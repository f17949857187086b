"""Training objective, splits, evaluation metrics, and grid search.

The objective is factual MSE over the training indices, plus
alpha * W1(treated reps, control reps) computed over training-split
representations only, plus lambda * ||theta||^2. Message passing always
uses the complete graph; only the loss terms are restricted to a split.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .balance import SinkhornConfig, wasserstein1
from .graph import Network, normalize_adjacency
from .linalg import check_fields, make_rng
from .model import ModelParams, backward, encode, forward, init_params, predict
from .optim import AdamState, adam_step
from .simgen import NetworkedDataset

SPLIT_FRACTIONS = (0.6, 0.2, 0.2)  # train, valid, test parts of make_split
SPLIT_TRIES = 100  # draws make_split makes before it gives up


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
        check_fields(self, "alpha lam", 0)
        check_fields(self, "learning_rate", 0, strict=True)
        check_fields(self, "epochs seed", 0, integer=True)
        check_fields(self, "gcn_layers out_layers rep_dim hidden_units", 1, integer=True)


@dataclass
class Split:
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray


def make_split(n: int, t: np.ndarray, seed: int) -> Split:
    """Random disjoint exhaustive train/valid/test split; resamples until
    every part contains at least one treated and one control instance."""
    rng = make_rng(seed, stream=7)
    n_train = int(round(SPLIT_FRACTIONS[0] * n))
    n_valid = int(round(SPLIT_FRACTIONS[1] * n))
    for _ in range(SPLIT_TRIES):
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


def _trajectory(key: str) -> property:
    return property(lambda self: [r[key] for r in self.records], doc=f"each epoch's {key!r}")


@dataclass
class MetricsReport:
    """`train`'s report: one record per epoch, a dict of its loss, the mse,
    ipm and l2 parts, val_mse, and sinkhorn_converged (the W1Result's flag,
    or None when W1 did not run); the trajectories are read-only views."""
    splits: dict  # name -> SplitMetrics at best_epoch (0 when there are no epochs)
    records: list = field(default_factory=list)
    best_epoch: int = 0
    loss_traj = _trajectory("loss")
    mse_traj = _trajectory("mse")
    ipm_traj = _trajectory("ipm")
    l2_traj = _trajectory("l2")
    val_mse_traj = _trajectory("val_mse")
    sinkhorn_unconverged = property(lambda self: sum(r["sinkhorn_converged"] is False for r in self.records),
                                    doc="epochs whose W1 run stopped at max_iters unconverged")


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


def objective(params: ModelParams, dataset: NetworkedDataset, train_idx, cfg: TrainConfig, ahat,
              grad: bool = True, w1=None):
    """Full objective (see module docstring), message passing over `ahat`, the
    caller's normalize_adjacency(dataset.net). Returns the loss, its exact
    gradient (None unless grad), the additive parts, the factual
    predictions for all rows (for validation tracking), the W1Result
    (None when W1 was not computed) and the representations H of every
    row. The W1 gradients are read, and so the Sinkhorn backward runs,
    only when grad is true and alpha > 0; a non-finite W1 gradient raises
    NumericError there. With grad false neither backward runs; the loss
    and parts are the same, since the forward code is shared. Reads only
    x, t, yf from the dataset; counterfactual fields are never inputs.

    A given `w1` is used as the W1Result of this call's representations
    H instead of computing W1 again, and is returned. The caller vouches
    that H is bit for bit the H that `w1` was computed from, for example
    because only head parameters changed since."""
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
    return loss, grads, parts, yhat, w1, h


def evaluate(params: ModelParams, dataset: NetworkedDataset, split: Split, ahat) -> dict:
    """Per-split rooted PEHE, ATE error, and factual MSE from one pass
    of each head over every row."""
    return _split_metrics(params, dataset, split, encode(params, ahat, dataset.x)[0])


def _split_metrics(params: ModelParams, dataset: NetworkedDataset, split: Split, h: np.ndarray) -> dict:
    """`evaluate` on the representations h that `params` encode."""
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


def train(dataset: NetworkedDataset, split: Split, cfg: TrainConfig):
    """Full-batch ADAM training; model selection picks the epoch with the
    best validation factual MSE and scores it on the representations that
    epoch computed, with no second encoder pass. Returns (params,
    MetricsReport). Data without the counterfactual outcomes that the
    final metrics need raises ValueError before the first epoch."""
    _check_train_groups(dataset.t, split.train)
    dataset.true_ite()  # raises on data without ground truth
    ahat = normalize_adjacency(dataset.net)
    rng = make_rng(cfg.seed, stream=11)
    params = init_params(cfg, dataset.x.shape[1], rng)
    adam = AdamState(size=params.theta.size, learning_rate=cfg.learning_rate)
    report = MetricsReport(splits={})

    best_theta = params.flatten()
    best_h = None  # the representations best_theta encodes, once an epoch is picked
    best_val = np.inf
    for epoch in range(cfg.epochs):
        loss, grads, parts, yhat, w1, h = objective(params, dataset, split.train, cfg, ahat)
        if not np.isfinite(loss):
            raise NonFiniteLossError(f"non-finite loss at epoch {epoch}: parts={parts}")
        val_mse = float(np.mean((yhat[split.valid] - dataset.yf[split.valid]) ** 2))
        report.records.append({"loss": loss, **parts, "val_mse": val_mse,
                               "sinkhorn_converged": None if w1 is None else w1.converged})
        if val_mse < best_val:
            best_val, best_theta, best_h, report.best_epoch = val_mse, params.flatten(), h, epoch
        params.theta[:] = adam_step(adam, params.theta, grads.theta)

    params.theta[:] = best_theta
    if best_h is None:  # no epoch was picked: score the initial parameters
        best_h = encode(params, ahat, dataset.x)[0]
    report.splits = _split_metrics(params, dataset, split, best_h)
    return params, report


def ablation_no_network(dataset: NetworkedDataset, split: Split, cfg: TrainConfig):
    """Network-blind control: `train` on the dataset without its edges, whose
    normalized adjacency is the identity (per-node dense layers)."""
    return train(replace(dataset, net=Network(dataset.n)), split, cfg)


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
            cells.append(GridCell(cfg, None, error=str(exc)))
            continue
        val = report.records[report.best_epoch]["val_mse"] if report.records else report.splits["valid"].factual_mse
        cells.append(GridCell(cfg, val))
        if best is None or val < best[0]:
            best = (val, cfg, params, report)
    if best is None:
        raise type(first_error)(f"every grid cell failed; the first: {first_error}") from first_error
    _, best_cfg, best_params, best_report = best
    return best_cfg, best_params, best_report, cells
