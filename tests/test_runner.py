import numpy as np
import pytest

from netite.balance import SinkhornConfig
from netite.graph import normalize_adjacency
from netite.linalg import make_rng
from netite.model import init_params
from netite.runner import (
    DegenerateSplitError,
    TrainConfig,
    _objective_impl,
    ablation_no_network,
    expand_grid,
    grid_search,
    make_split,
    metrics,
    objective,
    train,
)
from netite.simgen import SimConfig, simulate


def tiny_dataset(seed=0, n=120, **kw):
    base = dict(n=n, k=8, vocab=40, words_per_doc=40, kappa2=1.0, seed=seed)
    base.update(kw)
    return simulate(SimConfig(**base))


def tiny_cfg(**kw):
    base = dict(alpha=1e-3, lam=1e-4, learning_rate=1e-2, epochs=20,
                gcn_layers=1, out_layers=1, rep_dim=8, hidden_units=8, seed=0,
                sinkhorn=SinkhornConfig(entropic_reg=0.2, max_iters=100, convergence_tol=0.0))
    base.update(kw)
    return TrainConfig(**base)


# ---- metrics ----

def test_metrics_perfect():
    assert metrics(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == (0.0, 0.0)


def test_metrics_hand_example():
    pehe_sqrt, ate_err = metrics(np.array([2.0, 4.0]), np.array([1.0, 2.0]))
    assert abs(pehe_sqrt - np.sqrt(2.5)) < 1e-12
    assert abs(ate_err - 1.5) < 1e-12


def test_metrics_constant_offset():
    rng = make_rng(0)
    tau = rng.normal(size=50)
    pehe_sqrt, ate_err = metrics(tau + 0.7, tau)
    assert abs(pehe_sqrt - 0.7) < 1e-12
    assert abs(ate_err - 0.7) < 1e-12


def test_metrics_scale():
    rng = make_rng(1)
    tau, tau_hat = rng.normal(size=30), rng.normal(size=30)
    p1, a1 = metrics(tau_hat, tau)
    p3, a3 = metrics(-3 * tau_hat, -3 * tau)
    assert abs(p3 - 3 * p1) < 1e-12
    assert abs(a3 - 3 * a1) < 1e-12


def test_metrics_length_mismatch():
    with pytest.raises(ValueError):
        metrics(np.zeros(2), np.zeros(3))


# ---- splits ----

def test_split_disjoint_exhaustive_both_groups():
    ds = tiny_dataset()
    split = make_split(ds.n, ds.t, seed=3)
    joined = np.sort(np.concatenate([split.train, split.valid, split.test]))
    assert np.array_equal(joined, np.arange(ds.n))
    assert len(split.train) == round(0.6 * ds.n)
    assert len(split.valid) == round(0.2 * ds.n)
    for idx in (split.train, split.valid, split.test):
        assert 0 < ds.t[idx].sum() < idx.size


def test_split_degenerate_raises():
    t = np.ones(10, dtype=np.int64)  # all treated, no control anywhere
    with pytest.raises(DegenerateSplitError):
        make_split(10, t, seed=0, max_tries=5)


# ---- objective ----

def test_objective_reduces_to_mse():
    ds = tiny_dataset()
    split = make_split(ds.n, ds.t, 0)
    cfg = tiny_cfg(alpha=0.0, lam=0.0, track_ipm=False)
    params = init_params(cfg, ds.x.shape[1], make_rng(0))
    loss, _, parts = objective(params, ds, split.train, cfg)
    assert loss == parts["mse"]
    assert parts["ipm"] == 0.0


def test_objective_additivity():
    ds = tiny_dataset()
    split = make_split(ds.n, ds.t, 0)
    cfg = tiny_cfg()
    params = init_params(cfg, ds.x.shape[1], make_rng(1))
    loss, _, parts = objective(params, ds, split.train, cfg)
    assert abs(loss - (parts["mse"] + cfg.alpha * parts["ipm"] + cfg.lam * parts["l2"])) < 1e-9


def test_objective_l2_only_for_perfect_predictor():
    # zero out everything except the l2 term by using zero outcomes and
    # zero parameters: mse of the zero predictor on zero targets is 0
    ds = tiny_dataset()
    ds.yf = np.zeros(ds.n)
    split = make_split(ds.n, ds.t, 0)
    cfg = tiny_cfg(alpha=0.0, track_ipm=False)
    params = init_params(cfg, ds.x.shape[1], make_rng(2))
    zero = params.unflatten_from(np.zeros_like(params.flatten()))
    loss, _, parts = objective(zero, ds, split.train, cfg)
    assert parts["mse"] == 0.0
    assert loss == cfg.lam * parts["l2"] == 0.0


def test_objective_degenerate_train_split():
    ds = tiny_dataset()
    idx = np.flatnonzero(ds.t == 1)  # treated-only "split"
    cfg = tiny_cfg()
    params = init_params(cfg, ds.x.shape[1], make_rng(3))
    with pytest.raises(DegenerateSplitError):
        objective(params, ds, idx, cfg)


def test_objective_never_reads_counterfactuals():
    ds = tiny_dataset()

    class Tripwire:
        def __getattr__(self, name):
            raise AssertionError("counterfactual field accessed during training")

    ds.ycf = Tripwire()
    ds.mu0 = Tripwire()
    ds.mu1 = Tripwire()
    split = make_split(ds.n, ds.t, 0)
    cfg = tiny_cfg(epochs=2)
    params = init_params(cfg, ds.x.shape[1], make_rng(4))
    objective(params, ds, split.train, cfg)
    # train() reads them only in the final evaluation step, which needs
    # the ground truth; the optimization loop itself must not
    with pytest.raises(AssertionError):
        train(ds, split, cfg)


def test_objective_gradient_matches_finite_differences():
    from netite.gradcheck import fd_max_rel_err

    assert fd_max_rel_err(123) < 1e-4


def assert_value_path_equals_gradient_path(params, ds, train_idx, cfg, ahat):
    loss, grads, parts, yhat, w1 = _objective_impl(params, ahat, ds, train_idx, cfg)
    v_loss, v_grads, v_parts, v_yhat, v_w1 = _objective_impl(params, ahat, ds, train_idx, cfg, grad=False)
    assert (v_loss, v_parts) == (loss, parts)
    assert np.array_equal(v_yhat, yhat)
    assert (v_w1.dist, v_w1.converged, v_w1.iterations) == (w1.dist, w1.converged, w1.iterations)
    assert grads is not None and v_grads is None and v_w1.grad_treated is None
    assert objective(params, ds, train_idx, cfg, ahat=ahat, grad=False) == (loss, None, parts)


def test_value_only_objective_on_gradcheck_instances():
    from netite.gradcheck import random_tiny_instance

    for seed in range(20):
        params, ds, train_idx, cfg, ahat = random_tiny_instance(seed)
        assert_value_path_equals_gradient_path(params, ds, train_idx, cfg, ahat)
        probe = params.flatten()
        probe[seed % probe.size] += 1e-5  # a finite-difference probe point
        assert_value_path_equals_gradient_path(params.unflatten_from(probe), ds, train_idx, cfg, ahat)


@pytest.mark.parametrize("alpha", [1e-3, 0.0], ids=["penalty-on", "penalty-off-track-ipm"])
def test_value_only_objective_on_train_instance(alpha):
    ds = tiny_dataset()
    split = make_split(ds.n, ds.t, 0)
    cfg = tiny_cfg(alpha=alpha, track_ipm=True, sinkhorn=SinkhornConfig())
    params = init_params(cfg, ds.x.shape[1], make_rng(6))
    assert_value_path_equals_gradient_path(params, ds, split.train, cfg, normalize_adjacency(ds.net))


# ---- training ----

def test_train_zero_epochs_returns_initial_model():
    ds = tiny_dataset()
    split = make_split(ds.n, ds.t, 0)
    cfg = tiny_cfg(epochs=0)
    params, report = train(ds, split, cfg)
    init = init_params(cfg, ds.x.shape[1], make_rng(cfg.seed, stream=11))
    assert np.array_equal(params.flatten(), init.flatten())
    assert report.best_epoch == 0
    assert report.loss_traj == []


def test_train_loss_decreases():
    ds = tiny_dataset()
    split = make_split(ds.n, ds.t, 0)
    _, report = train(ds, split, tiny_cfg(epochs=50))
    assert report.loss_traj[-1] < report.loss_traj[0]


def test_train_deterministic():
    ds = tiny_dataset()
    split = make_split(ds.n, ds.t, 0)
    p1, r1 = train(ds, split, tiny_cfg(epochs=10))
    p2, r2 = train(ds, split, tiny_cfg(epochs=10))
    assert np.array_equal(p1.flatten(), p2.flatten())
    assert r1.loss_traj == r2.loss_traj
    assert r1.splits["test"] == r2.splits["test"]


def test_train_loss_decomposition_every_epoch():
    ds = tiny_dataset()
    split = make_split(ds.n, ds.t, 0)
    cfg = tiny_cfg(epochs=15)
    _, report = train(ds, split, cfg)
    for loss, mse, ipm, l2 in zip(report.loss_traj, report.mse_traj,
                                  report.ipm_traj, report.l2_traj):
        assert abs(loss - (mse + cfg.alpha * ipm + cfg.lam * l2)) < 1e-9


def test_train_counts_unconverged_sinkhorn_epochs():
    ds = tiny_dataset()
    split = make_split(ds.n, ds.t, 0)
    capped = tiny_cfg(epochs=4, sinkhorn=SinkhornConfig(max_iters=1))
    assert train(ds, split, capped)[1].sinkhorn_unconverged == 4
    converging = tiny_cfg(epochs=4, sinkhorn=SinkhornConfig())
    assert train(ds, split, converging)[1].sinkhorn_unconverged == 0
    unbalanced = tiny_cfg(epochs=4, alpha=0.0, track_ipm=False, sinkhorn=SinkhornConfig(max_iters=1))
    assert train(ds, split, unbalanced)[1].sinkhorn_unconverged == 0  # W1 never runs


@pytest.mark.parametrize("lr", [0.0, -1e-2, np.nan, np.inf, "fast", None])
def test_train_config_rejects_bad_learning_rate(lr):
    with pytest.raises(ValueError):
        tiny_cfg(learning_rate=lr)


@pytest.mark.parametrize("field", ["alpha", "lam"])
@pytest.mark.parametrize("value", [-1e-4, np.nan, np.inf, "big", None])
def test_train_config_rejects_bad_penalty_weight(field, value):
    with pytest.raises(ValueError):
        tiny_cfg(**{field: value})


def test_ablation_identity_equals_dense_forward():
    from netite.graph import identity_adjacency
    from netite.model import forward

    ds = tiny_dataset(n=30)
    cfg = tiny_cfg()
    params = init_params(cfg, ds.x.shape[1], make_rng(5))
    ahat = identity_adjacency(ds.n)
    y_graph, _ = forward(params, ahat, ds.x, ds.t)
    # same computation with plain dense layers, one instance at a time
    i = 7
    h = ds.x[i : i + 1]
    for w, b in zip(params.gcn_weights, params.gcn_biases):
        h = np.maximum(h @ w + b, 0.0)
    t = int(ds.t[i])
    for w, b in zip(params.head_weights[t], params.head_biases[t]):
        h = np.maximum(h @ w + b, 0.0)
    y_dense = float((h @ params.head_out_weights[t])[0] + params.head_out_biases[t])
    assert y_graph[i] == y_dense


def test_evaluate_equals_two_predict_passes():
    from netite.graph import normalize_adjacency
    from netite.model import encode, predict
    from netite.runner import SplitMetrics, evaluate

    ds = tiny_dataset()
    split = make_split(ds.n, ds.t, 0)
    params = init_params(tiny_cfg(gcn_layers=2, out_layers=2), ds.x.shape[1], make_rng(3))
    ahat = normalize_adjacency(ds.net)
    h = encode(params, ahat, ds.x)[0]
    y1 = predict(params, h, np.ones(ds.n, dtype=np.int64))
    y0 = predict(params, h, np.zeros(ds.n, dtype=np.int64))
    tau_hat, tau, yhat_f = y1 - y0, ds.true_ite(), np.where(ds.t == 1, y1, y0)
    got = evaluate(params, ds, split, ahat)
    for name, idx in (("train", split.train), ("valid", split.valid), ("test", split.test)):
        pehe_sqrt, ate_err = metrics(tau_hat[idx], tau[idx])
        mse = float(np.mean((yhat_f[idx] - ds.yf[idx]) ** 2))
        assert got[name] == SplitMetrics(pehe_sqrt, ate_err, mse)


def test_ablation_runs_and_differs_from_full():
    ds = tiny_dataset(kappa2=2.0)
    split = make_split(ds.n, ds.t, 0)
    cfg = tiny_cfg(epochs=10)
    _, full = train(ds, split, cfg)
    _, abl = ablation_no_network(ds, split, cfg)
    assert full.splits["test"].pehe_sqrt != abl.splits["test"].pehe_sqrt


# ---- grid search ----

def test_expand_grid_counts():
    axes = {"learning_rate": [1e-1, 1e-2, 1e-3, 1e-4], "out_layers": [1, 2, 3],
            "rep_dim": [50, 100, 200], "alpha": [1e-3, 1e-4, 1e-5, 1e-6],
            "lam": [1e-3, 1e-4, 1e-5, 1e-6]}
    cells = expand_grid(TrainConfig(), axes)
    assert len(cells) == 4 * 3 * 3 * 4 * 4


def test_singleton_grid_equals_train():
    ds = tiny_dataset()
    split = make_split(ds.n, ds.t, 0)
    cfg = tiny_cfg(epochs=8)
    best_cfg, best_params, best_report, cells = grid_search(ds, split, [cfg])
    direct_params, direct_report = train(ds, split, cfg)
    assert best_cfg == cfg
    assert np.array_equal(best_params.flatten(), direct_params.flatten())
    assert best_report.splits == direct_report.splits
    assert len(cells) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_failing_cell_recorded_and_skipped():
    ds = tiny_dataset()
    split = make_split(ds.n, ds.t, 0)
    good = tiny_cfg(epochs=5)
    bad = tiny_cfg(epochs=5, learning_rate=1e300)  # diverges to non-finite loss
    best_cfg, _, _, cells = grid_search(ds, split, [bad, good])
    assert best_cfg == good
    statuses = [c.error for c in cells]
    assert statuses[0] is not None and statuses[1] is None


def test_grid_deterministic_winner():
    ds = tiny_dataset()
    split = make_split(ds.n, ds.t, 0)
    grid = [tiny_cfg(epochs=6, learning_rate=lr) for lr in (1e-2, 1e-3)]
    w1 = grid_search(ds, split, grid)[0]
    w2 = grid_search(ds, split, grid)[0]
    assert w1 == w2
