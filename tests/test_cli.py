import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netite
from netite import io as nio
from netite.cli import RESULT_COLUMNS, build_parser, expand_grid_file, format_results, main
from netite.runner import SplitMetrics, TrainConfig

SIM_JSON = dict(n=60, k=5, vocab=30, words_per_doc=25, target_degree=6.0)


def write_sim_config(tmp_path, **extra):
    cfg = {**SIM_JSON, **extra}
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return path


def simulate_dir(tmp_path, reps=1, seed=0, extra_args=(), capsys=None):
    cfg = write_sim_config(tmp_path)
    out = tmp_path / "data"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out),
               "--seed", str(seed), "--reps", str(reps), *extra_args])
    assert rc == 0
    if capsys is not None:
        capsys.readouterr()  # drop the simulate summary lines
    return out


def test_simulate_writes_rep_directories(tmp_path, capsys):
    out = simulate_dir(tmp_path, reps=3)
    capsys.readouterr()
    for rep in range(3):
        d = out / f"rep_{rep}"
        for name in ("edges.tsv", "features.mtx", "nodes.tsv", "meta.json"):
            assert (d / name).is_file()
    # different streams give different treatment draws
    a = (out / "rep_0" / "nodes.tsv").read_text()
    b = (out / "rep_1" / "nodes.tsv").read_text()
    assert a != b


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    out1 = simulate_dir(tmp_path / "run1")
    out2 = simulate_dir(tmp_path / "run2")
    capsys.readouterr()
    for name in ("edges.tsv", "features.mtx", "nodes.tsv", "meta.json"):
        assert (out1 / "rep_0" / name).read_bytes() == (out2 / "rep_0" / name).read_bytes()


def test_simulate_unknown_config_field(tmp_path, capsys):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"n": 10, "bogus": 1}))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_simulate_malformed_json(tmp_path, capsys):
    path = tmp_path / "sim.json"
    path.write_text("{not json")
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "d")])
    assert rc == 2


@pytest.mark.parametrize("text, extra", [("5", []), ("[]", ["--seed", "3"])], ids=["number", "list-with-seed"])
def test_simulate_config_not_an_object_exits_2(tmp_path, capsys, text, extra):
    path = tmp_path / "sim.json"
    path.write_text(text)
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "d"), *extra])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "JSON object" in captured.err


@pytest.mark.parametrize("args, message", [
    (["gradcheck", "--instances", "0"], "must be >= 1"),
    (["simulate", "--out", "d", "--reps", "0"], "must be >= 1"),
    (["gradcheck", "--seed", "-1"], "--seed must be >= 0"),
    (["gradcheck", "--seed", str(2**63 - 1), "--instances", "2"], "--seed + --instances <= 2**63"),
    (["simulate", "--out", "d", "--reps", "1", "--seed", "-1"], "seed must be an integer >= 0"),
], ids=["instances", "reps", "gradcheck-negative-seed", "gradcheck-seed-beyond-int64", "simulate-negative-seed"])
def test_count_flag_below_one_exits_2(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    rc = main(args)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and message in captured.err
    assert list(tmp_path.iterdir()) == []


def test_simulate_no_confounding_balanced(tmp_path, capsys):
    cfg = write_sim_config(tmp_path, n=400, kappa1=0.0, kappa2=0.0)
    out = tmp_path / "d"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--reps", "1"]) == 0
    capsys.readouterr()
    rows = (out / "rep_0" / "nodes.tsv").read_text().splitlines()[1:]
    treated = sum(int(r.split("\t")[1]) for r in rows)
    assert abs(treated / 400 - 0.5) < 0.1


@pytest.mark.parametrize("extra", [
    {"homophily": float("nan")},  # used to give 0 edges silently
    {"homophily": 800.0},  # exp overflows: the weights sum to inf
    {"target_degree": -3.0},
    {"n": 60.5}, {"k": 5.0}, {"seed": 1.5}, {"n": True},
    {"words_per_doc": 25.5},  # used to draw 25 words and record 25.5
    {"dirichlet_alpha": -1.0}, {"topic_word_alpha": 0.0},
    {"scale_c": float("nan")},  # used to write NaN outcomes
    {"kappa1": float("inf")},
    {"words_per_doc": 10**19}, {"n": 10**19},  # beyond int64: numpy used to raise
], ids=["homophily-nan", "homophily-overflow", "negative-degree", "float-n", "float-k", "float-seed",
        "bool-n", "float-words-per-doc", "negative-dirichlet-alpha", "zero-topic-word-alpha",
        "nan-scale", "inf-kappa1", "words-per-doc-beyond-int64", "n-beyond-int64"])
def test_simulate_edgeless_config_exits_2(tmp_path, capsys, extra):
    cfg = write_sim_config(tmp_path, **extra)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d"), "--reps", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert not (tmp_path / "d").exists()


TRAIN_FAST = ["--epochs", "10", "--gcn-layers", "1", "--out-layers", "1",
              "--dim", "8", "--alpha", "1e-3", "--lr", "1e-2"]


def test_train_prints_results_table(tmp_path, capsys):
    out = simulate_dir(tmp_path, capsys=capsys)
    rc = main(["train", "--data", str(out / "rep_0"), *TRAIN_FAST])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    table = [l for l in lines if l.split("\t")[0] in ("dataset", "rep_0")]
    assert table[0].split("\t") == ["dataset", "rep", "split", "pehe_sqrt", "ate_err", "mse"]
    assert len(table) == 4
    for row in table[1:]:
        vals = row.split("\t")
        assert vals[0] == "rep_0"
        assert all(np.isfinite(float(v)) for v in vals[3:])


def test_results_table_format():
    sm = SplitMetrics(pehe_sqrt=1.5, ate_err=0.25, factual_mse=2.0)
    header, *lines = format_results("rep_0", 3, {"train": sm, "valid": sm, "test": sm}).splitlines()
    assert len(lines) == 3
    assert lines[0].split("\t") == ["rep_0", "3", "train", "1.5", "0.25", "2.0"]
    assert [l.split("\t")[2] for l in lines] == ["train", "valid", "test"]
    assert header.split("\t") == RESULT_COLUMNS == ["dataset", "rep", "split", "pehe_sqrt", "ate_err", "mse"]


def test_train_byte_deterministic(tmp_path, capsys):
    out = simulate_dir(tmp_path, capsys=capsys)
    outputs = []
    for _ in range(2):
        assert main(["train", "--data", str(out / "rep_0"), "--seed", "5", *TRAIN_FAST]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_train_missing_dataset(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope"), *TRAIN_FAST])
    assert rc == 2


def test_train_observational_only_rejected(tmp_path, capsys):
    out = simulate_dir(tmp_path, extra_args=["--observational-only"])
    rc = main(["train", "--data", str(out / "rep_0"), *TRAIN_FAST])
    assert rc == 2
    assert "observational" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["grid", "--grid", "unread.json"], ["eval", "--checkpoint", "unread.ckpt"]],
                         ids=["grid", "eval"])
def test_grid_and_eval_need_ground_truth(tmp_path, capsys, command):
    out = simulate_dir(tmp_path, extra_args=["--observational-only"], capsys=capsys)
    rc = main([command[0], "--data", str(out / "rep_0"), *command[1:]])
    assert rc == 2
    assert "observational" in capsys.readouterr().err


def test_train_ablation_flag_changes_result(tmp_path, capsys):
    out = simulate_dir(tmp_path, capsys=capsys)
    assert main(["train", "--data", str(out / "rep_0"), *TRAIN_FAST]) == 0
    full = capsys.readouterr().out
    assert main(["train", "--data", str(out / "rep_0"), "--ablation-identity", *TRAIN_FAST]) == 0
    abl = capsys.readouterr().out
    assert full != abl


def test_train_non_finite_gradient_exits_5(tmp_path, capsys, monkeypatch):
    import netite.runner
    from netite.linalg import NumericError

    def failing_step(state, theta, grad):
        raise NumericError("non-finite gradient at coordinate 0")

    out = simulate_dir(tmp_path, capsys=capsys)
    monkeypatch.setattr(netite.runner, "adam_step", failing_step)
    rc = main(["train", "--data", str(out / "rep_0"), *TRAIN_FAST])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "non-finite gradient" in captured.err


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
@pytest.mark.parametrize("flags", [["--epochs", "-5"], ["--lr", "-1"], ["--lr", "nan"],
                                   ["--alpha", "nan"], ["--lambda", "nan"], ["--alpha", "inf"],
                                   ["--seed", "-1"], ["--dim", str(10**19)], ["--gcn-layers", str(10**19)]],
                         ids=["negative-epochs", "negative-lr", "nan-lr", "nan-alpha", "nan-lambda",
                              "inf-alpha", "negative-seed", "dim-beyond-int64", "gcn-layers-beyond-int64"])
def test_train_bad_config_exits_2(tmp_path, capsys, flags):
    out = simulate_dir(tmp_path, capsys=capsys)
    rc = main(["train", "--data", str(out / "rep_0"), *TRAIN_FAST, *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_train_overflow_exits_5(tmp_path, capsys):
    out = simulate_dir(tmp_path, capsys=capsys)
    nodes = out / "rep_0" / "nodes.tsv"
    lines = nodes.read_text().splitlines()
    fields = lines[1].split("\t")
    fields[2] = "1e308"  # yf: finite, but its square overflows
    lines[1] = "\t".join(fields)
    nodes.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--data", str(out / "rep_0"), *TRAIN_FAST])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "overflow" in captured.err


def test_train_warns_on_unconverged_sinkhorn(tmp_path, capsys, monkeypatch):
    import netite.runner

    out = simulate_dir(tmp_path, capsys=capsys)
    args = ["train", "--data", str(out / "rep_0"), *TRAIN_FAST]
    assert main(args) == 0
    clean = capsys.readouterr()
    assert clean.err == ""
    real = netite.runner.wasserstein1
    monkeypatch.setattr(netite.runner, "wasserstein1",
                        lambda *a, **kw: real(*a, **kw)._replace(converged=False))
    assert main(args) == 0
    warned = capsys.readouterr()
    assert warned.out == clean.out
    assert warned.err.count("\n") == 1
    assert warned.err.startswith("warning:") and "10 of 10 epochs" in warned.err


def test_grid_warns_on_unconverged_sinkhorn(tmp_path, capsys, monkeypatch):
    """grid surfaces its winning cell's unconverged Sinkhorn epochs as train
    does: one stderr line, and stdout as in a clean run."""
    import netite.runner

    out = simulate_dir(tmp_path, capsys=capsys)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"epochs": [3, 4], "dim": [8], "gcn_layers": [1]}))
    args = ["grid", "--data", str(out / "rep_0"), "--grid", str(grid)]
    assert main(args) == 0
    clean = capsys.readouterr()
    assert clean.err == ""
    real = netite.runner.wasserstein1
    monkeypatch.setattr(netite.runner, "wasserstein1",
                        lambda *a, **kw: real(*a, **kw)._replace(converged=False))
    assert main(args) == 0
    warned = capsys.readouterr()
    assert warned.out == clean.out
    assert warned.err.count("\n") == 1 and warned.err.startswith("warning:")
    winner = dict(kv.split("=") for kv in warned.out.splitlines()[3].split("\t")[1:])
    assert f"{winner['epochs']} of {winner['epochs']} epochs" in warned.err


def test_eval_reproduces_training_metrics(tmp_path, capsys):
    out = simulate_dir(tmp_path, capsys=capsys)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(out / "rep_0"), "--seed", "3",
                 "--checkpoint", str(ckpt), *TRAIN_FAST]) == 0
    train_out = capsys.readouterr().out
    assert main(["eval", "--data", str(out / "rep_0"), "--checkpoint", str(ckpt)]) == 0
    eval_out = capsys.readouterr().out
    assert eval_out == train_out


def test_eval_reproduces_ablation_metrics(tmp_path, capsys):
    out = simulate_dir(tmp_path, capsys=capsys)
    ckpt = tmp_path / "model.ckpt"
    data = ["--data", str(out / "rep_0")]
    assert main(["train", *data, "--ablation-identity", "--checkpoint", str(ckpt), *TRAIN_FAST]) == 0
    train_out = capsys.readouterr().out
    assert main(["eval", *data, "--ablation-identity", "--checkpoint", str(ckpt)]) == 0
    assert capsys.readouterr().out == train_out
    # the model was trained without edges; the real graph gives other numbers
    assert main(["eval", *data, "--checkpoint", str(ckpt)]) == 0
    assert capsys.readouterr().out != train_out


def test_eval_corrupt_checkpoint(tmp_path, capsys):
    out = simulate_dir(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(out / "rep_0"), "--checkpoint", str(ckpt), *TRAIN_FAST]) == 0
    capsys.readouterr()
    lines = ckpt.read_text().splitlines()
    ckpt.write_text("\n".join(lines[:-5]) + "\n")
    rc = main(["eval", "--data", str(out / "rep_0"), "--checkpoint", str(ckpt)])
    assert rc == 6


def test_eval_feature_count_mismatch(tmp_path, capsys):
    out = simulate_dir(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(out / "rep_0"), "--checkpoint", str(ckpt), *TRAIN_FAST]) == 0
    capsys.readouterr()
    other_cfg = tmp_path / "sim2.json"
    other_cfg.write_text(json.dumps({**SIM_JSON, "vocab": 31}))
    assert main(["simulate", "--config", str(other_cfg), "--out", str(tmp_path / "d2"),
                 "--reps", "1"]) == 0
    capsys.readouterr()
    rc = main(["eval", "--data", str(tmp_path / "d2" / "rep_0"), "--checkpoint", str(ckpt)])
    assert rc == 6


def test_eval_checkpoint_dimension_below_one_exits_6(tmp_path, capsys):
    out = simulate_dir(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(out / "rep_0"), "--checkpoint", str(ckpt), *TRAIN_FAST]) == 0
    capsys.readouterr()
    lines = ckpt.read_text().splitlines()
    lines[3] = "gcn_dims -4,4"
    ckpt.write_text("\n".join(lines) + "\n")
    rc = main(["eval", "--data", str(out / "rep_0"), "--checkpoint", str(ckpt)])
    assert rc == 6
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_eval_negative_checkpoint_seed_exits_6(tmp_path, capsys):
    out = simulate_dir(tmp_path, capsys=capsys)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(out / "rep_0"), "--checkpoint", str(ckpt), *TRAIN_FAST]) == 0
    capsys.readouterr()
    lines = ckpt.read_text().splitlines()
    lines[1] = "seed -1"
    ckpt.write_text("\n".join(lines) + "\n")
    rc = main(["eval", "--data", str(out / "rep_0"), "--checkpoint", str(ckpt)])
    assert rc == 6
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "negative seed" in captured.err


def test_grid_command(tmp_path, capsys):
    out = simulate_dir(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"lr": [1e-2, 1e-3], "dim": [8], "out_layers": [1],
                                "gcn_layers": [1], "epochs": [5]}))
    rc = main(["grid", "--data", str(out / "rep_0"), "--grid", str(grid),
               "--out", str(tmp_path / "res")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "winner\t" in text
    grid_tsv = (tmp_path / "res" / "grid.tsv").read_text().splitlines()
    assert grid_tsv[0].split("\t") == ["lr", "alpha", "lambda", "gcn_layers", "out_layers", "dim", "epochs",
                                       "val_mse", "status"]
    assert all(l.split("\t")[3:7] == ["1", "1", "8", "5"] for l in grid_tsv[1:])
    assert len(grid_tsv) == 3  # header + 2 cells
    assert all(l.split("\t")[-1] == "ok" for l in grid_tsv[1:])


def test_grid_winner_line_names_every_axis(tmp_path, capsys):
    """The winner line holds the header's axes in the header's order, with
    the values of the ok row of lowest val_mse."""
    out = simulate_dir(tmp_path, capsys=capsys)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"gcn_layers": [1, 2], "epochs": [3], "dim": [8]}))
    assert main(["grid", "--data", str(out / "rep_0"), "--grid", str(grid)]) == 0
    lines = capsys.readouterr().out.splitlines()
    header, rows = lines[0].split("\t"), [l.split("\t") for l in lines[1:3]]
    assert header[-2:] == ["val_mse", "status"] and "gcn_layers" in header
    best = min((r for r in rows if r[-1] == "ok"), key=lambda r: float(r[-2]))
    assert lines[3].split("\t") == ["winner", *(f"{k}={v}" for k, v in zip(header[:-2], best))]


def test_train_flag_defaults_are_train_config_defaults():
    args = build_parser().parse_args(["train", "--data", "d"])
    defaults = TrainConfig()
    for flag, name in [("lr", "learning_rate"), ("alpha", "alpha"), ("lambda", "lam"),
                       ("gcn_layers", "gcn_layers"), ("out_layers", "out_layers"), ("dim", "rep_dim"),
                       ("epochs", "epochs")]:
        value = getattr(defaults, name)
        assert getattr(args, flag) == value and type(getattr(args, flag)) is type(value)


def test_grid_unknown_axis(tmp_path, capsys):
    out = simulate_dir(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"momentum": [0.9]}))
    rc = main(["grid", "--data", str(out / "rep_0"), "--grid", str(grid)])
    assert rc == 2


@pytest.mark.filterwarnings("error")
def test_grid_every_cell_failing_exits_5(tmp_path, capsys):
    out = simulate_dir(tmp_path, capsys=capsys)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"lr": [1e300], "epochs": 3}))
    rc = main(["grid", "--data", str(out / "rep_0"), "--grid", str(grid)])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "every grid cell failed; the first: overflow" in captured.err


def test_expand_grid_file_epochs_is_an_axis():
    cells = expand_grid_file({"epochs": [5, 500], "lr": [1e-2, 1e-3]}, seed=0)
    assert [(c.epochs, c.learning_rate) for c in cells] == [(5, 1e-2), (5, 1e-3),
                                                            (500, 1e-2), (500, 1e-3)]
    assert [c.epochs for c in expand_grid_file({"epochs": 7}, seed=0)] == [7]
    assert [c.epochs for c in expand_grid_file({"lr": [1e-2]}, seed=0)] == [50]


@pytest.mark.parametrize("axes, extra", [
    ({"epochs": []}, []), ({"dim": [0]}, []), ({"lr": ["fast"]}, []), ({"lr": [-1.0]}, []), (5, []),
    ({"epochs": [2.5]}, []), ({"dim": [2.5]}, []), ({"gcn_layers": [1.5]}, []), ({"out_layers": [2.0]}, []),
    ({"epochs": [True]}, []),  # used to train one epoch
    ({"alpha": [True]}, []), ({"lr": [True]}, []),
    ({"epochs": [1]}, ["--seed", "-1"]),
], ids=["axes0", "axes1", "axes2", "axes3", "5", "float-epochs", "float-dim", "float-gcn-layers",
        "float-out-layers", "bool-epochs", "bool-alpha", "bool-lr", "negative-seed"])
def test_grid_bad_axis_value_exits_2(tmp_path, capsys, axes, extra):
    out = simulate_dir(tmp_path, capsys=capsys)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(axes))
    rc = main(["grid", "--data", str(out / "rep_0"), "--grid", str(grid), *extra])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def _command_args(command, data, tmp_path):
    if command == "grid":
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"epochs": [1], "dim": [4]}))
        return ["grid", "--data", data, "--grid", str(grid)]
    if command == "eval":
        return ["eval", "--data", data, "--checkpoint", str(tmp_path / "model.ckpt")]
    return ["train", "--data", data, *TRAIN_FAST]


@pytest.mark.parametrize("command", ["train", "grid", "eval"])
@pytest.mark.parametrize("meta", ['{"format_version": 99}', '{"config": null}', "{not json"])
def test_dataset_format_version_mismatch_exits_2(tmp_path, capsys, command, meta):
    out = simulate_dir(tmp_path, capsys=capsys)
    (out / "rep_0" / "meta.json").write_text(meta)
    rc = main(_command_args(command, str(out / "rep_0"), tmp_path))
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "meta.json" in captured.err


@pytest.mark.parametrize("command", ["train", "grid", "eval"])
def test_malformed_dataset_exits_3(tmp_path, capsys, command):
    out = simulate_dir(tmp_path, capsys=capsys)
    nodes = out / "rep_0" / "nodes.tsv"
    lines = nodes.read_text().splitlines()
    lines[2] = "0" + lines[2][lines[2].index("\t"):]  # node 1's row claims id 0
    nodes.write_text("\n".join(lines) + "\n")
    rc = main(_command_args(command, str(out / "rep_0"), tmp_path))
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "nodes.tsv: ids are not" in captured.err


@pytest.mark.parametrize("name, row, col", [("features.mtx", 1, 2), ("nodes.tsv", 1, 2), ("nodes.tsv", 2, 3)])
def test_non_finite_dataset_value_exits_3(tmp_path, capsys, name, row, col):
    out = simulate_dir(tmp_path, capsys=capsys)
    path = out / "rep_0" / name
    lines = path.read_text().splitlines()
    sep = " " if name == "features.mtx" else "\t"
    fields = lines[row].split(sep)
    fields[col] = "nan"
    lines[row] = sep.join(fields)
    path.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--data", str(out / "rep_0"), *TRAIN_FAST])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and f"{name}: " in captured.err and "not finite" in captured.err


def test_unallocatable_feature_shape_exits_3(tmp_path, capsys):
    out = simulate_dir(tmp_path, capsys=capsys)
    path = out / "rep_0" / "features.mtx"
    lines = path.read_text().splitlines()
    lines[0] = "100000000 100000000 " + lines[0].split()[2]  # 8e16 bytes of x
    path.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--data", str(out / "rep_0"), *TRAIN_FAST])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "features.mtx: cannot allocate" in captured.err


@pytest.mark.parametrize("command", ["train", "grid"])
def test_dataset_without_feature_columns_exits_3(tmp_path, capsys, command):
    out = simulate_dir(tmp_path, capsys=capsys)
    (out / "rep_0" / "features.mtx").write_text("60 0 0\n")
    rc = main(_command_args(command, str(out / "rep_0"), tmp_path))
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "features.mtx: " in captured.err and "no feature columns" in captured.err


def test_dataset_without_nodes_exits_4(tmp_path, capsys):
    """n = 0 with feature columns still reads, and fails at the split."""
    data = simulate_dir(tmp_path, capsys=capsys) / "rep_0"
    (data / "features.mtx").write_text("0 30 0\n")
    (data / "edges.tsv").write_text("")
    (data / "nodes.tsv").write_text("\t".join(nio.NODE_COLUMNS_FULL) + "\n")
    assert main(["train", "--data", str(data), *TRAIN_FAST]) == 4
    assert capsys.readouterr().err.count("\n") == 1


def test_eval_non_finite_checkpoint_exits_6(tmp_path, capsys):
    out = simulate_dir(tmp_path, capsys=capsys)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(out / "rep_0"), "--checkpoint", str(ckpt), *TRAIN_FAST]) == 0
    capsys.readouterr()
    lines = ckpt.read_text().splitlines()
    lines[-1] = "nan"
    ckpt.write_text("\n".join(lines) + "\n")
    rc = main(["eval", "--data", str(out / "rep_0"), "--checkpoint", str(ckpt)])
    assert rc == 6
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "non-finite" in captured.err


def test_expand_grid_file_reproduces_reference_grid():
    axes = {"lr": [1e-1, 1e-2, 1e-3, 1e-4],
            "out_layers": [1, 2, 3],
            "dim": [50, 100, 200],
            "alpha": [1e-3, 1e-4, 1e-5, 1e-6],
            "lambda": [1e-3, 1e-4, 1e-5, 1e-6]}
    cells = expand_grid_file(axes, seed=0)
    assert len(cells) == 4 * 3 * 3 * 4 * 4
    # dim drives both the representation and hidden widths
    assert all(c.hidden_units == c.rep_dim for c in cells)
    assert len({(c.learning_rate, c.out_layers, c.rep_dim, c.alpha, c.lam) for c in cells}) == 576


def test_gradcheck_command(capsys):
    rc = main(["gradcheck", "--seed", "7", "--instances", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("max_rel_err\t")
    assert float(out.split("\t")[1]) < 1e-4


# A missing checkpoint is a missing input (exit 2); any other file that
# cannot be read or written is an I/O failure (exit 3), the train
# checkpoint's missing directory included. Each is one stderr line.
@pytest.mark.parametrize("args, code", [
    (["eval", "--data", "data/rep_0", "--checkpoint", "."], 3),
    (["eval", "--data", "data/rep_0", "--checkpoint", "missing.ckpt"], 2),
    (["train", "--data", "data/rep_0", "--checkpoint", "no_dir/model.ckpt", *TRAIN_FAST], 3),
    (["grid", "--data", "data/rep_0", "--grid", "grid.json", "--out", "sim.json"], 3),
    (["simulate", "--config", "sim.json", "--out", "sim.json", "--reps", "1"], 3),
], ids=["eval-directory", "eval-missing", "train-unwritable", "grid-unwritable", "simulate-unwritable"])
def test_unusable_paths(tmp_path, capsys, monkeypatch, args, code):
    simulate_dir(tmp_path, capsys=capsys)
    (tmp_path / "grid.json").write_text(json.dumps({"epochs": [1], "dim": [4]}))
    monkeypatch.chdir(tmp_path)
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")


def test_train_same_bytes_at_every_blas_thread_count(tmp_path):
    """Importing netite holds numpy's OpenBLAS at one thread, so `netite
    train` writes the same stdout and checkpoint with OPENBLAS_NUM_THREADS
    unset, 1 or 2. At this criterion-7 data shape an unpinned OpenBLAS on
    two or more cores rounds X W0, X^T G and Sinkhorn's K v otherwise."""
    cfg = write_sim_config(tmp_path, n=3000, k=10, vocab=500, words_per_doc=300, kappa2=2.0, homophily=2.0,
                           target_degree=20.0)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "data"), "--reps", "1"]) == 0
    src = str(Path(netite.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    data, runs = tmp_path / "data" / "rep_0", []
    for threads in (None, "1", "2"):
        ckpt = tmp_path / f"model-{threads}.ckpt"
        pin = {"OPENBLAS_NUM_THREADS": threads} if threads else {}
        out = subprocess.run([sys.executable, "-m", "netite.cli", "train", "--data", str(data), "--epochs", "5",
                              "--dim", "64", "--checkpoint", str(ckpt)],
                             capture_output=True, env={**env, "PYTHONPATH": src, **pin})
        assert out.returncode == 0, out.stderr
        runs.append((out.stdout, ckpt.read_bytes()))
    assert runs[0] == runs[1] == runs[2]
