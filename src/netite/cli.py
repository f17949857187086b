"""Command-line entry point.

Subcommands: simulate, train, grid, eval, gradcheck. Tables go to
stdout, diagnostics to stderr, and every error is one stderr line.
Exit codes: 0 success, 2 bad configuration (a count flag below 1
included), missing input file or unsupported dataset format version,
3 I/O failure or malformed dataset file, 4 degenerate split,
5 non-finite loss, floating-point overflow or a grid whose every cell
failed, 6 checkpoint mismatch, 7 gradient check failure. main runs each
command under np.errstate (raise on all but underflow) and turns errors
into codes through EXIT_CODES; a command maps an error itself only where
its type means another code there. Every command is deterministic given
identical inputs and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import io as nio
from .gradcheck import fd_max_rel_err
from .graph import normalize_adjacency
from .linalg import NumericError
from .runner import (
    DegenerateSplitError,
    MetricsReport,
    NonFiniteLossError,
    TrainConfig,
    ablation_no_network,
    evaluate,
    expand_grid,
    grid_search,
    make_split,
    train,
)
from .simgen import SimConfig, simulate

EXIT_BAD_CONFIG = 2
EXIT_IO = 3
EXIT_DEGENERATE_SPLIT = 4
EXIT_NONFINITE_LOSS = 5
EXIT_CHECKPOINT = 6
EXIT_GRADCHECK = 7


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_json_object(path, what: str) -> dict:
    try:
        with open(path) as f:
            value = json.load(f)
    except (OSError, ValueError) as exc:
        raise CliError(EXIT_BAD_CONFIG, f"cannot read {what} {path}: {exc}")
    if not isinstance(value, dict):
        raise CliError(EXIT_BAD_CONFIG, f"bad {what} {path}: expected a JSON object")
    return value


def _load_sim_config(path, seed) -> SimConfig:
    fields = {} if path is None else _load_json_object(path, "config")
    if seed is not None:
        fields["seed"] = seed
    known = {f.name for f in dataclasses.fields(SimConfig)}
    unknown = set(fields) - known
    if unknown:
        raise CliError(EXIT_BAD_CONFIG, f"unknown config fields: {sorted(unknown)}")
    try:
        return SimConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_BAD_CONFIG, f"bad config: {exc}")


def cmd_simulate(args) -> int:
    if args.reps < 1:
        raise CliError(EXIT_BAD_CONFIG, f"--reps must be >= 1, got {args.reps}")
    cfg = _load_sim_config(args.config, args.seed)
    out = Path(args.out)
    for rep in range(args.reps):
        try:
            ds = simulate(cfg, stream=rep)
        except NumericError as exc:
            raise CliError(EXIT_BAD_CONFIG, f"bad config: {exc}")
        try:
            nio.write_dataset(out / f"rep_{rep}", ds, cfg, observational_only=args.observational_only)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write {out / f'rep_{rep}'}: {exc}")
        print(f"rep_{rep}\tn={ds.n}\tedges={ds.net.num_edges}\ttreated={int(ds.t.sum())}")
    return 0


def _read_dataset(path):
    """The dataset at path with its ground truth, which every command that reads one needs."""
    try:
        ds = nio.read_dataset(path)
    except (FileNotFoundError, nio.DatasetVersionError) as exc:
        raise CliError(EXIT_BAD_CONFIG, str(exc))
    except (OSError, ValueError) as exc:
        raise CliError(EXIT_IO, f"cannot read dataset {path}: {exc}")
    if ds.ycf is None:
        raise CliError(EXIT_BAD_CONFIG, "dataset is observational-only; ground-truth "
                       "outcomes are required to report ITE metrics")
    return ds


def _print_results(name: str, rep, report: MetricsReport):
    print("\t".join(nio.RESULT_COLUMNS))
    print(nio.format_results_rows(name, rep, report.splits), end="")


def cmd_train(args) -> int:
    ds = _read_dataset(args.data)
    [cfg] = expand_grid_file({k: getattr(args, k) for k in GRID_KEY_MAP}, seed=args.seed)
    split = make_split(ds.n, ds.t, cfg.seed)
    runner_fn = ablation_no_network if args.ablation_identity else train
    params, report = runner_fn(ds, split, cfg)
    if report.sinkhorn_unconverged:
        print(f"warning: Sinkhorn stopped at max_iters={cfg.sinkhorn.max_iters} unconverged in "
              f"{report.sinkhorn_unconverged} of {cfg.epochs} epochs", file=sys.stderr)
    if args.checkpoint:
        try:
            nio.save_checkpoint(args.checkpoint, params, cfg.seed)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write checkpoint {args.checkpoint}: {exc}")
    _print_results(Path(args.data).name, args.seed, report)
    return 0


# grid file keys and train flags alike, by their argparse dest names
GRID_KEY_MAP = {"lr": "learning_rate", "lambda": "lam", "alpha": "alpha",
                "out_layers": "out_layers", "dim": "rep_dim", "gcn_layers": "gcn_layers",
                "epochs": "epochs"}


def expand_grid_file(axes: dict, seed: int) -> list:
    """The one place a TrainConfig is built from CLI input, for grid files
    and train flags alike. Keys are the train flag names; "dim" ties the
    representation and hidden dimensionality together. Every key,
    epochs included, is an axis; a scalar is a one-value axis."""
    unknown = set(axes) - set(GRID_KEY_MAP)
    if unknown:
        raise CliError(EXIT_BAD_CONFIG, f"unknown grid axes: {sorted(unknown)}")
    mapped = {GRID_KEY_MAP[k]: v if isinstance(v, list) else [v] for k, v in axes.items()}
    try:
        cells = expand_grid(TrainConfig(seed=seed, epochs=50), mapped)
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_BAD_CONFIG, f"bad training config: {exc}")
    if not cells:
        raise CliError(EXIT_BAD_CONFIG, "grid has an empty axis")
    return [dataclasses.replace(c, hidden_units=c.rep_dim) for c in cells]


def cmd_grid(args) -> int:
    ds = _read_dataset(args.data)
    cells = expand_grid_file(_load_json_object(args.grid, "grid"), seed=args.seed)
    split = make_split(ds.n, ds.t, args.seed)
    best_cfg, _, best_report, records = grid_search(ds, split, cells)

    header = ["lr", "alpha", "lambda", "gcn_layers", "out_layers", "dim", "epochs", "val_mse", "status"]
    lines = ["\t".join(header)]
    for rec in records:
        c = rec.cfg
        status = "ok" if rec.error is None else f"failed: {rec.error}"
        val = nio._fmt(rec.val_mse) if rec.val_mse is not None else "-"
        lines.append("\t".join([nio._fmt(c.learning_rate), nio._fmt(c.alpha), nio._fmt(c.lam),
                                str(c.gcn_layers), str(c.out_layers), str(c.rep_dim), str(c.epochs),
                                val, status]))
    grid_table = "\n".join(lines) + "\n"
    print(grid_table, end="")
    print("winner\tlr=%s\talpha=%s\tlambda=%s\tout_layers=%d\tdim=%d\tepochs=%d"
          % (nio._fmt(best_cfg.learning_rate), nio._fmt(best_cfg.alpha),
             nio._fmt(best_cfg.lam), best_cfg.out_layers, best_cfg.rep_dim, best_cfg.epochs))
    _print_results(Path(args.data).name, args.seed, best_report)
    if args.out:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            (Path(args.out) / "grid.tsv").write_text(grid_table)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write grid.tsv: {exc}")
    return 0


def cmd_eval(args) -> int:
    ds = _read_dataset(args.data)
    params, seed = nio.load_checkpoint(args.checkpoint)
    if params.num_features != ds.x.shape[1]:
        raise CliError(EXIT_CHECKPOINT,
                       f"checkpoint expects {params.num_features} features, dataset has {ds.x.shape[1]}")
    split = make_split(ds.n, ds.t, seed)
    splits = evaluate(params, ds, split, normalize_adjacency(ds.net))
    report = MetricsReport(splits=splits)
    _print_results(Path(args.data).name, seed, report)
    return 0


def cmd_gradcheck(args) -> int:
    if args.instances < 1:
        raise CliError(EXIT_BAD_CONFIG, f"--instances must be >= 1, got {args.instances}")
    worst = max(fd_max_rel_err(args.seed + k) for k in range(args.instances))
    print(f"max_rel_err\t{worst:.3e}")
    if worst >= 1e-4:
        raise CliError(EXIT_GRADCHECK, f"gradient check failed: max relative error {worst:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="netite",
                                description="Individual treatment effect estimation "
                                            "from networked observational data")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="generate semi-synthetic dataset directories")
    s.add_argument("--config", default=None, help="JSON file of simulation config fields")
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--reps", type=int, default=10)
    s.add_argument("--observational-only", action="store_true",
                   help="strip counterfactual ground-truth columns")
    s.set_defaults(fn=cmd_simulate)

    s = sub.add_parser("train", help="train one model on a dataset directory")
    s.add_argument("--data", required=True)
    s.add_argument("--alpha", type=float, default=1e-4)
    s.add_argument("--lambda", type=float, default=1e-4)
    s.add_argument("--lr", type=float, default=1e-2)
    s.add_argument("--epochs", type=int, default=200)
    s.add_argument("--gcn-layers", type=int, default=2)
    s.add_argument("--out-layers", type=int, default=2)
    s.add_argument("--dim", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--ablation-identity", action="store_true",
                   help="replace the normalized adjacency with the identity (network-blind)")
    s.add_argument("--checkpoint", default=None)
    s.set_defaults(fn=cmd_train)

    s = sub.add_parser("grid", help="hyperparameter grid search")
    s.add_argument("--data", required=True)
    s.add_argument("--grid", required=True, help="JSON file of axis lists")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None, help="directory for grid.tsv")
    s.set_defaults(fn=cmd_grid)

    s = sub.add_parser("eval", help="recompute metrics from a checkpoint")
    s.add_argument("--data", required=True)
    s.add_argument("--checkpoint", required=True)
    s.set_defaults(fn=cmd_eval)

    s = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--instances", type=int, default=3)
    s.set_defaults(fn=cmd_gradcheck)
    return p


EXIT_CODES = {FileNotFoundError: EXIT_BAD_CONFIG, DegenerateSplitError: EXIT_DEGENERATE_SPLIT,
              NonFiniteLossError: EXIT_NONFINITE_LOSS, NumericError: EXIT_NONFINITE_LOSS,
              FloatingPointError: EXIT_NONFINITE_LOSS, nio.CheckpointError: EXIT_CHECKPOINT}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.fn(args)
    except (CliError, *EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else next(
            EXIT_CODES[t] for t in type(exc).__mro__ if t in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
