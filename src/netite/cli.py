"""Command-line entry point.

Subcommands: simulate, train, grid, eval, gradcheck. Tables go to
stdout, diagnostics to stderr, and every error is one stderr line.
train and eval take --ablation-identity, the network-blind ablation: the
dataset is read with its edges removed, and nothing else changes.
Exit codes: 0 success, 2 bad configuration (a count flag below 1, a
negative seed, or a size that cannot be allocated, numpy's message naming
it), missing input file or unsupported dataset format version, 3 I/O
failure or malformed dataset file, 4 degenerate split, 5 non-finite loss,
floating-point overflow or a grid whose every cell failed, 6 corrupt or
mismatched checkpoint, 7 gradient check failure.
main runs each command under np.errstate (raise on all but underflow)
and turns errors into codes through EXIT_CODES; a command maps an error
itself only where its type means another code there. Every command is
deterministic given identical inputs and seed.
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
from .graph import Network, normalize_adjacency
from .linalg import NumericError
from .runner import (
    DegenerateSplitError,
    NonFiniteLossError,
    TrainConfig,
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
        nio.write_dataset(out / f"rep_{rep}", ds, cfg, observational_only=args.observational_only)
        print(f"rep_{rep}\tn={ds.n}\tedges={ds.net.num_edges}\ttreated={int(ds.t.sum())}")
    return 0


def _read_dataset(path, drop_edges: bool = False):
    """The dataset at path with its ground truth, which every command that reads
    one needs; with drop_edges, on a network without edges (network-blind)."""
    try:
        ds = nio.read_dataset(path)
    except (FileNotFoundError, nio.DatasetVersionError) as exc:
        raise CliError(EXIT_BAD_CONFIG, str(exc))
    except (OSError, ValueError) as exc:
        raise CliError(EXIT_IO, f"cannot read dataset {path}: {exc}")
    if ds.ycf is None:
        raise CliError(EXIT_BAD_CONFIG, "dataset is observational-only; ground-truth "
                       "outcomes are required to report ITE metrics")
    return dataclasses.replace(ds, net=Network(ds.n)) if drop_edges else ds


RESULT_COLUMNS = ["dataset", "rep", "split", "pehe_sqrt", "ate_err", "mse"]


def _fmt(v: float) -> str:
    return repr(float(v))


def _tsv(header: list, rows) -> str:
    """A tab-separated table: the header line, then one line per row of fields."""
    return "".join("\t".join(fields) + "\n" for fields in [header, *rows])


def format_results(dataset: str, rep, splits: dict) -> str:
    """The table that train, eval and grid print for one run: one row per split, in the order of `splits`."""
    return _tsv(RESULT_COLUMNS, ([dataset, str(rep), name, *map(_fmt, (sm.pehe_sqrt, sm.ate_err, sm.factual_mse))]
                                 for name, sm in splits.items()))


def _warn_unconverged(cfg: TrainConfig, report) -> None:
    if report.sinkhorn_unconverged:
        print(f"warning: Sinkhorn stopped at max_iters={cfg.sinkhorn.max_iters} unconverged in "
              f"{report.sinkhorn_unconverged} of {cfg.epochs} epochs", file=sys.stderr)


def cmd_train(args) -> int:
    ds = _read_dataset(args.data, args.ablation_identity)
    [cfg] = expand_grid_file({k: getattr(args, k) for k in GRID_KEY_MAP}, seed=args.seed)
    split = make_split(ds.n, ds.t, cfg.seed)
    params, report = train(ds, split, cfg)
    _warn_unconverged(cfg, report)
    if args.checkpoint:
        try:
            nio.save_checkpoint(args.checkpoint, params, cfg.seed)
        except OSError as exc:  # a missing directory is an I/O failure here, not a missing input
            raise CliError(EXIT_IO, f"cannot write checkpoint {args.checkpoint}: {exc}")
    print(format_results(Path(args.data).name, args.seed, report.splits), end="")
    return 0


# the training axes, as grid file keys, train flags (argparse dest names) and grid
# columns in order; each train flag takes its default and type from its TrainConfig field
GRID_KEY_MAP = {"lr": "learning_rate", "alpha": "alpha", "lambda": "lam", "gcn_layers": "gcn_layers",
                "out_layers": "out_layers", "dim": "rep_dim", "epochs": "epochs"}


def _axis_values(cfg: TrainConfig) -> list:
    """cfg on each axis, as printed: repr(float(v)) where the TrainConfig default is a float, else str."""
    return [(_fmt if isinstance(getattr(TrainConfig, name), float) else str)(getattr(cfg, name))
            for name in GRID_KEY_MAP.values()]


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
    grid = expand_grid_file(_load_json_object(args.grid, "grid"), seed=args.seed)
    split = make_split(ds.n, ds.t, args.seed)
    best_cfg, _, best_report, cells = grid_search(ds, split, grid)
    _warn_unconverged(best_cfg, best_report)

    grid_table = _tsv([*GRID_KEY_MAP, "val_mse", "status"],
                      ([*_axis_values(cell.cfg), "-" if cell.val_mse is None else _fmt(cell.val_mse),
                        "ok" if cell.error is None else f"failed: {cell.error}"] for cell in cells))
    print(grid_table, end="")
    print("\t".join(["winner", *map("=".join, zip(GRID_KEY_MAP, _axis_values(best_cfg)))]))
    print(format_results(Path(args.data).name, args.seed, best_report.splits), end="")
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "grid.tsv").write_text(grid_table)
    return 0


def cmd_eval(args) -> int:
    ds = _read_dataset(args.data, args.ablation_identity)
    params, seed = nio.load_checkpoint(args.checkpoint)
    if params.num_features != ds.x.shape[1]:
        raise CliError(EXIT_CHECKPOINT,
                       f"checkpoint expects {params.num_features} features, dataset has {ds.x.shape[1]}")
    splits = evaluate(params, ds, make_split(ds.n, ds.t, seed), normalize_adjacency(ds.net))
    print(format_results(Path(args.data).name, seed, splits), end="")
    return 0


def cmd_gradcheck(args) -> int:
    if args.instances < 1:
        raise CliError(EXIT_BAD_CONFIG, f"--instances must be >= 1, got {args.instances}")
    if not 0 <= args.seed <= 2**63 - args.instances:  # instance k runs on seed + k
        raise CliError(EXIT_BAD_CONFIG, f"--seed must be >= 0 and --seed + --instances <= 2**63, got {args.seed}")
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
    for key, name in GRID_KEY_MAP.items():
        default = getattr(TrainConfig, name)
        s.add_argument("--" + key.replace("_", "-"), type=type(default), default=default)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--ablation-identity", action="store_true",
                   help="train on the network without its edges (network-blind)")
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
    s.add_argument("--ablation-identity", action="store_true",
                   help="evaluate on the network without its edges, as a model trained so")
    s.set_defaults(fn=cmd_eval)

    s = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--instances", type=int, default=3)
    s.set_defaults(fn=cmd_gradcheck)
    return p


# looked up along the exception's MRO: FileNotFoundError is 2, any other OSError 3
EXIT_CODES = {FileNotFoundError: EXIT_BAD_CONFIG, OSError: EXIT_IO, DegenerateSplitError: EXIT_DEGENERATE_SPLIT,
              NonFiniteLossError: EXIT_NONFINITE_LOSS, NumericError: EXIT_NONFINITE_LOSS,
              FloatingPointError: EXIT_NONFINITE_LOSS, nio.CheckpointError: EXIT_CHECKPOINT,
              MemoryError: EXIT_BAD_CONFIG}


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
