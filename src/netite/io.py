"""Dataset directory, checkpoint, and results file formats.

Dataset directory layout:
  edges.tsv     one "i<TAB>j" line per undirected edge, 0-indexed, i < j
  features.mtx  coordinate triplets: header "n m nnz", then "i j v" lines
  nodes.tsv     header "id t yf ycf mu0 mu1 prob_t", one row per node;
                in observational-only mode the ground-truth columns
                (ycf, mu0, mu1, prob_t) are omitted
  meta.json     configuration echo plus format version

Every file is written and parsed as whole arrays, never one Python line
at a time. write_dataset formats each distinct feature value once and
assembles the triplet lines from precomputed row, column and value
tokens, WRITE_CHUNK lines at a time so transient memory stays bounded;
edges and nodes go out in one writelines each. read_dataset parses each
file with np.loadtxt, whose float conversion is correctly rounded like
float(), and scatters the triplets into x with one indexed assignment.

read_dataset checks meta.json first: it must be a JSON object whose
format_version is the integer FORMAT_VERSION, else DatasetVersionError.
It raises ValueError, prefixed with the file's name, when
  features.mtx  the header is not three non-negative integers, the
                triplet count (trailing lines included) differs from the
                header's nnz, a row or column index is out of range, a
                value is not finite, or a cell is listed twice or holds
                a zero;
  edges.tsv     a line is not two integers, an index is out of range, an
                edge is a self-loop, or an edge is listed twice or as
                i > j;
  nodes.tsv     the header is neither column list, a row has the wrong
                number of fields, the row count differs from n, the ids
                are not 0..n-1 each exactly once, t is not 0 or 1, or a
                value of a float column (yf, ycf, mu0, mu1, prob_t) is
                not finite.
Blank lines are skipped; nothing else is.

Checkpoints are decimal text: a fixed header (format version, seed,
num_features, gcn_dims, head_dims, value count) followed by the flat
parameter vector ModelParams.theta, one shortest-round-trip value per
line, in the order documented on ModelParams. Blank lines among the
values are skipped, as in dataset files. load_checkpoint builds
ModelParams from the header dims and the values, so a value count other
than the header's, a header that does not match its values, a
dimension below 1 or a non-finite value raises CheckpointError. All
floats everywhere are written with repr() so a load(save(x)) round trip
is bit exact.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .graph import Network
from .model import ModelParams
from .simgen import NetworkedDataset, SimConfig

FORMAT_VERSION = 1

NODE_COLUMNS_FULL = ["id", "t", "yf", "ycf", "mu0", "mu1", "prob_t"]
NODE_COLUMNS_OBS = ["id", "t", "yf"]

WRITE_CHUNK = 1 << 16  # feature lines joined per write

_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


class CheckpointError(ValueError):
    """Corrupt checkpoint or architecture mismatch."""


class DatasetVersionError(ValueError):
    """meta.json is unparsable or does not declare FORMAT_VERSION."""


def _fmt(v: float) -> str:
    return repr(float(v))


def write_dataset(dirpath, ds: NetworkedDataset, cfg: SimConfig | None = None,
                  observational_only: bool = False) -> None:
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)

    with open(dirpath / "edges.tsv", "w") as f:
        f.writelines(f"{i}\t{j}\n" for i, j in ds.net.edges.tolist())

    _write_features(dirpath / "features.mtx", ds.x)

    names = NODE_COLUMNS_OBS if observational_only else NODE_COLUMNS_FULL
    columns = [range(ds.n), np.asarray(ds.t, dtype=np.int64).tolist()]
    columns += [np.asarray(getattr(ds, name), dtype=np.float64).tolist() for name in names[2:]]
    with open(dirpath / "nodes.tsv", "w") as f:
        f.write("\t".join(names) + "\n")
        f.writelines("\t".join(map(repr, row)) + "\n" for row in zip(*columns))

    meta = {
        "format_version": FORMAT_VERSION,
        "observational_only": observational_only,
        "config": dataclasses.asdict(cfg) if cfg is not None else None,
    }
    with open(dirpath / "meta.json", "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_features(path, x: np.ndarray) -> None:
    rows, cols = np.nonzero(x)
    values, which = np.unique(x[rows, cols], return_inverse=True)
    row_tok = np.array([f"{i} " for i in range(x.shape[0])], dtype=object)
    col_tok = np.array([f"{j} " for j in range(x.shape[1])], dtype=object)
    val_tok = np.array([f"{v!r}\n" for v in values.tolist()], dtype=object)
    with open(path, "w") as f:
        f.write(f"{x.shape[0]} {x.shape[1]} {rows.size}\n")
        for start in range(0, rows.size, WRITE_CHUNK):
            part = slice(start, start + WRITE_CHUNK)
            lines = np.empty((rows[part].size, 3), dtype=object)
            lines[:, 0] = row_tok[rows[part]]
            lines[:, 1] = col_tok[cols[part]]
            lines[:, 2] = val_tok[which[part]]
            f.write("".join(lines.ravel().tolist()))


@contextmanager
def _blame(path: Path):
    """Prefix any ValueError raised inside with the file's name."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None


def _load_table(path: Path, dtype, skiprows: int = 0, ndmin: int = 1) -> np.ndarray:
    """The whole whitespace-separated table in one np.loadtxt call; a file
    with no rows gives an empty array without loadtxt's no-data warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(path, dtype=dtype, comments=None, skiprows=skiprows, ndmin=ndmin)


def _check_format_version(path: Path) -> None:
    try:
        meta = json.loads(path.read_text())
    except ValueError as exc:
        raise DatasetVersionError(f"unparsable {path}: {exc}") from None
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise DatasetVersionError(
            f"{path}: format_version is {version!r}, expected {FORMAT_VERSION}")


def read_dataset(dirpath) -> NetworkedDataset:
    dirpath = Path(dirpath)
    for name in ("edges.tsv", "features.mtx", "nodes.tsv", "meta.json"):
        if not (dirpath / name).is_file():
            raise FileNotFoundError(f"missing dataset file: {dirpath / name}")
    _check_format_version(dirpath / "meta.json")

    path = dirpath / "features.mtx"
    with _blame(path):
        with open(path) as f:
            n, m, nnz = (int(v) for v in f.readline().split())
        if min(n, m, nnz) < 0:
            raise ValueError(f"negative size in header {n} {m} {nnz}")
        trip = _load_table(path, _TRIPLET, skiprows=1)
        if trip.size != nnz:
            raise ValueError(f"{trip.size} triplets, but the header says nnz={nnz}")
        i, j = trip["i"], trip["j"]
        if np.any((i < 0) | (i >= n) | (j < 0) | (j >= m)):
            raise ValueError(f"triplet index outside the {n}x{m} header shape")
        if not np.all(np.isfinite(trip["v"])):
            raise ValueError("a value is not finite")
        x = np.zeros((n, m))
        x[i, j] = trip["v"]
        if np.count_nonzero(x) != nnz:
            raise ValueError("a cell is listed twice or holds a zero")

    path = dirpath / "edges.tsv"
    with _blame(path):
        pairs = _load_table(path, np.int64, ndmin=2)
        if pairs.size and pairs.shape[1] != 2:
            raise ValueError(f"lines hold {pairs.shape[1]} fields, expected 2")
        net = Network.from_pairs(n, pairs)
        if pairs.size and (net.num_edges != pairs.shape[0] or np.any(pairs[:, 0] > pairs[:, 1])):
            raise ValueError("an edge is listed twice or as i > j")

    path = dirpath / "nodes.tsv"
    with _blame(path):
        with open(path) as f:
            header = f.readline().split()
        if header != NODE_COLUMNS_FULL and header != NODE_COLUMNS_OBS:
            raise ValueError(f"unexpected header: {header}")
        dtype = np.dtype([(c, np.int64) for c in header[:2]] + [(c, np.float64) for c in header[2:]])
        rows = _load_table(path, dtype, skiprows=1)
        if rows.size != n:
            raise ValueError(f"{rows.size} rows for {n} nodes")
        ids = rows["id"]
        if np.any((ids < 0) | (ids >= n)) or np.any(np.bincount(ids, minlength=n) != 1):
            raise ValueError(f"ids are not 0..{n - 1} each exactly once")
        if np.any((rows["t"] != 0) & (rows["t"] != 1)):
            raise ValueError("t must be 0 or 1")
        for c in header[2:]:
            if not np.all(np.isfinite(rows[c])):
                raise ValueError(f"a {c} value is not finite")
        by_id = np.empty_like(rows)
        by_id[ids] = rows
    columns = {c: by_id[c].copy() if c in header else None for c in NODE_COLUMNS_FULL[1:]}
    return NetworkedDataset(x=x, net=net, **columns)


def save_checkpoint(path, params: ModelParams, seed: int) -> None:
    theta = params.theta
    with open(path, "w") as f:
        f.write(f"format {FORMAT_VERSION}\n")
        f.write(f"seed {seed}\n")
        f.write(f"num_features {params.num_features}\n")
        f.write("gcn_dims " + ",".join(str(d) for d in params.gcn_dims) + "\n")
        f.write("head_dims " + ",".join(str(d) for d in params.head_dims) + "\n")
        f.write(f"values {theta.size}\n")
        f.writelines(f"{v!r}\n" for v in theta.tolist())


def load_checkpoint(path):
    """Returns (params, seed). Raises CheckpointError on a corrupt file:
    a malformed or unsupported header, a dimension below 1, an empty dims
    list, a value count that does not match the dims, an unparsable or
    non-finite value, or more or fewer values than the header declares."""
    try:
        with open(path) as f:
            header = {}
            for _ in range(6):
                key, val = f.readline().split(maxsplit=1)
                header[key] = val.strip()
            if int(header["format"]) != FORMAT_VERSION:
                raise CheckpointError(f"unsupported checkpoint format {header['format']}")
        count = int(header["values"])
        theta = _load_table(path, np.float64, skiprows=6)
        if theta.shape != (count,):
            raise CheckpointError(f"checkpoint {path} holds {theta.size} values, its header declares {count}")
        if not np.all(np.isfinite(theta)):
            raise CheckpointError(f"checkpoint {path} holds a non-finite value")
        params = ModelParams(int(header["num_features"]), [int(d) for d in header["gcn_dims"].split(",")],
                             [int(d) for d in header["head_dims"].split(",")], theta)
        return params, int(header["seed"])
    except CheckpointError:
        raise
    except (ValueError, KeyError, IndexError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc


RESULT_COLUMNS = ["dataset", "rep", "split", "pehe_sqrt", "ate_err", "mse"]


def format_results_rows(dataset: str, rep, split_metrics: dict) -> str:
    """Rows of results.tsv for one run (no header)."""
    lines = []
    for split in ("train", "valid", "test"):
        sm = split_metrics[split]
        lines.append("\t".join(
            [dataset, str(rep), split, _fmt(sm.pehe_sqrt), _fmt(sm.ate_err), _fmt(sm.factual_mse)]
        ))
    return "\n".join(lines) + "\n"
