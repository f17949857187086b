"""Dataset directory and checkpoint file formats.

Dataset directory layout:
  edges.tsv     one "i<TAB>j" line per undirected edge, 0-indexed, i < j
  features.mtx  coordinate triplets: header "n m nnz", then "i j v" lines
  nodes.tsv     header "id t yf ycf mu0 mu1 prob_t", one row per node;
                in observational-only mode the ground-truth columns
                (ycf, mu0, mu1, prob_t) are omitted
  meta.json     configuration echo plus format version

write_dataset formats each distinct feature value once and assembles
the triplet lines from precomputed row, column and value tokens,
CHUNK_LINES lines at a time so transient memory stays bounded; edges and
nodes go out in one writelines each. read_dataset parses every file with
np.loadtxt, whose float conversion is correctly rounded like float():
edges and nodes as whole arrays, features.mtx CHUNK_LINES lines at a
time, each chunk's triplets scattered straight into x, so no nnz-long
array is ever held.

read_dataset checks meta.json first: it must be a JSON object whose
format_version is the integer FORMAT_VERSION, else DatasetVersionError.
It raises ValueError, prefixed with the file's name, when
  features.mtx  the header is not three non-negative integers, declares
                no feature columns (m = 0), x of the header's shape
                cannot be allocated, the triplet count
                (trailing lines included) differs from the header's nnz,
                a line is not an "i j v" triplet, a row or column index
                is out of range, a value is not finite, or a cell is
                listed twice or holds a zero;
  edges.tsv     a line is not two integers, an index is out of range, an
                edge is a self-loop, or an edge is listed twice or as
                i > j;
  nodes.tsv     the header is neither column list, a row has the wrong
                number of fields, the row count differs from n, the ids
                are not 0..n-1 each exactly once, t is not 0 or 1, or a
                value of a float column (yf, ycf, mu0, mu1, prob_t) is
                not finite.
Every table line that does not parse (a wrong field count, or a field
not a number of its column's type), the features.mtx header and the
checkpoint's lines included, is named by its line in the file, blank
lines and headers counted. Blank lines are skipped; nothing else is.

Checkpoints are decimal text: a fixed header (format version, seed,
num_features, gcn_dims, head_dims, value count) followed by the flat
parameter vector ModelParams.theta, one shortest-round-trip value per
line, in the order documented on ModelParams. head_dims lists the hidden
widths only; each head's regression layer, of width 1, follows them.
Blank lines among the values are skipped, as in dataset files.
load_checkpoint builds ModelParams from the header dims and the values,
so a value count other than the header's, a header that does not match
its values, a dimension below 1, a seed outside 0..2**63-1 or a
non-finite value raises CheckpointError. Each of the six header lines
must hold its key and integer value(s); one that is blank, out of order
or holds another value is named by its line, as is a bad format or
seed. Dataset floats are written with repr(); checkpoint values are
written byte for byte as repr() writes them, by a numpy formatter over
blocks of _BLOCK values (see _repr_lines), so a load(save(x)) round
trip is bit exact. save_checkpoint raises NumericError, naming the first
non-finite coordinate, before it opens the file: such a value would
not load.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import re
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .graph import Network
from .linalg import NumericError
from .model import ModelParams
from .simgen import NetworkedDataset, SimConfig

FORMAT_VERSION = 1

NODE_COLUMNS_FULL = ["id", "t", "yf", "ycf", "mu0", "mu1", "prob_t"]
NODE_COLUMNS_OBS = ["id", "t", "yf"]

CHUNK_LINES = 1 << 16  # feature lines per write or parse

_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
_EDGE = np.dtype([("i", np.int64), ("j", np.int64)])
_HEADER = np.dtype([("n", np.int64), ("m", np.int64), ("nnz", np.int64)])
_VALUE = np.dtype([("v", np.float64)])


class CheckpointError(ValueError):
    """Corrupt checkpoint or architecture mismatch."""


class DatasetVersionError(ValueError):
    """meta.json is unparsable or does not declare FORMAT_VERSION."""


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
    vals = x[rows, cols]
    values = np.unique(vals)
    which = np.searchsorted(values, vals)
    row_tok = np.array([f"{i} " for i in range(x.shape[0])], dtype=object)
    col_tok = np.array([f"{j} " for j in range(x.shape[1])], dtype=object)
    val_tok = np.array([f"{v!r}\n" for v in values.tolist()], dtype=object)
    with open(path, "w") as f:
        f.write(f"{x.shape[0]} {x.shape[1]} {rows.size}\n")
        for start in range(0, rows.size, CHUNK_LINES):
            part = slice(start, start + CHUNK_LINES)
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


def _load_table(path: Path, dtype, start: int = 1, lines=None) -> np.ndarray:
    """Rows of `dtype` from the file at `path`, line `start` on, in one
    np.loadtxt call: the rest of the file, or `lines`, an iterable of its
    next lines (at most CHUNK_LINES). No rows give an empty array without
    loadtxt's no-data warning. A parse error raises ValueError "line L:
    reason", L the range's first line that fails on its own, found by
    bisection: each field is one column, so each line parses or fails
    alone. numpy's row number, which skips blank lines, is dropped."""
    parse = functools.partial(np.loadtxt, dtype=dtype, comments=None, ndmin=1)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return parse(path, skiprows=start - 1) if lines is None else parse(lines)
        except ValueError as exc:
            error = exc
        with open(path) as f:
            lines = list(itertools.islice(f, start - 1, None if lines is None else start - 1 + CHUNK_LINES))
        lo, hi = 0, len(lines)  # the first bad line is one of lines[lo:hi]
        while lo < hi:
            mid = (lo + hi + 1) // 2
            try:
                parse(lines[lo:mid])
            except ValueError as exc:
                if mid - lo == 1:
                    reason = re.sub(r" at row \d+, column", " in column", str(exc))
                    reason = re.sub(r" at row \d+; use `usecols`.*", "", reason)
                    raise ValueError(f"line {start + lo}: {reason}") from None
                hi = mid
            else:
                lo = mid
    raise error


def _read_features(path: Path) -> np.ndarray:
    """x from features.mtx, parsed and checked CHUNK_LINES lines at a time."""
    with open(path) as f:
        header = _load_table(path, _HEADER, lines=[f.readline()])
        if header.size == 0:
            raise ValueError("line 1: the header is blank")
        n, m, nnz = header[0].tolist()
        if min(n, m, nnz) < 0:
            raise ValueError(f"negative size in header {n} {m} {nnz}")
        if m == 0:
            raise ValueError(f"the header {n} {m} {nnz} declares no feature columns")
        try:
            x = np.zeros((n, m))
        except MemoryError:
            raise ValueError(f"cannot allocate x of the header shape {n}x{m}") from None
        count = 0
        for start in itertools.count(2, CHUNK_LINES):  # file line of the chunk's first line
            first = f.readline()
            if not first:
                break
            trip = _load_table(path, _TRIPLET, start, itertools.chain([first], itertools.islice(f, CHUNK_LINES - 1)))
            count += trip.size
            if count > nnz:
                raise ValueError(f"more triplets than the header's nnz={nnz}")
            i, j, v = trip["i"], trip["j"], trip["v"]
            if np.any((i < 0) | (i >= n) | (j < 0) | (j >= m)):
                raise ValueError(f"triplet index outside the {n}x{m} header shape")
            if not np.all(np.isfinite(v)):
                raise ValueError("a value is not finite")
            x[i, j] = v
    if count != nnz:
        raise ValueError(f"{count} triplets, but the header says nnz={nnz}")
    if np.count_nonzero(x) != nnz:
        raise ValueError("a cell is listed twice or holds a zero")
    return x


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
        x = _read_features(path)
        n = x.shape[0]

    path = dirpath / "edges.tsv"
    with _blame(path):
        edges = _load_table(path, _EDGE)
        net = Network.from_pairs(n, edges.view(np.int64))
        if net.num_edges != edges.size or np.any(edges["i"] > edges["j"]):
            raise ValueError("an edge is listed twice or as i > j")

    path = dirpath / "nodes.tsv"
    with _blame(path):
        with open(path) as f:
            header = f.readline().split()
        if header != NODE_COLUMNS_FULL and header != NODE_COLUMNS_OBS:
            raise ValueError(f"unexpected header: {header}")
        dtype = np.dtype([(c, np.int64) for c in header[:2]] + [(c, np.float64) for c in header[2:]])
        rows = _load_table(path, dtype, start=2)
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


_BLOCK = 1 << 13  # checkpoint values formatted per pass: its temporaries stay in cache
_U = np.uint64
_FRAC = _U((1 << 52) - 1)
_M32 = _U((1 << 32) - 1)
_POW5 = np.array([5**i for i in range(28)], dtype=np.uint64)
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_NDIG = 17  # digit columns of the layout source; then one column per byte of _ASCII
_ASCII = b"\0\n-.0123456789e"  # the pad byte, then every other byte a layout writes
_DECPT0 = 9  # decpt + _DECPT0 indexes the layouts: the fast path's decpt is -9 to 14


def _layout(neg: int, decpt: int, nd: int) -> list:
    """Source columns of the line repr() writes for the value
    0.d1 d2 ... d_nd x 10^decpt, negative if neg."""
    def ascii_(text):
        return [_NDIG + _ASCII.index(c) for c in text.encode()]

    digits = list(range(nd))
    if decpt <= -4 or decpt > 16:
        body = digits[:1] + (ascii_(".") + digits[1:] if nd > 1 else []) + ascii_(f"e{decpt - 1:+03d}")
    elif decpt <= 0:
        body = ascii_("0." + "0" * -decpt) + digits
    elif decpt >= nd:
        body = digits + ascii_("0" * (decpt - nd) + ".0")
    else:
        body = digits[:decpt] + ascii_(".") + digits[decpt:]
    return ascii_("-" * neg) + body + ascii_("\n")


def _layout_table():
    """Every layout, keyed (neg, decpt + _DECPT0, nd) in row-major order,
    padded with the pad byte to 24 bytes; nd = 0 keys the empty line."""
    rows = [_layout(neg, decpt - _DECPT0, nd) if nd else []
            for neg in (0, 1) for decpt in range(24) for nd in range(_NDIG + 1)]
    table = np.full((len(rows), 24), _NDIG, dtype=np.intp)
    for row, cols in zip(table, rows):
        row[:len(cols)] = cols
    return table, np.array([len(cols) for cols in rows])


_LAYOUTS, _LINE_BYTES = _layout_table()
_NEG = 24 * (_NDIG + 1)  # key offset of a negative sign
_ZERO = (1 + _DECPT0) * (_NDIG + 1) + 1  # key of 0.0: one digit, 0, with decpt 1


def _repr_lines(v: np.ndarray) -> bytes:
    """The bytes of "".join(f"{x!r}\\n" for x in v.tolist()), for a
    contiguous float64 block v of finite values.

    repr() writes the shortest digit string that reads back as x, the
    nearest to x of those (dtoa mode 0), in the 'r' layout: exponent form,
    with two exponent digits or more, when decpt <= -4 or decpt > 16,
    else fixed form, with ".0" on an integral value. Here ±0.0 and the
    values 1e-10 <= |x| < 1e14 whose significand m (hidden bit included)
    is not a power of two take the fast path; every other value is
    written by repr() alone. For |x| = m 2^q let t = 17 - floor(log10 |x|)
    and W = |x| 10^t = P / 2^r, with P = m 5^t exact in two uint64 limbs
    (m < 2^53, 5^t < 2^63). W has 17 to 19 integer digits, 17 where
    log10 rounded up. Every real within half an ulp of x, 5^t / 2^(r+1)
    in W's units, reads back as x. That interval is symmetric since m is
    not a power of two, and its ends (2P -/+ 5^t) / 2^(r+1) have odd
    numerators, so no integer lies on one: round-half-even on reading
    never decides, and `above` and `below` are the least and greatest
    integers strictly inside. A string of at most 17 digits is an integer
    multiple of some 10^j in W's units, so the shortest strings are the
    multiples of 10^j inside for the largest j that has one. A multiple
    of 10^j is one of 10^(j-1), so the test for j = 1, 2, ... stops at its
    first miss. Since the interval is symmetric, the multiple nearest W is
    inside whenever any is, so D = round(W / 10^j) is repr()'s digit
    string. An exact half, where dtoa rounds to even, and j = 0 go to
    repr(). The layout of each line is a gather from its digits and
    _ASCII through the layout keyed by its sign, decpt and digit count.
    Integer arithmetic is all uint64, and no float operation can raise
    or warn under np.errstate(all="raise")."""
    n = v.size
    ax = np.abs(v)
    fast = (ax >= 1e-10) & (ax < 1e14) & (v.view(np.uint64) & _FRAC != 0)
    y = np.where(fast, ax, 1.5)  # 1.5 stands in for the values repr() writes
    t = (17 - np.floor(np.log10(y))).astype(np.uint64)
    f = _POW5[t]
    m = y.view(np.uint64) & _FRAC | _U(1 << 52)
    ml, mh, fl, fh = m & _M32, m >> _U(32), f & _M32, f >> _U(32)
    low = ml * fl
    mid = ml * fh + mh * fl
    lo = low + (mid << _U(32))
    hi = mh * fh + (mid >> _U(32)) + (lo < low)
    r = _U(1075) - (y.view(np.uint64) >> _U(52)) - t  # 2 to 60
    w = (hi << (_U(64) - r)) | (lo >> r)
    wf = lo & ((_U(1) << r) - _U(1))  # W = w + wf / 2^r
    r += _U(1)
    hf, wf2 = f & ((_U(1) << r) - _U(1)), wf << _U(1)  # the half ulp is (f >> r) + hf / 2^r
    above = w - (f >> r) - (wf2 < hf) + _U(1)
    below = w + (f >> r) + (wf2 + hf > (_U(1) << r))
    j = np.zeros(n, dtype=np.intp)
    for k in range(1, _NDIG + 1):
        inside = below // _POW10[k] * _POW10[k] >= above
        if not inside.any():
            break
        j += inside
    p = _POW10[j]
    d = w // p
    rem2 = (w - d * p) << _U(1)
    d += (rem2 > p) | (rem2 == p) & (wf != 0)
    fast &= (j > 0) & ((rem2 != p) | (wf != 0))
    d *= fast
    nd = np.searchsorted(_POW10, d, side="right")
    key = np.where(fast, (nd + j - t.astype(np.intp) + _DECPT0) * (_NDIG + 1) + nd, np.where(ax == 0, _ZERO, 0))
    key += np.signbit(v) * _NEG
    src = np.empty((_NDIG + len(_ASCII), n), dtype=np.uint8)
    q = d * _POW10[_NDIG - nd]  # the digits, left-aligned to 17
    for k in range(_NDIG - 1, -1, -1):  # numpy divides by a constant fast, but takes % slowly
        tens = q // _U(10)
        src[k] = q - tens * _U(10)
        q = tens
    src[:_NDIG] += ord("0")
    src[_NDIG:] = np.frombuffer(_ASCII, np.uint8)[:, None]
    cols = np.take(_LAYOUTS, key, axis=0)
    cols *= n
    cols += np.arange(n)[:, None]
    out = np.take(src, cols)
    lines = out[out != 0].tobytes()
    slow = np.flatnonzero(~fast & (ax != 0))
    if slow.size == 0:
        return lines
    cuts = np.cumsum(_LINE_BYTES[key])[slow].tolist()  # a slow value's line is empty: its end is its start
    parts = []
    for i, start, end in zip(slow.tolist(), [0, *cuts], cuts):
        parts += [lines[start:end], f"{v[i].item()!r}\n".encode()]
    return b"".join(parts + [lines[cuts[-1]:]])


def save_checkpoint(path, params: ModelParams, seed: int) -> None:
    theta = np.ascontiguousarray(params.theta, dtype=np.float64)
    if not np.all(np.isfinite(theta)):
        bad = int(np.flatnonzero(~np.isfinite(theta))[0])
        raise NumericError(f"non-finite parameter at coordinate {bad}: the checkpoint would not load")
    header = (f"format {FORMAT_VERSION}\nseed {seed}\nnum_features {params.num_features}\n"
              f"gcn_dims {','.join(map(str, params.gcn_dims))}\n"
              f"head_dims {','.join(map(str, params.head_dims))}\nvalues {theta.size}\n")
    with open(path, "wb") as f:
        f.write(header.encode())
        for start in range(0, theta.size, _BLOCK):
            f.write(_repr_lines(theta[start:start + _BLOCK]))


def load_checkpoint(path):
    """Returns (params, seed). Raises CheckpointError on a corrupt file,
    as the module docstring lists, its message naming the file."""
    try:
        with open(path) as f:
            head = list(itertools.islice(f, 6))
        header = {}
        for line, key in enumerate(["format", "seed", "num_features", "gcn_dims", "head_dims", "values"], 1):
            rows = _load_table(path, np.dtype("O,O"), line, head[line - 1:line]).tolist()
            got, val = rows[0] if rows else ("", "")
            if got != key or not re.fullmatch(r"-?[0-9]+" + r"(,-?[0-9]+)*" * key.endswith("dims"), val):
                got = f"{got} {val}".strip()
                raise ValueError(f"line {line}: expected `{key}` and its integer value(s), got {got!r}")
            header[key] = [int(d) for d in val.split(",")]
        (version,), (seed,), (count,) = header["format"], header["seed"], header["values"]
        if version != FORMAT_VERSION:
            raise ValueError(f"line 1: unsupported checkpoint format {version}")
        if not 0 <= seed < 2**63:
            raise ValueError(f"line 2: a negative seed or one of 2**63 or more: {seed}")
        theta = _load_table(path, _VALUE, start=7).view(np.float64)
        if theta.shape != (count,):
            raise ValueError(f"{theta.size} values, but the header declares {count}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("a non-finite value")
        return ModelParams(*header["num_features"], header["gcn_dims"], header["head_dims"], theta), seed
    except ValueError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc

