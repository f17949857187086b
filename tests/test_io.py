import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netite import io as nio
from netite.graph import Network
from netite.linalg import NumericError, make_rng
from netite.model import ModelParams, init_params
from netite.runner import TrainConfig
from netite.simgen import NetworkedDataset, SimConfig, simulate


def small_dataset(seed=0):
    return simulate(SimConfig(n=40, k=5, vocab=30, words_per_doc=25, seed=seed))


def test_dataset_roundtrip_bit_exact(tmp_path):
    ds = small_dataset()
    nio.write_dataset(tmp_path / "d", ds, SimConfig(n=40, k=5, vocab=30, words_per_doc=25))
    back = nio.read_dataset(tmp_path / "d")
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.net.edges, ds.net.edges)
    assert np.array_equal(back.t, ds.t)
    for name in ("yf", "ycf", "mu0", "mu1", "prob_t"):
        assert np.array_equal(getattr(back, name), getattr(ds, name)), name


def test_dataset_files_and_formats(tmp_path):
    ds = small_dataset()
    nio.write_dataset(tmp_path / "d", ds)
    edges = (tmp_path / "d" / "edges.tsv").read_text().splitlines()
    assert len(edges) == ds.net.num_edges
    for line in edges:
        i, j = line.split("\t")
        assert int(i) < int(j)
    header = (tmp_path / "d" / "features.mtx").read_text().splitlines()[0]
    n, m, nnz = (int(v) for v in header.split())
    assert (n, m) == ds.x.shape
    assert nnz == int(np.count_nonzero(ds.x))
    nodes_header = (tmp_path / "d" / "nodes.tsv").read_text().splitlines()[0]
    assert nodes_header.split("\t") == nio.NODE_COLUMNS_FULL


def test_observational_only_strips_ground_truth(tmp_path):
    ds = small_dataset()
    nio.write_dataset(tmp_path / "d", ds, observational_only=True)
    nodes_header = (tmp_path / "d" / "nodes.tsv").read_text().splitlines()[0]
    assert nodes_header.split("\t") == ["id", "t", "yf"]
    back = nio.read_dataset(tmp_path / "d")
    assert back.ycf is None and back.mu0 is None and back.prob_t is None
    assert np.array_equal(back.yf, ds.yf)


def test_read_missing_file_raises(tmp_path):
    ds = small_dataset()
    nio.write_dataset(tmp_path / "d", ds)
    (tmp_path / "d" / "meta.json").unlink()
    with pytest.raises(FileNotFoundError):
        nio.read_dataset(tmp_path / "d")


def test_read_bad_header_raises(tmp_path):
    ds = small_dataset()
    nio.write_dataset(tmp_path / "d", ds)
    path = tmp_path / "d" / "nodes.tsv"
    body = path.read_text().splitlines()
    body[0] = "id\ttreated\toutcome"
    path.write_text("\n".join(body) + "\n")
    with pytest.raises(ValueError):
        nio.read_dataset(tmp_path / "d")


def reference_files(ds, observational_only):
    """The dataset files, formatted one line at a time: pins the byte format."""
    rows, cols = np.nonzero(ds.x)
    names = nio.NODE_COLUMNS_OBS if observational_only else nio.NODE_COLUMNS_FULL
    nodes = ["\t".join(names) + "\n"]
    for i in range(ds.n):
        fields = [str(i), str(int(ds.t[i]))] + [repr(float(getattr(ds, c)[i])) for c in names[2:]]
        nodes.append("\t".join(fields) + "\n")
    return {
        "edges.tsv": "".join(f"{i}\t{j}\n" for i, j in ds.net.edges),
        "features.mtx": f"{ds.x.shape[0]} {ds.x.shape[1]} {rows.size}\n"
                        + "".join(f"{i} {j} {float(ds.x[i, j])!r}\n" for i, j in zip(rows, cols)),
        "nodes.tsv": "".join(nodes),
    }


# Subnormals, huge magnitudes, negatives and values that need all 17
# significant digits; -0.0 is left out of x because the sparse format
# stores no zeros.
AWKWARD = st.sampled_from([5e-324, -2.2250738585072009e-308, 1e300, -1e300, 0.1 + 0.2,
                           1 / 3, -123456.78901234567, 2.0 ** 52 + 1, 1.0])
FLOATS = AWKWARD | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    cell = st.just(0.0) | FLOATS.filter(lambda v: v != 0.0)
    x = np.array(draw(st.lists(cell, min_size=n * m, max_size=n * m))).reshape(n, m)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    t = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    cols = [np.array(draw(st.lists(FLOATS, min_size=n, max_size=n))) for _ in range(5)]
    ds = NetworkedDataset(x, Network.from_pairs(n, edges), t, *cols)
    return ds, draw(st.booleans())


def _empty_dataset(observational_only):
    """No edges and no feature nonzeros."""
    cols = [np.linspace(-1.0, 1.0, 3) for _ in range(5)]
    ds = NetworkedDataset(np.zeros((3, 2)), Network.from_pairs(3, []), np.array([0, 1, 0]), *cols)
    return ds, observational_only


@settings(max_examples=150, deadline=None)
@given(datasets())
@example(_empty_dataset(False))
@example(_empty_dataset(True))
def test_dataset_roundtrip_property(case):
    ds, observational_only = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = Path(tmp) / "d"
        nio.write_dataset(d, ds, observational_only=observational_only)
        for name, text in reference_files(ds, observational_only).items():
            assert (d / name).read_bytes() == text.encode(), name
        back = nio.read_dataset(d)
    assert not caught, [str(w.message) for w in caught]
    assert back.x.dtype == np.float64 and back.x.tobytes() == ds.x.tobytes()
    assert back.net.edges.tobytes() == ds.net.edges.tobytes()
    assert back.t.dtype == np.int64 and back.t.tobytes() == ds.t.tobytes()
    assert back.yf.tobytes() == ds.yf.tobytes()
    for name in ("ycf", "mu0", "mu1", "prob_t"):
        if observational_only:
            assert getattr(back, name) is None
        else:
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name


def test_feature_lines_span_write_chunks(tmp_path, monkeypatch):
    ds = small_dataset()
    monkeypatch.setattr(nio, "CHUNK_LINES", 7)
    nio.write_dataset(tmp_path / "d", ds)
    expected = reference_files(ds, False)["features.mtx"]
    assert expected.count("\n") > 7 * 10
    assert (tmp_path / "d" / "features.mtx").read_text() == expected


def _edit_lines(path, edit):
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def _set_field(row, col, value):
    def edit(lines):
        fields = lines[row].split("\t" if "\t" in lines[row] else " ")
        fields[col] = value
        lines[row] = ("\t" if "\t" in lines[row] else " ").join(fields)
    return edit


MALFORMED = {
    "duplicated id": ("nodes.tsv", _set_field(2, 0, "0")),
    "missing row": ("nodes.tsv", lambda lines: lines.pop()),
    "extra row": ("nodes.tsv", lambda lines: lines.append(lines[-1].replace("39\t", "40\t", 1))),
    "t is 2": ("nodes.tsv", _set_field(1, 1, "2")),
    "t is not an integer": ("nodes.tsv", _set_field(1, 1, "0.5")),
    "fewer triplets than nnz": ("features.mtx", lambda lines: lines.pop()),
    "trailing triplet": ("features.mtx", lambda lines: lines.append("0 0 1.0")),
    "row index too large": ("features.mtx", _set_field(1, 0, "40")),
    "negative column index": ("features.mtx", _set_field(1, 1, "-1")),
    "repeated cell": ("features.mtx", lambda lines: lines.__setitem__(2, lines[1])),
    "repeated cell in a later chunk": ("features.mtx", lambda lines: lines.__setitem__(30, lines[1])),
    "row index too large in a later chunk": ("features.mtx", _set_field(40, 0, "40")),
    "zero value": ("features.mtx", _set_field(1, 2, "0.0")),
    "non-integer edge index": ("edges.tsv", _set_field(0, 1, "1.5")),
    "duplicated edge": ("edges.tsv", lambda lines: lines.append(lines[0])),
    "reversed edge": ("edges.tsv", lambda lines: lines.__setitem__(0, "\t".join(lines[0].split("\t")[::-1]))),
    "NaN feature value": ("features.mtx", _set_field(1, 2, "nan")),
    "infinite feature value": ("features.mtx", _set_field(3, 2, "-inf")),
    "NaN yf": ("nodes.tsv", _set_field(1, 2, "nan")),
    "infinite ycf": ("nodes.tsv", _set_field(2, 3, "inf")),
    "NaN mu0": ("nodes.tsv", _set_field(3, 4, "nan")),
    "infinite mu1": ("nodes.tsv", _set_field(4, 5, "-inf")),
    "NaN prob_t": ("nodes.tsv", _set_field(5, 6, "nan")),
    "unparsable value after a blank line": ("features.mtx",
                                            lambda lines: (lines.insert(2, ""), _set_field(4, 2, "x")(lines))),
    "two-field triplet line": ("features.mtx", lambda lines: lines.__setitem__(4, lines[4].rsplit(" ", 1)[0])),
    "four-field triplet line": ("features.mtx", lambda lines: lines.__setitem__(4, lines[4] + " 1.0")),
    "unparsable edge index on line 3": ("edges.tsv", _set_field(2, 0, "x")),
    "three-field edge line": ("edges.tsv", lambda lines: lines.__setitem__(slice(None), [l + "\t7" for l in lines])),
    "unparsable yf": ("nodes.tsv", _set_field(3, 2, "x")),
    "two-field header": ("features.mtx", lambda lines: lines.__setitem__(0, lines[0].rsplit(" ", 1)[0])),
    "non-integer header": ("features.mtx", _set_field(0, 1, "30.5")),
    "blank header": ("features.mtx", lambda lines: lines.__setitem__(0, "")),
}

# The file line, header and blank lines counted, that each of these
# faults leaves unparsable.
BAD_LINE = {
    "unparsable value after a blank line": 5,
    "two-field triplet line": 5,
    "four-field triplet line": 5,
    "unparsable edge index on line 3": 3,
    "non-integer edge index": 1,
    "three-field edge line": 1,
    "t is not an integer": 2,
    "unparsable yf": 4,
    "two-field header": 1,
    "non-integer header": 1,
    "blank header": 1,
}


def _assert_rejected(tmp_path, fault):
    name, edit = MALFORMED[fault]
    nio.write_dataset(tmp_path / "d", small_dataset())
    _edit_lines(tmp_path / "d" / name, edit)
    with pytest.raises(ValueError, match=f"^{name}: ") as info:
        nio.read_dataset(tmp_path / "d")
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("fault", sorted(MALFORMED))
def test_read_rejects_malformed_files(tmp_path, fault):
    _assert_rejected(tmp_path, fault)


@pytest.mark.parametrize("fault", sorted(f for f in MALFORMED if MALFORMED[f][0] == "features.mtx"))
def test_read_rejects_malformed_features_across_chunks(tmp_path, monkeypatch, fault):
    monkeypatch.setattr(nio, "CHUNK_LINES", 7)
    _assert_rejected(tmp_path, fault)


@pytest.mark.parametrize("chunk", [7, nio.CHUNK_LINES])
@pytest.mark.parametrize("fault", sorted(BAD_LINE))
def test_parse_error_names_the_file_line(tmp_path, monkeypatch, fault, chunk):
    monkeypatch.setattr(nio, "CHUNK_LINES", chunk)
    name, edit = MALFORMED[fault]
    nio.write_dataset(tmp_path / "d", small_dataset())
    _edit_lines(tmp_path / "d" / name, edit)
    with pytest.raises(ValueError, match=f"^{name}: line {BAD_LINE[fault]}: ") as info:
        nio.read_dataset(tmp_path / "d")
    # numpy's row count, which skips blank lines, and its usecols hint are gone
    assert "at row" not in str(info.value) and "usecols" not in str(info.value)


def _blank_lines_on_chunk_edges(lines):
    """With 7-line chunks, which start at file lines 2, 9, 16, ...: one blank
    line ends the first chunk and seven fill the third."""
    lines.insert(7, "")
    lines[15:15] = [""] * 7


def test_features_read_in_chunks_bit_exact(tmp_path, monkeypatch):
    monkeypatch.setattr(nio, "CHUNK_LINES", 7)
    ds = small_dataset()
    nio.write_dataset(tmp_path / "d", ds)
    _edit_lines(tmp_path / "d" / "features.mtx", _blank_lines_on_chunk_edges)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = nio.read_dataset(tmp_path / "d")
    assert back.x.tobytes() == ds.x.tobytes()


def test_unparsable_triplet_names_its_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(nio, "CHUNK_LINES", 7)
    nio.write_dataset(tmp_path / "d", small_dataset())
    bad = 2 + 2 * 7 + 3  # a file line in the third chunk
    _edit_lines(tmp_path / "d" / "features.mtx", _set_field(bad - 1, 2, "x"))
    with pytest.raises(ValueError, match="^features.mtx: ") as info:
        nio.read_dataset(tmp_path / "d")
    message = str(info.value)
    assert "\n" not in message
    # the message names the bad line of the file
    assert re.match(r"features.mtx: line (\d+): ", message)[1] == str(bad)


def test_features_read_holds_no_nnz_long_array(tmp_path, monkeypatch):
    chunk = 1 << 10
    monkeypatch.setattr(nio, "CHUNK_LINES", chunk)
    n, m = 100, 600  # every cell nonzero: about 59 chunks of triplets
    rng = make_rng(0)
    cols = [rng.normal(size=n) for _ in range(5)]
    ds = NetworkedDataset(rng.normal(size=(n, m)), Network(n), np.zeros(n, dtype=np.int64), *cols)
    nio.write_dataset(tmp_path / "d", ds)
    tracemalloc.start()
    try:
        back = nio.read_dataset(tmp_path / "d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole triplet array would be n * m * 24 bytes, 1.44 MB
    assert peak - back.x.nbytes < 8 * chunk * 24


def test_unallocatable_header_shape_raises_value_error(tmp_path):
    nio.write_dataset(tmp_path / "d", small_dataset())
    # 8e16 bytes, more than any address space: the allocation fails at once
    _edit_lines(tmp_path / "d" / "features.mtx",
                lambda lines: lines.__setitem__(0, "100000000 100000000 " + lines[0].split()[2]))
    with pytest.raises(ValueError, match="^features.mtx: cannot allocate") as info:
        nio.read_dataset(tmp_path / "d")
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("meta", ['{"format_version": 99}', '{"format_version": "1"}',
                                  '{"observational_only": false}', "[1]", "{not json"])
def test_read_rejects_bad_format_version(tmp_path, meta):
    nio.write_dataset(tmp_path / "d", small_dataset())
    (tmp_path / "d" / "meta.json").write_text(meta)
    with pytest.raises(nio.DatasetVersionError) as info:
        nio.read_dataset(tmp_path / "d")
    assert "\n" not in str(info.value)


def sample_params(seed=0):
    cfg = TrainConfig(gcn_layers=2, out_layers=2, rep_dim=6, hidden_units=4)
    return init_params(cfg, 11, make_rng(seed))


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    p = sample_params()
    path = tmp_path / "model.ckpt"
    nio.save_checkpoint(path, p, seed=42)
    q, seed = nio.load_checkpoint(path)
    assert seed == 42
    assert np.array_equal(q.flatten(), p.flatten())
    assert q.num_features == p.num_features
    assert q.gcn_dims == p.gcn_dims
    assert q.head_dims == p.head_dims


def test_checkpoint_save_is_deterministic(tmp_path):
    p = sample_params()
    nio.save_checkpoint(tmp_path / "a", p, seed=1)
    nio.save_checkpoint(tmp_path / "b", p, seed=1)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_checkpoint_values_span_write_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(nio, "_BLOCK", 7)
    p = sample_params()
    nio.save_checkpoint(tmp_path / "model.ckpt", p, seed=3)
    lines = (tmp_path / "model.ckpt").read_text().splitlines(keepends=True)
    assert len(lines) - 6 > 7 * 10
    assert lines[6:] == [f"{v!r}\n" for v in p.theta.tolist()]


def _repr_reference(values) -> bytes:
    """Checkpoint value lines as a loop over repr() writes them."""
    return "".join(f"{v!r}\n" for v in np.asarray(values, dtype=np.float64).tolist()).encode()


def _formatted(values) -> bytes:
    """Checkpoint value lines as save_checkpoint writes them, block by block."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    with np.errstate(all="raise"):
        return b"".join(nio._repr_lines(v[s:s + nio._BLOCK]) for s in range(0, v.size, nio._BLOCK))


def _targeted_values():
    powers = [10.0**k for k in range(-10, 17)]
    values = [5e-324, np.finfo(np.float64).tiny, np.finfo(np.float64).max, 1e-4, 1e-5, 1.5e-5, 0.1, 1e14, 1e16]
    values += [np.nextafter(x, toward) for x in powers + [1e-4, 1e-5] for toward in (0.0, np.inf)]
    values += powers + [np.ldexp(1.0, k) for k in range(-1074, 1024)]
    values += [float(f"{'12345678901234567'[:nd]}e{k}") for nd in range(1, 18) for k in range(-14, 6)]
    values += [2.0**46 + k / 8 for k in range(1, 64, 2)]  # exact halves between 16-digit strings
    values += [9007199254740993.0, 2.0**53 - 1, 123456789012345.6, 1 / 3, 2 / 3]
    return np.array(values + [-x for x in values])


def test_repr_lines_equal_repr_on_targeted_values():
    v = _targeted_values()
    assert _formatted(v) == _repr_reference(v)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_repr_lines_equal_repr_on_a_block_of_zeros(zero):
    v = np.full(nio._BLOCK, zero)
    assert _formatted(v) == _repr_reference(v)


def test_repr_lines_equal_repr_on_a_seeded_sweep():
    rng = np.random.default_rng(20261021)
    n = 250_000
    bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    sweep = [
        bits[np.isfinite(bits)],
        rng.normal(size=n) * 10.0 ** rng.uniform(-12, 16, n),
        np.round(rng.normal(size=n) * 10.0 ** rng.integers(0, 10, n)) / 10.0 ** rng.integers(0, 17, n),
        rng.normal(0, 0.1, n),
    ]
    for v in sweep:
        assert _formatted(v) == _repr_reference(v)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_repr_lines_equal_repr_on_bit_patterns(patterns):
    v = np.array(patterns, dtype=np.uint64).view(np.float64)
    v = v[np.isfinite(v)]
    assert _formatted(v) == _repr_reference(v)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
@example([0.0, -0.0, 5e-324, 1e-5, 1e-4, 70368744177664.125])
def test_repr_lines_equal_repr_on_floats(values):
    assert _formatted(values) == _repr_reference(values)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_checkpoint_refuses_a_non_finite_value(tmp_path, value):
    params = sample_params()
    params.theta[[17, 40]] = value
    path = tmp_path / "model.ckpt"
    with pytest.raises(NumericError, match=r"coordinate 17\b"):
        nio.save_checkpoint(path, params, seed=0)
    assert not path.exists()


def test_save_checkpoint_peak_memory_is_bounded(tmp_path):
    params = ModelParams(2000, [100, 100], [100, 100])  # 250,802 values, the paper-scale model
    params.theta[:] = np.random.default_rng(0).normal(0, 0.1, params.theta.size)
    tracemalloc.start()
    try:
        nio.save_checkpoint(tmp_path / "model.ckpt", params, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # theta's values as Python floats alone would take 6 MB
    assert peak < 6e6


def test_checkpoint_truncated_raises(tmp_path):
    p = sample_params()
    path = tmp_path / "model.ckpt"
    nio.save_checkpoint(path, p, seed=0)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-10]) + "\n")
    with pytest.raises(nio.CheckpointError):
        nio.load_checkpoint(path)


def test_checkpoint_garbage_value_raises(tmp_path):
    p = sample_params()
    path = tmp_path / "model.ckpt"
    nio.save_checkpoint(path, p, seed=0)
    lines = path.read_text().splitlines()
    lines[10] = "not-a-number"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(nio.CheckpointError):
        nio.load_checkpoint(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_checkpoint_non_finite_value_raises(tmp_path, value):
    path = tmp_path / "model.ckpt"
    nio.save_checkpoint(path, sample_params(), seed=0)
    _edit_lines(path, lambda lines: lines.__setitem__(10, value))
    with pytest.raises(nio.CheckpointError, match="non-finite"):
        nio.load_checkpoint(path)


def test_checkpoint_wrong_format_version_raises(tmp_path):
    p = sample_params()
    path = tmp_path / "model.ckpt"
    nio.save_checkpoint(path, p, seed=0)
    lines = path.read_text().splitlines()
    lines[0] = "format 999"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(nio.CheckpointError):
        nio.load_checkpoint(path)


def test_checkpoint_inconsistent_header_raises(tmp_path):
    p = sample_params()
    path = tmp_path / "model.ckpt"
    nio.save_checkpoint(path, p, seed=0)
    lines = path.read_text().splitlines()
    lines[3] = "gcn_dims 6,6,6"  # extra layer not matched by the value count
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(nio.CheckpointError):
        nio.load_checkpoint(path)


def rewrite_checkpoint(path, header=None, drop_values=0, trailer=""):
    """Replace header lines by key, drop the first values (fixing the
    count), and append a trailer after the values."""
    lines = path.read_text().splitlines()
    values = lines[6 + drop_values:]
    lines = lines[:5] + [f"values {len(values)}"]
    for key, val in (header or {}).items():
        lines = [f"{key} {val}" if l.split()[0] == key else l for l in lines]
    path.write_text("\n".join(lines + values) + "\n" + trailer)


# sample_params: num_features 11, gcn_dims 6,6, head_dims 4,4; each
# value count below matches the edited header
@pytest.mark.parametrize("header, drop", [
    ({"gcn_dims": "-4,4"}, 0),
    ({"num_features": "0"}, 66),
    ({"head_dims": "4,0"}, 48),
], ids=["negative-gcn-dim", "zero-features", "zero-head-dim"])
def test_checkpoint_dimension_below_one_raises(tmp_path, header, drop):
    path = tmp_path / "model.ckpt"
    nio.save_checkpoint(path, sample_params(), seed=0)
    rewrite_checkpoint(path, header, drop_values=drop)
    with pytest.raises(nio.CheckpointError):
        nio.load_checkpoint(path)


@pytest.mark.parametrize("trailer", ["0.5\n", "\n\n1e-3\n", "garbage"],
                         ids=["value", "value-after-blank-lines", "text"])
def test_checkpoint_data_after_values_raises(tmp_path, trailer):
    path = tmp_path / "model.ckpt"
    nio.save_checkpoint(path, sample_params(), seed=0)
    rewrite_checkpoint(path, trailer=trailer)
    with pytest.raises(nio.CheckpointError):
        nio.load_checkpoint(path)


def test_checkpoint_whitespace_after_values_loads(tmp_path):
    p = sample_params()
    path = tmp_path / "model.ckpt"
    nio.save_checkpoint(path, p, seed=0)
    rewrite_checkpoint(path, trailer="\n \t\n\n")
    assert np.array_equal(nio.load_checkpoint(path)[0].flatten(), p.flatten())


def test_checkpoint_blank_lines_among_values_load(tmp_path):
    p = sample_params()
    path = tmp_path / "model.ckpt"
    nio.save_checkpoint(path, p, seed=0)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:10] + ["", " \t"] + lines[10:]) + "\n")
    assert nio.load_checkpoint(path)[0].flatten().tobytes() == p.flatten().tobytes()



def test_checkpoint_negative_seed_raises(tmp_path):
    path = tmp_path / "model.ckpt"
    for seed in [-1, 99999999999999999999999]:
        nio.save_checkpoint(path, sample_params(), seed=0)
        _edit_lines(path, lambda lines: lines.__setitem__(1, f"seed {seed}"))
        with pytest.raises(nio.CheckpointError, match=rf"negative seed or one of 2\*\*63 or more: {seed}$"):
            nio.load_checkpoint(path)


def test_checkpoint_bad_value_names_the_file_line(tmp_path):
    path = tmp_path / "model.ckpt"
    for bad in [lambda line: "x", lambda line: line + " 1.0"]:
        nio.save_checkpoint(path, sample_params(), seed=0)
        # two blank lines (file lines 9 and 10) before the bad value on file line 13
        _edit_lines(path, lambda lines: (lines.insert(8, ""), lines.insert(8, ""),
                                         lines.__setitem__(12, bad(lines[12]))))
        with pytest.raises(nio.CheckpointError, match=r": line 13: ") as info:
            nio.load_checkpoint(path)
        message = str(info.value)
        assert "at row" not in message and "usecols" not in message and "\n" not in message


# each of the six header lines blanked, or given a bad value, in turn
@pytest.mark.parametrize("line, text", [
    (1, ""), (1, "format x"), (1, "format 999"), (1, "seed 0"),
    (2, ""), (2, "seed 1.5"), (2, "seed -1"), (2, "seed"),
    (3, ""), (3, "num_features 11,11"), (3, "num_features 11 11"),
    (4, ""), (4, "gcn_dims 6,,6"), (4, "gcn_dims 6,6,"),
    (5, ""), (5, "head_dims x"), (5, "gcn_dims 4,4"),
    (6, ""), (6, "values 1e3"), (6, "values"),
])
def test_checkpoint_bad_header_line_is_named(tmp_path, line, text):
    path = tmp_path / "model.ckpt"
    nio.save_checkpoint(path, sample_params(), seed=0)
    _edit_lines(path, lambda lines: lines.__setitem__(line - 1, text))
    named = rf"^corrupt checkpoint {re.escape(str(path))}: line {line}: "
    with pytest.raises(nio.CheckpointError, match=named) as info:
        nio.load_checkpoint(path)
    message = str(info.value)
    assert "at row" not in message and "usecols" not in message and "\n" not in message


def test_bad_line_found_in_logarithmic_parses(tmp_path, monkeypatch):
    params = ModelParams(2000, [100], [8])  # 201,734 values
    path = tmp_path / "model.ckpt"
    nio.save_checkpoint(path, params, seed=0)
    _edit_lines(path, lambda lines: lines.__setitem__(-1, "x"))
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    with pytest.raises(nio.CheckpointError, match=rf": line {6 + params.theta.size}: "):
        nio.load_checkpoint(path)
    # one parse of the file, then about log2(201,734) = 18 of halving ranges
    assert len(calls) <= 40
