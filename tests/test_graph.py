import numpy as np
import pytest
import scipy.sparse as sp

from netite.gradcheck import random_tiny_instance
from netite.graph import Network, neighbor_sum, normalize_adjacency
from netite.linalg import ShapeError
from netite.simgen import SimConfig, simulate


def test_isolated_node():
    net = Network.from_pairs(1, [])
    assert np.allclose(normalize_adjacency(net).toarray(), [[1.0]], atol=1e-12)


def test_single_edge_pair():
    # degrees with self-loops are (2, 2) -> all entries 1/2
    net = Network.from_pairs(2, [(0, 1)])
    expected = np.full((2, 2), 0.5)
    assert np.allclose(normalize_adjacency(net).toarray(), expected, atol=1e-12)


def test_three_path():
    # degrees with self-loops are (2, 3, 2)
    net = Network.from_pairs(3, [(0, 1), (1, 2)])
    ahat = normalize_adjacency(net).toarray()
    assert abs(ahat[0, 0] - 0.5) < 1e-12
    assert abs(ahat[0, 1] - 1.0 / np.sqrt(6.0)) < 1e-12
    assert abs(ahat[1, 1] - 1.0 / 3.0) < 1e-12
    assert abs(ahat[0, 2]) < 1e-12


def _reference_normalize(net):
    """D~^{-1/2} (A + I) D~^{-1/2} as two sparse products: pins the bytes."""
    a_tilde = (net.adjacency() + sp.identity(net.n, format="csr")).tocsr()
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    d_inv = sp.diags(1.0 / np.sqrt(deg))
    return (d_inv @ a_tilde @ d_inv).tocsr()


def test_normalized_bytes_match_sparse_products():
    nets = [random_tiny_instance(seed)[1].net for seed in range(20)]
    nets += [Network(5), simulate(SimConfig()).net]
    for net in nets:
        got, want = normalize_adjacency(net), _reference_normalize(net)
        assert type(got) is type(want)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (net.n, name)


def test_normalized_is_symmetric():
    rng = np.random.default_rng(0)
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10) if rng.random() < 0.3]
    ahat = normalize_adjacency(Network.from_pairs(10, pairs)).toarray()
    assert np.array_equal(ahat, ahat.T)


@pytest.mark.parametrize("n,pairs", [
    (5, [(i, (i + 1) % 5) for i in range(5)]),  # cycle
    (4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),  # complete
])
def test_regular_graph_rows_sum_to_one(n, pairs):
    ahat = normalize_adjacency(Network.from_pairs(n, pairs)).toarray()
    assert np.allclose(ahat.sum(axis=1), 1.0, atol=1e-12)


def test_spectral_radius_at_most_one():
    rng = np.random.default_rng(1)
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.25]
    ahat = normalize_adjacency(Network.from_pairs(12, pairs)).toarray()
    v = rng.normal(size=12)
    for _ in range(500):
        v = ahat @ v
        v /= np.linalg.norm(v)
    radius = abs(v @ ahat @ v)
    assert radius <= 1.0 + 1e-9


def test_dedup_and_symmetrize():
    net = Network.from_pairs(3, [(0, 1), (1, 0), (0, 1)])
    assert net.num_edges == 1


def test_rejects_self_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Network.from_pairs(3, [(1, 1)])
    with pytest.raises(ValueError):
        Network.from_pairs(3, [(0, 3)])


def test_neighbor_sum_edgeless():
    out = neighbor_sum(Network.from_pairs(3, []), np.ones((3, 2)))
    assert np.array_equal(out, np.zeros((3, 2)))


def test_neighbor_sum_swap():
    net = Network.from_pairs(2, [(0, 1)])
    out = neighbor_sum(net, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(out, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_neighbor_sum_triangle():
    net = Network.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    out = neighbor_sum(net, np.ones((3, 2)))
    assert np.array_equal(out, np.full((3, 2), 2.0))


def test_neighbor_sum_matches_dense_adjacency():
    rng = np.random.default_rng(2)
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8) if rng.random() < 0.4]
    net = Network.from_pairs(8, pairs)
    r = rng.normal(size=(8, 3))
    assert np.array_equal(neighbor_sum(net, r), net.adjacency().toarray() @ r)


def test_neighbor_sum_shape_error():
    with pytest.raises(ShapeError):
        neighbor_sum(Network.from_pairs(3, []), np.ones((4, 2)))
