import numpy as np
import pytest

from netite.graph import Network
from netite.linalg import NumericError, make_rng
from netite.simgen import (
    NetworkedDataset,
    SimConfig,
    assign_treatments,
    gen_features,
    gen_network,
    gen_outcomes,
    gen_topics,
    pick_centroids,
    simulate,
)


def small_cfg(**kw):
    base = dict(n=200, k=10, vocab=60, words_per_doc=50, seed=0)
    base.update(kw)
    return SimConfig(**base)


def test_topic_rows_sum_to_one():
    cfg = small_cfg()
    r, topic_word = gen_topics(cfg, make_rng(0))
    assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(topic_word.sum(axis=1), 1.0, atol=1e-12)


def test_large_alpha_approaches_uniform():
    cfg = small_cfg(n=10_000, k=10, dirichlet_alpha=500.0)
    r, _ = gen_topics(cfg, make_rng(1))
    assert np.max(np.abs(r.mean(axis=0) - 0.1)) < 0.01


def test_topics_reproducible():
    cfg = small_cfg()
    a = gen_topics(cfg, make_rng(2))[0]
    b = gen_topics(cfg, make_rng(2))[0]
    assert np.array_equal(a, b)


def test_features_row_sums_and_integrality():
    cfg = small_cfg()
    rng = make_rng(3)
    r, tw = gen_topics(cfg, rng)
    x = gen_features(r, tw, cfg, rng)
    assert np.all(x >= 0)
    assert np.array_equal(x, np.round(x))
    assert np.all(x.sum(axis=1) == cfg.words_per_doc)


def test_features_concentrate_on_word_distribution():
    cfg = small_cfg(n=1, words_per_doc=100_000)
    rng = make_rng(4)
    r, tw = gen_topics(cfg, rng)
    x = gen_features(r, tw, cfg, rng)
    target = (r @ tw)[0]
    assert np.abs(x[0] / x[0].sum() - target).sum() < 0.02


def test_network_no_homophily_matches_target_degree():
    degs = []
    for seed in range(5):
        cfg = small_cfg(n=500, homophily=0.0, target_degree=12.0, seed=seed)
        rng = make_rng(seed)
        r, _ = gen_topics(cfg, rng)
        net = gen_network(r, cfg, rng)
        degs.append(2 * net.num_edges / cfg.n)
    assert abs(np.mean(degs) - 12.0) / 12.0 < 0.1


def test_network_homophily_links_similar_nodes():
    gaps = []
    for seed in range(5):
        cfg = small_cfg(n=300, homophily=20.0, target_degree=10.0, seed=seed)
        rng = make_rng(100 + seed)
        r, _ = gen_topics(cfg, rng)
        net = gen_network(r, cfg, rng)
        sims = r @ r.T
        edge_sim = np.mean([sims[i, j] for i, j in net.edges])
        rand_pairs = rng.integers(0, cfg.n, size=(2000, 2))
        rand_pairs = rand_pairs[rand_pairs[:, 0] != rand_pairs[:, 1]]
        rand_sim = np.mean(sims[rand_pairs[:, 0], rand_pairs[:, 1]])
        gaps.append(edge_sim - rand_sim)
    assert all(g > 0 for g in gaps)


def test_network_simple_undirected():
    cfg = small_cfg(n=100)
    rng = make_rng(5)
    r, _ = gen_topics(cfg, rng)
    net = gen_network(r, cfg, rng)
    assert np.all(net.edges[:, 0] < net.edges[:, 1])


def test_treatment_random_when_no_confounding():
    cfg = small_cfg(n=400, kappa1=0.0, kappa2=0.0)
    rng = make_rng(6)
    r, _ = gen_topics(cfg, rng)
    net = gen_network(r, cfg, rng)
    t, prob_t, p0, p1 = assign_treatments(r, net, pick_centroids(r, rng), cfg, rng)
    assert np.all(prob_t == 0.5)
    assert np.array_equal(p0, np.zeros(cfg.n))
    assert np.array_equal(p1, np.zeros(cfg.n))


def test_isolated_node_ignores_neighbor_term():
    cfg = small_cfg(n=3, k=2, kappa1=1.0, kappa2=100.0)
    r = np.array([[1.0, 0.0], [0.5, 0.5], [0.2, 0.8]])
    net = Network.from_pairs(3, [(1, 2)])  # node 0 isolated
    rng = make_rng(7)
    centroids = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    _, prob_t, p0, p1 = assign_treatments(r, net, centroids, cfg, rng)
    assert p1[0] == 1.0  # kappa1 * r_0 . r1c only
    assert p0[0] == 0.0


def test_treatment_probability_hand_example():
    cfg = small_cfg(n=1, k=2, kappa1=1.0, kappa2=0.0)
    r = np.array([[1.0, 0.0]])
    net = Network.from_pairs(1, [])
    centroids = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    _, prob_t, _, _ = assign_treatments(r, net, centroids, cfg, make_rng(8))
    assert abs(prob_t[0] - np.e / (np.e + 1.0)) < 1e-12


def test_treatment_probability_stable_for_huge_scores():
    cfg = small_cfg(n=2, k=2, kappa1=1000.0, kappa2=0.0)
    r = np.array([[1.0, 0.0], [0.0, 1.0]])
    net = Network.from_pairs(2, [])
    centroids = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    _, prob_t, _, _ = assign_treatments(r, net, centroids, cfg, make_rng(9))
    assert np.all(np.isfinite(prob_t))
    assert np.all((prob_t > 0) & (prob_t < 1))


def test_outcomes_noiseless_hook():
    cfg = small_cfg(n=4)
    p0 = np.array([0.1, 0.2, 0.3, 0.4])
    p1 = np.array([1.0, 1.0, 2.0, 2.0])
    t = np.array([1, 0, 1, 0])
    yf, ycf, mu0, mu1 = gen_outcomes(p0, p1, t, cfg, make_rng(10), noise_std=0.0)
    assert np.allclose(yf[t == 1], mu1[t == 1], atol=1e-12)
    assert np.allclose(yf[t == 0], mu0[t == 0], atol=1e-12)
    assert np.allclose(ycf[t == 1], mu0[t == 1], atol=1e-12)
    assert np.allclose(mu0, cfg.scale_c * p0, atol=1e-12)
    assert np.allclose(mu1, cfg.scale_c * (p0 + p1), atol=1e-12)


def test_expected_ite_is_scaled_p1():
    cfg = small_cfg(n=100)
    rng = make_rng(11)
    p0 = rng.random(cfg.n)
    p1 = rng.random(cfg.n)
    t = (rng.random(cfg.n) < 0.5).astype(np.int64)
    taus = np.zeros(cfg.n)
    reps = 10_000
    noise_rng = make_rng(12)
    for _ in range(reps):
        yf, ycf, _, _ = gen_outcomes(p0, p1, t, cfg, noise_rng)
        y1 = np.where(t == 1, yf, ycf)
        y0 = np.where(t == 0, yf, ycf)
        taus += y1 - y0
    taus /= reps
    # each tau_i has noise std sqrt(2)/sqrt(reps)
    assert np.max(np.abs(taus - cfg.scale_c * p1)) < 3 * np.sqrt(2) / np.sqrt(reps) * 5


def test_no_interference():
    # outcomes depend only on the node's own (p0, p1, t, noise): permuting
    # other nodes' treatments while holding node i fixed leaves i's
    # outcomes byte-identical
    cfg = small_cfg(n=50)
    rng = make_rng(13)
    p0, p1 = rng.random(cfg.n), rng.random(cfg.n)
    t = (rng.random(cfg.n) < 0.5).astype(np.int64)
    yf_a, ycf_a, _, _ = gen_outcomes(p0, p1, t, cfg, make_rng(14))
    t_perm = t.copy()
    t_perm[1:] = t[1:][::-1]
    yf_b, ycf_b, _, _ = gen_outcomes(p0, p1, t_perm, cfg, make_rng(14))
    assert yf_a[0] == yf_b[0]
    assert ycf_a[0] == ycf_b[0]


def test_ate_consistency():
    cfg = small_cfg(seed=3)
    rng = make_rng(cfg.seed)
    r, tw = gen_topics(cfg, rng)
    gen_features(r, tw, cfg, rng)
    net = gen_network(r, cfg, rng)
    _, _, p0, p1 = assign_treatments(r, net, pick_centroids(r, rng), cfg, rng)
    t = np.zeros(cfg.n, dtype=np.int64)
    _, _, mu0, mu1 = gen_outcomes(p0, p1, t, cfg, rng)
    assert abs(np.mean(mu1 - mu0) - cfg.scale_c * np.mean(p1)) < 1e-9


def test_simulate_reproducible():
    cfg = small_cfg(seed=5)
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.net.edges, b.net.edges)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.yf, b.yf)
    c = simulate(cfg, stream=1)
    assert not np.array_equal(a.t, c.t)


def test_true_ite_requires_counterfactuals():
    ds = simulate(small_cfg())
    ds.ycf = None
    with pytest.raises(ValueError):
        ds.true_ite()


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=0)
    with pytest.raises(ValueError):
        SimConfig(kappa1=-1.0)
    with pytest.raises(ValueError):
        SimConfig(scale_c=0.0)


def _triangle_reference(r, cfg, rng):
    """The whole-triangle formula gen_network replaced: every n^2 array
    at once, one uniform draw per upper-triangle pair in row-major order."""
    n = r.shape[0]
    w = np.exp(cfg.homophily * (r @ r.T))
    np.fill_diagonal(w, 0.0)
    total = w.sum()
    scale = cfg.target_degree * n / total if total > 0 else 0.0
    p = np.minimum(scale * w, 1.0)
    iu, ju = np.triu_indices(n, k=1)
    hit = rng.random(iu.shape[0]) < p[iu, ju]
    return Network.from_pairs(n, np.stack([iu[hit], ju[hit]], axis=1))


@pytest.mark.parametrize("cfg", [
    *(small_cfg(n=600, seed=s) for s in range(4)),
    small_cfg(n=600, homophily=20.0, target_degree=40.0, seed=4),
    small_cfg(n=600, homophily=0.0, seed=5),
    small_cfg(n=1, seed=6),
    small_cfg(n=2, target_degree=1.0, seed=7),
], ids=lambda c: f"n{c.n}-h{c.homophily:g}-s{c.seed}")
def test_gen_network_matches_triangle_reference(cfg):
    r, _ = gen_topics(cfg, make_rng(cfg.seed))
    rng_new, rng_ref = make_rng(cfg.seed, stream=3), make_rng(cfg.seed, stream=3)
    got = gen_network(r, cfg, rng_new).edges
    want = _triangle_reference(r, cfg, rng_ref).edges
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng_new.random() == rng_ref.random()


def test_gen_network_peak_memory():
    """One n x n float64 buffer: the peak stays under 1.5 n^2 doubles
    (the whole-triangle formula needed about 4). Measured with
    tracemalloc, which numpy reports its buffers to and which counts only
    this call's allocations; ru_maxrss is process-wide and never falls,
    so it would depend on the tests run before this one and on the host."""
    import tracemalloc

    cfg = small_cfg(n=1500)
    r, _ = gen_topics(cfg, make_rng(0))
    rng = make_rng(1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        gen_network(r, cfg, rng)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cfg.n ** 2 * 8


def test_gen_network_rejects_overflowing_weights():
    cfg = small_cfg(n=2, k=2, homophily=800.0)
    r = np.array([[1.0, 0.0], [1.0, 0.0]])  # exp(800 * 1) overflows
    with pytest.raises(NumericError):
        gen_network(r, cfg, make_rng(0))


@pytest.mark.parametrize("field,value", [
    ("homophily", np.nan), ("homophily", np.inf), ("homophily", -np.inf),
    ("target_degree", -3.0), ("target_degree", np.nan), ("target_degree", np.inf),
    ("n", 60.5), ("k", 5.0), ("vocab", 2.0), ("n", True), ("words_per_doc", 25.5),
    ("seed", 1.5), ("seed", -1), ("seed", False),
    ("dirichlet_alpha", -1.0), ("dirichlet_alpha", 0.0), ("topic_word_alpha", np.nan),
    ("scale_c", np.nan), ("kappa1", np.inf), ("kappa2", np.nan),
])
def test_config_rejects_edgeless_settings(field, value):
    with pytest.raises(ValueError):
        SimConfig(**{field: value})
