"""Semi-synthetic networked observational data with hidden confounding.

Hidden per-instance topic mixtures drive everything: observed features
are bag-of-words counts drawn from the mixture, the network is sampled
with topic homophily, treatment probability depends on the instance's
and its neighbors' topic similarity to two centroids, and outcomes are
linear in the same quantities plus unit Gaussian noise. The topics
themselves are excluded from training inputs.

The network, the only O(n^2) step, is sampled row by row from one
n x n float64 weight buffer (see gen_network).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .graph import Network, neighbor_sum
from .linalg import NumericError, check_fields, make_rng


@dataclass
class SimConfig:
    n: int = 3000
    k: int = 50  # topics
    vocab: int = 2000
    kappa1: float = 10.0  # own-topic confounding magnitude
    kappa2: float = 1.0  # neighbor-topic confounding magnitude
    scale_c: float = 5.0  # outcome scale
    dirichlet_alpha: float = 0.1
    topic_word_alpha: float = 0.1
    words_per_doc: int = 500
    homophily: float = 5.0  # edge log-odds weighting on topic similarity
    target_degree: float = 20.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "n k vocab words_per_doc", 1, integer=True)
        check_fields(self, "seed", 0, integer=True)
        check_fields(self, "kappa1 kappa2 target_degree", 0)
        check_fields(self, "scale_c dirichlet_alpha topic_word_alpha", 0, strict=True)
        check_fields(self, "homophily")


@dataclass
class NetworkedDataset:
    x: np.ndarray  # n x m features (bag-of-words counts)
    net: Network
    t: np.ndarray  # {0,1}^n
    yf: np.ndarray  # factual outcome for t[i]
    ycf: np.ndarray | None  # counterfactual outcome (ground truth; may be withheld)
    mu0: np.ndarray | None  # noiseless expected outcome under control
    mu1: np.ndarray | None  # noiseless expected outcome under treatment
    prob_t: np.ndarray | None  # Pr(t=1 | x, A)

    @property
    def n(self) -> int:
        return int(self.x.shape[0])

    def true_ite(self) -> np.ndarray:
        """tau_i = y1_i - y0_i from the simulated noisy potential outcomes."""
        if self.ycf is None:
            raise ValueError("counterfactual outcomes unavailable (observational-only data)")
        y1 = np.where(self.t == 1, self.yf, self.ycf)
        y0 = np.where(self.t == 0, self.yf, self.ycf)
        return y1 - y0


def gen_topics(cfg: SimConfig, rng: np.random.Generator):
    """Per-instance topic mixtures and topic-word distributions, both
    Dirichlet-sampled (stands in for topic-model training on a corpus)."""
    r = rng.dirichlet(np.full(cfg.k, cfg.dirichlet_alpha), size=cfg.n)
    topic_word = rng.dirichlet(np.full(cfg.vocab, cfg.topic_word_alpha), size=cfg.k)
    return r, topic_word


def gen_features(r: np.ndarray, topic_word: np.ndarray, cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Bag-of-words counts: words_per_doc multinomial draws from each
    instance's word distribution r_i @ topic_word."""
    word_dist = r @ topic_word
    x = np.empty((cfg.n, cfg.vocab), dtype=np.float64)
    for i in range(cfg.n):
        x[i] = rng.multinomial(cfg.words_per_doc, word_dist[i])
    return x


def gen_network(r: np.ndarray, cfg: SimConfig, rng: np.random.Generator) -> Network:
    """Random graph with edge probability proportional to
    exp(homophily * r_i . r_j), rescaled to the target mean degree.
    homophily=0 reduces to Erdos-Renyi.

    The weights are computed in place in one n x n buffer, and the upper
    triangle is sampled one row at a time in row-major order. Successive
    rng.random calls continue one stream, so the graph and the rng state
    after the call equal those of one draw per pair over the whole
    triangle. Raises NumericError when the weights overflow, which would
    leave no finite edge probability."""
    n = r.shape[0]
    w = r @ r.T
    w *= cfg.homophily
    with np.errstate(over="ignore"):
        np.exp(w, out=w)
        np.fill_diagonal(w, 0.0)
        total = w.sum()
    if not np.isfinite(total):
        raise NumericError(f"edge weights overflow: exp(homophily * r_i . r_j) sums to {total}; "
                           f"lower homophily ({cfg.homophily})")
    scale = cfg.target_degree * n / total if total > 0 else 0.0
    cols = []
    for i in range(n):  # row n-1 draws nothing; it keeps the list non-empty at n=1
        p = np.minimum(scale * w[i, i + 1:], 1.0)
        cols.append(i + 1 + np.flatnonzero(rng.random(n - 1 - i) < p))
    rows = np.repeat(np.arange(n), [c.size for c in cols])
    return Network.from_pairs(n, np.stack([rows, np.concatenate(cols)], axis=1))


def pick_centroids(r: np.ndarray, rng: np.random.Generator):
    """Treated centroid: the topic row of one uniformly sampled instance.
    Control centroid: the mean of all rows."""
    r1c = r[rng.integers(r.shape[0])].copy()
    r0c = r.mean(axis=0)
    return r1c, r0c


def assign_treatments(r: np.ndarray, net: Network, centroids, cfg: SimConfig, rng: np.random.Generator):
    """Treatment model: p_t^i = kappa1 r_i . r_t^c + kappa2 sum_{j in N(i)} r_j . r_t^c,
    Pr(t=1) = exp(p_1) / (exp(p_1) + exp(p_0)) computed stably."""
    r1c, r0c = centroids
    nsum = neighbor_sum(net, r)
    p1 = cfg.kappa1 * (r @ r1c) + cfg.kappa2 * (nsum @ r1c)
    p0 = cfg.kappa1 * (r @ r0c) + cfg.kappa2 * (nsum @ r0c)
    # expit saturates exactly at |p1 - p0| beyond ~37; keep the open interval
    prob_t = np.clip(expit(p1 - p0), 1e-15, 1.0 - 1e-15)
    t = (rng.random(r.shape[0]) < prob_t).astype(np.int64)
    return t, prob_t, p0, p1


def gen_outcomes(p0, p1, t, cfg: SimConfig, rng: np.random.Generator, noise_std: float = 1.0):
    """Outcomes: yF = C (p0 + t p1) + eps, yCF = C (p0 + (1-t) p1) + eps',
    with independent unit Gaussian noise; mu0/mu1 are the noiseless
    expected potential outcomes."""
    n = p0.shape[0]
    eps_f = rng.normal(0.0, 1.0, size=n) * noise_std
    eps_cf = rng.normal(0.0, 1.0, size=n) * noise_std
    yf = cfg.scale_c * (p0 + t * p1) + eps_f
    ycf = cfg.scale_c * (p0 + (1 - t) * p1) + eps_cf
    mu0 = cfg.scale_c * p0
    mu1 = cfg.scale_c * (p0 + p1)
    return yf, ycf, mu0, mu1


def simulate(cfg: SimConfig, stream: int = 0, noise_std: float = 1.0) -> NetworkedDataset:
    """One full simulation repetition on its own rng stream."""
    rng = make_rng(cfg.seed, stream=stream)
    r, topic_word = gen_topics(cfg, rng)
    x = gen_features(r, topic_word, cfg, rng)
    net = gen_network(r, cfg, rng)
    centroids = pick_centroids(r, rng)
    t, prob_t, p0, p1 = assign_treatments(r, net, centroids, cfg, rng)
    yf, ycf, mu0, mu1 = gen_outcomes(p0, p1, t, cfg, rng, noise_std=noise_std)
    return NetworkedDataset(x=x, net=net, t=t, yf=yf, ycf=ycf, mu0=mu0, mu1=mu1, prob_t=prob_t)
