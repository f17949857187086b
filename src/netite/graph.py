"""Undirected unit-weight networks and the renormalized adjacency.

The encoder consumes A_hat = D~^{-1/2} (A + I) D~^{-1/2}; the data
generator consumes raw neighbor sums over A without self-loops. The two
must not be conflated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linalg import ShapeError


@dataclass(eq=False)
class Network:
    """n nodes and a deduplicated list of undirected edges (i, j) with i < j."""

    n: int
    edges: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Network":
        """Build from an (E, 2) array or a sequence of (i, j) pairs;
        symmetrizes, dedupes, and rejects self-loops and out-of-range
        indices."""
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError("edge index out of range")
            if np.any(arr[:, 0] == arr[:, 1]):
                raise ValueError("self-loops are not allowed")
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            arr = np.unique(np.stack([lo, hi], axis=1), axis=0)
        return cls(n=n, edges=arr)

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def adjacency(self, self_loops: bool = False) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency A without self-loops, or A + I."""
        loops = np.arange(self.n if self_loops else 0)
        i = np.concatenate([self.edges[:, 0], self.edges[:, 1], loops])
        j = np.concatenate([self.edges[:, 1], self.edges[:, 0], loops])
        return sp.csr_matrix((np.ones(i.size), (i, j)), shape=(self.n, self.n))


def normalize_adjacency(net: Network) -> sp.csr_matrix:
    """Renormalized adjacency D~^{-1/2} (A + I) D~^{-1/2}, computed once as
    a preprocessing step: entry (i, j) of A + I scaled by the two inverse
    square-root degrees. Symmetric; every row carries at least its
    diagonal entry (self-loops make the degrees strictly positive)."""
    a_hat = net.adjacency(self_loops=True)
    deg = np.diff(a_hat.indptr)
    inv_sqrt = 1.0 / np.sqrt(deg)
    a_hat.data = inv_sqrt[np.repeat(np.arange(net.n), deg)] * inv_sqrt[a_hat.indices]
    return a_hat


def neighbor_sum(net: Network, r: np.ndarray) -> np.ndarray:
    """Row i of the result is the sum of r's rows over i's neighbors
    (raw A, no self-loops, no normalization)."""
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != net.n:
        raise ShapeError(f"neighbor_sum expects an {net.n}-row matrix, got {r.shape}")
    return np.asarray(net.adjacency() @ r)
