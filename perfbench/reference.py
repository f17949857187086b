"""Reference loops: fixed numpy/scipy work, independent of netite, timed
next to each job repetition.

A shared host's speed can drift by a third within minutes, as other
tenants load its cores and memory bandwidth, and the drift outlasts a
run. Each workload's loop repeats the kind of work its job spends its
time on, so the two slow down together; the harness reports the job's
time scaled by REFERENCE_S / (the loop's time beside it), i.e. in
seconds of a host on which the loop takes REFERENCE_S.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

REFERENCE_S = 1.0  # nominal duration of every loop


class Reference:
    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        if kind == "sinkhorn":
            # log-domain Sinkhorn sweeps over a 900 x 900 cost matrix
            self.b = 30.0 * rng.random((900, 900))
            self.reps = 12
        elif kind == "gcn":
            # one paper-scale GCN layer forward and backward: A_hat X W
            n, m, d = 3000, 2000, 100
            self.x = np.where(rng.random((n, m)) < 0.19, rng.random((n, m)), 0.0)
            self.a = (sp.random(n, n, density=20.0 / n, random_state=0) + sp.identity(n)).tocsr()
            self.w = rng.random((m, d))
            self.reps = 2
        elif kind == "tiny":
            # many numpy calls on a handful of points
            self.small = [rng.random((int(k), 3)) for k in rng.integers(2, 14, size=50)]
            self.reps = 480
        else:
            raise KeyError(kind)

    def _once(self):
        if self.kind == "sinkhorn":
            psi = np.zeros(self.b.shape[1])
            for _ in range(4):
                a = psi[None, :] - self.b
                amax = a.max(axis=1, keepdims=True)
                phi = -(np.log(np.exp(a - amax).sum(axis=1)) + amax[:, 0])
                a = phi[:, None] - self.b
                amax = a.max(axis=0, keepdims=True)
                psi = -(np.log(np.exp(a - amax).sum(axis=0)) + amax[0])
        elif self.kind == "gcn":
            h = self.a @ self.x
            z = h @ self.w
            h.T @ z
            self.a @ (z @ self.w.T)
        else:
            for p in self.small:
                c = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2))
                np.exp(-c / max(np.median(c), 1e-12)).sum(axis=1)

    def time(self) -> float:
        start = time.perf_counter()
        for _ in range(self.reps):
            self._once()
        return time.perf_counter() - start
