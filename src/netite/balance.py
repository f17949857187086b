"""Empirical Wasserstein-1 distance between treated and control
representation clouds, with gradients with respect to the points.

The distance between the two uniform empirical measures (ground cost:
Euclidean distance) is approximated by entropic-regularized optimal
transport solved with Sinkhorn iterations. The reported value is the
transport cost <P, C> at the computed plan. Gradients are exact for that
value: the backward pass unrolls the executed Sinkhorn iterations,
including the dependence of the regularization strength on the costs.

The regularization strength eps is entropic_reg times the median
pairwise cost, or times the mean cost when the median is zero (more
than half the pairs coincide), so that eps keeps the scale of the
costs that are not zero.

Sinkhorn runs on the scalings u, v of the kernel K = exp(f + g - B),
B = C/eps, where the potentials f (rows) and g (columns) carry what the
scalings would not hold in float64 (stabilized scaling, Schmitzer 2019,
arXiv:1610.06519). Each iteration is two matrix-vector products,
u = a / (K v) and v = b / (K^T u); the plan is diag(u) K diag(v). When
max(B) is at most ln(1e150), f = g = 0 and K is exp(-B). Above that,
f starts at the row minima of B and g at the column minima of B - f,
so every row and column of K holds a 1, and the first iterate starts
from v = b e^-g, which is the true start b.

Convergence (the row marginal u * K v within the tolerance of a) is
tested once per block of up to 32 iterations, in one vectorized
expression over the block's iterates, and the run exits at the first
iterate that meets it. The iterations the block ran past that one are
discarded, so the exit, the plan and the gradients are those of a test
after every iteration. The block shrinks as the groups grow, to one
iteration from 2^14 cells up.

A run between two changes of the potentials is a segment. At its end,
its stored iterates are checked once: if a scaling lies outside
[m/1e150, m*1e150] (m = a or b), the iterates from there on are
discarded, the last one kept is folded into the potentials
(f += log(u/a), g += log(v/b)), K is rebuilt, and a new segment goes
on from u = a, v = b with what is left of the iteration cap. The
unrolled backward runs one segment at a time, latest first, each with
its own K, and collects each step's K-shaped term in one product
K * (U^T X + Y^T V) per segment.

`wasserstein1` returns the value and both gradients. `w1_distance`
returns the same value from the same iterations, but stops once the plan
is built: it runs no backward and its `W1Result` carries `None` for
both gradients. It is for callers that read only the value, such as
the finite-difference probes of `gradcheck`.

`exact_w1_oracle` is an independent brute-force check used by the test
suite; it never touches the Sinkhorn path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from .linalg import NumericError


class DegenerateGroupsError(ValueError):
    """One of the treatment groups is empty; the penalty is undefined."""


@dataclass
class SinkhornConfig:
    entropic_reg: float = 0.1  # relative to the median pairwise cost
    max_iters: int = 300
    convergence_tol: float = 1e-6  # max marginal violation; 0 disables early exit

    def __post_init__(self):
        if self.entropic_reg <= 0:
            raise ValueError("entropic_reg must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


class W1Result(NamedTuple):
    dist: float
    grad_treated: np.ndarray | None  # None from w1_distance
    grad_control: np.ndarray | None
    converged: bool
    iterations: int


def _median_with_support(c: np.ndarray):
    """Median of all entries plus the flat indices/weights realizing it,
    so the median can participate in the backward pass."""
    flat = c.ravel()
    nn = flat.size
    ks = [nn // 2] if nn % 2 == 1 else [nn // 2 - 1, nn // 2]
    wts = [1.0 / len(ks)] * len(ks)
    part = np.partition(flat, ks)
    # the index a stable argsort puts at rank k: of the entries equal to
    # the k-th smallest value, in index order, the one after those that
    # rank below k
    idx = [np.flatnonzero(flat == part[k])[k - np.count_nonzero(flat < part[k])] for k in ks]
    med = float(sum(w * flat[i] for i, w in zip(idx, wts)))
    return med, idx, wts


# A scaling is folded into the potentials before it leaves
# [m / bound, m * bound] (m = a or b): two in-range scalings keep every
# product of the unrolled backward below 1e300 * a * b, even where K
# underflows.
_BOUND = 1e150


def _in_range(x: np.ndarray, m: float) -> np.ndarray:
    """Per row of x: every entry lies in [m / bound, m * bound]; False
    if any is NaN."""
    return ((x >= m / _BOUND) & (x <= m * _BOUND)).all(axis=1)


def _check_block(cells: int) -> int:
    """Sinkhorn iterations between two convergence checks: up to 32 on
    few-point groups, where the per-call overhead of a check costs as
    much as an iteration, and 1 from 2^14 cells up, where the iterations
    a block runs past the exit would cost more than the checks saved."""
    return max(1, min(32, 2**14 // cells))


def _sinkhorn(b_mat: np.ndarray, cfg: SinkhornConfig, grad: bool):
    """Plan, d<P, B>/dB (None unless grad), convergence flag and
    iteration count from Sinkhorn on the scalings u, v of the kernel
    K = exp(f + g - B), with the potentials f, g absorbing any scaling
    that grows out of range."""
    n1, n0 = b_mat.shape
    a, b = 1.0 / n1, 1.0 / n0
    f, g = np.zeros(n1), np.zeros(n0)
    if b_mat.max() > math.log(_BOUND):
        f = b_mat.min(axis=1)
        g = (b_mat - f[:, None]).min(axis=0)
    v = b * np.exp(-g)  # the true start v_0 = b, whatever g is
    block = _check_block(n1 * n0)
    segments = []  # (K, K^T, u history, v history from its start) per segment
    iters = 0
    while True:
        k = f[:, None] + g
        k -= b_mat
        np.exp(k, out=k)
        kt = np.ascontiguousarray(k.T)
        # ndarray.dot and ufunc.reduce skip the dispatch of @ and np.max,
        # which dominates on the few-point groups of the acceptance checks.
        us, vs, kvs = [], [v], []
        kv = k.dot(v)
        stop = False
        # the iterates past an overflow are discarded below, and must not warn
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            while not stop and iters + len(us) < cfg.max_iters:
                for _ in range(min(block, cfg.max_iters - iters - len(us))):
                    u = a / kv
                    v = b / kt.dot(u)
                    kv = k.dot(v)
                    us.append(u)
                    vs.append(v)
                    kvs.append(kv)
                if cfg.convergence_tol > 0:
                    # u_t * (K v_t) is the row marginal of the plan
                    # diag(u_t) K diag(v_t); stop at the block's first iterate
                    # within tol, or with a NaN violation, dropping the rest
                    viol = np.maximum.reduce(np.abs(np.array(us[-len(kvs):]) * kvs - a), axis=1)
                    hit = np.flatnonzero(~(viol >= cfg.convergence_tol))
                    if hit.size:
                        stop = True
                        keep = len(us) - len(kvs) + int(hit[0]) + 1
                        del us[keep:], vs[keep + 1:]
                kvs.clear()
        u_hist, v_hist = np.array(us), np.array(vs)
        del us, vs
        # Keep the iterates before the first out-of-range one. If there is
        # one, fold the last kept into the potentials and go on from
        # u = a, v = b. The first segment always keeps its first iterate;
        # a later one that kept none would make no progress.
        ok = _in_range(u_hist, a) & _in_range(v_hist[1:], b)
        keep = len(ok) if ok.all() else int(np.argmin(ok))
        if keep == 0:
            raise NumericError("Sinkhorn scaling left the float64 range")
        segments.append((k, kt, u_hist[:keep], v_hist[:keep + 1]))
        iters += keep
        if keep == len(ok):
            break
        f += np.log(u_hist[keep - 1] / a)
        g += np.log(v_hist[keep] / b)
        v = np.full(n0, b)
    converged = stop

    p = u_hist[-1][:, None] * k * v_hist[-1][None, :]
    if not grad:
        return p, None, converged, iters
    pb = p * b_mat
    g_phi_plan = pb.sum(axis=1)
    g_psi = pb.sum(axis=0)
    g_b = p * (1.0 - b_mat)

    # In the potentials phi = log(u/a), psi = log(v/b), step t of the
    # backward adds diag(u_t) K diag(x_t) and diag(y_t) K diag(v_{t-1})
    # to dB, with x_t = e^psi_t * g_psi and y_t = e^phi_t * g_phi; the
    # loop only carries the two vectors. The plan's own g_phi enters at
    # the last iterate only; at every earlier one g_phi is just
    # -u_t * K x_t. Within a segment, phi and psi differ from the logs of
    # the full scalings u e^f, v e^g by constants, so their adjoints are
    # those of the full scalings and g_psi carries across segments.
    for k, kt, u_hist, v_hist in reversed(segments):
        eu, ev, nu, nv = u_hist / a, v_hist / b, -u_hist, -v_hist
        x_hist, y_hist = np.empty((len(u_hist), n0)), np.empty((len(u_hist), n1))
        for nu_t, eu_t, ev_t, nv_prev, x, y in zip(
                nu[::-1], eu[::-1], ev[:0:-1], nv[-2::-1], x_hist[::-1], y_hist[::-1]):
            np.multiply(ev_t, g_psi, out=x)
            g_phi = nu_t * k.dot(x)
            if g_phi_plan is not None:
                g_phi += g_phi_plan
                g_phi_plan = None
            np.multiply(eu_t, g_phi, out=y)
            g_psi = nv_prev * kt.dot(y)
        g_b += k * (u_hist.T @ x_hist + y_hist.T @ v_hist[:-1])
    if not np.all(np.isfinite(g_b)):
        raise NumericError("non-finite Sinkhorn gradient")
    return p, g_b, converged, iters


def wasserstein1(treated: np.ndarray, control: np.ndarray, cfg: SinkhornConfig) -> W1Result:
    """Approximate W1 between the uniform empirical measures on the two
    row sets, and the gradient of that value with respect to each row."""
    return _w1(treated, control, cfg, grad=True)


def w1_distance(treated: np.ndarray, control: np.ndarray, cfg: SinkhornConfig) -> W1Result:
    """The `wasserstein1` value, convergence flag and iteration count,
    without the backward; both gradients are None."""
    return _w1(treated, control, cfg, grad=False)


def _w1(treated, control, cfg: SinkhornConfig, grad: bool) -> W1Result:
    treated = np.atleast_2d(np.asarray(treated, dtype=np.float64))
    control = np.atleast_2d(np.asarray(control, dtype=np.float64))
    n1, n0 = treated.shape[0], control.shape[0]
    if n1 == 0 or n0 == 0:
        raise DegenerateGroupsError("both treatment groups must be nonempty")

    c = cdist(treated, control)
    if not np.all(np.isfinite(c)):
        raise NumericError("non-finite pairwise cost")
    scale, med_idx, med_wts = _median_with_support(c)
    if scale <= 1e-12:
        # more than half the costs are zero (e.g. collapsed representations),
        # so the median says nothing of the scale; the mean still does
        scale, med_idx = float(c.mean()), None
    eps = cfg.entropic_reg * max(scale, 1e-12)

    # Gradients are taken in the B = C/eps units.
    p, g_b, converged, iters = _sinkhorn(c / eps, cfg, grad)
    dist = float(np.sum(p * c))
    if not grad:
        return W1Result(dist, None, None, converged, iters)

    # dist(C, eps) = eps * V(C / eps) with V the normalized problem, so
    # dC = g_b and d_eps = (dist - <g_b, C>) / eps; eps's own dependence
    # on the median (or mean) cost feeds back into dC.
    g_c = g_b
    if scale > 1e-12:
        g_eps = (dist - float(np.sum(g_c * c))) / eps
        if med_idx is None:  # the mean weighs every cell 1 / (n1 n0)
            g_c += g_eps * cfg.entropic_reg / c.size
        else:
            flat = g_c.ravel()
            for i, w in zip(med_idx, med_wts):
                flat[i] += g_eps * cfg.entropic_reg * w

    # dC_ij/dx_i = (x_i - y_j) / C_ij (zero at coincident points), applied
    # without materializing the n1 x n0 x d unit-vector tensor
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(c > 0.0, g_c / c, 0.0)
    grad_treated = treated * w.sum(axis=1)[:, None] - w @ control
    grad_control = control * w.sum(axis=0)[:, None] - w.T @ treated
    return W1Result(dist, grad_treated, grad_control, converged, iters)


def exact_w1_oracle(treated: np.ndarray, control: np.ndarray) -> float:
    """Exact W1 between equal-size uniform empirical measures by
    enumerating all permutation couplings (optimal for this case).
    Supports group sizes up to 8."""
    treated = np.atleast_2d(np.asarray(treated, dtype=np.float64))
    control = np.atleast_2d(np.asarray(control, dtype=np.float64))
    n = treated.shape[0]
    if control.shape[0] != n:
        raise ValueError("oracle requires equal group sizes")
    if n == 0 or n > 8:
        raise ValueError("oracle supports sizes 1..8")
    c = cdist(treated, control)
    best = math.inf
    rows = range(n)
    for perm in itertools.permutations(rows):
        cost = sum(c[i, perm[i]] for i in rows) / n
        if cost < best:
            best = cost
    return best
