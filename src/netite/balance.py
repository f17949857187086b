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

Sinkhorn runs in the scaling domain: with the kernel K = exp(-C/eps)
built once, each iteration is two matrix-vector products,
u = a / (K v) and v = b / (K^T u). Convergence (the row marginal
u * K v within the tolerance of a) is tested once per block of up to
32 iterations, in one vectorized expression over the block's iterates,
and the run exits at the first iterate that meets it. The iterations
the block ran past that one are discarded, so the exit, the plan and
the gradients are those of a test after every iteration. The block
shrinks as the groups grow, to one iteration from 2^14 cells up.

The unrolled backward collects every step's K-shaped term in one
product K * (U^T X + Y^T V) over the stored iterates. That needs K and
every scaling to be normal float64 numbers. When max(C)/eps exceeds
700, so that exp(-C/eps) would underflow, or when a scaling, a product
K v or K^T u, or the gradient leaves the normal range, the same
iteration runs in the log domain on the potentials phi = log(u/a),
psi = log(v/b) instead, which holds at any eps but is several times
slower.

`wasserstein1` returns the value and both gradients. `w1_distance`
returns the same value from the same iterations, but stops once the plan
is built: it runs no backward and its `W1Result` carries `None` for
both gradients. It is for callers that read only the value, such as
the finite-difference probes of `gradcheck`. Because it forms no
gradient, it never takes the fallback on a non-finite scaling-domain
gradient; that is the one case where the two can differ.

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


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    return out


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


# Past C/eps = 708, exp(-C/eps) underflows to subnormals and then to 0,
# and the scaling domain silently loses those entries of K.
_MAX_SCALING_EXPONENT = 700.0
_TINY = np.finfo(np.float64).tiny


def _within(x: np.ndarray, lo: float, hi: float) -> bool:
    """Every entry lies in [lo, hi]; False if any is NaN."""
    return bool(lo <= x.min() and x.max() <= hi)


def _check_block(cells: int) -> int:
    """Sinkhorn iterations between two convergence checks: up to 32 on
    few-point groups, where the per-call overhead of a check costs as
    much as an iteration, and 1 from 2^14 cells up, where the iterations
    a block runs past the exit would cost more than the checks saved."""
    return max(1, min(32, 2**14 // cells))


def _sinkhorn_scaling(b_mat: np.ndarray, cfg: SinkhornConfig, grad: bool):
    """Plan, d<P, B>/dB (None unless grad), convergence flag and
    iteration count from Sinkhorn on the scalings u = a e^phi,
    v = b e^psi, or None when a value leaves the normal float64 range."""
    n1, n0 = b_mat.shape
    a, b = 1.0 / n1, 1.0 / n0
    k = np.exp(-b_mat)
    kt = np.ascontiguousarray(k.T)

    # ndarray.dot and ufunc.reduce skip the dispatch of @ and np.max,
    # which dominates on the few-point groups of the acceptance checks.
    us, vs, kvs = [], [np.full(n0, b)], []
    kv = k.dot(vs[0])
    block = _check_block(n1 * n0)
    converged = False
    while not converged and len(us) < cfg.max_iters:
        for _ in range(min(block, cfg.max_iters - len(us))):
            u = a / kv
            v = b / kt.dot(u)
            kv = k.dot(v)
            us.append(u)
            vs.append(v)
            kvs.append(kv)
        if cfg.convergence_tol > 0:
            # u_t * (K v_t) is the row marginal of the plan diag(u_t) K diag(v_t);
            # exit at the block's first iterate within tol, dropping the rest
            viol = np.maximum.reduce(np.abs(np.array(us[-len(kvs):]) * kvs - a), axis=1)
            hit = np.flatnonzero(viol < cfg.convergence_tol)
            if hit.size:
                converged = True
                keep = len(us) - len(kvs) + int(hit[0]) + 1
                del us[keep:], vs[keep + 1:]
        kvs.clear()
    iters = len(us)
    u, v = us[-1], vs[-1]
    u_hist, v_hist = np.array(us), np.array(vs)
    del us, vs
    # u <= a / tiny exactly when the K v it came from was >= tiny
    if not (_within(u_hist, _TINY, a / _TINY) and _within(v_hist, _TINY, b / _TINY)):
        return None

    p = u[:, None] * k * v[None, :]
    if not grad:
        return p, None, converged, iters
    pb = p * b_mat
    g_phi_plan = pb.sum(axis=1)
    g_psi = pb.sum(axis=0)

    # Step t of the log-domain backward adds diag(u_t) K diag(x_t) and
    # diag(y_t) K diag(v_{t-1}) to dB, with x_t = e^psi_t * g_psi and
    # y_t = e^phi_t * g_phi; the loop only carries the two vectors. The
    # plan's own g_phi enters at the last iterate only; at every earlier
    # one g_phi is just -u_t * K x_t.
    eu, ev, nu, nv = u_hist / a, v_hist / b, -u_hist, -v_hist
    x_hist, y_hist = np.empty((iters, n0)), np.empty((iters, n1))
    for nu_t, eu_t, ev_t, nv_prev, x, y in zip(
            nu[::-1], eu[::-1], ev[:0:-1], nv[-2::-1], x_hist[::-1], y_hist[::-1]):
        np.multiply(ev_t, g_psi, out=x)
        g_phi = nu_t * k.dot(x)
        if g_phi_plan is not None:
            g_phi += g_phi_plan
            g_phi_plan = None
        np.multiply(eu_t, g_phi, out=y)
        g_psi = nv_prev * kt.dot(y)
    g_b = p * (1.0 - b_mat) + k * (u_hist.T @ x_hist + y_hist.T @ v_hist[:-1])
    if not np.all(np.isfinite(g_b)):
        return None
    return p, g_b, converged, iters


def _sinkhorn_log(b_mat: np.ndarray, cfg: SinkhornConfig, grad: bool):
    """The same iteration and backward as `_sinkhorn_scaling`, on the
    potentials phi, psi, so it holds at any C/eps."""
    n1, n0 = b_mat.shape
    la = np.full(n1, -math.log(n1))
    lb = np.full(n0, -math.log(n0))

    phi_hist, psi_hist = [], [np.zeros(n0)]
    psi = psi_hist[0]
    converged = False
    iters = 0
    for _ in range(cfg.max_iters):
        phi = -_logsumexp(psi[None, :] + lb[None, :] - b_mat, axis=1)
        psi = -_logsumexp(phi[:, None] + la[:, None] - b_mat, axis=0)
        phi_hist.append(phi)
        psi_hist.append(psi)
        iters += 1
        if cfg.convergence_tol > 0:
            log_p = la[:, None] + lb[None, :] + phi[:, None] + psi[None, :] - b_mat
            row_marg = np.exp(log_p).sum(axis=1)
            if np.max(np.abs(row_marg - np.exp(la))) < cfg.convergence_tol:
                converged = True
                break

    phi, psi = phi_hist[-1], psi_hist[-1]
    p = np.exp(la[:, None] + lb[None, :] + phi[:, None] + psi[None, :] - b_mat)
    if not grad:
        return p, None, converged, iters

    g_phi = (p * b_mat).sum(axis=1)
    g_psi = (p * b_mat).sum(axis=0)
    g_b = p * (1.0 - b_mat)
    for t in range(iters - 1, -1, -1):
        phi_t, psi_t, psi_prev = phi_hist[t], psi_hist[t + 1], psi_hist[t]
        n_mat = np.exp(phi_t[:, None] + la[:, None] - b_mat + psi_t[None, :])
        g_phi = g_phi - n_mat @ g_psi
        g_b = g_b + n_mat * g_psi[None, :]
        m_mat = np.exp(psi_prev[None, :] + lb[None, :] - b_mat + phi_t[:, None])
        g_psi = -(m_mat.T @ g_phi)
        g_b = g_b + m_mat * g_phi[:, None]
        g_phi = np.zeros(n1)
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
    b_mat = c / eps
    out = None
    if b_mat.max() <= _MAX_SCALING_EXPONENT:
        out = _sinkhorn_scaling(b_mat, cfg, grad)
    if out is None:
        out = _sinkhorn_log(b_mat, cfg, grad)
    p, g_b, converged, iters = out
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
