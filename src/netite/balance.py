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
iteration from 2^14 cells up. Each block fills its own u, v and K v
arrays in place, joined once per segment, so no buffer grows with the
cap. A block that does not converge and whose last v equals the one
before it bit for bit (NaN never does) has reached a fixed point: every
later u = a / (K v) and v = b / (K^T u) repeats the last pair, so the
run stops and copies that pair up to the cap, the very history the full
run would build, and every result is unchanged.

A run between two changes of the potentials is a segment. At its end,
its stored iterates are checked once: if a scaling lies outside
[m/1e150, m*1e150] (m = a or b), the iterates from there on are
discarded, the last one kept is folded into the potentials
(f += log(u/a), g += log(v/b)), K is rebuilt, and a new segment goes
on from u = a, v = b with what is left of the iteration cap. The
unrolled backward runs one segment at a time, latest first, each with
its own K, and collects each step's K-shaped term in one product
K * (U^T X + Y^T V) per segment. That product rounds by the memory order
of U and V, and the forward's join may leave them in either order, so
the backward takes each segment's iterates in C order.

`wasserstein1` returns a `W1Result`. Its value, convergence flag and
iteration count come from the forward iterations alone; a caller that
reads only those runs no backward. The two gradients are computed on
the first read of either, by the unrolled backward that `_sinkhorn`
hands back as a deferred step, and kept. Until then the result holds
one n1 x n0 buffer, C, and the kept iterates: the backward rebuilds
B = C/eps, each segment's K and K^T, and the plan with the forward's
own operations, so the gradients equal bit for bit those of a backward
run at once. A non-finite gradient raises NumericError at that first
read.

The n1 x n0 values of Sinkhorn live in a few buffers filled in place,
each operation kept in the order and rounding of the plain expression.
The forward holds C, K (built in place from B = C/eps) and one work
buffer, which holds K^T during the iterations and the plan after them;
it peaks near 3.2 n1 x n0 buffers. The gradient read adds the backward's
K, a work buffer (the plan, then K^T, then Y^T V), one more (P∘B, then
U^T X and the K-shaped term) and the gradient, which is divided by C in
place; it peaks near 5.3. Its iterate histories X and Y (T (n1 + n0)
floats) are scaled in place from v/b and u/a. The median's partial sort
and the sums <P, C> and <dC, C> each make one temporary besides.

Above `linalg`'s thresholds, W1's large passes run as two row halves at
once, bit for bit as the whole pass. `linalg.split_rows` runs the
products: C, the backward's U^T X and Y^T V (into their buffers), the
point-gradient products W Y and W^T X, and Sinkhorn's products by a
vector, K v, K^T u, K x and K^T y (the last two into vectors kept for
the run); whole or split is chosen once per segment (`linalg.matvec`),
so the loop on few-point groups makes no extra call per product.
`linalg.row_halves` runs the elementwise passes over n1 x n0 buffers:
B = C/eps, the kernel, the copy K -> K^T, the plan, P∘B with P∘(1 - B),
each backward segment's end and g_c / C. Column sums, totals and the
median's partial sort run whole.

`exact_w1_oracle` is an independent brute-force check used by the test
suite; it never touches the Sinkhorn path.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.spatial.distance import cdist

from .linalg import NumericError, check_fields, matvec, row_halves, split_rows


class DegenerateGroupsError(ValueError):
    """One of the treatment groups is empty; the penalty is undefined."""


@dataclass
class SinkhornConfig:
    entropic_reg: float = 0.1  # relative to the median pairwise cost
    max_iters: int = 300
    convergence_tol: float = 1e-6  # max marginal violation; 0 disables early exit

    def __post_init__(self):
        check_fields(self, "entropic_reg", 0, strict=True)
        check_fields(self, "max_iters", 1, integer=True)
        check_fields(self, "convergence_tol", 0)


class W1Result:
    """One W1 run. `dist`, `converged` and `iterations` come from the
    forward iterations. `grad_treated` and `grad_control`, shaped like
    the two row sets, come from `grads`, a no-argument callable that
    returns both; it is called on the first read of either, and its
    result kept. `_replace` works as on a named tuple, and the copy
    shares the deferred backward, so that still runs at most once."""

    __slots__ = ("dist", "converged", "iterations", "_grads")
    _fields = ("dist", "grad_treated", "grad_control", "converged", "iterations")

    def __init__(self, dist: float, grads, converged: bool, iterations: int):
        self.dist, self.converged, self.iterations = dist, converged, iterations
        self._grads = [grads]  # the callable until the first read, then its result

    def _read(self):
        if callable(self._grads[0]):
            self._grads[0] = self._grads[0]()
        return self._grads[0]

    grad_treated = property(lambda self: self._read()[0])
    grad_control = property(lambda self: self._read()[1])

    def _replace(self, **changes) -> W1Result:
        unknown = changes.keys() - set(self._fields)
        if unknown:
            raise ValueError(f"got unexpected field names: {sorted(unknown)}")
        new = copy.copy(self)
        names = ("grad_treated", "grad_control")
        given = {name: changes.pop(name) for name in names if name in changes}
        if given:
            new._grads = [lambda: tuple(given[n] if n in given else getattr(self, n) for n in names)]
        for name, value in changes.items():
            setattr(new, name, value)
        return new


def _median_with_support(c: np.ndarray):
    """Median of all entries plus the flat indices/weights realizing it,
    so the median can participate in the backward pass."""
    flat = c.ravel()
    nn = flat.size
    half = nn // 2
    part = np.partition(flat, half)
    # of an even count, the lower middle value is the largest below rank half
    ks, vals = ([half], [part[half]]) if nn % 2 == 1 else ([half - 1, half], [part[:half].max(), part[half]])
    wts = [1.0 / len(ks)] * len(ks)
    # the index a stable argsort puts at rank k: of the entries equal to
    # the k-th smallest value, in index order, the one after those that
    # rank below k
    idx = [np.flatnonzero(flat == val)[k - np.count_nonzero(flat < val)] for k, val in zip(ks, vals)]
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


def _kernel(k: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Turn B, held in k, into K = exp(f + g - B) in place, with f + g - B
    formed in blocks of about 2^16 cells, so no full-size temporary is
    made."""
    step = max(1, 2**16 // k.shape[1])

    def blocks(k, f):
        for r in range(0, k.shape[0], step):
            rows = slice(r, r + step)
            np.subtract(f[rows, None] + g, k[rows], out=k[rows])
        np.exp(k, out=k)

    return row_halves(blocks, k, f)


def _scaled(c: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    """B = C/eps, written into out."""
    return row_halves(lambda out, c: np.divide(c, eps, out=out), out, c)


def _plan(u: np.ndarray, k: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The plan diag(u) K diag(v), written into out."""
    return row_halves(lambda out, u, k: np.multiply(np.multiply(u[:, None], k, out=out), v, out=out), out, u, k)


def _sinkhorn(c: np.ndarray, eps: float, cfg: SinkhornConfig):
    """Plan, backward step, convergence flag and iteration count from
    Sinkhorn on B = C/eps, on the scalings u, v of the kernel
    K = exp(f + g - B), with the potentials f, g absorbing any scaling
    that grows out of range. The step is `_sinkhorn_backward` bound to
    this run; called, it returns d<P, B>/dB. The caller must not write
    into the plan.

    Besides C, the run keeps two n1 x n0 buffers: k (B, then each
    segment's K) and work (K^T in the loop, then the plan)."""
    n1, n0 = c.shape
    a, b = 1.0 / n1, 1.0 / n0
    k = _scaled(c, eps, np.empty(c.shape))
    f, g = np.zeros(n1), np.zeros(n0)
    if k.max() > math.log(_BOUND):
        f = k.min(axis=1)
        g = (k - f[:, None]).min(axis=0)
    v = b * np.exp(-g)  # the true start v_0 = b, whatever g is
    block = _check_block(n1 * n0)
    work = np.empty(n1 * n0)
    kt = work.reshape(n0, n1)
    segments = []  # (f, g, u history, v history from its start) per segment
    iters = 0
    while True:
        _kernel(k, f, g)
        row_halves(np.copyto, kt, k.T)
        kdot, ktdot = matvec(k), matvec(kt)
        # ndarray.dot, ufunc.reduce, 0-d operands and a positional out skip call
        # overheads that dominate on the few-point groups of the acceptance checks.
        a0, b0 = np.array(a), np.array(b)
        us, vs = [], [v[None]]  # the segment's blocks of iterates
        kv = kdot(v)
        done, stop = 0, False
        # the iterates past an overflow are discarded below, and must not warn
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            while not stop and iters + done < cfg.max_iters:
                m = min(block, cfg.max_iters - iters - done)
                u_blk, v_blk, kv_blk = np.empty((m, n1)), np.empty((m, n0)), np.empty((m, n1))
                v_before = v_blk[m - 2] if m > 1 else v
                for u, v, kv_next in zip(u_blk, v_blk, kv_blk):
                    np.divide(a0, kv, u)
                    ktdot(u, out=v)
                    np.divide(b0, v, v)
                    kv = kdot(v, out=kv_next)
                done += m
                if cfg.convergence_tol > 0:
                    # u_t * (K v_t) is the row marginal of the plan
                    # diag(u_t) K diag(v_t); stop at the block's first iterate
                    # within tol, or with a NaN violation, dropping the rest
                    viol = np.maximum.reduce(np.abs(u_blk * kv_blk - a0), axis=1)
                    hit = (~(viol >= cfg.convergence_tol)).nonzero()[0]
                    if hit.size:
                        stop, kept = True, int(hit[0]) + 1
                        done -= m - kept
                        u_blk, v_blk = u_blk[:kept], v_blk[:kept]
                us.append(u_blk)
                vs.append(v_blk)
                if not stop and iters + done < cfg.max_iters and (v == v_before).all():
                    # a fixed point: the rest of the run repeats this u, v
                    rest = cfg.max_iters - iters - done
                    us.append(np.broadcast_to(u, (rest, n1)))
                    vs.append(np.broadcast_to(v, (rest, n0)))
                    done += rest
        u_hist, v_hist = np.concatenate(us), np.concatenate(vs)
        del us, vs
        # Keep the iterates before the first out-of-range one. If there is
        # one, fold the last kept into the potentials and go on from
        # u = a, v = b. The first segment always keeps its first iterate;
        # a later one that kept none would make no progress.
        ok = _in_range(u_hist, a) & _in_range(v_hist[1:], b)
        keep = len(ok) if ok.all() else int(np.argmin(ok))
        if keep == 0:
            raise NumericError("Sinkhorn scaling left the float64 range")
        segments.append((f, g, u_hist[:keep], v_hist[:keep + 1]))
        iters += keep
        if keep == len(ok):
            break
        phi, psi = np.log(u_hist[keep - 1] / a), np.log(v_hist[keep] / b)
        f, g = f + phi, g + psi
        v = np.full(n0, b)
        _scaled(c, eps, k)

    p = _plan(u_hist[-1], k, v_hist[-1], work.reshape(n1, n0))
    return p, partial(_sinkhorn_backward, c, eps, segments), stop, iters


def _segment_end(g_b, acc, yv, k):
    """acc -= Y^T V; acc *= K; g_b += acc."""
    np.multiply(np.subtract(acc, yv, out=acc), k, out=acc)
    np.add(g_b, acc, out=g_b)


def _sinkhorn_backward(c: np.ndarray, eps: float, segments: list) -> np.ndarray:
    """d<P, B>/dB for the `_sinkhorn` run on C/eps that kept `segments`,
    by unrolling the run's iterations. B, each segment's K and K^T, and
    the plan are recomputed here with the forward's own operations.
    Besides the gradient, three n1 x n0 buffers hold every value: k
    (each segment's K), work (the plan, then K^T, then Y^T V) and acc
    (P∘B, then U^T X and the K-shaped term)."""
    n1, n0 = c.shape
    a, b = 1.0 / n1, 1.0 / n0
    f, g, u_hist, v_hist = segments[-1]
    k = _kernel(_scaled(c, eps, np.empty(c.shape)), f, g)
    work = np.empty(n1 * n0)
    p = _plan(u_hist[-1], k, v_hist[-1], work.reshape(n1, n0))
    g_b, acc = np.empty(c.shape), np.empty(c.shape)

    def first_terms(g_b, acc, c, p):  # B, P∘B, and P∘(1 - B), the gradient's first term
        np.divide(c, eps, out=g_b)
        np.multiply(p, g_b, out=acc)
        np.multiply(np.subtract(1.0, g_b, out=g_b), p, out=g_b)

    row_halves(first_terms, g_b, acc, c, p)
    g_phi_plan = acc.sum(axis=1)
    g_psi = acc.sum(axis=0)
    kt = work.reshape(n0, n1)
    g_phi = np.empty(n1)

    # In the potentials phi = log(u/a), psi = log(v/b), step t of the
    # backward adds diag(u_t) K diag(x_t) and diag(y_t) K diag(v_{t-1})
    # to dB, with x_t = e^psi_t * g_psi and y_t = e^phi_t * g_phi; the
    # loop scales e^psi and e^phi into X and Y in place. The plan's own
    # g_phi enters at the last iterate only; before it g_phi is -u_t K x_t.
    # The loop carries -g_phi, exactly, and the sign comes back in g_psi
    # and in Y^T V. Within a segment, phi and psi differ from the logs of
    # the full scalings u e^f, v e^g by constants, so their adjoints are
    # those of the full scalings and g_psi carries across segments.
    for i, (f, g, u_hist, v_hist) in reversed(list(enumerate(segments))):
        if i < len(segments) - 1:
            _kernel(_scaled(c, eps, k), f, g)
        u_hist, v_hist = np.ascontiguousarray(u_hist), np.ascontiguousarray(v_hist)
        row_halves(np.copyto, kt, k.T)
        kdot, ktdot = matvec(k), matvec(kt)
        x_hist, y_hist = v_hist[1:] / b, u_hist / a
        for u_t, v_prev, x, y in zip(u_hist[::-1], v_hist[-2::-1], x_hist[::-1], y_hist[::-1]):
            x *= g_psi
            kdot(x, out=g_phi)
            g_phi *= u_t
            if g_phi_plan is not None:
                g_phi -= g_phi_plan
                g_phi_plan = None
            y *= g_phi
            ktdot(y, out=g_psi)  # x has read the g_psi this overwrites
            g_psi *= v_prev
        # g_b += K * (U^T X + Y^T V), with Y negated
        split_rows(np.matmul, u_hist.T, x_hist, out=acc)
        split_rows(np.matmul, y_hist.T, v_hist[:-1], out=p)  # work, done as the plan and as K^T
        row_halves(_segment_end, g_b, acc, p, k)
    if not np.all(np.isfinite(g_b)):
        raise NumericError("non-finite Sinkhorn gradient")
    return g_b


def _quotient(g_c, c, apart):
    """g_c / C where C > 0, and 0 where C = 0, into g_c."""
    np.divide(g_c, c, out=g_c, where=np.greater(c, 0.0, out=apart))
    np.copyto(g_c, 0.0, where=np.logical_not(apart, out=apart))


def _groups(treated, control):
    """The two row sets as float64 copies of shape (points, dims). A 1-D
    input is one point, and a group that holds no value is empty."""
    treated, control = (np.atleast_2d(np.array(x, dtype=np.float64)) for x in (treated, control))
    if treated.size == 0 or control.size == 0:
        raise DegenerateGroupsError("both treatment groups must be nonempty")
    return treated, control


def wasserstein1(treated: np.ndarray, control: np.ndarray, cfg: SinkhornConfig) -> W1Result:
    """Approximate W1 between the uniform empirical measures on the two
    row sets. The gradient of that value with respect to each row is
    computed on the first read of either gradient field, from copies of
    the rows taken now."""
    treated, control = _groups(treated, control)
    c = split_rows(cdist, treated, control, out=np.empty((len(treated), len(control))))
    if not np.all(np.isfinite(c)):
        raise NumericError("non-finite pairwise cost")
    scale, med_idx, med_wts = _median_with_support(c)
    if scale <= 1e-12:
        # more than half the costs are zero (e.g. collapsed representations),
        # so the median says nothing of the scale; the mean still does
        scale, med_idx = float(c.mean()), None
    eps = cfg.entropic_reg * max(scale, 1e-12)

    p, sinkhorn_backward, converged, iters = _sinkhorn(c, eps, cfg)
    dist = float(np.sum(p * c))

    def grads():
        # Gradients are taken in the B = C/eps units.
        # dist(C, eps) = eps * V(C / eps) with V the normalized problem, so
        # dC = g_b and d_eps = (dist - <g_b, C>) / eps; eps's own dependence
        # on the median (or mean) cost feeds back into dC.
        g_c = sinkhorn_backward()
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
        w = row_halves(_quotient, g_c, c, np.empty(c.shape, bool))
        grad_treated = treated * w.sum(axis=1)[:, None] - split_rows(np.matmul, w, control)
        grad_control = control * w.sum(axis=0)[:, None] - split_rows(np.matmul, w.T, treated)
        return grad_treated, grad_control

    return W1Result(dist, grads, converged, iters)


def exact_w1_oracle(treated: np.ndarray, control: np.ndarray) -> float:
    """Exact W1 between equal-size uniform empirical measures by
    enumerating all permutation couplings (optimal for this case).
    Supports group sizes up to 8."""
    treated, control = _groups(treated, control)
    n = treated.shape[0]
    if control.shape[0] != n:
        raise ValueError("oracle requires equal group sizes")
    if n > 8:
        raise ValueError("oracle supports sizes 1..8")
    perms = np.array(list(itertools.permutations(range(n))))
    # each coupling's cost summed in index order, as a running sum
    costs = cdist(treated, control)[np.arange(n), perms].cumsum(axis=1)[:, -1] / n
    return float(costs.min())
