"""The benchmark's workloads, each driven only through netite's public API.

A workload has a set-up (seed -> ready inputs), a job that is repeated
and timed, and checks of both. The job marks its stages with the
harness's `stage` timer, which in a traced run also opens a span. Every
workload has a bench size and a toy size; the self-test runs the toy
size.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from netite import balance, gradcheck, graph, io, runner, simgen
from netite.balance import SinkhornConfig
from netite.linalg import make_rng
from netite.runner import TrainConfig
from netite.simgen import SimConfig

from tracing import swapped


@dataclass
class Checks:
    """Correctness checks, counted per operation checked."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)  # the first failures, for the report

    def check(self, ok, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- paper scale: simulate -> dataset files -> train -> checkpoint -> eval

@dataclass
class PaperInputs:
    ds: simgen.NetworkedDataset
    split: runner.Split
    ahat: object
    seed: int


class PaperWorkload:
    """Set-up simulates a dataset, writes it, reads it back, normalizes
    the adjacency and draws the split. The job trains for a fixed number
    of epochs, then takes the `netite eval` path: save the checkpoint,
    load it, evaluate the loaded parameters."""

    setups = 3

    def __init__(self, name, why, sim: SimConfig, train: TrainConfig, workdir: Path):
        self.name, self.why = name, why
        self.sim, self.train_cfg = sim, train
        self.workdir = workdir
        self.reference = "sinkhorn" if train.alpha > 0 else "gcn"

    def _fresh_dir(self):
        return Path(tempfile.mkdtemp(dir=self.workdir))

    def setup(self, seed, checks: Checks):
        d = self._fresh_dir()
        try:
            sim_cfg = replace(self.sim, seed=seed)
            written = simgen.simulate(sim_cfg)
            io.write_dataset(d, written, sim_cfg)
            ds = io.read_dataset(d)
            ahat = graph.normalize_adjacency(ds.net)
            split = runner.make_split(ds.n, ds.t, seed)
        finally:
            shutil.rmtree(d)
        checks.check(
            all(_same_bits(getattr(written, f), getattr(ds, f))
                for f in ("x", "t", "yf", "ycf", "mu0", "mu1", "prob_t"))
            and _same_bits(written.net.edges, ds.net.edges),
            "dataset write->read round trip is not bit-exact",
        )
        return PaperInputs(ds, split, ahat, seed)

    def warmup(self, inputs):
        runner.train(inputs.ds, inputs.split, replace(self.train_cfg, seed=inputs.seed, epochs=1))

    def job(self, inputs, stage):
        cfg = replace(self.train_cfg, seed=inputs.seed)
        guard = nullcontext()
        calls = [0]
        if cfg.alpha == 0 and not cfg.track_ipm:
            def counting(orig):
                def w1(*args, **kwargs):
                    calls[0] += 1
                    return orig(*args, **kwargs)
                return w1
            guard = swapped({"balance.wasserstein1": counting})
        with guard, stage("train"):
            params, report = runner.train(inputs.ds, inputs.split, cfg)
        d = self._fresh_dir()
        try:
            with stage("eval"):
                path = d / "model.ckpt"
                io.save_checkpoint(path, params, cfg.seed)
                loaded, loaded_seed = io.load_checkpoint(path)
                splits = runner.evaluate(loaded, inputs.ds, inputs.split, inputs.ahat)
        finally:
            shutil.rmtree(d)
        return cfg, params, report, loaded, loaded_seed, splits, calls[0]

    def check(self, inputs, out, checks: Checks):
        cfg, params, report, loaded, loaded_seed, splits, w1_calls = out
        for epoch, (loss, mse, ipm, l2) in enumerate(
                zip(report.loss_traj, report.mse_traj, report.ipm_traj, report.l2_traj)):
            ok = math.isfinite(loss) and abs(loss - (mse + cfg.alpha * ipm + cfg.lam * l2)) < 1e-9
            checks.check(ok, f"epoch {epoch}: loss is not finite or != mse + alpha*ipm + lam*l2")
        checks.check(len(report.loss_traj) == cfg.epochs, "wrong number of epoch records")
        checks.check(_same_bits(params.flatten(), loaded.flatten()) and loaded_seed == cfg.seed,
                     "checkpoint save->load round trip is not bit-exact")
        checks.check(splits == report.splits, "eval of the loaded checkpoint != in-memory report")
        checks.check(math.isfinite(report.splits["test"].pehe_sqrt), "test PEHE is not finite")
        if cfg.alpha == 0 and not cfg.track_ipm:
            checks.check(w1_calls == 0, f"wasserstein1 called {w1_calls} times with the penalty off")
        return {"quality.test_pehe_sqrt": report.splits["test"].pehe_sqrt}


# --- the acceptance suite's verification loads

class TinyVerifyWorkload:
    """The criterion-1 load, `gradcheck.fd_max_rel_err` on seeds 0..19,
    then the criterion-2 load, 50 seeded `wasserstein1` runs (tol 1e-12,
    cap 5000) against `exact_w1_oracle`. The set-up draws the gradcheck
    instances (`fd_max_rel_err` redraws each from its seed) and the
    oracle cases with their exact distances. These are the suite's fixed
    loads, so the benchmark seed only sets their order."""

    setups = 9
    gradcheck_tol = 1e-4
    oracle_tol = 0.05
    reference = "tiny"

    def __init__(self, name, why, gradcheck_seeds, oracle_cases, max_iters):
        self.name, self.why = name, why
        self.gradcheck_seeds, self.oracle_cases = list(gradcheck_seeds), oracle_cases
        self.cfg = SinkhornConfig(entropic_reg=0.01, max_iters=max_iters, convergence_tol=1e-12)

    def setup(self, seed, checks: Checks):
        order = make_rng(seed)
        seeds = [self.gradcheck_seeds[i] for i in order.permutation(len(self.gradcheck_seeds))]
        instances = [gradcheck.random_tiny_instance(s) for s in seeds]
        rng = make_rng(2024)  # the criterion-2 stream
        cases = []
        for _ in range(self.oracle_cases):
            k = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            cases.append((rng.normal(size=(k, d)), rng.normal(size=(k, d))))
        cases = [(*cases[i], balance.exact_w1_oracle(*cases[i]))
                 for i in order.permutation(len(cases))]
        checks.check(len(instances) == len(seeds) and all(math.isfinite(c[2]) for c in cases),
                     "could not draw the gradcheck instances or the oracle distances")
        return seeds, cases

    def warmup(self, inputs):
        seeds, cases = inputs
        gradcheck.fd_max_rel_err(seeds[0])
        balance.wasserstein1(cases[0][0], cases[0][1], self.cfg)

    def job(self, inputs, stage):
        seeds, cases = inputs
        with stage("gradcheck"):
            errs = [gradcheck.fd_max_rel_err(s) for s in seeds]
        with stage("oracle"):
            dists = [balance.wasserstein1(t, c, self.cfg).dist for t, c, _ in cases]
        return errs, dists

    def check(self, inputs, out, checks: Checks):
        (seeds, cases), (errs, dists) = inputs, out
        for s, err in zip(seeds, errs):
            checks.check(err < self.gradcheck_tol, f"gradcheck seed {s}: max rel err {err:.3e}")
        gaps = [abs(dist - ref) / max(ref, 1e-12) for dist, (_, _, ref) in zip(dists, cases)]
        for i, gap in enumerate(gaps):
            checks.check(gap < self.oracle_tol, f"oracle case {i}: relative gap {gap:.4f}")
        return {"quality.gradcheck_max_rel_err": max(errs), "quality.oracle_max_rel_gap": max(gaps)}


# paper-balanced caps Sinkhorn below the ~145-230 iterations it needs
# after the first epoch, so every seed does the same work per epoch; the
# convergence check still runs on every iteration, as by default.
PAPER_SINKHORN = SinkhornConfig(max_iters=120)
TOY_SIM = SimConfig(n=120, k=5, vocab=40, words_per_doc=20)
TOY_MODEL = dict(gcn_layers=2, out_layers=2, rep_dim=8, hidden_units=8)

WHY = {
    "paper-balanced": "paper scale with the W1 penalty: Sinkhorn on ~900x900 groups is most of each "
                      "epoch, so a balance change shows here",
    "paper-unbalanced": "paper scale, alpha=0 and no W1: encoder, heads, backward and ADAM are the "
                        "whole epoch; a balance change should show no change",
    "tiny-verify": "the criterion-1 and -2 loads: thousands of W1 calls on 2-13 points, so per-call "
                   "overhead and convergence checks dominate; a big-matrix-only speed-up can regress it",
}


def make(name: str, workdir: Path, toy: bool = False):
    """The named workload at bench or toy size."""
    why = WHY[name]
    if name in ("paper-balanced", "paper-unbalanced"):
        balanced = name == "paper-balanced"
        sim = TOY_SIM if toy else SimConfig()
        train = TrainConfig(
            alpha=1e-4 if balanced else 0.0,
            track_ipm=balanced,
            epochs=(3 if balanced else 10) if not toy else 3,
            sinkhorn=SinkhornConfig(max_iters=30) if toy else PAPER_SINKHORN,
            **(TOY_MODEL if toy else {}),
        )
        return PaperWorkload(name, why, sim, train, workdir)
    if name == "tiny-verify":
        return TinyVerifyWorkload(name, why, range(2 if toy else 20), 4 if toy else 50,
                                  500 if toy else 5000)
    raise KeyError(name)


NAMES = list(WHY)
