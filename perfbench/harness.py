"""Runs one workload: set-ups, a warm-up, then timed repetitions of the
job for a fixed wall-clock window, checking every output.

Untraced (`trace=False`) runs report the end-to-end metrics; each job
repetition sits between two timings of the workload's reference loop
(see reference.py) and `job_s` is scaled by them. Traced runs
wrap netite's public functions in spans and report the per-layer
metrics; each of their repetitions is a traced set-up and job followed
by the same job untraced, and the median difference between the two
jobs is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import scipy

from reference import REFERENCE_S, Reference
from tracing import Tracer
from workloads import Checks

END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}


def _total(span):
    return lambda agg, counts: agg[span]["total"] if span in agg else 0.0


def _self(span):
    return lambda agg, counts: agg[span]["self"] if span in agg else 0.0


def _calls(span):
    return lambda agg, counts: agg[span]["calls"] if span in agg else 0


def _count(key):
    return lambda agg, counts: counts.get(key, 0)


def _converged_frac(agg, counts):
    calls = _calls("balance.wasserstein1")(agg, counts)
    return counts.get("sinkhorn.converged", 0) / calls if calls else 0.0


# name -> (unit, value from one repetition's span summary and counters).
# ".s" is a span's total time, ".self_s" its time minus traced children.
# "count" metrics marked "computed" come from call shapes and results.
PER_LAYER = {
    "balance.wasserstein1.s": ("s", _total("balance.wasserstein1")),
    "balance.wasserstein1.calls": ("count", _calls("balance.wasserstein1")),
    "balance.sinkhorn.iters": ("count", _count("sinkhorn.iters")),
    "balance.sinkhorn.converged_frac": ("ratio", _converged_frac),
    "balance.cost.cells": ("count", _count("cost.cells")),
    "balance.exact_w1_oracle.s": ("s", _total("balance.exact_w1_oracle")),
    "model.encode.s": ("s", _total("model.encode")),
    "model.forward.self_s": ("s", _self("model.forward")),
    "model.forward.calls": ("count", _calls("model.forward")),
    "model.backward.s": ("s", _total("model.backward")),
    "model.predict.s": ("s", _total("model.predict")),
    "model.spmm.nnz_width": ("count", _count("spmm.nnz_width")),
    "optim.adam_step.s": ("s", _total("optim.adam_step")),
    "optim.adam_step.calls": ("count", _calls("optim.adam_step")),
    "runner.train.self_s": ("s", _self("runner.train")),
    "runner.evaluate.s": ("s", _total("runner.evaluate")),
    "simgen.simulate.s": ("s", _total("simgen.simulate")),
    "graph.normalize_adjacency.s": ("s", _total("graph.normalize_adjacency")),
    "graph.normalize_adjacency.calls": ("count", _calls("graph.normalize_adjacency")),
    "io.write_dataset.s": ("s", _total("io.write_dataset")),
    "io.read_dataset.s": ("s", _total("io.read_dataset")),
    "io.dataset.bytes": ("bytes", _count("dataset.bytes")),
    "io.save_checkpoint.s": ("s", _total("io.save_checkpoint")),
    "io.load_checkpoint.s": ("s", _total("io.load_checkpoint")),
    "gradcheck.fd_max_rel_err.self_s": ("s", _self("gradcheck.fd_max_rel_err")),
    "gradcheck.objective.calls": ("count", _calls("runner.objective")),
    "stage.setup.s": ("s", _total("stage.setup")),
    "stage.train.s": ("s", _total("stage.train")),
    "stage.eval.s": ("s", _total("stage.eval")),
    "stage.gradcheck.s": ("s", _total("stage.gradcheck")),
    "stage.oracle.s": ("s", _total("stage.oracle")),
}
COMPUTED = ["balance.sinkhorn.iters", "balance.cost.cells", "model.spmm.nnz_width"]
# the workloads' own results (0 where a workload has none), and the
# median traced minus untraced job time
QUALITY = {
    "quality.test_pehe_sqrt": "outcome",
    "quality.gradcheck_max_rel_err": "ratio",
    "quality.oracle_max_rel_gap": "ratio",
}
OVERHEAD = "trace.overhead_s"


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
        "machine": platform.machine(),
    }


def _git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; "unknown" in a
    checkout that is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class StageClock:
    """Times the named stages of one job; in a traced run each stage is
    also a span."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.seconds = {}

    @contextmanager
    def __call__(self, name):
        span = self.tracer.span(f"stage.{name}") if self.tracer else nullcontext()
        start = time.perf_counter()
        with span:
            yield
        self.seconds[f"{name}_s"] = self.seconds.get(f"{name}_s", 0.0) + time.perf_counter() - start


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def run(workload, seed: int, seconds: float, trace: bool, out_dir: Path, root: Path) -> dict:
    """Run `workload` and return its result: the keys of the result line
    (see `result_line`) plus "env", "stages" and "notes"."""
    checks = Checks()
    if trace:
        metrics, stages, tracer = _run_traced(workload, seed, seconds, checks)
        tracer.write_jsonl(out_dir / f"{workload.name}-seed{seed}-spans.jsonl")
    else:
        metrics, stages = _run_untraced(workload, seed, seconds, checks)
    units = END_TO_END if not trace else {
        **{k: u for k, (u, _) in PER_LAYER.items()}, **QUALITY, OVERHEAD: "s"}
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "env": environment(root),
        "stages": stages,
        "computed": COMPUTED if trace else [],
        "notes": checks.notes,
    }


def _median_stages(clocks):
    keys = sorted({k for c in clocks for k in c.seconds})
    return {k: statistics.median(c.seconds.get(k, 0.0) for c in clocks) for k in keys}


def _run_untraced(workload, seed, seconds, checks):
    setup_times = []
    for _ in range(workload.setups):
        inputs, dt = _timed(workload.setup, seed, checks)
        setup_times.append(dt)
    workload.warmup(inputs)
    ref = Reference(workload.reference)
    ref_times = [ref.time()]
    job_times, clocks, quality = [], [], {}
    start = time.perf_counter()
    while not job_times or time.perf_counter() - start < seconds:
        clock = StageClock()
        out, dt = _timed(workload.job, inputs, clock)
        job_times.append(dt)
        ref_times.append(ref.time())
        clocks.append(clock)
        quality = workload.check(inputs, out, checks)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each repetition against the mean of the reference loops on either side
    scaled = [dt * 2 * REFERENCE_S / (ref_times[i] + ref_times[i + 1])
              for i, dt in enumerate(job_times)]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "job_s": statistics.median(scaled),
        "peak_rss_mb": peak_mb,
    }
    stages = {**_median_stages(clocks), "reps": len(job_times),
              "job_raw_s": statistics.median(job_times), "job_reps_s": job_times,
              "reference_s": ref_times, "setup_reps_s": setup_times, **quality}
    return metrics, stages


def _run_traced(workload, seed, seconds, checks):
    tracer = Tracer()
    traced_s, plain_s, qualities, clocks = [], [], [], []
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        tracer.run = f"rep{len(traced_s)}"
        with tracer.installed(), tracer.span("stage.setup"):
            inputs = workload.setup(seed, checks)
        if not traced_s:
            workload.warmup(inputs)
        clock = StageClock(tracer)
        with tracer.installed():
            out, dt = _timed(workload.job, inputs, clock)
        traced_s.append(dt)
        clocks.append(clock)
        qualities.append(workload.check(inputs, out, checks))
        # the same job on the same inputs, untraced
        out, dt = _timed(workload.job, inputs, StageClock())
        plain_s.append(dt)
        workload.check(inputs, out, checks)
    summary = tracer.summary()
    reps = [f"rep{i}" for i in range(len(traced_s))]
    metrics = {
        name: statistics.median(fn(summary.get(r, {}), tracer.counts.get(r, {})) for r in reps)
        for name, (unit, fn) in PER_LAYER.items()
    }
    for name in QUALITY:
        metrics[name] = statistics.median(q.get(name, 0.0) for q in qualities)
    metrics[OVERHEAD] = statistics.median(traced_s) - statistics.median(plain_s)
    stages = {**_median_stages(clocks), "reps": len(traced_s),
              "job_s_traced": statistics.median(traced_s),
              "job_s_untraced": statistics.median(plain_s)}
    return metrics, stages, tracer


def result_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})
