"""Timing spans around netite's public functions, recorded from outside
the package.

`swapped` replaces a netite function under every name a netite module
binds it to (for example `balance.wasserstein1` is also bound as
`runner.wasserstein1`), so calls made inside the package are seen too.
`Tracer` uses it to wrap the functions in `TRACED` with spans; fault
injection in the self-test uses it to perturb one function.

A span is (name, start, end, parent, run): times in seconds from the
tracer's start, `parent` the index of the enclosing span or -1, and
`run` the repetition it belongs to. Spans stay in memory until
`write_jsonl`. Counters computed from call shapes and results are kept
per run beside the spans.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# module -> public functions wrapped in spans, named "<module>.<function>"
TRACED = {
    "simgen": ["simulate"],
    "graph": ["normalize_adjacency"],
    "io": ["write_dataset", "read_dataset", "save_checkpoint", "load_checkpoint"],
    "model": ["init_params", "encode", "forward", "backward", "predict"],
    "balance": ["wasserstein1", "exact_w1_oracle"],
    "optim": ["adam_step"],
    "runner": ["make_split", "objective", "evaluate", "train"],
    "gradcheck": ["random_tiny_instance", "fd_max_rel_err"],
}


def _netite_modules():
    return [m for n, m in sys.modules.items() if n == "netite" or n.startswith("netite.")]


@contextmanager
def swapped(replacements: dict):
    """Within the block, every netite binding of each named function
    ("<module>.<function>") points at make(original) instead."""
    saved = []
    try:
        for qualname, make in replacements.items():
            mod_name, fn_name = qualname.split(".")
            orig = getattr(importlib.import_module(f"netite.{mod_name}"), fn_name)
            new = make(orig)
            for mod in _netite_modules():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        saved.append((mod, attr, val))
                        setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, val in reversed(saved):
            setattr(mod, attr, val)


# Counters computed from a call's arguments and result; every one is an
# exact count, not a measurement.

def _w1_counts(args, kwargs, result):
    treated, control = args[0], args[1]
    return {
        "sinkhorn.iters": result.iterations,
        "sinkhorn.converged": int(result.converged),
        "cost.cells": len(treated) * len(control),
    }


def _encode_counts(args, kwargs, result):
    # one A_hat @ H product per layer; H's width is the layer's input dim
    params, ahat = args[0], args[1]
    return {"spmm.nnz_width": sum(ahat.nnz * w.shape[0] for w in params.gcn_weights)}


def _backward_counts(args, kwargs, result):
    # one A_hat @ (gz W_l^T) product per layer, width = W_l's input dim
    params, trace = args[0], args[1]
    return {"spmm.nnz_width": sum(trace.ahat.nnz * w.shape[0] for w in params.gcn_weights)}


def _dataset_bytes(args, kwargs, result):
    dirpath = args[0]
    return {"dataset.bytes": sum(e.stat().st_size for e in os.scandir(dirpath) if e.is_file())}


COUNTERS = {
    "balance.wasserstein1": _w1_counts,
    "model.encode": _encode_counts,
    "model.backward": _backward_counts,
    "io.write_dataset": _dataset_bytes,
}


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []  # [name, start, end, parent, run]
        self.counts = defaultdict(lambda: defaultdict(int))  # run -> counter -> value
        self.run = ""
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run])
        self._stack.append(idx)
        return idx

    def _close(self, idx, start, end):
        self._stack.pop()
        span = self.spans[idx]
        span[1] = start - self.t0
        span[2] = end - self.t0

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter())

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            idx = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, time.perf_counter())
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    self.counts[self.run][key] += val
            return result

        traced.__wrapped__ = fn
        return traced

    def installed(self):
        """Context manager that wraps every function in TRACED."""
        return swapped({
            f"{mod}.{fn}": (lambda orig, name=f"{mod}.{fn}": self._wrap(name, orig, COUNTERS.get(name)))
            for mod, fns in TRACED.items() for fn in fns
        })

    def summary(self):
        """run -> span name -> {"total", "self", "calls"}; a span's self
        time is its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0}))
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            rec = out[run][name]
            rec["total"] += end - start
            rec["self"] += end - start - child[i]
            rec["calls"] += 1
        return out

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, run in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run}) + "\n")
