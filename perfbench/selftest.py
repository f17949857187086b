"""Self-test of the benchmark at toy size; takes about 15 s.

    python3 perfbench/selftest.py

Runs every workload untraced and traced and asserts that each metric
named in BENCHMARK.json is emitted with its unit and that no check
fails. Then injects faults into netite functions and asserts that each
is counted as a failed operation. Exits 1 on the first failed check.
"""

import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from tracing import swapped  # noqa: E402


class SelftestError(Exception):
    pass


def expect(ok, *what):
    if not ok:
        raise SelftestError(what)


def toy_run(name, trace, workdir, seed=3):
    return harness.run(workloads.make(name, workdir, toy=True), seed, 0.0, trace, workdir, ROOT)


def check_metrics(spec, name, workdir):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = toy_run(name, trace, workdir)
        expect(result["correct"] and result["failed"] == 0, name, trace, result["notes"])
        expect(result["attempted"] >= 1, name, trace)
        emitted = result["metrics"]
        expect(set(emitted) == {m["name"] for m in spec[key]}, name, key, sorted(emitted))
        for m in spec[key]:
            got = emitted[m["name"]]
            expect(got["unit"] == m["unit"], name, m["name"], got["unit"])
            expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
                   name, m["name"], got)
            if key == "end_to_end":
                expect(got["value"] > 0, name, m["name"], got)
        if trace:
            calls = emitted["balance.wasserstein1.calls"]["value"]
            expect((calls == 0) == (name == "paper-unbalanced"), name, calls)
            expect((workdir / f"{name}-seed3-spans.jsonl").stat().st_size > 0)
        print(f"ok  {name:17s} trace={int(trace)}  {len(emitted)} metrics, "
              f"{result['attempted']} checks")


def _perturb_w1_grad(orig):
    def w1(*args, **kwargs):
        r = orig(*args, **kwargs)
        return r._replace(grad_treated=r.grad_treated * 1.01)
    return w1


def _perturb_checkpoint(orig):
    def load(*args, **kwargs):
        params, seed = orig(*args, **kwargs)
        params.gcn_biases[0][0] += 1e-12
        return params, seed
    return load


def _perturb_dataset(orig):
    def read(*args, **kwargs):
        ds = orig(*args, **kwargs)
        ds.yf[0] = math.nextafter(ds.yf[0], math.inf)
        return ds
    return read


def _force_w1(orig):
    def train(dataset, split, cfg, *args, **kwargs):
        return orig(dataset, split, replace(cfg, track_ipm=True), *args, **kwargs)
    return train


def _perturb_w1_dist(orig):
    def w1(*args, **kwargs):
        r = orig(*args, **kwargs)
        return r._replace(dist=r.dist * 1.1)
    return w1


FAULTS = [
    ("tiny-verify", "perturbed W1 gradient", {"balance.wasserstein1": _perturb_w1_grad}),
    ("tiny-verify", "perturbed W1 distance", {"balance.wasserstein1": _perturb_w1_dist}),
    ("paper-balanced", "checkpoint load off by 1e-12", {"io.load_checkpoint": _perturb_checkpoint}),
    ("paper-balanced", "dataset read off by one ulp", {"io.read_dataset": _perturb_dataset}),
    ("paper-unbalanced", "W1 called with the penalty off", {"runner.train": _force_w1}),
]


def check_faults(workdir):
    for name, what, replacements in FAULTS:
        for trace in (False, True):
            with swapped(replacements):
                result = toy_run(name, trace, workdir)
            expect(not result["correct"] and result["failed"] >= 1, name, what, trace)
            expect(result["failed"] <= result["attempted"], name, what, trace)
        print(f"ok  fault counted: {name}: {what} ({result['failed']}/{result['attempted']} failed)")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.NAMES))
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_out"))
    try:
        for name in workloads.NAMES:
            check_metrics(spec, name, workdir)
        check_faults(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    try:
        sys.exit(main())
    except SelftestError as exc:
        print(f"selftest FAILED: {exc!r}", file=sys.stderr)
        sys.exit(1)
