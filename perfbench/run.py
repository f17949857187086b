"""Benchmark entry point.

    python3 perfbench/run.py --workload paper-balanced --seed 0 --seconds 15 --trace 0

Run from the repository root; netite is imported from ./src. The last
line of stdout is the result object (correct, attempted, failed,
metrics): the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. The line before it records the environment and the
median time of each stage. The full result, and in a traced run every
span, is written under .bench_out/.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "netite" / "__init__.py").is_file():
        print(f"perfbench: no netite sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=out_dir, prefix="work-"))
    try:
        workload = workloads.make(args.workload, workdir)
        result = harness.run(workload, args.seed, args.seconds, bool(args.trace), out_dir, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"workload": args.workload, "env": result["env"], "stages": result["stages"],
                      "notes": result["notes"]}))
    print(harness.result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
