#!/usr/bin/env python3
"""Benchmark entry point; run it from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints a human-readable report and, as the last line of standard output,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric, or with ``--trace 1`` every per-layer metric).
Exits 0 only when every correctness check passed.  Traced runs also write
their spans as Chrome trace events under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.measure import BLAS_VARS, reap_children  # noqa: E402  (imports no NumPy)

# Pin BLAS to one thread per kernel before NumPy loads: per-stage compute
# must be single-threaded so the benchmark measures pipeline overlap.
for _var in BLAS_VARS:
    os.environ[_var] = "1"

WORK_DIR = os.path.join(os.getcwd(), ".perfbench")


def _use_local_tmp() -> None:
    """Keep the socket backend's Unix-domain sockets inside the checkout.
    A socket path may be at most 107 bytes, so a deep checkout falls back
    to the path relative to the working directory (the workers inherit it)."""
    tmp = os.path.join(WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    tempfile.tempdir = tmp if len(tmp) <= 64 else os.path.relpath(tmp)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (no meaningful figures)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: the program's sources (src/repro) are missing under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    _use_local_tmp()

    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace),
                            tiny=args.tiny, trace_dir=WORK_DIR)
        for line in lines:
            print(line)
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    finally:
        # On every way out: no worker, resource tracker or other child of
        # this process outlives the run.
        reap_children()


if __name__ == "__main__":
    sys.exit(main())
