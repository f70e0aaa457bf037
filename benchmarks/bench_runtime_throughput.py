#!/usr/bin/env python
"""Throughput benchmark: thread and process pipeline runtimes vs. the
sequential simulator, with the overlapped optimizer boundary on and off.

Runs two training workloads on all three pipeline backends — a 4-stage MLP
(N=8 microbatches, stage compute dominated by BLAS matmuls, no sleeps
anywhere) and the two-stream translation Transformer (encoder/decoder
sliced through its stage graph) — and reports:

* wall-clock microbatches/sec for each backend and the concurrent/simulator
  ratios — these should exceed 2× on a host with >= num_stages cores, where
  the workers' kernels genuinely overlap (threads overlap only where NumPy
  releases the GIL; processes sidestep the GIL entirely);
* the measured bubble fraction of each concurrent execution (worker idle
  time from the runtime's own busy/wall accounting);
* the process backend's transport overhead — the share of worker active
  time (compute + copies) spent moving activations/gradients through the
  shared-memory rings, from the runtime's transfer accounting;
* the measured **boundary stall** — the share of worker-time lost to the
  minibatch boundary (non-overlapped driver fold/step/publish plus
  version-gate waits).  Barrier mode pays this every step; the overlapped
  boundary (``overlap=on``, the runtime default) should drive it to ~0 and
  never lose throughput;
* the schedule-limited speedup — total compute slots / critical-path slots
  of the interleaved 1F1B schedule actually executed, i.e. the wall-clock
  ratio an unconstrained-core host converges to;
* the **wave fusion** comparison: every concurrent MLP row runs twice,
  with the compiled fused command blocks (``workload="mlp"``, the runtime
  default) and with per-wave commands (``workload="mlp-nofuse"``, the
  differential reference), reporting ``commands_per_step`` for both — the
  scheduler hand-off count fusion exists to collapse — so the committed
  trajectory records both the hand-off reduction and its throughput
  effect (``check_perf_regression.py`` gates fused-vs-unfused);
* a loss-equivalence check (every row must match the simulator bit for
  bit, overlap on or off);
* the **partition balance** section: even vs auto (cost-balanced)
  partitioning on a deliberately skewed MLP, reporting predicted and
  measured max/mean stage-time imbalance per mode — ``auto`` must not be
  worse than ``even``, and both rows land in the JSON trajectory;
* the **hybrid data × pipeline** section: the thread runtime at
  ``num_replicas`` R = 1 (the single-pipeline baseline) and R = 2,
  per-replica shard size held constant (weak scaling), reporting aggregate
  samples/sec vs R — every row bit-for-bit checked against the sequential
  simulator at the same replica count.

On a single-core host (CI smoke) the wall-clock ratios degrade to ~1× by
physics — there is no second core to overlap on — so the report prints the
detected core count next to the numbers.

``--json PATH`` additionally emits every row as machine-readable records
(the repo keeps a committed snapshot in ``benchmarks/BENCH_runtime.json``;
CI uploads a ``--quick`` run as a non-gating artifact to track the
trajectory).

Usage:  PYTHONPATH=src python benchmarks/bench_runtime_throughput.py
            [--quick] [--json PATH] [--overlap {on,off,both}]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# Pin BLAS to one thread per kernel *before* numpy loads: per-stage compute
# must be single-threaded so the comparison measures pipeline overlap, not
# BLAS-internal parallelism.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from repro.models import MLP  # noqa: E402
from repro.nn import CrossEntropyLoss  # noqa: E402
from repro.optim import SGD  # noqa: E402
from repro.pipeline import (  # noqa: E402
    AsyncPipelineRuntime,
    Method,
    Partitioner,
    PipelineExecutor,
    partition_model,
    stage_programs,
)
from repro.pipeline.executor import param_groups_from_stages  # noqa: E402


def build_backend(cls, *, dims, num_stages, num_microbatches, method, seed, **kw):
    model = MLP(dims, np.random.default_rng(seed))
    stages = partition_model(model, num_stages)
    opt = SGD(param_groups_from_stages(stages), lr=0.01, momentum=0.9)
    backend = cls(
        model, CrossEntropyLoss(), opt, stages, num_microbatches, method, **kw
    )
    return model, backend


_ROW_DEFAULTS = dict(
    partition=None, speedup_vs_simulator=None, bubble_fraction=None,
    transport_fraction=None, boundary_stall_fraction=None,
    imbalance_predicted=None, imbalance_measured=None,
    replicas=1, samples_per_sec=None, commands_per_step=None,
)


def make_row(**fields) -> dict:
    """Every JSON row carries the full unified key set (missing metrics are
    explicit nulls, ``workers`` is always an integer) so consumers — and
    ``bench_schema.json`` — see exactly one row shape."""
    row = dict(_ROW_DEFAULTS)
    row.update(fields)
    return row


def _schema_errors(value, schema, path, errors):
    """Minimal JSON-Schema interpreter (type / enum / minimum / maximum /
    required / properties / items) — enough for bench_schema.json without
    pulling in a validator dependency."""
    types = schema.get("type")
    if types is not None:
        if isinstance(types, str):
            types = [types]
        checks = {
            "null": lambda v: v is None,
            "boolean": lambda v: isinstance(v, bool),
            "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
            "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
            "string": lambda v: isinstance(v, str),
            "object": lambda v: isinstance(v, dict),
            "array": lambda v: isinstance(v, list),
        }
        if not any(checks[t](value) for t in types):
            errors.append(f"{path}: {value!r} is not of type {'/'.join(types)}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value!r} below minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path}: {value!r} above maximum {schema['maximum']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _schema_errors(value[key], sub, f"{path}.{key}", errors)
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _schema_errors(item, schema["items"], f"{path}[{i}]", errors)


def validate_payload(payload: dict) -> list[str]:
    """Validate the --json payload against the checked-in schema; returns
    human-readable mismatches (empty list = valid)."""
    schema_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "bench_schema.json"
    )
    with open(schema_path) as fh:
        schema = json.load(fh)
    errors: list[str] = []
    _schema_errors(payload, schema, "$", errors)
    return errors


def schedule_speedup(method: str, num_stages: int, num_microbatches: int) -> float:
    """Total compute slots / critical-path slots of the executed schedule."""
    programs = stage_programs(method, num_stages, num_microbatches)
    busy = sum(len(ops) for ops in programs)
    # Critical path: replay the dataflow, assigning each op the earliest
    # slot after its stage-predecessor and its dataflow dependency.
    finish: dict[tuple[str, int, int], int] = {}
    for _ in range(num_stages):  # relax until fixed point (<= P sweeps)
        for s, ops in enumerate(programs):
            prev_end = 0
            for op, j in ops:
                dep = ("F", s - 1, j) if (op == "F" and s > 0) else (
                    ("B", s + 1, j) if (op == "B" and s < num_stages - 1) else None
                )
                start = max(prev_end, finish.get(dep, 0) if dep else 0)
                finish[(op, s, j)] = start + 1
                prev_end = start + 1
    span = max(finish.values())
    return busy / num_stages / span * num_stages


def measure(backend, x, y, steps: int, warmup: int) -> tuple[float, list[float]]:
    """Timed steps; the final sync() (a no-op in barrier mode) charges the
    overlapped runtime for its last pending boundary, so modes compare
    fairly."""
    losses = []
    for _ in range(warmup):
        backend.train_step(x, y)
    if hasattr(backend, "sync"):
        backend.sync()
    t0 = time.perf_counter()
    for _ in range(steps):
        losses.append(backend.train_step(x, y))
    if hasattr(backend, "sync"):
        backend.sync()
    return time.perf_counter() - t0, losses


def concurrent_variants(overlap: str):
    """(backend, overlap-flag) grid for the requested --overlap mode."""
    flags = {"on": [True], "off": [False], "both": [False, True]}[overlap]
    return [(b, f) for b in ("thread", "process") for f in flags]


def row_label(backend: str, overlap_flag: bool | None) -> str:
    if overlap_flag is None:
        return backend
    return f"{backend}/{'overlap' if overlap_flag else 'barrier'}"


def print_row(label, tput, wall, extra=""):
    print(f"  {label:<16s}: {tput:9.1f} microbatches/sec  ({wall:.3f}s){extra}")


def measure_translation(quick: bool, method: str, overlap: str, rows: list) -> bool:
    """Translation rows: the two-stream Transformer on all three backends.
    Returns the bitwise loss-equivalence verdict."""
    from repro.experiments.workloads import make_translation_workload

    batch = 16 if quick else 64
    n = 4 if quick else 8
    steps = 2 if quick else 8
    warmup = 1
    workload = make_translation_workload(
        "iwslt", batch_size=batch, num_microbatches=n, batches_per_epoch=2,
        eval_size=4,
    )
    rng = np.random.default_rng(0)
    saved = workload.task.rng
    workload.task.rng = rng
    batches = [workload.task.sample_batch(batch) for _ in range(steps + warmup)]
    workload.task.rng = saved

    print(f"\ntranslation throughput: two-stream Transformer "
          f"stages={workload.default_stages} N={n} batch={batch} steps={steps}")
    variants = [("simulator", None)] + concurrent_variants(overlap)
    results = {}
    for runtime, overlap_flag in variants:
        # The workload factory names the thread backend "async".
        bundle = workload.bundle(
            method=method, seed=0, overlap_boundary=overlap_flag,
            runtime={"thread": "async"}.get(runtime, runtime),
        )
        ex = bundle.executor
        try:
            losses = []
            for bt in batches[:warmup]:
                ex.train_step((bt.src, bt.tgt_in), bt.tgt_out)
            if hasattr(ex, "sync"):
                ex.sync()
            t0 = time.perf_counter()
            for bt in batches[warmup:]:
                losses.append(ex.train_step((bt.src, bt.tgt_in), bt.tgt_out))
            if hasattr(ex, "sync"):
                ex.sync()
            wall = time.perf_counter() - t0
            stats = getattr(ex, "stats", None)
            results[row_label(runtime, overlap_flag)] = dict(
                backend=runtime, overlap=overlap_flag,
                wall=wall, losses=losses,
                # the simulator is a single sequential worker
                workers=getattr(ex, "num_workers", 1),
                bubble=stats.bubble_fraction() if stats else None,
                transport=stats.transport_fraction() if stats else None,
                boundary_stall=stats.boundary_stall_fraction() if stats else None,
            )
        finally:
            if hasattr(ex, "close"):
                ex.close()
    micro = steps * n
    sim_tput = micro / results["simulator"]["wall"]
    for label, r in results.items():
        tput = micro / r["wall"]
        extra = ""
        if r["backend"] != "simulator":
            extra = (f"  workers={r['workers']}  speedup={tput / sim_tput:.2f}x  "
                     f"bubble={r['bubble']:.3f}  transport={r['transport']:.1%}"
                     f"  boundary-stall={r['boundary_stall']:.3f}")
        print_row(label, tput, r["wall"], extra)
        rows.append(make_row(
            workload="translation", backend=r["backend"], overlap=r["overlap"],
            microbatches_per_sec=tput, speedup_vs_simulator=tput / sim_tput,
            bubble_fraction=r["bubble"], transport_fraction=r["transport"],
            boundary_stall_fraction=r["boundary_stall"], workers=r["workers"],
            equivalent=r["losses"] == results["simulator"]["losses"],
        ))
    equivalent = all(
        r["losses"] == results["simulator"]["losses"] for r in results.values()
    )
    print(f"  loss equivalence (bitwise)  : {'OK' if equivalent else 'MISMATCH'}"
          f"  (simulator == every concurrent row)")
    return equivalent


def measure_partition_balance(quick: bool, method: str, rows: list) -> bool:
    """Even vs auto (cost-balanced) partitioning on a deliberately skewed
    MLP: two wide layers among narrow ones, so the even-by-unit-count rule
    piles the expensive matmuls onto a minority of stages.

    Reports, per mode: the plan's *predicted* max/mean stage-cost imbalance,
    the *measured* max/mean per-worker busy-time imbalance from the thread
    runtime's own accounting, and throughput.  Returns the verdict that
    ``auto`` reduced the measured imbalance (recorded in the JSON rows the
    committed benchmarks/BENCH_runtime.json tracks).
    """
    wide = 256 if quick else 768
    narrow = 32 if quick else 64
    # Both wide matmuls lead, so the even-by-unit-count rule piles ~90% of
    # the flops onto stage 0 while the cost-balanced split separates them.
    dims = [narrow, wide, narrow, narrow, narrow, narrow, 10]
    p = 3
    n = 8
    batch = n * (8 if quick else 48)
    steps = 3 if quick else 10
    warmup = 1
    rng = np.random.default_rng(0)
    x = rng.normal(size=(batch, narrow))
    y = rng.integers(0, 10, size=batch)

    print(f"\npartition balance: skewed MLP dims={dims} P={p} N={n} steps={steps}")
    analytic = Partitioner("auto").plan(MLP(dims, np.random.default_rng(11)), p)
    results = {}
    for mode in ("even", "auto"):
        model = MLP(dims, np.random.default_rng(11))
        plan = Partitioner(mode).plan(model, p)
        # Score both bound sets under the same analytic costs — the even
        # plan records uniform costs by construction, which would make its
        # own imbalance() read a meaningless 1.0.
        predicted = plan.imbalance(analytic.unit_costs)
        stages = plan.stages(model)
        opt = SGD(param_groups_from_stages(stages), lr=0.01, momentum=0.9)
        sim_model = MLP(dims, np.random.default_rng(11))
        sim_stages = plan.stages(sim_model)
        sim = PipelineExecutor(
            sim_model, CrossEntropyLoss(),
            SGD(param_groups_from_stages(sim_stages), lr=0.01, momentum=0.9),
            sim_stages, n, method, partition_plan=plan,
        )
        rt = AsyncPipelineRuntime(
            model, CrossEntropyLoss(), opt, stages, n, method,
            partition_plan=plan,
        )
        try:
            _, sim_losses = measure(sim, x, y, steps, warmup)
            wall, losses = measure(rt, x, y, steps, warmup)
            busy = rt.stats.total_busy
            measured = max(busy) / (sum(busy) / len(busy)) if sum(busy) > 0 else 1.0
            results[mode] = dict(
                wall=wall,
                predicted=predicted,
                measured=measured,
                equivalent=losses == sim_losses,
            )
        finally:
            rt.close()
    micro = steps * n
    for mode, r in results.items():
        tput = micro / r["wall"]
        print(
            f"  {mode:<16s}: {tput:9.1f} microbatches/sec  "
            f"imbalance predicted={r['predicted']:.3f} "
            f"measured={r['measured']:.3f}  "
            f"equivalent={'OK' if r['equivalent'] else 'MISMATCH'}"
        )
        rows.append(make_row(
            workload="skewed-mlp", backend="thread", overlap=True,
            partition=mode,
            microbatches_per_sec=tput,
            imbalance_predicted=r["predicted"],
            imbalance_measured=r["measured"],
            workers=p,
            equivalent=r["equivalent"],
        ))
    improved = results["auto"]["measured"] <= results["even"]["measured"]
    print(
        f"  auto vs even (measured max/mean stage time): "
        f"{results['even']['measured']:.3f} -> {results['auto']['measured']:.3f}  "
        f"{'OK' if improved else 'WORSE'}"
    )
    equivalent = all(r["equivalent"] for r in results.values())
    if not equivalent:
        print("ERROR: partition-balance rows diverged from the simulator",
              file=sys.stderr)
    cores = os.cpu_count() or 1
    if not improved and (quick or cores < p):
        # Quick (CI smoke) sizes are overhead-dominated, and with fewer
        # cores than workers the stages time-slice one core, so per-worker
        # busy time stops reflecting the partition at all.  The rows still
        # land in the JSON trajectory; only a full-size run on a host that
        # can actually express the balance gates on the improvement.
        print(f"  (advisory only: quick={quick}, cores={cores} < workers={p} "
              "— not gating)")
        improved = True
    return improved and equivalent


def measure_hybrid(quick: bool, method: str, rows: list) -> bool:
    """Hybrid data × pipeline rows: aggregate samples/sec vs replica count.

    Each replica trains on its own 1/R shard of every minibatch, so the
    per-replica shard is held constant and the minibatch grows with R
    (weak scaling): aggregate samples/sec should approach R× the R=1
    baseline on a host with >= R·P cores, and stays ~1× on a single core
    by physics.  The R=1 row *is* the single-pipeline baseline; every row
    is checked bit-for-bit against the sequential simulator run at the
    same replica count (which models replica staleness exactly — the fold
    adds no weight delay).  Returns the equivalence verdict; throughput is
    trajectory data, never a gate.
    """
    p = 4
    n = 8
    width = 64 if quick else 256
    shard = n * (8 if quick else 48)  # per-replica minibatch
    steps = 2 if quick else 8
    warmup = 1
    dims = [width] * p + [10]
    replica_counts = (1, 2)

    print(f"\nhybrid data × pipeline: MLP P={p} N={n} width={width} "
          f"shard={shard}/replica steps={steps} "
          f"replicas={'/'.join(str(r) for r in replica_counts)}")
    results = {}
    for r in replica_counts:
        batch = shard * r
        rng = np.random.default_rng(0)
        x = rng.normal(size=(batch, width))
        y = rng.integers(0, 10, size=batch)
        _, sim = build_backend(
            PipelineExecutor, dims=dims, num_stages=p, num_microbatches=n,
            method=method, seed=42, num_replicas=r,
        )
        sim_wall, sim_losses = measure(sim, x, y, steps, warmup)
        _, rt = build_backend(
            AsyncPipelineRuntime, dims=dims, num_stages=p, num_microbatches=n,
            method=method, seed=42, num_replicas=r,
        )
        try:
            wall, losses = measure(rt, x, y, steps, warmup)
            results[r] = dict(
                wall=wall, sim_wall=sim_wall,
                samples=batch * steps,
                workers=rt.num_workers * r,
                bubble=rt.stats.bubble_fraction(),
                boundary_stall=rt.stats.boundary_stall_fraction(),
                equivalent=losses == sim_losses,
            )
        finally:
            rt.close()

    base = results[replica_counts[0]]
    base_sps = base["samples"] / base["wall"]
    for r, res in results.items():
        sps = res["samples"] / res["wall"]
        sim_sps = res["samples"] / res["sim_wall"]
        print(f"  R={r:<14d}: {sps:9.1f} samples/sec  ({res['wall']:.3f}s)"
              f"  workers={res['workers']}  aggregate={sps / base_sps:.2f}x"
              f"  vs-sim={sps / sim_sps:.2f}x"
              f"  equivalent={'OK' if res['equivalent'] else 'MISMATCH'}")
        rows.append(make_row(
            workload="mlp-hybrid", backend="thread", overlap=True,
            replicas=r, samples_per_sec=sps,
            microbatches_per_sec=steps * n * r / res["wall"],
            speedup_vs_simulator=sps / sim_sps,
            bubble_fraction=res["bubble"],
            boundary_stall_fraction=res["boundary_stall"],
            workers=res["workers"],
            equivalent=res["equivalent"],
        ))
    equivalent = all(res["equivalent"] for res in results.values())
    print(f"  loss equivalence (bitwise)  : {'OK' if equivalent else 'MISMATCH'}"
          f"  (simulator == thread group at every R)")
    return equivalent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke: tiny sizes")
    parser.add_argument("--stages", type=int, default=4)
    parser.add_argument("--microbatches", type=int, default=8)
    parser.add_argument("--width", type=int, default=None, help="hidden width")
    parser.add_argument("--batch", type=int, default=None, help="minibatch size")
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument(
        "--method", choices=["gpipe", "pipedream", "pipemare"], default="pipemare"
    )
    parser.add_argument(
        "--overlap", choices=["on", "off", "both"], default="both",
        help="which boundary modes to measure for the concurrent backends "
        "(default both: the barrier baseline and the overlapped boundary)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write every measured row as JSON (machine-readable perf "
        "trajectory; see benchmarks/BENCH_runtime.json)",
    )
    parser.add_argument(
        "--skip-translation", action="store_true",
        help="MLP rows only (skip the two-stream Transformer section)",
    )
    parser.add_argument(
        "--skip-balance", action="store_true",
        help="skip the even-vs-auto partition balance section",
    )
    parser.add_argument(
        "--skip-hybrid", action="store_true",
        help="skip the hybrid data × pipeline (replica scaling) section",
    )
    args = parser.parse_args(argv)

    p, n = args.stages, args.microbatches
    width = args.width or (64 if args.quick else 512)
    batch = args.batch or (n * (8 if args.quick else 48))
    steps = args.steps or (2 if args.quick else 10)
    warmup = 1 if args.quick else 2
    dims = [width] * p + [10]  # p Linear layers -> p single-layer stages

    rng = np.random.default_rng(0)
    x = rng.normal(size=(batch, width))
    y = rng.integers(0, 10, size=batch)

    print(f"runtime throughput: method={args.method} P={p} N={n} "
          f"width={width} batch={batch} steps={steps} "
          f"cores={os.cpu_count()} (BLAS pinned to 1 thread)")

    rows: list[dict] = []
    _, sim = build_backend(
        PipelineExecutor, dims=dims, num_stages=p, num_microbatches=n,
        method=args.method, seed=42,
    )
    sim_wall, sim_losses = measure(sim, x, y, steps, warmup)

    concurrent = {}
    for backend, overlap_flag in concurrent_variants(args.overlap):
        for fuse in (True, False):
            _, rt = build_backend(
                AsyncPipelineRuntime, dims=dims, num_stages=p, num_microbatches=n,
                method=args.method, seed=42, backend=backend,
                overlap_boundary=overlap_flag, fuse_waves=fuse,
            )
            label = row_label(backend, overlap_flag) + ("" if fuse else "/nofuse")
            try:
                wall, losses = measure(rt, x, y, steps, warmup)
                concurrent[label] = dict(
                    backend=backend,
                    overlap=overlap_flag,
                    fuse=fuse,
                    wall=wall,
                    losses=losses,
                    bubble=rt.stats.bubble_fraction(),
                    transport=rt.stats.transport_fraction(),
                    boundary_stall=rt.stats.boundary_stall_fraction(),
                    commands=rt.stats.commands_per_step(),
                    workers=rt.num_workers,
                )
            finally:
                rt.close()

    equivalent = all(sim_losses == c["losses"] for c in concurrent.values())
    micro = steps * n
    sim_tput = micro / sim_wall
    workers = next(iter(concurrent.values()))["workers"]
    sched = schedule_speedup(
        "gpipe" if args.method == "gpipe" else args.method, workers, n
    )
    gpipe_bubble = (p - 1) / (n + p - 1)

    print_row("simulator", sim_tput, sim_wall)
    rows.append(make_row(
        workload="mlp", backend="simulator", overlap=None,
        microbatches_per_sec=sim_tput, speedup_vs_simulator=1.0,
        workers=1, equivalent=True,
    ))
    for label, c in concurrent.items():
        tput = micro / c["wall"]
        print_row(
            label, tput, c["wall"],
            f"  workers={c['workers']}  speedup={tput / sim_tput:.2f}x  "
            f"bubble={c['bubble']:.3f}  transport={c['transport']:.1%}  "
            f"boundary-stall={c['boundary_stall']:.3f}  "
            f"commands/step={c['commands']:.0f}",
        )
        rows.append(make_row(
            workload="mlp" if c["fuse"] else "mlp-nofuse",
            backend=c["backend"], overlap=c["overlap"],
            microbatches_per_sec=tput, speedup_vs_simulator=tput / sim_tput,
            bubble_fraction=c["bubble"], transport_fraction=c["transport"],
            boundary_stall_fraction=c["boundary_stall"], workers=c["workers"],
            commands_per_step=c["commands"],
            equivalent=sim_losses == c["losses"],
        ))
    fused_cmds = [c["commands"] for c in concurrent.values() if c["fuse"]]
    unfused_cmds = [c["commands"] for c in concurrent.values() if not c["fuse"]]
    if fused_cmds and unfused_cmds:
        print(f"  wave-fusion command drop    : {max(unfused_cmds):.0f} -> "
              f"{max(fused_cmds):.0f} commands/step "
              f"({max(unfused_cmds) / max(fused_cmds):.1f}x fewer hand-offs)")
    print(f"  schedule-limited speedup    : {sched:.2f}x  "
          f"(wall-clock ceiling with >= {workers} cores)")
    print(f"  gpipe closed-form bubble    : {gpipe_bubble:.3f}  ((P-1)/(N+P-1))")
    print(f"  loss equivalence (bitwise)  : {'OK' if equivalent else 'MISMATCH'}"
          f"  (simulator == every concurrent row)")

    translation_ok = True
    if not args.skip_translation:
        translation_ok = measure_translation(args.quick, args.method, args.overlap, rows)

    balance_ok = True
    if not args.skip_balance:
        balance_ok = measure_partition_balance(args.quick, args.method, rows)

    hybrid_ok = True
    if not args.skip_hybrid:
        hybrid_ok = measure_hybrid(args.quick, args.method, rows)

    if args.json:
        payload = dict(
            config=dict(
                method=args.method, stages=p, microbatches=n, width=width,
                batch=batch, steps=steps, quick=args.quick,
                cores=os.cpu_count(),
            ),
            rows=rows,
        )
        schema_errors = validate_payload(payload)
        if schema_errors:
            for err in schema_errors:
                print(f"ERROR: bench JSON schema violation: {err}", file=sys.stderr)
            return 1
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {len(rows)} rows to {args.json}")

    if not equivalent or not translation_ok or not hybrid_ok:
        print("ERROR: backends diverged", file=sys.stderr)
        return 1
    if not balance_ok:
        print("ERROR: auto partition did not improve the skewed-model "
              "imbalance (or diverged)", file=sys.stderr)
        return 1
    if sched < 2.0 and p >= 4 and n >= 8:
        print("ERROR: schedule speedup below 2x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
