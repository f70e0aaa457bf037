"""Small measurement helpers: percentiles, process memory, leak probes,
name validation and the environment record."""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import re

#: Metric and workload names: a letter or digit first, then letters,
#: digits, ``_``, ``.`` and ``-``; at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: BLAS/OpenMP thread variables pinned to 1 before NumPy loads, so per-stage
#: compute is single-threaded and the benchmark measures pipeline overlap.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation between
    order statistics (NumPy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_summary(seconds) -> dict:
    """``p50_ms``/``p90_ms`` of per-step latencies plus the sample count
    they were taken over (a p90 of 5 samples is not a p90 of 500)."""
    ms = [s * 1e3 for s in seconds]
    return {"p50_ms": percentile(ms, 50), "p90_ms": percentile(ms, 90), "n": len(ms)}


def median(values) -> float:
    return percentile(values, 50)


def pss_mb(pid: int | str = "self") -> float:
    """Proportional set size of one process in MB, from
    ``/proc/<pid>/smaps_rollup`` (shared pages split across sharers, so a
    sum over processes counts every page once)."""
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no Pss line for pid {pid}")


def worker_pids() -> list[int]:
    """Pids of the live worker processes this driver started."""
    return sorted(p.pid for p in multiprocessing.active_children())


def child_pids() -> list[int]:
    """Pids of every live child of this process, whoever started it: the
    worker processes, and also helpers such as multiprocessing's resource
    tracker, which ``active_children()`` does not list."""
    pids = set()
    try:
        tasks = os.listdir("/proc/self/task")
    except FileNotFoundError:  # pragma: no cover - no procfs
        return worker_pids()
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids.update(int(p) for p in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):  # thread ended meanwhile
            continue
    return sorted(pids)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    Creating a ``SharedMemory`` segment starts the tracker as a child
    process that is never waited for and outlives this one; stopping it
    here makes the benchmark end with no process of its own still running.
    A later segment would start a fresh tracker."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)  # noqa: SLF001
    if stop is not None:
        stop()


def reap_children(timeout: float = 5.0) -> None:
    """Stop every child process and wait until each has ended: worker
    processes still alive ``timeout`` seconds on are killed, and then
    multiprocessing's resource tracker is stopped."""
    for proc in multiprocessing.active_children():
        proc.join(timeout=timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()
    stop_resource_tracker()


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def environment(seed: int) -> dict:
    import numpy as np

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count() or 1
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        # The runtime's own default: fork where the platform offers it.
        "start_method": "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn",
        "seed": seed,
    }


def schedule_ceiling(method: str, num_stages: int, num_microbatches: int) -> float:
    """Wall-clock speedup an unconstrained-core host converges to: total
    compute slots of one minibatch's per-stage programs over the critical
    path of their dataflow (each forward after its upstream forward, each
    backward after its downstream backward, stage programs in order)."""
    from repro.pipeline import stage_programs

    programs = stage_programs(method, num_stages, num_microbatches)
    busy = sum(len(ops) for ops in programs)
    finish: dict[tuple[str, int, int], int] = {}
    for _ in range(num_stages):  # relax to the fixed point (<= P sweeps)
        for s, ops in enumerate(programs):
            prev_end = 0
            for op, j in ops:
                if op == "F" and s > 0:
                    dep = ("F", s - 1, j)
                elif op == "B" and s < num_stages - 1:
                    dep = ("B", s + 1, j)
                else:
                    dep = None
                begin = max(prev_end, finish.get(dep, 0) if dep else 0)
                finish[(op, s, j)] = prev_end = begin + 1
    return busy / max(finish.values())
