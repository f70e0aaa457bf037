"""The closed-loop driver: one workload, one seed, one process.

An untraced run measures the end-to-end metrics; a traced run (``trace``)
repeats the measured window with the span wrappers installed, between two
untraced ones, and reports the per-layer metrics plus the tracing overhead.
Both kinds of run end with the same correctness checks:

* the losses of the measured run equal the simulator's bit for bit — over a
  prefix of the steps on the window workloads, over the whole trajectory
  (and the epoch the target is reached) on the time-to-target workload —
  and so do the losses of a short run on a model and minibatches drawn from
  the run's seed;
* the quality target is reached;
* after ``close()`` no ``/dev/shm`` segment and no child process survives.

Every failed step or check is counted in ``failed``; a run is never dropped.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time

from perfbench import measure
from perfbench.spans import Tracer, totals
from perfbench.workloads import TRAJECTORY_SEED, WORKLOADS

#: (name, unit) of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("samples_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("time_to_target_s", "s"),
    ("epochs_to_target", "epochs"),
    ("setup_s", "s"),
    ("memory_mb", "MB"),
)

#: (name, unit) of every per-layer metric, as in BENCHMARK.json.
PER_LAYER = (
    ("train.eval_s", "s"),
    ("train.sync_s", "s"),
    ("plan.fold_s_per_step", "s"),
    ("optim.step_s_per_step", "s"),
    ("core.correct_s_per_step", "s"),
    ("publish.s_per_step", "s"),
    ("publish.bytes_per_step", "B"),
    ("net.frames_per_step", "count"),
    ("net.bytes_per_step", "B"),
    ("net.send_s_per_step", "s"),
    ("transport.bytes_per_step", "B"),
    ("transport.s_per_step", "s"),
    ("stage_compute.fwd_s_per_step", "s"),
    ("stage_compute.bwd_s_per_step", "s"),
    ("setup.build_s", "s"),
    ("setup.first_step_s", "s"),
    ("waveprogram.compile_s", "s"),
    ("partition.plan_s", "s"),
    ("runtime.busy_s_per_step", "s"),
    ("runtime.bubble_frac", "fraction"),
    ("runtime.stall_frac", "fraction"),
    ("runtime.transport_frac", "fraction"),
    ("runtime.commands_per_step", "count"),
    ("runtime.reports_per_step", "count"),
    ("memory.driver_mb", "MB"),
    ("memory.workers_mb", "MB"),
    ("weight_store.resident_mb", "MB"),
    ("weight_store.predicted_mb", "MB"),
    ("schedule.bubble_analytic", "fraction"),
    ("schedule.ceiling_x", "x"),
    ("executor.samples_per_s", "1/s"),
    ("trace.overhead_frac", "fraction"),
)

SETUP_REPEATS = (5, 20)  # set-up is timed at least 5 and at most 20 times per run,
SETUP_BUDGET_S = 2.0     # and until this much time was spent; the median is reported
WARMUP_STEPS = 3         # excluded from throughput and latency on window workloads
PREFIX_STEPS = 16        # losses compared bit for bit with the simulator
OVERTIME_S = 60.0        # a window that has not met its target this long after --seconds fails


@dataclasses.dataclass
class Window:
    """What one measured run of a workload produced."""

    losses: list
    step_s: list
    samples_per_s: float = math.nan
    time_to_target_s: float = math.nan
    epochs_to_target: float = math.nan
    eval_s: float = 0.0
    error: str | None = None
    memory_driver_mb: float = 0.0
    memory_workers_mb: float = 0.0
    resident_mb: float = 0.0
    predicted_mb: float = 0.0
    workers: int = 1
    microbatches: int = 1
    stats: object = None


class _TargetReached(Exception):
    def __init__(self, at: float):
        self.at = at


# -- measured loops -------------------------------------------------------------


def _tta_loop(spec, built, win: Window) -> None:
    """``PipelineTrainer.run`` with an eval every epoch until the target;
    the benchmark only wraps the executor's ``train_step`` and the trainer's
    eval function to time them."""
    ex, trainer = built.executor, built.trainer
    step, evaluate = ex.train_step, trainer.eval_fn

    def timed_step(x, y):
        t0 = time.perf_counter()
        loss = step(x, y)
        win.step_s.append(time.perf_counter() - t0)
        win.losses.append(loss)
        return loss

    evals = 0

    def timed_eval():
        nonlocal evals
        t0 = time.perf_counter()
        acc = evaluate()
        t1 = time.perf_counter()
        win.eval_s += t1 - t0
        evals += 1
        if acc >= spec.target:
            raise _TargetReached(t1)
        return acc

    ex.train_step, trainer.eval_fn = timed_step, timed_eval
    start = time.perf_counter()
    try:
        trainer.run(spec.max_epochs)  # eval_every=1: one eval per epoch
    except _TargetReached as hit:
        win.time_to_target_s = hit.at - start
        win.epochs_to_target = evals
    except Exception as exc:  # a failed step: counted, never dropped
        win.error = f"{type(exc).__name__}: {exc}"
    finally:
        end = time.perf_counter()
        del ex.train_step
        trainer.eval_fn = evaluate
    train_s = end - start - win.eval_s
    if win.losses and train_s > 0:
        win.samples_per_s = len(win.losses) * spec.samples_per_step / train_s


def _window_loop(spec, built, batches: list, win: Window, seconds: float) -> None:
    """Closed loop over the workload's fixed minibatches for ``seconds``
    (and at least until the quality target is met): per-step latency,
    throughput after warm-up, and the time the mean loss of the last epoch
    first reaches the target."""
    ex = built.executor
    spe = spec.steps_per_epoch
    ends = []
    start = time.perf_counter()
    while True:
        x, y = batches[len(win.losses) % len(batches)]
        t0 = time.perf_counter()
        try:
            loss = ex.train_step(x, y)
        except Exception as exc:  # counted as a failed step, never dropped
            win.error = f"{type(exc).__name__}: {exc}"
            break
        t1 = time.perf_counter()
        win.step_s.append(t1 - t0)
        win.losses.append(loss)
        ends.append(t1)
        n = len(win.losses)
        if math.isnan(win.time_to_target_s) and n >= spe and (
            sum(win.losses[-spe:]) / spe <= spec.target
        ):
            win.time_to_target_s = t1 - start
            win.epochs_to_target = n / spe
        reached = not math.isnan(win.time_to_target_s)
        if (t1 - start >= seconds and reached) or t1 - start >= seconds + OVERTIME_S:
            break
    if win.error is None:
        try:
            ex.sync()  # the last overlapped boundary belongs to the window
        except Exception as exc:
            win.error = f"sync: {type(exc).__name__}: {exc}"
    end = time.perf_counter()
    warm = WARMUP_STEPS if len(ends) > WARMUP_STEPS + 1 else 0
    win.step_s = win.step_s[warm:]
    t_from = ends[warm - 1] if warm else start
    if len(ends) > warm and end > t_from:
        win.samples_per_s = (len(ends) - warm) * spec.samples_per_step / (end - t_from)


def _stats_delta(after, before):
    """The program's own ``RuntimeStats`` restricted to the measured
    window: totals minus the snapshot taken when the window opened."""
    fields = {}
    for f in dataclasses.fields(after):
        a, b = getattr(after, f.name), getattr(before, f.name)
        if f.name.startswith("total_") and isinstance(a, list):
            fields[f.name] = [x - y for x, y in zip(a, b or [0.0] * len(a))]
        elif f.name.startswith("total_") or f.name == "steps":
            fields[f.name] = a - b
        else:
            fields[f.name] = a
    return type(after)(**fields)


def measure_window(spec, seconds: float, tracer: Tracer | None = None) -> Window:
    """Build the backend on the pinned trajectory and run the measured
    loop; memory and weight-store figures are read before ``close()``."""
    batches = spec.batches(TRAJECTORY_SEED) if spec.kind == "window" else None
    built = spec.build(spec.runtime, TRAJECTORY_SEED)
    ex = built.executor
    win = Window(losses=[], step_s=[])
    try:
        win.workers = ex.num_workers
        win.microbatches = ex.profile.num_microbatches
        if tracer is not None:
            install_step_wrappers(tracer, built)
        before = dataclasses.replace(ex.stats, total_busy=list(ex.stats.total_busy),
                                     total_transport=list(ex.stats.total_transport),
                                     total_stall=list(ex.stats.total_stall))
        if spec.kind == "tta":
            _tta_loop(spec, built, win)
        else:
            _window_loop(spec, built, batches, win, seconds)
        # After the window, before close(): the resident set of a live run.
        win.memory_driver_mb = measure.pss_mb()
        win.memory_workers_mb = sum(measure.pss_mb(p) for p in measure.worker_pids())
        win.stats = _stats_delta(ex.stats, before)
        store = ex.plan.store
        win.resident_mb = sum(
            a.nbytes
            for s in range(store.num_stages)
            for v in store.resident_versions(s)
            for a in store.weights(s, v)
        ) / 2**20
        win.predicted_mb = ex.plan.history * sum(p.data.nbytes for p in built.model.parameters()) / 2**20
    finally:
        if tracer is not None:
            tracer.restore()
        ex.close()
    return win


# -- wrappers -------------------------------------------------------------------


def _arrays_nbytes(arrays) -> int:
    total = 0
    for a in arrays:
        total += _arrays_nbytes(a) if isinstance(a, (list, tuple)) else getattr(a, "nbytes", 0)
    return total


def install_step_wrappers(tracer: Tracer, built) -> None:
    """Time the per-step layers of the driver from outside.  Called after
    the backend is built, so forked workers never carry a wrapper."""
    import repro.experiments.workloads as wl_mod
    from repro.core.discrepancy import DiscrepancyCorrector
    from repro.optim.optimizer import Optimizer
    from repro.pipeline import SharedWeightMirror, ShmRing, StepPlan, Transport
    from repro.pipeline.stage_compute import Segment
    from repro.pipeline.transport import SharedGradMailbox

    ex = built.executor
    tracer.patch(StepPlan, "finish_step", "plan.fold")
    tracer.patch(StepPlan, "finish_step_detached", "plan.fold")
    tracer.patch(Optimizer, "step", "optim.step")
    tracer.patch(Optimizer, "step_detached", "optim.step")
    tracer.patch(DiscrepancyCorrector, "update_all_arrays", "core.correct")
    tracer.patch(type(ex.pool), "publish_plan_state", "publish")
    tracer.patch(SharedWeightMirror, "publish_version", "publish.mirror",
                 lambda a, k, r: _arrays_nbytes(a[2]))
    tracer.patch(SharedWeightMirror, "publish_velocity", "publish.mirror",
                 lambda a, k, r: _arrays_nbytes(a[1]))
    tracer.patch(Transport, "send_frame", "net.send", lambda a, k, r: len(a[2]))
    tracer.patch(Transport, "recv_frame", "net.recv",
                 lambda a, k, r: len(r[1]) if r is not None else 0)
    for name in ("send_msg", "recv_msg"):
        tracer.patch(ShmRing, name, "transport.ring",
                     lambda a, k, r: _arrays_nbytes([a[1] if r is None else r[1]]))
    tracer.patch(SharedGradMailbox, "read", "transport.mailbox",
                 lambda a, k, r: getattr(r, "nbytes", 0))
    tracer.patch(SharedGradMailbox, "check_stamps", "transport.mailbox")
    tracer.patch(Segment, "forward", "stage_compute.fwd")
    tracer.patch(Segment, "backward", "stage_compute.bwd")
    tracer.patch(ex, "sync", "train.sync")
    tracer.patch(wl_mod, "evaluate_classifier", "train.eval")
    tracer.patch(wl_mod, "evaluate_translation", "train.eval")


def install_setup_wrappers(tracer: Tracer) -> None:
    """Set-up layers run during the build they time, so these wrappers are
    live while workers fork; only the driver's calls are reported."""
    import repro.pipeline.waveprogram as wp_mod
    from repro.pipeline import Partitioner

    tracer.patch(Partitioner, "plan", "partition.plan")
    tracer.patch(wp_mod, "compile_wave_programs", "waveprogram.compile")


# -- set-up, reference, teardown -----------------------------------------------


def setup_probes(spec, seed: int, tracer: Tracer | None = None) -> dict:
    """Build the backend and run its first step repeatedly (spawn,
    handshake, wave compile, first publish; see ``SETUP_REPEATS``);
    medians of the construction, first-step and total times."""
    build_s, first_s, total_s = [], [], []
    x, y = spec.batches(seed)[0]
    if tracer is not None:
        install_setup_wrappers(tracer)
    try:
        lo, hi = SETUP_REPEATS
        while len(total_s) < lo or (sum(total_s) < SETUP_BUDGET_S and len(total_s) < hi):
            t0 = time.perf_counter()
            built = spec.build(spec.runtime, seed)
            t1 = time.perf_counter()
            try:
                built.executor.train_step(x, y)
                built.executor.sync()
                t2 = time.perf_counter()
            finally:
                built.executor.close()
            build_s.append(t1 - t0)
            first_s.append(t2 - t1)
            total_s.append(t2 - t0)
    finally:
        if tracer is not None:
            tracer.restore()
    return {"build_s": measure.median(build_s), "first_step_s": measure.median(first_s),
            "setup_s": measure.median(total_s), "repeats": len(total_s)}


def reference(spec, win: Window) -> dict:
    """The simulator on the measured run's inputs: its losses (and, on the
    time-to-target workload, its epoch count) are the spec the measured run
    must match bit for bit.  Also times the simulator as the single-worker
    baseline."""
    built = spec.build("simulator", TRAJECTORY_SEED)
    ref = Window(losses=[], step_s=[])
    t0 = time.perf_counter()
    if spec.kind == "tta":
        _tta_loop(spec, built, ref)
        compared = max(len(win.losses), len(ref.losses))
    else:
        batches = spec.batches(TRAJECTORY_SEED)
        compared = min(PREFIX_STEPS, len(win.losses))
        for i in range(compared):
            ref.losses.append(built.executor.train_step(*batches[i % len(batches)]))
    elapsed = time.perf_counter() - t0
    return {
        "compared": compared,
        "mismatched": _mismatches(win.losses[:compared], ref.losses[:compared]),
        "epochs_ok": spec.kind != "tta" or ref.epochs_to_target == win.epochs_to_target,
        "ref_epochs": ref.epochs_to_target,
        "samples_per_s": len(ref.losses) * spec.samples_per_step / elapsed,
    }


def seeded_check(spec, seed: int) -> dict:
    """A differential check on inputs drawn from the run's seed: model
    init and minibatches both come from ``seed``, and the measured backend
    must reproduce the simulator's losses bit for bit."""
    batches = spec.batches(seed)
    k = min(PREFIX_STEPS, len(batches))
    losses, errors = {}, []
    for runtime in (spec.runtime, "simulator"):
        built = spec.build(runtime, seed)
        losses[runtime] = []
        try:
            for x, y in batches[:k]:
                losses[runtime].append(built.executor.train_step(x, y))
        except Exception as exc:  # counted as a failed step, never dropped
            errors.append(f"{runtime}: {type(exc).__name__}: {exc}")
        finally:
            if hasattr(built.executor, "close"):
                built.executor.close()
    return {"compared": k, "errors": errors,
            "mismatched": _mismatches(losses[spec.runtime], losses["simulator"])}


def _mismatches(a: list, b: list) -> int:
    """Steps whose losses differ (``==``, bit for bit), missing ones included."""
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))


def leaks(shm_before: set) -> list[str]:
    """Segments or child processes that outlived ``close()``.  Segments are
    listed before the resource tracker is stopped (stopping it unlinks any
    it still tracks); every child process still alive after that counts."""
    segments = [f"/dev/shm/{n}" for n in sorted(measure.shm_segments() - shm_before)]
    measure.stop_resource_tracker()
    return segments + [f"child pid {p}" for p in measure.child_pids()]


# -- one run ------------------------------------------------------------------


def analytic(win: Window) -> dict:
    from repro.pipeline import Method, bubble_fraction, build_schedule

    return {
        "bubble": bubble_fraction(build_schedule(Method.PIPEMARE, win.workers, win.microbatches)),
        "ceiling_x": measure.schedule_ceiling(Method.PIPEMARE.value, win.workers, win.microbatches),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        trace_dir: str | None = None) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    spec = WORKLOADS[workload](tiny)
    shm_before = measure.shm_segments()
    lines = [f"workload {workload}: {spec.why}"]
    tracer = Tracer() if trace else None
    # The measured window runs first, so the memory it reads is that of a
    # process holding one backend and nothing left over from other builds.
    win = measure_window(spec, seconds)
    traced = after = None
    if trace:
        traced = measure_window(spec, seconds, tracer)
        # A second untraced window after the traced one: the overhead is
        # taken against the mean of both neighbours, which cancels drift.
        after = measure_window(spec, seconds)
    setup = setup_probes(spec, seed, tracer)
    ref = reference(spec, win)
    drawn = seeded_check(spec, seed)
    leaked = leaks(shm_before)

    env = measure.environment(seed)
    env.update(workers=win.workers, microbatches=win.microbatches, backend=spec.runtime,
               trajectory_seed=TRAJECTORY_SEED)
    lines.append(f"env {env}")

    windows = [w for w in (win, traced, after) if w is not None]
    errors = [w.error for w in windows if w.error] + drawn["errors"]
    attempted = sum(len(w.losses) for w in windows) + drawn["compared"] + len(errors)
    mismatched = ref["mismatched"] + drawn["mismatched"]
    run_checks = {
        f"epochs_to_target equals the simulator's ({ref['ref_epochs']})": ref["epochs_ok"],
        "quality target reached": all(not math.isnan(w.time_to_target_s) for w in windows),
        "no shm segment or child process after close()": not leaked,
    }
    # A failed step, a step whose loss differs from the simulator's, and a
    # failed run-level check each count as one failure.
    failed = len(errors) + mismatched + sum(1 for ok in run_checks.values() if not ok)
    checks = {
        f"losses bit-identical to the simulator ({ref['compared']} measured steps, "
        f"{drawn['compared']} steps drawn from seed {seed})": mismatched == 0,
        **run_checks,
    }
    lines += [f"FAILED step: {e}" for e in errors]
    lines += [f"check {'ok' if ok else 'FAILED'}: {label}" for label, ok in checks.items()]
    if leaked:
        lines.append(f"leaked after close(): {leaked}")
    lines.append(f"failed_step_ratio {failed / max(1, attempted):.6f} "
                 f"({failed} of {attempted})")

    ana = analytic(win)
    lines.append(f"analytic: schedule bubble {ana['bubble']:.4f}, ceiling "
                 f"{ana['ceiling_x']:.2f}x for {win.workers} workers, N={win.microbatches}; "
                 f"predicted resident weights {win.predicted_mb:.3f} MB "
                 f"(measured {win.resident_mb:.3f} MB)")
    lines.append(f"step latency over n={len(win.step_s)} steps; set-up median of "
                 f"{setup['repeats']} builds")

    if not trace:
        lat = measure.latency_summary(win.step_s) if win.step_s else {"p50_ms": math.nan, "p90_ms": math.nan}
        values = {
            "samples_per_s": win.samples_per_s,
            "step_ms_p50": lat["p50_ms"],
            "step_ms_p90": lat["p90_ms"],
            "time_to_target_s": win.time_to_target_s,
            "epochs_to_target": win.epochs_to_target,
            "setup_s": setup["setup_s"],
            "memory_mb": win.memory_driver_mb + win.memory_workers_mb,
        }
        units = dict(END_TO_END)
    else:
        untraced_sps = (win.samples_per_s + after.samples_per_s) / 2
        values = per_layer_values(traced, untraced_sps, setup, tracer, ref, ana)
        units = dict(PER_LAYER)
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            tracer.write(os.path.join(trace_dir, f"trace-{workload}-seed{seed}.json"), env)

    for name, value in values.items():
        lines.append(f"metric {name:<30s} {value:.6g} {units[name]}")
    result = {
        "correct": all(checks.values()) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _finite(v), "unit": units[name]} for name, v in values.items()},
    }
    return result, lines


def _finite(v: float):
    return None if v is None or (isinstance(v, float) and not math.isfinite(v)) else float(v)


def per_layer_values(traced: Window, untraced_sps: float, setup: dict, tracer: Tracer,
                     ref: dict, ana: dict) -> dict:
    agg = totals([s for s in tracer.spans if s.end > 0.0])
    steps = max(1, len(traced.losses))

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def nbytes(name):
        return agg.get(name, {}).get("nbytes", 0)

    def count(name):
        return agg.get(name, {}).get("count", 0)

    st = traced.stats
    probes = setup["repeats"]
    return {
        "train.eval_s": self_s("train.eval"),
        "train.sync_s": self_s("train.sync"),
        "plan.fold_s_per_step": self_s("plan.fold") / steps,
        "optim.step_s_per_step": self_s("optim.step") / steps,
        "core.correct_s_per_step": self_s("core.correct") / steps,
        "publish.s_per_step": (self_s("publish") + self_s("publish.mirror")) / steps,
        "publish.bytes_per_step": nbytes("publish") / steps,
        "net.frames_per_step": (count("net.send") + count("net.recv")) / steps,
        "net.bytes_per_step": (nbytes("net.send") + nbytes("net.recv")) / steps,
        "net.send_s_per_step": self_s("net.send") / steps,
        "transport.bytes_per_step": (nbytes("transport.ring") + nbytes("transport.mailbox")) / steps,
        "transport.s_per_step": (self_s("transport.ring") + self_s("transport.mailbox")) / steps,
        "stage_compute.fwd_s_per_step": self_s("stage_compute.fwd") / steps,
        "stage_compute.bwd_s_per_step": self_s("stage_compute.bwd") / steps,
        "setup.build_s": setup["build_s"],
        "setup.first_step_s": setup["first_step_s"],
        "waveprogram.compile_s": self_s("waveprogram.compile") / probes,
        "partition.plan_s": self_s("partition.plan") / probes,
        "runtime.busy_s_per_step": sum(st.total_busy) / max(1, st.steps),
        "runtime.bubble_frac": st.bubble_fraction(),
        "runtime.stall_frac": st.boundary_stall_fraction(),
        "runtime.transport_frac": st.transport_fraction(),
        "runtime.commands_per_step": st.commands_per_step(),
        "runtime.reports_per_step": st.reports_per_step(),
        "memory.driver_mb": traced.memory_driver_mb,
        "memory.workers_mb": traced.memory_workers_mb,
        "weight_store.resident_mb": traced.resident_mb,
        "weight_store.predicted_mb": traced.predicted_mb,
        "schedule.bubble_analytic": ana["bubble"],
        "schedule.ceiling_x": ana["ceiling_x"],
        "executor.samples_per_s": ref["samples_per_s"],
        "trace.overhead_frac": (untraced_sps - traced.samples_per_s) / untraced_sps,
    }
