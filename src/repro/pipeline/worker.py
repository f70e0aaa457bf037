"""One worker kernel for every concurrent backend.

A pipeline worker does the same thing on every backend: it holds one slice
of the worker graph (:class:`~repro.pipeline.stage_compute.WorkerCompute`),
a weight resolver, the compiled wave programs and an activation arena, and
for each step command it runs its program through the shared interpreter
:func:`_execute_program` and reports back.  :class:`WorkerKernel` is that
worker.  The backends differ only in what they hand it:

* **channels** — per-step in-process queues (thread), shared-memory rings
  (process) or framed socket connections (socket);
* **weight source** — the driver's live :class:`~repro.pipeline.plan.StepPlan`
  (thread) or a :class:`~repro.pipeline.plan.WorkerPlanMirror` over a
  :class:`~repro.pipeline.weight_store.SharedWeightMirror` (process) or a
  :class:`~repro.pipeline.net.RemoteWeightMirror` (socket);
* **gradient return** — nothing (thread workers accumulate straight into
  the driver's ``Parameter.grad``), the
  :class:`~repro.pipeline.transport.SharedGradMailbox` (process), or the
  done report itself (socket).

Thread workers are built from the driver's live objects; process and socket
workers are built by :meth:`WorkerKernel.from_init` from a picklable init
dict, which rebuilds the model from its
:class:`~repro.pipeline.stage_compute.ModelSpec` and checks that the rebuilt
partition and graph match the driver's.  Every backend returns the same
:class:`Report`, so the driver collects all of them in one place
(``_WorkerPoolBase.collect`` in :mod:`repro.pipeline.runtime`).
"""

from __future__ import annotations

import pickle
import time
import traceback
from typing import NamedTuple

import numpy as np

from repro.nn import arena as nn_arena
from repro.pipeline.delays import Method
from repro.pipeline.plan import WorkerPlanMirror
from repro.pipeline.schedule import stage_programs
from repro.pipeline.stage_compute import (
    WorkerCompute,
    WorkerGraph,
    build_worker_graph,
)
from repro.pipeline.transport import TransportTimeout, pack_lanes
from repro.pipeline.waveprogram import WaveProgram


class StepCommand(NamedTuple):
    """One step as the driver issues it to a worker.  ``seq`` is the pool's
    step sequence (it tags channel messages and done reports), ``t`` the
    plan's minibatch index, ``ext`` the external inputs this worker
    consumes (``ext[i][j]``: input i of microbatch j) and ``ys`` the labels
    (sink worker only)."""

    seq: int
    t: int
    sync: bool
    scales: list
    ext: object
    ys: object


class Report(NamedTuple):
    """One worker→driver message.  ``kind`` is "ok", "error" or "deadlock"
    for a finished step, "losses" for the sink's early-loss report, and
    "ready"/"init_error" at bring-up.  A step's "ok" payload is
    ``(losses, pstate, grads, lanes)``: the sink's microbatch losses, the
    slice's persistent state (remote workers only), the gradients that ride
    the report (socket only) and the packed per-block lanes."""

    worker: int
    seq: int
    kind: str
    busy: float = 0.0
    xfer: float = 0.0
    stall: float = 0.0
    payload: object = None


def _picklable_exc(exc: BaseException) -> BaseException:
    """Exceptions cross process boundaries by pickle; anything that cannot
    make the trip is flattened to a RuntimeError carrying the formatted
    traceback."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        )


# -- wave programs ------------------------------------------------------------


def _build_programs(
    method: Method, num_workers: int, num_microbatches: int, recompute: bool
) -> dict[bool, list[list[tuple[str, int]]]]:
    """Worker programs, straight off the occupancy grids: the schedule
    module's Figure 1 cartoons, executed for real.  Keyed by the step's
    sync flag — GPipe-style fill/drain for synchronous steps (T3 warmup;
    for the GPipe method ``is_sync_step()`` is always True), the method's
    own interleaved schedule otherwise."""
    return {
        True: stage_programs(Method.GPIPE, num_workers, num_microbatches, recompute=False),
        False: stage_programs(method, num_workers, num_microbatches, recompute=recompute),
    }


def _graph_recv_peers(graph: WorkerGraph) -> tuple[list[list[int]], list[list[int]]]:
    """Per-worker producer sets for the fusion compiler's cross-worker
    boundary rule: ``fwd_peers[w]`` are the workers whose forward/recompute
    waves feed ``w`` activations, ``bwd_peers[w]`` those whose backward
    waves feed it gradients (gradients flow dst → src along each edge)."""
    fwd: list[set[int]] = [set() for _ in range(graph.num_workers)]
    bwd: list[set[int]] = [set() for _ in range(graph.num_workers)]
    for e in graph.cross_edges():
        fwd[e.dst.worker].add(e.src.worker)
        bwd[e.src.worker].add(e.dst.worker)
    return [sorted(s) for s in fwd], [sorted(s) for s in bwd]


def _build_wave_programs(
    resolver, graph: WorkerGraph, fuse: bool
) -> dict[bool, list[WaveProgram]]:
    """Compile :func:`_build_programs`'s wave schedules into per-worker
    :class:`~repro.pipeline.waveprogram.WaveProgram` command blocks, keyed
    by the step's sync flag.  The thread pool compiles once on the driver
    from its :class:`StepPlan`; every process and socket worker compiles the
    identical dict from its resolver mirror (same arithmetic, same
    deterministic graph), so no compiled program ever crosses a process
    boundary."""
    programs = _build_programs(
        resolver.method, graph.num_workers, resolver.num_microbatches,
        resolver.recompute_segment is not None,
    )
    read_stages = [w.read_stages for w in graph.workers]
    fwd_peers, bwd_peers = _graph_recv_peers(graph)
    return {
        sync: resolver.wave_programs(
            programs[sync], read_stages, fwd_peers, bwd_peers, sync, fuse
        )
        for sync in (True, False)
    }


# -- the shared per-worker program interpreter --------------------------------


def _execute_program(
    compute: WorkerCompute,
    program: "WaveProgram",
    resolver,
    t: int,
    sync: bool,
    chans,
    loss_fn,
    ext,
    ys,
    scales,
    losses,
    gate_timeout: float,
    on_losses=None,
) -> tuple[float, float, list[tuple[int, float, float, float]]]:
    """Run one worker's compiled :class:`~repro.pipeline.waveprogram.WaveProgram`
    for minibatch ``t``, one fused block at a time.

    Identical for all backends: only ``chans`` (queue-, ring- or
    socket-backed) and ``resolver`` (driver :class:`StepPlan` or a worker's
    :class:`WorkerPlanMirror`) differ.  Each op walks the worker's segments
    in graph order (forward) or reverse (backward); same-worker edges hand
    payloads off through a local dict, cross-worker edges through the
    channel of that edge.

    Every **block** is version-gated at entry: the compiler guarantees no
    wave inside the block requires a version newer than the entry gate
    (``max(0, t - gate_delay)``), so one wait admits the whole block — the
    admission rule that lets a step run while the previous step's optimizer
    boundary is still in flight.  Unfused programs have one wave per block,
    reproducing the historical per-wave gate exactly.  Weight re-pointing
    is skipped where the compiler proved the previous wave in the block
    loaded the same versions (``WaveBlock.loads``); dropout slots, cache
    snapshots and arena pinning (``begin_wave``/``release_wave``) remain
    per-wave, so trajectories are bit-for-bit unchanged.

    ``on_losses`` (sink worker only) fires once the last forward wave wrote
    its loss — the signal that lets the driver return step t's training
    loss while t's backward half (and the next step) are still draining.

    Returns ``(busy, stall, lanes)``: total compute seconds (channel waits
    and payload copies excluded), total version-gate wait seconds, and one
    ``(num_waves, busy, stall, xfer)`` lane per executed block — the
    coarsened done-report detail.  ``busy``/``stall`` equal the lane sums
    by construction.
    """
    snapshots: dict[int, list[dict]] = {}
    grads: dict[int, np.ndarray] = {}
    recompute = resolver.recompute_active(sync)
    busy = 0.0
    stall = 0.0
    lanes: list[tuple[int, float, float, float]] = []
    f_total = program.num_forwards
    f_done = 0
    xfer_fn = getattr(chans, "xfer_seconds", None)

    def run_wave(kind: str, j: int, load: bool) -> None:
        """One forward-style pass (op F on "act", op R on "rec")."""
        nonlocal busy, f_done
        chans.begin_wave(j)
        local: dict[int, object] = {}
        prepared = False
        for seg in compute.segments:
            ins = []
            for e in seg.in_edges:
                if e.src is None:
                    ins.append(ext[e.ext_index][j])
                elif e.local:
                    ins.append(local.pop(e.index))
                else:
                    ins.append(chans.recv(kind, e.index))
            t0 = time.perf_counter()
            if not prepared:
                if load:
                    if kind == "act":
                        compute.load_weights(
                            lambda s: resolver.forward_weights(s, t, j, sync)
                        )
                    else:
                        compute.load_weights(
                            lambda s: resolver.recompute_weights(s, t, j)
                        )
                compute.set_dropout_slot(t, j)
                prepared = True
            out_edge = seg.out_edge
            if out_edge is not None and not out_edge.local and chans.can_reserve:
                # In-ring compute: let the segment's last module write its
                # output directly into a reserved transport slot; send()
                # recognises the reserved view and publishes without a copy.
                reserve = (
                    lambda shape, dtype, _k=kind, _e=out_edge.index:
                    chans.reserve(_k, _e, shape, dtype)
                )
                out = seg.forward(ins, reserve)
            else:
                out = seg.forward(ins)
            if seg.is_sink and kind == "act":
                losses[j] = loss_fn(out, ys[j])
                g = loss_fn.backward()
                sg = nn_arena.empty(g.shape, np.result_type(g, scales[j]))
                np.multiply(g, scales[j], out=sg)
                grads[j] = sg
            busy += time.perf_counter() - t0
            if out_edge is not None:
                if out_edge.local:
                    local[out_edge.index] = out
                else:
                    chans.send(kind, out_edge.index, out)
        if kind == "rec" or not recompute:
            t0 = time.perf_counter()
            snapshots[j] = compute.cache_state()
            busy += time.perf_counter() - t0
        if kind == "act":
            f_done += 1
            if on_losses is not None and f_done == f_total:
                on_losses()

    def run_backward(j: int, load: bool) -> None:
        nonlocal busy
        chans.begin_wave(j)
        local: dict[int, object] = {}
        restored = False
        for seg in reversed(compute.segments):
            if seg.is_sink:
                g = grads.pop(j)
            elif seg.out_edge.local:
                g = local.pop(seg.out_edge.index)
            else:
                g = chans.recv("grad", seg.out_edge.index)
            t0 = time.perf_counter()
            if not restored:
                compute.load_cache_state(snapshots.pop(j))
                if load:
                    compute.load_weights(
                        lambda s: resolver.backward_weights(s, t, j, sync)
                    )
                restored = True
            gins = seg.backward(g)
            busy += time.perf_counter() - t0
            for e, gi in zip(seg.in_edges, gins):
                if e.src is None:
                    continue
                if e.local:
                    local[e.index] = gi
                else:
                    chans.send("grad", e.index, gi)
        # Microbatch j is finished on this worker: pinned transport views
        # (its activations, recompute inputs and gradients) can be acked.
        chans.release_wave(j)

    for block in program.blocks:
        busy0, stall0 = busy, stall
        xfer0 = xfer_fn() if xfer_fn is not None else 0.0
        if block.gate_delay is not None:
            v = max(0, t - block.gate_delay)
            if v > resolver.store.latest_version:
                t0 = time.perf_counter()
                resolver.wait_version(v, gate_timeout)
                stall += time.perf_counter() - t0
        for (op, j), load in zip(block.ops, block.loads):
            if op == "F":
                run_wave("act", j, load)
            elif op == "R":
                run_wave("rec", j, load)
            else:  # "B"
                run_backward(j, load)
        xfer1 = xfer_fn() if xfer_fn is not None else 0.0
        lanes.append((len(block.ops), busy - busy0, stall - stall0, xfer1 - xfer0))
    return busy, stall, lanes


# -- the kernel -----------------------------------------------------------------


class WorkerKernel:
    """One pipeline worker: its graph slice, resolver, compiled programs and
    arena, plus the one step body every backend runs (:meth:`run_step`).

    ``remote`` marks a kernel built by :meth:`from_init` inside a process or
    socket worker.  Such a kernel owns a rebuilt model replica, so it
    zeroes its gradients at step entry, tags its channels and resolver
    with the step, ships its persistent state back in every report and
    makes errors picklable.  A thread kernel shares the driver's live
    modules and :class:`StepPlan` instead: it must **not** zero gradients
    at step entry, because ``StepPlan.finish_step_detached`` re-zeroes
    them just before the publish that releases the next step's backward
    waves, and step t's gradients are still unfolded when step t+1 starts.

    ``grad_sink(compute, seq)`` runs after a successful program and
    returns what rides in the report's ``grads`` slot: the process backend
    writes and stamps the mailbox there (returns ``None``), the socket
    backend returns the gradients themselves.

    The kernel installs its arena in the constructing thread, so each
    backend builds its kernels on the thread that runs them.  Step seq's
    slabs are recycled when step seq+2 begins, which matches the driver's
    two-steps-in-flight window.
    """

    def __init__(
        self,
        w: int,
        compute: WorkerCompute,
        resolver,
        programs: dict[bool, list[WaveProgram]],
        loss_fn,
        timeout: float,
        *,
        remote: bool = False,
        grad_sink=None,
    ):
        self.w = w
        self.compute = compute
        self.resolver = resolver
        self.programs = programs
        self.loss_fn = loss_fn  # the sink worker's only
        self.timeout = timeout
        self.remote = remote
        self.grad_sink = grad_sink
        self.has_pstate = remote and compute.has_persistent_state()
        self.arena = nn_arena.Arena()
        nn_arena.set_current(self.arena)

    @classmethod
    def from_init(cls, w: int, init: dict, mirror, grad_sink=None) -> "WorkerKernel":
        """Build worker ``w`` of a process or socket pool from its init dict
        (see ``_WorkerPoolBase._worker_init``), reading weights through
        ``mirror``.  Rebuilds the model from its spec and fails loudly if
        the rebuilt partition or worker graph differs from the driver's,
        or if ``mirror`` holds a per-worker slice (``mirror.stages``, the
        socket backend) other than the stages this slice reads."""
        model, stages = init["model_spec"].build()
        if [list(s.names) for s in stages] != init["stage_names"]:
            raise ValueError(
                f"worker {w}: model spec rebuilt a different partition than "
                f"the driver's (stage parameter names differ)"
            )
        graph = build_worker_graph(
            model, stages,
            granularity=init["granularity"], max_workers=init["max_workers"],
        )
        if graph.num_workers != init["k"] or graph.edge_spec() != init["edges"]:
            raise ValueError(
                f"worker {w}: model spec rebuilt a different worker graph "
                f"than the driver's ({graph.num_workers} workers, edges "
                f"{graph.edge_spec()!r} vs {init['edges']!r})"
            )
        compute = graph.workers[w]
        held = getattr(mirror, "stages", None)
        if held is not None and held != compute.read_stages:
            raise ValueError(
                f"worker {w}: the driver publishes stages {held} but this "
                f"slice reads stages {compute.read_stages}"
            )
        # The replica only ever runs sliced steps, so tied modules stay in
        # deferred-gradient mode for its whole lifetime (the driver's own
        # modules are scoped per step by PipelineBackend instead).
        compute.enable_deferred()
        if init["pstate"] is not None:
            compute.load_persistent_state(init["pstate"])
        resolver = WorkerPlanMirror(init["resolver_spec"], mirror)
        loss = init["loss_pickle"]
        return cls(
            w, compute, resolver,
            _build_wave_programs(resolver, graph, init["fuse_waves"]),
            None if loss is None else pickle.loads(loss),
            init["deadlock_timeout"],
            remote=True, grad_sink=grad_sink,
        )

    def run_step(self, cmd, chans, on_losses=None) -> Report:
        """Run one step command over ``chans`` and report how it went:
        "ok" with ``(losses, pstate, grads, lanes)``, "deadlock" for a
        channel or version-gate timeout, "error" for anything else.  On the
        sink, ``on_losses`` gets the early "losses" report as soon as every
        forward wrote its loss.  Whatever happens, nothing of this step
        stays pinned in the channels afterwards."""
        compute = self.compute
        if self.remote:
            self.resolver.t = cmd.t
            chans.step = cmd.seq
        losses = [0.0] * self.resolver.num_microbatches
        sink = self.loss_fn is not None
        early = None
        if sink and on_losses is not None:
            def early():
                on_losses(Report(self.w, cmd.seq, "losses", payload=list(losses)))
        busy = stall = 0.0
        kind, payload = "ok", None
        xfer_fn = getattr(chans, "xfer_seconds", None)
        xfer0 = xfer_fn() if xfer_fn is not None else 0.0
        self.arena.begin_program(cmd.seq)
        try:
            if self.remote:
                for b in compute.bindings:
                    for p in b.params:
                        p.grad.fill(0.0)
                compute.zero_deferred()
            busy, stall, lanes = _execute_program(
                compute, self.programs[bool(cmd.sync)][self.w], self.resolver,
                cmd.t, cmd.sync, chans, self.loss_fn, cmd.ext, cmd.ys,
                cmd.scales, losses, self.timeout, early,
            )
            grads = self.grad_sink(compute, cmd.seq) if self.grad_sink else None
            payload = (
                losses if sink else None,
                compute.persistent_state() if self.has_pstate else None,
                grads,
                pack_lanes(lanes),
            )
        except TransportTimeout as exc:
            kind, payload = "deadlock", str(exc)
        except BaseException as exc:  # noqa: BLE001 — relayed to driver
            kind, payload = "error", _picklable_exc(exc) if self.remote else exc
        finally:
            # An aborted step must not starve producers on pinned slots.
            chans.release_all()
        xfer = (xfer_fn() - xfer0) if xfer_fn is not None else 0.0
        return Report(self.w, cmd.seq, kind, busy, xfer, stall, payload)
