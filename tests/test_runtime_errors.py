"""Error-path regressions for the concurrent runtime (thread backend; the
worker-exception path runs on the thread, process and socket backends).

Covers the bugfixes shipped with the process-backend PR:

* a worker exception mid-step used to re-raise without restoring the
  latest weight version, leaving ``Parameter.data`` aliased to whatever
  historical version the failing slice last loaded — evaluation or
  checkpointing after a caught error silently read delayed weights;
* the deadlock path used to overwrite ``stats.last_busy`` for workers that
  did report while never updating ``last_wall``/``total_wall``/``steps``,
  so measured bubble fractions mixed busy time from aborted steps with
  wall time that excluded them.  Stats now commit atomically, for
  completed steps only;
* ``close()`` after a deadlock must join all workers without hanging.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.models import MLP
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.pipeline import (
    AsyncPipelineRuntime,
    PipelineDeadlockError,
    PipelineExecutor,
    RuntimeWedgedError,
    partition_model,
)
from repro.pipeline.executor import param_groups_from_stages
from repro.pipeline.waveprogram import WaveBlock, WaveProgram

pytestmark = pytest.mark.usefixtures("no_leaks")


def toy_data(rng, n=96):
    centers = rng.normal(size=(3, 6)) * 2
    y = rng.integers(0, 3, size=n)
    x = centers[y] + rng.normal(size=(n, 6))
    return x, y


def build(cls, seed=7, **kw):
    model = MLP([6, 8, 8, 8, 3], np.random.default_rng(seed))
    stages = partition_model(model, 4)
    opt = SGD(param_groups_from_stages(stages), lr=0.05, momentum=0.9)
    return model, cls(model, CrossEntropyLoss(), opt, stages, 2, "pipemare", **kw)


def starved_programs(rt):
    """Compiled programs whose dataflow can never be satisfied: worker 0
    waits for a gradient nobody sends, everyone else idles."""
    starved = WaveProgram(
        blocks=(WaveBlock(ops=(("B", 0),), gate_delay=None, loads=(True,)),),
        num_waves=1,
        num_forwards=0,
    )
    idle = WaveProgram(blocks=(), num_waves=0, num_forwards=0)
    return {
        False: [starved] + [idle for _ in range(rt.num_workers - 1)],
        True: rt.pool._programs[True],
    }


def assert_latest_weights_live(rt):
    for s, stage in enumerate(rt.stages):
        for p, stored in zip(stage.params, rt.store.weights(s, rt.store.latest_version)):
            assert p.data is stored, (
                f"stage {s}: Parameter.data aliases a historical version "
                "after a worker error"
            )


def assert_stats_untouched(rt):
    assert rt.stats.steps == 0
    assert rt.stats.total_wall == 0.0
    assert rt.stats.last_wall == 0.0
    assert all(b == 0.0 for b in rt.stats.total_busy)
    assert all(b == 0.0 for b in rt.stats.last_busy)


class TestWorkerExceptionPath:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize(
        "backend", ["thread", "process", pytest.param("socket", marks=pytest.mark.net)]
    )
    def test_exception_restores_latest_weights_and_stays_usable(self, rng, backend):
        """A worker exception mid-step surfaces as the worker's own
        ``ValueError`` on every backend, both as the very first step and
        with a completed step still in flight.  Afterwards every parameter
        points at the latest stored version, not a delayed one (regression:
        the error used to leave ``Parameter.data`` aliased to a historical
        version).  Aborted steps commit no stats, and the runtime continues
        bit-identical to the simulator."""
        x, y = toy_data(rng)
        m1, ex = build(PipelineExecutor)
        m2, rt = build(AsyncPipelineRuntime, backend=backend, deadlock_timeout=5.0)
        with rt:
            with pytest.raises(ValueError, match="expected trailing dim 6"):
                rt.train_step(x[:16, :4], y[:16])  # wrong feature dim
            assert_stats_untouched(rt)
            assert_latest_weights_live(rt)
            assert ex.train_step(x[:16], y[:16]) == rt.train_step(x[:16], y[:16])
            with pytest.raises(ValueError, match="expected trailing dim 6"):
                rt.train_step(x[:16, :4], y[:16])
            assert_latest_weights_live(rt)
            # Only the completed step is in the stats: the aborted one
            # added neither busy nor wall time.
            assert rt.stats.steps == 1
            assert rt.stats.total_wall == rt.stats.last_wall > 0.0
            assert rt.stats.total_busy == rt.stats.last_busy
            for i in range(1, 4):
                b = slice(i * 16, (i + 1) * 16)
                assert ex.train_step(x[b], y[b]) == rt.train_step(x[b], y[b])
            rt.sync()  # drain in-flight steps so every wall clock is committed
            assert rt.stats.steps == 4
            for p1, p2 in zip(m1.parameters(), m2.parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)


class TestDeadlockPath:
    @pytest.mark.timeout(60)
    def test_starved_worker_raises_and_commits_no_stats(self, rng):
        """A program whose dataflow can never be satisfied (worker 0 waits
        for a gradient nobody sends) must abort with PipelineDeadlockError
        after the worker's own channel timeout — with stats untouched
        (regression: the old code recorded last_busy for reporting workers
        while skipping wall/steps)."""
        x, y = toy_data(rng)
        m, rt = build(AsyncPipelineRuntime, deadlock_timeout=0.3, done_grace=5.0)
        with rt:
            good_programs = rt.pool._programs
            rt.pool._programs = starved_programs(rt)
            with pytest.raises(PipelineDeadlockError):
                rt.train_step(x[:16], y[:16])
            assert_stats_untouched(rt)
            assert not rt.pool.wedged  # every worker reported; pool is intact
            # restore the real schedule: the runtime keeps working
            rt.pool._programs = good_programs
            loss = rt.train_step(x[:16], y[:16])
            assert np.isfinite(loss)
            rt.sync()  # the step's stats commit when it is collected
            assert rt.stats.steps == 1

    @pytest.mark.timeout(60)
    def test_silent_worker_wedges_and_close_returns(self, rng):
        """A worker that never reports back (here: stuck in a long compute)
        wedges the runtime: the driver gives up after deadlock_timeout +
        done_grace, close() still joins without hanging, and further steps
        are rejected explicitly."""
        x, y = toy_data(rng)
        m, rt = build(AsyncPipelineRuntime, deadlock_timeout=0.3, done_grace=0.5)
        inner_forward = rt.workers[1].segments[0].forward

        def slow_forward(ins):
            time.sleep(3.0)
            return inner_forward(ins)

        rt.workers[1].segments[0].forward = slow_forward
        with pytest.raises(PipelineDeadlockError):
            rt.train_step(x[:16], y[:16])
        assert rt.pool.wedged
        assert_stats_untouched(rt)
        with pytest.raises(RuntimeWedgedError, match="wedged"):
            rt.train_step(x[:16], y[:16])
        t0 = time.perf_counter()
        rt.close()
        assert time.perf_counter() - t0 < 5.0, "close() hung after a deadlock"

    @pytest.mark.timeout(60)
    def test_deadlock_restores_latest_weights(self, rng):
        """The weight-restore guarantee holds on the deadlock path too."""
        x, y = toy_data(rng)
        m, rt = build(AsyncPipelineRuntime, deadlock_timeout=0.3, done_grace=5.0)
        with rt:
            rt.train_step(x[:16], y[:16])
            rt.pool._programs = starved_programs(rt)
            with pytest.raises(PipelineDeadlockError):
                rt.train_step(x[:16], y[:16])
            for s, stage in enumerate(rt.stages):
                for p, stored in zip(
                    stage.params, rt.store.weights(s, rt.store.latest_version)
                ):
                    assert p.data is stored


class TestStatsInvariants:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("fuse", [True, False])
    def test_fraction_decomposition_is_normalized(self, rng, backend, overlap, fuse):
        """``bubble + transport + boundary_stall`` is a partition of lost
        step time plus idle, all over the same denominator (wall x workers),
        so the three fractions must each lie in [0, 1] and sum to <= 1 —
        regression for the transport fraction using a busy-time denominator
        while the others used wall time, which let the sum exceed 1.  Runs
        fused and unfused: the coarsened per-block done reports must not
        double-count stall or busy seconds into the fractions."""
        x, y = toy_data(rng)
        m, rt = build(
            AsyncPipelineRuntime,
            backend=backend,
            deadlock_timeout=30.0,
            overlap_boundary=overlap,
            fuse_waves=fuse,
        )
        with rt:
            for i in range(3):
                b = slice(i * 16, (i + 1) * 16)
                rt.train_step(x[b], y[b])
            rt.sync()
        assert rt.stats.steps == 3
        bubble = rt.stats.bubble_fraction()
        transport = rt.stats.transport_fraction()
        boundary = rt.stats.boundary_stall_fraction()
        for name, f in (("bubble", bubble), ("transport", transport),
                        ("boundary_stall", boundary)):
            assert 0.0 <= f <= 1.0, f"{name} fraction {f} outside [0, 1]"
        assert bubble + transport + boundary <= 1.0 + 1e-9, (
            f"fractions overlap: bubble={bubble} transport={transport} "
            f"boundary_stall={boundary}"
        )
        if backend == "thread":
            assert transport == 0.0, "thread hand-offs must not count as transport"

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("fuse", [True, False])
    def test_lane_breakdowns_sum_to_worker_totals(self, rng, fuse):
        """The coarsened done report carries one ``(waves, busy, stall,
        xfer)`` lane per block; per-worker busy/stall totals must equal the
        lane sums (no block's seconds counted twice, none dropped), the
        lanes must tile the step's wave schedule exactly, and
        commands == reports == number of blocks collected."""
        x, y = toy_data(rng)
        m, rt = build(AsyncPipelineRuntime, deadlock_timeout=30.0, fuse_waves=fuse)
        with rt:
            rt.train_step(x[:16], y[:16])
            rt.sync()
        lanes = rt.stats.last_lanes
        assert len(lanes) == rt.num_workers
        blocks = sum(len(per_worker) for per_worker in lanes)
        assert rt.stats.last_commands == blocks
        assert rt.stats.last_reports == blocks
        assert rt.stats.total_commands == blocks
        if not fuse:
            # unfused = the per-wave reference: one singleton block per wave
            assert all(n == 1 for per_worker in lanes for (n, *_rest) in per_worker)
        waves = sum(n for per_worker in lanes for (n, *_rest) in per_worker)
        assert waves == sum(p.num_waves for p in rt.pool._programs[True])
        for w, per_worker in enumerate(lanes):
            busy = sum(lane[1] for lane in per_worker)
            stall = sum(lane[2] for lane in per_worker)
            assert busy == pytest.approx(rt.stats.last_busy[w], rel=1e-9, abs=1e-12)
            assert stall == pytest.approx(rt.stats.last_stall[w], rel=1e-9, abs=1e-12)
            assert all(v >= 0.0 for lane in per_worker for v in lane)


class TestCloseIdempotency:
    """``close()`` must be safe to call at any moment, any number of
    times: after clean runs, after a wedge, and with work still in
    flight after a chaos-style kill — always prompt, never raising."""

    @pytest.mark.timeout(60)
    def test_double_close_after_clean_run(self, rng):
        x, y = toy_data(rng)
        m, rt = build(AsyncPipelineRuntime, deadlock_timeout=10.0)
        rt.train_step(x[:16], y[:16])
        rt.close()
        t0 = time.perf_counter()
        rt.close()  # second close: no-op, no error
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.timeout(60)
    def test_double_close_after_wedge(self, rng):
        """Wedge the pool with a silent worker, then close twice: both
        calls must return promptly (the second as a no-op) without trying
        to sync the unfinishable in-flight step."""
        x, y = toy_data(rng)
        m, rt = build(AsyncPipelineRuntime, deadlock_timeout=0.3, done_grace=0.5)
        inner_forward = rt.workers[1].segments[0].forward
        rt.workers[1].segments[0].forward = (
            lambda ins: (time.sleep(3.0), inner_forward(ins))[1]
        )
        with pytest.raises(PipelineDeadlockError):
            rt.train_step(x[:16], y[:16])
        assert rt.pool.wedged
        t0 = time.perf_counter()
        rt.close()
        rt.close()
        assert time.perf_counter() - t0 < 5.0, "close() hung after a wedge"

    @pytest.mark.timeout(60)
    def test_close_with_inflight_step_after_process_kill(self, rng):
        """Chaos-style: SIGKILL a process worker while a step is in
        flight (overlapped boundary, so the driver hasn't collected it),
        then close without ever touching the failure.  close() must
        abandon the unfinishable step instead of waiting out sync(), and
        a second close must still be a no-op."""
        x, y = toy_data(rng)
        m, rt = build(
            AsyncPipelineRuntime, backend="process",
            deadlock_timeout=0.5, done_grace=0.5, overlap_boundary=True,
        )
        rt.train_step(x[:16], y[:16])
        rt.train_step(x[16:32], y[16:32])  # one step now rides in flight
        rt.pool._procs[1].kill()
        rt.pool._procs[1].join(5.0)
        t0 = time.perf_counter()
        rt.close()
        rt.close()
        assert time.perf_counter() - t0 < 10.0, "close() hung on a dead worker"
        assert rt._closed
