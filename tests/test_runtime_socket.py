"""Differential tests: the framed-socket runtime must be bit-for-bit
identical to the sequential simulator.

Same contract as ``tests/test_runtime_process.py`` for the shared-memory
backend — same grid, same assertion style — but every payload crosses a
real socket (UDS loopback by default, one TCP case): spec-based worker
construction, the version-gated remote weight mirror, gradients riding
the done reports, persistent-state sync back, and checkpoint resync over
the control channel.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.core import PipeMareConfig
from repro.experiments.workloads import make_translation_workload
from repro.models import MLP
from repro.models.resnet import resnet_tiny
from repro.nn import CrossEntropyLoss
from repro.optim import SGD, AdamW
from repro.pipeline import (
    RUNTIME_BACKENDS,
    AsyncPipelineRuntime,
    PipelineExecutor,
    make_backend,
    partition_model,
)
from repro.pipeline.executor import param_groups_from_stages
from repro.pipeline.net import (
    K_VELOCITY,
    K_WEIGHTS,
    RemoteWeightMirror,
    Transport,
    decode_arrays,
    encode_arrays,
)

pytestmark = [pytest.mark.net, pytest.mark.usefixtures("no_leaks")]

TIMEOUT = 15.0  # deadlock timeout for every runtime in this file


def toy_classification(rng, d=6, c=3, n=96):
    centers = rng.normal(size=(c, d)) * 2
    y = rng.integers(0, c, size=n)
    x = centers[y] + rng.normal(size=(n, d))
    return x, y


def build_mlp_backend(cls, method, *, num_stages, num_microbatches, cfg=None,
                      seed=7, lr=0.05, momentum=0.9, dims=(6, 8, 8, 8, 3), **kw):
    model = MLP(list(dims), np.random.default_rng(seed))
    stages = partition_model(model, num_stages)
    opt = SGD(param_groups_from_stages(stages), lr=lr, momentum=momentum)
    backend = cls(
        model, CrossEntropyLoss(), opt, stages, num_microbatches, method,
        pipemare=cfg, **kw,
    )
    return model, backend


def build_socket_backend(method, **kw):
    kw.setdefault("deadlock_timeout", TIMEOUT)
    return build_mlp_backend(AsyncPipelineRuntime, method, backend="socket", **kw)


def assert_equivalent(m1, ex, m2, rt, x, y, steps=6, batch=16):
    for i in range(steps):
        b = slice((i * batch) % (len(x) - batch + 1), (i * batch) % (len(x) - batch + 1) + batch)
        l1 = ex.train_step(x[b], y[b])
        l2 = rt.train_step(x[b], y[b])
        assert l1 == l2, f"step {i}: simulator loss {l1!r} != socket loss {l2!r}"
    if hasattr(rt, "sync"):
        rt.sync()  # settle a pending overlapped boundary before comparing
    for p1, p2 in zip(m1.parameters(), m2.parameters()):
        np.testing.assert_array_equal(p1.data, p2.data)


TECHNIQUES = {
    "plain": dict(cfg=None, kw={}),
    "t1": dict(cfg=PipeMareConfig.t1_only(anneal_steps=50), kw={}),
    "t2": dict(cfg=PipeMareConfig.t2_only(decay=0.5), kw={}),
    "t1t2": dict(cfg=PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5), kw={}),
    "t3": dict(
        cfg=PipeMareConfig.full(anneal_steps=50, warmup_steps=2, decay=0.5), kw={}
    ),
    "recompute": dict(
        cfg=PipeMareConfig.t2_only(decay=0.5), kw={"recompute_segment": 2}
    ),
}


class TestDifferentialGrid:
    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("method", ["gpipe", "pipedream", "pipemare"])
    @pytest.mark.parametrize("num_stages,num_microbatches", [(2, 2), (4, 2), (4, 4), (3, 4)])
    def test_methods_match_bitwise(self, rng, method, num_stages, num_microbatches):
        x, y = toy_classification(rng)
        m1, ex = build_mlp_backend(
            PipelineExecutor, method,
            num_stages=num_stages, num_microbatches=num_microbatches,
        )
        m2, rt = build_socket_backend(
            method, num_stages=num_stages, num_microbatches=num_microbatches,
        )
        with rt:
            assert rt.num_workers == num_stages
            assert rt.pool.kind == "socket"
            assert_equivalent(m1, ex, m2, rt, x, y)

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    def test_pipemare_techniques_match_bitwise(self, rng, technique):
        x, y = toy_classification(rng)
        spec = TECHNIQUES[technique]
        m1, ex = build_mlp_backend(
            PipelineExecutor, "pipemare", num_stages=4, num_microbatches=2,
            cfg=spec["cfg"], **spec["kw"],
        )
        m2, rt = build_socket_backend(
            "pipemare", num_stages=4, num_microbatches=2,
            cfg=spec["cfg"], **spec["kw"],
        )
        with rt:
            assert_equivalent(m1, ex, m2, rt, x, y, steps=8)

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("overlap", [True, False])
    def test_overlap_on_and_off_match(self, rng, overlap):
        """The overlapped optimizer boundary must not change the trajectory
        over sockets, exactly as over rings and queues."""
        x, y = toy_classification(rng)
        m1, ex = build_mlp_backend(
            PipelineExecutor, "pipemare", num_stages=4, num_microbatches=2,
        )
        m2, rt = build_socket_backend(
            "pipemare", num_stages=4, num_microbatches=2,
            overlap_boundary=overlap,
        )
        with rt:
            assert_equivalent(m1, ex, m2, rt, x, y)

    @pytest.mark.timeout(180)
    def test_ragged_microbatches_match(self, rng):
        """10 samples into 4 microbatches: the per-microbatch grad weighting
        must agree across backends."""
        x, y = toy_classification(rng, n=10)
        m1, ex = build_mlp_backend(PipelineExecutor, "pipemare", num_stages=4, num_microbatches=4)
        m2, rt = build_socket_backend("pipemare", num_stages=4, num_microbatches=4)
        with rt:
            for _ in range(4):
                assert ex.train_step(x, y) == rt.train_step(x, y)
            rt.sync()
            for p1, p2 in zip(m1.parameters(), m2.parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)

    @pytest.mark.timeout(180)
    def test_adamw_backend_matches(self, rng):
        """Optimizer state (moments) must evolve identically too — the
        optimizer consumes gradients that rode the done reports."""
        x, y = toy_classification(rng)
        models, backends = [], []
        for cls, kw in (
            (PipelineExecutor, {}),
            (AsyncPipelineRuntime, {"backend": "socket", "deadlock_timeout": TIMEOUT}),
        ):
            model = MLP([6, 8, 8, 3], np.random.default_rng(3))
            stages = partition_model(model, 3)
            opt = AdamW(param_groups_from_stages(stages), lr=0.01, weight_decay=0.01)
            backends.append(cls(model, CrossEntropyLoss(), opt, stages, 2, "pipemare", **kw))
            models.append(model)
        m1, m2 = models
        ex, rt = backends
        with rt:
            assert_equivalent(m1, ex, m2, rt, x, y)

    @pytest.mark.timeout(240)
    def test_resnet_batchnorm_matches_and_syncs_running_stats(self, rng):
        """BatchNorm emits transposed NCHW intermediates (the frame codec
        must preserve memory layout for bit equality) and its running
        statistics mutate inside the workers — they must land back in the
        driver's model."""
        x = rng.normal(size=(16, 3, 8, 8))
        y = rng.integers(0, 10, size=16)
        models, backends = [], []
        for cls, kw in (
            (PipelineExecutor, {}),
            (AsyncPipelineRuntime, {"backend": "socket", "deadlock_timeout": TIMEOUT}),
        ):
            model = resnet_tiny(np.random.default_rng(1), norm="batch")
            stages = partition_model(model, 4)
            opt = SGD(param_groups_from_stages(stages), lr=0.05, momentum=0.9)
            backends.append(cls(model, CrossEntropyLoss(), opt, stages, 4, "pipemare", **kw))
            models.append(model)
        ex, rt = backends
        with rt:
            for _ in range(3):
                assert ex.train_step(x, y) == rt.train_step(x, y)
            rt.sync()
            for p1, p2 in zip(models[0].parameters(), models[1].parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)
            for m_sim, m_sock in zip(models[0].modules(), models[1].modules()):
                for name, value in m_sim.__dict__.items():
                    if (
                        not name.startswith("_")
                        and isinstance(value, np.ndarray)
                        and name not in m_sim._parameters
                    ):
                        np.testing.assert_array_equal(
                            value, m_sock.__dict__[name],
                            err_msg=f"{type(m_sim).__name__}.{name} not synced",
                        )

    @pytest.mark.timeout(180)
    def test_tcp_family_matches(self, rng):
        """Same trajectory over TCP loopback — length-prefixed framing must
        hold across the byte-stream semantics of a real TCP connection
        (Nagle off, partial reads, coalesced segments)."""
        x, y = toy_classification(rng)
        m1, ex = build_mlp_backend(
            PipelineExecutor, "pipemare", num_stages=3, num_microbatches=2,
        )
        m2, rt = build_socket_backend(
            "pipemare", num_stages=3, num_microbatches=2,
            net_options={"family": "tcp"},
        )
        with rt:
            assert_equivalent(m1, ex, m2, rt, x, y, steps=4)


class TestRuntimeContract:
    @pytest.mark.timeout(180)
    def test_checkpoint_roundtrip_from_simulator(self, rng):
        """A simulator checkpoint restored into the socket runtime resyncs
        every remote mirror (K_RESET + version window + velocities over the
        weight channel, a resync barrier on the control channel) and
        continues the exact same trajectory."""
        x, y = toy_classification(rng)
        m1, ex = build_mlp_backend(PipelineExecutor, "pipemare", num_stages=4, num_microbatches=2)
        for i in range(3):
            ex.train_step(x[i * 16:(i + 1) * 16], y[i * 16:(i + 1) * 16])
        state = ex.state_dict()
        opt_state = ex.optimizer.state_dict()

        m2, rt = build_socket_backend("pipemare", num_stages=4, num_microbatches=2)
        with rt:
            m2.load_state_dict(m1.state_dict())
            rt.optimizer.load_state_dict(opt_state)
            rt.load_state_dict(state)
            assert rt.t == ex.t
            for i in range(3, 6):
                b = slice((i * 16) % 80, (i * 16) % 80 + 16)
                assert ex.train_step(x[b], y[b]) == rt.train_step(x[b], y[b])

    @pytest.mark.timeout(180)
    def test_make_backend_dispatch(self, rng):
        x, y = toy_classification(rng)
        assert "socket" in RUNTIME_BACKENDS
        model = MLP([6, 8, 3], np.random.default_rng(0))
        stages = partition_model(model, 2)
        opt = SGD(param_groups_from_stages(stages), lr=0.05)
        rt = make_backend(
            "socket", model, CrossEntropyLoss(), opt, stages, 2, "pipemare",
            deadlock_timeout=TIMEOUT,
        )
        try:
            assert isinstance(rt, AsyncPipelineRuntime)
            assert rt.backend == "socket"
            rt.train_step(x[:16], y[:16])
        finally:
            rt.close()

    @pytest.mark.timeout(120)
    def test_replicas_not_supported_yet(self, rng):
        with pytest.raises(ValueError, match="num_replicas"):
            build_socket_backend(
                "pipemare", num_stages=2, num_microbatches=2, num_replicas=2,
            )

    @pytest.mark.timeout(120)
    def test_net_options_rejected_off_socket(self, rng):
        with pytest.raises(ValueError, match="net_options"):
            build_mlp_backend(
                AsyncPipelineRuntime, "pipemare", num_stages=2,
                num_microbatches=2, backend="process",
                net_options={"family": "tcp"},
            )

    @pytest.mark.timeout(180)
    def test_closed_runtime_rejects_steps(self, rng):
        x, y = toy_classification(rng)
        m, rt = build_socket_backend("pipemare", num_stages=2, num_microbatches=2)
        rt.close()
        rt.close()  # idempotent
        with pytest.raises(RuntimeError):
            rt.train_step(x[:16], y[:16])


class TestPerWorkerWeightSlices:
    """Each socket worker is sent, and holds, only the stages it reads —
    the spatial partitioning that keeps publish traffic per worker."""

    def test_unheld_stage_raises_naming_worker_and_stage(self):
        a, b = socket.socketpair()
        driver = Transport(a)
        mirror = RemoteWeightMirror(
            Transport(b), {1: [(2,)], 3: [(2, 2)]}, history=2,
            with_velocity=True, worker=4,
        )
        try:
            w1, w3 = np.arange(2.0), np.ones((2, 2))
            driver.send_frame(K_VELOCITY, encode_arrays((w1 / 2, w3 / 2), -1))
            driver.send_frame(K_WEIGHTS, encode_arrays((w1, w3), 0))
            mirror.wait_version(0, TIMEOUT)
            assert mirror.stages == [1, 3]
            np.testing.assert_array_equal(mirror.weights(3, 0)[0], w3)
            np.testing.assert_array_equal(mirror.velocity(1)[0], w1 / 2)
            with pytest.raises(KeyError, match=r"worker 4 does not hold stage 0\b"):
                mirror.weights(0, 0)
            with pytest.raises(KeyError, match=r"worker 4 does not hold stage 2\b"):
                mirror.velocity(2)
        finally:
            mirror.close()
            driver.close()

    @pytest.mark.timeout(180)
    def test_translation_publish_sends_each_worker_its_slice(self):
        wl = make_translation_workload(
            "iwslt", batches_per_epoch=4, batch_size=16, num_microbatches=4,
            eval_size=8,
        )
        bundle = wl.bundle(
            method="pipemare", seed=0, runtime="socket",
            pipemare=PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5),
        )
        rt = bundle.executor
        try:
            pool = rt.pool
            owned = [compute.stages for compute in pool.graph.workers]
            assert len(pool.stages) == 12 and len(owned) == 5
            assert 2 in owned[0] and 2 in owned[1]  # a sublayer-split stage
            assert pool._read_stages == owned  # no borrowed stages on iwslt
            # What init ships each worker — the shapes its mirror is built
            # from (the worker refuses init unless they match its slice).
            assert [sorted(pool._slice_shapes(w)) for w in range(5)] == owned
            stage_bytes = [sum(p.data.nbytes for p in s.params) for s in pool.stages]
            shapes = [
                [tuple(p.shape) for s in stages for p in pool.stages[s].params]
                for stages in owned
            ]

            sent = []  # (worker, kind, decoded arrays)
            for w, conn in enumerate(pool._weight_conns):
                def send_frame(kind, body, timeout=None, _w=w, _send=conn.send_frame):
                    sent.append((_w, kind, decode_arrays(body)[1]))
                    _send(kind, body, timeout)
                conn.send_frame = send_frame

            pool.publish_plan_state()
            for kind in (K_VELOCITY, K_WEIGHTS):
                frames = [(w, arrays) for w, k, arrays in sent if k == kind]
                assert [w for w, _ in frames] == list(range(5))
                for w, arrays in frames:
                    assert [a.shape for a in arrays] == shapes[w]
                assert sum(a.nbytes for _, arrays in frames for a in arrays) == sum(
                    stage_bytes[s] for stages in owned for s in stages
                )

            # A per-worker replacement's fresh mirror is sent its slice alone.
            sent.clear()
            pool._publish_window(workers=[3])
            assert {w for w, _, _ in sent} == {3}
            assert all([a.shape for a in arrays] == shapes[3] for _, _, arrays in sent)

            batch = wl.task.sample_batch(16)
            rt.train_step((batch.src, batch.tgt_in), batch.tgt_out)
            rt.sync()
        finally:
            rt.close()
