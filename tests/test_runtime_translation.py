"""Differential tests: translation (the two-stream Transformer) on the
concurrent runtimes must be bit-for-bit identical to the sequential
simulator.

This is the stage-graph analogue of ``tests/test_runtime_equivalence.py`` /
``tests/test_runtime_process.py``: the encoder and decoder slice as parallel
chains that merge at cross-attention
(:meth:`repro.models.Transformer.pipeline_graph`), external inputs (src and
tgt token streams) are routed to different workers, tuple payloads carry
masks and the encoder memory across edges, and the tied-embedding /
tied-projection gradient protocols must reproduce the monolithic backward
exactly.  Every case trains the same workload twice (same seed, same data)
and asserts per-step losses compare equal as floats and final weights are
bitwise equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PipeMareConfig
from repro.experiments.workloads import make_translation_workload
from repro.models.transformer import transformer_tiny
from repro.pipeline import partition_model
from repro.pipeline.stage_compute import (
    GraphNode,
    StageGraph,
    build_worker_graph,
)

TIMEOUT = 15.0  # deadlock timeout for every runtime in this file


def small_workload(preset: str = "iwslt", **overrides):
    kw = dict(
        batches_per_epoch=4, batch_size=16, num_microbatches=4, eval_size=8
    )
    kw.update(overrides)
    return make_translation_workload(preset, **kw)


def sample_batches(workload, n: int = 5, batch: int = 16, seed: int = 5):
    """Fixed batches drawn without disturbing the workload's own stream."""
    rng = np.random.default_rng(seed)
    saved = workload.task.rng
    workload.task.rng = rng
    batches = [workload.task.sample_batch(batch) for _ in range(n)]
    workload.task.rng = saved
    return batches


def assert_equivalent(workload, runtime, steps=5, **bundle_kw):
    batches = sample_batches(workload, n=steps)
    b_sim = workload.bundle(runtime="simulator", seed=0, **bundle_kw)
    b_rt = workload.bundle(runtime=runtime, seed=0, **bundle_kw)
    try:
        for i, bt in enumerate(batches):
            l1 = b_sim.executor.train_step((bt.src, bt.tgt_in), bt.tgt_out)
            l2 = b_rt.executor.train_step((bt.src, bt.tgt_in), bt.tgt_out)
            assert l1 == l2, f"step {i}: simulator loss {l1!r} != {runtime} loss {l2!r}"
        b_rt.executor.sync()  # settle the overlapped boundary before comparing
        for p1, p2 in zip(b_sim.model.parameters(), b_rt.model.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)
    finally:
        b_rt.executor.close()


TECHNIQUES = {
    "t1": dict(pipemare=PipeMareConfig.t1_only(anneal_steps=50)),
    "t2": dict(pipemare=PipeMareConfig.t2_only(decay=0.5)),
    "t1t2": dict(pipemare=PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5)),
    "t3": dict(pipemare=PipeMareConfig.full(anneal_steps=50, warmup_steps=2, decay=0.5)),
    "recompute": dict(pipemare=PipeMareConfig.t2_only(decay=0.5), recompute_segment=2),
}


@pytest.fixture(scope="module")
def iwslt():
    return small_workload("iwslt")


@pytest.fixture(scope="module")
def wmt():
    return small_workload("wmt")


class TestThreadDifferentialGrid:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("method", ["gpipe", "pipedream", "pipemare"])
    def test_methods_match_bitwise(self, iwslt, method):
        assert_equivalent(iwslt, "async", method=method)

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    def test_pipemare_techniques_match_bitwise(self, iwslt, technique):
        assert_equivalent(iwslt, "async", method="pipemare", **TECHNIQUES[technique])

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("num_stages", [4, None])
    def test_stage_counts_match_bitwise(self, iwslt, num_stages):
        """Coarse partitions merge stream heads onto one worker; the finest
        partition splits every unit — both must stay exact."""
        assert_equivalent(iwslt, "async", method="pipemare", num_stages=num_stages)

    @pytest.mark.timeout(120)
    def test_shared_embeddings_match_bitwise(self, wmt):
        """WMT preset: tied encoder/decoder embedding (one worker, two call
        sites, LIFO cache stack) plus the tied output projection (borrowed
        weights + deferred gradient fold on the last worker)."""
        assert_equivalent(
            wmt, "async", method="pipemare",
            pipemare=PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5),
        )


class TestProcessDifferentialGrid:
    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("method", ["gpipe", "pipedream", "pipemare"])
    def test_methods_match_bitwise(self, iwslt, method):
        assert_equivalent(iwslt, "process", method=method)

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("technique", ["t1t2", "t3", "recompute"])
    def test_pipemare_techniques_match_bitwise(self, iwslt, technique):
        assert_equivalent(iwslt, "process", method="pipemare", **TECHNIQUES[technique])

    @pytest.mark.timeout(180)
    def test_shared_embeddings_match_bitwise(self, wmt):
        """Tied weights across process boundaries: the projection worker
        borrows the embedding stage's version window from the shared mirror
        and ships its deferred contribution home through persistent state."""
        assert_equivalent(
            wmt, "process", method="pipemare",
            pipemare=PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5),
        )

    @pytest.mark.timeout(180)
    def test_dropout_matches_bitwise(self):
        """Counter-based dropout: process workers regenerate the driver's
        masks from (seed, layer, step, microbatch) alone."""
        wl = small_workload("iwslt", dropout=0.1)
        assert_equivalent(wl, "process", method="pipemare")


@pytest.mark.net
class TestSocketDifferentialGrid:
    """Every payload and every per-worker weight slice over real sockets."""

    @pytest.mark.timeout(90)
    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("method", ["gpipe", "pipedream", "pipemare"])
    def test_methods_match_bitwise(self, iwslt, method, overlap):
        assert_equivalent(iwslt, "socket", method=method, overlap_boundary=overlap)

    @pytest.mark.timeout(90)
    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    def test_pipemare_techniques_match_bitwise(self, iwslt, technique, overlap):
        assert_equivalent(
            iwslt, "socket", method="pipemare", overlap_boundary=overlap,
            **TECHNIQUES[technique],
        )

    @pytest.mark.timeout(90)
    def test_shared_embeddings_match_bitwise(self, wmt):
        """The projection worker borrows the embedding stage: its weight
        slice must carry that stage too, though it binds none of it."""
        assert_equivalent(
            wmt, "socket", method="pipemare",
            pipemare=PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5),
        )


class TestTrainerIntegration:
    @pytest.mark.timeout(120)
    def test_workload_run_on_async_runtime(self, iwslt):
        """The full trainer loop (train + BLEU eval per epoch) works against
        the concurrent runtime and reports the runtime in the metadata."""
        res = iwslt.run(method="gpipe", epochs=1, seed=0, runtime="async")
        assert res.meta["runtime"] == "async"
        assert len(res.tracker) == 1

    def test_all_runtimes_supported(self, iwslt):
        assert iwslt.supported_runtimes() == (
            "simulator", "async", "process", "socket",
        )

    def test_unknown_runtime_rejected(self, iwslt):
        with pytest.raises(ValueError, match="unknown runtime"):
            iwslt.bundle(runtime="hardware")


class TestStageGraphStructure:
    def test_transformer_graph_routes_two_external_inputs(self):
        model = transformer_tiny(np.random.default_rng(0))
        graph = build_worker_graph(model, partition_model(model, 12))
        assert graph.num_external == 2
        # Both token streams enter at the embedding worker(s); every
        # external index is consumed somewhere.
        consumed = {
            e.ext_index for e in graph.edges if e.src is None
        }
        assert consumed == {0, 1}
        # The loss sits on the last worker (scheduler requirement).
        assert graph.sink.worker == graph.num_workers - 1

    def test_every_edge_flows_forward(self):
        model = transformer_tiny(np.random.default_rng(0), share_embeddings=True)
        graph = build_worker_graph(model, partition_model(model, None))
        for e in graph.cross_edges():
            assert e.src.worker < e.dst.worker

    def test_chain_models_build_one_node_graphs(self):
        from repro.models import MLP
        from repro.pipeline.stage_compute import flatten_graph

        graph = flatten_graph(MLP([4, 4, 2], np.random.default_rng(0)))
        assert [n.name for n in graph.nodes] == ["chain"]
        assert graph.num_external == 1

    def test_graph_validation_rejects_unknown_producer(self):
        from repro.nn import Linear

        lin = Linear(2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="not an earlier node"):
            StageGraph([GraphNode("a", (lin,), ("b",))])

    def test_graph_validation_rejects_dangling_node(self):
        from repro.nn import Linear

        r = np.random.default_rng(0)
        a, b = Linear(2, 2, r), Linear(2, 2, r)
        with pytest.raises(ValueError, match="consumed 0 times"):
            StageGraph([
                GraphNode("a", (a,), ("ext:0",)),
                GraphNode("b", (b,), ("ext:1",)),
            ])

    def test_graph_validation_rejects_duplicate_names(self):
        from repro.nn import Linear

        r = np.random.default_rng(0)
        with pytest.raises(ValueError, match="duplicate"):
            StageGraph([
                GraphNode("a", (Linear(2, 2, r),), ("ext:0",)),
                GraphNode("a", (Linear(2, 2, r),), ("a",)),
            ])
