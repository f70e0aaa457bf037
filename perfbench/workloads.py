"""The three benchmark workloads, each buildable on any backend and seed.

Every workload builds the program through its public API only
(``make_image_workload``/``make_translation_workload`` + ``bundle``, or
``Partitioner`` + ``make_backend`` for the MLP).  ``build(runtime, seed)``
seeds the model and ``batches(seed)`` the minibatches; the simulator build
of the same seed is the correctness reference.

The measured run always trains the pinned trajectory of seed
:data:`TRAJECTORY_SEED`.  Epochs-to-target is a property of the seed, not
of the runtime (the backends are bit-exact): on the CIFAR stand-in seeds
0-3 reach 80% at epochs 13, 16, 14 and never, and on the window workloads
the crossing moves by ~15% between seeds.  Varying it would bury every
runtime change in trajectory noise.  The run's own seed drives the set-up
probes and a second, randomly drawn differential check against the
simulator.  ``tiny=True`` shrinks every size for the smoke tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.workloads import make_image_workload, make_translation_workload
from repro.models import MLP
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.pipeline import Method, Partitioner, make_backend
from repro.pipeline.executor import param_groups_from_stages

TRAJECTORY_SEED = 0


@dataclass
class Built:
    """One constructed backend plus what the driver loop needs."""

    executor: object
    trainer: object  # the workload's PipelineTrainer (None for the MLP)
    model: object


class CifarTTA:
    """ResNet on the CIFAR stand-in (7 workers, N=4), PipeMare T1+T2,
    trained through ``PipelineTrainer`` with an eval every epoch until a
    fixed test accuracy."""

    name = "cifar-tta-thread"
    why = ("time to 80% test accuracy on the wall clock: GIL-bound small convs, "
           "trainer, eval and boundary path, no transport")
    runtime = "async"
    kind = "tta"

    def __init__(self, tiny: bool = False):
        self.overrides = dict(num_train=64, num_test=32) if tiny else {}
        # Tiny runs stop at the first eval: they check plumbing, not quality.
        self.target = 0.0 if tiny else 80.0
        self.max_epochs = 3 if tiny else 30
        self.samples_per_step = make_image_workload("cifar", **self.overrides).batch_size

    def build(self, runtime: str, seed: int) -> Built:
        wl = make_image_workload("cifar", **self.overrides)
        b = wl.bundle(method=Method.PIPEMARE, pipemare=wl.default_config(),
                      seed=seed, runtime=runtime)
        return Built(b.executor, b.trainer, b.model)

    def batches(self, seed: int) -> list:
        """The first epoch of the trainer's minibatch stream for ``seed``."""
        built = self.build("simulator", seed)
        return list(built.trainer.batch_fn(np.random.default_rng((seed, 0))))


class MlpWideProcess:
    """MLP ``[512]*4+[10]``, P=4, N=8, 48 samples per microbatch, PipeMare,
    process backend with the overlapped boundary.  Eight fixed minibatches
    (Gaussian inputs, labels from a random linear teacher) form one epoch;
    the quality target is the mean training loss over the last epoch."""

    name = "mlp-wide-process"
    why = ("compute-bound BLAS matmuls, large activations over shm rings, "
           "6.3 MB weight window through the shared mirror")
    runtime = "process"
    kind = "window"
    stages = 4
    microbatches = 8

    def __init__(self, tiny: bool = False):
        self.width = 64 if tiny else 512
        self.samples_per_step = self.microbatches * (4 if tiny else 48)
        self.steps_per_epoch = 2 if tiny else 8
        self.target = 10.0 if tiny else 0.2

    def batches(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        teacher = rng.normal(size=(self.width, 10))
        out = []
        for _ in range(self.steps_per_epoch):
            x = rng.normal(size=(self.samples_per_step, self.width))
            out.append((x, np.argmax(x @ teacher, axis=1)))
        return out

    def build(self, runtime: str, seed: int) -> Built:
        dims = [self.width] * self.stages + [10]
        model = MLP(dims, np.random.default_rng(seed))
        plan = Partitioner("even").plan(model, self.stages)
        stages = plan.stages(model)
        opt = SGD(param_groups_from_stages(stages), lr=0.01, momentum=0.9)
        ex = make_backend(runtime, model, CrossEntropyLoss(), opt, stages,
                          self.microbatches, Method.PIPEMARE, partition_plan=plan,
                          overlap_boundary=True)
        return Built(ex, None, model)


class TranslationSocket:
    """The IWSLT stand-in Transformer (12 stages on 5 workers, N=8, batch
    32), PipeMare T1+T2 on the socket backend.  24 fixed minibatches of the
    reversal task form one epoch; the quality target is the mean training
    loss over the last epoch."""

    name = "translation-socket"
    why = ("compute-light two-stream stage graph: many small waves and frames, "
           "where socket, publish and hand-off costs show")
    runtime = "socket"
    kind = "window"

    def __init__(self, tiny: bool = False):
        self.overrides = (dict(batch_size=8, num_microbatches=4, batches_per_epoch=2,
                               eval_size=4) if tiny else {})
        wl = make_translation_workload("iwslt", **self.overrides)
        self.samples_per_step = wl.batch_size
        self.steps_per_epoch = wl.batches_per_epoch
        self.target = 10.0 if tiny else 2.7

    def batches(self, seed: int) -> list:
        wl = make_translation_workload("iwslt", **self.overrides)
        wl.task.rng = np.random.default_rng(seed)
        samples = [wl.task.sample_batch(wl.batch_size) for _ in range(self.steps_per_epoch)]
        return [((b.src, b.tgt_in), b.tgt_out) for b in samples]

    def build(self, runtime: str, seed: int) -> Built:
        wl = make_translation_workload("iwslt", **self.overrides)
        b = wl.bundle(method=Method.PIPEMARE, pipemare=wl.default_config(),
                      seed=seed, runtime=runtime)
        return Built(b.executor, b.trainer, b.model)


WORKLOADS = {w.name: w for w in (CifarTTA, MlpWideProcess, TranslationSocket)}
