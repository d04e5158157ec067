"""Stage orchestration: pretraining runs, teacher adaptation, probing.

Each stage is a pure function of (inputs, config, seed) and returns one
``StepResult`` per step plus the trained state; the CLI persists
checkpoints and metrics.  Every stage runs through ``_run``, one
warm-up-and-step loop, so distilled and plain student training share the
same batch and augmentation streams and are bitwise comparable.

``_run`` prepares every batch in a worker process, forked before the
warm-up, one batch ahead of the step that uses it.  ``PreparedBatches``
is the one producer of a prepared batch: the stream's next batch, its
views and, in a distilled run, the frozen teacher's soft targets
(``distill.teach``).  None of them depends on the state a step trains,
so the worker's copy of the producer makes the batches an in-process one
would, and the steps only read them.  The worker and the training loop
run on two cores at once, and no result changes by a bit.

The frames belong to the worker alone, which reads each batch's rows
from the dataset as it prepares the batch: the training process never
reads a frame, and once the worker has forked it releases the
``Dataset`` the stage was given (a loaded blob's handle closes).  Each
stage takes that dataset over, so a caller that needs its frames again
loads the dataset again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .contrastive import (
    EncoderConfig,
    KeyQueue,
    MoCoState,
    StepResult,
    TrainConfig,
    build_views,
    init_moco_state,
    load_encoders,
    moco_train_step,
    save_model,  # cli and the tests call it as pipeline.save_model
    warm_up_queue,
)
from .data import Batch, BatchStream, Dataset
from .distill import distilled_train_step, teach, teacher_adapt_step
from .rng import Rng
from .worker import Worker, shared

_RING = 2  # slots the worker may fill ahead of the loop


class PreparedBatches:
    """A ``BatchStream``'s batches, each carrying the views ``build_views``
    makes for it and, given a frozen ``teacher``, what ``distill.teach``
    puts on it.  None of it depends on the state a step trains, so
    ``_ViewFeed`` runs this producer in a forked worker and the tests run
    it in process, for the same bits.

    The first ``warm_up`` batches only warm the queues, which read their
    key views alone (``warm_up_queue``, and ``teach`` before the teacher
    queue is warm), so they carry no query views."""

    def __init__(self, dataset: Dataset, cfg: TrainConfig, teacher: MoCoState | None = None):
        self.stream, self._rng = BatchStream(dataset, cfg.batch_size, cfg.seed), Rng(cfg.seed)
        self.cfg, self.teacher = cfg, teacher
        self.warm_up, self._made = cfg.queue_size // cfg.batch_size, 0

    def next_batch(self) -> Batch:
        batch = self.stream.next_batch()
        key_only, self._made = self._made < self.warm_up, self._made + 1
        batch.views = build_views(batch, self.cfg.augment, self._rng, key_only)
        if self.teacher is not None:
            teach(self.teacher, batch, self.cfg.effective_distill_tau)
        return batch


class _ViewFeed(Worker):
    """The batches of ``PreparedBatches``, prepared in a forked ``Worker``.

    The worker runs its copy of the producer ``count`` times and writes
    each batch's views, and any teacher targets and pointer, into rings of
    ``_RING`` slots in shared arrays; the loop advances its own copy of
    the stream, taking each batch's indices and epoch but not its frames,
    and copies each slot out, only its key half for a warm-up batch, the
    only half the worker wrote.  The worker fills a slot a second time
    only after the loop has released it.  The worker starts from the
    loop's dataset, stream and teacher; its teacher encodes call BLAS.
    Once it has forked, the feed keeps only its stream, without the
    dataset, and the warm-up count.
    """

    name, item = "view worker", "batch"

    def __init__(self, dataset: Dataset, cfg: TrainConfig, count: int,
                 teacher: MoCoState | None = None):
        self._source = PreparedBatches(dataset, cfg, teacher)
        self._views = shared((_RING, 2, cfg.batch_size, dataset.shape[1], *cfg.augment.output_size))
        self._targets = None
        if teacher is not None:
            self._targets = shared((_RING, cfg.batch_size, teacher.queue.capacity + 1))
            self._ptrs = shared((_RING,), np.int64)
            self._ptrs[:] = -1  # no targets in a slot until the teacher queue is warm
        super().__init__(count)
        self._stream, self._warm_up = self._source.stream, self._source.warm_up
        self._stream.dataset = self._source = None  # only the worker's copies read rows

    def next_batch(self) -> Batch:
        batch = Batch(None, *self._stream.next_indices())  # the worker has the frames
        self._wait()
        slot = (self._received - 1) % _RING
        views_q = None if self._received <= self._warm_up else self._views[slot, 0].copy()
        batch.views = (views_q, self._views[slot, 1].copy())
        if self._targets is not None and self._ptrs[slot] >= 0:
            batch.log_p_t = self._targets[slot].copy()
            batch.teacher_ptr = int(self._ptrs[slot])
        if self._received + _RING <= self._count:  # the worker fills this slot again
            self._release()
        return batch

    def _produce(self, free: int):
        for i in range(self._count):
            if i >= _RING and not os.read(free, 1):
                return  # the loop is gone: it stopped early or was killed
            slot = i % _RING
            batch = self._source.next_batch()
            views_q, self._views[slot, 1] = batch.views  # no query views on a warm-up batch
            if views_q is not None:
                self._views[slot, 0] = views_q
            if batch.log_p_t is not None:
                self._targets[slot], self._ptrs[slot] = batch.log_p_t, batch.teacher_ptr
            yield


@dataclass
class TrainRun:
    steps: list[StepResult]
    state: MoCoState


def _run(dataset: Dataset, state: MoCoState, step, teacher: MoCoState | None = None) -> TrainRun:
    """Warm the queue, then ``cfg.steps`` calls of ``step(state, batch)``.

    Every batch, the warm-up's and the steps', comes prepared from a
    ``_ViewFeed`` forked before the warm-up, with the ``teacher``'s soft
    targets once its queue is warm.  Once it has forked, ``dataset`` is
    released (``Dataset.release_frames``): only the worker reads its rows,
    this process never.  The worker is
    reaped before ``_run`` returns or raises; a worker that fails raises
    ``worker.WorkerError``.

    The stages pass the step functions they read from this module's
    globals when they run, never bound at import time, so a replaced
    module attribute (the benchmark's stage hooks) takes effect.
    """
    cfg = state.cfg
    batches = cfg.queue_size // cfg.batch_size + cfg.steps
    with _ViewFeed(dataset, cfg, batches, teacher) as feed:
        dataset.release_frames()
        warm_up_queue(state, feed)
        return TrainRun([step(state, feed.next_batch()) for _ in range(cfg.steps)], state)


def _loaded_state(
    path, enc_cfg: EncoderConfig, cfg: TrainConfig, sides=("query", "key"), freeze_backbone=False
) -> MoCoState:
    encoders = load_encoders(path, enc_cfg, sides, freeze_backbone)
    return MoCoState(*encoders, KeyQueue(cfg.queue_size, enc_cfg.d), cfg)


def pretrain(
    dataset: Dataset,
    enc_cfg: EncoderConfig,
    cfg: TrainConfig,
    init_from: str | None = None,
) -> TrainRun:
    """Plain momentum-contrastive pretraining; optionally initialized from
    a checkpoint (the teacher-initialization transfer arm).  Takes over the
    frames of ``dataset``, which keeps only its labels (``_run``)."""
    if init_from is not None:
        state = _loaded_state(init_from, enc_cfg, cfg)
    else:
        state = init_moco_state(enc_cfg, cfg, Rng(cfg.seed))
    return _run(dataset, state, moco_train_step)


def adapt_teacher(
    dataset: Dataset,
    generic_ckpt: str,
    enc_cfg: EncoderConfig,
    cfg: TrainConfig,
    freeze_backbone: bool = True,
) -> TrainRun:
    """Head-only adaptation of a generic-domain encoder on the target data.

    Query and key both start as the checkpoint's query encoder.  Takes over
    the frames of ``dataset``, which keeps only its labels (``_run``).
    """
    teacher = _loaded_state(generic_ckpt, enc_cfg, cfg, ("query", "query"), freeze_backbone)
    return _run(dataset, teacher, teacher_adapt_step)


def pretrain_distilled(
    dataset: Dataset,
    teacher_ckpt: str,
    enc_cfg: EncoderConfig,
    cfg: TrainConfig,
) -> TrainRun:
    """Distilled student training: both queues warm on the same sample
    stream, then every step pushes paired keys; the teacher's side runs in
    the view worker.  Takes over the frames of ``dataset``, which keeps only
    its labels (``_run``)."""
    student = init_moco_state(enc_cfg, cfg, Rng(cfg.seed))
    teacher = _loaded_state(teacher_ckpt, enc_cfg, cfg, freeze_backbone=True)
    return _run(dataset, student, distilled_train_step, teacher)
