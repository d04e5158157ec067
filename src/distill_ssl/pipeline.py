"""Stage orchestration: pretraining runs, teacher adaptation, probing.

Each stage is a pure function of (inputs, config, seed) and returns one
``StepResult`` per step plus the trained state; the CLI persists
checkpoints and metrics.  Every stage runs through ``_run``, one
warm-up-and-step loop, so distilled and plain student training share the
same batch and augmentation streams and are bitwise comparable.

``_run`` builds every batch's views in a worker process, forked before
the warm-up, one batch ahead of the step that uses them.  Views depend on
the batch, the augmentation config and the run seed alone, never on
model state, so the worker's copy of the batch stream and root ``Rng``
makes exactly the views the step would make itself.  A distilled run's
frozen teacher is a function of the views and its checkpoint alone, so
the same worker also warms the teacher queue and builds each step's soft
targets.  The worker and the training loop run on two cores at once, and
no result changes by a bit.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
import traceback
from dataclasses import dataclass

import numpy as np

from .contrastive import (
    EncoderConfig,
    KeyQueue,
    MoCoState,
    StepResult,
    TrainConfig,
    build_views,
    encode,
    init_moco_state,
    load_encoders,
    moco_train_step,
    save_model,  # cli and the tests call it as pipeline.save_model
    warm_up_queue,
)
from .data import Batch, BatchStream, Dataset
from .distill import distilled_train_step, soft_targets, teacher_adapt_step
from .rng import Rng

_RING = 2  # slots the worker may fill ahead of the loop
_READY, _FAILED = b"r", b"!"
_ERROR_CHARS = 4000  # of a failed worker's traceback, sent to the loop


class ViewWorkerError(RuntimeError):
    """The process building views ahead of the training loop failed."""


def _shared(shape, dtype=np.float64) -> np.ndarray:
    """A zeroed array in an anonymous mmap that a fork shares, not copies."""
    return np.ndarray(shape, dtype, mmap.mmap(-1, math.prod(shape) * np.dtype(dtype).itemsize))


class _ViewFeed:
    """Batches of one ``BatchStream`` carrying views a forked worker built.

    The worker holds the copy of the stream and root ``rng`` that the fork
    gives it and calls ``build_views`` on each of ``count`` batches,
    writing the two view stacks into a ring of ``_RING`` slots in one
    shared anonymous mmap.  A byte on the ready pipe tells the loop that
    the next slot is full; a byte on the free pipe hands a slot back.  The
    loop advances its own stream and copies each batch's views out.
    Leaving the ``with`` block closes both pipe ends, which ends a worker
    that is still running (EOF on the free pipe, EPIPE on the ready pipe),
    and reaps it.

    Given a frozen ``teacher``, the worker also runs it on the views: the
    first ``queue_size // batch_size`` batches warm the worker's copy of
    the teacher queue with key embeddings, and every later batch gets
    ``soft_targets`` of the teacher's query and key embeddings before its
    keys are pushed.  Those targets and the teacher queue's pointer before
    the push go into a second ring with the same slots, and the loop
    hands them to the step as ``Batch.log_p_t`` and ``Batch.teacher_ptr``.
    The loop's own ``teacher`` is never run or pushed.

    A fork, not a fresh interpreter: the worker starts from the loop's
    frames, stream and teacher without a copy or a second start-up.  The
    training process runs no threads of its own; the worker's teacher
    encodes call BLAS, whose results do not depend on its thread count.
    """

    def __init__(self, frames: np.ndarray, cfg: TrainConfig, rng: Rng, count: int,
                 teacher: MoCoState | None = None):
        self._stream = BatchStream(frames, cfg.batch_size, cfg.seed)
        self._count, self._taken = count, 0
        self._warm = cfg.queue_size // cfg.batch_size  # warm_up_queue's batches
        self._teacher = teacher
        self._views = _shared((_RING, 2, cfg.batch_size, frames.shape[1], *cfg.augment.output_size))
        if teacher is not None:
            self._targets = _shared((_RING, cfg.batch_size, teacher.queue.capacity + 1))
            self._ptrs = _shared((_RING,), np.int64)
        ready_r, ready_w = os.pipe()
        free_r, free_w = os.pipe()
        try:
            self._pid = os.fork()
        except BaseException:
            for fd in (ready_r, ready_w, free_r, free_w):
                os.close(fd)
            raise
        if self._pid == 0:
            self._build_ahead(cfg, rng, ready=ready_w, free=free_r, parent_ends=(ready_r, free_w))
        os.close(ready_w)
        os.close(free_r)
        self._ready, self._free = ready_r, free_w

    def __enter__(self) -> "_ViewFeed":
        return self

    def __exit__(self, *exc) -> None:
        os.close(self._free)
        os.close(self._ready)
        os.kill(self._pid, signal.SIGKILL)  # not even a stuck worker may keep us waiting
        os.waitpid(self._pid, 0)

    def next_batch(self) -> Batch:
        batch = self._stream.next_batch()
        status = os.read(self._ready, 1)
        if status != _READY:
            raise ViewWorkerError(self._failure(status))
        slot = self._taken % _RING
        batch.views = (self._views[slot, 0].copy(), self._views[slot, 1].copy())
        if self._teacher is not None and self._taken >= self._warm:
            batch.log_p_t = self._targets[slot].copy()
            batch.teacher_ptr = int(self._ptrs[slot])
        self._taken += 1
        if self._taken + _RING <= self._count:  # the worker fills this slot again
            os.write(self._free, _READY)
        return batch

    def _failure(self, status: bytes) -> str:
        if status == _FAILED:
            text = b"".join(iter(lambda: os.read(self._ready, 65536), b""))
            return "view worker failed:\n" + text.decode(errors="replace")
        return f"view worker ended before batch {self._taken + 1} of {self._count}"

    def _build_ahead(self, cfg: TrainConfig, rng: Rng, ready: int, free: int, parent_ends) -> None:
        """The worker's whole life: fill the ring ``count`` times, then exit.

        It never returns, so no atexit handler, stdio buffer or other state
        inherited from the training process runs a second time.
        """
        code = 0
        try:
            for fd in parent_ends:  # the loop's exit must show here as EOF and EPIPE
                os.close(fd)
            for i in range(self._count):
                if i >= _RING and not os.read(free, 1):
                    break  # the loop is gone: it stopped early or was killed
                slot = i % _RING
                views = self._views[slot]
                views[0], views[1] = build_views(self._stream.next_batch(), cfg.augment, rng)
                if self._teacher is not None:
                    self._teach(slot, views, i < self._warm, cfg.effective_distill_tau)
                os.write(ready, _READY)
        except BrokenPipeError:
            pass  # the loop stopped reading
        except BaseException:
            code = 1
            with contextlib.suppress(OSError):
                os.write(ready, _FAILED + traceback.format_exc()[-_ERROR_CHARS:].encode())
        finally:
            os._exit(code)

    def _teach(self, slot: int, views: np.ndarray, warming: bool, tau: float) -> None:
        """The teacher's side of ``warm_up_queue`` or ``distilled_train_step``."""
        teacher = self._teacher
        keys = encode(teacher.key, views[1]).data
        if not warming:
            q_t = encode(teacher.query, views[0]).data
            self._targets[slot] = soft_targets(q_t, keys, teacher.queue, tau)
            self._ptrs[slot] = teacher.queue.ptr
        teacher.queue.push(keys)


@dataclass
class TrainRun:
    steps: list[StepResult]
    state: MoCoState


def _run(dataset: Dataset, state: MoCoState, step, teacher: MoCoState | None = None) -> TrainRun:
    """Warm the queue, then ``cfg.steps`` calls of ``step(state, batch, rng)``.

    Every batch, the warm-up's and the steps', comes from a ``_ViewFeed``
    that forks its view worker before the warm-up, so each one carries
    the views ``build_views`` made for it in the worker.  A ``teacher``
    goes to the feed, whose worker warms its queue and gives every step
    batch the teacher's soft targets.  The worker is reaped before
    ``_run`` returns or raises; a worker that fails raises
    ``ViewWorkerError`` with its traceback.

    The stages pass the step functions they read from this module's
    globals when they run, never bound at import time, so a replaced
    module attribute (the benchmark's stage hooks) takes effect.
    """
    cfg = state.cfg
    rng = Rng(cfg.seed)
    batches = cfg.queue_size // cfg.batch_size + cfg.steps
    with _ViewFeed(dataset.frames, cfg, rng, batches, teacher) as feed:
        warm_up_queue(state, feed, rng)
        return TrainRun([step(state, feed.next_batch(), rng) for _ in range(cfg.steps)], state)


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
    a checkpoint (the teacher-initialization transfer arm)."""
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

    Query and key both start as the checkpoint's query encoder.
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
    the view worker."""
    student = init_moco_state(enc_cfg, cfg, Rng(cfg.seed))
    teacher = _loaded_state(teacher_ckpt, enc_cfg, cfg, freeze_backbone=True)
    return _run(dataset, student, lambda s, b, r: distilled_train_step(s, teacher, b, r), teacher)
