"""Stage orchestration: pretraining runs, teacher adaptation, probing.

Each stage is a pure function of (inputs, config, seed) and returns one
``StepResult`` per step plus the trained state; the CLI persists
checkpoints and metrics.  Every stage runs through ``_run``, one
warm-up-and-step loop, so distilled and plain student training share the
same batch and augmentation streams and are bitwise comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contrastive import (
    EncoderConfig,
    KeyQueue,
    MoCoState,
    StepResult,
    TrainConfig,
    init_moco_state,
    load_encoders,
    moco_train_step,
    warm_up_queue,
)
from .data import BatchStream, Dataset, save_checkpoint
from .distill import distilled_train_step, teacher_adapt_step
from .rng import Rng


@dataclass
class TrainRun:
    steps: list[StepResult]
    state: MoCoState


def _run(dataset: Dataset, state: MoCoState, step, teacher: MoCoState | None = None) -> TrainRun:
    """Warm the queue(s), then ``cfg.steps`` calls of ``step(state, batch, rng)``.

    The stages pass the step functions they read from this module's
    globals when they run, never bound at import time, so a replaced
    module attribute (the benchmark's stage hooks) takes effect.
    """
    cfg = state.cfg
    stream, rng = BatchStream(dataset.frames, cfg.batch_size, cfg.seed), Rng(cfg.seed)
    warm_up_queue(state, stream, rng, teacher)
    return TrainRun([step(state, stream.next_batch(), rng) for _ in range(cfg.steps)], state)


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
    stream, then every step pushes paired keys."""
    student = init_moco_state(enc_cfg, cfg, Rng(cfg.seed))
    teacher = _loaded_state(teacher_ckpt, enc_cfg, cfg, freeze_backbone=True)
    return _run(dataset, student, lambda s, b, r: distilled_train_step(s, teacher, b, r), teacher)


def save_model(state: MoCoState, path, config: dict | None = None) -> None:
    save_checkpoint(
        {
            "query.backbone": state.query.backbone,
            "query.head": state.query.head,
            "key.backbone": state.key.backbone,
            "key.head": state.key.head,
        },
        path,
        config,
    )
