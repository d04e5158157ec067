"""Stage orchestration: pretraining runs, teacher adaptation, probing.

Each stage is a pure function of (inputs, config, seed) and returns its
loss history plus the trained state; the CLI persists checkpoints and
metrics.  Distilled and plain student training share the same batch and
augmentation streams, so they are bitwise comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contrastive import (
    EncoderConfig,
    KeyQueue,
    MoCoState,
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
    losses: list[float]  # per-step total loss
    l_con: list[float]
    l_dis: list[float]
    state: MoCoState


def _stream_and_rng(dataset: Dataset, cfg: TrainConfig):
    return BatchStream(dataset.frames, cfg.batch_size, cfg.seed), Rng(cfg.seed)


def pretrain(
    dataset: Dataset,
    enc_cfg: EncoderConfig,
    cfg: TrainConfig,
    init_from: str | None = None,
) -> TrainRun:
    """Plain momentum-contrastive pretraining; optionally initialized from
    a checkpoint (the teacher-initialization transfer arm)."""
    stream, rng = _stream_and_rng(dataset, cfg)
    if init_from is not None:
        encoders = load_encoders(init_from, enc_cfg)
        state = MoCoState(*encoders, KeyQueue(cfg.queue_size, enc_cfg.d), cfg)
    else:
        state = init_moco_state(enc_cfg, cfg, rng)
    warm_up_queue(state, stream, rng)
    losses = []
    for _ in range(cfg.steps):
        losses.append(moco_train_step(state, stream.next_batch(), rng))
    return TrainRun(losses, losses, [0.0] * len(losses), state)


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
    stream, rng = _stream_and_rng(dataset, cfg)
    encoders = load_encoders(generic_ckpt, enc_cfg, ("query", "query"), freeze_backbone)
    teacher = MoCoState(*encoders, KeyQueue(cfg.queue_size, enc_cfg.d), cfg)
    warm_up_queue(teacher, stream, rng)
    losses = []
    for _ in range(cfg.steps):
        losses.append(teacher_adapt_step(teacher, stream.next_batch(), rng))
    return TrainRun(losses, losses, [0.0] * len(losses), teacher)


def pretrain_distilled(
    dataset: Dataset,
    teacher_ckpt: str,
    enc_cfg: EncoderConfig,
    cfg: TrainConfig,
) -> TrainRun:
    """Distilled student training: both queues warm on the same sample
    stream, then every step pushes paired keys."""
    stream, rng = _stream_and_rng(dataset, cfg)
    student = init_moco_state(enc_cfg, cfg, rng)
    encoders = load_encoders(teacher_ckpt, enc_cfg, freeze_backbone=True)
    teacher = MoCoState(*encoders, KeyQueue(cfg.queue_size, enc_cfg.d), cfg)
    warm_up_queue(student, stream, rng, teacher)
    losses, cons, diss = [], [], []
    for _ in range(cfg.steps):
        res = distilled_train_step(student, teacher, stream.next_batch(), rng)
        losses.append(res.total)
        cons.append(res.l_con)
        diss.append(res.l_dis)
    return TrainRun(losses, cons, diss, student)


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
