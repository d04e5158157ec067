"""Teacher adaptation and distilled contrastive training.

The teacher is an ordinary ``MoCoState`` with frozen backbones whose
projection head the plain contrastive step adapted on the target data.
During student training it scores the same two views the student sees,
and its tempered key-similarity distribution supervises the student's
through a KL divergence.  Teacher and student keep parallel queues
pushed with the same raw samples each batch, so index i of both
distributions always refers to the same key sample.  ``teach`` runs the
teacher where a batch's views are built (``pipeline.PreparedBatches``)
and puts its soft targets on the batch for ``distilled_train_step``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .contrastive import (
    ContractError,
    KeyQueue,
    MoCoState,
    StepResult,
    _assert_zero_grads,
    _train_step,
    encode,
    key_similarity_logits,
    moco_train_step,
)
from .data import Batch
from .tensor import ParameterError, Tensor


# A step trains no frozen set, so head-only adaptation is the plain step.
teacher_adapt_step = moco_train_step


def soft_targets(
    q_t: np.ndarray, k_t_plus: np.ndarray, teacher_queue: KeyQueue, tau: float
) -> np.ndarray:
    """The teacher's ``student_similarity_distribution``, as an array; no gradients."""
    with T.no_grad():
        q_t, k_t_plus = T.constant(np.atleast_2d(q_t)), np.atleast_2d(k_t_plus)
        return student_similarity_distribution(q_t, k_t_plus, teacher_queue, tau).data


def student_similarity_distribution(
    q: Tensor, k_plus: np.ndarray, queue: KeyQueue, tau: float
) -> Tensor:
    """Log-softmax of q's key similarities over tau; recorded, differentiable through q."""
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    logits = key_similarity_logits(q, k_plus, queue)
    p, log_p = T.softmax_and_log(logits.data / tau)
    out = Tensor(log_p)

    def backward(g: np.ndarray) -> None:
        T.accumulate(logits, (g - p * g.sum(axis=1, keepdims=True)) / tau)

    T.record(out, backward)
    return out


def kl_distillation_loss(log_p_t: np.ndarray, log_p_s: Tensor) -> Tensor:
    """Batch-averaged KL(p_t || p_s) from log-probabilities, differentiable
    through log p_s.  Finite for finite inputs: an entry whose teacher
    probability underflows to 0 adds 0 to the loss and to the gradient."""
    if log_p_t.shape != log_p_s.data.shape:
        raise ContractError(f"distribution shapes differ: {log_p_t.shape} vs {log_p_s.data.shape}")
    n = log_p_t.shape[0] if log_p_t.ndim == 2 else 1
    p_t = np.exp(log_p_t)
    out = Tensor(np.float64((p_t * (log_p_t - log_p_s.data)).sum() / n))

    def backward(g: np.ndarray) -> None:
        T.accumulate(log_p_s, -p_t * (float(g) / n))

    T.record(out, backward)
    return out


def teach(teacher: MoCoState, batch: Batch, tau: float) -> None:
    """The frozen teacher's side of a batch: push its key embeddings, and
    once the queue is warm first put on ``batch`` the ``soft_targets``
    (``log_p_t``) and the queue pointer before the push (``teacher_ptr``).
    """
    views_q, views_k = batch.views
    keys = encode(teacher.key, views_k).data
    if teacher.queue.warmed:
        q_t = encode(teacher.query, views_q).data
        batch.log_p_t = soft_targets(q_t, keys, teacher.queue, tau)
        batch.teacher_ptr = teacher.queue.ptr
    teacher.queue.push(keys)
    _assert_zero_grads(teacher.query.backbone, "teacher backbone")
    _assert_zero_grads(teacher.query.head, "teacher head")


def distilled_train_step(student: MoCoState, batch: Batch) -> StepResult:
    """One combined-objective step: total = L_con + lambda * L_dis, with the
    teacher's targets and pointer from the batch (``teach``).  A batch
    without them, or whose pointer is not the student queue's, raises
    ``ContractError`` before any update.  At lambda = 0 the weighted KL adds
    +0.0 to every gradient, so the parameters are plain training's, bitwise."""
    if batch.log_p_t is None:
        raise ContractError("batch carries no teacher soft targets; distill.teach puts them on")
    if batch.teacher_ptr != student.queue.ptr:
        raise ContractError(
            f"queues desynchronized: student ptr {student.queue.ptr}, teacher ptr {batch.teacher_ptr}"
        )
    lam, tau = student.cfg.lam, student.cfg.effective_distill_tau

    def distill_term(q: Tensor, k_plus: np.ndarray):
        log_p_s = student_similarity_distribution(q, k_plus, student.queue, tau)
        l_dis = kl_distillation_loss(batch.log_p_t, log_p_s)
        return T.scale(l_dis, lam), float(l_dis.data)

    return _train_step(student, batch, distill_term)
