"""Teacher adaptation and distilled contrastive training.

The teacher is an ordinary ``MoCoState`` whose backbones are frozen and
whose projection head was adapted on the target data.  During student
training it scores the same two views the student sees and its tempered
key-similarity distribution supervises the student's through a KL
divergence.  Teacher and student keep parallel queues pushed with the
same raw samples each step, so index i of both distributions always
refers to the same key sample.
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
)
from .data import Batch
from .rng import Rng
from .tensor import ParameterError, Tensor


def teacher_adapt_step(teacher: MoCoState, batch: Batch, rng: Rng) -> StepResult:
    """One head-adaptation step; identical to a plain contrastive step
    except that frozen backbones receive neither gradients nor updates."""
    result = _train_step(teacher, batch, rng)
    if teacher.query.backbone.frozen:
        _assert_zero_grads(teacher.query.backbone, "teacher backbone")
    return result


def soft_targets(
    q_t: np.ndarray, k_t_plus: np.ndarray, teacher_queue: KeyQueue, tau: float
) -> np.ndarray:
    """Log of the tempered softmax over the teacher's key similarities; no gradients."""
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    q_t = np.atleast_2d(np.asarray(q_t, dtype=np.float64))
    k_t_plus = np.atleast_2d(np.asarray(k_t_plus, dtype=np.float64))
    sims = np.concatenate(
        [(q_t * k_t_plus).sum(axis=1, keepdims=True), q_t @ teacher_queue.rows.T], axis=1
    )
    return T.softmax_and_log(sims / tau)[1]


def student_similarity_distribution(
    q: Tensor, k_plus: np.ndarray, queue: KeyQueue, tau: float
) -> Tensor:
    """As soft_targets, but a recorded op, differentiable through the student query."""
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


def distilled_train_step(
    student: MoCoState, teacher: MoCoState, batch: Batch, rng: Rng
) -> StepResult:
    """One combined-objective step: total = L_con + lambda * L_dis.

    Both models see the same two augmented views; the teacher runs without
    gradients and both queues receive keys of the same samples.
    """
    if teacher.queue.ptr != student.queue.ptr:
        raise ContractError(
            f"queues desynchronized: student ptr {student.queue.ptr}, "
            f"teacher ptr {teacher.queue.ptr}"
        )
    if not teacher.queue.warmed:
        raise ContractError("teacher queue must be warmed before distilled steps")
    lam, tau = student.cfg.lam, student.cfg.effective_distill_tau
    teacher_keys = None

    def distill_term(views_q, views_k, q: Tensor, k_plus: np.ndarray):
        nonlocal teacher_keys
        q_t = encode(teacher.query, views_q)
        teacher_keys = encode(teacher.key, views_k).data
        log_p_t = soft_targets(q_t.data, teacher_keys, teacher.queue, tau)
        if lam == 0.0:
            # Keep the recorded graph identical to plain training so a
            # zero weight reproduces it bitwise; report the value only.
            with T.no_grad():
                log_p_s = student_similarity_distribution(Tensor(q.data), k_plus, student.queue, tau)
                return None, float(kl_distillation_loss(log_p_t, log_p_s).data)
        log_p_s = student_similarity_distribution(q, k_plus, student.queue, tau)
        l_dis = kl_distillation_loss(log_p_t, log_p_s)
        return T.scale(l_dis, lam), float(l_dis.data)

    result = _train_step(student, batch, rng, distill_term)
    teacher.queue.push(teacher_keys)
    if teacher.queue.ptr != student.queue.ptr:
        raise ContractError("queues desynchronized after push")
    _assert_zero_grads(teacher.query.backbone, "teacher backbone")
    _assert_zero_grads(teacher.query.head, "teacher head")
    return result
