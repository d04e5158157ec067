"""Momentum-contrastive learning: paired encoders, key queue, InfoNCE.

The query encoder learns by backpropagation; the key encoder tracks it as
an exponential moving average and feeds a FIFO queue of negative keys.
Every training state is a ``MoCoState``: the student, the teacher being
adapted and the teacher that supervises a distilled student.
``moco_train_step``, teacher adaptation and the distilled step share one
step core, ``_train_step``; the distilled step passes it one extra loss
term, computed from the views and embeddings the core already holds, and
a zero distillation weight reproduces plain training bit for bit.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .augment import AugmentConfig, sample_views, view_seeds
from .data import Batch, load_checkpoint, save_checkpoint
from .rng import STREAM_INIT, Rng
from .tensor import GraphError, ParamSet, ParameterError, Tensor


class ContractError(RuntimeError):
    """A state invariant was violated by the caller."""


class NonFiniteLossError(FloatingPointError):
    """A loss term is NaN or infinite; the step changed no state."""


# ---------------------------------------------------------------------------
# encoder


@dataclass(frozen=True)
class EncoderConfig:
    """Small convolutional backbone plus a 2-layer MLP projection head."""

    in_channels: int = 1
    input_size: tuple[int, int] = (32, 32)
    conv_channels: tuple[int, int] = (8, 16)
    kernel_size: int = 3
    stride: int = 2
    pad: int = 1
    d_backbone: int = 64
    d: int = 32

    def param_shapes(self) -> dict[str, dict[str, tuple[int, ...]]]:
        c1, c2 = self.conv_channels
        k = self.kernel_size
        return {
            "backbone": {
                "conv1.kernels": (c1, self.in_channels, k, k),
                "conv2.kernels": (c2, c1, k, k),
                "fc.weight": (c2, self.d_backbone),
                "fc.bias": (self.d_backbone,),
            },
            "head": {
                "fc1.weight": (self.d_backbone, self.d_backbone),
                "fc1.bias": (self.d_backbone,),
                "fc2.weight": (self.d_backbone, self.d),
                "fc2.bias": (self.d,),
            },
        }

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EncoderParams:
    backbone: ParamSet
    head: ParamSet
    cfg: EncoderConfig

    def clone(self) -> "EncoderParams":
        return EncoderParams(self.backbone.clone(), self.head.clone(), self.cfg)

    def copy_from(self, other: "EncoderParams") -> None:
        self.backbone.copy_from(other.backbone)
        self.head.copy_from(other.head)


def load_encoders(
    path, enc_cfg: EncoderConfig, sides=("query", "key"), freeze_backbone: bool = False
) -> list[EncoderParams]:
    """One cloned encoder per requested checkpoint side, in order.

    A side may repeat: ``("query", "query")`` starts a teacher's key
    encoder as a copy of the checkpoint's query encoder.  The shapes of
    every requested side are validated in one load, so a mismatch loads
    nothing.
    """
    shapes = enc_cfg.param_shapes()
    expected = {f"{side}.{part}": params for side in sides for part, params in shapes.items()}
    named, _ = load_checkpoint(path, expected_shapes=expected)
    encoders = []
    for side in sides:
        enc = EncoderParams(**{part: named[f"{side}.{part}"].clone() for part in shapes}, cfg=enc_cfg)
        if freeze_backbone:
            enc.backbone.set_frozen(True)
        encoders.append(enc)
    return encoders


def save_model(state: MoCoState, path, config: dict | None = None) -> None:
    """Write the query and key encoders as the sets ``load_encoders`` reads."""
    encoders = {"query": state.query, "key": state.key}
    named = {
        f"{side}.{part}": getattr(enc, part)
        for side, enc in encoders.items()
        for part in enc.cfg.param_shapes()
    }
    save_checkpoint(named, path, config)


def _uniform_init(rng: Rng, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    s = 1.0 / math.sqrt(fan_in)
    return (rng.uniform(int(np.prod(shape))) * 2.0 * s - s).reshape(shape)


def init_encoder(cfg: EncoderConfig, rng: Rng) -> EncoderParams:
    """Fresh parameters, uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)].

    Parameters are drawn in ``param_shapes`` order, so a seed pins every
    one.  A conv kernel's fan-in is its input channels times its window,
    an fc weight's its input width, and a bias takes its weight's fan-in.
    """
    stream = rng.derive(STREAM_INIT)
    sets, fan_in = {}, None
    for part, shapes in cfg.param_shapes().items():
        values = {}
        for name, shape in shapes.items():
            if len(shape) > 1:
                fan_in = math.prod(shape[1:]) if len(shape) > 2 else shape[0]
            values[name] = _uniform_init(stream, shape, fan_in)
        sets[part] = ParamSet(values)
    return EncoderParams(**sets, cfg=cfg)


def center_input(frames: np.ndarray) -> np.ndarray:
    """Map [0, 1] pixels to [-1, 1] before the first convolution.

    Uncentered inputs couple every gradient through the shared DC
    component and stall training at desk scale.
    """
    return (np.asarray(frames, dtype=np.float64) - 0.5) * 2.0


def forward_backbone(enc: EncoderParams, x: Tensor) -> Tensor:
    bb = enc.backbone
    h = T.relu(T.conv2d(x, bb["conv1.kernels"], stride=enc.cfg.stride, pad=enc.cfg.pad))
    h = T.relu(T.conv2d(h, bb["conv2.kernels"], stride=enc.cfg.stride, pad=enc.cfg.pad))
    return T.affine(T.global_avg_pool(h), bb["fc.weight"], bb["fc.bias"])


def forward_head(enc: EncoderParams, features: Tensor) -> Tensor:
    hd = enc.head
    h = T.relu(T.affine(features, hd["fc1.weight"], hd["fc1.bias"]))
    return T.affine(h, hd["fc2.weight"], hd["fc2.bias"])


def encode(enc: EncoderParams, frames: np.ndarray, record_grads: bool = False) -> Tensor:
    """Unit-norm embeddings for a stacked B x C x H x W batch.

    ``record_grads`` records the forward on the open graph.  A frozen
    backbone is never recorded, so it receives no gradients.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 4 or frames.shape[1] != enc.cfg.in_channels:
        raise T.ShapeError(
            f"encode expects B x {enc.cfg.in_channels} x H x W frames, got {frames.shape}"
        )
    if record_grads and not T.recording():
        raise GraphError("record_grads=True requires an open Graph")
    with _recorded(record_grads):
        x = T.constant(center_input(frames))
        with _recorded(not enc.backbone.frozen):
            features = forward_backbone(enc, x)
        return T.l2_normalize(forward_head(enc, features))


def _recorded(flag: bool):
    """The open graph keeps recording inside the block only if ``flag``."""
    return contextlib.nullcontext() if flag else T.no_grad()


# ---------------------------------------------------------------------------
# key queue


class KeyQueue:
    """Ring buffer of M unit-norm key embeddings with FIFO overwrite."""

    def __init__(self, capacity: int, dim: int):
        if capacity < 1 or dim < 1:
            raise ValueError(f"bad queue geometry M={capacity}, d={dim}")
        self.rows = np.zeros((capacity, dim))
        self.ptr = 0
        self.filled = 0

    @property
    def capacity(self) -> int:
        return self.rows.shape[0]

    def push(self, keys: np.ndarray) -> None:
        m = self.capacity
        n = keys.shape[0]
        if keys.ndim != 2 or keys.shape[1] != self.rows.shape[1]:
            raise ContractError(f"keys {keys.shape} do not fit queue {self.rows.shape}")
        if m % n != 0:
            raise ContractError(f"batch size {n} must divide queue capacity {m}")
        norms = np.sqrt((keys * keys).sum(axis=1))
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ContractError(
                f"queue keys must be unit-norm, worst deviation {np.abs(norms - 1.0).max():.3e}"
            )
        end = self.ptr + n
        if end <= m:
            self.rows[self.ptr : end] = keys
        else:
            split = m - self.ptr
            self.rows[self.ptr :] = keys[:split]
            self.rows[: end - m] = keys[split:]
        self.ptr = end % m
        self.filled = min(self.filled + n, m)

    @property
    def warmed(self) -> bool:
        return self.filled >= self.capacity


def momentum_update(key: EncoderParams, query: EncoderParams, m: float) -> None:
    """theta_k <- m*theta_k + (1-m)*theta_q over backbone and head.

    A frozen query set is not averaged: it was loaded with its key set
    and neither trains, so the average would be the identity, and
    skipping it keeps the key set bitwise.
    """
    if not 0.0 <= m <= 1.0:
        raise ParameterError(f"momentum coefficient must be in [0, 1], got {m}")
    for key_set, query_set in ((key.backbone, query.backbone), (key.head, query.head)):
        if key_set.shapes() != query_set.shapes():
            raise ContractError(
                f"momentum update shape mismatch: {key_set.shapes()} vs {query_set.shapes()}"
            )
        if query_set.frozen or m == 1.0:  # exact endpoints stay bitwise
            continue
        if m == 0.0:
            key_set.copy_from(query_set)
            continue
        for name, kt in key_set.items():
            kt.data *= m
            kt.data += (1.0 - m) * query_set[name].data


# ---------------------------------------------------------------------------
# InfoNCE


def key_similarity_logits(q: Tensor, k_plus: np.ndarray, queue: KeyQueue) -> Tensor:
    """Per-row logits [q.k+, q.k_1, ..., q.k_M]; gradients flow into q only."""
    k_plus = np.asarray(k_plus, dtype=np.float64)
    if q.data.shape != k_plus.shape:
        raise ContractError(f"q {q.data.shape} and k_plus {k_plus.shape} must align")
    rows = queue.rows
    out = Tensor(
        np.concatenate([(q.data * k_plus).sum(axis=1, keepdims=True), q.data @ rows.T], axis=1)
    )

    def backward(g: np.ndarray) -> None:
        T.accumulate(q, g[:, :1] * k_plus + g[:, 1:] @ rows)

    T.record(out, backward)
    return out


def info_nce_loss(q: Tensor, k_plus: np.ndarray, queue: KeyQueue, tau: float) -> Tensor:
    """Mean over the batch of -log softmax(logits / tau) at the positive."""
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    logits = key_similarity_logits(q, k_plus, queue)
    return _nce_from_logits(logits, tau)


def _nce_from_logits(logits: Tensor, tau: float) -> Tensor:
    p, log_p = T.softmax_and_log(logits.data / tau)
    n = p.shape[0]
    out = Tensor(np.float64(-log_p[:, 0].mean()))

    def backward(g: np.ndarray) -> None:
        d = p.copy()
        d[:, 0] -= 1.0
        T.accumulate(logits, d * (float(g) / (n * tau)))

    T.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# training state


@dataclass(frozen=True)
class TrainConfig:
    tau: float = 0.07
    m: float = 0.999
    lam: float = 5.0
    batch_size: int = 32
    queue_size: int = 256
    lr: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 1e-4
    steps: int = 500
    seed: int = 7
    distill_tau: float | None = None  # defaults to tau
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if self.tau <= 0:
            raise ParameterError(f"tau must be positive, got {self.tau}")
        if self.distill_tau is not None and self.distill_tau <= 0:
            raise ParameterError(f"distill_tau must be positive, got {self.distill_tau}")
        if not 0.0 <= self.m < 1.0:
            raise ParameterError(f"m must be in [0, 1), got {self.m}")
        if self.lam < 0:
            raise ParameterError(f"lambda must be >= 0, got {self.lam}")
        if self.steps < 0:
            raise ParameterError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ParameterError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.queue_size % self.batch_size != 0:
            raise ParameterError(
                f"queue_size {self.queue_size} must be a multiple of batch_size {self.batch_size}"
            )

    @property
    def effective_distill_tau(self) -> float:
        return self.tau if self.distill_tau is None else self.distill_tau


@dataclass
class MoCoState:
    query: EncoderParams
    key: EncoderParams
    queue: KeyQueue
    cfg: TrainConfig
    step_count: int = 0


@dataclass
class StepResult:
    l_con: float
    l_dis: float
    total: float


def init_moco_state(enc_cfg: EncoderConfig, cfg: TrainConfig, rng: Rng) -> MoCoState:
    query = init_encoder(enc_cfg, rng)
    key = query.clone()
    return MoCoState(query, key, KeyQueue(cfg.queue_size, enc_cfg.d), cfg)


def build_views(batch: Batch, aug: AugmentConfig, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Query and key view batches, each B x C x h x w, from per-sample streams.

    Sample i's query view comes from ``view_stream(rng, epoch, index, 0)``
    and its key view from ``view_stream(rng, epoch, index, 1)``.  All 2B
    seeds are derived as one array (``augment.view_seeds``) and all 2B
    views made in one array pass (``augment.sample_views``), which is
    bitwise equal to ``augment.sample_view`` on each stream.

    The views depend on the batch, ``aug`` and ``rng.seed`` alone, never
    on draws taken from ``rng`` or on model state.  That is what lets
    ``pipeline``'s view worker, a forked copy of the training process,
    build every batch's views one batch ahead of the step that uses them.
    """
    n = batch.frames.shape[0]
    views = sample_views(batch.frames, aug, view_seeds(rng, batch.epoch, batch.indices))
    return views[:n], views[n:]


def _views(batch: Batch, aug: AugmentConfig, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """The views built ahead for ``batch``, else ``build_views`` in process."""
    return build_views(batch, aug, rng) if batch.views is None else batch.views


def warm_up_queue(state: MoCoState, stream, rng: Rng, teacher: MoCoState | None = None) -> None:
    """Fill the queue with key-encoder embeddings before any loss is taken.

    Consumes capacity/batch_size batches from the stream, using the
    views a batch carries when it has them.  When a ``teacher`` is given,
    its key encoder fills its queue from the same views, so index i of
    both queues holds the same sample.
    """
    for _ in range(state.queue.capacity // state.cfg.batch_size):
        _, views_k = _views(stream.next_batch(), state.cfg.augment, rng)
        state.queue.push(encode(state.key, views_k).data)
        if teacher is not None:
            teacher.queue.push(encode(teacher.key, views_k).data)


def _assert_zero_grads(ps: ParamSet, what: str) -> None:
    for name, t in ps.items():
        if t.grad is not None and np.any(t.grad != 0.0):
            raise ContractError(f"{what} parameter {name!r} received gradient")


def moco_train_step(state: MoCoState, batch: Batch, rng: Rng) -> StepResult:
    """One contrastive step; ``l_dis`` is 0 and ``total`` is the InfoNCE loss."""
    return _train_step(state, batch, rng)


def _train_step(state: MoCoState, batch: Batch, rng: Rng, extra_loss=None) -> StepResult:
    """Shared step core.

    Order: views (the batch's own when it carries them, else
    ``build_views``), query/key embeddings, losses, backprop + SGD on
    each query set that is not frozen, momentum update of the key
    encoder, queue push.
    ``extra_loss(views_q, views_k, q, k_plus)``, when given, runs inside
    the recorded graph before the queue moves and returns (term, value):
    ``term`` is added to the InfoNCE loss unless it is None, and ``value``
    is reported as ``l_dis`` (see distill.distilled_train_step).  A
    non-finite l_con, l_dis or total raises ``NonFiniteLossError`` before
    the backward pass, naming the term and the step index (the ``step``
    column of metrics.csv), so parameters, queue and step count stay as
    they were.
    """
    cfg = state.cfg
    if batch.frames.shape[0] != cfg.batch_size:
        raise ContractError(f"batch of {batch.frames.shape[0]}, config says {cfg.batch_size}")
    if not state.queue.warmed:
        raise ContractError("queue must be warmed before training steps")

    views_q, views_k = _views(batch, cfg.augment, rng)
    graph = T.Graph()
    with graph:
        q = encode(state.query, views_q, record_grads=True)
        k_plus = encode(state.key, views_k).data
        l_con = info_nce_loss(q, k_plus, state.queue, cfg.tau)
        term, l_dis_value = None, 0.0
        if extra_loss is not None:
            term, l_dis_value = extra_loss(views_q, views_k, q, k_plus)
        total = l_con if term is None else T.add(l_con, term)
    losses = {"l_con": float(l_con.data), "l_dis": l_dis_value, "total": float(total.data)}
    for name, value in losses.items():
        if not math.isfinite(value):
            raise NonFiniteLossError(f"{name} is {value} at step {state.step_count}")
    graph.backward(total)

    for query_set in (state.query.backbone, state.query.head):
        if not query_set.frozen:
            T.sgd_step(query_set, cfg.lr, cfg.momentum, cfg.weight_decay)

    # the key encoder must never see raw gradients, only the moving average
    _assert_zero_grads(state.key.backbone, "key")
    _assert_zero_grads(state.key.head, "key")
    momentum_update(state.key, state.query, cfg.m)

    state.queue.push(k_plus)
    state.step_count += 1
    return StepResult(l_con=float(l_con.data), l_dis=l_dis_value, total=float(total.data))
