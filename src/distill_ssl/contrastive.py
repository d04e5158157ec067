"""Momentum-contrastive learning: paired encoders, key queue, InfoNCE.

The query encoder learns by backpropagation; the key encoder tracks it as
an exponential moving average and feeds a FIFO queue of negative keys.
Every training state is a ``MoCoState``: the student, the teacher being
adapted and the teacher that supervises a distilled student.
``moco_train_step`` (which is also the teacher's head adaptation) and the
distilled step share one step core, ``_train_step``, which alone decides
what a step updates; the distilled step passes it one extra loss term,
computed from the embeddings the core already holds, and a zero
distillation weight reproduces plain training bit for bit.  Each batch
brings its views (``pipeline.PreparedBatches``); no step builds them.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensor as T
from .augment import AugmentConfig, sample_views, view_seeds
from .data import Batch, CorruptManifestError, TensorShapeError, load_checkpoint, save_checkpoint
from .rng import STREAM_INIT, Rng
from .tensor import GraphError, ParamSet, ParameterError, Tensor


class ContractError(RuntimeError):
    """A state invariant was violated by the caller."""


class DivergenceError(FloatingPointError):
    """A step's arithmetic overflowed or went invalid, or a gradient is not
    finite; the step changed no state."""


class NonFiniteLossError(DivergenceError):
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

    def __post_init__(self):
        # whole numbers, paired where the default is; sizes >= 1, the padding >= 0
        for f in fields(self):
            value, low = getattr(self, f.name), 0 if f.name == "pad" else 1
            items = value if isinstance(f.default, tuple) and isinstance(value, tuple) else (value,)
            if [type(n) for n in items] != [int] * np.size(f.default):
                raise ParameterError(f"{f.name} must be whole numbers like {f.default}, "
                                     f"got {value!r}")
            if min(items) < low:
                raise ParameterError(f"{f.name} must be >= {low}, got {value}")
        k, side = self.kernel_size, self.input_size  # each kernel fits its padded input
        for layer in ("conv1", "conv2"):
            padded = [n + 2 * self.pad for n in side]
            if min(padded) < k:
                raise ParameterError(f"kernel_size {k} larger than {layer}'s padded input "
                                     f"{padded[0]}x{padded[1]} at input size "
                                     f"{self.input_size[0]}x{self.input_size[1]}")
            side = [(n - k) // self.stride + 1 for n in padded]

    @classmethod
    def from_dict(cls, entry) -> EncoderConfig:
        """The inverse of ``to_dict``, JSON lists back into tuples."""
        if not isinstance(entry, dict) or sorted(entry) != sorted(f.name for f in fields(cls)):
            raise ParameterError(f"expected the fields of {cls.__name__}, got {entry!r:.200}")
        return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in entry.items()})

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


class ArchitectureError(ValueError):
    """A checkpoint's encoder is not the one the run describes."""


def load_encoders(path, channels: int, sides=("query", "key"),
                  freeze_backbone=False) -> list[EncoderParams]:
    """One cloned encoder per requested checkpoint side, in order, of the
    architecture the manifest records as ``config.encoder``.  A side may
    repeat: ``("query", "query")`` starts a key encoder as a copy of the
    query encoder.  A bad entry raises ``CorruptManifestError`` and a tensor
    of another shape ``TensorShapeError``, naming the file; an intact
    encoder that does not take frames of ``channels`` channels raises
    ``ArchitectureError``, naming the file and both counts."""
    named, config = load_checkpoint(path)
    try:
        entry = config.get("encoder") if isinstance(config, dict) else None
        enc_cfg = EncoderConfig.from_dict(entry)
    except ValueError as exc:
        raise CorruptManifestError(f"checkpoint {path}: bad config.encoder: {exc}") from exc
    shapes, encoders = enc_cfg.param_shapes(), []
    for side in sides:
        for part, params in shapes.items():
            got = named[f"{side}.{part}"].shapes() if f"{side}.{part}" in named else {}
            for name, shape in params.items():
                if got.get(name) != shape:
                    found = got.get(name, "missing")
                    raise TensorShapeError(f"checkpoint {path}: tensor {side}.{part}/{name} is "
                                           f"{found}, config.encoder says {shape}")
        enc = EncoderParams(**{part: named[f"{side}.{part}"].clone() for part in shapes}, cfg=enc_cfg)
        if freeze_backbone:
            enc.backbone.set_frozen(True)
        encoders.append(enc)
    if enc_cfg.in_channels != channels:  # after the shapes: a corrupt manifest is named as such
        raise ArchitectureError(f"{path} holds an encoder for {enc_cfg.in_channels}-channel "
                                f"frames; the data's frames have {channels} channels")
    return encoders


def save_model(state: MoCoState, path, config: dict | None = None) -> None:
    """Write the query and key encoders as the sets ``load_encoders`` reads,
    with ``config`` and the encoders' ``EncoderConfig`` as its ``encoder``."""
    named = {f"{side}.{part}": getattr(enc, part)
             for side, enc in (("query", state.query), ("key", state.key))
             for part in enc.cfg.param_shapes()}
    save_checkpoint(named, path, {**(config or {}), "encoder": state.query.cfg.to_dict()})


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
    centered = np.subtract(frames, 0.5, dtype=np.float64)
    centered *= 2.0
    return centered


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


# How far a key's norm may stray from 1, in the queue and in a step's keys.
_UNIT_NORM_TOL = 1e-6


def _norm_deviation(keys: np.ndarray) -> float:
    """The largest |norm - 1| over the rows of ``keys`` (NaN when one is not finite)."""
    return float(np.abs(np.sqrt((keys * keys).sum(axis=1)) - 1.0).max(initial=0.0))


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
        worst = _norm_deviation(keys)
        if not worst <= _UNIT_NORM_TOL:
            raise ContractError(f"queue keys must be unit-norm, worst deviation {worst:.3e}")
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
        # each float range is written to refuse NaN and infinity too
        if not 0 < self.tau < math.inf:
            raise ParameterError(f"tau must be positive and finite, got {self.tau}")
        if self.distill_tau is not None and not 0 < self.distill_tau < math.inf:
            raise ParameterError(f"distill_tau must be positive and finite, got {self.distill_tau}")
        if not 0.0 <= self.m < 1.0:
            raise ParameterError(f"m must be in [0, 1), got {self.m}")
        if not 0 <= self.lam < math.inf:
            raise ParameterError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0 <= self.lr < math.inf:
            raise ParameterError(f"lr must be finite and >= 0, got {self.lr}")
        if self.steps < 0:
            raise ParameterError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ParameterError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.queue_size < 1 or self.queue_size % self.batch_size != 0:
            raise ParameterError(f"queue_size {self.queue_size} must be a positive multiple "
                                 f"of batch_size {self.batch_size}")

    @property
    def effective_distill_tau(self) -> float:
        return self.tau if self.distill_tau is None else self.distill_tau

    @property
    def warm_up_batches(self) -> int:
        """The batches that fill the key queue before the first step."""
        return self.queue_size // self.batch_size


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


def build_views(
    batch: Batch, aug: AugmentConfig, rng: Rng, key_only: bool = False
) -> tuple[np.ndarray | None, np.ndarray]:
    """Query and key view batches, each B x C x h x w, from per-sample streams.

    Sample i's query view comes from ``view_stream(rng, epoch, index, 0)``
    and its key view from ``view_stream(rng, epoch, index, 1)``.  All 2B
    seeds are derived as one array (``augment.view_seeds``) and all 2B
    views made in one array pass (``augment.sample_views``), which is
    bitwise equal to ``augment.sample_view`` on each stream.  With
    ``key_only`` the query views are None and only the B key views are
    made, with the same bits, since each view reads only its own stream.

    The views depend on the batch, ``aug`` and ``rng.seed`` alone, never
    on draws taken from ``rng`` or on model state.  That is what lets
    ``pipeline``'s view worker, a forked copy of the training process,
    build every batch's views one batch ahead of the step that uses them.
    """
    n = batch.frames.shape[0]
    seeds = view_seeds(rng, batch.epoch, batch.indices)
    if key_only:
        return None, sample_views(batch.frames, aug, seeds[n:])
    views = sample_views(batch.frames, aug, seeds)
    return views[:n], views[n:]


def warm_up_queue(state: MoCoState, batches) -> None:
    """Fill the queue with key-encoder embeddings before any loss is taken.

    Consumes ``cfg.warm_up_batches`` batches, each carrying its key views
    (``pipeline.PreparedBatches`` builds no query views for them); a batch
    without views raises ``ContractError`` before it touches the queue.
    """
    for _ in range(state.cfg.warm_up_batches):
        batch = batches.next_batch()
        if batch.views is None:
            raise ContractError("batch carries no views; pipeline.PreparedBatches builds them")
        state.queue.push(encode(state.key, batch.views[1]).data)


def _assert_zero_grads(ps: ParamSet, what: str) -> None:
    for name, t in ps.items():
        if t.grad is not None and np.any(t.grad != 0.0):
            raise ContractError(f"{what} parameter {name!r} received gradient")


def _assert_finite_grads(ps: ParamSet, what: str, step: int) -> None:
    for name, t in ps.items():
        if not np.isfinite(t.grad).all():
            kind = "nan" if np.isnan(t.grad).any() else "inf"
            raise DivergenceError(f"{what} {name!r} gradient is {kind} at step {step}")


@contextlib.contextmanager
def _diverges_as_error(what: str, step: int):
    """Raise an overflow or invalid operation in the block as ``DivergenceError``."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise DivergenceError(f"{exc} in the {what} at step {step}") from exc


def moco_train_step(state: MoCoState, batch: Batch) -> StepResult:
    """One contrastive step; ``l_dis`` is 0 and ``total`` is the InfoNCE loss."""
    return _train_step(state, batch)


def _train_step(state: MoCoState, batch: Batch, extra_loss=None) -> StepResult:
    """Shared step core, and the one place that decides what a step updates.

    Order: key embeddings of the batch's key views, then the recorded
    query embeddings and losses, backprop, SGD on each query set that is
    not frozen, momentum update of the key encoder, queue push.  The key
    pass runs before the query graph opens, so its temporaries are freed
    before the graph holds its saved buffers.  An unwarmed queue, or a
    batch without query views or with views of other than ``batch_size``
    frames, raises ``ContractError`` before any of it.  Key embeddings
    that are not finite and unit-norm (the queue's own tolerance) raise it
    right after the key forward pass, naming the step.  So does a gradient
    in a frozen query set or in the key encoder, which only the moving
    average moves: it is checked after backprop and before the first
    update.
    ``extra_loss(q, k_plus)``, when given, runs inside the recorded graph
    before the queue moves and returns (term, value): ``term`` is added
    to the InfoNCE loss and ``value`` is reported as ``l_dis`` (see
    distill.distilled_train_step).

    A diverging step raises ``DivergenceError`` naming the step index (the
    ``step`` column of metrics.csv): an overflow or invalid operation in
    a forward pass or in backprop names that pass; a non-finite l_con,
    l_dis or total raises ``NonFiniteLossError`` before the backward pass,
    naming the term; a trained gradient that is not finite names its set
    and parameter.  Every error leaves parameters, velocities, queue and
    step count as they were.
    """
    cfg, step = state.cfg, state.step_count
    if not state.queue.warmed:
        raise ContractError("queue must be warmed before training steps")
    if batch.views is None:
        raise ContractError("batch carries no views; pipeline.PreparedBatches builds them")
    if batch.views[0] is None:
        raise ContractError("batch carries only key views: it is a warm-up batch")
    sizes = [len(v) for v in batch.views]
    if sizes != [cfg.batch_size] * 2:
        raise ContractError(f"views of {sizes} frames, config says {cfg.batch_size}")

    views_q, views_k = batch.views
    with _diverges_as_error("key forward pass", step):
        k_plus = encode(state.key, views_k).data
    worst = _norm_deviation(k_plus)
    if not worst <= _UNIT_NORM_TOL:
        raise ContractError(f"key embeddings not unit-norm at step {step} "
                            f"(worst deviation {worst:.3e})")
    graph = T.Graph()
    with _diverges_as_error("query forward pass", step), graph:
        q = encode(state.query, views_q, record_grads=True)
        l_con = info_nce_loss(q, k_plus, state.queue, cfg.tau)
        total, l_dis_value = l_con, 0.0
        if extra_loss is not None:
            term, l_dis_value = extra_loss(q, k_plus)
            total = T.add(l_con, term)
    losses = {"l_con": float(l_con.data), "l_dis": l_dis_value, "total": float(total.data)}
    for name, value in losses.items():
        if not math.isfinite(value):
            raise NonFiniteLossError(f"{name} is {value} at step {step}")
    with _diverges_as_error("backward pass", step):
        graph.backward(total)

    for side, enc in (("query", state.query), ("key", state.key)):
        for part, ps in (("backbone", enc.backbone), ("head", enc.head)):
            if side == "key" or ps.frozen:
                _assert_zero_grads(ps, f"{side} {part}")
            else:
                _assert_finite_grads(ps, f"{side} {part}", step)
    for query_set in (state.query.backbone, state.query.head):
        if not query_set.frozen:
            T.sgd_step(query_set, cfg.lr, cfg.momentum, cfg.weight_decay)
    momentum_update(state.key, state.query, cfg.m)

    state.queue.push(k_plus)
    state.step_count += 1
    return StepResult(**losses)
