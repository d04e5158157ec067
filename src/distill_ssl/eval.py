"""Frozen-feature extraction, linear probing, phase metrics, label sweeps.

Every function takes a ``data.Dataset``: its frames go through the
backbone in batches of 64 rows, each read from the dataset as its turn
comes (and resized only when it differs from the encoder's input size),
and its labels travel with the features.
Features are backbone outputs (pre projection head).  Transfer modes
combine teacher and student features by addition or concatenation, or
evaluate either alone.  A sweep runs each distinct encoder's backbone once
per split, in process, and releases the splits before its first probe
fit.  The probe is multinomial logistic regression fit by full-batch
gradient descent on a per-class stratified label subset.  Its weights,
with the bias as their last column, and its logits are held class-major,
so that its softmax folds a few long rows, and its features once per GEMM
of a step.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import tensor as T
from .augment import resize_to
from .contrastive import (ContractError, DivergenceError, EncoderParams, center_input,
                          forward_backbone)
from .data import Dataset
from .rng import STREAM_PROBE, Rng

MODES = ("student", "teacher", "addition", "concatenation")


class SamplingError(RuntimeError):
    """The stratified subset cannot cover every class; change seed or fraction."""


@dataclass
class FeatureSet:
    features: np.ndarray  # n x D
    labels: np.ndarray  # n ints

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ContractError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )


@dataclass(frozen=True)
class ProbeConfig:
    lr: float = 0.5
    steps: int = 300
    weight_decay: float = 1e-4
    label_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        # each float range is written to refuse NaN and infinity too
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0.0 < self.label_fraction <= 1.0:
            raise ValueError(f"label_fraction must be in (0, 1], got {self.label_fraction}")


@dataclass
class Metrics:
    accuracy: float
    precision: float
    recall: float
    jaccard: float


# ---------------------------------------------------------------------------
# feature extraction


def _mode_encoders(mode: str, student, teacher) -> tuple:
    """The encoders ``mode`` reads, in the order ``extract_features`` runs them."""
    return {"student": (student,), "teacher": (teacher,)}.get(mode, (teacher, student))


def _check_mode(mode: str, student, teacher) -> None:
    """Refuse an unknown mode, a mode without the encoders it reads, or the
    addition of two backbones of different widths."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode in ("student", "addition", "concatenation") and student is None:
        raise ContractError(f"mode {mode!r} needs student parameters")
    if mode in ("teacher", "addition", "concatenation") and teacher is None:
        raise ContractError(f"mode {mode!r} needs teacher parameters")
    if mode == "addition" and teacher.cfg.d_backbone != student.cfg.d_backbone:
        raise ContractError(f"addition needs matching feature dims, got "
                            f"{teacher.cfg.d_backbone} and {student.cfg.d_backbone}")


def _backbone_features(enc: EncoderParams, dataset: Dataset) -> np.ndarray:
    batch = 64  # 64 frames keep conv2's column buffer at 2.4 MB; 128-frame batches ran slower
    size = tuple(enc.cfg.input_size)
    outs = []
    with T.no_grad():
        for start in range(0, len(dataset), batch):
            frames = dataset.rows(slice(start, start + batch))
            if frames.shape[2:] != size:
                frames = resize_to(frames, size)
            outs.append(forward_backbone(enc, T.constant(center_input(frames))).data)
    return np.concatenate(outs, axis=0)


def extract_features(
    student: EncoderParams | None,
    teacher: EncoderParams | None,
    dataset: Dataset,
    mode: str,
    backbone=_backbone_features,
) -> FeatureSet:
    """Deterministic frozen features of a dataset for one transfer mode.

    student/teacher may be None when the mode does not use them.
    ``backbone(enc, dataset)`` gives one encoder's features.
    """
    _check_mode(mode, student, teacher)
    feats = [backbone(enc, dataset) for enc in _mode_encoders(mode, student, teacher)]
    if mode == "addition":
        return FeatureSet(feats[0] + feats[1], dataset.labels)
    return FeatureSet(np.concatenate(feats, axis=1) if mode == "concatenation" else feats[0],
                      dataset.labels)


# ---------------------------------------------------------------------------
# linear probe


def stratified_indices(labels: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """ceil(fraction * n_c) indices per class c, drawn from a seeded stream."""
    rng = Rng(seed).derive(STREAM_PROBE)
    chosen = []
    for cls in np.unique(labels):
        pool = np.flatnonzero(labels == cls)
        take = math.ceil(fraction * pool.size)
        perm = rng.derive(int(cls)).permutation(pool.size)
        chosen.append(pool[perm[:take]])
    return np.sort(np.concatenate(chosen))


def distinct_probes(labels: np.ndarray, probe: ProbeConfig, seeds: list[int]) -> list[ProbeConfig]:
    """``probe`` at each of ``seeds``, in order, whose stratified subset of
    ``labels`` no earlier seed drew.  A fit reads its seed only through that
    subset, so a dropped seed's probe would repeat the kept one's bit for bit
    (at fraction 1.0 every seed draws the whole split)."""
    drawn, kept = set(), []
    for seed in seeds:
        subset = stratified_indices(labels, probe.label_fraction, seed).tobytes()
        if subset not in drawn:
            drawn.add(subset)
            kept.append(replace(probe, seed=seed))
    return kept


@dataclass
class LinearProbe:
    weight: np.ndarray  # D x classes
    bias: np.ndarray  # classes

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(features @ self.weight + self.bias, axis=1)


def _softmax_class_major(z: np.ndarray) -> np.ndarray:
    """In place, the softmax down each column of classes x samples logits.

    The max and sum fold the class rows in order, each over all samples at
    once: up to 7 classes bitwise the rowwise softmax of samples x classes.
    """
    z -= z.max(axis=0)
    np.exp(z, out=z)
    z /= z.sum(axis=0)
    return z


def fit_linear_probe(fs: FeatureSet, cfg: ProbeConfig, num_classes: int | None = None) -> LinearProbe:
    """Full-batch gradient descent on softmax cross-entropy + L2 penalty: class-major weights
    with the bias as their last column, and the features once per GEMM, each with the ones
    that carry the bias.  A fit whose weights end up not finite raises ``DivergenceError``."""
    k = int(num_classes if num_classes is not None else fs.labels.max() + 1)
    subset = stratified_indices(fs.labels, cfg.label_fraction, cfg.seed)
    y = fs.labels[subset]
    present = np.unique(y)
    if present.size < k:
        missing = sorted(set(range(k)) - set(int(c) for c in present))
        raise SamplingError(f"classes {missing} absent from probe subset; change seed or fraction")
    xa = np.hstack((fs.features[subset], np.ones((subset.size, 1))))
    xaT = np.ascontiguousarray(xa.T)  # a transposed view of xa ran slower
    n, width = xa.shape
    onehot = (y == np.arange(k)[:, None]).astype(float)
    wa = np.zeros((k, width))
    decay = np.append(np.full(width - 1, 1.0 - cfg.lr * cfg.weight_decay), 1.0)  # not the bias
    z, g = np.empty((k, n)), np.empty((k, width))
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, after the loop
        for _ in range(cfg.steps):
            np.matmul(wa, xaT, out=z)
            _softmax_class_major(z)
            z -= onehot
            np.matmul(z, xa, out=g)
            g *= cfg.lr / n
            wa *= decay
            wa -= g
    if not np.isfinite(wa).all():
        raise DivergenceError(f"the linear probe diverged: its weights are not finite after "
                              f"{cfg.steps} steps at lr {cfg.lr}")
    return LinearProbe(np.ascontiguousarray(wa[:, :-1].T), wa[:, -1].copy())


# ---------------------------------------------------------------------------
# metrics


def compute_phase_metrics(preds, labels, num_classes: int) -> Metrics:
    """Accuracy plus unweighted class means of precision/recall/Jaccard.

    A class with neither instances nor predictions is excluded from the
    means.  A class with instances but no predictions has undefined
    precision; it is scored 0.
    """
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise ContractError(f"preds {preds.shape} vs labels {labels.shape}")
    if preds.size == 0:
        raise ContractError("empty prediction set")
    if preds.min() < 0 or preds.max() >= num_classes or labels.min() < 0 or labels.max() >= num_classes:
        raise ContractError(f"class values outside [0, {num_classes})")
    accuracy = float((preds == labels).mean())
    precisions, recalls, jaccards = [], [], []
    for cls in range(num_classes):
        tp = int(((preds == cls) & (labels == cls)).sum())
        fp = int(((preds == cls) & (labels != cls)).sum())
        fn = int(((preds != cls) & (labels == cls)).sum())
        if tp + fp + fn == 0:
            continue
        precisions.append(tp / (tp + fp) if tp + fp > 0 else 0.0)
        recalls.append(tp / (tp + fn) if tp + fn > 0 else 0.0)
        jaccards.append(tp / (tp + fp + fn))
    if not precisions:
        raise ContractError("no class had instances or predictions")
    return Metrics(
        accuracy=accuracy,
        precision=float(np.mean(precisions)),
        recall=float(np.mean(recalls)),
        jaccard=float(np.mean(jaccards)),
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepEncoder:
    """One evaluation arm: a named (mode, student, teacher) combination."""

    name: str
    mode: str
    student: EncoderParams | None = None
    teacher: EncoderParams | None = None


def check_holdout_fraction(holdout_fraction: float) -> None:
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")


def split_dataset(
    dataset: Dataset, holdout_fraction: float = 0.5, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Stratified train/holdout split, deterministic in the seed: the rows
    ``split_indices`` picks, as subsets that read no row until asked."""
    train_idx, test_idx = split_indices(dataset.labels, holdout_fraction, seed)
    return dataset.subset(train_idx), dataset.subset(test_idx)


def split_indices(
    labels: np.ndarray, holdout_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted train and holdout row indices of a stratified split.

    Raises ``SamplingError`` when a class would have no frame on one side.
    """
    check_holdout_fraction(holdout_fraction)
    rng = Rng(seed).derive(STREAM_PROBE, 0xFACE)
    train_idx, test_idx = [], []
    for cls in np.unique(labels):
        pool = np.flatnonzero(labels == cls)
        perm = rng.derive(int(cls)).permutation(pool.size)
        cut = int(round(pool.size * (1.0 - holdout_fraction)))
        if not 0 < cut < pool.size:
            raise SamplingError(
                f"holdout_fraction {holdout_fraction} splits class {cls} into {cut} train and "
                f"{pool.size - cut} held-out frames; each side needs at least one"
            )
        train_idx.extend(pool[perm[:cut]])
        test_idx.extend(pool[perm[cut:]])
    return np.sort(train_idx), np.sort(test_idx)


def label_efficiency_sweep(
    encoders: list[SweepEncoder],
    fractions: list[float],
    seeds: list[int],
    train_set: Dataset,
    test_set: Dataset,
    num_classes: int,
    probe: ProbeConfig = ProbeConfig(),
) -> tuple[list[dict], dict]:
    """One probe per (encoder, fraction, distinct subset); rows plus a
    mean/std summary over each fraction's probes.

    At each fraction only the seeds ``distinct_probes`` keeps are fitted,
    the first of each distinct stratified subset of the training labels
    (the same for every arm): one row each, and ``seeds`` in the summary
    counts them, so at fraction 1.0 a sweep fits and reports one probe.

    Arms and fractions are checked before any backbone pass: a repeated
    name raises ``ValueError`` (its summary entry would hide the other's),
    a mode, encoder or width that ``extract_features`` would refuse raises
    its error, and ``ProbeConfig`` range-checks each fraction.  Then each
    distinct (encoder object, split) backbone pass runs once, however many
    arms share it, and both splits are released
    (``Dataset.release_frames``): the call takes them over, and a caller
    that needs them again splits a fresh load.  Last, arm by arm,
    ``extract_features`` combines the passes into the arm's features, and
    its probes are fitted and scored in fraction and seed order.
    """
    if not encoders or not fractions or not seeds:
        raise ValueError("encoders, fractions and seeds must be non-empty")
    repeated = sorted(name for name, n in Counter(enc.name for enc in encoders).items() if n > 1)
    if repeated:
        raise ValueError(f"every arm needs a name of its own; repeated: {repeated}")
    probes = {fraction: distinct_probes(train_set.labels, replace(probe, label_fraction=fraction),
                                        seeds)
              for fraction in fractions}
    for arm in encoders:  # every arm is refused here, as extract_features would refuse it
        _check_mode(arm.mode, arm.student, arm.teacher)
    splits = (train_set, test_set)
    # keyed by identity; ``jobs`` keeps every key's objects alive
    jobs = {(id(enc), id(split)): (enc, split) for arm in encoders
            for enc in _mode_encoders(arm.mode, arm.student, arm.teacher) for split in splits}
    passes = {key: _backbone_features(*job) for key, job in jobs.items()}
    for split in splits:  # every row is read: no fit runs with a blob handle open
        split.release_frames()

    def passed(enc: EncoderParams, split: Dataset) -> np.ndarray:
        return passes[id(enc), id(split)]

    rows = []
    summary: dict[str, dict] = {}
    for arm in encoders:
        fs_train, fs_test = (extract_features(arm.student, arm.teacher, split, arm.mode, passed)
                             for split in splits)
        summary[arm.name] = {}
        for fraction in fractions:
            accs = []
            for cfg in probes[fraction]:
                model = fit_linear_probe(fs_train, cfg, num_classes)
                m = compute_phase_metrics(model.predict(fs_test.features), fs_test.labels,
                                          num_classes)
                rows.append(
                    {"encoder": arm.name, "mode": arm.mode, "fraction": fraction,
                     "seed": cfg.seed, **asdict(m)}
                )
                accs.append(m.accuracy)
            summary[arm.name][str(fraction)] = {
                "mean_accuracy": float(np.mean(accs)),
                "std_accuracy": float(np.std(accs)),
                "seeds": len(accs),
            }
    return rows, summary


# ---------------------------------------------------------------------------
# result emission


RESULT_FIELDS = ("encoder", "mode", "fraction", "seed", *(f.name for f in fields(Metrics)))


def write_results_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in RESULT_FIELDS})


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)


def write_accuracy_svg(summary: dict, path) -> None:
    """Accuracy-vs-fraction line chart, one polyline per encoder."""
    width, height, pad = 640, 420, 56
    plot_w, plot_h = width - 2 * pad, height - 2 * pad
    fractions = sorted({float(f) for per_enc in summary.values() for f in per_enc})
    if not fractions:
        raise ValueError("empty summary")
    fmin, fmax = min(fractions), max(fractions)
    fspan = (fmax - fmin) or 1.0

    def sx(f: float) -> float:
        return pad + (f - fmin) / fspan * plot_w

    def sy(a: float) -> float:
        return pad + (1.0 - a) * plot_h

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" font-size="13">label fraction</text>',
        f'<text x="14" y="{height // 2}" font-size="13" transform="rotate(-90 14 {height // 2})" text-anchor="middle">accuracy</text>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(tick)
        parts.append(f'<line x1="{pad - 4}" y1="{y:.1f}" x2="{pad}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{pad - 8}" y="{y + 4:.1f}" text-anchor="end" font-size="11">{tick:.2f}</text>')
    for f in fractions:
        x = sx(f)
        parts.append(f'<line x1="{x:.1f}" y1="{height - pad}" x2="{x:.1f}" y2="{height - pad + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{height - pad + 18}" text-anchor="middle" font-size="11">{f:g}</text>')
    for i, (name, per_enc) in enumerate(sorted(summary.items())):
        color = palette[i % len(palette)]
        pts = sorted((float(f), stats["mean_accuracy"]) for f, stats in per_enc.items())
        coords = " ".join(f"{sx(f):.1f},{sy(a):.1f}" for f, a in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for f, a in pts:
            parts.append(f'<circle cx="{sx(f):.1f}" cy="{sy(a):.1f}" r="3" fill="{color}"/>')
        ly = pad + 16 * i
        parts.append(f'<line x1="{width - pad - 150}" y1="{ly}" x2="{width - pad - 130}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - pad - 124}" y="{ly + 4}" font-size="12">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
