"""Frozen-feature extraction, linear probing, phase metrics, label sweeps.

Every function takes a ``data.Dataset``: its frames go through the
backbone in batches (resized first only when they differ from the
encoder's input size), and its labels travel with the features.
Features are backbone outputs (pre projection head).  Transfer modes
combine teacher and student features by addition or concatenation, or
evaluate either alone.  The probe is multinomial logistic regression fit
by full-batch gradient descent on a per-class stratified label subset.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import tensor as T
from .augment import resize_to
from .contrastive import ContractError, EncoderParams, center_input, forward_backbone
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


def _backbone_features(enc: EncoderParams, frames: np.ndarray, batch: int = 128) -> np.ndarray:
    size = tuple(enc.cfg.input_size)
    if frames.shape[2:] != size:
        frames = resize_to(frames, size)
    outs = []
    with T.no_grad():
        for start in range(0, frames.shape[0], batch):
            x = T.constant(center_input(frames[start : start + batch]))
            outs.append(forward_backbone(enc, x).data)
    return np.concatenate(outs, axis=0)


def extract_features(
    student: EncoderParams | None,
    teacher: EncoderParams | None,
    dataset: Dataset,
    mode: str,
) -> FeatureSet:
    """Deterministic frozen features of a dataset for one transfer mode.

    student/teacher may be None when the mode does not use them.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode in ("student", "addition", "concatenation") and student is None:
        raise ContractError(f"mode {mode!r} needs student parameters")
    if mode in ("teacher", "addition", "concatenation") and teacher is None:
        raise ContractError(f"mode {mode!r} needs teacher parameters")
    frames = dataset.frames
    if mode == "student":
        feats = _backbone_features(student, frames)
    elif mode == "teacher":
        feats = _backbone_features(teacher, frames)
    else:
        f_t = _backbone_features(teacher, frames)
        f_s = _backbone_features(student, frames)
        if f_t.shape[1] != f_s.shape[1] and mode == "addition":
            raise ContractError(
                f"addition needs matching feature dims, got {f_t.shape[1]} and {f_s.shape[1]}"
            )
        feats = f_t + f_s if mode == "addition" else np.concatenate([f_t, f_s], axis=1)
    return FeatureSet(feats, dataset.labels)


# ---------------------------------------------------------------------------
# linear probe


def stratified_indices(labels: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """ceil(fraction * n_c) indices per class c, drawn from a seeded stream."""
    rng = Rng(seed).derive(STREAM_PROBE)
    chosen = []
    for cls in np.unique(labels):
        pool = np.flatnonzero(labels == cls)
        if pool.size == 0:
            raise SamplingError(f"class {cls} has no samples")
        take = math.ceil(fraction * pool.size)
        perm = rng.derive(int(cls)).permutation(pool.size)
        chosen.append(pool[perm[:take]])
    return np.sort(np.concatenate(chosen))


@dataclass
class LinearProbe:
    weight: np.ndarray  # D x classes
    bias: np.ndarray  # classes
    loss_curve: list[float] = field(default_factory=list)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(features @ self.weight + self.bias, axis=1)


def fit_linear_probe(fs: FeatureSet, cfg: ProbeConfig, num_classes: int | None = None) -> LinearProbe:
    """Full-batch gradient descent on softmax cross-entropy + L2 penalty."""
    k = int(num_classes if num_classes is not None else fs.labels.max() + 1)
    subset = stratified_indices(fs.labels, cfg.label_fraction, cfg.seed)
    x = fs.features[subset]
    y = fs.labels[subset]
    present = np.unique(y)
    if present.size < k:
        missing = sorted(set(range(k)) - set(int(c) for c in present))
        raise SamplingError(f"classes {missing} absent from probe subset; change seed or fraction")
    n = x.shape[0]
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    w = np.zeros((x.shape[1], k))
    b = np.zeros(k)
    curve = []
    for _ in range(cfg.steps):
        p, log_p = T.softmax_and_log(x @ w + b)
        ce = float(-log_p[np.arange(n), y].mean())
        curve.append(ce + 0.5 * cfg.weight_decay * float((w * w).sum()))
        d = (p - onehot) / n
        w -= cfg.lr * (x.T @ d + cfg.weight_decay * w)
        b -= cfg.lr * d.sum(axis=0)
    return LinearProbe(w, b, curve)


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


def split_dataset(
    dataset: Dataset, holdout_fraction: float = 0.5, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Stratified train/holdout split, deterministic in the seed."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    labels = dataset.labels
    rng = Rng(seed).derive(STREAM_PROBE, 0xFACE)
    train_idx, test_idx = [], []
    for cls in np.unique(labels):
        pool = np.flatnonzero(labels == cls)
        perm = rng.derive(int(cls)).permutation(pool.size)
        cut = int(round(pool.size * (1.0 - holdout_fraction)))
        train_idx.extend(pool[perm[:cut]])
        test_idx.extend(pool[perm[cut:]])
    train_idx.sort()
    test_idx.sort()
    return dataset.subset(train_idx), dataset.subset(test_idx)


def label_efficiency_sweep(
    encoders: list[SweepEncoder],
    fractions: list[float],
    seeds: list[int],
    train_set: Dataset,
    test_set: Dataset,
    num_classes: int,
    probe: ProbeConfig = ProbeConfig(),
) -> tuple[list[dict], dict]:
    """One probe per (encoder, fraction, seed); rows plus mean/std summary."""
    if not encoders or not fractions or not seeds:
        raise ValueError("encoders, fractions and seeds must be non-empty")
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ValueError(f"fraction {f} outside (0, 1]")
    rows = []
    summary: dict[str, dict] = {}
    for enc in encoders:
        fs_train = extract_features(enc.student, enc.teacher, train_set, enc.mode)
        fs_test = extract_features(enc.student, enc.teacher, test_set, enc.mode)
        summary[enc.name] = {}
        for fraction in fractions:
            accs = []
            for seed in seeds:
                cfg = replace(probe, label_fraction=fraction, seed=seed)
                model = fit_linear_probe(fs_train, cfg, num_classes)
                m = compute_phase_metrics(model.predict(fs_test.features), fs_test.labels, num_classes)
                rows.append(
                    {"encoder": enc.name, "mode": enc.mode, "fraction": fraction, "seed": seed,
                     **asdict(m)}
                )
                accs.append(m.accuracy)
            summary[enc.name][str(fraction)] = {
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


def write_accuracy_svg(summary: dict, path, width: int = 640, height: int = 420) -> None:
    """Accuracy-vs-fraction line chart, one polyline per encoder."""
    pad = 56
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
