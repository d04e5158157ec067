"""Synthetic surrogate datasets, Netpbm ingestion, and bit-exact persistence.

In memory a dataset is a ``Dataset``: one N x C x H x W frames array and
one array of N integer labels; every stage reads those two arrays.
Checkpoints and dataset caches share one on-disk format: a JSON manifest
(`name.json`) describing a named tensor table and the blob's sha256, next
to a contiguous little-endian float64 blob (`name.bin`).  A dataset is
stored as its ``frames`` and ``labels`` tensors.  Round trips are bitwise
exact, and an interrupted rewrite never loads: each file is written to a
temporary sibling and renamed over the old one, blob first, so until the
new manifest lands the old manifest's sha256 rejects the new blob.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .augment import resize_to
from .rng import STREAM_BATCH, STREAM_DATA, Rng
from .tensor import ParamSet

FORMAT_VERSION = 1
# High-frequency textures give the stand-in encoder strong per-instance
# responses; weaker textures collapse embeddings at init and stall
# contrastive training within the desk-scale step budget.
_TEXTURE_AMPLITUDE = 0.45


class CheckpointError(RuntimeError):
    """Base class for persistence failures."""


class CorruptManifestError(CheckpointError):
    pass


class TruncatedBlobError(CheckpointError):
    pass


class TensorShapeError(CheckpointError):
    pass


class NetpbmError(ValueError):
    """Malformed or unsupported image file."""


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SyntheticSpec:
    """Per-phase sinusoidal textures on distinct intensity plateaus.

    Frequency bands must be pairwise disjoint so phases stay statistically
    separable; the generic and target domains additionally live on
    disjoint intensity ranges, which realizes a measurable domain gap.
    """

    num_phases: int
    frames_per_phase: int
    image_size: tuple[int, int] = (32, 32)
    channels: int = 1
    texture_freq_range: tuple[tuple[float, float], ...] = ()
    base_intensity: tuple[float, ...] = ()
    noise_sigma: float = 0.03
    domain_tag: str = "target"

    def __post_init__(self):
        if self.num_phases < 1 or self.frames_per_phase < 1:
            raise ValueError("num_phases and frames_per_phase must be positive")
        if len(self.texture_freq_range) != self.num_phases:
            raise ValueError("one frequency band per phase required")
        if len(self.base_intensity) != self.num_phases:
            raise ValueError("one base intensity per phase required")
        for mean in self.base_intensity:
            if not 0.2 <= mean <= 0.8:
                raise ValueError(f"base intensity {mean} outside [0.2, 0.8]")
        bands = sorted(self.texture_freq_range)
        for (alo, ahi), (blo, bhi) in zip(bands, bands[1:]):
            if ahi > blo:
                raise ValueError(f"frequency bands overlap: ({alo},{ahi}) and ({blo},{bhi})")
        if self.domain_tag not in ("generic", "target"):
            raise ValueError(f"domain_tag must be 'generic' or 'target', got {self.domain_tag!r}")


@dataclass
class Dataset:
    """Labelled frames: ``frames`` N x C x H x W float64, ``labels`` N int64."""

    frames: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.frames.ndim != 4 or self.labels.shape != self.frames.shape[:1]:
            raise ValueError(
                f"frames {self.frames.shape} do not align with labels {self.labels.shape}"
            )

    def __len__(self) -> int:
        return self.frames.shape[0]

    def subset(self, indices) -> Dataset:
        return Dataset(self.frames[indices], self.labels[indices])


def _spread(lo: float, hi: float, n: int) -> tuple[float, ...]:
    step = (hi - lo) / max(n - 1, 1)
    return tuple(lo + step * i for i in range(n))


def target_spec(
    num_phases: int = 4, frames_per_phase: int = 300, image_size: tuple[int, int] = (32, 32)
) -> SyntheticSpec:
    """Target domain: high-frequency bands, upper intensity range."""
    bands = tuple((5.2 + 2.4 * i, 6.0 + 2.4 * i) for i in range(num_phases))
    return SyntheticSpec(
        num_phases=num_phases,
        frames_per_phase=frames_per_phase,
        image_size=image_size,
        texture_freq_range=bands,
        base_intensity=_spread(0.45, 0.75, num_phases),
        noise_sigma=0.005,
        domain_tag="target",
    )


def generic_spec(
    num_phases: int = 8, frames_per_phase: int = 300, image_size: tuple[int, int] = (32, 32)
) -> SyntheticSpec:
    """Generic domain: bands interleaved into the target's spectral gaps,
    intensities on a disjoint lower range (the cross-domain gap)."""
    gap_bands = (
        (4.4, 5.0),
        (6.1, 6.7),
        (6.8, 7.4),
        (8.5, 9.1),
        (9.2, 9.8),
        (10.9, 11.5),
        (11.6, 12.2),
        (13.3, 13.9),
    )
    bands = gap_bands[:num_phases]
    return SyntheticSpec(
        num_phases=num_phases,
        frames_per_phase=frames_per_phase,
        image_size=image_size,
        texture_freq_range=bands,
        base_intensity=_spread(0.2, 0.42, num_phases),
        noise_sigma=0.005,
        domain_tag="generic",
    )


def generate_synthetic_dataset(spec: SyntheticSpec, seed: int) -> Dataset:
    """Deterministic dataset: frame i of phase p depends only on (spec, seed, p, i)."""
    h, w = spec.image_size
    ys = (np.arange(h) / h)[:, None]
    xs = (np.arange(w) / w)[None, :]
    root = Rng(seed)
    frames = np.empty((spec.num_phases * spec.frames_per_phase, spec.channels, h, w))
    for phase in range(spec.num_phases):
        flo, fhi = spec.texture_freq_range[phase]
        base = spec.base_intensity[phase]
        for i in range(spec.frames_per_phase):
            rng = root.derive(STREAM_DATA, phase, i)
            freq = flo + (fhi - flo) * rng.uniform()
            theta = math.pi * rng.uniform()
            offset = 2.0 * math.pi * rng.uniform()
            proj = xs * math.cos(theta) + ys * math.sin(theta)
            tex = base + _TEXTURE_AMPLITUDE * np.sin(2.0 * math.pi * freq * proj + offset)
            if spec.noise_sigma > 0.0:
                tex = tex + spec.noise_sigma * rng.normal(h * w).reshape(h, w)
            frames[phase * spec.frames_per_phase + i] = np.clip(tex, 0.0, 1.0)
    return Dataset(frames, np.repeat(np.arange(spec.num_phases), spec.frames_per_phase))


# ---------------------------------------------------------------------------
# manifest + blob persistence


def _base_path(path) -> Path:
    p = Path(path)
    if p.suffix in (".json", ".bin"):
        p = p.with_suffix("")
    return p


def _write_pair(tensors: dict[str, np.ndarray], path, config: dict | None) -> None:
    base = _base_path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    table = []
    arrays = []
    digest = hashlib.sha256()
    offset = 0
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"tensor {name!r} contains non-finite values")
        table.append({"name": name, "shape": list(arr.shape), "offset": offset, "length": arr.nbytes})
        arrays.append(arr)
        digest.update(arr)
        offset += arr.nbytes
    manifest = {
        "version": FORMAT_VERSION,
        "config": config or {},
        "tensors": table,
        "sha256": digest.hexdigest(),
    }
    _replace(base.with_suffix(".bin"), arrays)
    _replace(base.with_suffix(".json"), [json.dumps(manifest, indent=1, sort_keys=True).encode()])


def _replace(path: Path, chunks) -> None:
    """Write the buffers ``chunks`` to a temporary sibling, then rename it over ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def _read_pair(path) -> tuple[dict[str, np.ndarray], dict]:
    base = _base_path(path)
    manifest_path = base.with_suffix(".json")
    blob_path = base.with_suffix(".bin")
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise CorruptManifestError(f"missing manifest {manifest_path}")
    except json.JSONDecodeError as exc:
        raise CorruptManifestError(f"unparseable manifest {manifest_path}: {exc}")
    if not isinstance(manifest, dict) or "tensors" not in manifest:
        raise CorruptManifestError(f"manifest {manifest_path} lacks a tensor table")
    if manifest.get("version") != FORMAT_VERSION:
        raise CorruptManifestError(
            f"manifest {manifest_path} has version {manifest.get('version')}, expected {FORMAT_VERSION}"
        )
    try:
        blob = blob_path.read_bytes()
    except FileNotFoundError:
        raise TruncatedBlobError(f"missing blob {blob_path}")
    expected = 0
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        if entry["length"] != count * 8:
            raise CorruptManifestError(
                f"tensor {entry['name']!r}: length {entry['length']} != 8 * prod{shape}"
            )
        if entry["offset"] != expected:
            raise CorruptManifestError(
                f"tensor {entry['name']!r}: offset {entry['offset']}, expected {expected}"
            )
        expected += entry["length"]
    if len(blob) != expected:
        raise TruncatedBlobError(f"blob {blob_path} holds {len(blob)} bytes, manifest says {expected}")
    # Manifests written before the digest existed lack the key and load unchecked.
    digest = manifest.get("sha256")
    if digest is not None and hashlib.sha256(blob).hexdigest() != digest:
        raise CorruptManifestError(f"blob {blob_path} does not match the sha256 in {manifest_path}")
    tensors = {}
    for entry in manifest["tensors"]:
        arr = np.frombuffer(blob, dtype="<f8", count=entry["length"] // 8, offset=entry["offset"])
        tensors[entry["name"]] = arr.reshape(tuple(entry["shape"])).astype(np.float64)
    return tensors, manifest.get("config", {})


def save_checkpoint(named: dict[str, ParamSet], path, config: dict | None = None) -> None:
    """Write parameter sets as ``<set name>/<param name>`` tensor entries."""
    tensors = {}
    for set_name, ps in named.items():
        for pname, t in ps.items():
            tensors[f"{set_name}/{pname}"] = t.data
    _write_pair(tensors, path, config)


def load_checkpoint(
    path, expected_shapes: dict[str, dict[str, tuple[int, ...]]] | None = None
) -> tuple[dict[str, ParamSet], dict]:
    """Read parameter sets back; optionally validate shapes before building.

    Validation happens against the full manifest first, so a single bad
    tensor loads nothing.
    """
    tensors, config = _read_pair(path)
    grouped: dict[str, dict[str, np.ndarray]] = {}
    for key, arr in tensors.items():
        set_name, _, pname = key.partition("/")
        if not pname:
            raise CorruptManifestError(f"tensor name {key!r} lacks a '<set>/<param>' form")
        grouped.setdefault(set_name, {})[pname] = arr
    if expected_shapes is not None:
        for set_name, params in expected_shapes.items():
            got = grouped.get(set_name)
            if got is None:
                raise TensorShapeError(f"checkpoint missing parameter set {set_name!r}")
            for pname, shape in params.items():
                if pname not in got:
                    raise TensorShapeError(f"checkpoint missing tensor {set_name}/{pname}")
                if got[pname].shape != tuple(shape):
                    raise TensorShapeError(
                        f"tensor {set_name}/{pname} has shape {list(got[pname].shape)}, "
                        f"expected {list(shape)}"
                    )
    return {name: ParamSet(params) for name, params in grouped.items()}, config


def save_dataset(dataset: Dataset, path, config: dict | None = None) -> None:
    tensors = {"frames": dataset.frames, "labels": dataset.labels.astype(np.float64)}
    _write_pair(tensors, path, config)


def load_dataset(path) -> tuple[Dataset, dict]:
    tensors, config = _read_pair(path)
    if "frames" not in tensors or "labels" not in tensors:
        raise CorruptManifestError(f"dataset {path} lacks frames/labels tensors")
    try:
        return Dataset(tensors["frames"], tensors["labels"]), config
    except ValueError as exc:
        raise CorruptManifestError(f"dataset {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Netpbm ingestion (binary P5 grayscale / P6 color, maxval 255)


def _read_netpbm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    magic = raw[:2]
    if magic not in (b"P5", b"P6"):
        raise NetpbmError(f"{path.name}: unsupported format {magic!r} (want binary P5/P6)")

    # Header: three ASCII integers (width, height, maxval) separated by
    # whitespace, with '#' comments running to end of line.
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit():
            raise NetpbmError(f"{path.name}: malformed header near byte {start}")
        fields.append(int(token))
    if pos >= len(raw):
        raise NetpbmError(f"{path.name}: header ends before pixel data")
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise NetpbmError(f"{path.name}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise NetpbmError(f"{path.name}: maxval {maxval} unsupported (want 255)")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    data = raw[pos : pos + need]
    if len(data) < need:
        raise NetpbmError(f"{path.name}: pixel data truncated ({len(data)} of {need} bytes)")
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        return arr.reshape(1, height, width)
    return arr.reshape(height, width, 3).transpose(2, 0, 1)


_NETPBM_SUFFIXES = (".pgm", ".ppm", ".pnm")


def load_image_directory(
    path, expected_size: tuple[int, int]
) -> tuple[list[np.ndarray], list[int] | None]:
    """Read Netpbm frames as C x H x W arrays, resized to ``expected_size``.

    Files directly under ``path`` load unlabeled (labels None).  When the
    images live in immediate subdirectories instead, sorted subdirectory
    names become class labels.  Ordering is lexicographic throughout.
    """
    root = Path(path)
    if not root.is_dir():
        raise NetpbmError(f"{path} is not a directory")
    direct = sorted(p for p in root.iterdir() if p.is_file() and p.suffix in _NETPBM_SUFFIXES)
    if direct:
        frames = [resize_to(_read_netpbm(p), expected_size) for p in direct]
        return frames, None
    frames = []
    labels: list[int] = []
    subdirs = sorted(p for p in root.iterdir() if p.is_dir())
    for cls, sub in enumerate(subdirs):
        for p in sorted(q for q in sub.iterdir() if q.is_file() and q.suffix in _NETPBM_SUFFIXES):
            frames.append(resize_to(_read_netpbm(p), expected_size))
            labels.append(cls)
    return frames, (labels if frames else None)


# ---------------------------------------------------------------------------
# deterministic batch order


@dataclass
class Batch:
    """One training batch plus the provenance needed for seeded augmentation."""

    frames: np.ndarray  # B x C x H x W
    indices: np.ndarray  # dataset indices, length B
    epoch: int
    # The query and key view stacks, when built ahead of the step
    # (pipeline's view feed); None lets the step build them itself.
    views: tuple[np.ndarray, np.ndarray] | None = None


class BatchStream:
    """Endless batches over a dataset, reshuffled each epoch from one seed.

    Epoch e's order is a Fisher-Yates permutation drawn from a stream
    keyed by (seed, epoch); the trailing remainder that does not fill a
    whole batch is dropped.
    """

    def __init__(self, frames: np.ndarray, batch_size: int, seed: int):
        if batch_size < 1 or batch_size > frames.shape[0]:
            raise ValueError(
                f"batch_size {batch_size} invalid for dataset of {frames.shape[0]} frames"
            )
        self._frames = frames
        self._batch = batch_size
        self._seed = seed
        self._epoch = 0
        self._order = self._shuffle(0)
        self._cursor = 0

    def _shuffle(self, epoch: int) -> np.ndarray:
        return Rng(self._seed).derive(STREAM_BATCH, epoch).permutation(self._frames.shape[0])

    def next_batch(self) -> Batch:
        if self._cursor + self._batch > self._order.size:
            self._epoch += 1
            self._order = self._shuffle(self._epoch)
            self._cursor = 0
        idx = self._order[self._cursor : self._cursor + self._batch]
        self._cursor += self._batch
        return Batch(frames=self._frames[idx], indices=idx.copy(), epoch=self._epoch)
