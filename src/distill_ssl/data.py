"""Synthetic surrogate datasets, Netpbm ingestion, and bit-exact persistence.

In memory a dataset is a ``Dataset``: one N x C x H x W frames array and
one array of N integer labels; every stage reads those two arrays, and a
stage whose worker reads the frames releases them from the dataset
(``Dataset.release_frames``).  Checkpoints and dataset caches share one
on-disk format: a JSON manifest (`name.json`) describing a named tensor
table and the blob's digest, next to a contiguous little-endian float64
blob (`name.bin`).  A dataset is stored as its ``frames`` and ``labels``
tensors, and one whose labels are not whole numbers >= 0 does not load;
a tensor with a non-finite value is not saved.  Round trips are bitwise
exact, and an interrupted rewrite never loads: each file is written to a
temporary sibling and renamed over the old one, blob first, so until the
new manifest lands the old manifest's digest rejects the new blob.

Manifests are written at version 2, whose ``blake2b`` entry is the
blob's BLAKE2b-256 (CPython's built-in ``_blake2``, which links no
OpenSSL), and a version-2 manifest without it is refused.  Version-1
manifests still load: their ``sha256`` entry is checked through
``hashlib`` (OpenSSL), imported only on that path, and one written
before the digest existed loads unchecked.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from _blake2 import blake2b

from .augment import resize_to
from .rng import STREAM_BATCH, STREAM_DATA, Rng
from .tensor import ParamSet

FORMAT_VERSION = 2
# The blob digest's manifest entry, per format version.
_DIGEST_KEYS = {1: "sha256", FORMAT_VERSION: "blake2b"}
# Values per finiteness check on save: its mask is 64 KiB, not a byte per value of the blob.
_FINITE_BLOCK = 1 << 16
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
        if min(self.image_size) < 1 or self.channels < 1:
            raise ValueError(f"image_size and channels must be >= 1, "
                             f"got {self.image_size} and {self.channels}")
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


class Dataset:
    """Labelled frames: ``frames`` N x C x H x W float64, ``labels`` N int64.

    A process that hands the frames to a forked worker, which alone reads
    them, releases its own reference with ``release_frames`` (the training
    stages and the label sweep do): the dataset then keeps only its labels,
    and reading its frames raises ``RuntimeError``.
    """

    def __init__(self, frames, labels):
        self._frames = np.asarray(frames, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self._frames.ndim != 4 or self.labels.shape != self._frames.shape[:1]:
            raise ValueError(
                f"frames {self._frames.shape} do not align with labels {self.labels.shape}"
            )

    @property
    def frames(self) -> np.ndarray:
        if self._frames is None:
            raise RuntimeError("this dataset's frames were taken over by a stage that released "
                               "them; load the dataset again to read its frames")
        return self._frames

    def release_frames(self) -> None:
        """Drop this dataset's reference to its frames; only the labels stay."""
        self._frames = None

    def __len__(self) -> int:
        return self.labels.shape[0]

    def subset(self, indices) -> Dataset:
        """The rows ``indices``: copies for an index array, views for a slice."""
        return Dataset(self.frames[indices], self.labels[indices])

    def reorder(self, order: np.ndarray) -> None:
        """Permute the rows in place so that new row i is old row ``order[i]``.

        Equal to ``subset(order)`` without its copy of the frames: one walk
        along each cycle of the permutation moves every row once, through
        one row of scratch.  ``order`` must be a permutation of the rows.
        """
        order = np.asarray(order)
        n = len(self)
        if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError(f"order must be a permutation of the {n} rows")
        frames, row = self.frames, np.empty_like(self.frames[0])
        done = order == np.arange(n)  # fixed points stay where they are
        for start in np.flatnonzero(~done).tolist():
            if done[start]:
                continue
            row[...] = frames[start]
            dst = start
            while (src := int(order[dst])) != start:
                frames[dst] = frames[src]
                done[dst] = True
                dst = src
            frames[dst] = row
            done[dst] = True
        self.labels = self.labels[order]


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
    if num_phases > len(gap_bands):
        raise ValueError(f"generic_spec has {len(gap_bands)} frequency bands, "
                         f"got {num_phases} classes")
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
    """Write ``tensors`` as one blob and its manifest, refusing any non-finite value.

    Each tensor is checked ``_FINITE_BLOCK`` values at a time, so a save
    allocates no mask the size of the blob, and is written straight from
    its own buffer: a float64 C-contiguous tensor is never copied.
    """
    base = _base_path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    table = []
    arrays = []
    digest = blake2b(digest_size=32)
    offset = 0
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        flat = arr.reshape(-1)
        for start in range(0, flat.size, _FINITE_BLOCK):
            if not np.isfinite(flat[start : start + _FINITE_BLOCK]).all():
                raise CheckpointError(f"tensor {name!r} contains non-finite values")
        table.append({"name": name, "shape": list(arr.shape), "offset": offset, "length": arr.nbytes})
        arrays.append(arr)
        digest.update(arr)
        offset += arr.nbytes
    manifest = {
        "version": FORMAT_VERSION,
        "config": config or {},
        "tensors": table,
        "blake2b": digest.hexdigest(),
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


def _well_formed(entry) -> bool:
    """A tensor entry: a string name, non-negative int dims, int offset and length."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"])
            and type(entry.get("offset")) is int and type(entry.get("length")) is int)


def _hexdigest(key: str, blob: np.ndarray) -> str:
    if key == "sha256":
        import hashlib  # maps OpenSSL: only a version-1 manifest's load pays for it

        return hashlib.sha256(blob).hexdigest()
    return blake2b(blob, digest_size=32).hexdigest()


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
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors"), list):
        raise CorruptManifestError(f"manifest {manifest_path} lacks a tensor table")
    version = manifest.get("version")
    if type(version) is not int or version not in _DIGEST_KEYS:
        raise CorruptManifestError(
            f"manifest {manifest_path} has version {version}, expected {FORMAT_VERSION} or 1"
        )
    digest_key = _DIGEST_KEYS[version]
    digest = manifest.get(digest_key)
    # Only a version-1 manifest written before the digest existed loads unchecked.
    if digest is None and version == FORMAT_VERSION:
        raise CorruptManifestError(f"manifest {manifest_path} lacks the blob's {digest_key}")
    expected = 0
    for entry in manifest["tensors"]:
        if not _well_formed(entry):
            raise CorruptManifestError(f"manifest {manifest_path}: bad tensor entry {entry!r:.200}")
        shape = tuple(entry["shape"])
        if entry["length"] != math.prod(shape) * 8:
            raise CorruptManifestError(
                f"tensor {entry['name']!r}: length {entry['length']} != 8 * prod{shape}"
            )
        if entry["offset"] != expected:
            raise CorruptManifestError(
                f"tensor {entry['name']!r}: offset {entry['offset']}, expected {expected}"
            )
        expected += entry["length"]
    # The blob is read straight into the one array that its tensors view,
    # so a load holds one copy of the data at every point.
    try:
        with open(blob_path, "rb") as fh:
            held = os.fstat(fh.fileno()).st_size
            if held == expected:
                flat = np.empty(expected // 8, dtype="<f8")
                held = fh.readinto(flat)
    except FileNotFoundError:
        raise TruncatedBlobError(f"missing blob {blob_path}")
    if held != expected:
        raise TruncatedBlobError(f"blob {blob_path} holds {held} bytes, manifest says {expected}")
    if digest is not None and _hexdigest(digest_key, flat) != digest:
        raise CorruptManifestError(
            f"blob {blob_path} does not match the {digest_key} in {manifest_path}"
        )
    if not flat.dtype.isnative:
        flat = flat.astype(np.float64)
    tensors = {}
    for entry in manifest["tensors"]:
        start = entry["offset"] // 8
        tensors[entry["name"]] = flat[start : start + entry["length"] // 8].reshape(entry["shape"])
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
    """The dataset saved at ``path``; refused unless every label is a whole
    number in [0, 2**63), which int64 holds exactly."""
    tensors, config = _read_pair(path)
    if "frames" not in tensors or "labels" not in tensors:
        raise CorruptManifestError(f"dataset {path} lacks frames/labels tensors")
    labels = tensors["labels"]
    bad = np.flatnonzero(~((labels >= 0) & (labels < 2.0**63) & (labels == np.floor(labels))))
    if bad.size:
        raise CorruptManifestError(f"dataset {path}: label {float(labels.flat[bad[0]])!r} in row "
                                   f"{bad[0]} is not a whole number in [0, 2**63)")
    try:
        return Dataset(tensors["frames"], labels), config
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

    # B x C x H x W; None on the training loop's batches, whose views come
    # from the worker (pipeline._ViewFeed)
    frames: np.ndarray | None
    indices: np.ndarray  # dataset indices, length B
    epoch: int
    # The query and key view stacks (pipeline.PreparedBatches); the query
    # stack is None on a batch that only warms the queues.  A step raises
    # ContractError on a batch without both.
    views: tuple[np.ndarray | None, np.ndarray] | None = None
    # A frozen teacher's log soft targets for these views, B x (M+1), and
    # its queue pointer before it pushed their keys (distill.teach); None
    # while the teacher queue warms or without a teacher.
    log_p_t: np.ndarray | None = None
    teacher_ptr: int | None = None


class BatchStream:
    """Endless batches over a dataset, reshuffled each epoch from one seed.

    Epoch e's order is a Fisher-Yates permutation drawn from a stream
    keyed by (seed, epoch); the trailing remainder that does not fill a
    whole batch is dropped.  ``next_indices`` reads only the row count, so
    an owner that takes indices alone may set ``frames`` to None.
    """

    def __init__(self, frames: np.ndarray, batch_size: int, seed: int):
        self.frames, self._rows = frames, frames.shape[0]
        if batch_size < 1 or batch_size > self._rows:
            raise ValueError(f"batch_size {batch_size} invalid for dataset of {self._rows} frames")
        self._batch = batch_size
        self._seed = seed
        self._epoch = 0
        self._order = self._shuffle(0)
        self._cursor = 0

    def _shuffle(self, epoch: int) -> np.ndarray:
        return Rng(self._seed).derive(STREAM_BATCH, epoch).permutation(self._rows)

    def next_indices(self) -> tuple[np.ndarray, int]:
        """The next batch's dataset indices and epoch, without its frames."""
        if self._cursor + self._batch > self._order.size:
            self._epoch += 1
            self._order = self._shuffle(self._epoch)
            self._cursor = 0
        idx = self._order[self._cursor : self._cursor + self._batch].copy()
        self._cursor += self._batch
        return idx, self._epoch

    def next_batch(self) -> Batch:
        idx, epoch = self.next_indices()
        return Batch(frames=self.frames[idx], indices=idx, epoch=epoch)
