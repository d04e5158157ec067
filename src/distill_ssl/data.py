"""Synthetic surrogate datasets, Netpbm ingestion, and bit-exact persistence.

A dataset is a ``Dataset``: N integer labels, held in memory, and N
frames (C x H x W float64 each), which it reads a few rows at a time from
one source: an array in memory, the frames tensor of a loaded blob
(``load_dataset``), or the generator of ``generate_synthetic_dataset``,
which makes each frame when it is read.  No process holds a whole
dataset: ``save_dataset`` writes ``_CHUNK_ROWS`` rows at a time, a view
worker reads each batch's rows, and feature extraction each 64-row
batch's.  A stage whose worker reads the frames releases the dataset in
its own process (``Dataset.release_frames``).

Checkpoints and dataset caches share one on-disk format: a JSON manifest
(`name.json`) describing a named tensor table and the blob's digest, next
to a contiguous little-endian float64 blob (`name.bin`).  A dataset is
stored as its ``frames`` and ``labels`` tensors, and one whose labels are
not whole numbers >= 0 does not load; a tensor with a non-finite value is
not saved.  Round trips are bitwise exact, and an interrupted rewrite
never loads: each file is written to a temporary sibling and renamed over
the old one, blob first, so until the new manifest lands the old
manifest's digest rejects the new blob.

Manifests are at version 2, the one version that loads: its ``blake2b``
entry is the blob's BLAKE2b-256 (CPython's built-in ``_blake2``, which
links no OpenSSL), and every load checks it.  A manifest of another
version, or one without the entry, is refused; every stage that writes
one is deterministic, so re-running it rebuilds the same blob.

Read after verify: a value is read from a blob only through the handle
that its digest was checked through.  A load opens the blob, notes its
device, inode, size, ``st_mtime_ns`` and ``st_ctime_ns``, and streams it
through the digest ``_DIGEST_BLOCK`` bytes at a time; the load is refused
unless those stamps still hold after the pass.  A checkpoint's values are
the bytes that pass read.  A dataset keeps the handle, and each read of
its rows ``preadv``s them into a new array, refuses a read that did not
fill every byte (``TruncatedBlobError``), then ``fstat``s the handle and
refuses a file whose stamps changed (``TruncatedBlobError`` when its size
did, else ``CorruptManifestError``), naming the file.  A save that renames
a new blob over the path stamps the old file's ctime too, so a dataset
read across a save is refused, never read half old and half new.  The
check rests on the file system stamping every write: where timestamps
are coarse (before multigrain timestamps, Linux 6.13), a write made in
place within one clock tick of the save's rename would keep the stamps.
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
from .rng import STREAM_BATCH, STREAM_DATA, Rng, derive_seeds, normals, uniforms
from .tensor import ParamSet

FORMAT_VERSION = 2
# Values per finiteness check on save: its mask is 64 KiB, not a byte per value of the blob.
_FINITE_BLOCK = 1 << 16
# Rows that a save writes, and the generator makes, at a time: 512 KiB of 32 x 32 frames.
_CHUNK_ROWS = 64
# Bytes per read of a load's digest pass: the one buffer it needs for a dataset.
_DIGEST_BLOCK = 1 << 18
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


class _Rows:
    """A dataset's row source: its ``shape`` N x C x H x W, and ``read(index)``,
    the rows ``index`` (a slice or an array of row numbers) as an array."""

    def share(self) -> _Rows:
        """The source for a subset of the rows."""
        return self

    def close(self) -> None:
        pass


class _ArrayRows(_Rows):
    """Rows of an array in memory: a slice reads a view, an index array a copy."""

    def __init__(self, frames: np.ndarray):
        self.frames, self.shape = frames, frames.shape

    def read(self, index) -> np.ndarray:
        return self.frames[index]


class Dataset:
    """Labelled frames: N x C x H x W float64 rows and N int64 ``labels``.

    ``frames`` is an array, or a row source of this module (``load_dataset``
    and ``generate_synthetic_dataset`` make them).  ``rows`` reads the rows
    a caller names, and ``subset`` names rows without reading any.  A
    process that hands the dataset to a forked worker, which alone reads
    its rows, releases it (``release_frames``; the training stages and the
    label sweep do): the source goes, a loaded blob's handle is closed, and
    only the labels stay.  As a context manager it releases on exit.
    """

    def __init__(self, frames, labels):
        if not isinstance(frames, _Rows):
            frames = _ArrayRows(np.asarray(frames, dtype=np.float64))
        self._source, self._index = frames, None  # the source's rows, when not all of them in order
        self.labels = np.asarray(labels, dtype=np.int64)
        self.shape = tuple(frames.shape)
        if len(self.shape) != 4 or self.labels.shape != self.shape[:1]:
            raise ValueError(f"frames {self.shape} do not align with labels {self.labels.shape}")

    def _open(self) -> _Rows:
        if self._source is None:
            raise RuntimeError("this dataset's frames were taken over by a stage that released "
                               "them; load the dataset again to read its frames")
        return self._source

    def rows(self, index) -> np.ndarray:
        """The frames of the rows ``index``, a slice or an array of row numbers."""
        return self._open().read(index if self._index is None else self._index[index])

    @property
    def frames(self) -> np.ndarray:
        """Every row at once: what no stage reads."""
        return self.rows(slice(None))

    def release_frames(self) -> None:
        """Drop this dataset's source, closing a loaded blob's handle; only the labels stay."""
        if self._source is not None:
            self._source.close()
        self._source = self._index = None

    def __enter__(self) -> Dataset:
        return self

    def __exit__(self, *exc) -> None:
        self.release_frames()

    def __len__(self) -> int:
        return self.labels.shape[0]

    def subset(self, indices) -> Dataset:
        """The rows ``indices``, read from this dataset's source as they are
        asked for; a subset of a loaded dataset has a handle of its own."""
        source = self._open()
        index = np.arange(len(self))[indices] if self._index is None else self._index[indices]
        part = Dataset.__new__(Dataset)
        part._source, part._index, part.labels = source.share(), index, self.labels[indices]
        part.shape = (index.size, *self.shape[1:])
        return part


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


def _textures(spec: SyntheticSpec, seed: int, rows: np.ndarray) -> np.ndarray:
    """One channel of the frames ``rows``, in one array pass over them.

    Row r is frame i = r % frames_per_phase of phase p = r // frames_per_phase,
    drawn from its own stream (seed, p, i): a frequency, an angle and an
    offset, then the pixel noise.
    """
    h, w = spec.image_size
    phase, i = np.divmod(rows, spec.frames_per_phase)
    seeds = derive_seeds(seed, STREAM_DATA, phase, i)
    u = uniforms(seeds, 0, 3)
    lo, hi = np.array(spec.texture_freq_range)[phase].T
    freq = lo + (hi - lo) * u[:, 0]
    theta = math.pi * u[:, 1]
    offset = 2.0 * math.pi * u[:, 2]
    # libm's cosine and sine of each angle, as Python floats
    cos = np.array([math.cos(t) for t in theta.tolist()])[:, None, None]
    sin = np.array([math.sin(t) for t in theta.tolist()])[:, None, None]
    proj = (np.arange(w) / w)[None, :] * cos + (np.arange(h) / h)[:, None] * sin
    tex = np.sin((2.0 * math.pi * freq)[:, None, None] * proj + offset[:, None, None])
    tex *= _TEXTURE_AMPLITUDE
    tex += np.array(spec.base_intensity)[phase][:, None, None]
    if spec.noise_sigma > 0.0:
        tex += spec.noise_sigma * normals(seeds, 3, h * w).reshape(-1, h, w)
    return np.clip(tex, 0.0, 1.0, out=tex)


class _SyntheticRows(_Rows):
    """The frames of ``generate_synthetic_dataset``, made as they are read,
    ``_CHUNK_ROWS`` at a time."""

    def __init__(self, spec: SyntheticSpec, seed: int):
        self.spec, self.seed = spec, seed
        self.shape = (spec.num_phases * spec.frames_per_phase, spec.channels, *spec.image_size)

    def read(self, index) -> np.ndarray:
        rows = np.arange(self.shape[0])[index]
        out = np.empty((rows.size, *self.shape[1:]))
        for start in range(0, rows.size, _CHUNK_ROWS):
            out[start : start + _CHUNK_ROWS] = _textures(
                self.spec, self.seed, rows[start : start + _CHUNK_ROWS])[:, None]
        return out


def generate_synthetic_dataset(spec: SyntheticSpec, seed: int) -> Dataset:
    """Deterministic dataset: frame i of phase p depends only on (spec, seed, p, i).

    No frame is made until it is read: the dataset holds its labels and a
    source that makes the rows a read names, so ``save_dataset`` writes it
    holding one chunk of frames at a time.
    """
    labels = np.repeat(np.arange(spec.num_phases), spec.frames_per_phase)
    return Dataset(_SyntheticRows(spec, seed), labels)


# ---------------------------------------------------------------------------
# manifest + blob persistence


def _base_path(path) -> Path:
    p = Path(path)
    if p.suffix in (".json", ".bin"):
        p = p.with_suffix("")
    return p


def _chunks(value) -> tuple[tuple[int, ...], object]:
    """A tensor's shape and its values in pieces: a dataset's frames
    ``_CHUNK_ROWS`` rows at a time, an array whole."""
    if isinstance(value, Dataset):
        return value.shape, (value.rows(slice(start, start + _CHUNK_ROWS))
                             for start in range(0, len(value), _CHUNK_ROWS))
    return np.shape(value), (value,)


def _write_pair(tensors: dict, path, config: dict | None) -> None:
    """Write ``tensors`` (arrays, or a ``Dataset`` for its frames) as one blob
    and its manifest, refusing any non-finite value.

    Each piece of a tensor (``_chunks``) is checked ``_FINITE_BLOCK`` values
    at a time, so a save allocates no mask the size of the blob, fed to the
    digest and written before the next is read; a float64 C-contiguous
    piece is written straight from its own buffer.  A refused value leaves
    no blob: the temporary file goes.
    """
    base = _base_path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    table, pieces, offset = [], [], 0
    for name, value in tensors.items():
        shape, chunks = _chunks(value)
        length = math.prod(shape) * 8
        table.append({"name": name, "shape": list(shape), "offset": offset, "length": length})
        pieces.append((name, chunks))
        offset += length
    digest = blake2b(digest_size=32)

    def blob():
        for name, chunks in pieces:
            for chunk in chunks:
                chunk = np.ascontiguousarray(chunk, dtype="<f8")
                flat = chunk.reshape(-1)
                for start in range(0, flat.size, _FINITE_BLOCK):
                    if not np.isfinite(flat[start : start + _FINITE_BLOCK]).all():
                        raise CheckpointError(f"tensor {name!r} contains non-finite values")
                digest.update(chunk)
                yield chunk

    _replace(base.with_suffix(".bin"), blob())
    manifest = {
        "version": FORMAT_VERSION,
        "config": config or {},
        "tensors": table,
        "blake2b": digest.hexdigest(),
    }
    _replace(base.with_suffix(".json"), [json.dumps(manifest, indent=1, sort_keys=True).encode()])


def _replace(path: Path, chunks) -> None:
    """Write the buffers ``chunks`` to a temporary sibling, then rename it over ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _well_formed(entry) -> bool:
    """A tensor entry: a string name, non-negative int dims, int offset and length."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"])
            and type(entry.get("offset")) is int and type(entry.get("length")) is int)


def _stamps(fd: int) -> tuple[int, ...]:
    st = os.fstat(fd)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


class _Blob:
    """A blob's open handle, and the stamps the file had when it was opened."""

    def __init__(self, path: Path, fh, stamps: tuple[int, ...] | None = None):
        self.path, self._fh, self._fd = path, fh, fh.fileno()
        self._stamps = stamps or _stamps(self._fd)
        self.size = self._stamps[2]

    def read_into(self, offset: int, buffer, nbytes: int) -> None:
        """Fill ``buffer``, ``nbytes`` long, with the bytes from ``offset`` on,
        refusing a short read."""
        got = os.preadv(self._fd, [buffer], offset)
        if got != nbytes:
            raise TruncatedBlobError(f"blob {self.path} gave {got} of the {nbytes} bytes "
                                     f"at offset {offset}")

    def check(self) -> None:
        """Refuse a file whose stamps changed since it was opened."""
        now = _stamps(self._fd)
        if now[2] != self.size:
            raise TruncatedBlobError(f"blob {self.path} now holds {now[2]} bytes, "
                                     f"not the {self.size} whose digest was checked")
        if now != self._stamps:
            raise CorruptManifestError(f"blob {self.path} changed after its digest was checked")

    def digest(self, into: np.ndarray | None) -> str:
        """The blob's BLAKE2b-256 hex digest, read ``_DIGEST_BLOCK`` bytes at a
        time into ``into`` (an array of the blob's size) or, without it, into
        one block of scratch; refused if the file changed meanwhile."""
        hasher = blake2b(digest_size=32)
        whole = into is not None
        buffer = memoryview(into).cast("B") if whole else memoryview(bytearray(_DIGEST_BLOCK))
        for start in range(0, self.size, _DIGEST_BLOCK):
            n = min(_DIGEST_BLOCK, self.size - start)
            part = buffer[start : start + n] if whole else buffer[:n]
            self.read_into(start, part, n)
            hasher.update(part)
        self.check()
        return hasher.hexdigest()

    def share(self) -> _Blob:
        """A handle of its own on the same open file, with the same stamps."""
        return _Blob(self.path, open(os.dup(self._fd), "rb", buffering=0), self._stamps)

    def close(self) -> None:
        self._fh.close()


def _open_pair(path, whole: bool) -> tuple[dict, _Blob, np.ndarray | None]:
    """The manifest at ``path`` and an open handle on its blob, whose digest
    matched; with ``whole``, also every value of the blob, as one float64
    array read in the digest's pass."""
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
    version, digest = manifest.get("version"), manifest.get("blake2b")
    if type(version) is not int or version != FORMAT_VERSION or digest is None:
        raise CorruptManifestError(
            f"manifest {manifest_path} is not at version {FORMAT_VERSION} with a blake2b "
            f"digest (version {version!r}); re-run the stage that wrote it"
        )
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
    try:
        blob = _Blob(blob_path, open(blob_path, "rb", buffering=0))
    except FileNotFoundError:
        raise TruncatedBlobError(f"missing blob {blob_path}")
    try:
        if blob.size != expected:
            raise TruncatedBlobError(f"blob {blob_path} holds {blob.size} bytes, "
                                     f"manifest says {expected}")
        flat = np.empty(expected // 8, dtype="<f8") if whole else None
        if blob.digest(flat) != digest:
            raise CorruptManifestError(f"blob {blob_path} does not match the blake2b in "
                                       f"{manifest_path}")
    except BaseException:
        blob.close()
        raise
    return manifest, blob, flat


def _native(values: np.ndarray) -> np.ndarray:
    return values if values.dtype.isnative else values.astype(np.float64)


def _read_pair(path) -> tuple[dict[str, np.ndarray], dict]:
    """Every tensor at ``path``, each a view of the one array its digest pass filled."""
    manifest, blob, flat = _open_pair(path, whole=True)
    blob.close()
    flat = _native(flat)
    tensors = {}
    for entry in manifest["tensors"]:
        start = entry["offset"] // 8
        tensors[entry["name"]] = flat[start : start + entry["length"] // 8].reshape(entry["shape"])
    return tensors, manifest.get("config", {})


class _BlobRows(_Rows):
    """The frames tensor of a loaded blob, read by row through its handle."""

    def __init__(self, blob: _Blob, offset: int, shape):
        self.blob, self.offset, self.shape = blob, offset, tuple(shape)
        self._row_bytes = math.prod(self.shape[1:]) * 8

    def read(self, index) -> np.ndarray:
        """One ``preadv`` per run of consecutive rows, then the stamp check."""
        rows, step = np.arange(self.shape[0])[index], self._row_bytes
        out = np.empty((rows.size, *self.shape[1:]), dtype="<f8")
        if rows.size:
            firsts = np.flatnonzero(np.diff(rows, prepend=rows[0] - 2) != 1)
            for a, b, at in zip(firsts.tolist(), [*firsts[1:].tolist(), rows.size],
                                (self.offset + rows[firsts] * step).tolist()):
                self.blob.read_into(at, out[a:b], (b - a) * step)
        self.blob.check()
        return _native(out)

    def share(self) -> _BlobRows:
        return _BlobRows(self.blob.share(), self.offset, self.shape)

    def close(self) -> None:
        self.blob.close()


def save_checkpoint(named: dict[str, ParamSet], path, config: dict | None = None) -> None:
    """Write parameter sets as ``<set name>/<param name>`` tensor entries."""
    tensors = {}
    for set_name, ps in named.items():
        for pname, t in ps.items():
            tensors[f"{set_name}/{pname}"] = t.data
    _write_pair(tensors, path, config)


def load_checkpoint(path) -> tuple[dict[str, ParamSet], dict]:
    """Read parameter sets back, with the manifest's ``config``."""
    tensors, config = _read_pair(path)
    grouped: dict[str, dict[str, np.ndarray]] = {}
    for key, arr in tensors.items():
        set_name, _, pname = key.partition("/")
        if not pname:
            raise CorruptManifestError(f"tensor name {key!r} lacks a '<set>/<param>' form")
        grouped.setdefault(set_name, {})[pname] = arr
    return {name: ParamSet(params) for name, params in grouped.items()}, config


def save_dataset(dataset: Dataset, path, config: dict | None = None) -> None:
    """Write ``dataset``, reading its frames ``_CHUNK_ROWS`` rows at a time."""
    _write_pair({"frames": dataset, "labels": dataset.labels.astype(np.float64)}, path, config)


def load_dataset(path) -> tuple[Dataset, dict]:
    """The dataset saved at ``path``: its labels read into memory, its frames
    left in the blob, read by row through the handle its digest was checked
    through (read after verify, in the module docstring).  Refused unless
    every label is a whole number in [0, 2**63), which int64 holds exactly.
    The dataset holds the blob open until it is released."""
    manifest, blob, _ = _open_pair(path, whole=False)
    try:
        entries = {entry["name"]: entry for entry in manifest["tensors"]}
        if "frames" not in entries or "labels" not in entries:
            raise CorruptManifestError(f"dataset {path} lacks frames/labels tensors")
        labels = np.empty(entries["labels"]["shape"], dtype="<f8")
        blob.read_into(entries["labels"]["offset"], labels, labels.nbytes)
        blob.check()
        labels = _native(labels)
        bad = np.flatnonzero(~((labels >= 0) & (labels < 2.0**63) & (labels == np.floor(labels))))
        if bad.size:
            raise CorruptManifestError(f"dataset {path}: label {float(labels.flat[bad[0]])!r} in "
                                       f"row {bad[0]} is not a whole number in [0, 2**63)")
        frames = entries["frames"]
        try:
            dataset = Dataset(_BlobRows(blob, frames["offset"], frames["shape"]), labels)
        except ValueError as exc:
            raise CorruptManifestError(f"dataset {path}: {exc}") from exc
    except BaseException:
        blob.close()
        raise
    return dataset, manifest.get("config", {})


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
    whole batch is dropped.  ``next_batch`` reads the batch's rows from the
    dataset; ``next_indices`` reads only the row count, so an owner that
    takes indices alone may set ``dataset`` to None.
    """

    def __init__(self, dataset: Dataset, batch_size: int, seed: int):
        self.dataset, self._rows = dataset, len(dataset)
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
        return Batch(frames=self.dataset.rows(idx), indices=idx, epoch=epoch)
