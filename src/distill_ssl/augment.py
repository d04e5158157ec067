"""Stochastic two-view generation, reproducible from a seed.

A view is produced by a fixed transform order: random resized crop,
horizontal flip, photometric jitter, gaussian noise.  Each sample in a
batch gets its own derived random stream keyed by
(run seed, epoch, sample index, view index), so per-sample work can be
reordered or parallelized without changing a single draw.

``sample_views`` makes every view of a batch in one pass: it draws each
view's parameters from its own stream, resamples all crops with one
gather per bilinear corner (a flipped view samples its columns right to
left), then applies jitter and noise over the stacked views.
``sample_view`` is the one-view reference it is tested against: for the
same streams both give the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import STREAM_VIEW, Rng, normals

_LOG_ASPECT_LO = math.log(3.0 / 4.0)
_LOG_ASPECT_HI = math.log(4.0 / 3.0)
_CROP_ATTEMPTS = 10


@dataclass
class Frame:
    """One image: pixels C x H x W, float64, values in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 3:
            raise ValueError(f"frame pixels must be C x H x W, got {self.pixels.shape}")

    @property
    def channels(self) -> int:
        return self.pixels.shape[0]

    @property
    def height(self) -> int:
        return self.pixels.shape[1]

    @property
    def width(self) -> int:
        return self.pixels.shape[2]


@dataclass(frozen=True)
class AugmentConfig:
    crop_scale_range: tuple[float, float] = (0.4, 1.0)
    flip_prob: float = 0.5
    brightness_delta: float = 0.2
    contrast_range: tuple[float, float] = (0.8, 1.2)
    noise_sigma: float = 0.02
    output_size: tuple[int, int] = (32, 32)

    def __post_init__(self):
        lo, hi = self.crop_scale_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError(f"crop_scale_range must satisfy 0 < lo <= hi <= 1, got {self.crop_scale_range}")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError(f"flip_prob must be in [0, 1], got {self.flip_prob}")
        if self.brightness_delta < 0.0:
            raise ValueError(f"brightness_delta must be >= 0, got {self.brightness_delta}")
        clo, chi = self.contrast_range
        if not (0.0 < clo <= chi):
            raise ValueError(f"contrast_range must satisfy 0 < lo <= hi, got {self.contrast_range}")
        if self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def _source_grid(start, extent, out: int) -> np.ndarray:
    # Endpoint-aligned sampling; a full-extent box at equal size reproduces
    # the input grid exactly.  Scalar start/extent give (out,), (V, 1)
    # columns give (V, out).
    if out == 1:
        return start + np.full(1, 0.5) * (extent - 1)
    return start + np.arange(out) * ((extent - 1) / (out - 1))


def crop_resize(v: Frame, box: tuple[int, int, int, int], out: tuple[int, int]) -> Frame:
    """Bilinear resample of a box [top, left, h, w] to the given output size."""
    top, left, h, w = box
    if h < 1 or w < 1 or top < 0 or left < 0 or top + h > v.height or left + w > v.width:
        raise ValueError(f"crop box {box} out of bounds for frame {v.pixels.shape}")
    rows = _source_grid(float(top), h, out[0])
    cols = _source_grid(float(left), w, out[1])
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    r1 = np.minimum(r0 + 1, v.height - 1)
    c1 = np.minimum(c0 + 1, v.width - 1)
    fr = (rows - r0)[:, None]
    fc = (cols - c0)[None, :]
    px = v.pixels
    top_edge = px[:, r0[:, None], c0[None, :]] * (1.0 - fc) + px[:, r0[:, None], c1[None, :]] * fc
    bot_edge = px[:, r1[:, None], c0[None, :]] * (1.0 - fc) + px[:, r1[:, None], c1[None, :]] * fc
    return Frame(top_edge * (1.0 - fr) + bot_edge * fr)


def horizontal_flip(v: Frame) -> Frame:
    return Frame(v.pixels[:, :, ::-1].copy())


def photometric_jitter(v: Frame, b: float, c: float) -> Frame:
    """Per-channel contrast about the channel mean, then brightness, then clip."""
    if c <= 0:
        raise ValueError(f"contrast factor must be positive, got {c}")
    mean = v.pixels.mean(axis=(1, 2), keepdims=True)
    return Frame(np.clip((v.pixels - mean) * c + mean + b, 0.0, 1.0))


def gaussian_noise(v: Frame, sigma: float, rng: Rng) -> Frame:
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return Frame(v.pixels.copy())
    noise = rng.normal(v.pixels.size).reshape(v.pixels.shape)
    return Frame(np.clip(v.pixels + sigma * noise, 0.0, 1.0))


def _sample_crop_box(height: int, width: int, scale_range: tuple[float, float], rng: Rng):
    lo, hi = scale_range
    area = float(height * width)
    for _ in range(_CROP_ATTEMPTS):
        frac = lo + (hi - lo) * rng.uniform()
        aspect = math.exp(_LOG_ASPECT_LO + (_LOG_ASPECT_HI - _LOG_ASPECT_LO) * rng.uniform())
        w = int(round(math.sqrt(frac * area * aspect)))
        h = int(round(math.sqrt(frac * area / aspect)))
        if 1 <= w <= width and 1 <= h <= height:
            top = rng.integer(height - h + 1)
            left = rng.integer(width - w + 1)
            return top, left, h, w
    return 0, 0, height, width


def _sample_params(height: int, width: int, cfg: AugmentConfig, rng: Rng):
    """Crop box, flip, brightness and contrast of one view, in draw order."""
    box = _sample_crop_box(height, width, cfg.crop_scale_range, rng)
    flip = rng.uniform() < cfg.flip_prob
    b = -cfg.brightness_delta + 2.0 * cfg.brightness_delta * rng.uniform()
    clo, chi = cfg.contrast_range
    c = clo + (chi - clo) * rng.uniform()
    return box, flip, b, c


def sample_view(v: Frame, cfg: AugmentConfig, rng: Rng) -> Frame:
    """One augmented view; a pure function of (frame, cfg, rng seed)."""
    box, flip, b, c = _sample_params(v.height, v.width, cfg, rng)
    out = crop_resize(v, box, cfg.output_size)
    if flip:
        out = horizontal_flip(out)
    if b != 0.0 or c != 1.0:
        out = photometric_jitter(out, b, c)
    return gaussian_noise(out, cfg.noise_sigma, rng)


def sample_views(frames: np.ndarray, cfg: AugmentConfig, rngs: list[Rng]) -> np.ndarray:
    """Views of stacked N x C x H x W frames, one per stream, in one pass.

    View i augments ``frames[i % N]`` with ``rngs[i]``; the result is
    ``np.stack([sample_view(Frame(frames[i % N]), cfg, rngs[i]).pixels])``
    bit for bit, and every stream advances as that call advances it.
    """
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    n, ch, height, width = frames.shape
    nv = len(rngs)
    oh, ow = cfg.output_size
    params = [_sample_params(height, width, cfg, r) for r in rngs]
    tops, lefts, hs, ws = (np.array(col)[:, None] for col in zip(*(p[0] for p in params)))
    flip = np.array([p[1] for p in params])
    b = np.array([p[2] for p in params])
    c = np.array([p[3] for p in params])

    rows = _source_grid(tops.astype(np.float64), hs, oh)
    cols = _source_grid(lefts.astype(np.float64), ws, ow)
    cols[flip] = cols[flip, ::-1]  # a flipped view samples its columns right to left
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    r1 = np.minimum(r0 + 1, height - 1)
    c1 = np.minimum(c0 + 1, width - 1)
    fr = (rows - r0)[:, :, None, None]
    fc = (cols - c0)[:, None, :, None]
    # Views are built V x h x w x C, the memory order crop_resize's gather
    # leaves a frame in; np.mean sums in memory order (see the jitter).
    frame_at = (np.arange(nv) % n) * (ch * height * width)
    base = frame_at[:, None, None, None] + np.arange(ch) * (height * width)
    flat = frames.ravel()

    def edge(r):  # bilinear along the source rows r, in place
        at = base + (r * width)[:, :, None, None]
        left = flat.take(at + c0[:, None, :, None])
        right = flat.take(at + c1[:, None, :, None])
        left *= 1.0 - fc
        right *= fc
        left += right
        return left

    out = edge(r0)
    out *= 1.0 - fr
    bottom = edge(r1)
    bottom *= fr
    out += bottom

    # sample_view sums an unflipped view's channel means in h x w x C order
    # and a flipped one's in horizontal_flip's C x h x w copy.
    mean = out.mean(axis=(1, 2), keepdims=True)
    chw = np.ascontiguousarray(out[flip].transpose(0, 3, 1, 2))
    mean[flip] = chw.mean(axis=(2, 3))[:, None, None, :]
    # sample_view skips neutral jitter, and (x - m) * 1 + m + 0 can round away from x
    unjittered = (b == 0.0) & (c == 1.0)
    kept = out[unjittered]
    out -= mean
    out *= c[:, None, None, None]
    out += mean
    out += b[:, None, None, None]
    np.clip(out, 0.0, 1.0, out=out)
    out[unjittered] = kept
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    if cfg.noise_sigma == 0.0:
        return out
    noise = normals(rngs, ch * oh * ow).reshape(out.shape)
    noise *= cfg.noise_sigma
    out += noise
    return np.clip(out, 0.0, 1.0, out=out)


def view_stream(root: Rng, epoch: int, sample_index: int, view_index: int) -> Rng:
    """The derived stream feeding one view of one sample in one epoch."""
    return root.derive(STREAM_VIEW, epoch, sample_index, view_index)


def two_views(
    v: Frame, cfg: AugmentConfig, root: Rng, epoch: int, sample_index: int
) -> tuple[Frame, Frame]:
    """Query/key views from independent sub-streams; neither consumes the
    other's draws."""
    vq = sample_view(v, cfg, view_stream(root, epoch, sample_index, 0))
    vk = sample_view(v, cfg, view_stream(root, epoch, sample_index, 1))
    return vq, vk


def resize_to(v: Frame, size: tuple[int, int]) -> Frame:
    """Deterministic full-frame resize (the evaluation-time path)."""
    return crop_resize(v, (0, 0, v.height, v.width), size)
