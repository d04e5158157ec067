"""Stochastic two-view generation, reproducible from a seed.

A view is produced by a fixed transform order: random resized crop,
horizontal flip, photometric jitter, gaussian noise.  Each sample in a
batch gets its own derived random stream keyed by
(run seed, epoch, sample index, view index), so per-sample work can be
reordered or moved to another process without changing a single draw:
the training loop (``pipeline._run``) has every batch's views built one
batch ahead in a forked worker process.

``sample_views`` makes every view of a batch in one array pass over the
views' stream seeds, which ``view_seeds`` derives as one uint64 array.
It takes one block of ``_PARAM_DRAWS`` uniforms per stream, keeps each
view's first valid crop candidate and the flip, brightness and contrast
draws that follow it, resamples all crops with one gather per bilinear
corner (a flipped view samples its columns right to left), then applies
jitter and noise over the stacked views, each view's noise drawn from the
counter where its parameter draws end.  No ``Rng`` object is built and
no Python code runs per view.  ``sample_view`` draws one view from an
``Rng`` and is the reference the batch is tested against: for the same
streams both give the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import STREAM_VIEW, Rng, derive_seed, derive_seeds, normals, uniforms

_LOG_ASPECT_LO = math.log(3.0 / 4.0)
_LOG_ASPECT_HI = math.log(4.0 / 3.0)
_CROP_ATTEMPTS = 10
# The most uniforms _sample_params takes: two per crop candidate, then top,
# left, flip, brightness and contrast after the last candidate.
_PARAM_DRAWS = 2 * _CROP_ATTEMPTS + 5


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
        # each range is written to refuse NaN and infinity too
        if not 0.0 <= self.brightness_delta < math.inf:
            raise ValueError(f"brightness_delta must be finite and >= 0, got {self.brightness_delta}")
        clo, chi = self.contrast_range
        if not 0.0 < clo <= chi < math.inf:
            raise ValueError(f"contrast_range must satisfy 0 < lo <= hi < inf, "
                             f"got {self.contrast_range}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if min(self.output_size) < 1:
            raise ValueError(f"output_size must be >= 1, got {self.output_size}")


def _source_grid(start, extent, out: int) -> np.ndarray:
    # Endpoint-aligned sampling; a full-extent box at equal size reproduces
    # the input grid exactly.  Scalar start/extent give (out,), (V, 1)
    # columns give (V, out).
    if out == 1:
        return start + np.full(1, 0.5) * (extent - 1)
    return start + np.arange(out) * ((extent - 1) / (out - 1))


def crop_resize(px: np.ndarray, box: tuple[int, int, int, int], out: tuple[int, int]) -> np.ndarray:
    """Bilinear resample of a box [top, left, h, w] of the last two axes to ``out``."""
    top, left, h, w = box
    height, width = px.shape[-2:]
    if h < 1 or w < 1 or top < 0 or left < 0 or top + h > height or left + w > width:
        raise ValueError(f"crop box {box} out of bounds for frame {px.shape}")
    rows = _source_grid(float(top), h, out[0])
    cols = _source_grid(float(left), w, out[1])
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    r1 = np.minimum(r0 + 1, height - 1)
    c1 = np.minimum(c0 + 1, width - 1)
    fr = (rows - r0)[:, None]
    fc = (cols - c0)[None, :]
    top_edge = px[..., r0[:, None], c0[None, :]] * (1.0 - fc) + px[..., r0[:, None], c1[None, :]] * fc
    bot_edge = px[..., r1[:, None], c0[None, :]] * (1.0 - fc) + px[..., r1[:, None], c1[None, :]] * fc
    return top_edge * (1.0 - fr) + bot_edge * fr


def horizontal_flip(px: np.ndarray) -> np.ndarray:
    return px[:, :, ::-1].copy()


def photometric_jitter(px: np.ndarray, b: float, c: float) -> np.ndarray:
    """Per-channel contrast about the channel mean, then brightness, then clip."""
    if c <= 0:
        raise ValueError(f"contrast factor must be positive, got {c}")
    mean = px.mean(axis=(1, 2), keepdims=True)
    return np.clip((px - mean) * c + mean + b, 0.0, 1.0)


def gaussian_noise(px: np.ndarray, sigma: float, rng: Rng) -> np.ndarray:
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return px.copy()
    noise = rng.normal(px.size).reshape(px.shape)
    return np.clip(px + sigma * noise, 0.0, 1.0)


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


def sample_view(px: np.ndarray, cfg: AugmentConfig, rng: Rng) -> np.ndarray:
    """One augmented view of a C x H x W frame; a pure function of (frame, cfg, rng seed)."""
    box, flip, b, c = _sample_params(px.shape[1], px.shape[2], cfg, rng)
    out = crop_resize(px, box, cfg.output_size)
    if flip:
        out = horizontal_flip(out)
    if b != 0.0 or c != 1.0:
        out = photometric_jitter(out, b, c)
    return gaussian_noise(out, cfg.noise_sigma, rng)


def _draw_params(height: int, width: int, cfg: AugmentConfig, seeds: np.ndarray):
    """``_sample_params`` of a fresh stream per seed, as arrays, from one block each.

    Returns tops, lefts, hs, ws, flip, b, c and counts; ``counts[i]`` is
    the ``_count`` that stream i stands at after ``_sample_params``, the
    counter its noise starts from.
    """
    u = uniforms(seeds, np.zeros(len(seeds), dtype=np.uint64), _PARAM_DRAWS)
    lo, hi = cfg.crop_scale_range
    frac = lo + (hi - lo) * u[:, 0 : 2 * _CROP_ATTEMPTS : 2]
    log_aspect = _LOG_ASPECT_LO + (_LOG_ASPECT_HI - _LOG_ASPECT_LO) * u[:, 1 : 2 * _CROP_ATTEMPTS : 2]
    # math.exp, as _sample_crop_box: np.exp is not guaranteed to round alike
    aspect = np.array(list(map(math.exp, log_aspect.ravel().tolist()))).reshape(log_aspect.shape)
    scaled = frac * float(height * width)
    cand_w = np.rint(np.sqrt(scaled * aspect))  # rint rounds half to even, as round() does
    cand_h = np.rint(np.sqrt(scaled / aspect))
    valid = (cand_w >= 1) & (cand_w <= width) & (cand_h >= 1) & (cand_h <= height)
    found = valid.any(axis=1)
    first = valid.argmax(axis=1)
    views = np.arange(len(seeds))
    # index of the flip draw: after the accepted candidate's top and left,
    # or after all candidates when none fits and the box is the full frame
    k = np.where(found, 2 * first + 4, 2 * _CROP_ATTEMPTS)
    hs = np.where(found, cand_h[views, first], height).astype(np.int64)
    ws = np.where(found, cand_w[views, first], width).astype(np.int64)
    # Rng.integer(bound) is floor(u * bound); a full-frame box has bound 1, so 0
    tops = np.floor(u[views, k - 2] * (height - hs + 1)).astype(np.int64)
    lefts = np.floor(u[views, k - 1] * (width - ws + 1)).astype(np.int64)
    flip = u[views, k] < cfg.flip_prob
    b = -cfg.brightness_delta + 2.0 * cfg.brightness_delta * u[views, k + 1]
    clo, chi = cfg.contrast_range
    c = clo + (chi - clo) * u[views, k + 2]
    return tops, lefts, hs, ws, flip, b, c, k + 3


def sample_views(frames: np.ndarray, cfg: AugmentConfig, seeds: np.ndarray) -> np.ndarray:
    """Views of stacked N x C x H x W frames, one per stream seed, in one pass.

    View i augments ``frames[i % N]`` from a fresh stream seeded
    ``seeds[i]`` (uint64); the result is
    ``np.stack([sample_view(frames[i % N], cfg, Rng(seeds[i]))])``
    bit for bit.  The streams are read as arrays, one block of parameter
    draws and one block of noise per seed, and no ``Rng`` is built.
    """
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    n, ch, height, width = frames.shape
    nv = len(seeds)
    oh, ow = cfg.output_size
    tops, lefts, hs, ws, flip, b, c, counts = _draw_params(height, width, cfg, seeds)
    tops, lefts, hs, ws = (col[:, None] for col in (tops, lefts, hs, ws))

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
    noise = normals(seeds, counts, ch * oh * ow).reshape(out.shape)
    noise *= cfg.noise_sigma
    out += noise
    return np.clip(out, 0.0, 1.0, out=out)


def view_stream(root: Rng, epoch: int, sample_index: int, view_index: int) -> Rng:
    """The derived stream feeding one view of one sample in one epoch."""
    return root.derive(STREAM_VIEW, epoch, sample_index, view_index)


def view_seeds(root: Rng, epoch: int, indices: np.ndarray) -> np.ndarray:
    """Seeds of ``view_stream(root, epoch, i, v)`` for v in (0, 1) for i in indices.

    One uint64 array of 2 * len(indices) seeds, all views 0 first.
    """
    per_epoch = derive_seed(root.seed, STREAM_VIEW, epoch)
    return derive_seeds(per_epoch, np.asarray(indices)[None, :], np.arange(2)[:, None]).ravel()


def resize_to(px: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Full-frame resize of a C x H x W frame or a stack; at equal size a bitwise copy."""
    return crop_resize(px, (0, 0, *px.shape[-2:]), size)
