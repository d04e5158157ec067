"""Deterministic 64-bit random streams with hierarchical derivation.

Every stream is a SplitMix64 counter sequence: output ``i`` of a stream
seeded with ``s`` is ``mix64(s + i * GOLDEN)``.  Because outputs depend
only on (seed, counter), blocks of draws vectorize with numpy and a
stream can be split into independent child streams without consuming any
of the parent's draws.  Identical seeds give identical sequences on every
platform (all integer arithmetic is exact modulo 2**64).

The same holds across streams: ``derive_seeds`` derives many child seeds
as one uint64 array, and ``uniforms`` and ``normals`` draw from many
(seed, counter) pairs in one block, so a batch of streams needs no ``Rng``
objects.  The ``Rng`` methods are the one-stream form of the same draws.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Stream tags used to derive purpose-specific child streams from a run seed.
STREAM_INIT = 0x11
STREAM_VIEW = 0x22
STREAM_BATCH = 0x33
STREAM_DATA = 0x44
STREAM_PROBE = 0x55

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_TWO53_INV = float(2.0**-53)


def _mix_int(z: int) -> int:
    """SplitMix64 finalizer on a Python int (exact 64-bit wraparound)."""
    z &= _MASK
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place."""
    t = z >> _U30
    z ^= t
    z *= _U_MIX1
    np.right_shift(z, _U27, out=t)
    z ^= t
    z *= _U_MIX2
    np.right_shift(z, _U31, out=t)
    z ^= t
    return z


def derive_seed(base: int, *keys: int) -> int:
    """Combine a base seed with integer keys into a new 64-bit seed.

    Pure function: deriving never consumes draws from the base stream, so
    child streams may be created in any order (or in parallel) without
    changing results.
    """
    s = base & _MASK
    for k in keys:
        s = _mix_int((s + _GOLDEN) ^ _mix_int(int(k)))
    return s


def derive_seeds(base: int, *keys) -> np.ndarray:
    """``derive_seed`` over integer keys or key arrays, broadcast together.

    Element ``[idx]`` of the uint64 result is
    ``derive_seed(base, *(k[idx] for k in keys))``; uint64 arrays wrap
    modulo 2**64 as the Python-int path masks.
    """
    shape = np.broadcast_shapes(*(np.shape(k) for k in keys))
    s = np.full(shape, base & _MASK, dtype=np.uint64)
    for k in keys:
        s += _U_GOLDEN
        s ^= _mix_array(np.broadcast_to(np.asarray(k).astype(np.uint64), shape).copy())
        _mix_array(s)
    return s


class Rng:
    """Seeded deterministic generator with vectorized draws."""

    __slots__ = ("seed", "_count")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self._count = 0

    def derive(self, *keys: int) -> "Rng":
        """Child stream keyed off this stream's seed; parent state untouched."""
        return Rng(derive_seed(self.seed, *keys))

    def _at(self):
        """This stream as the (seeds, counts) arrays of ``uniforms``/``normals``."""
        return np.array([self.seed], dtype=np.uint64), np.array([self._count], dtype=np.uint64)

    def uniform(self, n: int | None = None):
        """Draws in [0, 1): a float for n=None, else an ndarray of length n."""
        if n is None:
            self._count += 1
            return float(_mix_int(self.seed + self._count * _GOLDEN) >> 11) * _TWO53_INV
        u = uniforms(*self._at(), n)[0]
        self._count += n
        return u

    def normal(self, n: int | None = None):
        """Standard normal draws via the Box-Muller transform (see ``normals``)."""
        m = 1 if n is None else n
        z = normals(*self._at(), m)[0]
        self._count += 2 * ((m + 1) // 2)
        return float(z[0]) if n is None else z

    def integer(self, bound: int) -> int:
        """Uniform int in [0, bound)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return int(self.uniform() * bound)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n): for i = n-1 .. 1, swap i with
        ``integer(i + 1)``, the n - 1 draws taken as one block."""
        perm = list(range(n))
        if n > 1:
            # trunc(u * (i + 1)) as in ``integer``; i + 1 < 2**53 is exact in float64
            js = (self.uniform(n - 1) * np.arange(n, 1, -1, dtype=np.float64)).astype(np.int64)
            for i, j in zip(range(n - 1, 0, -1), js.tolist()):
                perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)


def _block(seeds: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """Outputs ``counts[i] + 1 .. counts[i] + n`` of stream ``seeds[i]``, as row i."""
    # output c of a stream is mix64(seed + c * GOLDEN); uint64 arrays wrap modulo 2**64
    starts = seeds + np.asarray(counts, dtype=np.uint64) * _U_GOLDEN
    return _mix_array(starts[:, None] + np.arange(1, n + 1, dtype=np.uint64) * _U_GOLDEN)


def uniforms(seeds: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """n draws in [0, 1) from each stream, row i from stream ``seeds[i]``.

    Row i equals ``uniform(n)`` on an ``Rng(seeds[i])`` whose ``_count``
    is ``counts[i]``, and its column j that stream's (j + 1)-th scalar
    ``uniform()`` from there.
    """
    return (_block(seeds, counts, n) >> _U11).astype(np.float64) * _TWO53_INV


def normals(seeds: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """n standard normals from each stream, row i from stream ``seeds[i]``.

    Row i equals ``normal(n)`` on an ``Rng(seeds[i])`` whose ``_count`` is
    ``counts[i]``, a call that takes ``2 * ((n + 1) // 2)`` draws.
    Box-Muller over one SplitMix64 block per stream: the first half of a
    block gives u1 in (0, 1], which keeps the log finite, the second half
    u2 in [0, 1).
    """
    pairs = (n + 1) // 2
    u = _block(seeds, counts, 2 * pairs)
    u >>= _U11
    u1 = (u[:, :pairs] + 1.0) * _TWO53_INV  # 53-bit integers convert to float64 exactly
    u2 = u[:, pairs:] * _TWO53_INV
    r = np.log(u1, out=u1)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = np.multiply(2.0 * math.pi, u2, out=u2)
    z = np.empty((len(seeds), 2 * pairs))
    cos, sin = np.cos(theta, out=z[:, :pairs]), np.sin(theta, out=z[:, pairs:])
    cos *= r
    sin *= r
    return z[:, :n]
