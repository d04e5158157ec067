"""Deterministic 64-bit random streams with hierarchical derivation.

Every stream is a SplitMix64 counter sequence: output ``i`` of a stream
seeded with ``s`` is ``mix64(s + i * GOLDEN)``.  Because outputs depend
only on (seed, counter), blocks of draws vectorize with numpy and a
stream can be split into independent child streams without consuming any
of the parent's draws.  Identical seeds give identical sequences on every
platform (all integer arithmetic is exact modulo 2**64).
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


class Rng:
    """Seeded deterministic generator with vectorized draws."""

    __slots__ = ("seed", "_count")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self._count = 0

    def derive(self, *keys: int) -> "Rng":
        """Child stream keyed off this stream's seed; parent state untouched."""
        return Rng(derive_seed(self.seed, *keys))

    def _next_block(self, n: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _mix_array(np.uint64(self.seed) + idx * _U_GOLDEN)

    def uniform(self, n: int | None = None):
        """Draws in [0, 1): a float for n=None, else an ndarray of length n."""
        if n is None:
            self._count += 1
            return float(_mix_int(self.seed + self._count * _GOLDEN) >> 11) * _TWO53_INV
        return (self._next_block(n) >> _U11).astype(np.float64) * _TWO53_INV

    def normal(self, n: int | None = None):
        """Standard normal draws via the Box-Muller transform."""
        z = normals([self], 1 if n is None else n)[0]
        return float(z[0]) if n is None else z

    def integer(self, bound: int) -> int:
        """Uniform int in [0, bound)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return int(self.uniform() * bound)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n)."""
        perm = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = self.integer(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def normals(streams: list[Rng], n: int) -> np.ndarray:
    """n standard normals from each stream, row i from ``streams[i]``.

    Each stream draws at its own counter and advances exactly as it would
    by ``streams[i].normal(n)``, so row i equals that call bit for bit.
    Box-Muller over one SplitMix64 block per stream: the first half of a
    block gives u1 in (0, 1], which keeps the log finite, the second half
    u2 in [0, 1).
    """
    pairs = (n + 1) // 2
    # output j of a stream at count c is mix64(seed + c * GOLDEN + j * GOLDEN)
    starts = np.array([(s.seed + s._count * _GOLDEN) & _MASK for s in streams], dtype=np.uint64)
    for s in streams:
        s._count += 2 * pairs
    u = _mix_array(starts[:, None] + np.arange(1, 2 * pairs + 1, dtype=np.uint64) * _U_GOLDEN)
    u >>= _U11
    u1 = (u[:, :pairs] + 1.0) * _TWO53_INV  # 53-bit integers convert to float64 exactly
    u2 = u[:, pairs:] * _TWO53_INV
    r = np.log(u1, out=u1)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = np.multiply(2.0 * math.pi, u2, out=u2)
    z = np.empty((len(streams), 2 * pairs))
    cos, sin = np.cos(theta, out=z[:, :pairs]), np.sin(theta, out=z[:, pairs:])
    cos *= r
    sin *= r
    return z[:, :n]
