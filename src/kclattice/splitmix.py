"""A counter-based SplitMix64 stream: the package's only source of random fields.

Draw i (i = 0, 1, ...) of the stream with 64-bit key k is
mix64(k + (i+1) * GAMMA), SplitMix64's output from state k (Steele, Lea &
Flood, OOPSLA 2014).  Uniforms are the top 53 bits, (z >> 11) * 2^-53, in
[0, 1); normals are Box-Muller pairs (Box & Muller 1958) of consecutive
uniforms, both outputs kept.  The draws depend on this module alone, not on
numpy.random, whose import maps OpenSSL and whose streams may change between
numpy versions.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix64(z):
    """SplitMix64's finalizer, in place on a uint64 array, which wraps silently."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


class SplitMix64:
    """The draws of SplitMix64 from state ``key``, in order."""

    def __init__(self, key: int):
        self._key = key & _MASK
        self._drawn = 0

    def bits(self, n: int) -> np.ndarray:
        """The next ``n`` 64-bit outputs, as uint64."""
        z = np.arange(self._drawn + 1, self._drawn + n + 1, dtype=np.uint64)
        self._drawn += n
        z *= _GAMMA
        z += self._key
        return _mix64(z)

    def random(self, shape) -> np.ndarray:
        """Uniforms in [0, 1) of the given shape, one draw each."""
        return ((self.bits(int(np.prod(shape))) >> 11) * 2.0 ** -53).reshape(shape)

    def standard_normal(self, shape) -> np.ndarray:
        """Standard normals of the given shape, from ceil(size/2) uniform pairs.

        The cosine outputs of all pairs come first, then the sine outputs;
        an odd size drops the last sine.
        """
        size = int(np.prod(shape))
        half = (size + 1) // 2
        u = self.random((half, 2))
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))  # 1 - u > 0: finite at u = 0
        angle = (2.0 * np.pi) * u[:, 1]
        normals = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))
        return normals[:size].reshape(shape)


def stream(*words: int) -> SplitMix64:
    """The stream keyed by nonnegative integers ``words``.

    The key starts at 0; each 64-bit limb of each word, low limb first, is
    XORed into it and replaced by SplitMix64's first output from there.
    """
    key = 0
    for word in words:
        if word < 0:
            raise ValueError(f"seed must be nonnegative, got {word}")
        for shift in range(0, max(word.bit_length(), 1), 64):
            key = int(SplitMix64(key ^ ((word >> shift) & _MASK)).bits(1)[0])
    return SplitMix64(key)
