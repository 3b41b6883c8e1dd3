"""Deterministic 64-bit randomness for every randomized construction.

The generator is SplitMix64 (Steele/Lea/Flood), fixed here by name and
constants so that runs replicate bit-for-bit across platforms and can be
reimplemented in any language.  State update adds the golden-gamma constant;
the output mix is the standard two-multiply finalizer.

SplitMix64 is counter-based: the k-th state after seed s is s + k*gamma
mod 2^64, so ``draws(n)`` computes the next n outputs in one vectorised
pass, and it is the only way to read the stream.  Each instance sampler
makes one ``draws`` call (through ``bernoulli_flags`` for G(n, p)), and
``bernoulli_mask`` packs ``bernoulli_flags`` into an int.  A greedy round of
the random separator builder uses the bits of one ``bernoulli_mask(32*n)``
call, candidate-major and vertex-minor: candidate i is bits i*n .. i*n+n-1.
The builder draws several rounds' bits in one call, which gives the same
bits because the stream is counter-based.
"""

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
TWO64 = 1 << 64


def bernoulli_threshold(p: float) -> int:
    """Integer threshold t such that a uniform u64 draw is a success iff draw < t.

    Multiplying a float by 2**64 only shifts the exponent, so the conversion
    is exact and portable for any p in [0, 1].
    """
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return TWO64
    return int(p * 18446744073709551616.0)


class SplitMix64:
    """Sequential SplitMix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def draws(self, n: int) -> np.ndarray:
        """The next n outputs of the stream as a uint64 array.

        A negative n raises ``ValueError`` and consumes nothing.
        """
        if n < 0:
            raise ValueError(f"draw count must be nonnegative, got {n}")
        start = self._state
        self._state = (start + n * _GAMMA) & MASK64
        # uint64 arrays wrap silently, which is the mod 2^64 wanted here
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(start)
        z ^= z >> 30
        z *= _MIX1
        z ^= z >> 27
        z *= _MIX2
        z ^= z >> 31
        return z

    def bernoulli_flags(self, n: int, threshold: int) -> np.ndarray:
        """Bool array over ``draws(n)``, flag v set iff draw v is below
        threshold."""
        z = self.draws(n)
        if threshold >= TWO64:  # does not fit a uint64, and every draw is below it
            return np.ones(n, dtype=bool)
        return z < max(threshold, 0)

    def bernoulli_mask(self, n: int, threshold: int) -> int:
        """``bernoulli_flags`` packed into a bitmask: bit v is flag v."""
        bits = np.packbits(self.bernoulli_flags(n, threshold), bitorder="little")
        return int.from_bytes(bits.tobytes(), "little")
