"""Deterministic pseudo-random numbers reproducible bit-for-bit from a seed.

SplitMix64 core (constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
0x94D049BB133111EB) with Box-Muller for normals. The stream depends only on
the 64-bit seed and the call sequence, never on platform or library version,
so harness runs can be replayed exactly.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = int(seed) & _MASK
        self._spare: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def normal(self) -> float:
        """Standard normal via Box-Muller; pairs are consumed in order."""
        if self._spare is not None:
            v = self._spare
            self._spare = None
            return v
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)
