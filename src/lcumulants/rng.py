"""Deterministic 64-bit splitmix generator and exact-rational draws.

The verification suites are seeded and must reproduce bit-identically
across platforms and Python versions, so the standard library's Mersenne
twister is avoided in favour of this fixed, documented recurrence:

    state <- state + 0x9E3779B97F4A7C15            (mod 2^64)
    z <- state
    z <- (z XOR z>>30) * 0xBF58476D1CE4E5B9        (mod 2^64)
    z <- (z XOR z>>27) * 0x94D049BB133111EB        (mod 2^64)
    output <- z XOR z>>31

All randomness is turned into Fractions; no floats are produced.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]; bias is irrelevant for testing."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def fraction(self, denominator: int = 60, signed: bool = False) -> Fraction:
        """A fraction k/denominator with k in [0, denominator], or signed."""
        lo = -denominator if signed else 0
        return Fraction(self.randint(lo, denominator), denominator)

    def probability(self, denominator: int = 60, open_interval: bool = True) -> Fraction:
        """A probability, strictly inside (0, 1) when open_interval."""
        lo, hi = (1, denominator - 1) if open_interval else (0, denominator)
        return Fraction(self.randint(lo, hi), denominator)

    def weights(self, count: int, top: int = 20) -> list[Fraction]:
        """Positive rational weights summing to one."""
        raw = [self.randint(1, top) for _ in range(count)]
        total = sum(raw)
        return [Fraction(w, total) for w in raw]
