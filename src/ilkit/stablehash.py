"""Platform-stable 64-bit hashing.

Fingerprint identifiers and canonical-ranking invariants must be bit-exact
reproducible across runs, platforms, and Python versions, so the built-in
(randomized) ``hash`` is never used for them. ``combine`` folds a sequence
of integers into one 64-bit value with a fixed seed, passing each step
through the splitmix64 finalizer (Steele, Lea & Flood 2014).
"""

from __future__ import annotations

from typing import Iterable

_MASK = (1 << 64) - 1
SEED = 0x1109_2001_C0FF_EE00


def combine(values: Iterable[int], seed: int = SEED) -> int:
    """Hash a sequence of (possibly negative) integers order-sensitively.

    Each step is ``h = splitmix64(h ^ (v mod 2**64))``, written out inline.
    """
    h = seed & _MASK
    for v in values:
        h = ((h ^ (v & _MASK)) + 0x9E3779B97F4A7C15) & _MASK
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK
        h ^= h >> 31
    return h
