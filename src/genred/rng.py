"""Portable seeded random number generation for sampling.

The generator is a splitmix-style 64-bit sequence, fixed bit-exactly so that
sample streams are reproducible across runs, platforms, and independent
reimplementations:

* state: an unsigned 64-bit integer, initialized to ``seed mod 2**64``;
* each step: ``state = (state + 0x9E3779B97F4A7C15) mod 2**64``, then the
  output is obtained from ``z = state`` via

    ``z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64``
    ``z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64``
    ``z = z ^ (z >> 31)``

* uniform integers below ``n`` use rejection over ``k`` words, where ``k``
  is ``ceil(bitlen(n - 1) / 64)`` (1 for every ``n <= 2**64``): draw ``k``
  words and join them big-endian into one integer below ``2**(64k)``, until
  that integer is below ``2**(64k) - (2**(64k) mod n)``, then reduce it
  modulo ``n`` (unbiased);
* a draw from an exact rational distribution over ``k`` ordered outcomes
  brings the weights to their lowest common denominator ``d``, draws
  ``r`` uniformly below ``d``, and returns the first outcome whose
  cumulative numerator exceeds ``r``.

Every use in this package draws outcomes in a canonical order (states by
state index, kernel pairs by state index then symbol index), so equal seeds
give equal streams.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Sequence

_SPAN = 1 << 64
_MASK = _SPAN - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The fixed 64-bit generator described in the module docstring."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        if n == 1:
            return 0
        span = _SPAN if n <= _SPAN else _SPAN ** -(-(n - 1).bit_length() // 64)  # 2**(64k)
        limit = span - span % n
        while True:
            u, size = self.next64(), _SPAN
            while size < span:  # a further word, big-endian
                u, size = (u << 64) | self.next64(), size << 64
            if u < limit:
                return u % n

    def draw(self, cum: Sequence[int]) -> int:
        """Index of the first entry of ``cum``, built by :func:`thresholds`,
        above ``below(cum[-1])``."""
        return bisect_right(cum, self.below(cum[-1]))

    def choose(self, outcomes: Sequence[object], weights: Sequence[Fraction]) -> object:
        """Exact draw over ordered outcomes by nonnegative rational weights
        that sum to one exactly."""
        if len(outcomes) != len(weights):
            raise ValueError("outcomes and weights must be equal-length")
        return outcomes[self.draw(thresholds(weights))]


def thresholds(weights: Sequence[Fraction]) -> list[int]:
    """Cumulative numerators of ``weights`` at their lowest common
    denominator d, so the last is d.  Weights must be nonnegative and sum
    to one exactly."""
    denom = lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (denom // w.denominator) for w in weights]
    if any(n < 0 for n in scaled) or sum(scaled) != denom:
        raise ValueError("weights must be nonnegative and sum to 1 exactly")
    return list(accumulate(scaled))
