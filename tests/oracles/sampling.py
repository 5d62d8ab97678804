"""Seeded random rational points, for generating test inputs.

The library draws no random point: every point it picks comes from
``pencil.point_walk``.  Tests still draw their inputs from this seeded
generator, so that every input stays the same from run to run.
"""

from __future__ import annotations

import random
from fractions import Fraction


class SamplingPolicy:
    """Seeded source of random rational points."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def spawn(self, tag: int) -> "SamplingPolicy":
        """Independent substream, for parallel-safe per-task sampling."""
        return SamplingPolicy(seed=self._mix(tag))

    def _mix(self, tag: int) -> int:
        return (self.seed * 1000003 + tag * 7919 + 12345) % (2 ** 31)

    def small_rational(self, max_num: int = 10, max_den: int = 4) -> Fraction:
        p = self._rng.randint(-max_num, max_num)
        q = self._rng.randint(1, max_den)
        return Fraction(p, q)

    def rational_point(self, dim: int, max_num: int = 10, max_den: int = 4) -> list:
        return [self.small_rational(max_num, max_den) for _ in range(dim)]

    def randint(self, a: int, b: int) -> int:
        return self._rng.randint(a, b)
