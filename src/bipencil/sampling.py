"""Deterministic rational sampling.

All genericity choices in the library are drawn from a seeded generator over
{p/q : |p|, |q| <= 1000}, so that runs are reproducible and exact-mode proofs
("a degree-<=d polynomial cannot vanish at d+1 distinct points") apply.
"""

from __future__ import annotations

import random
from fractions import Fraction

MAX_NUM = MAX_DEN = 1000


class SamplingPolicy:
    """Seeded source of generic rational parameters and points."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def spawn(self, tag: int) -> "SamplingPolicy":
        """Independent substream, for parallel-safe per-task sampling."""
        return SamplingPolicy(seed=self._mix(tag))

    def _mix(self, tag: int) -> int:
        return (self.seed * 1000003 + tag * 7919 + 12345) % (2 ** 31)

    def rational(self) -> Fraction:
        p = self._rng.randint(-MAX_NUM, MAX_NUM)
        q = self._rng.randint(1, MAX_DEN)
        return Fraction(p, q)

    def distinct_rationals(self, count: int, exclude=()) -> list:
        """``count`` distinct rationals avoiding ``exclude``."""
        seen = set(exclude)
        out = []
        while len(out) < count:
            r = self.rational()
            if r not in seen:
                seen.add(r)
                out.append(r)
        return out

    def small_rational(self, max_num: int = 10, max_den: int = 4) -> Fraction:
        p = self._rng.randint(-max_num, max_num)
        q = self._rng.randint(1, max_den)
        return Fraction(p, q)

    def rational_point(self, dim: int, max_num: int = 10, max_den: int = 4) -> list:
        return [self.small_rational(max_num, max_den) for _ in range(dim)]

    def randint(self, a: int, b: int) -> int:
        return self._rng.randint(a, b)
