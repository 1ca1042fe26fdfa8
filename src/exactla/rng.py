"""Deterministic, platform-independent pseudo-random generator.

SplitMix64: one 64-bit mixing step per draw.  The same seed yields the
same stream on every platform, which is what the benchmark generators
and the probabilistic solvers require for reproducibility.
"""

MASK = (1 << 64) - 1


class Rng:
    def __init__(self, seed):
        self.state = seed & MASK

    def next64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        """Uniform integer in [0, n), for bounds of any size."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        bits = n.bit_length()
        words = (bits + 63) // 64
        top_mask = (1 << bits) - 1
        # rejection sampling keeps the distribution exactly uniform
        while True:
            x = 0
            for _ in range(words):
                x = (x << 64) | self.next64()
            x &= top_mask
            if x < n:
                return x

    def int_between(self, lo, hi):
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)
