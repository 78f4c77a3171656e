"""Deterministic 64-bit PRNG (splitmix64) used for all seeded randomness.

The recurrence and mixing constants are the standard splitmix64 ones:
state advances by 0x9E3779B97F4A7C15 per output, and each output is the
state mixed by two xor-shift-multiply rounds.  Outputs count from 1, output
k being the state after k advances, so `random_coloring` gives the node of
rank r output r.  `splitmix64_output` jumps straight to any output of a
stream; `SplitMix64` draws them in order.  Every consumer draws from its own
stream, so seeds are reproducible across platforms and runs.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_output(seed: int, k: int) -> int:
    """Output k (from 1) of the stream seeded with `seed`, by direct state jump."""
    z = (seed + k * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Stream of 64-bit outputs from a single integer seed."""

    __slots__ = ("_seed", "_drawn")

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._drawn = 0

    def next_u64(self) -> int:
        self._drawn += 1
        return splitmix64_output(self._seed, self._drawn)

    def next_bit(self) -> int:
        return self.next_u64() & 1

    def below(self, bound: int) -> int:
        # Plain modulo: bias is irrelevant here, determinism is not.
        assert bound > 0
        return self.next_u64() % bound
