"""Deterministic 64-bit PRNG (splitmix64) used for all seeded randomness.

The recurrence and mixing constants are the standard splitmix64 ones:
state advances by 0x9E3779B97F4A7C15 per output, and each output is the
state mixed by two xor-shift-multiply rounds.  Outputs count from 1, output
k being the state after k advances, so `random_coloring` gives the node of
rank r output r.  `splitmix64_output` jumps straight to any output of a
stream; `SplitMix64` draws them in order.  `splitmix64_low_bits` is the bulk
read of a run of outputs' low bits: it mixes the run side by side in one int,
one 128-bit lane per output, and agrees with the scalar jump output by
output.  Every consumer draws from its own stream, so seeds are reproducible
across platforms and runs.
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


# The lane kernel: output i of a chunk sits in bits [128 i, 128 i + 64) of one
# int.  A lane below 2^64 times a 64-bit constant stays below 2^128, so no
# product carries into the next lane; a right shift moves the next lane's low
# bits into this lane's high bits, which the mask clears before the multiply.
_CHUNK = 1024  # outputs per lane int, so the transient ints stay at 16 KiB
_ONES = int.from_bytes(b"\x01".ljust(16, b"\x00") * _CHUNK, "little")  # 1 in every lane
_LOW64 = _ONES * _MASK  # the low 64 bits of every lane
_STEPS = int.from_bytes(b"".join((i * _GAMMA).to_bytes(16, "little") for i in range(_CHUNK)), "little")  # i * gamma in lane i


def splitmix64_low_bits(seed: int, start: int, count: int) -> bytes:
    """The low bits of outputs start .. start + count - 1 of the stream seeded with `seed`, one byte 0/1 each."""
    chunks = []
    for first in range(start, start + count, _CHUNK):
        lanes = min(_CHUNK, start + count - first)
        keep = (1 << (lanes << 7)) - 1
        z = (((seed + first * _GAMMA) & _MASK) * (_ONES & keep) + (_STEPS & keep)) & _LOW64
        z = (((z ^ (z >> 30)) & _LOW64) * _MIX1) & _LOW64
        z = (((z ^ (z >> 27)) & _LOW64) * _MIX2) & _LOW64
        chunks.append(((z ^ (z >> 31)) & _ONES).to_bytes(lanes << 4, "little")[::16])
    return b"".join(chunks)


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

    def low_bits(self, n: int) -> bytes:
        """The next n outputs' low bits, one byte 0/1 each, as n next_bit() calls would draw them."""
        first = self._drawn + 1
        self._drawn += n
        return splitmix64_low_bits(self._seed, first, n)

    def below(self, bound: int) -> int:
        # Plain modulo: bias is irrelevant here, determinism is not.
        assert bound > 0
        return self.next_u64() % bound
