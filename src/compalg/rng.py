"""Seeded pseudo-random numbers with a documented, portable algorithm.

The generator is splitmix64: state advances by the 64-bit constant
0x9E3779B97F4A7C15 and each output is the finalized mix of the new state.
Every sampled quantity in the library is derived from this stream, so a run
is reproducible from its seed alone, independently of interpreter version.
`randints` maps the raw stream by modulo; the slight bias is irrelevant for
test sampling and keeps the mapping trivially portable.  `next_u64` mixes
one state in plain int arithmetic; `randint`, `choice` and `fork` use it.

`randints` mixes all of its states at once in one int, state k + 1 in the
128-bit slot at bit 128*k: a 64-bit value times a 64-bit constant fits a
slot, and each shift before a product is masked to 64 bits in every slot;
`array('Q')` reads the words back from its little-endian bytes.
"""

import sys
from array import array

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SWAP = sys.byteorder == "big"  # array('Q') reads words in host order


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = z = (self._state + _GAMMA) & _MASK
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK
        z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK
        return z ^ z >> 31

    def randint(self, lo: int, hi: int) -> int:
        """Integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def randints(self, lo: int, hi: int, count: int) -> list:
        """`count` successive integers in [lo, hi], mixed in the slots of one int."""
        if hi < lo:
            raise ValueError("empty range")
        count = max(count, 0)  # a negative count draws nothing
        ones = ramp = size = 1  # one in each slot, and k + 1 in slot k, built by doubling
        while size < count:
            ramp |= (ramp + size * ones) << 128 * size
            ones |= ones << 128 * size
            size *= 2
        masks = _MASK * (ones & (1 << 128 * count) - 1)
        z = (self._state * ones + _GAMMA * ramp) & masks
        self._state = (self._state + count * _GAMMA) & _MASK
        z = (z ^ z >> 30 & masks) * 0xBF58476D1CE4E5B9 & masks
        z = (z ^ z >> 27 & masks) * 0x94D049BB133111EB & masks
        z ^= z >> 31  # leaves the high word of each slot dirty, but only the low ones are read
        words, span = array("Q", z.to_bytes(16 * count, "little")), hi - lo + 1
        if _SWAP:
            words.byteswap()
        return [lo + v % span for v in memoryview(words)[::2]]

    def choice(self, seq):
        if not seq:
            raise ValueError("empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def fork(self) -> "SplitMix64":
        """Independent child stream (used to keep per-trial sampling stable)."""
        return SplitMix64(self.next_u64())
