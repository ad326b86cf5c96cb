"""Seeded pseudo-random numbers with a documented, portable algorithm.

The generator is splitmix64: state advances by the 64-bit constant
0x9E3779B97F4A7C15 and each output is the finalized mix of the new state.
Every sampled quantity in the library is derived from this stream, so a run
is reproducible from its seed alone, independently of interpreter version.
`randints` maps the raw stream by modulo; the slight bias is irrelevant for
test sampling and keeps the mapping trivially portable.  `next_u64` and
`randint` are its one-value case.
"""

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        return self.randints(0, _MASK, 1)[0]

    def randint(self, lo: int, hi: int) -> int:
        """Integer in the inclusive range [lo, hi]."""
        return self.randints(lo, hi, 1)[0]

    def randints(self, lo: int, hi: int, count: int) -> list:
        """`count` successive integers in [lo, hi], in one loop over the stream."""
        if hi < lo:
            raise ValueError("empty range")
        span, state, out = hi - lo + 1, self._state, []
        for _ in range(count):
            state = (state + _GAMMA) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            out.append(lo + (z ^ (z >> 31)) % span)
        self._state = state
        return out

    def choice(self, seq):
        if not seq:
            raise ValueError("empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def fork(self) -> "SplitMix64":
        """Independent child stream (used to keep per-trial sampling stable)."""
        return SplitMix64(self.next_u64())
