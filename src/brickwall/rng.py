"""SplitMix64, the only source of randomness in this package.

Patterns must be reproducible bit for bit across platforms, so we avoid
random.Random (Mersenne internals, float paths) and keep the whole stream
in exact 64-bit integer arithmetic.
"""

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_SLICE_ROWS = 4096  # draws per packed chunk of take; bricks per rendered slice
_CHUNK = []  # a chunk's constants, made by the first take


def check_rng_seed(seed: int) -> int:
    """The seed, if it can be a SplitMix64 state; ValueError if it is no int
    (nor a bool) or lies outside [0, 2**64), where it would alias one inside."""
    if type(seed) is not int:
        raise ValueError(f"rng seed {seed!r} is not an int")
    if not 0 <= seed <= MASK64:
        raise ValueError(f"rng seed {seed} outside [0, 2**64)")
    return seed


class SplitMix64:
    """Classic SplitMix64 stream; one next_u64() per random choice.  The
    seed is the initial state."""

    def __init__(self, seed: int):
        self.state = check_rng_seed(seed)

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def take(self, k: int):
        """An iterator over the next k outputs, as k calls of next_u64 give
        them; the state moves k steps on at once."""
        state, self.state = self.state, (self.state + k * _GAMMA) & MASK64
        return _outputs(state, k)


def _outputs(state, k):
    """The outputs of states state + gamma, ..., state + k * gamma, mixed a
    chunk at a time: its states sit in the 128-bit lanes of one int, where
    a 64-bit lane times a 64-bit multiplier stays in its lane, so each step
    of the mix is one operation on all of them."""
    from struct import unpack  # paid by the first draw, not by every import
    if not _CHUNK:  # 1 and (j + 1) * gamma in lane j from the top, by doubling
        ones = steps = w = 1
        while w < _SLICE_ROWS:  # _SLICE_ROWS is a power of two
            steps = (steps << 128 * w) + steps + w * ones
            ones, w = ones | ones << 128 * w, 2 * w
        _CHUNK[:] = ones, _GAMMA * steps, ones * MASK64
    ones, steps, lanes = _CHUNK  # the top m lanes serve a chunk of m
    for done in range(0, k, _SLICE_ROWS):
        m = min(k - done, _SLICE_ROWS)
        cut = 128 * (_SLICE_ROWS - m)
        z = (state * (ones >> cut) + (steps >> cut)) & lanes
        z = ((z ^ ((z >> 30) & lanes)) * _MIX1) & lanes
        z = ((z ^ ((z >> 27) & lanes)) * _MIX2) & lanes
        z ^= (z >> 31) & lanes
        # the lanes' low halves, first draw first, in an explicit byte order
        yield from unpack(f">{2 * m}Q", z.to_bytes(16 * m, "big"))[1::2]
        state = (state + m * _GAMMA) & MASK64


def derive_seed(base_seed: int, index: int) -> int:
    """Independent per-trial seed: one SplitMix64 output of (base_seed XOR index)."""
    return SplitMix64(check_rng_seed(base_seed) ^ index).next_u64()
