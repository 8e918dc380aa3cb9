"""SplitMix64, the only source of randomness in this package.

Patterns must be reproducible bit for bit across platforms, so we avoid
random.Random (Mersenne internals, float paths) and keep the whole stream
in exact 64-bit integer arithmetic.
"""

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def check_rng_seed(seed: int) -> int:
    """The seed, if it can be a SplitMix64 state; ValueError if it lies
    outside [0, 2**64), where it would alias a seed inside."""
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


def derive_seed(base_seed: int, index: int) -> int:
    """Independent per-trial seed: one SplitMix64 output of (base_seed XOR index)."""
    return SplitMix64(base_seed ^ index).next_u64()
