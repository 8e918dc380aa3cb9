"""Monte-Carlo sampling of the random variable V_max(p).

Trial k is the wall iterate(rule.bind(p), seed, n, rng_seed=derive_seed(
base_seed, k)) builds, so runs are reproducible and trials could be farmed
out in parallel without sharing a stream.  The arguments and the brick
budget are checked once, before any draw; a trial makes its n substitution
steps, swept as iterate sweeps, and reads v_max from the wall's edge runs.
Results are recorded in trial order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Tuple

from .generate import _check_wall, _wall_rows
from .joints import _v_max
from .rng import derive_seed
from .rules import RuleError, SubstitutionRule


class VmaxStats(NamedTuple):
    p: Fraction
    n: int
    trials: int
    base_seed: int
    samples: Tuple[int, ...]

    @property
    def min(self) -> int:
        return min(self.samples)

    @property
    def max(self) -> int:
        return max(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    def histogram(self) -> Dict[int, int]:
        hist: Dict[int, int] = {}
        for s in self.samples:
            hist[s] = hist.get(s, 0) + 1
        return dict(sorted(hist.items()))

    def to_json(self) -> dict:
        return {
            "p": str(self.p),
            "n": self.n,
            "trials": self.trials,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "histogram": {str(k): v for k, v in self.histogram().items()},
            "base_seed": self.base_seed,
        }


def sample_vmax(rule: SubstitutionRule, seed_type: str, n: int, p,
                trials: int = 100, base_seed: int = 0) -> VmaxStats:
    """Sample v_max of iterate(rule[p], seed_type, n) over independent trials.

    The rule must carry the parametric coin p; it is bound here.  p = 0 and
    p = 1 degenerate to deterministic choices, and every trial then yields
    the same pattern no matter the seed.
    """
    if type(trials) is not int:
        raise ValueError(f"trials {trials!r} is not an int")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    p = Fraction(p)
    if not rule.is_parametric:
        raise RuleError(f"rule '{rule.name}' has no parameter p to sample over")
    bound = rule.bind(p)
    # base_seed is in range iff every base_seed ^ k is
    _check_wall(bound, seed_type, n, base_seed)
    samples = []
    for k in range(trials):
        for rows in _wall_rows(bound, seed_type, n, derive_seed(base_seed, k)):
            pass
        samples.append(_v_max(rows))
    return VmaxStats(p, n, trials, base_seed, tuple(samples))
