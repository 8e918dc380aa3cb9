"""Substitution matrix, dominant eigenpair, and exact counting.

The matrix M has entry (t, u) = number of bricks of type u in the image of
type t (expected count, as an exact rational, for random rules).  Its
dominant eigenvalue is lambda1*lambda2 with right eigenvector the brick
areas; the normalized left eigenvector gives asymptotic brick frequencies.
Both come from power iteration in plain Python floats with one rounding per
multiply-add, so they are the same on every platform.  Counting (brick
totals, realization counts) stays in arbitrary-precision integers
throughout.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from .rules import RuleError, SubstitutionRule

_TOL = 1e-9
_MAX_ITER = 100_000


class SubstitutionMatrix(NamedTuple):
    type_order: Tuple[str, ...]
    entries: Tuple[Tuple[Fraction, ...], ...]
    # right eigenvector data for the exact identity M*v = expansion*v;
    # block rules count grid cells, so every letter has cell area 1
    areas: Tuple[int, ...]
    expansion: int

    @property
    def size(self) -> int:
        return len(self.type_order)

    def __getitem__(self, pair):
        i = self.type_order.index(pair[0])
        j = self.type_order.index(pair[1])
        return self.entries[i][j]


def _placement_counts(rule: SubstitutionRule) -> List[List[List[int]]]:
    """Per type, in type order: for each image option, how many bricks of
    each type it places.  A block image is a single option."""
    index = {tid: i for i, tid in enumerate(rule.type_ids)}

    def counts(refs):
        row = [0] * len(index)
        for ref in refs:
            row[index[ref]] += 1
        return row

    if rule.engine == "block":
        return [[counts(ref for row in rule.blocks[tid] for ref in row)]
                for tid in rule.type_ids]
    return [[counts(pl.type_id for pl in opt.placements) for opt in rule.images[tid]]
            for tid in rule.type_ids]


def matrix(rule: SubstitutionRule) -> SubstitutionMatrix:
    """M for a rule; random rules get probability-weighted expected counts."""
    if rule.is_parametric:
        raise RuleError(f"rule '{rule.name}' has unbound parameter p; bind it first")
    rows = []
    for tid, per_option in zip(rule.type_ids, _placement_counts(rule)):
        probs = ([1] if rule.engine == "block" else
                 [opt.probability.value for opt in rule.images[tid]])
        rows.append(tuple(sum((pr * c for pr, c in zip(probs, column)), Fraction(0))
                          for column in zip(*per_option)))
    if rule.engine == "block":
        areas = tuple(1 for _ in rule.types)
    else:
        areas = tuple(t.area for t in rule.types)
    return SubstitutionMatrix(rule.type_ids, tuple(rows), areas, rule.expansion)


def assert_area_eigenvector(M: SubstitutionMatrix) -> None:
    """Exact rational check that the area vector is a right eigenvector for
    the expansion eigenvalue; raises ValueError when the identity fails."""
    for i, row in enumerate(M.entries):
        lhs = sum(row[j] * M.areas[j] for j in range(M.size))
        rhs = M.expansion * M.areas[i]
        if lhs != rhs:
            raise ValueError(f"area eigenvector identity fails at"
                             f" {M.type_order[i]}: {lhs} != {rhs}")


def _dot(row, x) -> float:
    """sum(a * v) with one rounding per multiply-add, as a fused
    multiply-add gives, so the float is the same on every platform."""
    s = 0.0
    for a, v in zip(row, x):
        s = float(Fraction(a) * Fraction(v) + Fraction(s))
    return s


def _power_iteration(entries):
    """Max-norm power iteration from all ones on the float rows of entries.
    A state seen before ends the loop: the map is deterministic, so from
    there it would only cycle, and the error names the cycle's length."""
    rows = [[float(e) for e in row] for row in entries]
    x, seen = (1.0,) * len(rows), {}  # state -> the step it was reached at
    while x not in seen and len(seen) < _MAX_ITER:
        seen[x] = len(seen)
        y = [_dot(row, x) for row in rows]
        lam = max(map(abs, y))
        if lam == 0.0:
            return 0.0, x
        xn = tuple(v / lam for v in y)
        if max(abs(a - b) for a, b in zip(xn, x)) < _TOL:
            return lam, xn
        x = xn
    why = (f"the iterate repeats with period {len(seen) - seen[x]}" if x in seen
           else f"power iteration did not converge in {_MAX_ITER} steps")
    raise RuleError(f"substitution matrix has no unique dominant eigenvector"
                    f" ({why})")


def pf_eigenvalue(M: SubstitutionMatrix) -> float:
    """Dominant eigenvalue by power iteration (all-ones start, max-norm
    convergence).  Also asserts the exact area eigenvector identity."""
    assert_area_eigenvector(M)
    lam, _ = _power_iteration(M.entries)
    return lam


def brick_frequencies(M: SubstitutionMatrix) -> Tuple[float, ...]:
    """Normalized left eigenvector for the dominant eigenvalue: the
    asymptotic share of each brick type."""
    _, vec = _power_iteration(zip(*M.entries))
    total = sum(vec)
    return tuple(v / total for v in vec)


def _count_vectors(rule: SubstitutionRule):
    """Integer count vector per type plus option counts; refuses rules whose
    option choice changes the counts (the level populations are then random
    and neither brick totals nor realization counts are well defined)."""
    rows: List[List[int]] = []
    option_counts: List[int] = []
    for tid, per_option in zip(rule.type_ids, _placement_counts(rule)):
        if any(c != per_option[0] for c in per_option[1:]):
            raise RuleError(f"option choice changes brick counts for '{tid}';"
                            " counting is not defined for this rule")
        rows.append(per_option[0])
        option_counts.append(len(per_option))
    return rows, option_counts


def _seed_vector(rule, seed_type):
    order = rule.type_ids
    rule.get_type(seed_type)
    return [1 if tid == seed_type else 0 for tid in order]


def _level_counts(rule: SubstitutionRule, rows, seed_type: str, n: int):
    """The seed's count vector v_n after n steps of rows, and the sum of v_m
    over m < n.  Under unit expansion the area is fixed, so the vectors
    repeat: at the first repeat, all whole periods left are skipped."""
    if type(n) is not int:
        raise ValueError(f"depth {n!r} is not an int")
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    v = _seed_vector(rule, seed_type)
    total, m, seen = [0] * len(v), 0, {}
    while m < n:
        first, before = seen.get(tuple(v), (m, total))
        if first < m:  # the vectors of levels first..m-1 repeat from here
            k = (n - m) // (m - first)
            total = [s + k * (s - b) for s, b in zip(total, before)]
            m, seen = m + k * (m - first), {}  # fewer steps left than a period
            continue
        if rule.expansion == 1:  # vector -> (its first level, total)
            seen[tuple(v)] = (m, total)
        total = list(map(operator.add, total, v))
        v = [sum(map(operator.mul, v, column)) for column in zip(*rows)]
        m += 1
    return v, total


def count_bricks(rule: SubstitutionRule, seed_type: str, n: int) -> int:
    """Exact number of bricks in the n-th image of the seed."""
    return sum(_level_counts(rule, _count_vectors(rule)[0], seed_type, n)[0])


def growth_bounds(rule: SubstitutionRule) -> Tuple[List[List[int]], int]:
    """The parts of max_bricks that depend on the rule alone: per type, the
    most bricks of each type any of its options places; the smallest brick
    area."""
    rows = [[max(column) for column in zip(*per_option)]
            for per_option in _placement_counts(rule)]
    return rows, min(t.area for t in rule.types)


def max_bricks(rule: SubstitutionRule, seed_type: str, n: int) -> int:
    """Most bricks the n-th image of the seed can hold.  The lesser of two
    bounds: every brick places, of each type, the most any of its options
    places; and the wall's area, which grows by lambda1*lambda2 per step
    under the area identity, over the smallest brick area.  Equals
    count_bricks wherever that is defined, so for a block rule, whose
    letters each have one image, it is lambda1*lambda2 letters per letter."""
    seed = rule.get_type(seed_type)
    rows, min_area = rule.growth_bounds
    v, _ = _level_counts(rule, rows, seed_type, n)
    return min(sum(v), seed.area * rule.expansion ** n // min_area)


def _prime_factors(k: int) -> Dict[int, int]:
    factors: Dict[int, int] = {}
    p = 2
    while k > 1:
        while k % p == 0:
            factors[p] = factors.get(p, 0) + 1
            k //= p
        p += 1
    return factors


def realization_factors(rule: SubstitutionRule, seed_type: str,
                        n: int) -> Dict[int, int]:
    """count_realizations as {prime: exponent}, which stays small when the
    count itself has more digits than Python will print."""
    rows, ks = _count_vectors(rule)
    _, total = _level_counts(rule, rows, seed_type, n)
    exponents: Dict[int, int] = {}
    for k, count in zip(ks if n else (), total):  # N_m(t) summed over m < n
        for p, e in _prime_factors(k).items():
            exponents[p] = exponents.get(p, 0) + e * count
    return exponents


def count_realizations(rule: SubstitutionRule, seed_type: str, n: int) -> int:
    """Exact number of distinct outcome sequences when generating the n-th
    image: every brick at every level picks one of its k options, so the
    count is the product over levels m < n of prod_t k_t ** N_m(t)."""
    return math.prod(p ** e for p, e in
                     realization_factors(rule, seed_type, n).items())
