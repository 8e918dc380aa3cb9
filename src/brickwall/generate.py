"""Pattern generation: iterate geometric rules, grow and render block grids.

Level-by-level (breadth-first) generation so a single substitution step is
a first-class, testable operation.  Random rules consume exactly one PRNG
draw per brick, in lexicographic (y, x, type_id) order, which pins down the
whole stream for reproducibility.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from operator import attrgetter
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .rng import SplitMix64
from .rules import RuleError, SubstitutionRule
from .spectral import max_bricks

MAX_DEPTH = 12  # allocation guard on the depth of any wall
MAX_BRICKS = 2 ** 21  # most bricks one wall may hold, checked before building


class OverlapError(RuleError):
    """Two bricks overlap; the rule is not a valid tiling substitution."""


class Brick(NamedTuple):
    """A placed brick occupying [x, x+width) x [y, y+height); equal to the
    plain tuple of its fields, whose order is not the wall order, _ORDER."""

    type_id: str
    x: int
    y: int
    width: int
    height: int


@dataclass(frozen=True)
class Pattern:
    """A wall: its bricks and how it was made.

    The bricks are always in _ORDER, (y, x, type_id): a pattern made from
    bricks in any other order (hand-built, parsed, or just substituted)
    holds a sorted copy.  The PRNG draws and every output take one pass
    over them in that order."""

    rule_name: str
    level: int
    seed_type: Optional[str]
    rng_seed: Optional[int]
    bricks: Tuple[Brick, ...]

    def __post_init__(self):
        if not _in_order(self.bricks):
            object.__setattr__(self, "bricks",
                               tuple(sorted(self.bricks, key=_ORDER)))

    def __len__(self):
        return len(self.bricks)

    @property
    def area(self) -> int:
        return sum(b.width * b.height for b in self.bricks)

    def bbox(self) -> Tuple[int, int, int, int]:
        """(min_x, min_y, max_x, max_y) of the covered region."""
        if not self.bricks:
            raise ValueError("empty pattern has no bounding box")
        b = self.bricks[0]
        min_x, min_y, max_x, max_y = b.x, b.y, b.x + b.width, b.y + b.height
        for b in self.bricks:
            if b.x < min_x:
                min_x = b.x
            if b.y < min_y:
                min_y = b.y
            if b.x + b.width > max_x:
                max_x = b.x + b.width
            if b.y + b.height > max_y:
                max_y = b.y + b.height
        return min_x, min_y, max_x, max_y


@dataclass(frozen=True)
class LetterGrid:
    """Rows (bottom-to-top) of letter ids; lambda1^n x lambda2^n from one seed."""

    rows: Tuple[Tuple[str, ...], ...]
    level: int
    seed_letter: str


_ORDER = attrgetter("y", "x", "type_id")  # wall order: draws and outputs


def _in_order(bricks) -> bool:
    """True iff the bricks are in _ORDER; stops at the first pair that is not."""
    return all(a <= b for a, b in pairwise(map(_ORDER, bricks)))


def check_no_overlap(bricks: Iterable[Brick]) -> None:
    """Sweep over x; active y-intervals stay disjoint or we raise OverlapError."""
    events = []  # (x, kind, y0, y1); removals sort before insertions
    for b in bricks:
        events.append((b.x, 1, b.y, b.y + b.height))
        events.append((b.x + b.width, 0, b.y, b.y + b.height))
    events.sort()
    active: List[Tuple[int, int]] = []  # disjoint (y0, y1), sorted
    for x, kind, y0, y1 in events:
        if kind == 0:
            active.pop(bisect.bisect_left(active, (y0, y1)))
            continue
        i = bisect.bisect_left(active, (y0, y1))
        if i > 0 and active[i - 1][1] > y0:
            raise OverlapError(f"bricks overlap near x={x}, y={y0}")
        if i < len(active) and active[i][0] < y1:
            raise OverlapError(f"bricks overlap near x={x}, y={y0}")
        active.insert(i, (y0, y1))


@dataclass(frozen=True)
class OverlapCertificate:
    """Whether any wall iterate builds from any seed can contain an overlap.

    verdict is "certified" (never), "overlap" or "undecided".  For
    "overlap", message names the two types and their offset, and level is
    the first depth at which a wall (that of seed_type) overlaps; for a
    random rule, with some choice of options."""

    verdict: str
    message: str
    seed_type: Optional[str] = None
    level: Optional[int] = None


def overlap_certificate(rule: SubstitutionRule) -> OverlapCertificate:
    """Decide once per rule whether its walls can overlap.

    Works on pairs (t1, t2, dx, dy): two bricks whose anchors differ by
    (dx, dy).  A pair in a level-(m+1) wall is two siblings or two children
    of a pair in the level-m wall, so the sibling pairs closed under one
    substitution step, over every option pair, hold every pair any wall can
    contain.  On an axis with expansion lam >= 2, placement offsets spread
    over D and largest brick size S, a pair farther apart than
    K = max(S, ceil(D / (lam - 1))) cannot overlap and its children lie
    farther apart still, so closing the finite window |d| <= K decides the
    rule (legal-patch atlas: Baake & Grimm, Aperiodic Order vol. 1, ch. 5-6;
    Frank, Expo. Math. 2008).  A unit expansion leaves the rule undecided.
    """
    _require_geometric(rule)
    for axis, lam in (("lambda1", rule.lambda1), ("lambda2", rule.lambda2)):
        if lam == 1:
            return OverlapCertificate(
                "undecided", f"overlap undecided: {axis} = 1, so every level"
                             " of a wall is swept for overlaps")
    sizes = {t.id: (t.width, t.height) for t in rule.types}
    placements = [pl for opts in rule.images.values() for opt in opts
                  for pl in opt.placements]

    def window(lam, offsets, size):
        spread = max(offsets, default=0) - min(offsets, default=0)
        return max(size, -(-spread // (lam - 1)))

    kx = window(rule.lambda1, [pl.dx for pl in placements],
                max(w for w, _ in sizes.values()))
    ky = window(rule.lambda2, [pl.dy for pl in placements],
                max(h for _, h in sizes.values()))
    seeds = {}  # pair -> seed type of the wall it was first found in
    frontier = []

    def add(pair, seed):
        if abs(pair[2]) <= kx and abs(pair[3]) <= ky and pair not in seeds:
            seeds[pair] = seed
            frontier.append(pair)

    for t in rule.types:
        for opt in rule.images[t.id]:
            for i, a in enumerate(opt.placements):
                for j, b in enumerate(opt.placements):
                    if i != j:
                        add((a.type_id, b.type_id, b.dx - a.dx, b.dy - a.dy), t.id)
    level = 1
    while frontier:
        for t1, t2, dx, dy in frontier:
            (w1, h1), (w2, h2) = sizes[t1], sizes[t2]
            if -w2 < dx < w1 and -h2 < dy < h1:
                seed = seeds[t1, t2, dx, dy]
                return OverlapCertificate(
                    "overlap", f"overlap: {t1} and {t2} at offset ({dx}, {dy})"
                               f" in a level-{level} wall of seed {seed}",
                    seed, level)
        parents, frontier = frontier, []
        for t1, t2, dx, dy in parents:
            seed = seeds[t1, t2, dx, dy]
            ax, ay = rule.lambda1 * dx, rule.lambda2 * dy
            for o1 in rule.images[t1]:
                for o2 in rule.images[t2]:
                    for p in o1.placements:
                        for q in o2.placements:
                            add((p.type_id, q.type_id, ax + q.dx - p.dx,
                                 ay + q.dy - p.dy), seed)
        level += 1
    return OverlapCertificate("certified", "no wall of any seed overlaps")


def _choose_option(options, rng):
    if len(options) == 1:
        return options[0]
    draw = rng.next_u64()
    # compare draw/2^64 against cumulative probabilities, exactly
    acc = Fraction(0)
    for opt in options[:-1]:
        acc += opt.probability.value
        if draw * acc.denominator < acc.numerator << 64:
            return opt
    return options[-1]


def _substitute_bricks(rule: SubstitutionRule, bricks, rng) -> Tuple[Brick, ...]:
    # draws follow the order of bricks: pass a Pattern's, which keeps _ORDER
    sizes = {t.id: (t.width, t.height) for t in rule.types}
    out = []
    for b in bricks:
        opt = _choose_option(rule.images[b.type_id], rng)
        ax, ay = rule.lambda1 * b.x, rule.lambda2 * b.y
        for pl in opt.placements:
            w, h = sizes[pl.type_id]
            out.append(Brick(pl.type_id, ax + pl.dx, ay + pl.dy, w, h))
    return tuple(out)


def _require_geometric(rule):
    if rule.engine != "geometric":
        raise RuleError(f"rule '{rule.name}' is a block rule;"
                        " use iterate_block + render_grid")


def _check_budget(rule, seed_type, n):
    bound = max_bricks(rule, seed_type, n)
    if bound > MAX_BRICKS:
        raise RuleError(f"rule '{rule.name}' from seed '{seed_type}' at n={n}"
                        f" can build {bound} bricks, over the budget of"
                        f" {MAX_BRICKS}")


def _check_brick_types(rule, bricks):
    for b in bricks:
        t = rule.get_type(b.type_id)
        if (t.width, t.height) != (b.width, b.height):
            raise RuleError(f"brick {b.type_id}@({b.x},{b.y}) has size"
                            f" {b.width}x{b.height}, rule says {t.width}x{t.height}")


def _walls(rule, seed_type, n, rng_seed):
    """Check the arguments, then yield the wall of one seed at levels 0..n,
    each made from the one before by one substitution step: a Pattern for a
    geometric rule, a LetterGrid for a block rule."""
    seed = rule.get_type(seed_type)
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    if n > MAX_DEPTH:
        raise ValueError(f"depth {n} exceeds MAX_DEPTH={MAX_DEPTH}")
    if rule.is_parametric:
        raise RuleError(f"rule '{rule.name}' has unbound parameter p; bind it first")
    rng = None
    if rule.is_random:
        if rng_seed is None:
            raise RuleError(f"rule '{rule.name}' is random; rng_seed is required")
        rng = SplitMix64(rng_seed)
    _check_budget(rule, seed_type, n)
    if rule.engine == "block":
        rows = [[seed_type]]
        for level in range(n + 1):
            if level:  # row r of every letter's image, side by side
                rows = [[c for letter in row for c in rule.blocks[letter][r]]
                        for row in rows for r in range(rule.lambda2)]
            yield LetterGrid(tuple(map(tuple, rows)), level, seed_type)
        return
    sweep = n > 0 and rule.overlap_certificate.verdict != "certified"
    rng_seed = rng_seed if rule.is_random else None
    bricks = (Brick(seed.id, 0, 0, seed.width, seed.height),)
    for level in range(n + 1):
        if level:
            bricks = _substitute_bricks(rule, pattern.bricks, rng)
            if sweep:
                check_no_overlap(bricks)
        pattern = Pattern(rule.name, level, seed_type, rng_seed, bricks)
        yield pattern


def levels(rule: SubstitutionRule, seed_type: str, n: int,
           rng_seed: Optional[int] = None) -> Iterator[Pattern]:
    """The wall of one seed at levels 0..n, for either engine: n
    substitution steps in all, each level made from the one before."""
    for wall in _walls(rule, seed_type, n, rng_seed):
        yield render_grid(rule, wall) if rule.engine == "block" else wall


def iterate(rule: SubstitutionRule, seed_type: str, n: int,
            rng_seed: Optional[int] = None) -> Pattern:
    """Apply the rule n times to a single seed brick at the origin.

    Levels are swept for overlaps only when the rule's overlap certificate
    is not "certified"."""
    _require_geometric(rule)
    for pattern in _walls(rule, seed_type, n, rng_seed):
        pass
    return pattern


def substitute_once(rule: SubstitutionRule, pattern: Pattern,
                    rng: Optional[SplitMix64] = None) -> Pattern:
    """One substitution step; pass the same SplitMix64 across steps to
    reproduce what iterate does with a single stream."""
    _require_geometric(rule)
    _check_brick_types(rule, pattern.bricks)
    if rule.is_parametric:
        raise RuleError(f"rule '{rule.name}' has unbound parameter p; bind it first")
    if rule.is_random and rng is None:
        raise RuleError(f"rule '{rule.name}' is random; an rng is required")
    bricks = _substitute_bricks(rule, pattern.bricks, rng)
    check_no_overlap(bricks)  # the input pattern may come from anywhere
    return Pattern(rule.name, pattern.level + 1, pattern.seed_type,
                   pattern.rng_seed, bricks)


def iterate_block(rule: SubstitutionRule, seed_letter: str, n: int) -> LetterGrid:
    """Grow a letter grid by block substitution, n levels from one letter."""
    if rule.engine != "block":
        raise RuleError(f"rule '{rule.name}' is not a block rule")
    for grid in _walls(rule, seed_letter, n, None):
        pass
    return grid


def render_grid(rule: SubstitutionRule, grid: LetterGrid) -> Pattern:
    """Turn a letter grid into bricks: row R starts at x = skew*R and letters
    lie side by side with their own widths."""
    widths = {t.id: t.width for t in rule.types}
    bricks = []
    for r, row in enumerate(grid.rows):
        x = rule.skew * r
        for letter in row:
            w = widths[letter]
            bricks.append(Brick(letter, x, r, w, 1))
            x += w
    return Pattern(rule.name, grid.level, grid.seed_letter, None, tuple(bricks))


def generate_pattern(rule: SubstitutionRule, seed_type: str, n: int,
                     rng_seed: Optional[int] = None) -> Pattern:
    """Engine dispatch: iterate for geometric rules, grow + render for block."""
    if rule.engine == "block":
        return render_grid(rule, iterate_block(rule, seed_type, n))
    return iterate(rule, seed_type, n, rng_seed)


def ptm_oracle(i: int, j: int) -> str:
    """Letter of the 2D Prouhet-Thue-Morse array at column i, row j:
    parity of binary digit sums, XORed."""
    return "1" if (bin(i).count("1") + bin(j).count("1")) % 2 else "0"


# ---------------------------------------------------------------------------
# pattern text format: header line, then one `type_id x y width height` per
# line, sorted by (y, x)

_HEADER_RE = re.compile(r"#\s*rule=(\S+)\s+n=(\d+)\s+seed=(\S+)\s*$")


def format_pattern(pattern: Pattern) -> str:
    seed = "-" if pattern.rng_seed is None else str(pattern.rng_seed)
    lines = [f"# rule={pattern.rule_name} n={pattern.level} seed={seed}"]
    lines += [f"{t} {x} {y} {w} {h}" for t, x, y, w, h in pattern.bricks]
    return "\n".join(lines) + "\n"


def parse_pattern(text: str) -> Pattern:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty pattern text")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ValueError(f"bad pattern header: {lines[0]!r}")
    rule_name, level = m.group(1), int(m.group(2))
    rng_seed = None if m.group(3) == "-" else int(m.group(3))
    bricks = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 5:
            raise ValueError(f"bad pattern line: {ln!r}")
        tid, x, y, w, h = parts[0], *map(int, parts[1:])
        bricks.append(Brick(tid, x, y, w, h))
    return Pattern(rule_name, level, None, rng_seed, tuple(bricks))
