"""Pattern generation: iterate geometric rules, grow and render block grids.

Level-by-level (breadth-first) generation so a single substitution step is
a first-class, testable operation.  Random rules consume one PRNG draw per
brick whose type has more than one option, in lexicographic (y, x, type_id)
order, which pins down the whole stream for reproducibility.  iterate makes
the last _SUPERTILE_LEVELS levels of a deterministic certified wall one step.
"""

from __future__ import annotations

import bisect
import re
from collections import defaultdict
from functools import cached_property
from itertools import accumulate, chain, permutations
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .rng import _SLICE_ROWS, SplitMix64, check_rng_seed
from .rules import Brick, RuleError, SubstitutionRule
from .spectral import max_bricks

MAX_DEPTH = 12  # allocation guard on the depth of any wall
MAX_BRICKS = 2 ** 21  # most bricks one wall may hold, checked before building
_SUPERTILE_LEVELS = 3  # levels iterate's last step spans, where it is exact


class _Memo(dict):
    """fn(key), computed on the first lookup of each key."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class OverlapError(RuleError):
    """Two bricks overlap; the rule is not a valid tiling substitution."""


class Pattern:
    """A wall: its bricks and how it was made; equal when every field is.

    rows holds the bricks as plain (type_id, x, y, width, height) tuples,
    always in _ORDER, (y, x, type_id): Pattern(...) takes bricks or tuples
    in any order, refuses what its text cannot carry (a rule name that is
    no word, a level that is no int >= 0, a row that is not a brick, an
    rng_seed that is no SplitMix64 seed) and keeps a sorted copy.  The PRNG
    draws and every output take one pass over the rows in that order;
    bricks is the same wall as Brick records, built on first read."""

    def __init__(self, rule_name, level, seed_type, rng_seed, bricks):
        if not _is_word(rule_name):
            raise ValueError(f"rule name {rule_name!r} is not a non-empty"
                             " str without whitespace")
        if type(level) is not int or level < 0:
            raise ValueError(f"level {level!r} is not an int >= 0")
        self.rule_name, self.level = rule_name, level
        self.seed_type = seed_type
        self.rng_seed = rng_seed if rng_seed is None else check_rng_seed(rng_seed)
        self.rows = tuple(sorted(map(_brick_row, bricks), key=_ORDER))

    @classmethod
    def _of_rows(cls, rule_name, level, seed_type, rng_seed, rows):
        """A Pattern of rows the engine built in _ORDER: no sort, no copy."""
        pattern = cls.__new__(cls)
        pattern.rule_name, pattern.level = rule_name, level
        pattern.seed_type, pattern.rng_seed = seed_type, rng_seed
        pattern.rows = rows
        return pattern

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _FIELDS(self) == _FIELDS(other)

    def __hash__(self):
        return hash(_FIELDS(self))

    @cached_property
    def bricks(self) -> Tuple[Brick, ...]:
        return tuple(map(Brick._make, self.rows))

    def __len__(self):
        return len(self.rows)

    @property
    def area(self) -> int:
        return sum(w * h for _, _, _, w, h in self.rows)

    def bbox(self) -> Tuple[int, int, int, int]:
        """(min_x, min_y, max_x, max_y) of the covered region."""
        if not self.rows:
            raise ValueError("empty pattern has no bounding box")
        _, min_x, min_y, w, h = self.rows[0]  # rows[0] has the least y
        max_x, max_y = min_x + w, min_y + h
        for _, x, y, w, h in self.rows:
            if x < min_x:  # a negative skew can start upper rows further left
                min_x = x
            if x + w > max_x:
                max_x = x + w
            if y + h > max_y:
                max_y = y + h
        return min_x, min_y, max_x, max_y


class LetterGrid(NamedTuple):
    """Rows (bottom-to-top) of letter ids; lambda1^n x lambda2^n from one seed."""

    rows: Tuple[Tuple[str, ...], ...]
    level: int
    seed_letter: str


_ORDER = itemgetter(2, 1, 0)  # wall order, (y, x, type_id): draws and outputs
_TYPE = itemgetter(0)  # a brick's type id
_X = itemgetter(1)  # a brick's x, which orders one row of a wall
_FIELDS = attrgetter("rule_name", "level", "seed_type", "rng_seed", "rows")


def _is_word(name) -> bool:
    """Whether name is a word: a non-empty str without whitespace, which
    one token of the pattern text carries."""
    return type(name) is str and name.split() == [name]


def _brick_row(brick) -> Tuple:
    """brick as a plain row, or ValueError naming it unless it holds a word
    type id, int x and y, and int width and height >= 1 (a bool is no int)."""
    row = tuple(brick)
    if (len(row) != 5 or not _is_word(row[0])
            or any(type(v) is not int for v in row[1:])
            or row[3] < 1 or row[4] < 1):
        raise ValueError(f"brick row {brick!r} is not (type_id, x, y, width,"
                         " height) of a word, two ints and two ints >= 1")
    return row


def check_no_overlap(bricks: Iterable[Brick]) -> None:
    """Sweep over x; active y-intervals stay disjoint or we raise OverlapError."""
    events = []  # (x, kind, y0, y1); removals sort before insertions
    for _, x, y, w, h in bricks:
        events.append((x, 1, y, y + h))
        events.append((x + w, 0, y, y + h))
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


class OverlapCertificate(NamedTuple):
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
    """Decide whether a rule's walls can overlap; rule.overlap_certificate
    runs this once per rule and caches the result.

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
    # (t1, t2) -> the distinct children (c1, c2, ex, ey) of two bricks at one
    # anchor over every option pair, in first-met order; a pair (t1, t2, d)
    # has these children shifted by lambda * d
    children = {(t1, t2): tuple(dict.fromkeys(
        (c1, c2, x2 - x1, y2 - y1)
        for o1 in rule.images[t1] for o2 in rule.images[t2]
        for c1, x1, y1, _, _ in o1.placements
        for c2, x2, y2, _, _ in o2.placements)) for t1 in sizes for t2 in sizes}

    def window(lam, axis, size):  # the spread D is the largest offset difference
        spread = max(c[axis] for table in children.values() for c in table)
        return max(size, -(-spread // (lam - 1)))

    kx = window(rule.lambda1, 2, max(w for w, _ in sizes.values()))
    ky = window(rule.lambda2, 3, max(h for _, h in sizes.values()))
    seeds = {}  # pair -> seed type of the wall it was first found in
    frontier = []

    def add(pair, seed):
        if abs(pair[2]) <= kx and abs(pair[3]) <= ky and pair not in seeds:
            seeds[pair] = seed
            frontier.append(pair)

    for t in sizes:
        for opt in rule.images[t]:
            for a, b in permutations(opt.placements, 2):
                add((a.type_id, b.type_id, b.x - a.x, b.y - a.y), t)
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
            for c1, c2, ex, ey in children[t1, t2]:
                add((c1, c2, ax + ex, ay + ey), seed)
        level += 1
    return OverlapCertificate("certified", "no wall of any seed overlaps")


def _substitution_table(rule: SubstitutionRule):
    """Per type, the draw thresholds ceil(P_k * 2^64) of its options k but
    the last, P_k the probability of options 0..k, and per option its
    children, its image bricks as plain tuples like a Pattern's rows.  As
    d < ceil(P_k * 2^64) iff d / 2^64 < P_k, the first option whose
    threshold exceeds d is exact."""
    table = {}
    for tid, options in rule.images.items():
        cumulative = accumulate(opt.probability.value for opt in options[:-1])
        table[tid] = (
            tuple(-((-P.numerator << 64) // P.denominator) for P in cumulative),
            tuple(tuple(map(tuple, opt.placements)) for opt in options))
    return table


def _supertile_table(rule: SubstitutionRule):
    """Per type id, its supertile, the wall _SUPERTILE_LEVELS levels down
    from it, in _substitution_table's shape, built on first lookup: sigma^k
    is a substitution with expansion lambda^k (Baake & Grimm, ch. 5)."""
    def supertile(t):
        *_, rows = _wall_rows(rule, t, _SUPERTILE_LEVELS, None)
        return (), (rows,)
    return _Memo(supertile)


def _substitute_bricks(table, l1, l2, rows, rng) -> Tuple[tuple, ...]:
    """One step of table at scale (l1, l2): the children of rows in _ORDER,
    one draw per parent that has options, in the order of rows (pass a
    Pattern's).  Children are filed by y, each row is sorted by x alone,
    and the rows are joined bottom to top.  A row arrives as a few
    ascending runs, one per parent row that feeds it, so its sort is
    near-linear.  Two children on one (x, y) overlap, and no caller returns
    a wall that overlaps, so x orders a row as (x, type_id) would."""
    drawn = {t for t, (thresholds, _) in table.items() if thresholds}
    draw = (rng.take(sum(map(drawn.__contains__, map(_TYPE, rows)))).__next__
            if drawn else None)  # the level's draws at once; rng None has none
    filed = defaultdict(list)
    for t, x, y, _, _ in rows:
        thresholds, options = table[t]
        children = (options[bisect.bisect_right(thresholds, draw())]
                    if thresholds else options[0])
        ax, ay = l1 * x, l2 * y
        for c, dx, dy, w, h in children:
            filed[ay + dy].append((c, ax + dx, ay + dy, w, h))
    out = []
    for y in sorted(filed):
        row = filed[y]
        row.sort(key=_X)
        out += row
    return tuple(out)


def _require_geometric(rule):
    if rule.engine != "geometric":
        raise RuleError(f"rule '{rule.name}' is a block rule;"
                        " use iterate_block + render_grid")


def _check_brick_types(rule, bricks):
    for tid, x, y, w, h in bricks:
        t = rule.get_type(tid)
        if (t.width, t.height) != (w, h):
            raise RuleError(f"brick {tid}@({x},{y}) has size"
                            f" {w}x{h}, rule says {t.width}x{t.height}")


def _check_wall(rule, seed_type, n, rng_seed):
    """Refuse a wall's arguments before any draw: a depth that is no int,
    the seed type, the depth, an unbound p, a random rule's rng_seed, then
    the brick budget.  Returns the seed the wall draws from (None if none)."""
    if type(n) is not int:
        raise ValueError(f"depth {n!r} is not an int")
    rule.get_type(seed_type)
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    if n > MAX_DEPTH:
        raise ValueError(f"depth {n} exceeds MAX_DEPTH={MAX_DEPTH}")
    if rule.is_parametric:
        raise RuleError(f"rule '{rule.name}' has unbound parameter p; bind it first")
    if rule.is_random:
        if rng_seed is None:
            raise RuleError(f"rule '{rule.name}' is random; rng_seed is required")
        check_rng_seed(rng_seed)
    bound = max_bricks(rule, seed_type, n)
    if bound > MAX_BRICKS:
        raise RuleError(f"rule '{rule.name}' from seed '{seed_type}' at n={n}"
                        f" can build {bound} bricks, over the budget of"
                        f" {MAX_BRICKS}")
    return rng_seed if rule.is_random else None


def _wall_rows(rule, seed_type, n, rng_seed):
    """The rows of a geometric wall at levels 0..n: the seed brick at the
    origin, then one substitution step per level, drawing from one
    SplitMix64(rng_seed) unless rng_seed is None.  Every level is swept for
    overlaps unless the rule's overlap certificate is "certified"."""
    seed = rule.get_type(seed_type)
    rng = None if rng_seed is None else SplitMix64(rng_seed)
    rows = ((seed.id, 0, 0, seed.width, seed.height),)
    yield rows
    sweep = n > 0 and rule.overlap_certificate.verdict != "certified"
    table, l1, l2 = rule.substitution_table, rule.lambda1, rule.lambda2
    for _ in range(n):
        rows = _substitute_bricks(table, l1, l2, rows, rng)
        if sweep:
            check_no_overlap(rows)
        yield rows


def _grids(rule, seed_letter, n):
    """The letter grids of a block wall at levels 0..n, each made from the
    one before: row r of every image side by side, from a table per r."""
    tables = [dict(zip(rule.blocks, r)) for r in zip(*rule.blocks.values())]
    rows = [[seed_letter]]
    for level in range(n + 1):
        if level:
            rows = [list(chain.from_iterable(map(table.__getitem__, row)))
                    for row in rows for table in tables]
        yield LetterGrid(tuple(map(tuple, rows)), level, seed_letter)


def levels(rule: SubstitutionRule, seed_type: str, n: int,
           rng_seed: Optional[int] = None) -> Iterator[Pattern]:
    """The wall of one seed at levels 0..n as a Pattern each, for either
    engine: n substitution steps in all, each level made from the one
    before.  The arguments are checked before the first level."""
    rng_seed = _check_wall(rule, seed_type, n, rng_seed)
    if rule.engine == "block":
        for grid in _grids(rule, seed_type, n):
            yield render_grid(rule, grid)
        return
    for level, rows in enumerate(_wall_rows(rule, seed_type, n, rng_seed)):
        yield Pattern._of_rows(rule.name, level, seed_type, rng_seed, rows)


def iterate(rule: SubstitutionRule, seed_type: str, n: int,
            rng_seed: Optional[int] = None) -> Pattern:
    """Apply the rule n times to a single seed brick at the origin.

    Levels are swept for overlaps only when the rule's overlap certificate
    is not "certified".  A deterministic certified rule makes its last
    _SUPERTILE_LEVELS steps as one, each brick becoming its type's supertile."""
    _require_geometric(rule)
    rng_seed = _check_wall(rule, seed_type, n, rng_seed)
    k = (_SUPERTILE_LEVELS if rng_seed is None and n >= _SUPERTILE_LEVELS
         and rule.overlap_certificate.verdict == "certified" else 0)
    for rows in _wall_rows(rule, seed_type, n - k, rng_seed):
        pass
    if k:
        rows = _substitute_bricks(rule.supertile_table, rule.lambda1 ** k,
                                  rule.lambda2 ** k, rows, None)
    return Pattern._of_rows(rule.name, n, seed_type, rng_seed, rows)


def substitute_once(rule: SubstitutionRule, pattern: Pattern,
                    rng: Optional[SplitMix64] = None) -> Pattern:
    """One substitution step; pass the same SplitMix64 across steps to
    reproduce what iterate does with a single stream."""
    _require_geometric(rule)
    _check_brick_types(rule, pattern.rows)
    if rule.is_parametric:
        raise RuleError(f"rule '{rule.name}' has unbound parameter p; bind it first")
    if rule.is_random and rng is None:
        raise RuleError(f"rule '{rule.name}' is random; an rng is required")
    rows = _substitute_bricks(rule.substitution_table, rule.lambda1,
                              rule.lambda2, pattern.rows, rng)
    check_no_overlap(rows)  # the input pattern may come from anywhere
    return Pattern._of_rows(rule.name, pattern.level + 1, pattern.seed_type,
                            pattern.rng_seed, rows)


def iterate_block(rule: SubstitutionRule, seed_letter: str, n: int) -> LetterGrid:
    """Grow a letter grid by block substitution, n levels from one letter."""
    if rule.engine != "block":
        raise RuleError(f"rule '{rule.name}' is not a block rule")
    _check_wall(rule, seed_letter, n, None)
    for grid in _grids(rule, seed_letter, n):
        pass
    return grid


def render_grid(rule: SubstitutionRule, grid: LetterGrid) -> Pattern:
    """Turn a letter grid into bricks: row R starts at x = skew*R and letters
    lie side by side with their own widths, so the rows come in _ORDER."""
    if rule.engine != "block":
        raise RuleError(f"rule '{rule.name}' is not a block rule")
    widths = {t.id: t.width for t in rule.types}
    rows = []
    try:
        for r, row in enumerate(grid.rows):
            x = rule.skew * r
            for letter in row:
                w = widths[letter]
                rows.append((letter, x, r, w, 1))
                x += w
    except KeyError as missing:
        rule.get_type(missing.args[0])  # raises: the rule lacks this letter
    return Pattern._of_rows(rule.name, grid.level, grid.seed_letter, None,
                            tuple(rows))


def generate_pattern(rule: SubstitutionRule, seed_type: str, n: int,
                     rng_seed: Optional[int] = None) -> Pattern:
    """Engine dispatch: iterate for geometric rules, grow + render for block."""
    if rule.engine == "block":
        return render_grid(rule, iterate_block(rule, seed_type, n))
    return iterate(rule, seed_type, n, rng_seed)


# ---------------------------------------------------------------------------
# pattern text format: header line, then one `type_id x y width height` per
# line, sorted by (y, x)

_HEADER_RE = re.compile(r"#\s*rule=(\S+)\s+n=(\d+)\s+seed=(-|\d+)\s*$")


def _text_slices(pattern: Pattern) -> Iterator[str]:
    """format_pattern's text: the header line, then _SLICE_ROWS bricks a
    string, so no renderer holds one string per brick of the wall."""
    seed = "-" if pattern.rng_seed is None else str(pattern.rng_seed)
    yield f"# rule={pattern.rule_name} n={pattern.level} seed={seed}\n"
    s = _Memo(str)  # each distinct integer is formatted once
    for i in range(0, len(pattern.rows), _SLICE_ROWS):
        yield "\n".join([f"{t} {s[x]} {s[y]} {s[w]} {s[h]}"
                         for t, x, y, w, h in pattern.rows[i:i + _SLICE_ROWS]]) + "\n"


def format_pattern(pattern: Pattern) -> str:
    return "".join(_text_slices(pattern))


def parse_pattern(text: str) -> Pattern:
    """The wall of format_pattern's text, blank lines skipped; a line it
    cannot read is a ValueError naming the line's 1-based number."""
    lines = enumerate(text.splitlines(), 1)
    for number, header in lines:
        if header.strip():
            break
    else:
        raise ValueError("empty pattern text")
    m = _HEADER_RE.match(header)
    if not m:
        raise ValueError(f"bad pattern header on line {number}: {header!r}")
    rule_name, level = m.group(1), int(m.group(2))
    rng_seed = None if m.group(3) == "-" else int(m.group(3))
    rows = []  # each row is checked here, so Pattern(...) need not again
    for number, line in lines:
        parts = line.split()
        if not parts:
            continue
        try:
            t, x, y, w, h = parts
            row = t, int(x), int(y), int(w), int(h)
            if row[3] < 1 or row[4] < 1:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad pattern line {number}: {line!r} is not"
                             " 'type_id x y width height' of integers with"
                             " width and height >= 1") from None
        rows.append(row)
    rows.sort(key=_ORDER)
    return Pattern._of_rows(rule_name, level, None, rng_seed, tuple(rows))
