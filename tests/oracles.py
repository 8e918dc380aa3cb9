"""Independent brute-force oracles shared by the test modules.

These recompute results along a different route than the library:
joints and crossings by rasterizing into unit cells, eigenvectors by
exact rational elimination, a substitution step by one sort of the whole
level, matrix powers by repeated squaring, the parity wall from binary
digit sums, any block wall's letters by index arithmetic, frequencies by
counting the bricks of a wall, text and SVG by one string per brick
joined once, the law of V_max by enumerating every realisation of a
random wall, the overlap certificate by looping over every option and
placement pair of each frontier pair.  Slow and simple on purpose.
"""

import bisect
from collections import Counter
from fractions import Fraction
from itertools import product

from brickwall import SubstitutionMatrix, SubstitutionRule
from brickwall.generate import (_ORDER, OverlapCertificate, _Memo,
                                _require_geometric)
from brickwall.joints import _edge_segments, _v_max
from brickwall.svg import CELL_SIZE, MORTAR_COLOR, MORTAR_WIDTH, _fmt


def rasterized_joints(pattern):
    """Joints by scanning unit vertical edges of a unit-cell raster.

    A unit edge at (x, [y, y+1]) is mortar when the cells left and right
    of it belong to different bricks (or one is empty).  Lines with no
    brick material strictly left or strictly right are skipped, runs of
    unit edges merge, which mirrors the documented joint convention.
    """
    cells = {}
    for i, b in enumerate(pattern.bricks):
        for cx in range(b.x, b.x + b.width):
            for cy in range(b.y, b.y + b.height):
                cells[(cx, cy)] = i
    min_x = min(b.x for b in pattern.bricks)
    max_x = max(b.x + b.width for b in pattern.bricks)
    min_y = min(b.y for b in pattern.bricks)
    max_y = max(b.y + b.height for b in pattern.bricks)
    joints = []
    for x in range(min_x + 1, max_x):
        run = None
        for y in range(min_y, max_y + 1):
            left, right = cells.get((x - 1, y)), cells.get((x, y))
            edge = (left is not None or right is not None) and left != right
            if edge and y < max_y:
                run = (run[0], y + 1) if run else (y, y + 1)
            elif run:
                joints.append((x, run[0], run[1]))
                run = None
    return sorted(joints)


def rasterized_crossing(bricks):
    """Crossing verdict of a set of bricks from a unit-cell raster.

    Each merged vertical edge run (x, y0, y1) of the bricks, exterior
    included, is walked one unit at a time: it crosses when every unit
    step has cells covered on both sides and at each end at least one of
    the four cells around the end point is uncovered.
    """
    cells = set()
    for b in bricks:
        for cx in range(b.x, b.x + b.width):
            for cy in range(b.y, b.y + b.height):
                cells.add((cx, cy))

    def crosses(x, y0, y1):
        if any((x - 1, y) not in cells or (x, y) not in cells
               for y in range(y0, y1)):
            return False
        return not any(all(q in cells for q in
                           ((x - 1, y), (x, y), (x - 1, y - 1), (x, y - 1)))
                       for y in (y0, y1))

    return any(crosses(x, y0, y1)
               for x, run in _edge_segments(bricks).items()
               for y0, y1 in zip(run[::2], run[1::2]))


def sorted_substitution_step(rule, rows, rng):
    """One substitution step: every child in draw order, one draw per
    parent with options in the order of rows, then one sort of the whole
    level by (y, x, type_id)."""
    out = []
    for t, x, y, _, _ in rows:
        thresholds, options = rule.substitution_table[t]
        children = (options[bisect.bisect_right(thresholds, rng.next_u64())]
                    if thresholds else options[0])
        for c, dx, dy, w, h in children:
            out.append((c, rule.lambda1 * x + dx, rule.lambda2 * y + dy, w, h))
    out.sort(key=_ORDER)
    return tuple(out)


def exact_vmax_law(rule, seed_type, n):
    """P(V_max = v) of the level-n wall of a bound random rule, as exact
    Fractions by v: every choice of options, level by level, one per brick,
    each realisation weighted by the product of its options' probabilities.
    Choices of probability 0 are dropped."""
    seed, l1, l2 = rule.get_type(seed_type), rule.lambda1, rule.lambda2
    walls = [(Fraction(1), ((seed_type, 0, 0, seed.width, seed.height),))]
    for _ in range(n):
        grown = []
        for weight, rows in walls:
            choices = [[opt for opt in rule.images[t] if opt.probability.value]
                       for t, *_ in rows]
            for pick in product(*choices):
                w, children = weight, []
                for (_, x, y, _, _), opt in zip(rows, pick):
                    w *= opt.probability.value
                    children += [(c, l1 * x + dx, l2 * y + dy, cw, ch)
                                 for c, dx, dy, cw, ch in opt.placements]
                grown.append((w, tuple(sorted(children, key=_ORDER))))
        walls = grown
    law = Counter()
    for weight, rows in walls:
        law[_v_max(rows)] += weight
    return dict(sorted(law.items()))


def exact_left_eigenvector(entries, lam):
    """Left eigenvector of a rational matrix for eigenvalue lam, normalized
    to sum 1, by Gaussian elimination over Fractions.  Expects a
    one-dimensional eigenspace."""
    n = len(entries)
    a = [[Fraction(entries[j][i]) - (lam if i == j else 0) for j in range(n)]
         for i in range(n)]
    row = 0
    pivots = []
    for col in range(n):
        piv = next((r for r in range(row, n) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = a[row][col]
        a[row] = [v / inv for v in a[row]]
        for r in range(n):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == 1, "expected a one-dimensional eigenspace"
    u = [Fraction(0)] * n
    u[free[0]] = Fraction(1)
    for r, c in enumerate(pivots):
        u[c] = -a[r][free[0]]
    total = sum(u)
    return tuple(v / total for v in u)


def _matmul(a, b):
    size = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(size))
                       for j in range(size))
                 for i in range(size))


def matrix_power(M, n):
    """Exact M**n by repeated squaring; n = 0 gives the identity."""
    if n < 0:
        raise ValueError("matrix_power needs n >= 0")
    size = M.size
    result = tuple(tuple(Fraction(1 if i == j else 0) for j in range(size))
                   for i in range(size))
    base = M.entries
    e = n
    while e:
        if e & 1:
            result = _matmul(result, base)
        base = _matmul(base, base)
        e >>= 1
    return SubstitutionMatrix(M.type_order, result, M.areas, M.expansion ** n)


def ptm_oracle(i, j):
    """Letter of the 2D Prouhet-Thue-Morse array at column i, row j:
    parity of binary digit sums, XORed."""
    return "1" if (bin(i).count("1") + bin(j).count("1")) % 2 else "0"


def block_letter(rule, seed, n, i, j):
    """Letter at column i, row j of the level-n block wall grown from seed,
    by index arithmetic: the letter of the parent cell at level n - 1
    picks the image, and (i mod lambda1, j mod lambda2) its cell."""
    if n == 0:
        return seed
    parent = block_letter(rule, seed, n - 1, i // rule.lambda1,
                          j // rule.lambda2)
    return rule.blocks[parent][j % rule.lambda2][i % rule.lambda1]


def empirical_frequencies(pattern, rule):
    """Brick-count share per type, in the rule's type order, zero-count
    types included."""
    if not pattern.rows:
        raise ValueError("empty pattern has no frequencies")
    counts = Counter(t for t, _, _, _, _ in pattern.rows)
    total = len(pattern.rows)
    return {tid: Fraction(counts[tid], total) for tid in rule.type_ids}


def one_string_per_brick_text(pattern):
    """format_pattern's text from one string per brick, joined once."""
    seed = "-" if pattern.rng_seed is None else str(pattern.rng_seed)
    lines = [f"# rule={pattern.rule_name} n={pattern.level} seed={seed}"]
    lines += [f"{t} {x} {y} {w} {h}" for t, x, y, w, h in pattern.rows]
    return "\n".join(lines) + "\n"


def one_string_per_brick_svg(pattern, rule):
    """to_svg's document from one string per brick, joined once."""
    if not pattern.rows:
        raise ValueError("cannot render an empty pattern")

    min_x, min_y, max_x, max_y = pattern.bbox()
    cs, pad = CELL_SIZE, MORTAR_WIDTH
    width = _fmt((max_x - min_x) * cs + 2 * pad)
    height = _fmt((max_y - min_y) * cs + 2 * pad)
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
             f' height="{height}" viewBox="0 0 {width} {height}">']

    def size_and_paint(key):
        tid, w, h = key
        return (f' width="{_fmt(w * cs)}" height="{_fmt(h * cs)}"'
                f' fill="{rule.get_type(tid).color}" stroke="{MORTAR_COLOR}"'
                f' stroke-width="{_fmt(pad)}"/>')

    # each distinct x, top edge and (type, size) is formatted once
    head = _Memo(lambda x: f'<rect x="{_fmt((x - min_x) * cs + pad)}" y="')
    # flip so row 0 is at the bottom
    mid = _Memo(lambda top: f'{_fmt((max_y - top) * cs + pad)}"')
    tail = _Memo(size_and_paint)
    for tid, x, y, w, h in pattern.rows:
        lines.append(head[x] + mid[y + h] + tail[tid, w, h])
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# the reference for generate.overlap_certificate, as the nested-loop
# closure: each frontier pair walks every option pair and placement pair
# of its two types again; the docstring is the library function's
def nested_loop_certificate(rule: SubstitutionRule) -> OverlapCertificate:
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
    placements = [b for opts in rule.images.values() for opt in opts
                  for b in opt.placements]

    def window(lam, offsets, size):
        spread = max(offsets, default=0) - min(offsets, default=0)
        return max(size, -(-spread // (lam - 1)))

    kx = window(rule.lambda1, [b.x for b in placements],
                max(w for w, _ in sizes.values()))
    ky = window(rule.lambda2, [b.y for b in placements],
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
                        add((a.type_id, b.type_id, b.x - a.x, b.y - a.y), t.id)
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
                            add((p.type_id, q.type_id, ax + q.x - p.x,
                                 ay + q.y - p.y), seed)
        level += 1
    return OverlapCertificate("certified", "no wall of any seed overlaps")
